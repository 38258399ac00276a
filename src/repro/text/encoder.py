"""MiniBERT: the contextual token encoder standing in for BERT.

Bootleg consumes a sentence embedding matrix ``W ∈ R^{N×H}`` from a
(frozen) BERT (Section 3.1). Offline, we provide a small transformer
encoder with the same interface: token ids in, contextual vectors out.
It can be pre-trained with masked-language modeling
(:mod:`repro.text.pretrain`) and then frozen, or fine-tuned jointly
(as NED-Base does, Appendix B.2).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.nn.layers import Dropout, Embedding, LayerNorm, layer_norm
from repro.nn.module import Module
from repro.nn.tensor import Tensor, get_compute_dtype, is_grad_enabled
from repro.nn.transformer import TransformerEncoder, sinusoidal_position_encoding


class MiniBert(Module):
    """Token embedding + sinusoidal positions + transformer encoder stack."""

    def __init__(
        self,
        vocab_size: int,
        hidden_dim: int,
        num_heads: int,
        num_layers: int,
        rng: np.random.Generator,
        dropout: float = 0.1,
        max_len: int = 160,
    ) -> None:
        super().__init__()
        if vocab_size <= 0:
            raise ConfigError("vocab_size must be positive")
        self.vocab_size = vocab_size
        self.hidden_dim = hidden_dim
        self.max_len = max_len
        self.token_embedding = Embedding(vocab_size, hidden_dim, rng)
        self._position_table = sinusoidal_position_encoding(max_len, hidden_dim)
        self.embed_norm = LayerNorm(hidden_dim)
        self.embed_dropout = Dropout(dropout, rng) if dropout > 0 else None
        self.encoder = TransformerEncoder(
            hidden_dim, num_heads, num_layers, rng, dropout=dropout
        )
        self._frozen = False

    def freeze(self) -> "MiniBert":
        """Stop gradient flow into the encoder (Bootleg freezes BERT)."""
        self._frozen = True
        return self

    def unfreeze(self) -> "MiniBert":
        self._frozen = False
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def forward(self, token_ids: np.ndarray, pad_mask: np.ndarray | None = None) -> Tensor:
        """Encode ``token_ids`` (B, N) into contextual vectors (B, N, H)."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ConfigError(f"token_ids must be 2-D (B, N), got shape {token_ids.shape}")
        n = token_ids.shape[1]
        if n > self.max_len:
            raise ConfigError(f"sequence length {n} exceeds max_len {self.max_len}")
        if not is_grad_enabled():
            # On plain arrays after the bounds-checked lookup, up to the
            # encoder stack. The looked-up rows and the float64 position
            # table are each rounded to the compute dtype before the add,
            # as the graph path's Tensors round them, so results are
            # bitwise equal.
            embedded = self.token_embedding(token_ids).data
            embedded += self._position_table[:n].astype(
                get_compute_dtype(), copy=False
            )
            norm = self.embed_norm
            embedded = layer_norm(embedded, norm.gamma.data, norm.beta.data, norm.eps)
            return self.encoder(Tensor(embedded), pad_mask=pad_mask)
        embedded = self.token_embedding(token_ids)
        embedded = embedded + Tensor(self._position_table[:n])
        embedded = self.embed_norm(embedded)
        if self.embed_dropout is not None:
            embedded = self.embed_dropout(embedded)
        encoded = self.encoder(embedded, pad_mask=pad_mask)
        if self._frozen:
            encoded = encoded.detach()
        return encoded

    def logits_over_vocab(self, encoded: Tensor) -> Tensor:
        """Tied-weight LM head: project contextual vectors onto the vocab."""
        return encoded @ self.token_embedding.weight.transpose()
