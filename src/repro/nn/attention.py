"""Attention primitives: multi-head attention and additive attention.

``MultiHeadAttention`` is the MHA of Vaswani et al. with the
feed-forward block and skip connections the Bootleg paper folds into its
``MHA(·)`` notation (Section 3.2). ``AdditiveAttention`` is the Bahdanau
attention Bootleg uses to pool an entity's multiple type (or relation)
embeddings into a single vector (Section 3.1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, is_grad_enabled

NEG_INF = -1e9


class ScaledDotProductAttention(Module):
    """softmax(Q K^T / sqrt(d)) V with optional boolean key mask."""

    def __init__(self, dropout: float, rng: np.random.Generator) -> None:
        super().__init__()
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def forward(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        key_mask: np.ndarray | None = None,
    ) -> Tensor:
        d = query.shape[-1]
        if not is_grad_enabled():
            # Inference fast path (dropout is the identity here): in-place
            # scale/mask/softmax on the score array instead of one
            # temporary per graph op. Same float op order as the autograd
            # path, so results are bitwise equal.
            # float(): a np.float64 scalar would promote float32 scores.
            scores = query.data @ key.data.swapaxes(-1, -2)
            scores *= float(1.0 / np.sqrt(d))
            if key_mask is not None:
                mask = np.asarray(key_mask, dtype=bool)
                np.copyto(scores, NEG_INF, where=mask[..., None, :])
            scores -= scores.max(axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=-1, keepdims=True)
            return Tensor(scores @ value.data)
        scores = (query @ key.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
        if key_mask is not None:
            # key_mask: True where the key position is PADDING (to be ignored).
            mask = np.asarray(key_mask, dtype=bool)
            # Broadcast to scores' shape: (..., q_len, k_len).
            expanded = np.broadcast_to(mask[..., None, :], scores.shape)
            scores = scores.masked_fill(expanded, NEG_INF)
        weights = scores.softmax(axis=-1)
        if self.dropout is not None:
            weights = self.dropout(weights)
        return weights @ value


class MultiHeadAttention(Module):
    """Multi-head attention block with residual + feed-forward sublayers.

    This matches the paper's ``MHA(E, W)`` (cross attention) and
    ``MHA(E)`` (self attention): attention with a skip connection and
    layer norm, followed by a position-wise feed-forward layer with its
    own skip connection and layer norm.
    """

    def __init__(
        self,
        hidden_dim: int,
        num_heads: int,
        rng: np.random.Generator,
        dropout: float = 0.1,
        ff_multiplier: int = 2,
    ) -> None:
        super().__init__()
        if hidden_dim % num_heads != 0:
            raise ConfigError(
                f"hidden_dim {hidden_dim} must be divisible by num_heads {num_heads}"
            )
        self.hidden_dim = hidden_dim
        self.num_heads = num_heads
        self.head_dim = hidden_dim // num_heads
        self.q_proj = Linear(hidden_dim, hidden_dim, rng)
        self.k_proj = Linear(hidden_dim, hidden_dim, rng)
        self.v_proj = Linear(hidden_dim, hidden_dim, rng)
        self.out_proj = Linear(hidden_dim, hidden_dim, rng)
        self.attention = ScaledDotProductAttention(dropout, rng)
        self.norm_attn = LayerNorm(hidden_dim)
        self.norm_ff = LayerNorm(hidden_dim)
        self.ff_in = Linear(hidden_dim, ff_multiplier * hidden_dim, rng)
        self.ff_out = Linear(ff_multiplier * hidden_dim, hidden_dim, rng)
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def _split_heads(self, x: Tensor) -> Tensor:
        """(..., L, H) -> (..., heads, L, head_dim)."""
        *batch, length, _ = x.shape
        x = x.reshape(*batch, length, self.num_heads, self.head_dim)
        return x.swapaxes(-2, -3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        """(..., heads, L, head_dim) -> (..., L, H)."""
        x = x.swapaxes(-2, -3)
        *batch, length, _, _ = x.shape
        return x.reshape(*batch, length, self.hidden_dim)

    def forward(
        self,
        query: Tensor,
        context: Tensor | None = None,
        key_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Attend ``query`` over ``context`` (self-attention if omitted)."""
        if context is None:
            context = query
        if query.shape[-1] != self.hidden_dim or context.shape[-1] != self.hidden_dim:
            raise ShapeError(
                f"MHA expected hidden dim {self.hidden_dim}, got "
                f"query {query.shape[-1]} / context {context.shape[-1]}"
            )
        q = self._split_heads(self.q_proj(query))
        k = self._split_heads(self.k_proj(context))
        v = self._split_heads(self.v_proj(context))
        head_mask = None
        if key_mask is not None:
            key_mask = np.asarray(key_mask, dtype=bool)
            # Insert the heads axis: (..., k_len) -> (..., 1, k_len).
            head_mask = key_mask[..., None, :]
        attended = self.attention(q, k, v, key_mask=head_mask)
        attended = self.out_proj(self._merge_heads(attended))
        if not is_grad_enabled():
            # Inference fast path: dropout is the identity, and the
            # residuals are added in place into the fresh out_proj and
            # ff_out outputs (addition commutes, so results are bitwise
            # equal to the graph path's).
            attended.data += query.data
            x = self.norm_attn(attended)
            ff = self.ff_out(self.ff_in(x).gelu())
            ff.data += x.data
            return self.norm_ff(ff)
        if self.dropout is not None:
            attended = self.dropout(attended)
        x = self.norm_attn(query + attended)
        ff = self.ff_out(self.ff_in(x).gelu())
        if self.dropout is not None:
            ff = self.dropout(ff)
        return self.norm_ff(x + ff)


class AdditiveAttention(Module):
    """Bahdanau-style pooling of a set of vectors into one vector.

    Given inputs of shape ``(..., S, D)`` (S items in the set), computes
    scores ``v^T tanh(W x_s)`` and returns the score-weighted sum of the
    items, shape ``(..., D)``. Items flagged in ``pad_mask`` (True =
    padding) receive zero weight.
    """

    def __init__(self, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.dim = dim
        self.proj = Linear(dim, dim, rng)
        self.score = Parameter(rng.normal(0.0, 0.02, size=dim))

    def forward(self, items: Tensor, pad_mask: np.ndarray | None = None) -> Tensor:
        if items.shape[-1] != self.dim:
            raise ShapeError(
                f"AdditiveAttention expected last dim {self.dim}, got {items.shape[-1]}"
            )
        scores = self.proj(items).tanh() @ self.score  # (..., S)
        if pad_mask is not None:
            pad_mask = np.asarray(pad_mask, dtype=bool)
            scores = scores.masked_fill(pad_mask, NEG_INF)
        weights = scores.softmax(axis=-1)  # (..., S)
        # Weighted sum over the set axis.
        *batch, num_items = weights.shape
        weighted = items * weights.reshape(*batch, num_items, 1)
        return weighted.sum(axis=-2)
