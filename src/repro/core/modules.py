"""Bootleg's three attention modules (Section 3.2).

- ``Phrase2Ent``: cross attention from candidate entities to sentence
  words — learns textual cues for entity memorization, type affordance
  and relation context.
- ``Ent2Ent``: self attention among all candidates of all mentions —
  learns entity co-occurrence / type consistency.
- ``KG2Ent``: message passing over a pairwise-connectivity matrix,
  ``E_k = softmax(K + w·I) E + E`` with a learned self-loop weight ``w``
  — lets a high-scoring entity boost KG-connected candidates.
"""

from __future__ import annotations

import numpy as np

from repro.nn.attention import NEG_INF, MultiHeadAttention
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, get_compute_dtype, is_grad_enabled


class Phrase2Ent(Module):
    """Candidate-to-word cross attention (phrase memorization)."""

    def __init__(
        self,
        hidden_dim: int,
        num_heads: int,
        rng: np.random.Generator,
        dropout: float = 0.1,
    ) -> None:
        super().__init__()
        self.attention = MultiHeadAttention(hidden_dim, num_heads, rng, dropout=dropout)

    def forward(
        self,
        entities: Tensor,
        words: Tensor,
        word_pad_mask: np.ndarray | None = None,
    ) -> Tensor:
        """entities: (B, L, H) flattened candidates; words: (B, N, H)."""
        return self.attention(entities, words, key_mask=word_pad_mask)


class Ent2Ent(Module):
    """Candidate self attention (co-occurrence memorization)."""

    def __init__(
        self,
        hidden_dim: int,
        num_heads: int,
        rng: np.random.Generator,
        dropout: float = 0.1,
    ) -> None:
        super().__init__()
        self.attention = MultiHeadAttention(hidden_dim, num_heads, rng, dropout=dropout)

    def forward(
        self, entities: Tensor, candidate_pad_mask: np.ndarray | None = None
    ) -> Tensor:
        """entities: (B, L, H); pad mask True at padded candidate slots."""
        return self.attention(entities, key_mask=candidate_pad_mask)


class KG2Ent(Module):
    """Collective resolution over a pairwise adjacency matrix.

    ``E_k = softmax(K + w·I) E + E`` — the identity term (scaled by the
    learned scalar ``w``) balances an entity's own representation against
    its KG neighbors'; the additive ``+ E`` is a skip connection. Both
    are ablatable for the architecture study.
    """

    def __init__(
        self,
        initial_self_weight: float = 2.0,
        use_skip: bool = True,
        learn_self_weight: bool = True,
    ) -> None:
        super().__init__()
        self.use_skip = use_skip
        self.learn_self_weight = learn_self_weight
        self.self_weight = Parameter(np.array([initial_self_weight]))

    def forward(
        self,
        entities: Tensor,
        adjacency: np.ndarray,
        candidate_pad_mask: np.ndarray | None = None,
    ) -> Tensor:
        """entities: (B, L, H); adjacency: (B, L, L) non-negative weights."""
        batch_size, length, _ = entities.shape
        if not is_grad_enabled():
            # Inference fast path: add the self-loop weight straight onto
            # the diagonal and run the softmax in place — no (B, L, L)
            # eye materialization or per-op temporaries. Float op order
            # matches the autograd path (x + w·0 == x), so results are
            # bitwise equal.
            scores = np.array(adjacency, dtype=get_compute_dtype(), copy=True)
            diagonal = np.arange(length)
            scores[:, diagonal, diagonal] += float(self.self_weight.data[0])
            if candidate_pad_mask is not None:
                np.copyto(scores, NEG_INF, where=candidate_pad_mask[:, None, :])
            scores -= scores.max(axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=-1, keepdims=True)
            out = scores @ entities.data
            if self.use_skip:
                out += entities.data
            return Tensor(out)
        eye = np.broadcast_to(np.eye(length), (batch_size, length, length))
        if self.learn_self_weight:
            scores = Tensor(adjacency) + self.self_weight * Tensor(eye.copy())
        else:
            scores = Tensor(adjacency + self.self_weight.data[0] * eye)
        if candidate_pad_mask is not None:
            # Padded candidates must not receive attention mass as keys.
            key_mask = np.broadcast_to(
                candidate_pad_mask[:, None, :], scores.shape
            )
            scores = scores.masked_fill(key_mask, NEG_INF)
        weights = scores.softmax(axis=-1)
        out = weights @ entities
        if self.use_skip:
            out = out + entities
        return out
