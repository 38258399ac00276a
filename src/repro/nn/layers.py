"""Core layers: Linear, Embedding, LayerNorm, Dropout, MLP, Sequential.

All layers take an explicit ``numpy.random.Generator`` at construction
for weight initialization so that models are reproducible from a seed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, get_compute_dtype, is_grad_enabled


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization for a (fan_in, fan_out) matrix."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear(Module):
    """Affine map ``y = x W + b`` applied over the last axis."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigError("Linear dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Apply the affine map over the last axis."""
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"Linear expected last dim {self.in_features}, got {x.shape[-1]}"
            )
        if not is_grad_enabled():
            # Inference fast path: add the bias into the matmul output
            # instead of allocating a second full-size array. The product
            # is stored in the compute dtype first, as the graph path's
            # Tensor stores it, so mixed parameter/compute dtypes round
            # the same way.
            out = (x.data @ self.weight.data).astype(get_compute_dtype(), copy=False)
            if self.bias is not None:
                out += self.bias.data
            return Tensor(out)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
        init_scale: float = 0.02,
        uniform_init: bool = False,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ConfigError("Embedding dimensions must be positive")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        if uniform_init:
            # All rows identical; Bootleg initializes all entity embeddings to
            # the same vector to reduce noise from unseen entities (B.2).
            # We use the zero vector so that an *unseen* entity at inference
            # looks exactly like a *masked* entity during training (the 2-D
            # regularization zeroes embeddings), keeping train and eval
            # distributions consistent.
            self.weight = Parameter(np.zeros((num_embeddings, embedding_dim)))
        else:
            self.weight = Parameter(
                rng.normal(0.0, init_scale, size=(num_embeddings, embedding_dim))
            )

    def forward(self, indices: np.ndarray) -> Tensor:
        """Look up embeddings for integer ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise ShapeError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return self.weight.gather_rows(indices)


class LayerNorm(Module):
    """Layer normalization over the last axis with learned scale/shift."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.dim:
            raise ShapeError(f"LayerNorm expected last dim {self.dim}, got {x.shape[-1]}")
        if not is_grad_enabled():
            # Inference fast path: one fused numpy expression instead of
            # ~12 graph-op temporaries. Mirrors the autograd path's exact
            # float op order (sum * 1/n, not mean) so results are bitwise
            # identical.
            data = x.data
            inv_n = 1.0 / data.shape[-1]
            mu = data.sum(axis=-1, keepdims=True) * inv_n
            centered = data - mu
            var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
            centered /= (var + self.eps) ** 0.5
            out = (centered * self.gamma.data).astype(get_compute_dtype(), copy=False)
            out += self.beta.data
            return Tensor(out)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mu) / ((var + self.eps) ** 0.5)
        return normed * self.gamma + self.beta


class Dropout(Module):
    """Standard (1-D) dropout with inverted scaling.

    The generator is supplied at construction so training runs are
    deterministic; evaluation mode and ``no_grad`` inference are the
    identity.
    """

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0 or not is_grad_enabled():
            return x
        keep = 1.0 - self.p
        mask = self._rng.random(x.shape) < keep
        return x.masked_fill(~mask, 0.0) * (1.0 / keep)


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class GELU(Module):
    """Module wrapper around :meth:`Tensor.gelu`."""

    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class ReLU(Module):
    """Module wrapper around :meth:`Tensor.relu`."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class MLP(Module):
    """Multi-layer perceptron with GELU activations between layers."""

    def __init__(
        self,
        dims: Sequence[int],
        rng: np.random.Generator,
        dropout: float = 0.0,
        activation: str = "gelu",
    ) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ConfigError("MLP needs at least input and output dims")
        if activation not in ("gelu", "relu", "tanh"):
            raise ConfigError(f"unknown activation {activation!r}")
        self.activation = activation
        self.linears = [
            Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)
        ]
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        for i, linear in enumerate(self.linears):
            x = linear(x)
            if i < len(self.linears) - 1:
                if self.activation == "gelu":
                    x = x.gelu()
                elif self.activation == "relu":
                    x = x.relu()
                else:
                    x = x.tanh()
                if self.dropout is not None:
                    x = self.dropout(x)
        return x
