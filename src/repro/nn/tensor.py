"""A reverse-mode automatic-differentiation tensor on top of numpy.

This is the computational substrate for every model in the repository
(the MiniBERT context encoder, the Bootleg disambiguation model, the
NED-Base baseline, and the downstream relation-extraction models). It
implements the subset of a deep-learning framework that those models
need: broadcasting arithmetic, batched matmul, reductions, softmax /
log-softmax, gather (embedding lookup), concatenation, slicing, and a
topologically ordered backward pass.

Design notes
------------
* ``Tensor`` wraps a ``numpy.ndarray`` (float64 by default so gradient
  checks are exact to ~1e-7) plus an optional gradient buffer.
* Graphs are built eagerly; ``Tensor.backward()`` runs a topological
  sort over parents and accumulates gradients.
* Broadcasting is handled in the backward pass by summing gradient
  components over broadcast dimensions (``_unbroadcast``).
* A module-level ``no_grad`` context disables graph construction for
  inference-time code.
* A module-level ``compute_dtype`` context selects the floating dtype
  newly created tensors are stored in. The default stays float64 so
  gradient checks remain exact; inference code opts into float32 with
  ``with no_grad(), compute_dtype(np.float32): ...`` (pair it with
  ``Module.half_precision()`` so parameters match).
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from repro.errors import GradientError, ShapeError

DEFAULT_DTYPE = np.float64
# The reduced-precision dtype of the inference fast path; modeling code
# must reference these constants (or get_compute_dtype()) instead of
# hard-coding numpy float literals — enforced by `repro lint` (RA201).
FAST_DTYPE = np.float32

_GRAD_ENABLED = True
_COMPUTE_DTYPE = np.dtype(DEFAULT_DTYPE)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable autograd graph construction inside the ``with`` block."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for backprop."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def compute_dtype(dtype) -> Iterator[None]:
    """Store tensors created inside the block in ``dtype``.

    Nests like ``no_grad``: the previous dtype is restored on exit. Only
    floating dtypes are meaningful; integer index arrays are unaffected
    (they never pass through ``Tensor``).
    """
    global _COMPUTE_DTYPE
    resolved = np.dtype(dtype)
    if resolved.kind != "f":
        raise GradientError(f"compute dtype must be floating, got {resolved}")
    previous = _COMPUTE_DTYPE
    _COMPUTE_DTYPE = resolved
    try:
        yield
    finally:
        _COMPUTE_DTYPE = previous


def get_compute_dtype() -> np.dtype:
    """Return the dtype newly created tensors are stored in."""
    return _COMPUTE_DTYPE


# float(): a np.float64 scalar would promote float32 activations to
# float64 for the whole GELU expression.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU (tanh approximation) of an array: :meth:`Tensor.gelu`'s
    inference math.

    One fresh buffer is mutated in place instead of a temporary per
    arithmetic op; the float ops are the graph path's (scaling by 0.5
    is exact), so results are bitwise equal.
    """
    out = x * x
    out *= x
    out *= 0.044715
    out += x
    out *= _GELU_C
    np.tanh(out, out=out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: "Tensor | np.ndarray | float | int", dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype or _COMPUTE_DTYPE)


class Tensor:
    """An n-dimensional array that records operations for backprop.

    Parameters
    ----------
    data:
        Array-like payload, converted to ``dtype``.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=_COMPUTE_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        """Clear any accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad and not self._parents:
            raise GradientError("called backward() on a tensor with no graph")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    f"backward() without an explicit gradient requires a scalar, "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
                )

        # Topological order via iterative DFS (the graphs here can be deep).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            if node._backward is None:
                continue
            for parent, parent_grad in node._backward(node_grad):
                if parent.requires_grad or parent._parents:
                    existing = grads.get(id(parent))
                    if existing is None:
                        grads[id(parent)] = parent_grad
                    else:
                        grads[id(parent)] = existing + parent_grad

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], list[tuple["Tensor", np.ndarray]]],
    ) -> "Tensor":
        """Create a result tensor, recording the op only if grad is enabled."""
        tracked = _GRAD_ENABLED and any(p.requires_grad or p._parents for p in parents)
        out = Tensor(data)
        if tracked:
            out._parents = tuple(parents)
            out._backward = backward
            out.requires_grad = False  # grads flow *through*; leaves accumulate
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data + other_t.data

        def backward(grad: np.ndarray):
            return [
                (self, _unbroadcast(grad, self.shape)),
                (other_t, _unbroadcast(grad, other_t.shape)),
            ]

        return Tensor._make(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return [(self, -grad)]

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data - other_t.data

        def backward(grad: np.ndarray):
            return [
                (self, _unbroadcast(grad, self.shape)),
                (other_t, _unbroadcast(-grad, other_t.shape)),
            ]

        return Tensor._make(data, (self, other_t), backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(_as_array(other)) - self

    def __mul__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data * other_t.data

        def backward(grad: np.ndarray):
            return [
                (self, _unbroadcast(grad * other_t.data, self.shape)),
                (other_t, _unbroadcast(grad * self.data, other_t.shape)),
            ]

        return Tensor._make(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data / other_t.data

        def backward(grad: np.ndarray):
            return [
                (self, _unbroadcast(grad / other_t.data, self.shape)),
                (
                    other_t,
                    _unbroadcast(-grad * self.data / (other_t.data**2), other_t.shape),
                ),
            ]

        return Tensor._make(data, (self, other_t), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(_as_array(other)) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(grad: np.ndarray):
            return [(self, grad * exponent * self.data ** (exponent - 1))]

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data @ other_t.data

        def backward(grad: np.ndarray):
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:
                grad_a = grad * b
                grad_b = grad * a
            elif b.ndim == 1:
                grad_a = np.expand_dims(grad, -1) * b
                grad_b = np.tensordot(grad, a, axes=(tuple(range(grad.ndim)), tuple(range(grad.ndim))))
            elif a.ndim == 1:
                # a: (n,), b: (..., n, k), out: (..., k)
                prod = np.expand_dims(grad, -2) * b  # (..., n, k) via broadcast
                grad_a = prod.sum(axis=-1)
                if grad_a.ndim > 1:
                    grad_a = grad_a.sum(axis=tuple(range(grad_a.ndim - 1)))
                grad_b = a[:, None] * np.expand_dims(grad, -2)
                grad_b = _unbroadcast(grad_b, b.shape)
            else:
                grad_a = grad @ np.swapaxes(b, -1, -2)
                grad_b = np.swapaxes(a, -1, -2) @ grad
                grad_a = _unbroadcast(grad_a, a.shape)
                grad_b = _unbroadcast(grad_b, b.shape)
            return [(self, grad_a), (other_t, grad_b)]

        return Tensor._make(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise e**x."""
        data = np.exp(self.data)

        def backward(grad: np.ndarray):
            return [(self, grad * data)]

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural log."""
        data = np.log(self.data)

        def backward(grad: np.ndarray):
            return [(self, grad / self.data)]

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        """Elementwise tanh."""
        data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return [(self, grad * (1.0 - data**2))]

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray):
            return [(self, grad * data * (1.0 - data))]

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise max(x, 0)."""
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0)

        def backward(grad: np.ndarray):
            return [(self, grad * mask)]

        return Tensor._make(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        if not is_grad_enabled():
            return Tensor(gelu(self.data))
        x = self.data
        c = _GELU_C
        # x*x*x, not x**3: numpy routes small integer powers through the
        # generic pow loop, which is ~10x slower than two multiplies.
        inner = c * (x + 0.044715 * (x * x * x))
        t = np.tanh(inner)
        data = 0.5 * x * (1.0 + t)

        def backward(grad: np.ndarray):
            d_inner = c * (1.0 + 3 * 0.044715 * (x * x))
            local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
            return [(self, grad * local)]

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self**0.5

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes if None)."""
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            return [(self, np.broadcast_to(g, self.shape).copy())]

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (all axes if None)."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; ties share gradient equally."""
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            expanded = data if keepdims else np.expand_dims(data, axis)
            g = grad if keepdims else np.expand_dims(grad, axis)
            mask = self.data == expanded
            # Split gradient equally among ties for symmetry.
            counts = mask.sum(axis=axis, keepdims=True)
            return [(self, mask * g / counts)]

        return Tensor._make(data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance over ``axis``."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """View with a new shape (same number of elements)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray):
            return [(self, grad.reshape(self.shape))]

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes (reverses all axes if none given)."""
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)

        def backward(grad: np.ndarray):
            return [(self, grad.transpose(np.argsort(axes)))]

        return Tensor._make(data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        """Swap two axes."""
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return [(self, full)]

        return Tensor._make(data, (self,), backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Embedding-style lookup: select rows of a 2-D tensor.

        ``indices`` may have any shape; the result has shape
        ``indices.shape + (self.shape[-1],)``.
        """
        if self.ndim != 2:
            raise ShapeError(f"gather_rows requires a 2-D tensor, got shape {self.shape}")
        indices = np.asarray(indices, dtype=np.int64)
        data = self.data[indices]

        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, indices.reshape(-1), grad.reshape(-1, self.shape[-1]))
            return [(self, full)]

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Composite ops used throughout the models
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax over ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray):
            dot = (grad * data).sum(axis=axis, keepdims=True)
            return [(self, data * (grad - dot))]

        return Tensor._make(data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable log-softmax over ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - log_norm
        softmax = np.exp(data)

        def backward(grad: np.ndarray):
            return [(self, grad - softmax * grad.sum(axis=axis, keepdims=True))]

        return Tensor._make(data, (self,), backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Replace entries where ``mask`` is True with ``value`` (no grad there)."""
        mask = np.asarray(mask, dtype=bool)
        data = np.where(mask, value, self.data)

        def backward(grad: np.ndarray):
            return [(self, np.where(mask, 0.0, grad))]

        return Tensor._make(data, (self,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    if not tensors:
        raise ShapeError("concat() of an empty sequence")
    datas = [t.data for t in tensors]
    data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0, *sizes])

    def backward(grad: np.ndarray):
        out = []
        slicer: list[slice] = [slice(None)] * grad.ndim
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            slicer[axis] = slice(int(start), int(end))
            out.append((tensor, grad[tuple(slicer)]))
        return out

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    if not tensors:
        raise ShapeError("stack() of an empty sequence")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        pieces = np.split(grad, len(tensors), axis=axis)
        return [
            (tensor, np.squeeze(piece, axis=axis))
            for tensor, piece in zip(tensors, pieces)
        ]

    return Tensor._make(data, tuple(tensors), backward)


def where(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``a`` where ``mask`` else ``b``."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, a.data, b.data)

    def backward(grad: np.ndarray):
        return [
            (a, _unbroadcast(np.where(mask, grad, 0.0), a.shape)),
            (b, _unbroadcast(np.where(mask, 0.0, grad), b.shape)),
        ]

    return Tensor._make(data, (a, b), backward)
