"""A small reverse-mode autodiff tensor built on numpy.

The design mirrors the familiar PyTorch semantics at a much smaller scale:
``Tensor`` wraps a numpy array, records the operations applied to it, and
``backward()`` walks the recorded graph in reverse topological order to
accumulate gradients.  Broadcasting is supported by summing gradients back to
the original shape.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.determinism import fallback_rng

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True

# Default dtype for tensors created from python scalars/sequences and for
# parameter initialization.  float64 keeps bit-parity with the reference
# graphs; the opt-in float32 policy mode (PPOConfig.dtype) builds its modules
# under ``default_dtype(np.float32)``.
_DEFAULT_DTYPE = np.float64

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def get_default_dtype() -> np.dtype:
    """The dtype new tensors are created with (float64 unless overridden)."""
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def default_dtype(dtype):
    """Temporarily change the default tensor dtype (e.g. ``np.float32``)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError(f"default dtype must be float32 or float64, got {dtype}")
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dtype.type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    # Floating arrays keep their precision (so float32 policies stay float32);
    # everything else (scalars, int arrays, lists) lands on the default dtype.
    if isinstance(value, np.ndarray) and value.dtype in _FLOAT_DTYPES:
        return value
    return np.asarray(value, dtype=_DEFAULT_DTYPE)


class Tensor:
    """A numpy-backed tensor that records a reverse-mode autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name",
                 "_grad_view")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[], None]] = None
        self._parents: tuple = ()
        self.name = name
        # Where ``grad`` lives once set: a view into an optimizer's flat
        # gradient buffer (bound by ``Optimizer``), or ``None``.
        self._grad_view: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ utils
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # --------------------------------------------------------------- plumbing
    @staticmethod
    def _ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _coerce(self, value: Union["Tensor", ArrayLike]) -> "Tensor":
        """Wrap ``value`` as a Tensor matching this tensor's dtype.

        Binary ops use this so python scalars don't silently up-cast a
        float32 graph to float64.
        """
        if isinstance(value, Tensor):
            return value
        return Tensor(np.asarray(value, dtype=self.data.dtype))

    def _make_child(self, data: np.ndarray, parents: Iterable["Tensor"],
                    backward: Callable[["Tensor"], None]) -> "Tensor":
        parents = tuple(parents)
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = lambda: backward(out)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            if self._grad_view is None:
                self.grad = grad.copy()
            else:
                np.copyto(self._grad_view, grad)
                self.grad = self._grad_view
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad)
            other._accumulate(out.grad)

        return self._make_child(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(-out.grad)

        return self._make_child(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * other.data)
            other._accumulate(out.grad * self.data)

        return self._make_child(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad / other.data)
            other._accumulate(-out.grad * self.data / (other.data ** 2))

        return self._make_child(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * exponent * np.power(self.data, exponent - 1))

        return self._make_child(np.power(self.data, exponent), (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)

        def backward(out: Tensor) -> None:
            grad = out.grad
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other._accumulate(grad * a)
            elif a.ndim >= 2 and b.ndim >= 2:
                self._accumulate(grad @ np.swapaxes(b, -1, -2))
                other._accumulate(np.swapaxes(a, -1, -2) @ grad)
            elif a.ndim == 1:
                # (k,) @ (k, n) -> (n,)
                self._accumulate(grad @ b.T)
                other._accumulate(np.outer(a, grad))
            else:
                # (m, k) @ (k,) -> (m,)
                self._accumulate(np.outer(grad, b))
                other._accumulate(a.T @ grad)

        return self._make_child(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------ elementwise
    def exp(self) -> "Tensor":
        value = np.exp(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * value)

        return self._make_child(value, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(out.grad / self.data)

        return self._make_child(np.log(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * (1.0 - value ** 2))

        return self._make_child(value, (self,), backward)

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * mask)

        return self._make_child(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * value * (1.0 - value))

        return self._make_child(value, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * sign)

        return self._make_child(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * mask)

        return self._make_child(np.clip(self.data, low, high), (self,), backward)

    def maximum(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        take_self = (self.data >= other.data).astype(self.data.dtype)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * take_self)
            other._accumulate(out.grad * (1.0 - take_self))

        return self._make_child(np.maximum(self.data, other.data), (self, other), backward)

    def minimum(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        take_self = (self.data <= other.data).astype(self.data.dtype)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * take_self)
            other._accumulate(out.grad * (1.0 - take_self))

        return self._make_child(np.minimum(self.data, other.data), (self, other), backward)

    # -------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]

        def backward(out: Tensor) -> None:
            grad = out.grad / count
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return self._make_child(self.data.mean(axis=axis, keepdims=keepdims), (self,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == value).astype(self.data.dtype)
        mask = mask / mask.sum(axis=axis, keepdims=True)
        result = value if keepdims or axis is None else np.squeeze(value, axis=axis)
        if axis is None and not keepdims:
            result = self.data.max()

        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(mask * grad)

        return self._make_child(result, (self,), backward)

    # --------------------------------------------------------------- reshaping
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.reshape(self.data.shape))

        return self._make_child(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.transpose(inverse))

        return self._make_child(self.data.transpose(axes), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        def backward(out: Tensor) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, out.grad)
            self._accumulate(grad)

        return self._make_child(self.data[index], (self,), backward)

    # ----------------------------------------------------------- constructors
    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(shape, rng: Optional[np.random.Generator] = None,
              scale: float = 1.0, requires_grad: bool = False) -> "Tensor":
        rng = rng if rng is not None else fallback_rng()
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(out: Tensor) -> None:
            grads = np.split(out.grad, len(tensors), axis=axis)
            for tensor, grad in zip(tensors, grads):
                tensor._accumulate(np.squeeze(grad, axis=axis))

        dummy = tensors[0]
        return dummy._make_child(data, tensors, backward)

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(out: Tensor) -> None:
            for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * out.grad.ndim
                slicer[axis] = slice(start, end)
                tensor._accumulate(out.grad[tuple(slicer)])

        dummy = tensors[0]
        return dummy._make_child(data, tensors, backward)
