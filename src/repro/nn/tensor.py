"""Reverse-mode automatic differentiation over numpy arrays.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` substrate.  The paper's attacks (DFA-R and DFA-G) require
back-propagating through a *frozen* global classifier into a trainable
filter layer or generator network; a full autograd engine makes that
optimization identical in structure to the original PyTorch code.

The engine is intentionally small but complete: broadcasting-aware
element-wise arithmetic, matrix multiplication, reductions, shape
manipulation, basic indexing and the non-linearities used by the models
in :mod:`repro.models`.  Convolution and loss primitives live in
:mod:`repro.nn.functional` and register their own backward closures via
:meth:`Tensor._from_op`.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "DEFAULT_DTYPE", "no_grad", "is_grad_enabled", "trace_fallback"]

#: Default floating point type for tensors created from Python data.
DEFAULT_DTYPE = np.float32

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Per-thread autograd switch.  Thread-local because dispatch thread pools
#: run inference (``no_grad`` blocks) concurrently with the main thread —
#: REFD scoring fans out ``predict_proba`` across a thread pool while
#: the round loop may keep recording gradients — and a process-global flag
#: with per-instance save/restore would race (one interleaving leaves
#: gradient recording permanently disabled, the other builds stray graphs
#: mid-inference).
_GRAD_STATE = threading.local()

#: Per-thread trace recorder hook.  While :mod:`repro.nn.trace` records a
#: step, ``_TRACE_STATE.recorder`` observes every ``_from_op`` call; ops
#: carry a ``(name, kwargs)`` descriptor when they are replayable and pass
#: ``op=None`` otherwise, which poisons the recording and pins that step
#: signature to eager execution.  Thread-local for the same reason as
#: ``_GRAD_STATE``: pooled dispatch threads record independently.
_TRACE_STATE = threading.local()


def trace_fallback(reason: str) -> None:
    """Mark the active trace recording (if any) as not replayable.

    Called by ops whose effects cannot be captured in a static tape:
    fresh RNG draws (Dropout masks), in-place buffer mutation
    (BatchNorm running stats) or data-dependent indexing (integer
    embedding lookups).  A no-op when nothing is recording.
    """
    recorder = getattr(_TRACE_STATE, "recorder", None)
    if recorder is not None:
        recorder.fail(reason)


class no_grad:
    """Context manager that disables graph construction (per thread).

    Inside a ``with no_grad():`` block all tensor operations produce
    results with ``requires_grad=False`` and no backward closures, which
    keeps inference (e.g. defense-side evaluation of client updates on
    the reference dataset) cheap.  The switch is thread-local, so pooled
    inference threads never disable recording for anyone else.
    """

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _GRAD_STATE.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for autograd."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were broadcast from size one.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional autograd graph attached.

    Parameters
    ----------
    data:
        Array-like initial value.  Converted to ``DEFAULT_DTYPE`` unless it
        is already a floating numpy array.
    requires_grad:
        If ``True``, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(data, (np.ndarray, np.generic)):
            data = np.asarray(data)
            if not np.issubdtype(data.dtype, np.floating):
                data = data.astype(DEFAULT_DTYPE)
        else:
            data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.data: np.ndarray = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: Optional[Tuple[str, dict]] = None,
    ) -> "Tensor":
        """Create the result of an operation, wiring the backward closure.

        When gradient recording is disabled, or none of the parents
        require gradients, the result is a detached constant tensor.

        ``op`` is the optional trace descriptor ``(name, static_kwargs)``
        consumed by an active :class:`repro.nn.trace.TraceRecorder`; ops
        without one are simply not replayable and force the recording
        signature back to eager execution.
        """
        parents = tuple(parents)
        requires_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = cls(data)
        out.requires_grad = requires_grad
        if requires_grad:
            out._parents = parents
            out._backward = backward
        recorder = getattr(_TRACE_STATE, "recorder", None)
        if recorder is not None:
            recorder.record_op(out, parents, op)
        return out

    @staticmethod
    def as_tensor(value: Union["Tensor", ArrayLike]) -> "Tensor":
        """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    @staticmethod
    def zeros(shape: Tuple[int, ...], requires_grad: bool = False) -> "Tensor":
        """Return a tensor of zeros with the given shape."""
        return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(shape: Tuple[int, ...], requires_grad: bool = False) -> "Tensor":
        """Return a tensor of ones with the given shape."""
        return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        """Data type of the underlying array."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose of a 2-D tensor."""
        return self.transpose()

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        """Return a detached deep copy of this tensor."""
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones, which is only valid for scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order of the graph reachable from self.
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

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate.
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            if node._backward is None:
                continue
            node._collect(node_grad, grads)

    def _collect(self, node_grad: np.ndarray, grads: dict) -> None:
        """Invoke the backward closure and scatter gradients to parents."""
        parent_grads = self._backward(node_grad)
        if not isinstance(parent_grads, tuple):
            parent_grads = (parent_grads,)
        for parent, pgrad in zip(self._parents, parent_grads):
            if pgrad is None or not parent.requires_grad:
                continue
            pgrad = np.asarray(pgrad, dtype=parent.data.dtype)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pgrad
            else:
                grads[key] = pgrad

    # ------------------------------------------------------------------
    # Element-wise arithmetic (broadcasting aware)
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor.as_tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(grad, other.shape),
            )

        return Tensor._from_op(data, (self, other), backward, op=("add", {}))

    __radd__ = __add__

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor.as_tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(-grad, other.shape),
            )

        return Tensor._from_op(data, (self, other), backward, op=("sub", {}))

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return Tensor.as_tensor(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor.as_tensor(other)
        data = self.data * other.data
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * other_data, self.shape),
                _unbroadcast(grad * self_data, other.shape),
            )

        return Tensor._from_op(data, (self, other), backward, op=("mul", {}))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor.as_tensor(other)
        data = self.data / other.data
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad / other_data, self.shape),
                _unbroadcast(-grad * self_data / (other_data ** 2), other.shape),
            )

        return Tensor._from_op(data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return Tensor.as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray):
            return (-grad,)

        return Tensor._from_op(data, (self,), backward, op=("neg", {}))

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent
        base = self.data

        def backward(grad: np.ndarray):
            return (grad * exponent * base ** (exponent - 1),)

        return Tensor._from_op(data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor.as_tensor(other)
        data = self.data @ other.data
        a, b = self.data, other.data

        def backward(grad: np.ndarray):
            if a.ndim == 2 and b.ndim == 2:
                return (grad @ b.T, a.T @ grad)
            # Batched matmul: contract over the batch dimensions.
            grad_a = grad @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ grad
            return (
                _unbroadcast(grad_a, a.shape),
                _unbroadcast(grad_b, b.shape),
            )

        return Tensor._from_op(data, (self, other), backward, op=("matmul", {}))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum of elements, optionally along ``axis``."""
        data = self.data.sum(axis=axis, keepdims=keepdims)
        input_shape = self.shape

        def backward(grad: np.ndarray):
            if axis is None:
                return (np.broadcast_to(grad, input_shape).copy(),)
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, input_shape).copy(),)

        return Tensor._from_op(
            data, (self,), backward, op=("sum", {"axis": axis, "keepdims": keepdims})
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean of elements, optionally along ``axis``."""
        data = self.data.mean(axis=axis, keepdims=keepdims)
        input_shape = self.shape
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= input_shape[ax]

        def backward(grad: np.ndarray):
            if axis is None:
                return (np.broadcast_to(grad, input_shape) / count,)
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, input_shape) / count,)

        return Tensor._from_op(
            data, (self,), backward, op=("mean", {"axis": axis, "keepdims": keepdims})
        )

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum of elements; gradient flows to the (first) maxima."""
        data = self.data.max(axis=axis, keepdims=keepdims)
        source = self.data

        def backward(grad: np.ndarray):
            if axis is None:
                mask = (source == source.max()).astype(source.dtype)
                mask /= mask.sum()
                return (mask * grad,)
            expanded = data if keepdims else np.expand_dims(data, axis=axis)
            mask = (source == expanded).astype(source.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            return (mask * g,)

        return Tensor._from_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """Return a tensor with the same data and a new shape."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad: np.ndarray):
            return (grad.reshape(original_shape),)

        return Tensor._from_op(
            data, (self,), backward, op=("reshape", {"shape": data.shape})
        )

    def flatten_batch(self) -> "Tensor":
        """Flatten all dimensions except the leading (batch) dimension."""
        return self.reshape(self.shape[0], -1)

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        """Permute array dimensions (reverses them when ``axes`` is None)."""
        data = self.data.transpose(axes)

        def backward(grad: np.ndarray):
            if axes is None:
                return (grad.transpose(),)
            inverse = np.argsort(axes)
            return (grad.transpose(inverse),)

        return Tensor._from_op(data, (self,), backward, op=("transpose", {"axes": axes}))

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        input_shape = self.shape
        input_dtype = self.data.dtype

        def backward(grad: np.ndarray):
            full = np.zeros(input_shape, dtype=input_dtype)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._from_op(data, (self,), backward, op=("getitem", {"index": index}))

    # ------------------------------------------------------------------
    # Element-wise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Element-wise exponential."""
        data = np.exp(self.data)

        def backward(grad: np.ndarray):
            return (grad * data,)

        return Tensor._from_op(data, (self,), backward, op=("exp", {}))

    def log(self) -> "Tensor":
        """Element-wise natural logarithm."""
        data = np.log(self.data)
        source = self.data

        def backward(grad: np.ndarray):
            return (grad / source,)

        return Tensor._from_op(data, (self,), backward, op=("log", {}))

    def sqrt(self) -> "Tensor":
        """Element-wise square root."""
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray):
            return (grad * 0.5 / data,)

        return Tensor._from_op(data, (self,), backward)

    def abs(self) -> "Tensor":
        """Element-wise absolute value."""
        data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad: np.ndarray):
            return (grad * sign,)

        return Tensor._from_op(data, (self,), backward)

    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._from_op(data, (self,), backward, op=("relu", {}))

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        """Leaky rectified linear unit."""
        mask = self.data > 0
        data = np.where(mask, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray):
            return (np.where(mask, grad, negative_slope * grad),)

        return Tensor._from_op(
            data,
            (self,),
            backward,
            op=("leaky_relu", {"negative_slope": negative_slope}),
        )

    def tanh(self) -> "Tensor":
        """Hyperbolic tangent."""
        data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - data ** 2),)

        return Tensor._from_op(data, (self,), backward, op=("tanh", {}))

    def sigmoid(self) -> "Tensor":
        """Logistic sigmoid."""
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray):
            return (grad * data * (1.0 - data),)

        return Tensor._from_op(data, (self,), backward, op=("sigmoid", {}))

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values into ``[low, high]``; gradient is zero outside."""
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._from_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # Norms (used by the distance-based regularization of DFA)
    # ------------------------------------------------------------------
    def norm(self) -> "Tensor":
        """Euclidean (L2) norm of the flattened tensor."""
        return (self * self).sum() ** 0.5
