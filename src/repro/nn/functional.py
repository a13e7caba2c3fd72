"""Neural-network primitives built on top of :class:`repro.nn.tensor.Tensor`.

This module implements the convolution and loss operations needed by the
classifiers, the DFA-R filter layer and the DFA-G generator.  All
functions are autograd-aware: they return tensors that participate in the
computation graph and provide analytic backward passes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = [
    "conv2d",
    "softmax",
    "cross_entropy",
    "soft_cross_entropy",
    "conv_output_size",
]


# ----------------------------------------------------------------------
# Column and tap helpers
# ----------------------------------------------------------------------
def _output_size(
    shape: Tuple[int, ...], kernel: Tuple[int, int], stride: int, padding: int
) -> Tuple[int, int]:
    """``(out_h, out_w)`` of a convolution over an ``(N, C, H, W)`` input."""
    out_h = (shape[2] + 2 * padding - kernel[0]) // stride + 1
    out_w = (shape[3] + 2 * padding - kernel[1]) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty for input {tuple(shape)}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    return out_h, out_w


def _window_view(x: np.ndarray, kernel: Tuple[int, int], stride: int) -> np.ndarray:
    """Zero-copy ``(N, C, out_h, out_w, kh, kw)`` view of all kernel windows.

    Built on :func:`numpy.lib.stride_tricks.sliding_window_view`, so no patch
    data is copied; a padded convolution passes an already padded ``x``.
    """
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=(2, 3))
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    return windows


#: Bytes of one :class:`_ColumnBlocks` buffer: about an L2 cache's worth.
_BLOCK_BYTES = 1 << 19


class _ColumnBlocks:
    """The im2col columns of ``x``, built a block of samples at a time.

    Iterating yields ``(start, stop, cols)`` where ``cols`` is the
    ``(stop - start, C*kh*kw, out_h*out_w)`` column matrix of samples
    ``start:stop``, filled into one reused buffer of ``block`` samples, so
    no whole-batch column matrix exists.  With ``padding`` each block's
    samples are first copied into the interior of one reused, zero-bordered
    buffer of ``block`` padded samples, whose window view is taken once
    here, so no whole-batch padded input exists either.  numpy's batched
    matmul makes one GEMM call per sample, so a per-block GEMM has the
    bits of the whole-batch one.  The block left in the buffer by one pass
    is yielded first, without a copy, by the next (the weight gradient), so
    a batch that fits in one block builds its columns once and a larger
    batch rebuilds every block but one.  Each block's GEMM writes only its
    own rows, so the order of the blocks changes no bits.
    """

    def __init__(
        self, x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
    ) -> None:
        n, c, h, w = x.shape
        kh, kw = kernel
        self.out_h, self.out_w = _output_size(x.shape, kernel, stride, padding)
        features, length = c * kh * kw, self.out_h * self.out_w
        per_sample_bytes = features * length * x.dtype.itemsize
        self.block = max(1, min(n, _BLOCK_BYTES // per_sample_bytes))
        self._x = x
        self._interior: Optional[np.ndarray] = None
        source = x
        if padding:
            source = np.zeros(
                (self.block, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype
            )
            self._interior = source[:, :, padding:-padding, padding:-padding]
        windows = _window_view(source, kernel, stride)
        self._windows = windows.transpose(0, 1, 4, 5, 2, 3)
        self._buffer = np.empty((self.block, features, length), dtype=x.dtype)
        self._n = n
        # (start, stop) of the samples whose columns the buffer holds.
        self._resident: Optional[Tuple[int, int]] = None

    def __iter__(self):
        resident = self._resident
        if resident is not None:
            start, stop = resident
            yield start, stop, self._buffer[: stop - start]
        for start in range(0, self._n, self.block):
            stop = min(start + self.block, self._n)
            if (start, stop) == resident:
                continue
            cols = self._buffer[: stop - start]
            if self._interior is None:
                windows = self._windows[start:stop]
            else:
                np.copyto(self._interior[: stop - start], self._x[start:stop])
                windows = self._windows[: stop - start]
            np.copyto(cols.reshape(windows.shape), windows)
            self._resident = (start, stop)
            yield start, stop, cols


def _tap_range(offset: int, stride: int, padding: int, out_size: int, size: int):
    """Output slice and image slice of one kernel tap offset along one axis.

    The tap at ``offset`` reads output position ``o`` into image position
    ``offset + stride * o - padding``; positions that land in the padding
    border are cut from both slices.
    """
    first = max(0, -(-(padding - offset) // stride))
    last = min(out_size, (size + padding - offset - 1) // stride + 1)
    start = offset + stride * first - padding
    return slice(first, last), slice(start, start + stride * (last - first), stride)


def _add_tap_products(
    image: np.ndarray,
    weight: np.ndarray,
    grad: np.ndarray,
    stride: int,
    padding: int,
    taps: Optional[np.ndarray] = None,
    product: Optional[np.ndarray] = None,
) -> None:
    """Add the col2im scatter of ``w_mat.T @ grad`` into ``image``, column-free.

    ``weight`` is ``(K, C, kh, kw)``, ``grad`` is ``(N, K, out_h, out_w)``
    and ``image`` is ``(N, C, H, W)``, zero-filled by the caller.  For each
    kernel tap, in row-major tap order, the ``(N, C, L)`` product
    ``taps[i, j].T @ grad`` is added into the tap's strided window, so
    every pixel sums the same terms in the same order as a col2im
    scatter-add of the whole column matrix, one bulk add per tap.
    ``taps[i, j].T`` hands BLAS a transposed operand, as ``w_mat.T`` does,
    so each product has the bits of the matching column rows.  With
    ``padding`` the image is the unpadded one and the border terms are
    dropped; a caller that wants the padded image passes it with
    ``padding=0``.  ``taps`` (``(kh, kw, K, C)``) and ``product``
    (``(N, C, L)``) are optional preallocated scratch.

    A single contracted channel (``K == 1``) is an outer product:
    ``np.multiply`` gives the bits of the one-term GEMM (up to the sign of
    a zero, which adding into the zero-filled image erases) at a third of
    the cost.  numpy hands a one-row (``C == 1``) or one-column (``L == 1``)
    product to GEMV, which sums in another order than GEMM, so those
    geometries keep one GEMM over all taps; their columns are small.
    """
    n, c, h, w = image.shape
    k, _, kh, kw = weight.shape
    out_h, out_w = grad.shape[2], grad.shape[3]
    length = out_h * out_w
    grad3 = grad.reshape(n, k, length)
    columns = None
    if k > 1 and (c == 1 or length == 1):
        columns = np.matmul(weight.reshape(k, -1).T, grad3)
        columns = columns.reshape(n, c, kh, kw, out_h, out_w)
    elif taps is None:
        taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))
    else:
        np.copyto(taps, weight.transpose(2, 3, 0, 1))
    if product is None:
        product = np.empty((n, c, length), dtype=np.result_type(weight, grad))
    rows = [_tap_range(i, stride, padding, out_h, h) for i in range(kh)]
    cols = [_tap_range(j, stride, padding, out_w, w) for j in range(kw)]
    for i, (row_src, row_dst) in enumerate(rows):
        for j, (col_src, col_dst) in enumerate(cols):
            if columns is not None:
                tap = columns[:, :, i, j]
            elif k == 1:
                tap = np.multiply(taps[i, j].T, grad3, out=product)
            else:
                tap = np.matmul(taps[i, j].T, grad3, out=product)
            window = image[:, :, row_dst, col_dst]
            tap = tap.reshape(n, c, out_h, out_w)
            np.add(window, tap[:, :, row_src, col_src], out=window)


def conv_output_size(size: int, kernel: int, stride: int = 1, padding: int = 0) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def conv_transpose_output_size(
    size: int, kernel: int, stride: int = 1, padding: int = 0
) -> int:
    """Spatial output size of a transposed convolution along one dimension."""
    return (size - 1) * stride - 2 * padding + kernel


# ----------------------------------------------------------------------
# Linear / convolution layers
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``.

    ``x`` has shape ``(N, in_features)`` and ``weight`` has shape
    ``(out_features, in_features)``, matching the PyTorch convention used
    by the paper's models.
    """
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def _add_bias(out: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``out + bias`` per channel, in place when that keeps ``out``'s dtype."""
    b = bias.reshape(1, -1, 1, 1)
    if np.result_type(out, b) == out.dtype:
        return np.add(out, b, out=out)
    return out + b


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over ``(N, C, H, W)`` input.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``.
    """
    x_data, w_data = x.data, weight.data
    out_channels, in_channels, kh, kw = w_data.shape
    if x_data.shape[1] != in_channels:
        raise ValueError(
            f"conv2d expected {in_channels} input channels, got {x_data.shape[1]}"
        )
    n, c, h, w = x_data.shape
    blocks = _ColumnBlocks(x_data, (kh, kw), stride, padding)
    out_h, out_w = blocks.out_h, blocks.out_w
    w_mat = w_data.reshape(out_channels, -1)
    out = np.empty((n, out_channels, out_h * out_w), dtype=np.result_type(w_data, x_data))
    for start, stop, cols in blocks:
        # batched GEMM: (O, F) @ (B, F, L) -> (B, O, L)
        np.matmul(w_mat, cols, out=out[start:stop])
    out = out.reshape(n, out_channels, out_h, out_w)
    if bias is not None:
        out = _add_bias(out, bias.data)

    needs_grad_x = x.requires_grad
    needs_grad_w = weight.requires_grad
    # Only the weight gradient reads the columns; a frozen weight (the DFA
    # synthesis path) lets them go with the forward.
    saved_blocks = blocks if needs_grad_w else None

    def backward(grad: np.ndarray):
        grad_w = None
        if needs_grad_w:
            grad_mat = grad.reshape(n, out_channels, -1)
            stack = np.empty(
                (n, out_channels, w_mat.shape[1]), dtype=np.result_type(grad_mat, x_data)
            )
            for start, stop, cols in saved_blocks:
                np.matmul(grad_mat[start:stop], cols.transpose(0, 2, 1), out=stack[start:stop])
            grad_w = stack.sum(axis=0).reshape(w_data.shape)
        grad_x = None
        if needs_grad_x:
            # The gradient is the interior of a padded buffer, not a
            # contiguous array: numpy sums and multiplies in an order that
            # follows the strides, so the consumer's bits (the bias
            # gradient of an input filter, say) depend on this layout.
            # Only the interior receives taps.
            grad_x = np.zeros(
                (n, c, h + 2 * padding, w + 2 * padding), dtype=np.result_type(w_data, grad)
            )
            if padding:
                grad_x = grad_x[:, :, padding:-padding, padding:-padding]
            _add_tap_products(grad_x, w_data, grad, stride, padding)
        if bias is not None:
            grad_b = grad.sum(axis=(0, 2, 3)) if bias.requires_grad else None
            return (grad_x, grad_w, grad_b)
        return (grad_x, grad_w)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(
        out, parents, backward, op=("conv2d", {"stride": stride, "padding": padding})
    )


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D transposed convolution (the generator building block of DFA-G).

    ``x`` has shape ``(N, in_channels, H, W)`` and ``weight`` has shape
    ``(in_channels, out_channels, kh, kw)``, matching the PyTorch
    ``nn.ConvTranspose2d`` convention.
    """
    x_data, w_data = x.data, weight.data
    in_channels, out_channels, kh, kw = w_data.shape
    if x_data.shape[1] != in_channels:
        raise ValueError(
            f"conv_transpose2d expected {in_channels} input channels, "
            f"got {x_data.shape[1]}"
        )
    n, _, h, w = x_data.shape
    out_h = conv_transpose_output_size(h, kh, stride, padding)
    out_w = conv_transpose_output_size(w, kw, stride, padding)
    if out_h <= 0 or out_w <= 0:
        raise ValueError("transposed convolution output would be empty")

    w_mat = w_data.reshape(in_channels, out_channels * kh * kw)
    x_mat = x_data.reshape(n, in_channels, h * w)
    out = np.zeros((n, out_channels, out_h, out_w), dtype=np.result_type(w_data, x_data))
    _add_tap_products(out, w_data, x_data, stride, padding)
    if bias is not None:
        out = _add_bias(out, bias.data)

    needs_grad_x = x.requires_grad
    needs_grad_w = weight.requires_grad

    def backward(grad: np.ndarray):
        grad_x = grad_w = None
        if needs_grad_x:
            grad_x = np.empty((n, in_channels, h * w), dtype=np.result_type(w_mat, grad))
        if needs_grad_w:
            # per-sample products, summed over the batch below
            grad_w = np.empty((n, in_channels, w_mat.shape[1]), dtype=np.result_type(x_mat, grad))
        for start, stop, grad_cols in _ColumnBlocks(grad, (kh, kw), stride, padding):
            if needs_grad_x:
                np.matmul(w_mat, grad_cols, out=grad_x[start:stop])
            if needs_grad_w:
                np.matmul(x_mat[start:stop], grad_cols.transpose(0, 2, 1), out=grad_w[start:stop])
        if needs_grad_x:
            grad_x = grad_x.reshape(x_data.shape)
        if needs_grad_w:
            grad_w = grad_w.sum(axis=0).reshape(w_data.shape)
        if bias is not None:
            grad_b = grad.sum(axis=(0, 2, 3)) if bias.requires_grad else None
            return (grad_x, grad_w, grad_b)
        return (grad_x, grad_w)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(out, parents, backward)


# ----------------------------------------------------------------------
# Softmax and losses
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x_data = x.data
    shifted = x_data - x_data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        dot = (grad * probs).sum(axis=axis, keepdims=True)
        return (probs * (grad - dot),)

    return Tensor._from_op(probs, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Cross-entropy between ``logits`` and integer class ``targets``.

    This is the training loss of benign clients, of the adversarial
    classifier and (negated) of the DFA-G generator objective.
    """
    # The trace descriptor must reference the *caller's* targets array:
    # the recorder matches kwarg arrays by identity against the step's
    # declared externals, and the replay kernel re-applies the int64
    # coercion below per step.
    targets_arg = targets
    targets = np.asarray(targets, dtype=np.int64)
    logits_data = logits.data
    n, num_classes = logits_data.shape
    if targets.shape[0] != n:
        raise ValueError("number of targets must match the batch size")
    if targets.min() < 0 or targets.max() >= num_classes:
        raise ValueError("target labels out of range")
    shifted = logits_data - logits_data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), targets].mean()
    probs = np.exp(log_probs)

    def backward(grad: np.ndarray):
        grad_logits = probs.copy()
        grad_logits[np.arange(n), targets] -= 1.0
        grad_logits *= float(grad) / n
        return (grad_logits,)

    return Tensor._from_op(
        np.asarray(loss, dtype=logits_data.dtype),
        (logits,),
        backward,
        op=("cross_entropy", {"targets": targets_arg}),
    )


def soft_cross_entropy(logits: Tensor, target_probs: np.ndarray) -> Tensor:
    """Cross-entropy between ``logits`` and a *soft* target distribution.

    DFA-R uses this with the uniform distribution ``[1/L, ..., 1/L]`` as the
    target to push the global model towards maximally ambiguous predictions.
    """
    target_probs = np.asarray(target_probs, dtype=logits.data.dtype)
    logits_data = logits.data
    n = logits_data.shape[0]
    if target_probs.ndim == 1:
        target_probs = np.broadcast_to(target_probs, logits_data.shape)
    shifted = logits_data - logits_data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -(target_probs * log_probs).sum(axis=1).mean()
    probs = np.exp(log_probs)

    def backward(grad: np.ndarray):
        grad_logits = (probs - target_probs) * (float(grad) / n)
        return (grad_logits,)

    return Tensor._from_op(np.asarray(loss, dtype=logits_data.dtype), (logits,), backward)
