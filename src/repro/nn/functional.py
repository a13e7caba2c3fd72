"""Neural-network primitives built on top of :class:`repro.nn.tensor.Tensor`.

This module implements the convolution, pooling and loss operations needed
by the classifiers, the DFA-R filter layer and the DFA-G generator.  All
functions are autograd-aware: they return tensors that participate in the
computation graph and provide analytic backward passes.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .tensor import Tensor

__all__ = [
    "linear",
    "conv2d",
    "conv_transpose2d",
    "max_pool2d",
    "avg_pool2d",
    "pad2d",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "soft_cross_entropy",
    "nll_loss",
    "mse_loss",
    "one_hot",
    "conv_output_size",
    "conv_transpose_output_size",
]


# ----------------------------------------------------------------------
# im2col / col2im helpers
# ----------------------------------------------------------------------
def _window_view(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Zero-copy ``(N, C, out_h, out_w, kh, kw)`` view of all kernel windows.

    Built on :func:`numpy.lib.stride_tricks.sliding_window_view`, so no patch
    data is copied; only padding (when requested) materialises a new array.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty for input {x.shape}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    if padding:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    return windows, out_h, out_w


def _im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(kh, kw)`` spatial kernel size.

    Returns
    -------
    cols, out_h, out_w:
        ``cols`` has shape ``(N, C*kh*kw, out_h*out_w)``.

    The window extraction itself is a zero-copy stride trick; the only copy
    is the single reshape into the contiguous column matrix.  Pooling uses
    it; convolutions build their columns through :class:`_ColumnBlocks`.
    """
    n, c = x.shape[0], x.shape[1]
    kh, kw = kernel
    windows, out_h, out_w = _window_view(x, kernel, stride, padding)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return cols, out_h, out_w


#: Bytes of one :class:`_ColumnBlocks` buffer: about an L2 cache's worth.
_BLOCK_BYTES = 1 << 19


class _ColumnBlocks:
    """The ``_im2col`` columns of ``x``, built a block of samples at a time.

    Iterating yields ``(start, stop, cols)`` where ``cols`` is the
    ``(stop - start, C*kh*kw, out_h*out_w)`` column matrix of samples
    ``start:stop``, filled into one reused buffer of ``block`` samples, so
    no whole-batch column matrix exists.  numpy's batched matmul makes one
    GEMM call per sample, so a per-block GEMM has the bits of the
    whole-batch one.  The block left in the buffer by one pass is yielded
    first, without a copy, by the next (the weight gradient), so a batch
    that fits in one block builds its columns once and a larger batch
    rebuilds every block but one.  Each block's GEMM writes only its own
    rows, so the order of the blocks changes no bits.
    """

    def __init__(
        self, x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
    ) -> None:
        n, c = x.shape[0], x.shape[1]
        kh, kw = kernel
        windows, self.out_h, self.out_w = _window_view(x, kernel, stride, padding)
        self._windows = windows.transpose(0, 1, 4, 5, 2, 3)
        features, length = c * kh * kw, self.out_h * self.out_w
        per_sample_bytes = features * length * x.dtype.itemsize
        self.block = max(1, min(n, _BLOCK_BYTES // per_sample_bytes))
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
            windows = self._windows[start:stop]
            np.copyto(cols.reshape(windows.shape), windows)
            self._resident = (start, stop)
            yield start, stop, cols


def _col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`_im2col`; overlapping patches are accumulated.

    The scatter-add runs over a preallocated padded buffer with one strided
    accumulation per kernel tap (``kh * kw`` bulk adds, no per-pixel Python).
    Pooling uses it; convolutions add their taps with
    :func:`_add_tap_products` and never build the column matrix.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


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
    """Add ``_col2im(w_mat.T @ grad)`` into ``image`` without the column matrix.

    ``weight`` is ``(K, C, kh, kw)``, ``grad`` is ``(N, K, out_h, out_w)``
    and ``image`` is ``(N, C, H, W)``, zero-filled by the caller.  For each
    kernel tap, in the row-major order of :func:`_col2im`, the ``(N, C, L)``
    product ``taps[i, j].T @ grad`` is added into the tap's strided window,
    so every pixel sums the same terms in the same order as the column
    path.  ``taps[i, j].T`` hands BLAS a transposed operand, as ``w_mat.T``
    does, so each product has the bits of the matching column rows.  With
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
        b = bias.data.reshape(1, out_channels, 1, 1)
        if np.result_type(out, b) == out.dtype:
            np.add(out, b, out=out)
        else:
            out = out + b

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
            grad_x = np.zeros(
                (n, c, h + 2 * padding, w + 2 * padding), dtype=np.result_type(w_data, grad)
            )
            _add_tap_products(grad_x, w_data, grad, stride, 0)
            if padding:
                grad_x = grad_x[:, :, padding:-padding, padding:-padding]
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
    out = np.zeros(
        (n, out_channels, out_h + 2 * padding, out_w + 2 * padding),
        dtype=np.result_type(w_data, x_data),
    )
    _add_tap_products(out, w_data, x_data, stride, 0)
    if padding:
        out = out[:, :, padding:-padding, padding:-padding]
    if bias is not None:
        out = out + bias.data.reshape(1, out_channels, 1, 1)

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
# Pooling
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
    stride = stride or kernel
    x_data = x.data
    n, c, h, w = x_data.shape
    cols, out_h, out_w = _im2col(x_data, (kernel, kernel), stride, 0)
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).squeeze(2)
    out = out.reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray):
        grad_flat = grad.reshape(n, c, 1, out_h * out_w)
        grad_cols = np.zeros_like(cols)
        np.put_along_axis(grad_cols, argmax[:, :, None, :], grad_flat, axis=2)
        grad_cols = grad_cols.reshape(n, c * kernel * kernel, out_h * out_w)
        grad_x = _col2im(grad_cols, x_data.shape, (kernel, kernel), stride, 0)
        return (grad_x,)

    return Tensor._from_op(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over windows."""
    stride = stride or kernel
    x_data = x.data
    n, c, h, w = x_data.shape
    cols, out_h, out_w = _im2col(x_data, (kernel, kernel), stride, 0)
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    out = cols.mean(axis=2).reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray):
        grad_flat = grad.reshape(n, c, 1, out_h * out_w) / (kernel * kernel)
        grad_cols = np.broadcast_to(grad_flat, (n, c, kernel * kernel, out_h * out_w))
        grad_cols = grad_cols.reshape(n, c * kernel * kernel, out_h * out_w)
        grad_x = _col2im(np.ascontiguousarray(grad_cols), x_data.shape, (kernel, kernel), stride, 0)
        return (grad_x,)

    return Tensor._from_op(out, (x,), backward)


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the two trailing spatial dimensions."""
    x_data = x.data
    out = np.pad(x_data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    def backward(grad: np.ndarray):
        if padding == 0:
            return (grad,)
        return (grad[:, :, padding:-padding, padding:-padding],)

    return Tensor._from_op(out, (x,), backward)


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


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x_data = x.data
    shifted = x_data - x_data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum
    probs = np.exp(out)

    def backward(grad: np.ndarray):
        return (grad - probs * grad.sum(axis=axis, keepdims=True),)

    return Tensor._from_op(out, (x,), backward)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a one-hot ``(N, num_classes)`` float matrix for integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood of integer ``targets`` given log-probabilities."""
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


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


def mse_loss(prediction: Tensor, target: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared error between ``prediction`` and ``target``."""
    target = Tensor.as_tensor(target)
    diff = prediction - target
    return (diff * diff).mean()
