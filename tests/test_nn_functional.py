"""Tests for convolution and loss primitives (values and gradients)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad

from helpers import numerical_gradient


class TestShapeArithmetic:
    @pytest.mark.parametrize(
        "size,kernel,stride,padding,expected",
        [(28, 3, 1, 1, 28), (28, 3, 2, 1, 14), (32, 5, 1, 0, 28), (16, 3, 2, 1, 8)],
    )
    def test_conv_output_size(self, size, kernel, stride, padding, expected):
        assert F.conv_output_size(size, kernel, stride, padding) == expected

    @pytest.mark.parametrize(
        "size,kernel,stride,padding,expected",
        [(14, 4, 2, 1, 28), (7, 4, 2, 1, 14), (8, 4, 2, 1, 16), (4, 3, 1, 0, 6)],
    )
    def test_conv_transpose_output_size(self, size, kernel, stride, padding, expected):
        assert F.conv_transpose_output_size(size, kernel, stride, padding) == expected

    def test_conv_and_transpose_are_shape_inverses(self):
        for size in (7, 8, 14, 16):
            up = F.conv_transpose_output_size(size, 4, 2, 1)
            down = F.conv_output_size(up, 4, 2, 1)
            assert down == size


def _im2col(x, kernel, stride, padding):
    """Whole-batch ``(N, C*kh*kw, out_h*out_w)`` column matrix of ``x``.

    The reference the block-built columns and the tap kernel are pinned
    against: one stride-trick window view, one copy into the columns.
    """
    n, c = x.shape[0], x.shape[1]
    kh, kw = kernel
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = F._window_view(padded, kernel, stride)
    out_h, out_w = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return cols, out_h, out_w


def _col2im(cols, input_shape, kernel, stride, padding):
    """Scatter-add of a column matrix back into an image, one bulk add per tap.

    Taps accumulate in row-major order into a zero-filled padded buffer,
    the order the tap kernel must reproduce bit for bit.
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


def _naive_im2col(x, kernel, stride, padding):
    """Nested-loop reference for the stride-trick ``_im2col``."""
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.zeros((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for i in range(kh):
                for j in range(kw):
                    for oy in range(out_h):
                        for ox in range(out_w):
                            cols[b, ch, i, j, oy, ox] = padded[
                                b, ch, oy * stride + i, ox * stride + j
                            ]
    return cols.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


def _naive_col2im(cols, input_shape, kernel, stride, padding):
    """Nested-loop scatter-add reference for ``_col2im``."""
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for b in range(n):
        for ch in range(c):
            for i in range(kh):
                for j in range(kw):
                    for oy in range(out_h):
                        for ox in range(out_w):
                            padded[b, ch, oy * stride + i, ox * stride + j] += cols[
                                b, ch, i, j, oy, ox
                            ]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


GEOMETRIES = [
    # (kernel, stride, padding) combinations covering every conv in the repo's
    # models plus non-square kernels and kernel-sized strides.
    ((3, 3), 1, 0),
    ((3, 3), 1, 1),
    ((3, 3), 2, 1),
    ((4, 4), 2, 1),
    ((5, 5), 1, 2),
    ((2, 3), 1, 0),
    ((2, 2), 2, 0),
    ((1, 1), 1, 0),
    ((3, 3), 3, 1),
]


class TestIm2colGoldenValues:
    """The im2col/col2im references match the naive nested-loop kernels.

    ``F._window_view``, which the convolutions build their columns from,
    is the stride trick under test in ``_im2col``.
    """

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_im2col_matches_naive(self, kernel, stride, padding, rng):
        x = rng.standard_normal((2, 3, 9, 8))
        cols, out_h, out_w = _im2col(x, kernel, stride, padding)
        naive_cols, naive_h, naive_w = _naive_im2col(x, kernel, stride, padding)
        assert (out_h, out_w) == (naive_h, naive_w)
        np.testing.assert_array_equal(cols, naive_cols)

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_col2im_matches_naive(self, kernel, stride, padding, rng):
        input_shape = (2, 3, 9, 8)
        _, out_h, out_w = _im2col(np.zeros(input_shape), kernel, stride, padding)
        kh, kw = kernel
        cols = rng.standard_normal((2, 3 * kh * kw, out_h * out_w))
        np.testing.assert_allclose(
            _col2im(cols, input_shape, kernel, stride, padding),
            _naive_col2im(cols, input_shape, kernel, stride, padding),
            atol=1e-12,
        )

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_col2im_is_adjoint_of_im2col(self, kernel, stride, padding, rng):
        # <col2im(g), x> == <g, im2col(x)> — the defining property of the
        # convolution backward pass.
        input_shape = (2, 2, 9, 8)
        x = rng.standard_normal(input_shape)
        cols, out_h, out_w = _im2col(x, kernel, stride, padding)
        g = rng.standard_normal(cols.shape)
        lhs = float((_col2im(g, input_shape, kernel, stride, padding) * x).sum())
        rhs = float((g * cols).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_im2col_preserves_dtype(self, rng):
        x = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
        cols, _, _ = _im2col(x, (3, 3), 1, 1)
        assert cols.dtype == np.float32

    def test_window_view_is_zero_copy(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        windows = F._window_view(x, (3, 3), 1)
        assert windows.shape == (1, 2, 4, 4, 3, 3)
        assert windows.base is not None  # a view, not a copy
        x[0, 0, 0, 0] = 123.0
        assert windows[0, 0, 0, 0, 0, 0] == 123.0


class TestTapKernelBitwise:
    """The tap kernel has the bits of ``_col2im`` over the column GEMM.

    Both engines' convolution data gradients and the transposed
    convolution's forward run on :func:`F._add_tap_products`, so the
    science stays bit-identical to the column path it replaced.  ``C == 1``
    takes the kernel's all-taps GEMM (numpy would send a one-row product to
    GEMV) and ``K == 1`` its ``np.multiply``.  The models train in float32;
    in float64, OpenBLAS picks its GEMM kernel by size, and some larger
    per-tap products (e.g. 16 channels contracted over 32, on a 14×14
    output) differ from the column rows in the last bit, so float64 is
    pinned at these small sizes only.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("contracted", [1, 3, 16, 32])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 4])
    def test_matches_col2im_of_column_gemm(
        self, kernel, stride, padding, channels, contracted, dtype, rng
    ):
        n, h, w = 2, 7, 8
        out_h = F.conv_output_size(h, kernel, stride, padding)
        out_w = F.conv_output_size(w, kernel, stride, padding)
        weight = rng.standard_normal((contracted, channels, kernel, kernel)).astype(dtype)
        grad = rng.standard_normal((n, contracted, out_h, out_w)).astype(dtype)
        grad.reshape(-1)[::5] = -0.0
        w_mat = weight.reshape(contracted, -1)
        expected = _col2im(
            np.matmul(w_mat.T, grad.reshape(n, contracted, -1)),
            (n, channels, h, w),
            (kernel, kernel),
            stride,
            padding,
        )

        padded = np.zeros((n, channels, h + 2 * padding, w + 2 * padding), dtype=dtype)
        F._add_tap_products(padded, weight, grad, stride, 0)
        cropped = padded[:, :, padding : padding + h, padding : padding + w]
        clipped = np.zeros((n, channels, h, w), dtype=dtype)
        F._add_tap_products(clipped, weight, grad, stride, padding)

        uint = np.uint32 if dtype == np.float32 else np.uint64
        expected_bits = np.ascontiguousarray(expected).view(uint)
        assert np.array_equal(np.ascontiguousarray(cropped).view(uint), expected_bits)
        assert np.array_equal(clipped.view(uint), expected_bits)


def _assert_same_bits(actual, expected):
    uint = np.uint32 if expected.dtype == np.float32 else np.uint64
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(
        np.ascontiguousarray(actual).view(uint), np.ascontiguousarray(expected).view(uint)
    )


class TestColumnBlocksBitwise:
    """Block-built columns give the bits of the whole-batch column matrix.

    The reference runs each GEMM once over the whole-batch ``_im2col``
    matrix; the convolutions build the same columns three samples at a
    time (``_BLOCK_BYTES`` is shrunk to fit), so the batch sizes below
    cover one sample, a part block, one block, one block plus a sample and
    a ragged tail.
    """

    BLOCK = 3

    def _shrink_blocks(self, monkeypatch, per_sample_bytes):
        monkeypatch.setattr(F, "_BLOCK_BYTES", self.BLOCK * per_sample_bytes)

    @pytest.mark.parametrize("grad_w", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 4])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
    def test_conv2d_matches_whole_batch(
        self, n, kernel, stride, padding, dtype, grad_w, rng, monkeypatch
    ):
        c, o, h, w = 3, 4, 7, 8
        x_data = rng.standard_normal((n, c, h, w)).astype(dtype)
        w_data = rng.standard_normal((o, c, kernel, kernel)).astype(dtype)
        b_data = rng.standard_normal(o).astype(dtype)
        cols, out_h, out_w = _im2col(x_data, (kernel, kernel), stride, padding)
        self._shrink_blocks(monkeypatch, cols[0].nbytes)
        assert F._ColumnBlocks(x_data, (kernel, kernel), stride, padding).block == min(
            n, self.BLOCK
        )
        w_mat = w_data.reshape(o, -1)
        expected_out = np.matmul(w_mat, cols).reshape(n, o, out_h, out_w)
        expected_out = expected_out + b_data.reshape(1, o, 1, 1)
        grad = rng.standard_normal((n, o, out_h, out_w)).astype(dtype)
        grad_mat = grad.reshape(n, o, -1)
        expected_w = np.matmul(grad_mat, cols.transpose(0, 2, 1)).sum(axis=0)
        expected_x = np.zeros((n, c, h, w), dtype=dtype)
        F._add_tap_products(expected_x, w_data, grad, stride, padding)

        with no_grad():
            frozen = F.conv2d(Tensor(x_data), Tensor(w_data, requires_grad=True),
                              Tensor(b_data), stride=stride, padding=padding)
        _assert_same_bits(frozen.data, expected_out)

        x = Tensor(x_data, requires_grad=True)
        weight = Tensor(w_data, requires_grad=grad_w)
        bias = Tensor(b_data, requires_grad=True)
        out = F.conv2d(x, weight, bias, stride=stride, padding=padding)
        _assert_same_bits(out.data, expected_out)
        out.backward(grad)
        _assert_same_bits(x.grad, expected_x)
        _assert_same_bits(bias.grad, grad.sum(axis=(0, 2, 3)))
        if grad_w:
            _assert_same_bits(weight.grad, expected_w.reshape(w_data.shape))
        else:
            assert weight.grad is None

    @pytest.mark.parametrize("grad_w", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 4])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
    def test_conv_transpose2d_backward_matches_whole_batch(
        self, n, kernel, stride, padding, dtype, grad_w, rng, monkeypatch
    ):
        i, o, h, w = 4, 3, 5, 6
        x_data = rng.standard_normal((n, i, h, w)).astype(dtype)
        w_data = rng.standard_normal((i, o, kernel, kernel)).astype(dtype)
        x = Tensor(x_data, requires_grad=True)
        weight = Tensor(w_data, requires_grad=grad_w)
        out = F.conv_transpose2d(x, weight, stride=stride, padding=padding)
        grad = rng.standard_normal(out.shape).astype(dtype)
        grad_cols, _, _ = _im2col(grad, (kernel, kernel), stride, padding)
        self._shrink_blocks(monkeypatch, grad_cols[0].nbytes)
        w_mat = w_data.reshape(i, -1)
        expected_x = np.matmul(w_mat, grad_cols).reshape(x_data.shape)
        expected_w = np.matmul(x_data.reshape(n, i, -1), grad_cols.transpose(0, 2, 1)).sum(axis=0)

        out.backward(grad)
        _assert_same_bits(x.grad, expected_x)
        if grad_w:
            _assert_same_bits(weight.grad, expected_w.reshape(w_data.shape))
        else:
            assert weight.grad is None

    def test_second_pass_starts_from_the_resident_block(self, rng, monkeypatch):
        x_data = rng.standard_normal((2 * self.BLOCK, 3, 7, 8))
        cols, _, _ = _im2col(x_data, (3, 3), 1, 1)
        self._shrink_blocks(monkeypatch, cols[0].nbytes)
        blocks = F._ColumnBlocks(x_data, (3, 3), 1, 1)
        first = [(start, stop) for start, stop, _ in blocks]
        copies = []
        copyto = np.copyto
        monkeypatch.setattr(np, "copyto", lambda dst, src: copies.append(copyto(dst, src)))
        second = []
        for start, stop, block_cols in blocks:
            second.append((start, stop))
            _assert_same_bits(block_cols, cols[start:stop])
        assert first == [(0, 3), (3, 6)]
        assert second == [(3, 6), (0, 3)]
        # One block rebuilt: its samples into the padded block, then its
        # columns out of it.
        assert len(copies) == 2

    def test_default_block_is_one_refine_sample(self):
        # The generator's 16->1 refine conv: one (144, 784) float32 sample
        # (441 KiB) fills a block; a small FashionCNN input layer's whole
        # batch fits in one.
        refine = np.zeros((50, 16, 28, 28), dtype=np.float32)
        assert F._ColumnBlocks(refine, (3, 3), 1, 1).block == 1
        images = np.zeros((32, 1, 28, 28), dtype=np.float32)
        assert F._ColumnBlocks(images, (3, 3), 2, 1).block == 32

    def test_refine_conv_peaks_below_its_column_matrix(self, rng):
        import tracemalloc

        x = Tensor(rng.standard_normal((50, 16, 28, 28)).astype(np.float32))
        weight = Tensor(
            rng.standard_normal((1, 16, 3, 3)).astype(np.float32), requires_grad=True
        )
        column_bytes = 50 * 144 * 784 * 4
        tracemalloc.start()
        try:
            F.conv2d(x, weight, padding=1).sum().backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weight.grad is not None
        assert peak < column_bytes


class TestConvGradientSkipping:
    """Backward closures must not spend work on gradients nobody needs."""

    def test_conv2d_frozen_weight_gets_no_grad(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=False)
        F.conv2d(x, w, padding=1).sum().backward()
        assert x.grad is not None
        assert w.grad is None

    def test_conv2d_input_layer_matches_full_backward(self, rng):
        # grad_w must be identical whether or not grad_x is also computed.
        x_data = rng.standard_normal((2, 2, 6, 6))
        w_data = rng.standard_normal((3, 2, 3, 3))
        w_only = Tensor(w_data.copy(), requires_grad=True)
        F.conv2d(Tensor(x_data), w_only, stride=2, padding=1).sum().backward()
        x_full = Tensor(x_data.copy(), requires_grad=True)
        w_full = Tensor(w_data.copy(), requires_grad=True)
        F.conv2d(x_full, w_full, stride=2, padding=1).sum().backward()
        np.testing.assert_array_equal(w_only.grad, w_full.grad)

    def test_conv2d_1x1_kernel_gradients(self, rng):
        # 1×1 kernels make the im2col reshape view-compatible: the column
        # buffer is a read-only stride-trick view of the input, which the
        # backward must leave untouched.
        x = Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 1, 1)), requires_grad=True)
        snapshot = x.data.copy()
        out = F.conv2d(x, w)
        (out * out).sum().backward()
        np.testing.assert_array_equal(x.data, snapshot)  # input not clobbered

        def value():
            return float((F.conv2d(Tensor(x.data), Tensor(w.data)).data ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, x.data), x.grad, atol=1e-5)
        np.testing.assert_allclose(numerical_gradient(value, w.data), w.grad, atol=1e-5)

    def test_conv_transpose2d_frozen_weight_gets_no_grad(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 4, 4)), requires_grad=False)
        F.conv_transpose2d(x, w, stride=2, padding=1).sum().backward()
        assert x.grad is not None
        assert w.grad is None

    def test_conv2d_second_backward_raises_released_graph(self, rng):
        # A backward pass releases the graph it has used (closures, saved
        # column blocks), so a second pass through it raises instead of
        # reading freed state, and leaves the gradients of the first.
        x = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        out = F.conv2d(x, w, padding=1)
        out.sum().backward()
        first_x, first_w = x.grad.copy(), w.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            out.sum().backward()
        np.testing.assert_array_equal(x.grad, first_x)
        np.testing.assert_array_equal(w.grad, first_w)


class TestConvPaddingMemory:
    """No eager convolution allocates a whole-batch padded array."""

    @staticmethod
    def _peak(fn) -> int:
        import tracemalloc

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_padded_conv2d_forward_over_many_blocks(self, rng):
        # 16 -> 1 channels over 256 samples: the columns span ~85 blocks,
        # and the whole-batch padded input (5.3 MB) dwarfs the output
        # (0.26 MB) and the block buffers.
        x = Tensor(rng.standard_normal((256, 16, 16, 16)).astype(np.float32))
        w = Tensor(rng.standard_normal((1, 16, 3, 3)).astype(np.float32))
        assert F._ColumnBlocks(x.data, (3, 3), 1, 1).block < 8
        padded_bytes = 256 * 16 * 18 * 18 * 4
        assert self._peak(lambda: F.conv2d(x, w, padding=1)) < padded_bytes

    def test_padded_conv_transpose2d_backward_over_many_blocks(self, rng):
        # The weight gradient's columns come from the padded output
        # gradient, one block at a time.
        x = Tensor(rng.standard_normal((256, 1, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((1, 16, 4, 4)).astype(np.float32), requires_grad=True)
        out = F.conv_transpose2d(x, w, stride=2, padding=1)
        grad = np.ones(out.shape, dtype=np.float32)
        padded_bytes = 256 * 16 * 18 * 18 * 4
        assert out.shape == (256, 16, 16, 16)
        assert self._peak(lambda: out.backward(grad)) < padded_bytes
        assert w.grad is not None


class TestLinear:
    def test_linear_matches_manual(self, rng):
        x = Tensor(rng.standard_normal((5, 3)))
        w = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal(4))
        out = F.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data, atol=1e-6)

    def test_linear_without_bias(self, rng):
        x = Tensor(rng.standard_normal((5, 3)))
        w = Tensor(rng.standard_normal((4, 3)))
        np.testing.assert_allclose(F.linear(x, w).data, x.data @ w.data.T, atol=1e-6)


class TestConv2d:
    def test_identity_kernel_preserves_input(self):
        x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 5, 5)))
        kernel = np.zeros((1, 1, 3, 3), dtype=np.float64)
        kernel[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, Tensor(kernel), padding=1)
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_matches_naive_convolution(self, rng):
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=0).data
        naive = np.zeros((2, 3, 3, 3))
        for n in range(2):
            for o in range(3):
                for i in range(3):
                    for j in range(3):
                        naive[n, o, i, j] = (x[n, :, i : i + 3, j : j + 3] * w[o]).sum()
        np.testing.assert_allclose(out, naive, atol=1e-6)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        w = Tensor(rng.standard_normal((3, 4, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_empty_output_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)))
        w = Tensor(rng.standard_normal((1, 1, 5, 5)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_gradients(self, stride, padding, rng):
        x = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        (out * out).sum().backward()

        def value():
            o = F.conv2d(Tensor(x.data), Tensor(w.data), Tensor(b.data), stride=stride, padding=padding)
            return float((o.data ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, x.data), x.grad, atol=1e-5)
        np.testing.assert_allclose(numerical_gradient(value, w.data), w.grad, atol=1e-5)
        np.testing.assert_allclose(numerical_gradient(value, b.data), b.grad, atol=1e-5)

    def test_gradient_without_bias(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
        F.conv2d(x, w, padding=1).sum().backward()
        assert x.grad is not None and w.grad is not None


class TestConvTranspose2d:
    def test_output_shape(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 7, 7)))
        w = Tensor(rng.standard_normal((3, 4, 4, 4)))
        out = F.conv_transpose2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 4, 14, 14)

    def test_is_adjoint_of_conv(self, rng):
        # <conv(x), y> == <x, conv_transpose(y)> for matching geometry.
        x = rng.standard_normal((1, 2, 8, 8))
        y = rng.standard_normal((1, 3, 4, 4))
        w = rng.standard_normal((3, 2, 4, 4))  # conv weight (out, in, k, k)
        conv_x = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        # conv_transpose expects weight shaped (in, out, k, k) w.r.t. its own input y.
        convt_y = F.conv_transpose2d(Tensor(y), Tensor(w), stride=2, padding=1).data
        lhs = float((conv_x * y).sum())
        rhs = float((x * convt_y).sum())
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((3, 2, 4, 4)))
        with pytest.raises(ValueError):
            F.conv_transpose2d(x, w)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_gradients(self, stride, padding, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 4, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        out = F.conv_transpose2d(x, w, b, stride=stride, padding=padding)
        (out * out).sum().backward()

        def value():
            o = F.conv_transpose2d(
                Tensor(x.data), Tensor(w.data), Tensor(b.data), stride=stride, padding=padding
            )
            return float((o.data ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, x.data), x.grad, atol=1e-5)
        np.testing.assert_allclose(numerical_gradient(value, w.data), w.grad, atol=1e-5)
        np.testing.assert_allclose(numerical_gradient(value, b.data), b.grad, atol=1e-5)


class TestSoftmaxAndLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        probs = F.softmax(Tensor(rng.standard_normal((6, 10)))).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-6)
        assert np.all(probs >= 0)

    def test_softmax_is_stable_for_large_logits(self):
        logits = Tensor(np.array([[1000.0, 1000.0, 1000.0]]))
        probs = F.softmax(logits).data
        np.testing.assert_allclose(probs, np.full((1, 3), 1 / 3), atol=1e-6)

    def test_softmax_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        (F.softmax(x) ** 2).sum().backward()

        def value():
            return float((F.softmax(Tensor(x.data)).data ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, x.data), x.grad, atol=1e-6)

    def test_cross_entropy_matches_manual(self, rng):
        logits_data = rng.standard_normal((5, 4))
        targets = np.array([0, 1, 2, 3, 1])
        loss = F.cross_entropy(Tensor(logits_data), targets).item()
        shifted = logits_data - logits_data.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(5), targets].mean()
        assert loss == pytest.approx(expected, rel=1e-6)

    def test_cross_entropy_gradient(self, rng):
        logits = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        targets = rng.integers(0, 5, size=6)
        F.cross_entropy(logits, targets).backward()

        def value():
            return float(F.cross_entropy(Tensor(logits.data), targets).item())

        np.testing.assert_allclose(numerical_gradient(value, logits.data), logits.grad, atol=1e-7)

    def test_cross_entropy_validates_inputs(self, rng):
        logits = Tensor(rng.standard_normal((3, 4)))
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.array([0, 1]))
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.array([0, 1, 7]))

    def test_soft_cross_entropy_uniform_target_gradient(self, rng):
        logits = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        uniform = np.full(6, 1.0 / 6.0)
        F.soft_cross_entropy(logits, uniform).backward()

        def value():
            return float(F.soft_cross_entropy(Tensor(logits.data), uniform).item())

        np.testing.assert_allclose(numerical_gradient(value, logits.data), logits.grad, atol=1e-7)

    def test_soft_cross_entropy_minimized_by_uniform_logits(self):
        uniform = np.full(4, 0.25)
        flat = F.soft_cross_entropy(Tensor(np.zeros((2, 4))), uniform).item()
        peaked = F.soft_cross_entropy(Tensor(np.array([[10.0, 0, 0, 0], [10.0, 0, 0, 0]])), uniform).item()
        assert flat < peaked

    def test_cross_entropy_equals_soft_cross_entropy_with_one_hot(self, rng):
        logits_data = rng.standard_normal((5, 3))
        targets = np.array([0, 2, 1, 1, 0])
        hard = F.cross_entropy(Tensor(logits_data), targets).item()
        soft = F.soft_cross_entropy(Tensor(logits_data), np.eye(3)[targets]).item()
        assert hard == pytest.approx(soft, rel=1e-6)
