"""Registered trace kernels: compile-time forward/VJP builders per op.

Every kernel replicates the exact numpy expressions of the eager
closures in :mod:`repro.nn.tensor` / :mod:`repro.nn.functional` — same
ufuncs, same operand order, same accumulation order — so replaying a
tape is bit-identical to the eager step it recorded.  The only
difference is storage: outputs, saved activations and gradients live in
buffers laid out once per plan instead of per-step allocations.  Those
buffers share the process's arena with every other plan, so their
contents last one step: a kernel writes every buffer it reads within the
same step.  Builders only take views of their buffers at
compile time; they never read or write them there.

Registrations happen at module level with module-level named functions,
so worker processes rebuild the same registry on import (the ``TR002``
lint rule enforces this).

Bit-identity notes baked into individual kernels:

- ``tanh``'s VJP uses ``out ** 2``, never ``np.square``: numpy does not
  promise ``np.square`` matches ``**`` bitwise.
- scalar-array ops keep the eager operand order where it matters and
  rely on IEEE commutativity (``a*b == b*a`` bitwise) where it does not.
- "store" edges write gradients straight into the parent's plan buffer
  (fused ``out=``), "add" edges go through an edge scratch then a single
  ``np.add`` — exactly the ``grads[key] = grads[key] + pgrad`` order of
  the eager accumulation.
"""

from __future__ import annotations

import numpy as np

from .functional import _add_tap_products, _window_view
from .tensor import _unbroadcast
from .trace import TraceUnsupported, register_trace_op


# ----------------------------------------------------------------------
# Element-wise arithmetic
# ----------------------------------------------------------------------
def _forward_add(ctx):
    a, b = ctx.parents
    out = ctx.alloc_out()
    o = ctx.out

    def run(vals):
        np.add(vals[a], vals[b], out=out)
        vals[o] = out

    return run


def _vjp_add(ctx):
    g = ctx.grad_in()
    out_shape = ctx.out_shape
    sinks = []
    for pos in (0, 1):
        sink = ctx.sink(pos)
        if sink is not None:
            sinks.append((sink, ctx.shape(ctx.parents[pos])))

    def run(vals):
        for sink, shape in sinks:
            sink.write(g if shape == out_shape else _unbroadcast(g, shape))

    return run


def _forward_sub(ctx):
    a, b = ctx.parents
    out = ctx.alloc_out()
    o = ctx.out

    def run(vals):
        np.subtract(vals[a], vals[b], out=out)
        vals[o] = out

    return run


def _vjp_sub(ctx):
    g = ctx.grad_in()
    out_shape = ctx.out_shape
    sink0 = ctx.sink(0)
    sink1 = ctx.sink(1)
    shape0 = ctx.shape(ctx.parents[0])
    shape1 = ctx.shape(ctx.parents[1])

    def run(vals):
        if sink0 is not None:
            sink0.write(g if shape0 == out_shape else _unbroadcast(g, shape0))
        if sink1 is not None:
            if shape1 == out_shape:
                np.negative(g, out=sink1.out)
                sink1.commit()
            else:
                sink1.write(_unbroadcast(np.negative(g), shape1))

    return run


def _forward_mul(ctx):
    a, b = ctx.parents
    out = ctx.alloc_out()
    o = ctx.out

    def run(vals):
        np.multiply(vals[a], vals[b], out=out)
        vals[o] = out

    return run


def _vjp_mul(ctx):
    g = ctx.grad_in()
    out_shape = ctx.out_shape
    a, b = ctx.parents
    sink0 = ctx.sink(0)
    sink1 = ctx.sink(1)
    shape0 = ctx.shape(a)
    shape1 = ctx.shape(b)

    def run(vals):
        if sink0 is not None:
            if shape0 == out_shape:
                np.multiply(g, vals[b], out=sink0.out)
                sink0.commit()
            else:
                sink0.write(_unbroadcast(np.multiply(g, vals[b]), shape0))
        if sink1 is not None:
            if shape1 == out_shape:
                np.multiply(g, vals[a], out=sink1.out)
                sink1.commit()
            else:
                sink1.write(_unbroadcast(np.multiply(g, vals[a]), shape1))

    return run


def _forward_matmul(ctx):
    a, b = ctx.parents
    if len(ctx.shape(a)) != 2 or len(ctx.shape(b)) != 2:
        raise TraceUnsupported("only 2-D matmul is replayable")
    out = ctx.alloc_out()
    o = ctx.out

    def run(vals):
        np.matmul(vals[a], vals[b], out=out)
        vals[o] = out

    return run


def _vjp_matmul(ctx):
    g = ctx.grad_in()
    a, b = ctx.parents
    sink0 = ctx.sink(0)
    sink1 = ctx.sink(1)

    def run(vals):
        if sink0 is not None:
            np.matmul(g, vals[b].T, out=sink0.out)
            sink0.commit()
        if sink1 is not None:
            np.matmul(vals[a].T, g, out=sink1.out)
            sink1.commit()

    return run


# ----------------------------------------------------------------------
# Shape manipulation (outputs are per-step views; gradients still land
# in this node's own plan buffer, never aliasing the parent's)
# ----------------------------------------------------------------------
def _forward_reshape(ctx):
    (a,) = ctx.parents
    shape = ctx.kwargs["shape"]
    o = ctx.out

    def run(vals):
        vals[o] = vals[a].reshape(shape)

    return run


def _vjp_reshape(ctx):
    g = ctx.grad_in()
    input_shape = ctx.shape(ctx.parents[0])
    sink = ctx.sink(0)
    g_view = g.reshape(input_shape)

    def run(vals):
        if sink is not None:
            sink.write(g_view)

    return run


def _forward_transpose(ctx):
    (a,) = ctx.parents
    axes = ctx.kwargs["axes"]
    o = ctx.out

    def run(vals):
        vals[o] = vals[a].transpose(axes)

    return run


def _vjp_transpose(ctx):
    g = ctx.grad_in()
    axes = ctx.kwargs["axes"]
    sink = ctx.sink(0)
    if axes is None:
        g_view = g.transpose()
    else:
        inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
        g_view = g.transpose(inverse)

    def run(vals):
        if sink is not None:
            sink.write(g_view)

    return run


def _forward_getitem(ctx):
    (a,) = ctx.parents
    index = ctx.kwargs["index"]
    o = ctx.out

    def run(vals):
        vals[o] = vals[a][index]

    return run


def _vjp_getitem(ctx):
    g = ctx.grad_in()
    index = ctx.kwargs["index"]
    sink = ctx.sink(0)

    def run(vals):
        if sink is not None:
            np.copyto(sink.out, 0.0)
            np.add.at(sink.out, index, g)
            sink.commit()

    return run


# ----------------------------------------------------------------------
# Element-wise non-linearities
# ----------------------------------------------------------------------
def _forward_relu(ctx):
    (a,) = ctx.parents
    out = ctx.alloc_out()
    mask = ctx.scratch("mask", ctx.out_shape, "bool")
    o = ctx.out

    def run(vals):
        np.greater(vals[a], 0, out=mask)
        np.multiply(vals[a], mask, out=out)
        vals[o] = out

    return run


def _vjp_relu(ctx):
    g = ctx.grad_in()
    mask = ctx.saved("mask")
    sink = ctx.sink(0)

    def run(vals):
        if sink is not None:
            np.multiply(g, mask, out=sink.out)
            sink.commit()

    return run


def _forward_tanh(ctx):
    (a,) = ctx.parents
    out = ctx.alloc_out()
    o = ctx.out

    def run(vals):
        np.tanh(vals[a], out=out)
        vals[o] = out

    return run


def _vjp_tanh(ctx):
    g = ctx.grad_in()
    out = ctx.saved_output()
    sink = ctx.sink(0)

    def run(vals):
        if sink is not None:
            squared = out ** 2
            np.subtract(1.0, squared, out=squared)
            np.multiply(g, squared, out=sink.out)
            sink.commit()

    return run


def _forward_sigmoid(ctx):
    (a,) = ctx.parents
    out = ctx.alloc_out()
    tmp = ctx.scratch("tmp", ctx.out_shape, ctx.out_dtype)
    o = ctx.out

    def run(vals):
        np.negative(vals[a], out=tmp)
        np.exp(tmp, out=tmp)
        np.add(1.0, tmp, out=tmp)
        np.divide(1.0, tmp, out=out)
        vals[o] = out

    return run


def _vjp_sigmoid(ctx):
    g = ctx.grad_in()
    out = ctx.saved_output()
    tmp = ctx.saved("tmp")
    one_minus = ctx.scratch("one_minus", ctx.out_shape, ctx.out_dtype)
    sink = ctx.sink(0)

    def run(vals):
        if sink is not None:
            np.multiply(g, out, out=tmp)
            np.subtract(1.0, out, out=one_minus)
            np.multiply(tmp, one_minus, out=sink.out)
            sink.commit()

    return run


# ----------------------------------------------------------------------
# Convolution (mirroring functional.conv2d: im2col GEMM forward, tap-by-tap
# data gradient)
# ----------------------------------------------------------------------
def _forward_conv2d(ctx):
    stride = ctx.kwargs["stride"]
    padding = ctx.kwargs["padding"]
    x_slot, w_slot = ctx.parents[0], ctx.parents[1]
    b_slot = ctx.parents[2] if len(ctx.parents) > 2 else None
    n, c, h, w = ctx.shape(x_slot)
    out_channels, _, kh, kw = ctx.shape(w_slot)
    _, _, out_h, out_w = ctx.out_shape
    length = out_h * out_w
    features = c * kh * kw
    dtype = ctx.out_dtype
    out = ctx.alloc_out()
    out3 = out.reshape(n, out_channels, length)
    # The column buffer is plan-owned storage, visible to the backward
    # kernel through saved() — never a closure cell.  It holds the whole
    # batch: regenerating cache-sized blocks in the backward, as the eager
    # engine does, shrank the arena but slowed replayed training.
    cols = ctx.scratch("cols", (n, features, length), dtype)
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
    o = ctx.out

    if padding:
        padded = ctx.scratch(
            "padded", (n, c, h + 2 * padding, w + 2 * padding), ctx.dtype(x_slot)
        )
        # The eager padding's zero borders.  Another plan may have used
        # this arena storage since the last step, so they are re-zeroed
        # every step; the interior needs no zeroing because every step
        # overwrites it.
        borders = (
            padded[:, :, :padding, :],
            padded[:, :, -padding:, :],
            padded[:, :, padding:-padding, :padding],
            padded[:, :, padding:-padding, -padding:],
        )
        interior = padded[:, :, padding:-padding, padding:-padding]
        windows_t = _window_view(padded, (kh, kw), stride).transpose(0, 1, 4, 5, 2, 3)

        def run(vals):
            for border in borders:
                np.copyto(border, 0.0)
            np.copyto(interior, vals[x_slot])
            np.copyto(cols6, windows_t)
            w_mat = vals[w_slot].reshape(out_channels, features)
            np.matmul(w_mat, cols, out=out3)
            if b_slot is not None:
                np.add(out, vals[b_slot].reshape(1, out_channels, 1, 1), out=out)
            vals[o] = out

    else:

        def run(vals):
            windows = _window_view(vals[x_slot], (kh, kw), stride)
            np.copyto(cols6, windows.transpose(0, 1, 4, 5, 2, 3))
            w_mat = vals[w_slot].reshape(out_channels, features)
            np.matmul(w_mat, cols, out=out3)
            if b_slot is not None:
                np.add(out, vals[b_slot].reshape(1, out_channels, 1, 1), out=out)
            vals[o] = out

    return run


def _vjp_conv2d(ctx):
    stride = ctx.kwargs["stride"]
    padding = ctx.kwargs["padding"]
    x_slot, w_slot = ctx.parents[0], ctx.parents[1]
    b_slot = ctx.parents[2] if len(ctx.parents) > 2 else None
    n, c, _, _ = ctx.shape(x_slot)
    out_channels, _, kh, kw = ctx.shape(w_slot)
    _, _, out_h, out_w = ctx.out_shape
    features = c * kh * kw
    dtype = ctx.out_dtype
    g = ctx.grad_in()
    g3 = g.reshape(n, out_channels, out_h * out_w)
    x_sink = ctx.sink(0)
    w_sink = ctx.sink(1)
    b_sink = ctx.sink(2) if b_slot is not None else None

    cols = gw_stack = None
    if w_sink is not None:
        cols = ctx.saved("cols")
        gw_stack = ctx.scratch("gw_stack", (n, out_channels, features), dtype)
    taps = product = None
    if x_sink is not None:
        taps = ctx.scratch("taps", (kh, kw, out_channels, c), ctx.dtype(w_slot))
        product = ctx.scratch("product", (n, c, out_h * out_w), dtype)

    def run(vals):
        if w_sink is not None:
            np.matmul(g3, cols.transpose(0, 2, 1), out=gw_stack)
            np.sum(gw_stack, axis=0, out=w_sink.out.reshape(out_channels, features))
            w_sink.commit()
        if x_sink is not None:
            # The taps land straight in the unpadded gradient: the eager
            # closure's padded image differs from it only in the border.
            np.copyto(x_sink.out, 0.0)
            _add_tap_products(x_sink.out, vals[w_slot], g, stride, padding, taps, product)
            x_sink.commit()
        if b_sink is not None:
            np.sum(g, axis=(0, 2, 3), out=b_sink.out)
            b_sink.commit()

    return run


# ----------------------------------------------------------------------
# Cross-entropy loss (the training-loop root)
# ----------------------------------------------------------------------
def _forward_cross_entropy(ctx):
    (logits_slot,) = ctx.parents
    targets_slot = ctx.kwargs["targets"].slot
    n, num_classes = ctx.shape(logits_slot)
    dtype = ctx.dtype(logits_slot)
    out = ctx.alloc_out()
    max_buf = ctx.scratch("max", (n, 1), dtype)
    shifted = ctx.scratch("shifted", (n, num_classes), dtype)
    exp_buf = ctx.scratch("exp", (n, num_classes), dtype)
    sum_buf = ctx.scratch("sum", (n, 1), dtype)
    log_probs = ctx.scratch("log_probs", (n, num_classes), dtype)
    probs = ctx.scratch("probs", (n, num_classes), dtype)
    rows = np.arange(n)
    o = ctx.out

    def run(vals):
        logits = vals[logits_slot]
        targets = np.asarray(vals[targets_slot], dtype="int64")
        np.max(logits, axis=1, keepdims=True, out=max_buf)
        np.subtract(logits, max_buf, out=shifted)
        np.exp(shifted, out=exp_buf)
        np.sum(exp_buf, axis=1, keepdims=True, out=sum_buf)
        np.log(sum_buf, out=sum_buf)
        np.subtract(shifted, sum_buf, out=log_probs)
        picked = log_probs[rows, targets]
        out[...] = -picked.mean()
        np.exp(log_probs, out=probs)
        vals[o] = out

    return run


def _vjp_cross_entropy(ctx):
    (logits_slot,) = ctx.parents
    targets_slot = ctx.kwargs["targets"].slot
    n, _ = ctx.shape(logits_slot)
    g = ctx.grad_in()
    probs = ctx.saved("probs")
    rows = np.arange(n)
    sink = ctx.sink(0)

    def run(vals):
        if sink is not None:
            targets = np.asarray(vals[targets_slot], dtype="int64")
            np.copyto(sink.out, probs)
            sink.out[rows, targets] -= 1.0
            np.multiply(sink.out, float(g) / n, out=sink.out)
            sink.commit()

    return run


register_trace_op("add", _forward_add, _vjp_add)
register_trace_op("sub", _forward_sub, _vjp_sub)
register_trace_op("mul", _forward_mul, _vjp_mul)
register_trace_op("matmul", _forward_matmul, _vjp_matmul)
register_trace_op("reshape", _forward_reshape, _vjp_reshape)
register_trace_op("transpose", _forward_transpose, _vjp_transpose)
register_trace_op("getitem", _forward_getitem, _vjp_getitem)
register_trace_op("relu", _forward_relu, _vjp_relu)
register_trace_op("tanh", _forward_tanh, _vjp_tanh)
register_trace_op("sigmoid", _forward_sigmoid, _vjp_sigmoid)
register_trace_op("conv2d", _forward_conv2d, _vjp_conv2d)
register_trace_op("cross_entropy", _forward_cross_entropy, _vjp_cross_entropy)
