"""Tests for the autograd Tensor: arithmetic, broadcasting and backward passes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import DEFAULT_DTYPE, Tensor, is_grad_enabled, no_grad

from helpers import numerical_gradient


class TestConstruction:
    def test_from_list_uses_default_dtype(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.dtype == DEFAULT_DTYPE
        assert t.shape == (3,)

    def test_from_float64_array_preserves_dtype(self):
        t = Tensor(np.zeros(4, dtype=np.float64))
        assert t.dtype == np.float64

    def test_from_int_array_converts_to_float(self):
        t = Tensor(np.arange(5))
        assert np.issubdtype(t.dtype, np.floating)

    def test_from_numpy_scalar_preserves_float64(self):
        t = Tensor(np.float64(3.5))
        assert t.dtype == np.float64
        assert t.item() == pytest.approx(3.5)

    def test_from_tensor_shares_data(self):
        base = Tensor(np.ones(3))
        again = Tensor(base)
        assert np.shares_memory(base.data, again.data)

    def test_zeros_and_ones_constructors(self):
        z = Tensor.zeros((2, 3))
        o = Tensor.ones((2, 3), requires_grad=True)
        assert np.all(z.data == 0)
        assert np.all(o.data == 1)
        assert o.requires_grad

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2

    def test_detach_and_copy(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        c = t.copy()
        assert not d.requires_grad and not c.requires_grad
        assert np.shares_memory(d.data, t.data)
        assert not np.shares_memory(c.data, t.data)


class TestBackwardBasics:
    def test_backward_requires_grad_flag(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_nonscalar_needs_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        y = t * 2.0
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_with_explicit_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        y = t * 3.0
        y.backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(t.grad, [3.0, 6.0, 9.0])

    def test_grad_accumulates_across_backward_calls(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2.0).sum().backward()
        (t * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0, 4.0])

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2.0).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_reused_node_accumulates_gradient(self):
        # Diamond graph: y = x*x used twice in the same expression.
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x
        z = (y + y).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_no_grad_context(self):
        x = Tensor(np.ones(3), requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
            assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_is_thread_local(self):
        # Pooled inference threads (REFD fan-out over a thread pool)
        # enter no_grad concurrently with the main thread; the switch must
        # not leak across threads — a process-global flag with save/restore
        # could leave gradient recording permanently disabled after a race.
        import threading

        entered = threading.Event()
        release = threading.Event()
        worker_state = {}

        def worker():
            with no_grad():
                worker_state["inside"] = is_grad_enabled()
                entered.set()
                release.wait(timeout=5)
            worker_state["after"] = is_grad_enabled()

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(timeout=5)
        assert is_grad_enabled()  # main thread unaffected while worker is inside
        release.set()
        thread.join(timeout=5)
        assert worker_state == {"inside": False, "after": True}
        assert is_grad_enabled()

    def test_constant_branch_gets_no_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 2.0))
        y = (x * c).sum()
        y.backward()
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])


class TestArithmetic:
    def test_add_and_radd(self):
        x = Tensor(np.array([1.0, 2.0]))
        assert np.allclose((x + 1.0).data, [2.0, 3.0])
        assert np.allclose((1.0 + x).data, [2.0, 3.0])

    def test_sub_and_rsub(self):
        x = Tensor(np.array([1.0, 2.0]))
        assert np.allclose((x - 1.0).data, [0.0, 1.0])
        assert np.allclose((5.0 - x).data, [4.0, 3.0])

    def test_mul_div_neg_pow_values(self):
        x = Tensor(np.array([2.0, 4.0]))
        assert np.allclose((x * 3.0).data, [6.0, 12.0])
        assert np.allclose((x / 2.0).data, [1.0, 2.0])
        assert np.allclose((8.0 / x).data, [4.0, 2.0])
        assert np.allclose((-x).data, [-2.0, -4.0])
        assert np.allclose((x ** 2).data, [4.0, 16.0])

    def test_pow_rejects_tensor_exponent(self):
        x = Tensor(np.ones(2))
        with pytest.raises(TypeError):
            _ = x ** Tensor(np.ones(2))

    def test_matmul_2d_values(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_allclose((a @ b).data, np.array([[19.0, 22.0], [43.0, 50.0]]))

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
            lambda a, b: a / b,
        ],
    )
    def test_binary_op_gradients(self, op, rng):
        a_data = rng.standard_normal((3, 4)) + 2.0
        b_data = rng.standard_normal((3, 4)) + 2.0
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (op(a, b) ** 2).sum().backward()

        def value():
            return float((op(Tensor(a.data), Tensor(b.data)).data ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, a.data), a.grad, atol=1e-6)
        np.testing.assert_allclose(numerical_gradient(value, b.data), b.grad, atol=1e-6)

    def test_broadcast_add_gradient_shapes(self, rng):
        a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (4, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, np.full(3, 4.0))

    def test_broadcast_mul_gradient_values(self, rng):
        a_data = rng.standard_normal((2, 3))
        b_data = rng.standard_normal((1, 3))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, np.broadcast_to(b_data, (2, 3)))
        np.testing.assert_allclose(b.grad, a_data.sum(axis=0, keepdims=True))

    def test_matmul_gradient(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        ((a @ b) ** 2).sum().backward()

        def value():
            return float(((Tensor(a.data) @ Tensor(b.data)).data ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, a.data), a.grad, atol=1e-6)
        np.testing.assert_allclose(numerical_gradient(value, b.data), b.grad, atol=1e-6)


class TestReductions:
    def test_sum_all(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        s = x.sum()
        assert s.item() == pytest.approx(15.0)
        s.backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        s = x.sum(axis=1, keepdims=True)
        assert s.shape == (2, 1)
        s.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_axis_gradient(self, rng):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        (x.mean(axis=0) ** 2).sum().backward()

        def value():
            return float((Tensor(x.data).data.mean(axis=0) ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, x.data), x.grad, atol=1e-6)

    def test_mean_all_value(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        assert x.mean().item() == pytest.approx(2.5)

    def test_max_all_gradient_flows_to_maximum(self):
        x = Tensor(np.array([1.0, 5.0, 3.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_max_axis_value(self):
        x = Tensor(np.array([[1.0, 2.0], [4.0, 3.0]]))
        np.testing.assert_allclose(x.max(axis=1).data, [2.0, 4.0])


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        y = x.reshape(3, 4).reshape((2, 6))
        (y * y).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_flatten_batch(self):
        x = Tensor(np.zeros((4, 2, 3, 3)))
        assert x.flatten_batch().shape == (4, 18)

    def test_transpose_default_and_axes(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        assert x.transpose().shape == (4, 3, 2)
        y = x.transpose((1, 0, 2))
        assert y.shape == (3, 2, 4)
        (y * y).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_T_property(self):
        x = Tensor(np.zeros((2, 5)))
        assert x.T.shape == (5, 2)

    def test_getitem_basic_and_gradient(self):
        x = Tensor(np.arange(10, dtype=np.float64), requires_grad=True)
        y = x[2:5]
        np.testing.assert_allclose(y.data, [2.0, 3.0, 4.0])
        y.sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_fancy_duplicate_indices_accumulate(self):
        x = Tensor(np.arange(4, dtype=np.float64), requires_grad=True)
        idx = np.array([1, 1, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 2.0, 1.0, 0.0])


class TestElementwiseFunctions:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: x.exp(),
            lambda x: x.tanh(),
            lambda x: x.sigmoid(),
            lambda x: x.relu(),
            lambda x: x.leaky_relu(0.1),
            lambda x: x.abs(),
        ],
    )
    def test_unary_gradients(self, fn, rng):
        x = Tensor(rng.standard_normal((3, 4)) + 0.1, requires_grad=True)
        (fn(x) ** 2).sum().backward()

        def value():
            return float((fn(Tensor(x.data)).data ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, x.data), x.grad, atol=1e-5)

    def test_log_and_sqrt_gradients(self, rng):
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        (x.log() + x.sqrt()).sum().backward()

        def value():
            data = Tensor(x.data)
            return float((data.log() + data.sqrt()).data.sum())

        np.testing.assert_allclose(numerical_gradient(value, x.data), x.grad, atol=1e-6)

    def test_relu_zeroes_negative(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(x.relu().data, [0.0, 0.0, 2.0])

    def test_sigmoid_range(self, rng):
        x = Tensor(rng.standard_normal(100) * 10)
        s = x.sigmoid().data
        assert np.all((s > 0) & (s < 1))

    def test_clip_gradient_mask(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_norm_matches_numpy(self, rng):
        data = rng.standard_normal((4, 5))
        x = Tensor(data.copy(), requires_grad=True)
        n = x.norm()
        assert n.item() == pytest.approx(np.linalg.norm(data), rel=1e-6)
        n.backward()
        np.testing.assert_allclose(x.grad, data / np.linalg.norm(data), atol=1e-6)
