"""Tests for the autograd Tensor: arithmetic, broadcasting and backward passes."""

from __future__ import annotations

import hashlib
import weakref

import numpy as np
import pytest

from repro.models import FashionCNN
from repro.models.classifiers import GRUClassifier
from repro.models.generator import FilterNet, TCNNGenerator
from repro.nn import functional as F
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

    def test_nested_no_grad_restores_the_outer_state(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_state_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
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

    def test_mul_neg_pow_values(self):
        x = Tensor(np.array([2.0, 4.0]))
        assert np.allclose((x * 3.0).data, [6.0, 12.0])
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

    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [((3, 4), (4,)), ((3, 1), (1, 4)), ((2, 3, 4), (3, 1))],
        ids=["trailing", "outer", "leading-and-unit"],
    )
    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
        ],
        ids=["add", "sub", "mul"],
    )
    def test_broadcast_gradients_reduce_to_operand_shapes(self, op, a_shape, b_shape, rng):
        a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
        b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
        (op(a, b) ** 2).sum().backward()
        assert a.grad.shape == a_shape and b.grad.shape == b_shape

        def value():
            return float((op(Tensor(a.data), Tensor(b.data)).data ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, a.data), a.grad, atol=1e-6)
        np.testing.assert_allclose(numerical_gradient(value, b.data), b.grad, atol=1e-6)

    @pytest.mark.parametrize("exponent", [2, 3, 0.5, -1.0])
    def test_pow_gradients(self, exponent, rng):
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        (x ** exponent).sum().backward()
        np.testing.assert_allclose(x.grad, exponent * x.data ** (exponent - 1), rtol=1e-12)

        def value():
            return float((Tensor(x.data) ** exponent).data.sum())

        np.testing.assert_allclose(numerical_gradient(value, x.data), x.grad, atol=1e-6)

    def test_reciprocal_is_a_negative_power(self):
        x = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        y = 8.0 * x ** -1.0
        np.testing.assert_allclose(y.data, [4.0, 2.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [-2.0, -0.5])

    def test_reflected_operands_get_their_gradients(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        (3.0 - x * 2.0 + 1.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(4, -2.0))

    def test_batched_matmul_gradient_reduces_shared_weight(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        (out ** 2).sum().backward()
        assert b.grad.shape == (4, 5)

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

    @pytest.mark.parametrize("axis", [0, -1, (0, 2)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_sum_axis_gradient(self, axis, keepdims, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        s = x.sum(axis=axis, keepdims=keepdims)
        np.testing.assert_allclose(s.data, x.data.sum(axis=axis, keepdims=keepdims))
        (s ** 2).sum().backward()

        def value():
            return float((x.data.sum(axis=axis, keepdims=keepdims) ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, x.data), x.grad, atol=1e-6)


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

    def test_transpose_axes_gradient_matches_numerical(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        weights = rng.standard_normal((4, 2, 3))
        (x.transpose((2, 0, 1)) * weights).sum().backward()
        np.testing.assert_allclose(x.grad, weights.transpose((1, 2, 0)))

    def test_getitem_strided_column_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        y = x[:, 1::2]
        np.testing.assert_array_equal(y.data, x.data[:, 1::2])
        y.sum().backward()
        expected = np.zeros((3, 6))
        expected[:, 1::2] = 1.0
        np.testing.assert_array_equal(x.grad, expected)


class TestElementwiseFunctions:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: x.tanh(),
            lambda x: x.sigmoid(),
            lambda x: x.relu(),
        ],
    )
    def test_unary_gradients(self, fn, rng):
        x = Tensor(rng.standard_normal((3, 4)) + 0.1, requires_grad=True)
        (fn(x) ** 2).sum().backward()

        def value():
            return float((fn(Tensor(x.data)).data ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, x.data), x.grad, atol=1e-5)

    def test_relu_zeroes_negative(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(x.relu().data, [0.0, 0.0, 2.0])

    def test_sigmoid_range(self, rng):
        x = Tensor(rng.standard_normal(100) * 10)
        s = x.sigmoid().data
        assert np.all((s > 0) & (s < 1))

    def test_relu_gradient_is_zero_at_zero(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_tanh_and_sigmoid_values_match_numpy(self, rng):
        data = rng.standard_normal((4, 5)) * 3.0
        x = Tensor(data)
        np.testing.assert_allclose(x.tanh().data, np.tanh(data), rtol=1e-12)
        np.testing.assert_allclose(x.sigmoid().data, 1.0 / (1.0 + np.exp(-data)), rtol=1e-12)
        np.testing.assert_allclose(x.sigmoid().data + (-x).sigmoid().data, 1.0, rtol=1e-12)


class TestFloat32Policy:
    """float32 operands stay float32 through the forward and the backward."""

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: x + 1.0,
            lambda x: 1.0 - x,
            lambda x: 2.0 * x,
            lambda x: -x,
            lambda x: x ** 2,
            lambda x: x @ np.ones((4, 2), dtype=np.float32),
            lambda x: x.tanh(),
            lambda x: x.sigmoid(),
            lambda x: x.sum(axis=0),
        ],
        ids=["radd", "rsub", "rmul", "neg", "pow", "matmul", "tanh", "sigmoid", "sum"],
    )
    def test_ops_keep_float32(self, fn, rng):
        x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        out = fn(x)
        assert out.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32


class TestGraphRelease:
    """backward() frees what it has used; a graph is backpropagated once."""

    def test_second_backward_raises_and_leaves_grads(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x * 3.0
        y.sum().backward()
        with pytest.raises(RuntimeError, match="released"):
            (y + x).sum().backward()
        # The failed pass raised before it reached any leaf.
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_backward_twice_on_one_root_raises(self):
        x = Tensor(np.ones(2), requires_grad=True)
        loss = (x * 2.0).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()

    def test_released_tensors_keep_their_data(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        y = x.relu()
        loss = y.sum()
        loss.backward()
        np.testing.assert_array_equal(y.data, [1.0, 0.0])
        assert loss.item() == 1.0
        assert y.requires_grad

    def test_saved_arrays_are_freed_during_the_pass(self):
        # A node's closure is dropped as soon as the node has passed its
        # gradient on: by the time its parent's closure runs, what the
        # child saved is gone.
        def saving(parent, saved, probe=None):
            def backward(grad):
                if probe is not None:
                    probe()
                return (grad * saved,)

            return Tensor._from_op(parent.data * saved, (parent,), backward)

        freed_when_parent_ran = []
        x = Tensor(np.ones(3), requires_grad=True)
        first = saving(x, np.full(3, 2.0), lambda: freed_when_parent_ran.append(ref() is None))
        scale = np.full(3, 5.0)
        ref = weakref.ref(scale)
        second = saving(first, scale)
        del scale
        second.sum().backward()
        assert freed_when_parent_ran == [True]
        np.testing.assert_array_equal(x.grad, [10.0, 10.0, 10.0])
        assert ref() is None


def _digests(leaves):
    return [
        hashlib.blake2b(np.ascontiguousarray(leaf.grad).tobytes(), digest_size=16).hexdigest()
        for leaf in leaves
    ]


class TestBackwardGoldens:
    """Leaf gradients keep their bits through every change to the engine.

    The digests were captured before backward released the graph and
    before convolutions padded per block.  Each graph spans several column
    blocks somewhere, and the FilterNet graph hands an input gradient
    straight to a bias sum, whose bits follow the gradient's memory layout.
    """

    def test_generator_into_fashion_cnn(self):
        rng = np.random.default_rng(7)
        generator = TCNNGenerator(noise_dim=16, out_channels=1, image_size=28, base_width=8, rng=rng)
        classifier = FashionCNN(in_channels=1, image_size=28, num_classes=10, rng=rng)
        noise = Tensor(generator.sample_noise(20, rng), requires_grad=True)
        targets = rng.integers(0, 10, size=20)
        F.cross_entropy(classifier(generator(noise)), targets).backward()
        leaves = [noise] + generator.parameters() + classifier.parameters()
        assert _digests(leaves) == GENERATOR_FASHION_DIGESTS

    def test_filter_into_fashion_cnn(self):
        rng = np.random.default_rng(1)
        filter_net = FilterNet(channels=1, image_size=28, kernel_size=3, rng=rng)
        classifier = FashionCNN(in_channels=1, image_size=28, num_classes=10, rng=rng)
        dummy = Tensor(filter_net.sample_dummy(30, rng))
        F.soft_cross_entropy(classifier(filter_net(dummy)), np.full(10, 0.1)).backward()
        leaves = filter_net.parameters() + classifier.parameters()
        assert _digests(leaves) == FILTER_FASHION_DIGESTS

    def test_gru_classifier(self):
        rng = np.random.default_rng(11)
        model = GRUClassifier(in_channels=1, image_size=8, num_classes=10, hidden=6, rng=rng)
        x = Tensor(rng.standard_normal((5, 1, 8, 8)).astype(np.float32), requires_grad=True)
        targets = rng.integers(0, 10, size=5)
        F.cross_entropy(model(x), targets).backward()
        assert _digests([x] + model.parameters()) == GRU_DIGESTS


GENERATOR_FASHION_DIGESTS = [
        "a35a1d6eaf1bb1ae1c9dc65f48095149",
        "216088ebd70faed07d149973024b1210",
        "86c165e529ed20694d1c4fe369c61d90",
        "dc971e2de8172d4d99c73762628515cc",
        "b65a44cdfb2394a6f62bcd7fcebecd38",
        "21198a2a6e402e44fa05d8dbe1fba2e7",
        "12511f6a0c6ebb945c81473320135e08",
        "e9dfe18ba4f8084b439b8480c407adc4",
        "2264e5d56a86d5419f600fbbf230f8d0",
        "c98337bf2c492d26a5b9e9442a5caa5e",
        "f99b15e828d892485324e79b32b717e6",
        "82c8413dd301fecce6db47c2ecbe8fb3",
        "c4fd247c4f89f46fd2734f69cea61f03",
        "27b08af3d42f384e01680ef06ba49d20",
        "d3cb95256abaa465a1da8e9c3f891a8c",
    ]
FILTER_FASHION_DIGESTS = [
        "ce15c1486795eff84d851c5cec72ea14",
        "73a46650c9436f17a03423097dc8efe2",
        "ba59e065d164eef962a28defb8512c50",
        "bd154502a3934b1529552c60f1100d5b",
        "7c66a9445693d1bf086bc7bf46c2ea4d",
        "392840c4adfec0d6b30f0d0c4d2188bf",
        "ebafd96af448d1a70dafdf67dc9c27d2",
        "914a706c7302e3f9633901d465c8dbdc",
    ]
GRU_DIGESTS = [
        "2e8365cc72d0251893bcce9dd7396c89",
        "b4f0340edbcde0c54a2ff6587e0f6063",
        "b568622ba33f25fd858f595f37cfca44",
        "4ab168da90e72d9e5951a706c8626201",
        "56d7749935d6b0d394136f2a3eb1a5d3",
        "27d6e560820e3b53ac69c201402bb3a7",
        "dafbf38bbe76b504362865bc15c7c335",
    ]
