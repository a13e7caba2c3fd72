"""Tests for the Module system, layers and initialization."""

from __future__ import annotations

import numpy as np
import pytest
from helpers import TwoLayerNet

from repro import nn
from repro.nn import functional as F
from repro.nn import init
from repro.nn.modules import Parameter
from repro.nn.tensor import Tensor

from helpers import numerical_gradient


class _Holder(nn.Module):
    """A module with a parameter, a child, a plain tensor and an array."""

    def __init__(self) -> None:
        super().__init__()
        self.scale = Parameter(np.ones(2, dtype=np.float32))
        self.child = nn.Linear(2, 2, rng=np.random.default_rng(0))
        self.constant = Tensor(np.zeros(2))
        self.table = np.zeros(3)

    def forward(self, x):
        return self.child(x * self.scale) + self.constant


class TestModuleInfrastructure:
    def test_parameter_registration_order_is_stable(self):
        model_a = TwoLayerNet((4, 8, 2), seeds=(0, 1))
        model_b = TwoLayerNet((4, 8, 2), seeds=(2, 3))
        names_a = [name for name, _ in model_a.named_parameters()]
        names_b = [name for name, _ in model_b.named_parameters()]
        assert names_a == names_b
        assert len(names_a) == 4  # two weights + two biases

    def test_num_parameters(self):
        layer = nn.Linear(3, 5)
        assert layer.num_parameters() == 3 * 5 + 5

    def test_zero_grad_clears_all(self):
        layer = nn.Linear(3, 2)
        out = layer(Tensor(np.ones((4, 3)))).sum()
        out.backward()
        assert all(p.grad is not None for p in layer.parameters())
        layer.zero_grad()
        assert all(p.grad is None for p in layer.parameters())

    def test_requires_grad_toggle(self):
        layer = nn.Linear(3, 2)
        layer.requires_grad_(False)
        assert all(not p.requires_grad for p in layer.parameters())
        out = layer(Tensor(np.ones((1, 3)))).sum()
        assert not out.requires_grad

    def test_nested_names_are_dotted_in_registration_order(self):
        model = TwoLayerNet((4, 8, 2))
        names = [name for name, _ in model.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_only_parameters_and_modules_are_registered(self):
        holder = _Holder()
        assert [name for name, _ in holder.named_parameters()] == [
            "scale", "child.weight", "child.bias"
        ]
        assert list(holder._modules) == ["child"]
        assert holder.num_parameters() == 2 + 2 * 2 + 2

    def test_reassigning_an_attribute_replaces_its_registration(self):
        holder = _Holder()
        replacement = Parameter(np.full(2, 3.0, dtype=np.float32))
        holder.scale = replacement
        assert holder.parameters()[0] is replacement
        assert len(holder.parameters()) == 3

    def test_requires_grad_returns_the_module(self):
        layer = nn.Linear(3, 2)
        assert layer.requires_grad_(False) is layer
        assert all(p.requires_grad for p in layer.requires_grad_(True).parameters())

    def test_two_layer_net_trains_end_to_end(self, rng):
        model = TwoLayerNet((2, 16, 2))
        optimizer = nn.Adam(model.parameters(), lr=0.02)
        inputs = rng.standard_normal((128, 2)).astype(np.float32)
        labels = (inputs[:, 0] > 0).astype(np.int64)
        first_loss = None
        for _ in range(60):
            optimizer.zero_grad()
            loss = F.cross_entropy(model(Tensor(inputs)), labels)
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < first_loss * 0.5
        accuracy = (model(Tensor(inputs)).data.argmax(axis=1) == labels).mean()
        assert accuracy > 0.9


class TestLayers:
    def test_linear_forward_shape(self):
        layer = nn.Linear(6, 4)
        assert layer(Tensor(np.zeros((3, 6)))).shape == (3, 4)

    def test_linear_no_bias(self):
        layer = nn.Linear(6, 4, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_conv2d_forward_shape(self):
        layer = nn.Conv2d(3, 8, kernel_size=3, stride=2, padding=1)
        assert layer(Tensor(np.zeros((2, 3, 16, 16)))).shape == (2, 8, 8, 8)

    def test_conv_transpose2d_forward_shape(self):
        layer = nn.ConvTranspose2d(8, 4, kernel_size=4, stride=2, padding=1)
        assert layer(Tensor(np.zeros((2, 8, 7, 7)))).shape == (2, 4, 14, 14)

    def test_linear_is_the_affine_map(self, rng):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        x = rng.standard_normal((4, 5)).astype(np.float32)
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_array_equal(layer(Tensor(x)).data, expected)

    def test_linear_gradients_match_numerical(self, rng):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        for param in layer.parameters():
            param.data = param.data.astype(np.float64)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        (layer(x) ** 2).sum().backward()

        def value():
            return float((layer(Tensor(x.data)).data ** 2).sum())

        for array, grad in ((x.data, x.grad), (layer.weight.data, layer.weight.grad),
                            (layer.bias.data, layer.bias.grad)):
            np.testing.assert_allclose(numerical_gradient(value, array), grad, atol=1e-6)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_conv2d_runs_its_functional(self, stride, padding, rng):
        layer = nn.Conv2d(2, 3, kernel_size=3, stride=stride, padding=padding,
                          rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((2, 2, 7, 7)).astype(np.float32))
        expected = F.conv2d(x, layer.weight, layer.bias, stride=stride, padding=padding)
        np.testing.assert_array_equal(layer(x).data, expected.data)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_conv_transpose2d_runs_its_functional(self, stride, padding, rng):
        layer = nn.ConvTranspose2d(3, 2, kernel_size=4, stride=stride, padding=padding,
                                   rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((2, 3, 5, 5)).astype(np.float32))
        expected = F.conv_transpose2d(x, layer.weight, layer.bias, stride=stride, padding=padding)
        np.testing.assert_array_equal(layer(x).data, expected.data)

    @pytest.mark.parametrize(
        "layer",
        [
            lambda rng: nn.Linear(12, 5, rng=rng),
            lambda rng: nn.Conv2d(3, 4, kernel_size=3, rng=rng),
            lambda rng: nn.ConvTranspose2d(4, 3, kernel_size=4, rng=rng),
        ],
        ids=["linear", "conv2d", "conv-transpose2d"],
    )
    def test_parameters_are_float32_and_seeded(self, layer):
        first = layer(np.random.default_rng(5))
        second = layer(np.random.default_rng(5))
        for (_, a), (_, b) in zip(first.named_parameters(), second.named_parameters()):
            assert a.dtype == np.float32
            np.testing.assert_array_equal(a.data, b.data)

    def test_default_bias_bounds(self):
        linear = nn.Linear(16, 64, rng=np.random.default_rng(0))
        assert np.abs(linear.bias.data).max() <= 1.0 / np.sqrt(16)
        conv = nn.Conv2d(2, 64, kernel_size=3, rng=np.random.default_rng(0))
        assert np.abs(conv.bias.data).max() <= 1.0 / np.sqrt(2 * 3 * 3)
        transposed = nn.ConvTranspose2d(2, 4, kernel_size=3, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(transposed.bias.data, np.zeros(4, dtype=np.float32))


class TestInit:
    def test_fan_in_out_linear(self):
        assert init.calculate_fan_in_and_fan_out((8, 3)) == (3, 8)

    def test_fan_in_out_conv(self):
        assert init.calculate_fan_in_and_fan_out((16, 4, 3, 3)) == (36, 144)

    def test_fan_rejects_1d(self):
        with pytest.raises(ValueError):
            init.calculate_fan_in_and_fan_out((5,))

    def test_kaiming_uniform_bound(self, rng):
        values = init.kaiming_uniform((64, 32), rng)
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 32)
        assert values.max() <= bound and values.min() >= -bound
        assert values.dtype == np.float32

    def test_normal_std(self, rng):
        values = init.normal((2000,), rng, std=0.05)
        assert values.std() == pytest.approx(0.05, rel=0.15)

    def test_zeros(self):
        assert np.all(init.zeros((3, 3)) == 0.0)

    def test_uniform_bound_and_dtype(self, rng):
        values = init.uniform((500,), rng, bound=0.25)
        assert values.dtype == np.float32
        assert values.max() <= 0.25 and values.min() >= -0.25
        assert values.max() > 0.2 and values.min() < -0.2
