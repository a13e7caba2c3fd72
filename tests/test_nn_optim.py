"""Tests for the SGD and Adam optimizers."""

from __future__ import annotations

import numpy as np
import pytest
from helpers import TwoLayerNet

from repro.nn import functional as F
from repro.nn.modules import Parameter
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor


def _single_param(value: np.ndarray) -> Parameter:
    return Parameter(np.asarray(value, dtype=np.float64))


class TestOptimizerValidation:
    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            SGD([_single_param(np.ones(2))], lr=0.0)

    def test_invalid_momentum_rejected(self):
        with pytest.raises(ValueError):
            SGD([_single_param(np.ones(2))], lr=0.1, momentum=1.5)

    def test_negative_weight_decay_rejected(self):
        with pytest.raises(ValueError):
            SGD([_single_param(np.ones(2))], lr=0.1, weight_decay=-1.0)

    def test_invalid_betas_rejected(self):
        with pytest.raises(ValueError):
            Adam([_single_param(np.ones(2))], lr=0.1, betas=(1.0, 0.9))

    def test_zero_grad_clears(self):
        param = _single_param(np.ones(2))
        param.grad = np.ones(2)
        opt = SGD([param], lr=0.1)
        opt.zero_grad()
        assert param.grad is None

    def test_step_skips_parameters_without_grad(self):
        param = _single_param(np.ones(2))
        SGD([param], lr=0.1).step()
        np.testing.assert_allclose(param.data, np.ones(2))

    def test_zero_grad_in_place_keeps_the_arrays(self):
        param = _single_param(np.ones(2))
        grad = np.ones(2)
        param.grad = grad
        SGD([param], lr=0.1).zero_grad(set_to_none=False)
        assert param.grad is grad
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    @pytest.mark.parametrize("optimizer", [SGD, Adam], ids=["sgd", "adam"])
    def test_lr_change_applies_from_the_next_step(self, optimizer):
        """``lr`` is plain state read on every step, so a caller may anneal it."""
        halved, reference = _single_param(np.array([1.0])), _single_param(np.array([1.0]))
        opt_halved, opt_reference = optimizer([halved], lr=0.2), optimizer([reference], lr=0.2)
        deltas = []
        for step in range(2):
            if step == 1:
                opt_halved.lr = 0.1
            before = (halved.data.copy(), reference.data.copy())
            halved.grad, reference.grad = np.array([0.5]), np.array([0.5])
            opt_halved.step()
            opt_reference.step()
            deltas.append((halved.data - before[0], reference.data - before[1]))
        np.testing.assert_array_equal(deltas[0][0], deltas[0][1])
        np.testing.assert_allclose(deltas[1][0], deltas[1][1] / 2.0, rtol=1e-12)


class TestSgdMath:
    def test_vanilla_update_rule(self):
        param = _single_param(np.array([1.0, 2.0]))
        param.grad = np.array([0.5, -0.5])
        SGD([param], lr=0.1).step()
        np.testing.assert_allclose(param.data, [0.95, 2.05])

    def test_weight_decay_added_to_gradient(self):
        param = _single_param(np.array([1.0]))
        param.grad = np.array([0.0])
        SGD([param], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(param.data, [1.0 - 0.1 * 0.5])

    def test_momentum_accumulates(self):
        param = _single_param(np.array([0.0]))
        opt = SGD([param], lr=1.0, momentum=0.9)
        param.grad = np.array([1.0])
        opt.step()  # velocity = 1, param = -1
        param.grad = np.array([1.0])
        opt.step()  # velocity = 1.9, param = -2.9
        np.testing.assert_allclose(param.data, [-2.9])

    def test_sgd_minimizes_quadratic(self):
        param = _single_param(np.array([5.0]))
        opt = SGD([param], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            loss = ((Tensor(np.zeros(1)) - param) ** 2).sum() if False else (param * param).sum()
            loss.backward()
            opt.step()
        assert abs(param.data[0]) < 1e-4


def _reference_sgd_step(params, grads, state, lr, momentum, weight_decay):
    """Textbook out-of-place SGD step (the pre-in-place formulation)."""
    new_params = []
    for index, (param, grad) in enumerate(zip(params, grads)):
        if weight_decay:
            grad = grad + weight_decay * param
        if momentum:
            velocity = state.setdefault(index, np.zeros_like(param))
            velocity = momentum * velocity + grad
            state[index] = velocity
            grad = velocity
        new_params.append(param - lr * grad)
    return new_params


def _reference_adam_step(params, grads, state, lr, beta1, beta2, eps, weight_decay):
    """Textbook out-of-place Adam step (the pre-in-place formulation)."""
    state["t"] = state.get("t", 0) + 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    new_params = []
    for index, (param, grad) in enumerate(zip(params, grads)):
        if weight_decay:
            grad = grad + weight_decay * param
        m = state.setdefault(("m", index), np.zeros_like(param))
        v = state.setdefault(("v", index), np.zeros_like(param))
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        state[("m", index)] = m
        state[("v", index)] = v
        new_params.append(param - lr * (m / bc1) / (np.sqrt(v / bc2) + eps))
    return new_params


class TestInPlaceTrajectories:
    """The in-place optimizers must track the out-of-place reference exactly."""

    def _grad_stream(self, shapes, steps, seed=0):
        rng = np.random.default_rng(seed)
        return [[rng.standard_normal(shape) for shape in shapes] for _ in range(steps)]

    @pytest.mark.parametrize("momentum,weight_decay", [(0.0, 0.0), (0.9, 0.0), (0.9, 0.01)])
    def test_sgd_trajectory_unchanged(self, momentum, weight_decay):
        shapes = [(4, 3), (3,)]
        rng = np.random.default_rng(7)
        initial = [rng.standard_normal(shape) for shape in shapes]
        params = [Parameter(value.copy()) for value in initial]
        opt = SGD(params, lr=0.05, momentum=momentum, weight_decay=weight_decay)
        reference = [value.copy() for value in initial]
        state = {}
        for grads in self._grad_stream(shapes, steps=12):
            for param, grad in zip(params, grads):
                param.grad = grad.copy()
            opt.step()
            reference = _reference_sgd_step(
                reference, grads, state, 0.05, momentum, weight_decay
            )
        for param, expected in zip(params, reference):
            np.testing.assert_array_equal(param.data, expected)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adam_trajectory_unchanged(self, weight_decay):
        shapes = [(5, 2), (2,)]
        rng = np.random.default_rng(11)
        initial = [rng.standard_normal(shape) for shape in shapes]
        params = [Parameter(value.copy()) for value in initial]
        opt = Adam(params, lr=0.01, weight_decay=weight_decay)
        reference = [value.copy() for value in initial]
        state = {}
        for grads in self._grad_stream(shapes, steps=12, seed=3):
            for param, grad in zip(params, grads):
                param.grad = grad.copy()
            opt.step()
            reference = _reference_adam_step(
                reference, grads, state, 0.01, 0.9, 0.999, 1e-8, weight_decay
            )
        for param, expected in zip(params, reference):
            np.testing.assert_array_equal(param.data, expected)

    def test_sgd_step_does_not_mutate_the_gradient(self):
        param = _single_param(np.array([1.0, 2.0]))
        grad = np.array([0.5, -0.5])
        param.grad = grad
        SGD([param], lr=0.1, momentum=0.9).step()
        np.testing.assert_array_equal(grad, [0.5, -0.5])

    def test_adam_step_does_not_mutate_the_gradient(self):
        param = _single_param(np.array([1.0, 2.0]))
        grad = np.array([0.5, -0.5])
        param.grad = grad
        Adam([param], lr=0.1).step()
        np.testing.assert_array_equal(grad, [0.5, -0.5])


class TestAdam:
    def test_first_step_moves_by_about_lr(self):
        param = _single_param(np.array([1.0]))
        param.grad = np.array([10.0])
        Adam([param], lr=0.01).step()
        # Bias-corrected Adam moves by ~lr regardless of gradient scale.
        assert param.data[0] == pytest.approx(1.0 - 0.01, abs=1e-4)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_first_step_is_invariant_to_gradient_scale(self, scale):
        param = _single_param(np.array([1.0, 1.0]))
        param.grad = np.array([2.0, -3.0]) * scale
        Adam([param], lr=0.01, eps=0.0).step()
        np.testing.assert_allclose(param.data, [0.99, 1.01], rtol=1e-12)

    def test_step_count_is_shared_by_all_parameters(self):
        """A parameter that joins late still uses the optimizer-wide step
        count in its bias correction."""
        early, late = _single_param(np.array([0.0])), _single_param(np.array([0.0]))
        opt = Adam([early, late], lr=0.1, betas=(0.5, 0.5), eps=0.0)
        early.grad = np.array([1.0])
        opt.step()
        late.grad = np.array([1.0])
        opt.step()
        # Step 2 for ``late``: m = 0.5, v = 0.5, corrections 0.75 and 0.75.
        expected = -0.1 * (0.5 / 0.75) / np.sqrt(0.5 / 0.75)
        np.testing.assert_allclose(late.data, [expected], rtol=1e-12)

    def test_adam_minimizes_quadratic_faster_than_plain_value(self):
        param = _single_param(np.array([3.0, -4.0]))
        opt = Adam([param], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            (param * param).sum().backward()
            opt.step()
        np.testing.assert_allclose(param.data, [0.0, 0.0], atol=1e-2)

    def test_adam_with_weight_decay_shrinks_parameters(self):
        param = _single_param(np.array([5.0]))
        opt = Adam([param], lr=0.05, weight_decay=1.0)
        for _ in range(50):
            opt.zero_grad()
            param.grad = np.array([0.0])
            opt.step()
        assert abs(param.data[0]) < 5.0

    def test_adam_trains_classifier_better_than_initial(self, rng):
        model = TwoLayerNet((4, 16, 3), seeds=(2, 3))
        inputs = rng.standard_normal((90, 4)).astype(np.float32)
        labels = rng.integers(0, 3, size=90)
        # Make labels learnable: correlate with the argmax of the first 3 features.
        labels = inputs[:, :3].argmax(axis=1)
        initial = F.cross_entropy(model(Tensor(inputs)), labels).item()
        opt = Adam(model.parameters(), lr=0.02)
        for _ in range(80):
            opt.zero_grad()
            loss = F.cross_entropy(model(Tensor(inputs)), labels)
            loss.backward()
            opt.step()
        assert loss.item() < initial * 0.5
