"""Tests for the GRU building blocks of the sequence extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.recurrent import GRU, GRUCell
from repro.nn.tensor import Tensor

from helpers import numerical_gradient


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _reference_step(cell, x, h):
    """One GRU step in plain numpy, PyTorch's gate layout ``[z, r, n]``."""
    size = cell.hidden_size
    gx = x @ cell.input_gates.weight.data.T + cell.input_gates.bias.data
    gh = h @ cell.hidden_gates.weight.data.T + cell.hidden_gates.bias.data
    z = _sigmoid(gx[:, :size] + gh[:, :size])
    r = _sigmoid(gx[:, size : 2 * size] + gh[:, size : 2 * size])
    n = np.tanh(gx[:, 2 * size :] + r * gh[:, 2 * size :])
    return (1.0 - z) * n + z * h


class TestGRUCell:
    def test_validation(self):
        with pytest.raises(ValueError):
            GRUCell(0, 4)

    def test_output_shape_and_default_hidden(self):
        cell = GRUCell(5, 7, rng=np.random.default_rng(0))
        out = cell(Tensor(np.zeros((3, 5), dtype=np.float32)))
        assert out.shape == (3, 7)

    def test_hidden_state_is_carried(self, rng):
        cell = GRUCell(4, 4, rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
        h1 = cell(x)
        h2 = cell(x, h1)
        assert not np.allclose(h1.data, h2.data)

    def test_gradient_flows_to_parameters_and_input(self, rng):
        cell = GRUCell(3, 3, rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        cell(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in cell.parameters())

    def test_gradient_check_against_numerical(self, rng):
        cell = GRUCell(2, 2, rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        h = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        (cell(x, h) ** 2).sum().backward()

        def value():
            return float((cell(Tensor(x.data), Tensor(h.data)).data ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, x.data), x.grad, atol=1e-4)
        np.testing.assert_allclose(numerical_gradient(value, h.data), h.grad, atol=1e-4)

    def test_matches_reference_gate_equations(self, rng):
        cell = GRUCell(3, 5, rng=np.random.default_rng(0))
        x = rng.standard_normal((4, 3)).astype(np.float32)
        h = rng.standard_normal((4, 5)).astype(np.float32)
        np.testing.assert_allclose(
            cell(Tensor(x), Tensor(h)).data, _reference_step(cell, x, h), rtol=1e-5, atol=1e-6
        )
        zeros = np.zeros((4, 5), dtype=np.float32)
        np.testing.assert_array_equal(cell(Tensor(x)).data, cell(Tensor(x), Tensor(zeros)).data)

    def test_saturated_update_gate_keeps_the_hidden_state(self, rng):
        cell = GRUCell(3, 4, rng=np.random.default_rng(0))
        cell.input_gates.bias.data[:4] = 50.0  # z = sigmoid(~50) == 1
        h = rng.standard_normal((2, 4)).astype(np.float32)
        out = cell(Tensor(rng.standard_normal((2, 3)).astype(np.float32)), Tensor(h))
        np.testing.assert_allclose(out.data, h, atol=1e-6)


class TestGRU:
    def test_rejects_non_3d_input(self):
        gru = GRU(3, 4)
        with pytest.raises(ValueError):
            gru(Tensor(np.zeros((2, 3))))

    def test_output_shapes(self, rng):
        gru = GRU(3, 5, rng=np.random.default_rng(0))
        sequence = Tensor(rng.standard_normal((2, 6, 3)).astype(np.float32))
        final = gru(sequence)
        assert final.shape == (2, 5)
        state = None
        for step in range(6):
            state = gru.cell(Tensor(sequence.data[:, step, :]), state)
        np.testing.assert_array_equal(final.data, state.data)

    def test_validation(self):
        with pytest.raises(ValueError):
            GRU(3, 0)

    def test_initial_hidden_state_seeds_the_recurrence(self, rng):
        gru = GRU(3, 4, rng=np.random.default_rng(0))
        sequence = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32))
        hidden = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
        state = hidden
        for step in range(5):
            state = gru.cell(Tensor(sequence.data[:, step, :]), state)
        np.testing.assert_array_equal(gru(sequence, hidden).data, state.data)
        assert not np.array_equal(gru(sequence).data, state.data)

    def test_final_state_is_float32(self, rng):
        gru = GRU(3, 4, rng=np.random.default_rng(0))
        sequence = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32), requires_grad=True)
        final = gru(sequence)
        assert final.dtype == np.float32
        final.sum().backward()
        assert sequence.grad.dtype == np.float32
        assert all(p.grad.dtype == np.float32 for p in gru.parameters())

    def test_input_gradient_through_time_matches_numerical(self, rng):
        gru = GRU(2, 3, rng=np.random.default_rng(0))
        for param in gru.parameters():
            param.data = param.data.astype(np.float64)
        sequence = Tensor(rng.standard_normal((2, 4, 2)), requires_grad=True)
        hidden = Tensor(np.zeros((2, 3)))
        (gru(sequence, hidden) ** 2).sum().backward()

        def value():
            return float((gru(Tensor(sequence.data), hidden).data ** 2).sum())

        np.testing.assert_allclose(numerical_gradient(value, sequence.data), sequence.grad,
                                   atol=1e-6)

    def test_soft_token_distributions_are_differentiable(self, rng):
        """A GRU over per-step token distributions (the sequence form of a
        generator's output) passes gradient back to the distribution."""
        vocab = 6
        gru = GRU(vocab, 4, rng=np.random.default_rng(0))
        logits = rng.standard_normal((2, 3, vocab)).astype(np.float32)
        soft = Tensor(np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True),
                      requires_grad=True)
        gru(soft).sum().backward()
        assert soft.grad.shape == (2, 3, vocab)
        assert np.all(np.any(soft.grad != 0.0, axis=2))

    def test_backward_through_time_reaches_parameters(self, rng):
        gru = GRU(3, 4, rng=np.random.default_rng(0))
        sequence = Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
        (gru(sequence) ** 2).sum().backward()
        assert sequence.grad is not None
        assert all(p.grad is not None for p in gru.parameters())

    def test_sequence_classifier_learns_order_sensitive_task(self, rng):
        # Classify whether the first or the second half of the sequence has
        # the larger mean — requires integrating information over time.
        vocab, length, hidden = 10, 8, 16
        gru = GRU(vocab, hidden, rng=np.random.default_rng(1))
        head = nn.Linear(hidden, 2, rng=np.random.default_rng(2))
        optimizer = nn.Adam(gru.parameters() + head.parameters(), lr=0.01)

        tokens = rng.integers(0, vocab, size=(120, length))
        labels = (tokens[:, : length // 2].mean(axis=1) > tokens[:, length // 2 :].mean(axis=1)).astype(int)

        def forward(batch_tokens):
            one_hot = np.eye(vocab, dtype=np.float32)[batch_tokens]
            return head(gru(Tensor(one_hot)))

        first_loss = None
        for _ in range(60):
            optimizer.zero_grad()
            loss = F.cross_entropy(forward(tokens), labels)
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            optimizer.step()
        accuracy = (forward(tokens).data.argmax(axis=1) == labels).mean()
        assert loss.item() < first_loss
        assert accuracy > 0.75
