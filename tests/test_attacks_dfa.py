"""Tests for the data-free attacks DFA-R and DFA-G and their shared machinery."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.attacks import DfaG, DfaHyperParameters, DfaR, RealDataFlip
from repro.attacks.dfa_common import _ArrayView, train_adversarial_classifier
from repro.attacks.regularization import DistanceRegularizer
from repro.fl.types import AttackRoundContext, LocalTrainingConfig, ModelUpdate
from repro.models import MLP, SmallCNN
from repro.nn.serialization import get_flat_params
from repro.nn.tensor import Tensor


def _model_factory():
    return SmallCNN(in_channels=1, image_size=12, num_classes=10, width=4,
                    rng=np.random.default_rng(0))


def _context(
    num_malicious: int = 2,
    previous: np.ndarray | None = None,
    attacker_datasets=None,
    seed: int = 0,
) -> AttackRoundContext:
    global_params = get_flat_params(_model_factory())
    return AttackRoundContext(
        round_number=1,
        global_params=global_params,
        previous_global_params=previous,
        model_factory=_model_factory,
        num_classes=10,
        image_shape=(1, 12, 12),
        selected_malicious_ids=list(range(100, 100 + num_malicious)),
        training_config=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.1),
        benign_num_samples=10,
        rng=np.random.default_rng(seed),
        benign_updates=None,
        attacker_datasets=attacker_datasets,
    )


def _fast_hyper(**overrides) -> DfaHyperParameters:
    defaults = dict(num_synthetic=8, synthesis_epochs=3, synthesis_lr=0.02)
    defaults.update(overrides)
    return DfaHyperParameters(**defaults)


class TestHyperParameters:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_synthetic": 0},
            {"synthesis_epochs": 0},
            {"synthesis_lr": 0.0},
            {"regularization_weight": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DfaHyperParameters(**kwargs)

    def test_defaults_match_paper(self):
        hyper = DfaHyperParameters()
        assert hyper.num_synthetic == 50
        assert hyper.train_synthesizer and hyper.use_regularization


class TestDistanceRegularizer:
    def test_value_matches_closed_form(self):
        model = _model_factory()
        global_params = get_flat_params(model)
        previous = global_params + 0.1
        regularizer = DistanceRegularizer(model, global_params, previous, weight=1.0)
        # Model parameters equal the global model => first term is ~0.
        value = regularizer(model).item()
        expected = -np.linalg.norm(global_params - previous)
        assert value == pytest.approx(expected, rel=1e-4, abs=1e-4)

    def test_without_previous_round_constant_is_zero(self):
        model = _model_factory()
        global_params = get_flat_params(model)
        regularizer = DistanceRegularizer(model, global_params, None)
        assert regularizer.previous_round_distance == 0.0
        assert regularizer(model).item() == pytest.approx(0.0, abs=1e-3)

    def test_weight_scales_term(self):
        model = _model_factory()
        global_params = get_flat_params(model) + 1.0
        one = DistanceRegularizer(model, global_params, None, weight=1.0)(model).item()
        five = DistanceRegularizer(model, global_params, None, weight=5.0)(model).item()
        assert five == pytest.approx(5 * one, rel=1e-5)

    def test_gradient_flows_to_model_parameters(self):
        model = _model_factory()
        global_params = get_flat_params(model) + 0.5
        regularizer = DistanceRegularizer(model, global_params, None)
        regularizer(model).backward()
        assert all(p.grad is not None for p in model.parameters())


class TestAdversarialClassifierTraining:
    def test_produces_vector_of_right_size_and_losses(self, rng):
        context = _context()
        images = rng.standard_normal((8, 1, 12, 12)).astype(np.float32)
        labels = np.zeros(8, dtype=np.int64)
        vector, losses = train_adversarial_classifier(context, images, labels, _fast_hyper())
        assert vector.shape == context.global_params.shape
        assert len(losses) == context.training_config.local_epochs

    def test_regularization_keeps_update_closer_to_global(self, rng):
        context = _context()
        images = rng.standard_normal((16, 1, 12, 12)).astype(np.float32)
        labels = np.zeros(16, dtype=np.int64)
        with_reg, _ = train_adversarial_classifier(
            context, images, labels, _fast_hyper(use_regularization=True, regularization_weight=5.0)
        )
        without_reg, _ = train_adversarial_classifier(
            context, images, labels, _fast_hyper(use_regularization=False)
        )
        dist_with = np.linalg.norm(with_reg - context.global_params)
        dist_without = np.linalg.norm(without_reg - context.global_params)
        assert dist_with < dist_without

    def test_array_view_adapter(self):
        view = _ArrayView(np.zeros((4, 1, 2, 2)), np.array([0, 1, 0, 1]))
        assert len(view) == 4
        images, labels = view.arrays()
        assert images.shape == (4, 1, 2, 2) and labels.dtype == np.int64


class TestDfaR:
    def test_requires_no_benign_updates_or_data(self):
        assert not DfaR.requires_benign_updates
        assert not DfaR.requires_attacker_data

    def test_synthesize_shapes(self):
        attack = DfaR(hyper=_fast_hyper(), seed=1)
        images = attack.synthesize(_context())
        assert images.shape == (8, 1, 12, 12)
        assert images.dtype == np.float32

    def test_synthesis_loss_decreases(self):
        attack = DfaR(hyper=_fast_hyper(synthesis_epochs=10, synthesis_lr=0.05), seed=1)
        attack.synthesize(_context())
        losses = attack.synthesis_loss_history[0]
        assert losses[-1] < losses[0]

    def test_craft_updates_one_per_sybil(self):
        attack = DfaR(hyper=_fast_hyper(), seed=1)
        updates = attack.craft_updates(_context(num_malicious=3))
        assert len(updates) == 3
        assert all(u.is_malicious for u in updates)
        assert all(u.num_samples == 8 for u in updates)

    def test_target_label_fixed_across_rounds(self):
        attack = DfaR(hyper=_fast_hyper(), seed=2)
        attack.craft_updates(_context())
        first = attack.target_label
        attack.craft_updates(_context(seed=5))
        assert attack.target_label == first

    def test_static_mode_skips_training(self):
        attack = DfaR(hyper=_fast_hyper(train_synthesizer=False), seed=1)
        attack.synthesize(_context())
        # No optimization epochs recorded (all zeros placeholder).
        assert np.allclose(attack.synthesis_loss_history[0], 0.0)

    def test_multiple_filter_groups(self):
        attack = DfaR(hyper=_fast_hyper(num_synthetic=6), num_filter_groups=3, seed=1)
        images = attack.synthesize(_context())
        assert images.shape[0] == 6

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            DfaR(kernel_size=0)
        with pytest.raises(ValueError):
            DfaR(num_filter_groups=0)

    def test_crafted_update_differs_from_global(self):
        attack = DfaR(hyper=_fast_hyper(), seed=1)
        context = _context()
        updates = attack.craft_updates(context)
        assert not np.allclose(updates[0].parameters, context.global_params)


class TestDfaG:
    def test_requires_no_benign_updates_or_data(self):
        assert not DfaG.requires_benign_updates
        assert not DfaG.requires_attacker_data

    def test_generator_is_created_lazily_and_persists(self):
        attack = DfaG(hyper=_fast_hyper(), noise_dim=8, base_width=4, seed=3)
        assert attack.generator is None
        attack.craft_updates(_context())
        generator = attack.generator
        assert generator is not None
        attack.craft_updates(_context(seed=9))
        assert attack.generator is generator

    def test_fixed_noise_reused_across_rounds(self):
        attack = DfaG(hyper=_fast_hyper(), noise_dim=8, base_width=4, seed=3)
        attack.craft_updates(_context())
        noise_first = attack._fixed_noise.copy()
        attack.craft_updates(_context(seed=11))
        np.testing.assert_array_equal(attack._fixed_noise, noise_first)

    def test_generator_objective_increases_cross_entropy(self):
        attack = DfaG(
            hyper=_fast_hyper(synthesis_epochs=10, synthesis_lr=0.05),
            noise_dim=8,
            base_width=4,
            seed=3,
        )
        attack.target_label = 0
        attack.synthesize(_context())
        losses = attack.synthesis_loss_history[0]
        assert losses[-1] > losses[0]

    def test_synthetic_images_match_task_shape(self):
        attack = DfaG(hyper=_fast_hyper(), noise_dim=8, base_width=4, seed=3)
        attack.target_label = 1
        images = attack.synthesize(_context())
        assert images.shape == (8, 1, 12, 12)

    def test_static_mode_records_no_losses(self):
        attack = DfaG(hyper=_fast_hyper(train_synthesizer=False), noise_dim=8, base_width=4, seed=3)
        attack.target_label = 1
        attack.synthesize(_context())
        assert attack.synthesis_loss_history[0] == []

    def test_craft_updates_count_and_flags(self):
        attack = DfaG(hyper=_fast_hyper(), noise_dim=8, base_width=4, seed=3)
        updates = attack.craft_updates(_context(num_malicious=2))
        assert len(updates) == 2
        assert all(u.is_malicious for u in updates)

    def test_invalid_noise_dim(self):
        with pytest.raises(ValueError):
            DfaG(noise_dim=0)

    def test_returned_images_are_the_trained_generator_output(self):
        attack = DfaG(hyper=_fast_hyper(), noise_dim=8, base_width=4, seed=3)
        attack.target_label = 1
        images = attack.synthesize(_context())
        # Built without a graph, with the bits of a recorded forward.
        expected = attack.generator(Tensor(attack._fixed_noise))
        assert expected.requires_grad
        np.testing.assert_array_equal(images, expected.data)

    def test_synthesis_peak_memory(self):
        # Backward frees each node's saved state once it has used it.
        # tracemalloc readings at this geometry: 1.9 MB above the start
        # when the graph lived until the pass ended, 1.2 MB with the
        # release.
        attack = DfaG(
            hyper=_fast_hyper(num_synthetic=16, synthesis_epochs=2),
            noise_dim=16,
            base_width=8,
            seed=3,
        )
        attack.target_label = 1
        context = _context()
        attack._ensure_generator(context)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            attack.synthesize(context)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1_550_000


class TestRealDataFlip:
    def _attacker_datasets(self, tiny_task):
        return {100: tiny_task.train.subset(range(20)), 101: tiny_task.train.subset(range(20, 30))}

    def test_requires_attacker_data(self):
        with pytest.raises(ValueError):
            RealDataFlip(hyper=_fast_hyper()).craft_updates(_context())

    def test_crafts_updates_from_real_data(self, tiny_task):
        attack = RealDataFlip(hyper=_fast_hyper(), seed=5)
        context = _context(attacker_datasets=self._attacker_datasets(tiny_task))
        updates = attack.craft_updates(context)
        assert len(updates) == 2
        assert not np.allclose(updates[0].parameters, context.global_params)

    def test_caps_at_num_synthetic_samples(self, tiny_task):
        attack = RealDataFlip(hyper=_fast_hyper(num_synthetic=5), seed=5)
        context = _context(attacker_datasets=self._attacker_datasets(tiny_task))
        updates = attack.craft_updates(context)
        assert updates[0].num_samples == 5
