"""Tests for REFD: balance value, confidence value, D-score and update filtering."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.defenses.adaptive_refd import AdaptiveRefd
from repro.defenses.refd import (
    Refd,
    balance_value,
    balance_values,
    confidence_value,
    confidence_values,
    d_score,
    d_scores,
    evaluate_update,
    max_balance_value,
)
from repro.fl.dispatch_policy import DispatchPolicy
from repro.fl.training import train_local_model
from repro.fl.types import DefenseContext, LocalTrainingConfig, ModelUpdate
from repro.nn.serialization import get_flat_params, set_flat_params


class TestScoreComponents:
    def test_balance_value_uniform_counts(self):
        # Perfectly balanced predictions => zero std => the supremum of the
        # finite balance values, sqrt(C / 2) — NOT the old sentinel of 1.0,
        # which ranked perfect balance below mildly imbalanced histograms.
        assert balance_value(np.array([10, 10, 10, 10])) == max_balance_value(4)
        assert max_balance_value(4) == pytest.approx(np.sqrt(2.0))

    def test_balanced_histogram_never_scores_below_imbalanced(self):
        # Regression (Eq. 6 inversion): every integer histogram that is not
        # perfectly balanced deviates by at least (+1, -1, 0, ...), so its
        # balance value is at most sqrt(C / 2).  The perfectly balanced
        # histogram must rank at least as high as every one of them — the
        # old sentinel of 1.0 ranked it below any histogram with std < 1.
        rng = np.random.default_rng(0)
        for num_classes in (2, 4, 10):
            balanced = balance_value(np.full(num_classes, 10))
            # The nearly-balanced worst case the bound is tight against ...
            nearly = np.full(num_classes, 10)
            nearly[0] += 1
            nearly[1] -= 1
            assert balanced >= balance_value(nearly)
            # ... and a fuzzed batch of imbalanced histograms.
            for _ in range(50):
                counts = rng.multinomial(10 * num_classes, rng.dirichlet(np.ones(num_classes)))
                if counts.std() == 0.0:
                    continue
                assert balanced >= balance_value(counts)

    def test_balanced_update_d_score_not_below_imbalanced(self):
        # The inversion flipped *D-scores* too: at equal confidence, a
        # perfectly class-balanced update must never be out-scored by a
        # biased one (that is what Eq. 8 feeds on).
        confidence = 0.9
        balanced_score = d_score(balance_value(np.array([5, 5, 5, 5])), confidence)
        nearly_score = d_score(balance_value(np.array([6, 4, 5, 5])), confidence)
        assert balanced_score >= nearly_score

    def test_balance_value_decreases_with_bias(self):
        balanced = balance_value(np.array([10, 10, 10, 10]))
        biased = balance_value(np.array([37, 1, 1, 1]))
        assert biased < balanced

    def test_balance_value_is_inverse_std(self):
        counts = np.array([4.0, 8.0, 12.0])
        assert balance_value(counts) == pytest.approx(1.0 / counts.std())

    def test_confidence_value_range(self):
        probabilities = np.array([[0.9, 0.05, 0.05], [0.4, 0.35, 0.25]])
        value = confidence_value(probabilities)
        assert value == pytest.approx((0.9 + 0.4) / 2)

    def test_confidence_value_rejects_1d(self):
        with pytest.raises(ValueError):
            confidence_value(np.array([0.5, 0.5]))

    def test_d_score_harmonic_mean_at_alpha_one(self):
        assert d_score(1.0, 1.0) == pytest.approx(1.0)
        assert d_score(0.5, 1.0) == pytest.approx(2 * 0.5 * 1.0 / 1.5)

    def test_d_score_decreases_with_either_component(self):
        base = d_score(0.8, 0.8)
        assert d_score(0.4, 0.8) < base
        assert d_score(0.8, 0.4) < base

    def test_d_score_zero_denominator(self):
        assert d_score(0.0, 0.0) == 0.0

    def test_d_score_alpha_weighting(self):
        # As in the F-beta score, a large alpha shifts the weight towards the
        # second component (the confidence value V in Eq. 8).
        high_confidence = d_score(0.1, 0.9, alpha=4.0)
        low_confidence = d_score(0.9, 0.1, alpha=4.0)
        assert high_confidence > low_confidence


class TestVectorizedScoreHelpers:
    """The batched helpers must agree exactly with their scalar counterparts."""

    def test_balance_values_match_scalar(self):
        counts = np.array([[10, 10, 10], [37, 1, 1], [0, 0, 0], [4, 8, 12]])
        batched = balance_values(counts)
        for row, expected in zip(counts, batched):
            assert balance_value(row) == expected

    def test_confidence_values_match_scalar(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(5), size=(3, 7))  # (updates, samples, classes)
        batched = confidence_values(probs.max(axis=2))
        for matrix, expected in zip(probs, batched):
            assert confidence_value(matrix) == expected

    def test_d_scores_match_scalar(self):
        balances = np.array([1.0, 0.5, 0.0, 0.9])
        confidences = np.array([1.0, 1.0, 0.0, 0.1])
        for alpha in (0.5, 1.0, 4.0):
            batched = d_scores(balances, confidences, alpha)
            for b, c, expected in zip(balances, confidences, batched):
                assert d_score(b, c, alpha) == expected


class TestBatchedScoring:
    def _updates(self, tiny_task, mlp_factory, count=4):
        rng = np.random.default_rng(3)
        params = get_flat_params(mlp_factory())
        return [
            ModelUpdate(
                client_id=i,
                parameters=params + 0.2 * rng.standard_normal(params.shape).astype(np.float32),
                num_samples=5,
            )
            for i in range(count)
        ]

    def _context(self, tiny_task, mlp_factory, dispatch=None, reference_ref=None):
        return DefenseContext(
            round_number=0,
            global_params=get_flat_params(mlp_factory()),
            expected_num_malicious=1,
            rng=np.random.default_rng(0),
            model_factory=mlp_factory,
            reference_dataset=tiny_task.test,
            reference_ref=reference_ref,
            dispatch=dispatch,
        )

    def test_batched_scores_match_per_update_scoring(self, tiny_task, mlp_factory):
        defense = Refd(num_rejected=1)
        context = self._context(tiny_task, mlp_factory)
        updates = self._updates(tiny_task, mlp_factory)
        images, _ = tiny_task.test.arrays()
        batched = defense.score_updates(updates, images, context)
        for update, report in zip(updates, batched):
            single = defense.score_update(update, images, context)
            assert single.client_id == report.client_id
            assert single.balance == report.balance
            assert single.confidence == report.confidence
            assert single.score == report.score

    @pytest.mark.parametrize("defense_cls", [Refd, AdaptiveRefd])
    def test_identical_vectors_are_evaluated_once(
        self, defense_cls, tiny_task, mlp_factory, monkeypatch
    ):
        """Sybil copies share one evaluation and get the original's report."""
        import repro.fl.training as training

        a, b = self._updates(tiny_task, mlp_factory, count=2)
        b_copy = ModelUpdate(client_id=2, parameters=b.parameters.copy(), num_samples=5)
        images, _ = tiny_task.test.arrays()
        context = self._context(tiny_task, mlp_factory)
        defense = defense_cls(num_rejected=1)
        expected = defense.score_updates([a, b], images, context)
        calls = []
        predict_proba = training.predict_proba

        def counting_predict_proba(*args, **kwargs):
            calls.append(None)
            return predict_proba(*args, **kwargs)

        monkeypatch.setattr(training, "predict_proba", counting_predict_proba)
        reports = defense.score_updates([a, b, b_copy], images, context)
        assert len(calls) == 2
        assert [r.client_id for r in reports] == [0, 1, 2]
        bits = [
            (r.balance.hex(), r.confidence.hex(), r.score.hex())
            for r in expected + [expected[1]]
        ]
        assert [(r.balance.hex(), r.confidence.hex(), r.score.hex()) for r in reports] == bits

    def test_score_updates_empty_list(self, tiny_task, mlp_factory):
        defense = Refd(num_rejected=1)
        images, _ = tiny_task.test.arrays()
        assert defense.score_updates([], images, self._context(tiny_task, mlp_factory)) == []

    def test_evaluate_update_pickles_by_name(self):
        """Process workers receive the work function by qualified name."""
        assert pickle.loads(pickle.dumps(evaluate_update)) is evaluate_update

    def test_evaluate_update_matches_fused_loop(self, tiny_task, mlp_factory):
        defense = Refd(num_rejected=1)
        context = self._context(tiny_task, mlp_factory)
        updates = self._updates(tiny_task, mlp_factory)
        images, _ = tiny_task.test.arrays()
        predicted, max_probs, num_classes = defense._evaluate_batched(updates, images, context)
        for index, update in enumerate(updates):
            row_pred, row_max, row_classes = evaluate_update(
                (mlp_factory, update.parameters, images)
            )
            assert row_classes == num_classes
            np.testing.assert_array_equal(row_pred, predicted[index])
            np.testing.assert_array_equal(row_max.astype(np.float64), max_probs[index])

    def test_process_executor_fanout_matches_serial(self, tiny_task):
        from repro.fl.executor import ShardRef, SharedArrayStore
        from repro.models import ClassifierFactory

        factory = ClassifierFactory(
            architecture="mlp", in_channels=1, image_size=12, num_classes=10, seed=0
        )
        defense = Refd(num_rejected=1)
        updates = self._updates(tiny_task, factory)
        images, labels = tiny_task.test.arrays()
        serial = defense.score_updates(updates, images, self._context(tiny_task, factory))
        with SharedArrayStore({"reference/images": images, "reference/labels": labels}) as store:
            reference_ref = ShardRef(
                images=store.refs["reference/images"],
                labels=store.refs["reference/labels"],
            )
            with DispatchPolicy("process", workers=2) as policy:
                process = defense.score_updates(
                    updates,
                    images,
                    self._context(
                        tiny_task, factory, dispatch=policy, reference_ref=reference_ref
                    ),
                )
                assert policy.counter_snapshot()["fanout_calls"] == len(updates)
        assert [(r.balance, r.confidence, r.score) for r in serial] == [
            (r.balance, r.confidence, r.score) for r in process
        ]

    def test_process_executor_without_reference_ref_stays_serial(self, tiny_task):
        """A process pool is skipped when the reference images cannot be
        passed by shared-memory reference — inlining them into every
        payload would re-ship the tensor num_updates times a round."""
        from repro.models import ClassifierFactory

        factory = ClassifierFactory(
            architecture="mlp", in_channels=1, image_size=12, num_classes=10, seed=0
        )
        defense = Refd(num_rejected=1)
        updates = self._updates(tiny_task, factory)
        images, _ = tiny_task.test.arrays()
        serial = defense.score_updates(updates, images, self._context(tiny_task, factory))
        with DispatchPolicy("process", workers=2) as policy:
            fused = defense.score_updates(
                updates, images, self._context(tiny_task, factory, dispatch=policy)
            )
            assert policy.counter_snapshot()["fanout_calls"] == 0
            assert policy._pool is None  # declined before building a pool
        assert [(r.balance, r.confidence, r.score) for r in serial] == [
            (r.balance, r.confidence, r.score) for r in fused
        ]


class TestRefdValidation:
    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            Refd(num_rejected=-1)
        with pytest.raises(ValueError):
            Refd(alpha=0.0)

    def test_requires_reference_dataset(self, tiny_task, mlp_factory):
        defense = Refd(num_rejected=1)
        params = get_flat_params(mlp_factory())
        updates = [ModelUpdate(client_id=0, parameters=params, num_samples=5)]
        context = DefenseContext(
            round_number=0,
            global_params=params,
            expected_num_malicious=1,
            rng=np.random.default_rng(0),
            model_factory=mlp_factory,
            reference_dataset=None,
        )
        with pytest.raises(ValueError):
            defense.aggregate(updates, context)

    def test_requires_model_factory(self, tiny_task, mlp_factory):
        defense = Refd(num_rejected=1)
        params = get_flat_params(mlp_factory())
        updates = [ModelUpdate(client_id=0, parameters=params, num_samples=5)]
        context = DefenseContext(
            round_number=0,
            global_params=params,
            expected_num_malicious=1,
            rng=np.random.default_rng(0),
            model_factory=None,
            reference_dataset=tiny_task.test,
        )
        with pytest.raises(ValueError):
            defense.aggregate(updates, context)


class TestRefdFiltering:
    def _trained_update(self, tiny_task, mlp_factory, client_id: int, epochs: int = 10):
        model = mlp_factory()
        config = LocalTrainingConfig(local_epochs=epochs, batch_size=32, learning_rate=0.2)
        train_local_model(model, tiny_task.train, config, np.random.default_rng(client_id))
        return ModelUpdate(
            client_id=client_id, parameters=get_flat_params(model), num_samples=40
        )

    def _biased_update(self, tiny_task, mlp_factory, client_id: int, target: int = 0):
        """A model trained to always predict one class (the DFA-G failure mode)."""
        model = mlp_factory()
        images, _ = tiny_task.train.arrays()
        labels = np.full(len(images), target, dtype=np.int64)
        config = LocalTrainingConfig(local_epochs=10, batch_size=32, learning_rate=0.3)
        from repro.fl.training import train_on_arrays

        train_on_arrays(model, images, labels, config, np.random.default_rng(client_id))
        return ModelUpdate(
            client_id=client_id,
            parameters=get_flat_params(model),
            num_samples=40,
            is_malicious=True,
        )

    def _context(self, tiny_task, mlp_factory):
        return DefenseContext(
            round_number=0,
            global_params=get_flat_params(mlp_factory()),
            expected_num_malicious=1,
            rng=np.random.default_rng(0),
            model_factory=mlp_factory,
            reference_dataset=tiny_task.test,
        )

    def test_biased_update_rejected(self, tiny_task, mlp_factory):
        benign = [self._trained_update(tiny_task, mlp_factory, i) for i in range(3)]
        malicious = self._biased_update(tiny_task, mlp_factory, 99)
        defense = Refd(num_rejected=1)
        result = defense.aggregate(benign + [malicious], self._context(tiny_task, mlp_factory))
        assert 99 not in result.accepted_client_ids
        assert len(result.accepted_client_ids) == 3

    def test_reports_cover_all_updates(self, tiny_task, mlp_factory):
        benign = [self._trained_update(tiny_task, mlp_factory, i) for i in range(2)]
        malicious = self._biased_update(tiny_task, mlp_factory, 50)
        defense = Refd(num_rejected=1)
        defense.aggregate(benign + [malicious], self._context(tiny_task, mlp_factory))
        assert len(defense.last_reports) == 3
        scores = {report.client_id: report.score for report in defense.last_reports}
        assert scores[50] == min(scores.values())

    def test_biased_update_has_lower_balance(self, tiny_task, mlp_factory):
        defense = Refd(num_rejected=1)
        context = self._context(tiny_task, mlp_factory)
        images, _ = tiny_task.test.arrays()
        benign_report = defense.score_update(
            self._trained_update(tiny_task, mlp_factory, 0), images, context
        )
        biased_report = defense.score_update(
            self._biased_update(tiny_task, mlp_factory, 1), images, context
        )
        assert biased_report.balance < benign_report.balance

    def test_untrained_update_has_low_confidence(self, tiny_task, mlp_factory):
        defense = Refd(num_rejected=1)
        context = self._context(tiny_task, mlp_factory)
        images, _ = tiny_task.test.arrays()
        untrained = ModelUpdate(
            client_id=7, parameters=get_flat_params(mlp_factory()), num_samples=10
        )
        trained = self._trained_update(tiny_task, mlp_factory, 0, epochs=15)
        untrained_report = defense.score_update(untrained, images, context)
        trained_report = defense.score_update(trained, images, context)
        assert untrained_report.confidence < trained_report.confidence

    def test_num_rejected_caps_at_updates_minus_one(self, tiny_task, mlp_factory):
        benign = [self._trained_update(tiny_task, mlp_factory, i) for i in range(2)]
        defense = Refd(num_rejected=10)
        result = defense.aggregate(benign, self._context(tiny_task, mlp_factory))
        assert len(result.accepted_client_ids) == 1

    def test_max_reference_samples_truncates(self, tiny_task, mlp_factory):
        defense = Refd(num_rejected=1, max_reference_samples=20)
        context = self._context(tiny_task, mlp_factory)
        images, _ = defense._reference_arrays(context)
        assert len(images) == 20
