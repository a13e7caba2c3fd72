"""Tests for the extension features beyond the paper's core evaluation.

Covers the norm-clipping defense, the adaptive-α REFD variant, the hybrid
synthetic+real DFA attack (both listed as future work in the paper's
conclusion), result serialization and the CLI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.attacks import DfaHybrid, DfaHyperParameters, build_attack
from repro.defenses import AdaptiveRefd, NormClipping, build_defense
from repro.experiments import (
    ExperimentRunner,
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
    smoke_scale,
    write_summary_csv,
)
from repro.fl.types import AttackRoundContext, DefenseContext, LocalTrainingConfig, ModelUpdate
from repro.models import MLP, SmallCNN
from repro.nn.serialization import get_flat_params
from repro import cli


# ----------------------------------------------------------------------
# Norm clipping defense
# ----------------------------------------------------------------------
class TestNormClipping:
    def _context(self, dim: int = 4) -> DefenseContext:
        return DefenseContext(
            round_number=0,
            global_params=np.zeros(dim),
            expected_num_malicious=1,
            rng=np.random.default_rng(0),
        )

    def test_large_update_is_scaled_down(self):
        updates = [
            ModelUpdate(client_id=0, parameters=np.full(4, 0.1), num_samples=1),
            ModelUpdate(client_id=1, parameters=np.full(4, 100.0), num_samples=1),
        ]
        result = NormClipping(clip_norm=1.0).aggregate(updates, self._context())
        # The huge update contributes at most a unit-norm delta.
        assert np.linalg.norm(result.new_params) <= 1.0 + 1e-9
        assert result.scores[1] < result.scores[0]

    def test_adaptive_bound_uses_median(self):
        updates = [
            ModelUpdate(client_id=i, parameters=np.full(4, float(v)), num_samples=1)
            for i, v in enumerate([0.1, 0.2, 50.0])
        ]
        defense = NormClipping()
        result = defense.aggregate(updates, self._context())
        assert result.scores[2] < 1.0  # outlier got clipped
        assert result.scores[0] == pytest.approx(1.0)

    def test_small_updates_untouched(self):
        updates = [
            ModelUpdate(client_id=0, parameters=np.full(4, 0.1), num_samples=1),
            ModelUpdate(client_id=1, parameters=np.full(4, 0.2), num_samples=1),
        ]
        result = NormClipping(clip_norm=100.0).aggregate(updates, self._context())
        np.testing.assert_allclose(result.new_params, np.full(4, 0.15))

    def test_invalid_clip_norm(self):
        with pytest.raises(ValueError):
            NormClipping(clip_norm=0.0)

    def test_registered(self):
        assert build_defense("norm-clipping").name == "norm-clipping"


# ----------------------------------------------------------------------
# Adaptive REFD
# ----------------------------------------------------------------------
class TestAdaptiveRefd:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveRefd(adaptation_rate=2.0)
        with pytest.raises(ValueError):
            AdaptiveRefd(min_alpha=0.0)

    def test_alpha_adapts_and_stays_in_range(self, tiny_task, mlp_factory):
        defense = AdaptiveRefd(num_rejected=1, adaptation_rate=0.5)
        params = get_flat_params(mlp_factory())
        rng = np.random.default_rng(0)
        updates = [
            ModelUpdate(client_id=i, parameters=params + 0.1 * rng.standard_normal(params.shape),
                        num_samples=5)
            for i in range(4)
        ]
        context = DefenseContext(
            round_number=0,
            global_params=params,
            expected_num_malicious=1,
            rng=rng,
            model_factory=mlp_factory,
            reference_dataset=tiny_task.test,
        )
        result = defense.aggregate(updates, context)
        assert len(defense.alpha_history) == 1
        assert defense.min_alpha <= defense.alpha <= defense.max_alpha
        assert len(result.accepted_client_ids) == 3

    def test_zero_adaptation_rate_keeps_alpha_one(self, tiny_task, mlp_factory):
        defense = AdaptiveRefd(num_rejected=1, adaptation_rate=0.0)
        params = get_flat_params(mlp_factory())
        updates = [
            ModelUpdate(client_id=i, parameters=params, num_samples=5) for i in range(3)
        ]
        context = DefenseContext(
            round_number=0,
            global_params=params,
            expected_num_malicious=1,
            rng=np.random.default_rng(0),
            model_factory=mlp_factory,
            reference_dataset=tiny_task.test,
        )
        defense.aggregate(updates, context)
        assert defense.alpha == pytest.approx(1.0)

    def test_registered(self):
        assert build_defense("adaptive-refd").name == "adaptive-refd"


# ----------------------------------------------------------------------
# Hybrid DFA attack
# ----------------------------------------------------------------------
class TestDfaHybrid:
    def _context(self, tiny_task, attacker_datasets=None) -> AttackRoundContext:
        def model_factory():
            return SmallCNN(in_channels=1, image_size=12, num_classes=10, width=4,
                            rng=np.random.default_rng(0))

        return AttackRoundContext(
            round_number=1,
            global_params=get_flat_params(model_factory()),
            previous_global_params=None,
            model_factory=model_factory,
            num_classes=10,
            image_shape=(1, 12, 12),
            selected_malicious_ids=[100, 101],
            training_config=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.1),
            benign_num_samples=10,
            rng=np.random.default_rng(0),
            attacker_datasets=attacker_datasets,
        )

    def _hyper(self):
        return DfaHyperParameters(num_synthetic=8, synthesis_epochs=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            DfaHybrid(synthetic_fraction=1.5)
        with pytest.raises(ValueError):
            DfaHybrid(variant="gan")

    def test_requires_attacker_data(self, tiny_task):
        attack = DfaHybrid(hyper=self._hyper(), synthetic_fraction=0.5)
        with pytest.raises(ValueError):
            attack.craft_updates(self._context(tiny_task, attacker_datasets=None))

    @pytest.mark.parametrize("variant", ["dfa-r", "dfa-g"])
    def test_crafts_one_update_per_sybil(self, tiny_task, variant):
        datasets = {100: tiny_task.train.subset(range(20))}
        attack = DfaHybrid(hyper=self._hyper(), synthetic_fraction=0.5, variant=variant, seed=1)
        updates = attack.craft_updates(self._context(tiny_task, datasets))
        assert len(updates) == 2
        assert all(u.is_malicious for u in updates)
        assert updates[0].num_samples == 8

    def test_pure_synthetic_fraction_needs_no_real_samples_drawn(self, tiny_task):
        datasets = {100: tiny_task.train.subset(range(5))}
        attack = DfaHybrid(hyper=self._hyper(), synthetic_fraction=1.0, seed=1)
        updates = attack.craft_updates(self._context(tiny_task, datasets))
        assert updates[0].num_samples == 8

    def test_target_label_shared_with_synthesizer(self, tiny_task):
        datasets = {100: tiny_task.train.subset(range(20))}
        attack = DfaHybrid(hyper=self._hyper(), synthetic_fraction=0.5, seed=2)
        attack.craft_updates(self._context(tiny_task, datasets))
        assert attack.target_label == attack._synthesizer.target_label

    def test_registered_and_runs_through_harness(self):
        attack = build_attack("dfa-hybrid", synthetic_fraction=0.5)
        assert attack.name == "dfa-hybrid"
        runner = ExperimentRunner()
        result = runner.run(smoke_scale("fashion-mnist", attack="dfa-hybrid", defense="mkrum"))
        assert result.asr is not None


# ----------------------------------------------------------------------
# Result serialization
# ----------------------------------------------------------------------
class TestResultIo:
    @pytest.fixture(scope="class")
    def example_results(self):
        runner = ExperimentRunner()
        config = smoke_scale("fashion-mnist", attack="lie", defense="mkrum")
        return [("lie/mkrum", runner.run(config))]

    def test_dict_roundtrip(self, example_results):
        label, result = example_results[0]
        data = result_to_dict(label, result)
        loaded_label, loaded = result_from_dict(json.loads(json.dumps(data)))
        assert loaded_label == label
        assert loaded.max_accuracy == pytest.approx(result.max_accuracy)
        assert loaded.config.attack == "lie"
        assert len(loaded.records) == len(result.records)

    def test_save_and_load_json(self, example_results, tmp_path):
        path = save_results(example_results, tmp_path / "results.json")
        loaded = load_results(path)
        assert len(loaded) == 1
        assert loaded[0][0] == "lie/mkrum"
        assert loaded[0][1].dpr == example_results[0][1].dpr

    def test_write_summary_csv(self, example_results, tmp_path):
        path = write_summary_csv(example_results, tmp_path / "summary.csv")
        content = path.read_text().splitlines()
        assert content[0].startswith("label,dataset,attack,defense")
        assert "lie/mkrum" in content[1]
        assert len(content) == 2


# ----------------------------------------------------------------------
# Command-line interface
# ----------------------------------------------------------------------
class TestCli:
    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        output = capsys.readouterr().out
        assert "dfa-r" in output and "refd" in output and "table2" in output

    def test_run_command_smoke_scale(self, capsys):
        code = cli.main(
            ["run", "--dataset", "fashion-mnist", "--attack", "lie", "--defense", "mkrum",
             "--scale", "smoke"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "attack success rate" in output.lower()

    def test_run_command_iid_flag(self, capsys):
        code = cli.main(
            ["run", "--dataset", "fashion-mnist", "--defense", "median", "--scale", "smoke",
             "--iid", "--rounds", "1"]
        )
        assert code == 0

    def test_scenario_command_with_output(self, capsys, tmp_path, monkeypatch):
        # Restrict the scenario to a tiny subset by monkeypatching its generator.
        def tiny_scenario(scale):
            return [("fashion-mnist/mkrum/lie", scale("fashion-mnist", attack="lie", defense="mkrum"))]

        monkeypatch.setitem(cli._SCENARIOS, "table2", tiny_scenario)
        output_base = tmp_path / "table2"
        code = cli.main(["scenario", "table2", "--scale", "smoke", "--output", str(output_base)])
        assert code == 0
        assert (tmp_path / "table2.json").exists()
        assert (tmp_path / "table2.csv").exists()

    def test_parser_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["run", "--dataset", "imagenet"])

    def test_parser_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["scenario", "table99"])
