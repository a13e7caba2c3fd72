"""Build and run experiments described by :class:`ExperimentConfig`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..attacks import DfaHyperParameters, build_attack
from ..defenses import build_defense
from ..fl.dispatch_policy import DispatchPolicy
from ..fl.simulation import FederatedSimulation, SimulationResult
from ..fl.types import LocalTrainingConfig, RoundRecord
from ..metrics import attack_success_rate, defense_pass_rate, max_accuracy
from ..models import ClassifierFactory, default_architecture_for_dataset
from .config import ExperimentConfig

__all__ = ["ExperimentResult", "ExperimentRunner", "build_simulation", "run_experiment"]

_DFA_ATTACKS = {"dfa-r", "dfa-g", "dfa-hybrid", "real-data"}


@dataclass
class ExperimentResult:
    """Outcome of one experiment plus the paper's derived metrics."""

    config: ExperimentConfig
    records: List[RoundRecord]
    max_accuracy: float
    final_accuracy: float
    dpr: Optional[float]
    baseline_accuracy: Optional[float] = None
    asr: Optional[float] = None
    attack_synthesis_losses: List[List[float]] = field(default_factory=list)
    fault_stats: Dict[str, int] = field(default_factory=dict)
    """Nonzero :class:`~repro.fl.faults.FaultStats` counters of the run
    (empty for fault-free runs, keeping legacy artifacts comparable)."""

    @property
    def accuracies(self) -> List[float]:
        """Per-round global accuracy trace."""
        return [record.accuracy for record in self.records]


def _attack_kwargs_for(config: ExperimentConfig) -> Dict:
    """Assemble constructor kwargs for the configured attack."""
    kwargs = dict(config.attack_kwargs)
    if config.attack and config.attack.lower() in _DFA_ATTACKS and "hyper" not in kwargs:
        kwargs["hyper"] = DfaHyperParameters(
            num_synthetic=config.num_synthetic,
            synthesis_epochs=config.synthesis_epochs,
            synthesis_lr=config.synthesis_lr,
            train_synthesizer=config.train_synthesizer,
            use_regularization=config.use_regularization,
            regularization_weight=config.regularization_weight,
        )
    return kwargs


def build_simulation(
    config: ExperimentConfig,
    task=None,
    policy=None,
    resilience=None,
) -> FederatedSimulation:
    """Construct the simulation (task, model factory, attack, defense) for a config.

    ``policy`` selects the dispatch backend for the simulation's hot paths
    (see :class:`~repro.fl.dispatch_policy.DispatchPolicy`); it accepts a
    policy object, which the caller keeps and closes, or a spec string
    (``"process:2"``), which the simulation parses and closes.  When
    omitted, ``config.dispatch`` (a spec string) is used if set.  The model
    factory is a picklable :class:`~repro.models.ClassifierFactory`, so the
    ``"process"`` backend works out of the box.  ``task`` injects a pre-built
    dataset task for the config — the grid dispatch layer passes the
    grid-level shared publication (read-only views into one per-dataset shm
    segment) so a sweep's cells skip both regeneration and re-publication;
    it must match what ``load_dataset`` would produce for the config's
    dataset fields.  ``resilience`` is an optional
    :class:`~repro.fl.faults.ResilienceConfig` enabling the fault-tolerant
    round loop (retries, round deadline, optional fault injection); like
    ``dispatch``, it never enters the config's cache identity.
    """
    if policy is None and config.dispatch:
        policy = config.dispatch
    if task is None:
        from .dispatch import load_task_for  # local import: dispatch pulls in shm machinery

        task = load_task_for(config)
    architecture = config.architecture or default_architecture_for_dataset(config.dataset)
    model_factory = ClassifierFactory.for_task(task, architecture=architecture, seed=config.seed)

    attack = build_attack(config.attack, **_attack_kwargs_for(config))
    defense = build_defense(config.defense, **config.defense_kwargs)
    training_config = LocalTrainingConfig(
        local_epochs=config.local_epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        momentum=config.momentum,
    )
    return FederatedSimulation(
        task=task,
        model_factory=model_factory,
        num_clients=config.num_clients,
        clients_per_round=config.clients_per_round,
        malicious_fraction=config.malicious_fraction,
        beta=config.beta,
        attack=attack,
        defense=defense,
        training_config=training_config,
        reference_fraction=config.reference_fraction,
        assumed_malicious_fraction=config.assumed_malicious_fraction,
        seed=config.seed,
        policy=policy,
        resilience=resilience,
    )


def run_experiment(
    config: ExperimentConfig,
    baseline_accuracy: Optional[float] = None,
    task=None,
    policy=None,
    resilience=None,
    checkpoint_path=None,
    resume: bool = False,
) -> ExperimentResult:
    """Run one experiment and compute accuracy / ASR / DPR.

    ``baseline_accuracy`` is the clean accuracy ``acc`` used by Eq. 4; when
    omitted, ASR is left as ``None`` (use :class:`ExperimentRunner` to manage
    baselines automatically).  ``policy`` selects the dispatch backend of
    the underlying simulation; ``task`` injects a pre-built dataset (see
    :func:`build_simulation`).  ``resilience`` enables the fault-tolerant
    round loop; ``checkpoint_path`` makes the run checkpoint after every
    round and ``resume`` restores a compatible checkpoint before running.
    """
    with build_simulation(
        config, task=task, policy=policy, resilience=resilience
    ) as simulation:
        result = simulation.run(
            config.num_rounds, checkpoint_path=checkpoint_path, resume=resume
        )
    synthesis_losses: List[List[float]] = []
    if simulation.attack is not None:
        synthesis_losses = list(getattr(simulation.attack, "synthesis_loss_history", []))
    experiment = ExperimentResult(
        config=config,
        records=result.records,
        max_accuracy=result.max_accuracy,
        final_accuracy=result.final_accuracy,
        dpr=defense_pass_rate(result.records),
        baseline_accuracy=baseline_accuracy,
        attack_synthesis_losses=synthesis_losses,
        fault_stats=(
            simulation.fault_stats.to_dict() if simulation.fault_stats.any() else {}
        ),
    )
    if baseline_accuracy is not None and baseline_accuracy > 0:
        experiment.asr = attack_success_rate(baseline_accuracy, experiment.max_accuracy)
    return experiment


class ExperimentRunner:
    """Runs batches of experiments, caching clean baselines per dataset setup.

    Every attacked experiment needs the matching clean accuracy ``acc``
    (no attack, no defense) to compute ASR; since many experiments in a sweep
    share the same dataset/federation settings, the runner caches those
    baseline runs.
    """

    def __init__(
        self,
        policy=None,
        resilience=None,
        checkpoint_dir=None,
        resume: bool = False,
    ) -> None:
        self._baseline_cache: Dict[Tuple, float] = {}
        self._result_cache: Dict[str, ExperimentResult] = {}
        self._policy = policy
        self._resilience = resilience
        self._checkpoint_dir = checkpoint_dir
        self._resume = resume

    def _checkpoint_path(self, config: ExperimentConfig):
        """Content-addressed checkpoint path for one config, if enabled."""
        if self._checkpoint_dir is None:
            return None
        from pathlib import Path

        from .grid import config_hash  # local import: grid depends on this module

        return Path(self._checkpoint_dir) / f"{config_hash(config)}.ckpt.json"

    @staticmethod
    def _config_key(config: ExperimentConfig) -> str:
        return repr(sorted(config.to_dict().items(), key=lambda item: item[0]))

    def baseline_accuracy(self, config: ExperimentConfig) -> float:
        """Clean-run accuracy ``acc`` for the given configuration (cached)."""
        key = config.baseline_key()
        if key not in self._baseline_cache:
            clean = config.clean_variant()
            # Baselines keep the retry/deadline behaviour but never the
            # fault plan: chaos targets the attacked run, and a faulted
            # baseline would silently skew every ASR in the sweep.
            resilience = (
                None if self._resilience is None else self._resilience.without_plan()
            )
            result = run_experiment(clean, policy=self._policy, resilience=resilience)
            self._baseline_cache[key] = result.max_accuracy
        return self._baseline_cache[key]

    def run(self, config: ExperimentConfig, use_cache: bool = True) -> ExperimentResult:
        """Run one experiment with its ASR computed against the cached baseline.

        Identical configurations are only executed once per runner instance;
        benchmark sweeps that share scenarios (e.g. Table II and Fig. 4 reuse
        the same β = 0.5 runs) therefore do not repeat work.
        """
        key = self._config_key(config)
        if use_cache and key in self._result_cache:
            return self._result_cache[key]
        baseline = self.baseline_accuracy(config)
        result = run_experiment(
            config,
            baseline_accuracy=baseline,
            policy=self._policy,
            resilience=self._resilience,
            checkpoint_path=self._checkpoint_path(config),
            resume=self._resume,
        )
        if use_cache:
            self._result_cache[key] = result
        return result

    def run_many(
        self,
        configs: List[ExperimentConfig],
        policy=None,
    ) -> List[ExperimentResult]:
        """Run a list of experiments, optionally across worker processes.

        ``policy`` governs the batch: a ``"process"`` policy with two or
        more workers routes the batch
        through :class:`~repro.experiments.grid.GridRunner` (scenario-level
        parallelism); anything else runs the batch serially through
        :meth:`run`.  Results come back in input order
        and are merged into this runner's in-memory cache afterwards.
        """
        policy = DispatchPolicy.coerce(policy)
        if policy.backend != "process" or policy.workers <= 1:
            return [self.run(config) for config in configs]
        from .grid import GridRunner  # local import: grid depends on this module

        # Configs already run this session come from the in-memory cache;
        # only the rest are dispatched to the pool.
        pending = [
            (f"batch/{index}", config)
            for index, config in enumerate(configs)
            if self._config_key(config) not in self._result_cache
        ]
        executed = {
            label: result for label, result in GridRunner(policy=policy).run(pending)
        }
        results: List[ExperimentResult] = []
        for index, config in enumerate(configs):
            key = self._config_key(config)
            if key not in self._result_cache:
                result = executed[f"batch/{index}"]
                self._result_cache[key] = result
                if result.baseline_accuracy is not None:
                    self._baseline_cache.setdefault(
                        config.baseline_key(), result.baseline_accuracy
                    )
            results.append(self._result_cache[key])
        return results
