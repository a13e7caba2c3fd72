"""Experiment configuration: a single dataclass describing one FL experiment.

The same configuration object drives unit-test sized smoke runs, the
scaled-down benchmark harness and paper-scale experiments; only the size
knobs change (see :mod:`repro.experiments.presets`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one attack-vs-defense experiment.

    Attributes mirror Sec. IV-A of the paper; every field has a sensible
    default so that presets only override what they need.
    """

    # Dataset ---------------------------------------------------------------
    dataset: str = "fashion-mnist"
    train_size: int = 600
    test_size: int = 200
    image_size: Optional[int] = None
    dataset_seed: int = 0

    # Model -----------------------------------------------------------------
    architecture: Optional[str] = None
    """Classifier architecture; ``None`` picks the paper's default for the dataset."""

    # Federation ------------------------------------------------------------
    num_clients: int = 100
    clients_per_round: int = 10
    num_rounds: int = 20
    malicious_fraction: float = 0.2
    beta: Optional[float] = 0.5
    """Dirichlet heterogeneity; ``None`` means i.i.d. data."""

    # Local training --------------------------------------------------------
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.0

    # Attack ----------------------------------------------------------------
    attack: Optional[str] = None
    attack_kwargs: Dict[str, Any] = field(default_factory=dict)

    # DFA-specific hyper-parameters (ignored by non-DFA attacks) -------------
    num_synthetic: int = 50
    synthesis_epochs: int = 5
    synthesis_lr: float = 0.01
    train_synthesizer: bool = True
    use_regularization: bool = True
    regularization_weight: float = 1.0

    # Defense ---------------------------------------------------------------
    defense: str = "fedavg"
    defense_kwargs: Dict[str, Any] = field(default_factory=dict)
    assumed_malicious_fraction: Optional[float] = None
    reference_fraction: float = 0.5

    # Reproducibility -------------------------------------------------------
    seed: int = 0

    # Execution plane (not science) -----------------------------------------
    dispatch: Optional[str] = None
    """Dispatch-policy spec string (``"serial"``, ``"process:4"``) parsed by
    :meth:`repro.fl.dispatch_policy.DispatchPolicy.coerce`.  Pure execution
    mechanics: it changes how work is scheduled, never the result, and is
    therefore excluded from :meth:`to_dict` (so result caches and grid
    config hashes are unaffected by it)."""

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.train_size < self.num_clients:
            raise ValueError("train_size must be at least num_clients (one sample per client)")
        if not 0.0 <= self.malicious_fraction < 1.0:
            raise ValueError("malicious_fraction must be in [0, 1)")
        if self.beta is not None and self.beta <= 0:
            raise ValueError("beta must be positive or None (i.i.d.)")
        if self.num_rounds < 1:
            raise ValueError("num_rounds must be at least 1")

    # ------------------------------------------------------------------
    def with_overrides(self, **overrides: Any) -> "ExperimentConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **overrides)

    def clean_variant(self) -> "ExperimentConfig":
        """The matching no-attack / no-defense configuration (for ``acc``)."""
        return self.with_overrides(
            attack=None,
            attack_kwargs={},
            defense="fedavg",
            defense_kwargs={},
            malicious_fraction=0.0,
        )

    def dataset_key(self) -> Tuple:
        """The fields that determine the generated dataset, and nothing else.

        The single source of truth for "same dataset": grid-level dataset
        sharing (:mod:`repro.experiments.dispatch`) publishes one store per
        distinct key, and :meth:`baseline_key` builds on it.  Any new
        config field that changes what ``load_dataset`` produces must be
        added here.
        """
        return (
            self.dataset,
            self.train_size,
            self.test_size,
            self.image_size,
            self.dataset_seed,
        )

    def baseline_key(self) -> Tuple:
        """Hashable key identifying the clean baseline this config maps to.

        Two configurations that only differ in attack/defense settings share
        the same clean baseline run, so benchmark sweeps can cache it.
        """
        return self.dataset_key() + (
            self.architecture,
            self.num_clients,
            self.clients_per_round,
            self.num_rounds,
            self.beta,
            self.local_epochs,
            self.batch_size,
            self.learning_rate,
            self.momentum,
            self.seed,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dictionary form (useful for logging / serialization).

        Excludes ``dispatch``: it is execution mechanics, not part of the
        experiment's identity, so cache keys and stored configs stay stable
        across machines with different dispatch settings.
        """
        data = asdict(self)
        data.pop("dispatch", None)
        return data
