"""Shared datatypes of the federated-learning simulation.

These dataclasses form the contract between the simulation loop
(:mod:`repro.fl.simulation`), the attacks (:mod:`repro.attacks`) and the
defenses (:mod:`repro.defenses`):

* clients produce :class:`ModelUpdate` objects (full local model parameter
  vectors plus metadata);
* attacks receive an :class:`AttackRoundContext` describing exactly what the
  threat model allows them to know;
* defenses receive a :class:`DefenseContext` and return an
  :class:`AggregationResult`;
* the simulation records one :class:`RoundRecord` per round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .dispatch_policy import DispatchPolicy

__all__ = [
    "ModelUpdate",
    "AttackRoundContext",
    "DefenseContext",
    "AggregationResult",
    "RoundRecord",
    "LocalTrainingConfig",
]


@dataclass
class LocalTrainingConfig:
    """Hyper-parameters of client-side local training.

    ``trace`` selects the autograd execution mode: ``"replay"`` records
    each ``(model, input-shape, dtype)`` signature once and replays the
    buffer-planned tape (bit-identical to eager; falls back per signature
    when a model is untraceable), ``"eager"`` forces the per-op closure
    engine, and ``"auto"`` lets the simulation pick replay when a client's
    local training takes two or more optimizer steps (recording cannot
    amortise over one) and eager otherwise.  Pin an engine by setting
    ``"replay"`` or ``"eager"`` here.
    """

    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    trace: str = "auto"

    def __post_init__(self) -> None:
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.trace not in ("auto", "replay", "eager"):
            raise ValueError("trace must be one of 'auto', 'replay', 'eager'")


@dataclass
class ModelUpdate:
    """A local model submitted by one client for one round.

    ``parameters`` is the flat vector of the *entire* local model after local
    training (not a delta), matching the FedAvg formulation in Eq. (2) of the
    paper.
    """

    client_id: int
    parameters: np.ndarray
    num_samples: int
    is_malicious: bool = False

    def __post_init__(self) -> None:
        # Keep the native floating dtype: the whole pipeline ships float32
        # flat buffers, and silently up-casting every update to float64 would
        # double the bytes of every task, cache entry and defense matrix.
        parameters = np.asarray(self.parameters)
        if not np.issubdtype(parameters.dtype, np.floating):
            parameters = parameters.astype(np.float64)
        self.parameters = parameters.ravel()
        if self.num_samples <= 0:
            raise ValueError("num_samples must be positive")


@dataclass
class AttackRoundContext:
    """Everything an attack may use when crafting malicious updates.

    The fields encode the knowledge assumptions of Table I in the paper:
    data-free attacks (DFA) only use ``global_params``,
    ``previous_global_params`` and task metadata, whereas the baselines may
    additionally read ``benign_updates`` (LIE, Fang, Min-Max) or
    ``attacker_datasets`` (the real-data comparator of Fig. 8).
    """

    round_number: int
    global_params: np.ndarray
    previous_global_params: Optional[np.ndarray]
    model_factory: Callable[[], "object"]
    num_classes: int
    image_shape: tuple
    selected_malicious_ids: Sequence[int]
    training_config: LocalTrainingConfig
    benign_num_samples: int
    rng: np.random.Generator
    benign_updates: Optional[List[ModelUpdate]] = None
    attacker_datasets: Optional[Dict[int, "object"]] = None


@dataclass
class DefenseContext:
    """Server-side information available to a defense when aggregating.

    ``dispatch`` is the simulation's
    :class:`~repro.fl.dispatch_policy.DispatchPolicy` (``None`` runs
    everything inline).  REFD hands its per-update D-score inference to
    :meth:`~repro.fl.dispatch_policy.DispatchPolicy.map_fn`, which runs it
    on the policy's pool or declines so REFD runs its fused serial loop.
    The Krum/Bulyan/FoolsGold distance plane
    (:mod:`repro.defenses.distances`) always runs inline.

    ``reference_ref`` is the shared-memory publication of the reference
    dataset's ``(images, labels)`` arrays (a
    :class:`~repro.fl.executor.ShardRef`), available when the simulation
    runs a shared-memory process policy: fan-out payloads
    then reference the segment instead of pickling the images per update.
    """

    round_number: int
    global_params: np.ndarray
    expected_num_malicious: int
    rng: np.random.Generator
    model_factory: Optional[Callable[[], "object"]] = None
    reference_dataset: Optional["object"] = None
    reference_ref: Optional["object"] = None
    dispatch: Optional["DispatchPolicy"] = None


@dataclass
class AggregationResult:
    """Output of a defense: the new global parameters and which updates it used.

    ``accepted_client_ids`` is ``None`` for purely statistical defenses
    (Median, Trimmed mean) that do not select whole updates — the paper's
    DPR metric is undefined for those.
    """

    new_params: np.ndarray
    accepted_client_ids: Optional[List[int]] = None
    scores: Optional[Dict[int, float]] = None


@dataclass
class RoundRecord:
    """Per-round bookkeeping used to compute the paper's metrics."""

    round_number: int
    selected_client_ids: List[int]
    selected_malicious_ids: List[int]
    accepted_client_ids: Optional[List[int]]
    accuracy: float
    test_loss: float
    num_malicious_passed: Optional[int] = None
    attack_metadata: Dict[str, float] = field(default_factory=dict)
    cut_client_ids: List[int] = field(default_factory=list)
    """Benign clients whose tasks were cut at the round deadline and dropped
    from aggregation after the retry budget (empty on fault-free rounds).
    Recorded so quorum aggregation stays explicit and reproducible."""

    @property
    def num_malicious_selected(self) -> int:
        """Number of attacker-controlled clients sampled in this round."""
        return len(self.selected_malicious_ids)

    def to_dict(self) -> Dict:
        """JSON-ready payload (cache artifacts, checkpoints, ``--output``)."""
        return {
            "round_number": self.round_number,
            "selected_client_ids": list(self.selected_client_ids),
            "selected_malicious_ids": list(self.selected_malicious_ids),
            "accepted_client_ids": (
                None
                if self.accepted_client_ids is None
                else list(self.accepted_client_ids)
            ),
            "accuracy": self.accuracy,
            "test_loss": self.test_loss,
            "num_malicious_passed": self.num_malicious_passed,
            "attack_metadata": dict(self.attack_metadata),
            "cut_client_ids": list(self.cut_client_ids),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RoundRecord":
        accepted = payload["accepted_client_ids"]
        return cls(
            round_number=int(payload["round_number"]),
            selected_client_ids=list(payload["selected_client_ids"]),
            selected_malicious_ids=list(payload["selected_malicious_ids"]),
            accepted_client_ids=None if accepted is None else list(accepted),
            accuracy=float(payload["accuracy"]),
            test_loss=float(payload["test_loss"]),
            num_malicious_passed=payload.get("num_malicious_passed"),
            attack_metadata=dict(payload.get("attack_metadata", {})),
            cut_client_ids=list(payload.get("cut_client_ids", [])),
        )
