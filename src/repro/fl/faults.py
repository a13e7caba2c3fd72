"""Deterministic fault injection and fault-tolerant round execution.

The execution plane built so far (process fan-out, shm data plane,
claim-lease grid sharding) is fast but brittle: a worker
crash mid-round kills the whole simulation and a hung client stalls a round
forever.  This module supplies both halves of the fix:

**Injection** — :class:`FaultPlan` is a seeded, serializable list of
:class:`FaultEvent` coordinates (round × client-or-slot × cell) naming which
fault fires where: worker crashes (hard kill under a process backend, a
raised :class:`~repro.fl.executor.InjectedWorkerCrash` otherwise), task
hangs (stragglers), shm-attach failures, and torn cache artifacts (applied
by the grid runner, see :meth:`FaultPlan.artifact_events`).
:class:`FaultInjector` arms tasks with picklable
:class:`~repro.fl.executor.FaultDirective` payloads, fire-once per
coordinate, so the same plan replays bit-identically under a fixed seed.

**Recovery** — :func:`run_tasks_with_recovery` drives
:meth:`DispatchPolicy.map_detailed
<repro.fl.dispatch_policy.DispatchPolicy.map_detailed>` with a retry budget,
exponential backoff + seeded jitter, a per-attempt round deadline that cuts
stragglers (cut clients are recorded in
:attr:`RoundRecord.cut_client_ids <repro.fl.types.RoundRecord>` so defense
semantics stay explicit), mid-round broken-pool rebuilds with resubmission
of only the lost tasks (bit-identical because every task carries its own
RNG state), and shm-attach failures degrading to inline payloads.
:class:`FaultStats` counts everything that fired and everything that was
recovered.

**Checkpoint/resume** — :func:`save_checkpoint`/:func:`load_checkpoint`
snapshot a :class:`~repro.fl.simulation.FederatedSimulation` at round
granularity (atomically, via :func:`repro.experiments.io.atomic_write_json`)
so a killed runner resumes instead of recomputing; the parameter vectors and
RNG states round-trip exactly through JSON, so a resumed run is
bit-identical to an uninterrupted one.

Determinism contract: fault *injection* is a pure function of the plan (and
the plan's seed, for :meth:`FaultPlan.random`); *recovery* only ever re-runs
pure tasks or drops them, and backoff jitter draws from a dedicated RNG that
feeds nothing else — so wall-clock nondeterminism never reaches the science.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .dispatch_policy import DispatchPolicy
from .executor import (
    ClientTask,
    ClientTaskResult,
    FaultDirective,
    ShmAttachFailure,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
    "ResilienceConfig",
    "RoundExecutionError",
    "run_tasks_with_recovery",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]

#: Task-level fault kinds (executed inside ``run_client_task``) plus the
#: grid-level ``corrupt-artifact`` kind (applied to a cell's cache file).
FAULT_KINDS = ("crash", "hang", "shm", "corrupt-artifact")

_TASK_KINDS = ("crash", "hang", "shm")


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One planned fault at a (round, client-or-slot, cell) coordinate.

    ``client`` addresses a specific client id; ``slot`` addresses the
    *position* in the round's selected cohort (useful when the plan author
    does not know which clients a seed will select).  When both are ``None``
    slot 0 is targeted.  ``cell`` is a substring matched against the grid
    cell label (``None`` matches any cell, including single ``repro run``
    invocations); ``round`` of ``None`` matches every round (first match
    wins because events fire once).  ``seconds`` is the hang duration for
    ``kind="hang"``.
    """

    kind: str
    round: Optional[int] = None
    client: Optional[int] = None
    slot: Optional[int] = None
    seconds: float = 0.0
    cell: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind '{self.kind}'; choose from {FAULT_KINDS}"
            )

    def to_dict(self) -> Dict:
        payload: Dict = {"kind": self.kind}
        if self.round is not None:
            payload["round"] = int(self.round)
        if self.client is not None:
            payload["client"] = int(self.client)
        if self.slot is not None:
            payload["slot"] = int(self.slot)
        if self.seconds:
            payload["seconds"] = float(self.seconds)
        if self.cell is not None:
            payload["cell"] = str(self.cell)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultEvent":
        return cls(
            kind=str(payload["kind"]),
            round=None if payload.get("round") is None else int(payload["round"]),
            client=None if payload.get("client") is None else int(payload["client"]),
            slot=None if payload.get("slot") is None else int(payload["slot"]),
            seconds=float(payload.get("seconds", 0.0)),
            cell=payload.get("cell"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable schedule of fault events.

    The plan is pure data: the same plan (same file, same seed) injects the
    same faults at the same coordinates on every replay, which is what lets
    chaos CI assert bit-identical recovery.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def for_cell(self, label: Optional[str]) -> "FaultPlan":
        """The sub-plan whose events apply to one grid cell label."""
        if label is None:
            return self
        kept = tuple(
            event
            for event in self.events
            if event.cell is None or event.cell in label
        )
        return FaultPlan(events=kept, seed=self.seed)

    def task_events_for_round(self, round_number: int) -> List[FaultEvent]:
        """Task-level events (crash/hang/shm) scheduled for one round."""
        return [
            event
            for event in self.events
            if event.kind in _TASK_KINDS
            and (event.round is None or event.round == round_number)
        ]

    def artifact_events(self) -> List[FaultEvent]:
        """Grid-level ``corrupt-artifact`` events."""
        return [event for event in self.events if event.kind == "corrupt-artifact"]

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict:
        return {"seed": int(self.seed), "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultPlan":
        events = tuple(FaultEvent.from_dict(e) for e in payload.get("events", ()))
        return cls(events=events, seed=int(payload.get("seed", 0)))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    # -- generation ----------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        num_rounds: int,
        num_slots: int,
        rate: float = 0.1,
        kinds: Sequence[str] = _TASK_KINDS,
        hang_seconds: float = 0.5,
    ) -> "FaultPlan":
        """A reproducible random plan: same seed, same events, always.

        Draws one Bernoulli(``rate``) per (round, kind) and a uniform slot
        for each firing event — a convenient way to chaos-test without
        hand-writing coordinates.
        """
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        for round_number in range(num_rounds):
            for kind in kinds:
                if rng.random() >= rate:
                    continue
                slot = int(rng.integers(num_slots))
                events.append(
                    FaultEvent(
                        kind=kind,
                        round=round_number,
                        slot=slot,
                        seconds=hang_seconds if kind == "hang" else 0.0,
                    )
                )
        return cls(events=tuple(events), seed=seed)


# ----------------------------------------------------------------------
# Fault statistics
# ----------------------------------------------------------------------
@dataclass
class FaultStats:
    """Counters for everything the fault plane injected and recovered.

    Surfaced through ``ExperimentResult.fault_stats``, ``GridStats`` and the
    ``--stats-json`` outputs of ``repro run``/``repro grid``.
    """

    crashes_injected: int = 0
    hangs_injected: int = 0
    shm_failures_injected: int = 0
    artifacts_corrupted: int = 0
    artifacts_quarantined: int = 0
    retries: int = 0
    task_failures: int = 0
    tasks_cut: int = 0
    clients_cut: int = 0
    shm_fallbacks: int = 0
    pool_rebuilds: int = 0
    rounds_resumed: int = 0
    checkpoints_written: int = 0

    def note_injected(self, kind: str) -> None:
        if kind == "crash":
            self.crashes_injected += 1
        elif kind == "hang":
            self.hangs_injected += 1
        elif kind == "shm":
            self.shm_failures_injected += 1
        elif kind == "corrupt-artifact":
            self.artifacts_corrupted += 1

    def any(self) -> bool:
        return any(value for value in dataclasses.asdict(self).values())

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def merge(self, counters: Optional[Mapping[str, int]]) -> None:
        """Add another stats mapping (e.g. a worker's) into this one."""
        if not counters:
            return
        for key, value in counters.items():
            if hasattr(self, key):
                setattr(self, key, getattr(self, key) + int(value))


# ----------------------------------------------------------------------
# Resilience configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResilienceConfig:
    """How the round loop retries, cuts, and (optionally) injects faults.

    Picklable, so grid workers receive the per-cell sub-plan alongside the
    cell config.  ``round_deadline`` is a *per-attempt* window in seconds:
    tasks still running when it expires are cut; a cut task is retried while
    the budget lasts and dropped (recorded in ``RoundRecord.cut_client_ids``)
    once it is exhausted.  Erroring tasks that exhaust the budget raise
    :class:`RoundExecutionError` instead — an error is a bug or a real
    fault, a straggler is a scheduling decision.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    jitter: float = 0.25
    round_deadline: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None

    def for_cell(self, label: Optional[str]) -> "ResilienceConfig":
        """This config with the fault plan narrowed to one grid cell."""
        if self.fault_plan is None:
            return self
        return dataclasses.replace(self, fault_plan=self.fault_plan.for_cell(label))

    def without_plan(self) -> "ResilienceConfig":
        """Retry/deadline behaviour only — used for baseline runs."""
        if self.fault_plan is None:
            return self
        return dataclasses.replace(self, fault_plan=None)

    def backoff_delay(self, attempt: int, rng: Optional[np.random.Generator]) -> float:
        """Exponential backoff with jitter for the ``attempt``-th retry."""
        if self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_max, self.backoff_base * (2.0 ** max(0, attempt - 1)))
        if rng is not None and self.jitter > 0:
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay


class RoundExecutionError(RuntimeError):
    """A client task kept failing after the retry budget was exhausted."""

    def __init__(
        self,
        round_number: int,
        client_id: int,
        attempts: int,
        cause: Optional[BaseException] = None,
    ) -> None:
        self.round_number = int(round_number)
        self.client_id = int(client_id)
        self.attempts = int(attempts)
        self.cause = cause
        detail = f": {cause}" if cause is not None else ""
        super().__init__(
            f"client {client_id} failed round {round_number} "
            f"after {attempts} attempt(s){detail}"
        )


# ----------------------------------------------------------------------
# Fault injector
# ----------------------------------------------------------------------
class FaultInjector:
    """Arms client tasks with the plan's directives, fire-once per event.

    One injector lives for one simulation; its fired-set is what makes an
    event a single fault rather than a permanent condition, which in turn is
    what makes recovery *possible* (the retried task runs clean).
    """

    def __init__(self, plan: FaultPlan, stats: Optional[FaultStats] = None) -> None:
        self.plan = plan
        self.stats = stats if stats is not None else FaultStats()
        self._fired: Set[Tuple] = set()

    def arm_tasks(
        self,
        tasks: Sequence[ClientTask],
        round_number: int,
        hard_kill: bool = False,
    ) -> List[ClientTask]:
        """Attach directives for this round's events to the matching tasks.

        ``hard_kill`` selects ``os._exit`` crashes (only safe when tasks run
        in worker *processes*); otherwise crashes raise in-process.
        """
        tasks = list(tasks)
        events = self.plan.task_events_for_round(round_number)
        if not events:
            return tasks
        for event in events:
            key = (event.kind, event.round, event.client, event.slot, event.cell)
            if key in self._fired:
                continue
            index = self._target_index(event, tasks)
            if index is None or tasks[index].fault is not None:
                continue
            self._fired.add(key)
            directive = FaultDirective(
                kind=event.kind,
                seconds=event.seconds,
                hard=hard_kill and event.kind == "crash",
            )
            tasks[index] = dataclasses.replace(tasks[index], fault=directive)
            self.stats.note_injected(event.kind)
        return tasks

    @staticmethod
    def _target_index(
        event: FaultEvent, tasks: Sequence[ClientTask]
    ) -> Optional[int]:
        if event.client is not None:
            for index, task in enumerate(tasks):
                if task.client_id == event.client:
                    return index
            return None
        slot = event.slot if event.slot is not None else 0
        if 0 <= slot < len(tasks):
            return slot
        return None


# ----------------------------------------------------------------------
# Fault-tolerant task execution
# ----------------------------------------------------------------------
def _is_shm_failure(task: ClientTask, error: Optional[BaseException]) -> bool:
    if isinstance(error, ShmAttachFailure):
        return True
    return isinstance(error, OSError) and (
        task.params_ref is not None or task.shard_ref is not None
    )


def _inline_task(task: ClientTask) -> ClientTask:
    """Degrade a task to inline payloads (shm attach failed or is failing)."""
    images, labels = task.resolve_arrays()
    params = task.resolve_global_params()
    return dataclasses.replace(
        task,
        global_params=np.array(params, copy=True),
        params_ref=None,
        images=np.array(images, copy=True),
        labels=np.array(labels, copy=True),
        shard_ref=None,
    )


def run_tasks_with_recovery(
    policy: DispatchPolicy,
    tasks: Sequence[ClientTask],
    round_number: int,
    resilience: ResilienceConfig,
    stats: FaultStats,
    rng: Optional[np.random.Generator] = None,
    injector: Optional[FaultInjector] = None,
) -> Tuple[List[ClientTaskResult], List[int]]:
    """Run one round's tasks with retries, deadlines, and fault injection.

    Returns ``(results, cut_client_ids)``.  ``results`` preserves task order
    for the surviving clients; ``cut_client_ids`` names the clients whose
    tasks were still stragglers after the retry budget (their RNG streams do
    not advance, so the drop itself is deterministic given deterministic
    timing).  Erroring tasks that exhaust the budget raise
    :class:`RoundExecutionError`.
    """
    tasks = list(tasks)
    if not tasks:
        return [], []
    if injector is not None:
        hard = policy.backend == "process"
        tasks = injector.arm_tasks(tasks, round_number, hard_kill=hard)
    results: Dict[int, ClientTaskResult] = {}
    dropped: Dict[int, int] = {}
    attempts = [0] * len(tasks)
    pending = list(range(len(tasks)))
    batch = 0
    while pending:
        deadline_at = None
        if resilience.round_deadline is not None:
            deadline_at = time.monotonic() + float(resilience.round_deadline)
        outcomes = policy.map_detailed(
            [tasks[i] for i in pending], deadline_at=deadline_at
        )
        retry: List[int] = []
        for outcome in outcomes:
            i = pending[outcome.index]
            if outcome.result is not None:
                results[i] = outcome.result
                continue
            attempts[i] += 1
            task = tasks[i]
            if task.fault is not None:
                # The injected fault fired; the retry runs the clean task.
                tasks[i] = task = dataclasses.replace(task, fault=None)
            if outcome.cut:
                stats.tasks_cut += 1
            else:
                stats.task_failures += 1
                if _is_shm_failure(task, outcome.error):
                    stats.shm_fallbacks += 1
                    tasks[i] = task = _inline_task(task)
            if attempts[i] > resilience.max_retries:
                if outcome.cut:
                    dropped[i] = task.client_id
                    stats.clients_cut += 1
                else:
                    raise RoundExecutionError(
                        round_number, task.client_id, attempts[i], outcome.error
                    )
            else:
                stats.retries += 1
                retry.append(i)
        pending = retry
        if pending:
            batch += 1
            delay = resilience.backoff_delay(batch, rng)
            if delay > 0:
                time.sleep(delay)
    if policy.pool_rebuilds > stats.pool_rebuilds:
        stats.pool_rebuilds = policy.pool_rebuilds
    ordered = [results[i] for i in sorted(results)]
    cut_ids = sorted(dropped.values())
    return ordered, cut_ids


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
CHECKPOINT_VERSION = 1


def save_checkpoint(path, simulation, records) -> None:
    """Atomically write a round-granular simulation checkpoint.

    The payload is the simulation's :meth:`~repro.fl.simulation.
    FederatedSimulation.state_dict` (RNG states and parameter vectors, all
    of which round-trip exactly through JSON) plus the round records so far.
    """
    from ..experiments.io import atomic_write_json

    payload = simulation.state_dict()
    payload["version"] = CHECKPOINT_VERSION
    payload["records"] = [record.to_dict() for record in records]
    atomic_write_json(Path(path), payload)


def load_checkpoint(path) -> Optional[Dict]:
    """Read a checkpoint; ``None`` on missing/corrupt/incompatible files.

    Corrupt checkpoints are quarantined by :func:`repro.experiments.io.
    read_json` exactly like torn cache artifacts — a bad checkpoint means
    "start from round 0", never a crash.
    """
    from ..experiments.io import read_json

    payload = read_json(Path(path))
    if not isinstance(payload, dict):
        return None
    if payload.get("version") != CHECKPOINT_VERSION:
        return None
    return payload
