"""One fixed dispatch backend for every fan-out site of a run.

The executors in :mod:`repro.fl.executor` are *mechanism* — they run client
tasks and module-level work functions on a serial/thread/process backend
with bit-identical results.  A :class:`DispatchPolicy` names the backend
(and worker count) a run uses, builds the one executor that implements it,
and records every routing decision in a trace (surfaced through
``GridStats``/``--stats-json``).

Call sites
----------
``"round"``
    The per-round benign-client fan-out (``FederatedSimulation.run_round``).
``"refd"``
    REFD's per-update D-score inference (:mod:`repro.defenses.refd`), the
    one in-round fan-out that was measured to win on two cores.
``"grid"``
    Grid cell dispatch (:class:`repro.experiments.grid.GridRunner`).

A policy is built only from a spec — ``None`` (serial), a string such as
``"process:4"`` or a :class:`DispatchPolicy` — and holds nothing but its
decisions and the executor it built.  Whoever builds a policy closes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from .executor import (
    ClientExecutor,
    ParallelExecutor,
    SerialExecutor,
    ThreadedExecutor,
    default_worker_count,
)

__all__ = [
    "BACKENDS",
    "SITES",
    "DispatchDecision",
    "DispatchPolicy",
]

#: The call sites a policy decides for (see module docstring).
SITES = ("round", "refd", "grid")

#: The executor backends a policy may run on.
BACKENDS = ("serial", "thread", "process")

_SPEC_FORMS = "'serial', 'thread[:N]' or 'process[:N]'"


@dataclass
class DispatchDecision:
    """One recorded routing decision (see ``DispatchPolicy.trace``)."""

    site: str
    backend: str
    workers: int
    use_shared_memory: bool
    items: int
    reason: str
    count: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "backend": self.backend,
            "workers": self.workers,
            "use_shared_memory": self.use_shared_memory,
            "items": self.items,
            "reason": self.reason,
            "count": self.count,
        }


class DispatchPolicy:
    """The single public entry point for execution-backend selection.

    ``DispatchPolicy.fixed("process", workers=4)`` runs every site on the
    named backend; ``DispatchPolicy.serial()`` runs everything inline (the
    default).  String specs are accepted anywhere a policy is:
    ``"serial"``, ``"thread:2"``, ``"process:4"``.

    Every decision lands in :attr:`trace` (deduplicated with counts; JSON
    via :meth:`trace_dicts`, surfaced in ``GridStats.dispatch_decisions``
    and ``--stats-json``) and in :attr:`counters`.
    """

    def __init__(
        self,
        backend: str = "serial",
        workers: Optional[int] = None,
        use_shared_memory: bool = True,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.backend = backend
        self.workers = workers
        self.use_shared_memory = bool(use_shared_memory)
        self._executor: Optional[ClientExecutor] = None
        self._trace: Dict[tuple, DispatchDecision] = {}
        self.counters: Dict[str, int] = {
            "decisions": 0,
            "serial": 0,
            "thread": 0,
            "process": 0,
        }

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def fixed(
        cls,
        backend: str,
        workers: Optional[int] = None,
        use_shared_memory: bool = True,
    ) -> "DispatchPolicy":
        """Pin every site to one backend."""
        return cls(backend=backend, workers=workers, use_shared_memory=use_shared_memory)

    @classmethod
    def serial(cls) -> "DispatchPolicy":
        """Everything inline — the default."""
        return cls.fixed("serial")

    @classmethod
    def parse(cls, spec: Any) -> "DispatchPolicy":
        """Parse ``"serial" | "thread[:N]" | "process[:N]"``."""
        if isinstance(spec, DispatchPolicy):
            return spec
        text = "" if spec is None else str(spec).strip()
        if not text:
            return cls.serial()
        name, sep, workers_text = text.partition(":")
        workers: Optional[int] = None
        if sep:
            try:
                workers = int(workers_text)
            except ValueError:
                name = text  # not a worker count: report the whole spec
        if name not in BACKENDS:
            raise ValueError(f"unknown dispatch spec {text!r}; expected {_SPEC_FORMS}")
        if workers is not None and workers < 1:
            raise ValueError(
                f"dispatch spec {text!r}: workers must be at least 1; expected {_SPEC_FORMS}"
            )
        return cls.fixed(name, workers=workers)

    @classmethod
    def coerce(cls, value: Any) -> "DispatchPolicy":
        """``None`` -> serial, a policy as-is, a string -> :meth:`parse`."""
        if value is None:
            return cls.serial()
        if isinstance(value, DispatchPolicy):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(
            "a dispatch policy must be None, a DispatchPolicy or a str spec, "
            f"not {type(value).__name__}"
        )

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide(self, site: str, items: int) -> DispatchDecision:
        """Route one call: returns the recorded :class:`DispatchDecision`."""
        if site not in SITES:
            raise ValueError(f"unknown site {site!r}; expected one of {SITES}")
        decision = DispatchDecision(
            site=site,
            backend=self.backend,
            workers=self._worker_count(),
            use_shared_memory=self.use_shared_memory,
            items=int(items),
            reason=f"fixed policy {self.backend!r}",
        )
        self._record(decision)
        return decision

    def _worker_count(self) -> int:
        if self.backend == "serial":
            return 1
        return self.workers if self.workers is not None else default_worker_count()

    def _record(self, decision: DispatchDecision) -> None:
        self.counters["decisions"] += 1
        self.counters[decision.backend] += 1
        key = (decision.site, decision.backend, decision.items, decision.reason)
        existing = self._trace.get(key)
        if existing is None:
            self._trace[key] = decision
        else:
            existing.count += 1

    @property
    def trace(self) -> List[DispatchDecision]:
        """Deduplicated decision records in first-seen order."""
        return list(self._trace.values())

    def trace_dicts(self) -> List[Dict[str, Any]]:
        """JSON-ready decision trace (what ``--stats-json`` embeds)."""
        return [decision.to_dict() for decision in self.trace]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def executor(self) -> ClientExecutor:
        """The policy's one executor, built on first use and then reused."""
        if self._executor is None:
            if self.backend == "serial":
                self._executor = SerialExecutor()
            elif self.backend == "thread":
                self._executor = ThreadedExecutor(workers=self._worker_count())
            else:
                self._executor = ParallelExecutor(
                    workers=self._worker_count(),
                    use_shared_memory=self.use_shared_memory,
                )
        return self._executor

    def executor_for_tasks(self, tasks: Sequence) -> ClientExecutor:
        """Record the decision for one batch of client tasks; return the executor.

        The decision half of :meth:`map_tasks`, exposed so the fault-tolerant
        round loop (:func:`repro.fl.faults.run_tasks_with_recovery`) can
        drive the executor's ``map_detailed`` with retries and deadlines
        while recording exactly the same decision.
        """
        self.decide("round", items=len(tasks))
        return self.executor

    def map_tasks(self, tasks: Sequence) -> List:
        """Run the round's client tasks on the policy's backend."""
        tasks = list(tasks)
        if not tasks:
            return []
        return self.executor_for_tasks(tasks).map(tasks)

    def fanout(
        self,
        site: str,
        fn: Callable,
        payloads: Sequence,
        *,
        payload_by_ref: bool = True,
    ) -> Optional[List]:
        """Map the module-level ``fn`` over ``payloads`` on the policy's pool.

        Returns ``None`` when the work should stay on the caller's own fused
        serial loop: a serial policy, a single payload, or a process pool
        asked to ship payloads that do not travel by shared-memory
        reference (``payload_by_ref=False``) — pickling a large shared array
        into every work item costs more than the serial loop saves.
        """
        payloads = list(payloads)
        if len(payloads) > 1 and (payload_by_ref or self.backend != "process"):
            if self.decide(site, items=len(payloads)).backend == "serial":
                return None
            return self.executor.map_fn(fn, payloads)
        reason = (
            "single work item"
            if len(payloads) <= 1
            else "process pool without by-reference payloads"
        )
        self._record(
            DispatchDecision(
                site=site,
                backend="serial",
                workers=1,
                use_shared_memory=self.use_shared_memory,
                items=len(payloads),
                reason=reason,
            )
        )
        return None

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def counter_snapshot(self) -> Dict[str, int]:
        """Decision counters plus the executor's, as ``<backend>_<counter>``."""
        snapshot: Dict[str, int] = dict(self.counters)
        if self._executor is not None:
            for key, value in self._executor.counter_snapshot().items():
                snapshot[f"{self._executor.name}_{key}"] = value
        return snapshot

    def close(self) -> None:
        """Release the executor's workers (idempotent; counters survive)."""
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "DispatchPolicy":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
