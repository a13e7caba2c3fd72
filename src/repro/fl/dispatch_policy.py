"""Benchmark-calibrated dispatch: one policy object for every fan-out decision.

The executors in :mod:`repro.fl.executor` are *mechanism* — they run client
tasks and registered fan-out calls on a serial/thread/process backend with
bit-identical results.  This module is *policy*: given a call site and a
measured problem size, which backend should the work go to?

``BENCH_hotpath.json`` documents why this cannot be a constant: on small
problems the pooled paths lose (shm round dispatch 0.85x, REFD process
fan-out 0.62x, distance-block fan-out well below 1x at bench scale on the
reference machine) while on large multi-core problems they win.  The
:class:`CostModel` turns the ledger's measurements into per-site crossover
estimates; :class:`DispatchPolicy` applies them per call, records every
decision in a trace (surfaced through ``GridStats``/``--stats-json``), and
supports static per-site overrides for when measurements are beside the point.

Call sites
----------
``"round"``
    The per-round benign-client fan-out (``FederatedSimulation.run_round``).
``"refd"``
    REFD's per-update D-score inference (:mod:`repro.defenses.refd`).
``"distance"``
    Row-block fan-out of the exact float64 distance/cosine plane
    (:mod:`repro.defenses.distances`).
``"grid"``
    Grid cell dispatch (:class:`repro.experiments.grid.GridRunner`).
``"train"``
    The autograd execution mode of client local training — eager per-op
    closures vs the recorded-tape replay of :mod:`repro.nn.trace`.  Unlike
    the other sites this picks an *engine*, not an executor backend:
    :meth:`DispatchPolicy.training_mode` returns ``"replay"`` or
    ``"eager"`` (both bit-identical), trading the one-off recording
    overhead against the per-step replay saving measured by the
    ``trace_record_overhead`` ledger metric.

A policy is built only from a spec — ``None`` (serial), a string such as
``"process:4"`` or a :class:`DispatchPolicy` — and holds nothing but its
decisions and the executors it built for them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .executor import (
    ClientExecutor,
    ParallelExecutor,
    SerialExecutor,
    ThreadedExecutor,
    default_worker_count,
    pooled_fanout_ready,
)

__all__ = [
    "BACKENDS",
    "SITES",
    "TRAIN_MODES",
    "BenchRecord",
    "CostModel",
    "DispatchDecision",
    "DispatchPolicy",
]

#: The call sites a policy decides for (see module docstring).
SITES = ("round", "refd", "distance", "grid", "train")

#: The executor backends a decision may pick.
BACKENDS = ("serial", "thread", "process")

#: The autograd engines the ``train`` site may pick (its "backends").
TRAIN_MODES = ("eager", "replay")


@dataclass(frozen=True)
class BenchRecord:
    """One calibration point: a (site, backend) pair timed at a known size.

    ``work`` is the site's scalar work measure (items x parameter dimension
    for model fan-outs, rows x columns x dimension for the distance plane,
    cell count for the grid); ``serial_s`` and ``parallel_s`` are the
    best-of timings of the same problem on the serial baseline and on
    ``backend`` with ``workers`` workers.
    """

    site: str
    backend: str
    items: int
    work: float
    serial_s: float
    parallel_s: float
    workers: int = 2


# Bench geometries of the ledger metrics, used to reconstruct calibration
# records from a legacy-shaped ``BENCH_hotpath.json`` that predates the
# explicit ``dispatch_sites`` section.
_REFD_BENCH_ITEMS = 8
_REFD_BENCH_DIM = 3818  # SmallCNN(in_channels=1, image_size=16, width=8)
_ROUND_BENCH_ITEMS = 8
_ROUND_BENCH_DIM = 20490  # FashionCNN, 28x28 (the _e2e_config model)
_DISTANCE_BENCH_N = 10
_DISTANCE_BENCH_DIM = 100_000
_DISTANCE_BENCH_BLOCKS = 4

#: Proxy bandwidth used to convert the measured shm-vs-inline round overhead
#: into a payload-size crossover (bytes the inline pickle path can move in
#: the time the shared-memory plumbing costs per round).
_SHM_BANDWIDTH_BYTES_PER_S = 1 << 30

#: Calibration measured on the reference machine (1 CPU; the committed
#: ``BENCH_hotpath.json``).  ``CostModel.from_ledger`` overrides these with
#: whatever the local ledger recorded; sites the ledger does not cover fall
#: back to this table.
#: Per-step training costs measured on the reference machine (FashionCNN,
#: batch 32): mean eager step, mean replayed step, and the one-off extra
#: cost of the recording step over a plain eager step.  Overridden by the
#: ``trace_record_overhead`` metric when a local ledger provides one.
_DEFAULT_TRAIN_COSTS = {
    "eager_step_s": 3.8e-3,
    "replay_step_s": 3.0e-3,
    "overhead_s": 9.0e-3,
}

_DEFAULT_LEDGER_RECORDS = (
    BenchRecord(
        site="refd",
        backend="process",
        items=_REFD_BENCH_ITEMS,
        work=float(_REFD_BENCH_ITEMS * _REFD_BENCH_DIM),
        serial_s=0.0121,
        parallel_s=0.0195,
        workers=2,
    ),
    BenchRecord(
        site="round",
        backend="process",
        items=_ROUND_BENCH_ITEMS,
        work=float(_ROUND_BENCH_ITEMS * _ROUND_BENCH_DIM),
        serial_s=0.1037,
        parallel_s=0.1106,
        workers=2,
    ),
    BenchRecord(
        site="distance",
        backend="process",
        items=_DISTANCE_BENCH_BLOCKS,
        work=float(_DISTANCE_BENCH_N * _DISTANCE_BENCH_N * _DISTANCE_BENCH_DIM),
        serial_s=0.0398,
        parallel_s=0.0569,
        workers=2,
    ),
)


class CostModel:
    """Per-site serial/parallel time estimates fitted from bench records.

    The model is deliberately simple — two fitted constants per record:

    * ``tau(site)``: serial seconds per unit of work, from ``serial_s/work``;
    * ``per_item(site, backend)``: fixed dispatch overhead per work item,
      from ``max(parallel_s - serial_s/k, eps) / items`` with
      ``k = min(workers, items)``.

    A pooled backend is chosen only when its estimate beats ``margin`` times
    the serial estimate (serial-biased: ties and near-ties stay serial, which
    is the ROADMAP's "never slower than serial" contract).  With one worker
    the pooled estimate can never beat serial, so the crossover is infinite.
    """

    def __init__(
        self,
        records: Iterable[BenchRecord] = (),
        *,
        margin: float = 0.9,
        shm_min_bytes: int = 32 * 1024 * 1024,
    ) -> None:
        self.margin = float(margin)
        self.shm_min_bytes = int(shm_min_bytes)
        self._tau: Dict[str, float] = {}
        self._per_item: Dict[Tuple[str, str], float] = {}
        self.train_costs: Dict[str, float] = dict(_DEFAULT_TRAIN_COSTS)
        for record in records:
            self.add_record(record)

    def add_record(self, record: BenchRecord) -> None:
        """Fold one calibration record into the model (later records win)."""
        if record.site not in SITES:
            raise ValueError(f"unknown site {record.site!r}; expected one of {SITES}")
        if record.work > 0 and record.serial_s > 0:
            self._tau[record.site] = record.serial_s / record.work
        if record.backend in ("thread", "process") and record.items > 0:
            k = max(1, min(int(record.workers), int(record.items)))
            overhead = record.parallel_s - record.serial_s / k
            self._per_item[(record.site, record.backend)] = max(
                overhead / record.items, 1e-9
            )

    @classmethod
    def default(cls) -> "CostModel":
        """Model calibrated from the committed reference-machine ledger."""
        return cls(_DEFAULT_LEDGER_RECORDS)

    @classmethod
    def from_ledger(cls, source: Any) -> "CostModel":
        """Build a model from a ``BENCH_hotpath.json`` path or parsed dict.

        Prefers the explicit ``results["dispatch_sites"]`` records written by
        the current bench harness; for older ledgers it reconstructs records
        from the ``refd_fanout``/``distance_fanout``/``round_dispatch``/
        ``e2e_round`` metrics using the known bench geometries.  Sites the
        ledger does not cover keep the built-in defaults.
        """
        if isinstance(source, (str, Path)):
            data = json.loads(Path(source).read_text())
        else:
            data = source
        results = data.get("results", data) if isinstance(data, Mapping) else {}
        records = list(cls._records_from_results(results))
        covered = {record.site for record in records}
        records.extend(
            record for record in _DEFAULT_LEDGER_RECORDS if record.site not in covered
        )
        model = cls(records)
        shm_min_bytes = cls._shm_crossover_bytes(results)
        if shm_min_bytes is not None:
            model.shm_min_bytes = shm_min_bytes
        overhead = results.get("trace_record_overhead")
        if isinstance(overhead, Mapping):
            for key in ("eager_step_s", "replay_step_s", "overhead_s"):
                value = overhead.get(key)
                if value is not None and float(value) > 0:
                    model.train_costs[key] = float(value)
        return model

    @staticmethod
    def _records_from_results(results: Mapping) -> Iterable[BenchRecord]:
        for raw in results.get("dispatch_sites") or []:
            yield BenchRecord(
                site=str(raw["site"]),
                backend=str(raw["backend"]),
                items=int(raw["items"]),
                work=float(raw["work"]),
                serial_s=float(raw["serial_s"]),
                parallel_s=float(raw["parallel_s"]),
                workers=int(raw.get("workers", 2)),
            )
        if "dispatch_sites" in results:
            return
        refd = results.get("refd_fanout")
        if isinstance(refd, Mapping) and "serial_s" in refd and "process_s" in refd:
            yield BenchRecord(
                site="refd",
                backend="process",
                items=_REFD_BENCH_ITEMS,
                work=float(_REFD_BENCH_ITEMS * _REFD_BENCH_DIM),
                serial_s=float(refd["serial_s"]),
                parallel_s=float(refd["process_s"]),
                workers=int(refd.get("workers", 2)),
            )
        distance = results.get("distance_fanout")
        if isinstance(distance, Mapping) and "serial_s" in distance:
            yield BenchRecord(
                site="distance",
                backend="process",
                items=int(distance.get("blocks", _DISTANCE_BENCH_BLOCKS)),
                work=float(_DISTANCE_BENCH_N * _DISTANCE_BENCH_N * _DISTANCE_BENCH_DIM),
                serial_s=float(distance["serial_s"]),
                parallel_s=float(distance["process_s"]),
                workers=int(distance.get("workers", 2)),
            )
        round_dispatch = results.get("round_dispatch")
        e2e = results.get("e2e_round")
        if (
            isinstance(round_dispatch, Mapping)
            and isinstance(e2e, Mapping)
            and "inline_s" in round_dispatch
            and "current_s" in e2e
        ):
            yield BenchRecord(
                site="round",
                backend="process",
                items=_ROUND_BENCH_ITEMS,
                work=float(_ROUND_BENCH_ITEMS * _ROUND_BENCH_DIM),
                serial_s=float(e2e["current_s"]),
                parallel_s=float(round_dispatch["inline_s"]),
                workers=2,
            )

    @staticmethod
    def _shm_crossover_bytes(results: Mapping) -> Optional[int]:
        round_dispatch = results.get("round_dispatch")
        if not isinstance(round_dispatch, Mapping):
            return None
        inline_s = round_dispatch.get("inline_s")
        shm_s = round_dispatch.get("shm_s")
        if inline_s is None or shm_s is None:
            return None
        overhead = float(shm_s) - float(inline_s)
        if overhead <= 0:
            return 0  # shm is free here: always use it
        return int(overhead * _SHM_BANDWIDTH_BYTES_PER_S)

    def backends_for(self, site: str) -> List[str]:
        return sorted({backend for s, backend in self._per_item if s == site})

    def estimate_serial(self, site: str, work: Optional[float]) -> Optional[float]:
        tau = self._tau.get(site)
        if tau is None or work is None:
            return None
        return tau * float(work)

    def estimate_parallel(
        self,
        site: str,
        backend: str,
        work: Optional[float],
        items: int,
        workers: int,
    ) -> Optional[float]:
        tau = self._tau.get(site)
        per_item = self._per_item.get((site, backend))
        if tau is None or per_item is None or work is None:
            return None
        k = max(1, min(int(workers), int(items)))
        return tau * float(work) / k + per_item * int(items)

    def estimate_training(self, steps: int) -> Tuple[float, float]:
        """``(eager_s, replay_s)`` estimates for ``steps`` optimizer steps.

        The replay estimate charges the first step at eager cost plus the
        one-off recording overhead; the remaining ``steps - 1`` run at the
        replayed per-step cost.
        """
        steps = max(1, int(steps))
        costs = self.train_costs
        eager = costs["eager_step_s"] * steps
        replay = (
            costs["eager_step_s"]
            + costs["overhead_s"]
            + costs["replay_step_s"] * (steps - 1)
        )
        return eager, replay

    def choose(
        self, site: str, items: int, work: Optional[float], workers: int
    ) -> Tuple[str, str, Optional[float], Optional[float]]:
        """Pick a backend; returns ``(backend, reason, est_serial, est_parallel)``."""
        if site == "grid":
            if items >= 2 and workers >= 2:
                return "process", f"grid: {items} cells across {workers} workers", None, None
            return "serial", "grid: single cell or single worker", None, None
        if items <= 1:
            return "serial", "single work item", None, None
        if workers <= 1:
            return "serial", "one worker: pooling cannot win", None, None
        est_serial = self.estimate_serial(site, work)
        if est_serial is None:
            return "serial", "uncalibrated problem size: defaulting to serial", None, None
        best_backend, best_est = "serial", est_serial
        for backend in self.backends_for(site):
            est = self.estimate_parallel(site, backend, work, items, workers)
            if est is not None and est < self.margin * est_serial and est < best_est:
                best_backend, best_est = backend, est
        if best_backend == "serial":
            return (
                "serial",
                f"serial est {est_serial * 1e3:.3f}ms beats pooled estimates "
                f"(margin {self.margin:.2f})",
                est_serial,
                None,
            )
        return (
            best_backend,
            f"{best_backend} est {best_est * 1e3:.3f}ms < "
            f"{self.margin:.2f} x serial {est_serial * 1e3:.3f}ms",
            est_serial,
            best_est,
        )


@dataclass
class DispatchDecision:
    """One recorded routing decision (see ``DispatchPolicy.trace``)."""

    site: str
    backend: str
    workers: int
    use_shared_memory: bool
    items: int
    work: Optional[float]
    reason: str
    est_serial_s: Optional[float] = None
    est_parallel_s: Optional[float] = None
    count: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "backend": self.backend,
            "workers": self.workers,
            "use_shared_memory": self.use_shared_memory,
            "items": self.items,
            "work": self.work,
            "reason": self.reason,
            "est_serial_s": self.est_serial_s,
            "est_parallel_s": self.est_parallel_s,
            "count": self.count,
        }


class DispatchPolicy:
    """The single public entry point for execution-backend selection.

    Construct one of:

    * ``DispatchPolicy.fixed("process", workers=4)`` — every site runs on
      the named backend;
    * ``DispatchPolicy.serial()`` — everything inline (the default);
    * ``DispatchPolicy.adaptive()`` — per-call cost-model decisions
      calibrated from the benchmark ledger (``cost_model=`` accepts
      :meth:`CostModel.from_ledger`).

    ``overrides`` statically pins individual sites regardless of mode, e.g.
    ``{"distance": "serial"}``; mutating :attr:`overrides` between rounds
    re-routes subsequent calls (every backend is bit-identical, so this is
    safe mid-run).  String specs are accepted anywhere a policy is:
    ``"adaptive"``, ``"process:4"``, ``"thread:2,distance=serial"``.

    Every decision lands in :attr:`trace` (deduplicated with counts; JSON
    via :meth:`trace_dicts`, surfaced in ``GridStats.dispatch_decisions``
    and ``--stats-json``) and in :attr:`counters`.
    """

    def __init__(
        self,
        mode: str = "fixed",
        backend: str = "serial",
        workers: Optional[int] = None,
        use_shared_memory: bool = True,
        cost_model: Optional[CostModel] = None,
        overrides: Optional[Mapping[str, str]] = None,
    ) -> None:
        if mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown dispatch mode {mode!r}")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.mode = mode
        self.backend = backend
        self.workers = workers
        self.use_shared_memory = bool(use_shared_memory)
        self.cost_model = cost_model or (CostModel.default() if mode == "adaptive" else None)
        self.overrides: Dict[str, str] = {}
        for site, name in (overrides or {}).items():
            if site not in SITES:
                raise ValueError(f"unknown site {site!r}; expected one of {SITES}")
            valid = TRAIN_MODES if site == "train" else BACKENDS
            if name not in valid:
                raise ValueError(
                    f"unknown {site} choice {name!r}; expected one of {valid}"
                )
            self.overrides[site] = name
        self._executors: Dict[Tuple[str, bool], ClientExecutor] = {}
        self._trace: Dict[tuple, DispatchDecision] = {}
        self.counters: Dict[str, int] = {
            "decisions": 0,
            "serial": 0,
            "thread": 0,
            "process": 0,
            "eager": 0,
            "replay": 0,
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
        overrides: Optional[Mapping[str, str]] = None,
    ) -> "DispatchPolicy":
        """Pin every site to one backend."""
        return cls(
            mode="fixed",
            backend=backend,
            workers=workers,
            use_shared_memory=use_shared_memory,
            overrides=overrides,
        )

    @classmethod
    def serial(cls) -> "DispatchPolicy":
        """Everything inline — the default."""
        return cls.fixed("serial")

    @classmethod
    def adaptive(
        cls,
        workers: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
        overrides: Optional[Mapping[str, str]] = None,
        use_shared_memory: bool = True,
    ) -> "DispatchPolicy":
        """Decide per call from the benchmark-calibrated cost model."""
        return cls(
            mode="adaptive",
            workers=workers,
            cost_model=cost_model,
            overrides=overrides,
            use_shared_memory=use_shared_memory,
        )

    @classmethod
    def parse(cls, spec: Any) -> "DispatchPolicy":
        """Parse ``"serial" | "thread[:N]" | "process[:N]" | "adaptive[:N]"``
        with optional ``,site=backend`` pinning suffixes."""
        if isinstance(spec, DispatchPolicy):
            return spec
        if spec is None:
            return cls.serial()
        text = str(spec).strip()
        if not text:
            return cls.serial()
        head, *rest = [part.strip() for part in text.split(",")]
        overrides: Dict[str, str] = {}
        for part in rest:
            if not part:
                continue
            site, sep, backend = part.partition("=")
            if not sep:
                raise ValueError(
                    f"bad dispatch override {part!r}; expected site=backend"
                )
            overrides[site.strip()] = backend.strip()
        name, sep, workers_text = head.partition(":")
        workers = None
        if sep:
            workers = int(workers_text)
        if name == "adaptive":
            return cls.adaptive(workers=workers, overrides=overrides)
        if name in BACKENDS:
            return cls.fixed(name, workers=workers, overrides=overrides)
        raise ValueError(
            f"unknown dispatch policy {name!r}; expected one of "
            f"{BACKENDS + ('adaptive',)}"
        )

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
    @property
    def is_adaptive(self) -> bool:
        return self.mode == "adaptive"

    def decide(
        self,
        site: str,
        items: int,
        work: Optional[float] = None,
        payload_bytes: Optional[int] = None,
    ) -> DispatchDecision:
        """Route one call: returns the recorded :class:`DispatchDecision`."""
        if site not in SITES:
            raise ValueError(f"unknown site {site!r}; expected one of {SITES}")
        if site == "train":
            raise ValueError(
                "the 'train' site picks an autograd engine, not an executor "
                "backend; use training_mode()"
            )
        items = int(items)
        requested = self.overrides.get(site)
        est_serial = est_parallel = None
        use_shm = self.use_shared_memory
        if requested is not None:
            backend = requested
            workers = self._resolve_workers(backend)
            reason = f"pinned by override[{site}]"
        elif self.mode == "fixed":
            backend = self.backend
            workers = self._resolve_workers(backend)
            reason = f"fixed policy {backend!r}"
        else:
            # Adaptive mode always builds a model in __init__; the fallback
            # narrows the Optional for type checking without changing that.
            cost_model = self.cost_model or CostModel.default()
            candidates = self.workers if self.workers is not None else default_worker_count()
            backend, reason, est_serial, est_parallel = cost_model.choose(
                site, items=items, work=work, workers=candidates
            )
            workers = candidates if backend != "serial" else 1
            if backend == "process" and payload_bytes is not None:
                use_shm = payload_bytes >= cost_model.shm_min_bytes
        decision = DispatchDecision(
            site=site,
            backend=backend,
            workers=int(workers),
            use_shared_memory=use_shm,
            items=items,
            work=float(work) if work is not None else None,
            reason=reason,
            est_serial_s=est_serial,
            est_parallel_s=est_parallel,
        )
        self._record(decision)
        return decision

    def training_mode(self, steps: int) -> str:
        """Resolve ``LocalTrainingConfig.trace == "auto"``: replay or eager?

        ``steps`` is the expected number of optimizer steps one local
        training run performs (batches per epoch x epochs).  Both engines
        are bit-identical, so this is purely a cost call: fixed policies
        take replay whenever recording can amortise (two or more steps),
        adaptive policies compare the cost model's eager and replay
        estimates under the usual serial-biased margin, and
        ``overrides["train"]`` pins the choice outright.  The decision is
        recorded in :attr:`trace` like any other site (``backend`` holds
        the chosen engine name).
        """
        steps = max(1, int(steps))
        est_eager = est_replay = None
        requested = self.overrides.get("train")
        if requested is not None:
            mode = requested
            reason = "pinned by override[train]"
        elif steps < 2:
            mode = "eager"
            reason = "single optimizer step: recording cannot amortise"
        elif self.mode == "fixed":
            mode = "replay"
            reason = "fixed policy: replay records once and is bit-identical"
        else:
            cost_model = self.cost_model or CostModel.default()
            est_eager, est_replay = cost_model.estimate_training(steps)
            if est_replay < cost_model.margin * est_eager:
                mode = "replay"
                reason = (
                    f"replay est {est_replay * 1e3:.3f}ms < "
                    f"{cost_model.margin:.2f} x eager {est_eager * 1e3:.3f}ms"
                )
            else:
                mode = "eager"
                reason = (
                    f"eager est {est_eager * 1e3:.3f}ms beats replay est "
                    f"{est_replay * 1e3:.3f}ms (margin {cost_model.margin:.2f})"
                )
        decision = DispatchDecision(
            site="train",
            backend=mode,
            workers=1,
            use_shared_memory=False,
            items=steps,
            work=float(steps),
            reason=reason,
            est_serial_s=est_eager,
            est_parallel_s=est_replay,
        )
        self._record(decision)
        return mode

    def _resolve_workers(self, backend: str) -> int:
        if backend == "serial":
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
    def executor_for(self, decision: DispatchDecision) -> ClientExecutor:
        """The (lazily built, cached) executor implementing a decision."""
        key = (decision.backend, decision.use_shared_memory)
        executor = self._executors.get(key)
        if executor is None:
            if decision.backend == "serial":
                executor = SerialExecutor()
            elif decision.backend == "thread":
                executor = ThreadedExecutor(workers=decision.workers)
            else:
                executor = ParallelExecutor(
                    workers=decision.workers,
                    use_shared_memory=decision.use_shared_memory,
                )
            self._executors[key] = executor
        return executor

    def executor_for_tasks(self, tasks: Sequence, site: str = "round") -> ClientExecutor:
        """Decide a backend for one batch of client tasks and return it.

        The decision half of :meth:`map_tasks`, exposed so the fault-tolerant
        round loop (:func:`repro.fl.faults.run_tasks_with_recovery`) can
        drive the chosen executor's ``map_detailed`` with retries and
        deadlines while routing through exactly the same policy.
        """
        tasks = list(tasks)
        work: Optional[float] = None
        payload_bytes: Optional[int] = None
        params = getattr(tasks[0], "global_params", None) if tasks else None
        if params is not None:
            work = float(len(tasks)) * float(params.size)
            payload_bytes = len(tasks) * int(params.nbytes)
        decision = self.decide(site, items=len(tasks), work=work, payload_bytes=payload_bytes)
        return self.executor_for(decision)

    def map_tasks(self, tasks: Sequence, site: str = "round") -> List:
        """Run the round's client tasks on the decided backend."""
        tasks = list(tasks)
        if not tasks:
            return []
        return self.executor_for_tasks(tasks, site=site).map(tasks)

    def fanout(
        self,
        site: str,
        fn: str,
        payloads: Sequence,
        *,
        work: Optional[float] = None,
        kernel: Optional[Callable] = None,
        payload_by_ref: bool = True,
        publish: Optional[Mapping[str, np.ndarray]] = None,
        payloads_from_refs: Optional[Callable] = None,
    ) -> Optional[List]:
        """Run a registered fan-out on the decided backend.

        ``fn`` is a ``register_fanout_fn`` name; ``kernel`` is the in-process
        callable used when the decision (or a capability gate) lands on
        serial.  When ``kernel`` is ``None`` a serial landing returns
        ``None`` so the caller can run its own fused serial loop (REFD).
        ``publish`` maps array names to round-sized arrays that pickling
        backends must ship via shared memory; ``payloads_from_refs`` rebuilds
        the payload list from the published refs.  Callers never inspect
        executor capabilities — the gating that used to live in defense code
        (``pooled_fanout_ready``, ``supports_generic_fanout``) happens here.
        """
        payloads = list(payloads)
        items = len(payloads)
        if items <= 1:
            decision = DispatchDecision(
                site=site,
                backend="serial",
                workers=1,
                use_shared_memory=self.use_shared_memory,
                items=items,
                work=float(work) if work is not None else None,
                reason="single work item",
            )
            self._record(decision)
            executor = None
        else:
            decision = self.decide(site, items=items, work=work)
            executor = None
            if decision.backend != "serial":
                executor = self.executor_for(decision)
                by_ref = payload_by_ref or publish is not None
                if not pooled_fanout_ready(executor, payload_by_ref=by_ref):
                    executor = None
        store = None
        try:
            if (
                executor is not None
                and publish is not None
                and getattr(executor, "fanout_requires_pickling", False)
            ):
                store = executor.publish_arrays(dict(publish))
                if store is None:
                    executor = None
                elif payloads_from_refs is not None:
                    payloads = list(payloads_from_refs(store.refs))
            if executor is None:
                if kernel is None:
                    return None
                return [kernel(payload) for payload in payloads]
            return executor.map_fn(fn, payloads)
        finally:
            if store is not None:
                store.close()

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def counter_snapshot(self) -> Dict[str, int]:
        """Decision counters and the counters of every executor built."""
        snapshot: Dict[str, int] = dict(self.counters)
        for executor in self._executors.values():
            for key, value in executor.counter_snapshot().items():
                snapshot[f"{executor.name}_{key}"] = value
        return snapshot

    def close(self) -> None:
        """Release every executor the policy built."""
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()

    def __enter__(self) -> "DispatchPolicy":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

