"""One fixed dispatch backend, and the pool that runs it, for a whole run.

A :class:`DispatchPolicy` names the backend a run uses — ``serial`` or
``process`` — and runs the work itself on at most one
:class:`~concurrent.futures.ProcessPoolExecutor`, built on first use and
reused until :meth:`DispatchPolicy.close`.  It serves three fan-outs:

* the round's benign local training (:meth:`~DispatchPolicy.map_tasks`, or
  :meth:`~DispatchPolicy.map_detailed` under the fault-tolerant round loop
  of :func:`repro.fl.faults.run_tasks_with_recovery`);
* REFD's per-update D-score inference (:meth:`~DispatchPolicy.map_fn`, see
  :mod:`repro.defenses.refd`), the one in-round fan-out that was measured
  to win on two cores;
* grid cells: :class:`repro.experiments.grid.GridRunner` reads
  :attr:`~DispatchPolicy.backend` and :attr:`~DispatchPolicy.workers` to
  size its own cell pool.

A policy is built from a spec — ``None`` (serial), a string such as
``"process:4"`` or a :class:`DispatchPolicy` — by
:meth:`DispatchPolicy.coerce`.  Whoever builds a policy closes it.

Determinism contract
--------------------
Client tasks carry their RNG *state* and work functions are pure functions
of their payloads (:mod:`repro.fl.executor`), so every backend yields
bit-identical results for a given seed.  The process backend publishes a
round's common global parameter vector once through a
:class:`~repro.fl.executor.SharedParamsLease` (when ``use_shared_memory``)
and ships tasks that carry only its :class:`~repro.fl.executor.
SharedParamsRef` — the same bytes as the inline path.  Every task field
must pickle there, in particular ``model_factory``: use
:class:`repro.models.ClassifierFactory` or another module-level callable.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from .executor import (
    ClientTask,
    ClientTaskResult,
    SharedParamsLease,
    TaskOutcome,
    run_client_task,
)

__all__ = ["BACKENDS", "DispatchPolicy", "default_worker_count", "usable_cpu_count"]

#: The backends a policy may run on.
BACKENDS = ("serial", "process")

_SPEC_FORMS = "'serial' or 'process[:N]'"


def usable_cpu_count() -> int:
    """The CPUs this process may run on.

    That is ``sched_getaffinity``, which honours taskset and cpuset limits,
    where the platform reports it; otherwise every core ``os.cpu_count()``
    sees.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1  # pragma: no cover - macOS / Windows


def default_worker_count() -> int:
    """Worker count used when none is given: one per usable core, max 8."""
    return min(8, usable_cpu_count())


class DispatchPolicy:
    """One backend and its pool: ``serial`` or ``process[:N]``.

    ``workers`` is resolved at construction: 1 for ``serial``, otherwise the
    given count or :func:`default_worker_count`.  The four pool counters
    (:meth:`counter_snapshot`) accumulate over the policy's life and survive
    :meth:`close`:

    ``shm_rounds``
        task batches whose global parameters travelled by shared-memory lease;
    ``shard_rounds``
        task batches whose tasks carried shard-store refs instead of arrays;
    ``fanout_calls``
        work items :meth:`map_fn` ran on the pool;
    ``pool_rebuilds``
        times a broken or deadline-cut process pool was torn down.
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
        self.workers = 1 if backend == "serial" else workers or default_worker_count()
        self.use_shared_memory = bool(use_shared_memory)
        self.shm_rounds = 0
        self.shard_rounds = 0
        self.fanout_calls = 0
        self.pool_rebuilds = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    @classmethod
    def coerce(cls, value: Any) -> "DispatchPolicy":
        """``None`` -> serial, a policy as-is, a str spec parsed.

        A spec is ``"serial" | "process[:N]"``; anything else
        raises :class:`ValueError` (a bad string) or :class:`TypeError`.
        """
        if isinstance(value, DispatchPolicy):
            return value
        if value is not None and not isinstance(value, str):
            raise TypeError(
                "a dispatch policy must be None, a DispatchPolicy or a str spec, "
                f"not {type(value).__name__}"
            )
        text = (value or "").strip()
        if not text:
            return cls()
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
        return cls(name, workers=workers)

    @property
    def spec(self) -> str:
        """The spec string this policy runs as, e.g. ``"process:4"``."""
        return "serial" if self.backend == "serial" else f"{self.backend}:{self.workers}"

    # ------------------------------------------------------------------
    # Client tasks
    # ------------------------------------------------------------------
    def map_tasks(self, tasks: Sequence[ClientTask]) -> List[ClientTaskResult]:
        """Run a round's client tasks, in order; a task's error propagates.

        A process pool found broken (a worker died between rounds) is
        rebuilt and the batch re-run once — bit-identical, since tasks are
        pure functions of their payloads.  A second break propagates.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if self.backend == "serial":
            return [run_client_task(task) for task in tasks]
        with self._published(tasks) as shipped:
            try:
                return list(self._ensure_pool().map(run_client_task, shipped))
            except BrokenProcessPool:
                self._discard_pool()
                return list(self._ensure_pool().map(run_client_task, shipped))

    def map_detailed(
        self, tasks: Sequence[ClientTask], deadline_at: Optional[float] = None
    ) -> List[TaskOutcome]:
        """Run tasks, capturing per-task success/error/cut instead of raising.

        ``deadline_at`` is an absolute :func:`time.monotonic` instant; tasks
        still unfinished when it passes are marked ``cut`` (the serial
        backend checks it between tasks).  A pool that broke or holds cut
        stragglers is discarded — its workers terminated in the latter
        case — so retries start on a fresh one.
        """
        tasks = list(tasks)
        outcomes = [TaskOutcome(index=index) for index in range(len(tasks))]
        if self.backend == "serial":
            for outcome, task in zip(outcomes, tasks):
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    outcome.cut = True
                    continue
                try:
                    outcome.result = run_client_task(task)
                except Exception as err:
                    outcome.error = err
            return outcomes
        with self._published(tasks) as shipped:
            futures: Dict[Future[ClientTaskResult], int] = {}
            broken = False
            try:
                pool = self._ensure_pool()
                for index, task in enumerate(shipped):
                    futures[pool.submit(run_client_task, task)] = index
            except BrokenProcessPool as submit_error:
                broken = True
                for outcome in outcomes[len(futures):]:
                    outcome.error = submit_error
            timeout = None
            if deadline_at is not None:
                timeout = max(0.0, deadline_at - time.monotonic())
            done, not_done = futures_wait(futures, timeout=timeout)
            for future in done:
                outcome = outcomes[futures[future]]
                try:
                    outcome.result = future.result()
                except Exception as err:
                    outcome.error = err
                    broken = broken or isinstance(err, BrokenProcessPool)
            for future in not_done:
                future.cancel()
                outcomes[futures[future]].cut = True
            if not_done or broken:
                self._discard_pool(terminate=bool(not_done))
        return outcomes

    @contextmanager
    def _published(self, tasks: List[ClientTask]) -> Iterator[List[ClientTask]]:
        """The tasks as the pool receives them, with the round's lease held.

        On a shared-memory process pool, a batch whose tasks all broadcast
        the same global parameters publishes them once and ships tasks that
        carry only the lease's ref; the lease is released when the batch
        returns.  The batch counters are bumped on success.
        """
        vector = self._broadcast_vector(tasks)
        lease: Optional[SharedParamsLease] = None
        if vector is not None:
            try:
                lease = SharedParamsLease(vector)
            except (ImportError, OSError):  # pragma: no cover - no POSIX shm
                lease = None
        if lease is None:
            yield tasks
        else:
            try:
                yield [
                    dataclasses.replace(task, global_params=None, params_ref=lease.ref)
                    for task in tasks
                ]
            finally:
                lease.release()
            self.shm_rounds += 1
        if any(task.shard_ref is not None for task in tasks):
            self.shard_rounds += 1

    def _broadcast_vector(self, tasks: Sequence[ClientTask]) -> Optional[np.ndarray]:
        """The batch's common parameter vector, or ``None`` if not shareable.

        Only a shared-memory pool shares one.  Tasks usually broadcast
        the *same object*, but equal-valued distinct vectors (e.g. defensive
        per-task copies) are recognised too — via :func:`np.shares_memory`
        first (cheap view check), then an exact ``array_equal`` fallback —
        so the shm path is not silently skipped.
        """
        if not self.use_shared_memory or len(tasks) < 2:
            return None
        first = tasks[0].global_params
        if first is None:
            return None
        for task in tasks[1:]:
            other = task.global_params
            if other is first:
                continue
            if other is None:
                return None
            if not (np.shares_memory(other, first) or np.array_equal(other, first)):
                return None
        return first

    # ------------------------------------------------------------------
    # Generic fan-out
    # ------------------------------------------------------------------
    def map_fn(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> Optional[List[Any]]:
        """Map the module-level ``fn`` over ``payloads`` on the pool, in order.

        Returns ``None`` when the work should stay on the caller's own fused
        serial loop: a serial policy or a single payload.  The pool pickles
        ``fn`` by its qualified name, so closures and lambdas cannot run
        there, and every payload is pickled too — a caller ships large
        arrays by shared-memory reference, not by value.
        """
        payloads = list(payloads)
        if self.backend == "serial" or len(payloads) <= 1:
            return None
        results = list(self._ensure_pool().map(fn, payloads))
        self.fanout_calls += len(payloads)
        return results

    # ------------------------------------------------------------------
    # Pool lifecycle / introspection
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _discard_pool(self, terminate: bool = False) -> None:
        """Tear down the current pool so the next use builds a fresh one.

        ``terminate`` additionally kills the worker processes — needed when
        a deadline-cut straggler would otherwise hold a pool slot (and its
        CPU) indefinitely.  A pool that is merely *broken* has no live
        workers left to kill.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if terminate:
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - already dead
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pools may refuse
            pass
        self.pool_rebuilds += 1

    def counter_snapshot(self) -> Dict[str, int]:
        """The four pool counters (see the class docstring)."""
        return {
            "shm_rounds": self.shm_rounds,
            "shard_rounds": self.shard_rounds,
            "fanout_calls": self.fanout_calls,
            "pool_rebuilds": self.pool_rebuilds,
        }

    def close(self) -> None:
        """Shut the pool down (idempotent; the counters survive)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "DispatchPolicy":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
