"""Pluggable execution backends for the per-round benign-client fan-out.

Each FL round trains ``clients_per_round`` independent local models; the
work units are embarrassingly parallel because every client starts from the
same broadcast global parameters and touches only its own data shard and RNG
stream.  :class:`ClientTask` captures one unit of that work as a fully
picklable payload (plain numpy arrays *or* shared-memory handles, a
:class:`LocalTrainingConfig`, and the client's RNG *state* rather than the
generator object), so the same task can be executed in-process, on a thread
pool, or in a worker process — and produce bit-identical results in all
three cases.

Shared-memory data plane
------------------------
Two kinds of payload are identical across tasks and rounds and therefore
never need to be pickled per task:

* the **global parameter vector** is identical for every task of a round;
  :class:`ParallelExecutor` publishes it once per round through a
  :class:`SharedParamsLease` and rewrites the tasks to carry only a
  :class:`SharedParamsRef` (segment name, dtype, length);
* the **per-client data shards** (and the defense's reference arrays) are
  *round-invariant*; the simulation publishes them once per simulation in a
  :class:`SharedArrayStore` and hands each client a :class:`ShardRef`, so a
  process-backend task pickles to a few hundred bytes instead of shipping
  its image tensor every round.

Workers attach segments read-only through a per-process cache
(:func:`resolve_shared_array`): per-round parameter segments are evicted
when the next round publishes under a new name, while *persistent* segments
(the shard store) stay attached for the lifetime of the simulation.  The
serial and thread backends keep inline arrays — they already share the
parent's address space, so there is nothing to ship.

Generic fan-out
---------------
:meth:`ClientExecutor.map_fn` maps a module-level work function over a list
of payloads, preserving order.  The process backend hands the function to
its pool as is: pickle ships a module-level function by its qualified name,
so a worker imports the defining module and calls the same code.  Closures
and lambdas do not pickle and cannot run there.  REFD's per-update D-score
inference (:func:`repro.defenses.refd.evaluate_update`) fans out this way,
with the reference images read from the simulation's shard store instead of
being pickled into every payload.

Determinism contract
--------------------
A client owns one :class:`numpy.random.Generator` that advances across
rounds.  :func:`run_client_task` reconstructs the generator from the
serialized state, trains, and ships the *advanced* state back so the owning
:class:`~repro.fl.client.BenignClient` can resume exactly where a serial run
would have.  Given the same seed, :class:`SerialExecutor`,
:class:`ThreadedExecutor` and :class:`ParallelExecutor` therefore yield
bit-identical :class:`~repro.fl.types.ModelUpdate` sequences — the
shared-memory paths ship the same bytes as the inline paths, and fan-out
work functions are pure functions of their payloads.

Picklability
------------
:class:`ParallelExecutor` submits tasks to a
:class:`concurrent.futures.ProcessPoolExecutor`, so every field of the task
must pickle — in particular ``model_factory``.  Closures do not pickle; use
:class:`repro.models.ClassifierFactory` (or any module-level callable /
dataclass) when running with processes.  The experiment layer
(:func:`repro.experiments.runner.build_simulation`) already does.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..nn.serialization import get_flat_params, set_flat_params
from ..utils.sanitize import SealedArrayViolation, array_digest, sanitize_enabled, seal
from .training import train_on_arrays
from .types import LocalTrainingConfig

__all__ = [
    "ClientTask",
    "ClientTaskResult",
    "FaultDirective",
    "InjectedWorkerCrash",
    "ShmAttachFailure",
    "TaskOutcome",
    "SharedArrayRef",
    "SharedArrayStore",
    "ShardRef",
    "SharedParamsRef",
    "SharedParamsLease",
    "attach_array_store",
    "resolve_shared_array",
    "run_client_task",
    "ClientExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "ParallelExecutor",
    "default_worker_count",
]


# ----------------------------------------------------------------------
# Shared-memory data plane
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedArrayRef:
    """Handle to one array inside a shared-memory segment (picklable).

    ``persistent`` marks segments that outlive a single round (the
    simulation's shard store): the worker-side attach cache keeps them
    mapped, whereas non-persistent segments (per-round parameter leases)
    are evicted as soon as a newer segment is attached.
    """

    segment: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int = 0
    persistent: bool = False

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return int(np.dtype(self.dtype).itemsize) * count


#: Byte alignment of arrays packed into one segment; 64 keeps every array
#: cache-line aligned so BLAS kernels see the same layout as a fresh
#: ``np.empty`` allocation.
_SEGMENT_ALIGN = 64


class SharedArrayStore:
    """Parent-side owner of one segment packing many named arrays.

    Create it with a mapping of names to arrays; every array is copied once
    into a single :mod:`multiprocessing.shared_memory` segment and
    :attr:`refs` holds a picklable :class:`SharedArrayRef` per name.  The
    store is a context manager and carries a ``__del__`` safety net, so the
    segment cannot leak even when the round loop raises before its
    ``finally`` runs.  :meth:`close` is idempotent.

    Under ``REPRO_SANITIZE=1`` (see :mod:`repro.utils.sanitize`) the store
    records a BLAKE2b digest of every array at publish time and re-verifies
    it in :meth:`close`: a consumer that defeated the sealed
    ``writeable=False`` flag and wrote into the segment raises
    :class:`~repro.utils.sanitize.SealedArrayViolation` at release instead
    of silently corrupting every attached process.
    """

    def __init__(
        self, arrays: Mapping[str, np.ndarray], persistent: bool = True
    ) -> None:
        from multiprocessing import shared_memory

        self._shm = None  # set early so __del__ is safe if creation raises
        contiguous = {
            name: np.ascontiguousarray(array) for name, array in arrays.items()
        }
        offsets: Dict[str, int] = {}
        total = 0
        for name, array in contiguous.items():
            offsets[name] = total
            total += array.nbytes
            total += (-total) % _SEGMENT_ALIGN
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, total))
        self.refs: Dict[str, SharedArrayRef] = {}
        self._digests: Dict[str, str] = {}
        record_digests = sanitize_enabled()
        for name, array in contiguous.items():
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=self._shm.buf, offset=offsets[name]
            )
            view[...] = array
            self.refs[name] = SharedArrayRef(
                segment=self._shm.name,
                dtype=array.dtype.str,
                shape=tuple(array.shape),
                offset=offsets[name],
                persistent=persistent,
            )
            if record_digests:
                self._digests[name] = array_digest(view)

    @property
    def name(self) -> str:
        """Name of the backing shared-memory segment."""
        if self._shm is None:
            raise ValueError("store is closed")
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Size of the backing segment in bytes."""
        if self._shm is None:
            return 0
        return self._shm.size

    def _verify_digests(self) -> List[str]:
        """Names of published arrays whose content changed since publish.

        Kept as its own frame so the verification views over ``shm.buf``
        are dropped before :meth:`close` releases the mapping (an exported
        buffer would make ``SharedMemory.close`` raise ``BufferError``).
        """
        mutated: List[str] = []
        for name, recorded in self._digests.items():
            ref = self.refs[name]
            view = np.ndarray(
                ref.shape,
                dtype=np.dtype(ref.dtype),
                buffer=self._shm.buf,  # type: ignore[union-attr]
                offset=ref.offset,
            )
            if array_digest(view) != recorded:
                mutated.append(name)
            del view
        return mutated

    def close(self) -> None:
        """Close and unlink the segment (idempotent).

        With digests recorded (``REPRO_SANITIZE=1`` at publish time) the
        segment content is re-verified first; a mismatch still releases
        the segment, then raises
        :class:`~repro.utils.sanitize.SealedArrayViolation`.
        """
        if self._shm is None:
            return
        mutated: List[str] = []
        if self._digests and sanitize_enabled():
            mutated = self._verify_digests()
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._shm = None
        if mutated:
            raise SealedArrayViolation(
                "shared array(s) mutated while published: "
                + ", ".join(sorted(mutated))
                + " — some consumer wrote through a sealed shm view "
                "(the static face of this bug is a MUT001-003 lint finding)"
            )

    def __enter__(self) -> "SharedArrayStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


@dataclass(frozen=True)
class ShardRef:
    """Shared-memory handles to one client's round-invariant ``(images, labels)``."""

    images: SharedArrayRef
    labels: SharedArrayRef

    def resolve(self) -> Tuple[np.ndarray, np.ndarray]:
        """Attach (or reuse) the segment and return read-only array views."""
        return resolve_shared_array(self.images), resolve_shared_array(self.labels)


@dataclass(frozen=True)
class SharedParamsRef:
    """Handle to a parameter vector published in shared memory (picklable)."""

    name: str
    dtype: str
    size: int


class SharedParamsLease:
    """Parent-side owner of one round's shared-memory parameter segment.

    A thin single-array wrapper over :class:`SharedArrayStore`: create it
    with the round's global parameter vector, hand :attr:`ref` to the tasks,
    and :meth:`release` after the round's results are in (workers only read
    the segment while executing their task).  Usable as a context manager;
    the underlying store's ``__del__`` guarantees the segment is unlinked
    even if ``release`` is never reached.
    """

    def __init__(self, vector: np.ndarray) -> None:
        vector = np.ascontiguousarray(vector)
        self._store = SharedArrayStore({"params": vector}, persistent=False)
        self.ref = SharedParamsRef(
            name=self._store.name, dtype=vector.dtype.str, size=vector.size
        )

    def release(self) -> None:
        """Close and unlink the segment (idempotent)."""
        self._store.close()

    def __enter__(self) -> "SharedParamsLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


#: Worker-process cache of attached segments: ``name -> (shm, persistent)``.
#: A worker handles several tasks per round; all of them reference the same
#: segments, so one attach per (worker, segment) suffices.  Stale per-round
#: parameter segments are detached when a new segment is attached; persistent
#: segments (the simulation's shard store) stay mapped.
_ATTACHED_SEGMENTS: Dict[str, Tuple[object, bool]] = {}


def _attach_segment(name: str, persistent: bool):
    cached = _ATTACHED_SEGMENTS.get(name)
    if cached is not None:
        return cached[0]
    from multiprocessing import shared_memory

    # The parent owns the segment's lifetime, so the attaching side must not
    # register it with the resource tracker (a second registration makes the
    # tracker double-unlink at shutdown).  CPython 3.13+ supports this
    # directly via ``track=False``; older versions need the registration
    # call suppressed for the duration of this one attach.
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    for other in list(_ATTACHED_SEGMENTS):
        other_shm, other_persistent = _ATTACHED_SEGMENTS[other]
        if not other_persistent:
            _ATTACHED_SEGMENTS.pop(other)
            other_shm.close()
    _ATTACHED_SEGMENTS[name] = (shm, persistent)
    return shm


def resolve_shared_array(ref: SharedArrayRef) -> np.ndarray:
    """Attach (or reuse) the segment of ``ref`` and return a read-only view."""
    shm = _attach_segment(ref.segment, ref.persistent)
    view = np.ndarray(
        ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf, offset=ref.offset
    )
    return seal(view)


def attach_array_store(refs: Mapping[str, SharedArrayRef]) -> Dict[str, np.ndarray]:
    """Attach one store publication and return read-only views by name.

    The inverse of :attr:`SharedArrayStore.refs` on the consuming side:
    every ref resolves through the per-process attach cache, so a store's
    segment is mapped once per process no matter how many arrays it packs or
    how often the caller re-attaches.  The grid-level dataset store
    (:mod:`repro.experiments.dispatch`) uses this to hand worker processes a
    whole published dataset at once.
    """
    return {name: resolve_shared_array(ref) for name, ref in refs.items()}


def _attach_shared_params(ref: SharedParamsRef) -> np.ndarray:
    """Attach (or reuse) a parameter segment and return a read-only vector."""
    return resolve_shared_array(
        SharedArrayRef(
            segment=ref.name, dtype=ref.dtype, shape=(ref.size,), persistent=False
        )
    )


# ----------------------------------------------------------------------
# Fault directives (the worker-side half of the fault-injection plane)
# ----------------------------------------------------------------------
class InjectedWorkerCrash(RuntimeError):
    """A planned in-process worker crash (soft kill) fired inside a task."""


class ShmAttachFailure(RuntimeError):
    """A shared-memory segment could not be attached (real or injected).

    The recovery layer (:mod:`repro.fl.faults`) treats this — and genuine
    ``OSError`` attach failures on tasks that carry shm refs — as a signal to
    degrade the task to inline payloads and retry.
    """


@dataclass(frozen=True)
class FaultDirective:
    """Picklable instruction attached to one :class:`ClientTask` by a
    :class:`~repro.fl.faults.FaultInjector`.

    ``kind`` is one of ``"crash"`` (``hard`` kills the worker process with
    ``os._exit``, otherwise an :class:`InjectedWorkerCrash` is raised),
    ``"hang"`` (sleep ``seconds`` before training — a straggler, not an
    error) or ``"shm"`` (raise :class:`ShmAttachFailure` as if the segment
    attach failed).  Directives execute *before* the task touches its RNG,
    so a retried task is bit-identical to an uninjected one.
    """

    kind: str
    seconds: float = 0.0
    hard: bool = False


def _apply_fault_directive(directive: FaultDirective) -> None:
    if directive.kind == "hang":
        time.sleep(max(0.0, directive.seconds))
    elif directive.kind == "crash":
        if directive.hard:
            os._exit(17)
        raise InjectedWorkerCrash("injected worker crash")
    elif directive.kind == "shm":
        raise ShmAttachFailure("injected shared-memory attach failure")
    else:  # pragma: no cover - plans are validated at load time
        raise ValueError(f"unknown fault directive kind '{directive.kind}'")


# ----------------------------------------------------------------------
# Client tasks
# ----------------------------------------------------------------------
@dataclass
class ClientTask:
    """One benign client's local-training work for one round (picklable).

    Exactly one of ``global_params`` (inline vector, serial/thread backends)
    and ``params_ref`` (shared-memory handle, process backend) is set, and
    likewise exactly one of the inline ``images``/``labels`` arrays and
    ``shard_ref`` (the once-per-simulation shard store publication).
    """

    client_id: int
    round_number: int
    global_params: Optional[np.ndarray]
    images: Optional[np.ndarray]
    labels: Optional[np.ndarray]
    num_samples: int
    config: LocalTrainingConfig
    model_factory: Callable[[], object]
    rng_state: Dict
    """Serialized ``Generator.bit_generator.state`` of the owning client."""
    params_ref: Optional[SharedParamsRef] = None
    shard_ref: Optional[ShardRef] = None
    fault: Optional[FaultDirective] = None
    """Planned fault to execute before training (``None`` on the hot path)."""

    def resolve_global_params(self) -> np.ndarray:
        """The task's global parameter vector, attaching shared memory if used."""
        if self.global_params is not None:
            return self.global_params
        if self.params_ref is None:
            raise ValueError("task carries neither inline parameters nor a shm ref")
        return _attach_shared_params(self.params_ref)

    def resolve_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The task's ``(images, labels)`` shard, attaching shared memory if used."""
        if self.images is not None and self.labels is not None:
            return self.images, self.labels
        if self.shard_ref is None:
            raise ValueError("task carries neither inline arrays nor a shard ref")
        return self.shard_ref.resolve()


@dataclass
class ClientTaskResult:
    """Outcome of one :class:`ClientTask`: trained parameters + advanced RNG."""

    client_id: int
    parameters: np.ndarray
    num_samples: int
    rng_state: Dict


def run_client_task(task: ClientTask) -> ClientTaskResult:
    """Execute one client's local training; pure function of the task payload."""
    if task.fault is not None:
        _apply_fault_directive(task.fault)
    rng = np.random.default_rng()
    rng.bit_generator.state = task.rng_state
    model = task.model_factory()
    set_flat_params(model, task.resolve_global_params())
    images, labels = task.resolve_arrays()
    train_on_arrays(model, images, labels, task.config, rng)
    return ClientTaskResult(
        client_id=task.client_id,
        parameters=get_flat_params(model),
        num_samples=task.num_samples,
        rng_state=rng.bit_generator.state,
    )


def default_worker_count() -> int:
    """Worker count used when none is given: one per available core, max 8."""
    return max(1, min(8, os.cpu_count() or 1))


@dataclass
class TaskOutcome:
    """Per-task outcome of :meth:`ClientExecutor.map_detailed`.

    Exactly one of three states: ``result`` set (success), ``error`` set
    (the task raised or its worker died), or ``cut`` true (the task was
    still running when the deadline expired and was abandoned).
    """

    index: int
    result: Optional[ClientTaskResult] = None
    error: Optional[BaseException] = None
    cut: bool = False


class ClientExecutor:
    """Strategy interface: run a batch of client tasks, preserving order."""

    name = "base"
    supports_shard_store = False
    """Whether the backend benefits from the once-per-simulation shard store
    (only process pools do — threads already share the address space)."""

    def map(self, tasks: Sequence[ClientTask]) -> List[ClientTaskResult]:
        """Run every task and return results in the same order as ``tasks``."""
        raise NotImplementedError

    def map_detailed(
        self, tasks: Sequence[ClientTask], deadline_at: Optional[float] = None
    ) -> List[TaskOutcome]:
        """Run tasks, capturing per-task success/error/cut instead of raising.

        ``deadline_at`` is an absolute :func:`time.monotonic` instant; tasks
        still unfinished when it passes are abandoned and marked ``cut``.
        The fault-tolerant round loop (:func:`repro.fl.faults.
        run_tasks_with_recovery`) drives this entry point; :meth:`map` stays
        the exception-propagating hot path.  The base implementation runs
        serially, checking the deadline between tasks.
        """
        outcomes: List[TaskOutcome] = []
        for index, task in enumerate(tasks):
            if deadline_at is not None and time.monotonic() >= deadline_at:
                outcomes.append(TaskOutcome(index=index, cut=True))
                continue
            try:
                outcomes.append(TaskOutcome(index=index, result=run_client_task(task)))
            except Exception as err:
                outcomes.append(TaskOutcome(index=index, error=err))
        return outcomes

    def map_fn(self, fn: Callable, items: Iterable) -> List:
        """Generic order-preserving fan-out for non-task work.

        ``fn`` must be a module-level function so the process backend can
        pickle it by name.  Defense-side per-update work (REFD scoring) uses
        this to reuse the round's worker pool.  The base implementation runs
        serially; :class:`ThreadedExecutor` overlaps numpy-heavy calls on its
        thread pool; :class:`ParallelExecutor` runs them on its process pool.
        """
        return [fn(item) for item in items]

    def counter_snapshot(self) -> Dict[str, int]:
        """This executor's observability counters (empty for stateless
        backends).  :meth:`DispatchPolicy.counter_snapshot
        <repro.fl.dispatch_policy.DispatchPolicy.counter_snapshot>` merges
        these into the per-policy view surfaced by ``--stats-json``."""
        return {}

    def close(self) -> None:
        """Release any pooled workers (idempotent)."""

    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(ClientExecutor):
    """Run tasks one after another in the calling process (the default)."""

    name = "serial"

    def map(self, tasks: Sequence[ClientTask]) -> List[ClientTaskResult]:
        return [run_client_task(task) for task in tasks]


class ThreadedExecutor(ClientExecutor):
    """Thread-pool fan-out.

    numpy releases the GIL inside its kernels, so threads overlap the heavy
    matmul/conv work without any pickling cost.  This is the fallback for
    platforms where process pools are unavailable or fork is unsafe.
    """

    name = "thread"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers or default_worker_count()
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def map(self, tasks: Sequence[ClientTask]) -> List[ClientTaskResult]:
        return list(self._ensure_pool().map(run_client_task, tasks))

    def map_detailed(
        self, tasks: Sequence[ClientTask], deadline_at: Optional[float] = None
    ) -> List[TaskOutcome]:
        pool = self._ensure_pool()
        futures = [pool.submit(run_client_task, task) for task in tasks]
        timeout = None
        if deadline_at is not None:
            timeout = max(0.0, deadline_at - time.monotonic())
        _done, not_done = _futures_wait(set(futures), timeout=timeout)
        outcomes: List[TaskOutcome] = []
        for index, future in enumerate(futures):
            if future in not_done:
                # A running thread cannot be killed; cancel what we can and
                # abandon the rest (their results are discarded).
                future.cancel()
                outcomes.append(TaskOutcome(index=index, cut=True))
                continue
            try:
                outcomes.append(TaskOutcome(index=index, result=future.result()))
            except Exception as err:
                outcomes.append(TaskOutcome(index=index, error=err))
        return outcomes

    def map_fn(self, fn: Callable, items: Iterable) -> List:
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ParallelExecutor(ClientExecutor):
    """Process-pool fan-out: true multi-core execution of the client round.

    Requires every task field to pickle (see the module docstring).  The pool
    is created lazily on first use and reused across rounds, so the process
    start-up cost is paid once per simulation rather than once per round.

    When ``use_shared_memory`` is enabled (the default):

    * a round whose tasks all broadcast the same global parameter vector
      (identity *or* value equality) publishes that vector once per round
      via :class:`SharedParamsLease` instead of pickling it into every task;
    * the simulation publishes every client's round-invariant data shard
      once per simulation in a :class:`SharedArrayStore` and tasks carry
      only a :class:`ShardRef` (see
      :attr:`~ClientExecutor.supports_shard_store`);
    * :meth:`map_fn` runs module-level work functions on the same pool,
      which is how REFD D-score inference runs across processes.

    Set it to ``False`` to force inline payloads (e.g. on platforms without
    POSIX shared memory).
    """

    name = "process"

    def __init__(
        self, workers: Optional[int] = None, use_shared_memory: bool = True
    ) -> None:
        self.workers = workers or default_worker_count()
        self.use_shared_memory = use_shared_memory
        self.shm_rounds = 0
        """Number of rounds dispatched through the shared-memory params path."""
        self.shard_rounds = 0
        """Number of rounds whose tasks carried shard-store refs instead of
        inline image/label arrays."""
        self.fanout_calls = 0
        """Number of work items shipped to the pool through :meth:`map_fn`."""
        self.pool_rebuilds = 0
        """Number of times a broken or deadline-cut pool was torn down and
        replaced mid-simulation."""
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def supports_shard_store(self) -> bool:
        return self.use_shared_memory

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

    def _broadcast_vector(self, tasks: Sequence[ClientTask]) -> Optional[np.ndarray]:
        """The round's common parameter vector, or ``None`` if not shareable.

        Tasks usually broadcast the *same object*, but equal-valued distinct
        vectors (e.g. defensive per-task copies) are recognised too — via
        :func:`np.shares_memory` first (cheap view check), then an exact
        ``array_equal`` fallback — so the shm path is not silently skipped.
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

    def map(self, tasks: Sequence[ClientTask]) -> List[ClientTaskResult]:
        tasks = list(tasks)
        vector = self._broadcast_vector(tasks)
        lease: Optional[SharedParamsLease] = None
        if vector is not None:
            try:
                lease = SharedParamsLease(vector)
            except (ImportError, OSError):  # pragma: no cover - no POSIX shm
                lease = None
        if lease is not None:
            tasks = [
                dataclasses.replace(task, global_params=None, params_ref=lease.ref)
                for task in tasks
            ]
        try:
            try:
                results = list(self._ensure_pool().map(run_client_task, tasks))
            except BrokenProcessPool:
                # Workers can die *between* rounds of one simulation (OOM
                # kill, spot preemption); tasks are pure functions of their
                # payloads, so rebuilding the pool and re-running the whole
                # batch once is bit-identical.  A second break propagates.
                self._discard_pool()
                results = list(self._ensure_pool().map(run_client_task, tasks))
        finally:
            if lease is not None:
                lease.release()
        if lease is not None:
            self.shm_rounds += 1
        if any(task.shard_ref is not None for task in tasks):
            self.shard_rounds += 1
        return results

    def map_detailed(
        self, tasks: Sequence[ClientTask], deadline_at: Optional[float] = None
    ) -> List[TaskOutcome]:
        tasks = list(tasks)
        vector = self._broadcast_vector(tasks)
        lease: Optional[SharedParamsLease] = None
        if vector is not None:
            try:
                lease = SharedParamsLease(vector)
            except (ImportError, OSError):  # pragma: no cover - no POSIX shm
                lease = None
        run_tasks = tasks
        if lease is not None:
            run_tasks = [
                dataclasses.replace(task, global_params=None, params_ref=lease.ref)
                for task in tasks
            ]
        outcomes = [TaskOutcome(index=index) for index in range(len(tasks))]
        futures: Dict[object, int] = {}
        try:
            submit_error: Optional[BaseException] = None
            try:
                pool = self._ensure_pool()
                for index, task in enumerate(run_tasks):
                    futures[pool.submit(run_client_task, task)] = index
            except BrokenProcessPool as err:
                submit_error = err
            timeout = None
            if deadline_at is not None:
                timeout = max(0.0, deadline_at - time.monotonic())
            done, not_done = _futures_wait(set(futures), timeout=timeout)
            broken = submit_error is not None
            for future in done:
                index = futures[future]
                try:
                    outcomes[index].result = future.result()
                except Exception as err:
                    outcomes[index].error = err
                    if isinstance(err, BrokenProcessPool):
                        broken = True
            for future in not_done:
                future.cancel()
                outcomes[futures[future]].cut = True
            submitted = set(futures.values())
            for index in range(len(tasks)):
                if index not in submitted:
                    outcomes[index].error = submit_error or BrokenProcessPool(
                        "task was never submitted"
                    )
            if not_done:
                # Deadline-cut stragglers hold pool slots; kill the workers
                # so retries start on a clean pool.
                self._discard_pool(terminate=True)
            elif broken:
                self._discard_pool()
        finally:
            if lease is not None:
                lease.release()
        if lease is not None:
            self.shm_rounds += 1
        if any(task.shard_ref is not None for task in tasks):
            self.shard_rounds += 1
        return outcomes

    def map_fn(self, fn: Callable, items: Iterable) -> List:
        items = list(items)
        results = list(self._ensure_pool().map(fn, items))
        self.fanout_calls += len(items)
        return results

    def counter_snapshot(self) -> Dict[str, int]:
        return {
            "shm_rounds": self.shm_rounds,
            "shard_rounds": self.shard_rounds,
            "fanout_calls": self.fanout_calls,
            "pool_rebuilds": self.pool_rebuilds,
        }

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
