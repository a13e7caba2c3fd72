"""Client-task payloads and the shared-memory data plane of the dispatch.

Each FL round trains ``clients_per_round`` independent local models; the
work units are embarrassingly parallel because every client starts from the
same broadcast global parameters and touches only its own data shard and RNG
stream.  :class:`ClientTask` captures one unit of that work as a fully
picklable payload (plain numpy arrays *or* shared-memory handles, a
:class:`LocalTrainingConfig`, and the client's RNG *state* rather than the
generator object), so :class:`~repro.fl.dispatch_policy.DispatchPolicy` can
run the same task in-process, on a thread pool, or in a worker process — and
get bit-identical results in all three cases.

Shared-memory data plane
------------------------
Two kinds of payload are identical across tasks and rounds and therefore
never need to be pickled per task:

* the **global parameter vector** is identical for every task of a round;
  a shared-memory process policy publishes it once per round through a
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
parent's address space, so there is nothing to ship.  REFD's per-update
D-score inference (:func:`repro.defenses.refd.evaluate_update`) reads the
reference images from the shard store the same way.

Determinism contract
--------------------
A client owns one :class:`numpy.random.Generator` that advances across
rounds.  :func:`run_client_task` reconstructs the generator from the
serialized state, trains, and ships the *advanced* state back so the owning
:class:`~repro.fl.client.BenignClient` can resume exactly where a serial run
would have.  Every field of a task must pickle for the process backend — in
particular ``model_factory``: closures do not pickle, so use
:class:`repro.models.ClassifierFactory` (or any module-level callable /
dataclass), as :func:`repro.experiments.runner.build_simulation` does.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

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


@dataclass
class TaskOutcome:
    """Per-task outcome of :meth:`DispatchPolicy.map_detailed
    <repro.fl.dispatch_policy.DispatchPolicy.map_detailed>`.

    Exactly one of three states: ``result`` set (success), ``error`` set
    (the task raised or its worker died), or ``cut`` true (the task was
    still running when the deadline expired and was abandoned).
    """

    index: int
    result: Optional[ClientTaskResult] = None
    error: Optional[BaseException] = None
    cut: bool = False
