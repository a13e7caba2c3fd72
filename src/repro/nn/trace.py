"""Trace-recorded VJP replay with buffer planning.

The eager engine in :mod:`repro.nn.tensor` rebuilds a closure graph on
every forward/backward step.  This module records that step *once* per
``(model signature, input shape, dtype)`` as an op-level tape and then
replays the tape through a :class:`CompiledPlan`: a flat list of
pre-compiled forward and backward callables whose activation, saved and
gradient storage is laid out once and reused across steps.

Lifecycle
---------
1. **Record** — :meth:`TraceSession.step` sees an unseen signature, runs
   the step eagerly with a :class:`TraceRecorder` hooked into
   ``Tensor._from_op``, and (when every op carried a trace descriptor)
   finalizes the tape.  The recording step *is* an eager step, so its
   result is trivially bit-identical.
2. **Replay** — subsequent steps with the same signature execute the
   compiled program.  Kernels perform exactly the numpy expressions the
   eager closures perform, in the same order, so replay is bit-identical
   to eager under a fixed seed (covered by the trace test suite).
3. **Fallback** — an op without a descriptor (``**``, ``sum``,
   negation, ``softmax``, the transposed convolution, ...) poisons the
   recording and pins that signature to eager execution permanently.
   Kernels exist only for the ops the shipped classifiers' training
   steps record, so nothing else is replayable.

Memory
------
Plans run one at a time (nn code runs on one thread per process) and no
plan reads a buffer across steps, so every plan in a process draws its
buffers from one :class:`BufferArena`, each plan laying its buffers out
from offset 0.  Trace memory is therefore the largest plan, not the sum
over every batch shape a federation produces.  Buffers whose contents
must survive from one step to the next are the exception: the
root-gradient seed is plan-owned memory, and a kernel re-establishes any
other such contents on every step.

The backward schedule replicates ``Tensor.backward``'s DFS topological
order and gradient-accumulation order exactly: "store" vs "add" per edge
is resolved statically by simulating the eager algorithm on the recorded
graph, so multi-consumer values (GRU hidden state) accumulate in the
same float order as eager.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import tensor as tensor_module
from .tensor import Tensor

__all__ = [
    "TraceUnsupported",
    "TraceRecorder",
    "Trace",
    "CompiledPlan",
    "BufferArena",
    "plan_bytes",
    "TraceSession",
    "register_trace_op",
    "registered_trace_ops",
    "session_for",
    "reset_trace_cache",
    "trace_counters",
]


class TraceUnsupported(RuntimeError):
    """The recorded step cannot be replayed; callers fall back to eager."""


# ----------------------------------------------------------------------
# Op registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpSpec:
    """A replayable op: compile-time forward and VJP kernel builders.

    ``forward``/``vjp`` are *compilers*: called once per plan with an
    :class:`OpContext`, they bind buffers and return the per-step callable,
    which calls numpy directly.  Both must be module-level named functions
    (the ``TR002`` lint rule), so a worker process rebuilding plans after
    import sees the same registry.
    """

    name: str
    forward: Callable
    vjp: Callable


OP_REGISTRY: Dict[str, OpSpec] = {}


def register_trace_op(name: str, forward: Callable, vjp: Callable) -> None:
    """Register the forward/VJP kernel builders for op ``name``.

    Must be called at module import time with module-level functions, so
    a worker process that imports the defining module rebuilds the same
    registry — the ``TR002`` lint rule enforces this statically.
    """
    OP_REGISTRY[name] = OpSpec(name, forward, vjp)


def registered_trace_ops() -> List[str]:
    """Names of all replayable ops, sorted."""
    return sorted(OP_REGISTRY)


# ----------------------------------------------------------------------
# Recorded structure
# ----------------------------------------------------------------------
KIND_NODE = "node"
KIND_PARAM = "param"
KIND_INPUT = "input"
KIND_CONST = "const"
KIND_EXT = "ext"


@dataclass(frozen=True)
class ExtArg:
    """Marker for a kwarg array rebound per step (e.g. the target labels)."""

    slot: int


@dataclass
class SlotInfo:
    kind: str
    shape: Tuple[int, ...]
    dtype: np.dtype
    const: Optional[np.ndarray] = None
    param_index: Optional[int] = None
    name: Optional[str] = None
    requires_grad: bool = False
    tensor: Optional[Tensor] = None  # record-time only; dropped at finalize


@dataclass
class TraceNode:
    op: str
    parents: Tuple[int, ...]
    out: int
    kwargs: Dict[str, object]
    requires_grad: bool


@dataclass
class BackwardStep:
    """One VJP emission: node index plus its gradient sinks.

    ``edges`` maps parent position -> ("store" | "add"); the order and
    store/add split replicate the eager accumulation exactly.
    """

    node_index: int
    edges: Dict[int, str] = field(default_factory=dict)


class Trace:
    """An immutable recorded tape plus its derived backward schedule."""

    def __init__(
        self,
        nodes: List[TraceNode],
        slots: List[SlotInfo],
        loss_slot: int,
        input_slots: Dict[str, int],
        ext_slots: Dict[str, int],
        param_slots: List[Tuple[int, int]],
    ) -> None:
        self.nodes = nodes
        self.slots = slots
        self.loss_slot = loss_slot
        self.input_slots = input_slots
        self.ext_slots = ext_slots
        self.param_slots = param_slots  # (slot, parameter index) pairs
        self.forward_indices = self._needed_forward()
        self.backward_steps, self.grad_param_slots = self._build_schedule()
        # Arena bytes a plan of this tape lays out; set by the first
        # compile's sizing pass.
        self.plan_bytes: Optional[int] = None

    # -- schedule ------------------------------------------------------
    def _needed_forward(self) -> List[int]:
        """Indices of nodes that feed the loss, in recorded order."""
        producer = {node.out: i for i, node in enumerate(self.nodes)}
        if self.loss_slot not in producer:
            raise TraceUnsupported("loss is not the output of a recorded op")
        needed = {self.loss_slot}
        for i in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[i]
            if node.out in needed:
                needed.update(node.parents)
        return [i for i, node in enumerate(self.nodes) if node.out in needed]

    def _build_schedule(self) -> Tuple[List[BackwardStep], List[Tuple[int, int]]]:
        """Replicate ``Tensor.backward``'s DFS order and accumulation modes."""
        producer = {node.out: i for i, node in enumerate(self.nodes)}

        def effective_parents(slot: int) -> Tuple[int, ...]:
            info = self.slots[slot]
            if info.kind != KIND_NODE or not info.requires_grad:
                return ()
            return self.nodes[producer[slot]].parents

        topo: List[int] = []
        visited: set = set()
        stack: List[Tuple[int, bool]] = [(self.loss_slot, False)]
        while stack:
            slot, processed = stack.pop()
            if processed:
                topo.append(slot)
                continue
            if slot in visited:
                continue
            visited.add(slot)
            stack.append((slot, True))
            for parent in effective_parents(slot):
                if parent not in visited:
                    stack.append((parent, False))

        steps: List[BackwardStep] = []
        grad_params: List[Tuple[int, int]] = []
        present = {self.loss_slot}
        for slot in reversed(topo):
            if slot not in present:
                continue
            info = self.slots[slot]
            if info.kind == KIND_PARAM:
                grad_params.append((slot, info.param_index))
                continue
            if info.kind != KIND_NODE or not info.requires_grad:
                continue
            node_index = producer[slot]
            node = self.nodes[node_index]
            step = BackwardStep(node_index)
            for pos, parent in enumerate(node.parents):
                if not self.slots[parent].requires_grad:
                    continue
                step.edges[pos] = "add" if parent in present else "store"
                present.add(parent)
            steps.append(step)
        return steps, grad_params


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
_STATIC_INDEX_TYPES = (int, slice, type(None), type(Ellipsis))


class TraceRecorder:
    """Observes ``Tensor._from_op`` during one eager step and builds a tape."""

    def __init__(self, externals: Dict[str, np.ndarray]) -> None:
        self.externals = dict(externals)
        self._ext_name_by_id = {id(array): name for name, array in externals.items()}
        self.slots: List[SlotInfo] = []
        self.nodes: List[TraceNode] = []
        self._slot_of: Dict[int, int] = {}
        self._ext_slot: Dict[str, int] = {}
        self._keepalive: List[object] = []
        self.failed: Optional[str] = None

    # -- bookkeeping ---------------------------------------------------
    def fail(self, reason: str) -> None:
        """Poison the recording; the signature will stay on eager execution."""
        if self.failed is None:
            self.failed = reason

    def _new_slot(self, info: SlotInfo) -> int:
        self.slots.append(info)
        return len(self.slots) - 1

    def _slot_for(self, tensor: Tensor) -> Optional[int]:
        key = id(tensor)
        slot = self._slot_of.get(key)
        if slot is not None:
            return slot
        # Keep every observed tensor alive for the duration of the
        # recording: id() keys are only unique among live objects.
        self._keepalive.append(tensor)
        data = tensor.data
        if tensor.requires_grad and tensor._backward is None:
            slot = self._new_slot(
                SlotInfo(
                    KIND_PARAM, data.shape, data.dtype, requires_grad=True, tensor=tensor
                )
            )
        elif id(data) in self._ext_name_by_id:
            name = self._ext_name_by_id[id(data)]
            slot = self._new_slot(SlotInfo(KIND_INPUT, data.shape, data.dtype, name=name))
        elif tensor.requires_grad:
            self.fail("tensor with gradient history created outside the recorded step")
            return None
        else:
            slot = self._new_slot(
                SlotInfo(KIND_CONST, data.shape, data.dtype, const=data.copy())
            )
        self._slot_of[key] = slot
        return slot

    def _ext_slot_for(self, array: np.ndarray) -> Optional[int]:
        name = self._ext_name_by_id.get(id(array))
        if name is None:
            return None
        slot = self._ext_slot.get(name)
        if slot is None:
            slot = self._new_slot(SlotInfo(KIND_EXT, array.shape, array.dtype, name=name))
            self._ext_slot[name] = slot
        return slot

    def _freeze_value(self, value):
        """Static (picklable, step-invariant) form of a kwarg value."""
        if isinstance(value, np.ndarray):
            slot = self._ext_slot_for(value)
            if slot is None:
                raise _FreezeError(
                    "op kwarg references an array that is neither a declared "
                    "step input nor a constant"
                )
            return ExtArg(slot)
        if isinstance(value, _STATIC_INDEX_TYPES) or isinstance(value, (float, bool, str)):
            return value
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, tuple):
            return tuple(self._freeze_value(item) for item in value)
        raise _FreezeError(f"op kwarg of type {type(value).__name__} is not traceable")

    # -- the hook ------------------------------------------------------
    def record_op(
        self,
        out: Tensor,
        parents: Tuple[Tensor, ...],
        op: Optional[Tuple[str, Dict[str, object]]],
    ) -> None:
        if self.failed is not None:
            return
        if op is None:
            self.fail("op without a trace descriptor")
            return
        name, kwargs = op
        if name not in OP_REGISTRY:
            self.fail(f"op '{name}' has no registered trace kernels")
            return
        parent_slots: List[int] = []
        for parent in parents:
            slot = self._slot_for(parent)
            if slot is None:
                return
            parent_slots.append(slot)
        try:
            frozen = {key: self._freeze_value(value) for key, value in kwargs.items()}
        except _FreezeError as exc:
            self.fail(f"op '{name}': {exc}")
            return
        data = out.data
        out_slot = self._new_slot(
            SlotInfo(KIND_NODE, data.shape, data.dtype, requires_grad=out.requires_grad)
        )
        self._slot_of[id(out)] = out_slot
        self._keepalive.append(out)
        self.nodes.append(
            TraceNode(name, tuple(parent_slots), out_slot, frozen, out.requires_grad)
        )

    # -- finalize ------------------------------------------------------
    def finalize(self, loss: Tensor, model) -> Trace:
        """Validate the recording against ``model`` and build the tape."""
        if self.failed is not None:
            raise TraceUnsupported(self.failed)
        loss_slot = self._slot_of.get(id(loss))
        if loss_slot is None or self.slots[loss_slot].kind != KIND_NODE:
            raise TraceUnsupported("loss tensor was not produced by a recorded op")
        if int(np.prod(self.slots[loss_slot].shape)) != 1:
            raise TraceUnsupported("loss must be a scalar")
        params = model.parameters()
        index_of = {id(param): i for i, param in enumerate(params)}
        param_slots: List[Tuple[int, int]] = []
        for slot, info in enumerate(self.slots):
            if info.kind != KIND_PARAM:
                continue
            param_index = index_of.get(id(info.tensor))
            if param_index is None:
                raise TraceUnsupported(
                    "a gradient leaf used in the step is not a model parameter"
                )
            info.param_index = param_index
            info.tensor = None  # the trace must not pin the recorded model
            param_slots.append((slot, param_index))
        input_slots = {
            info.name: slot
            for slot, info in enumerate(self.slots)
            if info.kind == KIND_INPUT
        }
        ext_slots = dict(self._ext_slot)
        return Trace(self.nodes, self.slots, loss_slot, input_slots, ext_slots, param_slots)


class _FreezeError(ValueError):
    pass


# ----------------------------------------------------------------------
# Buffer arena
# ----------------------------------------------------------------------
#: Byte alignment of every arena view (one cache line).
ARENA_ALIGNMENT = 64


def _aligned(nbytes: int) -> int:
    return -(-nbytes // ARENA_ALIGNMENT) * ARENA_ALIGNMENT


class BufferArena:
    """The process's backing store for the buffers of every plan.

    Each plan lays its buffers out from offset 0, so plans overlap one
    another and the arena holds as many bytes as the largest plan.  Views
    are exact-shape, C-contiguous and 64-byte aligned.
    """

    def __init__(self) -> None:
        self.nbytes = 0
        self._store: Optional[np.ndarray] = None

    def grow(self, nbytes: int) -> None:
        """Replace the store with one of ``nbytes``; old views go stale.

        The old store is dropped before the new one is allocated, so the
        arena never holds both.
        """
        self.release()
        raw = np.empty(nbytes + ARENA_ALIGNMENT, dtype=np.uint8)
        start = -raw.ctypes.data % ARENA_ALIGNMENT
        self._store = raw[start : start + nbytes]
        self.nbytes = nbytes

    def release(self) -> None:
        self._store = None
        self.nbytes = 0

    def view(self, offset: int, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        end = offset + int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if self._store is None or end > self.nbytes:
            raise RuntimeError("plan outgrew its arena; reserve plan_bytes() first")
        return self._store[offset:end].view(dtype).reshape(shape)


class _SizingArena:
    """Stands in for an arena while a plan is compiled only to be sized.

    It hands out zero-stride probes of the requested shape, so no buffer
    is allocated.  Kernel builders only take views of their buffers at
    compile time, and a probe supports every view they take.
    """

    def view(self, offset: int, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        return np.lib.stride_tricks.as_strided(
            np.zeros(1, dtype), shape=shape, strides=(0,) * len(shape), writeable=True
        )


_SIZING = _SizingArena()


# ----------------------------------------------------------------------
# Compilation: contexts, sinks, plans
# ----------------------------------------------------------------------
class Sink:
    """Gradient target for one (node, parent) edge.

    ``out`` is the array the kernel writes its parent gradient into: the
    parent's plan-owned gradient buffer for "store" edges (fused, no
    copy), or an edge scratch buffer for "add" edges.  ``commit()``
    folds a scratch into the parent buffer; ``write(arr)`` is the
    convenience path for kernels that produced the gradient elsewhere.
    """

    __slots__ = ("out", "mode", "_target")

    def __init__(self, target: np.ndarray, mode: str, scratch) -> None:
        self._target = target
        self.mode = mode
        self.out = target if mode == "store" else scratch

    def commit(self) -> None:
        if self.mode == "add":
            np.add(self._target, self.out, out=self._target)

    def write(self, array) -> None:
        if self.mode == "store":
            np.copyto(self._target, array)
        else:
            np.add(self._target, array, out=self._target)


class OpContext:
    """Compile-time view of one node handed to the registered kernels."""

    def __init__(self, plan: "CompiledPlan", node_index: int) -> None:
        self._plan = plan
        self.node_index = node_index
        self.node = plan.trace.nodes[node_index]
        self.parents = self.node.parents
        self.out = self.node.out
        self._edges: Dict[int, str] = {}

    # -- shapes --------------------------------------------------------
    def shape(self, slot: int) -> Tuple[int, ...]:
        return self._plan.trace.slots[slot].shape

    def dtype(self, slot: int) -> np.dtype:
        return self._plan.trace.slots[slot].dtype

    @property
    def kwargs(self) -> Dict[str, object]:
        return self.node.kwargs

    @property
    def out_shape(self) -> Tuple[int, ...]:
        return self.shape(self.out)

    @property
    def out_dtype(self) -> np.dtype:
        return self.dtype(self.out)

    # -- storage -------------------------------------------------------
    def alloc_out(self) -> np.ndarray:
        """Stable output buffer for this node's value."""
        return self._plan._buffer(self.out)

    def scratch(self, name: str, shape, dtype) -> np.ndarray:
        """Per-node saved/scratch buffer (shared between forward and VJP).

        It lives in the process's arena and holds nothing from one step to
        the next.  Each ``(node, name)`` gets storage of its own: no two
        entries of the plan's saved map overlap.
        """
        return self._plan._scratch(self.node_index, name, shape, dtype)

    def saved(self, name: str) -> np.ndarray:
        """A buffer the forward kernel of this node registered."""
        return self._plan.saved[(self.node_index, name)]

    def saved_output(self) -> np.ndarray:
        """The stable output buffer this node's forward kernel allocated."""
        return self._plan.buffers[self.out]

    # -- gradients (backward compile only) -----------------------------
    def grad_in(self) -> np.ndarray:
        """The (already accumulated) gradient buffer of this node's output."""
        return self._plan._grad_buffer(self.out)

    def sink(self, pos: int) -> Optional[Sink]:
        """Gradient sink for parent ``pos``; None when no gradient flows."""
        mode = self._edges.get(pos)
        if mode is None:
            return None
        parent = self.parents[pos]
        target = self._plan._grad_buffer(parent)
        scratch = None
        if mode == "add":
            scratch = self._plan._scratch(
                self.node_index,
                f"edge{pos}",
                self._plan.trace.slots[parent].shape,
                self._plan.trace.slots[parent].dtype,
            )
        return Sink(target, mode, scratch)


class CompiledPlan:
    """A trace bound to arena buffers and compiled step programs.

    Buffers are views of ``arena`` laid out from offset 0, and
    ``nbytes`` is how far they reach; the arena must already hold
    :func:`plan_bytes` bytes.  Compiling against the sizing arena only
    counts them.
    """

    def __init__(self, trace: Trace, arena: Union[BufferArena, _SizingArena]) -> None:
        self.trace = trace
        self.arena = arena
        self.nbytes = 0
        self.buffers: Dict[int, np.ndarray] = {}
        self.saved: Dict[Tuple[int, str], np.ndarray] = {}
        self.grads: Dict[int, np.ndarray] = {}
        self._vals: List[Optional[np.ndarray]] = [None] * len(trace.slots)
        for slot, info in enumerate(trace.slots):
            if info.kind == KIND_CONST:
                self._vals[slot] = info.const
        # The root gradient: eager seeds backward() with ones.  Written
        # once, so it must not share the arena with other plans.
        loss_info = trace.slots[trace.loss_slot]
        self.grads[trace.loss_slot] = np.ones(loss_info.shape, loss_info.dtype)
        self._forward_program: List[Callable] = []
        self._backward_program: List[Callable] = []
        self.steps_replayed = 0
        self._compile()
        self._loss_buf = self._vals_buffer_for_loss()

    # -- storage helpers ----------------------------------------------
    def _alloc(self, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        shape = tuple(shape)
        offset = self.nbytes
        self.nbytes += _aligned(int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        return self.arena.view(offset, shape, dtype)

    def _buffer(self, slot: int) -> np.ndarray:
        buf = self.buffers.get(slot)
        if buf is None:
            info = self.trace.slots[slot]
            buf = self._alloc(info.shape, info.dtype)
            self.buffers[slot] = buf
        return buf

    def _scratch(self, node_index: int, name: str, shape, dtype) -> np.ndarray:
        key = (node_index, name)
        buf = self.saved.get(key)
        if buf is None:
            buf = self._alloc(shape, dtype)
            self.saved[key] = buf
        return buf

    def _grad_buffer(self, slot: int) -> np.ndarray:
        buf = self.grads.get(slot)
        if buf is None:
            info = self.trace.slots[slot]
            buf = self._alloc(info.shape, info.dtype)
            self.grads[slot] = buf
        return buf

    def _vals_buffer_for_loss(self) -> np.ndarray:
        buf = self.buffers.get(self.trace.loss_slot)
        if buf is None:
            raise TraceUnsupported("loss op did not allocate a stable output buffer")
        return buf

    # -- compilation ---------------------------------------------------
    def _compile(self) -> None:
        for node_index in self.trace.forward_indices:
            node = self.trace.nodes[node_index]
            spec = OP_REGISTRY.get(node.op)
            if spec is None:
                raise TraceUnsupported(f"op '{node.op}' has no registered trace kernels")
            self._forward_program.append(spec.forward(OpContext(self, node_index)))
        for step in self.trace.backward_steps:
            node = self.trace.nodes[step.node_index]
            spec = OP_REGISTRY[node.op]
            ctx = OpContext(self, step.node_index)
            ctx._edges = step.edges
            self._backward_program.append(spec.vjp(ctx))

    # -- execution -----------------------------------------------------
    def run(self, arrays: Dict[str, np.ndarray], params: Sequence) -> float:
        """Replay one training step; leaves gradients on ``params``.

        The gradients are arena views: they stay valid until the next
        traced step.
        """
        vals = self._vals
        trace = self.trace
        for name, slot in trace.input_slots.items():
            vals[slot] = arrays[name]
        for name, slot in trace.ext_slots.items():
            vals[slot] = arrays[name]
        for slot, param_index in trace.param_slots:
            vals[slot] = params[param_index].data
        for fn in self._forward_program:
            fn(vals)
        for fn in self._backward_program:
            fn(vals)
        for slot, param_index in trace.grad_param_slots:
            params[param_index].grad = self.grads[slot]
        self.steps_replayed += 1
        return float(self._loss_buf)


def plan_bytes(trace: Trace) -> int:
    """Arena bytes a plan of ``trace`` spans, sized without allocating.

    Raises :class:`TraceUnsupported` for tapes that cannot be compiled.
    """
    if trace.plan_bytes is None:
        trace.plan_bytes = CompiledPlan(trace, _SIZING).nbytes
    return trace.plan_bytes


# ----------------------------------------------------------------------
# Session + process-wide cache
# ----------------------------------------------------------------------
_TRACES: Dict[tuple, Union[Trace, str]] = {}
_COUNTERS = {"records": 0, "replays": 0, "fallbacks": 0}
_ARENA = BufferArena()
_PLANS: Dict[tuple, CompiledPlan] = {}


def _bind(key: tuple, trace: Trace) -> CompiledPlan:
    """Compile ``trace`` into the arena, growing the arena first if needed."""
    needed = plan_bytes(trace)
    if needed > _ARENA.nbytes:
        # Growth stales every bound plan.  Dropping them first frees the old
        # store before the new one is allocated; they rebind lazily from
        # their cached tapes.
        _PLANS.clear()
        _ARENA.grow(needed)
    plan = _PLANS[key] = CompiledPlan(trace, _ARENA)
    return plan


def trace_counters() -> Dict[str, int]:
    """Record/replay/fallback counts plus the bytes the arena holds."""
    return {**_COUNTERS, "arena_bytes": _ARENA.nbytes}


def reset_trace_cache() -> None:
    """Drop every cached tape, counter and plan, and release the arena."""
    _TRACES.clear()
    for key in _COUNTERS:
        _COUNTERS[key] = 0
    _PLANS.clear()
    _ARENA.release()


def session_for(model) -> Optional["TraceSession"]:
    """A trace session for ``model``, or None when it declares no signature.

    Models opt in by exposing a hashable ``trace_signature`` attribute
    (the factories in :mod:`repro.models` declare one); everything else —
    generators, filter nets, ad-hoc test modules — stays eager.
    """
    signature = getattr(model, "trace_signature", None)
    if signature is None:
        return None
    return TraceSession(model, signature)


class TraceSession:
    """Per-model-instance handle onto the process-wide trace cache.

    Tapes are cached by ``(model signature, input/target shape+dtype)``
    and shared across model instances, as are the compiled plans bound to
    the process's arena.  Binding a cached tape to this
    session's model only requires the parameter list to match in shape
    and dtype — parameter *values* are read live from ``param.data`` on
    every step, so ``set_flat_params`` swaps between rounds just work.
    """

    def __init__(self, model, signature) -> None:
        self.model = model
        self.signature = signature
        self._params = model.parameters()
        self._validated: set = set()

    # -- keys ----------------------------------------------------------
    def _key(self, x: np.ndarray, y: np.ndarray) -> tuple:
        return (self.signature, x.shape, x.dtype.str, y.shape, y.dtype.str)

    # -- the public step ----------------------------------------------
    def step(self, x: np.ndarray, y: np.ndarray) -> Optional[float]:
        """Run one forward/backward for ``(x, y)``; None means "go eager".

        Returns the loss as a float when the step was handled (either by
        replaying a cached tape or by the recording step itself, which
        runs eagerly).  Gradients are left on the model parameters exactly
        as ``loss.backward()`` would leave them.
        """
        key = self._key(x, y)
        entry = _TRACES.get(key)
        if entry is None:
            return self._record(key, x, y)
        if isinstance(entry, str):
            return None
        plan = self._plan(key, entry)
        if plan is None:
            return None
        _COUNTERS["replays"] += 1
        return plan.run({"x": x, "y": y}, self._params)

    # -- record --------------------------------------------------------
    def _record(self, key: tuple, x: np.ndarray, y: np.ndarray) -> Optional[float]:
        from . import functional as F

        recorder = TraceRecorder({"x": x, "y": y})
        tensor_module._TRACE_STATE.recorder = recorder
        try:
            logits = self.model(Tensor(x))
            loss = F.cross_entropy(logits, y)
        finally:
            tensor_module._TRACE_STATE.recorder = None
        loss.backward()
        loss_value = float(loss.item())
        try:
            trace = recorder.finalize(loss, self.model)
            # Size the plan now so unsupported compile-time cases (batched
            # matmul broadcasts, odd dtypes) also fall back.  Binding waits
            # for the first replay.
            plan_bytes(trace)
        except TraceUnsupported as exc:
            _TRACES[key] = str(exc)
            _COUNTERS["fallbacks"] += 1
            return loss_value
        _TRACES[key] = trace
        _COUNTERS["records"] += 1
        self._validated.add(key)
        return loss_value

    # -- plans ---------------------------------------------------------
    def _plan(self, key: tuple, trace: Trace) -> Optional[CompiledPlan]:
        if key not in self._validated:
            if not self._binds(trace):
                return None
            self._validated.add(key)
        plan = _PLANS.get(key)
        if plan is None:
            plan = _bind(key, trace)
        return plan

    def _binds(self, trace: Trace) -> bool:
        for slot, param_index in trace.param_slots:
            if param_index >= len(self._params):
                return False
            info = trace.slots[slot]
            param = self._params[param_index]
            if param.data.shape != info.shape or param.data.dtype != info.dtype:
                return False
        return True

    # -- introspection (tests, benchmarks) -----------------------------
    def plan_for(self, x: np.ndarray, y: np.ndarray) -> Optional[CompiledPlan]:
        """The compiled plan for this input signature, if any."""
        key = self._key(x, y)
        entry = _TRACES.get(key)
        if entry is None or isinstance(entry, str):
            return None
        return self._plan(key, entry)

    def fallback_reason(self, x: np.ndarray, y: np.ndarray) -> Optional[str]:
        """Why this signature is pinned to eager execution, if it is."""
        entry = _TRACES.get(self._key(x, y))
        return entry if isinstance(entry, str) else None


# Kernel registrations live in trace_ops; importing it populates
# OP_REGISTRY.  The import sits at the bottom because trace_ops imports
# register_trace_op from this module.
from . import trace_ops as _trace_ops  # noqa: E402,F401  (registration side effect)
