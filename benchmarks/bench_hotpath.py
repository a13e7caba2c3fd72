"""Hot-path microbenchmarks: conv kernels, flat params, dispatch, REFD scoring.

Every metric compares the *current* implementation against an in-file copy of
the pre-PR ("legacy") implementation, so the speedups are machine-fair — the
baseline is recomputed on whatever machine runs the benchmark.  The
end-to-end round metric additionally records the absolute pre-PR round time
measured on the reference machine when the optimisation PR was authored (see
``PRE_PR_REFERENCE``).

Run standalone to write ``BENCH_hotpath.json``::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --output BENCH_hotpath.json

or with ``--check`` to additionally enforce the (generous) CI regression
thresholds.  It also runs under pytest like the other benchmarks::

    python -m pytest benchmarks/bench_hotpath.py

Metric notes
------------
``conv_bwd_params`` is the backward pass as the training loop actually runs
it for an input layer: the images tensor does not require grad, so the new
kernels skip the ``grad_x`` data gradient entirely (the legacy kernels
always computed it).  ``conv_step_all_grads`` is a full forward+backward with
every gradient required — the mid-layer profile.  Its data gradient adds
each kernel tap's GEMM straight into the image, where the legacy kernels
built a column matrix and scattered it back.  ``conv_memory`` records the
``tracemalloc`` peak of one forward+backward at the DFA-G generator's
``refine`` geometry, legacy and current; it is information, not a gate.
``import_floor`` records the wall time and peak resident set of a fresh
``python -c "import repro"``, the floor every worker process and CLI run
pays; also information, not a gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import platform
import subprocess
import sys
import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.defenses import Refd
from repro.experiments import benchmark_scale, build_simulation
from repro.fl.dispatch_policy import DispatchPolicy
from repro.fl.faults import ResilienceConfig
from repro.fl.executor import (
    ShardRef,
    SharedArrayStore,
    SharedParamsLease,
)
from repro.fl.training import predict_proba
from repro.models import ClassifierFactory
from repro.fl.types import DefenseContext, ModelUpdate
from repro.models import CifarCNN, SmallCNN
from repro.nn import functional as F
from repro.nn import trace as nn_trace
from repro.nn.serialization import get_flat_params, set_flat_params
from repro.nn.tensor import Tensor
from repro.utils import format_table

# Absolute end-to-end round time of the pre-PR code on the machine that
# authored the optimisation PR (serial FashionCNN/28px/REFD round, see
# ``_e2e_config``).  Kernel metrics do not use this — they re-measure their
# own legacy baselines in-process.
PRE_PR_REFERENCE = {
    "e2e_round_serial_s": 0.1290,
    "e2e_round_process2_s": 0.1420,
    "machine": "Linux-6.18.5-fc-v18-x86_64 (1 CPU, numpy 2.4.6, OpenBLAS)",
}

#: Generous CI regression thresholds (the measured speedups are well above
#: these; the slack absorbs noisy shared runners).
CHECK_THRESHOLDS = {
    "conv_fwd": 1.15,
    "conv_bwd_params": 1.5,
    "conv_step_all_grads": 1.0,
    "flat_roundtrip": 1.2,
    "refd_scoring": 1.0,
    "round_dispatch_shm": 0.7,
    # Shrink factor of a dispatched process-backend task payload once the
    # shard store carries the image/label arrays (deterministic, not timing).
    "shard_broadcast": 4.0,
    # Sanity bound, not a speedup claim: REFD process fan-out must not be
    # pathologically slower than the fused serial loop even on the 1-2 core
    # CI runners where dispatch overhead dominates; multi-core machines see
    # > 1x.
    "refd_fanout": 0.25,
    # Overhead bound for a *correctness* fix: the exact float64 distance
    # plane is necessarily slower than the float32 BLAS Gram trick it
    # replaced (which catastrophically cancelled on near-duplicate
    # updates, see bench_distance_block); ~0.05x measured, bound at 0.02x.
    "distance_block": 0.02,
    "e2e_round": 1.2,
    # Overhead bound for the fault-tolerance plane: a round under an armed
    # (but event-free) ResilienceConfig must stay within ~2% of the plain
    # round loop — the recovery machinery may not tax the fault-free path.
    "fault_hooks": 0.98,
    # Recorded-tape training vs the eager engine on a full FashionCNN/REFD
    # round at the small local batch the tape targets (per-step framework
    # overhead dominant); measured ~1.3x as the median of paired rounds.
    "trace_replay": 1.15,
}

#: Memory bound, not a speedup: after eight batch sizes of one model the
#: shared trace arena may hold at most this multiple of the largest plan
#: (deterministic, 1.0 today).
MAX_ARENA_OVER_LARGEST_PLAN = 1.05


# ----------------------------------------------------------------------
# Legacy (pre-PR) kernel implementations, kept verbatim for fair baselines
# ----------------------------------------------------------------------
def _legacy_im2col(x, kernel, stride, padding):
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            cols[:, :, i, j, :, :] = padded[:, :, i:i_end:stride, j:j_end:stride]
    return cols.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


def _legacy_col2im(cols, input_shape, kernel, stride, padding):
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def _legacy_conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor], stride, padding):
    """The pre-PR conv2d: einsum kernels, every gradient always computed."""
    x_data, w_data = x.data, weight.data
    out_channels = w_data.shape[0]
    kh, kw = w_data.shape[2], w_data.shape[3]
    cols, out_h, out_w = _legacy_im2col(x_data, (kh, kw), stride, padding)
    w_mat = w_data.reshape(out_channels, -1)
    out = np.einsum("of,nfl->nol", w_mat, cols, optimize=True)
    out = out.reshape(x_data.shape[0], out_channels, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, out_channels, 1, 1)
    input_shape = x_data.shape

    def backward(grad):
        grad_mat = grad.reshape(grad.shape[0], out_channels, -1)
        grad_w = np.einsum("nol,nfl->of", grad_mat, cols, optimize=True)
        grad_w = grad_w.reshape(w_data.shape)
        grad_cols = np.einsum("of,nol->nfl", w_mat, grad_mat, optimize=True)
        grad_x = _legacy_col2im(grad_cols, input_shape, (kh, kw), stride, padding)
        grad_b = grad.sum(axis=(0, 2, 3)) if bias is not None else None
        if bias is not None:
            return (grad_x, grad_w, grad_b)
        return (grad_x, grad_w)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(out, parents, backward)


def _legacy_get_flat_params(module, dtype=np.float64):
    chunks = [param.data.ravel().astype(dtype) for param in module.parameters()]
    if not chunks:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(chunks)


def _legacy_refd_score(update, images, model_factory):
    """Pre-PR REFD scoring: fresh model per update, list-based predict."""
    from repro.defenses.refd import balance_value, confidence_value, d_score

    model = model_factory()
    set_flat_params(model, update.parameters)
    outputs = []
    batch_size = 256
    from repro.nn.tensor import no_grad

    model.eval()
    with no_grad():
        for start in range(0, images.shape[0], batch_size):
            logits = model(Tensor(images[start : start + batch_size]))
            outputs.append(F.softmax(logits, axis=-1).data)
    probabilities = np.concatenate(outputs, axis=0)
    num_classes = probabilities.shape[1]
    predicted = probabilities.argmax(axis=1)
    counts = np.bincount(predicted, minlength=num_classes)
    balance = balance_value(counts)
    confidence = confidence_value(probabilities)
    return d_score(balance, confidence)


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------
def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_rounds(first, second, rounds: int) -> Tuple[List[float], List[float]]:
    """Round times of two live simulations, played in adjacent pairs.

    Each pair runs one round of each simulation, so both legs of a pair
    see the same machine state, and the leg that runs first alternates
    from pair to pair, so a warm-cache advantage of running second favours
    neither.  Round-level metrics gate the median of the per-pair ratios:
    on a shared host one lucky or preempted round moves a best-of-few
    ratio, but barely moves that median.
    """
    first_times: List[float] = []
    second_times: List[float] = []
    legs = ((first, first_times), (second, second_times))
    for pair in range(rounds):
        for simulation, times in legs if pair % 2 == 0 else legs[::-1]:
            start = time.perf_counter()
            simulation.run_round()
            times.append(time.perf_counter() - start)
    return first_times, second_times


def _median_ratio(numerators: List[float], denominators: List[float]) -> float:
    return float(np.median(np.divide(numerators, denominators)))


def _gate_pairs(repeats: int) -> int:
    """Round pairs behind a gate whose bound sits near 1.0×.

    Host noise on a shared runner comes in episodes that span several
    adjacent rounds.  On a 2-vCPU VM the ``fault_hooks`` median over 12
    pairs read 0.96–1.07; over 24 pairs (``--repeats 12``) it read
    0.982–1.012 in nine runs.
    """
    return max(12, 2 * repeats)


#: (name, input shape, weight shape, stride, padding) — the conv geometries
#: of the paper's primary models (FashionCNN layers 1/2, CifarCNN layer 3).
CONV_CASES = [
    ("fashion_l1", (32, 1, 28, 28), (16, 1, 3, 3), 2, 1),
    ("fashion_l2", (32, 16, 14, 14), (32, 16, 3, 3), 2, 1),
    ("cifar_l3", (32, 16, 16, 16), (32, 16, 3, 3), 1, 1),
]


def _conv_tensors(case, requires_grad_x: bool):
    _, x_shape, w_shape, stride, padding = case
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(x_shape).astype(np.float32), requires_grad=requires_grad_x)
    w = Tensor(rng.standard_normal(w_shape).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal(w_shape[0]).astype(np.float32), requires_grad=True)
    return x, w, b, stride, padding


def bench_conv_forward(repeats: int) -> Dict[str, Dict[str, float]]:
    """Forward pass, inference configuration (no gradients recorded)."""
    results = {}
    for case in CONV_CASES:
        x, w, b, stride, padding = _conv_tensors(case, requires_grad_x=False)
        x.requires_grad = False
        w.requires_grad = False
        b.requires_grad = False
        legacy = _best_of(lambda: _legacy_conv2d(x, w, b, stride, padding), repeats)
        current = _best_of(lambda: F.conv2d(x, w, b, stride=stride, padding=padding), repeats)
        results[case[0]] = {"legacy_s": legacy, "current_s": current, "speedup": legacy / current}
    return results


def bench_conv_backward_params(repeats: int) -> Dict[str, Dict[str, float]]:
    """Backward pass, input-layer training profile (grads w.r.t. w and b only).

    This is what every training step runs for the first conv layer: the
    images tensor never requires grad, so the current kernels skip the
    data gradient back to the input.  The legacy kernels computed it
    unconditionally — that waste is exactly what this metric exposes.
    """
    results = {}
    for case in CONV_CASES:
        x, w, b, stride, padding = _conv_tensors(case, requires_grad_x=False)

        legacy_out = _legacy_conv2d(x, w, b, stride, padding)
        current_out = F.conv2d(x, w, b, stride=stride, padding=padding)
        grad = np.ones_like(legacy_out.data)

        def run_legacy():
            w.grad = b.grad = None
            legacy_out.backward(grad)

        def run_current():
            w.grad = b.grad = None
            current_out.backward(grad)

        legacy = _best_of(run_legacy, repeats)
        current = _best_of(run_current, repeats)
        results[case[0]] = {"legacy_s": legacy, "current_s": current, "speedup": legacy / current}
    return results


def bench_conv_step_all_grads(repeats: int) -> Dict[str, Dict[str, float]]:
    """Forward + backward with every gradient required (mid-layer profile)."""
    results = {}
    for case in CONV_CASES:
        x, w, b, stride, padding = _conv_tensors(case, requires_grad_x=True)
        grad_shape = F.conv2d(x, w, b, stride=stride, padding=padding).shape
        grad = np.ones(grad_shape, dtype=np.float32)

        def run_legacy():
            x.grad = w.grad = b.grad = None
            _legacy_conv2d(x, w, b, stride, padding).backward(grad)

        def run_current():
            x.grad = w.grad = b.grad = None
            F.conv2d(x, w, b, stride=stride, padding=padding).backward(grad)

        legacy = _best_of(run_legacy, repeats)
        current = _best_of(run_current, repeats)
        results[case[0]] = {"legacy_s": legacy, "current_s": current, "speedup": legacy / current}
    return results


#: (input shape, weight shape, stride, padding) of the DFA-G generator's
#: 16->1 ``refine`` conv at the paper's synthesis batch of 50.
REFINE_CONV = ((50, 16, 28, 28), (1, 16, 3, 3), 1, 1)


def bench_conv_memory() -> Dict[str, int]:
    """tracemalloc peak of one eager conv forward+backward, refine geometry.

    The input needs no gradient and the weight does, as in the generator's
    synthesis steps.  Bytes, not time, and information only: no threshold
    reads it.  ``column_matrix_bytes`` is the size of the whole-batch
    ``(50, 144, 784)`` float32 column matrix.
    """
    x_shape, w_shape, stride, padding = REFINE_CONV
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(x_shape).astype(np.float32))
    w = Tensor(rng.standard_normal(w_shape).astype(np.float32), requires_grad=True)

    def peak(conv) -> int:
        w.zero_grad()
        tracemalloc.start()
        try:
            conv(x, w, None, stride, padding).sum().backward()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n, c, _, _ = x_shape
    out_h = F.conv_output_size(x_shape[2], w_shape[2], stride, padding)
    out_w = F.conv_output_size(x_shape[3], w_shape[3], stride, padding)
    return {
        "legacy_peak_bytes": peak(_legacy_conv2d),
        "current_peak_bytes": peak(
            lambda x, w, b, s, p: F.conv2d(x, w, b, stride=s, padding=p)
        ),
        "column_matrix_bytes": n * c * w_shape[2] * w_shape[3] * out_h * out_w * 4,
    }


def bench_flat_params(repeats: int) -> Dict[str, float]:
    """Flat-parameter round trip on the paper's CIFAR model (~300k params)."""
    model = CifarCNN(in_channels=3, image_size=32, width=16, rng=np.random.default_rng(0))
    clone = CifarCNN(in_channels=3, image_size=32, width=16, rng=np.random.default_rng(1))

    def legacy_roundtrip():
        set_flat_params(clone, _legacy_get_flat_params(model))

    def current_roundtrip():
        set_flat_params(clone, get_flat_params(model))

    legacy = _best_of(legacy_roundtrip, repeats)
    current = _best_of(current_roundtrip, repeats)
    return {
        "legacy_s": legacy,
        "current_s": current,
        "speedup": legacy / current,
        "legacy_nbytes": int(_legacy_get_flat_params(model).nbytes),
        "current_nbytes": int(get_flat_params(model).nbytes),
    }


def _legacy_gram_distance_scores(matrix: np.ndarray, num_malicious: int) -> np.ndarray:
    """Pre-fix ``krum_scores``: Gram-trick distances in the matrix dtype.

    Kept verbatim as the baseline for the ``distance_block`` metric.  Fast
    (one BLAS GEMM) but numerically broken: for near-duplicate float32
    updates the ``‖x‖²+‖y‖²−2x·y`` expansion cancels below float32 eps and
    the scores are noise — see ``repro.defenses.distances``.
    """
    n = matrix.shape[0]
    neighbourhood = max(n - num_malicious - 2, 1) if n >= 3 else max(n - 1, 1)
    squared_norms = (matrix ** 2).sum(axis=1)
    distances = squared_norms[:, None] + squared_norms[None, :] - 2.0 * matrix @ matrix.T
    np.fill_diagonal(distances, np.inf)
    distances = np.maximum(distances, 0.0)
    return np.sort(distances, axis=1)[:, :neighbourhood].sum(axis=1)


def bench_distance_block(repeats: int) -> Dict[str, float]:
    """Defense distance plane vs the legacy float32 Gram trick.

    10 updates × 100k float32 parameters — the paper's round shape.  The
    legacy leg is the pre-fix Gram expansion (one BLAS GEMM in float32);
    the current leg is the exact float64 row-block kernel.  The "speedup"
    is expected *below* 1: this metric is an overhead bound documenting the
    price of correct distances, plus a cancellation probe recording how
    wrong the legacy kernel is on a converged (near-duplicate) round.
    """
    from repro.defenses import krum_scores

    rng = np.random.default_rng(0)
    n, dim = 10, 100_000
    base = rng.standard_normal(dim)
    base *= 100.0 / np.linalg.norm(base)
    # Converged-round geometry: updates ~1e-3 apart at ‖x‖ ≈ 1e2, so the
    # true squared distances (~1e-6) sit below eps32·‖x‖² and the Gram
    # expansion cancels to clipped noise.
    deltas = rng.standard_normal((n, dim))
    deltas *= 5e-4 / np.linalg.norm(deltas, axis=1, keepdims=True)
    matrix = (base[None, :] + deltas).astype(np.float32)

    legacy = _best_of(lambda: _legacy_gram_distance_scores(matrix, 2), repeats)
    current = _best_of(lambda: krum_scores(matrix, 2), repeats)

    truth = krum_scores(matrix.astype(np.float64), 2)
    legacy_scores = _legacy_gram_distance_scores(matrix, 2)
    current_scores = krum_scores(matrix, 2)
    return {
        "legacy_s": legacy,
        "current_s": current,
        "speedup": legacy / current,
        "legacy_max_rel_error": float(
            np.max(np.abs(legacy_scores - truth) / np.abs(truth))
        ),
        "current_max_rel_error": float(
            np.max(np.abs(current_scores - truth) / np.abs(truth))
        ),
    }


def _refd_setup():
    rng = np.random.default_rng(0)
    factory = lambda: SmallCNN(in_channels=1, image_size=16, width=8, rng=np.random.default_rng(5))
    base = get_flat_params(factory())
    updates = [
        ModelUpdate(
            client_id=i,
            parameters=base + 0.1 * rng.standard_normal(base.shape).astype(np.float32),
            num_samples=40,
        )
        for i in range(8)
    ]
    images = rng.standard_normal((160, 1, 16, 16)).astype(np.float32)
    return factory, updates, images


def bench_refd_scoring(repeats: int) -> Dict[str, float]:
    """Per-round REFD scoring of 8 updates on a 160-image reference set."""
    factory, updates, images = _refd_setup()
    defense = Refd(num_rejected=2)
    context = DefenseContext(
        round_number=0,
        global_params=updates[0].parameters,
        expected_num_malicious=2,
        rng=np.random.default_rng(0),
        model_factory=factory,
    )

    def legacy_round():
        return [_legacy_refd_score(update, images, factory) for update in updates]

    def current_round():
        return defense.score_updates(updates, images, context)

    legacy_scores = legacy_round()
    current_scores = [report.score for report in current_round()]
    np.testing.assert_allclose(legacy_scores, current_scores, rtol=1e-12)

    legacy = _best_of(legacy_round, repeats)
    current = _best_of(current_round, repeats)
    return {"legacy_s": legacy, "current_s": current, "speedup": legacy / current}


def _e2e_config(num_rounds: int = 4):
    return benchmark_scale(
        attack="lie",
        defense="refd",
        num_rounds=num_rounds,
        architecture="fashion-cnn",
        image_size=28,
        train_size=800,
        test_size=320,
        batch_size=32,
    )


def bench_round_dispatch(repeats: int) -> Dict[str, float]:
    """Process-pool round dispatch: shared-memory broadcast vs inline pickling.

    The shm leg exercises the full shared-memory data plane — per-round
    parameter lease, once-per-simulation shard store, and REFD reference
    publication — against a fully inline dispatch.  Both simulations and
    their pools stay alive and play paired rounds; the speedup is the
    median inline/shm ratio over the pairs.
    """
    config = _e2e_config()
    inline_policy = DispatchPolicy("process", workers=2, use_shared_memory=False)
    shm_policy = DispatchPolicy("process", workers=2, use_shared_memory=True)
    with inline_policy, shm_policy:
        with build_simulation(config, policy=inline_policy) as inline_sim:
            with build_simulation(config, policy=shm_policy) as shm_sim:
                inline_sim.run_round()  # warm both pools
                shm_sim.run_round()
                inline_times, shm_times = _paired_rounds(
                    inline_sim, shm_sim, _gate_pairs(repeats)
                )
                shm_rounds = shm_policy.shm_rounds
                shard_rounds = shm_policy.shard_rounds
    return {
        "inline_s": float(np.median(inline_times)),
        "shm_s": float(np.median(shm_times)),
        "speedup": _median_ratio(inline_times, shm_times),
        "shm_rounds": shm_rounds,
        "shard_rounds": shard_rounds,
    }


def bench_shard_broadcast() -> Dict[str, float]:
    """Dispatched task payload with the shard store vs inline arrays.

    Measures the bytes a process worker receives per task *as dispatched* —
    parameters rewritten to a :class:`SharedParamsLease` ref exactly like
    ``DispatchPolicy.map_tasks`` does — with the client's image/label shard
    carried (a) inline, pickled every round, and (b) as a
    :class:`ShardRef` into the once-per-simulation shard store.  The shrink
    factor is deterministic, so it doubles as the CI regression check for
    the zero-copy task payload.
    """
    config = _e2e_config()
    results: Dict[str, float] = {}
    for label, use_shm in (("inline", False), ("shm", True)):
        policy = DispatchPolicy("process", workers=2, use_shared_memory=use_shm)
        with policy, build_simulation(config, policy=policy) as simulation:
            client = next(iter(simulation.benign_clients.values()))
            params = simulation.server.distribute()
            task = client.make_task(params, 0)
            if use_shm:
                with SharedParamsLease(params) as lease:
                    task = dataclasses.replace(
                        task, global_params=None, params_ref=lease.ref
                    )
                    results[f"task_nbytes_{label}"] = len(pickle.dumps(task))
            else:
                results[f"task_nbytes_{label}"] = len(pickle.dumps(task))
            results[f"shard_nbytes_{label}"] = sum(
                array.nbytes for array in client.dataset.arrays()
            )
    results["speedup"] = results["task_nbytes_inline"] / results["task_nbytes_shm"]
    return results


def bench_refd_fanout(repeats: int) -> Dict[str, float]:
    """REFD D-score scoring: fused serial loop vs process-pool fan-out.

    The process leg is the production path of a process-backend round: the
    pool maps ``evaluate_update`` over payloads whose reference images live
    in a shared-memory segment, so each work item pickles one parameter
    vector.  Scores must agree bitwise with the serial loop.  On one core
    the dispatch overhead dominates (see the generous ``refd_fanout``
    threshold); the point of the metric is to track that overhead and show
    the multi-core win where there is one.
    """
    factory = ClassifierFactory(
        architecture="small-cnn", in_channels=1, image_size=16, num_classes=10, seed=5
    )
    rng = np.random.default_rng(0)
    base = get_flat_params(factory())
    updates = [
        ModelUpdate(
            client_id=i,
            parameters=base + 0.1 * rng.standard_normal(base.shape).astype(np.float32),
            num_samples=40,
        )
        for i in range(8)
    ]
    images = rng.standard_normal((160, 1, 16, 16)).astype(np.float32)
    labels = rng.integers(0, 10, size=160).astype(np.int64)
    defense = Refd(num_rejected=2)

    def context(dispatch=None, reference_ref=None):
        return DefenseContext(
            round_number=0,
            global_params=base,
            expected_num_malicious=2,
            rng=np.random.default_rng(0),
            model_factory=factory,
            reference_ref=reference_ref,
            dispatch=dispatch,
        )

    serial_context = context()
    with SharedArrayStore({"reference/images": images, "reference/labels": labels}) as store:
        reference_ref = ShardRef(
            images=store.refs["reference/images"], labels=store.refs["reference/labels"]
        )
        with DispatchPolicy("process", workers=2) as policy:
            process_context = context(dispatch=policy, reference_ref=reference_ref)
            serial_scores = [
                r.score for r in defense.score_updates(updates, images, serial_context)
            ]
            process_scores = [
                r.score for r in defense.score_updates(updates, images, process_context)
            ]
            np.testing.assert_array_equal(serial_scores, process_scores)
            repeats = max(3, repeats // 5)
            serial = _best_of(
                lambda: defense.score_updates(updates, images, serial_context), repeats
            )
            process = _best_of(
                lambda: defense.score_updates(updates, images, process_context), repeats
            )
            fanout_calls = policy.counter_snapshot()["fanout_calls"]
    return {
        "serial_s": serial,
        "process_s": process,
        "speedup": serial / process,
        "fanout_calls": fanout_calls,
        "workers": 2,
    }


def _legacy_sgd_step(self):
    """Pre-PR out-of-place SGD step (allocates fresh arrays per parameter)."""
    for param in self.parameters:
        if param.grad is None:
            continue
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        if self.momentum:
            velocity = self._velocity.get(id(param))
            if velocity is None:
                velocity = np.zeros_like(param.data)
            velocity = self.momentum * velocity + grad
            self._velocity[id(param)] = velocity
            grad = velocity
        param.data = param.data - self.lr * grad


def _legacy_refd_score_updates(self, updates, images, context):
    """Pre-PR REFD scoring: one fresh model + fresh buffers per update."""
    from repro.defenses.refd import DScoreReport, balance_value, confidence_value, d_score

    reports = []
    for update in updates:
        model = context.model_factory()
        set_flat_params(model, update.parameters)
        probabilities = predict_proba(model, images)
        num_classes = probabilities.shape[1]
        predicted = probabilities.argmax(axis=1)
        counts = np.bincount(predicted, minlength=num_classes)
        balance = balance_value(counts)
        confidence = confidence_value(probabilities)
        reports.append(
            DScoreReport(
                client_id=update.client_id,
                balance=balance,
                confidence=confidence,
                score=d_score(balance, confidence, self.alpha),
            )
        )
    return reports


class _legacy_kernels:
    """Context manager swapping the hot-path kernels back to their pre-PR
    implementations (conv, float64 flat-param transport, out-of-place SGD,
    per-update REFD scoring) so the end-to-end comparison is machine-fair."""

    def __enter__(self):
        import repro.fl.executor as executor_module
        import repro.fl.server as server_module
        from repro.nn.optim import SGD

        self._saved = (
            F.conv2d,
            executor_module.get_flat_params,
            SGD.step,
            Refd.score_updates,
        )
        F.conv2d = lambda x, weight, bias=None, stride=1, padding=0: _legacy_conv2d(
            x, weight, bias, stride, padding
        )
        executor_module.get_flat_params = _legacy_get_flat_params
        SGD.step = _legacy_sgd_step
        Refd.score_updates = _legacy_refd_score_updates
        return self

    def __exit__(self, *exc_info):
        import repro.fl.executor as executor_module
        from repro.nn.optim import SGD

        (F.conv2d, executor_module.get_flat_params, SGD.step, Refd.score_updates) = self._saved


def _eager_simulation(config):
    """``build_simulation(config)`` with local training pinned to the eager
    engine through ``LocalTrainingConfig(trace="eager")``."""
    simulation = build_simulation(config)
    eager = dataclasses.replace(simulation.training_config, trace="eager")
    simulation.training_config = eager
    for client in simulation.benign_clients.values():
        client.config = eager
    return simulation


def bench_e2e_round(repeats: int) -> Dict[str, float]:
    """Serial end-to-end round: FashionCNN 28×28, LIE attack, REFD defense.

    The baseline re-runs the same rounds with the pre-PR kernels patched
    back in (legacy conv, float64 flat-param transport, out-of-place SGD,
    per-update REFD scoring), so the speedup is measured on the same
    machine in the same process.  ``PRE_PR_REFERENCE`` additionally records
    the absolute pre-PR round time from the authoring machine.
    """
    rounds = max(3, repeats // 8)
    # Both legs pin eager training: the legacy leg patches the *eager*
    # kernels (F.conv2d etc.), which a replayed tape would silently bypass,
    # and the current leg stays comparable with the metric's history.  The
    # engine comparison has its own metric (``trace_replay``).
    with _legacy_kernels():
        with _eager_simulation(_e2e_config()) as simulation:
            simulation.run_round()  # warm caches
            legacy = _best_of(simulation.run_round, rounds)
    with _eager_simulation(_e2e_config()) as simulation:
        simulation.run_round()
        current = _best_of(simulation.run_round, rounds)
    return {
        "legacy_s": legacy,
        "current_s": current,
        "speedup": legacy / current,
        "pre_pr_reference_s": PRE_PR_REFERENCE["e2e_round_serial_s"],
        "pre_pr_machine": PRE_PR_REFERENCE["machine"],
    }


def bench_fault_hooks(repeats: int) -> Dict[str, float]:
    """Fault-free round with the recovery plane armed vs the plain loop.

    Both legs run serially on identical configs; the resilient leg carries a
    full ``ResilienceConfig`` (retry budget, backoff, stats) but no fault
    plan and no deadline, so every hook is live and every fault is absent —
    exactly the production posture of a long sweep run with ``--max-retries``
    as insurance.  The "speedup" is the median plain/resilient ratio of
    paired rounds: 1.0 means free, and the CI bound holds it above 0.98
    (≤ ~2% overhead).
    """
    config = _e2e_config()
    resilience = ResilienceConfig(max_retries=2)
    with build_simulation(config, policy="serial") as plain_sim:
        with build_simulation(
            config, policy="serial", resilience=resilience
        ) as resilient_sim:
            plain_sim.run_round()
            resilient_sim.run_round()
            plain_times, resilient_times = _paired_rounds(
                plain_sim, resilient_sim, _gate_pairs(repeats)
            )
    return {
        "plain_s": float(np.median(plain_times)),
        "resilient_s": float(np.median(resilient_times)),
        "speedup": _median_ratio(plain_times, resilient_times),
    }


def _trace_config():
    """FashionCNN/REFD round config for the trace-engine metrics.

    Small local batches (4) over two local epochs put every optimizer step
    in the regime the recorded tape targets — per-step framework overhead
    (graph construction, closure dispatch, temporary allocation) on par
    with or above the GEMM work.  At batch 32 the convolution GEMMs
    dominate and both engines converge; that regime is already covered by
    ``e2e_round``.
    """
    return benchmark_scale(
        attack="lie",
        defense="refd",
        num_rounds=4,
        architecture="fashion-cnn",
        image_size=28,
        train_size=800,
        test_size=320,
        batch_size=4,
        local_epochs=2,
    )


def bench_trace_replay(repeats: int) -> Dict[str, float]:
    """Replayed training vs the eager engine on a full e2e round.

    Two identical FashionCNN/REFD simulations run side by side: one pins
    local training to the eager engine, the other resolves ``trace="auto"``
    to replay through the recorded buffer plans.  Rounds are timed in
    adjacent eager/replay pairs and the headline speedup is the *median* of
    the per-pair ratios — on shared 1-core runners a single lucky-fast
    round would otherwise set a min-based ratio, while paired medians see
    the same machine state on both legs.  Both engines are bit-identical
    (asserted by tests/test_nn_trace.py), so this ratio is pure wall-clock.
    """
    config = _trace_config()
    nn_trace.reset_trace_cache()
    with _eager_simulation(config) as eager_sim:
        with build_simulation(config, policy="serial") as replay_sim:
            # Warm rounds: record every batch signature the Dirichlet
            # shards produce and fault in both sims' working sets.
            for _ in range(3):
                eager_sim.run_round()
                replay_sim.run_round()
            eager_times, replay_times = _paired_rounds(
                eager_sim, replay_sim, max(6, repeats)
            )
    counters = nn_trace.trace_counters()
    return {
        "eager_s": float(np.median(eager_times)),
        "replay_s": float(np.median(replay_times)),
        "speedup": _median_ratio(eager_times, replay_times),
        "records": counters["records"],
        "replays": counters["replays"],
        "fallbacks": counters["fallbacks"],
    }


def bench_trace_record_overhead(repeats: int) -> Dict[str, float]:
    """Per-step engine costs: eager step, replayed step, one-time record.

    ``overhead_s`` against the per-step saving (``eager_step_s`` minus
    ``replay_step_s``) is the record-vs-replay break-even behind
    ``trace="auto"``, which replays from two optimizer steps on.  The step
    is a FashionCNN
    forward/backward at the trace-metric batch size; the record cost is the
    first step on a cold signature (trace + compile + the step itself).
    """
    factory = ClassifierFactory(
        architecture="fashion-cnn", in_channels=1, image_size=28,
        num_classes=10, seed=0,
    )
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 1, 28, 28)).astype(np.float32)
    y = rng.integers(0, 10, size=4).astype(np.int64)
    steps = max(10, repeats)

    def eager_step(model):
        for param in model.parameters():
            param.grad = None
        loss = F.cross_entropy(model(Tensor(x)), y)
        loss.backward()
        return float(loss.item())

    model = factory()
    eager_step(model)  # warm
    eager_step_s = _best_of(lambda: eager_step(model), steps)

    nn_trace.reset_trace_cache()
    record_best = float("inf")
    for _ in range(max(3, repeats // 4)):
        nn_trace.reset_trace_cache()
        session = nn_trace.session_for(factory())
        start = time.perf_counter()
        session.step(x, y)
        record_best = min(record_best, time.perf_counter() - start)

    nn_trace.reset_trace_cache()
    model = factory()
    session = nn_trace.session_for(model)
    session.step(x, y)  # record once; the timed loop below only replays

    def replay_step():
        for param in model.parameters():
            param.grad = None
        session.step(x, y)

    replay_step_s = _best_of(replay_step, steps)
    nn_trace.reset_trace_cache()
    return {
        "eager_step_s": eager_step_s,
        "replay_step_s": replay_step_s,
        "record_s": record_best,
        "overhead_s": max(record_best - eager_step_s, 0.0),
        "speedup": eager_step_s / replay_step_s,
    }


def bench_trace_plan_memory() -> Dict[str, object]:
    """Arena bytes against the per-plan sum over eight batch sizes.

    One FashionCNN records and replays eight batch sizes, as the tail
    batches of a Dirichlet federation do.  Every plan in a process draws
    its buffers from one arena, so the arena holds the largest plan rather
    than the sum.  Bytes, not time: the result is deterministic.
    """
    factory = ClassifierFactory(
        architecture="fashion-cnn", in_channels=1, image_size=28,
        num_classes=10, seed=0,
    )
    sizes = (32, 4, 27, 9, 18, 13, 31, 22)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((max(sizes), 1, 28, 28)).astype(np.float32)
    y = rng.integers(0, 10, size=max(sizes)).astype(np.int64)
    nn_trace.reset_trace_cache()
    session = nn_trace.session_for(factory())
    for size in sizes:
        session.step(x[:size], y[:size])  # record
        session.step(x[:size], y[:size])  # the first replay binds the plan
    arena_bytes = nn_trace.trace_counters()["arena_bytes"]
    plan_bytes = [session.plan_for(x[:size], y[:size]).nbytes for size in sizes]
    nn_trace.reset_trace_cache()
    largest = max(plan_bytes)
    return {
        "batch_sizes": list(sizes),
        "plan_bytes": plan_bytes,
        "plan_sum_bytes": sum(plan_bytes),
        "largest_plan_bytes": largest,
        "arena_bytes": arena_bytes,
        "arena_over_largest": arena_bytes / largest,
    }


#: The child reports the peak resident set of its own address space
#: (``VmHWM``, KiB).  Its ``ru_maxrss`` would not do: Linux carries the
#: parent's high-water mark over ``exec``, so a child of this benchmark
#: process reads this process's size instead of the import's.
_IMPORT_FLOOR_SCRIPT = (
    "import repro\n"
    "print(next(line.split()[1] for line in open('/proc/self/status')"
    " if line.startswith('VmHWM:')))"
)


def bench_import_floor(runs: int = 5) -> Dict[str, object]:
    """Wall time and peak resident set of a fresh interpreter importing ``repro``.

    Medians over ``runs`` sequential interpreters; the wall time covers
    interpreter start-up.  Linux only (``/proc``).  Information only: no
    threshold reads it.
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    wall_s: List[float] = []
    peak_kib: List[int] = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_FLOOR_SCRIPT],
            capture_output=True, text=True, check=True, env=env,
        )
        wall_s.append(time.perf_counter() - start)
        peak_kib.append(int(proc.stdout))
    return {
        "runs": runs,
        "wall_s": float(np.median(wall_s)),
        "peak_rss_mb": float(np.median(peak_kib)) / 1024,
        "wall_s_runs": wall_s,
        "peak_rss_kib_runs": peak_kib,
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_suite(repeats: int = 25, include_dispatch: bool = True, include_e2e: bool = True):
    """Run every hot-path benchmark and return the results dict."""
    results: Dict[str, object] = {}
    results["conv_fwd"] = bench_conv_forward(repeats)
    results["conv_bwd_params"] = bench_conv_backward_params(repeats)
    results["conv_step_all_grads"] = bench_conv_step_all_grads(repeats)
    results["conv_memory"] = bench_conv_memory()
    results["flat_roundtrip"] = bench_flat_params(repeats)
    results["refd_scoring"] = bench_refd_scoring(max(3, repeats // 5))
    results["distance_block"] = bench_distance_block(max(3, repeats // 5))
    if include_dispatch:
        results["round_dispatch"] = bench_round_dispatch(repeats)
        results["shard_broadcast"] = bench_shard_broadcast()
        results["refd_fanout"] = bench_refd_fanout(repeats)
    if include_e2e:
        results["e2e_round"] = bench_e2e_round(repeats)
    # Cheap (no legacy-kernel leg), so it runs even under --skip-e2e: CI
    # always enforces the fault-plane overhead bound.
    results["fault_hooks"] = bench_fault_hooks(repeats)
    # Same deal: no legacy leg, and CI must always enforce the replayed-tape
    # round speedup and record the per-step engine costs, so both trace
    # metrics run even under --skip-e2e.
    results["trace_replay"] = bench_trace_replay(repeats)
    results["trace_record_overhead"] = bench_trace_record_overhead(repeats)
    results["trace_plan_memory"] = bench_trace_plan_memory()
    results["import_floor"] = bench_import_floor()
    return results


def _aggregate_speedups(results) -> Dict[str, float]:
    """One headline speedup per metric (geometric mean over conv cases)."""
    headline: Dict[str, float] = {}
    for metric in ("conv_fwd", "conv_bwd_params", "conv_step_all_grads"):
        if metric in results:
            speedups = [case["speedup"] for case in results[metric].values()]
            headline[metric] = float(np.exp(np.mean(np.log(speedups))))
    for metric in ("flat_roundtrip", "refd_scoring", "distance_block"):
        if metric in results:
            headline[metric] = float(results[metric]["speedup"])
    if "round_dispatch" in results:
        headline["round_dispatch_shm"] = float(results["round_dispatch"]["speedup"])
    for metric in (
        "shard_broadcast",
        "refd_fanout",
        "fault_hooks",
        "trace_replay",
        "trace_record_overhead",
    ):
        if metric in results:
            headline[metric] = float(results[metric]["speedup"])
    if "e2e_round" in results:
        headline["e2e_round"] = float(results["e2e_round"]["speedup"])
    return headline


def check_thresholds(headline: Dict[str, float]) -> Dict[str, Tuple[float, float, bool]]:
    """Compare headline speedups against the generous CI thresholds."""
    verdicts = {}
    for metric, minimum in CHECK_THRESHOLDS.items():
        if metric in headline:
            verdicts[metric] = (headline[metric], minimum, headline[metric] >= minimum)
    return verdicts


def render_table(results, headline) -> str:
    rows = []
    for metric in ("conv_fwd", "conv_bwd_params", "conv_step_all_grads"):
        if metric not in results:
            continue
        for case, numbers in results[metric].items():
            rows.append(
                [
                    f"{metric}/{case}",
                    f"{numbers['legacy_s'] * 1e6:.0f}",
                    f"{numbers['current_s'] * 1e6:.0f}",
                    f"{numbers['speedup']:.2f}x",
                ]
            )
    for metric in ("flat_roundtrip", "refd_scoring", "distance_block"):
        if metric in results:
            numbers = results[metric]
            rows.append(
                [
                    metric,
                    f"{numbers['legacy_s'] * 1e6:.0f}",
                    f"{numbers['current_s'] * 1e6:.0f}",
                    f"{numbers['speedup']:.2f}x",
                ]
            )
    if "round_dispatch" in results:
        numbers = results["round_dispatch"]
        rows.append(
            [
                "round_dispatch(shm vs inline)",
                f"{numbers['inline_s'] * 1e6:.0f}",
                f"{numbers['shm_s'] * 1e6:.0f}",
                f"{numbers['speedup']:.2f}x",
            ]
        )
    if "shard_broadcast" in results:
        numbers = results["shard_broadcast"]
        rows.append(
            [
                "shard_broadcast(task bytes)",
                f"{numbers['task_nbytes_inline']:.0f}",
                f"{numbers['task_nbytes_shm']:.0f}",
                f"{numbers['speedup']:.2f}x",
            ]
        )
    if "refd_fanout" in results:
        numbers = results["refd_fanout"]
        rows.append(
            [
                "refd_fanout(serial vs process)",
                f"{numbers['serial_s'] * 1e6:.0f}",
                f"{numbers['process_s'] * 1e6:.0f}",
                f"{numbers['speedup']:.2f}x",
            ]
        )
    if "e2e_round" in results:
        numbers = results["e2e_round"]
        rows.append(
            [
                "e2e_round(legacy kernels)",
                f"{numbers['legacy_s'] * 1e6:.0f}",
                f"{numbers['current_s'] * 1e6:.0f}",
                f"{numbers['speedup']:.2f}x",
            ]
        )
    if "fault_hooks" in results:
        numbers = results["fault_hooks"]
        rows.append(
            [
                "fault_hooks(plain vs armed)",
                f"{numbers['plain_s'] * 1e6:.0f}",
                f"{numbers['resilient_s'] * 1e6:.0f}",
                f"{numbers['speedup']:.2f}x",
            ]
        )
    if "trace_replay" in results:
        numbers = results["trace_replay"]
        rows.append(
            [
                "trace_replay(eager vs replay round)",
                f"{numbers['eager_s'] * 1e6:.0f}",
                f"{numbers['replay_s'] * 1e6:.0f}",
                f"{numbers['speedup']:.2f}x",
            ]
        )
    if "trace_record_overhead" in results:
        numbers = results["trace_record_overhead"]
        rows.append(
            [
                "trace_record_overhead(step)",
                f"{numbers['eager_step_s'] * 1e6:.0f}",
                f"{numbers['replay_step_s'] * 1e6:.0f}",
                f"{numbers['speedup']:.2f}x",
            ]
        )
    return format_table(["metric", "before (us)", "after (us)", "speedup"], rows)


def render_plan_memory(numbers) -> str:
    return (
        f"trace_plan_memory: arena {numbers['arena_bytes']} bytes, largest plan "
        f"{numbers['largest_plan_bytes']} bytes, sum over "
        f"{len(numbers['batch_sizes'])} plans {numbers['plan_sum_bytes']} bytes"
    )


def render_conv_memory(numbers) -> str:
    return (
        f"conv_memory (refine fwd+bwd, tracemalloc peak): legacy "
        f"{numbers['legacy_peak_bytes']} bytes, current {numbers['current_peak_bytes']} "
        f"bytes, whole-batch column matrix {numbers['column_matrix_bytes']} bytes"
    )


def render_import_floor(numbers) -> str:
    return (
        f"import_floor (fresh `import repro`, median of {numbers['runs']}): "
        f"{numbers['wall_s']:.2f} s, peak RSS {numbers['peak_rss_mb']:.1f} MB"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_hotpath.json", help="JSON output path")
    parser.add_argument("--repeats", type=int, default=25, help="timing repeats per metric")
    parser.add_argument("--check", action="store_true", help="enforce CI regression thresholds")
    parser.add_argument("--skip-dispatch", action="store_true", help="skip the process-pool metric")
    parser.add_argument("--skip-e2e", action="store_true", help="skip the end-to-end round metric")
    args = parser.parse_args(argv)

    results = run_suite(
        repeats=args.repeats,
        include_dispatch=not args.skip_dispatch,
        include_e2e=not args.skip_e2e,
    )
    headline = _aggregate_speedups(results)
    print(render_table(results, headline))
    print()
    for metric, value in headline.items():
        print(f"{metric:24s} {value:5.2f}x")
    memory = results["trace_plan_memory"]
    print(render_plan_memory(memory))
    print(render_conv_memory(results["conv_memory"]))
    print(render_import_floor(results["import_floor"]))

    payload = {
        "meta": {
            "machine": platform.platform(),
            "cpus": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "pre_pr_reference": PRE_PR_REFERENCE,
        "results": results,
        "headline_speedups": headline,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\nwrote {args.output}")

    if args.check:
        verdicts = check_thresholds(headline)
        failed = {m: v for m, v in verdicts.items() if not v[2]}
        for metric, (value, minimum, ok) in verdicts.items():
            print(f"check {metric:24s} {value:5.2f}x >= {minimum:.2f}x  {'ok' if ok else 'FAIL'}")
        memory_ok = memory["arena_over_largest"] <= MAX_ARENA_OVER_LARGEST_PLAN
        print(
            f"check {'trace_plan_memory':24s} arena/largest "
            f"{memory['arena_over_largest']:.2f} <= {MAX_ARENA_OVER_LARGEST_PLAN:.2f}  "
            f"{'ok' if memory_ok else 'FAIL'}"
        )
        if failed or not memory_ok:
            return 1
    return 0


# ----------------------------------------------------------------------
# pytest entry point (same suite, smaller repeat counts)
# ----------------------------------------------------------------------
def test_hotpath_kernels_beat_legacy(report):
    results = run_suite(repeats=8, include_dispatch=False, include_e2e=False)
    headline = _aggregate_speedups(results)
    report(
        "Hot-path microbenchmarks (legacy vs current)",
        render_table(results, headline),
        note="conv_bwd_params is the input-layer training profile (no grad_x).",
    )
    assert headline["conv_fwd"] > 1.0
    assert headline["conv_bwd_params"] >= 1.5
    assert headline["flat_roundtrip"] > 1.0
    assert results["flat_roundtrip"]["legacy_nbytes"] == 2 * results["flat_roundtrip"]["current_nbytes"]
    # The distance plane trades speed for correctness: it must stay within
    # the overhead bound while the legacy Gram trick is orders of magnitude
    # wrong on the near-duplicate probe and the plane is float64-exact.
    assert headline["distance_block"] >= 0.02
    assert results["distance_block"]["legacy_max_rel_error"] > 0.5
    assert results["distance_block"]["current_max_rel_error"] < 1e-9
    memory = results["trace_plan_memory"]
    assert memory["arena_over_largest"] <= MAX_ARENA_OVER_LARGEST_PLAN


if __name__ == "__main__":
    sys.exit(main())
