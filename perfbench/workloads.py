"""The benchmark's workloads, the checks on their outputs and their metrics.

Two *round* workloads build one paper-geometry simulation and play rounds
in a closed loop (each round starts when the previous one ends); the
*sweep* workload runs the whole Table II grid through a serial
:class:`~repro.experiments.grid.GridRunner`.  Every check runs outside the
timed window and recomputes the program's output apart from it, or tests a
property the method must have.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.dispatch import DatasetBroker
from repro.experiments.grid import GridExecutionError, GridRunner, config_hash
from repro.experiments.io import result_to_dict
from repro.experiments.presets import benchmark_scale, paper_scale
from repro.experiments.scenarios import PAPER_ATTACKS, table2_scenarios
from repro.fl.server import Server
from repro.fl.simulation import FederatedSimulation
from repro.nn.trace import reset_trace_cache, trace_counters

from spans import SpanRecorder, patched

#: Set-ups per round-workload run; ``setup_s`` is their median.
SETUPS = 3
#: Rounds played after each build before the simulation counts as set up.
WARMUP_ROUNDS = 1
#: Set-ups per sweep run (scenario expansion, hashing, dataset publication).
SWEEP_SETUPS = 15
#: CIFAR-10 stand-in test split; half of it becomes REFD's reference set.
#: Sized so that REFD's scoring stays the largest phase of a round.
CIFAR_TEST_SIZE = 400
#: Fashion-MNIST stand-in test split, sized so that evaluation stays a
#: minor phase (~15% of a round) next to DFA-G's synthesis.
FMNIST_TEST_SIZE = 2000
#: REFD's ``X``: updates rejected per round (the paper's value for 10
#: selected clients with 20% attackers, and the defense's default).
REFD_REJECTED = 2

#: Reference wall time of one Table II sweep.
NOMINAL_SWEEP_S = 30.0

OUT_DIR = Path(__file__).resolve().parent / "out"


def fixed_work(seconds: float, nominal_s: float) -> int:
    """Units of work that fill ``seconds`` at the reference speed (at least 1).

    The work of a run is fixed by ``--seconds``, not by the clock: a faster
    program finishes the same rounds sooner instead of playing more of them,
    so every run of a seed does the same operations.  That matters here
    because the trace cache grows with the rounds played (peak memory, new
    tapes, fallbacks), which a clock-bounded window would tie to speed.
    """
    return max(1, round(seconds / nominal_s))


@dataclass
class Outcome:
    """What one workload run measured and found."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Independent recomputations
# ----------------------------------------------------------------------
def median_closest_mismatches(values: np.ndarray, keep: int, output: np.ndarray) -> int:
    """Coordinates where ``output`` is not Bulyan's median-closest mean.

    Per coordinate the rule averages the ``keep`` values closest to the
    median of ``values`` (float64 here).  Those values are a window of the
    sorted column; equidistant values make several windows valid, so a
    coordinate matches when ``output`` equals the mean of any valid window
    within float32 tolerance.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64), axis=0)
    theta, dim = ordered.shape
    distance = np.abs(ordered - np.median(ordered, axis=0))
    tolerance = 1e-6 + 1e-5 * np.abs(ordered).max(axis=0)
    nearest_below = np.minimum.accumulate(distance, axis=0)
    nearest_above = np.minimum.accumulate(distance[::-1], axis=0)[::-1]
    output = np.asarray(output, dtype=np.float64)
    matched = np.zeros(dim, dtype=bool)
    for start in range(theta - keep + 1):
        stop = start + keep
        farthest_inside = distance[start:stop].max(axis=0)
        nearest_outside = np.full(dim, np.inf)
        if start > 0:
            nearest_outside = np.minimum(nearest_outside, nearest_below[start - 1])
        if stop < theta:
            nearest_outside = np.minimum(nearest_outside, nearest_above[stop])
        valid = farthest_inside <= nearest_outside + tolerance
        equal = np.abs(ordered[start:stop].mean(axis=0) - output) <= tolerance
        matched |= valid & equal
    return int(dim - matched.sum())


def weighted_mean(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sample-weighted mean of the rows, in float64 (FedAvg, Eq. 2)."""
    weights = np.asarray(weights, dtype=np.float64)
    return (weights / weights.sum()) @ np.asarray(matrix, dtype=np.float64)


def _the_aggregation(aggregations: List[Tuple[list, object]], problems: List[str]):
    if len(aggregations) != 1:
        problems.append(f"expected one aggregation per round, saw {len(aggregations)}")
        return None
    return aggregations[0]


def check_bulyan_round(config, simulation, record, aggregations, problems) -> None:
    """New parameters are Bulyan's rule over the accepted updates."""
    captured = _the_aggregation(aggregations, problems)
    if captured is None:
        return
    updates, _ = captured
    n = len(updates)
    f = max(int(round(config.malicious_fraction * config.clients_per_round)), 1)
    theta = min(max(n - 2 * f, 1), n)
    accepted = list(record.accepted_client_ids or [])
    by_id = {update.client_id: update for update in updates}
    if len(accepted) != theta or len(set(accepted)) != theta or not set(accepted) <= set(by_id):
        problems.append(
            f"round {record.round_number}: Bulyan accepted {accepted}, expected {theta} "
            "distinct submitted clients"
        )
        return
    matrix = np.stack([by_id[client].parameters for client in accepted])
    trim = max(0, min(f, (theta - 1) // 2))
    bad = median_closest_mismatches(
        matrix, theta - 2 * trim, simulation.server.global_params
    )
    if bad:
        problems.append(
            f"round {record.round_number}: {bad} coordinates differ from the "
            "median-closest rule over the accepted updates"
        )
    passed = record.num_malicious_passed
    if passed is None or not 0 <= passed <= len(record.selected_malicious_ids):
        problems.append(
            f"round {record.round_number}: num_malicious_passed={passed} with "
            f"{len(record.selected_malicious_ids)} malicious clients selected"
        )


def check_refd_round(config, simulation, record, aggregations, problems) -> None:
    """REFD keeps n - X updates and FedAvgs exactly those."""
    captured = _the_aggregation(aggregations, problems)
    if captured is None:
        return
    updates, _ = captured
    n = len(updates)
    expected = n - min(REFD_REJECTED, n - 1)
    accepted = list(record.accepted_client_ids or [])
    by_id = {update.client_id: update for update in updates}
    if len(accepted) != expected or len(set(accepted)) != expected or not set(accepted) <= set(by_id):
        problems.append(
            f"round {record.round_number}: REFD accepted {len(accepted)} of {n} "
            f"updates, expected {expected}"
        )
        return
    matrix = np.stack([by_id[client].parameters for client in accepted])
    weights = np.array([by_id[client].num_samples for client in accepted])
    reference = weighted_mean(matrix, weights)
    scale = max(1.0, float(np.abs(matrix).max()))
    if not np.allclose(simulation.server.global_params, reference, rtol=1e-5, atol=1e-6 * scale):
        problems.append(
            f"round {record.round_number}: new parameters are not the weighted "
            "mean of the accepted updates"
        )


def _loss_changes(history: List[List[float]]) -> List[float]:
    return [losses[-1] - losses[0] for losses in history if losses]


def check_dfag_losses(simulation, history, problems) -> None:
    """DFA-G maximises cross-entropy toward Y~: it rises over the epochs."""
    changes = _loss_changes(history)
    if not changes:
        problems.append("DFA-G never synthesized during the timed rounds")
    elif statistics.fmean(changes) <= 0.0:
        problems.append(
            f"DFA-G synthesis cross-entropy fell on average ({statistics.fmean(changes):+.4g})"
        )


def check_dfar_losses(simulation, history, problems) -> None:
    """DFA-R's soft cross-entropy to the uniform target is >= ln(L) and falls."""
    floor = math.log(simulation.task.num_classes) - 1e-5
    below = [value for losses in history for value in losses if value < floor]
    if below:
        problems.append(f"DFA-R synthesis losses below ln(L): {below[:3]}")
    changes = _loss_changes(history)
    if not changes:
        problems.append("DFA-R never synthesized during the timed rounds")
    elif statistics.fmean(changes) >= 0.0:
        problems.append(
            f"DFA-R synthesis loss rose on average ({statistics.fmean(changes):+.4g})"
        )


# ----------------------------------------------------------------------
# Round workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RoundWorkload:
    """A paper-geometry simulation played round by round."""

    make_config: Callable[[int], ExperimentConfig]
    check_round: Callable
    check_losses: Callable
    #: Reference round time; a run plays ``seconds / nominal_round_s`` rounds.
    nominal_round_s: float


def fmnist_config(seed: int) -> ExperimentConfig:
    return paper_scale(
        "fashion-mnist",
        attack="dfa-g",
        defense="bulyan",
        test_size=FMNIST_TEST_SIZE,
        seed=seed,
        dataset_seed=seed,
    )


def cifar_config(seed: int) -> ExperimentConfig:
    return paper_scale(
        "cifar-10",
        attack="dfa-r",
        defense="refd",
        test_size=CIFAR_TEST_SIZE,
        seed=seed,
        dataset_seed=seed,
    )


def _play_round(workload, config, simulation, aggregations, outcome) -> Optional[float]:
    """One round: its wall time, or ``None`` when it raised (counted failed)."""
    aggregations.clear()
    outcome.attempted += 1
    started = time.perf_counter()
    try:
        record = simulation.run_round()
    except Exception:  # one failed operation: count it and end the run
        outcome.failed += 1
        traceback.print_exc()
        return None
    elapsed = time.perf_counter() - started
    workload.check_round(config, simulation, record, aggregations, outcome.problems)
    return elapsed


def run_rounds(
    workload: RoundWorkload, seed: int, seconds: float, recorder: Optional[SpanRecorder]
) -> Outcome:
    config = workload.make_config(seed)
    outcome = Outcome()
    aggregations: List[Tuple[list, object]] = []

    def capture(aggregate):
        @functools.wraps(aggregate)
        def captured(server, updates):
            result = aggregate(server, updates)
            aggregations.append((list(updates), result))
            return result

        return captured

    with patched(Server, "aggregate", capture):
        setup_times: List[float] = []
        simulation = None
        for _ in range(SETUPS):
            if simulation is not None:
                simulation.close()
                simulation = None
                gc.collect()
            # Each set-up starts as cold as a fresh process: no recorded tapes.
            reset_trace_cache()
            started = time.perf_counter()
            simulation = runner.build_simulation(config)
            elapsed = time.perf_counter() - started
            for _ in range(WARMUP_ROUNDS):
                round_time = _play_round(workload, config, simulation, aggregations, outcome)
                if round_time is None:
                    simulation.close()
                    return outcome
                elapsed += round_time
            setup_times.append(elapsed)

        history = simulation.attack.synthesis_loss_history
        first_history = len(history)
        counters_before = trace_counters()
        dispatch_before = simulation.dispatch.counter_snapshot()
        first_span = len(recorder.spans) if recorder is not None else 0
        counts_before = dict(recorder.counts) if recorder is not None else {}
        round_times: List[float] = []
        for _ in range(fixed_work(seconds, workload.nominal_round_s)):
            round_time = _play_round(workload, config, simulation, aggregations, outcome)
            if round_time is None:
                break
            round_times.append(round_time)
        counters_after = trace_counters()
        dispatch_after = simulation.dispatch.counter_snapshot()
        workload.check_losses(simulation, history[first_history:], outcome.problems)
        simulation.close()

    if not round_times:
        return outcome
    outcome.end_to_end = {
        "rounds_per_s": len(round_times) / sum(round_times),
        "round_p50_s": statistics.median(round_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    changes = _loss_changes(history[first_history:])
    outcome.notes = {
        "rounds": len(round_times),
        "setups": len(setup_times),
        "synthesis_loss_change": statistics.fmean(changes) if changes else 0.0,
    }
    if recorder is not None:
        outcome.layers = layer_metrics(
            recorder,
            first_span,
            _delta(counts_before, recorder.counts),
            _delta(counters_before, counters_after),
            _delta(dispatch_before, dispatch_after),
        )
    return outcome


# ----------------------------------------------------------------------
# Table II sweep
# ----------------------------------------------------------------------
def _sweep_setup(scale) -> Tuple[List, float]:
    """What a sweep does before its first cell: expand, hash, publish data."""
    started = time.perf_counter()
    scenarios = table2_scenarios(scale)
    configs = [config for _, config in scenarios]
    for config in configs:
        config_hash(config)
        config_hash(config.clean_variant())
    with DatasetBroker(use_shared_memory=False) as broker:
        broker.publish(configs)
    return scenarios, time.perf_counter() - started


def check_sweep(scenarios, results, stats, cache_dir: Path, problems: List[str]) -> int:
    """Check one finished sweep; returns the artifact bytes it wrote."""
    baselines = {config.baseline_key() for _, config in scenarios}
    if (
        stats.executed != len(scenarios)
        or stats.baselines_executed != len(baselines)
        or stats.failed
        or stats.cache_hits
    ):
        problems.append(
            f"sweep executed {stats.executed} cells and {stats.baselines_executed} "
            f"baselines ({stats.failed} failed, {stats.cache_hits} cache hits); "
            f"expected {len(scenarios)} and {len(baselines)}"
        )
    artifacts = sorted(cache_dir.glob("*.json"))
    if len(artifacts) != len(scenarios) + len(baselines):
        problems.append(f"{len(artifacts)} cache artifacts for {len(scenarios)} cells")
    asr_by_attack: Dict[str, List[float]] = {}
    for label, result in results:
        config = result.config
        if len(result.records) != config.num_rounds:
            problems.append(f"{label}: {len(result.records)} records for {config.num_rounds} rounds")
        path = cache_dir / f"{config_hash(config)}.json"
        stored = json.loads(path.read_text()) if path.exists() else None
        if stored != json.loads(json.dumps(result_to_dict(label, result))):
            problems.append(f"{label}: cache artifact differs from the in-memory result")
        baseline_path = cache_dir / f"{config_hash(config.clean_variant())}.json"
        if not baseline_path.exists():
            problems.append(f"{label}: no baseline artifact")
            continue
        baseline = json.loads(baseline_path.read_text())
        if len(baseline["records"]) != config.num_rounds:
            problems.append(f"{label}: baseline has {len(baseline['records'])} records")
        clean = max(record["accuracy"] for record in baseline["records"])
        attacked = max(record.accuracy for record in result.records)
        asr = (clean - attacked) / clean * 100.0  # Eq. 4
        if result.asr is None or not math.isclose(result.asr, asr, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{label}: ASR {result.asr} but Eq. 4 gives {asr}")
        asr_by_attack.setdefault(label.rsplit("/", 1)[-1], []).append(asr)
    means = {attack: statistics.fmean(values) for attack, values in asr_by_attack.items()}
    dfa = max(means.get("dfa-r", -math.inf), means.get("dfa-g", -math.inf))
    strongest = max(
        (means[attack] for attack in PAPER_ATTACKS if attack in means and not attack.startswith("dfa")),
        default=-math.inf,
    )
    if not dfa > 0.3 * strongest:
        problems.append(
            f"best DFA mean ASR {dfa:.2f} is not above 0.3 x the strongest baseline's {strongest:.2f}"
        )
    return sum(path.stat().st_size for path in artifacts)


def run_sweep(seed: int, seconds: float, recorder: Optional[SpanRecorder]) -> Outcome:
    scale = functools.partial(benchmark_scale, seed=seed, dataset_seed=seed)
    outcome = Outcome()
    setup_times: List[float] = []
    for _ in range(SWEEP_SETUPS):
        scenarios, elapsed = _sweep_setup(scale)
        setup_times.append(elapsed)
    baselines = len({config.baseline_key() for _, config in scenarios})

    round_times: List[float] = []
    dispatch_counts: Dict[str, float] = {}

    def timer(run_round):
        @functools.wraps(run_round)
        def timed(simulation):
            started = time.perf_counter()
            record = run_round(simulation)
            round_times.append(time.perf_counter() - started)
            return record

        return timed

    def tally(close):
        @functools.wraps(close)
        def counted(simulation):
            for key, value in simulation.dispatch.counter_snapshot().items():
                dispatch_counts[key] = dispatch_counts.get(key, 0) + value
            return close(simulation)

        return counted

    first_span = len(recorder.spans) if recorder is not None else 0
    counts_before = dict(recorder.counts) if recorder is not None else {}
    counters_before = trace_counters()
    walls: List[float] = []
    artifact_bytes = 0
    with patched(FederatedSimulation, "run_round", timer), patched(
        FederatedSimulation, "close", tally
    ):
        for _ in range(fixed_work(seconds, NOMINAL_SWEEP_S)):
            cache_dir = OUT_DIR / f"sweep-cache-{os.getpid()}-{len(walls)}"
            shutil.rmtree(cache_dir, ignore_errors=True)
            grid = GridRunner(cache_dir=cache_dir)
            outcome.attempted += len(scenarios) + baselines
            started = time.perf_counter()
            try:
                results = grid.run(scenarios)
            except GridExecutionError as error:
                results = error.results
                for label, message in sorted(error.failures.items()):
                    print(f"failed cell {label}: {message}")
            walls.append(time.perf_counter() - started)
            outcome.failed += grid.last_stats.failed
            try:
                written = check_sweep(scenarios, results, grid.last_stats, cache_dir, outcome.problems)
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            artifact_bytes = artifact_bytes or written
    counters_after = trace_counters()
    cells = outcome.attempted - outcome.failed
    outcome.end_to_end = {
        "rounds_per_s": len(round_times) / sum(walls),
        "round_p50_s": statistics.median(round_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.notes = {
        "sweeps": len(walls),
        "rounds": len(round_times),
        "cells_per_s": cells / sum(walls),
        "setups": len(setup_times),
    }
    if recorder is not None:
        outcome.layers = layer_metrics(
            recorder,
            first_span,
            _delta(counts_before, recorder.counts),
            _delta(counters_before, counters_after),
            dispatch_counts,
            artifact_bytes=artifact_bytes,
        )
    return outcome


# ----------------------------------------------------------------------
# Per-layer metrics from the spans
# ----------------------------------------------------------------------
#: Per-layer metrics that are a layer's self time per measured round.
ROUND_LAYERS = {
    "fl.train_s": "fl.train",
    "fl.evaluate_s": "fl.evaluate",
    "fl.round_other_s": "fl.round",
    "attacks.craft_s": "attacks.craft",
    "attacks.synthesize_s": "attacks.synthesize",
    "attacks.adv_train_s": "attacks.adv_train",
    "defenses.aggregate_s": "defenses.aggregate",
    "defenses.refd_score_s": "defenses.refd_score",
    "defenses.distance_s": "defenses.distance",
}
#: Per-layer metrics that are a layer's self time per call, over the run.
CALL_LAYERS = {
    "fl.build_s": "fl.build",
    "data.load_s": "data.load",
    "data.partition_s": "data.partition",
}


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    first_span: int,
    counts: Dict[str, float],
    trace_delta: Dict[str, float],
    dispatch_delta: Dict[str, float],
    artifact_bytes: int = 0,
) -> Dict[str, float]:
    """Per-layer metrics; round-phase ones over spans from ``first_span`` on."""
    self_times = recorder.self_times()
    window_self: Dict[str, float] = {}
    run_self: Dict[str, List[float]] = {}
    durations: Dict[str, List[float]] = {}
    for span, own in zip(recorder.spans, self_times):
        run_self.setdefault(span.name, []).append(own)
        if span.span_id >= first_span:
            window_self[span.name] = window_self.get(span.name, 0.0) + own
            durations.setdefault(span.name, []).append(span.duration)
    rounds = len(durations.get("fl.round", []))
    metrics = {
        metric: _ratio(window_self.get(name, 0.0), rounds) for metric, name in ROUND_LAYERS.items()
    }
    for metric, name in CALL_LAYERS.items():
        values = run_self.get(name, [])
        metrics[metric] = statistics.fmean(values) if values else 0.0
    metrics["fl.train_samples_per_s"] = _ratio(
        counts.get("fl.train_samples", 0.0), window_self.get("fl.train", 0.0)
    )
    records = trace_delta.get("records", 0)
    replays = trace_delta.get("replays", 0)
    fallbacks = trace_delta.get("fallbacks", 0)
    metrics["nn.replay_ratio"] = _ratio(replays, records + replays + fallbacks)
    metrics["nn.records"] = records
    metrics["nn.fallbacks"] = fallbacks
    hits = dispatch_delta.get("distance_cache_hits", 0)
    misses = dispatch_delta.get("distance_cache_misses", 0)
    metrics["defenses.distance_cache_hit_ratio"] = _ratio(hits, hits + misses)
    cells = durations.get("experiments.cell", [])
    sweeps = durations.get("experiments.sweep", [])
    metrics["experiments.cell_p50_s"] = statistics.median(cells) if cells else 0.0
    metrics["experiments.sweep_other_s"] = (
        (sum(sweeps) - sum(cells)) / len(sweeps) if sweeps else 0.0
    )
    metrics["experiments.artifact_bytes"] = artifact_bytes
    return metrics


def phase_shares(metrics: Dict[str, float]) -> Dict[str, float]:
    """Each round-phase self time as a share of their sum (the round time)."""
    total = sum(metrics[metric] for metric in ROUND_LAYERS)
    return {metric: _ratio(metrics[metric], total) for metric in ROUND_LAYERS}


ROUND_WORKLOADS = {
    "fmnist-dfag-bulyan": RoundWorkload(fmnist_config, check_bulyan_round, check_dfag_losses, 0.65),
    "cifar-dfar-refd": RoundWorkload(cifar_config, check_refd_round, check_dfar_losses, 2.0),
}


def run_workload(
    name: str, seed: int, seconds: float, recorder: Optional[SpanRecorder]
) -> Outcome:
    if name == "table2-sweep":
        return run_sweep(seed, seconds, recorder)
    return run_rounds(ROUND_WORKLOADS[name], seed, seconds, recorder)
