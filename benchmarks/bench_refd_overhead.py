"""Sec. V-C: computational overhead of the REFD defense — plus the cost side
of the experiment pipeline itself.

REFD evaluates every received update on the reference dataset, so its cost is
O(|Dr| * K) model inferences per round plus an O(|Dr|) statistic per update.
This benchmark measures the wall-clock cost of a single REFD aggregation step
for growing reference-set sizes and compares it against Bulyan and plain
FedAvg on the same updates, confirming that the overhead scales linearly in
|Dr| and stays far below the cost of local training.

The second half measures the sweep machinery the paper's figures run on: a
scenario grid dispatched serially vs across worker processes
(:class:`~repro.experiments.grid.GridRunner`) and then re-run against a warm
result cache, which should skip every completed cell.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.synthetic import SyntheticImageSpec, make_synthetic_task
from repro.defenses import Bulyan, NoDefense, Refd
from repro.experiments import GridRunner, expand_grid, smoke_scale
from repro.fl.dispatch_policy import usable_cpu_count
from repro.fl.training import train_local_model
from repro.fl.types import DefenseContext, LocalTrainingConfig, ModelUpdate
from repro.models import SmallCNN
from repro.nn.serialization import get_flat_params
from repro.utils import format_table

_REFERENCE_SIZES = (40, 80, 160)
_NUM_UPDATES = 8


def _setup():
    spec = SyntheticImageSpec(name="overhead", channels=1, image_size=16, noise_std=0.3)
    task = make_synthetic_task(spec, train_size=200, test_size=200, seed=0)

    def model_factory():
        return SmallCNN(in_channels=1, image_size=16, num_classes=10, width=8,
                        rng=np.random.default_rng(0))

    rng = np.random.default_rng(0)
    config = LocalTrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.2)
    updates = []
    for client_id in range(_NUM_UPDATES):
        model = model_factory()
        shard = task.train.subset(rng.choice(len(task.train), size=25, replace=False))
        train_local_model(model, shard, config, np.random.default_rng(client_id))
        updates.append(
            ModelUpdate(client_id=client_id, parameters=get_flat_params(model), num_samples=25)
        )
    return task, model_factory, updates


def _time_aggregation(defense, updates, context, repeats: int = 3) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        defense.aggregate(updates, context)
    return (time.perf_counter() - start) / repeats


def test_refd_overhead_scales_linearly(benchmark, report):
    task, model_factory, updates = _setup()

    def context_with(reference):
        return DefenseContext(
            round_number=0,
            global_params=get_flat_params(model_factory()),
            expected_num_malicious=2,
            rng=np.random.default_rng(0),
            model_factory=model_factory,
            reference_dataset=reference,
        )

    def measure():
        timings = {}
        timings["fedavg"] = _time_aggregation(NoDefense(), updates, context_with(None))
        timings["bulyan"] = _time_aggregation(Bulyan(), updates, context_with(None))
        for size in _REFERENCE_SIZES:
            reference = task.test.subset(range(size))
            timings[f"refd@{size}"] = _time_aggregation(
                Refd(num_rejected=2), updates, context_with(reference)
            )
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = [[name, 1000.0 * seconds] for name, seconds in timings.items()]
    report(
        "Sec. V-C — Aggregation cost of REFD vs Bulyan vs FedAvg (per round)",
        format_table(["aggregator", "time (ms)"], rows),
        note=(
            "Expected shape: REFD cost grows roughly linearly with the reference-set size |Dr|\n"
            "(it performs |Dr| x K model inferences per round) and remains a small constant\n"
            "factor, far cheaper than the clients' local training."
        ),
    )

    assert timings["refd@160"] >= timings["refd@40"]
    # Doubling |Dr| should not blow up the cost super-linearly by a large factor.
    assert timings["refd@160"] <= 10.0 * timings["refd@40"] + 0.05


_GRID_WORKERS = 4


def _sweep_grid():
    """An 8-cell attack × defense × heterogeneity grid at smoke scale."""
    return expand_grid(
        attacks=("lie", "min-max"),
        defenses=("mkrum", "median"),
        betas=(0.5, None),
        scale=smoke_scale,
        num_rounds=4,
        train_size=240,
        test_size=80,
    )


def test_grid_sweep_parallel_speedup_and_cache(benchmark, report, tmp_path):
    scenario_list = _sweep_grid()
    cache_dir = tmp_path / "grid-cache"

    def timed_run(runner):
        start = time.perf_counter()
        results = runner.run(scenario_list)
        return time.perf_counter() - start, results

    def measure():
        serial_seconds, serial_results = timed_run(GridRunner(policy="serial"))
        # Cold cache: executes everything, writes one artifact per cell.
        parallel = GridRunner(policy=f"process:{_GRID_WORKERS}", cache_dir=cache_dir)
        parallel_seconds, parallel_results = timed_run(parallel)
        # Warm cache: every cell (and baseline) must be a hit.
        cached = GridRunner(policy=f"process:{_GRID_WORKERS}", cache_dir=cache_dir)
        cached_seconds, _ = timed_run(cached)
        return {
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "cached_seconds": cached_seconds,
            "serial_results": serial_results,
            "parallel_results": parallel_results,
            "cached_stats": cached.last_stats,
        }

    outcome = benchmark.pedantic(measure, rounds=1, iterations=1)
    # Affinity-limited CI containers take the lenient branch below.
    cores = usable_cpu_count()
    speedup = outcome["serial_seconds"] / max(outcome["parallel_seconds"], 1e-9)

    rows = [
        ["serial (1 worker)", outcome["serial_seconds"], 1.0],
        [f"parallel ({_GRID_WORKERS} workers)", outcome["parallel_seconds"], speedup],
        [
            "re-run, warm cache",
            outcome["cached_seconds"],
            outcome["serial_seconds"] / max(outcome["cached_seconds"], 1e-9),
        ],
    ]
    report(
        f"Grid-sweep dispatch cost — {len(scenario_list)} scenarios, {cores} cores",
        format_table(["mode", "time (s)", "speedup vs serial"], rows),
        note=(
            "Expected shape: with >= 4 cores the process-pool sweep beats serial by >= 2x;\n"
            "the warm-cache re-run skips every completed cell regardless of core count."
        ),
    )

    # Parallel dispatch must not change the science: identical metrics per cell.
    for (label_a, result_a), (label_b, result_b) in zip(
        outcome["serial_results"], outcome["parallel_results"]
    ):
        assert label_a == label_b
        assert result_a.max_accuracy == result_b.max_accuracy
        assert result_a.asr == result_b.asr

    # The cache re-run executes nothing.
    assert outcome["cached_stats"].cache_hits == len(scenario_list)
    assert outcome["cached_stats"].executed == 0
    assert outcome["cached_stats"].baselines_executed == 0
    assert outcome["cached_seconds"] <= outcome["serial_seconds"]

    # Wall-clock speedup needs real cores; single-core CI boxes only check
    # that the pool does not catastrophically regress.
    if cores >= 4:
        assert speedup >= 2.0
    elif cores >= 2:
        assert speedup >= 1.2
    else:
        assert outcome["parallel_seconds"] <= 5.0 * outcome["serial_seconds"] + 5.0
