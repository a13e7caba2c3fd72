"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (see ``repro.experiments.presets.benchmark_scale``).  A single
session-scoped :class:`ExperimentRunner` is shared by all benchmarks so that
clean baselines (the ``acc`` of Eq. 4) are computed once per dataset setup;
sweep-style benchmarks instead go through a session-scoped
:class:`GridRunner`, which fans scenarios out across worker processes and
can reuse results across *sessions* via an on-disk cache.

Environment knobs
-----------------
``REPRO_BENCH_WORKERS``
    Scenario-level worker processes for the grid runner (default: one per
    usable core, capped at 4; taskset and cpuset limits count).
``REPRO_BENCH_CACHE``
    Directory for per-scenario result artifacts; unset disables the cache
    so every benchmark session measures real executions.

This module intentionally defines no importable helpers: test modules under
``tests/`` import shared code from ``tests/helpers.py``, and having the same
names importable from two ``conftest`` modules made the import ambiguous
(whichever directory hit ``sys.path`` first won).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import ExperimentRunner, GridRunner
from repro.fl.dispatch_policy import usable_cpu_count


def bench_workers() -> int:
    """Scenario-level parallelism for sweep benchmarks."""
    raw = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
    if raw:
        return max(1, int(raw))
    return min(4, usable_cpu_count())


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """Session-wide experiment runner with baseline caching."""
    return ExperimentRunner()


@pytest.fixture(scope="session")
def grid_runner() -> GridRunner:
    """Session-wide scenario-grid runner (parallel dispatch + optional cache)."""
    workers = bench_workers()
    return GridRunner(
        policy=f"process:{workers}" if workers > 1 else "serial",
        cache_dir=os.environ.get("REPRO_BENCH_CACHE") or None,
    )


@pytest.fixture
def report(capsys):
    """Print a reproduction table straight to the terminal (bypassing capture)."""

    def _report(title: str, table: str, note: str = "") -> None:
        with capsys.disabled():
            print()
            print("=" * 88)
            print(title)
            print("=" * 88)
            print(table)
            if note:
                print(note)

    return _report
