"""Scenario-grid runner: expand, cache and dispatch whole experiment sweeps.

The paper's evaluation is a grid — attack × defense × heterogeneity (β) ×
attacker-fraction × dataset × seed — and every cell is an independent
:class:`~repro.experiments.config.ExperimentConfig`.  This module turns such
a grid into labelled configs (:class:`GridSpec` / :func:`expand_grid`),
dispatches them across worker processes, and caches each finished cell on
disk keyed by a content hash of its configuration, so interrupted or
repeated sweeps only pay for cells they have not completed yet.

Cache layout
------------
``<cache_dir>/<config_hash>.json`` — one JSON artifact per experiment in the
:func:`repro.experiments.io.result_to_dict` format (including the clean
baselines, which get synthetic ``baseline/…`` labels).  The hash covers the
full config dict (sorted-key JSON, sha256), so it is stable across processes
and Python invocations — unlike ``hash()``, which is salted per process.

Multi-host dispatch
-------------------
Because the cache is content-addressed, *N* runners pointed at one shared
``cache_dir`` can split a grid without any coordinator: pass ``claim_ttl``
(CLI ``--claim-ttl``) and every runner claims pending cells through atomic
``<hash>.claim`` lease files before executing them — see
:mod:`repro.experiments.dispatch` for the lease protocol (heartbeats, stale
takeover) and the deterministic ``--shard i/n`` static-partition fallback.
Cells another live runner holds are skipped (their results come out of the
cache on the next pass); stale leases are stolen.  On each host, every
distinct dataset of the sweep is published once at grid level
(:class:`~repro.experiments.dispatch.DatasetBroker`) and worker processes
attach read-only shared-memory views instead of regenerating it per cell.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..fl.dispatch_policy import DispatchPolicy
from ..fl.faults import FaultStats, ResilienceConfig
from .config import ExperimentConfig
from .dispatch import (
    ClaimLedger,
    DatasetBroker,
    default_runner_id,
    initialize_worker,
    parse_shard,
    resolve_task,
    shard_of,
)
from .io import (
    atomic_write_json,
    quarantine_count,
    read_json,
    result_from_dict,
    result_to_dict,
)
from .runner import ExperimentResult, run_experiment
from .scenarios import Scenario

__all__ = [
    "GridSpec",
    "GridStats",
    "GridRunner",
    "GridBaselineError",
    "GridExecutionError",
    "config_hash",
    "expand_grid",
    "run_grid",
]

PathLike = Union[str, Path]
ProgressFn = Callable[[str], None]


#: Bump when an algorithm change invalidates previously cached results —
#: the version is mixed into :func:`config_hash`, so old artifacts simply
#: stop matching (the cache is config-keyed, not code-keyed).
#: 2: float64 defense distance plane (Krum/Bulyan selection changes on
#: converged rounds), Bulyan median-closest coordinate rule, FoolsGold
#: pardoning.
CACHE_VERSION = 2


def config_hash(config: ExperimentConfig) -> str:
    """Deterministic content hash of a configuration.

    Stable across processes, interpreter restarts and platforms (pure
    function of the config's field values plus :data:`CACHE_VERSION`), so it
    can key on-disk caches.
    """
    payload = json.dumps(
        {"cache_version": CACHE_VERSION, **config.to_dict()}, sort_keys=True, default=repr
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


@dataclass
class GridSpec:
    """Axes of a scenario grid; the cross product defines the sweep."""

    datasets: Sequence[str] = ("fashion-mnist",)
    attacks: Sequence[Optional[str]] = ("dfa-r",)
    defenses: Sequence[str] = ("fedavg",)
    betas: Sequence[Optional[float]] = (0.5,)
    malicious_fractions: Sequence[float] = (0.2,)
    seeds: Sequence[int] = (0,)
    scale: Callable[..., ExperimentConfig] = None  # set in __post_init__
    overrides: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scale is None:
            from .presets import benchmark_scale

            self.scale = benchmark_scale

    def expand(self) -> List[Scenario]:
        """Expand the cross product into ``(label, config)`` scenarios."""
        return expand_grid(
            datasets=self.datasets,
            attacks=self.attacks,
            defenses=self.defenses,
            betas=self.betas,
            malicious_fractions=self.malicious_fractions,
            seeds=self.seeds,
            scale=self.scale,
            **self.overrides,
        )

    @property
    def size(self) -> int:
        """Number of scenarios the grid expands to."""
        return (
            len(self.datasets)
            * len(self.attacks)
            * len(self.defenses)
            * len(self.betas)
            * len(self.malicious_fractions)
            * len(self.seeds)
        )


def expand_grid(
    datasets: Sequence[str] = ("fashion-mnist",),
    attacks: Sequence[Optional[str]] = ("dfa-r",),
    defenses: Sequence[str] = ("fedavg",),
    betas: Sequence[Optional[float]] = (0.5,),
    malicious_fractions: Sequence[float] = (0.2,),
    seeds: Sequence[int] = (0,),
    scale: Optional[Callable[..., ExperimentConfig]] = None,
    **overrides,
) -> List[Scenario]:
    """Cross every axis and return labelled configs, outermost axis first.

    ``scale`` is a preset factory (``smoke_scale`` / ``benchmark_scale`` /
    ``paper_scale``); extra keyword arguments are forwarded to it, so e.g.
    ``num_rounds=3`` shrinks every cell of the grid uniformly.
    """
    if scale is None:
        from .presets import benchmark_scale as scale

    grid: List[Scenario] = []
    for dataset in datasets:
        for defense in defenses:
            for attack in attacks:
                for beta in betas:
                    for fraction in malicious_fractions:
                        for seed in seeds:
                            config = scale(
                                dataset,
                                attack=attack,
                                defense=defense,
                                beta=beta,
                                malicious_fraction=fraction,
                                seed=seed,
                                **overrides,
                            )
                            label = "/".join(
                                [
                                    dataset,
                                    defense,
                                    str(attack or "clean"),
                                    "iid" if beta is None else f"beta={beta}",
                                    f"attackers={fraction:.0%}",
                                    f"seed={seed}",
                                ]
                            )
                            grid.append((label, config))
    return grid


@dataclass
class GridStats:
    """Bookkeeping of one :meth:`GridRunner.run` call."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    baselines_executed: int = 0
    baseline_cache_hits: int = 0
    baselines_awaited: int = 0
    claims_acquired: int = 0
    claims_stolen: int = 0
    claims_expired: int = 0
    claims_lost: int = 0
    cells_skipped_claimed: int = 0
    cells_skipped_shard: int = 0
    dataset_publications: int = 0
    wall_seconds: float = 0.0
    fault_stats: Dict[str, int] = field(default_factory=dict)
    """Aggregated :class:`~repro.fl.faults.FaultStats` counters across every
    cell *executed* this run (cache hits do not re-count their stored
    stats), plus artifacts corrupted/quarantined at grid level.  Empty when
    nothing fired."""
    counters: Dict[str, int] = field(default_factory=dict)
    """Summed pool counters (:meth:`DispatchPolicy.counter_snapshot
    <repro.fl.dispatch_policy.DispatchPolicy.counter_snapshot>`) of the
    cells *executed* this run: each cell runs its rounds on its own policy.
    Empty when no cell executed."""


class GridExecutionError(RuntimeError):
    """One or more grid cells failed; every sibling cell still completed (and
    was cached).  ``failures`` maps cell labels to error strings and
    ``results`` carries the completed ``(label, result)`` pairs in input
    order, so callers can salvage partial sweeps."""

    def __init__(
        self,
        failures: Dict[str, str],
        results: Sequence[Tuple[str, ExperimentResult]],
        message: Optional[str] = None,
    ) -> None:
        self.failures = dict(failures)
        self.results = list(results)
        if message is None:
            lines = [f"{label}: {error}" for label, error in sorted(failures.items())]
            message = (
                f"{len(failures)} grid cell(s) failed "
                f"({len(results)} completed):\n  " + "\n  ".join(lines)
            )
        super().__init__(message)


class GridBaselineError(GridExecutionError):
    """Clean-baseline placeholders survived phase 1 of some batch (failed
    baseline job or a ``baseline_key`` round-trip mismatch).  The dependent
    cells cannot compute a meaningful ASR, so they are *skipped* — never run
    with a NaN baseline — and named in :attr:`labels`; cells depending on
    healthy baselines still execute, and the completed results ride along in
    :attr:`results` like any :class:`GridExecutionError`."""

    _MARKER = "clean baseline missing after phase 1"

    def __init__(
        self,
        labels: Sequence[str],
        failures: Dict[str, str],
        results: Sequence[Tuple[str, ExperimentResult]],
    ) -> None:
        self.labels = sorted(labels)
        super().__init__(
            failures,
            results,
            message=(
                "clean baselines missing after phase 1 for cells: "
                + ", ".join(self.labels)
            ),
        )


def _run_cell(
    label: str,
    config: ExperimentConfig,
    baseline_accuracy: Optional[float],
    resilience: Optional[ResilienceConfig] = None,
    checkpoint_path: Optional[PathLike] = None,
    resume: bool = False,
):
    """Worker entry point: must stay module-level so it pickles."""
    task = resolve_task(config)
    return label, run_experiment(
        config,
        baseline_accuracy=baseline_accuracy,
        task=task,
        resilience=resilience,
        checkpoint_path=checkpoint_path,
        resume=resume,
    )


class GridRunner:
    """Run a scenario grid with worker processes and per-scenario disk cache.

    Parameters
    ----------
    policy:
        A :class:`~repro.fl.dispatch_policy.DispatchPolicy` (or spec string
        such as ``"process:4"``) sizing the cell fan-out: a ``process``
        policy runs pending cells on a pool of its ``workers`` processes; a
        serial one runs everything in the calling process (no pool, no
        pickling requirements beyond the cache files).
    cache_dir:
        Directory of per-scenario JSON artifacts; ``None`` disables caching.
        Artifacts are keyed by :func:`config_hash`, so re-running a grid after
        an interruption (or with new cells added) only executes the missing
        cells.
    progress:
        Callable receiving one human-readable line per completed cell
        (``print`` for streaming output); ``None`` silences progress.
    runner_id:
        This runner's identity in lease files (defaults to a unique
        host-pid-nonce string).
    claim_ttl:
        Enable cooperative multi-runner dispatch: before executing a pending
        cell, atomically create ``<cache_dir>/<hash>.claim``; skip cells
        whose lease a live peer holds; steal leases whose heartbeat is older
        than this many seconds.  Requires ``cache_dir``.  ``None`` (default)
        disables claiming — single-runner behaviour is unchanged.
    shard:
        ``"i/n"`` (or ``(i, n)``) static partition: only cells whose config
        hash maps to shard ``i`` of ``n`` are considered at all; the rest are
        counted in :attr:`GridStats.cells_skipped_shard` and omitted from the
        returned results.  Composable with ``claim_ttl``.
    resilience:
        Optional :class:`~repro.fl.faults.ResilienceConfig` forwarded to
        every cell's simulation (fault-tolerant round loop; the embedded
        fault plan is narrowed per cell label via
        :meth:`~repro.fl.faults.ResilienceConfig.for_cell`, and baselines
        run with the plan stripped so chaos never skews ASR references).
        Plans may also carry ``corrupt-artifact`` events, which the runner
        applies to the matching cell's freshly written cache artifact —
        exercising the torn-artifact quarantine path end to end.  With a
        ``cache_dir``, per-cell round checkpoints land next to the cache as
        ``<hash>.ckpt.json`` and are deleted once the cell's artifact is
        stored.
    resume:
        Resume cells from their round checkpoints when present (see
        ``resilience``); finished cells still come from the cache as usual.
    wait_for_peers:
        Under ``claim_ttl``: when every cell this runner could claim is done
        but peers still hold leases on the rest, keep polling — their
        artifacts land as cache hits, and leases that go stale are stolen —
        so the returned results cover the *whole* grid (minus shard skips)
        as long as at least one runner survives.  ``False`` exits instead,
        counting the peer-held cells in
        :attr:`GridStats.cells_skipped_claimed` and omitting them from the
        returned pairs ("do what I can and leave").

    Two phases per batch of cells: first the distinct clean baselines
    (needed for the ASR of Eq. 4, shared by every cell with the same
    federation settings), then the cells themselves — both fan out across
    one pool reused for the whole run and both consult the cache before
    executing anything.  Under ``claim_ttl``, cells are claimed a batch
    (~2×``workers``) at a time rather than all upfront, so concurrent
    runners interleave through the grid instead of the first arrival
    claiming everything; a baseline another runner is currently computing
    is *awaited* (its artifact is polled, with stale-lease takeover if the
    peer dies) rather than duplicated.

    Failure semantics: a cell whose worker raises no longer aborts the sweep
    — the error is recorded against the cell's label, every sibling keeps
    streaming (and caching), and the run ends by raising
    :class:`GridExecutionError` carrying the failure map plus the completed
    results.  A cell whose clean baseline could not be produced is skipped
    (NaN never reaches an ASR) and the run ends with
    :class:`GridBaselineError` — a :class:`GridExecutionError` subclass —
    naming those cells; cells with healthy baselines still execute.
    """

    def __init__(
        self,
        cache_dir: Optional[PathLike] = None,
        progress: Optional[ProgressFn] = None,
        runner_id: Optional[str] = None,
        claim_ttl: Optional[float] = None,
        shard: Optional[Union[str, Tuple[int, int]]] = None,
        wait_for_peers: bool = True,
        policy=None,
        resilience: Optional[ResilienceConfig] = None,
        resume: bool = False,
    ) -> None:
        if claim_ttl is not None and cache_dir is None:
            raise ValueError("claim leases need a cache_dir to live in")
        self.dispatch = DispatchPolicy.coerce(policy)
        self.workers = 1
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.progress = progress
        self.runner_id = runner_id or default_runner_id()
        self.claim_ttl = claim_ttl
        self.shard = parse_shard(shard) if isinstance(shard, str) else shard
        if self.shard is not None:
            parse_shard(f"{self.shard[0]}/{self.shard[1]}")  # validate tuples too
        self.wait_for_peers = wait_for_peers
        self.resilience = resilience
        self.resume = resume
        self.last_stats = GridStats()
        self.last_failures: Dict[str, str] = {}
        self._broker: Optional[DatasetBroker] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._run_fault_stats = FaultStats()
        self._run_counters: Dict[str, int] = {}
        self._artifact_faults_fired: set = set()

    # ------------------------------------------------------------------
    # Cache helpers
    # ------------------------------------------------------------------
    def _cache_path(self, config: ExperimentConfig) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{config_hash(config)}.json"

    def _cache_load(self, config: ExperimentConfig) -> Optional[Tuple[str, ExperimentResult]]:
        path = self._cache_path(config)
        if path is None:
            return None
        data = read_json(path)
        if data is None:
            return None
        try:
            return result_from_dict(data)
        except (ValueError, KeyError, TypeError):
            # Corrupt or stale artifact: fall through to re-execution.
            return None

    def _cache_store(self, label: str, result: ExperimentResult) -> None:
        path = self._cache_path(result.config)
        if path is None:
            return
        atomic_write_json(path, result_to_dict(label, result))

    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _checkpoint_path(self, config: ExperimentConfig) -> Optional[Path]:
        """Round-checkpoint path for one cell, when checkpointing is on."""
        if self.cache_dir is None:
            return None
        if self.resilience is None and not self.resume:
            return None
        return self.cache_dir / f"{config_hash(config)}.ckpt.json"

    def _cell_resilience(self, label: str) -> Optional[ResilienceConfig]:
        """The per-cell resilience config: plan narrowed to the cell's label,
        and stripped entirely for clean baselines (chaos must never skew the
        ASR reference)."""
        if self.resilience is None:
            return None
        if label.startswith("baseline/"):
            return self.resilience.without_plan()
        return self.resilience.for_cell(label)

    def _maybe_corrupt_artifact(self, label: str, config: ExperimentConfig) -> None:
        """Apply planned ``corrupt-artifact`` events to a freshly stored cell.

        Truncates the artifact mid-file (fire-once per event), simulating a
        torn write from a crashed peer on a non-atomic filesystem; the next
        reader quarantines it and re-executes the cell.
        """
        if self.resilience is None or self.resilience.fault_plan is None:
            return
        path = self._cache_path(config)
        if path is None:
            return
        for event in self.resilience.fault_plan.for_cell(label).artifact_events():
            key = (event.cell, event.round, event.slot)
            if key in self._artifact_faults_fired:
                continue
            self._artifact_faults_fired.add(key)
            try:
                data = path.read_bytes()
                path.write_bytes(data[: max(1, len(data) // 2)])
            except OSError:  # pragma: no cover - artifact raced away
                continue
            self._run_fault_stats.artifacts_corrupted += 1
            self._emit(f"[chaos] corrupted cache artifact of {label}")

    def _finish_cell(
        self,
        label: str,
        config: ExperimentConfig,
        result: ExperimentResult,
        ledger: Optional[ClaimLedger],
    ) -> None:
        self._cache_store(label, result)
        self._run_fault_stats.merge(result.fault_stats)
        for name, value in result.dispatch_counters.items():
            self._run_counters[name] = self._run_counters.get(name, 0) + value
        self._maybe_corrupt_artifact(label, config)
        checkpoint = self._checkpoint_path(config)
        if checkpoint is not None:
            # The cell's artifact is durable; its round checkpoint is scrap.
            try:
                checkpoint.unlink()
            except OSError:
                pass
        if ledger is not None:
            # The artifact is on disk, so peers hit the cache from here on;
            # releasing keeps a finished sweep's directory free of leases.
            ledger.release(config_hash(config))

    def _fail_cell(
        self,
        label: str,
        config: ExperimentConfig,
        error: Union[BaseException, str],
        failures: Dict[str, str],
        ledger: Optional[ClaimLedger],
    ) -> None:
        if isinstance(error, BaseException):
            error = f"{type(error).__name__}: {error}"
        failures[label] = error
        self._emit(f"[failed] {label}: {failures[label]}")
        if ledger is not None:
            # Give the lease back so a peer (or a re-run) can retry the cell.
            ledger.release(config_hash(config))

    def _execute_batch(
        self,
        jobs: List[Tuple[str, ExperimentConfig, Optional[float]]],
        phase: str,
        ledger: Optional[ClaimLedger] = None,
    ) -> Tuple[Dict[str, ExperimentResult], Dict[str, str]]:
        """Run (label, config, baseline) jobs, streaming completions.

        Worker exceptions never abandon the batch: each failure is recorded
        against its label and every other in-flight cell still completes,
        caches and streams.  Held claim leases are heartbeat-refreshed while
        the batch runs.
        """
        results: Dict[str, ExperimentResult] = {}
        failures: Dict[str, str] = {}
        total = len(jobs)
        if not jobs:
            return results, failures
        started = time.perf_counter()

        def note(label: str, result: ExperimentResult, index: int) -> None:
            asr = "  n/a" if result.asr is None else f"{result.asr:5.1f}%"
            self._emit(
                f"[{phase} {index}/{total}] {label}  "
                f"acc_m={100.0 * result.max_accuracy:5.1f}%  ASR={asr}  "
                f"({time.perf_counter() - started:.1f}s elapsed)"
            )

        if self.workers == 1:
            for index, (label, config, baseline) in enumerate(jobs, start=1):
                if ledger is not None:
                    ledger.refresh()
                try:
                    label, result = _run_cell(
                        label,
                        config,
                        baseline,
                        resilience=self._cell_resilience(label),
                        checkpoint_path=self._checkpoint_path(config),
                        resume=self.resume,
                    )
                except Exception as error:
                    self._fail_cell(label, config, error, failures, ledger)
                    continue
                self._finish_cell(label, config, result, ledger)
                results[label] = result
                note(label, result, index)
            return results, failures

        heartbeat = ledger.heartbeat_interval if ledger is not None else None
        pending = self._submit_jobs(jobs)
        done_count = 0
        pool_broke = False
        while pending:
            done, _ = wait(pending, timeout=heartbeat, return_when=FIRST_COMPLETED)
            if ledger is not None:
                ledger.refresh()
            for future in done:
                label, config = pending.pop(future)
                done_count += 1
                try:
                    label, result = future.result()
                except Exception as error:
                    pool_broke = pool_broke or isinstance(error, BrokenProcessPool)
                    self._fail_cell(label, config, error, failures, ledger)
                    continue
                self._finish_cell(label, config, result, ledger)
                results[label] = result
                note(label, result, done_count)
        if pool_broke:
            # A dead worker poisons the whole executor; dispose of it so the
            # next batch gets a healthy pool instead of an instant
            # BrokenProcessPool on submit.
            self._reset_pool()
        return results, failures

    def _submit_jobs(self, jobs):
        """Submit a batch to the run-level pool, replacing a broken pool once.

        A worker that died idle between batches only surfaces when the pool
        is next used; one retry on a fresh pool covers that without masking
        a pool that cannot be brought up at all.
        """
        for attempt in (0, 1):
            pool = self._ensure_pool()
            try:
                return {
                    pool.submit(
                        _run_cell,
                        label,
                        config,
                        baseline,
                        resilience=self._cell_resilience(label),
                        checkpoint_path=self._checkpoint_path(config),
                        resume=self.resume,
                    ): (label, config)
                    for label, config, baseline in jobs
                }
            except BrokenProcessPool:
                self._reset_pool()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _reset_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The run-level worker pool, created on first use.

        One pool serves every batch of both phases, so incremental claiming
        (which executes many small batches) pays the process start-up cost
        once; the initializer installs the grid-level dataset publications
        in every worker.
        """
        if self._pool is None:
            payload = self._broker.worker_payload() if self._broker is not None else {}
            pool_kwargs: Dict[str, Any] = {"max_workers": self.workers}
            if payload:
                pool_kwargs.update(initializer=initialize_worker, initargs=(payload,))
            self._pool = ProcessPoolExecutor(**pool_kwargs)
        return self._pool

    def _claim_batch(
        self,
        remaining: List[Scenario],
        batch_size: int,
        ledger: Optional[ClaimLedger],
        cached: Dict[str, ExperimentResult],
        stats: GridStats,
    ) -> Tuple[List[Scenario], List[Scenario], bool]:
        """Scan ``remaining`` and claim up to ``batch_size`` cells to run.

        Re-probes the cache per cell (a peer may have finished it since the
        last pass — those land in ``cached``) and, under a ledger, claims
        before taking; cells a live peer holds stay in the returned
        ``still``-remaining list for a later pass.  Returns
        ``(batch, still, progressed)`` where ``progressed`` says whether any
        cell was resolved from the cache this pass.
        """
        batch: List[Scenario] = []
        still: List[Scenario] = []
        progressed = False
        for index, (label, config) in enumerate(remaining):
            if len(batch) >= batch_size:
                still.extend(remaining[index:])
                break
            chash = config_hash(config)
            hit = self._cache_load(config)
            if hit is None and ledger is not None:
                if not ledger.try_claim(chash):
                    still.append((label, config))
                    continue
                # A peer may have stored + released between our cache probe
                # and the claim; re-check before executing.
                hit = self._cache_load(config)
                if hit is not None:
                    ledger.release(chash)
            if hit is not None:
                cached[label] = hit[1]
                stats.cache_hits += 1
                progressed = True
                self._emit(f"[cache] {label}")
            else:
                batch.append((label, config))
        return batch, still, progressed

    def _run_batch(
        self,
        batch: List[Scenario],
        baselines: Dict[Tuple, float],
        ledger: Optional[ClaimLedger],
        stats: GridStats,
        failures: Dict[str, str],
        executed: Dict[str, ExperimentResult],
    ) -> None:
        """Run one claimed batch: its missing clean baselines, then the cells.

        ``baselines`` accumulates across batches, so a federation setting's
        clean run executes at most once per runner (and, under a ledger, at
        most once per *grid* — peers' in-flight baselines are awaited, not
        duplicated).  Cells whose baseline placeholder survives phase 1
        (failed baseline job, ``baseline_key`` round-trip mismatch) are
        *skipped* and recorded as failures — NaN never reaches a dependent
        cell's ASR — while cells with healthy baselines still run.
        """
        dependents: Dict[Tuple, List[Scenario]] = {}
        awaited: Dict[Tuple, ExperimentConfig] = {}
        baseline_jobs: List[Tuple[str, ExperimentConfig, Optional[float]]] = []
        for label, config in batch:
            key = config.baseline_key()
            dependents.setdefault(key, []).append((label, config))
            if key in baselines or key in awaited:
                continue
            clean = config.clean_variant()
            hit = self._cache_load(clean)
            if hit is None and ledger is not None:
                if not ledger.try_claim(config_hash(clean)):
                    # A live peer is computing this baseline right now;
                    # await its artifact after running our own jobs.
                    awaited[key] = clean
                    stats.baselines_awaited += 1
                    continue
                hit = self._cache_load(clean)
                if hit is not None:
                    ledger.release(config_hash(clean))
            if hit is not None:
                baselines[key] = hit[1].max_accuracy
                stats.baseline_cache_hits += 1
            else:
                baselines[key] = float("nan")  # placeholder until phase 1 ends
                baseline_jobs.append((f"baseline/{config_hash(clean)}", clean, None))

        baseline_results, baseline_failures = self._execute_batch(
            baseline_jobs, phase="baseline", ledger=ledger
        )
        failures.update(baseline_failures)
        stats.baselines_executed += len(baseline_results)
        for result in baseline_results.values():
            baselines[result.config.baseline_key()] = result.max_accuracy
        skipped_keys = set()
        for key, clean in awaited.items():
            if not self.wait_for_peers:
                # --no-wait: blocking on a peer's in-flight baseline is the
                # exact waiting the flag opts out of; give the dependent
                # cells back (release + skip) instead.
                skipped_keys.add(key)
                continue
            value = self._await_baseline(clean, ledger, stats, failures)
            if value is not None:
                baselines[key] = value
        for key in sorted(skipped_keys):
            for label, config in dependents.pop(key):
                stats.cells_skipped_claimed += 1
                if ledger is not None:
                    ledger.release(config_hash(config))
                self._emit(f"[claimed] {label} (a peer holds the baseline lease)")

        # Every placeholder must have been filled: a failed baseline job or
        # a baseline_key() round-trip mismatch would otherwise leak NaN into
        # the ASR of every dependent cell.  Those cells are failed and
        # skipped; the rest of the batch still runs.
        runnable: List[Scenario] = []
        for key, cells in dependents.items():
            if key in baselines and baselines[key] == baselines[key]:
                runnable.extend(cells)
                continue
            for label, config in cells:
                self._fail_cell(label, config, GridBaselineError._MARKER, failures, ledger)

        jobs = [
            (label, config, baselines[config.baseline_key()])
            for label, config in runnable
        ]
        results, grid_failures = self._execute_batch(jobs, phase="grid", ledger=ledger)
        failures.update(grid_failures)
        executed.update(results)
        stats.executed += len(results)

    def _await_baseline(
        self,
        clean: ExperimentConfig,
        ledger: ClaimLedger,
        stats: GridStats,
        failures: Dict[str, str],
    ) -> Optional[float]:
        """Wait for a peer's in-flight clean baseline, stealing if it dies.

        Polls the cache for the peer's artifact while its lease stays fresh;
        if the lease expires (or is released without an artifact), claims the
        cell and runs it locally.  Returns ``None`` only when the local
        fallback run itself failed (recorded in ``failures``).
        """
        chash = config_hash(clean)
        label = f"baseline/{chash}"
        self._emit(f"[await] {label} (a peer is computing this baseline)")
        while True:
            hit = self._cache_load(clean)
            if hit is not None:
                return hit[1].max_accuracy
            if ledger.try_claim(chash):
                hit = self._cache_load(clean)  # peer stored then released
                if hit is not None:
                    ledger.release(chash)
                    return hit[1].max_accuracy
                executed, batch_failures = self._execute_batch(
                    [(label, clean, None)], phase="baseline", ledger=ledger
                )
                failures.update(batch_failures)
                stats.baselines_executed += len(executed)
                for result in executed.values():
                    return result.max_accuracy
                return None
            ledger.refresh()
            time.sleep(min(ledger.heartbeat_interval, 0.5))

    def run(self, scenario_list: Sequence[Scenario]) -> List[Tuple[str, ExperimentResult]]:
        """Run every scenario (cache-aware) and return ``(label, result)`` pairs
        in input order.  Per-run statistics land in :attr:`last_stats`.

        Cells outside this runner's ``--shard`` partition are never touched
        and are omitted from the returned pairs — collect them from the
        shared cache once every shard finished (a plain re-run returns the
        full grid from cache).  Under ``claim_ttl`` the default
        ``wait_for_peers=True`` makes the returned pairs cover everything
        else: cells peers execute come back as cache hits.  With
        ``wait_for_peers=False``, cells still leased by live peers at the
        end are skipped and omitted likewise.  Failed cells raise
        :class:`GridExecutionError` at the end of the run, after every
        sibling completed.
        """
        labels = [label for label, _ in scenario_list]
        if len(set(labels)) != len(labels):
            duplicates = sorted({label for label in labels if labels.count(label) > 1})
            raise ValueError(f"duplicate scenario labels: {duplicates}")

        started = time.perf_counter()
        stats = GridStats(total=len(scenario_list))
        failures: Dict[str, str] = {}
        self._run_fault_stats = FaultStats()
        self._run_counters = {}
        quarantine_start = quarantine_count()
        ledger: Optional[ClaimLedger] = None
        if self.claim_ttl is not None:
            ledger = ClaimLedger(self.cache_dir, self.runner_id, self.claim_ttl)
            # Heartbeat from a daemon thread: the serial (workers=1) path
            # cannot refresh while a cell runs in this very process, and a
            # pool batch can outlast the TTL between wait() wake-ups.
            ledger.start_heartbeat()

        cached: Dict[str, ExperimentResult] = {}
        executed: Dict[str, ExperimentResult] = {}
        baselines: Dict[Tuple, float] = {}
        try:
            remaining: List[Scenario] = []
            for label, config in scenario_list:
                chash = config_hash(config)
                if self.shard is not None and shard_of(chash, self.shard[1]) != self.shard[0]:
                    stats.cells_skipped_shard += 1
                    continue
                hit = self._cache_load(config)
                if hit is not None:
                    cached[label] = hit[1]
                    stats.cache_hits += 1
                    self._emit(f"[cache] {label}")
                else:
                    remaining.append((label, config))

            # A process policy runs the pending cells on a pool of its
            # worker count; a serial one runs them in-process.
            self.workers = (
                self.dispatch.workers if self.dispatch.backend == "process" else 1
            )

            # Publish every distinct dataset of the sweep once per host; the
            # worker-pool initializer (or the in-process memo for workers=1)
            # makes cells attach instead of regenerating.  Clean baselines
            # share their cells' dataset fields, so they are covered too.
            if remaining:
                self._broker = DatasetBroker(use_shared_memory=self.workers > 1)
                self._broker.publish([config for _, config in remaining])
                stats.dataset_publications = self._broker.publications

            # Claim and execute in batches: without a ledger one batch covers
            # the whole grid (classic two-phase run); with one, small batches
            # let concurrent runners interleave through the grid instead of
            # the first arrival claiming every cell upfront.
            batch_size = len(remaining) if ledger is None else max(4, 2 * self.workers)
            while remaining:
                batch, remaining, progressed = self._claim_batch(
                    remaining, batch_size, ledger, cached, stats
                )
                if batch:
                    self._run_batch(batch, baselines, ledger, stats, failures, executed)
                    continue
                if not remaining:
                    break
                if not self.wait_for_peers:
                    stats.cells_skipped_claimed += len(remaining)
                    for label, _ in remaining:
                        self._emit(f"[claimed] {label} (a peer holds the lease)")
                    break
                if not progressed:
                    # Peers hold every remaining cell: poll until their
                    # artifacts land (cache hits) or their leases go stale
                    # (the next _claim_batch steals them).
                    time.sleep(min(1.0, ledger.heartbeat_interval))
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            if self._broker is not None:
                self._broker.close()
                self._broker = None
            if ledger is not None:
                ledger.stop_heartbeat()
                ledger.release_all()
                stats.claims_acquired = ledger.acquired
                stats.claims_stolen = ledger.stolen
                stats.claims_expired = ledger.expired
                stats.claims_lost = ledger.lost
            stats.failed = len(failures)
            self._run_fault_stats.artifacts_quarantined += (
                quarantine_count() - quarantine_start
            )
            stats.fault_stats = (
                self._run_fault_stats.to_dict()
                if self._run_fault_stats.any()
                else {}
            )
            stats.counters = dict(self._run_counters)
            stats.wall_seconds = time.perf_counter() - started
            self.last_stats = stats
            self.last_failures = dict(failures)

        ordered: List[Tuple[str, ExperimentResult]] = []
        for label, _ in scenario_list:
            if label in cached:
                ordered.append((label, cached[label]))
            elif label in executed:
                ordered.append((label, executed[label]))
        if failures:
            baseline_starved = sorted(
                label
                for label, message in failures.items()
                if message == GridBaselineError._MARKER
            )
            if baseline_starved:
                raise GridBaselineError(baseline_starved, failures, ordered)
            raise GridExecutionError(failures, ordered)
        return ordered


def run_grid(
    scenario_list: Sequence[Scenario],
    cache_dir: Optional[PathLike] = None,
    progress: Optional[ProgressFn] = None,
    policy=None,
    **runner_kwargs,
) -> List[Tuple[str, ExperimentResult]]:
    """One-shot convenience wrapper around :class:`GridRunner`."""
    return GridRunner(
        cache_dir=cache_dir,
        progress=progress,
        policy=policy,
        **runner_kwargs,
    ).run(scenario_list)
