"""Command-line interface for running reproduction experiments.

Examples
--------
Run one attack/defense experiment at benchmark scale and print the metrics::

    python -m repro run --dataset cifar-10 --attack dfa-g --defense bulyan

Run a whole scenario (one table/figure) and save a CSV/JSON summary::

    python -m repro scenario table2 --output results/table2

Sweep an attack × defense × beta × attacker-fraction grid across four
worker processes, caching each finished cell on disk::

    python -m repro grid --attacks dfa-r,dfa-g --defenses mkrum,bulyan \
        --betas 0.1,0.5 --dispatch process:4 --cache-dir .repro-cache

Split the same grid across several hosts sharing one cache directory
(cooperative claim leases; see ``repro.experiments.dispatch``), or
statically with ``--shard i/n``::

    python -m repro grid --attacks dfa-r,dfa-g --defenses mkrum,bulyan \
        --betas 0.1,0.5 --dispatch process:4 --cache-dir /shared/cache \
        --claim-ttl 900

List the available attacks, defenses, datasets and scenarios::

    python -m repro list
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from .attacks import available_attacks
from .data.synthetic import DATASET_FACTORIES
from .defenses import available_defenses
from .experiments import ExperimentRunner, benchmark_scale, paper_scale, scenarios, smoke_scale
from .experiments import dispatch
from .experiments.grid import GridExecutionError, GridRunner, expand_grid
from .experiments.io import save_results, write_summary_csv
from .fl.dispatch_policy import DispatchPolicy
from .fl.faults import FaultPlan, ResilienceConfig
from .utils import format_table

__all__ = ["main", "build_parser"]

_SCALES: Dict[str, Callable] = {
    "smoke": smoke_scale,
    "benchmark": benchmark_scale,
    "paper": paper_scale,
}

_SCENARIOS: Dict[str, Callable] = {
    "random-weights": scenarios.random_weights_motivation,
    "table2": scenarios.table2_scenarios,
    "fig4": scenarios.fig4_scenarios,
    "fig5": scenarios.fig5_scenarios,
    "fig6": scenarios.fig6_scenarios,
    "fig7": scenarios.fig7_scenarios,
    "table3": scenarios.table3_scenarios,
    "table4": scenarios.table4_scenarios,
    "fig8": scenarios.fig8_scenarios,
    "fig9": scenarios.fig9_scenarios,
    "fig10": scenarios.fig10_scenarios,
    "set-size": scenarios.synthetic_set_size_scenarios,
}


def _dispatch_spec(text: str) -> str:
    """Dispatch-spec values: a bad spec is a usage error, not a traceback."""
    try:
        DispatchPolicy.coerce(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Fabricated Flips: Poisoning Federated Learning without Data'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run a single attack-vs-defense experiment")
    run.add_argument("--dataset", default="fashion-mnist", choices=sorted(DATASET_FACTORIES))
    run.add_argument("--attack", default=None, help="attack name (omit for a clean run)")
    run.add_argument("--defense", default="fedavg", help="defense name")
    run.add_argument("--scale", default="benchmark", choices=sorted(_SCALES))
    run.add_argument("--beta", type=float, default=None, help="Dirichlet beta (omit for preset default)")
    run.add_argument("--iid", action="store_true", help="use an i.i.d. split instead of Dirichlet")
    run.add_argument("--rounds", type=int, default=None, help="override the number of rounds")
    run.add_argument("--malicious-fraction", type=float, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--dispatch",
        default=None,
        type=_dispatch_spec,
        metavar="SPEC",
        help="where local training and REFD scoring run: 'serial' (default) "
        "or 'process[:N]'",
    )
    run.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write the dispatch spec and its pool counters as JSON",
    )
    _add_resilience_args(run)
    run.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="write a round-granular checkpoint here; combine with --resume "
        "to continue an interrupted run bit-identically",
    )

    scenario = subparsers.add_parser("scenario", help="run every experiment of one table/figure")
    scenario.add_argument("name", choices=sorted(_SCENARIOS))
    scenario.add_argument("--scale", default="benchmark", choices=sorted(_SCALES))
    scenario.add_argument("--output", default=None, help="basename for .json/.csv result files")
    scenario.add_argument(
        "--dispatch",
        default=None,
        type=_dispatch_spec,
        metavar="SPEC",
        help="dispatch-policy spec for the scenario batch; 'process:N' runs "
        "experiments on N worker processes (default: serial)",
    )
    scenario.add_argument(
        "--cache-dir", default=None, help="per-scenario result cache directory"
    )

    grid = subparsers.add_parser(
        "grid", help="sweep an attack x defense x beta x fraction scenario grid"
    )
    grid.add_argument("--datasets", default="fashion-mnist", help="comma-separated dataset names")
    grid.add_argument("--attacks", default="dfa-r,dfa-g", help="comma-separated attack names")
    grid.add_argument("--defenses", default="mkrum,bulyan", help="comma-separated defense names")
    grid.add_argument(
        "--betas",
        default="0.5",
        help="comma-separated Dirichlet betas; 'iid' for an i.i.d. split",
    )
    grid.add_argument(
        "--fractions", default="0.2", help="comma-separated attacker fractions (e.g. 0.1,0.2,0.3)"
    )
    grid.add_argument("--seeds", default="0", help="comma-separated RNG seeds")
    grid.add_argument("--scale", default="benchmark", choices=sorted(_SCALES))
    grid.add_argument("--rounds", type=int, default=None, help="override the number of rounds")
    grid.add_argument(
        "--dispatch",
        default=None,
        type=_dispatch_spec,
        metavar="SPEC",
        help="dispatch-policy spec for the sweep; 'process:N' runs cells on "
        "N worker processes (default: serial)",
    )
    grid.add_argument(
        "--cache-dir",
        default=None,
        help="directory of per-scenario JSON artifacts; re-runs skip cached cells",
    )
    grid.add_argument(
        "--claim-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cooperative multi-runner dispatch: claim cells via <hash>.claim "
        "lease files in the shared --cache-dir, skipping cells a live peer "
        "holds and stealing leases staler than this TTL",
    )
    grid.add_argument(
        "--runner-id",
        default=None,
        help="identity written into claim leases (default: host-pid-nonce)",
    )
    grid.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="static partition fallback: only run cells whose config hash "
        "maps to shard I of N (0-based), e.g. --shard 0/4",
    )
    grid.add_argument(
        "--no-wait",
        action="store_true",
        help="with --claim-ttl: exit once every unclaimed cell is done "
        "instead of waiting for peers' in-flight cells to land in the cache",
    )
    grid.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write this run's GridStats, dispatch spec and pool counters as "
        "JSON (claim/steal/skip counters included) for scripting and CI "
        "assertions",
    )
    grid.add_argument("--output", default=None, help="basename for .json/.csv result files")
    grid.add_argument(
        "--cell-dispatch",
        default=None,
        type=_dispatch_spec,
        metavar="SPEC",
        help="dispatch-policy spec for client fan-out INSIDE each cell "
        "(grid cells default to serial inner dispatch); e.g. 'process:2'",
    )
    _add_resilience_args(grid)

    subparsers.add_parser("list", help="list datasets, attacks, defenses and scenarios")

    lint = subparsers.add_parser(
        "lint",
        help="statically check the determinism/dtype/shm contracts",
        description="AST-lint python sources against the reproduction's "
        "standing contracts (seeded-Generator RNG, float64 defense "
        "geometry, shm lifecycle, deterministic ordering, trace "
        "kernels); exits nonzero on any non-suppressed finding.",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic output format (default: text)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="JSON baseline of grandfathered findings to suppress",
    )
    lint.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write current findings as a baseline file and exit 0",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule ID and the contract it encodes, then exit",
    )
    lint.add_argument(
        "--whole-program",
        action="store_true",
        help="additionally run the interprocedural rule families "
        "(RNG101, DT101, MUT001-003) over the project call graph; "
        "supersedes DT001's function-local tracker",
    )
    lint.add_argument(
        "--callgraph-json",
        default=None,
        metavar="FILE",
        help="with --whole-program: also write the project call graph "
        "(functions + resolved edges) as JSON",
    )
    lint.add_argument(
        "--changed",
        action="store_true",
        help="lint only files reported changed by git (staged, unstaged "
        "and untracked), intersected with the requested paths — the "
        "pre-commit shape documented in the README",
    )
    return parser


def _add_resilience_args(sub: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags shared by ``run`` and ``grid``."""
    sub.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="per-client retry budget for failed round tasks (default 2 "
        "once any resilience flag is given; omit all of them to disable "
        "the recovery plane entirely)",
    )
    sub.add_argument(
        "--round-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt straggler deadline; clients still running when it "
        "expires are cut from the round (recorded in the round record)",
    )
    sub.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="JSON fault-injection plan (chaos testing); see repro.fl.faults",
    )
    sub.add_argument(
        "--resume",
        action="store_true",
        help="resume from round checkpoints left by an interrupted run",
    )


def _resilience_from_args(args: argparse.Namespace) -> Optional[ResilienceConfig]:
    """Resolve the fault-tolerance flags into one config, or ``None``.

    ``None`` (no flag given) keeps the recovery plane entirely out of the
    round loop — the fault-free hot path stays hook-free.
    """
    plan_spec = getattr(args, "fault_plan", None)
    max_retries = getattr(args, "max_retries", None)
    deadline = getattr(args, "round_deadline", None)
    if plan_spec is None and max_retries is None and deadline is None:
        return None
    plan = FaultPlan.from_file(plan_spec) if plan_spec else None
    return ResilienceConfig(
        max_retries=2 if max_retries is None else max_retries,
        round_deadline=deadline,
        fault_plan=plan,
    )


def _chaos_summary(counters: Dict[str, int]) -> Optional[str]:
    """One-line chaos/recovery report, or ``None`` when nothing fired."""
    if not counters:
        return None
    parts = [f"{name}={value}" for name, value in sorted(counters.items()) if value]
    return "chaos: " + " ".join(parts) if parts else None


def _write_policy_stats(
    policy: DispatchPolicy,
    path_spec: Optional[str],
    extra: Optional[Dict] = None,
) -> None:
    """Dump the policy's spec + pool counters as JSON when requested."""
    if not path_spec:
        return
    path = Path(path_spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: Dict[str, Any] = {
        "dispatch": policy.spec,
        "counters": policy.counter_snapshot(),
    }
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2))
    print(f"stats written to {path}")


def _run_single(args: argparse.Namespace) -> int:
    scale = _SCALES[args.scale]
    overrides = {"attack": args.attack, "defense": args.defense, "seed": args.seed}
    if args.iid:
        overrides["beta"] = None
    elif args.beta is not None:
        overrides["beta"] = args.beta
    if args.rounds is not None:
        overrides["num_rounds"] = args.rounds
    if args.malicious_fraction is not None:
        overrides["malicious_fraction"] = args.malicious_fraction
    config = scale(args.dataset, **overrides)

    with DispatchPolicy.coerce(args.dispatch) as policy:
        runner = ExperimentRunner(
            policy=policy,
            resilience=_resilience_from_args(args),
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
        result = runner.run(config)
    rows = [
        ["clean accuracy acc (%)", 100.0 * (result.baseline_accuracy or 0.0)],
        ["max accuracy under attack acc_m (%)", 100.0 * result.max_accuracy],
        ["final accuracy (%)", 100.0 * result.final_accuracy],
        ["attack success rate ASR (%)", result.asr],
        ["defense pass rate DPR (%)", result.dpr],
    ]
    print(f"dataset={args.dataset} attack={args.attack} defense={args.defense} scale={args.scale}")
    print(format_table(["metric", "value"], rows))
    chaos = _chaos_summary(result.fault_stats)
    if chaos:
        print(chaos)
    _write_policy_stats(
        policy, args.stats_json, extra={"fault_stats": dict(result.fault_stats)}
    )
    return 0


def _print_result_line(label: str, result) -> None:
    asr = "   N/A" if result.asr is None else f"{result.asr:6.1f}%"
    dpr = "N/A" if result.dpr is None else f"{result.dpr:.1f}%"
    print(f"{label:45s} acc_m={100.0 * result.max_accuracy:5.1f}%  ASR={asr}  DPR={dpr}")


def _save_if_requested(results, output: Optional[str]) -> None:
    if output:
        json_path = save_results(results, f"{output}.json")
        csv_path = write_summary_csv(results, f"{output}.csv")
        print(f"\nsaved {json_path} and {csv_path}")


def _run_scenario(args: argparse.Namespace) -> int:
    scale = _SCALES[args.scale]
    scenario_list = _SCENARIOS[args.name](scale)
    with DispatchPolicy.coerce(args.dispatch) as policy:
        if policy.backend == "process" or args.cache_dir:
            runner = GridRunner(policy=policy, cache_dir=args.cache_dir, progress=print)
            results = runner.run(scenario_list)
            for label, result in results:
                _print_result_line(label, result)
        else:
            runner = ExperimentRunner(policy=policy)
            results = []
            for label, config in scenario_list:
                result = runner.run(config)
                results.append((label, result))
                _print_result_line(label, result)
    _save_if_requested(results, args.output)
    return 0


def _split_csv(raw: str) -> List[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _grid_axes_or_exit(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Dict:
    """Parse and validate the grid axes, exiting with a usage error on bad input."""
    datasets = _split_csv(args.datasets)
    for dataset in datasets:
        if dataset not in DATASET_FACTORIES:
            parser.error(f"unknown dataset '{dataset}'; choose from {sorted(DATASET_FACTORIES)}")
    attacks = [
        None if part.lower() in {"none", "clean"} else part for part in _split_csv(args.attacks)
    ]
    for attack in attacks:
        if attack is not None and attack not in available_attacks():
            parser.error(f"unknown attack '{attack}'; choose from {available_attacks()}")
    defenses = _split_csv(args.defenses)
    for defense in defenses:
        if defense not in available_defenses():
            parser.error(f"unknown defense '{defense}'; choose from {available_defenses()}")
    try:
        betas = [
            None if part.lower() == "iid" else float(part) for part in _split_csv(args.betas)
        ]
        fractions = [float(part) for part in _split_csv(args.fractions)]
        seeds = [int(part) for part in _split_csv(args.seeds)]
    except ValueError as error:
        parser.error(f"bad numeric axis value: {error}")
    if not (datasets and attacks and defenses and betas and fractions and seeds):
        parser.error("every grid axis needs at least one value")
    return dict(
        datasets=datasets,
        attacks=attacks,
        defenses=defenses,
        betas=betas,
        malicious_fractions=fractions,
        seeds=seeds,
    )


def _run_grid(args: argparse.Namespace) -> int:
    parser = build_parser()
    axes = _grid_axes_or_exit(parser, args)
    scale = _SCALES[args.scale]
    overrides = {}
    if args.rounds is not None:
        overrides["num_rounds"] = args.rounds
    if args.cell_dispatch is not None:
        overrides["dispatch"] = args.cell_dispatch
    if args.claim_ttl is not None and args.cache_dir is None:
        parser.error("--claim-ttl needs --cache-dir (leases live next to the artifacts)")
    if args.claim_ttl is not None and args.claim_ttl <= 0:
        parser.error("--claim-ttl must be positive")
    shard = None
    if args.shard is not None:
        try:
            shard = dispatch.parse_shard(args.shard)
        except ValueError as error:
            parser.error(str(error))
    scenario_list = expand_grid(scale=scale, **axes, **overrides)
    policy = DispatchPolicy.coerce(args.dispatch)
    print(f"grid: {len(scenario_list)} scenarios, dispatch={policy.spec}, "
          f"cache={args.cache_dir or 'disabled'}")
    runner = GridRunner(
        policy=policy,
        cache_dir=args.cache_dir,
        progress=print,
        runner_id=args.runner_id,
        claim_ttl=args.claim_ttl,
        shard=shard,
        wait_for_peers=not args.no_wait,
        resilience=_resilience_from_args(args),
        resume=args.resume,
    )
    exit_code = 0
    try:
        with policy:
            results = runner.run(scenario_list)
    except GridExecutionError as error:
        # GridBaselineError is a subclass: baseline-starved cells appear in
        # the failure list and completed siblings are still salvaged.
        results = error.results
        print(f"\nFAILED cells ({len(error.failures)}):")
        for label, message in sorted(error.failures.items()):
            print(f"  {label}: {message}")
        exit_code = 1
    stats = runner.last_stats
    print()
    for label, result in results:
        _print_result_line(label, result)
    summary = (
        f"\n{stats.total} scenarios: {stats.cache_hits} cached, {stats.executed} executed "
        f"(+{stats.baselines_executed} baselines) in {stats.wall_seconds:.1f}s"
    )
    if stats.failed:
        summary += f"; {stats.failed} failed"
    if args.claim_ttl is not None:
        summary += (
            f"\nclaims: {stats.claims_acquired} acquired, {stats.claims_stolen} stolen, "
            f"{stats.claims_expired} expired, {stats.cells_skipped_claimed} peer-claimed, "
            f"{stats.baselines_awaited} baselines awaited"
        )
    if args.shard is not None:
        summary += f"\nshard {args.shard}: {stats.cells_skipped_shard} cells left to other shards"
    if stats.dataset_publications:
        summary += f"\ndatasets published once per sweep: {stats.dataset_publications}"
    chaos = _chaos_summary(stats.fault_stats)
    if chaos:
        summary += "\n" + chaos
    print(summary)
    # The sweep policy only sizes the cell pool; the cells' own policies
    # run the rounds, so their counters are added in.
    counters = policy.counter_snapshot()
    for name, value in stats.counters.items():
        counters[name] += value
    _write_policy_stats(
        policy, args.stats_json, extra={**dataclasses.asdict(stats), "counters": counters}
    )
    _save_if_requested(results, args.output)
    return exit_code


def _run_list(_: argparse.Namespace) -> int:
    print("datasets:  " + ", ".join(sorted(DATASET_FACTORIES)))
    print("attacks:   " + ", ".join(available_attacks()))
    print("defenses:  " + ", ".join(available_defenses()))
    print("scenarios: " + ", ".join(sorted(_SCENARIOS)))
    print("scales:    " + ", ".join(sorted(_SCALES)))
    return 0


def _git_changed_files() -> Optional[List[Path]]:
    """Paths git reports as changed (staged, unstaged, untracked).

    ``None`` when git is unavailable or the working directory is not a
    repository — the caller degrades to a no-op rather than failing a
    pre-commit hook in an exported tree.
    """
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    changed: List[Path] = []
    for line in proc.stdout.splitlines():
        if len(line) < 4:
            continue
        entry = line[3:]
        if " -> " in entry:  # rename: lint the new path
            entry = entry.split(" -> ", 1)[1]
        if entry.startswith('"') and entry.endswith('"'):
            entry = entry[1:-1]
        path = Path(entry)
        if path.suffix == ".py" and path.exists():
            changed.append(path)
    return changed


def _select_changed(paths: List[str]) -> Optional[List[Path]]:
    """Changed .py files under the requested paths (see ``lint --changed``)."""
    changed = _git_changed_files()
    if changed is None:
        return None
    roots = [Path(p).resolve() for p in paths]
    selected: List[Path] = []
    for path in changed:
        resolved = path.resolve()
        for root in roots:
            if resolved == root or root in resolved.parents:
                selected.append(path)
                break
    return selected


def _run_lint(args: argparse.Namespace) -> int:
    import json as _json

    from .analysis import Baseline, default_program_rules, default_rules, lint_paths

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.contract}")
        if args.whole_program:
            for prule in default_program_rules():
                print(f"{prule.rule_id}  {prule.contract}")
        return 0
    if args.callgraph_json and not args.whole_program:
        print("--callgraph-json requires --whole-program", file=sys.stderr)
        return 2
    paths = args.paths or ["src", "tests"]
    lint_targets: Sequence[Union[str, Path]] = paths
    if args.changed:
        selected = _select_changed(paths)
        if selected is None:
            print(
                "lint --changed: not a git checkout (or git unavailable); "
                "nothing to lint",
                file=sys.stderr,
            )
            return 0
        lint_targets = selected
    baseline = Baseline.load(args.baseline) if args.baseline else None
    program_out: List[object] = []
    report = lint_paths(
        lint_targets,
        rules=rules,
        baseline=baseline,
        whole_program=args.whole_program,
        program_out=program_out,  # type: ignore[arg-type]
    )
    if args.callgraph_json and program_out:
        graph = program_out[0].graph  # type: ignore[attr-defined]
        target = Path(args.callgraph_json)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(_json.dumps(graph.to_dict(), indent=2) + "\n")
        print(f"call graph written to {target}")
    if args.write_baseline:
        Baseline.from_diagnostics(report.diagnostics).save(args.write_baseline)
        print(
            f"wrote baseline with {len(report.diagnostics)} finding(s) to "
            f"{args.write_baseline}"
        )
        return 0
    if args.format == "json":
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run_single(args)
    if args.command == "scenario":
        return _run_scenario(args)
    if args.command == "grid":
        return _run_grid(args)
    if args.command == "list":
        return _run_list(args)
    if args.command == "lint":
        return _run_lint(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
