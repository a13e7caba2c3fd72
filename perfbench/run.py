"""Run one benchmark workload and print its metrics; the last line is JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload fmnist-dfag-bulyan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` records a span around every layer entry point, prints the
per-layer metrics and writes the spans to ``perfbench/out/``.  ``all`` runs
every workload, each in a fresh process.  The program is imported from the
checkout's ``src/``; nothing is installed.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, pinned before numpy is first imported: with two
# threads on two shared vCPUs one synthesis call swung 0.07-0.20 s per run.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git_dir = root / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = git_dir / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> str:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as maps:
            libraries = sorted(
                {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
            )
    except OSError:
        libraries = []
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                return str(getter())
    return "env:" + os.environ["OPENBLAS_NUM_THREADS"]


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import repro

    if source.resolve() not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}, not {source}")


def run_all(args: argparse.Namespace, names) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in names:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"== {name}", flush=True)
        status = subprocess.run(command, check=False).returncode or status
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads(SPEC_PATH.read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    try:
        import_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(BENCH_DIR))
    from spans import SpanRecorder, instrument
    from workloads import OUT_DIR, phase_shares, run_workload

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if args.trace:
        recorder = SpanRecorder(run_id)
        with instrument(recorder):
            outcome = run_workload(args.workload, args.seed, args.seconds, recorder)
        recorder.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        outcome = run_workload(args.workload, args.seed, args.seconds, None)

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"# run {run_id}: workload={args.workload} seed={args.seed} "
        f"git={git_sha(ROOT)} blas_threads={blas_threads()} nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))} attempted={outcome.attempted} "
        f"failed={outcome.failed} "
        + " ".join(f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
                   for key, value in outcome.notes.items())
    )
    if not outcome.end_to_end:
        print("perfbench: no operation completed; nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        print("# traced end-to-end " + json.dumps(outcome.end_to_end))
        shares = phase_shares(outcome.layers)
        print("# round phase shares " + ", ".join(
            f"{metric[:-2]} {share:.1%}" for metric, share in shares.items() if share
        ))
    section = "per_layer" if args.trace else "end_to_end"
    measured = outcome.layers if args.trace else outcome.end_to_end
    listed = {metric["name"]: metric["unit"] for metric in spec[section]}
    if set(listed) != set(measured):
        print(
            f"perfbench: measured {sorted(measured)} but BENCHMARK.json lists {sorted(listed)}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": measured[name], "unit": unit} for name, unit in listed.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
