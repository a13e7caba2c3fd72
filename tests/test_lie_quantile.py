"""The normal quantile behind LIE's shift factor, and a scipy-free package.

``lie_z_max`` takes one standard-normal quantile per cohort.  ``ndtri`` is a
port of Cephes ``ndtri``, the routine behind ``scipy.stats.norm.ppf``, so
every LIE shift keeps the bits it had when the package called scipy.
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.attacks import lie_z_max
from repro.attacks.lie import ndtri

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``float.hex`` of ``lie_z_max(n, m)`` for m = 0 .. n-1, captured from
#: ``scipy.stats.norm.ppf`` for every cohort size the presets select
#: (smoke 5, benchmark 8, paper 10 clients a round).
SCIPY_GOLDENS = {
    5: [
        "-0x1.036d6c4a04b59p-2", "0x0.0p+0", "0x1.b91093bfdfa29p-2",
        "0x1.30381a97985efp+2", "0x1.30381a97985efp+2",
    ],
    8: [
        "-0x1.464965bdc7eafp-2", "-0x1.70aa534914bd5p-3", "0x0.0p+0",
        "0x1.036d6c4a04b59p-2", "0x1.5956b87528a49p-1", "0x1.30381a97985efp+2",
        "0x1.30381a97985efp+2", "0x1.30381a97985efp+2",
    ],
    10: [
        "-0x1.036d6c4a04b59p-2", "-0x1.1e206ee4e5577p-3", "0x0.0p+0",
        "0x1.70aa534914bd0p-3", "0x1.b91093bfdfa29p-2", "0x1.aee8fa73a1334p-1",
        "0x1.30381a97985efp+2", "0x1.30381a97985efp+2", "0x1.30381a97985efp+2",
        "0x1.30381a97985efp+2",
    ],
}


def _lie_quantile(n: int, m: int) -> float:
    """The quantile ``lie_z_max(n, m)`` looks up, written out independently."""
    benign = n - m
    s = max(math.floor(n / 2 + 1) - m, 0)
    return min(max((benign - s) / benign, 1e-6), 1.0 - 1e-6)


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


class TestNdtri:
    @pytest.mark.parametrize("n", sorted(SCIPY_GOLDENS))
    def test_preset_cohorts_match_scipy_goldens(self, n):
        assert [lie_z_max(n, m).hex() for m in range(n)] == SCIPY_GOLDENS[n]

    def test_exact_values(self):
        assert ndtri(0.0) == -math.inf
        assert ndtri(1.0) == math.inf
        assert ndtri(0.5).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("outside", [-1e-300, 1.0 + 2**-52, math.nan])
    def test_rejects_values_outside_the_unit_interval(self, outside):
        with pytest.raises(ValueError):
            ndtri(outside)

    def test_lie_grid_is_bitwise_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        cohorts = [(n, m) for n in range(1, 401) for m in range(n)]
        quantiles = np.array([_lie_quantile(n, m) for n, m in cohorts])
        ours = np.array([lie_z_max(n, m) for n, m in cohorts])
        assert len(cohorts) == 80_200
        np.testing.assert_array_equal(_bits(ours), _bits(stats.norm.ppf(quantiles)))

    def test_random_quantiles_are_bitwise_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(20231)
        quantiles = np.concatenate([
            rng.random(40_000),  # the central branch, mostly
            10.0 ** -rng.uniform(0.0, 300.0, 40_000),  # lower tail, both z ranges
            1.0 - 10.0 ** -rng.uniform(0.0, 15.0, 40_000),  # upper tail
            [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 5e-324, 1.0 - 2**-53],
        ])
        ours = np.array([ndtri(float(q)) for q in quantiles])
        np.testing.assert_array_equal(_bits(ours), _bits(stats.norm.ppf(quantiles)))


_NO_SCIPY_SCRIPT = """
import runpy
import sys

sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError

import repro
from repro.experiments import build_simulation, smoke_scale

config = smoke_scale(attack="lie", defense="mkrum", num_rounds=1)
with build_simulation(config) as sim:
    assert len(sim.run(1).records) == 1

sys.argv = ["repro", "list"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert stop.code in (0, None), stop.code

loaded = sorted(
    name for name, module in sys.modules.items()
    if module is not None and (name == "scipy" or name.startswith("scipy."))
)
assert not loaded, loaded
print("no scipy")
"""


def test_package_runs_without_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "lie" in proc.stdout
    assert proc.stdout.rstrip().endswith("no scipy")
