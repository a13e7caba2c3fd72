"""Plain helper functions shared by test modules.

Kept out of ``conftest.py`` on purpose: test modules import helpers by module
name, and ``conftest`` is ambiguous when pytest also loads the benchmark
suite's ``benchmarks/conftest.py`` (whichever directory lands on ``sys.path``
first wins).  ``helpers`` exists only under ``tests/``, so the import is
unambiguous.
"""

from __future__ import annotations

import numpy as np

from repro.nn.modules import Linear, Module

__all__ = ["numerical_gradient", "TwoLayerNet"]


class TwoLayerNet(Module):
    """``Linear -> relu -> Linear``, each layer seeded on its own."""

    def __init__(self, sizes, seeds=(0, 1)) -> None:
        super().__init__()
        inputs, hidden, outputs = sizes
        self.fc1 = Linear(inputs, hidden, rng=np.random.default_rng(seeds[0]))
        self.fc2 = Linear(hidden, outputs, rng=np.random.default_rng(seeds[1]))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


def numerical_gradient(func, array: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference numerical gradient of ``func()`` w.r.t. ``array`` (in place)."""
    grad = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        upper = func()
        array[index] = original - eps
        lower = func()
        array[index] = original
        grad[index] = (upper - lower) / (2 * eps)
        iterator.iternext()
    return grad
