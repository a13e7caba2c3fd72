"""Weight initialization schemes used by the models in :mod:`repro.models`."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = [
    "calculate_fan_in_and_fan_out",
    "kaiming_uniform",
    "normal",
    "uniform",
    "zeros",
]


def calculate_fan_in_and_fan_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight tensor shape.

    Follows the PyTorch convention: for linear weights ``(out, in)`` and
    for convolution weights ``(out, in, kh, kw)``.
    """
    if len(shape) < 2:
        raise ValueError("fan in/out require at least a 2-D weight shape")
    receptive_field = 1
    for dim in shape[2:]:
        receptive_field *= dim
    fan_in = shape[1] * receptive_field
    fan_out = shape[0] * receptive_field
    return fan_in, fan_out


def kaiming_uniform(
    shape: Tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0)
) -> np.ndarray:
    """He-uniform initialization appropriate for ReLU networks."""
    fan_in, _ = calculate_fan_in_and_fan_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def normal(shape: Tuple[int, ...], rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Zero-mean Gaussian initialization (DCGAN-style generators)."""
    return (rng.standard_normal(shape) * std).astype(np.float32)


def uniform(shape: Tuple[int, ...], rng: np.random.Generator, bound: float) -> np.ndarray:
    """Uniform initialization in ``[-bound, bound]``."""
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zeros initialization (biases)."""
    return np.zeros(shape, dtype=np.float32)
