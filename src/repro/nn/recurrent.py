"""Gated-recurrent layers.

Sec. III-C and III-D of the paper sketch how DFA extends beyond images: the
DFA-R filter layer becomes a sequence-to-sequence model and the DFA-G
generator becomes a recurrent network such as a GRU.  These modules provide
the recurrent building block on top of the autograd engine (the backward
pass through time falls out of the graph automatically); the
``GRUClassifier`` in :mod:`repro.models` reads images as row sequences
with it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .modules import Linear, Module
from .tensor import Tensor

__all__ = ["GRUCell", "GRU"]


class GRUCell(Module):
    """A single gated recurrent unit step ``h' = GRU(x, h)``."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if input_size < 1 or hidden_size < 1:
            raise ValueError("input_size and hidden_size must be positive")
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Update gate z, reset gate r and candidate state n, each with input
        # and hidden affine maps (PyTorch GRUCell parameterization).
        self.input_gates = Linear(input_size, 3 * hidden_size, rng=rng)
        self.hidden_gates = Linear(hidden_size, 3 * hidden_size, rng=rng)

    def forward(self, x: Tensor, hidden: Optional[Tensor] = None) -> Tensor:
        batch = x.shape[0]
        if hidden is None:
            hidden = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float32))
        gates_x = self.input_gates(x)
        gates_h = self.hidden_gates(hidden)
        h = self.hidden_size
        z = (gates_x[:, 0:h] + gates_h[:, 0:h]).sigmoid()
        r = (gates_x[:, h : 2 * h] + gates_h[:, h : 2 * h]).sigmoid()
        candidate = (gates_x[:, 2 * h : 3 * h] + r * gates_h[:, 2 * h : 3 * h]).tanh()
        return (1.0 - z) * candidate + z * hidden


class GRU(Module):
    """Unidirectional single-layer GRU over ``(batch, time, features)`` input.

    The forward pass returns the final hidden state only: no per-step
    outputs are assembled, which keeps the graph (and the recorded trace)
    linear in the number of time steps.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.cell = GRUCell(input_size, hidden_size, rng=rng)

    def forward(self, sequence: Tensor, hidden: Optional[Tensor] = None) -> Tensor:
        if sequence.ndim != 3:
            raise ValueError("GRU expects input of shape (batch, time, features)")
        state = hidden
        for step in range(sequence.shape[1]):
            state = self.cell(sequence[:, step, :], state)
        return state
