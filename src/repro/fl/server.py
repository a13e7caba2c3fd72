"""The central FL server: holds the global model and applies the defense."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..defenses.base import Defense, NoDefense
from ..nn.modules import Module
from ..nn.serialization import FlatParams, set_flat_params
from .training import evaluate_model
from .types import AggregationResult, DefenseContext, ModelUpdate

__all__ = ["Server"]


class Server:
    """Central aggregator of the federated system.

    The server owns the global model, distributes its parameters each round,
    applies the configured defense to the received updates and keeps the two
    most recent global parameter vectors (the attack's regularizer and some
    defenses reason about ``w(t)`` and ``w(t-1)``).

    The global parameters live in a single contiguous
    :class:`~repro.nn.serialization.FlatParams` buffer in the model's native
    dtype (float32), so distribution, aggregation and defense matrices never
    pay a float64 up-cast.
    """

    def __init__(
        self,
        model_factory: Callable[[], Module],
        defense: Optional[Defense] = None,
        expected_num_malicious: int = 2,
        reference_dataset=None,
        seed: int = 0,
        reference_ref=None,
        dispatch=None,
    ) -> None:
        self.model_factory = model_factory
        self.defense = defense or NoDefense()
        self.expected_num_malicious = expected_num_malicious
        self.reference_dataset = reference_dataset
        self.reference_ref = reference_ref
        self.dispatch = dispatch
        self._rng = np.random.default_rng(seed)
        self.global_model = model_factory()
        self.flat_params = FlatParams.from_module(self.global_model)
        self.param_dtype = self.flat_params.dtype
        self.previous_global_params: Optional[np.ndarray] = None
        self.round_number = 0

    @property
    def global_params(self) -> np.ndarray:
        """The current global parameter vector (the FlatParams buffer)."""
        return self.flat_params.vector

    # ------------------------------------------------------------------
    def distribute(self) -> np.ndarray:
        """Parameters sent to clients at the start of a round."""
        return self.global_params.copy()

    def aggregate(self, updates: Sequence[ModelUpdate]) -> AggregationResult:
        """Apply the defense to the received updates and install the result."""
        if not updates:
            raise ValueError("server received no updates this round")
        context = DefenseContext(
            round_number=self.round_number,
            global_params=self.global_params,
            expected_num_malicious=self.expected_num_malicious,
            rng=self._rng,
            model_factory=self.model_factory,
            reference_dataset=self.reference_dataset,
            reference_ref=self.reference_ref,
            dispatch=self.dispatch,
        )
        result = self.defense.aggregate(list(updates), context)
        self.previous_global_params = self.global_params
        new_params = np.asarray(result.new_params, dtype=self.param_dtype).ravel()
        self.flat_params = self.flat_params.with_vector(new_params)
        set_flat_params(self.global_model, new_params)
        self.round_number += 1
        return result

    def evaluate(self, dataset, batch_size: int = 128) -> Tuple[float, float]:
        """Accuracy and loss of the current global model on ``dataset``."""
        return evaluate_model(self.global_model, dataset, batch_size=batch_size)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe server state for round-granular checkpoints.

        Parameter vectors are stored as plain float lists: Python floats are
        exact binary64, so float32 values survive the float→JSON→float round
        trip bit-identically.
        """
        return {
            "round_number": int(self.round_number),
            "rng_state": self._rng.bit_generator.state,
            "param_dtype": np.dtype(self.param_dtype).str,
            "global_params": self.global_params.tolist(),
            "previous_global_params": (
                None
                if self.previous_global_params is None
                else self.previous_global_params.tolist()
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the state written by :meth:`state_dict`."""
        dtype = np.dtype(state["param_dtype"])
        vector = np.asarray(state["global_params"], dtype=dtype).ravel()
        if vector.size != self.global_params.size:
            raise ValueError(
                "checkpoint parameter vector does not match the model "
                f"({vector.size} vs {self.global_params.size})"
            )
        self.flat_params = self.flat_params.with_vector(vector)
        set_flat_params(self.global_model, vector)
        previous = state.get("previous_global_params")
        self.previous_global_params = (
            None if previous is None else np.asarray(previous, dtype=dtype).ravel()
        )
        self._rng = np.random.default_rng()
        self._rng.bit_generator.state = state["rng_state"]
        self.round_number = int(state["round_number"])
