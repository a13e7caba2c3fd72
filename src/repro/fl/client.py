"""Client-side behaviour: benign local training.

Malicious behaviour is *not* implemented here — per the paper's threat model
all adversarial computation happens at a single adversary (see
:mod:`repro.attacks`), which then hands the crafted update to each of its
selected Sybil clients.  The simulation therefore only needs benign clients
plus a record of which client ids the adversary controls.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..nn.modules import Module
from .executor import ClientTask, ClientTaskResult, ShardRef, run_client_task
from .types import LocalTrainingConfig, ModelUpdate

__all__ = ["BenignClient"]


class BenignClient:
    """A protocol-following participant that trains on its own local shard.

    ``shard_ref`` is set by the simulation when its dispatch policy uses the
    once-per-simulation shared-memory shard store: tasks then reference the
    published ``(images, labels)`` arrays instead of carrying them inline,
    so a process-backend task pickles to a few hundred bytes.
    """

    def __init__(
        self,
        client_id: int,
        dataset,
        model_factory: Callable[[], Module],
        config: LocalTrainingConfig,
        seed: int = 0,
    ) -> None:
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} received an empty data shard")
        self.client_id = client_id
        self.dataset = dataset
        self.model_factory = model_factory
        self.config = config
        self.shard_ref: Optional[ShardRef] = None
        self._rng = np.random.default_rng(seed)

    @property
    def num_samples(self) -> int:
        """Number of local training samples (the FedAvg weight n_i)."""
        return len(self.dataset)

    def make_task(self, global_params: np.ndarray, round_number: int) -> ClientTask:
        """Snapshot this round's local-training work as a picklable payload.

        The task captures the client's current RNG *state*; the task result
        ships the advanced state back and :meth:`consume_result` restores
        it, so any dispatch backend reproduces the serial RNG stream
        exactly.  When :attr:`shard_ref` is set, the task references the
        shard-store publication instead of inlining the arrays.
        """
        if self.shard_ref is not None:
            images: Optional[np.ndarray] = None
            labels: Optional[np.ndarray] = None
        else:
            images, labels = self.dataset.arrays()
        return ClientTask(
            client_id=self.client_id,
            round_number=round_number,
            global_params=global_params,
            images=images,
            labels=labels,
            num_samples=self.num_samples,
            config=self.config,
            model_factory=self.model_factory,
            rng_state=self._rng.bit_generator.state,
            shard_ref=self.shard_ref,
        )

    def consume_result(self, result: ClientTaskResult) -> ModelUpdate:
        """Adopt a task result: advance the RNG and build the update."""
        if result.client_id != self.client_id:
            raise ValueError(
                f"client {self.client_id} received a result for client {result.client_id}"
            )
        self._rng.bit_generator.state = result.rng_state
        return ModelUpdate(
            client_id=result.client_id,
            parameters=result.parameters,
            num_samples=result.num_samples,
            is_malicious=False,
        )

    def local_update(self, global_params: np.ndarray, round_number: int) -> ModelUpdate:
        """Train a fresh local model initialised from the global parameters."""
        return self.consume_result(run_client_task(self.make_task(global_params, round_number)))
