"""End-to-end federated learning simulation with optional attack and defense.

:class:`FederatedSimulation` wires together the dataset partitioning, benign
clients, the single adversary (an :class:`~repro.attacks.base.Attack`
instance controlling a fraction of the client ids), the server and the
defense, and produces the per-round records from which the paper's metrics
(accuracy, ASR, DPR) are computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..data.partition import partition_dataset
from ..data.synthetic import SyntheticImageTask
from ..defenses.base import Defense, NoDefense
from ..nn.modules import Module
from .client import BenignClient
from .dispatch_policy import DispatchPolicy
from .executor import ShardRef, SharedArrayStore
from .faults import (
    FaultInjector,
    FaultStats,
    ResilienceConfig,
    load_checkpoint,
    run_tasks_with_recovery,
    save_checkpoint,
)
from .selection import ClientSelector, UniformSelector
from .server import Server
from .types import AttackRoundContext, LocalTrainingConfig, ModelUpdate, RoundRecord

__all__ = ["FederatedSimulation", "SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of a complete simulation run."""

    records: List[RoundRecord]
    final_params: np.ndarray
    malicious_client_ids: List[int]

    @property
    def accuracies(self) -> List[float]:
        """Global-model accuracy after every round."""
        return [record.accuracy for record in self.records]

    @property
    def max_accuracy(self) -> float:
        """The paper's ``acc_m``: best global accuracy reached during the run."""
        return max(self.accuracies) if self.records else 0.0

    @property
    def final_accuracy(self) -> float:
        """Accuracy after the last round."""
        return self.accuracies[-1] if self.records else 0.0


class FederatedSimulation:
    """Cross-device FL simulation following the paper's experimental setup.

    Parameters
    ----------
    task:
        The dataset task (train/test split plus metadata).
    model_factory:
        Zero-argument callable building a fresh classifier; all clients and
        the server share the architecture.
    num_clients, clients_per_round:
        Total client population and the number sampled per round
        (100 and 10 in the paper).
    malicious_fraction:
        Fraction of the client population controlled by the adversary
        (0.2 in the main experiments; 0.1 and 0.3 in Fig. 6).
    beta:
        Dirichlet heterogeneity parameter; ``None`` yields an i.i.d. split.
    attack, defense:
        The adversary's strategy (``None`` disables the attack) and the
        server's aggregation rule (``None`` means plain FedAvg).
    reference_fraction:
        Fraction of the *test* split handed to the server as the REFD
        reference dataset (the remaining samples are used for evaluation to
        avoid leakage).  Only relevant when the defense needs it.
    policy:
        The :class:`~repro.fl.dispatch_policy.DispatchPolicy` routing the
        round's client fan-out and REFD's per-update inference —
        ``None`` (serial, the default), a spec string like ``"process:4"``,
        or a policy object such as ``DispatchPolicy("process", workers=4)``.  A policy built here from ``None`` or a string is
        closed by :meth:`close`; a policy object stays owned by the caller,
        who may share it (and its worker pool) across simulations and
        closes it when done.  All backends are bit-identical for a given
        seed; process backends additionally require ``model_factory`` to be
        picklable (e.g. :class:`repro.models.ClassifierFactory`).  When the
        round backend is a shared-memory process pool, the simulation
        publishes every benign client's round-invariant data shard (and the
        defense's reference arrays) in a once-per-simulation shared-memory
        :class:`~repro.fl.executor.SharedArrayStore`, so per-round task
        payloads stay tiny; the global parameters travel through the
        policy's per-round parameter lease.
    resilience:
        Optional :class:`~repro.fl.faults.ResilienceConfig` enabling the
        fault-tolerant round loop: per-task retries with backoff, a round
        deadline that cuts stragglers (recorded in
        ``RoundRecord.cut_client_ids``), shm-failure degradation to inline
        payloads, broken-pool rebuilds — and, when the config carries a
        :class:`~repro.fl.faults.FaultPlan`, deterministic fault injection.
        ``None`` (the default) keeps the zero-overhead hot path.
    """

    def __init__(
        self,
        task: SyntheticImageTask,
        model_factory: Callable[[], Module],
        num_clients: int = 100,
        clients_per_round: int = 10,
        malicious_fraction: float = 0.2,
        beta: Optional[float] = 0.5,
        attack=None,
        defense: Optional[Defense] = None,
        training_config: Optional[LocalTrainingConfig] = None,
        selector: Optional[ClientSelector] = None,
        reference_fraction: float = 0.5,
        assumed_malicious_fraction: Optional[float] = None,
        eval_batch_size: int = 256,
        seed: int = 0,
        policy=None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        if num_clients < 2:
            raise ValueError("need at least two clients")
        if not 1 <= clients_per_round <= num_clients:
            raise ValueError("clients_per_round must be in [1, num_clients]")
        if not 0.0 <= malicious_fraction < 1.0:
            raise ValueError("malicious_fraction must be in [0, 1)")
        self.task = task
        self.model_factory = model_factory
        self.num_clients = num_clients
        self.clients_per_round = clients_per_round
        self.malicious_fraction = malicious_fraction
        self.beta = beta
        self.attack = attack
        self.training_config = training_config or LocalTrainingConfig()
        self.selector = selector or UniformSelector()
        self.eval_batch_size = eval_batch_size
        self._owns_dispatch = not isinstance(policy, DispatchPolicy)
        self.dispatch: DispatchPolicy = DispatchPolicy.coerce(policy)
        self._rng = np.random.default_rng(seed)
        self.resilience = resilience
        self.fault_stats = FaultStats()
        self._injector: Optional[FaultInjector] = None
        if resilience is not None and resilience.fault_plan is not None:
            self._injector = FaultInjector(resilience.fault_plan, self.fault_stats)
        # Backoff jitter draws from its own stream: wall-clock retry timing
        # must never perturb the science RNGs.
        self._retry_rng = np.random.default_rng((seed + 1) * 7919)

        # Resolve trace="auto" before the clients capture their config: an
        # average shard yields ~train_size/num_clients samples, and replay
        # pays only when recording can amortise over two or more optimizer
        # steps.  Both engines are bit-identical, so this only moves
        # wall-clock time.
        if getattr(self.training_config, "trace", "auto") == "auto":
            samples_per_client = max(1, len(task.train) // num_clients)
            steps = self.training_config.local_epochs * max(
                1, -(-samples_per_client // self.training_config.batch_size)
            )
            self.training_config = replace(
                self.training_config, trace="replay" if steps >= 2 else "eager"
            )

        self._partition_clients(seed)

        assumed = (
            assumed_malicious_fraction
            if assumed_malicious_fraction is not None
            else malicious_fraction
        )
        expected_malicious = int(round(assumed * clients_per_round))
        defense = defense or NoDefense()
        reference_dataset, eval_dataset = self._split_reference(defense, reference_fraction)
        self.eval_dataset = eval_dataset
        reference_ref = self._publish_shard_store(reference_dataset)
        self.server = Server(
            model_factory=model_factory,
            defense=defense,
            expected_num_malicious=max(expected_malicious, 1),
            reference_dataset=reference_dataset,
            seed=seed + 17,
            reference_ref=reference_ref,
            dispatch=self.dispatch,
        )

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _partition_clients(self, seed: int) -> None:
        partition_rng = np.random.default_rng(seed + 1)
        shards = partition_dataset(
            self.task.train, self.num_clients, beta=self.beta, rng=partition_rng
        )
        num_malicious = int(round(self.malicious_fraction * self.num_clients))
        all_ids = list(range(self.num_clients))
        malicious_ids = partition_rng.choice(
            np.asarray(all_ids), size=num_malicious, replace=False
        )
        self.malicious_client_ids = sorted(int(i) for i in malicious_ids)
        malicious_set = set(self.malicious_client_ids)

        self.benign_clients: Dict[int, BenignClient] = {}
        self.attacker_datasets: Dict[int, object] = {}
        for client_id, shard in enumerate(shards):
            if client_id in malicious_set:
                # The adversary's clients do not use real data (data-free
                # threat model); their shards are kept only for attacks that
                # explicitly require attacker data (Fig. 8 comparator).
                self.attacker_datasets[client_id] = shard
            else:
                self.benign_clients[client_id] = BenignClient(
                    client_id=client_id,
                    dataset=shard,
                    model_factory=self.model_factory,
                    config=self.training_config,
                    seed=seed + 1000 + client_id,
                )
        benign_sizes = [client.num_samples for client in self.benign_clients.values()]
        self._median_benign_samples = int(np.median(benign_sizes)) if benign_sizes else 1

    def _publish_shard_store(self, reference_dataset) -> Optional[ShardRef]:
        """Publish round-invariant arrays in shared memory, once per simulation.

        Every benign client's ``(images, labels)`` shard — and the defense's
        reference arrays, when there are any — go into one
        :class:`~repro.fl.executor.SharedArrayStore` segment, so
        process-backend tasks carry only a tiny
        :class:`~repro.fl.executor.ShardRef` instead of re-pickling their
        image tensors every round.  The serial backend, which shares the
        parent's address space, process policies with shared memory disabled,
        and platforms without POSIX shm all skip the store and keep inline
        arrays.  Returns the reference-array ref for the server, if any.
        """
        self._shard_store: Optional[SharedArrayStore] = None
        self.store_publications = 0
        """Shared-memory store segments this simulation created (0 or 1).
        Task-level arrays shared at *grid* level (the dispatch layer's
        per-dataset store) are attached upstream and never counted here; the
        per-simulation store only re-packs the fancy-indexed client shards
        and reference arrays, which cannot alias the dataset segment."""
        if self.dispatch.backend != "process" or not self.dispatch.use_shared_memory:
            return None
        arrays: Dict[str, np.ndarray] = {}
        for client_id, client in self.benign_clients.items():
            images, labels = client.dataset.arrays()
            arrays[f"client/{client_id}/images"] = images
            arrays[f"client/{client_id}/labels"] = labels
        if reference_dataset is not None:
            ref_images, ref_labels = reference_dataset.arrays()
            arrays["reference/images"] = ref_images
            arrays["reference/labels"] = ref_labels
        try:
            self._shard_store = SharedArrayStore(arrays, persistent=True)
        except (ImportError, OSError):  # pragma: no cover - no POSIX shm
            return None
        self.store_publications += 1
        refs = self._shard_store.refs
        for client_id, client in self.benign_clients.items():
            client.shard_ref = ShardRef(
                images=refs[f"client/{client_id}/images"],
                labels=refs[f"client/{client_id}/labels"],
            )
        if reference_dataset is not None:
            return ShardRef(
                images=refs["reference/images"], labels=refs["reference/labels"]
            )
        return None

    def _split_reference(self, defense: Defense, reference_fraction: float):
        """Give REFD-style defenses a balanced reference set from the test split."""
        needs_reference = getattr(defense, "requires_reference_dataset", False)
        if not needs_reference:
            return None, self.task.test
        if not 0.0 < reference_fraction < 1.0:
            raise ValueError("reference_fraction must be in (0, 1)")
        test = self.task.test
        labels = test.labels
        reference_indices: List[int] = []
        eval_indices: List[int] = []
        rng = np.random.default_rng(99)
        for cls in range(self.task.num_classes):
            cls_indices = np.flatnonzero(labels == cls)
            rng.shuffle(cls_indices)
            cut = int(round(len(cls_indices) * reference_fraction))
            reference_indices.extend(cls_indices[:cut].tolist())
            eval_indices.extend(cls_indices[cut:].tolist())
        return test.subset(reference_indices), test.subset(eval_indices)

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def run_round(self) -> RoundRecord:
        """Execute one full FL round and return its record."""
        round_number = self.server.round_number
        selected = self.selector.select(
            list(range(self.num_clients)), self.clients_per_round, self._rng
        )
        malicious_set = set(self.malicious_client_ids)
        selected_malicious = [cid for cid in selected if cid in malicious_set]
        selected_malicious_set = set(selected_malicious)
        selected_benign = [cid for cid in selected if cid not in selected_malicious_set]

        global_params = self.server.distribute()
        tasks = [
            self.benign_clients[cid].make_task(global_params, round_number)
            for cid in selected_benign
        ]
        cut_client_ids: List[int] = []
        if self.resilience is None:
            results = self.dispatch.map_tasks(tasks)
        elif tasks:
            results, cut_client_ids = run_tasks_with_recovery(
                self.dispatch,
                tasks,
                round_number=round_number,
                resilience=self.resilience,
                stats=self.fault_stats,
                rng=self._retry_rng,
                injector=self._injector,
            )
        else:
            results = []
        benign_updates: List[ModelUpdate] = [
            self.benign_clients[result.client_id].consume_result(result)
            for result in results
        ]

        malicious_updates: List[ModelUpdate] = []
        attack_metadata: Dict[str, float] = {}
        if self.attack is not None and selected_malicious:
            context = AttackRoundContext(
                round_number=round_number,
                global_params=global_params,
                previous_global_params=self.server.previous_global_params,
                model_factory=self.model_factory,
                num_classes=self.task.num_classes,
                image_shape=self.task.image_shape,
                selected_malicious_ids=selected_malicious,
                training_config=self.training_config,
                benign_num_samples=self._median_benign_samples,
                rng=self._rng,
                benign_updates=benign_updates if self.attack.requires_benign_updates else None,
                attacker_datasets=(
                    self.attacker_datasets if self.attack.requires_attacker_data else None
                ),
            )
            malicious_updates = self.attack.craft_updates(context)
            if len(malicious_updates) != len(selected_malicious):
                raise RuntimeError(
                    f"attack {self.attack.name} returned {len(malicious_updates)} updates "
                    f"for {len(selected_malicious)} selected malicious clients"
                )

        updates = benign_updates + malicious_updates
        result = self.server.aggregate(updates)
        accuracy, loss = self.server.evaluate(self.eval_dataset, batch_size=self.eval_batch_size)

        num_malicious_passed: Optional[int] = None
        if self.server.defense.selects_updates and result.accepted_client_ids is not None:
            accepted = set(result.accepted_client_ids)
            num_malicious_passed = len([cid for cid in selected_malicious if cid in accepted])

        return RoundRecord(
            round_number=round_number,
            selected_client_ids=selected,
            selected_malicious_ids=selected_malicious,
            accepted_client_ids=result.accepted_client_ids,
            accuracy=accuracy,
            test_loss=loss,
            num_malicious_passed=num_malicious_passed,
            attack_metadata=attack_metadata,
            cut_client_ids=cut_client_ids,
        )

    def run(
        self,
        num_rounds: int,
        checkpoint_path=None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ) -> SimulationResult:
        """Run ``num_rounds`` rounds and return the aggregated result.

        With ``checkpoint_path`` set, the full simulation state (RNG streams,
        parameter vectors, round records) is written atomically after every
        ``checkpoint_every``-th round; ``resume=True`` restores a compatible
        checkpoint first and re-runs only the missing rounds — bit-identical
        to an uninterrupted run, because every state component round-trips
        exactly through JSON.  A missing, corrupt, or incompatible checkpoint
        silently starts from round 0.
        """
        if num_rounds < 1:
            raise ValueError("num_rounds must be at least 1")
        records: List[RoundRecord] = []
        if checkpoint_path is not None and resume:
            state = load_checkpoint(checkpoint_path)
            if state is not None:
                try:
                    self.load_state_dict(state)
                except (KeyError, TypeError, ValueError):
                    pass  # incompatible checkpoint: start fresh
                else:
                    records = [
                        RoundRecord.from_dict(payload)
                        for payload in state.get("records", [])
                    ]
                    self.fault_stats.rounds_resumed += len(records)
        # A resumed run counts ``num_rounds`` as the *total*; a fresh call
        # keeps the historical relative semantics (run ``num_rounds`` more).
        remaining = max(0, num_rounds - len(records))
        for offset in range(remaining):
            records.append(self.run_round())
            if checkpoint_path is not None and (
                len(records) % max(1, checkpoint_every) == 0
                or offset == remaining - 1
            ):
                save_checkpoint(checkpoint_path, self, records)
                self.fault_stats.checkpoints_written += 1
        return SimulationResult(
            records=records,
            final_params=self.server.global_params.copy(),
            malicious_client_ids=list(self.malicious_client_ids),
        )

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """JSON-safe snapshot of everything a resumed run needs.

        Covers the selection RNG, the server (parameters + RNG + round
        counter) and every benign client's RNG stream; stateful attacks or
        defenses may opt in by exposing ``state_dict``/``load_state_dict``
        themselves.  Dataset partitioning is *not* stored — it is a pure
        function of the constructor arguments, so the resuming process
        rebuilds it identically from the same config.
        """
        state: Dict = {
            "round_number": int(self.server.round_number),
            "rng_state": self._rng.bit_generator.state,
            "retry_rng_state": self._retry_rng.bit_generator.state,
            "server": self.server.state_dict(),
            "client_rng_states": {
                str(client_id): client._rng.bit_generator.state
                for client_id, client in self.benign_clients.items()
            },
        }
        for name, component in (("attack", self.attack), ("defense", self.server.defense)):
            hook = getattr(component, "state_dict", None)
            if callable(hook):
                state[f"{name}_state"] = hook()
        return state

    def load_state_dict(self, state: Dict) -> None:
        """Restore the snapshot written by :meth:`state_dict`."""
        client_states = state["client_rng_states"]
        missing = set(client_states) != {
            str(client_id) for client_id in self.benign_clients
        }
        if missing:
            raise ValueError(
                "checkpoint client population does not match this simulation"
            )
        self.server.load_state_dict(state["server"])
        self._rng = np.random.default_rng()
        self._rng.bit_generator.state = state["rng_state"]
        self._retry_rng = np.random.default_rng()
        self._retry_rng.bit_generator.state = state["retry_rng_state"]
        for client_id, client in self.benign_clients.items():
            client._rng.bit_generator.state = client_states[str(client_id)]
        for name, component in (("attack", self.attack), ("defense", self.server.defense)):
            payload = state.get(f"{name}_state")
            hook = getattr(component, "load_state_dict", None)
            if payload is not None and callable(hook):
                hook(payload)

    def close(self) -> None:
        """Release the shared-memory shard store, and the policy's workers
        when the simulation built the policy itself."""
        if self._owns_dispatch:
            self.dispatch.close()
        if self._shard_store is not None:
            self._shard_store.close()
            self._shard_store = None

    def __enter__(self) -> "FederatedSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
