"""FoolsGold Sybil defense (Fung et al., RAID 2020).

FoolsGold down-weights groups of clients that submit suspiciously similar
updates (as Sybils controlled by one adversary do), based on the pairwise
cosine similarity of their historical aggregated updates.  It is included
because the paper's related-work section discusses it as the canonical Sybil
defense; the main evaluation uses mKrum, Bulyan, Median and Trimmed mean.

The similarity matrix comes from the shared defense distance plane
(:mod:`repro.defenses.distances`): rows are normalized once in float64 and
the Gram product runs per row block, routed inline or across a pooled
backend by the context's dispatch policy exactly like the Krum-family
distance matrices.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..fl.aggregation import stack_updates
from ..fl.types import AggregationResult, DefenseContext, ModelUpdate
from .base import Defense
from .distances import pairwise_cosine_similarities

__all__ = ["FoolsGold", "pardoned_similarities"]


def pardoned_similarities(similarity: np.ndarray) -> np.ndarray:
    """Apply FoolsGold's pardoning rescale to a cosine-similarity matrix.

    The original algorithm pardons honest clients that merely *happen* to
    align with a Sybil cluster: whenever client ``j``'s maximum similarity
    exceeds client ``i``'s, the entry ``cs_ij`` is rescaled by
    ``maxcs_i / maxcs_j < 1``, so only clients that are each other's
    *mutual* best matches keep a high similarity.  The diagonal is zeroed
    (the original implementation subtracts the identity), which also floors
    every ``maxcs`` at 0 and keeps the rescale a pure shrink.
    """
    cs = np.array(similarity, dtype=np.float64, copy=True)
    if cs.ndim != 2 or cs.shape[0] != cs.shape[1]:
        raise ValueError("similarity must be a square (n, n) matrix")
    np.fill_diagonal(cs, 0.0)
    maxcs = cs.max(axis=1)
    apply = maxcs[None, :] > maxcs[:, None]  # implies maxcs[j] > 0
    ratio = np.divide(
        np.broadcast_to(maxcs[:, None], cs.shape),
        np.broadcast_to(maxcs[None, :], cs.shape),
        out=np.ones_like(cs),
        where=apply,
    )
    return np.where(apply, cs * ratio, cs)


class FoolsGold(Defense):
    """Cosine-similarity based re-weighting of client contributions.

    The defense keeps a running sum of each client's submitted updates
    (relative to the global model) across rounds and computes the maximum
    pairwise cosine similarity per client; highly similar clients receive
    exponentially reduced aggregation weights, after the pardoning rescale
    protects honest clients that merely align with a Sybil cluster.
    """

    name = "foolsgold"
    selects_updates = False

    def __init__(self, epsilon: float = 1e-5) -> None:
        self.epsilon = epsilon
        self._history: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        """Clear the accumulated per-client update history."""
        self._history.clear()

    def aggregate(
        self, updates: Sequence[ModelUpdate], context: DefenseContext
    ) -> AggregationResult:
        self._validate(updates)
        matrix = stack_updates(updates)
        deltas = matrix - context.global_params[None, :]

        # Update per-client aggregate history.
        for update, delta in zip(updates, deltas):
            previous = self._history.get(update.client_id)
            self._history[update.client_id] = delta if previous is None else previous + delta

        histories = np.stack([self._history[update.client_id] for update in updates], axis=0)
        similarity = pairwise_cosine_similarities(
            histories, epsilon=self.epsilon, dispatch=context.dispatch
        )
        # Pardoning rescale (cs_ij *= maxcs_i / maxcs_j when maxcs_j is the
        # larger), then the per-client maximum drives the re-weighting.
        pardoned = pardoned_similarities(similarity)
        np.fill_diagonal(pardoned, -np.inf)
        max_similarity = pardoned.max(axis=1)

        # Logit re-weighting from the original algorithm.
        weights = 1.0 - np.clip(max_similarity, 0.0, 1.0)
        weights = weights / (weights.max() + self.epsilon)
        weights = np.clip(weights, self.epsilon, 1.0 - self.epsilon)
        weights = np.log(weights / (1.0 - weights)) + 0.5
        weights = np.clip(weights, 0.0, 1.0)
        if weights.sum() <= 0:
            weights = np.ones_like(weights)
        weights = weights / weights.sum()

        aggregated = context.global_params + (weights[:, None] * deltas).sum(axis=0)
        return AggregationResult(
            new_params=aggregated,
            accepted_client_ids=None,
            scores={u.client_id: float(w) for u, w in zip(updates, weights)},
        )
