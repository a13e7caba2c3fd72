"""Krum and Multi-Krum robust aggregation (Blanchard et al., NeurIPS 2017).

Krum scores every update by the sum of squared L2 distances to its
``n - f - 2`` nearest neighbours and keeps the update with the lowest score.
Multi-Krum (mKrum) keeps the ``m`` lowest-scoring updates and averages them,
interpolating between Krum and FedAvg.

The pairwise geometry comes from the shared defense distance plane
(:mod:`repro.defenses.distances`): exact float64 row-block differences
instead of the old in-dtype Gram trick ``‖x‖²+‖y‖²−2x·y``, which
catastrophically cancelled for near-duplicate float32 updates
(eps32 · ‖x‖² ≫ the true inter-update distance once training converges) and
scrambled which client Krum accepts.  The context's
:class:`~repro.fl.dispatch_policy.DispatchPolicy` decides whether the
distance row blocks run inline or fan out across a pooled backend.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..fl.aggregation import stack_updates, unweighted_average
from ..fl.types import AggregationResult, DefenseContext, ModelUpdate
from .base import Defense
from .distances import pairwise_sq_distances

__all__ = [
    "Krum",
    "MultiKrum",
    "krum_scores",
    "krum_scores_from_distances",
    "krum_neighbourhood_size",
    "iterative_krum_selection",
]


def krum_neighbourhood_size(n: int, num_malicious: int) -> int:
    """Size of the scored neighbourhood for ``n`` *current* updates.

    ``n - f - 2`` per the paper, clamped to at least one neighbour when the
    candidate set shrinks below ``f + 3`` (Bulyan's iterative selection
    slices rows off the matrix, so the neighbourhood must always be derived
    from the *remaining* ``n``, not the round's original update count).
    With fewer than three updates the Krum neighbourhood is degenerate and
    the score falls back to the distance-to-all rule.
    """
    if n < 3:
        return max(n - 1, 1)
    return max(n - num_malicious - 2, 1)


def krum_scores_from_distances(distances: np.ndarray, num_malicious: int) -> np.ndarray:
    """Krum scores given a precomputed ``(n, n)`` squared-distance matrix.

    Accumulates in float64; the diagonal is ignored regardless of its
    value, so both raw distance-plane output (zero diagonal) and already
    masked matrices are accepted.
    """
    distances = np.array(distances, dtype=np.float64, copy=True)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError("distances must be a square (n, n) matrix")
    neighbourhood = krum_neighbourhood_size(distances.shape[0], num_malicious)
    np.fill_diagonal(distances, np.inf)
    sorted_distances = np.sort(distances, axis=1)
    return sorted_distances[:, :neighbourhood].sum(axis=1)


def krum_scores(
    matrix: np.ndarray,
    num_malicious: int,
    distances: Optional[np.ndarray] = None,
    dispatch=None,
) -> np.ndarray:
    """Krum score of each row of ``matrix`` (lower is more trustworthy).

    Parameters
    ----------
    matrix:
        ``(n, dim)`` matrix of flattened updates (any floating dtype; the
        distance computation accumulates in float64 regardless).
    num_malicious:
        The defense parameter ``f``: assumed number of malicious updates.
    distances:
        Optional precomputed squared-distance matrix (skips the pairwise
        computation — Bulyan's iterative selection reuses one matrix for
        every pick).
    dispatch:
        Optional :class:`~repro.fl.dispatch_policy.DispatchPolicy` (or spec
        string) governing the distance-plane fan-out.
    """
    if distances is None:
        distances = pairwise_sq_distances(matrix, dispatch=dispatch)
    return krum_scores_from_distances(distances, num_malicious)


def iterative_krum_selection(
    distances: np.ndarray, selection_size: int, num_malicious: int
) -> List[int]:
    """Bulyan's iterative Krum selection from one precomputed distance matrix.

    Repeatedly picks the best-scoring remaining update and rescores the
    survivors by slicing the same matrix — O(θ·n²·log n) total instead of
    the O(θ·n²·dim) of recomputing the pairwise distances on every pick.
    The neighbourhood size is re-derived from the *current* remaining count
    each pick (see :func:`krum_neighbourhood_size`).
    """
    n = distances.shape[0]
    remaining = list(range(n))
    selected: List[int] = []
    while len(selected) < selection_size and remaining:
        sub = distances[np.ix_(remaining, remaining)]
        scores = krum_scores_from_distances(sub, num_malicious)
        best_local = int(np.argmin(scores))
        selected.append(remaining.pop(best_local))
    return selected


class Krum(Defense):
    """Select the single update with the lowest Krum score."""

    name = "krum"
    selects_updates = True

    def aggregate(
        self, updates: Sequence[ModelUpdate], context: DefenseContext
    ) -> AggregationResult:
        self._validate(updates)
        matrix = stack_updates(updates)
        distances = pairwise_sq_distances(matrix, dispatch=context.dispatch)
        scores = krum_scores_from_distances(distances, context.expected_num_malicious)
        best = int(np.argmin(scores))
        accepted = [updates[best].client_id]
        return AggregationResult(
            new_params=matrix[best].copy(),
            accepted_client_ids=accepted,
            scores={update.client_id: float(score) for update, score in zip(updates, scores)},
        )


class MultiKrum(Defense):
    """Average the ``m`` updates with the lowest Krum scores (mKrum).

    ``m`` defaults to ``n - f`` where ``f`` is the expected number of
    malicious updates in the round, matching the original paper.
    """

    name = "mkrum"
    selects_updates = True

    def __init__(self, num_selected: int | None = None) -> None:
        self.num_selected = num_selected

    def aggregate(
        self, updates: Sequence[ModelUpdate], context: DefenseContext
    ) -> AggregationResult:
        self._validate(updates)
        matrix = stack_updates(updates)
        n = matrix.shape[0]
        m = self.num_selected if self.num_selected is not None else n - context.expected_num_malicious
        m = int(np.clip(m, 1, n))
        distances = pairwise_sq_distances(matrix, dispatch=context.dispatch)
        scores = krum_scores_from_distances(distances, context.expected_num_malicious)
        chosen = np.argsort(scores)[:m]
        accepted_updates = [updates[i] for i in chosen]
        return AggregationResult(
            new_params=unweighted_average(accepted_updates),
            accepted_client_ids=[update.client_id for update in accepted_updates],
            scores={update.client_id: float(score) for update, score in zip(updates, scores)},
        )
