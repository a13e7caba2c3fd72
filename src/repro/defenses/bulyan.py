"""Bulyan robust aggregation (El Mhamdi et al., ICML 2018).

Bulyan runs Multi-Krum selection repeatedly to build a selection set of
``theta`` updates and then aggregates them coordinate-wise: each output
coordinate is the mean of the ``theta - 2*beta`` values **closest to the
coordinate-wise median** (Sec. 4 of the paper).  It is the most aggressive
of the paper's evaluated defenses, rejecting the largest number of updates
per round.

The pairwise geometry comes from the shared defense distance plane
(:mod:`repro.defenses.distances`): the full float64 distance matrix is
computed exactly once (the context's dispatch policy decides whether the
row blocks run inline or fan out) and the iterative θ-selection rescores
the shrinking candidate set by slicing that one matrix — O(θ·n²·log n) instead of the
O(θ·n²·dim) of recomputing Krum scores from the raw updates on every pick.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..fl.aggregation import stack_updates
from ..fl.types import AggregationResult, DefenseContext, ModelUpdate
from .base import Defense
from .distances import pairwise_sq_distances
from .krum import iterative_krum_selection

__all__ = ["Bulyan"]

#: Valid values of ``coordinate_rule``.
_COORDINATE_RULES = ("median-closest", "trimmed-mean")


class Bulyan(Defense):
    """Iterative Krum selection followed by a per-coordinate robust mean.

    Parameters
    ----------
    selection_size:
        Number of updates retained by the iterative Krum selection
        (``theta`` in the original paper).  Defaults to ``n - 2f`` clipped to
        a valid range.
    trim:
        Number of values excluded per coordinate (``beta``); defaults to
        ``f`` clipped so that at least one value remains.
    coordinate_rule:
        ``"median-closest"`` (default) implements the paper's rule: average
        the ``theta - 2*beta`` coordinates closest to the coordinate-wise
        median.  ``"trimmed-mean"`` is an explicit opt-in for the earlier
        behaviour — sort each coordinate and drop the ``beta`` extremes on
        each side — which coincides with the paper's rule only when the
        median sits centrally in every coordinate's value distribution.
    """

    name = "bulyan"
    selects_updates = True

    def __init__(
        self,
        selection_size: int | None = None,
        trim: int | None = None,
        coordinate_rule: str = "median-closest",
    ) -> None:
        if coordinate_rule not in _COORDINATE_RULES:
            raise ValueError(
                f"unknown coordinate_rule '{coordinate_rule}'; choose from {_COORDINATE_RULES}"
            )
        self.selection_size = selection_size
        self.trim = trim
        self.coordinate_rule = coordinate_rule

    def _aggregate_selected(self, selected_matrix: np.ndarray, beta: int) -> np.ndarray:
        """Coordinate-wise robust mean over the ``theta`` selected updates."""
        theta = selected_matrix.shape[0]
        if beta == 0:
            return selected_matrix.mean(axis=0)
        if self.coordinate_rule == "trimmed-mean":
            ordered = np.sort(selected_matrix, axis=0)
            return ordered[beta : theta - beta].mean(axis=0)
        # Paper's rule: per coordinate, keep the theta - 2*beta values
        # closest to the coordinate-wise median.  The stable argsort makes
        # ties (equidistant values) resolve by row order deterministically.
        keep = theta - 2 * beta
        median = np.median(selected_matrix, axis=0)
        closeness = np.abs(selected_matrix - median[None, :])
        order = np.argsort(closeness, axis=0, kind="stable")[:keep]
        return np.take_along_axis(selected_matrix, order, axis=0).mean(axis=0)

    def aggregate(
        self, updates: Sequence[ModelUpdate], context: DefenseContext
    ) -> AggregationResult:
        self._validate(updates)
        matrix = stack_updates(updates)
        n = matrix.shape[0]
        f = int(context.expected_num_malicious)
        theta = self.selection_size if self.selection_size is not None else n - 2 * f
        theta = int(np.clip(theta, 1, n))

        # One exact distance matrix for the whole selection; every pick
        # rescores the remaining candidates by slicing it.
        distances = pairwise_sq_distances(matrix, dispatch=context.dispatch)
        selected = iterative_krum_selection(distances, theta, f)

        selected_matrix = matrix[selected]
        beta = self.trim if self.trim is not None else f
        max_beta = (len(selected) - 1) // 2
        beta = int(np.clip(beta, 0, max_beta))
        aggregated = self._aggregate_selected(selected_matrix, beta)

        accepted = [updates[i].client_id for i in selected]
        return AggregationResult(new_params=aggregated, accepted_client_ids=accepted)
