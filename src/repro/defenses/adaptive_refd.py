"""Adaptive-α variant of REFD (the paper's suggested future work).

Sec. V-A notes that the D-score weight α "can also be adaptive and learned
over epochs" but leaves this out of scope.  :class:`AdaptiveRefd` implements
a simple realisation of that idea: it tracks the dispersion of the balance
and confidence values across the updates of recent rounds and shifts α
towards whichever statistic currently separates the updates better (larger
relative spread), so that the defense automatically emphasises the balance
value when facing bias-style attacks (DFA-G, LIE) and the confidence value
when facing low-confidence attacks (DFA-R, Fang).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence

import numpy as np

from ..fl.types import AggregationResult, DefenseContext, ModelUpdate
from .refd import Refd, d_scores

__all__ = ["AdaptiveRefd"]


class AdaptiveRefd(Refd):
    """REFD with an α that adapts to the observed score dispersion.

    Parameters
    ----------
    adaptation_rate:
        Exponential-moving-average factor for the α update (0 disables
        adaptation and reduces the defense to plain REFD).
    min_alpha, max_alpha:
        Clamp range for α.
    """

    name = "adaptive-refd"

    def __init__(
        self,
        num_rejected: int = 2,
        adaptation_rate: float = 0.3,
        min_alpha: float = 0.25,
        max_alpha: float = 4.0,
        max_reference_samples: int | None = None,
    ) -> None:
        super().__init__(
            num_rejected=num_rejected, alpha=1.0, max_reference_samples=max_reference_samples
        )
        if not 0.0 <= adaptation_rate <= 1.0:
            raise ValueError("adaptation_rate must be in [0, 1]")
        if not 0.0 < min_alpha <= max_alpha:
            raise ValueError("need 0 < min_alpha <= max_alpha")
        self.adaptation_rate = adaptation_rate
        self.min_alpha = min_alpha
        self.max_alpha = max_alpha
        self.alpha_history: List[float] = []

    @staticmethod
    def _relative_spread(values: np.ndarray) -> float:
        mean = float(np.mean(values))
        if mean == 0.0:
            return 0.0
        return float(np.std(values) / abs(mean))

    def _adapt_alpha(self, balances: np.ndarray, confidences: np.ndarray) -> None:
        balance_spread = self._relative_spread(balances)
        confidence_spread = self._relative_spread(confidences)
        total = balance_spread + confidence_spread
        if total <= 0:
            target = 1.0
        else:
            # α > 1 emphasises the confidence value in Eq. 8 (F-beta analogy),
            # α < 1 emphasises the balance value.  Aim α at the ratio of the
            # spreads so the more discriminative statistic dominates.
            target = (confidence_spread + 1e-12) / (balance_spread + 1e-12)
            target = float(np.sqrt(target))
        target = float(np.clip(target, self.min_alpha, self.max_alpha))
        self.alpha = (1.0 - self.adaptation_rate) * self.alpha + self.adaptation_rate * target
        self.alpha = float(np.clip(self.alpha, self.min_alpha, self.max_alpha))
        self.alpha_history.append(self.alpha)

    def aggregate(
        self, updates: Sequence[ModelUpdate], context: DefenseContext
    ) -> AggregationResult:
        self._validate(updates)
        images, _ = self._reference_arrays(context)
        # One batched inference pass observes the statistics — the context's
        # dispatch policy routes it exactly like plain REFD (pooled backends
        # map ``evaluate_update`` over the updates, serial runs the fused
        # loop).
        # The balance and confidence values do not depend on α, so after
        # adapting it only the D-scores need recomputing — no second pass
        # over the reference set.
        updates = list(updates)
        reports = self.score_updates(updates, images, context)
        balances = np.array([report.balance for report in reports])
        confidences = np.array([report.confidence for report in reports])
        self._adapt_alpha(balances, confidences)
        scores = d_scores(balances, confidences, self.alpha)
        reports = [
            replace(report, score=float(score))
            for report, score in zip(reports, scores)
        ]
        return self._filter_and_aggregate(updates, reports)
