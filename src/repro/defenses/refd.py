"""REFD: the reference-dataset defense proposed in Section V of the paper.

For every received update, the server loads the update into a model copy and
runs inference on a small balanced reference dataset.  Two statistics are
computed from the predictions:

* the **balance value** ``B_i`` — the inverse standard deviation of the
  per-class predicted-label counts (Eq. 6), which is low for updates biased
  towards one class (DFA-G, LIE, Min-Max);
* the **confidence value** ``V_i`` — the mean maximum softmax probability
  over the reference set (Eq. 7), which is low for updates that produce
  ambiguous predictions (DFA-R, Fang).

They are combined into the F-beta-style **D-score** (Eq. 8) and the ``X``
updates with the lowest D-scores are removed before FedAvg aggregation.

Scoring is *batched*: one fused loop drives all candidate models through the
reference set, reusing a single model instance and one preallocated
probability buffer, and the balance/confidence/D-score statistics are then
computed vectorized over the update axis.  When the round's dispatch
policy runs a process pool and the simulation published the reference
images in shared memory, the per-update inference fans out across the pool
instead: the module-level :func:`evaluate_update` is pickled by name and
mapped over the updates, each reading the reference images from the shard
store rather than unpickling them per update (see
:meth:`Refd.score_updates`).  On two cores this fan-out ran 1.6–2.0×
faster than the fused loop at the paper's CIFAR-10 geometry.
:class:`AdaptiveRefd` rides the same path: it scores through
:meth:`Refd.score_updates` and only recombines the observed statistics
after adapting α.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fl.aggregation import fedavg
from ..fl.executor import SharedArrayRef, resolve_shared_array
from ..fl.types import AggregationResult, DefenseContext, ModelUpdate
from ..nn.serialization import set_flat_params
from .base import Defense

__all__ = [
    "Refd",
    "DScoreReport",
    "balance_value",
    "balance_values",
    "max_balance_value",
    "confidence_value",
    "confidence_values",
    "d_score",
    "d_scores",
    "evaluate_update",
]


def max_balance_value(num_classes: int) -> float:
    """Supremum of the *finite* balance values attainable over ``num_classes``.

    Integer prediction histograms that are not perfectly balanced deviate
    from their mean by at least ``(+1, -1, 0, …)`` (the deviations sum to
    zero), so their std is at least ``sqrt(2 / C)`` and their balance value
    ``1/std`` at most ``sqrt(C / 2)``.  A zero-std (perfectly balanced)
    histogram is mapped to exactly this bound, which keeps Eq. 6's ranking
    intact: perfect balance can never score *below* any imbalanced
    histogram.
    """
    return float(np.sqrt(num_classes / 2.0))


def balance_values(class_counts: np.ndarray) -> np.ndarray:
    """Balance values ``B_i`` (Eq. 6) for a ``(num_updates, num_classes)`` batch.

    The inverse std diverges as the histogram approaches perfect balance,
    so the zero-std case is mapped to :func:`max_balance_value` — the
    supremum of the finite values — rather than an arbitrary sentinel.
    (An earlier revision used ``1.0``, which ranked perfectly balanced
    updates *below* mildly imbalanced ones with ``std < 1`` and could flip
    which clients REFD rejects.)
    """
    class_counts = np.asarray(class_counts, dtype=np.float64)
    stds = class_counts.std(axis=-1)
    balances = np.full_like(stds, max_balance_value(class_counts.shape[-1]))
    nonzero = stds != 0.0
    balances[nonzero] = 1.0 / stds[nonzero]
    return balances


def balance_value(class_counts: np.ndarray) -> float:
    """Balance value ``B_i`` (Eq. 6): inverse std of the predicted-label histogram."""
    return float(balance_values(np.asarray(class_counts)[None, :])[0])


def confidence_values(max_probabilities: np.ndarray) -> np.ndarray:
    """Confidence values ``V_i`` (Eq. 7) from a ``(num_updates, num_samples)``
    matrix of per-sample maximum class probabilities."""
    return np.asarray(max_probabilities, dtype=np.float64).mean(axis=-1)


def confidence_value(probabilities: np.ndarray) -> float:
    """Confidence value ``V_i`` (Eq. 7): mean maximum class probability."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.ndim != 2:
        raise ValueError("probabilities must be a (num_samples, num_classes) matrix")
    return float(probabilities.max(axis=1).mean())


def d_scores(
    balances: np.ndarray, confidences: np.ndarray, alpha: float = 1.0
) -> np.ndarray:
    """D-scores (Eq. 8), vectorized over the update axis."""
    balances = np.asarray(balances, dtype=np.float64)
    confidences = np.asarray(confidences, dtype=np.float64)
    denominator = alpha ** 2 * balances + confidences
    scores = np.zeros_like(denominator)
    valid = denominator > 0.0
    scores[valid] = (
        (1.0 + alpha ** 2) * balances[valid] * confidences[valid] / denominator[valid]
    )
    return scores


def d_score(balance: float, confidence: float, alpha: float = 1.0) -> float:
    """D-score (Eq. 8): F-beta style combination of balance and confidence."""
    return float(d_scores(np.asarray([balance]), np.asarray([confidence]), alpha)[0])


@dataclass
class DScoreReport:
    """Per-update diagnostic emitted by :class:`Refd` for analysis / tests."""

    client_id: int
    balance: float
    confidence: float
    score: float


def evaluate_update(payload) -> Tuple[np.ndarray, np.ndarray, int]:
    """One update's reference-set inference, as a fan-out work item.

    ``payload`` is ``(model_factory, parameters, images)``, every element
    picklable; ``images`` is either an inline array or a
    :class:`~repro.fl.executor.SharedArrayRef` into the simulation's shard
    store, so process-pool fan-out ships only the update's parameter vector
    per work item.  Returns ``(argmax, max_prob, num_classes)`` over the
    reference samples.
    """
    from ..fl.training import predict_proba  # local import to avoid cycles

    model_factory, parameters, images = payload
    if isinstance(images, SharedArrayRef):
        images = resolve_shared_array(images)
    model = model_factory()
    set_flat_params(model, parameters)
    probs = predict_proba(model, images)
    return probs.argmax(axis=1), probs.max(axis=1), probs.shape[1]


def _distinct_updates(
    updates: Sequence[ModelUpdate],
) -> Tuple[List[ModelUpdate], np.ndarray]:
    """The first update of each distinct parameter vector, and each update's row.

    Sybil attacks submit byte-identical vectors (``Attack._replicate``);
    byte-identical parameters give byte-identical predictions, so each
    distinct vector is evaluated once and ``rows`` maps every update to
    its vector's row in the distinct list.  The byte keys go with the
    return, before the evaluation allocates.
    """
    first: Dict[bytes, int] = {}
    distinct: List[ModelUpdate] = []
    rows = []
    for update in updates:
        key = update.parameters.tobytes()
        if key not in first:
            first[key] = len(distinct)
            distinct.append(update)
        rows.append(first[key])
    return distinct, np.asarray(rows, dtype=np.intp)


class Refd(Defense):
    """Reference-dataset defense with D-score filtering.

    Parameters
    ----------
    num_rejected:
        ``X`` in the paper: how many of the lowest-scoring updates to drop
        per round (the paper uses ``X = 2`` for 20% attackers and 10
        selected clients).
    alpha:
        Weighting between balance and confidence value; the paper uses 1.
    max_reference_samples:
        Optional cap on the number of reference samples used per round to
        bound the inference cost (Sec. V-C overhead analysis).
    """

    name = "refd"
    selects_updates = True
    requires_reference_dataset = True

    def __init__(
        self,
        num_rejected: int = 2,
        alpha: float = 1.0,
        max_reference_samples: Optional[int] = None,
    ) -> None:
        if num_rejected < 0:
            raise ValueError("num_rejected must be non-negative")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.num_rejected = num_rejected
        self.alpha = alpha
        self.max_reference_samples = max_reference_samples
        self.last_reports: List[DScoreReport] = []

    # ------------------------------------------------------------------
    def _reference_arrays(self, context: DefenseContext) -> Tuple[np.ndarray, np.ndarray]:
        if context.reference_dataset is None:
            raise ValueError("REFD requires a reference dataset on the server")
        images, labels = context.reference_dataset.arrays()
        if self.max_reference_samples is not None and len(labels) > self.max_reference_samples:
            # Deterministic, class-stratified truncation keeps the reference
            # set balanced, which Eq. 6 relies on.
            order = np.argsort(labels, kind="stable")
            stride = len(labels) / self.max_reference_samples
            chosen = order[(np.arange(self.max_reference_samples) * stride).astype(int)]
            images, labels = images[chosen], labels[chosen]
        return images, labels

    # ------------------------------------------------------------------
    def _evaluate_batched(
        self,
        updates: Sequence[ModelUpdate],
        images: np.ndarray,
        context: DefenseContext,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Reference-set predictions of every update through one fused loop.

        Returns ``(predicted, max_probs, num_classes)`` where ``predicted``
        is the ``(num_updates, num_samples)`` argmax matrix and ``max_probs``
        the matching maximum-probability matrix.  One model instance and one
        probability buffer are reused across all updates.  When the
        simulation published the reference images in shared memory
        (``context.reference_ref``, used only when its shape matches
        ``images``, i.e. no ``max_reference_samples`` truncation happened),
        the per-update inference maps :func:`evaluate_update` over the
        context's dispatch pool instead, and each work item pickles just one
        parameter vector plus that ref.  Without the ref the fused loop
        runs: inlining the reference tensor into every payload would
        re-ship it ``num_updates`` times per round, which the serial loop
        beats.
        """
        from ..fl.training import predict_proba  # local import to avoid cycles

        dispatch = context.dispatch
        reference_ref = getattr(context, "reference_ref", None)
        if (
            dispatch is not None
            and reference_ref is not None
            and tuple(reference_ref.images.shape) == images.shape
        ):
            rows = dispatch.map_fn(
                evaluate_update,
                [
                    (context.model_factory, update.parameters, reference_ref.images)
                    for update in updates
                ],
            )
            if rows is not None:
                predicted = np.stack([row[0] for row in rows], axis=0)
                max_probs = np.stack([row[1] for row in rows], axis=0).astype(np.float64)
                return predicted, max_probs, rows[0][2]

        model = context.model_factory()
        probs_buffer: Optional[np.ndarray] = None
        predicted: Optional[np.ndarray] = None
        max_probs: Optional[np.ndarray] = None
        num_classes = 0
        for index, update in enumerate(updates):
            set_flat_params(model, update.parameters)
            probs_buffer = predict_proba(model, images, out=probs_buffer)
            if predicted is None:
                num_classes = probs_buffer.shape[1]
                predicted = np.empty((len(updates), probs_buffer.shape[0]), dtype=np.int64)
                max_probs = np.empty((len(updates), probs_buffer.shape[0]), dtype=np.float64)
            predicted[index] = probs_buffer.argmax(axis=1)
            max_probs[index] = probs_buffer.max(axis=1)
        return predicted, max_probs, num_classes

    def score_updates(
        self,
        updates: Sequence[ModelUpdate],
        images: np.ndarray,
        context: DefenseContext,
    ) -> List[DScoreReport]:
        """Batched D-score reports for all updates on the reference images.

        Each distinct parameter vector is evaluated once; the Sybil copies
        of a vector share its predictions.
        """
        if context.model_factory is None:
            raise ValueError("REFD requires a model factory to evaluate updates")
        if not updates:
            return []
        distinct, rows = _distinct_updates(updates)
        predicted, max_probs, num_classes = self._evaluate_batched(distinct, images, context)
        predicted, max_probs = predicted[rows], max_probs[rows]
        counts = np.zeros((len(updates), num_classes), dtype=np.int64)
        np.add.at(counts, (np.arange(len(updates))[:, None], predicted), 1)
        balances = balance_values(counts)
        confidences = confidence_values(max_probs)
        scores = d_scores(balances, confidences, self.alpha)
        return [
            DScoreReport(
                client_id=update.client_id,
                balance=float(balances[index]),
                confidence=float(confidences[index]),
                score=float(scores[index]),
            )
            for index, update in enumerate(updates)
        ]

    def score_update(
        self, update: ModelUpdate, images: np.ndarray, context: DefenseContext
    ) -> DScoreReport:
        """Compute the D-score report of one update on the reference images."""
        return self.score_updates([update], images, context)[0]

    # ------------------------------------------------------------------
    def _filter_and_aggregate(
        self, updates: Sequence[ModelUpdate], reports: List[DScoreReport]
    ) -> AggregationResult:
        """Drop the ``X`` lowest-scoring updates and FedAvg the rest."""
        self.last_reports = reports
        num_rejected = min(self.num_rejected, len(updates) - 1)
        order = np.argsort([report.score for report in reports])
        rejected = set(int(i) for i in order[:num_rejected])
        accepted_updates = [u for i, u in enumerate(updates) if i not in rejected]
        accepted_ids = [u.client_id for u in accepted_updates]
        return AggregationResult(
            new_params=fedavg(accepted_updates),
            accepted_client_ids=accepted_ids,
            scores={report.client_id: report.score for report in reports},
        )

    def aggregate(
        self, updates: Sequence[ModelUpdate], context: DefenseContext
    ) -> AggregationResult:
        self._validate(updates)
        images, _ = self._reference_arrays(context)
        reports = self.score_updates(list(updates), images, context)
        return self._filter_and_aggregate(list(updates), reports)
