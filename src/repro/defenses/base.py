"""Defense interface for robust server-side aggregation."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

from ..fl.aggregation import fedavg
from ..fl.types import AggregationResult, DefenseContext, ModelUpdate

__all__ = ["Defense", "NoDefense"]


class Defense(ABC):
    """Base class of all server-side aggregation rules.

    Attributes
    ----------
    name:
        Identifier used by the registry and the result tables.
    selects_updates:
        ``True`` if the rule accepts/rejects whole updates, in which case
        the defense pass rate (DPR, Eq. 5) is well defined.  Statistical
        rules such as Median and Trimmed mean set this to ``False``.

    Defenses with a per-update hot path (REFD's reference-set inference)
    never pick a backend themselves: they hand the work to
    :meth:`repro.fl.dispatch_policy.DispatchPolicy.map_fn` on
    ``context.dispatch``, which runs it on the policy's pool or declines so
    the defense runs its own serial loop.
    """

    name: str = "defense"
    selects_updates: bool = False
    requires_reference_dataset: bool = False
    """True for defenses that need a server-side reference dataset (REFD)."""

    @abstractmethod
    def aggregate(
        self, updates: Sequence[ModelUpdate], context: DefenseContext
    ) -> AggregationResult:
        """Combine the submitted updates into new global parameters."""

    def _validate(self, updates: Sequence[ModelUpdate]) -> None:
        if not updates:
            raise ValueError(f"{self.name}: received no updates to aggregate")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class NoDefense(Defense):
    """Plain FedAvg (Eq. 2): the undefended baseline of the paper."""

    name = "fedavg"
    selects_updates = False

    def aggregate(
        self, updates: Sequence[ModelUpdate], context: DefenseContext
    ) -> AggregationResult:
        self._validate(updates)
        return AggregationResult(new_params=fedavg(updates), accepted_client_ids=None)
