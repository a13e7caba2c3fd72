"""The "A Little Is Enough" (LIE) attack (Baruch et al., NeurIPS 2019).

LIE computes the coordinate-wise mean and standard deviation of the benign
updates and shifts the mean by a small factor ``z`` chosen such that the
malicious update still falls within the range that Byzantine-robust
aggregation rules consider acceptable.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..fl.types import AttackRoundContext, ModelUpdate
from .base import Attack

__all__ = ["LieAttack", "lie_z_max", "ndtri"]

# Cephes ``ndtri`` coefficient tables (Moshier), the routine behind
# ``scipy.special.ndtri`` and so ``scipy.stats.norm.ppf``.  Cephes leaves the
# leading 1.0 of every Q table implicit (``p1evl``); it is written out here,
# which changes no bits because ``1.0 * x`` is exactly ``x``.  Keeping the
# tables, the Horner order and the branch points identical keeps every
# quantile bit-identical.

# |y - 0.5| <= 3/8.
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# z = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32).
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# z in [8, 64): y between exp(-32) and exp(-2048).
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule, highest power first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """The standard-normal quantile (inverse CDF) of ``y0`` in [0, 1].

    A port of Cephes ``ndtri``, bit-identical to ``scipy.stats.norm.ppf``;
    ``ndtri(0)`` is ``-inf`` and ``ndtri(1)`` is ``inf``.
    """
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        raise ValueError(f"ndtri is defined on [0, 1], got {y0!r}")
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def lie_z_max(num_clients: int, num_malicious: int) -> float:
    """The maximal shift factor ``z`` from the LIE paper.

    With ``n`` participating clients and ``m`` of them malicious, the number
    of benign updates required for a supermajority is
    ``s = floor(n/2 + 1) - m``; the attack then picks the largest ``z`` such
    that the fraction of benign updates expected to be further from the mean
    than the malicious one is at least ``s / (n - m)``.
    """
    if num_clients <= num_malicious:
        raise ValueError("number of malicious clients must be smaller than total clients")
    benign = num_clients - num_malicious
    s = math.floor(num_clients / 2 + 1) - num_malicious
    s = max(s, 0)
    quantile = (benign - s) / benign if benign > 0 else 0.0
    quantile = min(max(quantile, 1e-6), 1.0 - 1e-6)
    return ndtri(quantile)


class LieAttack(Attack):
    """Shift the benign mean by ``z`` standard deviations per coordinate.

    Parameters
    ----------
    z:
        Fixed shift factor.  If ``None`` (default), the factor is computed
        per round from the number of selected clients via :func:`lie_z_max`.
    min_z:
        Lower bound on the computed factor.  With the small per-round cohorts
        of cross-device FL (10 selected clients), the closed-form ``z`` can
        degenerate to zero, which would turn the attack into a no-op; the
        floor keeps the characteristic "small static shift" behaviour.
    """

    name = "lie"
    requires_benign_updates = True
    requires_attacker_data = False

    def __init__(self, z: Optional[float] = None, min_z: float = 0.3) -> None:
        if min_z < 0:
            raise ValueError("min_z must be non-negative")
        self.z = z
        self.min_z = min_z

    def craft_updates(self, context: AttackRoundContext) -> List[ModelUpdate]:
        benign = self._benign_matrix(context)
        num_malicious = len(context.selected_malicious_ids)
        num_clients = benign.shape[0] + num_malicious
        if self.z is not None:
            z = self.z
        else:
            z = max(lie_z_max(num_clients, num_malicious), self.min_z)
        mean = benign.mean(axis=0)
        std = benign.std(axis=0)
        vector = mean - z * std
        return self._replicate(vector, context)
