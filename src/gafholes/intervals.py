"""The two-sided Wilson score interval, its quantile a port of Cephes ndtri."""

from __future__ import annotations

import math
from typing import Tuple

# Cephes ndtri (S. L. Moshier), its p > 1/2 branches: the same operations in
# the same order, so z and every p_low/p_high equal those of scipy.special.ndtri
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2, 2.00260212380060660359E2,
             -8.20372256168333339912E1, 1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1, 2.50464946208309415979E0,
             -1.42182922854787788574E-1, -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1, 1.34204006088543189037E-2,
             3.28014464682127739104E-4, 2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule from the leading coefficient coef[0], as Cephes polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri_upper(p: float) -> float:
    """The standard normal quantile for p in (1/2, 1]."""
    if p == 1.0:
        return math.inf
    if p <= 1.0 - 0.13533528323661269189:  # 1 - exp(-2)
        y = p - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * 2.50662827463100050242E0
    x = math.sqrt(-2.0 * math.log(1.0 - p))
    z = 1.0 / x
    P, Q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    return x - math.log(x) / x - z * _polevl(z, P) / _polevl(z, Q)


def wilson_interval(hits: int, trials: int, confidence: float) -> Tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= hits <= trials):
        raise ValueError(f"hits must lie in [0, trials={trials}], got {hits}")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    z = _ndtri_upper(0.5 + confidence / 2.0)
    if z == math.inf:  # 0.5 + confidence / 2 rounds to 1: the whole range
        return (0.0, 1.0)
    n = float(trials)
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


__all__ = ["wilson_interval"]
