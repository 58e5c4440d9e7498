"""Asymptotic guide curves for -log P[Hole(r)] and the moment certificate.

The hole probability of the hyperbolic series decays at three different
speeds depending on the intensity L, and this module evaluates the
corresponding envelopes as plain formulas with all vanishing correction
terms dropped.  The curves are guides for plotting against estimator
output, never certificates; every envelope carries an explicit note to
that effect, and evaluations at radii where log(1/(1-r)) < 1 raise a
PreAsymptotic warning because the asymptotic shape has no business being
trusted there.

Regimes for -log P[Hole(r)] as r -> 1 (delta = 1 - r):

    sub1  (L < 1):  between (1-L)/2^{L+1} and (1-L)/2^L times
                    delta^{-L} log(1/delta);
    crit  (L = 1):  (pi^2/12) / delta;
    super1 (L > 1): ((L-1)^2/4) delta^{-1} log^2(1/delta).

The decaying-coefficient band generalizes sub1 to any non-increasing
coefficient sequence with unit leading term, with sigma_F(r)^2 computed
numerically.  The flat band covers bounded-above-and-below coefficients,
where only the 1/delta shape is known; its constants are configuration.

moment_exponent_certificate evaluates the finite-N Chebyshev exponent
that drives the super1 upper bound: the joint negative-moment bound of
the values at N scaled roots of unity, combined with the small-ball
factor, normalized by delta^{-1} log^2(1/delta).  It approaches
-(L-1)^2/4 from above as delta -> 0, slowly; the normalized value at
moderate delta documents how far from the limit a desk-scale evaluation
sits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

from .coeffs import CoefficientModel, coefficient, hyperbolic, is_nonincreasing, sigma_sq
from .errors import (
    IntensityOutOfRange,
    InvalidIntensity,
    InvalidRadius,
    NotMonotone,
    PreAsymptotic,
)
from .spectra import circulant_eigenvalues

ASYMPTOTIC_NOTE = "asymptotic guide curve, vanishing corrections omitted"

FLAT_BAND_C_LOW = 0.1
FLAT_BAND_C_HIGH = 10.0


@dataclass(frozen=True)
class BoundEnvelope:
    """Lower and upper guide values for -log P[Hole(r)] at one (L, r)."""

    L: float
    r: float
    lower: float
    upper: float
    regime: str                      # sub1 | crit | super1
    note: str = ASYMPTOTIC_NOTE
    pre_asymptotic: bool = False

    def __post_init__(self):
        if self.lower > self.upper:
            raise InvalidIntensity(
                f"envelope lower {self.lower} exceeds upper {self.upper}")

    def to_record(self) -> dict:
        return {"L": self.L, "r": self.r, "regime": self.regime,
                "lower": self.lower, "upper": self.upper}


def _check_radius(r: float) -> float:
    if not (0.0 < r < 1.0):
        raise InvalidRadius(f"envelope radius must lie in (0, 1), got r={r}")
    return 1.0 - r


def _warn_if_pre_asymptotic(delta: float) -> bool:
    if math.log(1.0 / delta) < 1.0:
        warnings.warn(
            f"log(1/(1-r)) = {math.log(1.0 / delta):.3f} < 1; "
            "envelope is outside its asymptotic regime", PreAsymptotic,
            stacklevel=3)
        return True
    return False


def hyperbolic_envelope(L: float, r: float) -> BoundEnvelope:
    """Guide curve for the hyperbolic family at intensity L, radius r."""
    if not (L > 0.0) or not math.isfinite(L):
        raise InvalidIntensity(f"intensity must be positive, got L={L}")
    delta = _check_radius(r)
    pre = _warn_if_pre_asymptotic(delta)
    log1d = math.log(1.0 / delta)
    if L < 1.0:
        lower = (1.0 - L) / 2.0 ** (L + 1.0) * delta ** -L * log1d
        return BoundEnvelope(L, r, lower, 2.0 * lower, "sub1",
                             pre_asymptotic=pre)
    if L == 1.0:
        v = (math.pi ** 2 / 12.0) / delta
        return BoundEnvelope(L, r, v, v, "crit", pre_asymptotic=pre)
    v = ((L - 1.0) ** 2 / 4.0) * log1d ** 2 / delta
    return BoundEnvelope(L, r, v, v, "super1", pre_asymptotic=pre)


def decaying_band(model: CoefficientModel, r: float,
                  L: Optional[float] = None) -> BoundEnvelope:
    """Sub-unit band for a non-increasing sequence with unit leading term.

    lower = ((1-L)/2) sigma_F(r)^2 log(1/(1-r)), upper twice that, with
    sigma_F(r)^2 summed numerically from the model.  L is the decay
    exponent: taken from the model when it has one, otherwise it must be
    supplied (Explicit sequences carry no exponent of their own).
    """
    if not is_nonincreasing(model):
        raise NotMonotone(
            f"decaying band needs a non-increasing sequence, got {model.describe()}")
    a0 = coefficient(model, 0)
    if abs(a0 - 1.0) > 1e-12:
        raise InvalidIntensity(f"leading coefficient must be 1, got a_0={a0}")
    if L is None:
        L = model.L
    if L is None:
        raise InvalidIntensity(
            "Explicit model needs the decay exponent L passed explicitly")
    if not (0.0 < L <= 1.0):
        raise InvalidIntensity(
            f"decaying band applies for 0 < L <= 1, got L={L}")
    delta = _check_radius(r)
    pre = _warn_if_pre_asymptotic(delta)
    s2 = sigma_sq(model, r)
    lower = 0.5 * (1.0 - L) * s2 * math.log(1.0 / delta)
    return BoundEnvelope(float(L), r, lower, 2.0 * lower, "sub1",
                         pre_asymptotic=pre)


def flat_band(r: float, c_cfg: float = FLAT_BAND_C_LOW,
              C_cfg: float = FLAT_BAND_C_HIGH) -> BoundEnvelope:
    """1/(1-r)-shaped band for coefficients bounded above and below.

    Only the shape is theory; the constants are configuration defaults
    wide enough to contain the exactly solvable point of the family.
    """
    if not (0.5 <= r < 1.0):
        raise InvalidRadius(
            f"flat band is stated for 0.5 <= r < 1, got r={r}")
    if not (0.0 < c_cfg <= C_cfg):
        raise InvalidIntensity(
            f"band constants need 0 < c_cfg <= C_cfg, got {c_cfg}, {C_cfg}")
    delta = 1.0 - r
    return BoundEnvelope(1.0, r, c_cfg / delta, C_cfg / delta, "crit")


def moment_exponent_certificate(L: float, r: float) -> float:
    """Normalized joint-moment Chebyshev exponent for the super-unit regime.

    With delta = 1 - r, N = floor(((L-1)/(2 delta)) log(1/delta)),
    a = (log(1/delta))^{-1/2}, theta = 2 - a^2, and the circulant spectrum
    of the hyperbolic model at radius r_0 = 1 - kappa delta (kappa = 1 +
    delta), evaluates

        N theta (1/2 + a) log(1/delta) - log det Sigma
            + N (1 - theta/2) log Lambda + N log Gamma(1 - theta/2)

    and returns it divided by delta^{-1} log^2(1/delta).  Negative values
    certify super-exponential hole decay at this scale; the limit is
    -(L-1)^2/4.
    """
    if not (L > 1.0) or not math.isfinite(L):
        raise IntensityOutOfRange(
            f"certificate applies for L > 1, got L={L}")
    delta = _check_radius(r)
    log1d = math.log(1.0 / delta)
    N = int(((L - 1.0) / (2.0 * delta)) * log1d)
    if N < 2:
        raise InvalidRadius(
            f"r={r} is too far from 1 for the certificate (N={N})")
    a = log1d ** -0.5
    theta = 2.0 - a * a
    if not (0.0 < theta < 2.0):
        raise InvalidRadius(
            f"tilt exponent theta = 2 - a^2 = {theta} out of (0, 2)")
    # theta > 0 means log1d > 1/2, so delta (1 + delta) < 1 and r_0 > 0
    r_0 = 1.0 - (1.0 + delta) * delta
    sp = circulant_eigenvalues(hyperbolic(L), r_0, N)
    exponent = (N * theta * (0.5 + a) * log1d
                - sp.log_det
                + N * (1.0 - theta / 2.0) * math.log(sp.Lambda_max)
                + N * math.lgamma(1.0 - theta / 2.0))
    return exponent / (log1d ** 2 / delta)


__all__ = [
    "BoundEnvelope",
    "hyperbolic_envelope",
    "decaying_band",
    "flat_band",
    "moment_exponent_certificate",
    "ASYMPTOTIC_NOTE",
    "FLAT_BAND_C_LOW",
    "FLAT_BAND_C_HIGH",
]
