"""Special-function oracles and numerical verifiers for the moment bounds.

Independent reference routes for quantities the estimators and envelopes
rely on:

  * the exponential integral E1 (series for small x, continued fraction for
    large x), cross-checked elsewhere against library implementations;
  * exact and quadrature negative moments of complex Gaussians,
    E|zeta|^{-theta} = Gamma(1 - theta/2) and the shifted variant
    E|w + zeta/t|^{-theta};
  * the log-modulus moment E[log|1 + zeta/t|] = E1(t^2)/2;
  * grid verifiers packaged as CheckReport records: the contraction of the
    shifted negative moment for small theta, the joint negative-moment
    bound for correlated Gaussian vectors on the circle, the root-of-unity
    averaging defect for log|polynomial|, and the negative-moment sup
    bound over shifts;
  * mixture/rejection coupling samplers realizing a standard complex
    Gaussian that conditionally has a smaller variance (componentwise over
    coefficient sequences: conditionally a damped Gaussian Taylor series),
    vectorized over streams on fixed per-stream counters.

The quadrature for E|w + zeta/t|^{-theta} reduces the planar integral to a
radial one in polar coordinates around the singularity; the substitution
y = s^{2-theta} integrates the singular kernel exactly, leaving a bounded
smooth integrand with a single kink at y = |w|^{2-theta}:

    E|w + zeta/t|^{-theta}
        = (2 t^2 / (2-theta)) * int_0^inf exp(-t^2 (s(y)-|w|)^2)
                                 * i0e(2 t^2 |w| s(y)) dy,  s(y) = y^{1/(2-theta)},

with i0e the exponentially scaled Bessel I0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
from scipy.special import i0e

from . import rng
from .coeffs import CoefficientModel
from .errors import DomainError, RatioOutOfRange, ZeroConstantTerm
from .gaf import horner
from .spectra import circulant_eigenvalues

EULER_GAMMA = 0.5772156649015328606

DEFAULT_CONTRACTION_C_LOW = 0.4    # c in the small-theta contraction check
DEFAULT_CONTRACTION_C_HIGH = 10.0  # C in the small-theta contraction check
DEFAULT_SUP_C = 3.0                # C in the shifted-moment sup bound
DEFAULT_DEFECT_C = 10.0            # C in the averaging-defect bound


@dataclass(frozen=True)
class CheckReport:
    """Measured-versus-asserted record for one verifier over a grid."""

    check_id: str
    grid: List[dict]
    measured: List[float]
    asserted: List[Optional[float]]   # None = report-only (no bound)
    passed: bool
    constants: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "check_id": self.check_id,
            "grid": self.grid,
            "measured": self.measured,
            "asserted": self.asserted,
            "passed": self.passed,
            "constants": self.constants,
        }


def _passed(measured: Sequence[float], asserted: Sequence[Optional[float]]) -> bool:
    return all(b is None or m <= b for m, b in zip(measured, asserted))


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def exp_integral_e1(x: float) -> float:
    """E1(x) = int_x^inf e^{-u}/u du, x > 0, to relative error <= 1e-12.

    Series -gamma - log x + sum (-1)^{k+1} x^k / (k k!) for x <= 1; the
    standard continued fraction e^{-x} / (x + 1 - 1^2/(x + 3 - 2^2/(...)))
    evaluated by the modified Lentz scheme for x > 1.
    """
    if not (x > 0.0):
        raise DomainError(f"E1 requires x > 0, got {x}")
    if x <= 1.0:
        acc = -EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 200):
            term *= x / k
            piece = term / k if (k % 2 == 1) else -term / k
            acc += piece
            if abs(piece) < 1e-18 * max(abs(acc), 1e-300):
                break
        return acc
    # modified Lentz for 1/(x+1 - 1^2/(x+3 - 2^2/(x+5 - ...)))
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    b = x + 1.0
    a = 1.0
    for k in range(1, 500):
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
        a = -float(k * k)
        b = x + 2.0 * k + 1.0
    return math.exp(-x) * f


def neg_moment_exact(theta: float) -> float:
    """E|zeta|^{-theta} = Gamma(1 - theta/2) for a standard complex Gaussian."""
    if not (0.0 <= theta < 2.0):
        raise DomainError(
            f"negative moment requires 0 <= theta < 2 (diverges at 2), got {theta}")
    return math.gamma(1.0 - theta / 2.0)


def neg_moment_quadrature(theta: float, t: float, w: complex) -> float:
    """E|w + zeta/t|^{-theta} by the exact-singularity radial quadrature.

    Absolute error well below 1e-8 (the integrand is bounded by 1 and the
    quadrature is adaptive with the kink location supplied).
    """
    # scipy.integrate takes about 0.3 s to import and only this needs it
    from scipy.integrate import quad

    if not (0.0 <= theta < 2.0):
        raise DomainError(f"theta must lie in [0, 2), got {theta}")
    if not (t > 0.0):
        raise DomainError(f"t must be positive, got {t}")
    aw = abs(w)
    p = 2.0 - theta
    t2 = t * t

    def integrand(y: float) -> float:
        s = y ** (1.0 / p)
        return math.exp(-t2 * (s - aw) ** 2) * float(i0e(2.0 * t2 * aw * s))

    upper = (aw + 12.0 / t) ** p
    kink = aw ** p
    pts = [kink] if 0.0 < kink < upper else None
    val, _ = quad(integrand, 0.0, upper, points=pts, limit=200)
    return (2.0 * t2 / p) * val


def log_abs_moment_exact(t: float) -> float:
    """E[log|1 + zeta/t|] = E1(t^2) / 2 for a standard complex Gaussian."""
    if not (t > 0.0):
        raise DomainError(f"t must be positive, got {t}")
    return 0.5 * exp_integral_e1(t * t)


# ---------------------------------------------------------------------------
# grid verifiers
# ---------------------------------------------------------------------------

def neg_moment_contraction_check(t, theta,
                                 c_cfg: float = DEFAULT_CONTRACTION_C_LOW,
                                 C_cfg: float = DEFAULT_CONTRACTION_C_HIGH) -> CheckReport:
    """Check m(t, theta) = E|1 + zeta/t|^{-theta} <= 1 - c th e^{-t^2}/(1+t^2) + C th^2.

    The small-theta contraction: the shifted negative moment dips strictly
    below 1 for small theta, by an explicit margin.  t and theta may be
    scalars or sequences; the check runs over their product grid.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(thetas < 0.0) or np.any(thetas > 0.5):
        raise DomainError("theta must lie in [0, 1/2] for the contraction check")
    if np.any(ts <= 0.0):
        raise DomainError("t must be positive")
    grid, measured, asserted = [], [], []
    for tv in ts:
        for th in thetas:
            m = neg_moment_quadrature(th, tv, 1.0 + 0.0j)
            bound = 1.0 - c_cfg * th * math.exp(-tv * tv) / (1.0 + tv * tv) \
                + C_cfg * th * th
            grid.append({"t": float(tv), "theta": float(th)})
            measured.append(float(m))
            asserted.append(float(bound))
    return CheckReport(
        check_id="neg_moment_contraction", grid=grid, measured=measured,
        asserted=asserted, passed=_passed(measured, asserted),
        constants={"c_cfg": c_cfg, "C_cfg": C_cfg})


def neg_moment_sup_check(theta, t, w_grid=None,
                         C_cfg: float = DEFAULT_SUP_C) -> CheckReport:
    """Check sup_w E|w + zeta/t|^{-theta} <= t^theta (1 + C theta).

    The rearrangement argument places the supremum at w = 0, where the
    moment is exactly t^theta Gamma(1 - theta/2); the configured constant
    absorbs Gamma(1 - theta/2) <= 1 + C theta for theta <= 1.
    """
    if w_grid is None:
        w_grid = [0.0, 0.5, 1.0, 1.0 + 1.0j, 2.0, 5.0]
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(thetas < 0.0) or np.any(thetas > 1.0):
        raise DomainError("theta must lie in [0, 1] for the sup check")
    grid, measured, asserted = [], [], []
    for th in thetas:
        for tv in ts:
            sup = max(neg_moment_quadrature(th, tv, complex(w)) for w in w_grid)
            bound = tv ** th * (1.0 + C_cfg * th)
            grid.append({"theta": float(th), "t": float(tv),
                         "n_w": len(w_grid)})
            measured.append(float(sup))
            asserted.append(float(bound))
    return CheckReport(
        check_id="neg_moment_sup", grid=grid, measured=measured,
        asserted=asserted, passed=_passed(measured, asserted),
        constants={"C_cfg": C_cfg})


def joint_neg_moment_check(model: CoefficientModel, r: float, N: int,
                           theta: float, trials: int,
                           seed: int = 0) -> CheckReport:
    """MC check of E[prod_j |eta_j|^{-theta}] <= (1/det S) (L^{1-th/2} G(1-th/2))^N.

    eta is the Gaussian vector of values at the N scaled roots of unity,
    synthesized from the circulant spectrum: eta_j = sum_m sqrt(lambda_m)
    g_m e(jm/N)/sqrt(N) with iid standard complex g_m (counter index m on
    the trial's PURPOSE_JOINT_MOMENT stream).  det S and the top eigenvalue
    Lambda come from the same spectrum.  theta <= 1 keeps the MC variance
    finite (the squared product needs 2 theta < 2).
    """
    if not (0.0 <= theta <= 1.0):
        raise DomainError(
            f"MC route requires 0 <= theta <= 1 (variance), got {theta}")
    if N < 1 or N > 8:
        raise DomainError(f"N must lie in 1..8 for the joint check, got {N}")
    sp = circulant_eigenvalues(model, r, N)
    m = np.arange(N)
    fourier = np.exp(2j * np.pi * np.outer(m, m) / N) / math.sqrt(N)  # (j, m)
    scale = np.sqrt(sp.lambdas)
    prods = np.empty(trials)
    step = 1 << 16
    for lo in range(0, trials, step):
        hi = min(trials, lo + step)
        g = rng.gaussian_rows(seed, np.arange(lo, hi), rng.PURPOSE_JOINT_MOMENT, 0, N)
        eta = (g * scale[None, :]) @ fourier.T
        prods[lo:hi] = np.prod(np.abs(eta) ** -theta, axis=1)
    est = float(np.mean(prods))
    se = float(np.std(prods) / math.sqrt(trials))
    log_bound = -sp.log_det + N * ((1.0 - theta / 2.0) * math.log(sp.Lambda_max)
                                   + math.log(math.gamma(1.0 - theta / 2.0)))
    bound = math.exp(log_bound)
    tol = bound * (1.0 + 5.0 * (se / est if est > 0 else 0.0))
    return CheckReport(
        check_id="joint_neg_moment",
        grid=[{"model": model.describe(), "r": r, "N": N, "theta": theta,
               "trials": trials}],
        measured=[est],
        asserted=[float(tol)],
        passed=est <= tol,
        constants={"seed": seed, "se": se, "bound": bound,
                   "log_det": sp.log_det, "Lambda_max": sp.Lambda_max})


def unity_average_defect(poly_coeffs, k: int) -> float:
    """Averaging defect of log|S| over rotated k-th roots of unity.

    D = log|S(0)| - max_tau (1/k) sum_{j=1}^k log|S(tau omega^j)|, the max
    over all tau with tau^{k^2 deg} = 1 (exhaustive).  The contract
    elsewhere is D <= C/k^2; the hardest case is a root on the unit circle.
    """
    c = np.asarray(poly_coeffs, dtype=complex)
    if len(c) < 2:
        raise DomainError("polynomial degree must be >= 1")
    if c[0] == 0:
        raise ZeroConstantTerm("S(0) must be nonzero")
    if k < 4:
        raise DomainError(f"k must be >= 4, got {k}")
    deg = len(c) - 1
    R = k * k * deg
    z = np.exp(2j * np.pi * np.arange(R) / R)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(horner(c[None, :], z)[0]))
    # tau = e(i0/R): the k rotated roots are indices i0 + j R/k (mod R);
    # distinct averages correspond to i0 in 0..R/k-1
    averages = logs.reshape(k, R // k).mean(axis=0)
    return float(math.log(abs(c[0])) - np.max(averages))


def unity_average_defect_check(polys=None, ks=(4, 8, 16),
                               C_cfg: float = DEFAULT_DEFECT_C) -> CheckReport:
    """Defect check D <= C/k^2 over sample polynomials, including the
    on-circle-root hard case."""
    if polys is None:
        polys = {
            "1+0.5z": [1.0, 0.5],
            "1-z": [1.0, -1.0],
            "1+z+z^2": [1.0, 1.0, 1.0],
            "1-0.9iz": [1.0, -0.9j],
        }
    grid, measured, asserted = [], [], []
    for name, coeffs in polys.items():
        for k in ks:
            d = unity_average_defect(coeffs, k)
            grid.append({"poly": name, "k": k})
            measured.append(float(d))
            asserted.append(float(C_cfg / (k * k)))
    return CheckReport(
        check_id="unity_average_defect", grid=grid, measured=measured,
        asserted=asserted, passed=_passed(measured, asserted),
        constants={"C_cfg": C_cfg})


# ---------------------------------------------------------------------------
# coupling samplers
# ---------------------------------------------------------------------------

def gaussian_coupling_sample(sigma, seed: int, stream):
    """(zeta, in_event): standard complex Gaussian that conditionally shrinks.

    With probability sigma^2 returns (sigma * standard draw, True): on the
    event, zeta is complex Gaussian with variance sigma^2.  Otherwise
    samples the residual mixture component by rejection (propose standard
    z, accept with probability 1 - exp(-|z|^2 (1/sigma^2 - 1)); acceptance
    rate exactly 1 - sigma^2) and returns (z, False).  Marginally zeta is
    a standard complex Gaussian.

    stream may be an integer array that sigma broadcasts against; a scalar
    call returns (complex, bool).  Each element draws only on its stream's
    PURPOSE_COUPLING key: uniform 0 decides the event, and rejection round
    j = 0, 1, ... proposes the Gaussian at index 2j + 1 (uniforms 4j + 2,
    4j + 3) and accepts on uniform 4j + 4; on the event, zeta is sigma
    times the round-0 proposal.
    """
    sig = np.asarray(sigma, dtype=float)
    if not np.all((0.0 < sig) & (sig <= 1.0)):
        raise DomainError(f"sigma must lie in (0, 1], got {sigma}")
    keys = rng.stream_key(seed, stream, rng.PURPOSE_COUPLING)
    shape = np.broadcast_shapes(sig.shape, keys.shape)
    keys, sig = (np.broadcast_to(x, shape).ravel() for x in (keys, sig))
    in_event = rng.uniforms(keys, 0) < sig * sig
    zeta = rng.complex_gaussians(keys, 1)
    zeta[in_event] *= sig[in_event]
    inv = 1.0 / (sig * sig) - 1.0
    open_, j = np.flatnonzero(~in_event), 0
    while open_.size:
        k = keys[open_]
        z = rng.complex_gaussians(k, 2 * j + 1)
        accept = rng.uniforms(k, 4 * j + 4) \
            < -np.expm1(-np.abs(z) ** 2 * inv[open_])
        zeta[open_[accept]] = z[accept]
        open_, j = open_[~accept], j + 1
    if not shape:
        return complex(zeta[0]), bool(in_event[0])
    return zeta.reshape(shape), in_event.reshape(shape)


def gaf_coupling_sample(b_seq, c_seq, N: int, seed: int, stream):
    """(coefficients, in_event) for the componentwise series coupling.

    Marginally the coefficient vector is (zeta_n b_n)_{n<=N}; conditioned
    on in_event (probability Q^2 = prod |c_n/b_n|^2) its law is that of
    (zeta_n c_n) up to coefficient phases, which the rotation-invariant
    Gaussians make irrelevant.  zeta_n is gaussian_coupling_sample with
    sigma_n = |c_n/b_n| (1 where b_n = c_n = 0) on the substream
    stream * 2^32 + n, so stream must lie in [0, 2^32).  An array of
    streams returns rows of shape stream.shape + (N + 1,).
    """
    b = np.asarray(b_seq, dtype=complex)
    c = np.asarray(c_seq, dtype=complex)
    if len(b) < N + 1 or len(c) < N + 1:
        raise RatioOutOfRange(
            f"need coefficients 0..{N}, got lengths {len(b)}, {len(c)}")
    bn, cn = np.abs(b[:N + 1]), np.abs(c[:N + 1])
    for n in np.flatnonzero((cn > bn) | ((cn == 0.0) & (bn > 0.0))):
        if bn[n] == 0.0:
            raise RatioOutOfRange(
                f"|c_{n}| = {cn[n]} > |b_{n}| = 0 is not a damping")
        if cn[n] == 0.0:
            raise RatioOutOfRange(
                f"c_{n} = 0 with b_{n} != 0 makes the event probability 0")
        raise RatioOutOfRange(
            f"|c_{n}|/|b_{n}| = {cn[n] / bn[n]} > 1 is not a damping")
    s = np.asarray(stream)
    if s.dtype.kind not in "iu" or np.any(s < 0) or np.any(s >= 1 << 32):
        raise DomainError(f"stream must be an integer in [0, 2^32), got {stream}")
    sub = (s.astype(np.uint64)[..., None] << 32) + np.arange(N + 1, dtype=np.uint64)
    sigma = np.divide(cn, bn, out=np.ones_like(bn), where=bn != 0.0)
    zeta, ok = gaussian_coupling_sample(sigma, seed, sub)
    in_event = np.all(ok, axis=-1)
    return zeta * b[:N + 1], (bool(in_event) if s.ndim == 0 else in_event)


def standard_reports(seed: int = 0, quick: bool = False) -> List[CheckReport]:
    """The default verifier battery (one report per checked statement)."""
    trials_joint = 100000 if quick else 1000000
    reports = [
        unity_average_defect_check(),
        neg_moment_sup_check(theta=[0.2, 0.5, 1.0], t=[0.5, 1.0, 3.0]),
        neg_moment_contraction_check(
            t=[0.1, 0.5, 1.0, 2.0, 4.0], theta=[0.01, 0.1, 0.25, 0.5]),
        joint_neg_moment_check(
            CoefficientModel(kind="ConstantUnit"), r=0.5, N=4, theta=0.5,
            trials=trials_joint, seed=seed),
    ]
    return reports


__all__ = [
    "CheckReport",
    "exp_integral_e1",
    "neg_moment_exact",
    "neg_moment_quadrature",
    "log_abs_moment_exact",
    "neg_moment_contraction_check",
    "neg_moment_sup_check",
    "joint_neg_moment_check",
    "unity_average_defect",
    "unity_average_defect_check",
    "gaussian_coupling_sample",
    "gaf_coupling_sample",
    "standard_reports",
    "EULER_GAMMA",
    "DEFAULT_CONTRACTION_C_LOW",
    "DEFAULT_CONTRACTION_C_HIGH",
    "DEFAULT_SUP_C",
    "DEFAULT_DEFECT_C",
]
