"""Certified hole detection and hole-probability estimators.

A hole at radius r means the function has no zeros in the closed disk of
radius r.  For a truncated sample the decision is made on the circle:

  * a certified minimum-modulus lower bound comes from a grid of K points
    plus the derivative sup bound D (between adjacent grid points the value
    moves by at most D * (pi * rho / K) from the nearer endpoint);
  * a certified winding number comes from the same grid once the full-step
    variation D * (2 pi rho / K) drops below the grid minimum: then the
    image of each step stays inside an open disk around its anchor value
    that excludes the origin, each argument increment is below pi/2, and
    the accumulated increments give the exact winding of the truncated
    polynomial, i.e. its zero count inside the disk;
  * if the certified circle minimum exceeds the tail bound of the dropped
    series remainder, the truncated polynomial and the full series have the
    same zero count in the disk (Rouche on the circle plus the maximum
    principle), so a winding of 0 certifies a hole and a winding of k >= 1
    certifies k zeros.

The direct estimator only needs hole versus non-hole, and "at least one
zero in the closed disk" has a cheaper local certificate (zero-first stage,
Becker, Sagraloff, Sharma, Yap, J. Symbolic Comput. 2018).  Newton's
method from a few fixed interior starts proposes z0; with F_N(z0), F_N'(z0)
computed by Horner as Fh, Fh', a disk D(z0, eps) with |z0| + eps <= r holds
exactly one zero of F when

    (|Fh'| - E_d) eps > |Fh| + E_f + eps^2 S_2 + tail,
    S_2 = sum_{n>=2} |c_n| C(n,2) (|z0| + eps)^{n-2},

by Rouche against the linear term F_N'(z0)(z - z0): the Taylor remainder
of F_N is at most eps^2 S_2, and tail is the same tail_sup_bound value the
ladder uses, which bounds |F - F_N| on the whole closed disk under the same
failure budget.  E_f = g sum |c_n| |z0|^n and E_d = g sum n |c_n| |z0|^{n-1}
bound the Horner rounding errors, with g = gamma_{8(N+2)} covering the
gamma_{4N} of complex Horner (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed.: gamma_k algebra in 3.1, complex products within
sqrt(2) gamma_2 in 3.6, Horner in 5.1) and the rounding of the bounds
themselves; each side is further scaled by (1 -/+ g).  A hole sample cannot
pass the test, so the stage only moves rows from the ladder to
ZeroCertified.  The scalar operations (hole_decision,
min_modulus_certified, winding_number_certified) never use it: they keep
the exact winding count.

Estimators (all Monte Carlo over independent per-trial streams):

  * direct: certify each trial sample; Wilson interval on the hit rate,
    inconclusive trials widen it pessimistically;
  * threshold lower bound: P[Hole] >= e^{-M^2} * P[sup |F - F(0)| <= M]
    (the constant term exceeds M with probability exactly e^{-M^2} and the
    rest then cannot reach back to zero);
  * tilted lower bound: the same threshold idea after damping coefficients
    1..N by factors q_n in (0, 1], which costs an explicit Gaussian
    change-of-measure factor Q^2 = prod q_n^2 but makes the supremum event
    overwhelmingly likely near the critical radius.

Everything is elementwise per trial row, so batch composition and thread
scheduling never change results; merged counters are plain integer sums.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.stats import norm

from . import rng
from .coeffs import CoefficientModel, log_sq_range
from .errors import (
    ComputeBudgetExceeded,
    DomainError,
    IntensityOutOfRange,
    InvalidIntensity,
    InvalidRadius,
    TiltOutOfRange,
)
from .gaf import (
    DEFAULT_FAIL_EXP,
    DEFAULT_TAU_REL,
    GafSample,
    derivative_sup_bound_rows,
    evaluate_on_grid,
    horner,
    sample_coeff_batch,
    tail_sup_bound,
    truncation_degree,
)

K_INIT_DEFAULT = 8
K_CAP_DEFAULT = 1 << 20
BATCH_TRIALS = 2048            # fixed batch width (part of determinism contract)
DEFAULT_COMPUTE_BUDGET = 1e11  # cap on trials * N_t
_CHUNK_ELEMS = 1 << 23         # max complex grid entries evaluated at once

OUTCOME_HOLE = "HoleCertified"
OUTCOME_ZERO = "ZeroCertified"
OUTCOME_INCONCLUSIVE = "Inconclusive"

MODE_DIRECT = "direct"
MODE_THRESHOLD = "threshold_lower"
MODE_TILTED = "tilted_lower"


@dataclass(frozen=True)
class HoleDecision:
    """Certified decision for one sample at one radius."""

    outcome: str               # HoleCertified | ZeroCertified | Inconclusive
    margin: float              # certified min-modulus lower bound minus tail bound
    grid_size_used: int
    zero_count: int = 0        # exact winding number when ZeroCertified
                               # (the scalar decision never takes the
                               # zero-first exit, so the count stays exact)
    reason: str = ""           # populated when Inconclusive


@dataclass(frozen=True)
class HoleEstimate:
    """Monte Carlo hole-probability estimate in one of three modes."""

    model: CoefficientModel
    r: float
    mode: str                  # direct | threshold_lower | tilted_lower
    trials: int
    hits: int
    inconclusive: int
    p_low: float
    p_high: float
    confidence: float
    M: Optional[float]
    seed: int
    metadata: dict = field(default_factory=dict)
    # rows settled by each path of the direct decision kernel; run
    # diagnostics for the CLI sidecar, never part of the record
    kernel: dict = field(default_factory=dict, compare=False)

    def to_record(self) -> dict:
        """Deterministic record (runtime excluded; see CLI sidecar)."""
        md = {k: v for k, v in self.metadata.items() if k != "wall_time_s"}
        return {
            "mode": self.mode,
            "model": self.model.describe(),
            "r": self.r,
            "M": self.M,
            "trials": self.trials,
            "hits": self.hits,
            "inconclusive": self.inconclusive,
            "p_low": self.p_low,
            "p_high": self.p_high,
            "confidence": self.confidence,
            "seed": self.seed,
            **md,
        }


def wilson_interval(hits: int, trials: int, confidence: float) -> Tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    z = float(norm.ppf(0.5 + confidence / 2.0))
    n = float(trials)
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# certification kernel (shared by the scalar ops and the estimators)
# ---------------------------------------------------------------------------

def _grid_points(rho: float, K: int) -> np.ndarray:
    theta = np.arange(K) * (2.0 * np.pi / K)
    return rho * (np.cos(theta) + 1j * np.sin(theta))


def _eval_abs_stats(C: np.ndarray, rho: float, K: int):
    """(grid_min, grid_max, winding) for each row on the K-point rho-grid.

    winding is the rounded sum of the grid arguments; the caller decides
    whether the variation condition certifies it.  Rows are chunked so
    memory stays bounded; per-row results do not depend on chunking.
    """
    B = C.shape[0]
    z = _grid_points(rho, K)
    gmin = np.empty(B)
    gmax = np.empty(B)
    wind = np.zeros(B, dtype=np.int64)
    rows_per = max(1, _CHUNK_ELEMS // max(K, 1))
    for lo in range(0, B, rows_per):
        hi = min(B, lo + rows_per)
        V = evaluate_on_grid(C[lo:hi], z)
        A = np.abs(V)
        gmin[lo:hi] = A.min(axis=1)
        gmax[lo:hi] = A.max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.roll(V, -1, axis=1) / V
            args = np.angle(ratios)
        args = np.where(np.isfinite(args), args, 0.0)
        wind[lo:hi] = np.rint(np.sum(args, axis=1) / (2.0 * np.pi)).astype(np.int64)
    return gmin, gmax, wind


def _certify_rows(C: np.ndarray, rho: float,
                  K_init: int = K_INIT_DEFAULT,
                  K_cap: int = K_CAP_DEFAULT,
                  tail: Optional[float] = None,
                  zero_first: bool = False):
    """Joint min-modulus / winding ladder over coefficient rows.

    Returns a dict of arrays over rows:
      mm_lb      best certified lower bound at the minimum-modulus stop rule
      mm_gm      grid minimum at the level where the stop rule fired (or last)
      mm_K       grid size at the stop level
      wind       certified winding number (valid where wind_ok)
      wind_ok    whether the winding certificate fired before K_cap
      wind_K     grid size at the winding certificate level (0 if none)
      hopeless   grid minimum fell to or below the tail bound (tail mode)
      zero_first row left the ladder with a zero-first certificate

    Both ladders visit the same K schedule (K_init, doubling); running them
    jointly is exactly the composition of the two scalar operations.

    With tail=None (the scalar operations) a row refines until the
    minimum-modulus stop rule and the winding certificate have both fired.
    In tail mode the ladder is a decision kernel: a row exits as soon as
    its fate against the tail bound is settled, either decided (bound
    above the tail with a certified winding) or hopeless (the grid minimum
    is at or below the tail, which refining can only confirm, since grid
    minima decrease toward the true minimum).  With zero_first (tail mode)
    the rows still open at the first level K >= min(_ZERO_FIRST_K, K_cap)
    get one zero-first test before that level is evaluated; rows that pass
    leave the ladder with that certificate.
    """
    B = C.shape[0]
    D = derivative_sup_bound_rows(C, rho)
    mm_lb = np.full(B, -np.inf)
    mm_gm = np.zeros(B)
    mm_K = np.zeros(B, dtype=np.int64)
    mm_done = np.zeros(B, dtype=bool)
    wind = np.zeros(B, dtype=np.int64)
    wind_ok = np.zeros(B, dtype=bool)
    wind_K = np.zeros(B, dtype=np.int64)
    hopeless = np.zeros(B, dtype=bool)
    zf = np.zeros(B, dtype=bool)
    zf_pending = zero_first
    active = np.arange(B)
    K = int(K_init)
    while active.size:
        if zf_pending and K >= min(_ZERO_FIRST_K, K_cap):
            zf_pending = False
            zf[active] = _zero_certified(C[active], rho, tail)
            active = active[~zf[active]]
            continue
        gmin, gmax, w = _eval_abs_stats(C[active], rho, K)
        Da = D[active]
        lb = gmin - Da * (np.pi * rho / K)
        # min-modulus ladder: record best-so-far, freeze at lb > gmin/2
        pend = ~mm_done[active]
        better = pend & (lb > mm_lb[active])
        rows = active[better]
        mm_lb[rows] = lb[better]
        mm_gm[rows] = gmin[better]
        mm_K[rows] = K
        freeze = pend & (lb > gmin / 2.0)
        mm_done[active[freeze]] = True
        # winding ladder: full-step variation must drop below the grid min
        wpend = ~wind_ok[active]
        can = wpend & (Da * (2.0 * np.pi * rho / K) < gmin)
        rows = active[can]
        wind[rows] = w[can]
        wind_ok[rows] = True
        wind_K[rows] = K
        if K >= K_cap:
            break
        if tail is None:
            still = ~(mm_done[active] & wind_ok[active])
        else:
            hp = gmin <= tail
            hopeless[active[hp]] = True
            settled = hp | ((mm_lb[active] > tail) & wind_ok[active])
            still = ~settled
        active = active[still]
        K *= 2
    return {
        "mm_lb": mm_lb, "mm_gm": mm_gm, "mm_K": mm_K,
        "wind": wind, "wind_ok": wind_ok, "wind_K": wind_K,
        "hopeless": hopeless, "zero_first": zf,
    }


def _rounding_gamma(n_coeffs: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53, at k = 8 (N + 2).

    N = n_coeffs - 1 is the degree; see the module docstring for what the
    factor covers.
    """
    ku = 8 * (n_coeffs + 1) * 2.0 ** -53
    return ku / (1.0 - ku)


def _derivative_rows(C: np.ndarray) -> np.ndarray:
    """Coefficient rows of F_N' (C has at least two columns)."""
    return C[:, 1:] * np.arange(1, C.shape[1], dtype=np.float64)


def _newton_points(C: np.ndarray, rho: float) -> np.ndarray:
    """Newton iterates from rho * _NEWTON_STARTS after _NEWTON_STEPS -> (B, S).

    An iterate leaving the closed rho-disk is pulled back radially onto its
    circle; a non-finite step keeps the previous iterate.
    """
    dC = _derivative_rows(C)
    z = np.repeat((rho * _NEWTON_STARTS)[None, :], C.shape[0], axis=0)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            z_next = z - horner(C, z) / horner(dC, z)
            z = np.where(np.isfinite(z_next), z_next, z)
            a = np.abs(z)
            z = np.where(a > rho, z * (rho / a), z)
    return z


def _rounded_values(C: np.ndarray, z: np.ndarray):
    """(Fh, Fh', E_f, E_d) at the points z[i, j].

    Fh and Fh' are the Horner values of F_N and F_N'; E_f and E_d bound
    |Fh - F_N(z)| and |Fh' - F_N'(z)| a priori.
    """
    g = _rounding_gamma(C.shape[1])
    dC = _derivative_rows(C)
    az = np.abs(z)
    e_f = g * horner(np.abs(C), az)
    e_d = g * horner(np.abs(dC), az)
    return horner(C, z), horner(dC, z), e_f, e_d


def _zero_certified(C: np.ndarray, rho: float, tail: float) -> np.ndarray:
    """Rows of C with a certified zero of F in the closed rho-disk.

    Newton from the fixed starts, then the rounding-aware Rouche test of
    the module docstring at each final iterate z0 for eps = m * (|Fh| +
    E_f + tail) / (|Fh'| - E_d), m in _EPS_FACTORS.  A row passes if any
    (start, m) does.
    """
    B, n1 = C.shape
    if B == 0 or n1 < 2:
        return np.zeros(B, dtype=bool)
    z = _newton_points(C, rho)
    fh, dh, e_f, e_d = _rounded_values(C, z)
    g = _rounding_gamma(n1)
    if n1 > 2:
        n = np.arange(2, n1, dtype=np.float64)
        curv = np.abs(C[:, 2:]) * (n * (n - 1.0) / 2.0)   # |c_n| C(n, 2)
    else:
        curv = np.zeros((B, 1))
    az = np.abs(z)
    ok = np.zeros(B, dtype=bool)
    with np.errstate(all="ignore"):
        lin = np.abs(dh) - e_d                 # <= |F_N'(z0)|
        const = np.abs(fh) + e_f + tail        # >= |F(z0)| under the tail event
        for m in _EPS_FACTORS:
            eps = m * const / lin
            rho_out = (az + eps) * (1.0 + g)   # >= |z0| + eps
            fits = (lin > 0.0) & (rho_out <= rho)
            S2 = (1.0 + g) * horner(curv, np.where(fits, rho_out, 0.0))
            lhs = (1.0 - g) * lin * eps
            rhs = (1.0 + g) * (const + eps * eps * S2)
            ok |= np.any(fits & (lhs > rhs), axis=1)
    return ok


def _horner_row(c: np.ndarray, rho: float, theta: np.ndarray) -> np.ndarray:
    z = rho * (np.cos(theta) + 1j * np.sin(theta))
    return evaluate_on_grid(c[None, :], z)[0]


def _decide_row_adaptive(c: np.ndarray, rho: float, tail: float,
                         h_floor: float,
                         eval_budget: int = 1 << 15):
    """Certified decision for one row by adaptive arc subdivision.

    Returns (lb, wind, evals): lb is a certified lower bound for the circle
    minimum (taken over per-arc bounds (|F_j| + |F_{j+1}| - D rho h_j)/2,
    which hold with no step condition), wind the certified winding number
    or None when certification failed.  An arc refines while its variation
    bound D rho h exceeds half the smaller endpoint modulus or while its
    certified bound has not cleared the tail; refinement therefore
    concentrates near small minima and the cost of resolving scale s grows
    like log(1/s) rather than 1/s.  Once every arc is quiet, each step's
    image stays inside the half-modulus disk around its left endpoint, so
    principal-branch argument increments sum to the exact winding number.
    """
    D = float(derivative_sup_bound_rows(c[None, :], rho)[0])
    if D == 0.0:
        v = float(abs(complex(c[0])))
        return v, (0 if v > tail else None), 1
    K0 = 256
    theta = np.arange(K0) * (2.0 * np.pi / K0)
    vals = _horner_row(c, rho, theta)
    evals = K0
    while True:
        a = np.abs(vals)
        h = np.diff(theta, append=theta[0] + 2.0 * np.pi)
        a_next = np.roll(a, -1)
        arc_lb = 0.5 * (a + a_next - D * rho * h)
        lb = float(arc_lb.min())
        if float(a.min()) <= tail:
            return lb, None, evals           # hopeless: grid min at/below tail
        quiet = D * rho * h <= 0.5 * np.minimum(a, a_next)
        need = ~quiet | (arc_lb <= tail)
        if not need.any():
            break
        if evals >= eval_budget or not (h[need] > h_floor).all():
            return lb, None, evals           # resolution or budget exhausted
        mid = theta[need] + 0.5 * h[need]
        vals_mid = _horner_row(c, rho, mid)
        evals += mid.size
        theta = np.concatenate([theta, mid])
        vals = np.concatenate([vals, vals_mid])
        order = np.argsort(theta)
        theta = theta[order]
        vals = vals[order]
    a = np.abs(vals)
    h = np.diff(theta, append=theta[0] + 2.0 * np.pi)
    lb = float(np.min(0.5 * (a + np.roll(a, -1) - D * rho * h)))
    dargs = np.angle(np.roll(vals, -1) / vals)
    wind_n = int(np.rint(float(dargs.sum()) / (2.0 * np.pi)))
    return lb, wind_n, evals


# uniform stage cap and extra resolution of the adaptive stage relative to
# the grid cap (default cap 2^20 -> adaptive arcs down to 2 pi / 2^30)
_UNIFORM_STAGE_CAP = 1 << 14
_ADAPTIVE_REFINE_FACTOR = 1024.0
# zero-first stage: the ladder level where it runs, Newton starts as
# fractions of the radius (centre, 3 at 1/2, 6 at 0.85), Newton steps, and
# the multiples m of the break-even disk radius that the Rouche test tries
_ZERO_FIRST_K = 1 << 10
_NEWTON_STARTS = np.concatenate([
    [0.0],
    0.5 * np.exp(2j * np.pi * np.arange(3) / 3),
    0.85 * np.exp(2j * np.pi * (np.arange(6) + 0.5) / 6),
])
_NEWTON_STEPS = 12
_EPS_FACTORS = (1.125, 1.5, 2.0)


def _decide_rows(C: np.ndarray, rho: float, tail: float,
                 K_init: int = K_INIT_DEFAULT,
                 K_cap: int = K_CAP_DEFAULT,
                 zero_first: bool = False):
    """Decision kernel over rows: uniform ladder, then adaptive fallback.

    The vectorized uniform ladder settles the bulk cheaply (capped well
    below K_cap, where it stops paying off); rows it leaves open are
    near-vanishing on the circle and go to the per-row adaptive certifier,
    whose cost scales with the log of the resolved modulus.

    zero_first (direct estimator only) adds the zero-first stage of the
    module docstring: once per batch, on the rows still open at the first
    ladder level K >= _ZERO_FIRST_K (the top of the last uniform level
    when the cap is lower, so always before the adaptive fallback),
    Newton plus the rounding-aware Rouche test
    (|Fh'| - E_d) eps > |Fh| + E_f + eps^2 S_2 + tail, with the ladder's
    tail bound and a-priori Horner rounding bounds E_f, E_d.  Rows that pass
    are flagged in res["zero_first"] and leave with no winding number: they
    have at least one zero in the disk, which is all a hole estimate needs.
    res["adaptive"] flags the rows handed to the adaptive fallback.
    """
    res = _certify_rows(C, rho, K_init, min(int(K_cap), _UNIFORM_STAGE_CAP),
                        tail=tail, zero_first=zero_first)
    res["extra_evals"] = np.zeros(C.shape[0], dtype=np.int64)
    open_mask = (~res["hopeless"] & ~res["zero_first"]
                 & ~((res["mm_lb"] > tail) & res["wind_ok"]))
    res["adaptive"] = open_mask
    open_rows = np.nonzero(open_mask)[0]
    if open_rows.size == 0:
        return res
    h_floor = 2.0 * np.pi / (float(K_cap) * _ADAPTIVE_REFINE_FACTOR)
    for i in open_rows:
        lb, wind_n, evals = _decide_row_adaptive(C[i], rho, tail, h_floor)
        res["extra_evals"][i] = evals
        if lb > res["mm_lb"][i]:
            res["mm_lb"][i] = lb
        if wind_n is not None:
            res["wind"][i] = wind_n
            res["wind_ok"][i] = True
            res["wind_K"][i] = max(int(res["wind_K"][i]), evals)
    return res


def min_modulus_certified(sample: GafSample, rho: float,
                          K_init: int = K_INIT_DEFAULT,
                          K_cap: int = K_CAP_DEFAULT) -> Tuple[float, float, int]:
    """Certified lower bound for min |F| on the rho-circle.

    Returns (lower_bound, grid_min, K_used).  The grid doubles from K_init
    until the bound exceeds half the grid minimum (within a factor 2 of
    optimal) or the cap is reached; the best bound found is returned, which
    may be <= 0 for samples nearly vanishing on the circle.
    """
    if not (0.0 < rho < 1.0):
        raise InvalidRadius(f"rho must lie in (0, 1), got {rho}")
    if K_init < 8:
        raise DomainError(f"K_init must be >= 8, got {K_init}")
    res = _certify_rows(sample.coeffs[None, :], rho, K_init, K_cap)
    return float(res["mm_lb"][0]), float(res["mm_gm"][0]), int(res["mm_K"][0])


def winding_number_certified(sample: GafSample, rho: float,
                             K_init: int = K_INIT_DEFAULT,
                             K_cap: int = K_CAP_DEFAULT) -> Optional[int]:
    """Certified winding number of the rho-circle image (zero count inside).

    Returns the integer winding when the certificate fires, None when it is
    still inconclusive at the grid cap (the sample nearly vanishes on the
    circle).
    """
    if not (0.0 < rho < 1.0):
        raise InvalidRadius(f"rho must lie in (0, 1), got {rho}")
    _check_K_init(K_init)
    res = _certify_rows(sample.coeffs[None, :], rho, K_init, K_cap)
    if not bool(res["wind_ok"][0]):
        return None
    return int(res["wind"][0])


def hole_decision(sample: GafSample, r: float, tail_bound: float,
                  K_init: int = K_INIT_DEFAULT,
                  K_cap: int = K_CAP_DEFAULT) -> HoleDecision:
    """Certified decision: no zeros in the closed r-disk, k zeros, or unknown.

    tail_bound must come from tail_sup_bound for the same (model, N_t, r);
    when the certified circle minimum of the truncated polynomial exceeds
    it, the truncation and the full series have equal zero counts in the
    disk, and the winding number decides between hole and zeros.
    """
    if not (0.0 < r < 1.0):
        raise InvalidRadius(f"r must lie in (0, 1), got {r}")
    _check_K_init(K_init)
    res = _decide_rows(sample.coeffs[None, :], r, float(tail_bound),
                       K_init, K_cap)
    return _decision_from_arrays(res, 0, tail_bound)


def _decision_from_arrays(res: dict, i: int, tail_bound: float) -> HoleDecision:
    lb = float(res["mm_lb"][i])
    margin = lb - tail_bound
    K_used = int(max(res["mm_K"][i], res["wind_K"][i]))
    if "extra_evals" in res:
        K_used += int(res["extra_evals"][i])
    if margin > 0.0 and bool(res["wind_ok"][i]):
        w = int(res["wind"][i])
        if w == 0:
            return HoleDecision(outcome=OUTCOME_HOLE, margin=margin,
                                grid_size_used=K_used)
        if w >= 1:
            return HoleDecision(outcome=OUTCOME_ZERO, margin=margin,
                                grid_size_used=K_used, zero_count=w)
        # negative winding cannot happen for polynomials; fall through
        reason = f"negative winding {w}"
    elif margin <= 0.0:
        reason = "certified circle minimum does not clear the tail bound"
    else:
        reason = "winding certificate did not fire below the grid cap"
    return HoleDecision(outcome=OUTCOME_INCONCLUSIVE, margin=margin,
                        grid_size_used=K_used, reason=reason)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _check_K_init(K_init: int):
    if K_init < 1:
        raise DomainError(f"K_init must be >= 1, got {K_init}")


def _check_estimator_args(r: float, trials: int, confidence: float,
                          K_init: int):
    if not (0.0 < r < 1.0):
        raise InvalidRadius(f"r must lie in (0, 1), got {r}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not (0.0 < confidence < 1.0):
        raise DomainError(f"confidence must lie in (0, 1), got {confidence}")
    _check_K_init(K_init)


def _check_budget(trials: int, N_t: int, budget: float):
    cost = float(trials) * float(N_t)
    if cost > budget:
        raise ComputeBudgetExceeded(
            f"trials * N_t = {cost:.3e} exceeds compute budget {budget:.3e}")


def _batched_counts(trials: int, workers: int, worker_fn):
    """Run worker_fn(lo, hi) over fixed-width trial batches; sum int tuples."""
    spans = [(lo, min(lo + BATCH_TRIALS, trials))
             for lo in range(0, trials, BATCH_TRIALS)]
    if workers <= 1 or len(spans) == 1:
        parts = [worker_fn(lo, hi) for lo, hi in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(lambda s: worker_fn(*s), spans))
    totals = [0] * len(parts[0])
    for p in parts:
        for j, v in enumerate(p):
            totals[j] += int(v)
    return totals


def estimate_hole_direct(model: CoefficientModel, r: float, trials: int,
                         seed: int, confidence: float = 0.99,
                         tau_rel: float = DEFAULT_TAU_REL,
                         fail_exp: float = DEFAULT_FAIL_EXP,
                         K_init: int = K_INIT_DEFAULT,
                         K_cap: int = K_CAP_DEFAULT,
                         budget: float = DEFAULT_COMPUTE_BUDGET,
                         workers: int = 1) -> HoleEstimate:
    """Direct Monte Carlo estimate of the hole probability at radius r.

    Each trial samples a truncated series on its own stream (stream id =
    trial index) and runs the certified decision.  Inconclusive trials
    widen the Wilson interval pessimistically: they count as hits for
    p_high and as misses for p_low.
    """
    _check_estimator_args(r, trials, confidence, K_init)
    N_t = truncation_degree(model, r, tau_rel)
    _check_budget(trials, N_t, budget)
    tail, log_fail = tail_sup_bound(model, N_t, r, fail_exp)

    def worker(lo: int, hi: int):
        C = sample_coeff_batch(model, seed, np.arange(lo, hi, dtype=np.uint64), N_t)
        res = _decide_rows(C, r, tail, K_init, K_cap, zero_first=True)
        zf = res["zero_first"]
        ok = (res["mm_lb"] - tail > 0.0) & res["wind_ok"]
        hole = ok & (res["wind"] == 0)
        zero = (ok & (res["wind"] >= 1)) | zf
        inc = ~(hole | zero)
        by_adaptive = (hole | zero) & res["adaptive"]
        by_ladder = (hole | zero) & ~zf & ~res["adaptive"]
        return (int(hole.sum()), int(zero.sum()), int(inc.sum()),
                int(zf.sum()), int(by_ladder.sum()), int(by_adaptive.sum()))

    holes_n, zeros_n, inc_n, zf_n, ladder_n, adaptive_n = _batched_counts(
        trials, workers, worker)
    lo = wilson_interval(holes_n, trials, confidence)[0]
    hi = wilson_interval(holes_n + inc_n, trials, confidence)[1]
    return HoleEstimate(
        model=model, r=float(r), mode=MODE_DIRECT, trials=int(trials),
        hits=int(holes_n), inconclusive=int(inc_n),
        p_low=lo, p_high=hi, confidence=float(confidence), M=None,
        seed=int(seed),
        metadata={
            "fail_exp": fail_exp, "tau_rel": tau_rel, "N_t": N_t,
            "tail_bound": tail,
            "zeros_certified": int(zeros_n),
            "certificate_failure_budget": trials * math.exp(log_fail),
        },
        kernel={"zero_first": zf_n, "uniform_ladder": ladder_n,
                "adaptive": adaptive_n, "inconclusive": int(inc_n)})


def default_threshold(L: float, r: float, eps: float = 0.05, B: float = 3.0,
                      alpha_exp: float = 0.75) -> float:
    """Regime-dispatched default threshold M for the lower-bound estimators.

    decaying (L < 1):  sqrt(1 - L + 2 eps) * (1 - r^2)^{-L/2} * sqrt(log 1/(1-r))
    flat (L = 1):      B * sqrt(1 / (1 - r))
    growing (L > 1):   delta^{-1/2} * (log 1/delta)^{alpha_exp},  delta = 1 - r
    """
    if L <= 0.0:
        raise InvalidIntensity(f"intensity L must be positive, got {L}")
    if not (0.0 < r < 1.0):
        raise InvalidRadius(f"r must lie in (0, 1), got {r}")
    delta = 1.0 - r
    if L < 1.0:
        return math.sqrt(1.0 - L + 2.0 * eps) * (1.0 - r * r) ** (-L / 2.0) \
            * math.sqrt(math.log(1.0 / delta))
    if L == 1.0:
        return B * math.sqrt(1.0 / delta)
    return delta ** -0.5 * math.log(1.0 / delta) ** alpha_exp


def _sup_counts(C: np.ndarray, rho: float, M: float, tail: float,
                K_init: int, K_cap: int, scale: float = 1.0,
                extra_D: Optional[np.ndarray] = None):
    """Count rows whose certified sup (scale * |grid|) + tail is <= M.

    The ladder refines while neither 'certified sup <= M' (hit) nor
    'grid max > M' (definite miss: the grid max is a lower bound for the
    sup) holds; rows still open at K_cap count as inconclusive.
    extra_D overrides the variation bound (used when the rows are an inner
    polynomial evaluated in place of z^{N+1} * inner).
    """
    B = C.shape[0]
    D = extra_D if extra_D is not None else derivative_sup_bound_rows(C, rho)
    hit = np.zeros(B, dtype=bool)
    miss = np.zeros(B, dtype=bool)
    active = np.arange(B)
    K = int(K_init)
    while active.size:
        _, gmax, _ = _eval_abs_stats(C[active], rho, K)
        smax = scale * gmax
        cert = smax + D[active] * (np.pi * rho / K) + tail
        h = cert <= M
        m = smax > M
        hit[active[h]] = True
        miss[active[m & ~h]] = True
        if K >= K_cap:
            break
        active = active[~(h | m)]
        K *= 2
    inc = int(B - hit.sum() - miss.sum())
    return int(hit.sum()), int(miss.sum()), inc


def estimate_hole_lower_threshold(model: CoefficientModel, r: float,
                                  trials: int, seed: int,
                                  confidence: float = 0.99,
                                  M: Optional[float] = None,
                                  eps: float = 0.05, B: float = 3.0,
                                  alpha_exp: float = 0.75,
                                  tau_rel: float = DEFAULT_TAU_REL,
                                  fail_exp: float = DEFAULT_FAIL_EXP,
                                  K_init: int = K_INIT_DEFAULT,
                                  K_cap: int = K_CAP_DEFAULT,
                                  budget: float = DEFAULT_COMPUTE_BUDGET,
                                  workers: int = 1) -> HoleEstimate:
    """Certified lower confidence bound via the threshold decomposition.

    P[Hole(r)] >= P[|F(0)| > M] * P[sup_circle |F - F(0)| <= M]
               =  e^{-M^2}      * q,
    with q estimated by Monte Carlo on certified sup bounds (grid max +
    variation bound + tail bound).  p_high is 1: this mode only certifies
    a lower bound.  eps, B and alpha_exp feed the default threshold and
    are ignored when M is given.
    """
    _check_estimator_args(r, trials, confidence, K_init)
    if M is None:
        if model.kind in ("Hyperbolic", "PowerLaw"):
            M = default_threshold(model.L, r, eps=eps, B=B,
                                  alpha_exp=alpha_exp)
        else:
            M = default_threshold(1.0, r, eps=eps, B=B, alpha_exp=alpha_exp)
    if M <= 0.0:
        raise ValueError(f"threshold M must be positive, got {M}")
    N_t = truncation_degree(model, r, tau_rel)
    _check_budget(trials, N_t, budget)
    tail, log_fail = tail_sup_bound(model, N_t, r, fail_exp)

    def worker(lo: int, hi: int):
        C = sample_coeff_batch(model, seed, np.arange(lo, hi, dtype=np.uint64), N_t)
        C[:, 0] = 0.0  # G = F - F(0)
        return _sup_counts(C, r, M, tail, K_init, K_cap)

    hits, _, inc = _batched_counts(trials, workers, worker)
    q_low = wilson_interval(hits, trials, confidence)[0]
    p_low = math.exp(-M * M) * q_low
    return HoleEstimate(
        model=model, r=float(r), mode=MODE_THRESHOLD, trials=int(trials),
        hits=int(hits), inconclusive=int(inc),
        p_low=p_low, p_high=1.0, confidence=float(confidence), M=float(M),
        seed=int(seed),
        metadata={
            "fail_exp": fail_exp, "tau_rel": tau_rel, "N_t": N_t,
            "tail_bound": tail, "q_low": q_low,
            "certificate_failure_budget": trials * math.exp(log_fail),
        })


def tilt_profile(model: CoefficientModel, r: float, alpha_exp: float = 0.75,
                 alpha1: Optional[float] = None):
    """Damping profile (q_n for n=1..N), block sizes and threshold.

    Returns (q, N, N1, M, r2, alpha1, log_Q2) where q has length N and
    q_n in (0, 1]; requires a growing-coefficient model (Hyperbolic L > 1)
    near the boundary, where the profile is defined.

    Any profile with q_n <= 1 yields a valid lower bound; an explicit
    alpha1 is only checked against that constraint.  The automatic alpha1
    additionally targets sigma_Q(r2) <= M / (2 * (log 1/delta)^alpha_exp),
    the condition that makes the damped middle block actually stay below
    M/2 with decent probability (without it the bound is vacuously 0).
    """
    if model.kind != "Hyperbolic" or model.L is None or model.L <= 1.0:
        raise IntensityOutOfRange(
            "tilted estimator requires a Hyperbolic model with L > 1, got "
            f"kind={model.kind}, L={model.L}")
    if not (0.0 < r < 1.0):
        raise InvalidRadius(f"r must lie in (0, 1), got {r}")
    if not (0.5 < alpha_exp < 1.0):
        raise TiltOutOfRange(f"alpha_exp must lie in (1/2, 1), got {alpha_exp}")
    L = model.L
    delta = 1.0 - r
    log1d = math.log(1.0 / delta)
    if log1d <= 0.0:
        raise InvalidRadius("tilted profile needs r close enough to 1 that "
                            "log(1/(1-r)) > 0")
    N = int(math.floor((2.0 * L / delta) * log1d))
    N1 = int(math.floor(((L - 1.0) / (2.0 * delta)) * log1d))
    M = delta ** -0.5 * log1d ** alpha_exp
    r2 = r + delta * delta
    la = log_sq_range(model, max(N, 1))
    n = np.arange(1, N + 1)
    log_head_scale = la[1:N + 1] + 2.0 * n * math.log(r2) + math.log(log1d)
    cap_head = float(np.exp(np.min(log_head_scale[:N1]))) if N1 >= 1 else math.inf
    cap_flat = log1d ** L
    cap = min(cap_head, cap_flat)  # largest alpha1 keeping every q_n <= 1
    if alpha1 is None:
        # sigma_Q(r2)^2 = alpha1 * S with S as below; target M^2/(4 lambda^2)
        # = 1/(4 delta) with lambda = log1d^alpha_exp
        log_flat = la[N1 + 1:N + 1] + 2.0 * n[N1:] * math.log(r2)
        parts = []
        if N1 >= 1:
            parts.append(math.log(N1) - math.log(log1d))
        if N > N1:
            m = float(np.max(log_flat))
            parts.append(m + math.log(float(np.sum(np.exp(log_flat - m))))
                         - L * math.log(log1d))
        log_S = parts[0] if len(parts) == 1 else np.logaddexp(parts[0], parts[1])
        alpha1 = min(cap, math.exp(-math.log(4.0 * delta) - float(log_S)))
    elif alpha1 <= 0.0 or alpha1 > cap * (1.0 + 1e-12):
        raise TiltOutOfRange(
            f"alpha1={alpha1} exceeds the admissible cap {cap:.6g} "
            "(q_n must stay in (0, 1])")
    log_q_sq = np.empty(N)
    log_q_sq[:N1] = math.log(alpha1) - log_head_scale[:N1]
    log_q_sq[N1:] = math.log(alpha1) - L * math.log(log1d)
    log_q_sq = np.minimum(log_q_sq, 0.0)  # guard rounding at the binding index
    q = np.exp(0.5 * log_q_sq)
    log_Q2 = float(np.sum(log_q_sq))
    return q, N, N1, M, r2, float(alpha1), log_Q2


def estimate_hole_lower_tilted(model: CoefficientModel, r: float,
                               trials: int, seed: int,
                               confidence: float = 0.99,
                               alpha_exp: float = 0.75,
                               alpha1: Optional[float] = None,
                               tau_rel: float = DEFAULT_TAU_REL,
                               fail_exp: float = DEFAULT_FAIL_EXP,
                               K_init: int = K_INIT_DEFAULT,
                               K_cap: int = K_CAP_DEFAULT,
                               budget: float = DEFAULT_COMPUTE_BUDGET,
                               workers: int = 1) -> HoleEstimate:
    """Certified lower confidence bound via the tilted decomposition.

    With damping factors q_n on coefficients 1..N,

      P[Hole(r)] >= e^{-M^2} * Q^2 * P[sup |tilted middle| <= M/2]
                                   * P[sup |tail past N| <= M/2],

    each probability estimated on its own purpose-separated streams and
    lower-bounded by a Wilson bound at confidence 1 - (1-confidence)/2, so
    the two failures together stay within 1 - confidence.  p_low underflows
    to 0 deep in the asymptotic regime; metadata keeps log10_p_low.
    """
    _check_estimator_args(r, trials, confidence, K_init)
    q, N, N1, M, r2, alpha1, log_Q2 = tilt_profile(model, r, alpha_exp, alpha1)
    if N < 1:
        raise TiltOutOfRange(
            f"middle block is empty at r={r} (N={N}); r is too far from 1")
    N_t = max(truncation_degree(model, r, tau_rel), N + 1)
    _check_budget(trials, N_t, budget)
    tail_beyond, log_fail = tail_sup_bound(model, N_t, r, fail_exp)
    la = log_sq_range(model, N_t)
    a = np.exp(0.5 * la)
    conf_each = 1.0 - (1.0 - confidence) / 2.0
    half = M / 2.0

    def worker_mid(lo: int, hi: int):
        streams = np.arange(lo, hi, dtype=np.uint64)
        keys = rng.stream_key(seed, streams, rng.PURPOSE_TILT_MIDDLE)[:, None]
        idx = np.arange(1, N + 1, dtype=np.uint64)[None, :]
        zetas = rng.complex_gaussians(keys, idx)
        C = np.zeros((len(streams), N + 1), dtype=complex)
        C[:, 1:] = zetas * (q * a[1:N + 1])[None, :]
        return _sup_counts(C, r, half, 0.0, K_init, K_cap)

    def worker_tail(lo: int, hi: int):
        streams = np.arange(lo, hi, dtype=np.uint64)
        keys = rng.stream_key(seed, streams, rng.PURPOSE_TILT_TAIL)[:, None]
        idx = np.arange(N + 1, N_t + 1, dtype=np.uint64)[None, :]
        zetas = rng.complex_gaussians(keys, idx)
        inner = zetas * a[N + 1:N_t + 1][None, :]
        # T(z) = z^{N+1} * inner(z): |T| on the circle = r^{N+1} * |inner|,
        # and sup |T'| <= sum_n n |c_n| r^{n-1} over the original indices
        n_full = np.arange(N + 1, N_t + 1)
        D_T = np.sum(np.abs(inner) * (n_full * r ** (n_full - 1))[None, :],
                     axis=1)
        return _sup_counts(inner, r, half, tail_beyond, K_init, K_cap,
                           scale=r ** (N + 1), extra_D=D_T)

    mid_hits, _, mid_inc = _batched_counts(trials, workers, worker_mid)
    tail_hits, _, tail_inc = _batched_counts(trials, workers, worker_tail)
    q_mid = wilson_interval(mid_hits, trials, conf_each)[0]
    q_tail = wilson_interval(tail_hits, trials, conf_each)[0]
    log_p = -M * M + log_Q2 \
        + (math.log(q_mid) if q_mid > 0 else -math.inf) \
        + (math.log(q_tail) if q_tail > 0 else -math.inf)
    p_low = math.exp(log_p) if log_p > -745.0 else 0.0
    return HoleEstimate(
        model=model, r=float(r), mode=MODE_TILTED, trials=int(trials),
        hits=int(min(mid_hits, tail_hits)), inconclusive=int(mid_inc + tail_inc),
        p_low=p_low, p_high=1.0, confidence=float(confidence), M=float(M),
        seed=int(seed),
        metadata={
            "fail_exp": fail_exp, "tau_rel": tau_rel, "N_t": N_t,
            "tail_bound": tail_beyond,
            "N": N, "N1": N1, "r2": r2, "alpha1": alpha1,
            "log_Q2": log_Q2, "q_mid_low": q_mid, "q_tail_low": q_tail,
            "mid_hits": int(mid_hits), "tail_hits": int(tail_hits),
            "log10_p_low": log_p / math.log(10.0) if math.isfinite(log_p) else None,
            "certificate_failure_budget": trials * math.exp(log_fail),
        })


def log_determinantal_hole_probability(r: float) -> float:
    """log of the exact flat-model (L = 1) hole probability.

    Stays finite for r arbitrarily close to 1 where the probability
    itself underflows (it is of order exp(-(pi^2/12)/(1-r))).
    """
    if not (0.0 <= r < 1.0):
        raise InvalidRadius(f"r must lie in [0, 1), got {r}")
    if r == 0.0:
        return 0.0
    log_acc = 0.0
    r2k = 1.0
    r2 = r * r
    while True:
        r2k *= r2
        if r2k < 1e-16:
            break
        log_acc += math.log1p(-r2k)
    return log_acc


def determinantal_hole_probability(r: float) -> float:
    """Exact hole probability for the flat model (L = 1): prod_k (1 - r^{2k}).

    Factors are truncated once r^{2k} < 1e-16, keeping the relative error
    of the product below 1e-12 for r <= 0.999.
    """
    return math.exp(log_determinantal_hole_probability(r))


__all__ = [
    "HoleDecision",
    "HoleEstimate",
    "wilson_interval",
    "min_modulus_certified",
    "winding_number_certified",
    "hole_decision",
    "estimate_hole_direct",
    "default_threshold",
    "estimate_hole_lower_threshold",
    "log_determinantal_hole_probability",
    "tilt_profile",
    "estimate_hole_lower_tilted",
    "determinantal_hole_probability",
    "K_INIT_DEFAULT",
    "K_CAP_DEFAULT",
    "BATCH_TRIALS",
    "DEFAULT_COMPUTE_BUDGET",
    "MODE_DIRECT",
    "MODE_THRESHOLD",
    "MODE_TILTED",
    "OUTCOME_HOLE",
    "OUTCOME_ZERO",
    "OUTCOME_INCONCLUSIVE",
]
