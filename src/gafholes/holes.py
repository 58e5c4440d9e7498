"""Certified hole detection and hole-probability estimators.

A hole at radius r means the function has no zeros in the closed disk of
radius r.  For a truncated sample the decision is made on a grid of K
points of the circle, with computed values V_j:

  * a certified lower bound for min |F| on the circle, the larger of a
    first-order and a second-order ("tube") bound (below);
  * a certified winding number, the winding of the closed polygon through
    the V_j, once that polygon provably winds like F (below): the zero
    count of the truncated polynomial inside the disk;
  * if the certified circle minimum exceeds the tail bound of the dropped
    series remainder, the truncated polynomial and the full series have the
    same zero count in the disk (Rouche on the circle plus the maximum
    principle), so a winding of 0 certifies a hole and a winding of k >= 1
    certifies k zeros.

Both ladders (this one and the sup ladder of the lower bounds) visit the
grid sizes K_init, 2 K_init, ... up to the cap on nested grids: the even
points of the 2K-point grid are the K-point grid bit for bit (fl(2 pi /
(2K)) = fl(2 pi / K) / 2 and (2j) (y / 2) = j y exactly) and Horner is
elementwise, so each doubling evaluates only the K new odd points.  The sup
ladder folds their maximum |F| into the previous level's (max is exact);
the min ladder keeps the values of its open rows and interleaves the new
ones, so it holds the full grid bit for bit.  A NaN propagates the same
way.  The cap is the largest grid either ladder visits, in every operation
and estimator: a row still open there is Inconclusive.

Let f(theta) = F(rho e^{i theta}), h = 2 pi / K, D = sum n |c_n| rho^{n-1}
>= sup |F'| and D_2 = sum n^2 |c_n| rho^n >= sup |f''|.  Between adjacent
grid points f moves by at most D rho h / 2 from the nearer endpoint (first
order).  On an arc [a, a + h] the linear interpolant l of f satisfies
f(t) - l(t) = int_a^{a+h} k(t, s) f''(s) ds with the Peano kernel k(t, s) =
-(s - a)(a + h - t)/h for s <= t and -(t - a)(a + h - s)/h for s >= t,
which does not change sign and has int |k(t, s)| ds = (t - a)(a + h - t)/2
<= h^2/8.  The representation is linear in f, so it holds for
complex-valued f: f stays within (h^2/8) D_2 of the segment [f(a), f(a +
h)] (second order), and the grid a row needs grows like gap^{-1/2} instead
of 1/gap.  Hence on each arc

    |f(t)| <= max(|f(a)|, |f(a + h)|) + min(D pi rho / K, (h^2/8) D_2),
    |f(t)| >= max(min(|f(a)|, |f(a + h)|) - D pi rho / K,
                  dist(0, [f(a), f(a + h)]) - (h^2/8) D_2),

since the modulus of a convex combination is at most the larger endpoint
modulus and at least the distance from 0 to the segment.  The computed
values differ from the exact values at the exact grid points by at most
E = g sum |c_n| (rho (1 + eta))^n + D eta rho: the Horner error (g as in
the Rouche test below) and the point error.  A computed grid point lies
within (eta/2) rho of the exact one (eta = 32 u; sampled points of grids
of up to 2^20 points stay within 10.5 u rho of the mpmath values), and the
factor 2 also covers D at the radius rho (1 + eta/2) of the segment between
them for any degree below 10^14.  A segment between computed values then
lies within E of the exact one, so the sup ladder adds E and the min
ladder subtracts it, each under a factor 1 + g for the rounding of the
bounds.  The slack between g and the gamma_{4N} of Horner, at least 16 u
sum |c_n| (rho (1 + eta))^n, also covers the rounding of |V_j| and of the
computed segment distances (a few u max |V_j|).

The winding certificate fires on either of two conditions.  Tube: if
dist(0, [V_j, V_{j+1}]) > (h^2/8) D_2 + E on every arc, then |F - P| <
|P| on the circle for the polygon P through the V_j (parametrized linearly
on each arc), so F and P have the same winding, and P has no zero on the
circle.  Step: if D 2 pi rho / K + 2E < min_j |V_j|, then the disk of
radius D rho h + 2E around each V_j excludes 0 and holds the exact values
on its arc and V_{j+1}.  Either way each segment [V_j, V_{j+1}] misses 0,
so the principal arguments of V_{j+1} / V_j sum to 2 pi times the winding
of F.

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
  * threshold lower bound: P[Hole] >= e^{-M^2/a_0^2} * P[sup |F - F(0)| <= M]
    (the constant term a_0 zeta_0 exceeds M with probability exactly
    e^{-M^2/a_0^2}, 0 when a_0 = 0, and the rest then cannot reach back
    to zero);
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
from scipy.special import ndtri

from . import rng
from .coeffs import CoefficientModel, coefficient, log_sq_range
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
    derivative_sup_bound_rows,  # noqa: F401 (unused; bench tracer wraps it)
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
_CHUNK_ELEMS = 1 << 16         # max complex grid entries evaluated at once
_GRID_ETA = 32 * 2.0 ** -53    # grid points lie within (eta/2) rho of exact

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
    # what the kernel did (rows settled by each path of the direct kernel
    # and rows open at the cap, or per stream of the sup ladder); run
    # diagnostics for the CLI sidecar, never part of the record
    kernel: dict = field(default_factory=dict, compare=False)

    def to_record(self) -> dict:
        """Deterministic record (runtime excluded; see CLI sidecar)."""
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
            **self.metadata,
        }


def wilson_interval(hits: int, trials: int, confidence: float) -> Tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= hits <= trials):
        raise ValueError(f"hits must lie in [0, trials={trials}], got {hits}")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    z = float(ndtri(0.5 + confidence / 2.0))
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
    """The K-point circle grid rho e^{2 pi i j / K}, each point within
    (_GRID_ETA / 2) rho of the exact one."""
    theta = np.arange(K) * (2.0 * np.pi / K)
    return rho * (np.cos(theta) + 1j * np.sin(theta))


def _ladder_levels(K_init: int, K_cap: int) -> list:
    """Grid sizes both ladders visit: K_init, doubling, up to >= K_cap."""
    Ks = [int(K_init)]
    while Ks[-1] < K_cap:
        Ks.append(2 * Ks[-1])
    return Ks


def _row_slices(B: int, K: int) -> list:
    """Slices of at most _CHUNK_ELEMS // K rows (at least one) covering B."""
    step = max(1, _CHUNK_ELEMS // K)
    return [slice(lo, lo + step) for lo in range(0, B, step)]


def _grid_chunks(C: np.ndarray, z: np.ndarray):
    """Yield (rows, points, values) over cache-sized chunks of the grid.

    Whole rows per chunk while the points fit in _CHUNK_ELEMS, slices of
    the points of one row above that.  Horner is elementwise, so the
    values do not depend on the chunking.
    """
    pts = min(z.shape[0], _CHUNK_ELEMS)
    for rows in _row_slices(C.shape[0], z.shape[0]):
        for p in range(0, z.shape[0], pts):
            yield rows, slice(p, p + pts), evaluate_on_grid(C[rows], z[p:p + pts])


def _grid_max(C: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Max of |F| over the points z for each row, in cache-sized chunks.

    max is exact, so the result does not depend on the chunking; a NaN
    value makes the row's max NaN, as a single full-width evaluation would.
    """
    gmax = np.full(C.shape[0], -np.inf)
    for rows, _, V in _grid_chunks(C, z):
        gmax[rows] = np.maximum(gmax[rows], np.abs(V).max(axis=1))
    return gmax


def _grid_values(C: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Values of each row at the points z -> (rows, K), in cache-sized chunks."""
    V = np.empty((C.shape[0], z.shape[0]), dtype=complex)
    for rows, pts, W in _grid_chunks(C, z):
        V[rows, pts] = W
    return V


def _segment_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """dist(0, [a, b]) elementwise, to within a few u max(|a|, |b|).

    When the foot of the perpendicular from 0 falls strictly inside the
    segment (Re(conj(a) d) < 0 < Re(conj(b) d), d = b - a), the distance
    is |Im(conj(a) d)| / |d|; otherwise it is min(|a|, |b|), which also
    covers a = b.  A NaN endpoint gives NaN.
    """
    d = b - a
    inside = ((a.real * d.real + a.imag * d.imag < 0.0)
              & (b.real * d.real + b.imag * d.imag > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        perp = np.abs(a.real * d.imag - a.imag * d.real) / np.abs(d)
    return np.where(inside, perp, np.minimum(np.abs(a), np.abs(b)))


def _arc_bounds(V: np.ndarray):
    """(grid min of |V|, min over arcs of dist(0, [V_j, V_{j+1}])) per row.

    The arcs are cyclic: the last one joins V_{K-1} to V_0.  Row chunks
    bound the temporaries; min is exact, so chunking changes nothing.
    """
    gmin, segmin = np.empty(V.shape[0]), np.empty(V.shape[0])
    for rows in _row_slices(*V.shape):
        a = V[rows]
        gmin[rows] = np.abs(a).min(axis=1)
        segmin[rows] = _segment_dist(a, np.roll(a, -1, axis=1)).min(axis=1)
    return gmin, segmin


def _winding(V: np.ndarray) -> np.ndarray:
    """Winding number of the closed polygon through each row of V.

    Each step adds the principal argument of V_{j+1} / V_j; that is the
    argument swept along the segment whenever the segment misses 0.  The
    caller certifies the rows, so no value is zero or NaN.
    """
    wind = np.empty(V.shape[0], dtype=np.int64)
    for rows in _row_slices(*V.shape):
        a = V[rows]
        turns = np.sum(np.angle(np.roll(a, -1, axis=1) / a), axis=1) / (2.0 * np.pi)
        wind[rows] = np.rint(turns).astype(np.int64)
    return wind


def _circle_bounds(C: np.ndarray, rho: float, shift: int = 0):
    """(g, scale, D, D_2, E) of T = z^shift * F on the rho-circle per row.

    scale = rho^shift, D = sum n |c_n| rho^{n-1} >= sup |T'| and D_2 =
    sum n^2 |c_n| rho^n >= sup |d^2 T / d theta^2|, both over the indices
    n of T; E = scale g sum |c_n| (rho (1 + eta))^n + D eta rho bounds the
    distance of a computed grid value from the exact value at the exact
    grid point, and g = _rounding_gamma(columns of C) (module docstring).
    """
    n1 = C.shape[1]
    n = np.arange(shift, shift + n1, dtype=np.float64)
    A = np.abs(C)
    scale = rho ** shift
    g = _rounding_gamma(n1)
    D = np.sum(A * (n * rho ** (n - 1.0)), axis=1)
    D2 = np.sum(A * (n * n * rho ** n), axis=1)
    horner_abs = np.sum(A * (rho * (1.0 + _GRID_ETA)) ** np.arange(n1), axis=1)
    E = (scale * g) * horner_abs + D * (_GRID_ETA * rho)
    return g, scale, D, D2, E


def _certify_rows(C: np.ndarray, rho: float,
                  K_init: int = K_INIT_DEFAULT,
                  K_cap: int = K_CAP_DEFAULT,
                  tail: float = -np.inf,
                  zero_first: bool = False):
    """Joint min-modulus / winding ladder over coefficient rows.

    Returns a dict of arrays over rows:
      mm_lb      best certified lower bound for min |F| on the circle
      mm_gm      grid minimum at the level of that bound
      mm_K       grid size at that level
      wind       certified winding number (valid where wind_ok)
      wind_ok    whether the winding certificate fired by K_cap
      wind_K     grid size at the winding certificate level (0 if none)
      hopeless   grid minimum fell to or below the tail bound
      zero_first row left the ladder with a zero-first certificate
      tube       row settled where the first-order certificate alone
                 (lb_1 > tail and the step condition) does not hold
      settle_K   grid size at which the row left the ladder (0 if open)

    At grid size K, with gmin the grid minimum of |V| (V the computed
    values), segmin the minimum over arcs of dist(0, [V_j, V_{j+1}]),
    t = D pi rho / K, h = 2 pi / K and D_2, E as in _circle_bounds,

        lb_1 = gmin - (1 + g)(t + E),
        lb_2 = (1 - g) segmin - (1 + g)((h^2/8) D_2 + E),
        lb   = max(lb_1, lb_2).

    Each is a lower bound for min |F_N| on the circle (module docstring);
    the last subtraction rounds monotonically, so lb > t for a float t
    means the exact bound exceeds t.  The winding certificate fires once
    lb_2 > 0 (tube: F stays within (h^2/8) D_2 + E of the polygon through
    V, which misses 0) or the step condition 2 (1 + g)(t + E) < gmin holds.
    Either way the winding of the polygon through V is that of F, and it is
    computed from the kept V.

    One stop rule: a row exits once decided against the tail bound (lb
    above it with a certified winding) or hopeless (gmin at or below it,
    which refining can only confirm, since grid minima decrease toward the
    true minimum).  While a row is open, its best lb keeps rising.  The
    scalar operations use tail = -inf, so a row refines until its winding
    certificate fires.  With zero_first (direct estimator) the rows open at
    the first level K >= min(_ZERO_FIRST_K, K_cap) first get one zero-first
    test (module docstring); rows that pass leave with no winding number.

    The grids are nested (module docstring): each doubling evaluates only
    the K new odd points of the open rows and interleaves them with the
    kept values of the previous level, bit for bit the full grid.  Above
    _CHUNK_ELEMS points open rows climb one at a time, so the kept values
    never exceed one row at the cap; per-row results do not change.
    """
    B = C.shape[0]
    g, _, D, D2, E = _circle_bounds(C, rho)
    mm_lb = np.full(B, -np.inf)
    mm_gm = np.zeros(B)
    mm_K, wind, wind_K, settle_K = np.zeros((4, B), dtype=np.int64)
    wind_ok, hopeless, zf, tube = np.zeros((4, B), dtype=bool)
    Ks = _ladder_levels(K_init, K_cap)
    zf_K = min(K for K in Ks if K >= min(_ZERO_FIRST_K, K_cap)) if zero_first else 0
    grids = {}   # grid points by size, shared by rows that climb alone
    # (open rows, their kept grid values, index of their next level)
    groups = [(np.arange(B), np.empty((B, 0), dtype=complex), 0)]
    while groups:
        active, V, j0 = groups.pop()
        for j, K in enumerate(Ks[j0:], j0):
            if K > _CHUNK_ELEMS and active.size > 1:
                groups += [(active[i:i + 1], V[i:i + 1], j)
                           for i in range(active.size)]
                break
            if K == zf_K:
                passed = _zero_certified(C[active], rho, tail)
                zf[active[passed]] = True
                settle_K[active[passed]] = K
                active, V = active[~passed], V[~passed]
            if not active.size:
                break
            if K not in grids:
                grids[K] = _grid_points(rho, K)
            z = grids[K]
            if V.shape[1]:
                new = _grid_values(C[active], z[1::2])
                V = np.stack([V, new], axis=2).reshape(active.size, K)
            else:
                V = _grid_values(C[active], z)
            gmin, segmin = _arc_bounds(V)
            Ea = E[active]
            t1 = (1.0 + g) * (D[active] * (np.pi * rho / K) + Ea)
            lb1 = gmin - t1
            t2 = (1.0 + g) * (D2[active] * (0.5 * (np.pi / K) ** 2) + Ea)
            lb2 = (1.0 - g) * segmin - t2
            lb = np.maximum(lb1, lb2)
            better = lb > mm_lb[active]
            rows = active[better]
            mm_lb[rows] = lb[better]
            mm_gm[rows] = gmin[better]
            mm_K[rows] = K
            step = 2.0 * t1 < gmin
            can = ~wind_ok[active] & (step | (lb2 > 0.0))
            rows = active[can]
            wind[rows] = _winding(V[can])
            wind_ok[rows] = True
            wind_K[rows] = K
            done = wind_ok[active] & (mm_lb[active] > tail)
            tube[active[done & ~((lb1 > tail) & step)]] = True
            if K >= K_cap:
                settle_K[active[done]] = K
                break
            hp = gmin <= tail
            hopeless[active[hp]] = True
            out = hp | done
            settle_K[active[out]] = K
            active, V = active[~out], V[~out]
    return {
        "mm_lb": mm_lb, "mm_gm": mm_gm, "mm_K": mm_K,
        "wind": wind, "wind_ok": wind_ok, "wind_K": wind_K,
        "hopeless": hopeless, "zero_first": zf,
        "tube": tube, "settle_K": settle_K,
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


def min_modulus_certified(sample: GafSample, rho: float,
                          K_init: int = K_INIT_DEFAULT,
                          K_cap: int = K_CAP_DEFAULT) -> Tuple[float, float, int]:
    """Certified lower bound for min |F| on the rho-circle.

    Returns (lower_bound, grid_min, K_used): the best bound of the levels
    visited, the grid minimum and the grid size at that level.  The grid
    doubles from K_init until the winding certificate fires or the cap is
    reached.  When the step condition fires the bound exceeds half the grid
    minimum; when the tube condition fires first the bound is positive,
    with no such ratio.  It may be <= 0 for samples nearly vanishing on
    the circle.
    """
    _check_ladder_args(rho, K_init, K_cap)
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
    _check_ladder_args(rho, K_init, K_cap)
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
    disk, and the winding number decides between hole and zeros.  The
    ladder runs to K_cap; a sample still open there is Inconclusive.
    """
    _check_ladder_args(r, K_init, K_cap)
    res = _certify_rows(sample.coeffs[None, :], r, K_init, K_cap,
                        tail=float(tail_bound))
    margin = float(res["mm_lb"][0]) - tail_bound
    K_used = int(max(res["mm_K"][0], res["wind_K"][0]))
    if margin > 0.0 and bool(res["wind_ok"][0]):
        w = int(res["wind"][0])
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

def _check_ladder_args(r: float, K_init: int, K_cap: int):
    if not (0.0 < r < 1.0):
        raise InvalidRadius(f"r must lie in (0, 1), got {r}")
    if K_init < 1:
        raise DomainError(f"K_init must be >= 1, got {K_init}")
    if K_cap < 1:
        raise DomainError(f"K_cap must be >= 1, got {K_cap}")


def _check_estimator_args(r: float, trials: int, confidence: float,
                          K_init: int, K_cap: int, workers: int):
    _check_ladder_args(r, K_init, K_cap)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not (0.0 < confidence < 1.0):
        raise DomainError(f"confidence must lie in (0, 1), got {confidence}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")


def _check_budget(trials: int, N_t: int, budget: float):
    cost = float(trials) * float(N_t)
    if not (cost <= budget):  # a NaN budget rejects, never disables
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
    trial index) and runs the certified decision: the ladder to K_cap with
    the zero-first stage; rows still open at the cap are Inconclusive.
    Inconclusive trials widen the Wilson interval pessimistically: they
    count as hits for p_high and as misses for p_low.  kernel counts the
    rows of each path (zero_first + uniform_ladder + inconclusive = trials)
    and those open at the cap (open_at_cap, the trials not in settle_K).
    """
    _check_estimator_args(r, trials, confidence, K_init, K_cap, workers)
    N_t = truncation_degree(model, r, tau_rel)
    _check_budget(trials, N_t, budget)
    tail, log_fail = tail_sup_bound(model, N_t, r, fail_exp)

    def worker(lo: int, hi: int):
        C = sample_coeff_batch(model, seed, np.arange(lo, hi, dtype=np.uint64), N_t)
        res = _certify_rows(C, r, K_init, K_cap, tail=tail, zero_first=True)
        zf = res["zero_first"]
        ok = (res["mm_lb"] - tail > 0.0) & res["wind_ok"]
        hole = ok & (res["wind"] == 0)
        zero = (ok & (res["wind"] >= 1)) | zf
        inc = ~(hole | zero)
        by_ladder = (hole | zero) & ~zf
        settled = [int(np.sum(res["settle_K"] == K)) for K in levels]
        return (int(hole.sum()), int(zero.sum()), int(inc.sum()),
                int(zf.sum()), int(by_ladder.sum()),
                int(np.sum(res["settle_K"] == 0)),
                int((by_ladder & res["tube"]).sum()), *settled)

    levels = _ladder_levels(K_init, K_cap)
    (holes_n, zeros_n, inc_n, zf_n, ladder_n, open_n, tube_n,
     *settled) = _batched_counts(trials, workers, worker)
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
                "open_at_cap": open_n, "inconclusive": int(inc_n),
                "tube": tube_n,
                "settle_K": {K: n for K, n in zip(levels, settled) if n}})


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
        if 1.0 - L + 2.0 * eps < 0.0:
            raise DomainError(
                f"eps must be >= (L - 1)/2 = {(L - 1.0) / 2.0} at L < 1, got {eps}")
        return math.sqrt(1.0 - L + 2.0 * eps) * (1.0 - r * r) ** (-L / 2.0) \
            * math.sqrt(math.log(1.0 / delta))
    if L == 1.0:
        return B * math.sqrt(1.0 / delta)
    return delta ** -0.5 * math.log(1.0 / delta) ** alpha_exp


def _sup_counts(C: np.ndarray, rho: float, M: float, tail: float,
                K_init: int, K_cap: int, shift: int = 0):
    """Count rows of T = z^shift * F, F the polynomial of a row of C, whose
    certified sup over the rho-circle plus tail is below M.

    At grid size K, with gmax the computed grid max of |F|, a row is a hit
    when

        (1 + g) [scale gmax + min(D pi rho / K, (h^2/8) D_2) + E] + tail < M,

    h = 2 pi / K, scale = rho^shift = |z^shift| on the circle,
    D = sum n |c_n| rho^{n-1} >= sup |T'| and D_2 = sum n^2 |c_n| rho^n >=
    sup |d^2 T / d theta^2|, both over the indices n of T.  The min is the
    first-order and the second-order (Peano kernel) bound on how far |T|
    rises between grid points (module docstring).  E = scale g sum |c_n|
    (rho (1 + eta))^n + D eta rho covers the Horner error of the grid values
    and the distance of the computed grid points from the circle grid.
    g = _rounding_gamma(columns of C) also covers, through the factor
    1 + g, the rounding of D, D_2, E, scale and the bound itself, and the
    strict < keeps the last rounding, the sum with tail, from turning a
    bound above M into a hit.

    The ladder refines while neither the hit test nor 'scale gmax > M'
    (definite miss: the grid max is a lower bound for the sup) holds; rows
    still open at K_cap count as inconclusive.  Only hits enter a lower
    bound, so the miss test carries no rounding term.

    The grids are nested (module docstring); a NaN row runs to the cap
    and ends inconclusive.

    Returns (hit, miss, inconclusive, tube hits, grid points evaluated,
    *settled): tube hits are the hits whose bound with the first-order term
    in place of the min is not below M, and settled[j] the rows decided at
    grid size _ladder_levels(...)[j].
    """
    B = C.shape[0]
    g, scale, D, D2, E = _circle_bounds(C, rho, shift)
    Ks = _ladder_levels(K_init, K_cap)
    settled = [0] * len(Ks)
    hits = misses = tube_hits = 0
    active = np.arange(B)
    gmax = _grid_max(C, _grid_points(rho, Ks[0]))
    points = B * Ks[0]
    for j, K in enumerate(Ks):
        if j:
            z_new = _grid_points(rho, K)[1::2]
            gmax = np.maximum(gmax, _grid_max(C[active], z_new))
            points += active.size * z_new.size
        smax = scale * gmax
        first = D[active] * (np.pi * rho / K)
        tube = D2[active] * (0.5 * (np.pi / K) ** 2)
        Ea = E[active]
        h = (1.0 + g) * (smax + np.minimum(first, tube) + Ea) + tail < M
        m = smax > M
        hits += int(h.sum())
        misses += int((m & ~h).sum())
        tube_hits += int((h & ~((1.0 + g) * (smax + first + Ea) + tail < M)).sum())
        keep = ~(h | m)
        settled[j] = int(active.size - keep.sum())
        active = active[keep]
        gmax = gmax[keep]
        if not active.size:
            break
    return (hits, misses, B - hits - misses, tube_hits, points, *settled)


def _sup_kernel(counts, K_init: int, K_cap: int) -> dict:
    """Sidecar counters of one sup-ladder stream from summed _sup_counts."""
    hits, misses, inc, tube_hits, points, *settled = counts
    return {"hit": hits, "miss": misses, "inconclusive": inc,
            "tube_hits": tube_hits, "grid_points": points,
            "settle_K": {K: n for K, n in zip(_ladder_levels(K_init, K_cap),
                                              settled) if n}}


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
               =  e^{-M^2/a_0^2} * q,
    with q estimated by Monte Carlo on certified sup bounds (grid max +
    variation bound + tail bound); the first factor is 0 when a_0 = 0.
    p_high is 1: this mode only certifies a lower bound.  eps, B and
    alpha_exp feed the default threshold and are ignored when M is given.
    """
    _check_estimator_args(r, trials, confidence, K_init, K_cap, workers)
    if M is None:
        if model.kind in ("Hyperbolic", "PowerLaw"):
            M = default_threshold(model.L, r, eps=eps, B=B,
                                  alpha_exp=alpha_exp)
        else:
            M = default_threshold(1.0, r, eps=eps, B=B, alpha_exp=alpha_exp)
    if not (0.0 < M < math.inf):
        raise DomainError(f"threshold M must be positive and finite, got {M}")
    N_t = truncation_degree(model, r, tau_rel)
    _check_budget(trials, N_t, budget)
    tail, log_fail = tail_sup_bound(model, N_t, r, fail_exp)

    def worker(lo: int, hi: int):
        C = sample_coeff_batch(model, seed, np.arange(lo, hi, dtype=np.uint64), N_t)
        C[:, 0] = 0.0  # G = F - F(0)
        return _sup_counts(C, r, M, tail, K_init, K_cap)

    counts = _batched_counts(trials, workers, worker)
    hits, _, inc = counts[:3]
    q_low = wilson_interval(hits, trials, confidence)[0]
    a0 = coefficient(model, 0)
    p_low = (math.exp(-M * M / (a0 * a0)) if a0 > 0.0 else 0.0) * q_low
    return HoleEstimate(
        model=model, r=float(r), mode=MODE_THRESHOLD, trials=int(trials),
        hits=int(hits), inconclusive=int(inc),
        p_low=p_low, p_high=1.0, confidence=float(confidence), M=float(M),
        seed=int(seed),
        metadata={
            "fail_exp": fail_exp, "tau_rel": tau_rel, "N_t": N_t,
            "tail_bound": tail, "q_low": q_low,
            "certificate_failure_budget": trials * math.exp(log_fail),
        },
        kernel={"sup": _sup_kernel(counts, K_init, K_cap)})


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
    elif not (0.0 < alpha1 <= cap * (1.0 + 1e-12)):
        raise TiltOutOfRange(
            f"alpha1 must lie in (0, {cap:.6g}], the admissible cap, got "
            f"{alpha1} (q_n must stay in (0, 1])")
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
    _check_estimator_args(r, trials, confidence, K_init, K_cap, workers)
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
        zetas = rng.gaussian_rows(seed, np.arange(lo, hi),
                                  rng.PURPOSE_TILT_MIDDLE, 1, N + 1)
        C = np.zeros((hi - lo, N + 1), dtype=complex)
        C[:, 1:] = zetas * (q * a[1:N + 1])[None, :]
        return _sup_counts(C, r, half, 0.0, K_init, K_cap)

    def worker_tail(lo: int, hi: int):
        zetas = rng.gaussian_rows(seed, np.arange(lo, hi),
                                  rng.PURPOSE_TILT_TAIL, N + 1, N_t + 1)
        inner = zetas * a[N + 1:N_t + 1][None, :]
        # T(z) = z^{N+1} * inner(z), evaluated as inner on the circle
        return _sup_counts(inner, r, half, tail_beyond, K_init, K_cap,
                           shift=N + 1)

    mid_counts = _batched_counts(trials, workers, worker_mid)
    tail_counts = _batched_counts(trials, workers, worker_tail)
    mid_hits, _, mid_inc = mid_counts[:3]
    tail_hits, _, tail_inc = tail_counts[:3]
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
        },
        kernel={"middle": _sup_kernel(mid_counts, K_init, K_cap),
                "tail": _sup_kernel(tail_counts, K_init, K_cap)})


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
