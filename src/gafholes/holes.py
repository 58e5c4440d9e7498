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

Both certificates, this one and the sup bound of the lower bounds, run one
ladder (_climb) over the grid sizes K_INIT = 8, 16, 32, ... on nested grids:
the even points of the 2K-point grid are the K-point grid bit for bit
(fl(2 pi / (2K)) = fl(2 pi / K) / 2 and (2j) (y / 2) = j y exactly), so
each doubling evaluates only the K new odd points.  The sup certificate
folds their maximum |F| into the previous level's (max is exact); the
min/winding one interleaves them with the kept values of its open rows,
so it holds the whole grid.  A NaN propagates the same way.  At each level
the certificate's decision says which rows leave.  The ladder stops at its
first level at or above the cap (8 2^k >= K_cap), in every operation and
estimator: a row still open there is Inconclusive.

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
modulus and at least the distance from 0 to the segment.  Each computed
value lies within E of the exact value at its exact grid point, E from the
evaluator of its level (below), and the ladder uses the largest E of the
levels whose values a row holds.  A segment between computed values then
lies within E of the exact one, so the sup certificate adds E and the min
one subtracts it, each under a factor 1 + g for the rounding of the bounds.

g = gamma_{8(N+2)} for degree N (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed.: gamma_k in 3.1, complex products within
sqrt(2) gamma_2 in 3.6, or 2u with a fused multiply-add by Jeannerod et
al., Math. Comp. 2017), eta = 32 u, and a level is the K values of a row or
the K/2 odd ones of a doubling, computed by one of two evaluators:

  * Horner at the computed grid points: E = g sum |c_n| (rho (1 + eta))^n
    + D eta rho, the Horner error (gamma_{4N}, Higham 5.1) and the point
    error: a computed point lies within (eta/2) rho of the exact one (10.5 u
    rho in samples of grids up to 2^20 points), and the factor 2 also covers
    D at the radius rho (1 + eta/2) of the segment between them (N < 10^14).
  * A radix-2 FFT on levels of P = 2^t points with N >= 2t + _FFT_MIN_DEGREE
    (the measured Horner crossover).  With w = e^{2 pi i / K}, b_n = c_n
    rho^n and y_j = sum_k x_k e^{2 pi i jk / P}, F(rho w^j) is y_j for x =
    b folded mod P (x_k = sum of b_n over n = k mod P), and F(rho w^{2j+1})
    is y_j for x = (b_n w^n) folded mod P, P = K/2.  There w^{k + jP} =
    (-1)^j w^k, so x_k = w^k sum_j (-1)^j b_{k + jP}: b folded with
    alternating signs, then twisted once per folded value.  The powers
    rho^n by repeated products (within gamma_N), one product per b_n
    (within u), the fold in fixed order (ceil((N + 1)/P) signed terms per
    value, within gamma_{N+1}) and on odd levels the twist by a unit grid
    point (within eta/2 of w^k, the complex product within sqrt(2)
    gamma_2) put the computed x within (2N + 21) u sum |c_n| rho^n of x in
    the 1-norm.  For the DFT of the computed x, Higham's Theorem 24.2 bounds
    a Cooley-Tukey radix-2 FFT with twiddles within mu of exact: ||y^ - y||_2
    <= t eta' / (1 - t eta') ||y||_2, eta' = mu + gamma_4 (sqrt 2 + mu).
    Its proof bounds each butterfly stage (a + w b, a - w b) in the 2-norm,
    and the Stockham (autosort) order only permutes data between stages, so
    it holds here, with mu = eta/2 (the twiddles are unit grid points).
    A value's error is at most ||y^ - y||_2, and ||y||_2 = sqrt(P) ||x||_2, so

        E = g sum |c_n| (rho (1 + eta))^n
            + (1 + g) t eta' / (1 - t eta') sqrt(P) ||x||_2,

    with the computed ||x||_2 raised by 1 + 2 gamma_{P+2} for its rounding
    (2P squares, their sum and a root) and 1 + g for that of the constants.
    The values are at the exact points: no point error.

The slack of g over gamma_{4N} (Horner) or (2N + 21) u (FFT input, N >= 12
there), at least 16 u sum |c_n| (rho (1 + eta))^n, covers the rounding of
|V_j| and of the segment distances (a few u max |V_j|).  For T = z^s F
(the tilted tail stream) both evaluate F, and E is scaled by rho^s.

The winding certificate fires on either of two conditions.  Tube: if
dist(0, [V_j, V_{j+1}]) > (h^2/8) D_2 + E on every arc, then |F - P| <
|P| on the circle for the polygon P through the V_j (parametrized linearly
on each arc), so F and P have the same winding, and P has no zero on the
circle.  Step: if D 2 pi rho / K + 2E < min_j |V_j|, then the disk of
radius D rho h + 2E around each V_j excludes 0 and holds the exact values
on its arc and V_{j+1}.  Either way each segment [V_j, V_{j+1}] misses 0,
so the principal arguments of V_{j+1} / V_j sum to 2 pi times the winding
of F.  The direct estimator and the scalar operations share this ladder,
so every ZeroCertified row decided on the r-circle carries its exact zero
count; a direct row settled on the inner circle (below) carries a lower
bound.

Estimators (all Monte Carlo over independent per-trial streams):

  * direct: certify each trial sample; Wilson interval on the hit rate,
    inconclusive trials widen it pessimistically.  A screen draws only
    coefficient moduli (a cap prefix of each row first, below) and settles
    as a hole with no grid every row whose constant term dominates the rest
    of the series (_constant_term_holes).  For |z| <= rho, |F_N(z)| >=
    |c_0| - sum_{n>=1} |c_n| rho^n >= lb_0, with lb_0 = (1 - g) |c_0| -
    (1 + g) sum_{n>=1} |c_n| (rho (1 + eta))^n as computed.  The tail bound
    bounds |F - F_N| on the circle, so on the disk too (maximum principle),
    and lb_0 above it leaves F no zero in the disk.  Each computed weight
    is at least rho^n; g (as above) covers the one rounding of each |c_n|,
    the products, the pairwise sum and the two scalings; and the last
    subtraction rounds monotonically.  Moduli are all it reads, so it holds
    for any phases: a screened row's sample has moduli fl(sqrt(-log u1))
    a_n and its own undrawn phases, and g covers the rounding of that
    product in place of that of abs.  The screen writes its weighted terms
    over its moduli rows.  A second step (_quadratic_zeros) settles rows
    the constant term leaves by Rouche against their quadratic part.  It
    draws c_0, c_1 and c_2 in full (sample_coeff_batch at degree 2 gives the
    first three columns of the row bit for bit) and takes the computed
    roots z_1, z_2 of c_0 + c_1 z + c_2 z^2 as exact numbers.  With Q(z) =
    c_2 (z - z_1)(z - z_2), F_N - Q = e_0 + e_1 z + sum_{n>=3} c_n z^n with
    e_1 = c_1 + c_2 (z_1 + z_2) and e_0 = c_0 - c_2 z_1 z_2, so on the
    circle |F_N - Q| <= |e_1| rho + |e_0| + sum_{n>=3} |c_n| rho^n and |Q|
    >= |c_2| ||z_1| - rho| ||z_2| - rho|.  When the second bound exceeds the
    first plus the tail bound, F has no zero on the circle and, by Rouche,
    as many zeros in the disk as Q: #{i : |z_i| < rho}.  0 is a hole, 1 or
    2 is ZeroCertified with that count.  Poor roots only inflate e_0 and
    e_1, so the bound holds however inaccurate they are.  As computed:
    each ||z_i| - rho| is lowered by g |z_i|, which covers the rounding of
    |z_i| (a hypot, within an ulp), and must stay positive, so the side of
    rho on which z_i lies is certain; each |e_k| is raised by g times the
    sum of the moduli of its terms (|c_1| + |c_2| (|z_1| + |z_2|) and |c_0|
    + |c_2| |z_1| |z_2|), which covers a few complex roundings; the sum
    over n >= 3 is that of the screen's weighted moduli; the product side
    is scaled by 1 - g, the sum side by 1 + g, and the last subtraction
    rounds monotonically, as for the constant term.  A NaN or c_2 = 0
    leaves a row open, and so does N_t < 2.  The other rows, pooled in
    trial order into chunks of at most BATCH_TRIALS, are drawn in full.
    Near r = 1 the
    r-disk of a typical sample holds many zeros, and the ladder climbs
    highest on the r-circle, where |F| comes closest to 0, so each chunk
    first runs an inner-circle zero pass: the ladder at a radius r_in < r
    with the tail bound at r, where a row whose certified minimum clears
    that tail with winding w >= 1 is ZeroCertified.  By the maximum
    principle the tail bound at r bounds |F - F_N| on the whole r-disk, so
    also on the r_in-circle; Rouche then gives w zeros of F in the
    r_in-disk, so F is no hole at r.  It fails only on the tail event the
    estimator already budgets, and w is only a lower bound on the zeros of
    the r-disk.  The rule (_inner_radius): with E N(rho) = sum n a_n^2
    rho^{2n} / sum a_n^2 rho^{2n}, the expected zero count of the rho-disk
    (Edelman and Kostlan, Bull. AMS 1995), over the truncated coefficients,
    m = min(2, E N(r) / 2); no pass when m < 1 (E N(r) < 2), else E
    N(r_in) = m (Hyperbolic(L): r_in = sqrt(m / (L + m))).  The other rows
    climb the ladder at r;
  * threshold lower bound: P[Hole] >= e^{-M^2/a_0^2} * P[sup |F - F(0)| <= M]
    (the constant term a_0 zeta_0 exceeds M with probability exactly
    e^{-M^2/a_0^2}, 0 when a_0 = 0, and the rest then cannot reach back
    to zero);
  * tilted lower bound: the same threshold idea after damping coefficients
    1..N by factors q_n in (0, 1], which costs an explicit Gaussian
    change-of-measure factor Q^2 = prod q_n^2 but makes the supremum event
    overwhelmingly likely near the critical radius.  Both lower bounds run
    one stream runner (_sup_stream); threshold is its q = 1 case.  Its
    screen settles as a hit every row of T = z^s F with (1 + g) rho^s sum
    |c_n| (rho (1 + eta))^n + tail < M (_sup_screen), as |T| <= rho^s sum
    |c_n| rho^n on the circle.  It reads moduli only (a cap prefix of
    each row first, below), so it holds for any phases; g and the strict <
    cover the roundings as for the constant term and in _sup_counts.

Cap prefixes.  Both screens test a sum S of weighted moduli x_n =
fl(fl(m_n v_n) w_n), m_n = fl(sqrt(-log u_1)) the Box-Muller modulus, v_n
the stream's weight of column n (a_n, or its w) and w_n = (rho (1 +
eta))^n, and each test is monotone in S as computed (the constant term
subtracts the sum over n >= 1).  Every m_n is at most rng.MODULUS_CAP =
cap (rng module docstring), so a screen draws the first k columns of each
row first.  With W_n = fl(v_n w_n), rem = cap sum_{n>=k} W_n and S_k the
sum of the first k terms, all computed, each undrawn x_n is at most cap W_n
(1 + gamma_3), and sums of n1 non-negative terms lie within gamma_{n1} of
their exact values; so S <= (S_k + rem)(1 + gamma_{2 n1 + 8}) and S >= S_k
(1 - gamma_{2 n1}).  g = gamma_{8(n1+1)} covers both factors and the
roundings of the products by 1 +- g.  Hence a row that passes the test at
(S_k + rem)(1 + g) passes it at S and is settled; a lower-bound row that
fails it at S_k (1 - g) fails it at S and goes to the ladder; only the
other rows draw their other columns and take the test on the whole row.
So every screen settles the rows it would settle on whole rows, a NaN in
a column it reads leaves the row to the ladder, and no screen draws more
moduli.  k depends only on the weights W and the slack s: s = a_0 for the
direct screen and (M - tail)/((1 + g) rho^shift) for a lower-bound stream.
k = 0 when cap sum W < s, for a lower bound: every row passes on the cap
bound alone and the stream draws nothing (the tilted tail stream at L = 2,
r = 0.9: 0.034 against M/2 = 2.96).  Otherwise k is the fewest columns
whose cap remainder is at most s/8 and, for a lower bound, at most the
fewest whose expected sum (sqrt(pi)/2) sum_{n<k} W_n reaches 2s
(E|zeta| = sqrt(pi)/2), past which most rows fail on the prefix alone.
That is 4 of 16 columns for direct L=1, r=0.3, 81 of 193 for direct
L=2, r=0.9, and 27 of the 92 drawn columns of the tilted middle stream
at L=2, r=0.9.

One runner, _screened_counts, draws the rows of every stream (the direct
one and each lower-bound stream) for both stages: the moduli of each span
of max(BATCH_TRIALS, _SCREEN_DRAWS // width) trials for the screen, so
that a narrow row pays its per-call costs once per about 2^17 moduli (the
cap prefix of every row, then the other columns of the rows it leaves),
then the full rows of the trials the screen leaves, in ladder chunks of
BATCH_TRIALS rows.  Both stages run through _pool_map, which draws each
span or chunk into one row buffer per worker thread, overwritten wherever
it is read.
Everything is elementwise per trial row, so buffers, span and chunk
composition and thread scheduling never change results; merged counters
are plain integer sums.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import rng
from .coeffs import CoefficientModel, coefficients, log_sq_range
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
    sample_coeff_batch,
    tail_sup_bound,
    truncation_degree,
)

K_INIT = 8   # the first level of every ladder, so every level is 8 2^k
K_CAP_DEFAULT = 1 << 20
# fixed batch widths (part of the determinism contract): the rows of a ladder
# chunk, and the fewest trials of a screen span
BATCH_TRIALS = 2048
_SCREEN_DRAWS = 1 << 17        # a screen span draws about this many moduli
DEFAULT_COMPUTE_BUDGET = 1e11  # cap on trials * N_t
_CHUNK_ELEMS = 1 << 16         # max complex grid entries evaluated at once
_ARC_ELEMS = 1 << 14           # max grid values per segment-distance chunk
_GRID_ETA = 32 * 2.0 ** -53    # grid points lie within (eta/2) rho of exact
# Horner crossover: a level of P = 2^t points runs on the FFT when the degree
# is at least 2 t + _FFT_MIN_DEGREE (measured: Horner costs about N P, the
# FFT about P t plus overheads)
_FFT_MIN_DEGREE = 12
# the direct inner-circle pass holds E N(r_in) = min(_INNER_ZEROS, E N(r)/2)
# zeros on average.  Measured, the ladder stage per 128-row seed: L=2, r=0.9
# 31 -> 11 ms (r_in 0.707); L=3, r=0.8 37 -> 15 ms; L=1, r=0.9 113 -> 50 ms;
# L=0.5, r=0.9 62 -> 47 ms; L=1, r=0.95 101 -> 24 ms; L=2, r=0.97 54 -> 10
# ms.  A circle nearer r does not pay: at r_in = 0.85 (L=2, r=0.9) one row
# in 5120 climbed to the cap on the inner circle.  At most 2, so that
# _inner_radius' Newton steps converge.
_INNER_ZEROS = 2.0

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
    # what the kernel did (cli module docstring): sidecar diagnostics only
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


# ---------------------------------------------------------------------------
# certification kernel (shared by the scalar ops and the estimators)
# ---------------------------------------------------------------------------

def _grid_points(rho: float, K: int) -> np.ndarray:
    """The K-point circle grid rho e^{2 pi i j / K}, each point within
    (_GRID_ETA / 2) rho of the exact one."""
    theta = np.arange(K) * (2.0 * np.pi / K)
    return rho * (np.cos(theta) + 1j * np.sin(theta))


def _ladder_levels(K_cap: int) -> list:
    """Grid sizes the ladder visits: K_INIT, doubling, up to >= K_cap."""
    Ks = [K_INIT]
    while Ks[-1] < K_cap:
        Ks.append(2 * Ks[-1])
    return Ks


def _row_slices(B: int, K: int, elems: int) -> list:
    """Slices of at most elems // K rows (at least one) covering B."""
    step = max(1, elems // K)
    return [slice(lo, lo + step) for lo in range(0, B, step)]


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53."""
    ku = k * 2.0 ** -53
    return ku / (1.0 - ku)


def _fft_level(n_coeffs: int, P: int) -> bool:
    """Whether a level of P = 2^t points (every ladder level, or its odd
    half) of degree n_coeffs - 1 runs the FFT."""
    return n_coeffs - 1 >= 2 * (P.bit_length() - 1) + _FFT_MIN_DEGREE


def _fft(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """y_j = sum_k x_k w_1^{jk} over each column of x, by a radix-2 Stockham
    FFT.

    x has P = 2^t rows, one column per transform, and is overwritten; w is
    the unit P-point grid.  Stage s joins pairs of length-m transforms
    (m = 2^s) by the Cooley-Tukey butterfly (a + w b, a - w b) with
    w = e^{2 pi i k / 2m} = w_{k P / 2m}; the autosort layout only permutes
    data between the stages and leaves the output in natural order.  The
    points-major layout makes the batch, not m (1, 2, 4, ... in the early
    stages), the inner loop of every butterfly.  Each output goes through
    the same butterflies as in a row-major transform, so it is bit for bit
    the same, and so is the error bound.
    """
    P, R = x.shape
    src, dst = x, np.empty_like(x)
    t = np.empty((P // 2, R), dtype=complex)
    m = 1
    while m < P:
        l = P // (2 * m)
        X, T = src.reshape(2, l, m, R), t.reshape(l, m, R)
        Y = dst.reshape(l, 2, m, R)
        # stage 0's twiddle is w_0 = 1 + 0j, whose product is exact
        T = np.multiply(X[1], w[0:P // 2:l, None], out=T) if m > 1 else X[1]
        np.add(X[0], T, out=Y[:, 0])
        np.subtract(X[0], T, out=Y[:, 1])
        src, dst = dst, src
        m *= 2
    return src


def _fft_values(C: np.ndarray, rho: float, u: np.ndarray, odd: bool):
    """(values, FFT error) of each row of C at the K exact grid points
    rho e^{2 pi i j / K}, or their K/2 odd ones; u is the unit K-point grid.

    The FFT error is t eta' / (1 - t eta') sqrt(P) ||x||_2 (1 + 2
    gamma_{P+2}) for the folded input x of P points (module docstring).
    x is folded points-major, shape (P, rows), for _fft, on odd levels with
    alternating signs and then twisted once by u_k; the values come back as
    its (rows, P) transpose view.  ||x||_2 is summed over a
    row-major copy of the squares: a sum down the columns of x would run
    pairwise for one row and in sequence for several, so E would depend
    on the chunking.
    """
    (B, n1), K = C.shape, u.shape[0]
    P = K // 2 if odd else K
    pw = np.cumprod(np.concatenate([[1.0], np.full(n1 - 1, rho)]))[:, None]
    x = np.zeros((P, B), dtype=complex)
    np.multiply(C.T[:P], pw[:P], out=x[:min(P, n1)])
    for j, lo in enumerate(range(P, n1, P), 1):  # b = c_n rho^n by slices
        b = np.multiply(C.T[lo:lo + P], pw[lo:lo + P], order="C")
        if odd and j % 2:   # w_K^{k + jP} = (-1)^j w_K^k
            x[:b.shape[0]] -= b
        else:
            x[:b.shape[0]] += b
    if odd:
        x *= u[:P, None]
    sq = x.real * x.real + x.imag * x.imag
    nrm = np.sqrt(np.ascontiguousarray(sq.T).sum(axis=1))
    t = P.bit_length() - 1
    eta = 0.5 * _GRID_ETA + _gamma(4) * (math.sqrt(2.0) + 0.5 * _GRID_ETA)
    c = t * eta / (1.0 - t * eta) * math.sqrt(P) * (1.0 + 2.0 * _gamma(P + 2))
    return _fft(x, u[::2] if odd else u).T, c * nrm


def _grid_chunks(C: np.ndarray, rho: float, K: int, odd: bool, bounds, grids: dict):
    """Yield (rows, values, E) of the level K (its K/2 odd points when odd)
    over chunks of whole rows, at most _CHUNK_ELEMS values or one row.

    A level runs the FFT (_fft_level) or Horner.  bounds = (scale, g, Eg,
    Eh) of the rows (_circle_bounds): E is Eh on Horner, Eg + scale (1 + g)
    (FFT error) on the FFT.  Every operation is elementwise per row, so
    nothing depends on the chunking.
    """
    scale, g, Eg, Eh = bounds
    P = K // 2 if odd else K
    fft = _fft_level(C.shape[1], P)
    r = 1.0 if fft else rho
    if (r, K) not in grids:
        grids[r, K] = _grid_points(r, K)
    z = grids[r, K][1::2] if odd else grids[r, K]
    for rows in _row_slices(C.shape[0], P, _CHUNK_ELEMS):
        if fft:
            V, err = _fft_values(C[rows], rho, grids[r, K], odd)
            yield rows, V, Eg[rows] + (scale * (1.0 + g)) * err
        else:
            yield rows, evaluate_on_grid(C[rows], z), Eh[rows]


def _grid_max(C: np.ndarray, rho: float, K: int, odd: bool, bounds, grids: dict):
    """(max of |F| over the level's points, E) per row.  max is exact and
    keeps a NaN, so the result does not depend on the chunking."""
    gmax, E = np.full(C.shape[0], -np.inf), np.empty(C.shape[0])
    for rows, V, Ec in _grid_chunks(C, rho, K, odd, bounds, grids):
        gmax[rows] = np.maximum(gmax[rows], np.abs(V).max(axis=1))
        E[rows] = Ec
    return gmax, E


def _grid_values(C: np.ndarray, rho: float, K: int, odd: bool, bounds, grids: dict):
    """(values at the level's points -> (rows, points), E) per row."""
    P = K // 2 if odd else K
    V, E = np.empty((C.shape[0], P), dtype=complex), np.empty(C.shape[0])
    for rows, W, Ec in _grid_chunks(C, rho, K, odd, bounds, grids):
        V[rows] = W
        E[rows] = Ec
    return V, E


def _segment_dist(a: np.ndarray, b: np.ndarray, abs_a: np.ndarray,
                  abs_b: np.ndarray) -> np.ndarray:
    """dist(0, [a, b]) elementwise, to within a few u max(|a|, |b|), given
    abs_a = |a| and abs_b = |b| (overwritten).

    When the foot of the perpendicular from 0 falls strictly inside the
    segment (Re(conj(a) d) < 0 < Re(conj(b) d), d = b - a), the distance
    is |Im(conj(a) d)| / |d|; otherwise it is min(|a|, |b|), which also
    covers a = b.  A NaN endpoint gives NaN.
    """
    d = b - a
    s = a.real * d.real
    s += a.imag * d.imag
    inside = s < 0.0
    np.multiply(b.real, d.real, out=s)
    s += b.imag * d.imag
    inside &= s > 0.0
    np.multiply(a.real, d.imag, out=s)
    s -= a.imag * d.real
    np.abs(s, out=s)
    with np.errstate(divide="ignore", invalid="ignore"):
        s /= np.abs(d)
    dist = np.minimum(abs_a, abs_b, out=abs_b)
    np.copyto(dist, s, where=inside)
    return dist


def _arc_bounds(V: np.ndarray):
    """(grid min of |V|, min over arcs of dist(0, [V_j, V_{j+1}])) per row.

    The arcs are cyclic: the last one joins V_{K-1} to V_0.  Chunks of at
    most _ARC_ELEMS values (whole rows, or slices of one row's arcs) bound
    the temporaries; min is exact, so chunking changes nothing.  Each value's
    modulus is taken once per chunk: over whole rows |b| is |a| rolled by one.
    """
    B, K = V.shape
    gmin, segmin = np.full(B, np.inf), np.full(B, np.inf)
    pts = min(K, _ARC_ELEMS)
    for rows in _row_slices(B, K, _ARC_ELEMS):
        for p in range(0, K, pts):
            a = V[rows, p:p + pts]
            b = V[rows, np.arange(p + 1, p + a.shape[1] + 1) % K]
            abs_a = np.abs(a)
            abs_b = np.roll(abs_a, -1, axis=1) if pts == K else np.abs(b)
            gmin[rows] = np.minimum(gmin[rows], abs_a.min(axis=1))
            segmin[rows] = np.minimum(
                segmin[rows], _segment_dist(a, b, abs_a, abs_b).min(axis=1))
    return gmin, segmin


def _winding(V: np.ndarray) -> np.ndarray:
    """Winding number of the closed polygon through each row of V.

    Each step adds the principal argument of V_{j+1} / V_j; that is the
    argument swept along the segment whenever the segment misses 0.  The
    caller certifies the rows, so no value is zero or NaN.
    """
    wind = np.empty(V.shape[0], dtype=np.int64)
    for rows in _row_slices(*V.shape, _CHUNK_ELEMS):
        a = V[rows]
        turns = np.sum(np.angle(np.roll(a, -1, axis=1) / a), axis=1) / (2.0 * np.pi)
        wind[rows] = np.rint(turns).astype(np.int64)
    return wind


def _circle_bounds(C: np.ndarray, rho: float, shift: int = 0):
    """(g, scale, D, D_2, Eg, Eh) of T = z^shift * F on the rho-circle per row.

    scale = rho^shift, D = sum n |c_n| rho^{n-1} >= sup |T'| and D_2 =
    sum n^2 |c_n| rho^n >= sup |d^2 T / d theta^2|, both over the indices
    n of T; Eg = scale g sum |c_n| (rho (1 + eta))^n and Eh = Eg + D eta rho,
    the E of a Horner level (_grid_chunks), with g = _rounding_gamma(columns
    of C) (module docstring).
    """
    n1 = C.shape[1]
    n = np.arange(shift, shift + n1, dtype=np.float64)
    A = np.abs(C)
    scale = rho ** shift
    g = _rounding_gamma(n1)
    D = np.sum(A * (n * rho ** (n - 1.0)), axis=1)
    D2 = np.sum(A * (n * n * rho ** n), axis=1)
    horner_abs = np.sum(A * (rho * (1.0 + _GRID_ETA)) ** np.arange(n1), axis=1)
    Eg = (scale * g) * horner_abs
    return g, scale, D, D2, Eg, Eg + D * (_GRID_ETA * rho)


def _climb(C: np.ndarray, rho: float, shift: int, whole: bool, decide, *,
           K_cap: int):
    """(settle_K, grid points evaluated) of the ladder of T = z^shift * F
    over the rows of C (module docstring), keeping whole grids
    (_grid_values) or the running max of |F| (_grid_max).  Above
    _CHUNK_ELEMS points whole-grid rows climb one at a time, so the kept
    values never exceed one row.  decide(K, rows, values or max, E, D, D_2,
    g, last) gets the open rows (indices into C), the largest E of their
    levels, D, D_2 and g of _circle_bounds and whether K is the cap level;
    it returns the mask of rows that leave.  settle_K is 0 if open at the cap.
    """
    B = C.shape[0]
    g, scale, D, D2, Eg, Eh = _circle_bounds(C, rho, shift)
    Ks = _ladder_levels(K_cap)
    E, settle_K = np.full(B, -np.inf), np.zeros(B, dtype=np.int64)
    grids, points = {}, 0   # grid points by size, shared by every row
    level = _grid_values if whole else _grid_max
    kept = np.empty((B, 0), dtype=complex) if whole else np.full(B, -np.inf)
    groups = [(np.arange(B), C, kept, 0)]  # (open rows, C rows, kept, level)
    while groups:
        rows, Cr, X, j0 = groups.pop()
        for j, K in enumerate(Ks[j0:], j0):
            if whole and K > _CHUNK_ELEMS and rows.size > 1:
                groups += [(rows[i:i + 1], Cr[i:i + 1], X[i:i + 1], j)
                           for i in range(rows.size)]
                break
            new, El = level(Cr, rho, K, j > 0, (scale, g, Eg[rows], Eh[rows]),
                            grids)
            points += rows.size * (K // 2 if j else K)
            if whole and j:   # interleave with the kept even points
                new = np.stack([X, new], axis=2).reshape(rows.size, K)
            X = new if whole else np.maximum(X, new)
            E[rows] = Er = np.maximum(E[rows], El)
            out = decide(K, rows, X, Er, D[rows], D2[rows], g, K >= K_cap)
            settle_K[rows[out]] = K
            keep = np.flatnonzero(~out)
            if K >= K_cap or not keep.size:
                break
            rows, Cr, X = rows[keep], Cr[keep], X[keep]
    return settle_K, points


def _settle_counts(settle_K: np.ndarray, Ks: list) -> np.ndarray:
    """[rows open at the cap, rows that left at Ks[0], Ks[1], ...]."""
    edges = np.array([0] + Ks, dtype=np.int64)
    return np.bincount(np.searchsorted(edges, settle_K), minlength=edges.size)


def _certify_rows(C: np.ndarray, rho: float, *, K_cap: int = K_CAP_DEFAULT,
                  tail: float = -np.inf):
    """Joint min-modulus / winding ladder over coefficient rows (_climb).

    Returns a dict of arrays over rows:
      mm_lb      best certified lower bound for min |F| on the circle
      mm_gm      grid minimum at the level of that bound
      mm_K       grid size at that level
      wind       certified winding number (valid where wind_ok)
      wind_ok    whether the winding certificate fired by K_cap
      wind_K     grid size at the winding certificate level (0 if none)
      hopeless   grid minimum fell to or below the tail bound
      tube       row settled where the first-order certificate alone
                 (lb_1 > tail and the step condition) does not hold
      settle_K   grid size at which the row left the ladder (0 if open)

    At grid size K, with gmin the grid minimum of |V| (V the computed
    values), segmin the minimum over arcs of dist(0, [V_j, V_{j+1}]),
    t = D pi rho / K, h = 2 pi / K, D_2 as in _circle_bounds and E the
    largest E of the levels whose values the row holds (_grid_chunks),

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
    true minimum); the scalar operations use tail = -inf, so a row refines
    until its winding certificate fires.  Cap rule: at the cap level only
    decided rows leave; a row whose gmin falls to the tail there is not
    flagged hopeless and stays open (settle_K 0, the direct open_at_cap).
    """
    B = C.shape[0]
    mm_lb, mm_gm = np.full(B, -np.inf), np.zeros(B)
    mm_K, wind, wind_K = np.zeros((3, B), dtype=np.int64)
    wind_ok, hopeless, tube = np.zeros((3, B), dtype=bool)

    def decide(K, rows, V, E, D, D2, g, last):
        gmin, segmin = _arc_bounds(V)
        t1 = (1.0 + g) * (D * (np.pi * rho / K) + E)
        lb1 = gmin - t1
        t2 = (1.0 + g) * (D2 * (0.5 * (np.pi / K) ** 2) + E)
        lb2 = (1.0 - g) * segmin - t2
        lb = np.maximum(lb1, lb2)
        better = lb > mm_lb[rows]
        up = rows[better]
        mm_lb[up], mm_gm[up], mm_K[up] = lb[better], gmin[better], K
        step = 2.0 * t1 < gmin
        can = ~wind_ok[rows] & (step | (lb2 > 0.0))
        up = rows[can]
        wind[up], wind_ok[up], wind_K[up] = _winding(V[can]), True, K
        done = wind_ok[rows] & (mm_lb[rows] > tail)
        tube[rows[done & ~((lb1 > tail) & step)]] = True
        if last:
            return done
        hp = gmin <= tail
        hopeless[rows[hp]] = True
        return hp | done

    settle_K, _ = _climb(C, rho, 0, True, decide, K_cap=K_cap)
    return {"mm_lb": mm_lb, "mm_gm": mm_gm, "mm_K": mm_K, "wind": wind,
            "wind_ok": wind_ok, "wind_K": wind_K, "hopeless": hopeless,
            "tube": tube, "settle_K": settle_K}


def _rounding_gamma(n_coeffs: int) -> float:
    """g = gamma_{8(N+2)} for degree N = n_coeffs - 1 (module docstring)."""
    return _gamma(8 * (n_coeffs + 1))


def _moduli_weights(rho: float, n1: int) -> np.ndarray:
    """The weights (rho (1 + eta))^n, n < n1, of the moduli screens: each at
    least rho^n (module docstring)."""
    return (rho * (1.0 + _GRID_ETA)) ** np.arange(n1)


def _constant_term_holes(A: np.ndarray, rho: float, tail: float) -> np.ndarray:
    """Rows of moduli A (overwritten) that are certified holes of the
    rho-disk by their constant term alone: lb_0 = (1 - g) |c_0| - (1 + g)
    sum_{n>=1} |c_n| (rho (1 + eta))^n > max(tail, 0), the weights and g
    those of _circle_bounds (proof in the module docstring).  A NaN row is
    never one."""
    A[:, 1:] *= _moduli_weights(rho, A.shape[1])[1:]
    return _constant_term_test(A[:, 0], np.sum(A[:, 1:], axis=1),
                               _rounding_gamma(A.shape[1]), tail)


def _constant_term_test(a0: np.ndarray, R: np.ndarray, g: float,
                        tail: float) -> np.ndarray:
    """(1 - g) a0 - (1 + g) R > max(tail, 0), monotone in a0 and R as
    computed."""
    return (1.0 - g) * a0 - (1.0 + g) * R > max(tail, 0.0)


def _constant_term_prefix(P: np.ndarray, rho: float, tail: float, g: float,
                          rem: float):
    """(settled, rejected) of the moduli rows P of c_0..c_{k-1}, k =
    P.shape[1], of rows whose other columns add at most rem to the sum of
    _constant_term_holes and whose g is g: the rows it settles, which
    (R + rem) (1 + g) settles (module docstring); it leaves none to the
    ladder."""
    R = np.sum(P[:, 1:] * _moduli_weights(rho, P.shape[1])[1:], axis=1)
    return _constant_term_test(P[:, 0], (R + rem) * (1.0 + g), g, tail), False


def _quadratic_zeros(C: np.ndarray, A: np.ndarray, rho: float,
                     tail: float) -> np.ndarray:
    """Zero counts in the closed rho-disk of rows settled by Rouche against
    their quadratic part, -1 for the rows left open (proof in the module
    docstring).  C holds c_0, c_1, c_2 of each row, A its weighted moduli
    rows as _constant_term_holes leaves them; g is that of A's width."""
    g = _rounding_gamma(A.shape[1])
    c0, c1, c2 = C.T
    S = np.sum(A[:, 3:], axis=1)
    with np.errstate(all="ignore"):
        d = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
        d[(c1.conj() * d).real < 0.0] *= -1.0   # no cancellation in c_1 + d
        q = -0.5 * (c1 + d)
        z1, z2 = q / c2, c0 / q
        m1, m2, a2 = np.abs(z1), np.abs(z2), np.abs(c2)
        d1 = np.abs(m1 - rho) - g * m1
        d2 = np.abs(m2 - rho) - g * m2
        e1 = np.abs(c1 + c2 * (z1 + z2)) + g * (np.abs(c1) + a2 * (m1 + m2))
        e0 = np.abs(c0 - c2 * (z1 * z2)) + g * (np.abs(c0) + a2 * (m1 * m2))
        ok = (c2 != 0.0) & (d1 > 0.0) & (d2 > 0.0) & (
            (1.0 - g) * (a2 * d1 * d2) - (1.0 + g) * (e1 * rho + e0 + S)
            > max(tail, 0.0))
    return np.where(ok, (m1 < rho).astype(np.int64) + (m2 < rho), -1)


def min_modulus_certified(sample: GafSample, rho: float, *,
                          K_cap: int = K_CAP_DEFAULT) -> Tuple[float, float, int]:
    """Certified lower bound for min |F| on the rho-circle.

    Returns (lower_bound, grid_min, K_used): the best bound of the levels
    visited, the grid minimum and the grid size at that level.  The grid
    doubles from K_INIT = 8 points until the winding certificate fires or
    the cap level is reached.  When the step condition fires the bound
    exceeds half the grid minimum; when the tube condition fires first the
    bound is positive, with no such ratio.  It may be <= 0 for samples
    nearly vanishing on the circle.
    """
    _check_ladder_args(rho, K_cap)
    res = _certify_rows(sample.coeffs[None, :], rho, K_cap=K_cap)
    return float(res["mm_lb"][0]), float(res["mm_gm"][0]), int(res["mm_K"][0])


def winding_number_certified(sample: GafSample, rho: float, *,
                             K_cap: int = K_CAP_DEFAULT) -> Optional[int]:
    """Certified winding number of the rho-circle image (zero count inside).

    Returns the integer winding when the certificate fires, None when it is
    still inconclusive at the grid cap (the sample nearly vanishes on the
    circle).
    """
    _check_ladder_args(rho, K_cap)
    res = _certify_rows(sample.coeffs[None, :], rho, K_cap=K_cap)
    if not bool(res["wind_ok"][0]):
        return None
    return int(res["wind"][0])


def hole_decision(sample: GafSample, r: float, tail_bound: float, *,
                  K_cap: int = K_CAP_DEFAULT) -> HoleDecision:
    """Certified decision: no zeros in the closed r-disk, k zeros, or unknown.

    tail_bound must come from tail_sup_bound for the same (model, N_t, r);
    when the certified circle minimum of the truncated polynomial exceeds
    it, the truncation and the full series have equal zero counts in the
    disk, and the winding number decides between hole and zeros.  The
    ladder runs from K_INIT = 8 points to the cap level; a sample still
    open there is Inconclusive.  A NaN or negative tail_bound raises
    DomainError.
    """
    _check_ladder_args(r, K_cap)
    if not tail_bound >= 0.0:
        raise DomainError(f"tail_bound must be >= 0, got {tail_bound}")
    res = _certify_rows(sample.coeffs[None, :], r, K_cap=K_cap,
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

def _check_ladder_args(r: float, K_cap: int):
    if not (0.0 < r < 1.0):
        raise InvalidRadius(f"r must lie in (0, 1), got {r}")
    if not (1 <= K_cap < math.inf):
        raise DomainError(f"K_cap must be >= 1 and finite, got {K_cap}")


def _check_estimator_args(r: float, trials: int, confidence: float, *,
                          K_cap: int, workers: int):
    _check_ladder_args(r, K_cap)
    for name, n in (("trials", trials), ("workers", workers)):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise DomainError(f"{name} must be an integer >= 1, got {n!r}")
    if not (0.0 < confidence < 1.0):
        raise DomainError(f"confidence must lie in (0, 1), got {confidence}")


def _truncate(model: CoefficientModel, r: float, trials: int, tau_rel: float,
              fail_exp: float, budget: float, N_min: int = 0):
    """(N_t, tail bound, the metadata every estimator records): the
    truncation degree at r, at least N_min, with trials * N_t within budget,
    and the tail bound, its failure probability summed over the trials."""
    N_t = max(truncation_degree(model, r, tau_rel), N_min)
    cost = float(trials) * float(N_t)
    if not (cost <= budget):  # a NaN budget rejects, never disables
        raise ComputeBudgetExceeded(
            f"trials * N_t = {cost:.3e} exceeds compute budget {budget:.3e}")
    tail, log_fail = tail_sup_bound(model, N_t, r, fail_exp)
    return N_t, tail, {
        "fail_exp": fail_exp, "tau_rel": tau_rel, "N_t": N_t,
        "tail_bound": tail,
        "certificate_failure_budget": trials * math.exp(log_fail)}


def _pool_map(worker_fn, n: int, workers: int, width: int, dtype,
              span: int) -> list:
    """[worker_fn(lo, hi, out)] over the spans of span trials of range(n), in
    order; out is the first hi - lo rows of the calling thread's (min(n,
    span), width) buffer of dtype, made once per thread and call."""
    los = range(0, n, span)
    local = threading.local()

    def run(lo):
        if not hasattr(local, "buf"):
            local.buf = np.empty((min(n, span), width), dtype)
        hi = min(lo + span, n)
        return worker_fn(lo, hi, local.buf[:hi - lo])

    if workers <= 1 or len(los) <= 1:
        return [run(lo) for lo in los]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(run, los))


def _row_drawer(seed: int, purpose: int, z: int, first: int, w: np.ndarray):
    """draw(ids, out, moduli, lo=0) of a stream for _screened_counts: the
    row of trial t is z zero columns, then zeta_n w_{n - first} for n =
    first, first + 1, ..., zeta_n the Gaussian at index n of stream t under
    purpose; out gets the columns lo.. of the rows of the trials ids, laid
    out in place, and with moduli=True |zeta_n| w_{n - first}."""
    def draw(ids: np.ndarray, out: np.ndarray, moduli: bool, lo: int = 0):
        c = max(lo, z) - lo   # out's first drawn column
        out[:, :c] = 0.0
        n = first + lo + c - z
        if out.shape[1] > c:
            rng.gaussian_rows(seed, ids, purpose, n, n + out.shape[1] - c,
                              moduli, out[:, c:])
            out[:, c:] *= w[n - first:n - first + out.shape[1] - c]
        return out
    return draw


def _prefix(W: np.ndarray, slack: float, lower: bool):
    """(k, cap sum_{c>=k} W_c): the k columns a moduli screen draws first,
    from the weights W of its columns and its slack (module docstring), and
    the most the others can add to its sum.  k is 0 for a lower bound whose
    cap bound cap sum W is below the slack, else the fewest columns whose
    cap remainder is at most slack / 8 and, for a lower bound, at most the
    fewest whose expected sum (sqrt(pi) / 2) sum W reaches 2 slack."""
    rem = rng.MODULUS_CAP * np.append(np.cumsum(W[::-1])[::-1], 0.0)
    if lower and rem[0] < slack:
        return 0, float(rem[0])
    ok = rem <= slack / 8.0
    k = int(np.argmax(ok)) if ok.any() else W.size
    if lower:
        reach = 0.5 * math.sqrt(math.pi) * np.append(0.0, np.cumsum(W)) \
            >= 2.0 * slack
        if reach.any():
            k = min(k, int(np.argmax(reach)))
    return k, float(rem[k])


def _screened_counts(trials: int, workers: int, width: int, hists: list,
                     draw, prefix, screen, ladder):
    """The runner of a stream's two stages (module docstring): (the
    screen's counts, the first five counts of ladder, one {K: rows} dict
    per histogram, zeros left out), each summed over the spans and chunks.

    draw(ids, out, moduli, lo=0) fills out (float, moduli only) or
    (complex) with the columns lo.. of the rows of the trials ids.  Each
    span of max(BATCH_TRIALS, _SCREEN_DRAWS // width) trials draws the
    first k moduli columns, prefix = (k, test), and test(P) of those rows
    returns the masks of the rows it settles and of the rows it leaves to
    the ladder.  The other rows draw their other columns, and screen(ids,
    A) gets their trials and whole moduli rows and returns the mask of the
    rows it settles and a tuple of int counts of them; the rows test
    settles add to the first.  With k = width every row goes to screen.
    ladder(C) gets the full rows of the rest, pooled in trial order into
    chunks of BATCH_TRIALS rows, and returns five int counts, then one
    count per level K of each list of levels in hists.
    """
    k, test = prefix

    def first(lo: int, hi: int, out: np.ndarray):
        ids = np.arange(lo, hi, dtype=np.uint64)
        if k < width:
            P = draw(ids, out[:, :k], True)
            settled, rejected = test(P)
            left = np.flatnonzero(~(settled | rejected))
            out[:left.size, :k] = P[left]
            if left.size:
                draw(ids[left], out[:left.size, k:], True, k)
        else:
            settled, left = np.zeros(ids.size, dtype=bool), np.arange(ids.size)
            draw(ids, out, True)
        pre = int(settled.sum())
        settled[left], tally = screen(ids[left], out[:left.size])
        return ids[~settled], (tally[0] + pre, *tally[1:])

    rest, tallies = zip(*_pool_map(first, trials, workers, width, float,
                                   max(BATCH_TRIALS, _SCREEN_DRAWS // width)))
    rest = np.concatenate(rest)   # frees the per-span ids before the ladder
    tallies = [sum(col) for col in zip(*tallies)]
    counts = _pool_map(lambda lo, hi, out: ladder(draw(rest[lo:hi], out, False)),
                       rest.size, workers, width, complex, BATCH_TRIALS)
    total = [sum(map(int, col)) for col in zip(*counts)] \
        or [0] * (5 + sum(map(len, hists)))
    settled, i = [], 5
    for Ks in hists:
        settled.append({K: n for K, n in zip(Ks, total[i:]) if n})
        i += len(Ks)
    return tallies, total[:5], settled


def _inner_radius(a: np.ndarray, r: float) -> Optional[float]:
    """The radius r_in < r of the direct estimator's inner-circle pass for
    coefficients a (module docstring), or None when there is none.

    E N(rho) = sum n a_n^2 rho^{2n} / sum a_n^2 rho^{2n}, the expected zero
    count of the rho-disk, increases with rho; r_in solves E N(r_in) = m =
    min(_INNER_ZEROS, E N(r) / 2), and there is no pass when m < 1 (E N(r)
    < 2).  Hyperbolic(L): r_in = sqrt(m / (L + m)) up to the truncation.
    With x = rho^2, r_in^2 is the positive root of P(x) = sum (n - m) a_n^2
    x^n.  P(0) <= 0 < P(r^2), and P is convex on x >= 0, since its
    coefficients are negative only at n < m <= 2, where n(n - 1) = 0.  So
    Newton's steps from x = r^2 fall monotonically to the root,
    quadratically near it, and stop once a step is below 2^-40 of x.  Any
    radius in (0, r) is sound; the rule only spends the ladder's time.
    """
    n, a2, x = np.arange(a.size), a * a, float(r) * float(r)
    w = a2 * x ** n
    m = min(_INNER_ZEROS, float(np.dot(n, w) / np.sum(w)) / 2.0)
    if not m >= 1.0:
        return None
    c = (n - m) * a2
    nc = n * c
    for _ in range(64):
        w = x ** n
        step = float(np.dot(c, w) / np.dot(nc, w))   # P / (x P')
        x -= x * step
        if not step > 2.0 ** -40:
            break
    return math.sqrt(x) if 0.0 < x < r * r else None


def estimate_hole_direct(model: CoefficientModel, r: float, trials: int,
                         seed: int, confidence: float = 0.99,
                         tau_rel: float = DEFAULT_TAU_REL,
                         fail_exp: float = DEFAULT_FAIL_EXP, *,
                         K_cap: int = K_CAP_DEFAULT,
                         budget: float = DEFAULT_COMPUTE_BUDGET,
                         workers: int = 1) -> HoleEstimate:
    """Direct Monte Carlo estimate of the hole probability at radius r.

    Each trial samples a truncated series on its own stream (stream id =
    trial index) and runs the certified decision.  A screen on the moduli
    settles the rows whose constant term dominates the rest of the series
    on the disk as holes, on their cap prefix (_constant_term_prefix) or
    whole (_constant_term_holes), then, drawing c_0..c_2 of
    the others, the rows whose quadratic part dominates the rest
    (_quadratic_zeros) as holes or non-holes; the others, pooled across
    spans, draw their phases.  When E N(r) >= 2 (module docstring), the
    rows with a certified zero inside the inner circle of radius r_in are
    non-holes; the rest climb the ladder at r from K_INIT = 8 points to the
    cap level, and rows still open there are Inconclusive.  zeros_certified
    holds the certified non-holes.  Inconclusive trials widen the Wilson
    interval pessimistically: they count as hits for p_high and as misses
    for p_low.
    kernel holds the sidecar counters (cli module docstring): constant_term
    and quadratic count the rows of the two screen steps; inner,
    inner_settle_K and inner_r (None without a pass) count the inner
    circle's rows; uniform_ladder, tube, open_at_cap and settle_K count
    the rows of the ladder at r only.
    """
    _check_estimator_args(r, trials, confidence, K_cap=K_cap, workers=workers)
    N_t, tail, meta = _truncate(model, r, trials, tau_rel, fail_exp, budget)
    a = coefficients(model, N_t)
    r_in = _inner_radius(a, r)
    g = _rounding_gamma(N_t + 1)
    k, rem = _prefix((a * _moduli_weights(r, N_t + 1))[1:], a[0], False)
    moduli_rows = _row_drawer(seed, rng.PURPOSE_SAMPLE, 0, 0, a)

    def draw(ids: np.ndarray, out: np.ndarray, moduli: bool, lo: int = 0):
        if moduli:
            return moduli_rows(ids, out, True, lo)
        return sample_coeff_batch(model, seed, ids, N_t, out=out)

    def certified(res):   # decided against the tail bound
        return (res["mm_lb"] - tail > 0.0) & res["wind_ok"]

    def ladder(C: np.ndarray):
        inner_K = np.zeros(0, dtype=np.int64)
        if r_in is not None:
            res = _certify_rows(C, r_in, K_cap=K_cap, tail=tail)
            inner = certified(res) & (res["wind"] >= 1)
            inner_K, C = res["settle_K"][inner], C[~inner]
        res = _certify_rows(C, r, K_cap=K_cap, tail=tail)
        ok = certified(res)
        hole = ok & (res["wind"] == 0)
        zero = ok & (res["wind"] >= 1)
        return (hole.sum(), zero.sum() + inner_K.size, (~(hole | zero)).sum(),
                ((hole | zero) & res["tube"]).sum(),
                *_settle_counts(res["settle_K"], levels),
                *_settle_counts(inner_K, levels)[1:])

    def screen(ids: np.ndarray, A: np.ndarray):
        pre = _constant_term_holes(A, r, tail)
        k = np.full(ids.size, -1)
        if N_t >= 2:
            rest = np.flatnonzero(~pre)
            k[rest] = _quadratic_zeros(
                sample_coeff_batch(model, seed, ids[rest], 2), A[rest], r, tail)
        return pre | (k >= 0), (int(pre.sum()), int((k == 0).sum()),
                                int((k > 0).sum()))

    levels = _ladder_levels(K_cap)
    (pre_n, quad_holes, quad_zeros), counts, (settle_K, inner_settle_K) = \
        _screened_counts(trials, workers, N_t + 1, [levels, levels], draw,
                         (1 + k, lambda P: _constant_term_prefix(
                             P, r, tail, g, rem)), screen, ladder)
    ladder_holes, ladder_zeros, inc_n, tube_n, open_n = counts
    inner_n = sum(inner_settle_K.values())
    holes_n = pre_n + quad_holes + ladder_holes
    zeros_n = quad_zeros + ladder_zeros
    lo = wilson_interval(holes_n, trials, confidence)[0]
    hi = wilson_interval(holes_n + inc_n, trials, confidence)[1]
    return HoleEstimate(
        model=model, r=float(r), mode=MODE_DIRECT, trials=int(trials),
        hits=int(holes_n), inconclusive=int(inc_n),
        p_low=lo, p_high=hi, confidence=float(confidence), M=None,
        seed=int(seed),
        metadata={**meta, "zeros_certified": int(zeros_n)},
        kernel={"constant_term": pre_n, "quadratic": quad_holes + quad_zeros,
                "inner": inner_n,
                "uniform_ladder": int(ladder_holes + ladder_zeros - inner_n),
                "open_at_cap": open_n, "inconclusive": int(inc_n),
                "tube": tube_n, "settle_K": settle_K,
                "inner_settle_K": inner_settle_K, "inner_r": r_in})


def default_threshold(L: float, r: float, eps: float = 0.05, B: float = 3.0,
                      alpha_exp: float = 0.75) -> float:
    """Regime-dispatched default threshold M for the lower-bound estimators.

    decaying (L < 1):  sqrt(1 - L + 2 eps) * (1 - r^2)^{-L/2} * sqrt(log 1/(1-r))
    flat (L = 1):      B * sqrt(1 / (1 - r))
    growing (L > 1):   delta^{-1/2} * (log 1/delta)^{alpha_exp},  delta = 1 - r
    """
    if not (0.0 < L < math.inf):
        raise InvalidIntensity(f"intensity L must be positive and finite, got {L}")
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


def _sup_counts(C: np.ndarray, rho: float, M: float, tail: float, *,
                K_cap: int, shift: int = 0):
    """Count rows of T = z^shift * F, F the polynomial of a row of C, whose
    certified sup over the rho-circle plus tail is below M.

    At grid size K, with gmax the computed grid max of |F|, a row is a hit
    when

        (1 + g) [scale gmax + min(D pi rho / K, (h^2/8) D_2) + E] + tail < M,

    h = 2 pi / K, scale = rho^shift = |z^shift| on the circle and D, D_2, g
    as in _circle_bounds.  The min is the first-order and the second-order
    (Peano kernel) bound on how far |T| rises between grid points, and E,
    the largest E of the levels visited (_grid_chunks), bounds the distance
    of every computed grid value of T from its exact value at its exact
    grid point (module docstring).  The factor 1 + g also covers the
    rounding of D, D_2, E, scale and the bound itself, and the strict <
    keeps the last rounding, the sum with tail, from turning a bound above
    M into a hit.

    The ladder (_climb, on the running grid max) lets a row leave at any
    level once the hit test or 'scale gmax > M' (definite miss: the grid
    max is a lower bound for the sup) holds; rows still open at K_cap,
    NaN rows among them, are inconclusive.  Only hits enter a lower bound,
    so the miss test carries no rounding term.

    Returns (hit, miss, inconclusive, tube hits, grid points evaluated,
    *settled): tube hits are the hits whose bound with the first-order term
    in place of the min is not below M, and settled[j] the rows decided at
    grid size _ladder_levels(K_cap)[j].
    """
    scale, n = rho ** shift, [0, 0, 0]   # hits, misses, tube hits

    def decide(K, rows, gmax, E, D, D2, g, last):
        smax = scale * gmax
        first = D * (np.pi * rho / K)
        tube = D2 * (0.5 * (np.pi / K) ** 2)
        h = (1.0 + g) * (smax + np.minimum(first, tube) + E) + tail < M
        m = smax > M
        n[0] += int(h.sum())
        n[1] += int((m & ~h).sum())
        n[2] += int((h & ~((1.0 + g) * (smax + first + E) + tail < M)).sum())
        return h | m

    settle_K, points = _climb(C, rho, shift, False, decide, K_cap=K_cap)
    inc, *settled = _settle_counts(settle_K, _ladder_levels(K_cap))
    return (n[0], n[1], int(inc), n[2], points, *map(int, settled))


def _sup_screen(A: np.ndarray, rho: float, M: float, tail: float, shift=0):
    """Rows of moduli A (overwritten) of T = z^shift * F that are hits by
    (1 + g) rho^shift sum A_n (rho (1 + eta))^n + tail < M (see module)."""
    A *= _moduli_weights(rho, A.shape[1])
    return _sup_hits(np.sum(A, axis=1), rho, M, tail, shift,
                     _rounding_gamma(A.shape[1]))


def _sup_hits(S: np.ndarray, rho: float, M: float, tail: float, shift: int,
              g: float) -> np.ndarray:
    """(1 + g) rho^shift S + tail < M, monotone in S as computed."""
    return (1.0 + g) * (rho ** shift * S) + tail < M


def _sup_prefix(P: np.ndarray, rho: float, M: float, tail: float, shift: int,
                g: float, rem: float):
    """(settled, rejected) of the first k = P.shape[1] columns P of moduli
    rows of T = z^shift * F whose other columns add at most rem to the sum
    of _sup_screen and whose g is g: the rows that S + rem, raised by 1 + g,
    makes hits and the rows that S, lowered by 1 - g, leaves misses, S the
    sum over P (module docstring)."""
    S = np.sum(P * _moduli_weights(rho, P.shape[1]), axis=1)
    return (_sup_hits((S + rem) * (1.0 + g), rho, M, tail, shift, g),
            ~_sup_hits(S * (1.0 - g), rho, M, tail, shift, g))


def _sup_stream(seed: int, purpose: int, shift: int, lo: int, w: np.ndarray,
                rho: float, M: float, tail: float, confidence: float, *,
                K_cap: int, trials: int, workers: int):
    """(Wilson lower bound on the hit rate, sidecar counters) of one row T =
    z^shift * F per trial t, the one layout of a lower-bound stream: T's
    coefficient n is 0 for shift <= n < lo and zeta_n w_{n - lo} from lo on,
    zeta_n the Gaussian at index n of stream t under purpose, laid out in
    place in the worker thread's _pool_map buffers.  Rows the screen misses
    (_sup_prefix on the cap prefix, then _sup_screen on the whole moduli
    rows) run _sup_counts; only they enter tube_hits, grid_points and
    settle_K."""
    z, n1 = lo - shift, lo - shift + w.size
    g = _rounding_gamma(n1)
    k, rem = _prefix(w * _moduli_weights(rho, n1)[z:],
                     (M - tail) / (1.0 + g) / rho ** shift, True)

    def screen(ids: np.ndarray, A: np.ndarray):
        hit = _sup_screen(A, rho, M, tail, shift)
        return hit, (int(hit.sum()),)

    (screened,), (hits, misses, inc, tube_hits, points), (settle_K,) = \
        _screened_counts(trials, workers, n1, [_ladder_levels(K_cap)],
                         _row_drawer(seed, purpose, z, lo, w),
                         (z + k, lambda P: _sup_prefix(P, rho, M, tail, shift,
                                                       g, rem)), screen,
                         lambda C: _sup_counts(C, rho, M, tail, K_cap=K_cap,
                                               shift=shift))
    hits += screened
    return wilson_interval(hits, trials, confidence)[0], {
        "hit": hits, "miss": misses, "inconclusive": inc, "screened": screened,
        "tube_hits": tube_hits, "grid_points": points, "settle_K": settle_K}


def estimate_hole_lower_threshold(model: CoefficientModel, r: float,
                                  trials: int, seed: int,
                                  confidence: float = 0.99,
                                  M: Optional[float] = None,
                                  eps: float = 0.05, B: float = 3.0,
                                  alpha_exp: float = 0.75,
                                  tau_rel: float = DEFAULT_TAU_REL,
                                  fail_exp: float = DEFAULT_FAIL_EXP, *,
                                  K_cap: int = K_CAP_DEFAULT,
                                  budget: float = DEFAULT_COMPUTE_BUDGET,
                                  workers: int = 1) -> HoleEstimate:
    """Certified lower confidence bound via the threshold decomposition.

    P[Hole(r)] >= P[|F(0)| > M] * P[sup_circle |F - F(0)| <= M]
               =  e^{-M^2/a_0^2} * q,
    with q estimated by Monte Carlo on certified sup bounds (triangle bound
    or grid max + variation bound, + tail); the first factor is 0 if a_0 = 0.
    p_high is 1: this mode only certifies a lower bound.  eps, B and
    alpha_exp feed the default threshold and are ignored when M is given.
    """
    _check_estimator_args(r, trials, confidence, K_cap=K_cap, workers=workers)
    if M is None:
        L = model.L if model.kind in ("Hyperbolic", "PowerLaw") else 1.0
        M = default_threshold(L, r, eps=eps, B=B, alpha_exp=alpha_exp)
    if not (0.0 < M < math.inf):
        raise DomainError(f"threshold M must be positive and finite, got {M}")
    N_t, tail, meta = _truncate(model, r, trials, tau_rel, fail_exp, budget)
    a = coefficients(model, N_t)
    q_low, sup = _sup_stream(seed, rng.PURPOSE_SAMPLE, 0, 1, a[1:], r, M, tail,
                             confidence, K_cap=K_cap, trials=trials,
                             workers=workers)
    p_low = (math.exp(-M * M / (a[0] * a[0])) if a[0] > 0.0 else 0.0) * q_low
    return HoleEstimate(
        model=model, r=float(r), mode=MODE_THRESHOLD, trials=int(trials),
        hits=sup["hit"], inconclusive=sup["inconclusive"],
        p_low=p_low, p_high=1.0, confidence=float(confidence), M=float(M),
        seed=int(seed),
        metadata={**meta, "q_low": q_low},
        kernel={"sup": sup})


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
                               fail_exp: float = DEFAULT_FAIL_EXP, *,
                               K_cap: int = K_CAP_DEFAULT,
                               budget: float = DEFAULT_COMPUTE_BUDGET,
                               workers: int = 1) -> HoleEstimate:
    """Certified lower confidence bound via the tilted decomposition.

    With damping factors q_n on coefficients 1..N,

      P[Hole(r)] >= e^{-M^2} * Q^2 * P[sup |tilted middle| <= M/2]
                                   * P[sup |tail past N| <= M/2],

    each estimated on its own purpose-separated sup stream (the tail's rows
    settle mostly on the triangle bound) and lower-bounded by a Wilson bound
    at confidence 1 - (1-confidence)/2, so both failures stay within 1 -
    confidence; p_low may underflow to 0, and metadata keeps log10_p_low.
    """
    _check_estimator_args(r, trials, confidence, K_cap=K_cap, workers=workers)
    q, N, N1, M, r2, alpha1, log_Q2 = tilt_profile(model, r, alpha_exp, alpha1)
    if N < 1:
        raise TiltOutOfRange(
            f"middle block is empty at r={r} (N={N}); r is too far from 1")
    N_t, tail_beyond, meta = _truncate(model, r, trials, tau_rel, fail_exp,
                                       budget, N_min=N + 1)
    a = coefficients(model, N_t)
    conf_each = 1.0 - (1.0 - confidence) / 2.0
    half = M / 2.0
    ladder = {"K_cap": K_cap, "trials": trials, "workers": workers}
    q_mid, mid = _sup_stream(seed, rng.PURPOSE_TILT_MIDDLE, 0, 1,
                             q * a[1:N + 1], r, half, 0.0, conf_each, **ladder)
    # T(z) = z^{N+1} * inner(z), evaluated as inner on the circle
    q_tail, tail = _sup_stream(seed, rng.PURPOSE_TILT_TAIL, N + 1, N + 1,
                               a[N + 1:], r, half, tail_beyond, conf_each,
                               **ladder)
    log_p = -M * M + log_Q2 \
        + (math.log(q_mid) if q_mid > 0 else -math.inf) \
        + (math.log(q_tail) if q_tail > 0 else -math.inf)
    p_low = math.exp(log_p) if log_p > -745.0 else 0.0
    return HoleEstimate(
        model=model, r=float(r), mode=MODE_TILTED, trials=int(trials),
        hits=min(mid["hit"], tail["hit"]),
        inconclusive=mid["inconclusive"] + tail["inconclusive"],
        p_low=p_low, p_high=1.0, confidence=float(confidence), M=float(M),
        seed=int(seed),
        metadata={
            **meta, "N": N, "N1": N1, "r2": r2, "alpha1": alpha1,
            "log_Q2": log_Q2, "q_mid_low": q_mid, "q_tail_low": q_tail,
            "mid_hits": mid["hit"], "tail_hits": tail["hit"],
            "log10_p_low": log_p / math.log(10.0) if math.isfinite(log_p) else None,
        },
        kernel={"middle": mid, "tail": tail})


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
    "K_INIT",
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
