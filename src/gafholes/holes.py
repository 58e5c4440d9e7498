"""Hole-probability estimators, their moduli screens and scalar operations.

A hole at radius r means the function has no zeros in the closed disk of
radius r.  The ladder module decides it per sample on a grid of the
circle; its docstring proves the certificates and defines E, g and eta.

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
    is at least rho^n; g (ladder) covers the one rounding of each |c_n|,
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
at L=2, r=0.9.  The direct k may be the whole row (a_0 = 0, or Explicit
(1, 0, 2) at r = 0.5); then rem = 0 and the screen gets the rows the
prefix test leaves, with no further draw and, by the above, no count moved.

One runner, _screened_counts, gets the layout of every stream (the direct
one, (seed, PURPOSE_SAMPLE, 0, 0, a), and each lower-bound stream) and the
estimator's decisions, and draws the rows of both stages itself: the
moduli of each span of max(BATCH_TRIALS, _SCREEN_DRAWS // width) trials
for the screen, so that a narrow row pays its per-call costs once per
about 2^17 moduli (the cap prefix of every row, then the other columns of
the rows it leaves), then the full rows of the trials the screen leaves,
in ladder chunks of BATCH_TRIALS rows.  Both stages run through
_pool_map, which hands the spans and chunks to the worker threads; each
span and chunk draws into new arrays of its own.
Everything is elementwise per trial row, so span and chunk composition and
thread scheduling never change results; merged counters are plain integer
sums.
"""

from __future__ import annotations

import math
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
    evaluate_on_grid,  # noqa: F401 (unused; bench tracer wraps it)
    sample_coeff_batch,
    tail_sup_bound,
    truncation_degree,
)
from .intervals import wilson_interval
from .ladder import (
    K_CAP_DEFAULT,
    _certify_rows,
    _ladder_levels,
    _moduli_weights,
    _rounding_gamma,
    _settle_counts,
    _sup_counts,
)
from .oracles import (
    determinantal_hole_probability,
    log_determinantal_hole_probability,
)

# fixed batch widths (part of the determinism contract): the rows of a ladder
# chunk, and the fewest trials of a screen span
BATCH_TRIALS = 2048
_SCREEN_DRAWS = 1 << 17        # a screen span draws about this many moduli
DEFAULT_COMPUTE_BUDGET = 1e11  # cap on trials * N_t
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
    if not rng.is_integer(K_cap) or K_cap < 1:
        raise DomainError(f"K_cap must be an integer >= 1, got {K_cap!r}")


def _check_estimator_args(r: float, trials: int, seed: int, confidence: float,
                          *, K_cap: int, workers: int):
    _check_ladder_args(r, K_cap)
    for name, n in (("trials", trials), ("workers", workers)):
        if not rng.is_integer(n) or n < 1:
            raise DomainError(f"{name} must be an integer >= 1, got {n!r}")
    rng.check_seed(seed)   # also before a stream that draws nothing
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


def _pool_map(worker_fn, n: int, workers: int, span: int) -> list:
    """[worker_fn(lo, hi)] over the spans of span trials of range(n), in
    order, on up to workers threads."""
    los = range(0, n, span)

    def run(lo):
        return worker_fn(lo, min(lo + span, n))

    if workers <= 1 or len(los) <= 1:
        return [run(lo) for lo in los]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(run, los))


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


def _screened_counts(trials: int, workers: int, stream: tuple, hists: list,
                     prefix, screen, ladder):
    """The runner of a stream's two stages (module docstring): (the
    screen's counts, the first five counts of ladder, one {K: rows} dict
    per histogram, zeros left out), each summed over the spans and chunks.

    stream = (seed, purpose, z, first, w) lays out the row of trial t: z
    zero columns, then zeta_n w_{n - first} for n = first, first + 1, ...,
    zeta_n the Gaussian at index n of stream t under purpose, width = z +
    w.size columns in all; the runner draws every row itself, moduli
    |zeta_n| w_{n - first} for the screen, each span and chunk into arrays
    it makes where it fills them.  Each span of max(BATCH_TRIALS,
    _SCREEN_DRAWS // width) trials draws the first k moduli columns, prefix
    = (k, test), and test(P) of those rows returns the masks of the rows it
    settles and of the rows it leaves to the ladder.  The other rows draw
    their other columns (none when k = width), and screen(ids, A) gets
    their trials and whole moduli rows and returns the mask of the rows it
    settles and a tuple of int counts of them; the rows test settles add
    to the first.  ladder(C) gets the full rows of the rest, pooled in
    trial order into chunks of BATCH_TRIALS rows, and returns five int
    counts, then one count per level K of each list of levels in hists.
    """
    seed, purpose, z, first, w = stream
    width, (k, test) = z + w.size, prefix

    def draw(ids: np.ndarray, out: np.ndarray, moduli: bool, lo: int = 0):
        c = max(lo, z) - lo   # out's first drawn column
        out[:, :c] = 0.0
        n = first + lo + c - z
        if out.shape[1] > c:
            rng.gaussian_rows(seed, ids, purpose, n, n + out.shape[1] - c,
                              moduli, out[:, c:])
            out[:, c:] *= w[n - first:n - first + out.shape[1] - c]
        return out

    def screen_span(lo: int, hi: int):
        ids = np.arange(lo, hi, dtype=np.uint64)
        out = np.empty((ids.size, width))
        P = draw(ids, out[:, :k], True)
        settled, rejected = test(P)
        left = np.flatnonzero(~(settled | rejected))
        out[:left.size, :k] = P[left]
        if left.size:
            draw(ids[left], out[:left.size, k:], True, k)
        pre = int(settled.sum())
        settled[left], tally = screen(ids[left], out[:left.size])
        return ids[~settled], (tally[0] + pre, *tally[1:])

    rest, tallies = zip(*_pool_map(screen_span, trials, workers,
                                   max(BATCH_TRIALS, _SCREEN_DRAWS // width)))
    rest = np.concatenate(rest)   # frees the per-span ids before the ladder
    tallies = [sum(col) for col in zip(*tallies)]
    counts = _pool_map(
        lambda lo, hi: ladder(draw(rest[lo:hi],
                                   np.empty((hi - lo, width), complex), False)),
        rest.size, workers, BATCH_TRIALS)
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
    < 2) or sum a_n^2 r^{2n} = 0 (E N(r) = 0/0).  Hyperbolic(L): r_in =
    sqrt(m / (L + m)) up to the truncation.
    With x = rho^2, r_in^2 is the positive root of P(x) = sum (n - m) a_n^2
    x^n.  P(0) <= 0 < P(r^2), and P is convex on x >= 0, since its
    coefficients are negative only at n < m <= 2, where n(n - 1) = 0.  So
    Newton's steps from x = r^2 fall monotonically to the root,
    quadratically near it, and stop once a step is below 2^-40 of x.  Any
    radius in (0, r) is sound; the rule only spends the ladder's time.
    """
    n, a2, x = np.arange(a.size), a * a, float(r) * float(r)
    w = a2 * x ** n
    if not w.any():
        return None
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
    trial index), which _screened_counts draws, and runs the certified
    decision.  A screen on the moduli settles the rows whose constant term
    dominates the rest of the series on the disk as holes, on their cap
    prefix (_constant_term_prefix) or whole (_constant_term_holes), then,
    drawing c_0..c_2 of the others (sample_coeff_batch), the rows whose
    quadratic part dominates the rest (_quadratic_zeros) as holes or
    non-holes; the others, pooled across spans, draw their phases.  When
    E N(r) >= 2 (module docstring), the rows with a certified zero inside
    the inner circle of radius r_in are non-holes; the rest climb the
    ladder at r from K_INIT = 8 points to the cap level, and rows still
    open there are Inconclusive.  zeros_certified holds the certified
    non-holes.  Inconclusive trials widen the Wilson interval
    pessimistically: they count as hits for p_high and as misses for p_low.
    kernel holds the sidecar counters (cli module docstring): constant_term
    and quadratic count the rows of the two screen steps; inner,
    inner_settle_K and inner_r (None without a pass) count the inner
    circle's rows; uniform_ladder, tube, open_at_cap and settle_K count
    the rows of the ladder at r only.
    """
    _check_estimator_args(r, trials, seed, confidence, K_cap=K_cap,
                          workers=workers)
    N_t, tail, meta = _truncate(model, r, trials, tau_rel, fail_exp, budget)
    a = coefficients(model, N_t)
    r_in = _inner_radius(a, r)
    g = _rounding_gamma(N_t + 1)
    k, rem = _prefix((a * _moduli_weights(r, N_t + 1))[1:], a[0], False)

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
        _screened_counts(trials, workers, (seed, rng.PURPOSE_SAMPLE, 0, 0, a),
                         [levels, levels],
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
    zeta_n the Gaussian at index n of stream t under purpose.  It hands
    _screened_counts the layout (seed, purpose, lo - shift, lo, w), and the
    runner draws the rows in place.  Rows the screen misses
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
        _screened_counts(trials, workers, (seed, purpose, z, lo, w),
                         [_ladder_levels(K_cap)],
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
    _check_estimator_args(r, trials, seed, confidence, K_cap=K_cap,
                          workers=workers)
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
    _check_estimator_args(r, trials, seed, confidence, K_cap=K_cap,
                          workers=workers)
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
