"""Truncated Gaussian Taylor series: sampling, evaluation, certified bounds.

A sample is the truncation F_N(z) = sum_{n<=N_t} zeta_n a_n z^n with iid
standard complex Gaussian zeta_n.  Truncation degrees are variance-based
(the full series is a.s. unbounded in the disk, so sup-norm truncation
criteria do not apply); coupling back to the infinite series is certified
per trial by tail_sup_bound, an explicit per-coefficient union bound with
failure probability <= e^{-fail_exp}/(1 - e^{-1}).  truncation_degree and
tail_sup_bound scan the series with coeffs.log_sq_blocks and stop by its
geometric remainder rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .coeffs import CoefficientModel, coefficients, log_sq_blocks, sigma_sq
# re-exported so the benchmark tracer can wrap them under these names
from .coeffs import log_sq_at, log_sq_block  # noqa: F401
from .errors import DomainError, InvalidPoint, InvalidRadius, NoConvergence

# tau_rel drives the tail bound floor of the certified decisions; 1e-8
# keeps the inconclusive fraction of the direct estimator below 1e-3 out
# to r = 0.9 at the cost of a modestly larger truncation degree.
DEFAULT_TAU_REL = 1e-8
DEFAULT_FAIL_EXP = 30.0


@dataclass(frozen=True, eq=False)
class GafSample:
    """One truncated sample; immutable and safe to share across threads."""

    model: CoefficientModel
    trunc_degree: int
    coeffs: np.ndarray          # complex, length trunc_degree + 1
    seed: int
    stream_id: int


def truncation_degree(model: CoefficientModel, rho: float, tau_rel: float) -> int:
    """Smallest N with tail variance sum_{n>N} a_n^2 rho^{2n} <= tau_rel^2 sigma^2.

    The tail is accumulated backward (suffix sums), which avoids the
    catastrophic cancellation of subtracting a prefix sum from the closed
    form when tau_rel^2 is near machine epsilon.
    """
    if not (0.0 < rho < 1.0):
        raise InvalidRadius(f"rho must lie in (0, 1), got {rho}")
    if not (0.0 < tau_rel <= 1.0):
        raise DomainError(f"tau_rel must lie in (0, 1], got {tau_rel}")
    if tau_rel == 1.0:
        return 0
    total = sigma_sq(model, rho)
    target = tau_rel * tau_rel * total
    if model.kind == "Explicit":
        seq = np.asarray(model.explicit_seq)
        w = seq**2 * rho ** (2 * np.arange(len(seq)))
        tails = np.concatenate([np.cumsum(w[::-1])[::-1][1:], [0.0]])
        return int(np.argmax(tails <= target))
    # scan forward until the remainder past the scan is certainly small
    log_r2 = 2.0 * np.log(rho)
    logw = []
    for n, la in log_sq_blocks(model):
        g = la + n * log_r2
        logw.append(g)
        last = float(np.exp(g[-1]))
        q = max(float(np.exp(g[-1] - g[-2])), rho * rho)
        if q < 1.0:
            rest = last * q / (1.0 - q)
            if rest <= 0.25 * target:
                break
    w = np.exp(np.concatenate(logw))
    # tails[N] = sum_{U > n > N} w_n + remainder-past-U bound (U = len(w))
    tails = np.concatenate([np.cumsum(w[::-1])[::-1][1:], [0.0]]) + rest
    ok = tails <= target
    if not ok.any():
        raise NoConvergence("truncation_degree scan failed to satisfy tolerance")
    return int(np.argmax(ok))


def sample(model: CoefficientModel, seed: int, stream_id: int, N_t: int) -> GafSample:
    """Draw the truncated sample for (seed, stream_id); bit-reproducible."""
    c = sample_coeff_batch(model, seed, np.asarray([stream_id]), N_t)[0]
    return GafSample(model=model, trunc_degree=int(N_t), coeffs=c,
                     seed=int(seed), stream_id=int(stream_id))


def sample_coeff_batch(model: CoefficientModel, seed: int, stream_ids,
                       N_t: int) -> np.ndarray:
    """Coefficient rows c_n = zeta_n a_n for many streams at once, shape
    (len(stream_ids), N_t + 1).

    Identical to stacking single-stream sample() calls bit for bit: every
    draw depends only on (seed, stream_id, n), and all transformations are
    elementwise.  For the same reason, and since a_n does not depend on
    N_t, the rows at degree k are the first k + 1 columns of the rows at
    any degree N_t >= k, bit for bit.  holes draws c_0..c_2 here for its
    quadratic step; its runner draws the same full rows itself.
    """
    C = rng.gaussian_rows(seed, stream_ids, rng.PURPOSE_SAMPLE, 0, N_t + 1)
    C *= coefficients(model, N_t)[None, :]
    return C


def evaluate(s: GafSample, z: complex) -> complex:
    """Horner evaluation of the truncated series at a point of the open disk."""
    if not abs(z) < 1.0:
        raise InvalidPoint(f"|z| must be < 1, got |z|={abs(z)}")
    return complex(horner(s.coeffs[None, :], np.asarray([z]))[0, 0])


def horner(coeff_rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Horner value of each coefficient row at the K points -> (rows, K).

    Elementwise throughout, so results are independent of how rows are
    batched (part of the bit-exactness contract for estimators).
    """
    rows, n1 = coeff_rows.shape
    acc = np.broadcast_to(coeff_rows[:, -1:], (rows, points.shape[0])).astype(
        np.result_type(coeff_rows, points))
    for n in range(n1 - 2, -1, -1):
        acc *= points
        acc += coeff_rows[:, n:n + 1]
    return acc


def evaluate_on_grid(coeff_rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Horner evaluation of each coefficient row at each of the K points
    -> (rows, K)."""
    return horner(coeff_rows, points)


def tail_sup_bound(model: CoefficientModel, N_t: int, rho: float,
                   fail_exp: float = DEFAULT_FAIL_EXP) -> tuple[float, float]:
    """Certified tail bound: (bound, log_fail_prob).

    bound = sum_{n>N_t} a_n rho^n sqrt(n - N_t + fail_exp).  The event
    {sup of the dropped tail over the rho-circle > bound} has probability
    at most e^{-fail_exp}/(1-e^{-1}): each coefficient obeys
    P[|zeta_n| >= sqrt(n - N_t + fail_exp)] = e^{-(n-N_t+fail_exp)} and the
    triangle inequality plus a union bound do the rest.
    """
    if not (0.0 < rho < 1.0):
        raise InvalidRadius(f"rho must lie in (0, 1), got {rho}")
    if not (0 < fail_exp < np.inf):
        raise DomainError(f"fail_exp must lie in (0, inf), got {fail_exp}")
    log_fail_prob = -float(fail_exp) - float(np.log(1.0 - np.exp(-1.0)))
    if model.kind == "Explicit":
        seq = np.asarray(model.explicit_seq)
        n = np.arange(len(seq))
        keep = n > N_t
        bound = float(np.sum(seq[keep] * rho ** n[keep]
                             * np.sqrt(n[keep] - N_t + fail_exp)))
        return bound, log_fail_prob
    log_r = np.log(rho)
    total = 0.0
    for n, la in log_sq_blocks(model, start=N_t + 1):
        g = 0.5 * la + n * log_r + 0.5 * np.log(n - N_t + fail_exp)
        total += float(np.sum(np.exp(g)))
        last = float(np.exp(g[-1]))
        # sqrt-factor step ratio is decreasing; coefficient ratio handled by
        # the geometric remainder rule
        stop = int(n[-1]) + 1
        sq_now = np.sqrt((stop - N_t + fail_exp) / (stop - 1 - N_t + fail_exp))
        q = max(float(np.exp(g[-1] - g[-2])), rho * sq_now)
        if q < 1.0 and last * q / (1.0 - q) <= 1e-15 * total:
            return total, log_fail_prob


def derivative_sup_bound_rows(coeff_rows: np.ndarray, rho: float) -> np.ndarray:
    """Upper bound sum n |c_n| rho^{n-1} on |F_N'| over the closed rho-disk,
    per row (0 for a constant row).

    Uses an explicit elementwise product and a row-local pairwise sum (no
    BLAS) so each row's value is independent of the batch it sits in.
    """
    n = np.arange(1, coeff_rows.shape[1], dtype=np.float64)
    weights = n * rho ** (n - 1.0)
    return np.sum(np.abs(coeff_rows[:, 1:]) * weights[None, :], axis=1)
