"""Circulant covariance of values at scaled roots of unity, and the splitting.

For z_j = r e(j/N) (e(t) = e^{2 pi i t}) the covariance Sigma_{jk} =
E[F(z_j) conj(F(z_k))] = sum_n a_n^2 r^{2n} e((j-k)n/N) is circulant and is
diagonalized by the Fourier vectors u_m with entries e(jm/N)/sqrt(N); its
eigenvalues are

    lambda_m = N * sum_{n == m (mod N)} a_n^2 r^{2n}.

The canonical normalization stores the factor N; the matrix-normalized view
(lambda_m / N, matching Sigma/N treatments) is available via scaled=True.

The splitting G = G1 + G2 (for non-increasing a_n) is defined by

    b_n^2 r0^{2n} = sum_{k>=1} [a_{kN}^2 r0^{2kN} - a_{kN+n}^2 r0^{2(kN+n)}]

for 1 <= n <= N-1 (each bracket non-negative), b_n = a_n for n >= N, and
d_n = sqrt(a_n^2 - b_n^2).  Then the values of G1 at the N scaled roots of
unity are iid complex Gaussians with variance

    sigma_G1^2 = N * sum_{k>=1} a_{kN}^2 r0^{2kN}.

All open-ended modular series run in log space (so large N or small r never
underflow the log-determinant) with a geometric remainder rule: past the
scanned blocks every per-term block-to-block ratio is bounded by
q = max(observed ratio, r^{2N}), giving an explicit tail majorant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import rng
from .coeffs import (
    CoefficientModel,
    coefficients,
    is_nonincreasing,
    log_sq_at,
    log_sq_blocks,
    log_sq_range,
)
from .errors import DomainError, EmptySubset, InvalidRadius, NotMonotone, SizeCap

DENSE_SIZE_CAP = 1024
_MODULAR_BLOCK = 1 << 16   # indices per block of the modular scan


@dataclass(frozen=True, eq=False)
class CirculantSpectrum:
    """Eigenvalues of the N-point circulant covariance on the r-circle."""

    r: float
    N: int
    lambdas: np.ndarray        # canonical (Lemma-style) normalization, factor N
    log_lambdas: np.ndarray    # exact logs (reliable even when lambdas underflow)
    log_det: float
    Lambda_max: float

    def scaled(self) -> np.ndarray:
        """The matrix-normalized view lambda_m / N."""
        return self.lambdas / self.N


@dataclass(frozen=True, eq=False)
class SplitModel:
    """Coefficients of the splitting G = G1 + G2 at (r_0, N)."""

    model: CoefficientModel
    r_0: float
    N: int
    b: np.ndarray              # b_1..b_{N-1}; b_n = a_n for n >= N implicitly
    d: np.ndarray              # d_1..d_{N-1}
    sigma_g1_sq: float


def _check_radius(r: float):
    if not (0.0 < r < 1.0):
        raise InvalidRadius(f"radius must lie in (0, 1), got {r}")


def _modular_log_sums(model: CoefficientModel, r: float, N: int,
                      first_block: int) -> np.ndarray:
    """log of S_m = sum_{k >= first_block} a_{kN+m}^2 r^{2(kN+m)}, m = 0..N-1.

    Per-residue logsumexp accumulation over index blocks [kN, (k+1)N), with
    the geometric remainder rule from the module docstring (relative tail
    below 1e-14 per residue).  A finite Explicit sequence is padded with
    -inf (log 0, which logaddexp adds exactly) to whole blocks and folded
    in one reduction.
    """
    log_r2 = 2.0 * np.log(r)
    if model.kind == "Explicit":
        n0, n1 = first_block * N, len(model.explicit_seq)
        g = log_sq_range(model, n1 - 1)[n0:] + np.arange(n0, n1) * log_r2
        g = np.concatenate([g, np.full(-g.size % N, -np.inf)])
        return np.logaddexp.reduce(g.reshape(-1, N), axis=0)
    # each block holds many periods of N indices as the rows of a
    # (periods, N) array; the fold and the stop rule run period by period
    # in the same order as a scan of one period at a time
    size = max(1, _MODULAR_BLOCK // N) * N
    q_floor = float(np.exp(log_r2 * N))
    acc = np.full(N, -np.inf)
    prev_g = None
    for n, la in log_sq_blocks(model, first_block * N, size=size,
                               max_size=size, period=N):
        g = (la + n * log_r2).reshape(-1, N)
        accs = np.logaddexp.accumulate(np.vstack([acc, g]), axis=0)[1:]
        # periods with a predecessor and their step ratio bound q
        lo = 0 if prev_g is not None else 1
        prev = g[:-1] if prev_g is None else np.vstack([prev_g, g[:-1]])
        q = np.maximum(np.max(g[lo:] - prev, axis=1), q_floor)
        with np.errstate(divide="ignore", invalid="ignore"):
            # remainder for residue m <= g_m * q/(1-q)
            rem = g[lo:] + np.log(q / (1.0 - q))[:, None]
        stop = (q < 1.0) & np.all(rem <= accs[lo:] + np.log(1e-14), axis=1)
        if stop.any():
            return accs[lo + int(np.argmax(stop))].copy()
        acc, prev_g = accs[-1], g[-1]


def circulant_eigenvalues(model: CoefficientModel, r: float, N: int) -> CirculantSpectrum:
    """Spectrum of the circulant covariance at N scaled roots of unity."""
    _check_radius(r)
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    log_s = _modular_log_sums(model, r, N, first_block=0)
    log_lam = np.log(float(N)) + log_s
    lambdas = np.exp(log_lam)
    return CirculantSpectrum(
        r=float(r),
        N=int(N),
        lambdas=lambdas,
        log_lambdas=log_lam,
        log_det=float(np.sum(log_lam)),
        Lambda_max=float(np.max(lambdas)),
    )


def covariance_matrix(model: CoefficientModel, r: float, N: int) -> np.ndarray:
    """Dense N x N circulant covariance (N <= 1024), Hermitian by construction."""
    _check_radius(r)
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if N > DENSE_SIZE_CAP:
        raise SizeCap(f"dense covariance capped at N={DENSE_SIZE_CAP}, got {N}")
    s = np.exp(_modular_log_sums(model, r, N, first_block=0))  # lambda_m / N
    m = np.arange(N)
    # first row c_d = sum_m s_m e(d m / N); build half and mirror so the
    # matrix is exactly Hermitian in floating point
    half = N // 2 + 1
    phases = np.exp(2j * np.pi * np.outer(m[:half], m) / N)
    c = np.empty(N, dtype=complex)
    c[:half] = phases @ s
    c[half:] = np.conj(c[1:N - half + 1][::-1])
    c[0] = c[0].real
    if N % 2 == 0:
        c[N // 2] = c[N // 2].real
    d = (m[:, None] - m[None, :]) % N
    return c[d]


def split_coefficients(model: CoefficientModel, r_0: float, N: int) -> SplitModel:
    """The splitting coefficients (b_n, d_n) and sigma_G1^2 at (r_0, N)."""
    _check_radius(r_0)
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if not is_nonincreasing(model):
        raise NotMonotone(
            "splitting requires non-increasing coefficients "
            f"(model kind={model.kind}, L={model.L})")
    log_r2 = 2.0 * np.log(r_0)
    # log T_m = log sum_{k>=1} a_{kN+m}^2 r0^{2(kN+m)} for m = 0..N-1
    log_t = _modular_log_sums(model, r_0, N, first_block=1)
    sigma_g1_sq = float(N * np.exp(log_t[0]))
    if N == 1:
        return SplitModel(model=model, r_0=float(r_0), N=1,
                          b=np.zeros(0), d=np.zeros(0),
                          sigma_g1_sq=sigma_g1_sq)
    # b_n^2 r0^{2n} = S0 - T_n with S0 = T_0; each bracket is non-negative
    # because a is non-increasing, so S0 >= T_n termwise.
    n = np.arange(1, N)
    if np.isneginf(log_t[0]):
        b_sq = np.zeros(N - 1)
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            diff = -np.expm1(log_t[1:] - log_t[0])    # 1 - T_n/S0 in [0, 1]
        diff = np.maximum(diff, 0.0)
        log_b_sq = (log_t[0] + np.log(np.where(diff > 0, diff, np.nan))
                    - n * log_r2)
        b_sq = np.where(diff > 0, np.exp(log_b_sq), 0.0)
    la = log_sq_range(model, N - 1)
    a_sq = np.exp(la[1:])
    clamped = b_sq - a_sq
    if np.any(clamped > 1e-12 * np.maximum(a_sq, 1e-300)):
        warnings.warn(
            "splitting clamp exceeded 1e-12: b_n^2 > a_n^2 by up to "
            f"{float(np.max(clamped)):.3e}", RuntimeWarning)
    b_sq = np.minimum(b_sq, a_sq)
    d_sq = np.maximum(a_sq - b_sq, 0.0)
    return SplitModel(model=model, r_0=float(r_0), N=int(N),
                      b=np.sqrt(b_sq), d=np.sqrt(d_sq),
                      sigma_g1_sq=sigma_g1_sq)


def split_variance_gap(model: CoefficientModel, r_0: float, N: int) -> Tuple[float, float]:
    """(sigma_F^2 - sigma_G1^2, head sum_{n<N} a_n^2 r0^{2n}).

    The gap is computed through the exact identity
    gap = a_0^2 + sum_{1<=n<N} d_n^2 r0^{2n}, which is non-negative term by
    term (the subtraction form cancels catastrophically when the gap is
    small relative to sigma^2).
    """
    split = split_coefficients(model, r_0, N)
    gap = float(np.exp(log_sq_at(model, 0)))  # a_0^2
    if N > 1:
        n = np.arange(1, N)
        gap = float(gap + np.sum(split.d**2 * np.exp(n * 2.0 * np.log(r_0))))
    la = log_sq_range(model, N - 1)
    head = float(np.sum(np.exp(la + np.arange(N) * 2.0 * np.log(r_0))))
    return float(gap), head


def principal_minor_min_eigen(sigma: np.ndarray, index_subset) -> float:
    """Minimal eigenvalue of the principal minor on the given index subset."""
    idx = np.asarray(list(index_subset), dtype=int)
    if idx.size == 0:
        raise EmptySubset("index subset must be non-empty")
    minor = sigma[np.ix_(idx, idx)]
    return float(np.linalg.eigvalsh(minor)[0])


def split_sample_batch(split: SplitModel, N_t: int, seed: int, stream_ids):
    """Coupled samples of (G, G1, G2) coefficient rows on shared streams.

    Returns (g, g1, g2), each of shape (len(stream_ids), N_t+1) with a zero
    0-th column; g = g1 + g2 exactly, g has the law of the centered series
    (coefficient variances a_n^2), G1 uses b_n (a_n beyond N-1) with the
    primary stream, G2 uses d_n (zero beyond N-1) with the secondary stream.
    """
    z1 = rng.gaussian_rows(seed, stream_ids, rng.PURPOSE_SPLIT_PRIMARY, 1, N_t + 1)
    z2 = rng.gaussian_rows(seed, stream_ids, rng.PURPOSE_SPLIT_SECONDARY, 1, N_t + 1)
    a = coefficients(split.model, N_t)
    b_full = a.copy()
    d_full = np.zeros(N_t + 1)
    upto = min(split.N - 1, N_t)
    b_full[1:upto + 1] = split.b[:upto]
    d_full[1:upto + 1] = split.d[:upto]
    B = len(z1)
    g1 = np.zeros((B, N_t + 1), dtype=complex)
    g2 = np.zeros((B, N_t + 1), dtype=complex)
    g1[:, 1:] = z1 * b_full[None, 1:]
    g2[:, 1:] = z2 * d_full[None, 1:]
    return g1 + g2, g1, g2


__all__ = [
    "CirculantSpectrum",
    "SplitModel",
    "circulant_eigenvalues",
    "covariance_matrix",
    "split_coefficients",
    "split_variance_gap",
    "principal_minor_min_eigen",
    "split_sample_batch",
    "DENSE_SIZE_CAP",
]
