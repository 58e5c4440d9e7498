"""Deterministic coefficient models a_n for Gaussian Taylor series.

A model fixes the non-random weights a_n >= 0 of F(z) = sum zeta_n a_n z^n.
Supported kinds:

  Hyperbolic(L):   a_n^2 = Gamma(n+L) / (Gamma(L) Gamma(n+1)),  L > 0.
                   Recurrence a_{n+1}^2 = a_n^2 (L+n)/(n+1); variance on the
                   circle of radius r is (1-r^2)^{-L} in closed form.
  PowerLaw(L):     a_0 = 1, a_n = n^{(L-1)/2} for n >= 1 (comparability
                   constants taken as exactly 1).
  ConstantUnit:    a_n = 1 (coincides termwise with Hyperbolic L=1).
  Explicit(seq):   a finite non-negative sequence, zero beyond its end.

All logarithms are natural.  Hyperbolic weights are computed by the exact
multiplicative recurrence in log space (never by Gamma calls), which is
overflow-free and preserves monotonicity of the ratios bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidModel,
    InvalidRadius,
    NoConvergence,
)

HARD_TERM_CAP = 10**7      # index cap of every open-ended series scan
_BLOCK = 1 << 16           # scan block size of sigma_sq and log_plus_sum


@dataclass(frozen=True)
class CoefficientModel:
    """Descriptor of a coefficient sequence; immutable and hashable."""

    kind: str
    L: Optional[float] = None
    explicit_seq: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind in ("Hyperbolic", "PowerLaw"):
            if self.L is None or not (self.L > 0) or not np.isfinite(self.L):
                raise InvalidModel(f"kind {self.kind} needs intensity L > 0, got L={self.L}")
        elif self.kind == "ConstantUnit":
            pass
        elif self.kind == "Explicit":
            if not self.explicit_seq:
                raise InvalidModel("Explicit model needs a non-empty explicit_seq")
            seq = tuple(float(x) for x in self.explicit_seq)
            if any(x < 0 or not np.isfinite(x) for x in seq):
                raise InvalidModel("explicit_seq entries must be finite and >= 0")
            object.__setattr__(self, "explicit_seq", seq)
        else:
            raise InvalidModel(f"unknown model kind {self.kind!r}")

    def describe(self) -> dict:
        """Flat serializable descriptor (CLI config format)."""
        d = {"kind": self.kind}
        if self.L is not None:
            d["L"] = float(self.L)
        if self.explicit_seq is not None:
            d["explicit_seq"] = list(self.explicit_seq)
        return d


def hyperbolic(L: float) -> CoefficientModel:
    return CoefficientModel("Hyperbolic", L=float(L))


def power_law(L: float) -> CoefficientModel:
    return CoefficientModel("PowerLaw", L=float(L))


def constant_unit() -> CoefficientModel:
    return CoefficientModel("ConstantUnit")


def explicit(seq) -> CoefficientModel:
    return CoefficientModel("Explicit", explicit_seq=tuple(float(x) for x in seq))


def model_from_descriptor(d: dict) -> CoefficientModel:
    return CoefficientModel(
        kind=d["kind"],
        L=d.get("L"),
        explicit_seq=tuple(d["explicit_seq"]) if d.get("explicit_seq") else None,
    )


# -- log a_n^2 ---------------------------------------------------------------

def _hyperbolic_periods(model: CoefficientModel, start: int, stop: int,
                        period: int, carry: Optional[float]):
    """Hyperbolic log a_n^2 on [start, stop) in runs of `period` indices,
    and the carry log a_stop^2 into the next run.

    carry is log a_start^2 (ignored at start = 0).  Within a run the values
    are base + a running sum of log a_{n+1}^2 - log a_n^2 = log(L+n) -
    log(1+n), one cumsum along the rows of a (runs, period) array; the base
    of each run is the scalar carry of the one before, so the values do not
    depend on how many runs one call covers.
    """
    n = np.arange(start, stop, dtype=np.float64).reshape(-1, period)
    steps = np.log(model.L + n) - np.log(1.0 + n)
    sums = np.cumsum(steps[:, :-1], axis=1)
    last = n[:, -1]
    up = np.log(model.L + last).tolist()
    down = np.log(1.0 + last).tolist()
    ends = (sums[:, -1] if period > 1 else np.zeros(len(last))).tolist()
    bases = np.empty(len(last))
    b = 0.0 if start == 0 else carry
    for j in range(len(last)):
        bases[j] = b
        b = float(b + ends[j] + up[j] - down[j])
    out = np.empty_like(n)
    out[:, 0] = bases
    out[:, 1:] = bases[:, None] + sums
    return out.reshape(-1), b


def log_sq_block(model: CoefficientModel, start: int, stop: int,
                 carry: Optional[float] = None) -> np.ndarray:
    """log(a_n^2) for n in [start, stop).

    For Hyperbolic, `carry` must be log(a_start^2) when start > 0
    (log_sq_blocks carries it from block to block); passing carry=None with
    start=0 is the common entry point.  Other kinds ignore carry.
    """
    if model.kind == "Hyperbolic":
        if start > 0 and carry is None:
            raise ValueError("Hyperbolic block continuation needs carry")
        return _hyperbolic_periods(model, start, stop, stop - start, carry)[0]
    n = np.arange(start, stop, dtype=np.float64)
    if model.kind == "PowerLaw":
        out = np.where(n > 0, (model.L - 1.0) * np.log(np.maximum(n, 1.0)), 0.0)
        return out
    if model.kind == "ConstantUnit":
        return np.zeros(stop - start)
    # Explicit
    seq = np.asarray(model.explicit_seq)
    out = np.full(stop - start, -np.inf)
    m = n.astype(int)
    inside = m < len(seq)
    with np.errstate(divide="ignore"):
        out[inside] = 2.0 * np.log(seq[m[inside]])
    return out


def log_sq_range(model: CoefficientModel, n_max: int) -> np.ndarray:
    """log(a_n^2) for n = 0..n_max inclusive."""
    if n_max < 0:
        raise IndexOutOfRange(f"n_max must be >= 0, got {n_max}")
    return log_sq_block(model, 0, n_max + 1)


def coefficient(model: CoefficientModel, n: int) -> float:
    """a_n >= 0."""
    if n < 0:
        raise IndexOutOfRange(f"coefficient index must be >= 0, got {n}")
    if model.kind == "Explicit":
        if n >= len(model.explicit_seq):
            raise IndexOutOfRange(
                f"Explicit model has {len(model.explicit_seq)} coefficients, index {n}")
        return model.explicit_seq[n]
    if model.kind == "ConstantUnit":
        return 1.0
    if model.kind == "PowerLaw":
        return 1.0 if n == 0 else float(n) ** ((model.L - 1.0) / 2.0)
    return float(np.exp(0.5 * log_sq_at(model, n)))


def coefficients(model: CoefficientModel, n_max: int) -> np.ndarray:
    """a_n for n = 0..n_max as a vector."""
    if model.kind == "Explicit":
        seq = np.asarray(model.explicit_seq)
        out = np.zeros(n_max + 1)
        take = min(n_max + 1, len(seq))
        out[:take] = seq[:take]
        return out
    return np.exp(0.5 * log_sq_range(model, n_max))


def is_nonincreasing(model: CoefficientModel) -> bool:
    """Whether a_n is non-increasing in n (exact for the analytic kinds)."""
    if model.kind == "ConstantUnit":
        return True
    if model.kind in ("Hyperbolic", "PowerLaw"):
        return model.L <= 1.0
    seq = np.asarray(model.explicit_seq)
    return bool(np.all(np.diff(seq) <= 0.0))


def log_sq_at(model: CoefficientModel, n: int) -> float:
    """log(a_n^2), chunked so large n never allocates the whole range."""
    if model.kind != "Hyperbolic":
        block = log_sq_block(model, n, n + 1)
        return float(block[0])
    carry = 0.0
    for pos in range(0, n, HARD_TERM_CAP):
        k = np.arange(pos, min(pos + HARD_TERM_CAP, n), dtype=np.float64)
        carry += float(np.sum(np.log(model.L + k) - np.log(1.0 + k)))
    return carry


def log_sq_blocks(model: CoefficientModel, start: int = 0, size: int = 1 << 14,
                  max_size: int = 1 << 20, period: int = 0):
    """Yield (n, log a_n^2) over consecutive index blocks from `start` on.

    n is the integer index array of the block.  The first block holds `size`
    indices and each later block twice as many as the one before, up to
    `max_size`.  The Hyperbolic recurrence carries across blocks (seeded by
    log_sq_at when start > 0).  The caller stops the scan with its own rule;
    the scan raises NoConvergence instead of starting a block more than
    HARD_TERM_CAP indices past `start`.

    With period > 0 (size and max_size multiples of it) a block is a run of
    whole periods whose values are bit for bit those of blocks of `period`
    indices, and the cap applies per period: the last block ends with the
    last period that starts within HARD_TERM_CAP of `start`.

    Geometric remainder rule used by the open-ended scans: for all supported
    kinds the coefficient ratio a_{n+1}/a_n is decreasing when it exceeds 1
    (L > 1) and below 1 when it does not (L <= 1), so every future step ratio
    of a scanned series is bounded by max(current step ratio, radius factor);
    the remainder past the last scanned term is then a geometric series.
    """
    carried = model.kind == "Hyperbolic"
    carry = log_sq_at(model, start) if carried and start > 0 else None
    pos = start
    while pos - start <= HARD_TERM_CAP:
        if period:
            size = min(size, (start + HARD_TERM_CAP - pos) // period * period
                       + period)
        stop = pos + size
        if carried:
            la, carry = _hyperbolic_periods(model, pos, stop, period or size,
                                            carry)
        else:
            la = log_sq_block(model, pos, stop)
        yield np.arange(pos, stop), la
        pos = stop
        size = min(2 * size, max_size)
    raise NoConvergence(
        f"series scan from n={start} did not converge within {HARD_TERM_CAP} terms")


# -- sums on circles ---------------------------------------------------------

def _check_radius(r: float, lo_open: bool = False):
    if not (0.0 <= r < 1.0) or (lo_open and r == 0.0):
        lo = "(0" if lo_open else "[0"
        raise InvalidRadius(f"radius must lie in {lo}, 1), got r={r}")


def sigma_sq(model: CoefficientModel, r: float) -> float:
    """Variance on the circle: sigma_F(r)^2 = sum a_n^2 r^{2n}.

    Hyperbolic uses the closed form (1-r^2)^{-L}; other kinds sum with a
    geometric-remainder stopping rule at relative tail 1e-14.
    """
    _check_radius(r)
    if model.kind == "Hyperbolic":
        return float((1.0 - r * r) ** (-model.L))
    if model.kind == "ConstantUnit":
        return float(1.0 / (1.0 - r * r))
    if model.kind == "Explicit":
        seq = np.asarray(model.explicit_seq)
        n = np.arange(len(seq))
        return float(np.sum(seq**2 * r ** (2 * n)))
    if r == 0.0:
        return 1.0
    # PowerLaw: terms n^{L-1} r^{2n}.  Every future step ratio is bounded by
    # q = max(current ratio, r^2): the a_n^2-ratio is decreasing for L > 1
    # and below 1 (increasing toward 1) for L <= 1.
    log_r2 = 2.0 * np.log(r)
    total = 0.0
    for n, la in log_sq_blocks(model, size=_BLOCK, max_size=_BLOCK):
        g = la + n * log_r2
        total += float(np.sum(np.exp(g)))
        last = float(np.exp(g[-1]))
        q = max(float(np.exp(g[-1] - g[-2])), r * r)
        if q < 1.0 and last * q / (1.0 - q) <= 1e-14 * total:
            return total


def log_plus_sum(model: CoefficientModel, r: float) -> float:
    """The planar functional S_F(r) = sum_n log_+(a_n^2 r^{2n}).

    Scans past the maximizer of the log-summand and stops at the first
    non-positive summand beyond it (the summand decreases to -inf afterwards
    for every supported kind).
    """
    _check_radius(r, lo_open=True)
    if model.kind == "Explicit":
        seq = np.asarray(model.explicit_seq)
        with np.errstate(divide="ignore"):
            g = 2.0 * np.log(np.where(seq > 0, seq, np.nan)) \
                + 2.0 * np.arange(len(seq)) * np.log(r)
        g = np.where(np.isnan(g), -np.inf, g)
        return float(np.sum(g[g > 0.0]))
    log_r2 = 2.0 * np.log(r)
    total = 0.0
    for n, la in log_sq_blocks(model, size=_BLOCK, max_size=_BLOCK):
        g = la + n * log_r2
        total += float(np.sum(g[g > 0.0]))
        # stop once the block is entirely past the maximizer and non-positive
        if g[-1] <= 0.0 and g[-1] <= g[0]:
            return total
