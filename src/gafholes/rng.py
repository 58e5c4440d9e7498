"""Counter-based random streams for reproducible Monte Carlo.

Design: every random draw is a pure function of (seed, stream_id, purpose,
counter).  A 64-bit key is derived once per (seed, stream_id, purpose); the
word for counter c is splitmix-style

    word(c) = mix64(key + GOLDEN * (c + 1))        (all mod 2^64)

with mix64 the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Uniforms map a word w to ((w >> 11) + 0.5) * 2^-53, which lies strictly
inside (0, 1) so logs never overflow.  Complex standard Gaussians (density
(1/pi) e^{-|z|^2}, i.e. Re and Im independent N(0, 1/2)) use Box-Muller:

    zeta = sqrt(-log(u1)) * exp(2*pi*i*u2)

from the uniforms at counters (2n, 2n+1) for coefficient index n.  The whole
uniform-to-Gaussian path is part of the reproducibility contract: trial t is
addressable without generating trials 0..t-1, and results are bit-identical
for any batch size or thread count because every operation is elementwise.

All arithmetic runs on numpy uint64 arrays (wrapping multiply/add), never on
numpy scalars, to avoid scalar-overflow warnings and keep a single code path.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SEED_TAG = np.uint64(0xA0761D6478BD642F)
_PURPOSE_TAG = np.uint64(0xE7037ED1A0B428DB)

# purpose tags separating counter spaces that share a (seed, stream_id)
PURPOSE_SAMPLE = 1          # plain GAF coefficient sampling
PURPOSE_SPLIT_PRIMARY = 2   # zeta' in the splitting coupling
PURPOSE_SPLIT_SECONDARY = 3 # zeta'' in the splitting coupling
PURPOSE_COUPLING = 4        # mixture/rejection coupling draws
PURPOSE_TILT_MIDDLE = 5     # tilted estimator, middle block
PURPOSE_TILT_TAIL = 6       # tilted estimator, tail block
PURPOSE_JOINT_MOMENT = 7    # joint negative-moment Monte Carlo check


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (vectorized, wrapping)."""
    z = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= _M1
        z ^= z >> np.uint64(27)
        z *= _M2
        z ^= z >> np.uint64(31)
    return z


def stream_key(seed: int, stream_id, purpose: int) -> np.ndarray:
    """Derive per-stream keys.  stream_id may be a scalar or uint64 array.

    Returns a uint64 array shaped like stream_id (0-d for scalars).
    """
    s = np.asarray(stream_id, dtype=np.uint64)
    with np.errstate(over="ignore"):
        k = mix64(np.asarray(np.uint64(seed % (1 << 64))) ^ _SEED_TAG)
        k = mix64(k ^ (s * GOLDEN))
        k = mix64(k ^ (np.uint64(purpose) * _PURPOSE_TAG))
    return k


def words(key: np.ndarray, counters) -> np.ndarray:
    """Raw 64-bit words for the given counters (broadcast against key)."""
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(key + GOLDEN * (c + np.uint64(1)))


def uniforms(key: np.ndarray, counters) -> np.ndarray:
    """Uniforms in the open interval (0, 1), one per counter."""
    w = words(key, counters)
    return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def complex_gaussians(key: np.ndarray, index) -> np.ndarray:
    """Standard complex Gaussians for coefficient indices (Box-Muller).

    index: integer array; draw n consumes the uniforms at counters 2n, 2n+1.
    """
    n = np.asarray(index, dtype=np.uint64)
    u1 = uniforms(key, np.uint64(2) * n)
    u2 = uniforms(key, np.uint64(2) * n + np.uint64(1))
    radius = np.sqrt(-np.log(u1))
    angle = 2.0 * np.pi * u2
    return radius * (np.cos(angle) + 1j * np.sin(angle))


def gaussian_rows(seed: int, streams, purpose: int, lo: int, hi: int) -> np.ndarray:
    """The row sampler: Gaussians at indices lo..hi-1 of each stream's key.

    Shape (len(streams), hi - lo); every batch of draws comes from here.
    """
    keys = stream_key(seed, streams, purpose)[:, None]
    return complex_gaussians(keys, np.arange(lo, hi, dtype=np.uint64)[None, :])
