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
The moduli sqrt(-log(u1)) and phases exp(2 pi i u2) are separately addressable
under the same contract, and a Gaussian is their product bit for bit.
gaussian_rows fills wide batches in row blocks of about _BLOCK_DRAWS draws,
so that each block's temporaries stay in cache; since every operation is
elementwise, the blocks change no draw.

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

# gaussian_rows draws about this many draws (at least one row) at a time,
# so that the temporaries of a block stay in cache
_BLOCK_DRAWS = 1 << 15


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


def gaussian_moduli(key: np.ndarray, index) -> np.ndarray:
    """Box-Muller moduli sqrt(-log u1) of draws n (u1 at counter 2n)."""
    n = np.asarray(index, dtype=np.uint64)
    return np.sqrt(-np.log(uniforms(key, np.uint64(2) * n)))


def unit_phases(key: np.ndarray, index) -> np.ndarray:
    """Box-Muller phases exp(2 pi i u2) of draws n (u2 at counter 2n + 1)."""
    n = np.asarray(index, dtype=np.uint64)
    angle = 2.0 * np.pi * uniforms(key, np.uint64(2) * n + np.uint64(1))
    z = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=z.real)
    np.sin(angle, out=z.imag)
    return z


def complex_gaussians(key: np.ndarray, index) -> np.ndarray:
    """Standard complex Gaussians of draws n (index): moduli times phases."""
    z = unit_phases(key, index)
    z *= gaussian_moduli(key, index)
    return z


def gaussian_rows(seed: int, streams, purpose: int, lo: int, hi: int,
                  moduli: bool = False) -> np.ndarray:
    """The row sampler: Gaussians at indices lo..hi-1 of each stream's key,
    or with moduli=True their moduli alone.

    Shape (len(streams), hi - lo); every batch of draws comes from here.
    Rows are drawn in blocks of _BLOCK_DRAWS // (hi - lo) rows (at least
    one), each bit for bit the rows of the whole batch.
    """
    keys = stream_key(seed, streams, purpose)[:, None]
    idx = np.arange(lo, hi, dtype=np.uint64)[None, :]
    draw = gaussian_moduli if moduli else complex_gaussians
    step = max(1, _BLOCK_DRAWS // max(idx.size, 1))
    if keys.shape[0] <= step:
        return draw(keys, idx)
    out = np.empty((keys.shape[0], idx.size), dtype=float if moduli else complex)
    for i in range(0, keys.shape[0], step):
        out[i:i + step] = draw(keys[i:i + step], idx)
    return out
