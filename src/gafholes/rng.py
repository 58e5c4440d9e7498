"""Counter-based random streams for reproducible Monte Carlo.

Design: every random draw is a pure function of (seed, stream_id, purpose,
counter).  A 64-bit key is derived once per (seed, stream_id, purpose); the
word for counter c is splitmix-style

    word(c) = mix64(key + GOLDEN * (c + 1))        (all mod 2^64)

with mix64 the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Uniforms map a word w to fl((w >> 11) + 0.5) * 2^-53; uniforms and both
Box-Muller halves below compute them with one kernel, _uniforms_into.  With
m = w >> 11 in [0, 2^53), m + 0.5 is exact for m < 2^52, so every u below
1/2 is the midpoint of its 2^-53 cell and the smallest is 2^-54 (word 0).
From 1/2 on, m + 0.5 needs 54 bits and rounds to even, so u is a cell
edge there, and the top words (m = 2^53 - 1) give u = 1.0 exactly, whose
modulus sqrt(-log u) is 0.  So u lies in [2^-54, 1] and log u never
overflows.  Every modulus is therefore at most MODULUS_CAP: sqrt(-log
2^-54) = sqrt(54 log 2) = 6.1180..., raised by the factor 1 + 2^-40, which
covers the error of np.log and np.sqrt (a few ulps each) and of the
constant itself.  Complex standard
Gaussians (density (1/pi) e^{-|z|^2}, i.e. Re and Im independent
N(0, 1/2)) use Box-Muller:

    zeta = sqrt(-log(u1)) * exp(2*pi*i*u2)

from the uniforms at counters (2n, 2n+1) for coefficient index n.  The whole
uniform-to-Gaussian path is part of the reproducibility contract: trial t is
addressable without generating trials 0..t-1, and results are bit-identical
for any batch size or thread count because every operation is elementwise.
The moduli sqrt(-log(u1)) are separately addressable (gaussian_moduli) under
the same contract, and a Gaussian is its modulus times its phase exp(2 pi i
u2) bit for bit.
gaussian_rows fills wide batches in row blocks of about _BLOCK_DRAWS draws,
so that each block's temporaries stay in cache; since every operation is
elementwise, the blocks change no draw.  complex_gaussians, gaussian_moduli
and gaussian_rows write into a caller-owned out= array when given one; each
call makes its own Box-Muller temporaries (words, shifts, uniforms), so no
state is shared between calls or threads.

All arithmetic is wrapping uint64 ufunc arithmetic.  numpy's scalar + and *
warn on a result that wraps, so the operations that can see numpy scalars
(c + 1 and GOLDEN (c + 1), as the counter 2n + 1 of a 0-d draw index is
one, and the purpose tag) call np.add and np.multiply, which never warn.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

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

# the largest modulus any draw can return (module docstring)
MODULUS_CAP = math.sqrt(54.0 * math.log(2.0)) * (1.0 + 2.0 ** -40)

# gaussian_rows draws about this many draws (at least one row) at a time,
# so that the temporaries of a block stay in cache
_BLOCK_DRAWS = 1 << 15


def _mix_into(z: np.ndarray, t: np.ndarray) -> None:
    """z = mix64(z) in place, with t (z's shape) for the shifts."""
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= _M1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _M2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (vectorized, wrapping)."""
    z = np.array(x, dtype=np.uint64)
    _mix_into(z, np.empty_like(z))
    return z


def is_integer(n) -> bool:
    """Whether n is an int or numpy integer (not a bool): every integer
    argument's test."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def check_seed(seed) -> None:
    """DomainError unless seed is an integer in [0, 2^64)."""
    if not (is_integer(seed) and 0 <= int(seed) < 1 << 64):
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def stream_key(seed: int, stream_id, purpose: int) -> np.ndarray:
    """Derive per-stream keys.  stream_id is an integer or an integer array
    of ids in [0, 2^64), else DomainError (a uint64 array passes on its
    dtype alone).

    Returns a uint64 array shaped like stream_id (0-d for scalars).  Every
    draw comes through here, so these checks cover every sampler.
    """
    check_seed(seed)
    s = np.asarray(stream_id)
    if s.dtype != np.uint64:
        if s.dtype.kind not in "iu" or np.any(s < 0):
            raise DomainError(
                f"stream must be an integer in [0, 2^64), got {stream_id!r}")
        s = s.astype(np.uint64)
    k = mix64(np.asarray(np.uint64(seed)) ^ _SEED_TAG)
    k = mix64(k ^ (s * GOLDEN))
    return mix64(k ^ np.multiply(np.uint64(purpose), _PURPOSE_TAG))


def _temporaries(shape) -> tuple:
    """New (words, shifts, reals) arrays of the given shape."""
    return np.empty(shape, np.uint64), np.empty(shape, np.uint64), np.empty(shape)


def _uniforms_into(u: np.ndarray, key: np.ndarray, c: np.ndarray,
                   w: np.ndarray, t: np.ndarray) -> None:
    """u = the uniforms of key at counters c, with w and t (u's shape) for
    the words and their shifts."""
    np.add(key, np.multiply(GOLDEN, np.add(c, np.uint64(1))), out=w)
    _mix_into(w, t)
    np.right_shift(w, np.uint64(11), out=w)
    np.copyto(u, w, casting="unsafe")
    u += 0.5
    u *= 2.0 ** -53


def _moduli_into(out, key, n, w, t, u) -> np.ndarray:
    _uniforms_into(u, key, np.uint64(2) * n, w, t)
    np.log(u, out=u)
    np.negative(u, out=u)
    return np.sqrt(u, out=out)


def _phases_into(z, key, n, w, t, u) -> np.ndarray:
    _uniforms_into(u, key, np.uint64(2) * n + np.uint64(1), w, t)
    u *= 2.0 * np.pi
    np.cos(u, out=z.real)
    np.sin(u, out=z.imag)
    return z


def _draw_out(key: np.ndarray, n: np.ndarray, out, dtype) -> np.ndarray:
    """out, checked against the broadcast shape of key and n, or a new array."""
    shape = np.broadcast_shapes(np.shape(key), n.shape)
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, the draws {shape}")
    return out


def uniforms(key: np.ndarray, counters) -> np.ndarray:
    """Uniforms in [2^-54, 1], one per counter (broadcast against key); 1.0
    only for the top words (module docstring)."""
    c = np.asarray(counters, dtype=np.uint64)
    u = _draw_out(key, c, None, float)
    _uniforms_into(u, key, c, *_temporaries(u.shape)[:2])
    return u


def gaussian_moduli(key: np.ndarray, index, out=None) -> np.ndarray:
    """Box-Muller moduli sqrt(-log u1) of draws n (u1 at counter 2n), in out
    when given."""
    n = np.asarray(index, dtype=np.uint64)
    out = _draw_out(key, n, out, float)
    return _moduli_into(out, key, n, *_temporaries(out.shape))


def complex_gaussians(key: np.ndarray, index, out=None) -> np.ndarray:
    """Standard complex Gaussians of draws n (index): moduli times phases,
    in out when given."""
    n = np.asarray(index, dtype=np.uint64)
    z = _draw_out(key, n, out, complex)
    w, t, u = _temporaries(z.shape)
    _phases_into(z, key, n, w, t, u)
    z *= _moduli_into(u, key, n, w, t, u)
    return z


def gaussian_rows(seed: int, streams, purpose: int, lo: int, hi: int,
                  moduli: bool = False, out=None) -> np.ndarray:
    """The row sampler: Gaussians at indices lo..hi-1 of each stream's key,
    or with moduli=True their moduli alone, in out when given.

    Shape (len(streams), hi - lo); every batch of draws comes from here.
    Rows are drawn in blocks of _BLOCK_DRAWS // (hi - lo) rows (at least
    one), each bit for bit the rows of the whole batch, and each block
    through complex_gaussians or gaussian_moduli with its slice of out as
    their out.  A caller that passes the same out again gets its entries
    overwritten, never read.
    """
    keys = stream_key(seed, streams, purpose)[:, None]
    idx = np.arange(lo, hi, dtype=np.uint64)[None, :]
    draw = gaussian_moduli if moduli else complex_gaussians
    out = _draw_out(keys, idx, out, float if moduli else complex)
    step = max(1, _BLOCK_DRAWS // max(idx.size, 1))
    for i in range(0, keys.shape[0], step):
        draw(keys[i:i + step], idx, out=out[i:i + step])
    return out
