"""Counter-based stream generator: determinism, addressing, moments.

Everything downstream (samples, couplings, estimator reproducibility)
rests on these streams being pure functions of (seed, stream, purpose,
counter), so the tests here check exact recomputability and random
access alongside the usual distributional sanity.
"""

import numpy as np

from gafholes import rng


def _key(seed=0, stream=0, purpose=rng.PURPOSE_SAMPLE):
    return rng.stream_key(seed, np.asarray(stream, dtype=np.uint64), purpose)


def test_stream_key_reproducible():
    assert np.array_equal(_key(3, 5), _key(3, 5))


def test_stream_key_distinct_across_coordinates():
    base = _key(3, 5, rng.PURPOSE_SAMPLE)
    assert not np.array_equal(base, _key(4, 5, rng.PURPOSE_SAMPLE))
    assert not np.array_equal(base, _key(3, 6, rng.PURPOSE_SAMPLE))
    assert not np.array_equal(base, _key(3, 5, rng.PURPOSE_COUPLING))


def test_stream_key_vectorized_matches_scalar():
    streams = np.arange(8, dtype=np.uint64)
    kv = rng.stream_key(11, streams, rng.PURPOSE_SAMPLE)
    for i in range(8):
        assert np.array_equal(kv[i], _key(11, i))


def test_mix64_deterministic_and_sensitive():
    x = np.arange(1000, dtype=np.uint64)
    a = rng.mix64(x)
    assert np.array_equal(a, rng.mix64(x))
    # consecutive inputs must land far apart after mixing
    assert len(np.unique(a)) == len(a)
    assert np.min(np.abs(a[1:].astype(np.int64) - a[:-1].astype(np.int64))) > 0


def test_uniforms_open_interval_and_random_access():
    u = rng.uniforms(_key(), np.arange(100000, dtype=np.uint64))
    assert u.min() > 0.0
    assert u.max() < 1.0
    # mean 1/2, variance 1/12
    assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12.0 * len(u))
    assert abs(u.var() - 1.0 / 12.0) < 5e-4
    one = rng.uniforms(_key(), np.asarray([777], dtype=np.uint64))
    assert u[777] == one[0]


def test_complex_gaussians_moments():
    z = rng.complex_gaussians(_key(), np.arange(200000, dtype=np.uint64))
    n = len(z)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 4.0 / np.sqrt(n)
    assert abs(z.real.var() - 0.5) < 0.01
    assert abs(z.imag.var() - 0.5) < 0.01
    assert abs(np.mean(z)) < 4.0 / np.sqrt(2.0 * n)


def test_complex_gaussians_index_addressable():
    z = rng.complex_gaussians(_key(1, 2), np.arange(32, dtype=np.uint64))
    z9 = rng.complex_gaussians(_key(1, 2), np.asarray([9], dtype=np.uint64))
    assert z[9] == z9[0]


def test_gaussian_rows_match_hand_built_keys_and_indices():
    streams = np.asarray([0, 7, 3, 1 << 40], dtype=np.uint64)
    for purpose, lo, hi in ((rng.PURPOSE_SAMPLE, 0, 9),
                            (rng.PURPOSE_TILT_TAIL, 17, 40),
                            (rng.PURPOSE_JOINT_MOMENT, 5, 5)):
        keys = rng.stream_key(21, streams, purpose)[:, None]
        idx = np.arange(lo, hi, dtype=np.uint64)[None, :]
        ref = rng.complex_gaussians(keys, idx)
        got = rng.gaussian_rows(21, streams, purpose, lo, hi)
        assert got.shape == (4, hi - lo)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    # int64 stream ids address the same streams as uint64 ones
    assert np.array_equal(rng.gaussian_rows(21, [0, 7], 1, 0, 4),
                          rng.gaussian_rows(21, streams[:2], 1, 0, 4))


def test_complex_gaussians_streams_uncorrelated():
    idx = np.arange(50000, dtype=np.uint64)
    z0 = rng.complex_gaussians(_key(0, 0), idx)
    z1 = rng.complex_gaussians(_key(0, 1), idx)
    assert not np.array_equal(z0, z1)
    assert abs(np.mean(z0 * np.conj(z1))) < 4.0 / np.sqrt(len(z0))
