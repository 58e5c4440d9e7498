"""Counter-based stream generator: determinism, addressing, moments.

Everything downstream (samples, couplings, estimator reproducibility)
rests on these streams being pure functions of (seed, stream, purpose,
counter), so the tests here check exact recomputability and random
access alongside the usual distributional sanity.
"""

import math
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest

from gafholes import oracles, rng
from gafholes.errors import DomainError


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


def _box_muller_rows(seed, streams, purpose, lo, hi):
    """(moduli, Gaussians) of gaussian_rows, built by hand in one piece."""
    keys = rng.stream_key(seed, streams, purpose)[:, None]
    n = np.arange(lo, hi, dtype=np.uint64)[None, :]
    radius = np.sqrt(-np.log(rng.uniforms(keys, np.uint64(2) * n)))
    angle = 2.0 * np.pi * rng.uniforms(keys, np.uint64(2) * n + np.uint64(1))
    return radius, radius * (np.cos(angle) + 1j * np.sin(angle))


@pytest.mark.parametrize("cols", [0, 1, 16, 93, 193])
def test_row_blocks_change_no_draw(cols):
    # row counts on both sides of one block, and over two blocks and a part
    step = max(1, rng._BLOCK_DRAWS // max(cols, 1))
    lo = 3
    for S in (step - 1, step, step + 1, 2 * step + 3):
        streams = np.arange(S, dtype=np.uint64) * np.uint64(7) + np.uint64(5)
        radius, z = _box_muller_rows(9, streams, rng.PURPOSE_TILT_MIDDLE,
                                     lo, lo + cols)
        for moduli, ref in ((False, z), (True, radius)):
            # a draw of another width first: no draw may read what an
            # earlier one left in memory
            wide = rng.gaussian_rows(9, streams[:2], rng.PURPOSE_TILT_MIDDLE,
                                     lo, lo + cols + 57, moduli)
            got = rng.gaussian_rows(9, streams, rng.PURPOSE_TILT_MIDDLE,
                                    lo, lo + cols, moduli)
            assert got.shape == (S, cols) and got.dtype == ref.dtype
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
            # into a caller's buffer: that buffer, every entry overwritten
            buf = np.full_like(ref, np.nan)
            assert rng.gaussian_rows(9, streams, rng.PURPOSE_TILT_MIDDLE,
                                     lo, lo + cols, moduli, out=buf) is buf
            assert np.array_equal(buf.view(np.uint64), ref.view(np.uint64))
            again = rng.gaussian_rows(9, streams[:2], rng.PURPOSE_TILT_MIDDLE,
                                      lo, lo + cols + 57, moduli)
            assert np.array_equal(again.view(np.uint64), wide.view(np.uint64))
            for i in {0, step - 1, step, S - 1} & set(range(S)):
                one = rng.gaussian_rows(9, streams[i:i + 1],
                                        rng.PURPOSE_TILT_MIDDLE, lo, lo + cols,
                                        moduli)
                assert np.array_equal(one.view(np.uint64),
                                      got[i:i + 1].view(np.uint64)), (S, i)


def test_draws_into_an_out_of_another_shape_are_refused():
    keys = rng.stream_key(9, np.arange(3, dtype=np.uint64), 1)[:, None]
    idx = np.arange(5, dtype=np.uint64)[None, :]
    # one key's (1, 5) draws would fill every row of a (3, 5) out unrefused
    for key, shape in ((keys, (3, 4)), (keys, (15,)), (keys[:1], (3, 5))):
        for draw, dtype in ((rng.complex_gaussians, complex),
                            (rng.gaussian_moduli, float)):
            with pytest.raises(ValueError, match="shape"):
                draw(key, idx, out=np.empty(shape, dtype=dtype))
    # one row too many would be left as it was
    for moduli, dtype in ((False, complex), (True, float)):
        with pytest.raises(ValueError, match="shape"):
            rng.gaussian_rows(9, [0, 1, 2], 1, 0, 5, moduli,
                              out=np.empty((4, 5), dtype=dtype))


def test_four_threads_drawing_the_same_ids_at_once_draw_the_serial_values():
    # complex rows, moduli rows and uniforms of the same streams, in one
    # row block and over several, drawn by four threads at once, each in
    # its own order: every call makes its own temporaries, so every thread
    # gets the serial draws bit for bit
    streams = np.arange(300, dtype=np.uint64)
    keys = rng.stream_key(4, streams, rng.PURPOSE_SAMPLE)[:, None]
    counters = np.arange(200, dtype=np.uint64)[None, :]
    jobs = [lambda cols=cols, moduli=moduli: rng.gaussian_rows(
                4, streams, rng.PURPOSE_SAMPLE, 3, 3 + cols, moduli)
            for cols in (16, 193) for moduli in (False, True)]
    jobs.append(lambda: rng.uniforms(keys, counters))
    want = [job().view(np.uint64) for job in jobs]
    assert streams.size * 16 <= rng._BLOCK_DRAWS < streams.size * 193
    start, bad = threading.Barrier(4), []

    def run(t):
        start.wait()
        for _ in range(10):
            for j in range(len(jobs)):
                j = (j + t) % len(jobs)
                if not np.array_equal(jobs[j]().view(np.uint64), want[j]):
                    bad.append((t, j))

    threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and bad == []


def test_complex_gaussians_streams_uncorrelated():
    idx = np.arange(50000, dtype=np.uint64)
    z0 = rng.complex_gaussians(_key(0, 0), idx)
    z1 = rng.complex_gaussians(_key(0, 1), idx)
    assert not np.array_equal(z0, z1)
    assert abs(np.mean(z0 * np.conj(z1))) < 4.0 / np.sqrt(len(z0))


# keys and index ranges for the moduli / phases split: one stream, a column
# of streams against a row of indices (as gaussian_rows draws), and indices
# past 2^32
_SPLIT_CASES = (
    (_key(0, 0), np.arange(64, dtype=np.uint64)),
    (_key(5, 9, rng.PURPOSE_TILT_MIDDLE), np.arange(100, 357, dtype=np.uint64)),
    (rng.stream_key(3, np.asarray([0, 7, 1 << 40], dtype=np.uint64), 1)[:, None],
     np.arange(10, 30, dtype=np.uint64)[None, :]),
    (_key(1 << 62, 3), np.arange(1 << 33, (1 << 33) + 50, dtype=np.uint64)),
)


def test_gaussian_moduli_are_the_hand_built_box_muller_radii():
    for key, idx in _SPLIT_CASES:
        ref = np.sqrt(-np.log(rng.uniforms(key, np.uint64(2) * idx)))
        got = rng.gaussian_moduli(key, idx)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_complex_gaussians_are_moduli_times_phases_bit_for_bit():
    for key, idx in _SPLIT_CASES:
        z = rng.complex_gaussians(key, idx)
        angle = 2.0 * np.pi * rng.uniforms(key, np.uint64(2) * idx + np.uint64(1))
        prod = rng.gaussian_moduli(key, idx) * (np.cos(angle) + 1j * np.sin(angle))
        assert z.shape == prod.shape
        assert np.array_equal(z.view(np.uint64), prod.view(np.uint64))


def test_sample_batches_match_a_hand_built_box_muller_reference():
    from gafholes import gaf
    from gafholes.coeffs import coefficients, hyperbolic

    m, N, seed = hyperbolic(1.5), 40, 7
    streams = np.asarray([0, 3, 2048, 99999], dtype=np.uint64)
    keys = rng.stream_key(seed, streams, rng.PURPOSE_SAMPLE)[:, None]
    n = np.arange(N + 1, dtype=np.uint64)[None, :]
    u1 = rng.uniforms(keys, np.uint64(2) * n)
    u2 = rng.uniforms(keys, np.uint64(2) * n + np.uint64(1))
    radius, angle = np.sqrt(-np.log(u1)), 2.0 * np.pi * u2
    a = coefficients(m, N)[None, :]
    ref = radius * (np.cos(angle) + 1j * np.sin(angle)) * a
    C = gaf.sample_coeff_batch(m, seed, streams, N)
    assert np.array_equal(C.view(np.uint64), ref.view(np.uint64))
    A = rng.gaussian_rows(seed, streams, rng.PURPOSE_SAMPLE, 0, N + 1,
                          moduli=True) * a
    assert np.array_equal(A.view(np.uint64), (radius * a).view(np.uint64))
    # |c_n| and the screen's modulus differ by a few roundings at most
    assert np.all(np.abs(np.abs(C) - A) <= 8 * 2.0 ** -53 * A)


def test_no_draw_warns_for_scalar_0d_or_array_ids_and_counters():
    # numpy's scalar * warns on a product that wraps, and c + 1 turns a 0-d
    # counter into a numpy scalar: the streams' wrapping products must not
    # warn, whatever the shape of the stream ids and counters
    big = np.uint64((1 << 64) - 2)
    ids = (7, np.uint64(1 << 63), np.asarray(5, dtype=np.uint64),
           np.arange(3, dtype=np.uint64))
    counters = (3, big, np.asarray(big), np.asarray(big + np.uint64(1)),
                np.arange(4, dtype=np.uint64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sid in ids:
            for purpose in (rng.PURPOSE_SAMPLE, rng.PURPOSE_JOINT_MOMENT):
                key = rng.stream_key((1 << 63) + 5, sid, purpose)
                for c in counters:
                    k = key[..., None] if np.ndim(key) and np.ndim(c) else key
                    rng.uniforms(k, c)
                    rng.complex_gaussians(k, c)
            rng.gaussian_rows(3, np.atleast_1d(sid), rng.PURPOSE_SAMPLE, 0, 9)
            oracles.gaussian_coupling_sample(0.5, 3, sid)


@pytest.mark.parametrize("form", [int, np.uint64, np.asarray],
                         ids=["int", "uint64", "0-d"])
def test_scalar_ids_and_counters_draw_their_array_entries(form):
    # a stream id or counter given as a Python int, a numpy scalar or a 0-d
    # array draws bit for bit what the same value does inside an array, up
    # to the counters where the products GOLDEN (c + 1) wrap
    ids = np.array([0, 5, (1 << 63) + 1], dtype=np.uint64)
    counters = np.array([0, 3, (1 << 64) - 2, (1 << 64) - 1], dtype=np.uint64)
    keys = rng.stream_key(9, ids, rng.PURPOSE_COUPLING)
    for i, sid in enumerate(ids):
        key = rng.stream_key(9, form(int(sid)), rng.PURPOSE_COUPLING)
        assert key.tobytes() == keys[i].tobytes(), sid
        u = rng.uniforms(key, counters)
        z = rng.complex_gaussians(key, counters)
        for j, c in enumerate(counters):
            assert np.asarray(rng.uniforms(key, form(int(c)))).tobytes() \
                == u[j].tobytes(), (sid, c)
            assert np.asarray(rng.complex_gaussians(key, form(int(c)))
                              ).tobytes() == z[j].tobytes(), (sid, c)
        zeta, event = oracles.gaussian_coupling_sample(0.5, 9, form(int(sid)))
        zetas, events = oracles.gaussian_coupling_sample(0.5, 9, ids)
        assert np.asarray(zeta).tobytes() == zetas[i].tobytes(), sid
        assert event == events[i], sid


def _unshift(z: int, s: int) -> int:
    """The inverse of z ^= z >> s on one 64-bit word."""
    x = z
    for _ in range(64 // s + 1):
        x = z ^ (x >> s)
    return x


def _key_for_word(word: int, counter: int) -> np.uint64:
    """The key whose word at counter is word: mix64 inverted step by step."""
    full = 1 << 64
    z = _unshift(word, 31) * pow(int(rng._M2), -1, full) % full
    z = _unshift(z, 27) * pow(int(rng._M1), -1, full) % full
    z = _unshift(z, 30)
    assert int(rng.mix64(np.uint64(z))) == word
    return np.uint64((z - int(rng.GOLDEN) * (counter + 1)) % full)


@pytest.mark.parametrize("n", [0, 5, (1 << 40) + 3])
def test_uniform_range_and_the_modulus_cap(n):
    # the facts MODULUS_CAP rests on: u = fl((w >> 11) + 0.5) 2^-53 lies in
    # [2^-54, 1]; word 0 gives 2^-54 and the largest modulus, sqrt(54 log 2),
    # and the top words give u = 1.0 and modulus 0.  Below 1/2 a uniform is
    # the midpoint of its 2^-53 cell; from 1/2 on the + 0.5 rounds to even.
    # The modulus of draw n reads the uniform at counter 2n.
    top = (1 << 64) - 1
    cases = {0: 2.0 ** -54, (1 << 11) - 1: 2.0 ** -54,
             (1 << 63) - (1 << 11): 0.5 - 2.0 ** -54,
             (1 << 63) + (1 << 11): (2.0 ** 52 + 2.0) * 2.0 ** -53,
             top - (1 << 11): 1.0 - 2.0 ** -52,
             top - (1 << 11) + 1: 1.0, top: 1.0}
    with mpmath.workdps(40):
        exact = mpmath.sqrt(54 * mpmath.log(2))
    for word, want in cases.items():
        key = _key_for_word(word, 2 * n)
        u = rng.uniforms(key, np.uint64(2 * n))
        assert float(u) == want, hex(word)
        modulus = float(rng.gaussian_moduli(key, np.uint64(n)))
        assert modulus <= rng.MODULUS_CAP
        if want == 1.0:
            assert modulus == 0.0
        if word < 1 << 11:
            assert abs(modulus - exact) <= 2.0 ** -50 * exact
    assert exact < rng.MODULUS_CAP <= exact * (1 + 2.0 ** -39)


def _every_sampler(seed):
    """One call of each public sampler at seed; each draws through
    rng.stream_key."""
    from gafholes import gaf, spectra
    from gafholes.coeffs import constant_unit, hyperbolic

    m, ids = hyperbolic(1.0), np.arange(4, dtype=np.uint64)
    split = spectra.split_coefficients(hyperbolic(0.5), 0.9, 8)
    return {
        "gaf.sample": lambda: gaf.sample(m, seed, 0, 8),
        "gaf.sample_coeff_batch": lambda: gaf.sample_coeff_batch(m, seed, ids, 8),
        "rng.gaussian_rows": lambda: rng.gaussian_rows(seed, ids, 1, 0, 9),
        "spectra.split_sample_batch": lambda: spectra.split_sample_batch(
            split, 12, seed, ids),
        "oracles.gaussian_coupling_sample": lambda: oracles.gaussian_coupling_sample(
            0.5, seed, ids),
        "oracles.gaf_coupling_sample": lambda: oracles.gaf_coupling_sample(
            [1.0, 1.0], [0.5, 0.5], 1, seed, ids),
        "oracles.joint_neg_moment_check": lambda: oracles.joint_neg_moment_check(
            constant_unit(), 0.5, 2, 0.5, 64, seed=seed),
    }


@pytest.mark.parametrize("bad", [1.5, 2.7, 1.0, True, math.nan, "3", None])
@pytest.mark.parametrize("name", list(_every_sampler(0)))
def test_every_sampler_rejects_a_seed_that_is_not_an_integer(name, bad):
    # gaf.sample(hyperbolic(1.0), 1.5, 0, 8) once drew seed 1's coefficients
    # and recorded seed=1, gaussian_coupling_sample(0.5, 2.7, 3) drew seed
    # 2's, and "3" ran seed 3
    with pytest.raises(DomainError, match="seed"):
        _every_sampler(bad)[name]()


@pytest.mark.parametrize("bad", [-1, 1 << 64, (1 << 64) + 5])
@pytest.mark.parametrize("name", list(_every_sampler(0)))
def test_every_sampler_rejects_a_seed_outside_64_bits(name, bad):
    # seeds were once reduced mod 2^64: seed 5 + 2^64 drew seed 5's rows
    # but recorded the larger seed, and seed -1 drew seed 2^64 - 1's
    with pytest.raises(DomainError, match="seed"):
        _every_sampler(bad)[name]()


def _every_stream_keyer(stream):
    """One call of each sampler that keys the stream ids it is given."""
    from gafholes import gaf, spectra
    from gafholes.coeffs import hyperbolic

    m = hyperbolic(1.0)
    split = spectra.split_coefficients(hyperbolic(0.5), 0.9, 8)
    return {
        "gaf.sample": lambda: gaf.sample(m, 7, stream, 8),
        "gaf.sample_coeff_batch": lambda: gaf.sample_coeff_batch(m, 7, stream, 8),
        "rng.gaussian_rows": lambda: rng.gaussian_rows(7, stream, 1, 0, 3),
        "spectra.split_sample_batch": lambda: spectra.split_sample_batch(
            split, 12, 7, stream),
        "rng.stream_key": lambda: rng.stream_key(7, stream, rng.PURPOSE_SAMPLE),
    }


@pytest.mark.parametrize("bad", [1.5, True, "3", -1, 1 << 64, None,
                                 np.array([1.7])],
                         ids=["1.5", "True", "str", "-1", "2^64", "None",
                              "float-array"])
@pytest.mark.parametrize("name", list(_every_stream_keyer(0)))
def test_every_stream_keyer_rejects_a_stream_id_that_is_not_in_64_bits(name, bad):
    # gaf.sample(m, 7, 1.5, 8) and gaf.sample(m, 7, True, 8) once drew
    # stream 1 and recorded stream_id=1, "3" drew stream 3, -1 drew stream
    # 2^64 - 1, and a float array was truncated to its integer parts
    with pytest.raises(DomainError, match="stream"):
        _every_stream_keyer(bad)[name]()


def test_integer_stream_ids_of_any_width_key_like_uint64():
    want = rng.stream_key(7, np.arange(4, dtype=np.uint64), rng.PURPOSE_SAMPLE)
    for ids in (np.arange(4), np.arange(4, dtype=np.int32),
                np.arange(4, dtype=np.uint8), [0, 1, 2, 3]):
        got = rng.stream_key(7, ids, rng.PURPOSE_SAMPLE)
        assert got.tobytes() == want.tobytes(), ids
