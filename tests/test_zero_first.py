"""The zero-first stage of the direct decision kernel.

Newton plus a rounding-aware Rouche test certifies "at least one zero in the
closed disk" and lets such rows leave the winding ladder early.  These
tests pin the properties that make the shortcut safe: per-row determinism,
agreement with the ladder, no certificate for polynomials whose roots all
lie outside the disk (however close), and rounding bounds that really bound
the rounding error.
"""

import mpmath
import numpy as np
import pytest

from gafholes import gaf, holes
from gafholes.coeffs import explicit, hyperbolic


def _batch(L, r, seed, rows):
    m = hyperbolic(L)
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, r)
    C = gaf.sample_coeff_batch(m, seed, np.arange(rows, dtype=np.uint64), N_t)
    return C, tail


def _hole(res, tail):
    return (res["mm_lb"] > tail) & res["wind_ok"] & (res["wind"] == 0)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L, r", [(1.0, 0.7), (2.0, 0.9)])
def test_row_results_identical_alone_and_in_a_full_batch(L, r):
    C, tail = _batch(L, r, 61, holes.BATCH_TRIALS)
    batch = holes._certify_rows(C, r, tail=tail, zero_first=True)
    zf = batch["zero_first"]
    # rows from every path the kernel has: zero-first, ladder, and the
    # rows that climbed the ladder highest
    picks = np.concatenate([np.nonzero(zf)[0][:6],
                            np.nonzero(~zf)[0][:6],
                            np.argsort(batch["settle_K"], kind="stable")[-4:]])
    assert np.any(zf[picks])
    for i in picks:
        alone = holes._certify_rows(C[i:i + 1], r, tail=tail, zero_first=True)
        for key, col in batch.items():
            assert col[i:i + 1].tobytes() == alone[key].tobytes(), (i, key)


def test_kernel_counters_add_up_and_ignore_worker_count():
    a = holes.estimate_hole_direct(hyperbolic(1.0), 0.7, 3000, 17, workers=1)
    b = holes.estimate_hole_direct(hyperbolic(1.0), 0.7, 3000, 17, workers=2)
    assert a.kernel == b.kernel
    paths = ("zero_first", "uniform_ladder", "inconclusive")
    assert sum(a.kernel[k] for k in paths) == a.trials
    # the tube rows are ladder rows; every row but those open at the cap
    # left the ladder at some level, and an open row is inconclusive
    assert 0 < a.kernel["tube"] <= a.kernel["uniform_ladder"]
    assert sum(a.kernel["settle_K"].values()) == a.trials - a.kernel["open_at_cap"]
    assert a.kernel["open_at_cap"] <= a.kernel["inconclusive"]
    assert a.kernel["inconclusive"] == a.inconclusive
    assert a.kernel["zero_first"] > 0 and a.kernel["uniform_ladder"] > 0
    assert a.kernel["zero_first"] <= a.metadata["zeros_certified"]
    # diagnostics only: the record does not carry them
    assert "kernel" not in a.to_record()


# ---------------------------------------------------------------------------
# agreement with the ladder
# ---------------------------------------------------------------------------

# At L=1, r=0.7 the tube ladder settles all but about 9 of 4096 rows below
# 1024 points, where the zero-first stage runs, so the flat case sits at
# r=0.9 (about 750 rows reach it).
@pytest.mark.parametrize("L, r, rows, K_cap", [
    (1.0, 0.9, 4096, holes.K_CAP_DEFAULT),
    pytest.param(2.0, 0.9, 4096, holes.K_CAP_DEFAULT, marks=pytest.mark.slow),
    # a cap below _ZERO_FIRST_K: the test runs at the top of the last level
    (2.0, 0.9, 256, 256),
])
def test_ladder_never_calls_a_zero_first_row_a_hole(L, r, rows, K_cap):
    C, tail = _batch(L, r, 71, rows)
    fast = holes._certify_rows(C, r, K_cap=K_cap, tail=tail, zero_first=True)
    exact = holes._certify_rows(C, r, K_cap=K_cap, tail=tail)
    zf = fast["zero_first"]
    assert zf.sum() >= rows // 8
    assert not np.any(_hole(exact, tail) & zf)
    # hits cannot move and undecided rows can only become decided
    assert np.array_equal(_hole(fast, tail), _hole(exact, tail))
    decided = (fast["mm_lb"] > tail) & fast["wind_ok"] | zf
    decided_exact = (exact["mm_lb"] > tail) & exact["wind_ok"]
    assert not np.any(decided_exact & ~decided)


def test_direct_estimate_matches_ladder_only_counts():
    r, trials = 0.7, 2048
    est = holes.estimate_hole_direct(hyperbolic(1.0), r, trials, 23)
    C, tail = _batch(1.0, r, 23, trials)
    exact = holes._certify_rows(C, r, tail=tail)
    ok = (exact["mm_lb"] > tail) & exact["wind_ok"]
    assert est.hits == int(np.sum(ok & (exact["wind"] == 0)))
    assert est.metadata["zeros_certified"] == int(np.sum(ok & (exact["wind"] >= 1)))
    assert est.inconclusive == int(np.sum(~ok))


# ---------------------------------------------------------------------------
# adversarial inputs: every root outside the closed disk
# ---------------------------------------------------------------------------

def _assert_never_zero_first(C, rho, tail):
    assert not holes._zero_certified(C, rho, tail).any()
    res = holes._certify_rows(C, rho, tail=tail, zero_first=True)
    assert not res["zero_first"].any()
    ok = (res["mm_lb"] > tail) & res["wind_ok"]
    assert not np.any(ok & (res["wind"] != 0))


def _planted_rows(near, rho, seed, count=48):
    """Polynomials with one root of modulus `near`, 1-4 more beyond 1.2 rho."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        k = int(rng.integers(1, 5))
        roots = np.concatenate([[near], rng.uniform(1.2 * rho, 3.0 * rho, k)]) \
            * np.exp(2j * np.pi * rng.uniform(size=k + 1))
        c = np.poly(roots)[::-1].astype(complex)
        c *= rng.normal() + 1j * rng.normal()
        rows.append(np.pad(c, (0, 6 - len(c))))
    return np.array(rows)


@pytest.mark.parametrize("delta", [1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7])
def test_root_just_outside_the_circle_is_not_certified(delta):
    # the coefficient rounding of np.poly moves a simple root by far less
    # than delta
    rho, seed = 0.6, int(-np.log10(delta))
    _assert_never_zero_first(_planted_rows(rho * (1.0 + delta), rho, seed),
                             rho, 0.0)
    # mirrored just inside, the same roots are all certified: the test
    # resolves the circle to well below delta
    inside = _planted_rows(rho * (1.0 - delta), rho, seed)
    assert holes._zero_certified(inside, rho, 0.0).all()


@pytest.mark.parametrize("e", [16, 24, 32, 40])
def test_exact_root_clusters_outside_the_circle_are_not_certified(e):
    # (z - a u)^k (z - 3/4 v) with a = 1/2 + 2^-e and units u, v: dyadic
    # roots, so every coefficient is exact and the roots are exactly these
    rho, a = 0.5, 0.5 + 2.0 ** -e
    rows = []
    for k in (1, 2, 3):
        for u in (1, -1, 1j, -1j):
            for v in (1, -1j):
                c = np.poly([a * u] * k + [0.75 * v])[::-1].astype(complex)
                rows.append(np.pad(c, (0, 5 - len(c))))
    _assert_never_zero_first(np.array(rows), rho, 0.0)


def test_explicit_model_with_zero_tail_certifies_only_true_zeros():
    m, r = explicit([1.0, 0.9, 0.8, 0.7, 0.6, 0.5]), 0.9
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, r)
    assert N_t == 5 and tail == 0.0
    C = gaf.sample_coeff_batch(m, 3, np.arange(4096, dtype=np.uint64), N_t)
    zf = holes._zero_certified(C, r, tail)
    assert zf.sum() > 1000
    inside = np.array([np.min(np.abs(np.roots(c[::-1]))) < r for c in C[zf]])
    assert inside.all()
    est = holes.estimate_hole_direct(m, r, 4096, 3)
    exact = holes._certify_rows(C, r, tail=tail)
    assert est.hits == int(np.sum(_hole(exact, tail)))


# ---------------------------------------------------------------------------
# rounding bounds against an exact reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L, r", [(1.0, 0.7), (2.0, 0.9)])
def test_rounding_bounds_hold_at_the_newton_points(L, r):
    C, _ = _batch(L, r, 83, 6)
    z = holes._newton_points(C, r)
    fh, dh, e_f, e_d = holes._rounded_values(C, z)
    with mpmath.workprec(256):
        for i, row in enumerate(C):
            # exact binary values of the coefficients, highest degree first
            c = [mpmath.mpc(float(v.real), float(v.imag)) for v in row[::-1]]
            dc = [mpmath.mpc(len(c) - 1 - k) * v for k, v in enumerate(c[:-1])]
            for j, zz in enumerate(z[i]):
                x = mpmath.mpc(float(zz.real), float(zz.imag))
                F = mpmath.polyval(c, x)
                D = mpmath.polyval(dc, x)
                fij = mpmath.mpc(float(fh[i, j].real), float(fh[i, j].imag))
                dij = mpmath.mpc(float(dh[i, j].real), float(dh[i, j].imag))
                assert abs(fij - F) <= e_f[i, j]
                assert abs(dij - D) <= e_d[i, j]
