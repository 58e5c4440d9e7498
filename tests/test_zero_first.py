"""The decision kernel of the direct estimator on adversarial inputs.

estimate_hole_direct runs the same min-modulus / winding ladder as the
scalar operations, so every ZeroCertified row decided on the r-circle
carries its exact zero count.
These tests pin the properties the estimator relies on: per-row
determinism, kernel counters that add up and ignore the worker count,
estimate counts equal to the ladder's, and no wrong certificate for
polynomials whose roots all lie outside the disk (however close), for exact
root clusters, or for an Explicit model with a zero tail bound.  The
constant-term certificate, which settles rows before the ladder, must not
settle a row with a root on or just inside the circle or a NaN row, and
every row it settles must be a hole of the ladder.  The quadratic step
after it must count the zeros of every row it settles as the ladder does,
count those of exact quadratics with roots within 1e-12 of the circle
correctly or leave them open, never settle a row past its exact bound, and
leave rows with c_2 = 0 or a NaN open.  The estimator screens
rows on their coefficient moduli and pools the other rows across batches
for the ladder: it must give the record and kernel counts of a reference
that draws each batch in full and settles it in place, and the screen must
decide on moduli as the certificate does on the complex rows.  Every
screen's cap prefix must give the estimates of whole moduli rows, and a
stream its cap bound settles must draw nothing.  The
inner-circle pass must certify only true zeros inside r_in, keep the holes
of the ladder at r, leave a root between the circles to that ladder, and
settle the two recorded rows that stay open at the cap of the ladder at r.
"""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gafholes import gaf, holes, rng
from gafholes.coeffs import coefficients, explicit, hyperbolic


def _batch(L, r, seed, rows):
    m = hyperbolic(L)
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, r)
    C = gaf.sample_coeff_batch(m, seed, np.arange(rows, dtype=np.uint64), N_t)
    return C, tail


def _hole(res, tail):
    return (res["mm_lb"] > tail) & res["wind_ok"] & (res["wind"] == 0)


def _zero(res, tail):
    return (res["mm_lb"] > tail) & res["wind_ok"] & (res["wind"] >= 1)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L, r", [(1.0, 0.7), (2.0, 0.9)])
def test_row_results_identical_alone_and_in_a_full_batch(L, r):
    C, tail = _batch(L, r, 61, holes.BATCH_TRIALS)
    batch = holes._certify_rows(C, r, tail=tail)
    # holes, zeros, and the rows that climbed the ladder highest
    picks = np.concatenate([np.nonzero(_hole(batch, tail))[0][:6],
                            np.nonzero(_zero(batch, tail))[0][:6],
                            np.argsort(batch["settle_K"], kind="stable")[-4:]])
    assert np.any(_zero(batch, tail)[picks])
    for i in picks:
        alone = holes._certify_rows(C[i:i + 1], r, tail=tail)
        for key, col in batch.items():
            assert col[i:i + 1].tobytes() == alone[key].tobytes(), (i, key)


def test_kernel_counters_add_up_and_ignore_worker_count():
    a = holes.estimate_hole_direct(hyperbolic(1.0), 0.7, 3000, 17, workers=1)
    for workers in (2, 3):
        b = holes.estimate_hole_direct(hyperbolic(1.0), 0.7, 3000, 17,
                                       workers=workers)
        assert a.kernel == b.kernel
    assert set(a.kernel) == {"constant_term", "quadratic", "inner",
                             "uniform_ladder", "inconclusive", "open_at_cap",
                             "tube", "settle_K", "inner_settle_K", "inner_r"}
    paths = ("constant_term", "quadratic", "inner", "uniform_ladder")
    assert sum(a.kernel[p] for p in paths) + a.kernel["inconclusive"] == a.trials
    assert sum(a.kernel[p] for p in paths) \
        == a.hits + a.metadata["zeros_certified"]
    # constant-term rows are holes settled before the ladder, quadratic rows
    # are holes or non-holes settled there too; the tube rows are ladder
    # rows; every ladder row but those open at the cap left the ladder at
    # some level, and an open row is inconclusive
    assert 0 < a.kernel["constant_term"] <= a.hits
    assert 0 < a.kernel["quadratic"]
    assert 0 < a.kernel["tube"] <= a.kernel["uniform_ladder"]
    assert sum(a.kernel["settle_K"].values()) \
        == a.trials - a.kernel["constant_term"] - a.kernel["quadratic"] \
        - a.kernel["open_at_cap"]
    assert a.kernel["open_at_cap"] <= a.kernel["inconclusive"]
    assert a.kernel["inconclusive"] == a.inconclusive
    # diagnostics only: the record does not carry them
    assert "kernel" not in a.to_record()


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
def test_direct_estimate_matches_ladder_only_counts(r):
    # about 85%, 50% and 5% of the rows are settled before the ladder
    trials = 2048
    est = holes.estimate_hole_direct(hyperbolic(1.0), r, trials, 23)
    assert est.kernel["constant_term"] > 0
    C, tail = _batch(1.0, r, 23, trials)
    exact = holes._certify_rows(C, r, tail=tail)
    ok = (exact["mm_lb"] > tail) & exact["wind_ok"]
    assert est.hits == int(np.sum(ok & (exact["wind"] == 0)))
    assert est.metadata["zeros_certified"] == int(np.sum(ok & (exact["wind"] >= 1)))
    assert est.inconclusive == int(np.sum(~ok))


# ---------------------------------------------------------------------------
# adversarial inputs: every root outside the closed disk
# ---------------------------------------------------------------------------

def _assert_no_zero_certified(C, rho, tail, K_cap=holes.K_CAP_DEFAULT):
    res = holes._certify_rows(C, rho, K_cap=K_cap, tail=tail)
    assert not np.any(_zero(res, tail))
    # every certified winding is exact: no root inside
    assert not np.any(res["wind_ok"] & (res["wind"] != 0))


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


# how many of the 48 mirrored rows the ladder must certify by K_CAP_DEFAULT
# points; a root within about 1e-11 of the circle needs more
_DECIDED_INSIDE = {1e-12: 0, 1e-11: 0, 1e-10: 32, 1e-9: 48, 1e-8: 48, 1e-7: 48}


@pytest.mark.parametrize("delta", [
    pytest.param(d, marks=pytest.mark.slow) if d <= 1e-9 else d
    for d in _DECIDED_INSIDE])
def test_root_just_outside_the_circle_is_not_certified(delta):
    # rows at delta <= 1e-9 climb to the 2^20 cap: 4-12 s each (slow)
    # the coefficient rounding of np.poly moves a simple root by far less
    # than delta
    rho, seed = 0.6, int(-np.log10(delta))
    _assert_no_zero_certified(_planted_rows(rho * (1.0 + delta), rho, seed),
                              rho, 0.0)
    # mirrored just inside, the same roots are never a hole, and every
    # certified row counts exactly one zero
    inside = _planted_rows(rho * (1.0 - delta), rho, seed)
    res = holes._certify_rows(inside, rho, tail=0.0)
    assert not np.any(_hole(res, 0.0))
    assert np.all(res["wind"][res["wind_ok"]] == 1)
    assert np.sum(_zero(res, 0.0)) >= _DECIDED_INSIDE[delta]


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
    _assert_no_zero_certified(np.array(rows), rho, 0.0)


def test_explicit_model_with_zero_tail_certifies_only_true_zeros():
    m, r = explicit([1.0, 0.9, 0.8, 0.7, 0.6, 0.5]), 0.9
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, r)
    assert N_t == 5 and tail == 0.0
    C = gaf.sample_coeff_batch(m, 3, np.arange(4096, dtype=np.uint64), N_t)
    res = holes._certify_rows(C, r, tail=tail)
    zero = _zero(res, tail)
    assert zero.sum() > 1000
    inside = np.array([np.sum(np.abs(np.roots(c[::-1])) < r) for c in C])
    assert np.array_equal(res["wind"][zero], inside[zero])
    assert not np.any(_hole(res, tail) & (inside > 0))
    est = holes.estimate_hole_direct(m, r, 4096, 3)
    assert est.hits == int(np.sum(_hole(res, tail)))
    assert est.metadata["zeros_certified"] == int(zero.sum())


# ---------------------------------------------------------------------------
# the constant-term certificate (rows settled before the ladder)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.5, 0.3, 0.7])
def test_constant_term_certificate_keeps_roots_on_or_inside_the_circle(rho):
    # c_0 + c_1 z with its root -c_0 / c_1 = a u on the circle (k = 0) or k
    # ulps inside it; the units u and the scales s keep every value exact
    rows = []
    for k in range(5):
        a = rho
        for _ in range(k):
            a = np.nextafter(a, 0.0)
        for u in (1, -1, 1j, -1j):
            for s in (1.0, 2.0 ** 18):
                rows.append([s * a * u, -s])
                rows.append([s * a, -s * np.conj(u)])
    A = np.abs(np.array(rows, dtype=complex))
    for tail in (0.0, -np.inf):
        assert not np.any(holes._constant_term_holes(A.copy(), rho, tail))
    # degree 5, every phase aligned: c_0 = -sum c_n rho^n rounded down, then
    # k ulps lower, so F_N(rho) <= 0 < F_N(0) and a root lies in (0, rho]
    rows = []
    for a in np.random.default_rng(7).uniform(0.1, 2.0, (16, 5)):
        exact = sum(Fraction(x) * Fraction(rho) ** n for n, x in enumerate(a, 1))
        c0 = float(exact)
        if Fraction(c0) > exact:
            c0 = np.nextafter(c0, 0.0)
        for k in range(5):
            rows.append([c0, *-a])
            c0 = np.nextafter(c0, 0.0)
    assert not np.any(holes._constant_term_holes(
        np.abs(np.array(rows, dtype=complex)), rho, 0.0))


def test_constant_term_certificate_leaves_nan_rows_to_the_ladder(monkeypatch):
    m, r = hyperbolic(1.0), 0.3
    rows = rng.gaussian_rows
    certify = holes._certify_rows
    seen = []

    def with_nans(seed, streams, purpose, lo, hi, moduli=False, out=None):
        # trials 0 and 1 carry a NaN in every draw of their Gaussians, the
        # screen's moduli (its cap prefix c_0..c_3 at L = 1, r = 0.3, and the
        # other columns) and the ladder's rows alike, wherever they sit in a
        # span or chunk; the NaNs land in the array the sampler returns,
        # which is out when one is given
        C = rows(seed, streams, purpose, lo, hi, moduli, out)
        for t, n in ((0, 0), (1, 3)):   # the constant term, a later one
            if lo <= n < hi:
                C[np.asarray(streams) == t, n - lo] = np.nan
        return C

    def spy(C, *args, **kwargs):
        seen.append(C.copy())
        return certify(C, *args, **kwargs)

    monkeypatch.setattr(rng, "gaussian_rows", with_nans)
    ids = np.arange(2, dtype=np.uint64)
    C = holes.sample_coeff_batch(m, 5, ids, 15)
    assert np.isnan(C[0, 0]) and np.isnan(C[1, 3])
    assert not np.any(holes._constant_term_holes(np.abs(C), r, 0.0))
    assert not np.any(holes._constant_term_holes(
        holes.sample_coeff_batch(m, 5, ids, 15, moduli=True), r, 0.0))
    assert not np.any(holes._constant_term_prefix(
        holes.sample_coeff_batch(m, 5, ids, 3, moduli=True), r, 0.0,
        holes._rounding_gamma(16), 0.0)[0])
    a = coefficients(m, 15)
    k, _ = holes._prefix((a * holes._moduli_weights(r, 16))[1:], a[0], False)
    assert 1 + k == 4
    monkeypatch.setattr(holes, "_certify_rows", spy)
    est = holes.estimate_hole_direct(m, r, 256, 5, K_cap=256)
    (ladder,) = seen
    assert np.sum(np.any(np.isnan(ladder), axis=1)) == 2
    assert est.kernel["open_at_cap"] == 2 and est.inconclusive == 2
    assert est.kernel["constant_term"] > 0


def test_a_cap_prefix_settles_only_constant_term_holes():
    # the moduli of c_0..c_3 of rows whose other columns are at most the
    # cap: a row the prefix settles is a hole of the whole-row constant
    # term, at every tail bound, and the prefix leaves no row to the ladder
    rho, k, n1 = 0.5, 4, 16
    g = holes._rounding_gamma(n1)
    A = np.random.default_rng(9).uniform(0.0, rng.MODULUS_CAP, (4000, n1))
    A[:, 0] *= 4.0
    rem = rng.MODULUS_CAP * float(np.sum(holes._moduli_weights(rho, n1)[k:]))
    settled_n = 0
    for tail in np.linspace(0.0, 20.0, 41):
        holes_ = holes._constant_term_holes(A.copy(), rho, tail)
        settled, rejected = holes._constant_term_prefix(A[:, :k], rho, tail,
                                                        g, rem)
        assert not np.any(settled & ~holes_) and rejected is False, tail
        settled_n += int(settled.sum())
    assert settled_n > 0


@pytest.mark.parametrize("r", [0.5, 0.9])
def test_constant_term_certificate_with_an_explicit_zero_tail(r):
    m = explicit([1.0, 0.9, 0.8, 0.7, 0.6, 0.5])
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, r)
    assert tail == 0.0
    C = gaf.sample_coeff_batch(m, 3, np.arange(4096, dtype=np.uint64), N_t)
    pre = holes._constant_term_holes(np.abs(C), r, tail)
    assert pre.any()
    # F = F_N here: no settled row has a root in the closed disk
    nearest = np.array([np.min(np.abs(np.roots(c[::-1]))) for c in C[pre]])
    assert np.all(nearest > r)
    assert np.all(_hole(holes._certify_rows(C[pre], r, tail=tail), tail))


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
def test_constant_term_rows_are_holes_of_the_ladder(L, r):
    C, tail = _batch(L, r, 71, holes.BATCH_TRIALS)
    pre = holes._constant_term_holes(np.abs(C), r, tail)
    # at L = 2, r = 0.7 no row qualifies (its tail bound is the largest)
    assert pre.any() or (L, r) == (2.0, 0.7)
    res = holes._certify_rows(C[pre], r, tail=tail)
    assert np.all(_hole(res, tail))


# ---------------------------------------------------------------------------
# the quadratic step (Rouche against c_2 (z - z_1)(z - z_2), before the ladder)
# ---------------------------------------------------------------------------

def _quadratic(C, rho, tail):
    """Zero counts of the quadratic step on complex rows C (-1 where open)
    and the mask of the rows it sees, those the constant term leaves."""
    A = np.abs(C)
    left = ~holes._constant_term_holes(A, rho, tail)
    return holes._quadratic_zeros(C[left, :3], A[left], rho, tail), left


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [0.3, 0.5])
def test_quadratic_rows_are_decided_alike_by_the_ladder(L, r):
    for seed in (81, 82, 83):
        C, tail = _batch(L, r, seed, holes.BATCH_TRIALS)
        k, left = _quadratic(C, r, tail)
        settled = k >= 0
        assert settled.any() and not settled.all()
        res = holes._certify_rows(C[left][settled], r, tail=tail)
        assert np.all((res["mm_lb"] > tail) & res["wind_ok"])
        assert np.array_equal(res["wind"], k[settled])


def _true_zeros(c, rho):
    """Zeros of c_0 + c_1 z + c_2 z^2 in the closed rho-disk, from the
    quadratic formula in 80 digits (the inputs are exact, and a cluster of
    roots loses at most half of them), or None when one lies within 1e-40
    of the circle."""
    with mpmath.workdps(80):
        c0, c1, c2 = (mpmath.mpc(complex(x)) for x in c)
        d = mpmath.sqrt(c1 * c1 - 4 * c2 * c0)
        gaps = [abs((-c1 + e * d) / (2 * c2)) - mpmath.mpf(rho) for e in (1, -1)]
        if any(abs(g) < mpmath.mpf(10) ** -40 for g in gaps):
            return None
        return sum(g < 0 for g in gaps)


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
def test_quadratic_step_on_exact_quadratics_near_the_circle(rho):
    # tail 0 and no term past z^2: F is the quadratic.  Roots at rho (1 +-
    # delta), in clusters that straddle the circle or sit on one side, or
    # one of them near and the other away; a settled row must count the
    # zeros of the rounded coefficients exactly, an open one is fine
    rows = []
    for delta in (1e-3, 1e-6, 1e-9, 1e-12):
        near = (1.0 + delta, 1.0 - delta)
        for f1, f2 in [(a, b) for a in near for b in near + (0.5, 2.0)]:
            for u, v in [(u, v) for u in (1.0, -1.0, 1j, np.exp(0.7j))
                         for v in (1.0, np.exp(1e-3j))]:
                for c2 in (1.0, 2.0 ** 18, 0.37 - 0.21j):
                    z1, z2 = rho * f1 * u, rho * f2 * u * v
                    rows.append([c2 * z1 * z2, -c2 * (z1 + z2), c2])
    C = np.array(rows, dtype=complex)
    k = holes._quadratic_zeros(C, np.abs(C), rho, 0.0)
    for c, n in zip(C[k >= 0], k[k >= 0]):
        assert n == _true_zeros(c, rho), c
    assert 0 < np.sum(k >= 0) < len(rows)


def test_quadratic_step_never_settles_past_its_bound():
    # c_2 = 1 and two real roots in (0, 1e-6], so |p| on the circle is
    # least at z = rho, where p(rho) = c_0 + c_1 rho + rho^2 is computed
    # exactly in fractions.  A term of modulus S at n >= 3 may cancel p
    # there once S >= p(rho), and the row then holds a third zero in the
    # disk: the step may settle only rows with p(rho) > S, whatever the
    # roundings.  The rounded root distances often multiply to just above
    # the first float S >= p(rho)
    rho, settled = 0.3, 0
    rng = np.random.default_rng(5)
    for _ in range(400):
        x1 = rng.uniform(1e-9, 1e-6)
        x2 = x1 * rng.uniform(1.5, 3.0)
        c = np.array([[x1 * x2, -(x1 + x2), 1.0]], dtype=complex)
        p = Fraction(c[0, 0].real) + Fraction(c[0, 1].real) * Fraction(rho) \
            + Fraction(rho) ** 2
        S = [float(p) if Fraction(float(p)) >= p
             else np.nextafter(float(p), np.inf)]   # the first float >= p
        for _ in range(3):
            S.append(np.nextafter(S[-1], 0.0))
        for S in S + [S[0] * (1.0 - 1e-9)]:
            A = np.array([[abs(c[0, 0]), abs(c[0, 1]) * rho, rho * rho, S]])
            k = holes._quadratic_zeros(c, A, rho, 0.0)[0]
            if k >= 0:
                assert p > Fraction(S) and k == 2, (x1, x2, S)
                settled += 1
    assert settled > 0


def test_quadratic_step_leaves_rows_with_c2_zero_or_a_nan_open():
    C, tail = _batch(1.0, 0.5, 84, holes.BATCH_TRIALS)
    k, left = _quadratic(C, 0.5, tail)
    C = C[left][k >= 0][:64]
    assert len(C) == 64
    A = np.abs(C)
    holes._constant_term_holes(A, 0.5, tail)   # weights the moduli in place
    assert np.all(holes._quadratic_zeros(C[:, :3], A, 0.5, tail) >= 0)
    flat = C.copy()
    flat[:, 2] = 0.0
    assert np.all(holes._quadratic_zeros(flat[:, :3], A, 0.5, tail) < 0)
    for col in range(C.shape[1]):
        for bad in (np.nan, complex(np.nan, 0.0), complex(0.0, np.nan)):
            D, W = C.copy(), A.copy()
            D[:, col] = bad
            W[:, col] = np.abs(D[:, col])
            assert np.all(holes._quadratic_zeros(D[:, :3], W, 0.5, tail) < 0)


def test_no_quadratic_step_below_degree_two():
    # N_t = 1: the row has no c_2, and the ladder decides every row the
    # constant term leaves
    m, r = explicit([0.3, 1.0]), 0.5
    est = holes.estimate_hole_direct(m, r, 512, 3)
    assert est.metadata["N_t"] == 1 and est.kernel["quadratic"] == 0
    C = gaf.sample_coeff_batch(m, 3, np.arange(512, dtype=np.uint64), 1)
    exact = holes._certify_rows(C, r, tail=0.0)
    assert est.hits == int(_hole(exact, 0.0).sum())
    assert est.metadata["zeros_certified"] == int(_zero(exact, 0.0).sum())


# ---------------------------------------------------------------------------
# two stages: a screen on the moduli, then ladder chunks pooled across batches
# ---------------------------------------------------------------------------

def _one_stage_estimate(m, r, trials, seed, confidence=0.99):
    """(record, kernel) of a direct estimate drawn in full per BATCH_TRIALS
    span: constant-term rows settled on the complex rows, quadratic rows on
    their first three columns, the others through the inner-circle pass and
    the ladder in the same batch."""
    N_t, tail, meta = holes._truncate(m, r, trials, gaf.DEFAULT_TAU_REL,
                                      gaf.DEFAULT_FAIL_EXP,
                                      holes.DEFAULT_COMPUTE_BUDGET)
    r_in = holes._inner_radius(coefficients(m, N_t), r)
    pre_n = quad_n = inner_n = hole_n = zero_n = inc_n = tube_n = open_n = 0
    settle_K, inner_K = {}, {}
    for lo in range(0, trials, holes.BATCH_TRIALS):
        ids = np.arange(lo, min(lo + holes.BATCH_TRIALS, trials), dtype=np.uint64)
        C = gaf.sample_coeff_batch(m, seed, ids, N_t)
        A = np.abs(C)
        pre = holes._constant_term_holes(A, r, tail)
        C, A = C[~pre], A[~pre]
        k = holes._quadratic_zeros(C[:, :3], A, r, tail)
        quad_n += int((k >= 0).sum())
        hole_n += int((k == 0).sum())
        zero_n += int((k > 0).sum())
        C = C[k < 0]
        if r_in is not None:   # zeros inside the inner circle, then r
            res = holes._certify_rows(C, r_in, tail=tail)
            inner = _zero(res, tail)
            inner_n += int(inner.sum())
            for K in res["settle_K"][inner].tolist():
                inner_K[K] = inner_K.get(K, 0) + 1
            C = C[~inner]
        res = holes._certify_rows(C, r, tail=tail)
        hole, zero = _hole(res, tail), _zero(res, tail)
        pre_n += int(pre.sum())
        hole_n += int(hole.sum())
        zero_n += int(zero.sum())
        inc_n += int((~(hole | zero)).sum())
        tube_n += int(((hole | zero) & res["tube"]).sum())
        open_n += int((res["settle_K"] == 0).sum())
        for K in res["settle_K"][res["settle_K"] > 0].tolist():
            settle_K[K] = settle_K.get(K, 0) + 1
    hits = pre_n + hole_n
    record = {"mode": "direct", "model": m.describe(), "r": r, "M": None,
              "trials": trials, "hits": hits, "inconclusive": inc_n,
              "p_low": holes.wilson_interval(hits, trials, confidence)[0],
              "p_high": holes.wilson_interval(hits + inc_n, trials, confidence)[1],
              "confidence": confidence, "seed": seed, **meta,
              "zeros_certified": inner_n + zero_n}
    kernel = {"constant_term": pre_n, "quadratic": quad_n, "inner": inner_n,
              "uniform_ladder": hole_n + zero_n - quad_n, "open_at_cap": open_n,
              "inconclusive": inc_n, "tube": tube_n, "settle_K": settle_K,
              "inner_settle_K": inner_K, "inner_r": r_in}
    return record, kernel


@pytest.mark.parametrize("L, r, trials", [(0.5, 0.5, 12000), (1.0, 0.3, 20000),
                                          (1.0, 0.7, 4400), (2.0, 0.9, 2500),
                                          (1.0, 0.5, 6181)])
def test_two_stage_estimate_equals_the_one_stage_reference(L, r, trials):
    # 6181 trials leave a short last screen batch and a short last ladder chunk
    m = hyperbolic(L)
    record, kernel = _one_stage_estimate(m, r, trials, 29)
    # the ladder stage has more than one chunk
    assert trials - kernel["constant_term"] > holes.BATCH_TRIALS
    # twice at 1 and 3 workers in one process: stale rows left in a reused
    # buffer, or two threads sharing one, would change a later estimate
    for workers in (1, 2, 3, 1, 3):
        est = holes.estimate_hole_direct(m, r, trials, 29, workers=workers)
        # JSON, as the CLI writes them: equal values and plain ints
        assert json.dumps(est.to_record(), sort_keys=True) \
            == json.dumps(record, sort_keys=True)
        assert json.dumps(est.kernel, sort_keys=True) \
            == json.dumps(kernel, sort_keys=True)


def _in_trial_order(batches, rows):
    """The batches joined in the order of their first rows among rows, and
    their sizes; at one worker that is the order they came in."""
    first = {row.tobytes(): i for i, row in enumerate(rows)}
    batches = sorted(batches, key=lambda b: first.get(b[0].tobytes(), -1))
    return np.concatenate(batches), [b.shape[0] for b in batches]


@pytest.mark.parametrize("workers", [1, 2])
def test_each_direct_stage_gets_the_rows_of_its_trials(monkeypatch, workers):
    # the full-row screen gets the moduli rows of the trials its cap prefix
    # leaves, its quadratic step the first three columns of the trials the
    # constant term leaves, and the ladder the full rows of exactly the
    # trials neither step settles, bit for bit and in trial order: a full
    # screen span of _SCREEN_DRAWS // 27 trials and a short one, ladder
    # chunks of BATCH_TRIALS rows and a short last one
    m, r, trials, seed = hyperbolic(1.0), 0.5, 6181, 29
    screen, certify = holes._constant_term_holes, holes._certify_rows
    quadratic = holes._quadratic_zeros
    screened, quad, laddered = [], [], []

    def screen_spy(A, rho, tail):
        screened.append(A.copy())
        return screen(A, rho, tail)

    def quad_spy(C, *args):
        quad.append(C.copy())
        return quadratic(C, *args)

    def ladder_spy(C, *args, **kwargs):
        laddered.append(C.copy())
        return certify(C, *args, **kwargs)

    monkeypatch.setattr(holes, "_constant_term_holes", screen_spy)
    monkeypatch.setattr(holes, "_quadratic_zeros", quad_spy)
    monkeypatch.setattr(holes, "_certify_rows", ladder_spy)
    holes.estimate_hole_direct(m, r, trials, seed, K_cap=64, workers=workers)
    N_t, tail, _ = holes._truncate(m, r, trials, gaf.DEFAULT_TAU_REL,
                                   gaf.DEFAULT_FAIL_EXP,
                                   holes.DEFAULT_COMPUTE_BUDGET)
    ids = np.arange(trials, dtype=np.uint64)
    A = gaf.sample_coeff_batch(m, seed, ids, N_t, moduli=True)
    C = gaf.sample_coeff_batch(m, seed, ids, N_t)
    W = A.copy()
    pre = screen(W, r, tail)
    left = C[~pre]
    rest = left[quadratic(left[:, :3], W[~pre], r, tail) < 0]
    B = holes.BATCH_TRIALS
    assert N_t + 1 == 27 and holes._SCREEN_DRAWS // 27 == 4854
    got, sizes = _in_trial_order(screened, A)
    trial = {row.tobytes(): t for t, row in enumerate(A)}
    seen = np.array([trial[row.tobytes()] for row in got])
    # one call per span; the prefix settles rows, never one the screen keeps
    assert len(sizes) == 2 and np.all(np.diff(seen) > 0)
    assert seen.size < trials and np.isin(np.flatnonzero(~pre), seen).all()
    got, _ = _in_trial_order(quad, left[:, :3])
    assert np.array_equal(got.view(np.uint64), left[:, :3].view(np.uint64))
    got, sizes = _in_trial_order(laddered, rest)
    n = len(rest) // B
    assert n >= 1 and sizes == [B] * n + [len(rest) - n * B] and sizes[-1] < B
    assert np.array_equal(got.view(np.uint64), rest.view(np.uint64))


def test_a_screen_that_settles_every_row_leaves_no_ladder_chunk(monkeypatch):
    def no_ladder(*args, **kwargs):
        raise AssertionError("no row should reach the ladder")

    record, kernel = _one_stage_estimate(hyperbolic(1.0), 0.05, 16, 3)
    assert kernel["constant_term"] == 16
    monkeypatch.setattr(holes, "_certify_rows", no_ladder)
    est = holes.estimate_hole_direct(hyperbolic(1.0), 0.05, 16, 3)
    assert est.to_record() == record and est.kernel == kernel


def _spans_of_each_stage(monkeypatch, estimate):
    """[(n, width, dtype, span, [(hi - lo, rows of out)])] of each _pool_map
    call an estimate makes, in order."""
    calls, pool_map = [], holes._pool_map

    def spy(worker_fn, n, workers, width, dtype, span):
        sizes = []

        def fn(lo, hi, out):
            sizes.append((hi - lo, out.shape[0]))
            return worker_fn(lo, hi, out)

        calls.append((n, width, dtype, span, sizes))
        return pool_map(fn, n, workers, width, dtype, span)

    monkeypatch.setattr(holes, "_pool_map", spy)
    estimate()
    return calls


@pytest.mark.parametrize("estimate, widths", [
    (lambda: holes.estimate_hole_direct(hyperbolic(1.0), 0.3, 20000, 3), [16]),
    (lambda: holes.estimate_hole_direct(hyperbolic(1.0), 0.5, 6181, 3), [27]),
    (lambda: holes.estimate_hole_direct(hyperbolic(2.0), 0.9, 2100, 3), [193]),
    (lambda: holes.estimate_hole_lower_threshold(hyperbolic(1.0), 0.3, 20000, 3,
                                                 M=0.5), [16]),
    (lambda: holes.estimate_hole_lower_tilted(hyperbolic(2.0), 0.9, 2100, 3),
     [93, 100]),
], ids=["direct-16", "direct-27", "direct-193", "threshold-16", "tilted-93-100"])
def test_screen_spans_follow_the_draws_and_ladder_chunks_the_trials(
        monkeypatch, estimate, widths):
    # each stream screens in spans of max(BATCH_TRIALS, _SCREEN_DRAWS //
    # width) trials, then climbs the ladder in chunks of BATCH_TRIALS rows;
    # every buffer row is the row of one trial of the span
    calls = _spans_of_each_stage(monkeypatch, estimate)
    B = holes.BATCH_TRIALS
    assert [c[1] for c in calls[::2]] == widths
    for (n, width, dtype, span, sizes), (m, width2, dtype2, chunk, chunks) in \
            zip(calls[::2], calls[1::2]):
        assert (dtype, dtype2, width2) == (float, complex, width)
        assert span == max(B, holes._SCREEN_DRAWS // width) and chunk == B
        for got, step, total in ((sizes, span, n), (chunks, B, m)):
            want = [min(step, total - lo) for lo in range(0, total, step)]
            assert got == [(k, k) for k in want]
    assert [c[3] for c in calls[::2]] == \
        [8192 if w == 16 else 4854 if w == 27 else B for w in widths]


@pytest.mark.parametrize("draws", [1, 1 << 30])
def test_screen_spans_change_no_estimate(monkeypatch, draws):
    # at _SCREEN_DRAWS = 1 every span is BATCH_TRIALS trials, at 2^30 one
    # span holds every trial: the records and kernels stay those of the
    # default spans at every worker count
    m = hyperbolic(1.0)

    def both(workers):
        est = (holes.estimate_hole_direct(m, 0.3, 20000, 5, workers=workers),
               holes.estimate_hole_lower_threshold(m, 0.3, 20000, 5, M=0.5,
                                                   workers=workers))
        return json.dumps([[e.to_record(), e.kernel] for e in est],
                          sort_keys=True)

    want = both(1)
    monkeypatch.setattr(holes, "_SCREEN_DRAWS", draws)
    for workers in (1, 2, 3):
        assert both(workers) == want


# estimates whose moduli screens read a cap prefix of k of a stream's drawn
# columns: direct at L = 1, 4 of 16 at r = 0.3 and 7 of 27 at r = 0.5;
# threshold at L = 1, r = 0.7 and the default M, 9 of 51; tilted at L = 2,
# r = 0.9, 27 of 92 in the middle stream and 0 of 100 in the tail stream
CAP_CASES = {
    "direct-0.3": lambda workers: holes.estimate_hole_direct(
        hyperbolic(1.0), 0.3, 20000, 7, workers=workers),
    "direct-0.5": lambda workers: holes.estimate_hole_direct(
        hyperbolic(1.0), 0.5, 12000, 7, workers=workers),
    "threshold-0.7": lambda workers: holes.estimate_hole_lower_threshold(
        hyperbolic(1.0), 0.7, 6000, 7, workers=workers),
    "tilted-0.9": lambda workers: holes.estimate_hole_lower_tilted(
        hyperbolic(2.0), 0.9, 4200, 7, workers=workers),
}


def _record_and_kernel(est) -> str:
    return json.dumps([est.to_record(), est.kernel], sort_keys=True)


def _with_full_moduli_rows(monkeypatch):
    """Make every stream draw its whole moduli rows before its screen (no
    prefix), the reference of the cap prefixes."""
    monkeypatch.setattr(holes, "_prefix",
                        lambda W, slack, lower: (W.size, 0.0))


@pytest.mark.parametrize("draws", [holes._SCREEN_DRAWS, 1],
                         ids=["spans", "2048-spans"])
@pytest.mark.parametrize("case", list(CAP_CASES))
def test_cap_prefixes_give_the_estimates_of_full_moduli_rows(monkeypatch,
                                                             case, draws):
    # the screens settle the same rows whether they read a prefix or the
    # whole moduli row, at the default spans and at BATCH_TRIALS-trial ones
    monkeypatch.setattr(holes, "_SCREEN_DRAWS", draws)
    prefixes, prefix = [], holes._prefix

    def spy(W, slack, lower):
        prefixes.append((prefix(W, slack, lower)[0], W.size))
        return prefix(W, slack, lower)

    monkeypatch.setattr(holes, "_prefix", spy)
    got = _record_and_kernel(CAP_CASES[case](1))
    assert prefixes and all(k < n for k, n in prefixes)
    _with_full_moduli_rows(monkeypatch)
    assert got == _record_and_kernel(CAP_CASES[case](1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_stream_its_cap_bound_settles_draws_nothing(monkeypatch, seed):
    # the tilted tail stream at L = 2, r = 0.9: cap sum W rho^shift = 0.034
    # against M/2 = 2.96, so every trial is a hit with no draw, and the
    # estimate is that of the drawn screen at every worker count
    calls, draw = [], rng.gaussian_rows

    def spy(seed, streams, purpose, lo, hi, moduli=False, out=None):
        calls.append((purpose, len(streams) * (hi - lo)))
        return draw(seed, streams, purpose, lo, hi, moduli, out)

    monkeypatch.setattr(rng, "gaussian_rows", spy)
    m, trials = hyperbolic(2.0), 2 * holes.BATCH_TRIALS + 64
    got = [_record_and_kernel(holes.estimate_hole_lower_tilted(
        m, 0.9, trials, seed, workers=workers)) for workers in (1, 2, 3)]
    assert not [c for c in calls if c[0] == rng.PURPOSE_TILT_TAIL]
    assert json.loads(got[0])[1]["tail"]["screened"] == trials
    _with_full_moduli_rows(monkeypatch)
    calls.clear()
    want = _record_and_kernel(holes.estimate_hole_lower_tilted(m, 0.9, trials,
                                                               seed))
    drawn = sum(n for p, n in calls if p == rng.PURPOSE_TILT_TAIL)
    assert drawn == trials * 100
    assert got == [want] * 3


def test_a_direct_screen_span_draws_twice(monkeypatch):
    # per screen span of 2^17 // 16 = 8192 trials, two moduli draws (the cap
    # prefix c_0..c_3 of every trial, then c_4..c_15 of the trials it
    # leaves) and one quadratic draw; then one full draw per ladder chunk
    calls, draw = [], rng.gaussian_rows

    def spy(seed, streams, purpose, lo, hi, moduli=False, out=None):
        calls.append((moduli, len(streams), lo, hi))
        return draw(seed, streams, purpose, lo, hi, moduli, out)

    monkeypatch.setattr(rng, "gaussian_rows", spy)
    trials = 20000
    est = holes.estimate_hole_direct(hyperbolic(1.0), 0.3, trials, 5)
    rest = trials - est.kernel["constant_term"] - est.kernel["quadratic"]
    assert rest > 0
    spans = math.ceil(trials / 8192)
    moduli = [c for c in calls if c[0]]
    assert [c[2:] for c in moduli] == [(0, 4), (4, 16)] * spans
    assert sum(c[1] for c in moduli[::2]) == trials
    assert sum(c[1] for c in moduli[1::2]) < trials
    assert len(calls) == 3 * spans + math.ceil(rest / holes.BATCH_TRIALS)


@pytest.mark.parametrize("L, r, rows", [(1.0, 0.3, 1 << 20), (0.5, 0.5, 1 << 18),
                                        (1.0, 0.5, 1 << 18), (2.0, 0.5, 1 << 16)])
def test_the_screen_decides_on_moduli_as_on_the_complex_rows(L, r, rows):
    m = hyperbolic(L)
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, r)
    settled = 0
    for lo in range(0, rows, 1 << 15):
        ids = np.arange(lo, lo + (1 << 15), dtype=np.uint64)
        on_moduli = holes._constant_term_holes(
            gaf.sample_coeff_batch(m, 41, ids, N_t, moduli=True), r, tail)
        on_rows = holes._constant_term_holes(
            np.abs(gaf.sample_coeff_batch(m, 41, ids, N_t)), r, tail)
        assert np.array_equal(on_moduli, on_rows), lo
        settled += int(on_moduli.sum())
    assert 0 < settled < rows


# ---------------------------------------------------------------------------
# the inner-circle pass: zeros inside r_in < r settle non-holes first
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("r", [0.3, 0.8, 0.9, 0.97])
def test_inner_radius_is_the_hyperbolic_closed_form(L, r):
    # E N(rho) = L rho^2 / (1 - rho^2) for the full series; below 2 at r
    # there is no pass
    m = hyperbolic(L)
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    r_in = holes._inner_radius(coefficients(m, N_t), r)
    mean = L * r * r / (1.0 - r * r)
    if mean < 2.0:
        assert r_in is None
    else:
        k = min(holes._INNER_ZEROS, mean / 2.0)
        assert r_in == pytest.approx(math.sqrt(k / (L + k)), rel=1e-9)


def test_no_inner_pass_below_two_expected_zeros(monkeypatch):
    # E N(0.7) = 0.96 at L = 1: the ladder runs at r only
    radii = []
    certify = holes._certify_rows

    def spy(C, rho, *args, **kwargs):
        radii.append(rho)
        return certify(C, rho, *args, **kwargs)

    monkeypatch.setattr(holes, "_certify_rows", spy)
    est = holes.estimate_hole_direct(hyperbolic(1.0), 0.7, 512, 3)
    assert set(radii) == {0.7}
    assert est.kernel["inner"] == 0 and est.kernel["inner_settle_K"] == {}
    assert est.kernel["inner_r"] is None


def test_inner_rows_of_an_explicit_model_hold_their_roots():
    # tail 0: F = F_N, so each inner row has exactly `wind` roots inside r_in
    m, r = explicit([0.2, 1.0, 1.0, 1.0, 1.0, 1.0]), 0.9
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, r)
    assert N_t == 5 and tail == 0.0
    r_in = holes._inner_radius(coefficients(m, N_t), r)
    assert r_in is not None and r_in < r
    C = gaf.sample_coeff_batch(m, 5, np.arange(4096, dtype=np.uint64), N_t)
    inner = _zero(holes._certify_rows(C, r_in, tail=tail), tail)
    assert inner.sum() > 1000
    res = holes._certify_rows(C[inner], r_in, tail=tail)
    roots = [np.sum(np.abs(np.roots(c[::-1])) < r_in) for c in C[inner]]
    assert np.array_equal(res["wind"], roots)
    est = holes.estimate_hole_direct(m, r, 4096, 5)
    exact = holes._certify_rows(C, r, tail=tail)
    # the inner pass gets the rows that neither screen step settles
    A = np.abs(C)
    left = ~holes._constant_term_holes(A, r, tail)
    left[left] = holes._quadratic_zeros(C[left, :3], A[left], r, tail) < 0
    assert est.kernel["inner"] == int((inner & left).sum())
    assert est.hits == int(_hole(exact, tail).sum())
    assert est.metadata["zeros_certified"] >= int(_zero(exact, tail).sum())


@pytest.mark.parametrize("L, r", [(2.0, 0.9), (1.0, 0.9), (0.5, 0.95)])
def test_inner_pass_keeps_the_holes_of_the_r_ladder(L, r):
    # certified holes equal those of the ladder at r alone, and rows only
    # move from inconclusive to zeros
    for seed in (3, 4, 5):
        est = holes.estimate_hole_direct(hyperbolic(L), r, 256, seed)
        assert est.kernel["inner_r"] is not None and est.kernel["inner"] > 0
        C, tail = _batch(L, r, seed, 256)
        exact = holes._certify_rows(C, r, tail=tail)
        hole, zero = _hole(exact, tail), _zero(exact, tail)
        assert est.hits == int(hole.sum())
        assert est.metadata["zeros_certified"] >= int(zero.sum())
        assert est.inconclusive <= int((~(hole | zero)).sum())


def _planted(monkeypatch, roots):
    """Draw trial t as z - roots[t] (padded to degree N_t) in both stages."""
    def rows(model, seed, ids, N_t, moduli=False, out=None):
        C = np.zeros((ids.size, N_t + 1), dtype=complex)
        C[:, 0], C[:, 1] = -np.asarray(roots)[ids.astype(np.int64)], 1.0
        return np.abs(C) if moduli else C

    monkeypatch.setattr(holes, "sample_coeff_batch", rows)


def test_a_root_between_the_circles_is_left_to_the_r_ladder(monkeypatch):
    # r_in = 0.707 at L = 2, r = 0.9: a root of modulus 0.8 is no zero of
    # the inner disk, and the ladder at r certifies it
    m, r = hyperbolic(2.0), 0.9
    between, inside = 0.8 * np.exp(1j), 0.5 * np.exp(2j)
    _planted(monkeypatch, [between])
    est = holes.estimate_hole_direct(m, r, 1, 7)
    assert est.kernel["inner"] == 0 and est.kernel["uniform_ladder"] == 1
    assert est.metadata["zeros_certified"] == 1 and est.inconclusive == 0
    _planted(monkeypatch, [between, inside])
    est = holes.estimate_hole_direct(m, r, 2, 7)
    assert est.kernel["inner"] == 1 and est.kernel["uniform_ladder"] == 1
    assert est.metadata["zeros_certified"] == 2


@pytest.mark.parametrize("L, seed, trial, wind, K", [
    (1.0, 1, 45185, 2, 128),     # 2 roots inside, one 6.9e-8 outside r
    (2.0, 66036, 109, 1, 64),
])
def test_rows_open_at_the_cap_settle_on_the_inner_circle(monkeypatch, L, seed,
                                                         trial, wind, K):
    # a root within the tail bound of the 0.9-circle keeps the r ladder open
    # at the cap; the zeros inside r_in settle the row
    m, r = hyperbolic(L), 0.9
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, r)
    C = gaf.sample_coeff_batch(m, seed, np.array([trial], dtype=np.uint64), N_t)
    assert holes._certify_rows(C, r, tail=tail)["settle_K"][0] == 0
    sample = holes.sample_coeff_batch
    monkeypatch.setattr(holes, "sample_coeff_batch",
                        lambda model, s, ids, N_t, **kw:
                        sample(model, s, ids + np.uint64(trial), N_t, **kw))
    est = holes.estimate_hole_direct(m, r, 1, seed)
    assert est.kernel["inner"] == 1 and est.kernel["inner_settle_K"] == {K: 1}
    assert est.metadata["zeros_certified"] == 1 and est.inconclusive == 0
    res = holes._certify_rows(C, est.kernel["inner_r"], tail=tail)
    assert res["wind"][0] == wind and res["settle_K"][0] == K
