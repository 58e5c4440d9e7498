"""The decision kernel of the direct estimator on adversarial inputs.

estimate_hole_direct runs the same min-modulus / winding ladder as the
scalar operations, so every ZeroCertified row carries its exact zero count.
These tests pin the properties the estimator relies on: per-row
determinism, kernel counters that add up and ignore the worker count,
estimate counts equal to the ladder's, and no wrong certificate for
polynomials whose roots all lie outside the disk (however close), for exact
root clusters, or for an Explicit model with a zero tail bound.  The
constant-term certificate, which settles rows before the ladder, must not
settle a row with a root on or just inside the circle or a NaN row, and
every row it settles must be a hole of the ladder.  The estimator screens
rows on their coefficient moduli and pools the other rows across batches
for the ladder: it must give the record and kernel counts of a reference
that draws each batch in full and settles it in place, and the screen must
decide on moduli as the certificate does on the complex rows.
"""

import json
from fractions import Fraction

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
    b = holes.estimate_hole_direct(hyperbolic(1.0), 0.7, 3000, 17, workers=2)
    assert a.kernel == b.kernel
    assert set(a.kernel) == {"constant_term", "uniform_ladder", "inconclusive",
                             "open_at_cap", "tube", "settle_K"}
    assert a.kernel["constant_term"] + a.kernel["uniform_ladder"] \
        + a.kernel["inconclusive"] == a.trials
    assert a.kernel["constant_term"] + a.kernel["uniform_ladder"] \
        == a.hits + a.metadata["zeros_certified"]
    # constant-term rows are holes settled before the ladder; the tube rows
    # are ladder rows; every ladder row but those open at the cap left the
    # ladder at some level, and an open row is inconclusive
    assert 0 < a.kernel["constant_term"] <= a.hits
    assert 0 < a.kernel["tube"] <= a.kernel["uniform_ladder"]
    assert sum(a.kernel["settle_K"].values()) \
        == a.trials - a.kernel["constant_term"] - a.kernel["open_at_cap"]
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
    C = np.array(rows, dtype=complex)
    for tail in (0.0, -np.inf):
        assert not np.any(holes._constant_term_holes(C, rho, tail))
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
    assert not np.any(holes._constant_term_holes(np.array(rows, dtype=complex),
                                                 rho, 0.0))


def test_constant_term_certificate_leaves_nan_rows_to_the_ladder(monkeypatch):
    m, r = hyperbolic(1.0), 0.3
    sample, moduli = holes.sample_coeff_batch, holes.sample_moduli_batch
    certify = holes._certify_rows
    seen = []

    def with_nans(draw):
        # trials 0 and 1 carry the NaN in the screen's moduli and in the
        # ladder's rows alike, wherever they sit in a batch or chunk; the
        # estimator's out= buffer goes through to the real sampler, and the
        # NaNs land in a copy, which the estimator sees only if it reads
        # what the sampler returns
        def rows(model, seed, ids, N_t, **kw):
            C = draw(model, seed, ids, N_t, **kw).copy()
            C[ids == 0, 0] = np.nan   # constant term
            C[ids == 1, 3] = np.nan   # a later coefficient
            return C
        return rows

    def spy(C, *args, **kwargs):
        seen.append(C.copy())
        return certify(C, *args, **kwargs)

    ids = np.arange(2, dtype=np.uint64)
    C = with_nans(sample)(m, 5, ids, 15)
    assert not np.any(holes._constant_term_holes(C, r, 0.0))
    assert not np.any(holes._constant_term_holes(with_nans(moduli)(m, 5, ids, 15),
                                                 r, 0.0))
    monkeypatch.setattr(holes, "sample_moduli_batch", with_nans(moduli))
    monkeypatch.setattr(holes, "sample_coeff_batch", with_nans(sample))
    monkeypatch.setattr(holes, "_certify_rows", spy)
    est = holes.estimate_hole_direct(m, r, 256, 5, K_cap=256)
    (ladder,) = seen
    assert np.sum(np.any(np.isnan(ladder), axis=1)) == 2
    assert est.kernel["open_at_cap"] == 2 and est.inconclusive == 2
    assert est.kernel["constant_term"] > 0


@pytest.mark.parametrize("r", [0.5, 0.9])
def test_constant_term_certificate_with_an_explicit_zero_tail(r):
    m = explicit([1.0, 0.9, 0.8, 0.7, 0.6, 0.5])
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, r)
    assert tail == 0.0
    C = gaf.sample_coeff_batch(m, 3, np.arange(4096, dtype=np.uint64), N_t)
    pre = holes._constant_term_holes(C, r, tail)
    assert pre.any()
    # F = F_N here: no settled row has a root in the closed disk
    nearest = np.array([np.min(np.abs(np.roots(c[::-1]))) for c in C[pre]])
    assert np.all(nearest > r)
    assert np.all(_hole(holes._certify_rows(C[pre], r, tail=tail), tail))


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
def test_constant_term_rows_are_holes_of_the_ladder(L, r):
    C, tail = _batch(L, r, 71, holes.BATCH_TRIALS)
    pre = holes._constant_term_holes(C, r, tail)
    # at L = 2, r = 0.7 no row qualifies (its tail bound is the largest)
    assert pre.any() or (L, r) == (2.0, 0.7)
    res = holes._certify_rows(C[pre], r, tail=tail)
    assert np.all(_hole(res, tail))


# ---------------------------------------------------------------------------
# two stages: a screen on the moduli, then ladder chunks pooled across batches
# ---------------------------------------------------------------------------

def _one_stage_estimate(m, r, trials, seed, confidence=0.99):
    """(record, kernel) of a direct estimate drawn in full per BATCH_TRIALS
    span: constant-term rows settled on the complex rows, the others
    through the ladder in the same batch."""
    N_t, tail, meta = holes._truncate(m, r, trials, gaf.DEFAULT_TAU_REL,
                                      gaf.DEFAULT_FAIL_EXP,
                                      holes.DEFAULT_COMPUTE_BUDGET)
    pre_n = hole_n = zero_n = inc_n = tube_n = open_n = 0
    settle_K = {}
    for lo in range(0, trials, holes.BATCH_TRIALS):
        ids = np.arange(lo, min(lo + holes.BATCH_TRIALS, trials), dtype=np.uint64)
        C = gaf.sample_coeff_batch(m, seed, ids, N_t)
        pre = holes._constant_term_holes(C, r, tail)
        res = holes._certify_rows(C[~pre], r, tail=tail)
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
              "zeros_certified": zero_n}
    kernel = {"constant_term": pre_n, "uniform_ladder": hole_n + zero_n,
              "open_at_cap": open_n, "inconclusive": inc_n, "tube": tube_n,
              "settle_K": settle_K}
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


def test_a_screen_that_settles_every_row_leaves_no_ladder_chunk(monkeypatch):
    def no_ladder(*args, **kwargs):
        raise AssertionError("no row should reach the ladder")

    record, kernel = _one_stage_estimate(hyperbolic(1.0), 0.05, 16, 3)
    assert kernel["constant_term"] == 16
    monkeypatch.setattr(holes, "sample_coeff_batch", no_ladder)
    est = holes.estimate_hole_direct(hyperbolic(1.0), 0.05, 16, 3)
    assert est.to_record() == record and est.kernel == kernel


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
            gaf.sample_moduli_batch(m, 41, ids, N_t), r, tail)
        on_rows = holes._constant_term_holes(
            gaf.sample_coeff_batch(m, 41, ids, N_t), r, tail)
        assert np.array_equal(on_moduli, on_rows), lo
        settled += int(on_moduli.sum())
    assert 0 < settled < rows
