"""Certified decisions and the three hole-probability estimators.

The certification layer is exercised against planted-root polynomials
where ground truth is known exactly, and the estimators against the
determinantal closed form available for the flat model.  Monte Carlo
outputs are pinned to exact values at fixed seeds: every estimator is
a pure function of its arguments, so byte-stable results are part of
the contract, not an accident.
"""

import inspect
import math

import numpy as np
import pytest
from scipy.special import ndtri

from gafholes import coeffs, gaf, holes, oracles
from gafholes.coeffs import constant_unit, explicit, hyperbolic
from gafholes.errors import (ComputeBudgetExceeded, DomainError,
                             IntensityOutOfRange, InvalidIntensity,
                             InvalidPoint, InvalidRadius)


def _poly_sample(c):
    c = np.asarray(c, dtype=complex)
    return gaf.GafSample(constant_unit(), len(c) - 1, c, 0, 0)


# ---------------------------------------------------------------------------
# certified minimum modulus and winding numbers
# ---------------------------------------------------------------------------

def test_min_modulus_constant():
    # F = 1: no variation, so the bound is the grid value less the rounding
    # term E = g |c_0|
    lb, gmin, K = holes.min_modulus_certified(_poly_sample([1.0]), 0.5)
    assert (lb, gmin, K) == (1.0 - holes._rounding_gamma(1), 1.0, 8)


def test_min_modulus_linear():
    # F = z on the circle of radius 1/2: true minimum 1/2; the certified
    # bound is the tube bound, the distance 0.5 cos(pi/8) from 0 to a side
    # of the grid octagon less (h^2/8) D_2 = (pi/8)^2 / 4
    lb, gmin, K = holes.min_modulus_certified(_poly_sample([0.0, 1.0]), 0.5)
    assert gmin == 0.5
    assert K == 8
    assert lb == pytest.approx(0.42338662406388355, rel=1e-12)
    assert lb <= 0.5


def test_min_modulus_below_dense_sampling():
    for stream in (3, 4, 5):
        s = gaf.sample(hyperbolic(1.0), 5, stream, 30)
        lb, gmin, _ = holes.min_modulus_certified(s, 0.5)
        zs = 0.5 * np.exp(2j * np.pi * np.arange(100000) / 100000)
        dense = float(np.min(np.abs(gaf.evaluate_on_grid(s.coeffs[None, :], zs)[0])))
        assert lb <= dense + 1e-12
        assert gmin >= dense - 1e-12 or gmin == pytest.approx(dense, rel=1e-6)


def test_winding_counts_zeros():
    assert holes.winding_number_certified(_poly_sample([1.0]), 0.5) == 0
    assert holes.winding_number_certified(_poly_sample([-0.1, 1.0]), 0.5) == 1
    # 0.25 + z^2 has both roots at modulus 1/2, inside radius 0.7
    assert holes.winding_number_certified(_poly_sample([0.25, 0.0, 1.0]), 0.7) == 2


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_winding_is_none_for_a_root_on_the_circle(rho):
    # F = z - rho vanishes exactly at the grid point rho of every level, so
    # the grid minimum and the segment distance stay 0 and neither winding
    # certificate fires up to the cap
    assert holes.winding_number_certified(_poly_sample([-rho, 1.0]), rho) is None


# ---------------------------------------------------------------------------
# hole decisions
# ---------------------------------------------------------------------------

def test_decision_constant_hole():
    d = holes.hole_decision(_poly_sample([1.0]), 0.5, 0.1)
    assert d.outcome == holes.OUTCOME_HOLE
    assert d.margin == pytest.approx(0.9, rel=1e-15)
    assert d.zero_count == 0


def test_decision_zero_inside():
    d = holes.hole_decision(_poly_sample([-0.1, 1.0]), 0.5, 0.01)
    assert d.outcome == holes.OUTCOME_ZERO
    assert d.zero_count == 1
    assert d.margin == pytest.approx(0.3209986708127549, rel=1e-12)
    assert d.grid_size_used == 8


@pytest.mark.parametrize("delta, tail, side", [
    (1e-7, 1e-9, 1),
    *[(delta, 1e-13, side) for delta in (1e-9, 1e-10, 1e-11, 1e-12)
      for side in (1, -1)],
])
def test_decision_near_circle_root_uses_refinement(delta, tail, side):
    # root a relative delta outside (side 1) or inside (side -1) the
    # circle: the ladder separates it from the circle only on a fine grid,
    # 8192 points at 1e-7 (tube bound) and 2^17 to 2^20 points below 1e-8
    root = 0.5 * (1.0 + side * delta)
    d = holes.hole_decision(_poly_sample([-root, 1.0]), 0.5, tail)
    wrong = holes.OUTCOME_ZERO if side > 0 else holes.OUTCOME_HOLE
    assert d.outcome != wrong
    if delta < 1e-11:
        return   # below what the default cap resolves: may be Inconclusive
    if side > 0:
        assert d.outcome == holes.OUTCOME_HOLE
    else:
        assert (d.outcome, d.zero_count) == (holes.OUTCOME_ZERO, 1)
    assert 0.0 < d.margin <= delta / 2
    assert d.grid_size_used > (1000 if delta > 1e-8 else 1 << 14)


def test_decisions_sound_on_planted_roots():
    # ground truth by construction: polynomials with known zero counts
    # inside the circle; the decision may abstain but must never certify
    # the wrong side, and a certified count must be exact
    rng_local = np.random.default_rng(202)
    rho = 0.5
    decided = 0
    for _ in range(200):
        n_in = int(rng_local.integers(0, 4))
        n_out = int(rng_local.integers(1, 4))
        r_in = rng_local.uniform(0.05, 0.4 * rho, n_in)
        r_out = rng_local.uniform(1.4 * rho, 3.0 * rho, n_out)
        phases = np.exp(2j * np.pi * rng_local.uniform(size=n_in + n_out))
        roots = np.concatenate([r_in, r_out]) * phases
        c = np.poly(roots)[::-1].astype(complex)
        c *= rng_local.normal() + 1j * rng_local.normal()
        d = holes.hole_decision(_poly_sample(c), rho, 1e-12)
        if n_in == 0:
            assert d.outcome != holes.OUTCOME_ZERO
        else:
            assert d.outcome != holes.OUTCOME_HOLE
        if d.outcome == holes.OUTCOME_ZERO:
            assert d.zero_count == n_in
            decided += 1
        elif d.outcome == holes.OUTCOME_HOLE:
            assert n_in == 0
            decided += 1
    # abstentions are allowed in principle but must be rare at these margins
    assert decided >= 195


def test_decision_fixture_frozen():
    m = hyperbolic(1.0)
    N_t = gaf.truncation_degree(m, 0.5, gaf.DEFAULT_TAU_REL)
    assert N_t == 26
    tail, _ = gaf.tail_sup_bound(m, N_t, 0.5)
    assert tail == pytest.approx(8.427397834823821e-08, rel=1e-12)
    d = holes.hole_decision(gaf.sample(m, 7, 0, N_t), 0.5, tail)
    assert d.outcome == holes.OUTCOME_HOLE
    assert d.margin == pytest.approx(0.9595074670466474, rel=1e-12)
    assert d.grid_size_used == 8


# ---------------------------------------------------------------------------
# direct estimator
# ---------------------------------------------------------------------------

def test_wilson_interval_basics():
    lo, hi = holes.wilson_interval(50, 100, 0.95)
    assert 0.0 < lo < 0.5 < hi < 1.0
    assert hi - lo < 0.25
    assert holes.wilson_interval(0, 100, 0.99)[0] == 0.0
    assert holes.wilson_interval(100, 100, 0.99)[1] == 1.0
    # widening confidence widens the interval
    lo2, hi2 = holes.wilson_interval(50, 100, 0.99)
    assert lo2 < lo and hi2 > hi
    for hits in (11, -1):
        with pytest.raises(ValueError, match="hits"):
            holes.wilson_interval(hits, 10, 0.99)


def test_normal_quantile_equals_scipy_ndtri():
    # p = 0.5 + c/2 as wilson_interval forms it (c = 1 - 2^-53 gives p = 1)
    cs = list(np.random.default_rng(12).random(20000))
    cs += [1.0 - 10.0 ** -k for k in range(1, 16)] + [0.99, 0.995, 1.0 - 2.0 ** -53]
    ps = [0.5 + c / 2.0 for c in cs]
    # the p = 1 - e^-2 branch boundary and the x = 8 switch, with neighbours
    for edge in (1.0 - 0.13533528323661269189, 1.0 - math.exp(-32.0)):
        ps += [float(np.nextafter(edge, 0.0)), edge, float(np.nextafter(edge, 1.0))]
    x8 = [math.sqrt(-2.0 * math.log(1.0 - p)) for p in ps[-3:]]
    assert min(x8) < 8.0 <= max(x8) and 1.0 in ps
    for p in ps:
        assert holes._ndtri_upper(p) == float(ndtri(p)), p


def _wilson_with_scipy_z(hits, trials, confidence):
    z = float(ndtri(0.5 + confidence / 2.0))
    n = float(trials)
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def test_wilson_interval_equals_the_scipy_quantile_formula():
    for n in (1, 2, 7, 100, 4096, 400000):
        for k in sorted({0, 1, n // 3, n - 1, n}):
            for conf in (0.5, 0.9, 0.95, 0.99, 0.995, 1.0 - 1e-15, 1.0 - 2.0 ** -53):
                assert holes.wilson_interval(k, n, conf) == _wilson_with_scipy_z(k, n, conf)


def test_wilson_interval_is_the_whole_range_when_the_quantile_is_infinite():
    # 0.5 + c/2 rounds to 1 at c = 1 - 2^-53, so z = inf
    assert holes._ndtri_upper(0.5 + (1.0 - 2.0 ** -53) / 2.0) == math.inf
    for n in (1, 7, 400000):
        for k in (0, n // 2, n):
            assert holes.wilson_interval(k, n, 1.0 - 2.0 ** -53) == (0.0, 1.0)


def test_direct_estimate_frozen_and_contains_oracle():
    est = holes.estimate_hole_direct(hyperbolic(1.0), 0.5, 4096, 2)
    assert est.hits == 2806
    assert est.inconclusive == 0
    assert est.p_low == pytest.approx(0.6660774514664936, rel=1e-12)
    assert est.p_high == pytest.approx(0.7034411721029559, rel=1e-12)
    assert est.metadata["N_t"] == 26
    assert est.metadata["zeros_certified"] == 1290
    oracle = holes.determinantal_hole_probability(0.5)
    assert est.p_low <= oracle <= est.p_high


def test_direct_estimate_deterministic_across_workers():
    a = holes.estimate_hole_direct(hyperbolic(1.0), 0.5, 4096, 9, workers=1)
    b = holes.estimate_hole_direct(hyperbolic(1.0), 0.5, 4096, 9, workers=3)
    assert a.to_record() == b.to_record()


def test_direct_estimate_monotone_in_radius():
    ests = [holes.estimate_hole_direct(hyperbolic(1.0), r, 2000, 31)
            for r in (0.3, 0.5, 0.7)]
    ps = [e.hits / e.trials for e in ests]
    assert ps[0] > ps[1] + 0.05 > ps[2] + 0.1
    assert all(e.inconclusive == 0 for e in ests)


def test_direct_estimate_saturates_at_tiny_radius():
    est = holes.estimate_hole_direct(hyperbolic(1.0), 0.01, 2000, 41)
    assert est.hits == est.trials
    assert est.p_high == 1.0


def test_direct_estimate_decides_every_trial_at_moderate_radius():
    est = holes.estimate_hole_direct(hyperbolic(2.0), 0.8, 500, 51)
    assert est.inconclusive == 0


def test_inconclusive_trials_counted_pessimistically():
    # the interval endpoints must bracket whatever the undecided trials
    # turn out to be: hits count toward the upper end, misses toward the
    # lower end
    est = holes.estimate_hole_direct(hyperbolic(1.0), 0.5, 2048, 6)
    lo_all, _ = holes.wilson_interval(est.hits, est.trials, est.confidence)
    _, hi_all = holes.wilson_interval(est.hits + est.inconclusive,
                                      est.trials, est.confidence)
    assert est.p_low == pytest.approx(lo_all, rel=1e-12)
    assert est.p_high == pytest.approx(hi_all, rel=1e-12)


# ---------------------------------------------------------------------------
# threshold and tilted lower bounds
# ---------------------------------------------------------------------------

def test_threshold_estimate_frozen():
    est = holes.estimate_hole_lower_threshold(hyperbolic(1.0), 0.5, 4096, 12, M=2.0)
    assert est.hits == 4096
    assert est.p_high == 1.0
    assert est.p_low == pytest.approx(0.018286018322129758, rel=1e-12)
    assert est.metadata["q_low"] == pytest.approx(0.9983827718604651, rel=1e-12)
    # e^{-M^2} q_low is the certified bound
    assert est.p_low == pytest.approx(
        math.exp(-4.0) * est.metadata["q_low"], rel=1e-12)


def test_threshold_sits_below_oracle():
    est = holes.estimate_hole_lower_threshold(hyperbolic(1.0), 0.5, 4096, 12, M=2.0)
    assert est.p_low <= holes.determinantal_hole_probability(0.5)


def test_threshold_default_M_by_regime():
    assert holes.default_threshold(1.0, 0.96) == pytest.approx(15.0, rel=1e-12)
    assert holes.default_threshold(2.0, 0.99) == pytest.approx(
        31.43650547438603, rel=1e-12)
    assert holes.default_threshold(0.5, 0.99) == pytest.approx(
        4.425732882164286, rel=1e-12)
    # closed forms behind the two frozen non-flat values
    assert holes.default_threshold(2.0, 0.99) == pytest.approx(
        10.0 * math.log(100.0) ** 0.75, rel=1e-12)
    assert holes.default_threshold(0.5, 0.99) == pytest.approx(
        math.sqrt(0.6) * (1 - 0.99 ** 2) ** -0.25 * math.sqrt(math.log(100.0)),
        rel=1e-12)


@pytest.mark.parametrize("model", [constant_unit(), explicit((1.0, 0.5, 0.25))])
def test_threshold_default_M_without_an_exponent_is_the_flat_one(model):
    # ConstantUnit and Explicit models carry no L: the default M is the
    # L = 1 threshold B sqrt(1 / (1 - r))
    est = holes.estimate_hole_lower_threshold(model, 0.5, 64, 3)
    assert est.M == holes.default_threshold(1.0, 0.5) == 3.0 * math.sqrt(2.0)
    assert est == holes.estimate_hole_lower_threshold(model, 0.5, 64, 3, M=est.M)
    est = holes.estimate_hole_lower_threshold(model, 0.5, 64, 3, B=2.0)
    assert est.M == 2.0 * math.sqrt(2.0)


def test_threshold_default_M_rejects_negative_radicand():
    # decaying regime: sqrt(1 - L + 2 eps) needs eps >= (L - 1)/2
    with pytest.raises(DomainError, match="eps"):
        holes.default_threshold(0.5, 0.5, eps=-1.0)
    with pytest.raises(DomainError, match="eps"):
        holes.estimate_hole_lower_threshold(hyperbolic(0.5), 0.5, 8, 0, eps=-1.0)
    assert holes.default_threshold(0.5, 0.5, eps=-0.25) == 0.0


def test_threshold_never_exceeds_direct_upper():
    # paired runs on disjoint seeds; a certified lower bound crossing an
    # independent 99% upper bound more than once in twenty pairs would
    # mean one of the two is wrong
    m = hyperbolic(1.0)
    violations = 0
    for s in range(20):
        thr = holes.estimate_hole_lower_threshold(m, 0.5, 256, 100 + s, M=2.0)
        direct = holes.estimate_hole_direct(m, 0.5, 256, 200 + s)
        violations += thr.p_low > direct.p_high
    assert violations <= 1


def test_threshold_constant_factor_uses_a0():
    # P[|F(0)| > M] = exp(-M^2 / a_0^2): F(0) = a_0 zeta_0, and F(0) = 0
    # when a_0 = 0, so no sample is a hole at any radius
    m = explicit((0.0, 0.3, 0.2))
    thr = holes.estimate_hole_lower_threshold(m, 0.5, 2000, 1, M=1.0)
    direct = holes.estimate_hole_direct(m, 0.5, 2000, 1)
    assert thr.metadata["q_low"] > 0.99
    assert thr.p_low == 0.0
    assert direct.hits == 0 and thr.p_low <= direct.p_high
    m = explicit((0.2, 0.05))
    thr = holes.estimate_hole_lower_threshold(m, 0.5, 2000, 1, M=0.5)
    assert thr.metadata["q_low"] > 0.99
    assert thr.p_low == pytest.approx(
        math.exp(-0.25 / 0.04) * thr.metadata["q_low"], rel=1e-12)


def test_tilt_profile_frozen():
    q, N, N1, M, r2, alpha1, log_Q2 = holes.tilt_profile(hyperbolic(2.0), 0.9)
    assert (N, N1) == (92, 11)
    assert M == pytest.approx(5.911010986140177, rel=1e-12)
    assert alpha1 == pytest.approx(0.3670965699997514, rel=1e-12)
    assert log_Q2 == pytest.approx(-244.02180837982087, rel=1e-10)
    assert len(q) == N
    assert np.all(q > 0.0) and np.all(q <= 1.0)


def test_tilted_estimate_frozen():
    est = holes.estimate_hole_lower_tilted(hyperbolic(2.0), 0.9, 512, 13)
    md = est.metadata
    assert (md["mid_hits"], md["tail_hits"]) == (264, 512)
    assert md["log10_p_low"] == pytest.approx(-121.50130464290325, rel=1e-10)
    assert est.p_low > 0.0
    assert est.p_low == pytest.approx(10.0 ** md["log10_p_low"], rel=1e-10)


def test_tilted_requires_growing_coefficients():
    with pytest.raises(IntensityOutOfRange):
        holes.estimate_hole_lower_tilted(hyperbolic(1.0), 0.9, 8, 0)


# ---------------------------------------------------------------------------
# determinantal closed form for the flat model
# ---------------------------------------------------------------------------

def test_determinantal_probability_against_partial_product():
    p = holes.determinantal_hole_probability(0.5)
    brute = 1.0
    for k in range(1, 200):
        brute *= 1.0 - 0.25 ** k
    assert p == pytest.approx(brute, rel=1e-12)
    assert p == pytest.approx(0.6885375371203398, rel=1e-12)


def test_determinantal_log_form_survives_underflow():
    lp = holes.log_determinantal_hole_probability(0.999)
    assert math.exp(lp) == 0.0 or math.exp(lp) < 1e-300
    # -(1-r) log p approaches pi^2/12
    val = -(1.0 - 0.999) * lp
    assert val == pytest.approx(0.8180296554809711, rel=1e-12)
    assert abs(val - math.pi ** 2 / 12.0) / (math.pi ** 2 / 12.0) < 0.02


def test_determinantal_monotone_decreasing():
    ps = [holes.determinantal_hole_probability(r) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


# ---------------------------------------------------------------------------
# argument and budget guards
# ---------------------------------------------------------------------------

def test_estimator_argument_guards():
    m = hyperbolic(1.0)
    with pytest.raises(InvalidRadius):
        holes.estimate_hole_direct(m, 1.0, 8, 0)
    with pytest.raises(DomainError):
        holes.estimate_hole_direct(m, 0.5, 0, 0)
    with pytest.raises(DomainError):
        holes.estimate_hole_direct(m, 0.5, 8, 0, confidence=1.0)
    with pytest.raises(ComputeBudgetExceeded):
        holes.estimate_hole_direct(m, 0.9, 10 ** 7, 0, budget=1e3)


@pytest.mark.parametrize("K", [0, -8])
def test_non_positive_K_cap_rejected(K):
    # every operation checks the grid cap; the estimators check the worker
    # count with it
    s = _poly_sample([1.0])
    with pytest.raises(DomainError):
        holes.hole_decision(s, 0.5, 0.1, K_cap=K)
    with pytest.raises(DomainError):
        holes.winding_number_certified(s, 0.5, K_cap=K)
    with pytest.raises(DomainError):
        holes.min_modulus_certified(s, 0.5, K_cap=K)
    for kw in ({"K_cap": K}, {"workers": K}):
        for est in (holes.estimate_hole_direct,
                    holes.estimate_hole_lower_threshold):
            with pytest.raises(DomainError):
                est(hyperbolic(1.0), 0.5, 8, 0, **kw)
        with pytest.raises(DomainError):
            holes.estimate_hole_lower_tilted(hyperbolic(2.0), 0.9, 8, 0, **kw)


@pytest.mark.parametrize("K", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["K_cap"])
def test_non_finite_grid_sizes_rejected_before_any_ladder(monkeypatch, name, K):
    # an infinite cap would double the ladder's levels forever, and a NaN
    # one would run a single level that is never the cap level
    def no_ladder(*args, **kwargs):
        raise AssertionError("no ladder should run")

    monkeypatch.setattr(holes, "_ladder_levels", no_ladder)
    monkeypatch.setattr(holes, "_climb", no_ladder)
    with pytest.raises(DomainError, match=name):
        holes.hole_decision(_poly_sample([1.0]), 0.5, 0.1, **{name: K})
    with pytest.raises(DomainError, match=name):
        holes.estimate_hole_direct(hyperbolic(1.0), 0.5, 64, 1, **{name: K})


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0, 1.5, True])
@pytest.mark.parametrize("name", ["trials", "workers"])
def test_trials_and_workers_must_be_integers_before_any_pool(monkeypatch,
                                                             name, bad):
    # workers=nan once hung: ThreadPoolExecutor(max_workers=nan) starts no
    # thread, and its map waits forever
    def no_pool(*args, **kwargs):
        raise AssertionError("no pool should be built")

    monkeypatch.setattr(holes, "ThreadPoolExecutor", no_pool)
    kw = {"trials": 4096, "workers": 2, name: bad}
    for est, m, r in ((holes.estimate_hole_direct, hyperbolic(1.0), 0.3),
                      (holes.estimate_hole_lower_threshold, hyperbolic(1.0), 0.5),
                      (holes.estimate_hole_lower_tilted, hyperbolic(2.0), 0.9)):
        with pytest.raises(DomainError, match=name):
            est(m, r, seed=1, **kw)


@pytest.mark.parametrize("call, want", [
    (lambda: holes.default_threshold(math.nan, 0.5), InvalidIntensity),
    (lambda: holes.default_threshold(math.inf, 0.5), InvalidIntensity),
    (lambda: gaf.evaluate(_poly_sample([1.0, 1.0]), complex(math.nan, 0.0)),
     InvalidPoint),
    (lambda: gaf.evaluate(_poly_sample([1.0, 1.0]), complex(0.0, math.nan)),
     InvalidPoint),
    (lambda: oracles.exp_integral_e1(math.inf), 0.0),
], ids=["threshold-L-nan", "threshold-L-inf", "evaluate-re-nan",
        "evaluate-im-nan", "E1-inf"])
def test_non_finite_inputs_raise_or_give_the_limit(call, want):
    # each once returned a number: the growing-regime threshold, NaN, NaN
    if isinstance(want, float):
        assert call() == want
    else:
        with pytest.raises(want):
            call()


@pytest.mark.parametrize("tail", [math.nan, -1e-12, -math.inf])
def test_nan_or_negative_tail_bound_rejected(tail):
    # a NaN tail would send the row to the grid cap and end Inconclusive
    # with the winding reason
    with pytest.raises(DomainError, match="tail_bound"):
        holes.hole_decision(_poly_sample([1.0]), 0.5, tail)


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
def test_every_scalar_operation_reports_the_same_circle(r):
    # the three scalar operations share one ladder; with tail 0
    # hole_decision stops where the winding certificate fires, as the other
    # two do, so all three report the same circle
    for stream in range(8):
        s = gaf.sample(hyperbolic(1.0), 4, stream, 24)
        lb, gmin, K = holes.min_modulus_certified(s, r)
        w = holes.winding_number_certified(s, r)
        d = holes.hole_decision(s, r, 0.0)
        assert w is not None
        assert 0.0 < lb <= gmin
        assert d.margin == lb
        assert d.grid_size_used == K
        if w == 0:
            assert d.outcome == holes.OUTCOME_HOLE
        else:
            assert (d.outcome, d.zero_count) == (holes.OUTCOME_ZERO, w)


@pytest.mark.parametrize("K_cap, top", [(1, 8), (8, 8), (1000, 1024),
                                        (1 << 20, 1 << 20)])
def test_every_ladder_starts_at_8_points_and_ends_at_the_first_level_at_the_cap(
        K_cap, top):
    # so every level is 8 2^k, a power of two: the FFT needs no other check
    Ks = holes._ladder_levels(K_cap)
    assert Ks == [8 << k for k in range(len(Ks))]
    assert Ks[-1] == top and Ks[-1] >= K_cap
    assert len(Ks) == 1 or Ks[-2] < K_cap


def test_ladder_parameters_past_the_sample_are_keyword_only():
    # a call written for the first level as a parameter, (s, r, K_init,
    # K_cap), must not run with its first level taken as the cap
    s = _poly_sample([1.0, 0.5])
    with pytest.raises(TypeError):
        holes.min_modulus_certified(s, 0.5, 8, 1 << 20)
    with pytest.raises(TypeError):
        holes.winding_number_certified(s, 0.5, 8)
    with pytest.raises(TypeError):
        holes.hole_decision(s, 0.5, 0.0, 8)
    with pytest.raises(TypeError):
        holes._certify_rows(s.coeffs[None, :], 0.5, 8)
    with pytest.raises(TypeError):
        holes._sup_counts(s.coeffs[None, :], 0.5, 2.0, 0.0, 8)
    for est in (holes.estimate_hole_direct, holes.estimate_hole_lower_threshold,
                holes.estimate_hole_lower_tilted):
        params = inspect.signature(est).parameters
        for name in ("K_cap", "budget", "workers"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, name
