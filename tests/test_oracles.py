"""Special-function oracles, averaging defects, coupling constructions.

Where two independent routes to the same quantity exist (series vs
continued fraction, closed form vs quadrature, quadrature vs Monte
Carlo) the tests drive both and compare, so no single derivation is
trusted on its own.
"""

import math

import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import quad

from gafholes import oracles, rng
from gafholes.coeffs import constant_unit, hyperbolic
from gafholes.errors import DomainError, RatioOutOfRange, ZeroConstantTerm


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

def test_exp_integral_matches_scipy_across_branch_switch():
    xs = [1e-3, 0.1, 0.5, 0.999, 1.0, 1.001, 2.0, 10.0, 50.0]
    for x in xs:
        ref = float(sp.exp1(x))
        assert oracles.exp_integral_e1(x) == pytest.approx(ref, rel=1e-12)
    assert oracles.exp_integral_e1(1.0) == pytest.approx(
        0.21938393439552029, rel=1e-14)


def test_exp_integral_domain():
    with pytest.raises(DomainError):
        oracles.exp_integral_e1(0.0)
    with pytest.raises(DomainError):
        oracles.exp_integral_e1(-1.0)


# ---------------------------------------------------------------------------
# negative moments of shifted Gaussians
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.2, 0.5, 1.0, 1.5])
def test_neg_moment_quadrature_matches_gamma(theta):
    exact = oracles.neg_moment_exact(theta)
    assert exact == pytest.approx(math.gamma(1.0 - theta / 2.0), rel=1e-14)
    assert abs(oracles.neg_moment_quadrature(theta, 1.0, 0.0) - exact) <= 1e-10


def test_neg_moment_quadrature_shifted_against_monte_carlo():
    theta, t, w = 0.5, 2.0, 0.3 + 0.1j
    key = rng.stream_key(77, np.asarray(0, dtype=np.uint64), rng.PURPOSE_COUPLING)
    z = rng.complex_gaussians(key, np.arange(200000, dtype=np.uint64))
    x = np.abs(w + z / t) ** (-theta)
    mu, se = float(np.mean(x)), float(np.std(x) / math.sqrt(len(x)))
    assert abs(oracles.neg_moment_quadrature(theta, t, w) - mu) <= 4.0 * se


def test_neg_moment_diverges_at_two():
    with pytest.raises(DomainError):
        oracles.neg_moment_exact(2.0)
    # just below the pole: large but finite
    assert oracles.neg_moment_exact(1.9) == pytest.approx(math.gamma(0.05), rel=1e-14)


# ---------------------------------------------------------------------------
# logarithmic moment and its lower bound
# ---------------------------------------------------------------------------

def test_log_moment_identity_and_independent_quadrature():
    for t in (0.1, 1.0, 3.0):
        v = oracles.log_abs_moment_exact(t)
        # identity route through the exponential integral
        assert v == pytest.approx(0.5 * float(sp.exp1(t * t)), rel=1e-12)
        # independent route: circle averages of log|z - w| depend only on
        # max(|z|, |w|), so the expectation reduces to a radial integral
        ind = quad(lambda s: 2.0 * s * math.exp(-s * s) * math.log(s / t),
                   t, t + 30.0, limit=200)[0]
        assert abs(v - ind) <= 1e-8


@pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
def test_log_moment_strictly_above_floor(t):
    assert oracles.log_abs_moment_exact(t) > math.exp(-t * t) / (2.0 * (t * t + 1.0))


def test_log_moment_decreasing_in_t():
    ts = [0.1, 0.5, 1.0, 2.0, 4.0]
    vs = [oracles.log_abs_moment_exact(t) for t in ts]
    assert all(a > b for a, b in zip(vs, vs[1:]))


def test_contraction_and_sup_reports_pass():
    assert oracles.neg_moment_contraction_check(
        (0.5, 1.0, 2.0), (0.01, 0.05, 0.1)).passed
    assert oracles.neg_moment_sup_check(0.5, 2.0).passed


@pytest.mark.parametrize("measured", [[0.5, math.nan], [math.nan, 0.5],
                                      [0.5, 2.0]])
def test_check_report_derives_a_failing_verdict(measured):
    # passed is derived from the numbers: a NaN or a measured value above
    # its asserted bound fails the check, and no caller can say otherwise
    rep = oracles.CheckReport(check_id="c", grid=[{}, {}], measured=measured,
                              asserted=[1.0, 1.0])
    assert rep.passed is False
    assert list(rep.to_record()) == ["check_id", "grid", "measured",
                                     "asserted", "passed", "constants"]
    assert oracles.CheckReport("c", [{}, {}], [0.5, 1.0], [1.0, 1.0]).passed
    with pytest.raises(TypeError):
        oracles.CheckReport("c", [{}], [0.5], [1.0], passed=False)


def test_joint_neg_moment_bound_holds():
    rep = oracles.joint_neg_moment_check(constant_unit(), 0.5, 1, 0.5, 4000, seed=9)
    assert rep.passed
    assert rep.measured[0] == pytest.approx(1.1376110249251248, rel=1e-10)
    assert rep.asserted[0] == pytest.approx(1.1757320390891017, rel=1e-10)
    rep4 = oracles.joint_neg_moment_check(constant_unit(), 0.7, 4, 0.8, 4000, seed=9)
    assert rep4.passed
    assert rep4.measured[0] <= rep4.asserted[0]


# ---------------------------------------------------------------------------
# averaging defect over rotated roots of unity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [4, 8, 16])
def test_defect_of_one_minus_z_is_log2_over_k(k):
    # the root sits on the unit circle; one rotation offset aligns a
    # k-th root with it and the average picks up exactly (log 2)/k less
    d = oracles.unity_average_defect([1.0, -1.0], k)
    assert d == pytest.approx(-math.log(2.0) / k, abs=1e-12)
    assert d <= 10.0 / (k * k)


def test_defect_random_polynomials_bounded():
    g = np.random.default_rng(111)
    for _ in range(50):
        deg = int(g.integers(1, 13))
        c = g.normal(size=deg + 1) + 1j * g.normal(size=deg + 1)
        while abs(c[0]) < 1e-6:
            c[0] = complex(g.normal(), g.normal())
        for k in (4, 8, 16):
            assert oracles.unity_average_defect(list(c), k) <= 10.0 / (k * k)


def test_defect_check_report():
    rep = oracles.unity_average_defect_check()
    assert rep.passed
    assert len(rep.measured) == len(rep.grid) == len(rep.asserted)


def test_defect_guards():
    with pytest.raises(ZeroConstantTerm):
        oracles.unity_average_defect([0.0, 1.0], 4)
    with pytest.raises(DomainError):
        oracles.unity_average_defect([1.0, 1.0], 3)


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------

def test_gaussian_coupling_marginal_and_event():
    zs, ok = oracles.gaussian_coupling_sample(0.6, 7, np.arange(4000))
    # marginal law is the standard complex Gaussian whatever the event
    assert abs(float(np.mean(np.abs(zs) ** 2)) - 1.0) < 4.0 / math.sqrt(4000)
    p = np.count_nonzero(ok) / 4000
    assert abs(p - 0.36) < 4.0 * math.sqrt(0.36 * 0.64 / 4000)


def test_gaussian_coupling_shrinks_on_event():
    z, ok = oracles.gaussian_coupling_sample(0.5, 8, np.arange(4000))
    on, off = np.abs(z[ok]) ** 2, np.abs(z[~ok]) ** 2
    # conditional second moments: sigma^2 on the event, larger off it
    assert abs(np.mean(on) - 0.25) < 0.1
    assert np.mean(off) > np.mean(on)


def test_gaussian_coupling_deterministic_and_guarded():
    a = oracles.gaussian_coupling_sample(0.6, 7, 123)
    b = oracles.gaussian_coupling_sample(0.6, 7, 123)
    assert a == b
    assert type(a[0]) is complex and type(a[1]) is bool
    for sigma in (1.5, 0.0, float("nan"), [0.5, float("nan")]):
        with pytest.raises(DomainError):
            oracles.gaussian_coupling_sample(sigma, 0, 0)


# every stream draws on its own key, so a batch neither shares nor shifts
# counters: element i of any batch is the one-stream call on stream i
_BATCHES = ([5, 3, 1000, 7], [7], [1000, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            [3, 5, 7, 1000] * 3)


@pytest.mark.parametrize("streams", _BATCHES)
def test_gaussian_coupling_batch_equals_single_streams(streams):
    for sigma in (0.05, 0.6, 1.0):
        z, ok = oracles.gaussian_coupling_sample(sigma, 9, np.asarray(streams))
        for i, s in enumerate(streams):
            assert (z[i], ok[i]) == oracles.gaussian_coupling_sample(sigma, 9, s)


@pytest.mark.parametrize("streams", _BATCHES)
def test_gaf_coupling_batch_equals_single_streams(streams):
    b = [1.0, 2.0, 0.0, 1.0j, 0.5]
    c = [0.3, 2.0, 0.0, 0.9, 0.1j]
    rows, ok = oracles.gaf_coupling_sample(b, c, 4, 9, np.asarray(streams))
    assert rows.shape == (len(streams), 5) and ok.shape == (len(streams),)
    for i, s in enumerate(streams):
        row, ok_i = oracles.gaf_coupling_sample(b, c, 4, 9, s)
        assert np.array_equal(rows[i], row) and ok[i] == ok_i
        assert type(ok_i) is bool


def test_gaf_coupling_event_and_marginal():
    b = np.ones(6)
    c = np.full(6, 0.9)
    q2 = 0.9 ** 12  # event probability: product over the six components
    rows, ok = oracles.gaf_coupling_sample(b, c, 5, 17, np.arange(4000))
    p = np.count_nonzero(ok) / 4000
    assert abs(p - q2) < 4.0 * math.sqrt(q2 * (1.0 - q2) / 4000)
    # marginal coefficient variances are b_n^2 = 1
    v = np.mean(np.abs(rows) ** 2, axis=0)
    assert np.max(np.abs(v - 1.0)) < 5.0 / math.sqrt(4000)


def test_gaf_coupling_rejects_non_damping():
    with pytest.raises(RatioOutOfRange):
        oracles.gaf_coupling_sample([1.0, 1.0], [1.0, 1.1], 1, 0, 0)
    with pytest.raises(RatioOutOfRange):
        oracles.gaf_coupling_sample([1.0], [1.0, 1.0], 1, 0, 0)
    with pytest.raises(RatioOutOfRange, match=r"\|c_1\| = 0.5 > \|b_1\| = 0 is"):
        oracles.gaf_coupling_sample([1.0, 0.0], [1.0, 0.5], 1, 0, 0)
    with pytest.raises(RatioOutOfRange,
                       match="c_1 = 0 with b_1 != 0 makes the event probability 0"):
        oracles.gaf_coupling_sample([1.0, 2.0], [1.0, 0.0], 1, 0, 0)


@pytest.mark.parametrize("stream", [
    -1, 1 << 32, 1 << 40, 1 << 70, np.asarray([0, 1 << 32], dtype=np.uint64),
    np.asarray([3, -2]), 2.0])
def test_gaf_coupling_rejects_streams_outside_32_bits(stream):
    # substream stream * 2^32 + n would overflow, or alias stream - 2^32
    with pytest.raises(DomainError, match="stream must be an integer"):
        oracles.gaf_coupling_sample([1.0, 1.0], [0.5, 0.5], 1, 0, stream)


@pytest.mark.parametrize("stream", [-1, np.array([-1, 2]), 1 << 64, 1.5])
def test_gaussian_coupling_rejects_streams_outside_64_bits(stream):
    # a uint64 cast would raise OverflowError, or wrap -1 onto stream 2^64 - 1
    with pytest.raises(DomainError, match="stream must be an integer"):
        oracles.gaussian_coupling_sample(0.5, 0, stream)


def test_standard_reports_quick_all_pass():
    reports = oracles.standard_reports(seed=0, quick=True)
    assert len(reports) >= 4
    for rep in reports:
        assert rep.passed, rep.check_id
