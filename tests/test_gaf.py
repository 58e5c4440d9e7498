"""Sampling layer: truncation control, tail certificates, evaluation."""

import math

import numpy as np
import pytest

from gafholes import coeffs, gaf
from gafholes.coeffs import constant_unit, hyperbolic
from gafholes.errors import DomainError


def test_truncation_degree_constant_unit_matches_scan():
    # the tail variance past N for a_n = 1 is r^{2(N+1)}/(1-r^2); the
    # truncation targets tau^2 sigma^2 so that the sup-norm tail
    # certificate comes out at the tau sigma scale
    r, tau = 0.5, 1e-8
    target = tau * tau * coeffs.sigma_sq(constant_unit(), r)
    N = 0
    while r ** (2 * (N + 1)) / (1.0 - r * r) > target:
        N += 1
    assert gaf.truncation_degree(constant_unit(), r, tau) == N == 26


def test_truncation_degree_hyperbolic_matches_scan():
    m = hyperbolic(2.0)
    r, tau = 0.9, 1e-8
    la = coeffs.log_sq_range(m, 3000)
    w = np.exp(la + 2.0 * np.arange(3001) * math.log(r))
    tails = np.concatenate([np.cumsum(w[::-1])[::-1][1:], [0.0]])
    target = tau * tau * coeffs.sigma_sq(m, r)
    assert gaf.truncation_degree(m, r, tau) == int(np.argmax(tails <= target)) == 192


def test_truncation_degree_monotone_in_tolerance():
    m = hyperbolic(1.0)
    degrees = [gaf.truncation_degree(m, 0.8, tau) for tau in (1e-4, 1e-6, 1e-8, 1e-10)]
    assert degrees == sorted(degrees)
    assert degrees[0] < degrees[-1]


def test_tail_sup_bound_against_partial_sum():
    # bound = sum_{k>=1} a_{N+k} rho^{N+k} sqrt(k + fail_exp) for a_n = 1
    N, rho, fe = 10, 0.5, 30.0
    bound, log_fail = gaf.tail_sup_bound(constant_unit(), N, rho, fe)
    brute = sum(rho ** (N + k) * math.sqrt(k + fe) for k in range(1, 400))
    assert bound == pytest.approx(brute, rel=1e-10)
    assert log_fail == pytest.approx(-29.541324854612917, rel=1e-12)
    # failure budget close to exp(-fail_exp) by construction
    assert log_fail < -fe + 1.0


def test_tolerance_and_failure_exponent_are_domain_errors():
    m = hyperbolic(1.0)
    for tau in (0.0, -1e-8, 1.5, float("nan")):
        with pytest.raises(DomainError, match="tau_rel"):
            gaf.truncation_degree(m, 0.5, tau)
    for fe in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match="fail_exp"):
            gaf.tail_sup_bound(m, 10, 0.5, fe)


def test_tail_sup_bound_shrinks_with_degree():
    m = hyperbolic(1.0)
    b1, _ = gaf.tail_sup_bound(m, 20, 0.7)
    b2, _ = gaf.tail_sup_bound(m, 40, 0.7)
    assert 0.0 < b2 < b1


def test_sample_is_reproducible_and_batch_consistent():
    m = hyperbolic(2.0)
    s1 = gaf.sample(m, 42, 3, 25)
    s2 = gaf.sample(m, 42, 3, 25)
    assert np.array_equal(s1.coeffs, s2.coeffs)
    rows = gaf.sample_coeff_batch(m, 42, np.arange(6, dtype=np.uint64), 25)
    assert np.array_equal(rows[3], s1.coeffs)
    # distinct streams give distinct draws
    assert not np.array_equal(rows[2], rows[3])


@pytest.mark.parametrize("model", [
    hyperbolic(0.5), hyperbolic(2.0), coeffs.power_law(1.5), constant_unit(),
    coeffs.explicit([1.0, 0.9, 0.8, 0.7, 0.6, 0.5])])
def test_low_degree_rows_are_the_first_columns_of_wider_rows(model):
    # the direct screen draws c_0..c_2 alone and relies on them being the
    # first three columns of the rows the ladder draws, bit for bit
    ids = np.arange(3000, dtype=np.uint64) * 7 + 3
    for k in (0, 1, 2, 3):
        low = gaf.sample_coeff_batch(model, 11, ids, k).view(np.uint64)
        for N_t in (k + 1, 5, 26, 193):
            wide = gaf.sample_coeff_batch(model, 11, ids, N_t)
            assert np.array_equal(low, wide[:, :k + 1].view(np.uint64)), N_t


def test_sample_coefficient_variance():
    # Re c_5 has variance a_5^2 / 2; with L = 1 that is 1/2
    rows = gaf.sample_coeff_batch(hyperbolic(1.0), 3, np.arange(10000, dtype=np.uint64), 8)
    ratio = float(np.var(rows[:, 5].real)) / 0.5
    assert 0.95 < ratio < 1.05


def test_evaluate_polynomial_convention():
    s = gaf.GafSample(constant_unit(), 3, np.array([1.0, -2.0, 0.0, 4.0], dtype=complex), 0, 0)
    z = 0.3 + 0.2j
    assert gaf.evaluate(s, z) == pytest.approx(1.0 - 2.0 * z + 4.0 * z ** 3, rel=1e-14)
    grid = np.array([0.1, 0.5j, z])
    vals = gaf.evaluate_on_grid(s.coeffs[None, :], grid)[0]
    ref = np.array([np.polyval(s.coeffs[::-1], w) for w in grid])
    assert np.max(np.abs(vals - ref)) < 1e-13


def test_derivative_sup_bound_formula():
    c = np.array([1.0, -2.0, 0.5j, 3.0], dtype=complex)
    rho = 0.7
    ref = sum(n * abs(c[n]) * rho ** (n - 1) for n in range(1, 4))
    got = gaf.derivative_sup_bound_rows(c[None, :], rho)[0]
    assert got == pytest.approx(ref, rel=1e-14)


def test_derivative_sup_bound_of_constant_rows_is_zero():
    c = np.array([[1.0 + 2.0j], [-3.0]])
    assert np.array_equal(gaf.derivative_sup_bound_rows(c, 0.7), [0.0, 0.0])

