"""Coefficient models: closed forms, series sums, the planar functional."""

import math

import numpy as np
import pytest

from gafholes import coeffs
from gafholes.coeffs import (constant_unit, explicit, hyperbolic,
                             model_from_descriptor, power_law)
from gafholes.errors import (IndexOutOfRange, InvalidModel, InvalidRadius)


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 5.0])
def test_hyperbolic_squares_match_gamma_ratio(L):
    # a_n^2 = Gamma(n+L) / (Gamma(L) Gamma(n+1)), checked in log form
    la = coeffs.log_sq_range(hyperbolic(L), 50)
    for n in range(51):
        ref = math.lgamma(n + L) - math.lgamma(L) - math.lgamma(n + 1)
        assert abs(la[n] - ref) < 1e-12 * max(1.0, abs(ref))


def test_flat_case_is_all_ones():
    a = coeffs.coefficients(hyperbolic(1.0), 40)
    assert np.max(np.abs(a - 1.0)) == 0.0
    b = coeffs.coefficients(constant_unit(), 40)
    assert np.max(np.abs(b - 1.0)) == 0.0


def test_power_law_squares():
    m = power_law(2.0)
    assert coeffs.coefficient(m, 0) == 1.0
    for n in (1, 3, 10):
        assert np.exp(coeffs.log_sq_at(m, n)) == pytest.approx(float(n), rel=1e-12)


def test_explicit_sequence_round_trip():
    seq = [1.0, 0.5, 0.25, 0.125]
    m = explicit(seq)
    assert np.allclose(coeffs.coefficients(m, 3), seq, rtol=0, atol=0)
    d = m.describe()
    assert d["kind"] == "Explicit"
    assert model_from_descriptor(d).explicit_seq == tuple(seq) or \
        list(model_from_descriptor(d).explicit_seq) == seq


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("r", [0.3, 0.6, 0.9, 0.99])
def test_variance_closed_form(L, r):
    # sum_n a_n^2 r^{2n} = (1 - r^2)^{-L}
    s2 = coeffs.sigma_sq(hyperbolic(L), r)
    ref = (1.0 - r * r) ** (-L)
    assert abs(s2 - ref) <= 1e-10 * ref


def test_variance_explicit_matches_brute_sum():
    seq = [1.0, 0.7, 0.2, 0.05]
    r = 0.8
    brute = sum(c * c * r ** (2 * n) for n, c in enumerate(seq))
    assert coeffs.sigma_sq(explicit(seq), r) == pytest.approx(brute, rel=1e-14)


def test_log_sq_block_agrees_with_pointwise():
    m = hyperbolic(2.5)
    la = coeffs.log_sq_range(m, 200)
    for n in (0, 1, 37, 200):
        assert la[n] == pytest.approx(coeffs.log_sq_at(m, n), rel=0, abs=1e-11)


def test_a_hyperbolic_block_past_zero_is_the_block_of_the_scan():
    # log_sq_block once needed a carry from its caller at start > 0 and
    # raised ValueError without one
    m = hyperbolic(2.5)
    got = coeffs.log_sq_block(m, 100, 200)
    n, want = next(coeffs.log_sq_blocks(m, 100, size=100))
    assert n.tolist() == list(range(100, 200))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_monotonicity_classification():
    assert coeffs.is_nonincreasing(hyperbolic(0.5))
    assert coeffs.is_nonincreasing(hyperbolic(1.0))
    assert coeffs.is_nonincreasing(constant_unit())
    assert not coeffs.is_nonincreasing(hyperbolic(2.0))
    assert not coeffs.is_nonincreasing(power_law(3.0))


# The planar functional S_F(r) = sum_n log_+(a_n^2 r^{2n}), normalized by
# delta^{-1} log^2(1/delta), approaches (L-1)^2/4 as r -> 1.  The values
# below are what the implementation yields at delta = 1e-4 and make the
# remaining pre-asymptotic excess visible (3.2%, 14.5%, 23.6%).
PLANAR_NORMALIZED_1E4 = {
    1.5: 0.0644784763099097,
    2.0: 0.28627324791296455,
    3.0: 1.2357494540900138,
}


@pytest.mark.parametrize("L,expected", sorted(PLANAR_NORMALIZED_1E4.items()))
def test_planar_functional_normalized_values(L, expected):
    delta = 1e-4
    s = coeffs.log_plus_sum(hyperbolic(L), 1.0 - delta)
    norm = s * delta / math.log(1.0 / delta) ** 2
    assert norm == pytest.approx(expected, rel=1e-9)
    # stays above the limiting constant at finite delta
    assert norm > (L - 1.0) ** 2 / 4.0


def test_planar_functional_explicit_kind():
    # only the n = 1 term of 4 z r exceeds 1 at r = 0.5
    m = explicit([1.0, 4.0, 0.1])
    assert coeffs.log_plus_sum(m, 0.5) == pytest.approx(math.log(4.0), rel=1e-12)


def test_domain_errors():
    with pytest.raises(IndexOutOfRange):
        coeffs.coefficient(hyperbolic(1.0), -1)
    with pytest.raises(InvalidRadius):
        coeffs.sigma_sq(hyperbolic(1.0), 1.0)
    with pytest.raises(InvalidModel):
        coeffs.sigma_sq(hyperbolic(0.0), 0.5)
    with pytest.raises(InvalidModel):
        model_from_descriptor({"kind": "Nope"})
    with pytest.raises(InvalidModel):
        explicit([])
