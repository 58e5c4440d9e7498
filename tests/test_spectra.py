"""Circulant spectra and the two-part splitting of the restricted field."""

import math

import numpy as np
import pytest

from gafholes import coeffs, gaf, spectra
from gafholes.coeffs import constant_unit, explicit, hyperbolic
from gafholes.errors import DomainError, EmptySubset, InvalidRadius, NotMonotone, SizeCap

MODELS = [hyperbolic(0.5), hyperbolic(1.0), hyperbolic(2.0), hyperbolic(5.0),
          constant_unit(), explicit([1.0, 0.5, 0.25, 0.125, 0.0625])]


def test_flat_model_closed_form():
    # lambda_m = N r^{2m} / (1 - r^{2N}) for a_n = 1
    N, r = 7, 0.6
    sp = spectra.circulant_eigenvalues(hyperbolic(1.0), r, N)
    m = np.arange(N)
    ref = N * r ** (2 * m) / (1.0 - r ** (2 * N))
    assert np.max(np.abs(sp.lambdas - ref) / ref) < 1e-12


@pytest.mark.parametrize("r", [0.3, 0.9])
def test_canonical_spectrum_matches_dense_eigenvalues(r):
    for m in MODELS:
        for N in (1, 2, 5, 16, 64):
            sp = spectra.circulant_eigenvalues(m, r, N)
            S = spectra.covariance_matrix(m, r, N)
            w = np.linalg.eigvalsh(S)
            resid = np.max(np.abs(np.sort(sp.lambdas) - np.sort(w)))
            assert resid <= 1e-9 * sp.Lambda_max
            tr = N * coeffs.sigma_sq(m, r)
            assert abs(float(np.trace(S).real) - tr) <= 1e-10 * tr


def test_spectrum_invariants():
    sp = spectra.circulant_eigenvalues(hyperbolic(2.0), 0.7, 12)
    assert np.all(sp.lambdas > 0.0)
    assert sp.Lambda_max == pytest.approx(float(np.max(sp.lambdas)), rel=0)
    assert sp.log_det == pytest.approx(float(np.sum(np.log(sp.lambdas))), rel=1e-12)
    assert np.allclose(sp.scaled(), sp.lambdas / sp.N, rtol=0, atol=0)


def test_covariance_is_hermitian_circulant():
    S = spectra.covariance_matrix(hyperbolic(0.5), 0.8, 9)
    assert np.max(np.abs(S - S.conj().T)) == 0.0
    # circulant: entry depends only on the index difference mod N
    for d in range(9):
        col = [S[(j + d) % 9, j] for j in range(9)]
        assert np.max(np.abs(np.diff(col))) < 1e-15 * abs(col[0])


def test_splitting_identities():
    for m, r0, N in ((hyperbolic(0.5), 0.96, 64), (hyperbolic(1.0), 0.9, 16),
                     (constant_unit(), 0.5, 8)):
        sp = spectra.split_coefficients(m, r0, N)
        a = coeffs.coefficients(m, N - 1)[1:]
        assert np.max(np.abs(sp.b ** 2 + sp.d ** 2 - a ** 2)) <= 1e-12
        assert np.all(sp.b >= 0.0) and np.all(sp.d >= 0.0)


def test_splitting_constant_unit_closed_form():
    # b_n^2 r^{2n} = (1 - r^{2n}) r^{2N} / (1 - r^{2N})
    r0, N = 0.5, 8
    sp = spectra.split_coefficients(constant_unit(), r0, N)
    n = np.arange(1, N)
    closed = (1.0 - r0 ** (2 * n)) * r0 ** (2 * N) / (1.0 - r0 ** (2 * N))
    assert np.max(np.abs(sp.b ** 2 * r0 ** (2 * n) - closed)) <= 1e-15


def test_splitting_rejects_growing_coefficients():
    with pytest.raises(NotMonotone):
        spectra.split_coefficients(hyperbolic(2.0), 0.9, 8)


def test_split_variance_bookkeeping():
    m, r0, N = hyperbolic(0.5), 0.9, 16
    sp = spectra.split_coefficients(m, r0, N)
    gap, head = spectra.split_variance_gap(m, r0, N)
    # sigma_F^2 splits exactly into the leftover part and sigma_G1^2
    s2 = coeffs.sigma_sq(m, r0)
    assert gap + sp.sigma_g1_sq == pytest.approx(s2, rel=1e-10)
    assert 0.0 < gap < s2
    assert head == pytest.approx(
        sum(coeffs.coefficient(m, n) ** 2 * r0 ** (2 * n) for n in range(N)), rel=1e-10)
    # sigma_G1^2 is the per-point variance of the b-series
    N_t = gaf.truncation_degree(m, r0, 1e-12)
    a = coeffs.coefficients(m, N_t)
    b_full = a.copy()
    b_full[1:N] = sp.b
    brute = float(np.sum(b_full[1:] ** 2 * r0 ** (2 * np.arange(1, N_t + 1))))
    assert sp.sigma_g1_sq == pytest.approx(brute, rel=1e-9)


def test_split_sample_batch_couples_exactly():
    sp = spectra.split_coefficients(hyperbolic(0.5), 0.9, 8)
    g, g1, g2 = spectra.split_sample_batch(sp, 40, 5, np.arange(64))
    assert np.array_equal(g, g1 + g2)
    assert np.all(g[:, 0] == 0.0)
    g_again, _, _ = spectra.split_sample_batch(sp, 40, 5, np.arange(64))
    assert np.array_equal(g, g_again)


def test_split_empirical_covariance_small_grid():
    # 4000 coupled samples at N = 8: diagonal near sigma_G1^2 and
    # off-diagonal correlations at noise level (values at the scaled
    # roots of unity are uncorrelated by construction)
    m, r0, N, S = hyperbolic(0.5), 0.9, 8, 4000
    sp = spectra.split_coefficients(m, r0, N)
    _, g1, _ = spectra.split_sample_batch(sp, 40, 5, np.arange(S))
    pts = r0 * np.exp(2j * np.pi * np.arange(N) / N)
    vals = gaf.evaluate_on_grid(g1, pts)
    emp = (vals.conj().T @ vals) / S
    diag = np.real(np.diag(emp))
    assert np.max(np.abs(diag - sp.sigma_g1_sq) / sp.sigma_g1_sq) < 0.1
    corr = emp / np.sqrt(np.outer(diag, diag))
    np.fill_diagonal(corr, 0.0)
    assert np.max(np.abs(corr)) < 4.0 / math.sqrt(S) + 0.02


def test_principal_minor_interlacing():
    S = spectra.covariance_matrix(hyperbolic(0.5), 0.8, 12)
    full = spectra.principal_minor_min_eigen(S, range(12))
    w = np.linalg.eigvalsh(S)
    assert full == pytest.approx(float(w[0]), rel=1e-10)
    sub = spectra.principal_minor_min_eigen(S, [0, 3, 7])
    assert sub >= full - 1e-12
    with pytest.raises(EmptySubset):
        spectra.principal_minor_min_eigen(S, [])


def test_domain_guards():
    with pytest.raises(InvalidRadius):
        spectra.circulant_eigenvalues(hyperbolic(1.0), 1.0, 4)
    with pytest.raises(DomainError):
        spectra.circulant_eigenvalues(hyperbolic(1.0), 0.5, 0)
    with pytest.raises(SizeCap):
        spectra.covariance_matrix(hyperbolic(1.0), 0.5, spectra.DENSE_SIZE_CAP + 1)


@pytest.mark.parametrize("fn", [spectra.circulant_eigenvalues,
                                spectra.covariance_matrix,
                                spectra.split_coefficients])
def test_grid_size_below_one_is_a_domain_error(fn):
    # N counts grid points; it is not a radius
    for N in (0, -3):
        with pytest.raises(DomainError, match="N must be >= 1"):
            fn(hyperbolic(1.0), 0.5, N)
