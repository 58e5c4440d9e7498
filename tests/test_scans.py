"""Open-ended series scans: the block generator and the sums built on it."""

import numpy as np
import pytest

from gafholes import coeffs, gaf, spectra
from gafholes.coeffs import constant_unit, hyperbolic, power_law
from gafholes.errors import NoConvergence

# a radius whose series need more than coeffs.HARD_TERM_CAP terms
TOO_CLOSE = 1.0 - 1e-9


def test_blocks_double_and_tile_the_index_range():
    blocks = coeffs.log_sq_blocks(power_law(2.0), start=5, size=3, max_size=10)
    got = [next(blocks)[0] for _ in range(5)]
    assert [len(n) for n in got] == [3, 6, 10, 10, 10]
    assert np.array_equal(np.concatenate(got), np.arange(5, 44))


@pytest.mark.parametrize("start", [0, 7])
def test_hyperbolic_carry_crosses_block_boundaries(start):
    m = hyperbolic(2.5)
    blocks = coeffs.log_sq_blocks(m, start=start, size=4, max_size=4)
    la = np.concatenate([next(blocks)[1] for _ in range(6)])
    ref = coeffs.log_sq_range(m, start + 23)[start:]
    np.testing.assert_allclose(la, ref, rtol=1e-13, atol=0.0)


def test_blocks_raise_past_the_term_cap():
    blocks = coeffs.log_sq_blocks(constant_unit(), size=1 << 20, max_size=1 << 20)
    seen = 0
    with pytest.raises(NoConvergence):
        for n, _ in blocks:
            seen = int(n[-1]) + 1
    assert coeffs.HARD_TERM_CAP < seen <= coeffs.HARD_TERM_CAP + (1 << 20)


# exact values of scans that run over several blocks
def test_truncation_degree_goldens():
    assert gaf.truncation_degree(hyperbolic(1.5), 0.9995, 1e-8) == 38794
    assert gaf.truncation_degree(hyperbolic(2.5), 0.9999, 1e-10) == 258558


def test_tail_sup_bound_goldens():
    assert gaf.tail_sup_bound(hyperbolic(2.5), 20000, 0.9995)[0] == 5881.462222383286
    assert gaf.tail_sup_bound(power_law(0.7), 100, 0.9999)[0] == 221671.69082057793


def test_circle_sum_goldens():
    assert coeffs.sigma_sq(power_law(3.0), 0.9999) == 249962501251.08084
    assert coeffs.log_plus_sum(hyperbolic(2.5), 0.9999) == 573150.5383581988
    assert coeffs.log_plus_sum(power_law(2.5), 0.9999) == 597143.76524142


def test_modular_sum_goldens():
    sp = spectra.circulant_eigenvalues(power_law(0.5), 0.999, 7)
    assert sp.log_lambdas[0] == 3.755774361278746
    split = spectra.split_coefficients(hyperbolic(0.5), 0.999, 5)
    assert split.b[0] == 0.243144429535363


def test_modular_sum_goldens_small_period():
    # N = 7 at r = 0.999 folds thousands of periods, Hyperbolic carry included
    sp = spectra.circulant_eigenvalues(hyperbolic(1.5), 0.999, 7)
    assert sp.log_lambdas.tolist() == [
        9.322749093035311, 9.322837556410816, 9.322826466756899,
        9.322756773120716, 9.32264457072858, 9.322498363370093,
        9.322323414875273]
    assert sp.log_det == 65.25863623829768
    split = spectra.split_coefficients(hyperbolic(0.8), 0.999, 7)
    assert split.b.tolist() == [
        0.29829420762465797, 0.41836218193010954, 0.5085875084617943,
        0.5833222887410733, 0.6481738508625926, 0.7060332229804901]
    assert split.sigma_g1_sq == 141.0850586054967


@pytest.mark.parametrize("period", [1, 3, 7])
def test_period_blocks_match_blocks_of_one_period(period):
    m = hyperbolic(2.5)
    whole = coeffs.log_sq_blocks(m, start=11, size=4 * period,
                                 max_size=4 * period, period=period)
    single = coeffs.log_sq_blocks(m, start=11, size=period, max_size=period)
    got = np.concatenate([next(whole)[1] for _ in range(3)])
    ref = np.concatenate([next(single)[1] for _ in range(12)])
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("scan", [
    lambda: coeffs.sigma_sq(power_law(3.0), TOO_CLOSE),
    lambda: coeffs.log_plus_sum(hyperbolic(2.0), TOO_CLOSE),
    lambda: gaf.truncation_degree(hyperbolic(2.0), TOO_CLOSE, 1e-8),
    lambda: gaf.tail_sup_bound(hyperbolic(2.0), 100, TOO_CLOSE),
    lambda: spectra.circulant_eigenvalues(constant_unit(), TOO_CLOSE, 1 << 20),
    lambda: spectra.circulant_eigenvalues(hyperbolic(2.0), TOO_CLOSE, 7),
], ids=["sigma_sq", "log_plus_sum", "truncation_degree", "tail_sup_bound",
        "circulant_eigenvalues", "circulant_eigenvalues_small_period"])
def test_scans_stop_at_the_term_cap(scan):
    with pytest.raises(NoConvergence):
        scan()
