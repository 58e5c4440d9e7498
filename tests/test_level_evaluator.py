"""The level evaluator behind both ladders: a radix-2 FFT or Horner.

ladder._grid_values evaluates one level, the K-point grid of each row or the
K/2 odd points of a doubling, and bounds the error of every value by the
row's E.  Every level is 8 2^k points; a level at or above the Horner
crossover runs a radix-2 FFT of the folded coefficients b_n = c_n rho^n
(for odd points folded with alternating signs, then twisted); every other
level runs Horner at the computed grid points.  These tests check each FFT
value against a 30-digit mpmath value (on odd levels of up to 231
slices), bit-identity of a row's values and E alone, in a batch and at any
chunk size, and which levels go through Horner.
"""

import mpmath
import numpy as np
import pytest

from gafholes import gaf, holes, ladder
from gafholes.coeffs import hyperbolic


def _rows(L, r, N, rows, seed=7):
    """rows GAF coefficient rows of degree N (hyperbolic(L)) and their
    evaluator bounds (scale, g, Eg, Eh) at radius r."""
    C = gaf.sample_coeff_batch(hyperbolic(L), seed,
                               np.arange(rows, dtype=np.uint64), N)
    g, scale, _, _, Eg, Eh = ladder._circle_bounds(C, r)
    return C, (scale, g, Eg, Eh)


def _no_horner(monkeypatch):
    def fail(*args):
        raise AssertionError("Horner ran on an FFT level")
    monkeypatch.setattr(ladder, "evaluate_on_grid", fail)


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("N, K, r", [(15, 64, 0.5), (92, 256, 0.9),
                                     (192, 1024, 0.9), (1842, 8192, 0.99),
                                     # folded: fewer points than coefficients
                                     (192, 64, 0.9), (1842, 1024, 0.99),
                                     # 25 and 231 slices of 8 on odd levels
                                     (192, 16, 0.9), (1842, 16, 0.99)])
def test_fft_values_lie_within_E_of_mpmath(N, K, r, odd, monkeypatch):
    # the smallest size sits below the default crossover: lower it so that
    # every size here runs the FFT
    monkeypatch.setattr(ladder, "_FFT_MIN_DEGREE", 0)
    _no_horner(monkeypatch)
    C, bounds = _rows(2.0, r, N, 2)
    V, E = ladder._grid_values(C, r, K, odd, bounds, {})
    P = K // 2 if odd else K
    assert V.shape == (2, P) and np.all(E > bounds[2])
    pick = np.random.default_rng(N)
    js = np.unique(np.concatenate([[0, 1, P - 1], pick.integers(0, P, 13)]))
    with mpmath.workdps(30):
        for i, row in enumerate(C):
            c = [mpmath.mpc(float(v.real), float(v.imag)) for v in row[::-1]]
            for j in js:
                k = 2 * int(j) + 1 if odd else int(j)
                exact = mpmath.polyval(c, r * mpmath.expj(2 * mpmath.pi * k / K))
                err = abs(mpmath.mpc(V[i, j].real, V[i, j].imag) - exact)
                assert err <= E[i], (i, k, float(err), E[i])


@pytest.mark.parametrize("K, odd", [(8, False), (256, True), (2048, True)])
def test_fft_rows_are_bit_identical_alone_in_a_batch_and_at_any_chunk(
        K, odd, monkeypatch):
    C, bounds = _rows(2.0, 0.9, 192, holes.BATCH_TRIALS)
    assert ladder._fft_level(C.shape[1], K // 2 if odd else K)
    V, E = ladder._grid_values(C, 0.9, K, odd, bounds, {})
    for i in (0, 1, 777, holes.BATCH_TRIALS - 1):
        sub = tuple(b[i:i + 1] if np.ndim(b) else b for b in bounds)
        Vi, Ei = ladder._grid_values(C[i:i + 1], 0.9, K, odd, sub, {})
        assert Vi.tobytes() == V[i:i + 1].tobytes(), i
        assert Ei.tobytes() == E[i:i + 1].tobytes(), i
    for chunk in (64, 1000, 1 << 20):
        monkeypatch.setattr(ladder, "_CHUNK_ELEMS", chunk)
        Vc, Ec = ladder._grid_values(C, 0.9, K, odd, bounds, {})
        assert Vc.tobytes() == V.tobytes() and Ec.tobytes() == E.tobytes(), chunk


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("t", range(3, 15))
def test_fft_level_row_is_the_row_alone_in_a_batch(t, odd):
    # _fft_values on a whole batch, past the chunking of _grid_values: the
    # points-major FFT and the norm behind E must not depend on the number
    # of rows.  The batch is BATCH_TRIALS rows up to P = 2^9, and 2^20 / P
    # rows above, to bound memory.
    P = 1 << t
    K = 2 * P if odd else P
    B = min(holes.BATCH_TRIALS, (1 << 20) // P)
    C, bounds = _rows(2.0, 0.9, 192, B)
    assert ladder._fft_level(C.shape[1], P)
    u = ladder._grid_points(1.0, K)
    V, E = ladder._fft_values(C, 0.9, u, odd)
    assert V.shape == (B, P) and E.shape == (B,)
    for i in (0, 1, B // 2, B - 1):
        Vi, Ei = ladder._fft_values(C[i:i + 1], 0.9, u, odd)
        assert Vi.tobytes() == V[i:i + 1].tobytes(), i
        assert Ei.tobytes() == E[i:i + 1].tobytes(), i


def _horner_calls(monkeypatch):
    calls = []

    def counted(rows, points):
        calls.append(points.shape[0])
        return gaf.horner(rows, points)
    monkeypatch.setattr(ladder, "evaluate_on_grid", counted)
    return calls


@pytest.mark.parametrize("L, r, N, K, odd", [
    (1.0, 0.3, 15, 64, False),      # below the crossover (direct_flat)
    (1.0, 0.3, 15, 8, True),
])
def test_horner_runs_levels_below_the_crossover(L, r, N, K, odd, monkeypatch):
    calls = _horner_calls(monkeypatch)
    C, bounds = _rows(L, r, N, 16)
    V, E = ladder._grid_values(C, r, K, odd, bounds, {})
    z = ladder._grid_points(r, K)
    z = z[1::2] if odd else z
    assert calls == [z.size]
    assert V.tobytes() == gaf.horner(C, z).tobytes()
    assert E.tobytes() == bounds[3].tobytes()


def test_the_crossover_depends_on_degree_and_size_only(monkeypatch):
    # degree 192 runs the FFT from the first level; degree 15 never reaches
    # it on the ladder's grids
    assert all(ladder._fft_level(193, 1 << t) for t in range(21))
    assert not any(ladder._fft_level(16, 1 << t) for t in range(2, 21))
    calls = _horner_calls(monkeypatch)
    C = _rows(2.0, 0.9, 192, 4)[0]
    ladder._certify_rows(C, 0.9, K_cap=1 << 12, tail=0.0)
    ladder._sup_counts(C, 0.9, 1e6, 0.0, K_cap=1 << 12)
    assert calls == []


def test_the_sup_ladder_keeps_the_largest_E_across_the_crossover():
    # F = 1 + 2^-100 z^26 at rho = 1/2: every grid value has modulus 1 and
    # D, D_2 are negligible, so a row is a hit iff (1 + g)(1 + E) < M.  At
    # degree 26 the levels up to 128 points run the FFT, whose E exceeds
    # the Horner E of the levels above; M sits between the two, so the row
    # may never become a hit once an FFT level has raised its E.
    C = np.zeros((1, 27), dtype=complex)
    C[0, 0], C[0, 26] = 1.0, 2.0 ** -100
    g, scale, _, _, Eg, Eh = ladder._circle_bounds(C, 0.5)
    bounds = (scale, g, Eg, Eh)
    assert ladder._fft_level(27, 128) and not ladder._fft_level(27, 256)
    V, E_fft = ladder._grid_values(C, 0.5, 8, False, bounds, {})
    assert np.all(np.abs(V) == 1.0) and Eh[0] < E_fft[0]
    M = 0.5 * ((1.0 + g) * (1.0 + Eh[0]) + (1.0 + g) * (1.0 + E_fft[0]))
    assert (1.0 + g) * (1.0 + Eh[0]) < M <= (1.0 + g) * (1.0 + E_fft[0])
    hit, miss, inc, *_ = ladder._sup_counts(C, 0.5, M, 0.0, K_cap=1024)
    assert (hit, miss, inc) == (0, 0, 1)


@pytest.mark.parametrize("K, odd", [(8, False), (1024, False), (4096, True)])
def test_horner_runs_every_level_when_the_crossover_is_raised(
        K, odd, monkeypatch):
    # the Horner-only mode of the ladder tests: degree 192 runs the FFT on
    # every level by default, and Horner on every level with the crossover
    # out of reach, with the values of gaf.horner and the Horner E
    assert ladder._fft_level(193, K // 2 if odd else K)
    monkeypatch.setattr(ladder, "_FFT_MIN_DEGREE", 1 << 30)
    calls = _horner_calls(monkeypatch)
    C, bounds = _rows(2.0, 0.9, 192, 16)
    V, E = ladder._grid_values(C, 0.9, K, odd, bounds, {})
    z = ladder._grid_points(0.9, K)
    z = z[1::2] if odd else z
    assert calls == [z.size]
    assert V.tobytes() == gaf.horner(C, z).tobytes()
    assert E.tobytes() == bounds[3].tobytes()
