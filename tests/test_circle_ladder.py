"""The min-modulus / winding ladder behind every hole decision.

holes._certify_rows doubles the circle grid and, after the first level,
folds the minimum of only the new odd points into the previous minimum;
the full grid is evaluated again only where a row's winding certificate
fires.  These tests pin all eight result arrays, bit for bit, against a
ladder written here that re-evaluates every full grid and keeps the
minimum-modulus stop rule and the winding certificate as two flags.
"""

import numpy as np
import pytest

from gafholes import gaf, holes
from gafholes.coeffs import hyperbolic

KEYS = ("mm_lb", "mm_gm", "mm_K", "wind", "wind_ok", "wind_K", "hopeless",
        "zero_first")


def _full_grid(C, rho, K):
    """(grid_min, winding) of each row on the full K-point grid."""
    V = gaf.evaluate_on_grid(C, holes._grid_points(rho, K))
    with np.errstate(divide="ignore", invalid="ignore"):
        args = np.angle(np.roll(V, -1, axis=1) / V)
    args = np.where(np.isfinite(args), args, 0.0)
    wind = np.rint(np.sum(args, axis=1) / (2.0 * np.pi)).astype(np.int64)
    return np.abs(V).min(axis=1), wind


def _reference(C, rho, K_init, K_cap, tail=None, zero_first=False):
    """The ladder with two stop flags and a full grid at every level.

    tail=None refines a row until both the minimum-modulus stop rule
    (lb > gmin / 2) and the winding certificate have fired; with a tail
    bound a row stops once it is decided or hopeless against it.
    """
    B = C.shape[0]
    D = gaf.derivative_sup_bound_rows(C, rho)
    res = {"mm_lb": np.full(B, -np.inf), "mm_gm": np.zeros(B),
           "mm_K": np.zeros(B, dtype=np.int64),
           "wind": np.zeros(B, dtype=np.int64),
           "wind_ok": np.zeros(B, dtype=bool),
           "wind_K": np.zeros(B, dtype=np.int64),
           "hopeless": np.zeros(B, dtype=bool),
           "zero_first": np.zeros(B, dtype=bool)}
    mm_done = np.zeros(B, dtype=bool)
    zf_pending = zero_first
    active = np.arange(B)
    K = int(K_init)
    while active.size:
        if zf_pending and K >= min(holes._ZERO_FIRST_K, K_cap):
            zf_pending = False
            passed = holes._zero_certified(C[active], rho, tail)
            res["zero_first"][active[passed]] = True
            active = active[~passed]
            continue
        gmin, w = _full_grid(C[active], rho, K)
        Da = D[active]
        lb = gmin - Da * (np.pi * rho / K)
        pend = ~mm_done[active]
        better = pend & (lb > res["mm_lb"][active])
        rows = active[better]
        res["mm_lb"][rows] = lb[better]
        res["mm_gm"][rows] = gmin[better]
        res["mm_K"][rows] = K
        mm_done[active[pend & (lb > gmin / 2.0)]] = True
        can = ~res["wind_ok"][active] & (Da * (2.0 * np.pi * rho / K) < gmin)
        rows = active[can]
        res["wind"][rows] = w[can]
        res["wind_ok"][rows] = True
        res["wind_K"][rows] = K
        if K >= K_cap:
            break
        if tail is None:
            still = ~(mm_done[active] & res["wind_ok"][active])
        else:
            hp = gmin <= tail
            res["hopeless"][active[hp]] = True
            still = ~(hp | ((res["mm_lb"][active] > tail)
                            & res["wind_ok"][active]))
        active = active[still]
        K *= 2
    return res


def _rows(L, r, n, seed=17):
    """n sample rows of hyperbolic(L) at radius r, one of them NaN."""
    m = hyperbolic(L)
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, r)
    C = gaf.sample_coeff_batch(m, seed, np.arange(n, dtype=np.uint64), N_t)
    C[3, 2] = np.nan
    return C, tail


def _assert_bytes_equal(res, ref):
    for k in KEYS:
        assert res[k].dtype == ref[k].dtype, k
        assert res[k].tobytes() == ref[k].tobytes(), k


LEVELS = [(8, 1 << 14), (12, 1000), (1, 256), (8, 64)]
CASES = [(1.0, 0.7, 256), (2.0, 0.9, 48)]
# the model's tail bound, with and without the zero-first stage; a tail of
# 0.05 that sends rows out hopeless; and the scalar operations' -inf
MODES = [("tail", False), ("tail", True), ("wide", False), ("-inf", False)]
WIDE_TAIL = 0.05


@pytest.mark.parametrize("K_init, K_cap", LEVELS)
@pytest.mark.parametrize("L, r, n", CASES)
@pytest.mark.parametrize("mode, zero_first", MODES)
def test_ladder_matches_the_full_grid_two_flag_ladder(K_init, K_cap, L, r, n,
                                                      mode, zero_first):
    C, tail = _rows(L, r, n)
    if mode != "-inf":
        tail = tail if mode == "tail" else WIDE_TAIL
        res = holes._certify_rows(C, r, K_init, K_cap, tail=tail,
                                  zero_first=zero_first)
        ref = _reference(C, r, K_init, K_cap, tail=tail, zero_first=zero_first)
    else:
        res = holes._certify_rows(C, r, K_init, K_cap)
        ref = _reference(C, r, K_init, K_cap)
    _assert_bytes_equal(res, ref)
    # the NaN row never certifies and runs to the cap
    assert not res["wind_ok"][3] and not res["hopeless"][3]


def test_rows_settle_across_the_levels():
    # the cases above are only meaningful if rows settle late and some
    # rows take each exit
    C, tail = _rows(2.0, 0.9, 48)
    res = holes._certify_rows(C, 0.9, 8, 1 << 14, tail=tail)
    assert res["wind_K"].max() >= 1024
    assert len(set(res["wind_K"][res["wind_ok"]])) >= 3
    for L, r, n in CASES:
        C, _ = _rows(L, r, n)
        res = holes._certify_rows(C, r, 8, 1 << 14, tail=WIDE_TAIL)
        assert res["hopeless"].any()
        assert ((res["mm_lb"] > WIDE_TAIL) & res["wind_ok"]).any()
    C, tail = _rows(1.0, 0.7, 256)
    res = holes._certify_rows(C, 0.7, 8, 1 << 14, tail=tail, zero_first=True)
    assert res["zero_first"].any()
    assert (res["wind_ok"] & (res["wind"] == 0)).any()
    assert (res["wind_ok"] & (res["wind"] >= 1)).any()


@pytest.mark.parametrize("chunk", [64, 1000])
def test_ladder_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    C, tail = _rows(2.0, 0.9, 48)
    ref = [_reference(C, 0.9, 8, 4096, tail=tail),
           _reference(C, 0.9, 12, 4096, tail=tail, zero_first=True),
           _reference(C, 0.9, 8, 2048)]
    monkeypatch.setattr(holes, "_CHUNK_ELEMS", chunk)
    res = [holes._certify_rows(C, 0.9, 8, 4096, tail=tail),
           holes._certify_rows(C, 0.9, 12, 4096, tail=tail, zero_first=True),
           holes._certify_rows(C, 0.9, 8, 2048)]
    for a, b in zip(res, ref):
        _assert_bytes_equal(a, b)
    z = holes._grid_points(0.9, 4096)[1::2]
    full = np.abs(gaf.evaluate_on_grid(C, z)).min(axis=1)
    assert holes._grid_extreme(C, z, np.minimum).tobytes() == full.tobytes()
