"""The sup ladder behind the threshold and tilted lower bounds.

holes._sup_counts doubles the circle grid and, at each doubling, evaluates
only the new odd points: the even points of the 2K-grid are the K-grid bit
for bit, and the maximum is exact.  A row is a hit once its grid max plus
the smaller of the first-order and the second-order ("tube") interpolation
bound, plus rounding terms, stays below M.  These tests pin the nesting of
the grids, agreement with a ladder that assembles every full grid afresh
from the level evaluator, that no row flips against the first-order
ladder (on Horner values), the soundness of the hit test on rows just
above M and of the grid points, batch independence, independence of the
chunk size, and the sidecar counters.
"""

import json

import mpmath
import numpy as np
import pytest

from gafholes import cli, gaf, holes, rng
from gafholes.coeffs import hyperbolic, log_sq_range

HIT, MISS, OPEN = 1, -1, 0


def _level_max(C, rho, K_init, K, bounds):
    """(max |F| over the full K-point grid, E) of each row, from the level
    evaluator: the K_init-point level and the odd points of every doubling
    up to K; E is the largest level E."""
    V, E = holes._grid_values(C, rho, K_init, False, bounds, {})
    gmax = np.abs(V).max(axis=1)
    K2 = 2 * K_init
    while K2 <= K:
        V, E2 = holes._grid_values(C, rho, K2, True, bounds, {})
        gmax = np.maximum(gmax, np.abs(V).max(axis=1))
        E = np.maximum(E, E2)
        K2 *= 2
    return gmax, E


def _reference_ladder(C, rho, M, tail, K_init, K_cap, shift=0,
                      first_order=False):
    """The sup ladder evaluated on the full grid at every level.

    The rows are T = z^shift * F.  first_order=True is the ladder before
    the second-order bound: hit when scale * grid max + D pi rho / K + tail
    <= M, with no rounding terms.  Returns (outcome of each row, one of
    HIT/MISS/OPEN; {K: rows settled at K}; mask of the hits that the
    first-order term alone would not have made).
    """
    B, n1 = C.shape
    n = np.arange(shift, shift + n1, dtype=np.float64)
    A = np.abs(C)
    scale = rho ** shift
    if first_order:
        D = (gaf.derivative_sup_bound_rows(C, rho) if shift == 0
             else np.sum(A * (n * rho ** (n - 1)), axis=1))
    else:
        g = holes._rounding_gamma(n1)
        eta = holes._GRID_ETA
        D = np.sum(A * (n * rho ** (n - 1.0)), axis=1)
        D2 = np.sum(A * (n * n * rho ** n), axis=1)
        Eg = (scale * g) * np.sum(A * (rho * (1.0 + eta)) ** np.arange(n1),
                                  axis=1)
        Eh = Eg + D * (eta * rho)
    out = np.full(B, OPEN)
    tube = np.zeros(B, dtype=bool)
    settled = {}
    active = np.arange(B)
    K = int(K_init)
    while active.size:
        if first_order:
            z = holes._grid_points(rho, K)
            gmax = np.abs(gaf.evaluate_on_grid(C[active], z)).max(axis=1)
        else:
            gmax, E = _level_max(C[active], rho, K_init, K,
                                 (scale, g, Eg[active], Eh[active]))
        smax = scale * gmax
        first = D[active] * (np.pi * rho / K)
        if first_order:
            h = smax + first + tail <= M
        else:
            second = D2[active] * (0.5 * (np.pi / K) ** 2)
            h = (1.0 + g) * (smax + np.minimum(first, second) + E) + tail < M
            tube[active] = h & ~((1.0 + g) * (smax + first + E) + tail < M)
        m = smax > M
        out[active[m]] = MISS
        out[active[h]] = HIT
        if (h | m).any():
            settled[K] = int((h | m).sum())
        if K >= K_cap:
            break
        active = active[~(h | m)]
        K *= 2
    return out, settled, tube


def _reference_counts(C, rho, M, tail, K_init, K_cap, shift=0):
    """(hit, miss, inconclusive, tube hits, {K: rows settled at K}) of the
    full-grid ladder with the second-order certificate."""
    out, settled, tube = _reference_ladder(C, rho, M, tail, K_init, K_cap,
                                           shift)
    return (int((out == HIT).sum()), int((out == MISS).sum()),
            int((out == OPEN).sum()), int(tube.sum()), settled)


def _settled_by_K(counts, K_init, K_cap):
    return holes._sup_kernel(counts, K_init, K_cap)["settle_K"]


def _threshold_rows(rows, seed=3):
    """Rows of G = F - F(0) at L = 1, r = 0.7, and the tail bound."""
    m = hyperbolic(1.0)
    N_t = gaf.truncation_degree(m, 0.7, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, 0.7)
    C = gaf.sample_coeff_batch(m, seed, np.arange(rows, dtype=np.uint64), N_t)
    C[:, 0] = 0.0
    return C, tail


def _tilted_rows(rows, seed=5, r=0.9):
    """Middle and tail rows of the tilted estimator at L = 2.

    Built as estimate_hole_lower_tilted builds them; returns
    (middle rows, inner tail rows, tail shift, tail bound, threshold M/2):
    the tail stream is T = z^shift * inner.
    """
    model = hyperbolic(2.0)
    q, N, _, M, _, _, _ = holes.tilt_profile(model, r)
    N_t = max(gaf.truncation_degree(model, r, gaf.DEFAULT_TAU_REL), N + 1)
    tail, _ = gaf.tail_sup_bound(model, N_t, r)
    a = np.exp(0.5 * log_sq_range(model, N_t))
    streams = np.arange(rows, dtype=np.uint64)
    keys = rng.stream_key(seed, streams, rng.PURPOSE_TILT_MIDDLE)[:, None]
    mid = np.zeros((rows, N + 1), dtype=complex)
    mid[:, 1:] = rng.complex_gaussians(
        keys, np.arange(1, N + 1, dtype=np.uint64)[None, :]) * (q * a[1:N + 1])
    keys = rng.stream_key(seed, streams, rng.PURPOSE_TILT_TAIL)[:, None]
    inner = rng.complex_gaussians(
        keys, np.arange(N + 1, N_t + 1, dtype=np.uint64)[None, :]) * a[N + 1:]
    return mid, inner, N + 1, tail, M / 2.0


def _streams(rows):
    """(name, rows, rho, M, tail, shift) of the three sup-ladder streams."""
    C, t_thr = _threshold_rows(rows)
    mid, inner, shift, tail, half = _tilted_rows(rows)
    return [("threshold", C, 0.7, 1.5, t_thr, 0),
            ("middle", mid, 0.9, half, 0.0, 0),
            ("tail", inner, 0.9, half, tail, shift)]


# ---------------------------------------------------------------------------
# nested grids
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K_init", [1, 8, 12])
@pytest.mark.parametrize("rho", [1e-3, 0.5, 0.9, 0.999])
def test_even_points_of_the_doubled_grid_are_the_grid(K_init, rho):
    K = K_init
    z = holes._grid_points(rho, K)
    while K <= 1 << 20:
        z2 = holes._grid_points(rho, 2 * K)
        assert z2[::2].tobytes() == z.tobytes(), K
        K, z = 2 * K, z2


# ---------------------------------------------------------------------------
# agreement with the full-grid ladder
# ---------------------------------------------------------------------------

LEVELS = [(8, 4096), (12, 1000), (1, 256), (8, 64), (16, 16)]


@pytest.mark.parametrize("K_init, K_cap", LEVELS)
@pytest.mark.parametrize("M", [1.5, 2.0])
def test_threshold_rows_match_the_full_grid_ladder(K_init, K_cap, M):
    C, tail = _threshold_rows(512)
    counts = holes._sup_counts(C, 0.7, M, tail, K_init, K_cap)
    hit, miss, inc, tube, settled = _reference_counts(C, 0.7, M, tail,
                                                      K_init, K_cap)
    assert counts[:4] == (hit, miss, inc, tube)
    assert hit > 0 and miss > 0
    assert _settled_by_K(counts, K_init, K_cap) == settled


@pytest.mark.parametrize("K_init, K_cap", LEVELS)
def test_tilted_rows_match_the_full_grid_ladder(K_init, K_cap):
    mid, inner, shift, tail, half = _tilted_rows(256)
    counts = holes._sup_counts(mid, 0.9, half, 0.0, K_init, K_cap)
    ref = _reference_counts(mid, 0.9, half, 0.0, K_init, K_cap)
    assert counts[:4] == ref[:4]
    assert _settled_by_K(counts, K_init, K_cap) == ref[4]
    counts = holes._sup_counts(inner, 0.9, half, tail, K_init, K_cap,
                               shift=shift)
    ref = _reference_counts(inner, 0.9, half, tail, K_init, K_cap,
                            shift=shift)
    assert counts[:4] == ref[:4]
    assert _settled_by_K(counts, K_init, K_cap) == ref[4]


def test_middle_rows_reach_the_upper_levels():
    # the tilted cases above are only meaningful if rows settle late
    mid, *_, half = _tilted_rows(256)
    counts = holes._sup_counts(mid, 0.9, half, 0.0, 8, 256)
    assert max(_settled_by_K(counts, 8, 256)) >= 256
    assert counts[2] > 0


def test_nan_rows_run_to_the_cap_and_end_inconclusive():
    C, tail = _threshold_rows(64)
    C[::7, 3] = np.nan
    counts = holes._sup_counts(C, 0.7, 1.5, tail, 8, 512)
    assert counts[:4] == _reference_counts(C, 0.7, 1.5, tail, 8, 512)[:4]
    assert counts[2] >= len(range(0, 64, 7))


# ---------------------------------------------------------------------------
# against the first-order ladder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K_init, K_cap", LEVELS)
def test_no_row_flips_against_the_first_order_ladder(K_init, K_cap):
    # the second-order bound only settles rows the first-order ladder left
    # open; the rounding terms are far too small to undo a first-order hit
    gained = 0
    for name, C, rho, M, tail, shift in _streams(256):
        new, _, _ = _reference_ladder(C, rho, M, tail, K_init, K_cap, shift)
        old, _, _ = _reference_ladder(C, rho, M, tail, K_init, K_cap, shift,
                                      first_order=True)
        assert np.all(new[old == HIT] == HIT), name
        assert np.array_equal(new == MISS, old == MISS), name
        assert np.all(old[new == OPEN] == OPEN), name
        gained += int(((new == HIT) & (old == OPEN)).sum())
    if K_cap >= 256:
        assert gained > 0


# ---------------------------------------------------------------------------
# soundness of the hit test
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.7, 0.9, 0.999, 1.0])
def test_grid_points_lie_within_half_eta_of_the_circle_grid(rho):
    # rho = 1 gives the FFT's twiddles and twists
    # powers of two, and sizes whose step 2 pi / K is not exact
    pick = np.random.default_rng(11)
    bound = 0.5 * holes._GRID_ETA * rho
    for K in (1, 8, 12, 1000, 3000, 1 << 10, 12 << 14, 1000 << 10, 1 << 16,
              1 << 20):
        z = holes._grid_points(rho, K)
        js = np.unique(np.concatenate([np.arange(min(K, 16)),
                                       K - 1 - np.arange(min(K, 16)),
                                       pick.integers(0, K, 48)]))
        with mpmath.workdps(30):
            for j in js:
                exact = rho * mpmath.expj(2 * mpmath.pi * int(j) / K)
                err = abs(mpmath.mpc(z[j].real, z[j].imag) - exact)
                assert err <= bound, (K, int(j), float(err) / rho)


GAP = 1e-13


def _scaled_to(C, rho, M, shift, factor):
    """C scaled so that rho^shift * max |F| over the 2^16-point grid is
    M * factor (for factor > 1 a lower bound on the sup of every row)."""
    z = holes._grid_points(rho, 1 << 16)
    gmax = np.abs(gaf.evaluate_on_grid(C, z)).max(axis=1)
    return C * (M * factor / (rho ** shift * gmax))[:, None]


@pytest.mark.parametrize("K_cap", [8, 64, 1024, 1 << 16, 1 << 20])
def test_rows_just_above_M_are_never_hits(K_cap):
    for name, C, rho, M, tail, shift in _streams(24):
        above = _scaled_to(C, rho, M, shift, 1.0 + GAP)
        above[-1, 2] = np.nan
        counts = holes._sup_counts(above, rho, M, tail, 8, K_cap, shift=shift)
        assert counts[0] == 0, name
        assert counts[2] >= 1, name          # the NaN row stays open
        # not vacuous: the same rows a little below M are hits
        if K_cap == 1 << 16:
            below = _scaled_to(C, rho, M - tail, shift, 1.0 - 1e-3)
            counts = holes._sup_counts(below, rho, M, tail, 8, K_cap,
                                       shift=shift)
            assert counts[0] == below.shape[0], name


def test_rounding_terms_decide_constant_rows():
    # F = c: the grid max is |c| exactly and both interpolation bounds are 0,
    # so a row is a hit iff (1 + g)(|c| + g |c|) < M, i.e. |c| < M (1 - 2g)
    # to first order in g
    M = 1.5
    g = holes._rounding_gamma(1)
    ks = np.array([0.5, 1.5, 1.9, 2.1, 3.0, 4.0])
    C = (M * (1.0 - ks * g))[:, None].astype(complex)
    for j, k in enumerate(ks):
        hit, miss, inc, tube, *_ = holes._sup_counts(C[j:j + 1], 0.9, M, 0.0,
                                                     8, 64)
        assert (hit, miss, tube) == (int(k > 2.0), 0, 0), k
        assert inc == 1 - hit


# ---------------------------------------------------------------------------
# batch and chunk independence
# ---------------------------------------------------------------------------

def test_batch_counts_are_the_sum_of_single_row_counts():
    mid, *_, half = _tilted_rows(holes.BATCH_TRIALS)
    batch = holes._sup_counts(mid, 0.9, half, 0.0, 8, 1024)
    total = np.zeros(len(batch), dtype=np.int64)
    for i in range(mid.shape[0]):
        total += holes._sup_counts(mid[i:i + 1], 0.9, half, 0.0, 8, 1024)
    assert tuple(int(v) for v in total) == batch


@pytest.mark.parametrize("chunk", [64, 1000])
def test_counts_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    mid, inner, shift, tail, half = _tilted_rows(256)
    C, t_thr = _threshold_rows(256)
    before = [holes._sup_counts(mid, 0.9, half, 0.0, 8, 4096),
              holes._sup_counts(inner, 0.9, half, tail, 12, 3000,
                                shift=shift),
              holes._sup_counts(C, 0.7, 1.5, t_thr, 1, 2048)]
    g, scale, _, _, Eg, Eh = holes._circle_bounds(mid, 0.9)
    bounds = (scale, g, Eg, Eh)
    level = holes._grid_max(mid, 0.9, 4096, True, bounds, {})
    monkeypatch.setattr(holes, "_CHUNK_ELEMS", chunk)
    after = [holes._sup_counts(mid, 0.9, half, 0.0, 8, 4096),
             holes._sup_counts(inner, 0.9, half, tail, 12, 3000,
                               shift=shift),
             holes._sup_counts(C, 0.7, 1.5, t_thr, 1, 2048)]
    assert after == before
    for a, b in zip(holes._grid_max(mid, 0.9, 4096, True, bounds, {}), level):
        assert a.tobytes() == b.tobytes()
    # on Horner, a row's points are evaluated in slices above the chunk
    monkeypatch.setattr(holes, "_FFT_MIN_DEGREE", 1 << 30)
    z = holes._grid_points(0.9, 4096)[1::2]
    gmax, E = holes._grid_max(mid, 0.9, 4096, True, bounds, {})
    full = np.abs(gaf.evaluate_on_grid(mid, z)).max(axis=1)
    assert gmax.tobytes() == full.tobytes()
    assert E.tobytes() == bounds[3].tobytes()


# ---------------------------------------------------------------------------
# sidecar counters
# ---------------------------------------------------------------------------

TILTED_ARGS = ["estimate", "--model", "Hyperbolic", "--L", "2", "--r", "0.9",
               "--mode", "tilted_lower", "--trials", "2500", "--seed", "3",
               "--K-cap", "1024"]


def test_tilted_sidecar_counts_add_up_and_ignore_worker_count(tmp_path):
    kernels, bodies = [], []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.jsonl"
        cli.main(TILTED_ARGS + ["--workers", workers, "--out", str(out)])
        bodies.append(out.read_bytes())
        meta = json.loads((tmp_path / f"w{workers}.jsonl.meta.json").read_text())
        kernels.append(meta["kernel"])
    assert kernels[0] == kernels[1]
    assert bodies[0] == bodies[1]
    (k,) = kernels[0]
    assert set(k) == {"middle", "tail"}
    rec = json.loads(bodies[0])
    total = 0
    for stream, hits in (("middle", rec["mid_hits"]),
                         ("tail", rec["tail_hits"])):
        s = k[stream]
        assert set(s) == {"hit", "miss", "inconclusive", "tube_hits",
                          "grid_points", "settle_K"}
        assert s["hit"] == hits
        assert 0 <= s["tube_hits"] <= s["hit"]
        assert sum(s["settle_K"].values()) == s["hit"] + s["miss"]
        assert s["grid_points"] >= 2500 * holes.K_INIT_DEFAULT
        total += s["hit"] + s["miss"] + s["inconclusive"]
    assert total == 2 * 2500
    assert (k["middle"]["inconclusive"] + k["tail"]["inconclusive"]
            == rec["inconclusive"])
    assert k["middle"]["tube_hits"] > 0


def test_threshold_kernel_counts_every_trial():
    est = holes.estimate_hole_lower_threshold(hyperbolic(1.0), 0.7, 600, 4,
                                              M=1.5, K_cap=256)
    s = est.kernel["sup"]
    assert s["hit"] == est.hits and s["inconclusive"] == est.inconclusive
    assert s["hit"] + s["miss"] + s["inconclusive"] == 600
    assert sum(s["settle_K"].values()) == s["hit"] + s["miss"]
    assert set(s["settle_K"]) <= set(holes._ladder_levels(8, 256))
    assert "kernel" not in est.to_record()
