"""The sup ladder behind the threshold and tilted lower bounds.

holes._sup_counts doubles the circle grid and, at each doubling, evaluates
only the new odd points: the even points of the 2K-grid are the K-grid bit
for bit, and the maximum is exact.  These tests pin the nesting of the
grids, agreement with a ladder that re-evaluates every full grid, batch
independence, independence of the chunk size, and the sidecar counters.
"""

import json

import numpy as np
import pytest

from gafholes import cli, gaf, holes, rng
from gafholes.coeffs import hyperbolic, log_sq_range


def _reference_counts(C, rho, M, tail, K_init, K_cap, scale=1.0,
                      extra_D=None):
    """The sup ladder evaluated on the full grid at every level.

    Returns (hit, miss, inconclusive, {K: rows settled at K}).
    """
    D = extra_D if extra_D is not None else gaf.derivative_sup_bound_rows(C, rho)
    hit = np.zeros(C.shape[0], dtype=bool)
    miss = np.zeros(C.shape[0], dtype=bool)
    settled = {}
    active = np.arange(C.shape[0])
    K = int(K_init)
    while active.size:
        z = holes._grid_points(rho, K)
        smax = scale * np.abs(gaf.evaluate_on_grid(C[active], z)).max(axis=1)
        cert = smax + D[active] * (np.pi * rho / K) + tail
        h = cert <= M
        m = smax > M
        hit[active[h]] = True
        miss[active[m & ~h]] = True
        if (h | m).any():
            settled[K] = int((h | m).sum())
        if K >= K_cap:
            break
        active = active[~(h | m)]
        K *= 2
    return (int(hit.sum()), int(miss.sum()),
            int(C.shape[0] - hit.sum() - miss.sum()), settled)


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
    (middle rows, tail rows, tail scale, tail variation bound, tail bound,
    threshold M/2).
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
    n = np.arange(N + 1, N_t + 1)
    D_T = np.sum(np.abs(inner) * (n * r ** (n - 1)), axis=1)
    return mid, inner, r ** (N + 1), D_T, tail, M / 2.0


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
    hit, miss, inc, settled = _reference_counts(C, 0.7, M, tail, K_init, K_cap)
    assert counts[:3] == (hit, miss, inc)
    assert hit > 0 and miss > 0
    assert _settled_by_K(counts, K_init, K_cap) == settled


@pytest.mark.parametrize("K_init, K_cap", LEVELS)
def test_tilted_rows_match_the_full_grid_ladder(K_init, K_cap):
    mid, inner, scale, D_T, tail, half = _tilted_rows(256)
    counts = holes._sup_counts(mid, 0.9, half, 0.0, K_init, K_cap)
    ref = _reference_counts(mid, 0.9, half, 0.0, K_init, K_cap)
    assert counts[:3] == ref[:3]
    assert _settled_by_K(counts, K_init, K_cap) == ref[3]
    counts = holes._sup_counts(inner, 0.9, half, tail, K_init, K_cap,
                               scale=scale, extra_D=D_T)
    ref = _reference_counts(inner, 0.9, half, tail, K_init, K_cap,
                            scale=scale, extra_D=D_T)
    assert counts[:3] == ref[:3]
    assert _settled_by_K(counts, K_init, K_cap) == ref[3]


def test_middle_rows_reach_the_upper_levels():
    # the tilted cases above are only meaningful if rows settle late
    mid, *_, half = _tilted_rows(256)
    counts = holes._sup_counts(mid, 0.9, half, 0.0, 8, 4096)
    assert max(_settled_by_K(counts, 8, 4096)) >= 256
    assert counts[2] > 0


def test_nan_rows_run_to_the_cap_and_end_inconclusive():
    C, tail = _threshold_rows(64)
    C[::7, 3] = np.nan
    counts = holes._sup_counts(C, 0.7, 1.5, tail, 8, 512)
    assert counts[:3] == _reference_counts(C, 0.7, 1.5, tail, 8, 512)[:3]
    assert counts[2] >= len(range(0, 64, 7))


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
    mid, inner, scale, D_T, tail, half = _tilted_rows(256)
    C, t_thr = _threshold_rows(256)
    before = [holes._sup_counts(mid, 0.9, half, 0.0, 8, 4096),
              holes._sup_counts(inner, 0.9, half, tail, 12, 3000,
                                scale=scale, extra_D=D_T),
              holes._sup_counts(C, 0.7, 1.5, t_thr, 1, 2048)]
    z = holes._grid_points(0.9, 4096)[1::2]
    gmax = holes._grid_extreme(mid, z, np.maximum)
    monkeypatch.setattr(holes, "_CHUNK_ELEMS", chunk)
    after = [holes._sup_counts(mid, 0.9, half, 0.0, 8, 4096),
             holes._sup_counts(inner, 0.9, half, tail, 12, 3000,
                               scale=scale, extra_D=D_T),
             holes._sup_counts(C, 0.7, 1.5, t_thr, 1, 2048)]
    assert after == before
    # above the chunk size a row is evaluated in slices of its points
    assert holes._grid_extreme(mid, z, np.maximum).tobytes() == gmax.tobytes()
    full = np.abs(gaf.evaluate_on_grid(mid, z)).max(axis=1)
    assert gmax.tobytes() == full.tobytes()


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
        assert set(s) == {"hit", "miss", "inconclusive", "grid_points",
                          "settle_K"}
        assert s["hit"] == hits
        assert sum(s["settle_K"].values()) == s["hit"] + s["miss"]
        assert s["grid_points"] >= 2500 * holes.K_INIT_DEFAULT
        total += s["hit"] + s["miss"] + s["inconclusive"]
    assert total == 2 * 2500
    assert (k["middle"]["inconclusive"] + k["tail"]["inconclusive"]
            == rec["inconclusive"])


def test_threshold_kernel_counts_every_trial():
    est = holes.estimate_hole_lower_threshold(hyperbolic(1.0), 0.7, 600, 4,
                                              M=1.5, K_cap=256)
    s = est.kernel["sup"]
    assert s["hit"] == est.hits and s["inconclusive"] == est.inconclusive
    assert s["hit"] + s["miss"] + s["inconclusive"] == 600
    assert sum(s["settle_K"].values()) == s["hit"] + s["miss"]
    assert set(s["settle_K"]) <= set(holes._ladder_levels(8, 256))
    assert "kernel" not in est.to_record()
