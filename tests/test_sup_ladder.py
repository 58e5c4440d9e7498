"""The sup ladder behind the threshold and tilted lower bounds.

ladder._sup_counts doubles the circle grid and, at each doubling, evaluates
only the new odd points: the even points of the 2K-grid are the K-grid bit
for bit, and the maximum is exact.  A row is a hit once its grid max plus
the smaller of the first-order and the second-order ("tube") interpolation
bound, plus rounding terms, stays below M.  These tests pin the nesting of
the grids, agreement with a ladder that assembles every full grid afresh
from the level evaluator, that no row flips against the first-order
ladder (on Horner values), the soundness of the hit test on rows just
above M and of the grid points, batch independence, independence of the
chunk size, and the sidecar counters.  Before the ladder, holes._sup_screen
settles the rows whose triangle bound on their moduli is below M; the
tests pin that the ladder makes each of them a hit, that the factor 1 + g
keeps a row at the bound out, and the rows each stage is handed.  A cap
prefix of each row (holes._sup_prefix) decides first: it must decide only
rows that the whole row decides alike, also a row whose sum rounds below
the sum of its prefix.
"""

import json
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gafholes import cli, gaf, holes, ladder, rng
from gafholes.coeffs import coefficients, hyperbolic, log_sq_range

HIT, MISS, OPEN = 1, -1, 0


def _level_max(C, rho, K, bounds):
    """(max |F| over the full K-point grid, E) of each row, from the level
    evaluator: the K_INIT-point level and the odd points of every doubling
    up to K; E is the largest level E."""
    V, E = ladder._grid_values(C, rho, ladder.K_INIT, False, bounds, {})
    gmax = np.abs(V).max(axis=1)
    K2 = 2 * ladder.K_INIT
    while K2 <= K:
        V, E2 = ladder._grid_values(C, rho, K2, True, bounds, {})
        gmax = np.maximum(gmax, np.abs(V).max(axis=1))
        E = np.maximum(E, E2)
        K2 *= 2
    return gmax, E


def _reference_ladder(C, rho, M, tail, K_cap, shift=0, first_order=False):
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
        g = ladder._rounding_gamma(n1)
        eta = ladder._GRID_ETA
        D = np.sum(A * (n * rho ** (n - 1.0)), axis=1)
        D2 = np.sum(A * (n * n * rho ** n), axis=1)
        Eg = (scale * g) * np.sum(A * (rho * (1.0 + eta)) ** np.arange(n1),
                                  axis=1)
        Eh = Eg + D * (eta * rho)
    out = np.full(B, OPEN)
    tube = np.zeros(B, dtype=bool)
    settled = {}
    active = np.arange(B)
    K = ladder.K_INIT
    while active.size:
        if first_order:
            z = ladder._grid_points(rho, K)
            gmax = np.abs(gaf.evaluate_on_grid(C[active], z)).max(axis=1)
        else:
            gmax, E = _level_max(C[active], rho, K,
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


def _reference_counts(C, rho, M, tail, K_cap, shift=0):
    """(hit, miss, inconclusive, tube hits, {K: rows settled at K}) of the
    full-grid ladder with the second-order certificate."""
    out, settled, tube = _reference_ladder(C, rho, M, tail, K_cap, shift)
    return (int((out == HIT).sum()), int((out == MISS).sum()),
            int((out == OPEN).sum()), int(tube.sum()), settled)


def _settled_by_K(counts, K_cap):
    """{K: rows settled at K} of _sup_counts' counts, zeros left out."""
    return {K: n for K, n in zip(ladder._ladder_levels(K_cap),
                                  counts[5:]) if n}


def _threshold_rows(rows, seed=3, r=0.7, moduli=False):
    """Rows of G = F - F(0) at L = 1 (their moduli alone with moduli=True),
    and the tail bound."""
    m = hyperbolic(1.0)
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, r)
    C = rng.gaussian_rows(seed, np.arange(rows, dtype=np.uint64),
                          rng.PURPOSE_SAMPLE, 0, N_t + 1, moduli=moduli) \
        * coefficients(m, N_t)
    C[:, 0] = 0.0
    return C, tail


def _tilted_rows(rows, seed=5, r=0.9, moduli=False):
    """Middle and tail rows of the tilted estimator at L = 2 (their moduli
    alone with moduli=True).

    Built by hand from the Box-Muller draws, the reference layout of the
    two tilted streams; returns
    (middle rows, inner tail rows, tail shift, tail bound, threshold M/2):
    the tail stream is T = z^shift * inner.
    """
    model = hyperbolic(2.0)
    q, N, _, M, _, _, _ = holes.tilt_profile(model, r)
    N_t = max(gaf.truncation_degree(model, r, gaf.DEFAULT_TAU_REL), N + 1)
    tail, _ = gaf.tail_sup_bound(model, N_t, r)
    a = np.exp(0.5 * log_sq_range(model, N_t))
    draw = rng.gaussian_moduli if moduli else rng.complex_gaussians
    streams = np.arange(rows, dtype=np.uint64)
    keys = rng.stream_key(seed, streams, rng.PURPOSE_TILT_MIDDLE)[:, None]
    mid = np.zeros((rows, N + 1), dtype=float if moduli else complex)
    mid[:, 1:] = draw(
        keys, np.arange(1, N + 1, dtype=np.uint64)[None, :]) * (q * a[1:N + 1])
    keys = rng.stream_key(seed, streams, rng.PURPOSE_TILT_TAIL)[:, None]
    inner = draw(
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
# the rows of each stream
# ---------------------------------------------------------------------------

def _rows_of_both_stages(monkeypatch, estimate):
    """{(rho, M, tail, shift): (moduli rows handed to the screen, its mask,
    rows handed to the ladder)} of each stream of estimate(), the batches of
    each stage joined in call order (trial order at one worker)."""
    calls = {}
    screen, sup_counts = holes._sup_screen, ladder._sup_counts

    def record(stage, C, args):
        calls.setdefault(args, ([], [], []))[stage].append(C)

    def screen_spy(A, rho, M, tail, shift=0):
        record(0, A.copy(), (rho, M, tail, shift))
        mask = screen(A, rho, M, tail, shift)
        record(1, mask, (rho, M, tail, shift))
        return mask

    def ladder_spy(C, rho, M, tail, *, K_cap, shift=0):
        record(2, C.copy(), (rho, M, tail, shift))
        return sup_counts(C, rho, M, tail, K_cap=K_cap, shift=shift)

    monkeypatch.setattr(holes, "_sup_screen", screen_spy)
    monkeypatch.setattr(holes, "_sup_counts", ladder_spy)
    estimate()
    return {args: tuple(np.concatenate(x) if x else None for x in stages)
            for args, stages in calls.items()}


def test_each_stream_hands_the_ladder_the_hand_built_rows(monkeypatch):
    # bit for bit the rows the estimators built by hand: threshold is
    # sample_coeff_batch with column 0 zeroed, tilted its middle and tail
    # rows (_threshold_rows and _tilted_rows).  The full-row screen sees the
    # moduli rows of the trials its cap prefix leaves, in trial order, and
    # the ladder the full rows of exactly the trials that the full-row
    # screen leaves, in trial order: the prefix settles the same rows.
    # Full screen spans and a short one (2520 + 1640 trials at threshold's
    # width 52, 2 x 2048 + 64 at the tilted widths 93 and 100), so a short
    # span and chunk follow full ones, and the ladder's chunks are not the
    # screen's spans
    rows = 2 * holes.BATCH_TRIALS + 64
    got = _rows_of_both_stages(
        monkeypatch, lambda: holes.estimate_hole_lower_threshold(
            hyperbolic(1.0), 0.7, rows, 3, M=1.5, K_cap=64))
    C, tail = _threshold_rows(rows, seed=3)
    A, _ = _threshold_rows(rows, seed=3, moduli=True)
    want = {(0.7, 1.5, tail, 0): (A, C)}
    got.update(_rows_of_both_stages(
        monkeypatch, lambda: holes.estimate_hole_lower_tilted(
            hyperbolic(2.0), 0.9, rows, 5, K_cap=64)))
    mid, inner, shift, tail, half = _tilted_rows(rows, seed=5)
    mid_A, inner_A, *_ = _tilted_rows(rows, seed=5, moduli=True)
    want[0.9, half, 0.0, 0] = (mid_A, mid)
    want[0.9, half, tail, shift] = (inner_A, inner)
    assert list(got) == list(want)
    for args, (moduli, full) in want.items():
        A, mask, C = got[args]
        hit = holes._sup_screen(moduli.copy(), *args)
        trial = {row.tobytes(): t for t, row in enumerate(moduli)}
        seen = np.array([trial[row.tobytes()] for row in A], dtype=np.int64)
        assert np.all(np.diff(seen) > 0) and np.array_equal(mask, hit[seen])
        if args[3] == shift:    # the tilted tail stream: its cap bound
            assert hit.all() and A.shape[0] == 0 and C is None   # settles all
            continue
        assert seen.size < rows and 0 < (~hit).sum()
        assert C.shape == full[~hit].shape
        assert np.array_equal(C.view(np.uint64), full[~hit].view(np.uint64))


def test_reused_stream_buffers_change_no_estimate():
    # each span and chunk draws into rows of its own: the threshold stream's
    # zero column must be set on every batch, and no thread may see another
    # thread's rows, at any worker count and after other estimates in the
    # same process
    trials = 2 * holes.BATCH_TRIALS + 64
    runs = []
    for workers in (1, 3, 1, 2):
        thr = holes.estimate_hole_lower_threshold(
            hyperbolic(1.0), 0.7, trials, 3, M=1.5, K_cap=64, workers=workers)
        tilt = holes.estimate_hole_lower_tilted(
            hyperbolic(2.0), 0.9, trials, 5, K_cap=64, workers=workers)
        runs.append(json.dumps([est.to_record() for est in (thr, tilt)])
                    + json.dumps([est.kernel for est in (thr, tilt)]))
    assert runs[1:] == runs[:1] * 3


# ---------------------------------------------------------------------------
# nested grids
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", [1, 8, 12])
@pytest.mark.parametrize("rho", [1e-3, 0.5, 0.9, 0.999])
def test_even_points_of_the_doubled_grid_are_the_grid(K, rho):
    z = ladder._grid_points(rho, K)
    while K <= 1 << 20:
        z2 = ladder._grid_points(rho, 2 * K)
        assert z2[::2].tobytes() == z.tobytes(), K
        K, z = 2 * K, z2


# ---------------------------------------------------------------------------
# agreement with the full-grid ladder
# ---------------------------------------------------------------------------

# grid caps; 1000 is no level (the ladder ends at 1024).  No threshold row
# is a hit at 8 points, so the smallest cap is 16 (a cap at the first level
# is in test_rows_just_above_M_are_never_hits).  Ids read first level-cap.
LEVELS = [4096, 1000, 256, 64, 16]
LEVEL_IDS = [f"{ladder.K_INIT}-{K_cap}" for K_cap in LEVELS]


@pytest.mark.parametrize("K_cap", LEVELS, ids=LEVEL_IDS)
@pytest.mark.parametrize("M", [1.5, 2.0])
def test_threshold_rows_match_the_full_grid_ladder(K_cap, M):
    C, tail = _threshold_rows(512)
    counts = ladder._sup_counts(C, 0.7, M, tail, K_cap=K_cap)
    hit, miss, inc, tube, settled = _reference_counts(C, 0.7, M, tail, K_cap)
    assert counts[:4] == (hit, miss, inc, tube)
    assert hit > 0 and miss > 0
    assert _settled_by_K(counts, K_cap) == settled


@pytest.mark.parametrize("K_cap", LEVELS, ids=LEVEL_IDS)
def test_tilted_rows_match_the_full_grid_ladder(K_cap):
    mid, inner, shift, tail, half = _tilted_rows(256)
    counts = ladder._sup_counts(mid, 0.9, half, 0.0, K_cap=K_cap)
    ref = _reference_counts(mid, 0.9, half, 0.0, K_cap)
    assert counts[:4] == ref[:4]
    assert _settled_by_K(counts, K_cap) == ref[4]
    counts = ladder._sup_counts(inner, 0.9, half, tail, K_cap=K_cap,
                                shift=shift)
    ref = _reference_counts(inner, 0.9, half, tail, K_cap, shift=shift)
    assert counts[:4] == ref[:4]
    assert _settled_by_K(counts, K_cap) == ref[4]


def test_middle_rows_reach_the_upper_levels():
    # the tilted cases above are only meaningful if rows settle late
    mid, *_, half = _tilted_rows(256)
    counts = ladder._sup_counts(mid, 0.9, half, 0.0, K_cap=256)
    assert max(_settled_by_K(counts, 256)) >= 256
    assert counts[2] > 0


def test_nan_rows_run_to_the_cap_and_end_inconclusive():
    C, tail = _threshold_rows(64)
    C[::7, 3] = np.nan
    counts = ladder._sup_counts(C, 0.7, 1.5, tail, K_cap=512)
    assert counts[:4] == _reference_counts(C, 0.7, 1.5, tail, 512)[:4]
    assert counts[2] >= len(range(0, 64, 7))


# ---------------------------------------------------------------------------
# against the first-order ladder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K_cap", LEVELS, ids=LEVEL_IDS)
def test_no_row_flips_against_the_first_order_ladder(K_cap):
    # the second-order bound only settles rows the first-order ladder left
    # open; the rounding terms are far too small to undo a first-order hit
    gained = 0
    for name, C, rho, M, tail, shift in _streams(256):
        new, _, _ = _reference_ladder(C, rho, M, tail, K_cap, shift)
        old, _, _ = _reference_ladder(C, rho, M, tail, K_cap, shift,
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
    bound = 0.5 * ladder._GRID_ETA * rho
    for K in (1, 8, 12, 1000, 3000, 1 << 10, 12 << 14, 1000 << 10, 1 << 16,
              1 << 20):
        z = ladder._grid_points(rho, K)
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
    z = ladder._grid_points(rho, 1 << 16)
    gmax = np.abs(gaf.evaluate_on_grid(C, z)).max(axis=1)
    return C * (M * factor / (rho ** shift * gmax))[:, None]


@pytest.mark.parametrize("K_cap", [8, 64, 1024, 1 << 16, 1 << 20])
def test_rows_just_above_M_are_never_hits(K_cap):
    for name, C, rho, M, tail, shift in _streams(24):
        above = _scaled_to(C, rho, M, shift, 1.0 + GAP)
        above[-1, 2] = np.nan
        counts = ladder._sup_counts(above, rho, M, tail, K_cap=K_cap,
                                    shift=shift)
        assert counts[0] == 0, name
        assert counts[2] >= 1, name          # the NaN row stays open
        # not vacuous: the same rows a little below M are hits
        if K_cap == 1 << 16:
            below = _scaled_to(C, rho, M - tail, shift, 1.0 - 1e-3)
            counts = ladder._sup_counts(below, rho, M, tail, K_cap=K_cap,
                                        shift=shift)
            assert counts[0] == below.shape[0], name


def test_rounding_terms_decide_constant_rows():
    # F = c: the grid max is |c| exactly and both interpolation bounds are 0,
    # so a row is a hit iff (1 + g)(|c| + g |c|) < M, i.e. |c| < M (1 - 2g)
    # to first order in g
    M = 1.5
    g = ladder._rounding_gamma(1)
    ks = np.array([0.5, 1.5, 1.9, 2.1, 3.0, 4.0])
    C = (M * (1.0 - ks * g))[:, None].astype(complex)
    for j, k in enumerate(ks):
        hit, miss, inc, tube, *_ = ladder._sup_counts(C[j:j + 1], 0.9, M, 0.0,
                                                      K_cap=64)
        assert (hit, miss, tube) == (int(k > 2.0), 0, 0), k
        assert inc == 1 - hit


# ---------------------------------------------------------------------------
# the triangle-bound screen
# ---------------------------------------------------------------------------

def _screen_cases(seed, rows=256):
    """(name, moduli rows, full rows, rho, M, tail, shift) of the threshold
    stream at L = 1, r in {0.7, 0.9}, with the default M and with M = 1.5,
    and of the tilted tail stream."""
    for r in (0.7, 0.9):
        A, tail = _threshold_rows(rows, seed, r, moduli=True)
        C, _ = _threshold_rows(rows, seed, r)
        for M in (holes.default_threshold(1.0, r), 1.5):
            yield f"threshold r={r} M={M}", A, C, r, M, tail, 0
    _, A, shift, tail, half = _tilted_rows(rows, seed, moduli=True)
    _, C, *_ = _tilted_rows(rows, seed)
    yield "tilted tail", A, C, 0.9, half, tail, shift


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_screened_row_is_a_ladder_hit(seed):
    # the screen reads the moduli alone; the sup ladder, run to the default
    # cap on the full rows of the trials it screened, makes each a hit
    screened = {}
    for name, A, C, rho, M, tail, shift in _screen_cases(seed):
        mask = holes._sup_screen(A.copy(), rho, M, tail, shift)
        hit, miss, inc, *_ = ladder._sup_counts(
            C[mask], rho, M, tail, K_cap=ladder.K_CAP_DEFAULT, shift=shift)
        assert (hit, miss, inc) == (int(mask.sum()), 0, 0), name
        screened[name] = int(mask.sum())
    # not vacuous: the default M screens most threshold rows, M = 1.5 some
    # of them at r = 0.7, and the tail stream all of its rows
    assert screened["threshold r=0.7 M=1.5"] > 0
    assert screened["tilted tail"] == 256
    for r in (0.7, 0.9):
        assert screened[f"threshold r={r} M={holes.default_threshold(1.0, r)}"] \
            >= 0.9 * 256


@pytest.mark.parametrize("shift", [0, 3])
def test_a_row_whose_triangle_sum_is_M_minus_tail_is_not_screened(shift):
    # T = z^shift F, F = 1 + A_1 z + A_2 z^2 + A_3 z^3 with A_n > 0, on the
    # 1/2-circle: its exact triangle sum, which is also sup |T| (at z = 1/2),
    # is exactly M - tail, so T is no hit.  The terms A_n 2^-n are 3/8, 3/8
    # and 1/4 of ulp(1): each partial sum rounds down, and the computed sum
    # is 1, one ulp below the exact 1 + ulp(1)
    rho, ulp = 0.5, 2.0 ** -52
    A = np.array([[1.0, 0.375 * ulp / rho, 0.375 * ulp / rho ** 2,
                   0.25 * ulp / rho ** 3]])
    scale = rho ** shift
    M, tail = 2.0 * scale, (1.0 - ulp) * scale
    exact = Fraction(scale) * sum(Fraction(a) * Fraction(rho) ** n
                                  for n, a in enumerate(A[0]))
    assert exact == Fraction(M) - Fraction(tail)
    assert not holes._sup_screen(A.copy(), rho, M, tail, shift)[0]
    # the same bound without its factor 1 + g would screen it
    W = A * (rho * (1.0 + ladder._GRID_ETA)) ** np.arange(A.shape[1])
    assert rho ** shift * np.sum(W, axis=1)[0] + tail < M


@pytest.mark.parametrize("shift, tail", [(0, 0.0), (7, 0.01)])
def test_a_cap_prefix_decides_only_rows_the_whole_row_decides_alike(shift,
                                                                    tail):
    # the first k columns of moduli rows whose other columns are at most
    # the cap: a row the prefix settles is a hit of the whole-row screen,
    # and a row it leaves to the ladder is none, at every M
    rho, k, n1 = 0.8, 5, 24
    g = ladder._rounding_gamma(n1)
    A = np.random.default_rng(5).uniform(0.0, rng.MODULUS_CAP, (2000, n1))
    rem = rng.MODULUS_CAP * float(np.sum(ladder._moduli_weights(rho, n1)[k:]))
    S = rho ** shift * np.sum(A * ladder._moduli_weights(rho, n1), axis=1)
    decided = [0, 0]
    for M in np.quantile((1.0 + g) * S + tail, np.linspace(0.0, 1.0, 41)):
        hit = holes._sup_screen(A.copy(), rho, M, tail, shift)
        settled, rejected = holes._sup_prefix(A[:, :k], rho, M, tail, shift,
                                              g, rem)
        assert not np.any(settled & ~hit) and not np.any(rejected & hit), M
        decided[0] += int(settled.sum())
        decided[1] += int(rejected.sum())
    assert min(decided) > 0


def test_a_cap_prefix_keeps_a_row_whose_sum_rounds_below_its_prefix_sum():
    # numpy sums 9 columns as ((x_0 + x_1) + ... + (x_6 + x_7)) + x_8 and 16
    # as the same tree over x_j + x_{8+j}, so with x_9.. tiny a row's sum
    # can round below the sum of its first 9 columns.  At M at the prefix
    # sum's bound such a row is a hit of the whole-row screen; the factor
    # 1 - g keeps the prefix from leaving it to the ladder
    rho, k, n1 = 0.5, 9, 16
    g = ladder._rounding_gamma(n1)
    A = np.random.default_rng(3).uniform(0.5, 2.0, (4096, n1))
    A[:, k:] = 1e-30
    full = np.sum(A * ladder._moduli_weights(rho, n1), axis=1)
    pre = np.sum(A[:, :k] * ladder._moduli_weights(rho, k), axis=1)
    M = (1.0 + g) * pre
    below = np.flatnonzero((1.0 + g) * full < M)
    assert below.size > 0
    for i in below[:16]:
        row = A[i:i + 1]
        assert holes._sup_screen(row.copy(), rho, M[i], 0.0)[0]
        settled, rejected = holes._sup_prefix(row[:, :k], rho, M[i], 0.0, 0,
                                              g, 1e-28)
        assert not settled[0] and not rejected[0], i


def test_all_screened_and_none_screened_streams_ignore_worker_count():
    # threshold at L = 1, r = 0.7 and the default M screens every row, so
    # its ladder sees none; the tilted middle stream screens none
    trials = 2 * holes.BATCH_TRIALS + 64
    runs = []
    for workers in (1, 2):
        thr = holes.estimate_hole_lower_threshold(
            hyperbolic(1.0), 0.7, trials, 7, workers=workers)
        tilt = holes.estimate_hole_lower_tilted(
            hyperbolic(2.0), 0.9, trials, 7, workers=workers)
        runs.append(json.dumps([est.to_record() for est in (thr, tilt)])
                    + json.dumps([est.kernel for est in (thr, tilt)]))
    assert runs[1] == runs[0]
    assert thr.hits == trials
    assert thr.kernel["sup"] == {
        "hit": trials, "miss": 0, "inconclusive": 0, "screened": trials,
        "tube_hits": 0, "grid_points": 0, "settle_K": {}}
    mid = tilt.kernel["middle"]
    assert mid["screened"] == 0
    assert sum(mid["settle_K"].values()) == mid["hit"] + mid["miss"] > 0


# ---------------------------------------------------------------------------
# batch and chunk independence
# ---------------------------------------------------------------------------

def test_batch_counts_are_the_sum_of_single_row_counts():
    mid, *_, half = _tilted_rows(holes.BATCH_TRIALS)
    batch = ladder._sup_counts(mid, 0.9, half, 0.0, K_cap=1024)
    total = np.zeros(len(batch), dtype=np.int64)
    for i in range(mid.shape[0]):
        total += ladder._sup_counts(mid[i:i + 1], 0.9, half, 0.0, K_cap=1024)
    assert tuple(int(v) for v in total) == batch


def _bounds_bytes(*args):
    """The bytes of each of the six outputs of ladder._circle_bounds."""
    return [np.asarray(v).tobytes() for v in ladder._circle_bounds(*args)]


@pytest.mark.parametrize("chunk", [64, 1000])
def test_counts_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    mid, inner, shift, tail, half = _tilted_rows(256)
    C, t_thr = _threshold_rows(256)
    inputs = [a.tobytes() for a in (mid, inner, C)]
    before = [ladder._sup_counts(mid, 0.9, half, 0.0, K_cap=4096),
              ladder._sup_counts(inner, 0.9, half, tail, K_cap=3000,
                                 shift=shift),
              ladder._sup_counts(C, 0.7, 1.5, t_thr, K_cap=2048)]
    # the ladder gathers the rows it evaluates and never writes its input
    assert [a.tobytes() for a in (mid, inner, C)] == inputs
    cb = [_bounds_bytes(mid, 0.9), _bounds_bytes(inner, 0.9, shift),
          _bounds_bytes(C, 0.7)]
    g, scale, _, _, Eg, Eh = ladder._circle_bounds(mid, 0.9)
    bounds = (scale, g, Eg, Eh)
    level = ladder._grid_max(mid, 0.9, 4096, True, bounds, {})
    monkeypatch.setattr(ladder, "_CHUNK_ELEMS", chunk)
    after = [ladder._sup_counts(mid, 0.9, half, 0.0, K_cap=4096),
             ladder._sup_counts(inner, 0.9, half, tail, K_cap=3000,
                                shift=shift),
             ladder._sup_counts(C, 0.7, 1.5, t_thr, K_cap=2048)]
    assert [a.tobytes() for a in (mid, inner, C)] == inputs
    assert after == before
    assert [_bounds_bytes(mid, 0.9), _bounds_bytes(inner, 0.9, shift),
            _bounds_bytes(C, 0.7)] == cb
    for a, b in zip(ladder._grid_max(mid, 0.9, 4096, True, bounds, {}), level):
        assert a.tobytes() == b.tobytes()
    # on Horner, a row's points are evaluated in slices above the chunk
    monkeypatch.setattr(ladder, "_FFT_MIN_DEGREE", 1 << 30)
    z = ladder._grid_points(0.9, 4096)[1::2]
    gmax, E = ladder._grid_max(mid, 0.9, 4096, True, bounds, {})
    full = np.abs(gaf.evaluate_on_grid(mid, z)).max(axis=1)
    assert gmax.tobytes() == full.tobytes()
    assert E.tobytes() == bounds[3].tobytes()


def test_the_ladder_working_memory_does_not_grow_with_the_rows():
    # the climb carries the indices of its open rows and each chunk gathers
    # at most _CHUNK_ELEMS values, so doubling the rows of C adds only the
    # per-row scalars (a few arrays of B floats) to the traced peak above
    # the input; a copy of the open rows per level would add megabytes
    mid, *_, half = _tilted_rows(8192)
    peaks = []
    for rows in (4096, 8192):
        C = mid[:rows].copy()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ladder._sup_counts(C, 0.9, half, 0.0, K_cap=1 << 16)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks


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
        assert set(s) == {"hit", "miss", "inconclusive", "screened",
                          "tube_hits", "grid_points", "settle_K"}
        assert s["hit"] == hits
        assert 0 <= s["screened"] and 0 <= s["tube_hits"]
        assert s["screened"] + s["tube_hits"] <= s["hit"]
        # settle_K and grid_points count the rows the ladder ran
        assert s["screened"] + sum(s["settle_K"].values()) \
            == s["hit"] + s["miss"]
        ladder_rows = s["hit"] + s["miss"] + s["inconclusive"] - s["screened"]
        assert s["grid_points"] >= ladder_rows * ladder.K_INIT
        total += s["hit"] + s["miss"] + s["inconclusive"]
    assert total == 2 * 2500
    assert (k["middle"]["inconclusive"] + k["tail"]["inconclusive"]
            == rec["inconclusive"])
    assert k["middle"]["tube_hits"] > 0
    assert k["tail"]["screened"] > 0


def test_threshold_kernel_counts_every_trial():
    est = holes.estimate_hole_lower_threshold(hyperbolic(1.0), 0.7, 600, 4,
                                              M=1.5, K_cap=256)
    s = est.kernel["sup"]
    assert s["hit"] == est.hits and s["inconclusive"] == est.inconclusive
    assert s["hit"] + s["miss"] + s["inconclusive"] == 600
    assert 0 < s["screened"] <= s["hit"]
    assert s["screened"] + sum(s["settle_K"].values()) == s["hit"] + s["miss"]
    assert s["grid_points"] >= (600 - s["screened"]) * 8
    assert set(s["settle_K"]) <= set(ladder._ladder_levels(256))
    assert "kernel" not in est.to_record()
