"""The min-modulus / winding ladder behind every hole decision.

holes._certify_rows doubles the circle grid, evaluates only the new odd
points at each doubling and interleaves them with the kept values of the
previous level.  Its lower bound is the larger of the first-order bound
gmin - D pi rho / K and the second-order ("tube") bound segmin - (h^2/8) D_2,
less rounding terms, where segmin is the smallest distance from 0 to a
segment between adjacent grid values.  These tests pin all nine result
arrays, bit for bit, against a ladder written here that assembles every
full grid afresh from the level evaluator (FFT or Horner); check that no
row decided by the first-order ladder (the ladder before the tube bound,
on Horner values) changes its outcome; pin the segment distance against
mpmath; and plant roots on, near and around the circle, where no
certificate may be wrong.
"""

import mpmath
import numpy as np
import pytest

from gafholes import gaf, holes
from gafholes.coeffs import explicit, hyperbolic

KEYS = ("mm_lb", "mm_gm", "mm_K", "wind", "wind_ok", "wind_K", "hopeless",
        "tube", "settle_K")


def _empty(B):
    return {"mm_lb": np.full(B, -np.inf), "mm_gm": np.zeros(B),
            "mm_K": np.zeros(B, dtype=np.int64),
            "wind": np.zeros(B, dtype=np.int64),
            "wind_ok": np.zeros(B, dtype=bool),
            "wind_K": np.zeros(B, dtype=np.int64),
            "hopeless": np.zeros(B, dtype=bool),
            "tube": np.zeros(B, dtype=bool),
            "settle_K": np.zeros(B, dtype=np.int64)}


def _full_grid(C, rho, K):
    """Horner values of each row on the full K-point grid."""
    return gaf.evaluate_on_grid(C, holes._grid_points(rho, K))


def _level_grid(C, rho, K, bounds):
    """(values, E) of each row on the full K-point grid, assembled afresh
    from the level evaluator: the K_INIT-point level, then the odd points
    of every doubling up to K, interleaved; E is the largest level E."""
    V, E = holes._grid_values(C, rho, holes.K_INIT, False, bounds, {})
    K2 = 2 * holes.K_INIT
    while K2 <= K:
        new, E2 = holes._grid_values(C, rho, K2, True, bounds, {})
        V = np.stack([V, new], axis=2).reshape(C.shape[0], K2)
        E = np.maximum(E, E2)
        K2 *= 2
    return V, E


def _winding(V):
    args = np.angle(np.roll(V, -1, axis=1) / V)
    return np.rint(np.sum(args, axis=1) / (2.0 * np.pi)).astype(np.int64)


def _bounds(C, rho):
    """(g, D, D_2, E) of each row: rounding factor, sup |F'|, sup |d^2F/dt^2|
    and the distance of a Horner grid value from the exact one."""
    n1 = C.shape[1]
    n = np.arange(n1, dtype=np.float64)
    A = np.abs(C)
    g = holes._rounding_gamma(n1)
    eta = holes._GRID_ETA
    D = np.sum(A * (n * rho ** (n - 1.0)), axis=1)
    D2 = np.sum(A * (n * n * rho ** n), axis=1)
    E = g * np.sum(A * (rho * (1.0 + eta)) ** n, axis=1) + D * (eta * rho)
    return g, D, D2, E


def _evaluator_bounds(C, rho):
    """(scale, g, Eg, Eh) of the level evaluator for the rows of C."""
    n1 = C.shape[1]
    g = holes._rounding_gamma(n1)
    eta = holes._GRID_ETA
    A = np.abs(C)
    Eg = g * np.sum(A * (rho * (1.0 + eta)) ** np.arange(n1), axis=1)
    return 1.0, g, Eg, _bounds(C, rho)[3]


def _seg_dist(a, b):
    """dist(0, [a, b]): the perpendicular when its foot is inside the
    segment, the nearer endpoint otherwise."""
    d = b - a
    inside = ((a.real * d.real + a.imag * d.imag < 0.0)
              & (b.real * d.real + b.imag * d.imag > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        perp = np.abs(a.real * d.imag - a.imag * d.real) / np.abs(d)
    return np.where(inside, perp, np.minimum(np.abs(a), np.abs(b)))


def _reference(C, rho, K_cap, tail=-np.inf):
    """The tube ladder with a full grid at every level and one stop rule."""
    B = C.shape[0]
    g, D, D2, _ = _bounds(C, rho)
    scale, _, Eg, Eh = _evaluator_bounds(C, rho)
    res = _empty(B)
    active = np.arange(B)
    K = holes.K_INIT
    while active.size:
        V, E = _level_grid(C[active], rho, K,
                           (scale, g, Eg[active], Eh[active]))
        gmin = np.abs(V).min(axis=1)
        segmin = _seg_dist(V, np.roll(V, -1, axis=1)).min(axis=1)
        t1 = (1.0 + g) * (D[active] * (np.pi * rho / K) + E)
        lb1 = gmin - t1
        lb2 = (1.0 - g) * segmin \
            - (1.0 + g) * (D2[active] * (0.5 * (np.pi / K) ** 2) + E)
        lb = np.maximum(lb1, lb2)
        better = lb > res["mm_lb"][active]
        rows = active[better]
        res["mm_lb"][rows] = lb[better]
        res["mm_gm"][rows] = gmin[better]
        res["mm_K"][rows] = K
        step = 2.0 * t1 < gmin
        can = ~res["wind_ok"][active] & (step | (lb2 > 0.0))
        rows = active[can]
        res["wind"][rows] = _winding(V[can])
        res["wind_ok"][rows] = True
        res["wind_K"][rows] = K
        done = res["wind_ok"][active] & (res["mm_lb"][active] > tail)
        res["tube"][active[done & ~((lb1 > tail) & step)]] = True
        if K >= K_cap:
            res["settle_K"][active[done]] = K
            break
        hp = gmin <= tail
        res["hopeless"][active[hp]] = True
        res["settle_K"][active[hp | done]] = K
        active = active[~(hp | done)]
        K *= 2
    return res


def _first_order_reference(C, rho, K_cap, tail=None):
    """The ladder before the tube bound: lb = gmin - D pi rho / K with no
    rounding term, and the winding once D 2 pi rho / K < gmin.

    tail=None refines a row until both the minimum-modulus stop rule
    (lb > gmin / 2) and the winding certificate have fired; with a tail
    bound a row stops once it is decided or hopeless against it.  Also
    returns wind_gm, the grid minimum at the level where the winding fired.
    """
    B = C.shape[0]
    D = gaf.derivative_sup_bound_rows(C, rho)
    res = _empty(B)
    res["wind_gm"] = np.zeros(B)
    mm_done = np.zeros(B, dtype=bool)
    active = np.arange(B)
    K = holes.K_INIT
    while active.size:
        V = _full_grid(C[active], rho, K)
        gmin = np.abs(V).min(axis=1)
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
        res["wind"][rows] = _winding(V[can])
        res["wind_ok"][rows] = True
        res["wind_K"][rows] = K
        res["wind_gm"][rows] = gmin[can]
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


# grid caps; 1000 is no level (the ladder ends at 1024), and at 8 the first
# level is also the cap level.  Ids read first level-cap.
LEVELS = [1 << 14, 1000, 256, 64, 8]
LEVEL_IDS = [f"{holes.K_INIT}-{K_cap}" for K_cap in LEVELS]
# both cases run the FFT on every level
CASES = [(1.0, 0.7, 256), (2.0, 0.9, 48)]
# the model's tail bound, on the default evaluators and on Horner alone; a
# tail of 0.05 that sends rows out hopeless; and the scalar operations' -inf
MODES = [("tail", False), ("tail", True), ("wide", False), ("-inf", False)]
WIDE_TAIL = 0.05


def _tail_for(mode, tail):
    return {"tail": tail, "wide": WIDE_TAIL, "-inf": -np.inf}[mode]


def _horner_only(monkeypatch):
    """Raise the FFT crossover above every degree: each level runs Horner."""
    monkeypatch.setattr(holes, "_FFT_MIN_DEGREE", 1 << 30)


@pytest.mark.parametrize("K_cap", LEVELS, ids=LEVEL_IDS)
@pytest.mark.parametrize("L, r, n", CASES)
@pytest.mark.parametrize("mode, horner", MODES)
def test_ladder_matches_the_full_grid_ladder(K_cap, L, r, n, mode, horner,
                                             monkeypatch):
    if horner:
        _horner_only(monkeypatch)
    C, tail = _rows(L, r, n)
    tail = _tail_for(mode, tail)
    if mode != "-inf":
        res = holes._certify_rows(C, r, K_cap=K_cap, tail=tail)
    else:
        res = holes._certify_rows(C, r, K_cap=K_cap)
    ref = _reference(C, r, K_cap, tail=tail)
    _assert_bytes_equal(res, ref)
    # the NaN row never certifies and runs to the cap
    assert not res["wind_ok"][3] and not res["hopeless"][3]
    assert res["settle_K"][3] == 0


def _outcomes(res, tail):
    """Per row: ('hole' | 'zero', winding), 'hopeless' or None (open)."""
    decided = res["wind_ok"] & (res["mm_lb"] > tail)
    out = []
    for i in range(len(decided)):
        if decided[i]:
            w = int(res["wind"][i])
            out.append(("hole" if w == 0 else "zero", w))
        elif res["hopeless"][i]:
            out.append("hopeless")
        else:
            out.append(None)
    return out


# Rows a first-order decision may lose, by (L, r, K_cap, mode): only
# rows whose first-order margin is below E may appear here.  None do.
FLIP_EXCEPTIONS = {}


@pytest.mark.parametrize("K_cap", LEVELS, ids=LEVEL_IDS)
@pytest.mark.parametrize("L, r, n", CASES)
@pytest.mark.parametrize("mode, horner", MODES)
def test_no_row_flips_against_the_first_order_ladder(K_cap, L, r, n, mode,
                                                     horner, monkeypatch):
    if horner:
        _horner_only(monkeypatch)
    C, tail = _rows(L, r, n)
    tail = _tail_for(mode, tail)
    new = holes._certify_rows(C, r, K_cap=K_cap, tail=tail)
    old = _first_order_reference(C, r, K_cap,
                                 tail=None if mode == "-inf" else tail)
    _, D, _, E = _bounds(C, r)
    # slack of the first-order certificate: clearing the tail, and the step
    # condition at the level where the winding fired
    step_slack = old["wind_gm"] - D * (2.0 * np.pi * r / np.maximum(old["wind_K"], 1))
    lb_slack = old["mm_lb"] - tail if np.isfinite(tail) else np.inf
    margin = np.minimum(lb_slack, step_slack / 2.0)
    before, after = _outcomes(old, tail), _outcomes(new, tail)
    flips = [i for i, (a, b) in enumerate(zip(before, after))
             if a is not None and a != b]
    assert flips == FLIP_EXCEPTIONS.get((L, r, K_cap, mode), [])
    assert all(margin[i] < E[i] for i in flips)
    # newly decided rows were open before, never hopeless
    for a, b in zip(before, after):
        if a is None:
            assert b is None or isinstance(b, tuple)
    # the tube bound decides rows the first-order ladder left open
    if K_cap >= 256:
        assert any(a is None and b is not None for a, b in zip(before, after))


def test_rows_settle_across_the_levels():
    # the cases above are only meaningful if rows settle late and some
    # rows take each exit
    C, tail = _rows(2.0, 0.9, 48)
    res = holes._certify_rows(C, 0.9, K_cap=1 << 14, tail=tail)
    assert res["wind_K"].max() >= 1024
    assert len(set(res["wind_K"][res["wind_ok"]])) >= 3
    assert res["tube"].any() and len(set(res["settle_K"])) >= 4
    for L, r, n in CASES:
        C, _ = _rows(L, r, n)
        res = holes._certify_rows(C, r, K_cap=1 << 14, tail=WIDE_TAIL)
        assert res["hopeless"].any()
        assert ((res["mm_lb"] > WIDE_TAIL) & res["wind_ok"]).any()
    C, tail = _rows(1.0, 0.7, 256)
    res = holes._certify_rows(C, 0.7, K_cap=1 << 14, tail=tail)
    assert (res["wind_ok"] & (res["wind"] == 0)).any()
    assert (res["wind_ok"] & (res["wind"] >= 1)).any()


@pytest.mark.parametrize("chunk", [64, 1000])
def test_ladder_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    C, tail = _rows(2.0, 0.9, 48)
    ref = [_reference(C, 0.9, 4096, tail=tail),
           _reference(C, 0.9, 1000, tail=WIDE_TAIL),
           _reference(C, 0.9, 2048)]
    bounds = _evaluator_bounds(C, 0.9)
    level = holes._grid_values(C, 0.9, 4096, True, bounds, {})
    # a chunk below the grid size also sends the open rows up the rest of
    # the ladder one at a time, and evaluates one row per FFT chunk
    monkeypatch.setattr(holes, "_CHUNK_ELEMS", chunk)
    res = [holes._certify_rows(C, 0.9, K_cap=4096, tail=tail),
           holes._certify_rows(C, 0.9, K_cap=1000, tail=WIDE_TAIL),
           holes._certify_rows(C, 0.9, K_cap=2048)]
    for a, b in zip(res, ref):
        _assert_bytes_equal(a, b)
    for a, b in zip(holes._grid_values(C, 0.9, 4096, True, bounds, {}), level):
        assert a.tobytes() == b.tobytes()
    # on Horner, a row's points are evaluated in slices above the chunk
    _horner_only(monkeypatch)
    z = holes._grid_points(0.9, 4096)[1::2]
    V, E = holes._grid_values(C, 0.9, 4096, True, bounds, {})
    assert V.tobytes() == gaf.evaluate_on_grid(C, z).tobytes()
    assert E.tobytes() == bounds[3].tobytes()


# ---------------------------------------------------------------------------
# soundness: the segment distance, and roots on and near the circle
# ---------------------------------------------------------------------------

def _segment_cases():
    """Endpoint pairs: random, nearly parallel to the radius, nearly
    through 0, perpendicular feet near either end, tiny segments far from
    0, degenerate (a = b), and NaN."""
    rng = np.random.default_rng(5)
    a = (rng.normal(size=400) + 1j * rng.normal(size=400)) \
        * 10.0 ** rng.uniform(-8, 3, 400)
    b = np.concatenate([
        rng.normal(size=100) + 1j * rng.normal(size=100),
        a[100:160] * (1.0 + rng.uniform(-1, 1, 60) * 1e-9),
        -a[160:220] * rng.uniform(0.1, 10, 60) * np.exp(1j * rng.normal(size=60) * 1e-10),
        a[220:280] + 1j * a[220:280] * rng.uniform(1e-12, 1e-6, 60) * np.sign(rng.normal(size=60)),
        a[280:340] + a[280:340] * rng.uniform(1e-13, 1e-9, 60) * np.exp(1j * rng.uniform(0, 6.3, 60)),
        a[340:400],
    ])
    a, b = np.concatenate([a, [np.nan, 1.0]]), np.concatenate([b, [1.0, np.nan + 0j]])
    return a, b


def test_segment_distance_against_mpmath():
    a, b = _segment_cases()
    got = holes._segment_dist(a, b)
    assert np.isnan(got[-2:]).all()
    u = 2.0 ** -53
    with mpmath.workprec(200):
        for x, y, d in zip(a[:-2], b[:-2], got[:-2]):
            A = mpmath.mpc(float(x.real), float(x.imag))
            Bp = mpmath.mpc(float(y.real), float(y.imag))
            seg = Bp - A
            n2 = abs(seg) ** 2
            t = 0 if n2 == 0 else min(1, max(0, -mpmath.re(mpmath.conj(A) * seg) / n2))
            exact = abs(A + t * seg)
            # the slack that E leaves above the Horner error covers this
            assert abs(mpmath.mpf(float(d)) - exact) <= 8 * u * max(abs(x), abs(y))
    # degenerate segments are their endpoint
    assert np.array_equal(got[340:400], np.abs(a[340:400]))


def _poly_rows(roots_list, width):
    rows = []
    for roots in roots_list:
        c = np.poly(roots)[::-1].astype(complex)
        rows.append(np.pad(c, (0, width - len(c))))
    return np.array(rows)


def _assert_sound(C, rho, tail, K_cap=1 << 14):
    """No certified hole has a root inside the rho-disk, and no certified
    winding differs from the count of np.roots inside it; in tail mode and
    in the scalar mode.  Returns the tail-mode result."""
    inside = np.array([np.sum(np.abs(np.roots(c[::-1])) < rho) for c in C])
    for t in (tail, -np.inf):
        res = holes._certify_rows(C, rho, K_cap=K_cap, tail=t)
        ok = res["wind_ok"]
        assert np.array_equal(res["wind"][ok], inside[ok])
        hole = ok & (res["mm_lb"] > t) & (res["wind"] == 0)
        assert not np.any(hole & (inside > 0))
    return holes._certify_rows(C, rho, K_cap=K_cap, tail=tail)


@pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-4, -1e-4, -1e-9, -1e-12])
def test_roots_planted_near_the_circle(delta):
    # one root at modulus rho (1 + delta), one to three more away from the
    # circle on either side
    rho = 0.6
    rng = np.random.default_rng(int(abs(np.log10(abs(delta)))) + (delta < 0))
    roots = []
    for _ in range(48):
        k = int(rng.integers(1, 4))
        mods = np.concatenate([[rho * (1.0 + delta)],
                               rng.choice([0.3, 1.5], k) * rho * rng.uniform(0.8, 1.2, k)])
        roots.append(mods * np.exp(2j * np.pi * rng.uniform(size=k + 1)))
    C = _poly_rows(roots, 5) * (rng.normal(size=(48, 1)) + 1j * rng.normal(size=(48, 1)))
    res = _assert_sound(C, rho, 0.0)
    if abs(delta) >= 1e-4:
        # resolved at 2^14 points: every row is decided
        assert (res["wind_ok"] & (res["mm_lb"] > 0.0)).all()


@pytest.mark.parametrize("e", [8, 16, 24, 40])
@pytest.mark.parametrize("side", [1, -1])
def test_dyadic_root_clusters(e, side):
    # (z - a u)^k (z - 3/4 v) with a = 1/2 +- 2^-e and units u, v: dyadic
    # roots, so every coefficient is exact and the roots are exactly these
    rho, a = 0.5, 0.5 + side * 2.0 ** -e
    roots = [[a * u] * k + [0.75 * v]
             for k in (1, 2, 3) for u in (1, -1, 1j, -1j) for v in (1, -1j)]
    C = _poly_rows(roots, 5)
    inside = np.array([k if side < 0 else 0 for k in (1, 2, 3) for _ in range(8)])
    for t in (0.0, -np.inf):
        res = holes._certify_rows(C, rho, K_cap=1 << 14, tail=t)
        ok = res["wind_ok"]
        assert np.array_equal(res["wind"][ok], inside[ok])
        assert not np.any(ok & (res["mm_lb"] > t) & (inside > 0)
                          & (res["wind"] == 0))
    if e <= 8:
        # simple roots 2^-8 off the circle are resolved
        assert ok[:8].all()


def test_explicit_model_with_zero_tail():
    m, r = explicit([1.0, 0.9, 0.8, 0.7, 0.6, 0.5]), 0.9
    N_t = gaf.truncation_degree(m, r, gaf.DEFAULT_TAU_REL)
    tail, _ = gaf.tail_sup_bound(m, N_t, r)
    assert N_t == 5 and tail == 0.0
    C = gaf.sample_coeff_batch(m, 3, np.arange(2048, dtype=np.uint64), N_t)
    res = _assert_sound(C, r, tail)
    hole = res["wind_ok"] & (res["mm_lb"] > 0.0) & (res["wind"] == 0)
    assert hole.sum() > 100 and (res["wind_ok"] & (res["wind"] >= 1)).sum() > 1000


def test_step_condition_carries_the_rounding_term():
    # F = 1 + eps z^20 at rho = 1/2: on the 8-point grid z^20 = +-rho^20,
    # so gmin = 1 - eps rho^20, and the tube bound is far below 0 (D_2 is
    # 20 times D), so only the step condition can certify the winding at
    # K = 8.  Bisect eps to the edge of 2 (1 + g)(D pi rho / 8 + E) < gmin:
    # just inside, the winding fires at 8; just outside, where the same
    # test without E would still pass, it fires at 16.
    rho = 0.5

    def row(eps):
        c = np.zeros((1, 21), dtype=complex)
        c[0, 0], c[0, 20] = 1.0, eps
        return c

    def step_holds(eps):
        C = row(eps)
        g, D, _, _ = _bounds(C, rho)
        V, E = _level_grid(C, rho, 8, _evaluator_bounds(C, rho))
        gmin = np.abs(V).min()
        return 2.0 * ((1.0 + g) * (D[0] * (np.pi * rho / 8) + E[0])) < gmin

    lo, hi = 0.05 / rho ** 20, 0.07 / rho ** 20
    assert step_holds(lo) and not step_holds(hi)
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if step_holds(mid) else (lo, mid)
    # the E terms matter at the edge: without them the step would hold
    g, D, _, _ = _bounds(row(hi), rho)
    V, E = _level_grid(row(hi), rho, 8, _evaluator_bounds(row(hi), rho))
    assert 2.0 * ((1.0 + g) * D[0] * (np.pi * rho / 8)) < np.abs(V).min() - E[0]
    for eps, K in ((lo, 8), (hi, 16)):
        res = holes._certify_rows(row(eps), rho, K_cap=16)
        assert res["wind_ok"][0] and res["wind"][0] == 0
        assert res["wind_K"][0] == K and not res["tube"][0]
