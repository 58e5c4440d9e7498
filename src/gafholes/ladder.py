"""The certificate kernel: certified circle bounds by one nested-grid ladder.

A hole at radius r means the function has no zeros in the closed disk of
radius r.  For a truncated sample the decision is made on a grid of K
points of the circle, with computed values V_j:

  * a certified lower bound for min |F| on the circle, the larger of a
    first-order and a second-order ("tube") bound (below);
  * a certified winding number, the winding of the closed polygon through
    the V_j, once that polygon provably winds like F (below): the zero
    count of the truncated polynomial inside the disk;
  * if the certified circle minimum exceeds the tail bound of the dropped
    series remainder, the truncated polynomial and the full series have the
    same zero count in the disk (Rouche on the circle plus the maximum
    principle), so a winding of 0 certifies a hole and a winding of k >= 1
    certifies k zeros.

Both certificates, this one and the sup bound of the lower bounds, run one
ladder (_climb) over the grid sizes K_INIT = 8, 16, 32, ... on nested grids:
the even points of the 2K-point grid are the K-point grid bit for bit
(fl(2 pi / (2K)) = fl(2 pi / K) / 2 and (2j) (y / 2) = j y exactly), so
each doubling evaluates only the K new odd points.  The sup certificate
folds their maximum |F| into the previous level's (max is exact); the
min/winding one interleaves them with the kept values of its open rows,
so it holds the whole grid.  A NaN propagates the same way.  At each level
the certificate's decision says which rows leave.  The climb carries the
indices of its open rows, not a copy of them: each chunk of a level
gathers its own rows from the caller's coefficients, which stay
unmodified.  The ladder stops at its first level at or above the cap
(8 2^k >= K_cap), in every operation and estimator: a row still open
there is Inconclusive.

Let f(theta) = F(rho e^{i theta}), h = 2 pi / K, D = sum n |c_n| rho^{n-1}
>= sup |F'| and D_2 = sum n^2 |c_n| rho^n >= sup |f''|.  Between adjacent
grid points f moves by at most D rho h / 2 from the nearer endpoint (first
order).  On an arc [a, a + h] the linear interpolant l of f satisfies
f(t) - l(t) = int_a^{a+h} k(t, s) f''(s) ds with the Peano kernel k(t, s) =
-(s - a)(a + h - t)/h for s <= t and -(t - a)(a + h - s)/h for s >= t,
which does not change sign and has int |k(t, s)| ds = (t - a)(a + h - t)/2
<= h^2/8.  The representation is linear in f, so it holds for
complex-valued f: f stays within (h^2/8) D_2 of the segment [f(a), f(a +
h)] (second order), and the grid a row needs grows like gap^{-1/2} instead
of 1/gap.  Hence on each arc

    |f(t)| <= max(|f(a)|, |f(a + h)|) + min(D pi rho / K, (h^2/8) D_2),
    |f(t)| >= max(min(|f(a)|, |f(a + h)|) - D pi rho / K,
                  dist(0, [f(a), f(a + h)]) - (h^2/8) D_2),

since the modulus of a convex combination is at most the larger endpoint
modulus and at least the distance from 0 to the segment.  Each computed
value lies within E of the exact value at its exact grid point, E from the
evaluator of its level (below), and the ladder uses the largest E of the
levels whose values a row holds.  A segment between computed values then
lies within E of the exact one, so the sup certificate adds E and the min
one subtracts it, each under a factor 1 + g for the rounding of the bounds.

g = gamma_{8(N+2)} for degree N (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed.: gamma_k in 3.1, complex products within
sqrt(2) gamma_2 in 3.6, or 2u with a fused multiply-add by Jeannerod et
al., Math. Comp. 2017), eta = 32 u, and a level is the K values of a row or
the K/2 odd ones of a doubling, computed by one of two evaluators:

  * Horner at the computed grid points: E = g sum |c_n| (rho (1 + eta))^n
    + D eta rho, the Horner error (gamma_{4N}, Higham 5.1) and the point
    error: a computed point lies within (eta/2) rho of the exact one (10.5 u
    rho in samples of grids up to 2^20 points), and the factor 2 also covers
    D at the radius rho (1 + eta/2) of the segment between them (N < 10^14).
  * A radix-2 FFT on levels of P = 2^t points with N >= 2t + _FFT_MIN_DEGREE
    (the measured Horner crossover).  With w = e^{2 pi i / K}, b_n = c_n
    rho^n and y_j = sum_k x_k e^{2 pi i jk / P}, F(rho w^j) is y_j for x =
    b folded mod P (x_k = sum of b_n over n = k mod P), and F(rho w^{2j+1})
    is y_j for x = (b_n w^n) folded mod P, P = K/2.  There w^{k + jP} =
    (-1)^j w^k, so x_k = w^k sum_j (-1)^j b_{k + jP}: b folded with
    alternating signs, then twisted once per folded value.  The powers
    rho^n by repeated products (within gamma_N), one product per b_n
    (within u), the fold in fixed order (ceil((N + 1)/P) signed terms per
    value, within gamma_{N+1}) and on odd levels the twist by a unit grid
    point (within eta/2 of w^k, the complex product within sqrt(2)
    gamma_2) put the computed x within (2N + 21) u sum |c_n| rho^n of x in
    the 1-norm.  For the DFT of the computed x, Higham's Theorem 24.2 bounds
    a Cooley-Tukey radix-2 FFT with twiddles within mu of exact: ||y^ - y||_2
    <= t eta' / (1 - t eta') ||y||_2, eta' = mu + gamma_4 (sqrt 2 + mu).
    Its proof bounds each butterfly stage (a + w b, a - w b) in the 2-norm,
    and the Stockham (autosort) order only permutes data between stages, so
    it holds here, with mu = eta/2 (the twiddles are unit grid points).
    A value's error is at most ||y^ - y||_2, and ||y||_2 = sqrt(P) ||x||_2, so

        E = g sum |c_n| (rho (1 + eta))^n
            + (1 + g) t eta' / (1 - t eta') sqrt(P) ||x||_2,

    with the computed ||x||_2 raised by 1 + 2 gamma_{P+2} for its rounding
    (2P squares, their sum and a root) and 1 + g for that of the constants.
    The values are at the exact points: no point error.

The slack of g over gamma_{4N} (Horner) or (2N + 21) u (FFT input, N >= 12
there), at least 16 u sum |c_n| (rho (1 + eta))^n, covers the rounding of
|V_j| and of segmin (below; a few u max |V_j|).  For T = z^s F (the
tilted tail stream) both evaluate F, and E is scaled by rho^s.

The winding certificate fires on either of two conditions.  Tube: if
dist(0, [V_j, V_{j+1}]) > (h^2/8) D_2 + E on every arc, then |F - P| <
|P| on the circle for the polygon P through the V_j (parametrized linearly
on each arc), so F and P have the same winding, and P has no zero on the
circle.  The tube bound reads segmin, the least of these distances: on
[a, b], d = b - a, the perpendicular |Im(conj(a) d)| / |d| when its foot
falls strictly inside (Re(conj(a) d) < 0 < Re(conj(b) d)), else min(|a|,
|b|) >= gmin = min_j |V_j|.  Every V_j ends two arcs, so segmin = min(gmin,
the perpendiculars of the inside arcs).  Step: if D 2 pi rho / K + 2E <
gmin, then the disk of radius D rho h + 2E around each V_j excludes 0 and
holds the exact values on its arc and V_{j+1}.  Either way each segment
[V_j, V_{j+1}] misses 0, so the principal arguments of V_{j+1} / V_j sum
to 2 pi times the winding of F.  The direct estimator and the scalar
operations share this ladder, so every ZeroCertified row decided on the
r-circle carries its exact zero count; a direct row settled on the inner
circle (holes module docstring) carries a lower bound.
"""

from __future__ import annotations

import math

import numpy as np

from .gaf import evaluate_on_grid

K_INIT = 8   # the first level of every ladder, so every level is 8 2^k
K_CAP_DEFAULT = 1 << 20
# max coefficient values gathered, or grid values evaluated, per chunk of
# rows; it also bounds the row blocks of _circle_bounds
_CHUNK_ELEMS = 1 << 15
# max grid values per _arc_bounds chunk; every value ends two arcs, so
# segmin = min(gmin, perpendiculars of the arcs whose foot falls inside)
_ARC_ELEMS = 1 << 14
_GRID_ETA = 32 * 2.0 ** -53    # grid points lie within (eta/2) rho of exact
# Horner crossover: a level of P = 2^t points runs on the FFT when the degree
# is at least 2 t + _FFT_MIN_DEGREE (measured: Horner costs about N P, the
# FFT about P t plus overheads)
_FFT_MIN_DEGREE = 12


def _grid_points(rho: float, K: int) -> np.ndarray:
    """The K-point circle grid rho e^{2 pi i j / K}, each point within
    (_GRID_ETA / 2) rho of the exact one."""
    theta = np.arange(K) * (2.0 * np.pi / K)
    return rho * (np.cos(theta) + 1j * np.sin(theta))


def _ladder_levels(K_cap: int) -> list:
    """Grid sizes the ladder visits: K_INIT, doubling, up to >= K_cap."""
    Ks = [K_INIT]
    while Ks[-1] < K_cap:
        Ks.append(2 * Ks[-1])
    return Ks


def _row_slices(B: int, K: int, elems: int) -> list:
    """Slices of at most elems // K rows (at least one) covering B."""
    step = max(1, elems // K)
    return [slice(lo, lo + step) for lo in range(0, B, step)]


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53."""
    ku = k * 2.0 ** -53
    return ku / (1.0 - ku)


def _fft_level(n_coeffs: int, P: int) -> bool:
    """Whether a level of P = 2^t points (every ladder level, or its odd
    half) of degree n_coeffs - 1 runs the FFT."""
    return n_coeffs - 1 >= 2 * (P.bit_length() - 1) + _FFT_MIN_DEGREE


def _fft(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """y_j = sum_k x_k w_1^{jk} over each column of x, by a radix-2 Stockham
    FFT.

    x has P = 2^t rows, one column per transform, and is overwritten; w is
    the unit P-point grid.  Stage s joins pairs of length-m transforms
    (m = 2^s) by the Cooley-Tukey butterfly (a + w b, a - w b) with
    w = e^{2 pi i k / 2m} = w_{k P / 2m}; the autosort layout only permutes
    data between the stages and leaves the output in natural order.  The
    points-major layout makes the batch, not m (1, 2, 4, ... in the early
    stages), the inner loop of every butterfly.  Each output goes through
    the same butterflies as in a row-major transform, so it is bit for bit
    the same, and so is the error bound.
    """
    P, R = x.shape
    src, dst = x, np.empty_like(x)
    t = np.empty((P // 2, R), dtype=complex)
    m = 1
    while m < P:
        l = P // (2 * m)
        X, T = src.reshape(2, l, m, R), t.reshape(l, m, R)
        Y = dst.reshape(l, 2, m, R)
        # stage 0's twiddle is w_0 = 1 + 0j, whose product is exact
        T = np.multiply(X[1], w[0:P // 2:l, None], out=T) if m > 1 else X[1]
        np.add(X[0], T, out=Y[:, 0])
        np.subtract(X[0], T, out=Y[:, 1])
        src, dst = dst, src
        m *= 2
    return src


def _fft_values(C: np.ndarray, rho: float, u: np.ndarray, odd: bool):
    """(values, FFT error) of each row of C at the K exact grid points
    rho e^{2 pi i j / K}, or their K/2 odd ones; u is the unit K-point grid.

    The FFT error is t eta' / (1 - t eta') sqrt(P) ||x||_2 (1 + 2
    gamma_{P+2}) for the folded input x of P points (module docstring).
    x is folded points-major, shape (P, rows), for _fft, on odd levels with
    alternating signs and then twisted once by u_k; the values come back as
    its (rows, P) transpose view.  ||x||_2 is summed over a
    row-major copy of the squares: a sum down the columns of x would run
    pairwise for one row and in sequence for several, so E would depend
    on the chunking.
    """
    (B, n1), K = C.shape, u.shape[0]
    P = K // 2 if odd else K
    pw = np.cumprod(np.concatenate([[1.0], np.full(n1 - 1, rho)]))[:, None]
    x = np.zeros((P, B), dtype=complex)
    np.multiply(C.T[:P], pw[:P], out=x[:min(P, n1)])
    for j, lo in enumerate(range(P, n1, P), 1):  # b = c_n rho^n by slices
        b = np.multiply(C.T[lo:lo + P], pw[lo:lo + P], order="C")
        if odd and j % 2:   # w_K^{k + jP} = (-1)^j w_K^k
            x[:b.shape[0]] -= b
        else:
            x[:b.shape[0]] += b
    if odd:
        x *= u[:P, None]
    sq = x.real * x.real + x.imag * x.imag
    nrm = np.sqrt(np.ascontiguousarray(sq.T).sum(axis=1))
    t = P.bit_length() - 1
    eta = 0.5 * _GRID_ETA + _gamma(4) * (math.sqrt(2.0) + 0.5 * _GRID_ETA)
    c = t * eta / (1.0 - t * eta) * math.sqrt(P) * (1.0 + 2.0 * _gamma(P + 2))
    return _fft(x, u[::2] if odd else u).T, c * nrm


def _grid_chunks(C: np.ndarray, rho: float, K: int, odd: bool, bounds,
                 grids: dict, rows: np.ndarray):
    """Yield (chunk, values, E) of the level K (its K/2 odd points when
    odd) for the rows of C indexed by rows, chunk a slice of rows.

    Each chunk gathers its rows, C[rows[chunk]], at most _CHUNK_ELEMS
    coefficient values and at most _CHUNK_ELEMS grid values, or one row;
    the caller's C is never copied whole.  A level runs the FFT
    (_fft_level) or Horner.  bounds = (scale, g, Eg, Eh) of the indexed rows
    (_circle_bounds): E is Eh on Horner, Eg + scale (1 + g) (FFT error) on
    the FFT.  Every operation is elementwise per row, so nothing depends on
    the chunking.
    """
    scale, g, Eg, Eh = bounds
    P = K // 2 if odd else K
    fft = _fft_level(C.shape[1], P)
    r = 1.0 if fft else rho
    if (r, K) not in grids:
        grids[r, K] = _grid_points(r, K)
    z = grids[r, K][1::2] if odd else grids[r, K]
    for chunk in _row_slices(rows.size, max(P, C.shape[1]), _CHUNK_ELEMS):
        Cc = C[rows[chunk]]
        if fft:
            V, err = _fft_values(Cc, rho, grids[r, K], odd)
            yield chunk, V, Eg[chunk] + (scale * (1.0 + g)) * err
        else:
            yield chunk, evaluate_on_grid(Cc, z), Eh[chunk]


def _grid_max(C: np.ndarray, rho: float, K: int, odd: bool, bounds,
              grids: dict, rows=None):
    """(max of |F| over the level's points, E) of the rows of C indexed by
    rows, every row by default.  max is exact and keeps a NaN, so the
    result does not depend on the chunking."""
    rows = np.arange(C.shape[0]) if rows is None else rows
    gmax, E = np.empty(rows.size), np.empty(rows.size)
    for chunk, V, Ec in _grid_chunks(C, rho, K, odd, bounds, grids, rows):
        gmax[chunk] = np.abs(V).max(axis=1)
        E[chunk] = Ec
    return gmax, E


def _grid_values(C: np.ndarray, rho: float, K: int, odd: bool, bounds,
                 grids: dict, rows=None):
    """(values at the level's points -> (rows, points), E) of the rows of C
    indexed by rows, every row by default."""
    rows = np.arange(C.shape[0]) if rows is None else rows
    P = K // 2 if odd else K
    V, E = np.empty((rows.size, P), dtype=complex), np.empty(rows.size)
    for chunk, W, Ec in _grid_chunks(C, rho, K, odd, bounds, grids, rows):
        V[chunk] = W
        E[chunk] = Ec
    return V, E


def _arc_bounds(V: np.ndarray):
    """(gmin, segmin) per row (module docstring): min_j |V_j| and min(gmin,
    the perpendiculars of the arcs [V_j, V_{j+1}] whose foot falls strictly
    inside), the arcs cyclic.  A NaN value gives NaN through gmin.  Chunks
    of at most _ARC_ELEMS values (whole rows, or slices of one row's arcs)
    bound the temporaries; min is exact, so chunking changes nothing.
    """
    B, K = V.shape
    gmin, perp = np.full(B, np.inf), np.full(B, np.inf)
    pts = min(K, _ARC_ELEMS)
    for rows in _row_slices(B, K, _ARC_ELEMS):
        for p in range(0, K, pts):
            a = V[rows, p:p + pts]
            b = V[rows, np.arange(p + 1, p + a.shape[1] + 1) % K]
            gmin[rows] = np.minimum(gmin[rows], np.abs(a).min(axis=1))
            d = b - a
            s = a.real * d.real
            s += a.imag * d.imag
            inside = s < 0.0
            np.multiply(b.real, d.real, out=s)
            s += b.imag * d.imag
            inside &= s > 0.0
            np.multiply(a.real, d.imag, out=s)
            s -= a.imag * d.real
            np.abs(s, out=s)
            with np.errstate(divide="ignore", invalid="ignore"):
                s /= np.abs(d)
            perp[rows] = np.minimum(perp[rows],
                                    np.where(inside, s, np.inf).min(axis=1))
    return gmin, np.minimum(gmin, perp)


def _winding(V: np.ndarray) -> np.ndarray:
    """Winding number of the closed polygon through each row of V.

    Each step adds the principal argument of V_{j+1} / V_j; that is the
    argument swept along the segment whenever the segment misses 0.  The
    caller certifies the rows, so no value is zero or NaN.
    """
    wind = np.empty(V.shape[0], dtype=np.int64)
    for rows in _row_slices(*V.shape, _CHUNK_ELEMS):
        a = V[rows]
        turns = np.sum(np.angle(np.roll(a, -1, axis=1) / a), axis=1) / (2.0 * np.pi)
        wind[rows] = np.rint(turns).astype(np.int64)
    return wind


def _circle_bounds(C: np.ndarray, rho: float, shift: int = 0):
    """(g, scale, D, D_2, Eg, Eh) of T = z^shift * F on the rho-circle per row.

    scale = rho^shift, D = sum n |c_n| rho^{n-1} >= sup |T'| and D_2 =
    sum n^2 |c_n| rho^n >= sup |d^2 T / d theta^2|, both over the indices
    n of T; Eg = scale g sum |c_n| (rho (1 + eta))^n and Eh = Eg + D eta rho,
    the E of a Horner level (_grid_chunks), with g = _rounding_gamma(columns
    of C) (module docstring).  |C| and its weighted sums are formed in
    blocks of at most _CHUNK_ELEMS coefficients (or one row); each row's
    sums are its own, so the blocks change nothing.
    """
    B, n1 = C.shape
    n = np.arange(shift, shift + n1, dtype=np.float64)
    scale = rho ** shift
    g = _rounding_gamma(n1)
    w = (n * rho ** (n - 1.0), n * n * rho ** n, _moduli_weights(rho, n1))
    D, D2, S = np.empty((3, B))
    for rows in _row_slices(B, n1, _CHUNK_ELEMS):
        A = np.abs(C[rows])
        for out, wk in zip((D, D2, S), w):
            out[rows] = np.sum(A * wk, axis=1)
    Eg = (scale * g) * S
    return g, scale, D, D2, Eg, Eg + D * (_GRID_ETA * rho)


def _climb(C: np.ndarray, rho: float, shift: int, whole: bool, decide, *,
           K_cap: int):
    """(settle_K, grid points evaluated) of the ladder of T = z^shift * F
    over the rows of C (module docstring), keeping whole grids
    (_grid_values) or the running max of |F| (_grid_max).  The climb carries
    the indices of its open rows, never a copy of their coefficients: each
    level gathers its rows chunk by chunk (_grid_chunks), and C is not
    modified.  Above _CHUNK_ELEMS points whole-grid rows climb one at a
    time, so the kept values never exceed one row.  decide(K, rows, values
    or max, E, D, D_2, g, last) gets the open rows (indices into C), the
    largest E of their levels, D, D_2 and g of _circle_bounds and whether K
    is the cap level; it returns the mask of rows that leave.  settle_K is
    0 if open at the cap.
    """
    B = C.shape[0]
    g, scale, D, D2, Eg, Eh = _circle_bounds(C, rho, shift)
    Ks = _ladder_levels(K_cap)
    E, settle_K = np.full(B, -np.inf), np.zeros(B, dtype=np.int64)
    grids, points = {}, 0   # grid points by size, shared by every row
    level = _grid_values if whole else _grid_max
    kept = np.empty((B, 0), dtype=complex) if whole else np.full(B, -np.inf)
    groups = [(np.arange(B), kept, 0)]  # (open rows of C, kept, level)
    while groups:
        rows, X, j0 = groups.pop()
        for j, K in enumerate(Ks[j0:], j0):
            if whole and K > _CHUNK_ELEMS and rows.size > 1:
                groups += [(rows[i:i + 1], X[i:i + 1], j)
                           for i in range(rows.size)]
                break
            new, El = level(C, rho, K, j > 0, (scale, g, Eg[rows], Eh[rows]),
                            grids, rows)
            points += rows.size * (K // 2 if j else K)
            if whole and j:   # interleave with the kept even points
                new = np.stack([X, new], axis=2).reshape(rows.size, K)
            X = new if whole else np.maximum(X, new)
            E[rows] = Er = np.maximum(E[rows], El)
            out = decide(K, rows, X, Er, D[rows], D2[rows], g, K >= K_cap)
            settle_K[rows[out]] = K
            keep = np.flatnonzero(~out)
            if K >= K_cap or not keep.size:
                break
            rows, X = rows[keep], X[keep]
    return settle_K, points


def _settle_counts(settle_K: np.ndarray, Ks: list) -> np.ndarray:
    """[rows open at the cap, rows that left at Ks[0], Ks[1], ...]."""
    edges = np.array([0] + Ks, dtype=np.int64)
    return np.bincount(np.searchsorted(edges, settle_K), minlength=edges.size)


def _certify_rows(C: np.ndarray, rho: float, *, K_cap: int = K_CAP_DEFAULT,
                  tail: float = -np.inf):
    """Joint min-modulus / winding ladder over coefficient rows (_climb).

    Returns a dict of arrays over rows:
      mm_lb      best certified lower bound for min |F| on the circle
      mm_gm      grid minimum at the level of that bound
      mm_K       grid size at that level
      wind       certified winding number (valid where wind_ok)
      wind_ok    whether the winding certificate fired by K_cap
      wind_K     grid size at the winding certificate level (0 if none)
      hopeless   grid minimum fell to or below the tail bound
      tube       row settled where the first-order certificate alone
                 (lb_1 > tail and the step condition) does not hold
      settle_K   grid size at which the row left the ladder (0 if open)

    At grid size K, with gmin the grid minimum of |V| (V the computed
    values), segmin the minimum over arcs of dist(0, [V_j, V_{j+1}]), or
    min(gmin, the perpendiculars of the arcs whose foot falls strictly
    inside) since every value ends two arcs (module docstring),
    t = D pi rho / K, h = 2 pi / K, D_2 as in _circle_bounds and E the
    largest E of the levels whose values the row holds (_grid_chunks),

        lb_1 = gmin - (1 + g)(t + E),
        lb_2 = (1 - g) segmin - (1 + g)((h^2/8) D_2 + E),
        lb   = max(lb_1, lb_2).

    Each is a lower bound for min |F_N| on the circle (module docstring);
    the last subtraction rounds monotonically, so lb > t for a float t
    means the exact bound exceeds t.  The winding certificate fires once
    lb_2 > 0 (tube: F stays within (h^2/8) D_2 + E of the polygon through
    V, which misses 0) or the step condition 2 (1 + g)(t + E) < gmin holds.
    Either way the winding of the polygon through V is that of F, and it is
    computed from the kept V.

    One stop rule: a row exits once decided against the tail bound (lb
    above it with a certified winding) or hopeless (gmin at or below it,
    which refining can only confirm, since grid minima decrease toward the
    true minimum); the scalar operations use tail = -inf, so a row refines
    until its winding certificate fires.  Cap rule: at the cap level only
    decided rows leave; a row whose gmin falls to the tail there is not
    flagged hopeless and stays open (settle_K 0, the direct open_at_cap).
    """
    B = C.shape[0]
    mm_lb, mm_gm = np.full(B, -np.inf), np.zeros(B)
    mm_K, wind, wind_K = np.zeros((3, B), dtype=np.int64)
    wind_ok, hopeless, tube = np.zeros((3, B), dtype=bool)

    def decide(K, rows, V, E, D, D2, g, last):
        gmin, segmin = _arc_bounds(V)
        t1 = (1.0 + g) * (D * (np.pi * rho / K) + E)
        lb1 = gmin - t1
        t2 = (1.0 + g) * (D2 * (0.5 * (np.pi / K) ** 2) + E)
        lb2 = (1.0 - g) * segmin - t2
        lb = np.maximum(lb1, lb2)
        better = lb > mm_lb[rows]
        up = rows[better]
        mm_lb[up], mm_gm[up], mm_K[up] = lb[better], gmin[better], K
        step = 2.0 * t1 < gmin
        can = ~wind_ok[rows] & (step | (lb2 > 0.0))
        up = rows[can]
        wind[up], wind_ok[up], wind_K[up] = _winding(V[can]), True, K
        done = wind_ok[rows] & (mm_lb[rows] > tail)
        tube[rows[done & ~((lb1 > tail) & step)]] = True
        if last:
            return done
        hp = gmin <= tail
        hopeless[rows[hp]] = True
        return hp | done

    settle_K, _ = _climb(C, rho, 0, True, decide, K_cap=K_cap)
    return {"mm_lb": mm_lb, "mm_gm": mm_gm, "mm_K": mm_K, "wind": wind,
            "wind_ok": wind_ok, "wind_K": wind_K, "hopeless": hopeless,
            "tube": tube, "settle_K": settle_K}


def _rounding_gamma(n_coeffs: int) -> float:
    """g = gamma_{8(N+2)} for degree N = n_coeffs - 1 (module docstring)."""
    return _gamma(8 * (n_coeffs + 1))


def _moduli_weights(rho: float, n1: int) -> np.ndarray:
    """The weights (rho (1 + eta))^n, n < n1, each at least rho^n (module
    docstring), shared by the moduli screens and the E of _circle_bounds."""
    return (rho * (1.0 + _GRID_ETA)) ** np.arange(n1)


def _sup_counts(C: np.ndarray, rho: float, M: float, tail: float, *,
                K_cap: int, shift: int = 0):
    """Count rows of T = z^shift * F, F the polynomial of a row of C, whose
    certified sup over the rho-circle plus tail is below M.

    At grid size K, with gmax the computed grid max of |F|, a row is a hit
    when

        (1 + g) [scale gmax + min(D pi rho / K, (h^2/8) D_2) + E] + tail < M,

    h = 2 pi / K, scale = rho^shift = |z^shift| on the circle and D, D_2, g
    as in _circle_bounds.  The min is the first-order and the second-order
    (Peano kernel) bound on how far |T| rises between grid points, and E,
    the largest E of the levels visited (_grid_chunks), bounds the distance
    of every computed grid value of T from its exact value at its exact
    grid point (module docstring).  The factor 1 + g also covers the
    rounding of D, D_2, E, scale and the bound itself, and the strict <
    keeps the last rounding, the sum with tail, from turning a bound above
    M into a hit.

    The ladder (_climb, on the running grid max) lets a row leave at any
    level once the hit test or 'scale gmax > M' (definite miss: the grid
    max is a lower bound for the sup) holds; rows still open at K_cap,
    NaN rows among them, are inconclusive.  Only hits enter a lower bound,
    so the miss test carries no rounding term.

    Returns (hit, miss, inconclusive, tube hits, grid points evaluated,
    *settled): tube hits are the hits whose bound with the first-order term
    in place of the min is not below M, and settled[j] the rows decided at
    grid size _ladder_levels(K_cap)[j].
    """
    scale, n = rho ** shift, [0, 0, 0]   # hits, misses, tube hits

    def decide(K, rows, gmax, E, D, D2, g, last):
        smax = scale * gmax
        first = D * (np.pi * rho / K)
        tube = D2 * (0.5 * (np.pi / K) ** 2)
        h = (1.0 + g) * (smax + np.minimum(first, tube) + E) + tail < M
        m = smax > M
        n[0] += int(h.sum())
        n[1] += int((m & ~h).sum())
        n[2] += int((h & ~((1.0 + g) * (smax + first + E) + tail < M)).sum())
        return h | m

    settle_K, points = _climb(C, rho, shift, False, decide, K_cap=K_cap)
    inc, *settled = _settle_counts(settle_K, _ladder_levels(K_cap))
    return (n[0], n[1], int(inc), n[2], points, *map(int, settled))


__all__ = ["K_INIT", "K_CAP_DEFAULT"]
