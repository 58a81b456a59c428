"""Flat-torus geometry and periodic interpolation helpers.

Base coordinates live on the unit torus (period 1 per dimension).  Sampled
curves keep an unwrapped lift of the base coordinate so winding is explicit;
wrapping happens only at interfaces that need a fundamental-domain value.

Distances on T*T^1 come from one windowed search over the tiles q - 1, q,
q + 1 of a point set, sorted on q: candidates are the tiles whose first
coordinate lies within a bound of the query's, and a distance is the
square root of the squared differences summed in column order.  The
trimming's tube test, the Aubry/Mane assembly, `hausdorff` and `verify`
all use it.
"""

import numpy as np

WINDOW_PAD = 1e-9         # widening of a search window against rounding in q +- r
PAIR_BLOCK = 1 << 16      # candidate pairs the neighbour search holds at once
BISECT_MAX_ITERS = 70     # cap of PeriodicCubic.bisect; 2^-70 of a unit bracket


def wrap(q):
    """Reduce base coordinates to [0, 1); bit-identical to ``np.mod(q, 1.0)``.

    (Like ``np.mod``, a negative q within half an ulp of an integer gives 1.0.)

    For finite q both sides are one correctly rounded value of the same real
    number q - floor(q).  ``np.mod`` computes the exact ``fmod(q, 1)`` and,
    when that is negative, rounds its sum with 1 once; here floor(q) is
    exact and the subtraction rounds once.  For q >= 0 the difference is
    exact (Sterbenz), and a zero result is +0.0 on both sides, -0.0 and the
    negative integers included.  Subtracting the floor skips ``np.mod``'s
    division and sign fix-ups, which makes it several times faster.
    """
    q = np.asarray(q, dtype=float)
    return q - np.floor(q)


def median(x):
    """``np.median`` of the flattened x, bit for bit, by one partition.

    ``np.median`` checks its result for NaN through ``numpy.ma``, whose
    first import costs more than the partition; this reads the NaN, which
    the partition puts last, directly.
    """
    x = np.ravel(np.asarray(x, dtype=float))
    if x.size == 0:
        return np.float64(np.nan)
    k = x.size // 2
    middle = [k] if x.size % 2 else [k - 1, k]
    part = np.partition(x, middle + [x.size - 1])
    if np.isnan(part[-1]):
        return part[-1]
    return np.mean(part[middle[0]:k + 1])


def unwrap_closed(q):
    """Continuous lift of a sampled closed curve on the torus.

    ``q`` is a 1-d array of wrapped samples; consecutive jumps are resolved
    to the nearest integer shift.  Returns the lift and the winding number
    implied by the closure jump.
    """
    q = np.asarray(q, dtype=float)
    dq = np.diff(q)
    dq -= np.round(dq)
    lift = np.concatenate([[q[0]], q[0] + np.cumsum(dq)])
    closure = wrap(q[0] - lift[-1])
    # shortest closing jump, then total displacement fixes the winding
    closing = closure if closure <= 0.5 else closure - 1.0
    winding = int(np.round(lift[-1] + closing - q[0]))
    return lift, winding


def hermite_basis(u, derivative=False):
    """Cubic-Hermite basis (h00, h10, h01, h11) at local coordinates u in [0, 1],
    or its u-derivatives, whose h01 is the exact negation of h00."""
    if not derivative:
        return ((1 + 2 * u) * (1 - u) ** 2, u * (1 - u) ** 2,
                u * u * (3 - 2 * u), u * u * (u - 1))
    w, t = 1 - u, 3 * u
    d01 = 6 * u * w
    return -d01, w * (1 - t), d01, u * (t - 2)


class PeriodicCubic:
    """Periodic Catmull-Rom interpolant on a non-uniform closed grid.

    ``t`` are strictly increasing parameters in [0, 1), ``y`` the samples;
    closure wraps with period 1 in ``t`` and ``jump`` in ``y`` (so lifted
    curves with winding are supported).
    """

    def __init__(self, t, y, jump=0.0):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        if t.ndim != 1 or t.size < 4:
            raise ValueError("need at least 4 samples")
        self.t = t
        self.y = y
        self.jump = float(jump)
        # extended arrays: two ghost points each side
        self._te = np.concatenate([t[-2:] - 1.0, t, t[:2] + 1.0])
        self._ye = np.concatenate([y[-2:] - jump, y, y[:2] + jump])
        # finite-difference slopes at the extended nodes (3-pt, non-uniform)
        te, ye = self._te, self._ye
        dm = np.empty_like(te)
        dm[1:-1] = self._three_point_slope(te, ye)
        dm[0] = (ye[1] - ye[0]) / (te[1] - te[0])
        dm[-1] = (ye[-1] - ye[-2]) / (te[-1] - te[-2])
        self._me = dm

    @staticmethod
    def _three_point_slope(t, y):
        h0 = t[1:-1] - t[:-2]
        h1 = t[2:] - t[1:-1]
        return (y[2:] * h0 / h1 + y[1:-1] * (h1 / h0 - h0 / h1)
                - y[:-2] * h1 / h0) / (h0 + h1)

    def _reduce(self, s):
        return wrap(s - self.t[0]) + self.t[0]

    def _lookup(self, r):
        """The cells of reduced parameters r: start, end, end values and slopes."""
        k = np.clip(np.searchsorted(self._te, r, side="right") - 1, 0, self._te.size - 2)
        te, ye, me = self._te, self._ye, self._me
        return te[k], te[k + 1], ye[k], ye[k + 1], me[k], me[k + 1]

    def _cell(self, s, cells=None):
        """Each s's local coordinate u, width h, end values and slopes: read
        from ``cells`` (a ``_lookup``) where s lies inside them, else looked up."""
        r = self._reduce(s)
        if cells is None:
            cells = self._lookup(r)
        else:
            stray = (r < cells[0]) | ~(r < cells[1])
            if stray.any():
                cells = [np.where(stray, own, c) for own, c in zip(self._lookup(r), cells)]
        t0, t1, y0, y1, m0, m1 = cells
        h = t1 - t0
        return (r - t0) / h, h, y0, y1, m0, m1

    def __call__(self, s, cells=None):
        s = np.asarray(s, dtype=float)
        u, h, y0, y1, m0, m1 = self._cell(s, cells)
        h00, h10, h01, h11 = hermite_basis(u)
        val = h00 * y0 + h10 * h * m0 + h01 * y1 + h11 * h * m1
        return val + np.floor(s - self.t[0]) * self.jump

    def derivative(self, s, cells=None):
        u, h, y0, y1, m0, m1 = self._cell(np.asarray(s, dtype=float), cells)
        d00, d10, d01, d11 = hermite_basis(u, derivative=True)
        return d00 / h * y0 + d10 * m0 + d01 / h * y1 + d11 * m1

    def bisect(self, lo, hi, targets, derivative=False):
        """Bisection of self(t) = targets, or of the derivative's, on brackets
        [lo, hi] each inside one cell, which is looked up once.

        A bracket whose endpoint sits exactly on the target resolves to that
        endpoint, so a level at a knot value (a fold value included) lands on
        the knot.  Stopping once an iteration leaves every (lo, hi) unchanged,
        a fixed point, gives the result of all BISECT_MAX_ITERS iterations.
        """
        f = self.derivative if derivative else self
        lo = lo0 = np.array(lo, dtype=float)
        hi = hi0 = np.array(hi, dtype=float)
        flo = f(lo) - targets
        at_lo = flo == 0
        at_hi = (f(hi) - targets == 0) & ~at_lo
        cells = self._lookup(self._reduce(0.5 * (lo + hi)))
        for _ in range(BISECT_MAX_ITERS):
            mid = 0.5 * (lo + hi)
            fm = f(mid, cells) - targets
            left = (flo < 0) == (fm < 0)
            if np.all(mid == np.where(left, lo, hi)):
                break
            lo = np.where(left, mid, lo)
            flo = np.where(left, fm, flo)
            hi = np.where(left, hi, mid)
        out = 0.5 * (lo + hi)
        out[at_lo] = lo0[at_lo]
        out[at_hi] = hi0[at_hi]
        return out


def phase_tiles(points):
    """Phase points and their images at q + 1 and q - 1, sorted on q.

    Columns after the first are carried along unchanged.
    """
    tiles = np.vstack([np.column_stack([points[:, 0] + s, points[:, 1:]])
                       for s in (0.0, 1.0, -1.0)])
    return tiles[np.argsort(tiles[:, 0], kind="stable")]


def window_pairs(points, x, radius):
    """Pairs (rows, idx, d): each row of x with every sorted ``points`` row
    whose first coordinate is within ``radius`` of its own, at distance d
    over x's columns.  Yielded in blocks of at most PAIR_BLOCK pairs (one
    row at least), rows ascending.
    """
    keys = points[:, 0]
    pad = radius * (1.0 + WINDOW_PAD) + WINDOW_PAD
    lo = np.searchsorted(keys, x[:, 0] - pad, side="left")
    counts = np.searchsorted(keys, x[:, 0] + pad, side="right") - lo
    ends = np.cumsum(counts)
    start = 0
    while start < x.shape[0]:
        stop = max(int(np.searchsorted(ends, ends[start] - counts[start] + PAIR_BLOCK,
                                       side="right")), start + 1)
        c = counts[start:stop]
        firsts = np.cumsum(c) - c
        rows = np.repeat(np.arange(start, stop), c)
        idx = np.arange(rows.size) + np.repeat(lo[start:stop] - firsts, c)
        sq = np.zeros(rows.size)
        for col in range(x.shape[1]):
            d = x[:, col][rows] - points[:, col][idx]
            sq += d * d
        yield rows, idx, np.sqrt(sq)
        start = stop


def nearest_in_window(points, x, radius, skip=None):
    """Distance from each row of x to the nearest of the sorted ``points``
    whose first coordinate is within ``radius`` of its own (inf if none).

    ``skip`` names one point per row to leave out.
    """
    out = np.full(x.shape[0], np.inf)
    for rows, idx, d in window_pairs(points, x, radius):
        if skip is not None:
            d[idx == skip[rows]] = np.inf
        firsts = np.flatnonzero(np.diff(rows, prepend=-1))
        out[rows[firsts]] = np.minimum.reduceat(d, firsts)
    return out


def nearest(points, x, skip=None):
    """Distance from each row of x to the nearest of the sorted ``points``
    (inf if there are none).

    A row's window in q_1 grows fourfold from a few point spacings until the
    nearest point inside is within the window's half-width, which makes it
    the nearest of all, or until the window holds every point.
    """
    keys = points[:, 0]
    out = np.full(x.shape[0], np.inf)
    if keys.size == 0 or out.size == 0:
        return out
    reach = max(keys[-1] - np.min(x[:, 0]), np.max(x[:, 0]) - keys[0])
    radius = 8.0 * max(keys[-1] - keys[0], 1.0) / keys.size
    todo = np.arange(x.shape[0])
    while todo.size:
        d = nearest_in_window(points, x[todo], radius,
                              None if skip is None else skip[todo])
        done = (d <= radius) | (radius >= reach)
        out[todo[done]] = d[done]
        todo = todo[~done]
        radius *= 4.0
    return out


def spacing(points):
    """Distance from each point to its nearest other point (0 at a repeat)."""
    order = np.argsort(points[:, 0], kind="stable")
    pts = points[order]
    out = np.empty(pts.shape[0])
    out[order] = nearest(pts, pts, skip=np.arange(pts.shape[0]))
    return out


def hausdorff(a, b):
    """Hausdorff distance between (k, 2) sets of rows (q, p) in T*T^1, torus
    metric in q; rows of T*T^2 raise NotImplementedError.

    Two empty sets are 0.0 apart, an empty and a non-empty set inf.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[1] != 2 or b.shape[1] != 2:
        raise NotImplementedError("hausdorff works over T^1 only, not dim 2")
    return max(np.max(nearest(phase_tiles(b), a), initial=0.0),
               np.max(nearest(phase_tiles(a), b), initial=0.0))
