"""Flat-torus geometry and periodic interpolation helpers.

Base coordinates live on the unit torus (period 1 per dimension).  Sampled
curves keep an unwrapped lift of the base coordinate so winding is explicit;
wrapping happens only at interfaces that need a fundamental-domain value.
"""

import numpy as np


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


def hermite_basis(u):
    """Cubic-Hermite basis (h00, h10, h01, h11) at local coordinates u in [0, 1]."""
    return ((1 + 2 * u) * (1 - u) ** 2, u * (1 - u) ** 2,
            u * u * (3 - 2 * u), u * u * (u - 1))


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

    def _locate(self, s):
        s = wrap(np.asarray(s, dtype=float) - self.t[0]) + self.t[0]
        k = np.searchsorted(self._te, s, side="right") - 1
        k = np.clip(k, 0, self._te.size - 2)
        return s, k

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        wind = np.floor(s - self.t[0])
        sm, k = self._locate(s)
        t0, t1 = self._te[k], self._te[k + 1]
        y0, y1 = self._ye[k], self._ye[k + 1]
        m0, m1 = self._me[k], self._me[k + 1]
        h = t1 - t0
        h00, h10, h01, h11 = hermite_basis((sm - t0) / h)
        val = h00 * y0 + h10 * h * m0 + h01 * y1 + h11 * h * m1
        return val + wind * self.jump

    def derivative(self, s):
        sm, k = self._locate(s)
        t0, t1 = self._te[k], self._te[k + 1]
        y0, y1 = self._ye[k], self._ye[k + 1]
        m0, m1 = self._me[k], self._me[k + 1]
        h = t1 - t0
        u = (sm - t0) / h
        d00 = 6 * u * (u - 1) / h
        d10 = (1 - u) * (1 - 3 * u)
        d01 = -d00
        d11 = u * (3 * u - 2)
        return d00 * y0 + d10 * m0 + d01 * y1 + d11 * m1


def hausdorff(a, b):
    """Hausdorff distance between (k, 2) sets of rows (q, p) in T*T^1, torus
    metric in q; rows of T*T^2 raise NotImplementedError."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        return np.inf
    if a.shape[1] != 2 or b.shape[1] != 2:
        raise NotImplementedError("hausdorff works over T^1 only, not dim 2")

    def one_sided(x, y):
        dq = np.abs(x[:, None, 0] - y[None, :, 0])
        dq = np.minimum(dq, 1.0 - dq)
        dp = x[:, None, 1] - y[None, :, 1]
        return np.max(np.min(np.sqrt(dq * dq + dp * dp), axis=1))

    return max(one_sided(a, b), one_sided(b, a))
