"""Wavefront analysis: fiber intersections, spectra and caustics.

All queries are pure functions of a sampled Lagrangian curve: roots are
bracketed on the interpolated lift between knots, the sample nodes and the
curve's folds (``ExactLagrangian.folds``, found once per curve), and refined
by bisection, each bracket in its one Hermite cell.  The front's
lower envelope is the graph selector (``selector.graph_selector``);
``dump_front`` writes every sheet with its Cerf-regularity flag.
"""

from dataclasses import dataclass

import numpy as np

from .torus import wrap

__all__ = [
    "FiberData",
    "CausticReport",
    "fiber_sweep",
    "caustics",
    "dump_front",
]

GAP_TOL = 1e-6
TRANSVERSE_TOL = 1e-5      # |dQ/dt| below this (x speed scale) flags tangency


@dataclass(frozen=True)
class FiberData:
    """All points of a Lagrangian over the cotangent fiber at q.

    Momenta and primitives come sorted by primitive value, so ``h`` is the
    fiber's spectrum.  ``transverse`` is False when a root meets the fiber
    at a tangency, as the fold root of a fiber over a caustic does.
    ``cerf_regular``: transverse, with primitive values separated by more
    than GAP_TOL.  ``fiber_sweep`` computes all fibers in one pass, but each
    depends only on its own q, not on the other queries of the batch.
    """

    q: float
    t: np.ndarray              # curve parameters, sorted by h
    p: np.ndarray
    h: np.ndarray              # anchored primitive values, ascending
    transverse: bool
    cerf_regular: bool

    def __len__(self):
        return self.t.size


@dataclass(frozen=True)
class CausticReport:
    t: np.ndarray               # fold parameters
    q: np.ndarray               # projected base points (wrapped)
    intervals: list             # (q_lo, q_hi, fiber multiplicity) between folds

    def __len__(self):
        return self.t.size


def fiber_sweep(L, q_values):
    """FiberData for many base points in one array pass.

    Every level q + k the lift can reach is tabulated, sorted.  The folds
    (``L.folds``) join the sample nodes as knots, so the lift is monotone on
    each knot interval; an interval takes the levels from its start value
    (included) to its end value (excluded), so each root is bracketed once
    and a level at a fold value lands on the fold.  All brackets are bisected together,
    and the interpolants and the primitive are evaluated once on all roots.
    Every step is elementwise or per query, so a query's fiber does not
    depend on the other queries of the batch.
    """
    q_values = np.atleast_1d(np.asarray(q_values, dtype=float))
    n = q_values.size
    fq, fp = L.interp_q, L.interp_p
    qmin, qmax = float(np.min(L.q)) - 1.0, float(np.max(L.q)) + 1.0
    # initial=0 only widens the k range, so an empty query list needs no guard
    k = np.arange(np.floor(qmin - q_values.max(initial=0.0)),
                  np.ceil(qmax - q_values.min(initial=0.0)) + 1)
    levels = (q_values[:, None] + k).ravel()
    order = np.argsort(levels)
    levels, owner = levels[order], order // k.size
    tf = L.folds
    at = np.searchsorted(L.t, tf, side="right")
    tk, Qk = np.insert(L.t, at, tf), np.insert(L.q, at, fq(tf))
    tc = np.append(tk, L.t[0] + 1.0)
    up = np.diff(np.append(Qk, L.q[0] + L.winding)) >= 0
    # the closing interval ends at the first knot, read in that knot's frame
    left, right = (np.append(np.searchsorted(levels, Qk, side=side),
                             np.searchsorted(levels - L.winding, Qk[0], side=side))
                   for side in ("left", "right"))
    first = np.where(up, left[:-1], right[1:])
    count = np.where(up, left[1:], right[:-1]) - first
    interval = np.repeat(np.arange(count.size), count)
    level = np.arange(interval.size) + np.repeat(first - np.cumsum(count) + count, count)
    t = wrap(fq.bisect(tc[interval], tc[interval + 1], levels[level]))
    own = owner[level]
    dq, dp = fq.derivative(t), fp.derivative(t)
    p = fp(t)
    h = np.atleast_1d(L.primitive_at(t))
    # angle of the curve tangent against the fiber direction; ~0 means tangency
    cosine = np.abs(dq) / np.maximum(np.hypot(dq, dp), 1e-300)
    transverse = np.bincount(own, weights=~(cosine > TRANSVERSE_TOL), minlength=n) == 0
    sizes = np.bincount(own, minlength=n)
    order = np.lexsort((t, h, own))
    t, p, h, own = t[order], p[order], h[order], own[order]
    close = (own[1:] == own[:-1]) & ~(np.diff(h) > GAP_TOL)
    cerf = transverse & (sizes > 0) & (np.bincount(own[1:][close], minlength=n) == 0)
    cuts = np.cumsum(sizes)[:-1]
    return [FiberData(q=float(qv), t=tj, p=pj, h=hj, transverse=bool(tr),
                      cerf_regular=bool(ce))
            for qv, tj, pj, hj, tr, ce in zip(
                q_values, np.split(t, cuts), np.split(p, cuts), np.split(h, cuts),
                transverse, cerf)]


def caustics(L):
    """Base projections of the fold points (critical values of projection).

    Folds are zeros of dQ/dt located by bisection on the interpolated
    derivative (``L.folds``, the knots ``fiber_sweep`` also cuts the lift
    at); ``t`` and ``q`` hold them sorted by q.  Consecutive caustic
    values cut the torus into intervals whose fiber multiplicity is reported.
    """
    t_fold = wrap(L.folds)
    if t_fold.size == 0:
        return CausticReport(t=np.empty(0), q=np.empty(0), intervals=[(0.0, 1.0, 1)])
    q_fold = wrap(L.interp_q(t_fold))
    order = np.argsort(q_fold)
    qs = q_fold[order]
    q_hi = np.append(qs[1:], qs[0] + 1.0)
    counts = [len(f) for f in fiber_sweep(L, wrap(0.5 * (qs + q_hi)))]
    return CausticReport(t=t_fold[order], q=qs,
                         intervals=list(zip(qs, wrap(q_hi), counts)))


def dump_front(L, q_grid, path):
    """Write rows `q sheet_index p h cerf_flag` for plotting."""
    fibers = fiber_sweep(L, q_grid)
    with open(path, "w") as fh:
        fh.write("# q sheet_index p h cerf_flag\n")
        for fd in fibers:
            for i in range(len(fd)):
                fh.write(f"{fd.q:.12g} {i} {fd.p[i]:.12g} {fd.h[i]:.12g} "
                         f"{int(fd.cerf_regular)}\n")
