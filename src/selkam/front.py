"""Wavefront analysis: fiber intersections, spectra and caustics.

All queries are pure functions of a sampled dim-1 Lagrangian: roots are
bracketed on the interpolated lift and refined by bisection.  The front's
lower envelope is the graph selector (``selector.graph_selector``);
``dump_front`` writes every sheet with its Cerf-regularity flag.  Dim 2
raises NotImplementedError.
"""

from dataclasses import dataclass

import numpy as np

from .torus import median, wrap

__all__ = [
    "FiberData",
    "CausticReport",
    "fiber_sweep",
    "caustics",
    "dump_front",
]

GAP_TOL = 1e-6
MERGE_TOL = 1e-9           # parameter-space dedupe radius for roots
TRANSVERSE_TOL = 1e-5      # |dQ/dt| below this (x speed scale) flags tangency
CUSP_TOL = 1e-3


@dataclass
class FiberData:
    """All points of a Lagrangian over the cotangent fiber at q.

    Momenta and primitives come sorted by primitive value, so ``h`` is the
    fiber's spectrum.  ``transverse`` is False when a found root meets the
    fiber at a tangency; a double root with no sign change, as at a fold
    value, is not found.  Multiplicity is certified stable when
    re-detection at MERGE_TOL/2 finds the same count.  ``cerf_regular``:
    transverse, with primitive values separated by more than GAP_TOL.
    """

    q: float
    t: np.ndarray              # curve parameters, sorted by h
    p: np.ndarray
    h: np.ndarray              # anchored primitive values, ascending
    transverse: bool
    cerf_regular: bool
    multiplicity_stable: bool

    def __len__(self):
        return self.t.size


@dataclass
class CausticReport:
    t: np.ndarray               # fold parameters
    q: np.ndarray               # projected base points (wrapped)
    curvature: np.ndarray       # d2Q/dt2 at the fold
    kinds: list                 # "fold" | "cusp"
    intervals: list             # (q_lo, q_hi, fiber multiplicity) between folds

    def __len__(self):
        return self.t.size


def _bisect_batch(fq, lo, hi, targets):
    """Vectorized bisection of fq(t) = target on bracketing intervals.

    Brackets whose endpoint sits exactly on the target resolve to that
    endpoint (closing intervals can land there after float rounding).
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    lo0 = lo.copy()
    hi0 = hi.copy()
    flo = fq(lo) - targets
    at_lo = flo == 0
    at_hi = (fq(hi) - targets == 0) & ~at_lo
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        fm = fq(mid) - targets
        left = (flo < 0) == (fm < 0)
        lo = np.where(left, mid, lo)
        flo = np.where(left, fm, flo)
        hi = np.where(left, hi, mid)
    out = 0.5 * (lo + hi)
    out[at_lo] = lo0[at_lo]
    out[at_hi] = hi0[at_hi]
    return out


def _brackets_for_level(L, level):
    """Sample intervals of the lift crossing (or touching) the given level."""
    Qc = np.append(L.q, L.q[0] + L.winding)
    tc = np.append(L.t, L.t[0] + 1.0)
    d = Qc - level
    hit = (d[:-1] * d[1:] < 0) | (d[:-1] == 0) | (d[1:] == 0)
    return tc, Qc, np.nonzero(hit)[0]


def fiber_sweep(L, q_values):
    """FiberData for many base points at once (shared vectorized refine)."""
    if L.dim != 1:
        raise NotImplementedError("fiber_sweep works over T^1 only, not dim 2")
    q_values = np.atleast_1d(np.asarray(q_values, dtype=float))
    fq = L.interp_q()
    qmin, qmax = float(np.min(L.q)) - 1.0, float(np.max(L.q)) + 1.0
    all_lo, all_hi, all_tg, owner = [], [], [], []
    for idx, qv in enumerate(q_values):
        for k in range(int(np.floor(qmin - qv)), int(np.ceil(qmax - qv)) + 1):
            level = qv + k
            tc, Qc, hits = _brackets_for_level(L, level)
            if hits.size:
                all_lo.append(tc[hits])
                all_hi.append(tc[hits + 1])
                all_tg.append(np.full(hits.size, level))
                owner.append(np.full(hits.size, idx))
    if all_lo:
        lo = np.concatenate(all_lo)
        hi = np.concatenate(all_hi)
        tg = np.concatenate(all_tg)
        own = np.concatenate(owner)
        roots = _bisect_batch(fq, lo, hi, tg)
    else:
        roots = np.empty(0)
        own = np.empty(0, dtype=int)
    out = []
    for idx, qv in enumerate(q_values):
        r = roots[own == idx]
        out.append(_assemble_fiber(L, qv, np.sort(wrap(r))))
    return out


def _assemble_fiber(L, qv, roots):
    def dedupe(rr, tol):
        if rr.size == 0:
            return rr
        keep = [rr[0]]
        for x in rr[1:]:
            if x - keep[-1] > tol:
                keep.append(x)
        # closing wrap
        if len(keep) > 1 and (keep[0] + 1.0 - keep[-1]) <= tol:
            keep.pop()
        return np.asarray(keep)

    r1 = dedupe(roots, MERGE_TOL)
    r2 = dedupe(roots, MERGE_TOL / 2)
    stable = r1.size == r2.size
    fq, fp = L.interp_q(), L.interp_p()
    if r1.size == 0:
        return FiberData(q=float(qv), t=r1, p=r1.copy(), h=r1.copy(),
                         transverse=True, cerf_regular=False,
                         multiplicity_stable=stable)
    dq = fq.derivative(r1)
    dp = fp.derivative(r1)
    p = fp(r1)
    h = np.atleast_1d(L.primitive_at(r1))
    # angle of the curve tangent against the fiber direction; ~0 means tangency
    cosine = np.abs(dq) / np.maximum(np.hypot(dq, dp), 1e-300)
    transverse = bool(np.all(cosine > TRANSVERSE_TOL))
    order = np.argsort(h)
    h = h[order]
    gaps = np.diff(h)
    cerf = transverse and (gaps.size == 0 or bool(np.min(gaps) > GAP_TOL))
    return FiberData(q=float(qv), t=r1[order], p=p[order], h=h,
                     transverse=transverse, cerf_regular=cerf,
                     multiplicity_stable=stable)


def caustics(L):
    """Base projections of the fold points (critical values of projection).

    Folds are zeros of dQ/dt located by bisection on the interpolated
    derivative; a vanishing second derivative flags a degenerate (cusp)
    point.  Consecutive caustic values cut the torus into intervals whose
    fiber multiplicity is reported.
    """
    if L.dim != 1:
        raise NotImplementedError("caustics works over T^1 only, not dim 2")
    fq = L.interp_q()
    tc = np.append(L.t, L.t[0] + 1.0)
    dq = fq.derivative(tc)
    hits = np.nonzero(dq[:-1] * dq[1:] < 0)[0]
    if hits.size == 0:
        return CausticReport(t=np.empty(0), q=np.empty(0), curvature=np.empty(0),
                             kinds=[], intervals=[(0.0, 1.0, 1)])
    t_fold = wrap(_bisect_batch(fq.derivative, tc[hits], tc[hits + 1], 0.0))
    q_fold = wrap(fq(t_fold))
    eps = 1e-6
    curv = (fq.derivative(t_fold + eps) - fq.derivative(t_fold - eps)) / (2 * eps)
    # degenerate folds are judged against the fold population's own scale
    scale = max(float(median(np.abs(curv))), 1e-12)
    kinds = ["cusp" if abs(c) < CUSP_TOL * scale else "fold" for c in curv]
    order = np.argsort(q_fold)
    qs = q_fold[order]
    intervals = []
    mids = []
    for i in range(qs.size):
        q_lo = qs[i]
        q_hi = qs[(i + 1) % qs.size] + (1.0 if i == qs.size - 1 else 0.0)
        mids.append(wrap(0.5 * (q_lo + q_hi)))
        intervals.append([q_lo, wrap(q_hi)])
    counts = [len(f) for f in fiber_sweep(L, mids)]
    intervals = [(a, b, c) for (a, b), c in zip(intervals, counts)]
    return CausticReport(t=t_fold[order], q=qs, curvature=curv[order],
                         kinds=[kinds[i] for i in order], intervals=intervals)


def dump_front(L, q_grid, path):
    """Write rows `q sheet_index p h cerf_flag` for plotting."""
    fibers = fiber_sweep(L, q_grid)
    with open(path, "w") as fh:
        fh.write("# q sheet_index p h cerf_flag\n")
        for fd in fibers:
            for i in range(len(fd)):
                fh.write(f"{fd.q:.12g} {i} {fd.p[i]:.12g} {fd.h[i]:.12g} "
                         f"{int(fd.cerf_regular)}\n")
