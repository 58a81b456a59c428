"""Wavefront analysis: fiber intersections, spectra, caustics, sheets.

All queries are pure functions of a sampled Lagrangian.  Dim-1 curves get
the full treatment (root bracketing on the interpolated lift, bisection
refinement, sheet tracking); dim-2 graphs have single-point fibers and an
empty caustic by construction.
"""

from dataclasses import dataclass

import numpy as np

from .torus import median, wrap

__all__ = [
    "FiberData",
    "CausticReport",
    "SheetChart",
    "fiber_intersections",
    "fiber_sweep",
    "spectrum",
    "caustics",
    "cerf_regular",
    "sheet_decomposition",
    "dump_front",
]

GAP_TOL = 1e-6
MERGE_TOL = 1e-9           # parameter-space dedupe radius for roots
TRANSVERSE_TOL = 1e-5      # |dQ/dt| below this (x speed scale) flags tangency
DEGENERATE_TOL = 1e-10
CUSP_TOL = 1e-3
CAUSTIC_TOL = 1e-8         # base-point distance at which a query sits on the caustic


@dataclass
class FiberData:
    """Intersections of a Lagrangian with one cotangent fiber."""

    q: float
    t: np.ndarray              # curve parameters, sorted by h
    p: np.ndarray
    h: np.ndarray              # anchored primitive values, ascending
    transverse: bool
    cerf_regular: bool
    multiplicity_stable: bool
    uncertainty: np.ndarray

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


@dataclass
class SheetChart:
    """Graph decomposition of the front over a caustic-free base interval."""

    q_grid: np.ndarray
    t: np.ndarray               # (k, m) tracked parameters
    phi: np.ndarray             # (k, m) momenta per sheet
    h: np.ndarray               # (k, m) primitive values per sheet
    crossings: list             # (i, j, q_star, h_star)
    identity_residual: float    # max |d(delta_ij) - (phi_i - phi_j)|

    @property
    def n_sheets(self):
        return self.phi.shape[0]


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
    q_values = np.atleast_1d(np.asarray(q_values, dtype=float))
    if L.dim == 2:
        return [_fiber_grid(L, qv) for qv in q_values]
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
                         multiplicity_stable=stable, uncertainty=r1.copy())
    dq = fq.derivative(r1)
    dp = fp.derivative(r1)
    p = fp(r1)
    h = np.atleast_1d(L.primitive_at(r1))
    # angle of the curve tangent against the fiber direction; ~0 means tangency
    cosine = np.abs(dq) / np.maximum(np.hypot(dq, dp), 1e-300)
    transverse = bool(np.all(cosine > TRANSVERSE_TOL))
    unc = 1e-12 / np.maximum(cosine, 1e-12)
    order = np.argsort(h)
    h = h[order]
    gaps = np.diff(h)
    cerf = transverse and (gaps.size == 0 or bool(np.min(gaps) > GAP_TOL))
    return FiberData(q=float(qv), t=r1[order], p=p[order], h=h,
                     transverse=transverse, cerf_regular=cerf,
                     multiplicity_stable=stable, uncertainty=unc[order])


def _fiber_grid(L, qv):
    v = L.meta["v_samples"]
    n1, n2 = v.shape
    k1 = np.fft.fftfreq(n1, d=1.0 / n1)
    k2 = np.fft.fftfreq(n2, d=1.0 / n2)
    vh = np.fft.fft2(v) / (n1 * n2)
    ph = np.exp(2j * np.pi * (qv[0] * k1[:, None] + qv[1] * k2[None, :]))
    val = float(np.real(np.sum(ph * vh)))
    g1 = float(np.real(np.sum(ph * vh * (2j * np.pi * k1)[:, None])))
    g2 = float(np.real(np.sum(ph * vh * (2j * np.pi * k2)[None, :])))
    return FiberData(q=np.asarray(qv, dtype=float), t=np.zeros(1),
                     p=np.array([[g1, g2]]), h=np.array([val - v[0, 0]]),
                     transverse=True, cerf_regular=True,
                     multiplicity_stable=True, uncertainty=np.zeros(1))


def fiber_intersections(L, q):
    """All points of L over the fiber at q, with momenta and primitives.

    Tangential intersections are reported with ``transverse = False`` and a
    widened uncertainty rather than dropped; multiplicity is certified
    stable when re-detection at MERGE_TOL/2 finds the same count.
    """
    return fiber_sweep(L, [q])[0]


def spectrum(L, q):
    """Sorted primitive values over the fiber at q."""
    return fiber_intersections(L, q).h


def caustics(L):
    """Base projections of the fold points (critical values of projection).

    Folds are zeros of dQ/dt located by bisection on the interpolated
    derivative; a vanishing second derivative flags a degenerate (cusp)
    point.  Consecutive caustic values cut the torus into intervals whose
    fiber multiplicity is reported.
    """
    if L.dim == 2:
        return CausticReport(t=np.empty(0), q=np.empty(0), curvature=np.empty(0),
                             kinds=[], intervals=[(0.0, 1.0, 1)])
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


def cerf_regular(L, q, gap_tol=GAP_TOL):
    """True iff the fiber's primitive values are separated by > gap_tol.

    Raises for base points on (or numerically at) the caustic, where the
    query is not defined.
    """
    caustic_q = caustics(L).q
    if len(caustic_q):
        d = np.abs(caustic_q - q)
        if np.min(np.minimum(d, 1.0 - d)) <= CAUSTIC_TOL:
            raise ValueError(f"base point {q} is not in the regular set (caustic)")
    fd = fiber_intersections(L, q)
    if not fd.transverse:
        raise ValueError(f"base point {q} is not in the regular set (caustic)")
    if len(fd) <= 1:
        return True
    return bool(np.min(np.diff(fd.h)) > gap_tol)


def sheet_decomposition(L, interval, n_grid=257):
    """Track the front's sheets over a caustic-free base interval.

    Sheets are continued in q by Newton steps on the interpolated lift;
    crossings of the pairwise primitive differences delta_ij are located by
    bisection, and the identity d(delta_ij) = phi_i - phi_j is checked by
    centered differences on the tracking grid.
    """
    q_lo, q_hi = float(interval[0]), float(interval[1])
    if q_hi <= q_lo:
        q_hi += 1.0
    grid = np.linspace(q_lo, q_hi, n_grid)
    fibers = fiber_sweep(L, wrap(grid))
    counts = np.array([len(f) for f in fibers])
    if counts[0] == 0:
        raise ValueError("empty fiber at the interval start")
    if np.any(counts != counts[0]):
        bad = grid[np.argmax(counts != counts[0])]
        raise ValueError(f"interval contains a caustic value near q = {wrap(bad):.6g}")
    k = int(counts[0])
    T = np.empty((k, n_grid))
    order0 = np.argsort(fibers[0].t)
    T[:, 0] = fibers[0].t[order0]
    for j in range(1, n_grid):
        T[:, j] = _match_sheets(L, T[:, j - 1], grid[j - 1], grid[j], fibers[j].t)
    fp = L.interp_p()
    phi = fp(T)
    h = np.vstack([np.atleast_1d(L.primitive_at(T[i])) for i in range(k)])

    crossings = []
    worst_identity = 0.0
    dq_grid = grid[1] - grid[0]
    for i in range(k):
        for j in range(i + 1, k):
            delta = h[i] - h[j]
            if np.max(np.abs(delta)) < DEGENERATE_TOL:
                raise ValueError(
                    f"degenerate front: sheets {i} and {j} carry identical primitives")
            # identity from the primitive structure of the front
            ddelta = np.gradient(delta, dq_grid)
            worst_identity = max(worst_identity, float(
                np.max(np.abs(ddelta[1:-1] - (phi[i] - phi[j])[1:-1]))))
            sign_flips = np.nonzero(delta[:-1] * delta[1:] < 0)[0]
            for s in sign_flips:
                a, b = grid[s], grid[s + 1]
                ta, tb = T[i, s], T[j, s]
                da = float(delta[s])
                for _ in range(60):
                    m = 0.5 * (a + b)
                    roots = fiber_sweep(L, [wrap(m)])[0].t
                    tm_i = _nearest_root(roots, ta)
                    tm_j = _nearest_root(roots, tb)
                    dm = float(L.primitive_at(tm_i) - L.primitive_at(tm_j))
                    if (dm < 0) == (da < 0):
                        a, ta, tb, da = m, tm_i, tm_j, dm
                    else:
                        b = m
                q_star = 0.5 * (a + b)
                crossings.append((i, j, float(wrap(q_star)),
                                  float(L.primitive_at(ta))))
    return SheetChart(q_grid=grid, t=T, phi=phi, h=h, crossings=crossings,
                      identity_residual=worst_identity)


def _nearest_root(candidates, t_ref):
    d = np.abs(candidates - t_ref)
    d = np.minimum(d, 1.0 - d)
    return float(candidates[np.argmin(d)])


def _match_sheets(L, t_prev, q_prev, q_new, candidates, depth=0):
    """Continue sheet parameters to the next base point by proximity.

    Candidate roots at q_new are assigned to the previous parameters by
    nearest circular distance; if the assignment is ambiguous the base step
    is bisected (fresh fiber solve at the midpoint) up to a depth limit.
    """
    k = t_prev.size
    if candidates.size != k:
        raise ValueError(f"interval contains a caustic value near q = {wrap(q_new):.6g}")
    d = np.abs(candidates[None, :] - t_prev[:, None])
    d = np.minimum(d, 1.0 - d)
    choice = np.argmin(d, axis=1)
    ambiguous = len(set(choice.tolist())) != k
    if not ambiguous and k > 1:
        # a safe match must be clearly closer to its sheet than to any other
        best = d[np.arange(k), choice]
        d_masked = d.copy()
        d_masked[np.arange(k), choice] = np.inf
        ambiguous = bool(np.any(best > 0.5 * np.min(d_masked, axis=1)))
    if ambiguous:
        if depth >= 14:
            raise RuntimeError(f"sheet tracking ambiguity near q = {wrap(q_new):.6g}")
        mid = 0.5 * (q_prev + q_new)
        t_mid = _match_sheets(L, t_prev, q_prev, mid,
                              fiber_sweep(L, [wrap(mid)])[0].t, depth + 1)
        return _match_sheets(L, t_mid, mid, q_new, candidates, depth + 1)
    return candidates[choice]


def dump_front(L, q_grid, path):
    """Write rows `q sheet_index p h cerf_flag` for plotting."""
    fibers = fiber_sweep(L, q_grid)
    with open(path, "w") as fh:
        fh.write("# q sheet_index p h cerf_flag\n")
        for fd in fibers:
            for i in range(len(fd)):
                fh.write(f"{fd.q:.12g} {i} {fd.p[i]:.12g} {fd.h[i]:.12g} "
                         f"{int(fd.cerf_regular)}\n")
