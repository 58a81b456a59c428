"""Weak-KAM solver: Lax-Oleinik iteration, critical value, Aubry/Mane sets.

The descending operator

    (T u)(q) = min_{q'} [ u(q') + dt * l((q - q')/dt, q) ]

with l the fiberwise Legendre transform of H drives grid functions to the
critical solution up to a linear drift; the drift rate is the critical
value.  For a mechanical H the potential part of dt * l is charged by the
trapezoid rule, dt * (V(q') + V(q)) / 2, so u is second order in dt.  The
ascending operator runs the reversed cost.  Aubry and Mane sets are
assembled from maximal invariant sets of the graphs of the computed family
of critical subsolutions (an outer approximation: any finite run samples
finitely many subsolutions, which every report notes).
"""

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .torus import nearest, phase_tiles, window_pairs, wrap

__all__ = [
    "WeakKamSolution",
    "StalledIteration",
    "legendre_table",
    "lax_oleinik_step",
    "critical_value",
    "critical_value_infmax",
    "subsolution_check",
    "weak_kam_family",
    "smooth_subsolution",
]

FP_TOL = 1e-10
LO_MAX_ITERS = 4000       # Lax-Oleinik steps critical_value allows to reach FP_TOL
NUM_TOL = 1e-3
DT_MAX = 0.5              # largest Lax-Oleinik time step
STACK_BLOCK = 1 << 16     # elements per row block of a table step, all summed into one buffer
# elements per row block of a Legendre table solve: 128 KiB, so that a block's temporaries
# reuse freed heap memory and malloc maps no fresh pages for them
SOLVE_BLOCK = 1 << 14


def legendre_table(H, velocities, q_grid):
    """Fiberwise Legendre transform l(v, q) tabulated on q_grid x velocities.

    The supremum over p is found by a safeguarded Newton iteration on
    H_p(q, p) = v, one per (base, velocity) pair.  P, the one table-sized
    array, is stepped in place and then overwritten by l in row blocks of
    SOLVE_BLOCK elements; the stop test is global, so the floats are a
    whole-table solve's.
    """
    V = np.asarray(velocities, dtype=float)[None, :]
    Q = np.asarray(q_grid, dtype=float)[:, None]
    P = np.repeat(V, Q.shape[0], axis=0)        # mechanical-like initial guess
    blocks = _row_blocks(*P.shape, SOLVE_BLOCK)
    for _ in range(80):
        gmax = []
        for b in blocks:
            g = H.grad_p(Q[b], P[b]) - V
            gmax.append(np.max(np.abs(g)))
            g /= np.maximum(H.hess_pp(Q[b], P[b])[..., 0, 0], 1e-9)
            P[b] -= np.clip(g, -1.0, 1.0, out=g)
        if np.max(gmax) < 1e-12:
            break
    else:
        resid = float(np.max([np.max(np.abs(H.grad_p(Q[b], P[b]) - V)) for b in blocks]))
        if resid > 1e-8:
            raise RuntimeError(
                f"Legendre transform did not converge (residual {resid:.2e}); "
                "is the Hamiltonian fiberwise convex?")
    for b in blocks:
        P[b] = P[b] * V - H.value(Q[b], P[b])
    return P


def _velocity_bound(H):
    """Speed bound for descent minimizers from the Hamiltonian's slope."""
    q = np.linspace(0.0, 1.0, 64, endpoint=False)
    if H.dim == 1 and not H.is_mechanical:
        p = np.linspace(-4, 4, 33)
        return float(np.max(np.abs(H.grad_p(*np.meshgrid(q, p, indexing="ij")))) + 1.5)
    Vg = H.potential(q if H.dim == 1 else np.stack(np.meshgrid(q, q, indexing="ij"), axis=-1))
    return float(np.sqrt(2.0 * max(Vg.max() - Vg.min(), 0.0) + 1.0) + 1.5)


def lax_oleinik_step(u, H, dt, direction="descending", v_max=None, table=None):
    """One Lax-Oleinik step on a periodic grid function.

    Mechanical H (dim 1 or 2): per-axis quadratic passes (``_argmin_quadratic``)
    between two halves of the potential term (the trapezoid rule).  Other H,
    dim 1 only: per row block of STACK_BLOCK elements, windows of u plus the
    table's rows into one buffer, then min (max) along each row (exact, so
    bit-identical to the whole stack); l is Monge only
    where l_vv / dt + l_vq >= 0 (p^2/2 + 2 sin(2 pi q) p + 0.5 cos(2 pi q), grid
    1024, dt 0.1: mixed differences up to +2.4e-6).  ``table`` is
    ``_grid_table(H, u.shape, dt, v_max)``, or refused.
    """
    u = np.asarray(u, dtype=float)
    if direction not in ("descending", "ascending"):
        raise ValueError(f"direction must be 'descending' or 'ascending', not {direction!r}")
    sign = 1.0 if direction == "descending" else -1.0
    if not 0 < dt <= DT_MAX:
        raise ValueError(f"dt must lie in (0, {DT_MAX}]")
    v_max = _velocity_bound(H) if v_max is None else v_max
    if not v_max > 0:
        raise ValueError(f"v_max must be positive, not {v_max!r}")
    if table is None:
        table = _grid_table(H, u.shape, dt, v_max)
    shifts = None if H.is_mechanical else _shifts(u.size, v_max, dt)
    want = u.shape if shifts is None else (u.size, shifts.size)
    if np.shape(table) != want:
        raise ValueError(f"table has shape {np.shape(table)}; this step needs {want}")
    if H.is_mechanical:
        return _lo_step_mechanical(u, dt, sign, v_max, table)
    # descending: min over k of u(q - k h) + dt*l(k h / dt, q); ascending: max of u(q + k h) - dt*l
    pick, op = (np.min, np.add) if sign > 0 else (np.max, np.subtract)
    (n, width), K = want, shifts[-1]
    # row q's candidates u(q -+ k h), k = -K..K, are one window of u tiled three
    # times; the descending step reads reversed u, from its end
    if sign > 0:
        windows = sliding_window_view(np.tile(u[::-1], 3), width)[2 * n - 1 - K::-1]
    else:
        windows = sliding_window_view(np.tile(u, 3), width)[n - K:]
    blocks = _row_blocks(*want, STACK_BLOCK)
    out, buf = np.empty(n), np.empty((blocks[0].stop, width))
    for b in blocks:
        pick(op(windows[b], table[b], out=buf[:b.stop - b.start]), axis=1, out=out[b])
    return out


def _row_blocks(rows, n, budget):
    """Slices of max(1, budget // n) rows, the last one ragged, covering rows x n."""
    step = max(1, budget // n)
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def _shifts(n, v_max, dt):
    """Grid shifts k of an n-point circle with |k| / n <= v_max dt, at most n // 2."""
    h = 1.0 / n
    K = min(int(np.ceil(v_max * dt / h)), n // 2)
    return np.arange(-K, K + 1)


def _grid_table(H, shape, dt, v_max):
    """The table a step of size dt adds on a periodic grid of the given shape.

    dt * V on the grid for a mechanical H; the cost table dt * l for other
    H, dim 1 only, n x (2K + 1): row q holds dt * l(k h / dt, q), k = -K..K.
    Scaled once here, in place, so neither the build nor a step allocates a
    second table-sized array.
    """
    axes = [np.arange(n) / n for n in shape]
    if H.is_mechanical:
        grids = np.meshgrid(*axes, indexing="ij")
        return dt * H.potential(grids[0] if len(shape) == 1 else np.stack(grids, axis=-1))
    if len(shape) != 1:
        raise NotImplementedError("dim-2 steps need a mechanical Hamiltonian")
    n = shape[0]
    table = legendre_table(H, _shifts(n, v_max, dt) * (1.0 / n) / dt, axes[0])
    table *= dt
    return table


def _lo_step_mechanical(u, dt, sign, v_max, table):
    """Per axis, the stack's u + sign * c at the leftmost argmin of sign * u + c.

    The potential is charged by the trapezoid rule, dt * (V(x) + V(q)) / 2:
    half of ``table`` before the passes and half after, second order in dt.
    """
    half = (0.5 * sign) * table
    u = u - half
    for axis, n in enumerate(u.shape):
        shifts = _shifts(n, v_max, dt)
        quad = (shifts * (1.0 / n)) ** 2 / (2 * dt)
        lines = np.moveaxis(u, axis, -1)
        j = _argmin_quadratic((sign * lines).reshape(-1, n), quad).reshape(lines.shape)
        lines = np.take_along_axis(lines, j % n, -1) + (sign * quad)[np.arange(n) - j + shifts[-1]]
        u = np.moveaxis(lines, -1, axis)
    return u - half


def _argmin_quadratic(w, quad):
    """Leftmost argmin J(q) over j in [q - K, q + K] of w[:, j % n] + quad[q - j + K].

    O(n log n) candidates, not the stack's (2K + 1) n.  The cost is Monge
    (mixed difference -h^2/dt), so J is nondecreasing, band edges included,
    and J(n) = J(0) + n.  The rows at multiples of a stride 4^L <= 2K + 1 are
    searched in full; then, stride by stride down to 1, each row m between
    known rows a < m < b searches [max(J(a), m - K), min(J(b), m + K)].  Exact
    while 4 ulps of max(|w| + quad) stay below h^2/dt (9.5e-6 at n = 1024, dt = 0.1).
    """
    (B, n), K = w.shape, quad.size // 2
    # full search at stride 4^top: the largest power of 4 <= 2K + 1, capped at the first >= n
    top = min(((n - 1).bit_length() + 1) // 2, ((2 * K + 1).bit_length() - 1) // 2)
    pad = np.concatenate([w[:, n - K:], w, w[:, :K]], axis=1)   # pad[:, j + K] = w[:, j % n]
    J = np.empty((B, n + 1), dtype=np.intp)
    r = np.arange(0, n, 4 ** top)
    J[:, r] = np.argmin(pad[:, r[:, None] + np.arange(2 * K + 1)] + quad[::-1], axis=2) + r - K
    J[:, n] = J[:, 0] + n
    pad, line = pad.ravel(), np.arange(B)[:, None] * (n + 2 * K) + K
    for s in 4 ** np.arange(top, 0, -1):
        m = np.arange(s // 4, n, s // 4)
        m = m[m % s > 0]
        a = m - m % s                               # known rows a < m < b = min(a + s, n)
        lo = np.maximum(J[:, a], m - K)
        lens = (np.minimum(J[:, np.minimum(a + s, n)], m + K) - lo + 1).ravel()
        start = np.cumsum(lens) - lens
        idx = np.arange(lens.sum()) + np.repeat((lo + line).ravel() - start, lens)  # j + line
        vals = pad[idx] + quad[np.repeat((m + K + line).ravel(), lens) - idx]
        hits = np.flatnonzero(vals == np.repeat(np.minimum.reduceat(vals, start), lens))
        J[:, m] = idx[hits[np.searchsorted(hits, start)]].reshape(B, -1) - line
    return J[:, :n]


class StalledIteration(RuntimeError):
    """critical_value missed FP_TOL (a Tonelli H without a static class can);
    ``residual`` is the last one-step residual."""

    def __init__(self, residual):
        super().__init__(f"critical_value: Lax-Oleinik iteration did not reach residual "
                         f"{FP_TOL} in {LO_MAX_ITERS} steps (residual {residual:.2e})")
        self.residual = residual


@dataclass(frozen=True)
class WeakKamSolution:
    u: np.ndarray
    alpha: float
    residual: float
    grid: np.ndarray
    iterations: int
    aubry_pts: np.ndarray = None
    mane_pts: np.ndarray = None
    meta: dict = field(default_factory=dict)


def critical_value(H, grid=1024, dt=0.1, direction="descending", seed=None,
                   table=None):
    """Critical value by iterating the Lax-Oleinik operator to its fixed point.

    The per-step decrement converges to dt * alpha; alpha averages the
    last quarter of the decrements after the transient and the certificate
    carries the critical solution and the fixed-point residual.  ``table``
    is the step's table of (H, grid, dt), built here when not given.
    """
    q = np.arange(grid) / grid
    u = np.zeros((grid,) * H.dim)
    if seed is not None:
        u = u + np.random.default_rng(seed).uniform(-0.5, 0.5, size=u.shape)
    v_max = _velocity_bound(H)
    if table is None:
        table = _grid_table(H, (grid,) * H.dim, dt, v_max)
    sign = 1.0 if direction == "descending" else -1.0
    alphas = []
    resid = np.inf
    for it in range(1, LO_MAX_ITERS + 1):
        u_new = lax_oleinik_step(u, H, dt, direction=direction, v_max=v_max,
                                 table=table)
        dec = sign * (u - u_new)
        c = float(np.mean(dec))
        resid = float(np.max(np.abs(dec - c)))
        alphas.append(c / dt)
        u = u_new - u_new.min()
        if resid <= FP_TOL and it > 8:
            break
    else:
        raise StalledIteration(resid)
    tail = alphas[-max(1, len(alphas) // 4):]
    return WeakKamSolution(u=u, alpha=float(np.mean(tail)), residual=resid,
                           grid=q, iterations=it,
                           meta={"direction": direction, "v_max": v_max})


def critical_value_infmax(H, n_params=7, grid=1024, restarts=4, sweeps=12,
                          seed=0):
    """Upper critical bound: minimize over graph families the max of H.

    The family is the set of exact graphs with truncated-trigonometric
    derivative (zero mean); coordinate descent with golden-section line
    searches plus seeded random restarts.  Returns the smallest max seen,
    an upper bound for the critical value, and the mode coefficients
    ``theta`` of its graph.  T^1 only: dim 2 raises NotImplementedError.
    """
    if H.dim != 1:
        raise NotImplementedError("critical_value_infmax works over T^1 only, not dim 2")
    q = np.arange(grid) / grid
    modes = [(k, trig) for k in range(1, n_params) for trig in ("c", "s")][:n_params]
    basis = np.stack([np.cos(2 * np.pi * k * q) if trig == "c"
                      else np.sin(2 * np.pi * k * q) for k, trig in modes])

    def objective(theta):
        return float(np.max(H.value(q, theta @ basis)))

    def probe(x):
        # the objective at theta with theta[i] = x; keeps the best point, the earlier on a tie
        nonlocal best
        t = np.where(np.arange(n_params) == i, x, theta)
        f = objective(t)
        best = min(best, (f, t), key=lambda z: z[0])
        return f

    rng = np.random.default_rng(seed)
    gr = (np.sqrt(5.0) - 1) / 2
    best = (objective(np.zeros(n_params)), np.zeros(n_params))
    for r in range(restarts):
        theta = np.zeros(n_params) if r == 0 else rng.uniform(-0.5, 0.5, n_params)
        span = 2.0
        for _ in range(sweeps):
            for i in range(n_params):
                a, b = theta[i] - span, theta[i] + span
                x1 = b - gr * (b - a)
                x2 = a + gr * (b - a)
                f1, f2 = probe(x1), probe(x2)
                for _ in range(40):
                    if f1 < f2:
                        b, x2, f2 = x2, x1, f1
                        x1 = b - gr * (b - a)
                        f1 = probe(x1)
                    else:
                        a, x1, f1 = x1, x2, f2
                        x2 = a + gr * (b - a)
                        f2 = probe(x2)
                theta[i] = x1 if f1 < f2 else x2
            span *= 0.5
    return best


def subsolution_check(v, H, a, tol=1e-2):
    """Check H(q, dv(q)) <= a + tol at all grid points (centered differences).

    Returns (flag, violating indices, margin array H(q, dv) - a).  T^1
    only: dim 2 raises NotImplementedError.
    """
    v = np.asarray(v, dtype=float)
    if H.dim != 1 or v.ndim != 1:
        raise NotImplementedError("subsolution_check works over T^1 only, not dim 2")
    n = v.size
    h = 1.0 / n
    dv = (np.roll(v, -1) - np.roll(v, 1)) / (2 * h)
    margin = H.value(np.arange(n) / n, dv) - a
    bad = np.nonzero(margin > tol)[0]
    return bad.size == 0, bad, margin


def smooth_subsolution(u, H, s=0.05):
    """Double Lax-Oleinik smoothing (descend then ascend for time s).

    A C^{1,1}-grade surrogate for variational regularization: preserves
    subsolutions and the maximal invariant set of the critical graph.
    """
    out = np.asarray(u, dtype=float).copy()
    dt = 0.01
    steps = max(1, int(round(s / dt)))
    v_max = _velocity_bound(H)
    table = _grid_table(H, out.shape, dt, v_max)
    for direction in ("descending", "ascending"):
        for _ in range(steps):
            out = lax_oleinik_step(out, H, dt, direction=direction, v_max=v_max,
                                   table=table)
    return out


def _calibrated_solutions(H, alpha, grid):
    """One-sided calibrated subsolutions of a 1-d mechanical Hamiltonian.

    For H = p^2/2 + V at the critical level, du = +/- sqrt(2(alpha - V));
    the distance-like solution based at each contact point a follows the
    branch outward from a with the balance kink at the antipodal cut.
    """
    q = np.arange(grid) / grid
    V = H.potential(q)
    P = np.sqrt(np.maximum(2.0 * (alpha - V), 0.0))
    C = np.concatenate([[0.0], np.cumsum(0.5 * (P[1:] + P[:-1]) * np.diff(q))])
    C_tot = C[-1] + 0.5 * (P[-1] + P[0]) / grid
    contacts = np.nonzero(V >= alpha - 1e-6 * max(1.0, abs(alpha)))[0]
    # cluster adjacent contact indices (wrap-aware)
    classes = []
    if contacts.size:
        start = prev = contacts[0]
        for i in contacts[1:]:
            if i == prev + 1:
                prev = i
            else:
                classes.append((start + prev) // 2)
                start = prev = i
        classes.append((start + prev) // 2)
        if len(classes) > 1 and contacts[0] == 0 and contacts[-1] == grid - 1:
            classes[0] = classes.pop()  # merge the wrap cluster
    sols = []
    for a_idx in classes:
        d = np.abs(C - C[a_idx])
        sols.append(np.minimum(d, C_tot - d))
    return [s - s.min() for s in sols]


def _equilibria(H):
    """Newton-refined hyperbolic equilibria (q*, 0) at maxima of V (1-d)."""
    q = np.arange(8192) / 8192
    V = H.potential(q)
    cand = np.nonzero((V >= np.roll(V, 1)) & (V > np.roll(V, -1)))[0]
    out = []
    for i in cand:
        x = q[i]
        for _ in range(60):
            h = 1e-6
            g = float(H.grad_potential(np.array([wrap(x)]))[0])
            gpp = float((H.grad_potential(np.array([wrap(x + h)]))[0]
                         - H.grad_potential(np.array([wrap(x - h)]))[0]) / (2 * h))
            if abs(gpp) < 1e-9 or abs(g) < 1e-15:
                break
            x = x - g / gpp
        out.append(wrap(x))
    return np.asarray(sorted(out))


def weak_kam_family(H, grid=1024, dt=0.1, num_tol=NUM_TOL, horizon=50.0):
    """Critical value plus Aubry and Mane sets from a subsolution family.

    The family contains the descending and ascending fixed points and, for
    mechanical Hamiltonians, the calibrated one-sided solutions based at
    each contact point of the critical level.  Aubry = intersection of the
    maximal invariant sets of the family graphs, Mane = union; both live
    on the critical energy shell.  Finite families make both outer
    approximations.
    """
    from . import dynamics

    if H.dim != 1:
        raise NotImplementedError("Aubry/Mane assembly works over T^1; "
                                  "critical_value itself supports dim 2")
    table = _grid_table(H, (grid,), dt, _velocity_bound(H))
    sol_minus = critical_value(H, grid=grid, dt=dt, table=table)
    alpha = sol_minus.alpha
    sol_plus = critical_value(H, grid=grid, dt=dt, direction="ascending", table=table)
    family = [sol_minus.u, sol_plus.u,
              0.5 * (sol_minus.u + (sol_plus.u - sol_plus.u.min()))]
    equil = np.empty((0, 2))
    if H.is_mechanical:
        family.extend(_calibrated_solutions(H, alpha, grid))
        qs = _equilibria(H)
        if qs.size:
            keep = np.abs(H.value(qs, np.zeros_like(qs)) - alpha) <= num_tol
            equil = np.column_stack([qs[keep], np.zeros(int(keep.sum()))])
    # dedupe near-identical members
    kept = []
    for u in family:
        if all(np.max(np.abs(u - w)) > 1e-3 for w in kept):
            kept.append(u)
    q = np.arange(grid) / grid
    h = 1.0 / grid
    graphs = []
    for u in kept:
        du = (np.roll(u, -1) - np.roll(u, 1)) / (2 * h)
        pts = np.column_stack([q, du])
        if equil.size:
            # candidate equilibria lie on (the closure of) every critical
            # graph; include them explicitly so exact fixed points seed the
            # trimming rather than their one-ulp neighbours
            pts = np.vstack([pts, equil])
        graphs.append(pts)
    ests = dynamics.maximal_invariant_sets(graphs, H, alpha, horizon=horizon, e_tol=num_tol)
    inv_sets = [est.samples for est in ests]
    bin_r = 2.0 * h
    aubry = inv_sets[0]
    for s in inv_sets[1:]:
        aubry = aubry[nearest(phase_tiles(s), aubry) <= bin_r]
    aubry = _dedupe_points(aubry, bin_r)
    mane = _dedupe_points(np.vstack(inv_sets), 0.5 * h)
    # clip to the critical shell
    aubry, mane = (pts[np.abs(H.value(pts[:, 0], pts[:, 1]) - alpha) <= num_tol]
                   for pts in (aubry, mane))
    return replace(sol_minus, aubry_pts=aubry, mane_pts=mane, meta={
        **sol_minus.meta,
        "family_size": len(kept),
        "single_subsolution": len(kept) == 1,
        "alpha_ascending": sol_plus.alpha,
        "outer_approximation": "family and horizon are finite; sets are outer estimates",
        "horizon": horizon,
        "trimming": [{key: est.meta[key] for key in ("steps_run", "stationary", "traj_steps")}
                     for est in ests]})


def _dedupe_points(pts, radius):
    """The points of a (k, 2) set, in order, further than radius (across the
    q seam) from every earlier point kept; the tiles carry their row, so the
    greedy pass reads only the pairs within radius of an earlier point.
    """
    tiles = phase_tiles(np.column_stack([pts, np.arange(pts.shape[0])]))
    keep = np.ones(pts.shape[0], dtype=bool)
    for rows, idx, d in window_pairs(tiles, pts, radius):
        earlier = tiles[idx, 2].astype(int)
        close = (earlier < rows) & (d <= radius)
        for i, j in zip(rows[close], earlier[close]):
            if keep[j]:
                keep[i] = False
    return pts[keep]
