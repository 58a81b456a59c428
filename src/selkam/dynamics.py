"""Flow-based set operations and the theorem-verification harness.

Maximal invariant subsets of L intersected with an energy level are
estimated by trimming: seeds on the level are integrated forward and
backward and discarded on first exit from a tube around the seed locus.
Horizon doubling certifies stabilization (the true object is an
infinite-time intersection, so estimates are outer approximations and the
reports carry the horizon).  The layer works over T^1: every public
function raises NotImplementedError on dim 2 before any work.

Several sets on one level are trimmed in one batch
(`maximal_invariant_sets`; `maximal_invariant_set` is its one-set case).
Each chunk makes one `integrate` call on the rows still to step, forward
rows with +TRIM_DT and backward rows with -TRIM_DT, and each set stops
early at its own fixed state, when every live seed is frozen at an
equilibrium in both time directions (a stopped set has no row left to
step).  Stepping only the live, unfrozen rows gives the estimates of
trimming each set alone over all its rows: `alive` and `frozen` only ever
change one way and a frozen state never moves, so no later chunk can move
a live state, its tube or recurrence distance, or `alive` itself; and a
row's floats do not depend on its batchmates (see `hamcore.integrate`).
"""

from dataclasses import dataclass, field

import numpy as np

from . import hamcore
from .lagrangian import ExactLagrangian, SpectralFun, from_graph
from .torus import hausdorff, median, nearest, nearest_in_window, phase_tiles, spacing, wrap
from .weakkam import smooth_subsolution, subsolution_check

__all__ = [
    "InvariantSetEstimate",
    "maximal_invariant_set",
    "maximal_invariant_sets",
    "energy_level_check",
    "graph_test",
    "verify_theorem_6_3",
    "verify_theorem_1_5",
    "equivariance_check",
    "dump_invariant_set",
]

E_TOL_FRACTION = 1e-3     # energy-shell tolerance, fraction of H's range on L
INV_TOL_FRACTION = 1e-3   # invariance defect tolerance, fraction of diameter
TRIM_DT = 5e-3
CHECK_EVERY = 10
VANISH_TOL = 1e-5         # speed |H_p| + |H_q| at which a trimmed state is frozen
GRAPH_BINS = 256          # periodic base bins of graph_test
SPREAD_TOL = 0.02         # momentum spread within one bin that breaks a graph


@dataclass(frozen=True)
class InvariantSetEstimate:
    samples: np.ndarray        # (k, 2) phase points (q, p) surviving the trimming
    horizon: float
    tube_radius: float
    converged: bool            # survivor bins unchanged under horizon doubling
    n_seeds: int
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.samples.shape[0]


def _as_points(L, H, name):
    """(k, 2) phase points [q, p] of L or of a point array; a point array
    without 2 columns or a dim-2 H (None for a check without one) is
    refused before any flow or search."""
    points = L.phase_points() if isinstance(L, ExactLagrangian) else \
        np.atleast_2d(np.asarray(L, dtype=float))
    if points.shape[1] != 2 or (H is not None and H.dim != 1):
        raise NotImplementedError(f"{name} works over T^1 only, not dim 2")
    return points


def maximal_invariant_set(L, H, a, horizon=50.0, e_tol=None, recurrence_filter=False):
    """Trimmed estimate of the maximal invariant subset of L on {H = a}.

    Seeds are the samples of L within e_tol of the level; each is
    integrated to +-2 horizon and discarded on first exit from the tube
    around the seed locus.  The convergence flag records whether the
    survivor bins changed between the horizon and its double, which is the
    horizon reported.  ``recurrence_filter`` additionally discards seeds
    whose orbit wanders further than the tube from its own starting point:
    it localizes the non-wandering core, removing shadowing arcs that the
    energy-band seeding cannot distinguish from true invariant points.

    The loop leaves as soon as every live seed is frozen in both
    directions (no seed alive is the empty case); the survivors, the
    convergence flag and the reported horizon are those of the full run.
    ``meta`` records ``steps_run``, the steps taken in each direction,
    ``stationary``, whether the loop ended at that fixed state, and
    ``traj_steps``, the trajectory-steps integrated (rows times steps).
    This is the one-set case of `maximal_invariant_sets`.
    """
    return maximal_invariant_sets([L], H, a, horizon=horizon, e_tol=e_tol,
                                  recurrence_filter=recurrence_filter)[0]


def _trimming_seeds(L, H, a, e_tol):
    """Seeds, e_tol, tube radius, seed tiles and projection level of one set."""
    points = _as_points(L, H, "maximal_invariant_set")
    vals = H.value(points[:, 0], points[:, 1])
    if e_tol is None:
        e_tol = max(E_TOL_FRACTION * float(vals.max() - vals.min()), 1e-9)
    seeds = points[np.abs(vals - a) <= e_tol]
    if seeds.shape[0] == 0:
        raise ValueError(f"energy level {a} does not meet the sampled set "
                         f"(H range [{vals.min():.6g}, {vals.max():.6g}], e_tol {e_tol:.2e})")
    if seeds.shape[0] > 2:
        # nearest-neighbor spacing: transversal where the sampled set
        # stacks (tight tubes reject orbits sliding between sheets)
        local = float(median(spacing(seeds)))
    else:
        local = 0.0
    fallback = 3.0 / max(points.shape[0], 64)
    tube_radius = max(3.0 * local, fallback, 1e-4)
    # the projection level: when the requested level is the potential
    # maximum up to numerical noise, use the refined maximum itself, so
    # that separatrix orbits asymptote to the equilibria instead of
    # leaking past them on a level displaced by one ulp
    a_proj = a
    if H.is_mechanical:
        vmax = float(np.max(H.potential(np.arange(8192) / 8192)))
        if abs(a - vmax) <= max(10.0 * e_tol, 1e-4):
            a_proj = vmax
    return seeds, e_tol, tube_radius, phase_tiles(seeds), a_proj


def maximal_invariant_sets(sets, H, a, horizon=50.0, e_tol=None, recurrence_filter=False):
    """`maximal_invariant_set` of each of ``sets`` on {H = a}, trimmed in one batch.

    Each set keeps its own seeds, e_tol (from its own H range when None),
    tube, projection level, stop and ``meta``, and its estimate is the one
    the one-set call gives: the rows of all sets and both time directions
    step together, but a row's floats do not depend on its batchmates.  A
    set whose level misses its samples, or a horizon that is not positive,
    raises a ValueError before any flow.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    own_seeds, e_tols, tubes, tiles, levels = zip(
        *(_trimming_seeds(L, H, a, e_tol) for L in sets))
    n_sets = len(own_seeds)
    seeds = np.vstack(own_seeds)
    n = seeds.shape[0]
    set_of = np.repeat(np.arange(n_sets), [x.shape[0] for x in own_seeds])
    tube = np.array(tubes)
    # rows 0..n-1 step forward in time, rows n..2n-1 backward, one per seed
    seed_of = np.tile(np.arange(n), 2)
    row_set = set_of[seed_of]
    dt_row = np.repeat([TRIM_DT, -TRIM_DT], n)
    a_row = np.array(levels)[row_set]
    q0, p0 = seeds[seed_of, 0], seeds[seed_of, 1]
    Q, P = q0.copy(), p0.copy()
    n_steps = int(np.ceil(horizon / TRIM_DT))
    total = 2 * n_steps
    frozen = np.zeros(2 * n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    stopped = np.zeros(n_sets, dtype=bool)
    steps_run = np.zeros(n_sets, dtype=int)
    traj_steps = np.zeros(n_sets, dtype=int)
    survivors_first = [None] * n_sets
    done = 0
    while done < total and not stopped.all():
        chunk = min(CHECK_EVERY, total - done)
        # a dead seed stays dead and a frozen state never moves again, so
        # only the live, unfrozen rows are stepped (a stopped set has none)
        run = np.flatnonzero(alive[seed_of] & ~frozen)
        Qn, Pn = hamcore.integrate(H, Q[run], P[run], dt_row[run], chunk)
        # the intersection lives on {H = a}: remove the integrator's
        # secular energy drift by re-projecting momenta onto the shell
        # (asymptotic orbits would otherwise slide off within ~1/lambda)
        Pn = _project_energy(H, Qn, Pn, a_row[run])
        Q[run], P[run] = Qn, Pn
        Qw = wrap(Qn)
        # states with vanishing vector field sit at an equilibrium to
        # numerical resolution: freeze them (finite steps would tunnel
        # through the fixed point and amplify one-ulp noise)
        frozen[run] = np.abs(H.grad_p(Qw, Pn)) + np.abs(H.grad_q(Qw, Pn)) <= VANISH_TOL
        sets_run = row_set[run]
        rows_per_set = np.bincount(sets_run, minlength=n_sets)
        inside = np.empty(run.size, dtype=bool)
        for k in np.flatnonzero(rows_per_set):
            mine = sets_run == k
            x = np.column_stack([Qw[mine], Pn[mine]])
            inside[mine] = nearest_in_window(tiles[k], x, tube[k]) <= tube[k]
        if recurrence_filter:
            dq = np.abs(Qw - q0[run])
            dq = np.minimum(dq, 1.0 - dq)
            inside &= np.hypot(dq, Pn - p0[run]) <= tube[sets_run]
        alive[seed_of[run[~inside]]] = False
        done += chunk
        steps_run[~stopped] = done
        traj_steps += chunk * rows_per_set
        # fixed state: every live seed of a set is frozen both ways, so no
        # later chunk can move its states, distances or `alive` (the empty
        # case included); the set stops there
        moving = np.bincount(set_of[alive & ~(frozen[:n] & frozen[n:])],
                             minlength=n_sets) > 0
        at_rest = ~stopped & ~moving
        for k in range(n_sets):
            if survivors_first[k] is None and (done >= n_steps or at_rest[k]):
                survivors_first[k] = seeds[(set_of == k) & alive]
        stopped |= at_rest
    estimates = []
    for k, (seeds_k, e_tol_k, tube_k) in enumerate(zip(own_seeds, e_tols, tubes)):
        survivors = seeds[(set_of == k) & alive]
        b1 = {tuple(np.round(x / tube_k).astype(int)) for x in survivors_first[k]}
        b2 = {tuple(np.round(x / tube_k).astype(int)) for x in survivors}
        # containment in L cap {|H - a| <= e_tol} holds by construction; check it
        if survivors.size:
            worst = float(np.max(np.abs(H.value(survivors[:, 0], survivors[:, 1]) - a)))
            if not worst <= e_tol_k + 1e-12:
                raise RuntimeError(
                    "maximal_invariant_set: survivors left the energy band: "
                    f"worst |H - a| = {worst:.3g} > e_tol = {e_tol_k:.3g}")
        estimates.append(InvariantSetEstimate(
            samples=survivors, horizon=2 * horizon, tube_radius=float(tube_k),
            converged=b1 == b2, n_seeds=int(seeds_k.shape[0]),
            meta={"e_tol": float(e_tol_k), "dt": TRIM_DT,
                  "steps_run": int(steps_run[k]), "stationary": bool(stopped[k]),
                  "traj_steps": int(traj_steps[k])}))
    return estimates


def _project_energy(H, Q, P, a):
    """Rescale momenta onto {H = a} (radial in the fiber, mechanical exact)."""
    if H.is_mechanical:
        V = H.potential(wrap(Q))
        return np.where(P >= 0, 1.0, -1.0) * np.sqrt(np.maximum(2.0 * (a - V), 0.0))
    scale = np.ones(np.shape(P))
    for _ in range(5):
        Pn = scale * P
        g = H.value(wrap(Q), Pn) - a
        dg = P * H.grad_p(wrap(Q), Pn)
        step = np.where(np.abs(dg) > 1e-12, g / np.where(np.abs(dg) > 1e-12, dg, 1.0), 0.0)
        scale = scale - np.clip(step, -0.2, 0.2)
    return scale * P


def energy_level_check(L, H, tol=1e-6):
    """Mean energy if H is constant on L within tol, else None with profile."""
    points = _as_points(L, H, "energy_level_check")
    vals = H.value(points[:, 0], points[:, 1])
    e = float(np.mean(vals))
    dev = float(np.max(np.abs(vals - e)))
    if dev <= tol:
        return e, dev
    return None, dev


def graph_test(points):
    """True iff the point set is a fiberwise-single-valued (Lipschitz) graph.

    Base points are binned on a periodic grid of GRAPH_BINS cells; a bin
    with momentum spread above SPREAD_TOL breaks single-valuedness.  Returns
    the flag and the max difference quotient between neighboring occupied
    bins.
    """
    pts = _as_points(points, None, "graph_test")
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    grid = GRAPH_BINS
    bins = np.mod(np.round(pts[:, 0] * grid).astype(int), grid)
    pmin = np.full(grid, np.inf)
    pmax = np.full(grid, -np.inf)
    np.minimum.at(pmin, bins, pts[:, 1])
    np.maximum.at(pmax, bins, pts[:, 1])
    occupied = np.isfinite(pmin)
    single = bool(np.all((pmax - pmin)[occupied] <= SPREAD_TOL))
    occ_idx = np.nonzero(occupied)[0]
    quot = 0.0
    if occ_idx.size > 1:
        pm = 0.5 * (pmin + pmax)
        dq = np.diff(np.append(occ_idx, occ_idx[0] + grid)) / grid
        dp = np.diff(np.append(pm[occ_idx], pm[occ_idx[0]]))
        quot = float(np.max(np.abs(dp) / np.maximum(dq, 1e-12)))
    return single, quot


# ---------------------------------------------------------------------------
# theorem harnesses


@dataclass(frozen=True)
class EnergyPipelineReport:
    """Outcome of the graph-replacement pipeline at one energy level."""

    subsolution_ok: bool
    hausdorff_distance: float
    inv_L: InvariantSetEstimate
    inv_graph: InvariantSetEstimate
    grid_step: float
    ok: bool

    def __bool__(self):
        return self.ok


def verify_theorem_6_3(L, H, a, f, horizon=100.0):
    """Replace a Lagrangian below an energy level by a graph with the same
    maximal invariant set.

    ``f`` is the caller's generalized selector of L on a uniform grid: the
    graph selector of a flowed L, else the limit selector of a mollification
    sequence.  Pipeline: subsolution check of f at level a -> double
    Lax-Oleinik smoothing -> graph of the smoothed differential ->
    invariant-set comparison by trimming.  A horizon that is not positive
    raises ValueError; T^1 only: dim 2 raises NotImplementedError.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    pts = _as_points(L, H, "verify_theorem_6_3")
    vals = H.value(pts[:, 0], pts[:, 1])
    if float(np.max(vals)) > a + 1e-3 * max(1.0, abs(a)):
        raise ValueError(f"input set is not contained in the energy sublevel "
                         f"{{H <= {a}}} (max H = {vals.max():.6g})")
    n = f.q_grid.size
    ok_sub, bad, _ = subsolution_check(f.values, H, a)
    if not ok_sub:
        # exclude two-step collars around derivative kinks before declaring failure
        kink = np.abs(np.roll(f.values, -1) + np.roll(f.values, 1) - 2 * f.values) * n
        idx = np.nonzero(kink > 0.1 * max(1.0, float(np.max(np.abs(f.values)))))[0]
        kmask = np.zeros(n, dtype=bool)
        kmask[(idx[:, None] + np.arange(-2, 3)) % n] = True
        bad = bad[~kmask[bad]]
        ok_sub = bad.size == 0

    g = smooth_subsolution(f.values, H, s=0.05)
    h = 1.0 / n
    dg = (np.roll(g, -1) - np.roll(g, 1)) / (2 * h)
    graph_pts = np.column_stack([f.q_grid, dg])

    def trimmed(obj):
        try:
            return maximal_invariant_set(obj, H, a, horizon=horizon,
                                         recurrence_filter=True)
        except ValueError:
            # level does not meet the set: empty invariant set
            return InvariantSetEstimate(samples=np.empty((0, 2)), horizon=horizon,
                                        tube_radius=0.0, converged=True, n_seeds=0)

    inv_L = trimmed(L)
    inv_G = trimmed(graph_pts)
    hd = hausdorff(inv_L.samples, inv_G.samples)
    ok = ok_sub and hd <= 2.0 * h and inv_L.converged and inv_G.converged
    return EnergyPipelineReport(subsolution_ok=ok_sub, hausdorff_distance=float(hd),
                                inv_L=inv_L, inv_graph=inv_G, grid_step=h, ok=ok)


@dataclass(frozen=True)
class InvariantGraphReport:
    invariance_defect: float
    invariant: bool
    energy: float            # nan when not invariant or level check failed
    is_graph: bool
    ok: bool                 # invariant implies (single level and graph)

    def __bool__(self):
        return self.ok


def verify_theorem_1_5(L, H, horizon=5.0):
    """Invariant Lipschitz-exact sets must be single-level Lipschitz graphs.

    Measures the flow-invariance defect of L over the horizon; when it is
    below tolerance, asserts that H is constant on L and that the samples
    pass the graph test.  Large defects are reported without any claim.
    T^1 only: dim 2 raises NotImplementedError.
    """
    pts = _as_points(L, H, "verify_theorem_1_5")
    p_range = float(pts[:, 1].max() - pts[:, 1].min()) if pts.shape[0] > 1 else 0.0
    diam = float(np.hypot(0.5, p_range))
    inv_tol = INV_TOL_FRACTION * max(diam, 1.0)
    tiles = phase_tiles(pts)
    sub = pts[:: max(1, pts.shape[0] // 512)]
    defect = 0.0
    Q, P = sub[:, 0].copy(), sub[:, 1].copy()
    dt = min(TRIM_DT, horizon / 64)
    n_check = 4
    per = int(np.ceil(horizon / n_check / dt))
    for _ in range(n_check):
        Q, P = hamcore.integrate(H, Q, P, dt, per)
        dist = nearest(tiles, np.column_stack([wrap(Q), P]))
        defect = max(defect, float(np.max(dist)))
    invariant = defect <= inv_tol
    if not invariant:
        return InvariantGraphReport(invariance_defect=defect, invariant=False,
                                    energy=float("nan"), is_graph=False, ok=True)
    e, _ = energy_level_check(L, H, tol=10.0 * inv_tol)
    is_graph, _ = graph_test(pts)
    ok = (e is not None) and is_graph
    return InvariantGraphReport(invariance_defect=defect, invariant=True,
                                energy=float("nan") if e is None else e,
                                is_graph=is_graph, ok=ok)


def equivariance_check(v_samples, w_samples, dw_src, H, a, horizon=50.0):
    """Momentum-shift equivariance of the computed invariant sets.

    phi(q, p) = (q, p + dw(q)) is an exact symplectomorphism; the
    invariant set of (Gamma_dv, H) at level a must map onto the invariant
    set of (phi^{-1} Gamma_dv, H o phi) within resolution.  Returns the
    Hausdorff distance between the pulled-back sets.
    """
    v = np.asarray(v_samples, dtype=float)
    w = np.asarray(w_samples, dtype=float)
    if H.dim != 1 or v.ndim != 1 or w.ndim != 1:
        raise NotImplementedError("equivariance_check works over T^1 only, not dim 2")
    # resample densely so the energy band around the level is populated
    fine = np.arange(4096) / 4096
    vf = SpectralFun(v)
    wf = SpectralFun(w)
    L1 = from_graph(vf(fine))
    L2 = from_graph(vf(fine) - wf(fine))
    H2 = hamcore.shift_momentum(H, dw_src)
    inv1 = maximal_invariant_set(L1, H, a, horizon=horizon)
    inv2 = maximal_invariant_set(L2, H2, a, horizon=horizon)
    # pull the first set back through phi^{-1}: p -> p - dw(q)
    s1 = inv1.samples.copy()
    s1[:, 1] -= wf.derivative(s1[:, 0])
    hd = hausdorff(s1, inv2.samples)
    return hd, inv1, inv2


def dump_invariant_set(est, path):
    """Write rows `q p survived_horizon` as decimal text."""
    with open(path, "w") as fh:
        fh.write("# q p survived_horizon\n")
        for row in est.samples:
            cols = " ".join(f"{x:.12g}" for x in row)
            fh.write(f"{cols} {est.horizon:.6g}\n")
