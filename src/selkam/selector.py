"""Graph selectors of exact Lagrangian curves, and the minimax that defines them.

The selector at a base point is the paper's minimax (a spectral invariant)
of a discrete action.  For a Tonelli H the minimax selector of a flowed
graph is the Lax-Oleinik viscosity solution, and every minimizer of the
Lax-Oleinik problem is an unbroken extremal starting on the graph of dv;
so the selector is the lowest member of each fiber's spectrum, the lower
envelope of the front.  ``graph_selector`` computes that envelope for every
curve and records the selected sheet per grid point.

The definition itself stays as the check.  A two-point minimal-action
kernel K_tau(a, b), the least action of Hamiltonian trajectories from a to
b in time tau, is built by integrating a momentum fan forward (no
boundary-value solves) and inverting the endpoint map row by row; longer
times compose kernels in the min-plus algebra.  The composed kernel plus
the initial potential is the lattice function whose sublevel-set
persistence selects the spectral value at every base point: the essential
class, whose birth level realizes the minimax (``spectral_value``, with
union-find persistence as the reference).  ``kernel_minimax`` reads that
minimax on the grid, and ``selkam verify`` compares it with the envelope.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hamcore
from .front import fiber_sweep, caustics
from .lagrangian import SpectralFun
from .persistence import sublevel_persistence
from .torus import hermite_basis, median, wrap

__all__ = [
    "ActionKernel",
    "DiscreteAction",
    "SelectorFunction",
    "SelectorReport",
    "SpectralStabilityError",
    "build_discrete_action",
    "spectral_value",
    "graph_selector",
    "kernel_minimax",
    "verify_selector",
    "generalized_selector",
    "dump_selector",
]

TAU_MAX = 0.25            # single-fan horizon: below the first conjugate time
SNAP_TOL = 1e-4           # ambiguity scale for coinciding spectrum values
CONV_TOL = 1e-3
C_TOL = 1e-3
COLLAR = 2                # grid steps excluded around caustics/Maxwell points
LIP_MARGIN = 1e-2         # allowance of the Lipschitz check over max |p|
DIST_TOL = 1e-3
EDGE_FRACTION = 0.97      # momentum-fan edge flag threshold
LARGE = 1e30
KERNEL_MIN_GRID = 256     # fewest kernel grid points per dimension


class SpectralStabilityError(RuntimeError):
    def __init__(self, message, bracket):
        super().__init__(f"{message}; values seen: {bracket}")
        self.bracket = bracket


# ---------------------------------------------------------------------------
# minimal-action kernels


@dataclass(frozen=True)
class ActionKernel:
    """Two-point minimal action on the torus, tabulated on a periodic grid.

    K[i, j] is the least trajectory action from a_i to a_j in time tau;
    p_start and p_end are the momenta of the minimizing trajectory, which
    are also the partial derivatives -dK/da and dK/db.  ``edge`` marks
    entries whose minimizer ran into the momentum-fan boundary (bookkeeping
    of the compositions); a kernel ``_build_kernel`` returns has none.
    ``eval`` reads K off the grid by a periodic bicubic Hermite patch on K
    alone: it returns K at the nodes (bit for bit on a power-of-two grid),
    and it is exact where K is quadratic over a cell's 4 x 4 stencil, as a
    free particle's single-fan kernel is.
    """

    tau: float
    grid: np.ndarray
    K: np.ndarray
    p_start: np.ndarray
    p_end: np.ndarray
    edge: np.ndarray
    p_bound: float

    @cached_property
    def patch(self):
        """Corner tables in grid-step units: K, its centred differences along
        a and along b, and the b-difference differenced along a."""
        Ka, Kb = (0.5 * (np.roll(self.K, -1, ax) - np.roll(self.K, 1, ax)) for ax in (0, 1))
        return self.K, Ka, Kb, 0.5 * (np.roll(Kb, -1, 0) - np.roll(Kb, 1, 0))

    def eval(self, a, b, dx=0, dy=0):
        """K at (a, b), broadcast, or its partial of order dx in a, dy in b (0 or 1)."""
        n = self.grid.size
        s, t = wrap(a) * n, wrap(b) * n
        i, j = np.floor(s).astype(int), np.floor(t).astype(int)
        ha, hb = hermite_basis(s - i, dx == 1), hermite_basis(t - j, dy == 1)
        K, Ka, Kb, Kab = self.patch
        total = 0.0
        for wa, sa, ia in ((ha[0], ha[1], i % n), (ha[2], ha[3], (i + 1) % n)):
            for wb, sb, jb in ((hb[0], hb[1], j % n), (hb[2], hb[3], (j + 1) % n)):
                total = total + (wa * wb * K[ia, jb] + sa * wb * Ka[ia, jb]
                                 + wa * sb * Kb[ia, jb] + sa * sb * Kab[ia, jb])
        return total * float(n) ** (dx + dy)


def _fan_kernel(H, tau, n_grid, p_bound, dt_target):
    """Single-fan kernel: forward-integrate a momentum fan from every node.

    Requires the endpoint map p0 -> b to be monotone (tau below the first
    conjugate time); returns None in that case so the caller can shorten
    tau and compose.
    """
    a = np.arange(n_grid) / n_grid
    # fan spacing fine enough that consecutive endpoints straddle ~1 cell
    n_p = int(max(513, 1.2 * p_bound * tau * n_grid + 1) // 2 * 2 + 1)
    p0 = np.linspace(-p_bound, p_bound, n_p)
    Q0 = np.broadcast_to(a[:, None], (n_grid, n_p)).copy()
    P0 = np.broadcast_to(p0[None, :], (n_grid, n_p)).copy()
    steps = max(8, int(np.ceil(tau / dt_target)))
    B, Pend, ACT = hamcore.integrate(H, Q0, P0, tau / steps, steps,
                                     accumulate_action=True)
    if np.any(np.diff(B, axis=1) <= 0):
        return None

    kmin = int(np.floor(B.min())) - 1
    kmax = int(np.ceil(B.max())) + 1
    winds = np.arange(kmin, kmax + 1)
    targets = (a[None, :] + winds[:, None]).reshape(-1)     # (nw * n)
    K = np.full((n_grid, n_grid), LARGE)
    PS = np.zeros((n_grid, n_grid))
    PE = np.zeros((n_grid, n_grid))
    ED = np.zeros((n_grid, n_grid), dtype=bool)
    nw = winds.size
    for i in range(n_grid):
        Bi = B[i]
        idx = np.searchsorted(Bi, targets)
        valid = (idx >= 1) & (idx <= n_p - 1)
        j = np.clip(idx, 1, n_p - 1)
        b0 = Bi[j - 1]
        b1 = Bi[j]
        u = np.where(valid, (targets - b0) / (b1 - b0), 0.5)
        # Hermite in b: dA/db along the fan is the endpoint momentum
        h = b1 - b0
        A0, A1 = ACT[i, j - 1], ACT[i, j]
        m0, m1 = Pend[i, j - 1] * h, Pend[i, j] * h
        h00, h10, h01, h11 = hermite_basis(u)
        Av = h00 * A0 + h10 * m0 + h01 * A1 + h11 * m1
        psv = p0[j - 1] * (1 - u) + p0[j] * u
        pev = Pend[i, j - 1] * (1 - u) + Pend[i, j] * u
        Av = np.where(valid, Av, LARGE)
        cover = Av.reshape(nw, n_grid)
        pick = np.argmin(cover, axis=0)
        cols = np.arange(n_grid)
        K[i] = cover[pick, cols]
        PS[i] = psv.reshape(nw, n_grid)[pick, cols]
        PE[i] = pev.reshape(nw, n_grid)[pick, cols]
        jw = j.reshape(nw, n_grid)[pick, cols]
        ED[i] = (jw < (1 - EDGE_FRACTION) * n_p + 2) | (jw > EDGE_FRACTION * n_p - 2)
    return ActionKernel(tau=tau, grid=a, K=K, p_start=PS, p_end=PE,
                        edge=ED, p_bound=p_bound)


def _compose(k1, k2):
    """Min-plus composition of two kernels on the same grid."""
    n = k1.grid.size
    K = np.full((n, n), np.inf)
    ARG = np.zeros((n, n), dtype=np.int32)
    for c in range(n):
        cand = k1.K[:, c][:, None] + k2.K[c, :][None, :]
        upd = cand < K
        K[upd] = cand[upd]
        ARG[upd] = c
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    PS = k1.p_start[rows, ARG]
    PE = k2.p_end[ARG, cols]
    ED = k1.edge[rows, ARG] | k2.edge[ARG, cols]
    return ActionKernel(tau=k1.tau + k2.tau, grid=k1.grid, K=K,
                        p_start=PS, p_end=PE, edge=ED,
                        p_bound=max(k1.p_bound, k2.p_bound))


def _build_kernel(H, T, n_grid, p_bound, n_steps):
    """Composed minimal-action kernel for horizon T (T > 0) and its segment count.

    The fan widens (x1.6, 3 times per segment length) while a cell is
    unreachable or a composed minimizer uses its edge; a folded endpoint map
    halves the segments (4 times).  Every call builds: nothing is cached.
    """
    m = max(1, int(np.ceil(T / TAU_MAX)))
    dt_target = min(T / max(n_steps, 8), 1e-3)
    for _ in range(4):
        for _ in range(3):
            tried = p_bound
            base = _fan_kernel(H, T / m, n_grid, p_bound, dt_target)
            if base is None:
                break
            if not np.any(base.K >= LARGE):
                kernel = base
                for _ in range(m - 1):
                    kernel = _compose(kernel, base)
                if not np.any(kernel.edge):
                    return kernel, m
            p_bound *= 1.6          # unreachable cells or edge minimizers: widen
        m *= 2                      # folded, or no widening left: shorten segments
    raise RuntimeError("no action kernel: unreachable cells or edge minimizers up to "
                       f"p_bound {tried:.6g}, or a folded endpoint map at {m // 2} segments")


# ---------------------------------------------------------------------------
# discrete action over a xi-lattice


@dataclass(frozen=True)
class DiscreteAction:
    """Discrete action G(q; xi) over a periodic xi-lattice.

    xi collects the free breakpoints of a broken trajectory ending at q:
    the initial point (weighted by the potential v) plus interior junction
    points, one per composed kernel segment.  The lattice is the product
    torus grid; critical points correspond to broken trajectories whose
    junction momenta match, and critical values land in the fiber spectrum
    up to the discretization error of the kernel.
    """

    q: float
    v_fun: object
    xi_dim: int
    lattice_shape: tuple
    kernel: ActionKernel
    meta: dict = field(default_factory=dict)

    def lattice_values(self, n=None):
        n = n or self.lattice_shape[0]
        x = np.arange(n) / n
        G = self.v_fun(x)
        if self.xi_dim > 1:
            K = self.kernel.eval(x[:, None], x)
            for _ in range(self.xi_dim - 1):
                G = G[..., None] + K
        return G + self.kernel.eval(x, self.q)

    def value(self, q, xi):
        """Continuum extension of G at arbitrary (q, xi)."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        legs = self.kernel.eval(xi, np.append(xi[1:], q))
        return float(self.v_fun(xi[:1])[0] + np.sum(legs))

    def gradient(self, q, xi):
        """Analytic gradient of the continuum G with respect to xi."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        g = self.kernel.eval(xi, np.append(xi[1:], q), dx=1)
        g[0] += self.v_fun.derivative(xi[:1])[0]
        g[1:] += self.kernel.eval(xi[:-1], xi[1:], dy=1)
        return g


def build_discrete_action(H, v, T, N_steps, q, xi_dim=1, lattice_size=None,
                          p_bound=None):
    """Discrete action for the flowed graph of dv, targeted at base point q.

    The horizon T must be positive: at T = 0 the selector is v itself, which
    ``kernel_minimax`` returns without a discrete action.  ``N_steps`` is the
    number of integration segments along a trajectory (at least 8);
    ``xi_dim`` the number of free breakpoints (<= 3 for grid evaluation).
    The xi_dim chained kernels share the horizon, each spanning T / xi_dim
    with its share of the segments.  ``p_bound`` is the initial fan width;
    the kernel build widens it until no minimizer uses the fan edge.
    """
    if not T > 0:
        raise ValueError(f"the discrete action needs a horizon T > 0, got T = {T}")
    if N_steps < 8:
        raise ValueError("need at least 8 trajectory segments")
    if xi_dim < 1 or xi_dim > 3:
        raise ValueError("xi lattice evaluation supports 1 to 3 breakpoints")
    v = np.asarray(v, dtype=float)
    vf = SpectralFun(v)
    n = lattice_size or (512 if xi_dim == 1 else (64 if xi_dim == 2 else 32))
    tau = T / xi_dim
    if p_bound is None:
        pv = float(np.max(np.abs(vf.derivative(np.arange(512) / 512))))
        if H.is_mechanical:
            Vg = H.potential(np.arange(512) / 512)
            swing = float(np.sqrt(2.0 * max(Vg.max() - Vg.min(), 0.0) + 2.0 * pv ** 2))
        else:
            swing = 2.0
        p_bound = max(3.0, pv + swing + 1.5, 0.8 / (tau / max(1, int(np.ceil(tau / TAU_MAX)))))
        # half-integer steps: potentials that differ by rounding get the same fan
        p_bound = 0.5 * np.ceil(2.0 * p_bound)
    kernel_grid = max(n, KERNEL_MIN_GRID) if xi_dim == 1 else KERNEL_MIN_GRID
    kernel, m = _build_kernel(H, tau, kernel_grid, p_bound, -(-N_steps // xi_dim))
    return DiscreteAction(q=float(q), v_fun=vf, xi_dim=xi_dim,
                          lattice_shape=(n,) * xi_dim, kernel=kernel,
                          meta={"segments": m})


def spectral_value(DA):
    """Minimax level of the discrete action: birth of the essential class.

    Union-find persistence over the periodic xi-lattice, whose kernel fan
    holds every minimizer; the lattice is then refined (x2, then x4) and the
    selected value must move by no more than a grid-scale bound.
    """
    lam = sublevel_persistence(DA.lattice_values()).selected
    n = DA.lattice_shape[0]
    seen = [lam]
    for factor in (2, 4):
        lam_f = sublevel_persistence(DA.lattice_values(n=factor * n)).selected
        seen.append(lam_f)
        scale = _grad_scale(DA) / (factor * n)
        if abs(lam_f - lam) <= max(4.0 * scale, 1e-9):
            break
    else:
        raise SpectralStabilityError(
            "spectral value did not stabilize under lattice refinement", seen)
    return lam


def _grad_scale(DA):
    x = np.arange(256) / 256
    s = float(np.max(np.abs(DA.v_fun.derivative(x))))
    s += float(np.percentile(np.abs(DA.kernel.p_start), 95))
    s += float(np.percentile(np.abs(DA.kernel.p_end), 95))
    return max(s, 1.0)


# ---------------------------------------------------------------------------
# selector assembly


@dataclass(frozen=True)
class SelectorFunction:
    """Grid-sampled Lipschitz selector with per-point provenance.

    ``provenance[j]`` is the rank, in curve-parameter order, of the sheet
    selected at grid point j, or -1 at a flagged point: one where the two
    lowest spectrum members coincide to ``snap_tol`` (a Maxwell or
    Cerf-irregular point), whose value is still the lowest member.
    ``fibers`` is the front's ``fiber_sweep`` over ``q_grid``.
    """

    q_grid: np.ndarray
    values: np.ndarray
    provenance: np.ndarray
    fibers: list = field(repr=False)

    def __post_init__(self):
        if self.q_grid.size != self.values.size:
            raise ValueError("grid/value size mismatch")

    @property
    def flags(self):
        """The flagged points: provenance -1."""
        return self.provenance < 0

    @property
    def local_lipschitz(self):
        """|f(q_j+1) - f(q_j)| / d(q_j, q_j+1) in the flat-torus metric, the
        last point paired with the first."""
        dq = np.abs(np.roll(self.q_grid, -1) - self.q_grid)
        return np.abs(np.roll(self.values, -1) - self.values) / np.minimum(dq, 1.0 - dq)

    @property
    def lipschitz_const(self):
        """The Lipschitz constant of the sampled selector in the flat-torus metric.

        The max over neighbouring grid points: the shorter arc between any
        two points passes through neighbours only, and a difference quotient
        over an arc is at most the largest quotient of its pieces.  In
        floats a max over all pairs can read a few ulps higher, since a far
        pair's distance rounds while a uniform grid's neighbour distances
        are exact.
        """
        return float(np.max(self.local_lipschitz))


def graph_selector(L, grid_size=512, snap_tol=SNAP_TOL):
    """Selector of an exact Lagrangian curve: the lower envelope of its front.

    The value at each grid point is the lowest member of the fiber spectrum,
    in the anchored primitive frame.  For a flowed L of a Tonelli H this is
    the minimax selector (``kernel_minimax`` computes the minimax itself),
    so a flowed L whose H fails the Tonelli check
    (``HamiltonianSpec.tonelli``) is refused.  For a graph or parametric
    curve a continuous envelope is *a* graph selector, but not necessarily
    Oh's spectral one; an envelope that jumps raises "no continuous
    section", although the paper proves that a selector exists.  A point
    where the second-lowest member lies within ``snap_tol`` is flagged.
    """
    if "H" in L.meta:
        ton = L.meta["H"].tonelli
        if not ton.ok:
            raise ValueError("the front's lower envelope is the minimax selector only "
                             "for Tonelli H; min fiber Hessian eigenvalue "
                             f"{ton.min_hessian_eig:.6g}")
    q_grid = np.arange(grid_size) / grid_size
    fibers = fiber_sweep(L, q_grid)
    if any(len(fd) == 0 for fd in fibers):
        raise ValueError("front has empty fibers; not a closed front over the torus")
    values = np.array([fd.h[0] for fd in fibers])
    jumps = np.abs(np.diff(np.append(values, values[0])))
    if np.max(jumps) > 3.0 * (L.pmax + 1.0) / grid_size:
        raise RuntimeError("no continuous section through the computed front")
    flags = np.array([fd.h.size > 1 and fd.h[1] - fd.h[0] <= snap_tol for fd in fibers])
    # provenance as geometric sheet identity: rank in curve-parameter order,
    # which is stable between folds (h-rank is not: the minimum is always 0)
    provenance = np.array([-1 if flag else int(np.sum(fd.t < fd.t[0]))
                           for fd, flag in zip(fibers, flags)])
    return SelectorFunction(q_grid=q_grid, values=values, provenance=provenance,
                            fibers=fibers)


def kernel_minimax(L, grid_size):
    """The minimax selector of a flowed graph, read off the action kernel.

    Each grid point's discrete action is a column of the kernel lattice
    v(x) + K_T(x, q); on that connected 1-d lattice the essential class is
    born at the minimum, so the minimax is the column minimum
    (``spectral_value``'s union-find persistence is the reference); no
    kernel entry uses the fan edge.  Values are shifted to the anchored
    primitive frame of ``graph_selector``, which this checks.
    """
    if L.kind != "flowed" or "H" not in L.meta:
        raise ValueError("the kernel minimax needs a flow presentation (from_flow output)")
    if grid_size < KERNEL_MIN_GRID:
        raise ValueError(f"kernel grid must have at least {KERNEL_MIN_GRID} points "
                         "per dimension")
    v = L.meta["v_samples"]
    T = L.meta["T"]
    vf = SpectralFun(v)
    if T == 0:
        return vf(np.arange(grid_size) / grid_size) - L.s_offset
    DA = build_discrete_action(L.meta["H"], v, T, max(8, int(np.ceil(T / 5e-4))), 0.0,
                               xi_dim=1, lattice_size=grid_size)
    GM = vf(DA.kernel.grid)[:, None] + DA.kernel.K     # G columns per target q
    return GM.min(axis=0) - L.s_offset


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class SelectorReport:
    max_graph_distance: float
    max_value_mismatch: float
    lipschitz_const: float
    lipschitz_bound: float
    checked_points: int
    ok: bool

    def __bool__(self):
        return self.ok


def verify_selector(f, L, c_tol=C_TOL, collar=COLLAR):
    """Check the defining selector properties on the grid.

    ``f`` must be L's selector: its ``fibers`` are read as L's fibers.  At
    unflagged points off collars around f's switches (provenance changes,
    caustics), (q, df(q)) must lie on L and f(q) must equal the primitive;
    ``f.lipschitz_const`` must not exceed max |p| plus a small margin.
    Provenance misses a switch only in a fold's cell or at a crossing of the
    seam t0 in the same cell; a kink missed there is off L and fails the check.
    """
    n = f.q_grid.size
    h = 1.0 / n
    vals = f.values
    df = (np.roll(vals, -1) - np.roll(vals, 1)) / (2 * h)

    centres = []
    if L.kind != "graph":
        centres.append(np.round(caustics(L).q * n).astype(int))
    switches = np.nonzero(np.roll(f.provenance, -1) != f.provenance)[0]
    centres += [switches, switches + 1]
    idx = np.concatenate(centres)
    mask = np.ones(n, dtype=bool)
    mask[(idx[:, None] + np.arange(-collar, collar + 1)) % n] = False
    mask[f.flags] = False

    fibers = [fd for fd, keep in zip(f.fibers, mask) if keep]
    gd = []
    vm = []
    for fd, dfj, fj in zip(fibers, df[mask], vals[mask]):
        dp = np.abs(fd.p - dfj)
        best = float(np.min(dp))
        gd.append(best)
        # sheets can nearly coincide in momentum; the value must match one of
        # the momentum-compatible points, not necessarily the very nearest
        window = dp <= max(3.0 * best, c_tol)
        vm.append(float(np.min(np.abs(fd.h[window] - fj))))
    gd = float(np.max(gd)) if gd else np.inf
    vm = float(np.max(vm)) if vm else np.inf
    lip = f.lipschitz_const
    bound = L.pmax + LIP_MARGIN
    ok = gd <= c_tol and vm <= c_tol and lip <= bound
    return SelectorReport(max_graph_distance=gd, max_value_mismatch=vm,
                          lipschitz_const=lip, lipschitz_bound=bound,
                          checked_points=int(np.sum(mask)), ok=ok)


# ---------------------------------------------------------------------------
# generalized selectors


@dataclass(frozen=True)
class GeneralizedReport:
    hull_distance_max: float
    extremal_value_gap_max: float
    n_extremal_checked: int
    ok: bool

    def __bool__(self):
        return self.ok


def generalized_selector(seq, grid_size=512):
    """Limit of per-level selectors of an approximating sequence.

    Each level contributes its graph selector; the sequence must be Cauchy
    at CONV_TOL.  The limit is verified against the fiberwise
    convexification of the limit Lagrangian: the selector's differential
    lies in the fiber hull [min p, max p] at differentiability points, and
    wherever it is extremal (within DIST_TOL of min p or max p) the selector
    value matches the primitive there.  A mollified entry has one sheet, so
    kinks show as curvature, not as provenance or a per-cell slope jump.
    """
    sels = [graph_selector(entry, grid_size) for entry in seq.entries]
    sups = np.array([float(np.max(np.abs(sels[i + 1].values - sels[i].values)))
                     for i in range(len(sels) - 1)])
    if sups.size and sups[-1] > CONV_TOL:
        raise RuntimeError(
            f"selector sequence is not Cauchy at {CONV_TOL}: gaps {sups}")

    f = sels[-1]
    fibers = fiber_sweep(seq.limit, f.q_grid)

    n = f.q_grid.size
    h = 1.0 / n
    vals = f.values
    df = (np.roll(vals, -1) - np.roll(vals, 1)) / (2 * h)
    d2 = np.abs(np.roll(vals, -1) + np.roll(vals, 1) - 2 * vals) / h ** 2
    smooth = d2 < 10.0 * median(d2) + 1e3 * h
    hull_d = 0.0
    gap = 0.0
    n_ext = 0
    for j in range(n):
        if not smooth[j] or len(fibers[j]) == 0:
            continue
        p, dfj = fibers[j].p, df[j]
        lo, hi = p.min(), p.max()
        hull_d = max(hull_d, float(max(0.0, lo - dfj, dfj - hi)))
        # the extremal points of the hull are the momenta equal to lo or hi
        if min(abs(lo - dfj), abs(hi - dfj)) <= DIST_TOL:
            i = int(np.argmin(np.abs(p - dfj)))
            gap = max(gap, abs(vals[j] - fibers[j].h[i]))
            n_ext += 1
    report = GeneralizedReport(hull_distance_max=hull_d,
                               extremal_value_gap_max=gap,
                               n_extremal_checked=n_ext,
                               ok=hull_d <= DIST_TOL and gap <= C_TOL)
    return f, report


def dump_selector(f, path):
    """Write rows `q f provenance lip_local` as decimal text."""
    lip_local = f.local_lipschitz
    with open(path, "w") as fh:
        fh.write("# q f provenance lip_local\n")
        for j in range(f.q_grid.size):
            fh.write(f"{f.q_grid[j]:.12g} {f.values[j]:.17g} "
                     f"{f.provenance[j]} {lip_local[j]:.12g}\n")
