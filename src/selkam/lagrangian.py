"""Exact Lagrangian representations with Liouville primitives.

An exact Lagrangian is a closed sampled curve t -> (q(t), p(t)) in T*T^1
with an unwrapped base lift and a primitive S satisfying dS = p dq along the
curve; there is no T^2 representation.  The stored primitive is anchored
to S = 0 at the first sample; ``s_offset`` records the raw value there (the
potential, or for a flowed curve the action transported along the anchor's
trajectory) so selector pipelines can undo the normalization.
"""

from dataclasses import dataclass, field

import numpy as np

from . import hamcore
from .torus import PeriodicCubic, unwrap_closed, wrap

__all__ = [
    "ExactLagrangian",
    "ApproxSequence",
    "ExactnessReport",
    "ExactnessError",
    "SpectralFun",
    "from_graph",
    "from_flow",
    "from_parametric",
    "verify_exactness",
    "mollify_sequence",
    "line_integral_check",
    "save_lagrangian",
    "load_lagrangian",
]

MIN_GRID = 64
EXACTNESS_TOL = 1e-6          # from_flow's refinement budget, scaled by arc length
EPS_ARC_FRACTION = 1.0 / 1024
RESAMPLE_MAX_ROUNDS = 48
RESAMPLE_BUDGET = 400_000
SPLIT_WIDTH = 4e-16           # narrowest parameter interval that is split
SPECULATE_MAX_DEPTH = 6       # dyadic levels shot ahead per bad interval


class ExactnessError(ValueError):
    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class SpectralFun:
    """Trigonometric interpolant of a smooth periodic function from samples."""

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        c = np.fft.rfft(samples) / n
        keep = np.abs(c) > 1e-14 * max(1.0, np.max(np.abs(c)))
        keep[0] = True
        self.k = np.nonzero(keep)[0]
        self.c = c[self.k]
        # real-series weights: interior modes count twice, Nyquist once
        w = np.full(self.k.shape, 2.0)
        w[self.k == 0] = 1.0
        if n % 2 == 0:
            w[self.k == n // 2] = 1.0
        self.w = w
        self.n = n

    # Sums over the mode axis rather than matrix products: `@` takes a dot
    # for one point and gemv for several, which round differently, and a
    # point's value must not depend on the batch it is evaluated in.

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        ph = 2 * np.pi * np.multiply.outer(x, self.k)
        return np.sum(np.cos(ph) * (self.w * self.c.real)
                      - np.sin(ph) * (self.w * self.c.imag), axis=-1)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        ph = 2 * np.pi * np.multiply.outer(x, self.k)
        fac = 2 * np.pi * self.k
        return np.sum(-np.sin(ph) * (fac * self.w * self.c.real)
                      - np.cos(ph) * (fac * self.w * self.c.imag), axis=-1)


@dataclass
class ExactLagrangian:
    """Sampled exact Lagrangian with anchored Liouville primitive."""

    kind: str                     # graph | parametric | flowed
    t: np.ndarray                 # (m,) parameters in [0, 1)
    q: np.ndarray                 # (m,) unwrapped lift
    p: np.ndarray
    S: np.ndarray                 # anchored: S[0] = 0
    s_offset: float
    winding: int
    lipschitz_bound: float
    pmax: float
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    def interp_q(self):
        if "q" not in self._cache:
            self._cache["q"] = PeriodicCubic(self.t, self.q, jump=float(self.winding))
        return self._cache["q"]

    def interp_p(self):
        if "p" not in self._cache:
            self._cache["p"] = PeriodicCubic(self.t, self.p)
        return self._cache["p"]

    def arc_length(self):
        return float(np.sum(_phase_gaps(self.q, self.p, self.winding)))

    def primitive_at(self, s):
        """Primitive at arbitrary parameters, quadrature-consistent with S.

        Integrates p dq from the nearest sample node on the left, so values
        at the nodes reproduce the stored S exactly.
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        smod = wrap(s)
        idx = np.searchsorted(self.t, smod, side="right") - 1
        idx = np.clip(idx, 0, self.t.size - 1)
        out = self.S[idx].copy()
        _gauss3_add(out, self.interp_q(), self.interp_p(), self.t[idx], smod)
        return out if out.size != 1 else float(out[0])

    def phase_points(self):
        """Samples as an (m, 2) array [q (wrapped), p]."""
        return np.column_stack([wrap(self.q), self.p])


@dataclass
class ApproxSequence:
    """Equi-Lipschitz approximating sequence converging to a Lipschitz target."""

    entries: list
    equilip_const: float
    limit: dict                   # arrays t, q, p, S of the resampled target
    sup_dists: np.ndarray         # per level, distance to the limit
    consecutive_dists: np.ndarray
    widths: np.ndarray


@dataclass
class ExactnessReport:
    """The exactness measure (``verify_exactness``); ok = residual <= budget.

    residual = sum r_i, budget = sum e_i + rounding floor,
    max_interval_residual = max r_i, loop_residual = |sum G_i|.
    """

    max_interval_residual: float
    loop_residual: float
    arc_length: float
    residual: float
    budget: float
    ok: bool

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# helpers


_GAUSS3_NODES = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_GAUSS3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0


def _gauss3_add(out, fq, fp, t0, t1):
    """Add int p dq over [t0, t1] to ``out`` in place, 3-point Gauss on interpolants."""
    h = t1 - t0
    for x, w in zip(_GAUSS3_NODES, _GAUSS3_WEIGHTS):
        s = 0.5 * (t0 + t1) + 0.5 * h * x
        out += 0.5 * h * w * fp(s) * fq.derivative(s)


def _phase_gaps(q, p, winding):
    """Phase-space distances of consecutive samples, the closing pair last."""
    return np.hypot(np.diff(np.append(q, q[0] + winding)), np.diff(np.append(p, p[0])))


def _segments(t, q, p, winding):
    """(G, e) per parameter interval, the closing one last.

    G is int p dq by Gauss-3 on the interpolants, the rule defining S; the
    sample resolution e = |G - T| compares it with the trapezoid value T.
    """
    fq = PeriodicCubic(t, q, jump=float(winding))
    fp = PeriodicCubic(t, p)
    G = np.zeros(t.size)
    _gauss3_add(G[:-1], fq, fp, t[:-1], t[1:])
    _gauss3_add(G[-1:], fq, fp, t[-1:], t[:1] + 1.0)
    return G, np.abs(G - 0.5 * (p + np.roll(p, -1)) * np.diff(np.append(q, q[0] + winding)))


def _integrate_primitive(G):
    """Anchored primitive S(t) = int p dq along the curve from its Gauss-3 segments G."""
    return np.concatenate([[0.0], np.cumsum(G[:-1])])


def _exactness(S, G, e, arc_length):
    """The exactness measure (``verify_exactness``) of primitive S on segments (G, e).

    The rounding floor is four ulps of sum (|S| + |G|): each r_i is read off
    two stored S values and a G, each rounded once at least.
    """
    r = np.abs(np.diff(np.append(S, S[0])) - G)
    residual = float(np.sum(r))
    budget = float(np.sum(e) + 4 * np.finfo(float).eps * (np.sum(np.abs(S)) + np.sum(np.abs(G))))
    return ExactnessReport(
        max_interval_residual=float(np.max(r)), loop_residual=abs(float(np.sum(G))),
        arc_length=arc_length, residual=residual, budget=budget, ok=residual <= budget)


def _require_exact(rep, what):
    """Raise ExactnessError naming ``what`` and both sums unless ``rep`` passes."""
    if not rep.ok:
        raise ExactnessError(f"{what} is not exact: sum |dS - G| exceeds its budget "
                             f"sum |G - T| + rounding = {rep.budget:.3e}", rep.residual)


def _lipschitz_of_samples(t, arrays, winding_jumps):
    """Max difference quotient over consecutive samples (closed)."""
    dt = np.diff(np.append(t, t[0] + 1.0))
    worst = 0.0
    for arr, jump in zip(arrays, winding_jumps):
        d = np.diff(np.append(arr, arr[0] + jump))
        worst = max(worst, float(np.max(np.abs(d) / dt)))
    return worst


def _as_curve_arrays(target):
    if isinstance(target, ExactLagrangian):
        return target.t, target.q, target.p, target.S, target.winding
    t, q, p, S = (np.asarray(a, dtype=float) for a in target)
    lift, winding = unwrap_closed(q)
    return t, lift, p, S, winding


# ---------------------------------------------------------------------------
# constructors


def from_graph(v):
    """Graph of dv over T^1 with primitive v (anchored).

    ``v`` is a uniform periodic sample array of N >= 64 values; a 2-d array
    (a graph over T^2) raises NotImplementedError.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 2:
        raise NotImplementedError("from_graph builds graphs over T^1 only, not dim 2")
    if v.ndim != 1 or v.size < MIN_GRID:
        raise ValueError(f"need at least {MIN_GRID} samples")
    n = v.size
    t = np.arange(n) / n
    p = SpectralFun(v).derivative(t)
    lip = _lipschitz_of_samples(t, [t, p], [1.0, 0.0])
    return ExactLagrangian(
        kind="graph", t=t, q=t.copy(), p=p, S=v - v[0],
        s_offset=float(v[0]), winding=1, lipschitz_bound=lip,
        pmax=float(np.max(np.abs(p))), meta={"v_samples": v.copy()})


def _shoot(H, vf, dt, steps, starts):
    """Flow the graph of dv from the start parameters: (q, p).

    Each row's floats depend on its own start only, never on its batchmates,
    so a row shot in any batch is the row any other batch would give.
    """
    return hamcore.integrate(H, starts, vf.derivative(starts), dt, steps)


def _dyadic_points(lo, hi, depth):
    """Midpoints of [lo, hi] and their dyadic descendants, ``depth`` levels deep.

    Computed as the refinement computes them, one halving at a time, and
    only inside intervals wider than SPLIT_WIDTH, which the refinement
    would refuse to split.
    """
    levels = []
    while lo.size:
        mid = 0.5 * (lo + hi)
        levels.append(mid)
        deeper = depth > 1
        lo = np.concatenate([lo[deeper], mid[deeper]])
        hi = np.concatenate([mid[deeper], hi[deeper]])
        depth = np.tile(depth[deeper] - 1, 2)
        split = hi - lo > SPLIT_WIDTH
        lo, hi, depth = lo[split], hi[split], depth[split]
    return np.concatenate(levels)


def from_flow(v, H, T, steps, initial_samples=4096):
    """Image of the graph of dv under the time-T Hamiltonian flow (dim 1).

    The stored S is the curve integral of p dq along the final samples
    (anchored).  The action p . H_p - H is accumulated along the anchor's
    trajectory only: v(0) plus that action is kept as ``s_offset``.

    Sampling is refined in rounds, each splitting every bad parameter
    interval at its midpoint: a density pass until consecutive phase-space
    gaps are below 1/1024 of the total length, then an exactness pass until
    each interval's cubic and trapezoid p dq agree within a quarter of the
    exactness budget.  The rounds shoot speculatively: a bad interval whose
    midpoint has no trajectory yet is shot together with its dyadic
    descendants, as deep as its miss predicts (at most SPECULATE_MAX_DEPTH
    levels), in one ``integrate`` batch.  The rounds then read the
    midpoints they ask for from those shots and drop the rest; since a
    trajectory does not depend on its batchmates, samples, rounds and
    errors are those of shooting the midpoints alone.  A pass that needs
    more than RESAMPLE_MAX_ROUNDS rounds or more than RESAMPLE_BUDGET
    samples raises, naming the pass and the limit.  A flowed curve that
    fails the exactness measure (``verify_exactness``) raises
    ExactnessError.

    ``meta`` records the rounds of each pass (``density_rounds``,
    ``exactness_rounds``), the ``integrate_calls`` (the anchor's included),
    the ``rows_shot`` and the ``rows_used`` (the samples, curve rows that
    were kept).
    """
    if H.dim != 1:
        raise NotImplementedError("flowed Lagrangians are built over T^1 only")
    if T < 0:
        raise ValueError("T must be >= 0")
    v = np.asarray(v, dtype=float)
    if v.size < MIN_GRID:
        raise ValueError(f"need at least {MIN_GRID} samples")
    vf = SpectralFun(v)

    if T == 0:
        n = max(v.size, 1024)
        t = np.arange(n) / n
        p = vf.derivative(t)
        lip = _lipschitz_of_samples(t, [t, p], [1.0, 0.0])
        return ExactLagrangian(
            kind="flowed", t=t, q=t.copy(), p=p, S=vf(t) - vf(0.0),
            s_offset=float(vf(np.array([0.0]))[0]), winding=1,
            lipschitz_bound=lip, pmax=float(np.max(np.abs(p))),
            meta={"H": H, "T": 0.0, "steps": 0, "v_samples": v.copy()})

    dt = T / steps
    t = np.arange(initial_samples) / initial_samples
    Q, P = _shoot(H, vf, dt, steps, t)
    # the action is needed along the anchor's trajectory only, from t = 0
    act = hamcore.integrate(H, t[:1], vf.derivative(t[:1]), dt, steps,
                            accumulate_action=True)[2]
    s_offset = float(vf(t[:1])[0] + act[0])
    stats = {"integrate_calls": 2, "rows_shot": t.size, "rows_used": t.size}
    shot = {}                 # wrapped start parameter -> its (q, p)

    def refine(t, Q, P, bad, depth, stage):
        tc = np.append(t, t[0] + 1.0)
        lo, hi = tc[bad], tc[bad + 1]
        if not np.all(hi - lo > SPLIT_WIDTH):
            # the hyperbolic stretching has outrun double precision: the
            # offending parameter intervals cannot be subdivided further
            raise RuntimeError(
                "flowed curve cannot be resolved in double precision "
                f"(exp stretching ~ e^(lambda T) too large for T = {T})")
        mids = 0.5 * (lo + hi)
        starts = wrap(mids).tolist()
        miss = np.array([s not in shot for s in starts])
        if np.any(miss):
            ahead = np.sort(wrap(_dyadic_points(
                lo[miss], hi[miss], np.minimum(depth[miss], SPECULATE_MAX_DEPTH))))
            # distinct starts by sort and diff (np.unique loads numpy.ma)
            ahead = ahead[np.append(True, np.diff(ahead) > 0)]
            ahead = ahead[[s not in shot for s in ahead.tolist()]]
            shot.update(zip(ahead.tolist(), np.column_stack(
                _shoot(H, vf, dt, steps, ahead)).tolist()))
            stats["integrate_calls"] += 1
            stats["rows_shot"] += ahead.size
        Qm, Pm = np.array([shot[s] for s in starts]).T
        stats["rows_used"] += len(starts)
        # lift continuity: a start wrapped past 1 shifts the branch by the winding
        Qm += np.floor(mids)
        t = np.concatenate([t, wrap(mids)])
        order = np.argsort(t)
        if t.size > RESAMPLE_BUDGET:
            raise RuntimeError(
                f"{stage} pass exceeded the sample budget RESAMPLE_BUDGET = "
                f"{RESAMPLE_BUDGET} while resolving the flowed curve")
        return t[order], np.concatenate([Q, Qm])[order], np.concatenate([P, Pm])[order]

    # the two passes' criteria, read off the current samples t, Q, P:
    # the bad intervals and how many halvings each is predicted to need

    def density():
        """Uniform phase-space density at the arc-length bound."""
        ds = _phase_gaps(Q, P, 1)
        eps = EPS_ARC_FRACTION * float(np.sum(ds))
        bad = np.nonzero(ds > eps)[0]
        # each halving halves the gap
        return bad, np.ceil(np.log2(ds[bad] / eps)).astype(int) + 1

    def exactness():
        """Curvature control so the exactness budget holds per interval."""
        nonlocal G, e
        budget = 0.25 * EXACTNESS_TOL * max(float(np.sum(_phase_gaps(Q, P, 1))), 1.0)
        G, e = _segments(t, Q, P, 1)
        bad = np.nonzero(e > budget)[0]
        bad = bad[bad < t.size - 1]  # closing interval handled by density pass
        # the quadrature gap shrinks with the cube of the width
        return bad, np.ceil(np.log2(e[bad] / budget) / 3).astype(int) + 1

    G = e = None              # the exactness criterion's segments of the current samples
    for stage, criterion in (("density", density), ("exactness", exactness)):
        for rounds in range(RESAMPLE_MAX_ROUNDS):
            bad, depth = criterion()
            if bad.size == 0:
                break
            t, Q, P = refine(t, Q, P, bad, depth, stage)
        else:
            raise RuntimeError(
                f"{stage} pass did not converge in RESAMPLE_MAX_ROUNDS = "
                f"{RESAMPLE_MAX_ROUNDS} rounds while resolving the flowed curve")
        stats[f"{stage}_rounds"] = rounds

    S = _integrate_primitive(G)
    lip = _lipschitz_of_samples(t, [Q, P], [1.0, 0.0])
    L = ExactLagrangian(
        kind="flowed", t=t, q=Q, p=P, S=S, s_offset=s_offset,
        winding=1, lipschitz_bound=lip, pmax=float(np.max(np.abs(P))),
        meta={"H": H, "T": float(T), "steps": steps,
              "v_samples": v.copy(), "loop_residual": float(np.sum(G)), **stats})
    _require_exact(_exactness(S, G, e, L.arc_length()), "flowed curve")
    return L


def _closed_curve(kind, t, q, p, S=None, what="curve"):
    """Curve of closed samples, refused unless it winds +-1 and is exact.

    An embedded closed curve in the annulus winds 0 or +-1, and one of
    winding 0 bounds a disc of positive area, so it is not exact.  Without
    ``S`` the primitive is integrated along the curve.
    """
    lift, winding = unwrap_closed(q)
    if abs(winding) != 1:
        raise ValueError(f"curve has winding {winding}; an exact Lagrangian "
                         "curve in T*T^1 winds +-1")
    if S is None:
        S = _integrate_primitive(_segments(t, lift, p, winding)[0])
    L = ExactLagrangian(
        kind=kind, t=t, q=lift, p=p, S=S, s_offset=0.0, winding=winding,
        lipschitz_bound=_lipschitz_of_samples(t, [lift, p], [float(winding), 0.0]),
        pmax=float(np.max(np.abs(p))), meta={})
    _require_exact(verify_exactness(L), what)
    return L


def from_parametric(t, q, p):
    """Closed sampled curve (t, q(t), p(t)); primitive by line integration.

    Rejects curves whose winding is not +-1 (``_closed_curve``) and, with
    ExactnessError, curves that fail the exactness measure
    (``verify_exactness``): S sums the Gauss-3 segments, so this bounds the
    loop integral of p dq by the sample resolution.
    """
    return _closed_curve("parametric", *(np.asarray(a, dtype=float) for a in (t, q, p)))


# ---------------------------------------------------------------------------
# verification


def verify_exactness(L):
    """ExactnessReport of dS = p dq on the samples.

    Dim 1, the measure the constructors, ``mollify_sequence`` and
    ``load_lagrangian`` apply: per parameter interval i, the closing one
    included, r_i = |Delta S_i - G_i| with G_i the Gauss-3 int p dq on the
    interpolants (the rule defining S), and the sample resolution
    e_i = |G_i - T_i| against the trapezoid value.  The curve passes when
    sum r_i <= sum e_i plus a rounding floor.  A shifted S node fails, and
    so does a loop integral of p dq above sum e_i; a smaller one cannot be
    resolved.
    """
    return _exactness(L.S, *_segments(L.t, L.q, L.p, L.winding), L.arc_length())


def _theta_integral(L, a, b):
    """int p dq over the parameter range [a, b], knot-aligned Gauss-2.

    The sample knots carry the adaptive resolution of the curve, so the
    quadrature is split at every knot; Gauss-2 keeps this independent of
    the Gauss-3 rule that defines the stored primitive.
    """
    fq, fp = L.interp_q(), L.interp_p()
    # split points: a, every interior knot (tiled across windings), b
    lo, hi = (a, b) if a <= b else (b, a)
    knots = []
    base = np.floor(lo)
    k = base
    while k <= np.ceil(hi):
        knots.append(L.t + k)
        k += 1
    knots = np.concatenate(knots)
    knots = knots[(knots > lo) & (knots < hi)]
    pts = np.concatenate([[lo], knots, [hi]])
    s0, s1 = pts[:-1], pts[1:]
    h = s1 - s0
    nodes = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    total = 0.0
    for x in nodes:
        s = 0.5 * (s0 + s1) + 0.5 * h * x
        total += float(np.sum(0.5 * h * fp(s) * fq.derivative(s)))
    return total if a <= b else -total


def line_integral_check(L, curve):
    """|int_{iota(c)} p dq - (S(c_1) - S(c_0))| for a parameter-space path.

    ``curve`` is an array of parameter waypoints (a piecewise linear path,
    possibly non-monotone).
    """
    c = np.asarray(curve, dtype=float)
    theta = sum(_theta_integral(L, c[i], c[i + 1]) for i in range(c.size - 1))
    dS = float(L.primitive_at(c[-1]) - L.primitive_at(c[0]))
    return abs(theta - dS)


# ---------------------------------------------------------------------------
# approximating sequences


def _smooth_periodic(values, width):
    """Convolve with a wrapped Gaussian of the given width (unit period)."""
    n = values.size
    k = np.fft.rfftfreq(n, d=1.0 / n)
    damp = np.exp(-0.5 * (2 * np.pi * k * width) ** 2)
    return np.fft.irfft(np.fft.rfft(values) * damp, n)


def mollify_sequence(target, levels=4, base_width=1.0 / 16, resample=4096):
    """Equi-Lipschitz smoothings of a Lipschitz curve, widths halving per level.

    A target that fails the exactness measure (``verify_exactness``) raises
    ExactnessError.  Each level smooths the parametrization with a periodic
    kernel, restores exactness with an O(width^2) momentum correction that
    cancels the loop integral of p dq, and re-integrates the primitive.
    Certification fails if the per-level Lipschitz constants grow by more
    than a factor 2 over the target's.  The limit is the target resampled,
    its primitive integrated along the resampled curve, so it passes the
    measure too.  T^1 only: a target of 2-d sample arrays raises
    NotImplementedError.
    """
    if not isinstance(target, ExactLagrangian) and np.ndim(target[1]) != 1:
        raise NotImplementedError("mollify_sequence works over T^1 only, not dim 2")
    t, q, p, S, winding = _as_curve_arrays(target)
    ds = _phase_gaps(q, p, winding)
    _require_exact(_exactness(S, *_segments(t, q, p, winding), float(np.sum(ds))),
                   "mollification target")

    # resample at uniform phase-space speed: kernel widths then have a
    # parametrization-independent meaning and the Lipschitz constant is tame
    s = np.concatenate([[0.0], np.cumsum(ds)])
    s /= s[-1]
    tu = np.arange(resample) / resample
    tsrc = np.interp(tu, s, np.append(t, t[0] + 1.0))
    fq = PeriodicCubic(t, q, jump=float(winding))
    fp = PeriodicCubic(t, p)
    qu = fq(tsrc)
    pu = fp(tsrc)
    Su = _integrate_primitive(_segments(tu, qu, pu, winding)[0])
    qper = qu - winding * tu

    lip0 = _lipschitz_of_samples(tu, [qu, pu, Su], [float(winding), 0.0, 0.0])
    entries = []
    widths = base_width * 0.5 ** np.arange(levels)
    sup_dists = []
    for w in widths:
        qk = winding * tu + _smooth_periodic(qper, w)
        pk = _smooth_periodic(pu, w)
        # exactness correction: remove the loop integral along dq
        loop = float(np.sum(_segments(tu, qk, pk, winding)[0]))
        slope = PeriodicCubic(tu, qk, jump=float(winding)).derivative(tu)
        denom = float(np.mean(slope * slope))
        if denom > 1e-12:
            pk = pk - loop * slope / denom
        Sk = _integrate_primitive(_segments(tu, qk, pk, winding)[0])
        lipk = _lipschitz_of_samples(tu, [qk, pk, Sk], [float(winding), 0.0, 0.0])
        if lipk > 2.0 * max(lip0, 1e-12):
            raise RuntimeError(
                f"equi-Lipschitz certification failed: level constant {lipk:.3g} "
                f"exceeds twice the target's {lip0:.3g}")
        entry = ExactLagrangian(
            kind="parametric", t=tu, q=qk, p=pk, S=Sk, s_offset=0.0,
            winding=winding, lipschitz_bound=lipk,
            pmax=float(np.max(np.abs(pk))), meta={"width": float(w)})
        entries.append(entry)
        sup_dists.append(max(float(np.max(np.abs(qk - qu))),
                             float(np.max(np.abs(pk - pu))),
                             float(np.max(np.abs(Sk - Su)))))

    consec = [max(float(np.max(np.abs(entries[i + 1].q - entries[i].q))),
                  float(np.max(np.abs(entries[i + 1].p - entries[i].p))))
              for i in range(len(entries) - 1)]
    lips = [e.lipschitz_bound for e in entries]
    return ApproxSequence(
        entries=entries, equilip_const=float(max(lips + [lip0])),
        limit={"t": tu, "q": qu, "p": pu, "S": Su, "winding": winding},
        sup_dists=np.asarray(sup_dists), consecutive_dists=np.asarray(consec),
        widths=widths)


# ---------------------------------------------------------------------------
# file format: header `dim 1 kind K`, rows `t q p S`


def save_lagrangian(L, path):
    with open(path, "w") as fh:
        fh.write(f"dim 1 kind {L.kind}\n")
        for row in zip(L.t, wrap(L.q), L.p, L.S):
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_lagrangian(path):
    """Read a file written by ``save_lagrangian``.

    Refuses, naming the file, what lies outside the setting: a header whose
    dim is not 1 (a dim-2 file is refused by name), an unknown kind, no rows
    or rows that are not the four columns `t q p S`, a curve whose winding
    is not +-1 (``_closed_curve``) and, with ExactnessError, a curve that
    fails the exactness measure (``verify_exactness``).  A ``flowed`` curve
    comes back as ``parametric``: the file holds its samples, not its flow.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "dim" or header[2] != "kind":
            raise ValueError(f"{path}: malformed Lagrangian file header")
        if header[1] != "1":
            raise ValueError(f"{path} holds a dim {header[1]} Lagrangian; only "
                             "curves in T*T^1 (dim 1) are read")
        kind = header[3]
        if kind not in ("graph", "parametric", "flowed"):
            raise ValueError(f"{path}: unknown kind {kind!r}; expected graph, "
                             "parametric or flowed")
        rows = [line for line in fh if line.split("#")[0].strip()]
    if not rows:
        raise ValueError(f"{path} has no rows after its header; expected rows t q p S")
    data = np.loadtxt(rows, ndmin=2)
    if data.shape[1] != 4:
        raise ValueError(f"{path} has {data.shape[1]} columns; expected 4: t q p S")
    t, q, p, S = data.T
    return _closed_curve("parametric" if kind == "flowed" else kind, t, q, p, S,
                         what=f"curve in {path}")
