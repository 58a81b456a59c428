from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selkam import selector
from selkam.front import FiberData, caustics, fiber_sweep
from selkam.hamcore import parse_hamiltonian
from selkam.lagrangian import (SpectralFun, from_flow, from_graph, from_parametric,
                               mollify_sequence)
from selkam.persistence import connectivity_oracle, sublevel_persistence
from selkam.selector import (ActionKernel, build_discrete_action, generalized_selector,
                             graph_selector, kernel_minimax, spectral_value,
                             verify_selector, dump_selector)
from selkam.torus import median, wrap

GRID = np.arange(256) / 256


def circ(d):
    return np.mod(np.asarray(d) + 0.5, 1.0) - 0.5


@pytest.fixture(scope="module")
def rand_v():
    rng = np.random.default_rng(11)
    v = np.zeros(256)
    for k in range(1, 4):
        a, b = rng.uniform(-0.05, 0.05, 2) / k
        v += a * np.cos(2 * np.pi * k * GRID) + b * np.sin(2 * np.pi * k * GRID)
    return v


@pytest.fixture(scope="module")
def pendulum_actions(pendulum, rand_v, discrete_action):
    """T = 1.5 discrete actions at q = 0.3, one kernel per breakpoint count."""
    return {d: discrete_action(pendulum, rand_v, 1.5, 1500, 0.3, xi_dim=d)
            for d in (1, 2, 3)}


@pytest.mark.parametrize("T", [0.0, -0.5])
def test_discrete_action_refuses_a_nonpositive_horizon(free, rand_v, T, monkeypatch):
    # the refusal names T and comes before any momentum fan is integrated
    fans = []
    monkeypatch.setattr(selector, "_fan_kernel", lambda *args: fans.append(args))
    with pytest.raises(ValueError, match=r"T > 0, got T = "):
        build_discrete_action(free, rand_v, T, 1000, 0.3)
    assert fans == []


def hopf_lax(v, dv, d2v, T, q):
    """min over y of v(y) + (q - y)^2 / (2T), v periodic, at sorted q.

    A scan at 2^16 points a period over every y within reach, refined by
    Newton.  The cost is a Monge array, so the first argmin is
    nondecreasing in q: each query scans only between its neighbours'.
    """
    reach = int(np.ceil(T * np.max(np.abs(dv(GRID))))) + 1
    y = np.arange(-reach * 2 ** 16, (1 + reach) * 2 ** 16) / 2 ** 16
    vy = v(y)
    at = np.empty(q.size, dtype=int)

    def scan(lo, hi, a, b):
        if lo < hi:
            m = (lo + hi) // 2
            at[m] = a + np.argmin(vy[a:b + 1] + (q[m] - y[a:b + 1]) ** 2 / (2 * T))
            scan(lo, m, a, at[m])
            scan(m + 1, hi, at[m], b)

    scan(0, q.size, 0, y.size - 1)
    x = y[at]
    for _ in range(8):
        x = x - (dv(x) - (q - x) / T) / (d2v(x) + 1 / T)
    return v(x) + (q - x) ** 2 / (2 * T)


@pytest.mark.parametrize("T", [1.0, 2.0, 3.0])
def test_free_selector_is_the_hopf_lax_envelope(free, T):
    # for H = p^2/2 the selector of the flowed graph of dv is the Hopf-Lax
    # envelope; this v's front folds, so the pin reaches the fold knots
    w = 2 * np.pi

    def v(x):
        return 0.05 * np.cos(w * x) + 0.015 * np.sin(2 * w * x)

    def dv(x):
        return -0.05 * w * np.sin(w * x) + 0.03 * w * np.cos(2 * w * x)

    def d2v(x):
        return -0.05 * w * w * np.cos(w * x) - 0.06 * w * w * np.sin(2 * w * x)

    L = from_flow(v(GRID), free, T, int(1000 * T), 4096)
    assert len(caustics(L)) == 4
    f = graph_selector(L, 512)
    assert np.max(np.abs(f.values + L.s_offset - hopf_lax(v, dv, d2v, T, f.q_grid))) <= 1e-12


def test_time_zero_kernel_minimax_is_the_graph_selector(pendulum, rand_v):
    # at T = 0 the flowed graph is the graph of dv, whose minimax is v itself
    L = from_flow(rand_v, pendulum, 0.0, steps=1)
    gap = np.abs(kernel_minimax(L, 256) - graph_selector(L, 256).values)
    assert np.max(gap) <= 1e-12


def test_free_particle_spectral_value_scan_oracle(free, rand_v, discrete_action):
    DA = discrete_action(free, rand_v, 1.0, 2000, 0.3)
    lam = spectral_value(DA)
    vf = SpectralFun(rand_v)
    xs = np.arange(200001) / 200001
    oracle = float(np.min(vf(xs) + circ(0.3 - xs) ** 2 / 2.0))
    assert lam == pytest.approx(oracle, abs=5e-5)


def test_free_particle_zero_potential(free, discrete_action):
    # unique critical point: the straight (constant) trajectory, zero action
    # (the floor is the breakpoint quantization of the composed kernel)
    DA = discrete_action(free, np.zeros(256), 1.0, 2000, 0.3)
    assert spectral_value(DA) == pytest.approx(0.0, abs=5e-6)


def test_kernel_build_retries_a_folded_fan_on_half_segments(monkeypatch):
    # 5 cos(2 pi q) folds the tau = 0.25 fan (None: a non-monotone endpoint
    # map); the build halves the segment and composes two tau = 0.125 fans
    taus = []
    inner = selector._fan_kernel

    def spy(H, tau, *args):
        out = inner(H, tau, *args)
        taus.append((tau, out is not None))
        return out

    monkeypatch.setattr(selector, "_fan_kernel", spy)
    H = parse_hamiltonian("p^2/2 + 5*cos(2*pi*q)", 1)
    DA = build_discrete_action(H, np.zeros(256), 0.25, 250, 0.3, lattice_size=256)
    assert taus == [(0.25, False), (0.125, True)]
    assert DA.meta["segments"] == 2 and DA.kernel.tau == 0.25
    assert np.all(np.isfinite(DA.kernel.K)) and np.all(DA.kernel.K < selector.LARGE)


def test_discrete_action_gradient_fd(pendulum_actions):
    rng = np.random.default_rng(0)
    worst = 0.0
    for d, DA in pendulum_actions.items():
        for _ in range(60):
            q = rng.uniform(0, 1)
            xi = rng.uniform(0, 1, d)
            g = DA.gradient(q, xi)
            fd = np.zeros(d)
            h = 1e-6
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                fd[k] = (DA.value(q, xi + e) - DA.value(q, xi - e)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(g - fd) / (1 + np.abs(fd)))))
    assert worst <= 1e-6


def test_patch_is_exact_on_a_free_particle_single_fan(free):
    # off the cut locus the free particle's tau-kernel is d^2 / (2 tau), d
    # the signed gap b - a: a quadratic, which the bicubic Hermite patch on
    # centred differences reproduces
    tau = 0.25
    kernel = build_discrete_action(free, np.zeros(256), tau, 250, 0.3,
                                   lattice_size=256).kernel
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 1, 20000)
    b = wrap(a + rng.uniform(-0.48, 0.48, a.size))
    d = circ(b - a)
    assert np.max(np.abs(kernel.eval(a, b) - d ** 2 / (2 * tau))) <= 1e-11
    assert np.max(np.abs(kernel.eval(a, b, dx=1) + d / tau)) <= 1e-9
    assert np.max(np.abs(kernel.eval(a, b, dy=1) - d / tau)) <= 1e-9


def test_patch_returns_the_kernel_at_the_nodes(pendulum_actions):
    for d in (1, 2):
        kernel = pendulum_actions[d].kernel
        x = kernel.grid
        assert np.array_equal(kernel.eval(x[:, None], x), kernel.K)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_value_matches_the_lattice_at_its_nodes(pendulum_actions, d):
    DA = pendulum_actions[d]
    G = DA.lattice_values()
    n = G.shape[0]
    rng = np.random.default_rng(d)
    for idx in rng.integers(0, n, (50, d)):
        assert DA.value(DA.q, idx / n) == pytest.approx(G[tuple(idx)], abs=1e-12)


def test_spectral_value_matches_oracle_exactly(pendulum_actions):
    # lattices 512 and 64, the default sizes for one and two breakpoints
    for d in (1, 2):
        G = replace(pendulum_actions[d], q=0.25).lattice_values()
        assert sublevel_persistence(G).selected == connectivity_oracle(G).selected


def test_spectral_value_independent_of_breakpoint_count(pendulum_actions):
    # the xi_dim chained kernels split the horizon, so every breakpoint
    # count discretizes the same time-T minimax
    lams = [spectral_value(pendulum_actions[d]) for d in (1, 2)]
    assert abs(lams[0] - lams[1]) <= 1e-3


def test_graph_selector_column_minimum_is_persistence(pendulum, rand_v):
    # the kernel's column minimum equals the union-find essential birth, bit
    # for bit
    L = from_flow(rand_v, pendulum, 0.5, steps=500)
    DA = build_discrete_action(pendulum, rand_v, 0.5, 1000, 0.0, xi_dim=1,
                               lattice_size=256)
    GM = SpectralFun(rand_v)(DA.kernel.grid)[:, None] + DA.kernel.K
    births = np.array([sublevel_persistence(GM[:, j]).selected
                       for j in range(GM.shape[1])])
    assert np.array_equal(kernel_minimax(L, 256), births - L.s_offset)


def test_snap_values_ambiguous_point_takes_lowest_sheet(monkeypatch):
    # point 0: the two lowest sheets 2e-8 apart, flagged, the lowest taken;
    # point 1: well separated, the lowest taken, provenance its t-rank
    spectra = [np.array([-1.91104037, -1.91104035, 0.5]), np.array([0.1, 0.3])]
    params = [np.array([0.7, 0.2, 0.4]), np.array([0.9, 0.3])]
    fibers = [FiberData(q=j / 2, t=t, p=np.zeros(t.size), h=h, transverse=True,
                        cerf_regular=True)
              for j, (t, h) in enumerate(zip(params, spectra))]
    monkeypatch.setattr(selector, "fiber_sweep", lambda L, q: fibers)
    curve = SimpleNamespace(meta={}, pmax=1.0, s_offset=0.0)
    sf = graph_selector(curve, 2, snap_tol=1e-4)
    assert sf.values.tolist() == [-1.91104037, 0.1]
    assert sf.flags.tolist() == [True, False]
    assert sf.provenance.tolist() == [-1, 1]


def test_graph_selector_refuses_non_tonelli():
    # the envelope is the minimax selector only for Tonelli H
    H = parse_hamiltonian("-p^2/2 + cos(2*pi*q)", 1)
    L = from_flow(0.1 * np.sin(2 * np.pi * GRID), H, 0.0, steps=1)
    with pytest.raises(ValueError, match="Tonelli"):
        graph_selector(L, 256)


def test_graph_selector_names_a_jumping_envelope_off_tonelli_images():
    # the free flow's image with p reversed is the image of the graph of -dv
    # under the concave H = -p^2/2: exact, but no Tonelli image.  Its lower
    # envelope jumps, although the paper proves that a selector exists
    free = parse_hamiltonian("p^2/2", 1)
    L = from_flow(0.1 * np.sin(2 * np.pi * GRID), free, 1.0, steps=200)
    R = from_parametric(L.t, wrap(L.q), -L.p)
    with pytest.raises(RuntimeError, match="no continuous section"):
        graph_selector(R, 256)


def test_spectral_refinement_validation(pendulum, rand_v):
    DA = build_discrete_action(pendulum, rand_v, 0.5, 500, 0.7, xi_dim=1)
    lam = spectral_value(DA)
    assert np.isfinite(lam)


def test_a_narrow_fan_is_widened_until_no_minimizer_uses_its_edge(free):
    # a deep well opposite q: at p_bound 2.05 every cell is reachable, but
    # minimizers of the kernel leave at the fan edge; one widening (x1.6)
    # holds them all, and the value is the one a fan twice as wide gives
    v = 5.0 * np.sin(2 * np.pi * GRID)
    DA = build_discrete_action(free, v, 0.25, 250, 0.253, lattice_size=256,
                               p_bound=2.05)
    assert DA.kernel.p_bound == 2.05 * 1.6
    assert not DA.kernel.edge.any()
    wide = build_discrete_action(free, v, 0.25, 250, 0.253, lattice_size=256,
                                 p_bound=4.1)
    assert spectral_value(DA) == pytest.approx(spectral_value(wide), abs=1e-12)


def test_kernel_build_names_the_last_fan_width(free, monkeypatch):
    # a fan whose minimizers always use its edge: 3 widenings per segment
    # length and 4 halvings, then a refusal naming both causes and the
    # last width tried
    fans = []

    def edge_fan(H, tau, n_grid, p_bound, dt_target):
        fans.append((tau, p_bound))
        zeros = np.zeros((4, 4))
        return ActionKernel(tau=tau, grid=np.arange(4) / 4, K=zeros, p_start=zeros,
                            p_end=zeros, edge=np.ones((4, 4), dtype=bool),
                            p_bound=p_bound)

    monkeypatch.setattr(selector, "_fan_kernel", edge_fan)
    with pytest.raises(RuntimeError) as exc:
        build_discrete_action(free, np.zeros(256), 0.5, 500, 0.3, p_bound=2.0)
    taus, widths = zip(*fans)
    assert taus == tuple(0.5 / 2 ** (1 + k // 3) for k in range(12))
    assert widths == pytest.approx([2.0 * 1.6 ** k for k in range(12)], rel=1e-12)
    message = str(exc.value)
    assert "unreachable cells or edge minimizers" in message
    assert "folded endpoint map" in message
    assert f"p_bound {widths[-1]:.6g}" in message


def test_graph_selector_trivial_graph(pendulum):
    v = 0.1 * np.sin(2 * np.pi * GRID)
    L = from_flow(v, pendulum, 0.0, steps=1)
    sf = graph_selector(L, 512)
    vf = SpectralFun(v)
    expected = vf(sf.q_grid) - vf(np.array([0.0]))[0]
    assert np.max(np.abs(sf.values - expected)) <= 1e-6
    assert verify_selector(sf, L).ok


def test_whorl_selector_properties(whorl, whorl_selector):
    sf = whorl_selector
    # tightness: every value sits on the fiber spectrum
    fibers = fiber_sweep(whorl, sf.q_grid)
    worst = max(float(np.min(np.abs(fd.h - val))) if fd.h.size else np.inf
                for fd, val in zip(fibers, sf.values))
    assert worst <= 1e-4
    # Lipschitz certificate
    assert sf.lipschitz_const <= whorl.pmax + 1e-2
    # transitions only at Maxwell points: genuine sheet switches show up as
    # derivative kinks (provenance ranks also relabel at folds, value-smoothly)
    n = sf.q_grid.size
    df = (np.roll(sf.values, -1) - np.roll(sf.values, 1)) * n / 2
    kinks = np.nonzero(np.abs(np.roll(df, -1) - df) > 0.25)[0]
    assert kinks.size > 0
    # two sheets' slopes differ by at most 2 pmax, so within a grid step of a
    # crossing the two lowest members differ by at most 2 pmax / n
    gap = np.array([f.h[1] - f.h[0] if len(f) > 1 else np.inf for f in sf.fibers])
    maxwell = np.nonzero(gap <= whorl.pmax / 256)[0]
    assert maxwell.size > 0
    for j in kinks:
        d = np.abs(j - maxwell)
        assert np.min(np.minimum(d, n - d)) <= 2
    rep = verify_selector(sf, whorl)
    assert rep.ok
    assert rep.max_graph_distance <= 1e-3
    assert rep.max_value_mismatch <= 1e-3


def test_verify_selector_checks_off_the_switch_and_fold_collars(whorl, whorl_selector):
    # the checked set is read from the selector's own switch points (provenance
    # changes) and L's folds, less the flagged points
    sf = whorl_selector
    n = sf.q_grid.size
    switches = np.flatnonzero(np.roll(sf.provenance, -1) != sf.provenance)
    centres = np.concatenate([switches, switches + 1,
                              np.round(caustics(whorl).q * n).astype(int)])
    off = np.zeros(n, dtype=bool)
    off[(centres[:, None] + np.arange(-selector.COLLAR, selector.COLLAR + 1)) % n] = True
    rep = verify_selector(sf, whorl)
    assert rep.ok
    assert rep.checked_points == np.sum(~off & ~sf.flags) == 445


def test_selector_refinement_stability(whorl, whorl_selector):
    # doubling the base grid moves the selector by at most a grid-step scale
    f256 = graph_selector(whorl, 256)
    f512 = whorl_selector
    diff = float(np.max(np.abs(f512.values[::2] - f256.values)))
    assert diff <= 4.0 * whorl.pmax / 256


def test_selector_smooth_sheet_locality(whorl_selector):
    # on a caustic-free, crossing-free interval the provenance is constant
    sf = whorl_selector
    window = (sf.q_grid > 0.425) & (sf.q_grid < 0.49)
    assert len(set(sf.provenance[window].tolist())) == 1


def test_verify_selector_flags_corruption(whorl, whorl_selector):
    sf = whorl_selector
    bad = np.array(sf.values)
    bad[150:200] += 0.1
    rep = verify_selector(replace(sf, values=bad), whorl)
    assert not rep.ok
    # both checks fail: the values leave the front, and a 0.1 jump over a
    # grid step of 1/512 is a slope of about 51
    assert rep.max_value_mismatch >= 0.05
    assert rep.lipschitz_const > rep.lipschitz_bound


def test_a_replaced_selector_reports_its_own_lipschitz_const(whorl_selector):
    sf = whorl_selector
    bad = np.array(sf.values)
    bad[150:200] += 0.1
    got = replace(sf, values=bad).lipschitz_const
    # on 512 points every neighbour distance is exactly 1/512
    assert got == float(np.max(np.abs(np.diff(np.append(bad, bad[0]))))) * 512
    assert got > 45.0 > sf.lipschitz_const


def all_pairs_lipschitz(q_grid, values):
    """Reference: the max difference quotient over all grid pairs, flat-torus metric."""
    dq = np.abs(q_grid[:, None] - q_grid[None, :])
    dq = np.minimum(dq, 1.0 - dq)
    df = np.abs(values[:, None] - values[None, :])
    mask = dq > 0
    return float(np.max(df[mask] / dq[mask]))


def test_lipschitz_const_is_the_all_pairs_quotient_on_the_whorl(whorl_selector):
    sf = whorl_selector
    assert sf.lipschitz_const == all_pairs_lipschitz(sf.q_grid, sf.values)


@st.composite
def grid_values(draw):
    n = draw(st.integers(2, 700))
    q = np.arange(n) / n
    kind = draw(st.sampled_from(["free", "ties", "ramp"]))
    if kind == "free":
        values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    elif kind == "ties":
        values = draw(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
                               min_size=n, max_size=n))
    else:
        # a smooth profile: here far pairs can round above the neighbours
        a, b, c = (draw(st.floats(-50, 50)) for _ in range(3))
        values = a * q + b * np.sin(2 * np.pi * q) + c * np.minimum(q, 1.0 - q)
    return q, np.asarray(values, dtype=float)


@settings(max_examples=300, deadline=None)
@given(grid_values())
def test_lipschitz_const_is_the_all_pairs_quotient(grid):
    # The neighbour pairs are among all pairs and round the same way there,
    # so the neighbour max is never above the all-pairs max.  In exact
    # arithmetic the two are equal (the shorter arc passes through
    # neighbours only).  In floats every neighbour distance of arange(n)/n
    # is exact, but a far pair's distance rounds by up to eps/4 over an arc
    # of at least 2/n, so the all-pairs max may exceed the neighbour max by
    # rounding: n/8 ulps, plus a few for the differences and the quotient.
    q, values = grid
    sf = selector.SelectorFunction(q_grid=q, values=values,
                                   provenance=np.zeros(q.size, dtype=int), fibers=[])
    reference = all_pairs_lipschitz(q, values)
    assert sf.lipschitz_const <= reference
    assert reference <= sf.lipschitz_const * (1.0 + (q.size + 8) * np.finfo(float).eps)
    if q.size & (q.size - 1) == 0 and np.all(values == np.round(values * 4) / 4):
        # dyadic grid and quarter-integer values: every difference is exact,
        # and rounding the quotients keeps their order
        assert sf.lipschitz_const == reference


def test_selector_from_front_graph():
    v = 0.1 * np.sin(2 * np.pi * GRID)
    L = from_graph(v)
    sf = graph_selector(L, 512)
    vf = SpectralFun(v)
    expected = vf(sf.q_grid) - vf(np.array([0.0]))[0]
    assert np.max(np.abs(sf.values - expected)) <= 1e-6


def test_selector_from_front_matches_minimax(whorl, whorl_selector):
    # the envelope is the kernel minimax wherever one sheet is lowest
    sf = whorl_selector
    gap = np.abs(kernel_minimax(whorl, 512) - sf.values)
    assert np.max(gap[~sf.flags]) <= 1e-4


def test_generalized_selector_graph_sequence(pendulum):
    v = 0.1 * np.sin(2 * np.pi * GRID)
    L = from_graph(v)
    seq = mollify_sequence(L, levels=4, base_width=1.0 / 64)
    f, rep = generalized_selector(seq, 512)
    vf = SpectralFun(v)
    expected = vf(f.q_grid) - vf(np.array([0.0]))[0]
    assert np.max(np.abs(f.values - expected)) <= 5e-3
    assert rep.ok


def test_generalized_selector_mollified_whorl(whorl_mid):
    seq = mollify_sequence(whorl_mid, levels=5, base_width=1.0 / 128,
                           resample=8192)
    f, rep = generalized_selector(seq, 512)
    assert rep.ok
    assert rep.hull_distance_max <= 1e-3
    assert rep.extremal_value_gap_max <= 1e-3
    sf = graph_selector(whorl_mid, 512)
    assert np.max(np.abs(f.values - sf.values)) <= 1e-3


class _FiberHull:
    """Reference convex hull of one fiber's momenta, with extremal flags."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        lo, hi = float(np.min(self.points)), float(np.max(self.points))
        self.hull = np.array([lo, hi])
        self.extremal = (self.points == lo) | (self.points == hi)

    def distance(self, p):
        lo, hi = self.hull
        return float(max(0.0, lo - p, p - hi))

    def extremal_distance(self, p):
        return float(np.min(np.abs(self.points[self.extremal] - p)))


def _reference_hull_check(seq, f):
    """(hull distance, extremal value gap, extremal count) of selector f against
    the fiber hulls of seq's limit, one ``_FiberHull`` per grid point."""
    fibers = fiber_sweep(seq.limit, f.q_grid)
    n = f.q_grid.size
    h = 1.0 / n
    vals = f.values
    df = (np.roll(vals, -1) - np.roll(vals, 1)) / (2 * h)
    d2 = np.abs(np.roll(vals, -1) + np.roll(vals, 1) - 2 * vals) / h ** 2
    smooth = d2 < 10.0 * median(d2) + 1e3 * h
    hull_d, gap, n_ext = 0.0, 0.0, 0
    for j in range(n):
        if not smooth[j] or len(fibers[j]) == 0:
            continue
        fh = _FiberHull(fibers[j].p)
        hull_d = max(hull_d, fh.distance(df[j]))
        if fh.extremal_distance(df[j]) <= selector.DIST_TOL:
            i = int(np.argmin(np.abs(fibers[j].p - df[j])))
            gap = max(gap, abs(vals[j] - fibers[j].h[i]))
            n_ext += 1
    return hull_d, gap, n_ext


@pytest.mark.parametrize("case", ["graph sequence", "mollified whorl"])
def test_generalized_selector_matches_the_per_point_hull(case, whorl_mid):
    if case == "graph sequence":
        seq = mollify_sequence(from_graph(0.1 * np.sin(2 * np.pi * GRID)), levels=4,
                               base_width=1.0 / 64)
    else:
        seq = mollify_sequence(whorl_mid, levels=5, base_width=1.0 / 128,
                               resample=8192)
    f, rep = generalized_selector(seq, 512)
    got = (rep.hull_distance_max, rep.extremal_value_gap_max, rep.n_extremal_checked)
    want = _reference_hull_check(seq, f)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def test_dump_selector(tmp_path, pendulum):
    L = from_flow(0.05 * np.sin(2 * np.pi * GRID), pendulum, 0.0, steps=1)
    sf = graph_selector(L, 512)
    path = tmp_path / "sel.txt"
    dump_selector(sf, path)
    data = np.loadtxt(path, ndmin=2)
    assert data.shape == (512, 4)
