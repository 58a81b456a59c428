import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selkam import lagrangian
from selkam.hamcore import integrate
from selkam.lagrangian import (ExactnessError, SpectralFun, _shoot, from_flow,
                               from_graph, from_parametric, line_integral_check,
                               load_lagrangian, mollify_sequence,
                               save_lagrangian, verify_exactness)

GRID = np.arange(256) / 256


def random_potential(rng, modes=3, amp=0.05):
    """Criterion 1's initial potentials: Fourier modes uniform in +-amp/k."""
    v = np.zeros(256)
    for k in range(1, modes + 1):
        a, b = rng.uniform(-amp, amp, 2) / k
        v += a * np.cos(2 * np.pi * k * GRID) + b * np.sin(2 * np.pi * k * GRID)
    return v


def scan_multiplicity(L, q, n=4096):
    """Independent fiber-count oracle: dense arc-length-uniform scan.

    Scanning uniformly in the raw parameter is blind where the flow
    compresses it; uniform phase-space speed resolves every crossing.
    """
    dq = np.diff(np.append(L.q, L.q[0] + L.winding))
    dp = np.diff(np.append(L.p, L.p[0]))
    s = np.concatenate([[0.0], np.cumsum(np.hypot(dq, dp))])
    s /= s[-1]
    ts = np.interp(np.arange(n) / n, s, np.append(L.t, L.t[0] + 1.0))
    Q = L.interp_q()(ts)
    count = 0
    for k in range(int(np.floor(Q.min() - q)) - 1, int(np.ceil(Q.max() - q)) + 1):
        d = Q - (q + k)
        count += int(np.sum(d[:-1] * d[1:] < 0))
    return count


def test_from_graph_zero_section():
    L = from_graph(np.zeros(128))
    assert L.pmax == 0.0 and np.all(L.S == 0.0)
    assert verify_exactness(L).ok


def test_from_graph_sine():
    v = 0.1 * np.sin(2 * np.pi * GRID)
    L = from_graph(v)
    assert L.p[0] == pytest.approx(0.2 * np.pi, abs=1e-10)
    rep = verify_exactness(L)
    assert rep.loop_residual <= 1e-10 and rep.ok
    # h at (q=0.25, p=0) is v(0.25) - v(0) = 0.1 in the anchored frame
    idx = np.argmin(np.abs(L.t - 0.25))
    assert L.S[idx] == pytest.approx(0.1, abs=1e-9)


def test_from_graph_too_coarse():
    with pytest.raises(ValueError, match="64"):
        from_graph(np.zeros(32))


def test_from_parametric_antiderivative_oracle():
    t = np.arange(512) / 512
    L = from_parametric(t, t, np.sin(2 * np.pi * t))
    oracle = (1 - np.cos(2 * np.pi * t)) / (2 * np.pi)
    assert np.max(np.abs(L.S - oracle)) <= 1e-8


def test_from_parametric_rejects_nonexact():
    t = np.arange(512) / 512
    with pytest.raises(ExactnessError) as exc:
        from_parametric(t, t, np.ones_like(t))
    assert exc.value.residual == pytest.approx(1.0, abs=1e-12)


def test_from_parametric_zero_loop():
    t = np.arange(512) / 512
    L = from_parametric(t, t, np.zeros_like(t))
    assert np.all(L.S == 0.0)


def test_from_flow_time_zero_is_graph(pendulum):
    v = 0.1 * np.sin(2 * np.pi * GRID)
    L = from_flow(v, pendulum, 0.0, steps=1)
    assert L.kind == "flowed" and L.meta["T"] == 0.0
    assert np.max(np.abs(L.q - L.t)) <= 1e-12
    assert L.s_offset == pytest.approx(v[0], abs=1e-9)


def test_from_flow_short_time_still_graph(pendulum):
    L = from_flow(np.zeros(256), pendulum, 0.2, steps=200, initial_samples=1024)
    counts = [scan_multiplicity(L, q) for q in np.linspace(0, 1, 17)]
    assert max(counts) == 1


def test_from_flow_whorl_multiplicity(whorl):
    # dense scan oracle at 2^16 parameters: some fibers meet L in >= 3 points
    counts = [scan_multiplicity(whorl, q, n=2 ** 16) for q in (0.5, 0.99, 0.25)]
    assert counts[1] == 3
    assert max(counts) >= 3 and all(c % 2 == 1 for c in counts)


def test_whorl_exactness(whorl):
    rep = verify_exactness(whorl)
    assert rep.ok
    assert rep.max_interval_residual <= 1e-6 * max(rep.arc_length, 1.0)
    assert rep.loop_residual <= 1e-8 * rep.arc_length


def test_exactness_flags_corrupted_primitive(whorl):
    import copy
    L = copy.copy(whorl)
    S = whorl.S.copy()
    S[len(S) // 2] += 0.1
    L.S = S
    rep = verify_exactness(L)
    assert not rep.ok
    assert rep.max_interval_residual == pytest.approx(0.1, rel=0.05)


def test_exactness_passes_a_flowed_draw_and_its_mollification(pendulum):
    # criterion 1's draw 2 flowed for T = 3: its Gauss-3 loop integral is
    # 6.0e-6, above a bound of 1e-8 x arc length and far below the
    # resolution sum |G - T|; the target check of mollify_sequence passes too
    L = from_flow(random_potential(np.random.default_rng(2)), pendulum, 3.0, 3000)
    rep = verify_exactness(L)
    assert rep.ok and rep.loop_residual > 1e-8 * rep.arc_length
    assert rep.residual <= 0.01 * rep.budget
    for entry in mollify_sequence(L, base_width=1.0 / 64, resample=8192).entries:
        assert verify_exactness(entry).ok


def test_from_flow_refuses_a_curve_that_fails_the_measure(pendulum, monkeypatch):
    def shifted(G):
        S = original(G)
        S[S.size // 2] += 1e-3
        return S

    original = lagrangian._integrate_primitive
    monkeypatch.setattr(lagrangian, "_integrate_primitive", shifted)
    with pytest.raises(ExactnessError, match="flowed curve is not exact") as exc:
        from_flow(np.zeros(256), pendulum, 0.2, steps=200, initial_samples=1024)
    assert exc.value.residual == pytest.approx(2e-3, rel=1e-3)


def test_transport_consistency_scales_with_dt(pendulum):
    # the action transported along every sample's trajectory agrees with
    # the curve integral S up to the integrator's error
    v = 0.05 * np.sin(2 * np.pi * GRID)
    vf = SpectralFun(v)
    gaps = []
    for steps in (250, 500):
        L = from_flow(v, pendulum, 0.5, steps=steps, initial_samples=1024)
        act = integrate(pendulum, L.t, vf.derivative(L.t), 0.5 / steps, steps,
                        accumulate_action=True)[2]
        raw = vf(L.t) + act
        gaps.append(float(np.max(np.abs(L.S - (raw - raw[0])))))
    c1, c2 = gaps
    assert c2 <= c1 / 2.5  # second-order transport accumulation


def test_flow_composition(pendulum):
    # T = T1 + T2 equals composing the two flows, states and action alike
    params = np.arange(64) / 64
    p0 = 0.1 * np.cos(2 * np.pi * params)
    Q1, P1, A1 = integrate(pendulum, params, p0, 1e-3, 500, accumulate_action=True)
    Q2, P2, A2 = integrate(pendulum, Q1, P1, 1e-3, 500, accumulate_action=True)
    Qf, Pf, Af = integrate(pendulum, params, p0, 1e-3, 1000, accumulate_action=True)
    assert np.max(np.abs(Q2 - Qf)) <= 1e-12
    assert np.max(np.abs(P2 - Pf)) <= 1e-12
    assert np.max(np.abs((A1 + A2) - Af)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([64, 256, 301, 1024]), modes=st.integers(1, 200),
       size=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1))
def test_spectral_fun_value_does_not_depend_on_the_batch(n, modes, size, seed):
    # f(x)[i] == f(x[i:i+1])[0] bit for bit, for values and derivatives
    rng = np.random.default_rng(seed)
    g = np.arange(n) / n
    v = sum(rng.normal() / k * np.cos(2 * np.pi * k * g + rng.uniform(0, 2 * np.pi))
            for k in range(1, min(modes, n // 2) + 1))
    f = SpectralFun(v)
    x = rng.uniform(-1.0, 2.0, size)
    for method in (f, f.derivative):
        batch = method(x)
        for i in range(size):
            assert method(x[i:i + 1])[0].tobytes() == batch[i].tobytes()


def test_shoot_rows_do_not_depend_on_their_batchmates(pendulum):
    vf = SpectralFun(random_potential(np.random.default_rng(4)))
    starts = np.random.default_rng(9).uniform(0.0, 1.0, 60)
    batch = _shoot(pendulum, vf, 1e-3, 500, starts)
    for lo, hi in ((0, 1), (1, 3), (3, 10), (10, 11), (11, 60)):
        part = _shoot(pendulum, vf, 1e-3, 500, starts[lo:hi])
        for got, want in zip(part, batch):
            assert got.tobytes() == want[lo:hi].tobytes()


_SPECULATION_COUNTS = ("integrate_calls", "rows_shot")


def _assert_same_curve(got, want):
    for name in ("t", "q", "p", "S"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.s_offset == want.s_offset
    assert got.meta.keys() == want.meta.keys()
    for key in got.meta.keys() - set(_SPECULATION_COUNTS):
        assert got.meta[key] is want.meta[key] or np.array_equal(
            got.meta[key], want.meta[key]), key


@pytest.mark.parametrize("case", ["whorl", "criterion_1"])
def test_speculative_refinement_equals_the_sequential_one(case, whorl, pendulum,
                                                         monkeypatch):
    # depth cap 1 shoots only the midpoints each round asks for: the
    # sequential refinement the speculative rounds replay
    if case == "whorl":
        args = (np.zeros(256), pendulum, 3.0, 3000)
        default = whorl
    else:
        # a draw on which a 1-ulp batch dependence of the start momenta
        # (SpectralFun through a matrix product) breaks the equality
        args = (random_potential(np.random.default_rng(5)), pendulum, 3.0, 3000)
        default = from_flow(*args, initial_samples=4096)
    monkeypatch.setattr(lagrangian, "SPECULATE_MAX_DEPTH", 1)
    sequential = from_flow(*args, initial_samples=4096)
    _assert_same_curve(default, sequential)
    rounds = sequential.meta["density_rounds"] + sequential.meta["exactness_rounds"]
    # one call per round, plus the initial grid's and the anchor's
    assert sequential.meta["integrate_calls"] == 2 + rounds
    assert sequential.meta["rows_shot"] == sequential.t.size
    # the default shot ahead: fewer calls, and rows the replay dropped
    assert default.meta["integrate_calls"] < sequential.meta["integrate_calls"]
    assert default.meta["rows_shot"] > default.meta["rows_used"]


@pytest.mark.parametrize("case", ["whorl", "criterion_1"])
def test_s_offset_is_the_batched_transport_at_the_anchor(case, whorl, pendulum):
    # the 1-row anchor shot gives the action a batch over the initial grid
    # would give at t = 0, bit for bit
    if case == "whorl":
        v, L = np.zeros(256), whorl
    else:
        v = random_potential(np.random.default_rng(5))
        L = from_flow(v, pendulum, 3.0, 3000, initial_samples=4096)
    vf = SpectralFun(v)
    t = np.arange(4096) / 4096
    act = integrate(pendulum, t, vf.derivative(t), 3.0 / 3000, 3000,
                    accumulate_action=True)[2]
    assert L.s_offset == vf(t)[0] + act[0]


def test_from_flow_records_its_refinement(whorl):
    meta = whorl.meta
    assert meta["rows_used"] == whorl.t.size
    assert meta["rows_shot"] >= meta["rows_used"]
    assert meta["density_rounds"] > 0 and meta["exactness_rounds"] > 0
    assert 1 < meta["integrate_calls"] <= 10


def test_from_flow_names_the_density_pass_limits(pendulum, monkeypatch):
    # the density pass needs several rounds and about 1000 more samples here
    args = (np.zeros(256), pendulum, 1.5, 150)
    monkeypatch.setattr(lagrangian, "RESAMPLE_MAX_ROUNDS", 2)
    with pytest.raises(RuntimeError, match=r"^density pass did not converge in "
                       r"RESAMPLE_MAX_ROUNDS = 2 rounds"):
        from_flow(*args, initial_samples=256)
    monkeypatch.setattr(lagrangian, "RESAMPLE_MAX_ROUNDS", 48)
    monkeypatch.setattr(lagrangian, "RESAMPLE_BUDGET", 300)
    with pytest.raises(RuntimeError, match=r"^density pass exceeded the sample budget "
                       r"RESAMPLE_BUDGET = 300"):
        from_flow(*args, initial_samples=256)


def test_from_flow_names_the_exactness_pass_limits(pendulum, monkeypatch):
    # 2048 samples of a short flow pass the density check at once; a tight
    # exactness tolerance then leaves most intervals to the exactness pass
    args = (np.zeros(256), pendulum, 0.1, 20)
    monkeypatch.setattr(lagrangian, "EXACTNESS_TOL", 1e-10)
    monkeypatch.setattr(lagrangian, "RESAMPLE_MAX_ROUNDS", 1)
    with pytest.raises(RuntimeError, match=r"^exactness pass did not converge in "
                       r"RESAMPLE_MAX_ROUNDS = 1 rounds"):
        from_flow(*args, initial_samples=2048)
    monkeypatch.setattr(lagrangian, "RESAMPLE_MAX_ROUNDS", 48)
    monkeypatch.setattr(lagrangian, "RESAMPLE_BUDGET", 2048)
    with pytest.raises(RuntimeError, match=r"^exactness pass exceeded the sample budget "
                       r"RESAMPLE_BUDGET = 2048"):
        from_flow(*args, initial_samples=2048)


def test_mollify_tent_halves_per_level():
    n = 4096
    g = np.arange(n) / n
    p = np.where(g < 0.5, 0.2, -0.2)
    S = np.concatenate([[0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(g))])
    seq = mollify_sequence((g, g, p, S), levels=4)
    ratios = seq.sup_dists[1:] / seq.sup_dists[:-1]
    assert np.all(np.abs(ratios - 0.5) <= 0.05)
    assert np.all(np.diff(seq.sup_dists) < 0)
    for entry in seq.entries:
        assert verify_exactness(entry).ok


def test_mollify_smooth_target_stays_close():
    v = 0.1 * np.sin(2 * np.pi * GRID)
    L = from_graph(v)
    seq = mollify_sequence(L, levels=3, base_width=1.0 / 64)
    assert seq.sup_dists[-1] <= 5e-3
    assert seq.equilip_const <= 2.0 * max(L.lipschitz_bound, 1.0)


def test_mollify_limit_passes_the_measure():
    # the limit's primitive is integrated along the resampled curve: it
    # passes the measure its levels pass and stays on the target's primitive
    v = lambda q: 0.2 * np.sin(2 * np.pi * q)
    seq = mollify_sequence(from_graph(v(np.arange(64) / 64)), base_width=1.0 / 64,
                           resample=8192)
    lim = seq.limit
    limit = lagrangian.ExactLagrangian(
        kind="parametric", t=lim["t"], q=lim["q"], p=lim["p"], S=lim["S"],
        s_offset=0.0, winding=lim["winding"], lipschitz_bound=seq.equilip_const,
        pmax=float(np.max(np.abs(lim["p"]))))
    assert verify_exactness(limit).ok
    assert np.max(np.abs(lim["S"] - v(lim["q"]))) <= 1e-6


def test_mollify_rejects_nonexact():
    n = 2048
    g = np.arange(n) / n
    with pytest.raises(ExactnessError):
        mollify_sequence((g, g, np.ones(n), np.zeros(n)), levels=2)


def test_line_integral_examples(whorl_mid):
    assert line_integral_check(whorl_mid, np.array([0.3, 0.3])) == 0.0
    assert line_integral_check(whorl_mid, np.array([0.0, 1.0])) <= 1e-8
    rng = np.random.default_rng(5)
    worst = max(line_integral_check(whorl_mid, np.sort(rng.uniform(0, 1, 4)))
                for _ in range(30))
    assert worst <= 1e-6
    # non-monotone parameter path
    assert line_integral_check(whorl_mid, np.array([0.1, 0.6, 0.3, 0.8])) <= 1e-6


def test_reparametrization_invariance():
    # one graph curve p = v'(q), sampled at q = t and at q = t + 0.1 sin 2 pi t:
    # a geometric point carries the primitive v(q) - v(0) under both
    def v(q):
        return 0.1 * np.sin(2 * np.pi * q) + 0.05 * np.cos(4 * np.pi * q)

    def dv(q):
        return 0.2 * np.pi * (np.cos(2 * np.pi * q) - np.sin(4 * np.pi * q))

    t = np.arange(1024) / 1024
    q2 = t + 0.1 * np.sin(2 * np.pi * t)
    L1 = from_parametric(t, t, dv(t))
    L2 = from_parametric(t, q2, dv(q2))
    assert np.max(np.abs(L2.S - (v(q2) - v(0.0)))) <= 1e-9
    assert np.max(np.abs(np.atleast_1d(L1.primitive_at(q2)) - L2.S)) <= 1e-9
    # between nodes the two discretizations agree to interpolation accuracy
    tm = t + 0.5 / t.size
    qm = tm + 0.1 * np.sin(2 * np.pi * tm)
    assert np.max(np.abs(np.atleast_1d(L1.primitive_at(qm))
                         - np.atleast_1d(L2.primitive_at(tm)))) <= 1e-9


def test_save_load_roundtrip(tmp_path, whorl_mid):
    path = tmp_path / "L.dat"
    save_lagrangian(whorl_mid, path)
    L2 = load_lagrangian(path)
    assert L2.winding == 1
    assert np.max(np.abs(L2.q - whorl_mid.q)) <= 1e-12
    assert np.max(np.abs(L2.S - whorl_mid.S)) <= 1e-12


def test_load_rejects_winding_other_than_one(tmp_path):
    # a contractible loop: winding 0
    t = np.arange(64) / 64
    rows = np.column_stack([t, 0.5 + 0.1 * np.cos(2 * np.pi * t),
                            0.1 * np.sin(2 * np.pi * t), np.zeros(64)])
    path = tmp_path / "loop.dat"
    np.savetxt(path, rows, header="dim 1 kind parametric", comments="")
    with pytest.raises(ValueError, match="winding 0"):
        load_lagrangian(path)


def test_load_refuses_a_shifted_primitive_node(tmp_path):
    t = np.arange(64) / 64
    # the resolution sum |G - T| is 1.6e-4 here; the shift adds 2e-3 of residual
    L = from_graph(0.05 * np.sin(2 * np.pi * t))
    path = tmp_path / "graph.dat"
    save_lagrangian(L, path)
    assert np.array_equal(load_lagrangian(path).S, L.S)
    rows = np.column_stack([t, t, L.p, L.S])
    rows[20, 3] += 1e-3
    np.savetxt(path, rows, header="dim 1 kind graph", comments="")
    with pytest.raises(ExactnessError, match="graph.dat is not exact"):
        load_lagrangian(path)


def test_load_refuses_a_dim_2_file(tmp_path):
    # exact Lagrangians are curves in T*T^1: a file over T^2 is refused by name
    path = tmp_path / "grid.dat"
    np.savetxt(path, np.zeros((10, 6)), header="dim 2 kind graph", comments="")
    with pytest.raises(ValueError, match=r"grid\.dat holds a dim 2"):
        load_lagrangian(path)


def test_load_returns_a_flowed_curve_as_parametric(tmp_path, whorl_mid):
    # the file holds the samples, not the flow: kernel_minimax must not take
    # the loaded curve for a flow presentation
    path = tmp_path / "flowed.dat"
    save_lagrangian(whorl_mid, path)
    assert path.read_text().startswith("dim 1 kind flowed\n")
    L = load_lagrangian(path)
    assert L.kind == "parametric" and "H" not in L.meta


def test_load_refuses_an_unknown_kind(tmp_path):
    path = tmp_path / "odd.dat"
    save_lagrangian(from_graph(np.zeros(64)), path)
    path.write_text(path.read_text().replace("kind graph", "kind spiral", 1))
    with pytest.raises(ValueError, match="unknown kind 'spiral'"):
        load_lagrangian(path)


def test_load_names_the_column_count(tmp_path):
    path = tmp_path / "wide.dat"
    np.savetxt(path, np.zeros((64, 6)), header="dim 1 kind graph", comments="")
    with pytest.raises(ValueError, match="6 columns; expected 4: t q p S"):
        load_lagrangian(path)


@pytest.mark.filterwarnings("error")
def test_load_names_a_file_without_rows(tmp_path):
    # a valid header and nothing after it: no numpy warning, the file named
    path = tmp_path / "empty.dat"
    path.write_text("dim 1 kind graph\n\n")
    with pytest.raises(ValueError, match=r"empty\.dat has no rows"):
        load_lagrangian(path)


# The exactness measure (verify_exactness) as properties: the curves of
# every dim-1 constructor pass at every grid they accept, and a shifted S
# node or a constant added to p, which adds a loop integral, fails once the
# change is 100 times the budget (sum |G - T| plus the rounding floor).

@st.composite
def trig_potentials(draw):
    """Coefficients (a_k, b_k) of v = sum a_k cos 2 pi k q + b_k sin 2 pi k q."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    modes = draw(st.integers(1, 6))
    amp = draw(st.floats(0.005, 0.2))
    k = np.arange(1, modes + 1)
    return k, amp * rng.uniform(-1, 1, modes) / k, amp * rng.uniform(-1, 1, modes) / k


def _v(coef, q):
    k, a, b = coef
    ph = 2 * np.pi * np.multiply.outer(q, k)
    return np.cos(ph) @ a + np.sin(ph) @ b


def _dv(coef, q):
    k, a, b = coef
    ph = 2 * np.pi * np.multiply.outer(q, k)
    return (np.cos(ph) * b - np.sin(ph) * a) @ (2 * np.pi * k)


_GRIDS = st.integers(64, 1024)


@settings(max_examples=30, deadline=None)
@given(coef=trig_potentials(), n=_GRIDS)
def test_graphs_pass_the_exactness_measure(coef, n):
    assert verify_exactness(from_graph(_v(coef, np.arange(n) / n))).ok


@settings(max_examples=30, deadline=None)
@given(coef=trig_potentials(), n=_GRIDS, a=st.floats(-0.9, 0.9))
def test_reparametrized_graphs_pass_the_exactness_measure(coef, n, a):
    t = np.arange(n) / n
    q = t + a * np.sin(2 * np.pi * t) / (2 * np.pi)   # dq/dt >= 1 - |a| > 0
    assert verify_exactness(from_parametric(t, q, _dv(coef, q))).ok


@settings(max_examples=15, deadline=None)
@given(coef=trig_potentials(), n=_GRIDS)
def test_mollified_entries_pass_the_exactness_measure(coef, n):
    L = from_graph(_v(coef, np.arange(n) / n))
    seq = mollify_sequence(L, levels=2, base_width=1.0 / 32, resample=1024)
    assert all(verify_exactness(entry).ok for entry in seq.entries)


@settings(max_examples=30, deadline=None)
@given(coef=trig_potentials(), n=_GRIDS, factor=st.floats(100, 1e4),
       sign=st.sampled_from([-1.0, 1.0]), node=st.floats(0, 1, exclude_max=True))
def test_a_shifted_primitive_node_fails_the_exactness_measure(coef, n, factor, sign,
                                                              node):
    L = from_graph(_v(coef, np.arange(n) / n))
    S = L.S.copy()
    S[int(node * n)] += sign * factor * verify_exactness(L).budget
    assert not verify_exactness(dataclasses.replace(L, S=S, _cache={})).ok


@settings(max_examples=30, deadline=None)
@given(coef=trig_potentials(), n=_GRIDS, factor=st.floats(100, 1e4),
       sign=st.sampled_from([-1.0, 1.0]))
def test_a_loop_integral_fails_the_exactness_measure(coef, n, factor, sign):
    L = from_graph(_v(coef, np.arange(n) / n))
    c = sign * factor * verify_exactness(L).budget
    rep = verify_exactness(dataclasses.replace(L, p=L.p + c, _cache={}))
    assert rep.loop_residual == pytest.approx(abs(c), rel=0.02)
    assert not rep.ok
    with pytest.raises(ExactnessError):
        from_parametric(L.t, L.q, L.p + c)
