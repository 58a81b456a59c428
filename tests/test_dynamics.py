import numpy as np
import pytest

from selkam import hamcore
from selkam.dynamics import (CHECK_EVERY, TRIM_DT, VANISH_TOL, energy_level_check,
                             equivariance_check, graph_test, maximal_invariant_set,
                             maximal_invariant_sets, verify_theorem_1_5,
                             verify_theorem_6_3, dump_invariant_set)
from selkam.lagrangian import from_graph, mollify_sequence
from selkam.selector import generalized_selector
from selkam.torus import hausdorff, wrap
from selkam.weakkam import critical_value, critical_value_infmax, subsolution_check

GRID = np.arange(256) / 256


def test_zero_section_free_all_fixed(free):
    L = from_graph(np.zeros(512))
    est = maximal_invariant_set(L, free, 0.0, horizon=10.0)
    assert len(est) == est.n_seeds == 512
    assert est.converged


def test_zero_section_pendulum_level_one(pendulum):
    L = from_graph(np.zeros(512))
    est = maximal_invariant_set(L, pendulum, 1.0, horizon=50.0)
    assert len(est) == 1
    assert np.allclose(est.samples[0], [0.0, 0.0])


def _count_integrate_calls(monkeypatch):
    calls = []
    inner = hamcore.integrate

    def spy(*args, **kwargs):
        calls.append(args[4])
        return inner(*args, **kwargs)

    monkeypatch.setattr(hamcore, "integrate", spy)
    return calls


def _full_run_calls(horizon):
    """integrate calls of a doubled-horizon trimming that never stops early."""
    total = 2 * int(np.ceil(horizon / TRIM_DT))
    return -(-total // CHECK_EVERY)


def test_trimming_stops_once_every_live_seed_is_at_rest(pendulum, monkeypatch):
    # the only survivor is the hyperbolic equilibrium (0, 0), frozen both ways
    calls = _count_integrate_calls(monkeypatch)
    est = maximal_invariant_set(from_graph(np.zeros(512)), pendulum, 1.0, horizon=50.0)
    assert est.meta["stationary"]
    # one call per chunk steps both time directions
    assert len(calls) == est.meta["steps_run"] // CHECK_EVERY
    assert len(calls) * 100 <= _full_run_calls(50.0)
    # the stop came inside the first horizon: the doubled run's report stands
    assert est.converged and est.horizon == 100.0 and len(est) == 1


def test_trimming_stop_waits_for_both_directions(pendulum):
    # a seed on the stable branch of the equilibrium (0, 0) freezes forward
    # within ~130 steps but leaves the tube backward only at ~220 steps
    d = 1e-5
    pts = np.array([[0.0, 0.0], [d, -np.sqrt(2.0 * (1.0 - np.cos(2 * np.pi * d)))]])
    est = maximal_invariant_set(pts, pendulum, 1.0, horizon=5.0)
    assert est.samples.tolist() == [[0.0, 0.0]]
    assert est.meta["stationary"] and est.converged


def test_trimming_runs_to_the_horizon_while_seeds_move(free, monkeypatch):
    # (q, 0.5) under the free H is one invariant circle swept at speed 0.5:
    # every seed stays in the tube and none ever freezes
    q = np.arange(256) / 256
    calls = _count_integrate_calls(monkeypatch)
    est = maximal_invariant_set(np.column_stack([q, np.full(256, 0.5)]), free, 0.125,
                                horizon=2.0)
    assert len(calls) == _full_run_calls(2.0)
    assert est.meta["steps_run"] == 2 * int(np.ceil(2.0 / TRIM_DT))
    # no row dies or freezes: each chunk steps all 256 seeds in both directions
    assert est.meta["traj_steps"] == 2 * 256 * est.meta["steps_run"]
    assert not est.meta["stationary"]
    assert len(est) == 256 and est.converged


def test_trimming_never_steps_a_frozen_state(pendulum, monkeypatch):
    # separatrix seeds freeze one by one at the equilibria while the others
    # still move; after the first chunk every row stepped is unfrozen
    states = []
    inner = hamcore.integrate

    def spy(H, Q, P, *args, **kwargs):
        states.append((wrap(Q), P))
        return inner(H, Q, P, *args, **kwargs)

    monkeypatch.setattr(hamcore, "integrate", spy)
    q = np.arange(256) / 256
    est = maximal_invariant_set(np.column_stack([q, 2.0 * np.abs(np.sin(np.pi * q))]),
                                pendulum, 1.0, horizon=0.5)
    assert not est.meta["stationary"]
    assert est.meta["traj_steps"] < 2 * 256 * est.meta["steps_run"]
    for Qw, P in states[1:]:
        speed = np.abs(pendulum.grad_p(Qw, P)) + np.abs(pendulum.grad_q(Qw, P))
        assert np.all(speed > VANISH_TOL)


def _circle(q, p):
    return np.column_stack([q, np.broadcast_to(p, q.shape)])


def _trimming_cases():
    """(H, level, horizon, sets): in each, one set stops early beside one
    that runs to the horizon."""
    q = np.arange(256) / 256
    free = hamcore.parse_hamiltonian("p^2/2", 1)
    pendulum = hamcore.parse_hamiltonian("p^2/2 + cos(2*pi*q)", 1)
    nonmech = hamcore.parse_hamiltonian("p^2/2 + 0.3*sin(2*pi*q)*p + 0.5*cos(2*pi*q)", 1)
    s = 0.3 * np.sin(2 * np.pi * q)
    root = np.sqrt(s * s - 2.0 * (0.5 * np.cos(2 * np.pi * q) - 1.0))
    return {
        # the circle runs to the horizon; the arc leaves its own tube and
        # the set stops once no seed is alive
        "free": (free, 0.125, 2.0, [_circle(q, 0.5), _circle(q[:64], 0.5)]),
        # the zero section stops at the frozen equilibrium; the separatrix
        # seeds still move at the horizon
        "pendulum": (pendulum, 1.0, 0.5,
                     [from_graph(np.zeros(512)), _circle(q, 2.0 * np.abs(np.sin(np.pi * q)))]),
        # the midpoint: two rotational circles on {H = 1} and an arc of one
        "nonmech": (nonmech, 1.0, 0.25,
                    [_circle(q, root - s), _circle(q, -root - s), _circle(q[:64], root[:64] - s[:64])]),
    }


@pytest.mark.parametrize("recurrence_filter", [False, True])
@pytest.mark.parametrize("case", ["free", "pendulum", "nonmech"])
def test_batched_trimming_equals_the_separate_calls(case, recurrence_filter):
    H, a, horizon, sets = _trimming_cases()[case]
    separate = [maximal_invariant_set(L, H, a, horizon=horizon,
                                      recurrence_filter=recurrence_filter) for L in sets]
    if not recurrence_filter:
        assert {est.meta["stationary"] for est in separate} == {True, False}
    batched = maximal_invariant_sets(sets, H, a, horizon=horizon,
                                     recurrence_filter=recurrence_filter)
    assert len(batched) == len(sets)
    for got, want in zip(batched, separate):
        assert got.samples.shape == want.samples.shape
        assert got.samples.tobytes() == want.samples.tobytes()
        for name in ("converged", "horizon", "tube_radius", "n_seeds"):
            assert getattr(got, name) == getattr(want, name)
        assert got.meta == want.meta


def test_batched_trimming_raises_the_one_set_error(free):
    q = np.arange(256) / 256
    with pytest.raises(ValueError) as alone:
        maximal_invariant_set(from_graph(np.zeros(512)), free, 0.125)
    with pytest.raises(ValueError) as batched:
        maximal_invariant_sets([_circle(q, 0.5), from_graph(np.zeros(512))], free, 0.125)
    assert str(batched.value) == str(alone.value)


def test_empty_level_raises(pendulum):
    L = from_graph(np.zeros(512))
    with pytest.raises(ValueError, match="does not meet"):
        maximal_invariant_set(L, pendulum, 3.0, horizon=1.0)


def test_whorl_invariant_core(whorl, pendulum):
    alpha = critical_value(pendulum, grid=1024, dt=0.1).alpha
    est = maximal_invariant_set(whorl, pendulum, alpha, horizon=100.0,
                                recurrence_filter=True)
    assert est.converged
    assert len(est) >= 1
    d = np.hypot(np.minimum(np.abs(est.samples[:, 0]), 1 - np.abs(est.samples[:, 0])),
                 est.samples[:, 1])
    assert np.max(d) <= 2.0 / 512


def test_horizon_monotonicity(whorl, pendulum):
    alpha = critical_value(pendulum, grid=1024, dt=0.1).alpha
    e1 = maximal_invariant_set(whorl, pendulum, alpha, horizon=5.0)
    e2 = maximal_invariant_set(whorl, pendulum, alpha, horizon=10.0)
    # survivors at the longer horizon form a subset (same seed order)
    s1 = {tuple(x) for x in np.round(e1.samples, 12)}
    s2 = {tuple(x) for x in np.round(e2.samples, 12)}
    assert s2 <= s1


def test_energy_level_check_examples(free, pendulum):
    L0 = from_graph(np.zeros(256))
    e, dev = energy_level_check(L0, free)
    assert e == 0.0 and dev == 0.0
    e2, dev2 = energy_level_check(L0, pendulum)
    assert e2 is None and dev2 == pytest.approx(1.0, abs=1e-6)


def test_graph_test_examples(whorl):
    L0 = from_graph(np.zeros(256))
    ok, quot = graph_test(np.column_stack([L0.q, L0.p]))
    assert ok and quot == 0.0
    ok2, _ = graph_test(whorl.phase_points())
    assert not ok2
    v = 0.1 * np.sin(2 * np.pi * GRID)
    Lv = from_graph(v)
    ok3, quot3 = graph_test(np.column_stack([Lv.q, Lv.p]))
    assert ok3
    assert quot3 <= 1.3 * 0.1 * (2 * np.pi) ** 2  # ~ max |v''|


def test_theorem_6_3_whorl(whorl, whorl_selector, pendulum):
    alpha = critical_value(pendulum, grid=1024, dt=0.1).alpha
    rep = verify_theorem_6_3(whorl, pendulum, alpha, whorl_selector, horizon=100.0)
    assert rep.subsolution_ok
    assert rep.hausdorff_distance <= 2.0 * rep.grid_step
    assert rep.inv_L.converged and rep.inv_graph.converged
    assert rep.ok


def test_theorem_6_3_trivial_graph(pendulum):
    L = from_graph(0.02 * np.sin(2 * np.pi * GRID))
    seq = mollify_sequence(L, base_width=1.0 / 64, resample=8192)
    f, _ = generalized_selector(seq, 512)
    rep = verify_theorem_6_3(L, pendulum, 1.05, f, horizon=25.0)
    assert rep.ok and rep.hausdorff_distance == 0.0


def test_theorem_6_3_precondition(whorl, whorl_selector, pendulum):
    with pytest.raises(ValueError, match="sublevel"):
        verify_theorem_6_3(whorl, pendulum, 0.5, whorl_selector)


def test_theorem_1_5_invariant_zero_section(free):
    L = from_graph(np.zeros(512))
    rep = verify_theorem_1_5(L, free, horizon=5.0)
    assert rep.invariant and rep.ok
    assert rep.energy == 0.0 and rep.is_graph


def test_theorem_1_5_non_invariant_cases(free, pendulum, whorl):
    Lv = from_graph(0.1 * np.sin(2 * np.pi * GRID))
    rep = verify_theorem_1_5(Lv, free, horizon=5.0)
    assert not rep.invariant and rep.ok  # reported, no claim
    rep2 = verify_theorem_1_5(whorl, pendulum, horizon=5.0)
    assert not rep2.invariant
    assert rep2.invariance_defect > 1e-2


# Each public function of the T^1-only layer on a dim-2 input: a dim-2 H
# with a (k, 4) point array or a (dim-1) curve L, a (k, 4) point array
# alone, or 2-d sample arrays.  There is no dim-2 L to give them.
DIM_2_CALLS = {
    "maximal_invariant_set": lambda L, H, pts, v: maximal_invariant_set(pts, H, 0.0),
    "maximal_invariant_set-H": lambda L, H, pts, v: maximal_invariant_set(L, H, 0.0),
    "energy_level_check": lambda L, H, pts, v: energy_level_check(L, H),
    "graph_test": lambda L, H, pts, v: graph_test(pts),
    "equivariance_check": lambda L, H, pts, v: equivariance_check(v, v, "0", H, a=0.0),
    "hausdorff": lambda L, H, pts, v: hausdorff(pts, pts),
    "subsolution_check": lambda L, H, pts, v: subsolution_check(v, H, 0.0),
    "critical_value_infmax": lambda L, H, pts, v: critical_value_infmax(H),
    "mollify_sequence": lambda L, H, pts, v: mollify_sequence((v, v, v, v)),
    "verify_theorem_1_5": lambda L, H, pts, v: verify_theorem_1_5(L, H),
    "verify_theorem_6_3": lambda L, H, pts, v: verify_theorem_6_3(L, H, 0.0, None),
}


@pytest.mark.parametrize("call", DIM_2_CALLS.values(), ids=DIM_2_CALLS.keys())
def test_refuses_dim_2_by_name(call, monkeypatch):
    L = from_graph(np.zeros(64))
    H = hamcore.parse_hamiltonian("(p1^2 + p2^2)/2", 2)

    def no_work(*args, **kwargs):
        raise AssertionError("work done before refusing dim 2")

    monkeypatch.setattr(hamcore, "integrate", no_work)
    with pytest.raises(NotImplementedError, match="dim 2"):
        call(L, H, np.zeros((8, 4)), np.zeros((64, 64)))


@pytest.mark.parametrize("horizon", [0.0, -5.0])
def test_trimming_refuses_a_nonpositive_horizon(free, horizon, monkeypatch):
    # the chunk loop would never run, leaving no survivors to compare;
    # the pipeline must not read the refusal as a level that misses the set
    def no_work(*args, **kwargs):
        raise AssertionError("flow started before refusing the horizon")

    monkeypatch.setattr(hamcore, "integrate", no_work)
    L = from_graph(np.zeros(64))
    with pytest.raises(ValueError, match="horizon"):
        maximal_invariant_set(L, free, 0.0, horizon=horizon)
    with pytest.raises(ValueError, match="horizon"):
        verify_theorem_6_3(L, free, 0.0, None, horizon=horizon)


def test_equivariance_smoke(pendulum):
    w = 0.12 * np.sin(2 * np.pi * GRID) / (2 * np.pi)
    hd, i1, i2 = equivariance_check(np.zeros(256), w, "0.12*cos(2*pi*q)",
                                    pendulum, a=1.0, horizon=50.0)
    assert len(i1) >= 1 and len(i2) >= 1
    assert hd <= 2.0 / 512


def test_dump_invariant_set(tmp_path, free):
    L = from_graph(np.zeros(256))
    est = maximal_invariant_set(L, free, 0.0, horizon=2.0)
    path = tmp_path / "inv.txt"
    dump_invariant_set(est, path)
    data = np.loadtxt(path, ndmin=2)
    assert data.shape == (256, 3)
