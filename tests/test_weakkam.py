import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selkam import hamcore, weakkam
from selkam.hamcore import parse_hamiltonian
from selkam.weakkam import (_rolls, critical_value, critical_value_infmax,
                            lax_oleinik_step, legendre_table, smooth_subsolution,
                            subsolution_check, weak_kam_family)

PENDULUM = parse_hamiltonian("p^2/2 + cos(2*pi*q)", 1)
NONMECH = parse_hamiltonian("p^2/2 + 0.3*sin(2*pi*q)*p + 0.5*cos(2*pi*q)", 1)
MECH2 = parse_hamiltonian("(p1^2 + p2^2)/2 + 0.3*cos(2*pi*q1) + 0.2*cos(2*pi*q2)", 2)
SINE = parse_hamiltonian("p^2/2 - 0.3*sin(2*pi*q)", 1)
SINE2 = parse_hamiltonian("(p1^2 + p2^2)/2 - 0.3*sin(2*pi*q1)*sin(2*pi*q2)", 2)


def test_free_step_fixes_constants(free):
    u = np.zeros(256)
    assert np.max(np.abs(lax_oleinik_step(u, free, 0.1))) == 0.0


def test_step_monotone_nonexpansive_constants(free, pendulum):
    rng = np.random.default_rng(1)
    for H in (free, pendulum):
        a = rng.normal(size=256)
        b = a + np.abs(rng.normal(size=256))
        sa = lax_oleinik_step(a, H, 0.1)
        sb = lax_oleinik_step(b, H, 0.1)
        assert np.all(sa <= sb + 1e-12)                        # monotone
        assert np.max(np.abs(sa - sb)) <= np.max(np.abs(a - b)) + 1e-12
        sc = lax_oleinik_step(a + 0.7, H, 0.1)
        assert np.max(np.abs(sc - (sa + 0.7))) <= 1e-12        # exact shift


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1,), (2,), (7,), (16,), (3, 5), (8, 6), (6, 1)]),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_shift_gather_is_a_stack_of_rolls(shape, seed, data):
    u = np.random.default_rng(seed).normal(size=shape)
    for axis, n in enumerate(shape):
        k = n // 2
        shifts = data.draw(st.lists(st.integers(-k, k), min_size=1, max_size=2 * k + 3))
        want = np.stack([np.roll(u, s, axis) for s in shifts])
        assert _rolls(u, axis)[n - np.asarray(shifts)].tobytes() == want.tobytes()


def _rolled_step(u, H, dt, direction, v_max):
    """The Lax-Oleinik step written with one np.roll per shift."""
    if not H.is_mechanical:
        n = u.size
        h = 1.0 / n
        K = min(int(np.ceil(v_max * dt / h)), n // 2)
        shifts = np.arange(-K, K + 1)
        tab = legendre_table(H, shifts * h / dt, np.arange(n) / n)
        if direction == "descending":
            return np.min([np.roll(u, k) + dt * tab[i] for i, k in enumerate(shifts)], axis=0)
        return np.max([np.roll(u, -k) - dt * tab[i] for i, k in enumerate(shifts)], axis=0)
    sign = 1.0 if direction == "descending" else -1.0
    pick = np.min if direction == "descending" else np.max
    out = u.copy()
    for axis, n in enumerate(u.shape):
        h = 1.0 / n
        K = min(int(np.ceil(v_max * dt / h)), n // 2)
        shifts = np.arange(-K, K + 1)
        quad = (shifts * h) ** 2 / (2 * dt)
        out = pick([np.roll(out, k, axis) + sign * quad[i] for i, k in enumerate(shifts)],
                   axis=0)
    grids = np.meshgrid(*(np.arange(n) / n for n in u.shape), indexing="ij")
    return out - sign * dt * H.potential(grids[0] if u.ndim == 1 else np.stack(grids, -1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["pendulum", "nonmech", "mech2"]),
       st.sampled_from([16, 64, 128]), st.sampled_from([0.01, 0.1, 0.5]),
       st.sampled_from(["descending", "ascending"]), st.integers(0, 2 ** 32 - 1))
def test_step_equals_the_rolled_reference(name, n, dt, direction, seed):
    H = {"pendulum": PENDULUM, "nonmech": NONMECH, "mech2": MECH2}[name]
    shape = (n,) if H.dim == 1 else (n // 4, n // 8)
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)
    v_max = 2.5
    got = lax_oleinik_step(u, H, dt, direction=direction, v_max=v_max)
    assert got.tobytes() == _rolled_step(u, H, dt, direction, v_max).tobytes()


def _stacked_step(u, H, dt, direction, v_max):
    """The mechanical step as the minimum (maximum) of the shift stack.

    The stack is taken in chunks of at most 256 shifts, so a 4096-point
    line at K = 2048 does not hold 4097 rows at once.
    """
    sign = 1.0 if direction == "descending" else -1.0
    pick = np.min if direction == "descending" else np.max
    out = u.copy()
    for axis, n in enumerate(u.shape):
        shifts = weakkam._shifts(n, v_max, dt)
        quad = (shifts * (1.0 / n)) ** 2 / (2 * dt)
        out = pick([pick(_rolls(out, axis)[n - shifts[i:i + 256]]
                         + (sign * quad[i:i + 256]).reshape((-1,) + (1,) * u.ndim), axis=0)
                    for i in range(0, shifts.size, 256)], axis=0)
    grids = np.meshgrid(*(np.arange(n) / n for n in u.shape), indexing="ij")
    return out - sign * dt * H.potential(grids[0] if u.ndim == 1 else np.stack(grids, -1))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(1,), (2,), (3,), (7,), (100,), (1000,), (1024,), (4096,),
                        (3, 4), (5, 8), (9, 2), (1, 6), (7, 1), (33, 64)]),
       st.sampled_from([0.01, 0.1, 0.5]), st.sampled_from([2.5, 3.7, 40.0]),
       st.sampled_from(["random", "constant", "blocks", "zero"]),
       st.sampled_from([1e-3, 1.0, 1e3]),
       st.sampled_from(["descending", "ascending"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_quadratic_pass_equals_the_stack(shape, dt, v_max, kind, scale, direction, sine, seed):
    # v_max 40 or dt 0.5 caps the window at K = n // 2; constant, zero and
    # repeated-block u give exact ties between candidates; a sine potential
    # puts -0.0 in the potential table, where the sign of a zero pass value
    # shows in the step
    rng = np.random.default_rng(seed)
    H = [[PENDULUM, MECH2], [SINE, SINE2]][sine][len(shape) - 1]
    u = {"random": lambda: rng.uniform(-1.0, 1.0, size=shape),
         "constant": lambda: np.full(shape, rng.uniform(-1.0, 1.0)),
         "blocks": lambda: np.resize(np.repeat(rng.integers(-2, 3, size=8), 4),
                                     shape[::-1]).T.astype(float),
         "zero": lambda: np.zeros(shape)}[kind]() * scale
    got = lax_oleinik_step(u, H, dt, direction=direction, v_max=v_max)
    assert got.tobytes() == _stacked_step(u, H, dt, direction, v_max).tobytes()


@pytest.mark.parametrize("call", [
    lambda: lax_oleinik_step(np.zeros(64), PENDULUM, 0.1, direction="ascend"),
    lambda: lax_oleinik_step(np.zeros(64), NONMECH, 0.1, direction="ascend"),
    lambda: critical_value(PENDULUM, grid=64, direction="ascend")],
    ids=["quadratic-step", "table-step", "critical-value"])
def test_unknown_direction_is_refused_by_name(call):
    with pytest.raises(ValueError, match="'ascend'"):
        call()


def test_step_rejects_bad_dt(free):
    with pytest.raises(ValueError):
        lax_oleinik_step(np.zeros(64), free, 0.7)


@pytest.mark.parametrize("H", [NONMECH, PENDULUM], ids=["legendre", "mechanical"])
def test_a_table_of_another_shape_is_refused_by_name(H):
    # a one-row table used to broadcast into a step off by up to 1.4
    u = np.zeros(64)
    v_max = weakkam._velocity_bound(H)
    table = weakkam._grid_table(H, u.shape, 0.1, v_max)
    assert lax_oleinik_step(u, H, 0.1, v_max=v_max, table=table).shape == u.shape
    with pytest.raises(ValueError, match="table has shape"):
        lax_oleinik_step(u, H, 0.1, v_max=v_max, table=table[:1])


@pytest.mark.parametrize("H", [NONMECH, PENDULUM], ids=["legendre", "mechanical"])
@pytest.mark.parametrize("v_max", [0, -1.0])
def test_a_non_positive_v_max_is_refused_by_name(H, v_max):
    # 0 used to stand for the default bound, and -1 to end in an empty argmin
    with pytest.raises(ValueError, match="v_max must be positive"):
        lax_oleinik_step(np.zeros(64), H, 0.1, v_max=v_max)


def test_critical_value_free(free):
    sol = critical_value(free, grid=256, dt=0.1)
    assert sol.alpha == pytest.approx(0.0, abs=1e-12)


def test_critical_value_pendulum(pendulum):
    sol = critical_value(pendulum, grid=1024, dt=0.1)
    assert abs(sol.alpha - 1.0) <= 1e-3
    assert sol.residual <= 1e-9
    # Lipschitz bound: max |p| on {H <= alpha + 1}
    n = sol.u.size
    du = (np.roll(sol.u, -1) - np.roll(sol.u, 1)) * n / 2
    p_bound = np.sqrt(2.0 * (sol.alpha + 1.0 + 1.0))
    assert np.max(np.abs(du)) <= p_bound


def test_critical_value_two_term():
    H = parse_hamiltonian("p^2/2 + cos(2*pi*q) + 0.3*cos(4*pi*q)", 1)
    sol = critical_value(H, grid=1024, dt=0.1)
    vmax = float(np.max(H.potential(np.arange(8192) / 8192)))
    assert abs(sol.alpha - vmax) <= 1e-3


def test_alpha_independent_of_initialization(pendulum):
    a1 = critical_value(pendulum, grid=512, dt=0.1).alpha
    a2 = critical_value(pendulum, grid=512, dt=0.1, seed=123).alpha
    assert abs(a1 - a2) <= 1e-3


def test_infmax_free(free):
    a_hat, _ = critical_value_infmax(free, grid=512, restarts=2, sweeps=4)
    assert a_hat == pytest.approx(0.0, abs=1e-9)


def test_infmax_pendulum_bracket(pendulum):
    alpha = critical_value(pendulum, grid=1024, dt=0.1).alpha
    a_hat, _ = critical_value_infmax(pendulum, grid=1024, seed=5)
    assert alpha - 1e-3 <= a_hat <= alpha + 1e-2


def test_infmax_restricted_to_zero_section(pendulum):
    # with the zero graph alone the inf-max is max_q H(q, 0)
    q = np.arange(1024) / 1024
    single = float(np.max(pendulum.value(q, np.zeros_like(q))))
    a_hat, _ = critical_value_infmax(pendulum, grid=1024, restarts=1, sweeps=1)
    assert a_hat <= single + 1e-12


def test_subsolution_checks(free, pendulum):
    ok, bad, _ = subsolution_check(np.zeros(512), free, 0.0)
    assert ok and bad.size == 0
    big = 0.5 * np.sin(2 * np.pi * np.arange(512) / 512)
    ok2, bad2, _ = subsolution_check(big, free, 0.0)
    assert not ok2 and bad2.size > 0
    # the symmetrized critical solution is a subsolution away from kinks
    sm = critical_value(pendulum, grid=1024, dt=0.05)
    sp = critical_value(pendulum, grid=1024, dt=0.05, direction="ascending")
    u = 0.5 * (sm.u + (sp.u - sp.u.min()))
    u, alpha = u - u.min(), 0.5 * (sm.alpha + sp.alpha)
    ok3, bad3, margin = subsolution_check(u, pendulum, alpha, tol=1e-2)
    n = 1024
    du = (np.roll(u, -1) - np.roll(u, 1)) * n / 2
    kink = np.abs(np.roll(du, -1) - du) > 0.5
    collar = np.zeros(n, dtype=bool)
    for j in np.nonzero(kink)[0]:
        for k in range(-2, 3):
            collar[(j + k) % n] = True
    assert all(collar[j] for j in bad3)
    assert np.max(margin[~collar]) <= 1e-2


def test_pendulum_aubry_and_mane(pendulum):
    sol = weak_kam_family(pendulum, grid=1024, dt=0.1, horizon=50.0)
    assert sol.aubry_pts.shape == (1, 2)
    assert np.hypot(sol.aubry_pts[0, 0], sol.aubry_pts[0, 1]) <= 2.0 / 1024
    assert len(sol.mane_pts) >= 1
    assert sol.meta["family_size"] >= 2


def test_double_well_structure(double_well):
    sol = weak_kam_family(double_well, grid=1024, dt=0.1, horizon=50.0)
    qs = np.sort(sol.aubry_pts[:, 0])
    assert sol.aubry_pts.shape[0] == 2
    assert abs(qs[0] - 0.0) <= 2.0 / 1024 and abs(qs[1] - 0.5) <= 2.0 / 1024
    # heteroclinics appear in the Mane set
    m = sol.mane_pts
    assert np.sum(np.abs(m[:, 1]) > 0.5) > 100
    # Aubry subset of Mane subset of the critical shell
    for a in sol.aubry_pts:
        dq = np.abs(m[:, 0] - a[0])
        dq = np.minimum(dq, 1 - dq)
        assert np.min(np.hypot(dq, m[:, 1] - a[1])) <= 2.0 / 1024
    vals = double_well.value(m[:, 0], m[:, 1])
    assert np.max(np.abs(vals - sol.alpha)) <= 1e-3


def test_dim2_critical_value():
    H = parse_hamiltonian("(p1^2 + p2^2)/2 + 0.3*cos(2*pi*q1) + 0.2*cos(2*pi*q2)", 2)
    sol = critical_value(H, grid=128, dt=0.1)
    assert abs(sol.alpha - 0.5) <= 1e-3


def _meshgrid_table(H, velocities, q_grid):
    """The Legendre Newton solve on two full (velocity, base) meshgrids."""
    V, Q = np.meshgrid(velocities, q_grid, indexing="ij")
    P = V.copy()
    for _ in range(80):
        g = H.grad_p(Q, P) - V
        hpp = np.maximum(H.hess_pp(Q, P)[..., 0, 0], 1e-9)
        P = P - np.clip(g / hpp, -1.0, 1.0)
        if np.max(np.abs(g)) < 1e-12:
            break
    else:
        raise AssertionError("reference Legendre solve did not converge")
    return P * V - H.value(Q, P)


@pytest.mark.parametrize("expr", [
    "p^2/2 + 0.3*sin(2*pi*q)*p + 0.5*cos(2*pi*q)",
    "p^4/12 + p^2/2 + 0.3*cos(2*pi*q)*p + 0.2*sin(4*pi*q)",
    "exp(p)/2 + exp(-p)/2 + 0.4*cos(2*pi*q)"])
def test_legendre_table_matches_the_meshgrid_solve(expr):
    H = parse_hamiltonian(expr, 1)
    velocities = np.arange(-40, 41) * (1.0 / 256) / 0.1
    q = np.arange(256) / 256
    got = legendre_table(H, velocities, q)
    assert got.tobytes() == _meshgrid_table(H, velocities, q).tobytes()
    assert got.shape == (81, 256)


@pytest.mark.parametrize("budget", [7, 259])
@pytest.mark.parametrize("n, dt", [(64, 0.1), (64, 0.5), (50, 0.1)])
def test_ragged_row_blocks_are_bit_identical(monkeypatch, budget, n, dt):
    # v_max 2.5 gives 33, 65 (K = n // 2) and 27 rows; a budget of 7 elements
    # makes one-row blocks, one of 259 blocks of 4 or 5 rows with a shorter
    # last one.  The quartic H's Newton solve takes longest at large
    # velocities, put first and then last, so a stop test read on the last
    # block or on the first ends early.
    v_max = 2.5
    u = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    velocities = weakkam._shifts(n, v_max, dt) * (1.0 / n) / dt
    q = np.arange(n) / n
    quartic = parse_hamiltonian("p^4/12 + p^2/2 + 0.3*cos(2*pi*q)*p + 0.2*sin(4*pi*q)", 1)
    solves = [(H, vel, _meshgrid_table(H, vel, q)) for H, vel in
              ((NONMECH, velocities), (quartic, velocities[::-1] - velocities[0]),
               (quartic, velocities - velocities[0]))]
    steps = {d: _rolled_step(u, NONMECH, dt, d, v_max) for d in ("descending", "ascending")}
    monkeypatch.setattr(weakkam, "STACK_BLOCK", budget)
    sizes = [len(range(velocities.size)[b]) for b in weakkam._row_blocks(velocities.size, n)]
    assert sum(sizes) == velocities.size and sizes[0] == max(1, budget // n)
    assert budget < n or sizes[-1] < sizes[0]
    for H, vel, want in solves:
        assert legendre_table(H, vel, q).tobytes() == want.tobytes()
    for direction, want in steps.items():
        got = lax_oleinik_step(u, NONMECH, dt, direction=direction, v_max=v_max)
        assert got.tobytes() == want.tobytes()


def test_the_table_build_and_step_stay_near_the_table_size():
    # the weakkam-nonmech table, 1025 x 1024 (K = n // 2) and 8.0 MiB; a
    # whole-table Newton solve peaked at 48.1 MiB and a whole-stack step took
    # 8.06 MiB above its inputs
    v_max = weakkam._velocity_bound(NONMECH)
    u = np.random.default_rng(0).uniform(-1.0, 1.0, 1024)
    tracemalloc.start()
    try:
        table = weakkam._grid_table(NONMECH, u.shape, 0.1, v_max)
        held, build = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        lax_oleinik_step(u, NONMECH, 0.1, v_max=v_max, table=table)
        step = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert table.shape == (1025, 1024)
    assert build <= table.nbytes + 4 * 2 ** 20, build / 2 ** 20
    assert step <= 2 * 2 ** 20, step / 2 ** 20


def test_legendre_table_refuses_a_concave_hamiltonian():
    H = parse_hamiltonian("-p^2/2 + cos(2*pi*q)", 1)
    with pytest.raises(RuntimeError, match="fiberwise convex"):
        legendre_table(H, np.linspace(-1.0, 1.0, 5), np.arange(16) / 16)


def _count_tables(monkeypatch):
    calls = []
    inner = weakkam.legendre_table

    def spy(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(weakkam, "legendre_table", spy)
    return calls


def test_weak_kam_family_builds_one_table(monkeypatch):
    calls = _count_tables(monkeypatch)
    sol = weak_kam_family(NONMECH, grid=256, dt=0.1, horizon=5.0)
    assert len(calls) == 1
    # both directions read it: the ascending solve agrees with a fresh one
    monkeypatch.undo()
    fresh = critical_value(NONMECH, grid=256, dt=0.1, direction="ascending")
    assert sol.meta["alpha_ascending"] == fresh.alpha


def test_smoothing_builds_one_table(monkeypatch):
    u = 0.1 * np.sin(2 * np.pi * np.arange(128) / 128)
    calls = _count_tables(monkeypatch)
    smooth_subsolution(u, NONMECH, s=0.05)
    assert len(calls) == 1
    calls.clear()
    smooth_subsolution(u, PENDULUM, s=0.05)
    assert calls == []


def test_mechanical_steps_share_one_potential_table():
    # the potential is sampled a fixed number of times per run, not per step
    H = parse_hamiltonian("p^2/2 + cos(2*pi*q)", 1)
    calls = []
    inner = H.potential

    def spy(q):
        calls.append(q.shape)
        return inner(q)

    H = dataclasses.replace(H, potential=spy)
    counts = {}
    for seed in (None, 0):
        calls.clear()
        sol = critical_value(H, grid=256, seed=seed)
        counts[sol.iterations] = len(calls)
    assert len(counts) == 2, "the two runs should take different iteration counts"
    assert len(set(counts.values())) == 1, counts


def test_weak_kam_family_trims_its_members_in_one_batch(monkeypatch):
    calls = []
    inner = hamcore.integrate

    def spy(*args, **kwargs):
        calls.append(args[4])
        return inner(*args, **kwargs)

    monkeypatch.setattr(hamcore, "integrate", spy)
    sol = weak_kam_family(NONMECH, grid=256, dt=0.1, horizon=5.0)
    trimming = sol.meta["trimming"]
    assert len(trimming) == sol.meta["family_size"]
    assert all(set(t) == {"steps_run", "stationary", "traj_steps"} for t in trimming)
    # one call per chunk steps every member in both time directions
    assert sum(calls) == max(t["steps_run"] for t in trimming)
