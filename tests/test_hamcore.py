import dataclasses
import warnings

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings, strategies as st

from selkam import hamcore
from selkam.hamcore import (MIDPOINT_MAX_ITERS, MIDPOINT_TOL, Bin, Call, ExpressionError,
                            Neg, Num, Pi, PowInt, Var, _leapfrog, ast_to_text, integrate,
                            parse_hamiltonian, parse_periodic, shift_momentum,
                            tonelli_check)
from selkam.torus import wrap


def test_parse_and_evaluate_basic():
    H = parse_hamiltonian("p^2/2 + cos(2*pi*q)", 1)
    assert H.value(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert parse_hamiltonian("p^2/2", 1).value(0.3, 2.0) == pytest.approx(2.0)


def test_parse_syntax_error_position():
    with pytest.raises(ExpressionError) as exc:
        parse_hamiltonian("p^2/+cos(q)", 1)
    assert exc.value.position == 4


def test_parse_unknown_identifier():
    with pytest.raises(ExpressionError, match="unknown identifier"):
        parse_hamiltonian("p^2/2 + cos(x)", 1)


def test_parse_dimension_mismatch():
    with pytest.raises(ExpressionError, match="invalid for dim"):
        parse_hamiltonian("p1^2/2", 1)
    with pytest.raises(ExpressionError, match="invalid for dim"):
        parse_hamiltonian("p^2/2", 2)


def test_parse_division_by_variable_rejected():
    with pytest.raises(ExpressionError, match="division"):
        parse_hamiltonian("1/p", 1)
    with pytest.raises(ExpressionError, match="division"):
        parse_hamiltonian("p^2/cos(q)", 1)


def test_reserialization_idempotent():
    for src in ["p^2/2 + cos(2*pi*q)", "-p^2", "(p + 0.3*cos(2*pi*q))^2/2",
                "exp(sin(2*pi*q))*2 - 1.5e-2"]:
        H = parse_hamiltonian(src, 1)
        H2 = parse_hamiltonian(H.source, 1)
        assert H2.source == H.source


@pytest.mark.parametrize("src, dim, name", [("p^2/2 + q", 1, "q"),
                                            ("(p1^2+p2^2)/2 + q2", 2, "q2"),
                                            ("p^2/2 + cos(pi*q)", 1, "q"),
                                            ("exp(sin(q))*2 - 1.5e-2", 1, "q")])
def test_parse_rejects_non_periodic(src, dim, name):
    with pytest.raises(ExpressionError, match=f"not 1-periodic in {name}:"):
        parse_hamiltonian(src, dim)


@pytest.mark.parametrize("src, dim, mechanical", [
    ("p^2/2 + cos(2*pi*q)", 1, True),
    ("(p1^2 + p2^2)/2 + 0.3*cos(2*pi*q1) + 0.2*cos(2*pi*q2)", 2, True),
    ("p^2/2 + 0.3*sin(2*pi*q)*p + 0.5*cos(2*pi*q)", 1, False),
    # |p|^2/2 only through sin^2 + cos^2 = 1: expansion does not see it
    ("p^2/2*(sin(2*pi*q)^2 + cos(2*pi*q)^2) + cos(2*pi*q)", 1, False),
], ids=["pendulum", "dim-2 sum", "drift", "identity"])
def test_is_mechanical(src, dim, mechanical):
    assert parse_hamiltonian(src, dim).is_mechanical is mechanical


def test_identity_hidden_mechanical_h_flows_like_the_pendulum(pendulum):
    # the implicit midpoint serves the disguised pendulum: both schemes are
    # second order, so the endpoints agree to O(dt^2)
    H = parse_hamiltonian("p^2/2*(sin(2*pi*q)^2 + cos(2*pi*q)^2) + cos(2*pi*q)", 1)
    Q0, P0 = np.array([0.1, 0.3, 0.7]), np.array([0.5, -1.2, 0.0])
    Q, P = integrate(H, Q0, P0, 1e-3, 1000)
    Qr, Pr = integrate(pendulum, Q0, P0, 1e-3, 1000)
    assert np.max(np.abs(Q - Qr)) <= 1e-4 and np.max(np.abs(P - Pr)) <= 1e-4


def test_parse_periodic_evaluates_q_only_text():
    v = parse_periodic("0.02*sin(2*pi*q) + 0.5")
    q = np.arange(8) / 8
    assert np.array_equal(v(q), 0.02 * np.sin(2 * np.pi * q) + 0.5)
    assert np.array_equal(parse_periodic("0")(q), np.zeros(8))


@pytest.mark.parametrize("src, message, position", [
    ("p*cos(2*pi*q)", "identifier 'p' invalid for a function of q only", 0),
    ("sin(", "expected a number", 4),
    ("q", "function is not 1-periodic in q", 0),
])
def test_parse_periodic_rejects(src, message, position):
    with pytest.raises(ExpressionError, match=message) as exc:
        parse_periodic(src)
    assert exc.value.position == position and "Hamiltonian" not in str(exc.value)


@pytest.mark.parametrize("call, error, message, position", [
    (lambda: parse_hamiltonian("p^2/2 + q^x", 1), ExpressionError,
     "expected integer exponent", 10),
    (lambda: parse_hamiltonian("p^2/2 + sin q", 1), ExpressionError,
     "expected '\\(' after sin", 12),
    (lambda: parse_hamiltonian("p^2/2 + .", 1), ExpressionError, "malformed number", 8),
    # a negative exponent parses; this one is refused as not periodic
    (lambda: parse_hamiltonian("p^2/2 + q^-2", 1), ExpressionError,
     "not 1-periodic in q", 0),
    (lambda: parse_hamiltonian("p^2/2", 3), ValueError, "dim must be 1 or 2", None),
    (lambda: shift_momentum(parse_hamiltonian("p^2/2", 1), ("0", "0")), ValueError,
     "one shift expression per momentum", None)],
    ids=["exponent", "call-paren", "number", "negative-exponent", "dim-3", "shift-count"])
def test_parser_refusals(call, error, message, position):
    with pytest.raises(error, match=message) as exc:
        call()
    assert getattr(exc.value, "position", None) == position


def test_shift_momentum_rejects_a_momentum_in_the_shift(pendulum):
    with pytest.raises(ExpressionError, match="invalid for a function of q only"):
        shift_momentum(pendulum, "0.1*p")


@pytest.mark.parametrize("parse, src", [
    (lambda src: parse_hamiltonian(src, 1), "p^2/2 + p^-2"),
    (lambda src: parse_hamiltonian(src, 2), "(p1^2 + p2^2)/2 + exp(1000*q2)"),
    (parse_periodic, "exp(1000*q)")], ids=["pole-at-p-0", "overflow-dim-2", "potential"])
def test_parse_refuses_a_non_finite_function_without_warning(parse, src):
    # p^-2 used to pass with an ok Tonelli report and end a weakkam run in
    # an OverflowError; the check's own divide and overflow stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExpressionError, match="not finite at every sampled point") as exc:
            parse(src)
    assert exc.value.position == 0


def test_parse_accepts_periodic_with_large_values():
    # the tolerance is relative to |H|: exp(p) and high harmonics still pass
    parse_hamiltonian("exp(p)*exp(3*cos(2*pi*q)) + cos(200*pi*q)", 1)
    parse_hamiltonian("(p1^2 + p2^2)/2 + 0.3*sin(2*pi*(q1 - 2*q2))", 2)


def test_tonelli_examples(pendulum):
    rep = tonelli_check(pendulum)
    assert rep.ok and rep.min_hessian_eig == pytest.approx(1.0, abs=1e-12)
    assert not tonelli_check(parse_hamiltonian("p^4", 1)).ok
    rep_neg = tonelli_check(parse_hamiltonian("-p^2", 1))
    assert not rep_neg.ok and rep_neg.min_hessian_eig < 0


def test_gradients_match_finite_differences(pendulum):
    rng = np.random.default_rng(0)
    q = rng.uniform(0, 1, 1000)
    p = rng.uniform(-10, 10, 1000)
    h = 1e-6
    for H in (pendulum, parse_hamiltonian("exp(p)*0 + p^2/2 + sin(2*pi*q)*cos(2*pi*q)", 1)):
        fdq = (H.value(q + h, p) - H.value(q - h, p)) / (2 * h)
        fdp = (H.value(q, p + h) - H.value(q, p - h)) / (2 * h)
        assert np.max(np.abs(H.grad_q(q, p) - fdq) / (1 + np.abs(fdq))) <= 1e-6
        assert np.max(np.abs(H.grad_p(q, p) - fdp) / (1 + np.abs(fdp))) <= 1e-6


# One step of the flow, integrate(..., nsteps=1), on both integrators: the
# leapfrog for a mechanical H, the implicit midpoint for the others.

def test_flow_step_free_motion(free):
    # q' = H_p(p), p' = 0: both integrators are exact on a free motion
    quartic = parse_hamiltonian("p^4/4 + p^2/2", 1)
    assert free.is_mechanical and not quartic.is_mechanical
    for H, speed in ((free, 1.0), (quartic, 2.0)):
        Q, P = integrate(H, 0.0, 1.0, 0.1, 1)
        assert Q == pytest.approx(0.1 * speed, abs=1e-15) and P == 1.0


def test_flow_step_equilibrium(pendulum):
    # (0, 0) for the pendulum; (0, -c(0)) for H(q, p + c(q)), where c' vanishes
    Hn = shift_momentum(pendulum, "0.2*cos(2*pi*q)")
    assert not Hn.is_mechanical
    for H, p0 in ((pendulum, 0.0), (Hn, -0.2)):
        Q, P = integrate(H, 0.0, p0, 0.37, 1)
        assert Q == 0.0 and P == p0


def test_flow_step_reversible(pendulum):
    Hn = shift_momentum(pendulum, "0.2*cos(2*pi*q)")
    for H in (pendulum, Hn):
        Q, P = integrate(H, *integrate(H, 0.25, 0.3, 0.01, 1), -0.01, 1)
        assert abs(Q - 0.25) <= 1e-12 and abs(P - 0.3) <= 1e-12


def test_pendulum_energy_drift_and_reference(pendulum):
    Q, P = integrate(pendulum, 0.25, 0.3, 1e-3, 10000)
    drift = abs(pendulum.value(Q % 1.0, P) - pendulum.value(0.25, 0.3))
    assert drift <= 1e-6
    # endpoint frozen from a dt = 1e-5 reference run
    q_ref, p_ref = 0.731226594257, 0.570409395824
    dq = abs((Q - q_ref) - round(Q - q_ref))
    assert np.hypot(dq, P - p_ref) <= 2e-4


def test_energy_drift_bound_generic():
    H = parse_hamiltonian("p^2/2 + 0.5*cos(2*pi*q) + 0.2*sin(4*pi*q)", 1)
    Q, P = integrate(H, 0.1, 0.7, 1e-3, 10000)
    assert abs(H.value(Q % 1.0, P) - H.value(0.1, 0.7)) <= 1e-5


def test_shift_momentum_identity(pendulum):
    H2 = shift_momentum(pendulum, "0.3*cos(2*pi*q)")
    rng = np.random.default_rng(1)
    q = rng.uniform(0, 1, 200)
    p = rng.uniform(-3, 3, 200)
    expected = pendulum.value(q, p + 0.3 * np.cos(2 * np.pi * q))
    assert np.max(np.abs(H2.value(q, p) - expected)) <= 1e-12


def test_dim2_flow_and_energy():
    H = parse_hamiltonian("(p1^2 + p2^2)/2 + 0.3*cos(2*pi*q1)*cos(2*pi*q2)", 2)
    assert H.is_mechanical
    Q, P = integrate(H, np.array([0.1, 0.2]), np.array([0.3, -0.1]), 1e-3, 2000)
    drift = abs(H.value(Q % 1.0, P) - H.value(np.array([0.1, 0.2]),
                                              np.array([0.3, -0.1])))
    assert drift <= 1e-6


# ---------------------------------------------------------------------------
# The leapfrog computes the same floats as the textbook two-force stepper


@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False,
                 allow_infinity=False, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(-3.0)
@example(-5e-324)
@example(-1e-20)
@example(np.nextafter(1.0, 0.0))
@example(-np.nextafter(1.0, 0.0))
@example(-1e12)
def test_wrap_is_mod_one_bit_for_bit(x):
    got, want = wrap(x), np.mod(x, 1.0)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_wrap_is_mod_one_on_arrays():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.normal(scale=10.0 ** rng.integers(-8, 13, 20000)),
                        np.arange(-50.0, 50.0), -np.arange(50.0) - 0.0,
                        np.nextafter(np.arange(-50.0, 50.0), np.inf),
                        np.nextafter(np.arange(-50.0, 50.0), -np.inf),
                        [5e-324, -5e-324, 2.2e-308, -2.2e-308]])
    assert wrap(x).tobytes() == np.mod(x, 1.0).tobytes()
    assert wrap(x.reshape(-1, 2)).shape == (x.size // 2, 2)


def _strang_reference(spec, Q, P, dt, nsteps):
    """Kick-drift-kick with both forces evaluated afresh and three np.mod wraps."""
    sq = (lambda P: P * P) if spec.dim == 1 else (lambda P: np.sum(P * P, axis=-1))
    Q = np.array(Q, dtype=float)
    P = np.array(P, dtype=float)
    act = np.zeros(Q.shape[: Q.ndim - (spec.dim == 2)])
    g_prev = 0.5 * sq(P) - spec.potential(np.mod(Q, 1.0))
    for _ in range(nsteps):
        P = P - 0.5 * dt * spec.grad_potential(np.mod(Q, 1.0))
        Q = Q + dt * P
        P = P - 0.5 * dt * spec.grad_potential(np.mod(Q, 1.0))
        g = 0.5 * sq(P) - spec.potential(np.mod(Q, 1.0))
        act += 0.5 * dt * (g_prev + g)
        g_prev = g
    return Q, P, act


_LEAPFROG_CASES = {
    1: "p^2/2 + cos(2*pi*q) + 0.3*sin(4*pi*q)",
    2: "(p1^2 + p2^2)/2 + 0.3*cos(2*pi*q1)*cos(2*pi*q2) + 0.1*sin(2*pi*q2)",
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("accumulate_action", [False, True])
def test_leapfrog_matches_two_force_reference(dim, accumulate_action):
    H = parse_hamiltonian(_LEAPFROG_CASES[dim], dim)
    rng = np.random.default_rng(dim)
    shape = (40, 3) if dim == 1 else (60, 2)
    Q0 = rng.uniform(-2.0, 2.0, shape)
    P0 = rng.normal(scale=1.5, size=shape)
    Q0_copy, P0_copy = Q0.copy(), P0.copy()
    for dt in (1e-3, -0.02):
        out = _leapfrog(H, Q0, P0, dt, 137, accumulate_action=accumulate_action)
        ref = _strang_reference(H, Q0, P0, dt, 137)
        for got, want in zip(out, ref):
            assert got.shape == want.shape and np.array_equal(got, want)
    # the inputs are copied, not stepped in place
    assert np.array_equal(Q0, Q0_copy) and np.array_equal(P0, P0_copy)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n1, n2", [(1, 1), (7, 30), (250, 3)])
def test_integrate_chains_bit_for_bit(dim, n1, n2):
    H = parse_hamiltonian(_LEAPFROG_CASES[dim], dim)
    rng = np.random.default_rng(11)
    shape = (50,) if dim == 1 else (50, 2)
    Q0 = rng.uniform(-1.0, 2.0, shape)
    P0 = rng.normal(size=shape)
    Q1, P1 = integrate(H, Q0, P0, 2e-3, n1)
    Q2, P2 = integrate(H, Q1, P1, 2e-3, n2)
    Qf, Pf = integrate(H, Q0, P0, 2e-3, n1 + n2)
    assert np.array_equal(Q2, Qf) and np.array_equal(P2, Pf)


def _chunks(n, sizes=(1, 2, 3, 5, 8, 13, 1, 21, 1, 34)):
    """Consecutive slices of range(n) in varied sizes, covering every row."""
    start, k = 0, 0
    while start < n:
        yield slice(start, start + sizes[k % len(sizes)])
        start += sizes[k % len(sizes)]
        k += 1


@pytest.mark.parametrize("dim", [1, 2])
def test_leapfrog_rows_do_not_depend_on_their_batchmates(dim):
    # integrate(batch)[i] == integrate(row i), action included, bit for bit
    H = parse_hamiltonian(_LEAPFROG_CASES[dim], dim)
    rng = np.random.default_rng(23)
    shape = (150,) if dim == 1 else (150, 2)
    Q0 = rng.uniform(-1.0, 2.0, shape)
    P0 = rng.normal(scale=1.5, size=shape)
    batch = integrate(H, Q0, P0, 1e-3, 400, accumulate_action=True)
    for rows in _chunks(150):
        part = integrate(H, Q0[rows], P0[rows], 1e-3, 400, accumulate_action=True)
        for got, want in zip(part, batch):
            assert got.tobytes() == want[rows].tobytes()


# ---------------------------------------------------------------------------
# The implicit midpoint: one Newton form for dim 1 and dim 2


def _two_branch_midpoint(spec, Q, P, dt, nsteps):
    """Implicit midpoint with a dim-1 and a dim-2 Newton solve and three wraps;
    each row stops on its own residual."""
    Q = np.array(Q, dtype=float)
    P = np.array(P, dtype=float)
    n = spec.dim

    def integrand(q, p):
        gp = spec.grad_p(q, p)
        return (p * gp if n == 1 else np.sum(p * gp, axis=-1)) - spec.value(q, p)

    act = np.zeros(np.shape(spec.value(wrap(Q), P)))
    g_prev = integrand(wrap(Q), P)
    eye = np.eye(2 * n)
    for _ in range(nsteps):
        Qn = Q + dt * spec.grad_p(wrap(Q), P)
        Pn = P - dt * spec.grad_q(wrap(Q), P)
        for _ in range(MIDPOINT_MAX_ITERS):
            Qm, Pm = 0.5 * (Q + Qn), 0.5 * (P + Pn)
            FQ = Qn - Q - dt * spec.grad_p(wrap(Qm), Pm)
            FP = Pn - P + dt * spec.grad_q(wrap(Qm), Pm)
            # each row stops on its own residual: a converged row's update is masked
            res = np.maximum(np.abs(FQ), np.abs(FP))
            todo = ~((res if n == 1 else np.max(res, axis=-1)) < MIDPOINT_TOL)
            if not np.any(todo):
                break
            A = eye - 0.5 * dt * spec.xh_jacobian(wrap(Qm), Pm)
            if n == 1:
                F = np.stack([np.atleast_1d(FQ), np.atleast_1d(FP)], axis=-1)
                delta = np.linalg.solve(
                    np.broadcast_to(A, F.shape[:-1] + (2, 2)).reshape(-1, 2, 2),
                    F.reshape(-1, 2, 1)).reshape(F.shape)
                delta = np.where(np.atleast_1d(todo)[..., None], delta, 0.0)
                Qn = Qn - delta[..., 0].reshape(np.shape(Qn))
                Pn = Pn - delta[..., 1].reshape(np.shape(Pn))
            else:
                F = np.concatenate([np.atleast_2d(FQ), np.atleast_2d(FP)], axis=-1)
                delta = np.linalg.solve(A.reshape(-1, 2 * n, 2 * n),
                                        F.reshape(-1, 2 * n, 1)).reshape(F.shape)
                delta = np.where(np.atleast_1d(todo)[..., None], delta, 0.0)
                Qn = Qn - delta[..., :n].reshape(np.shape(Qn))
                Pn = Pn - delta[..., n:].reshape(np.shape(Pn))
        else:
            raise AssertionError("reference Newton did not converge")
        Q, P = Qn, Pn
        g = integrand(wrap(Q), P)
        act += 0.5 * dt * (g_prev + g)
        g_prev = g
    return Q, P, act


_MIDPOINT_CASES = {
    1: "p^2/2 + 0.3*sin(2*pi*q)*p + 0.5*cos(2*pi*q) + p^4/12",
    2: "(p1^2 + p2^2)/2 + 0.2*p1*p2 + 0.3*sin(2*pi*q1)*p2 "
       "+ 0.1*cos(2*pi*q2)*p1^2 + 0.5*cos(2*pi*q1)",
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("batch", [(), (7,), (3, 4)], ids=["single", "row", "grid"])
@pytest.mark.parametrize("accumulate_action", [False, True])
def test_midpoint_matches_two_branch_reference(dim, batch, accumulate_action):
    H = parse_hamiltonian(_MIDPOINT_CASES[dim], dim)
    assert not H.is_mechanical
    rng = np.random.default_rng(dim + len(batch))
    shape = batch + ((2,) if dim == 2 else ())
    Q0 = rng.uniform(-1.0, 2.0, shape)
    P0 = rng.normal(size=shape)
    for dt in (0.02, -0.05):
        out = integrate(H, Q0, P0, dt, 25, accumulate_action=accumulate_action)
        ref = _two_branch_midpoint(H, Q0, P0, dt, 25)
        for got, want in zip(out, ref):
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("cases", [_LEAPFROG_CASES, _MIDPOINT_CASES],
                         ids=["leapfrog", "midpoint"])
def test_rows_do_not_depend_on_their_batchmates_under_a_step_per_row(cases, dim):
    # integrate(batch)[i] == integrate(row i) with the scalar step of its own
    # sign, action included, bit for bit; the midpoint stops each row's Newton
    # solve on that row's residual
    H = parse_hamiltonian(cases[dim], dim)
    rng = np.random.default_rng(41 + dim)
    shape = (24,) if dim == 1 else (24, 2)
    Q0 = rng.uniform(-1.0, 2.0, shape)
    P0 = rng.normal(scale=1.5, size=shape)
    dt = np.where(rng.random(24) < 0.5, 2e-3, -2e-3)
    batch = integrate(H, Q0, P0, dt, 60, accumulate_action=True)
    for i in range(24):
        row = integrate(H, Q0[i], P0[i], float(dt[i]), 60, accumulate_action=True)
        for got, want in zip(row, batch):
            assert got.tobytes() == want[i].tobytes()
    with pytest.raises(ValueError, match="batch shape"):
        integrate(H, Q0, P0, dt[:5], 1)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("cases", [_LEAPFROG_CASES, _MIDPOINT_CASES],
                         ids=["leapfrog", "midpoint"])
def test_integrate_states_do_not_depend_on_accumulate_action(cases, dim):
    # the action rides along: the states are the same floats without it, and
    # the action of the first k rows is the all-row action's first k entries,
    # under a scalar step and under a step per row
    H = parse_hamiltonian(cases[dim], dim)
    rng = np.random.default_rng(31 + dim)
    shape = (40,) if dim == 1 else (40, 2)
    Q0 = rng.uniform(-1.0, 2.0, shape)
    P0 = rng.normal(size=shape)
    for dt in (2e-3, np.where(rng.random(40) < 0.5, 2e-3, -3e-3)):
        plain = integrate(H, Q0, P0, dt, 200)
        with_action = integrate(H, Q0, P0, dt, 200, accumulate_action=True)
        assert len(plain) == 2 and len(with_action) == 3
        for got, want in zip(with_action, plain):
            assert got.tobytes() == want.tobytes()
        for k in (1, 7, 40):
            leading = integrate(H, Q0, P0, dt, 200, accumulate_action=k)
            assert leading[2].tobytes() == with_action[2][:k].tobytes()
            for got, want in zip(leading, plain):
                assert got.tobytes() == want.tobytes()
        for k in (0, 41, -1, 2.0):
            with pytest.raises(ValueError, match="accumulate_action"):
                integrate(H, Q0, P0, dt, 1, accumulate_action=k)


def test_dim2_midpoint_energy_drift():
    H = parse_hamiltonian(_MIDPOINT_CASES[2], 2)
    assert tonelli_check(H).ok
    rng = np.random.default_rng(5)
    Q0 = rng.uniform(0.0, 1.0, (6, 2))
    P0 = rng.normal(scale=0.7, size=(6, 2))
    drift = []
    for dt, nsteps in ((2e-3, 1000), (1e-3, 2000)):
        Q, P = integrate(H, Q0, P0, dt, nsteps)
        drift.append(np.max(np.abs(H.value(wrap(Q), P) - H.value(Q0, P0))))
    # a symplectic second-order scheme: bounded energy error of order dt^2
    assert drift[1] <= 5e-6
    assert 3.0 <= drift[0] / drift[1] <= 5.0


def test_dim2_midpoint_time_reversal():
    H = parse_hamiltonian(_MIDPOINT_CASES[2], 2)
    rng = np.random.default_rng(6)
    Q0 = rng.uniform(0.0, 1.0, (6, 2))
    P0 = rng.normal(scale=0.7, size=(6, 2))
    Q1, P1 = integrate(H, Q0, P0, 0.01, 200)
    assert np.max(np.abs(Q1 - Q0)) > 0.05
    Q, P = integrate(H, Q1, P1, -0.01, 200)
    assert np.max(np.abs(Q - Q0)) <= 1e-10 and np.max(np.abs(P - P0)) <= 1e-10


def test_dim2_evaluators_need_a_trailing_axis_of_two():
    H = parse_hamiltonian(_MIDPOINT_CASES[2], 2)
    good, bad = np.zeros((5, 2)), np.zeros((5, 3))
    for f in (H.value, H.grad_q, H.grad_p, H.hess_pp, H.xh_jacobian):
        for q, p in ((bad, good), (good, bad), (good[:, :1], good)):
            with pytest.raises(ValueError, match="trailing axis of size 2"):
                f(q, p)
    for f in (H.potential, H.grad_potential):
        for q in (bad, np.zeros(5)):
            with pytest.raises(ValueError, match="trailing axis of size 2"):
                f(q)


# ---------------------------------------------------------------------------
# In-house derivatives against sympy, which serves as the test oracle only

_SYMPY_FUNCS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp}


def _to_sympy(node, symbols):
    if isinstance(node, Num):
        return sp.Integer(int(node.value)) if node.value.is_integer() else sp.Float(node.value)
    if isinstance(node, Pi):
        return sp.pi
    if isinstance(node, Var):
        return symbols[node.name]
    if isinstance(node, Neg):
        return -_to_sympy(node.arg, symbols)
    if isinstance(node, Bin):
        lhs, rhs = _to_sympy(node.lhs, symbols), _to_sympy(node.rhs, symbols)
        return {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs, "/": lhs / rhs}[node.op]
    if isinstance(node, PowInt):
        return _to_sympy(node.base, symbols) ** node.exponent
    return _SYMPY_FUNCS[node.func](_to_sympy(node.arg, symbols))


def _magnitude(node, env):
    """Size of every term of a folded tree, summed: bounds its rounding error."""
    if isinstance(node, Num):
        return abs(node.value)
    if isinstance(node, Var):
        return np.abs(env[node.name])
    if isinstance(node, Neg):
        return _magnitude(node.arg, env)
    if isinstance(node, Bin):
        lhs, rhs = _magnitude(node.lhs, env), _magnitude(node.rhs, env)
        return lhs + rhs if node.op in "+-" else lhs * rhs
    if isinstance(node, PowInt):
        return _magnitude(node.base, env) ** node.exponent
    arg = _magnitude(node.arg, env)
    return (1.0 + arg) * (np.exp(arg) if node.func == "exp" else 1.0)


_CONSTANTS = st.sampled_from(["1", "2", "3", "0.5", "0.25", "1.5e-1"]).map(
    lambda t: Num(float(t), t))


def _expressions(dim):
    """Grammar trees of a 1-periodic H: q enters through sin/cos(2 k pi q) only."""
    qs, ps = hamcore._IDENTS[dim][:dim], hamcore._IDENTS[dim][dim:]
    waves = st.builds(
        lambda func, k, q: Call(func, Bin("*", Bin("*", Num(2.0 * k, str(2 * k)), Pi()), Var(q))),
        st.sampled_from(["sin", "cos"]), st.integers(1, 2), st.sampled_from(qs))
    leaves = st.one_of(waves, st.sampled_from(ps).map(Var), _CONSTANTS, st.just(Pi()))
    return st.recursive(leaves, lambda inner: st.one_of(
        inner.map(Neg),
        st.builds(Bin, st.sampled_from("+-*"), inner, inner),
        st.builds(lambda a, c: Bin("/", a, c), inner, st.one_of(_CONSTANTS, st.just(Pi()))),
        st.builds(PowInt, inner, st.integers(0, 3)),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp"]), inner),
    ), max_leaves=8)


def _oracle_pairs(spec, trees, expr, symbols, env):
    """(public evaluator component at env, folded tree, sympy expression,
    argument names) for every tree the evaluators compile."""
    n = spec.dim
    names = hamcore._IDENTS[n]
    qs, ps = [symbols[s] for s in names[:n]], [symbols[s] for s in names[n:]]
    V = expr.subs({s: 0 for s in ps})
    # the evaluators' layout: a trailing axis holds the components in dim 2
    if n == 1:
        q, p, part = env["q"], env["p"], (lambda x, i: x)
    else:
        q = np.stack([env["q1"], env["q2"]], axis=-1)
        p = np.stack([env["p1"], env["p2"]], axis=-1)
        part = lambda x, i: x[..., i]
    dHdq, dHdp, dVdq = spec.grad_q(q, p), spec.grad_p(q, p), spec.grad_potential(q)
    hess, jac = spec.hess_pp(q, p), spec.xh_jacobian(q, p)
    yield spec.value(q, p), trees["H"], expr, names
    yield spec.potential(q), trees["V"], V, names[:n]
    for i in range(n):
        yield part(dHdq, i), trees["dHdq"][i], sp.diff(expr, qs[i]), names
        yield part(dHdp, i), trees["dHdp"][i], sp.diff(expr, ps[i]), names
        yield part(dVdq, i), trees["dVdq"][i], sp.diff(V, qs[i]), names[:n]
        for j in range(n):
            H_pp = sp.diff(expr, ps[i], ps[j])
            yield hess[..., i, j], trees["d2Hdp2"][i][j], H_pp, names
            # X_H = (H_p, -H_q); its Jacobian's blocks, negation undone
            yield jac[..., i, n + j], trees["d2Hdp2"][i][j], H_pp, names
            yield -jac[..., n + i, j], trees["d2Hdq2"][i][j], sp.diff(expr, qs[i], qs[j]), names
            yield jac[..., j, i], trees["d2Hdqdp"][i][j], sp.diff(expr, qs[i], ps[j]), names
            yield -jac[..., n + i, n + j], trees["d2Hdqdp"][i][j], \
                sp.diff(expr, qs[i], ps[j]), names


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_derivatives_match_sympy(dim, data):
    # every evaluator against sympy.diff evaluated at 40 digits, within 1e-12
    # of the size of the evaluated tree's terms
    ast = data.draw(_expressions(dim))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    try:
        spec = parse_hamiltonian(ast_to_text(ast), dim)
    except ExpressionError:
        # a tree whose rounding defeats the sampled periodicity check
        assume(False)
    names = hamcore._IDENTS[dim]
    symbols = {s: sp.Symbol(s, real=True) for s in names}
    expr = _to_sympy(ast, symbols)
    rng = np.random.default_rng(seed)
    env = {s: rng.uniform(0.0, 1.0, 6) if s.startswith("q") else rng.uniform(-1.5, 1.5, 6)
           for s in names}
    trees, mechanical = hamcore._symbolic(ast, dim)
    for got, tree, want, args in _oracle_pairs(spec, trees, expr, symbols, env):
        scale = 1.0 + _magnitude(tree, env)
        assume(np.all(np.isfinite(got)) and np.all(scale < 1e100))
        exact = sp.lambdify([symbols[s] for s in args], want, modules="mpmath")
        with mpmath.workdps(40):
            truth = np.array([float(exact(*(mpmath.mpf(float(env[s][k])) for s in args)))
                              for k in range(6)])
        assert np.all(np.abs(got - truth) <= 1e-12 * scale), (ast_to_text(tree, True), got, truth)
    if mechanical:
        kinetic = sum(symbols[s] ** 2 for s in names[dim:]) / 2
        V = expr.subs({symbols[s]: 0 for s in names[dim:]})
        assert sp.expand(expr - kinetic - V) == 0


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_text_round_trip_keeps_the_derivatives(dim, data):
    ast = data.draw(_expressions(dim))
    text = ast_to_text(ast)
    again = hamcore._Parser(text, dim).parse()
    assert again == ast and ast_to_text(again) == text
    trees, mechanical = hamcore._symbolic(ast, dim)
    assert hamcore._symbolic(again, dim) == (trees, mechanical)
    # a folded tree printed as grammar text folds back to itself
    for tree in [trees["H"], trees["V"], *trees["dHdq"], *trees["dHdp"],
                 *(t for row in trees["d2Hdp2"] + trees["d2Hdqdp"] for t in row)]:
        assume(all(np.isfinite(n.value) for n in _nums(tree)))
        assert hamcore._fold(hamcore._Parser(ast_to_text(tree), dim).parse()) == tree


def _nums(node):
    if isinstance(node, Num):
        yield node
    for child in (getattr(node, a) for a in ("arg", "lhs", "rhs", "base") if hasattr(node, a)):
        yield from _nums(child)


def _paths(node, path=()):
    """The attribute path of every subtree, the root's () first."""
    yield path
    for a in ("arg", "lhs", "rhs", "base"):
        if hasattr(node, a):
            yield from _paths(getattr(node, a), path + (a,))


def _at(node, path):
    return _at(getattr(node, path[0]), path[1:]) if path else node


def _replaced(node, path, new):
    if not path:
        return new
    return dataclasses.replace(node, **{path[0]: _replaced(getattr(node, path[0]), path[1:], new)})


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parse_errors_point_at_the_spliced_fault(dim, data):
    # one fault spliced around a subtree of a valid text: the error offset
    # points at the fault, or at the end of the text for an unclosed '('
    tree = data.draw(_expressions(dim))
    path = data.draw(st.sampled_from(list(_paths(tree))))
    kind = data.draw(st.sampled_from(["identifier", "divisor", "unclosed", "stray"]))
    qs, ps = hamcore._IDENTS[dim][:dim], hamcore._IDENTS[dim][dim:]
    divisor = data.draw(st.sampled_from(qs + ps + tuple(f"cos(2*pi*{q})" for q in qs)))
    wrapped = f"({ast_to_text(_at(tree, path))})"
    token, fault, message = {
        "identifier": ("zeta", f"({wrapped}*zeta)", "unknown identifier 'zeta'"),
        "divisor": (divisor, f"({wrapped}/{divisor})", "division by a non-constant"),
        "unclosed": ("", "(" + wrapped, "expected '\\)'"),
        "stray": (")", wrapped + ")", "unexpected trailing input"),
    }[kind]
    # an unclosed '(' in a divisor swallows the text after it into the
    # divisor, so the first fault read is then a non-constant divisor
    assume(kind != "unclosed" or not any(
        a == "rhs" and getattr(_at(tree, path[:i]), "op", None) == "/"
        for i, a in enumerate(path)))
    src = ast_to_text(_replaced(tree, path, Var("SPLICE"))).replace("SPLICE", fault)
    with pytest.raises(ExpressionError, match=message) as exc:
        parse_hamiltonian(src, dim)
    rest = src[exc.value.position:].lstrip()
    assert rest == "" if kind == "unclosed" else rest.startswith(token), (src, rest)


@pytest.mark.parametrize("src, dim", [
    ("p^2/2 + cos(2*pi*q)", 1),
    ("(p1^2 + p2^2)/2 + 0.3*cos(2*pi*q1) + 0.2*cos(2*pi*q2)", 2),
], ids=["pendulum", "dim-2 sum"])
def test_mechanical_evaluators_equal_sympy_lambdify(src, dim):
    # these H flow on the leapfrog, whose floats the workloads pin: each
    # evaluator gives lambdify's floats exactly
    spec = parse_hamiltonian(src, dim)
    names = hamcore._IDENTS[dim]
    symbols = {s: sp.Symbol(s, real=True) for s in names}
    expr = _to_sympy(spec.ast, symbols)
    rng = np.random.default_rng(0)
    env = {s: rng.uniform(-1.0, 2.0, 1000) for s in names}
    trees, _ = hamcore._symbolic(spec.ast, dim)
    for got, _, want, args in _oracle_pairs(spec, trees, expr, symbols, env):
        ref = sp.lambdify([symbols[s] for s in args], want, modules="numpy")
        assert np.array_equal(got, np.broadcast_to(ref(*(env[s] for s in args)), got.shape))


@pytest.mark.parametrize("src", ["p^2/2 - (cos(2*pi*q) - 1)", "p^2/(2*pi) + cos(2*pi*q)",
                                 "p^2/2 + (-cos(2*pi*q))", "-(-p^2)"])
def test_shift_momentum_keeps_grouping(src):
    # the shifted H is re-parsed from text, which must keep every grouping
    H = parse_hamiltonian(src, 1)
    shifted = shift_momentum(H, "0.3*cos(2*pi*q)")
    q = np.linspace(0.0, 1.0, 9)
    p = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(shifted.value(q, p), H.value(q, p + 0.3 * np.cos(2 * np.pi * q)),
                       rtol=1e-12, atol=1e-12)
