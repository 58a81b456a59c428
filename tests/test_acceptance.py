"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Tolerances are pinned here, not
configurable: selector snap 1e-4, pointwise residuals 1e-3 outside
2-grid-step collars, critical values 1e-3, invariant-set matching within
2 grid steps, line integrals 1e-6.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from selkam.dynamics import (energy_level_check, equivariance_check,
                             graph_test, verify_theorem_1_5,
                             verify_theorem_6_3)
from selkam.front import fiber_sweep
from selkam.hamcore import parse_hamiltonian
from selkam.lagrangian import (from_flow, from_graph, line_integral_check,
                               mollify_sequence)
from selkam.persistence import connectivity_oracle, sublevel_persistence
from selkam.selector import generalized_selector, graph_selector, verify_selector
from selkam.weakkam import (critical_value, critical_value_infmax,
                            weak_kam_family)

GRID = np.arange(256) / 256


def _report(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _random_potential(rng, modes=3, amp=0.05):
    v = np.zeros(256)
    for k in range(1, modes + 1):
        a, b = rng.uniform(-amp, amp, 2) / k
        v += a * np.cos(2 * np.pi * k * GRID) + b * np.sin(2 * np.pi * k * GRID)
    return v


@pytest.fixture(scope="module")
def pendulum_actions(pendulum, discrete_action):
    """Discrete actions of criteria 2 and 3 (T = 1.5, q = 0.3), one kernel per
    breakpoint count, on criterion 2's lattices."""
    v = _random_potential(np.random.default_rng(5))
    return {d: discrete_action(pendulum, v, 1.5, 1500, 0.3, xi_dim=d, lattice_size=n)
            for d, n in ((1, 512), (2, 32), (3, 8))}


def test_criterion_1_selector_validity():
    rng = np.random.default_rng(11)
    # pairings respect the double-precision stretching bound e^(lambda T):
    # the 4*pi potential (lambda ~ 4*pi) only gets the shorter horizons
    cases = [(0.0, "p^2/2 + cos(2*pi*q)"),
             (0.5, "p^2/2 + 0.5*cos(2*pi*q) + 0.2*cos(4*pi*q)"),
             (1.5, "p^2/2 + 0.7*cos(2*pi*q) + 0.3*sin(2*pi*q)"),
             (3.0, "p^2/2 + cos(2*pi*q)"),
             (0.5, "p^2/2 + cos(4*pi*q)"),
             (1.5, "p^2/2 + cos(4*pi*q)"),
             (0.5, "p^2/2 + 0.7*cos(2*pi*q) + 0.3*sin(2*pi*q)"),
             (1.5, "p^2/2 + 0.5*cos(2*pi*q) + 0.2*cos(4*pi*q)"),
             (3.0, "p^2/2 + 0.6*cos(2*pi*q) + 0.2*sin(2*pi*q)"),
             (1.5, "p^2/2 + cos(2*pi*q)")]
    failures = []
    t_start = time.time()
    for i, (T, src) in enumerate(cases):
        H = parse_hamiltonian(src, 1)
        v = _random_potential(rng)
        L = from_flow(v, H, T, steps=max(8, int(T / 1e-3)), initial_samples=4096)
        sf = graph_selector(L, 512)
        if sf.lipschitz_const > L.pmax + 1e-2:
            failures.append(f"run {i}: Lipschitz {sf.lipschitz_const:.4f} > "
                            f"{L.pmax + 1e-2:.4f}")
        fibers = fiber_sweep(L, sf.q_grid)
        spec_dist = max(float(np.min(np.abs(fd.h - val))) if fd.h.size else np.inf
                        for fd, val in zip(fibers, sf.values))
        if spec_dist > 1e-4:
            failures.append(f"run {i}: spectrum distance {spec_dist:.2e} > 1e-4")
        rep = verify_selector(sf, L, c_tol=1e-3, collar=2)
        if rep.max_graph_distance > 1e-3 or rep.max_value_mismatch > 1e-3:
            failures.append(f"run {i}: residuals ({rep.max_graph_distance:.2e}, "
                            f"{rep.max_value_mismatch:.2e}) > 1e-3")
    elapsed = time.time() - t_start
    if elapsed > 600.0:
        failures.append(f"runtime {elapsed:.0f}s > 600s")
    _report(1, not failures,
            f"10 seeded class-H selectors valid at stated tolerances "
            f"({elapsed:.0f}s)" + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_2_minimax_oracle_equivalence(pendulum_actions):
    rng = np.random.default_rng(22)
    n_checked = 0
    mismatches = 0

    def trig_lattice(shape, rng):
        axes = [np.arange(n) / n for n in shape]
        G = np.zeros(shape)
        for _ in range(6):
            ks = [int(rng.integers(1, 4)) for _ in shape]
            amp = rng.normal()
            phase = rng.uniform(0, 2 * np.pi, len(shape))
            term = amp
            for ax, (x, k, ph) in enumerate(zip(axes, ks, phase)):
                shape_b = [1] * len(shape)
                shape_b[ax] = -1
                term = term * np.cos(2 * np.pi * k * x + ph).reshape(shape_b)
            G = G + term
        return G

    for _ in range(140):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(*[(64, 1025), (8, 33), (4, 13)][d - 1]))
        G = trig_lattice((n,) * d, rng)
        if sublevel_persistence(G).selected != connectivity_oracle(G).selected:
            mismatches += 1
        n_checked += 1

    for d, count in ((1, 40), (2, 12), (3, 8)):
        for j in range(count):
            q = (j * 0.37) % 1.0
            G = replace(pendulum_actions[d], q=q).lattice_values()
            if sublevel_persistence(G).selected != connectivity_oracle(G).selected:
                mismatches += 1
            n_checked += 1
    _report(2, n_checked >= 200 and mismatches == 0,
            f"spectral value equals the connectivity oracle exactly on "
            f"{n_checked} seeded fibers ({mismatches} mismatches)")


def test_criterion_3_action_gradient(pendulum_actions):
    # value and gradient take q as an argument and read no lattice when T > 0
    rng = np.random.default_rng(33)
    worst = 0.0
    n_samples = 0
    for d, DA in pendulum_actions.items():
        for _ in range(334):
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
            n_samples += 1
    _report(3, n_samples >= 1000 and worst <= 1e-6,
            f"discrete-action gradient matches central differences to "
            f"{worst:.2e} on {n_samples} samples")


def test_criterion_4_critical_values():
    pool = ["p^2/2 + cos(2*pi*q)",
            "p^2/2 + cos(2*pi*q) + 0.3*cos(4*pi*q)",
            "p^2/2 + 0.5*cos(2*pi*q) + 0.2*cos(4*pi*q)",
            "p^2/2 + cos(4*pi*q)",
            "p^2/2 + 0.4*cos(2*pi*q) + 0.3*sin(2*pi*q) + 0.2*cos(4*pi*q)"]
    failures = []
    for src in pool:
        H = parse_hamiltonian(src, 1)
        sol = critical_value(H, grid=1024, dt=0.1)
        vmax = float(np.max(H.potential(np.arange(65536) / 65536)))
        if abs(sol.alpha - vmax) > 1e-3:
            failures.append(f"{src}: |alpha - maxV| = {abs(sol.alpha - vmax):.2e}")
        a_hat, _ = critical_value_infmax(H, n_params=7, grid=1024, seed=7)
        if not (sol.alpha - 1e-3 <= a_hat <= sol.alpha + 1e-2):
            failures.append(f"{src}: infmax {a_hat:.6f} outside "
                            f"[{sol.alpha - 1e-3:.6f}, {sol.alpha + 1e-2:.6f}]")
    _report(4, not failures,
            "critical values match max V to 1e-3 and inf-max brackets hold "
            "on 5 mechanical Hamiltonians" + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_5_aubry_mane_structure():
    failures = []
    pend = parse_hamiltonian("p^2/2 + cos(2*pi*q)", 1)
    sol = weak_kam_family(pend, grid=1024, dt=0.1, horizon=50.0)
    h = 1.0 / 1024
    if sol.aubry_pts.shape[0] < 1:
        failures.append("pendulum Aubry set empty")
    else:
        d = np.hypot(np.minimum(np.abs(sol.aubry_pts[:, 0]),
                                1 - np.abs(sol.aubry_pts[:, 0])),
                     sol.aubry_pts[:, 1])
        if np.max(d) > 2 * h:
            failures.append(f"pendulum Aubry off the equilibrium by {np.max(d):.2e}")
    dw = parse_hamiltonian("p^2/2 + cos(4*pi*q)", 1)
    sol2 = weak_kam_family(dw, grid=1024, dt=0.1, horizon=50.0)
    if sol2.aubry_pts.shape[0] != 2:
        failures.append(f"double well has {sol2.aubry_pts.shape[0]} Aubry points")
    for s, Hs in ((sol, pend), (sol2, dw)):
        m = s.mane_pts
        for a in np.atleast_2d(s.aubry_pts):
            dq = np.abs(m[:, 0] - a[0])
            dq = np.minimum(dq, 1 - dq)
            if np.min(np.hypot(dq, m[:, 1] - a[1])) > 2 * h:
                failures.append("Aubry point missing from the Mane set")
        vals = Hs.value(m[:, 0], m[:, 1])
        if np.max(np.abs(vals - s.alpha)) > 1e-3:
            failures.append("Mane set leaves the critical shell")
    _report(5, not failures,
            "Aubry/Mane structure correct on pendulum and double well"
            + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_6_energy_pipeline(whorl, whorl_selector, pendulum):
    alpha = critical_value(pendulum, grid=1024, dt=0.1).alpha
    rep = verify_theorem_6_3(whorl, pendulum, alpha, whorl_selector, horizon=100.0)
    ok = (rep.subsolution_ok and rep.hausdorff_distance <= 2 * rep.grid_step
          and rep.inv_L.converged and rep.inv_graph.converged)
    _report(6, ok,
            f"graph-replacement pipeline: Hausdorff {rep.hausdorff_distance:.2e} "
            f"<= {2 * rep.grid_step:.2e}, trimming stabilized at horizon 100")


def test_criterion_7_invariant_graph_numerics(whorl, pendulum, free):
    failures = []
    # invariant inputs: the energy check and the graph test must both pass
    for L, H, label in ((from_graph(np.zeros(512)), free, "zero section / free"),
                        (from_graph(np.zeros(512)),
                         parse_hamiltonian("p^2/2 + 0.3", 1), "zero section / shifted free")):
        rep = verify_theorem_1_5(L, H, horizon=5.0)
        if not (rep.invariant and rep.ok):
            failures.append(f"{label}: invariant input failed the pipeline")
    # the whorl is not invariant and must be reported as such, no claim made
    rep = verify_theorem_1_5(whorl, pendulum, horizon=5.0)
    if rep.invariant:
        failures.append("whorl misreported as invariant")
    ok_g, _ = graph_test(whorl.phase_points())
    if ok_g:
        failures.append("whorl misreported as a graph")
    _report(7, not failures,
            "invariance implies single energy level and Lipschitz graph; "
            "whorl correctly reported non-invariant"
            + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_8_lipschitz_exact_machinery(whorl_mid):
    failures = []
    rng = np.random.default_rng(88)
    seq = mollify_sequence(whorl_mid, levels=5, base_width=1.0 / 128,
                           resample=8192)
    if not np.isfinite(seq.equilip_const):
        failures.append("no equi-Lipschitz certificate")
    for lev, entry in enumerate(seq.entries):
        worst = max(line_integral_check(entry, np.sort(rng.uniform(0, 1, 4)))
                    for _ in range(100))
        if worst > 1e-6:
            failures.append(f"level {lev}: line integral residual {worst:.2e}")
    f, rep = generalized_selector(seq, 512)
    if rep.hull_distance_max > 1e-3:
        failures.append(f"hull distance {rep.hull_distance_max:.2e} > 1e-3")
    if rep.extremal_value_gap_max > 1e-3:
        failures.append(f"extremal value gap {rep.extremal_value_gap_max:.2e} > 1e-3")
    if rep.n_extremal_checked < 100:
        failures.append(f"only {rep.n_extremal_checked} extremal points checked")
    _report(8, not failures,
            f"mollified sequences: single Lipschitz constant "
            f"{seq.equilip_const:.2f}, 100 sub-arcs per level at 1e-6, "
            f"generalized selector conditions at 1e-3 "
            f"({rep.n_extremal_checked} extremal points)"
            + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_9_equivariance(pendulum):
    rng = np.random.default_rng(99)
    failures = []
    for trial in range(3):
        c = float(rng.uniform(0.05, 0.2))
        w = c * np.sin(2 * np.pi * GRID) / (2 * np.pi)
        hd, i1, i2 = equivariance_check(np.zeros(256), w,
                                        f"{c:.6f}*cos(2*pi*q)", pendulum,
                                        a=1.0, horizon=50.0)
        if len(i1) == 0 or hd > 2.0 / 512:
            failures.append(f"case {trial}: Hausdorff {hd:.2e}")
    _report(9, not failures,
            "momentum-shift symplectomorphisms map invariant sets onto each "
            "other within 2 grid steps on 3 seeded cases"
            + ("; " + "; ".join(failures) if failures else ""))
