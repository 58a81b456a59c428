"""Shared fixtures; the expensive flowed curves and action kernels are built once per session."""

from dataclasses import replace

import numpy as np
import pytest

from selkam import selector
from selkam.hamcore import parse_hamiltonian
from selkam.lagrangian import from_flow
from selkam.selector import graph_selector


@pytest.fixture(scope="session")
def free():
    return parse_hamiltonian("p^2/2", 1)


@pytest.fixture(scope="session")
def pendulum():
    return parse_hamiltonian("p^2/2 + cos(2*pi*q)", 1)


@pytest.fixture(scope="session")
def double_well():
    return parse_hamiltonian("p^2/2 + cos(4*pi*q)", 1)


@pytest.fixture(scope="session")
def whorl(pendulum):
    """Zero section flowed for T = 3 under the pendulum: the standard whorl."""
    return from_flow(np.zeros(256), pendulum, 3.0, steps=3000,
                     initial_samples=4096)


@pytest.fixture(scope="session")
def whorl_selector(whorl):
    """Graph selector of the whorl on 512 points, built once (read only)."""
    return graph_selector(whorl, 512)


@pytest.fixture(scope="session")
def whorl_mid(pendulum):
    """Milder T = 1.5 whorl for mollification-based tests."""
    return from_flow(np.zeros(256), pendulum, 1.5, steps=1500,
                     initial_samples=4096)


@pytest.fixture(scope="session")
def discrete_action():
    """``build_discrete_action`` that builds each kernel once a session.

    Given what the build hands ``_build_kernel`` (H, tau, kernel grid,
    initial fan width, steps), a kernel depends on neither v nor q.  The
    first action for an (H, T, steps, breakpoint count) builds its kernel;
    a later one asserts those arguments equal and takes that kernel through
    ``dataclasses.replace``.
    """
    built = {}

    def build(H, v, T, steps, q, xi_dim=1, lattice_size=None):
        args = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selector, "_build_kernel", lambda *a: args.append(a) or (None, None))
            probe = selector.build_discrete_action(H, v, T, steps, q, xi_dim=xi_dim,
                                                   lattice_size=lattice_size)
        key = (id(H), T, steps, xi_dim)
        if key not in built:
            built[key] = args[0], selector.build_discrete_action(
                H, v, T, steps, q, xi_dim=xi_dim, lattice_size=lattice_size)
        kernel_args, DA = built[key]
        assert args[0] == kernel_args, "the kernel arguments differ: it cannot be shared"
        return replace(DA, v_fun=probe.v_fun, q=probe.q, lattice_shape=probe.lattice_shape)

    return build
