"""Shared fixtures; the expensive flowed curves are built once per session."""

import numpy as np
import pytest

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
