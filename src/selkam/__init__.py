"""Graph selectors and weak-KAM objects for Tonelli Hamiltonians on tori."""

from . import dynamics, front, hamcore, lagrangian, persistence, selector, weakkam

__version__ = "0.1.0"

__all__ = [
    "dynamics",
    "front",
    "hamcore",
    "lagrangian",
    "persistence",
    "selector",
    "weakkam",
]
