"""Discrete-event simulation kernel.

A minimal, deterministic process-based simulator in the style of SimPy:
processes are Python generators that yield *waitables* (timeouts, signals,
other processes), and the kernel advances virtual time through an event
heap.  All randomness used anywhere in the reproduction flows through
named, seeded streams from :mod:`repro.sim.rng` so experiment runs are
fully reproducible.
"""

from repro.sim.kernel import (
    AnyOf,
    AllOf,
    Interrupt,
    Process,
    Signal,
    SimulationError,
    Simulator,
    Timeout,
    TraceDigest,
)
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
    "Resource",
    "RngRegistry",
    "Signal",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TraceDigest",
]
