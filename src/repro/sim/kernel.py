"""Event-kernel backend selector.

``repro.sim.kernel`` is the import point every subsystem uses for the
discrete-event core.  It binds one of two interchangeable backends
sharing one determinism contract (identical ``(when, seq)`` execution
order ⇒ byte-identical trace digests):

``optimized`` (default)
    :mod:`repro.sim._kernel_impl` — the binary-heap kernel with a
    zero-delay ready lane, buffered digest and slotted waitables.

``reference``
    :mod:`repro.sim.reference` — the pre-optimization kernel, plus
    the in-place wake rule both kernels share, kept as the
    equivalence witness.  Exposed here so a whole
    experiment stack can be replayed on the witness
    (``REPRO_SIM_KERNEL=reference python -m repro run ...``); a thin
    shim adds the newer ``profile``/``wheel_stats`` surface without
    touching :mod:`repro.sim.reference` itself.

Select via the ``REPRO_SIM_KERNEL`` environment variable; any other
value fails fast.  The choice is made once, at import time — the
kernel classes are referenced all over the tree, so swapping after
import is not supported.
"""

from __future__ import annotations

import os

from repro.sim import _kernel_impl as _impl

#: Recognized ``REPRO_SIM_KERNEL`` values.
SIM_KERNEL_BACKENDS = ("optimized", "reference")

_backend = (os.environ.get("REPRO_SIM_KERNEL", "optimized")
            .strip().lower() or "optimized")
if _backend not in SIM_KERNEL_BACKENDS:
    raise RuntimeError(
        f"REPRO_SIM_KERNEL={_backend!r} is not one of "
        f"{'/'.join(SIM_KERNEL_BACKENDS)}")

# The digest/tooling surface is backend-independent (the reference
# witness keeps its own internal TraceDigest; fingerprints agree by
# construction), so it always comes from the optimized source.
TraceDigest = _impl.TraceDigest
_event_kind = _impl._event_kind

if _backend == "reference":
    from repro.sim import reference as _reference

    SimulationError = _reference.SimulationError
    Interrupt = _reference.Interrupt
    Waitable = _reference.Waitable
    Timeout = _reference.Timeout
    Signal = _reference.Signal
    AnyOf = _reference.AnyOf
    AllOf = _reference.AllOf
    Process = _reference.Process
    ProcessGenerator = _reference.ProcessGenerator

    class Simulator(_reference.Simulator):  # type: ignore[no-redef]
        """The witness kernel wearing the current ``Simulator`` surface.

        Adds the ``profile`` keyword (accepted, ignored — the witness
        predates the profiler and must not change) and an empty
        :meth:`wheel_stats`, so the full experiment stack runs
        unmodified on the reference backend.
        """

        def __init__(self, profile: bool = False) -> None:
            super().__init__()
            self.profile = None

        def wheel_stats(self) -> dict:
            """No wheel on the witness; empty stats for API parity."""
            return {}
else:
    SimulationError = _impl.SimulationError
    Interrupt = _impl.Interrupt
    Waitable = _impl.Waitable
    Timeout = _impl.Timeout
    Signal = _impl.Signal
    AnyOf = _impl.AnyOf
    AllOf = _impl.AllOf
    Process = _impl.Process
    ProcessGenerator = _impl.ProcessGenerator
    Simulator = _impl.Simulator


def active_backend() -> str:
    """The backend serving this process: ``optimized`` or ``reference``."""
    return _backend


def requested_backend() -> str:
    """The backend ``REPRO_SIM_KERNEL`` asked for — always the active
    one, since an unknown value fails at import instead of falling
    back."""
    return _backend


__all__ = [
    "AllOf", "AnyOf", "Interrupt", "Process", "ProcessGenerator",
    "Signal", "SimulationError", "Simulator", "Timeout", "TraceDigest",
    "Waitable", "active_backend", "requested_backend",
    "SIM_KERNEL_BACKENDS",
]
