"""Flow control substrate: backpressure, admission, batched dispatch.

See DESIGN.md §10.  The package is pure policy/state — sidecars,
clients, and services import from here; nothing here schedules events
or consumes RNG, which is what keeps the flow-off trajectories
byte-identical to the pre-flow simulator.
"""

from repro.flow.credits import (CREDIT_WIRE_BYTES, CreditAdvertisement,
                                CreditLedger, TokenBucket)
from repro.flow.invariants import (ConservationError, SidecarLedger,
                                   check_client_conservation,
                                   check_result_conservation,
                                   check_sidecar_conservation,
                                   check_state_conservation,
                                   ledger_totals, sidecar_ledger)

__all__ = [
    "CREDIT_WIRE_BYTES",
    "ConservationError",
    "CreditAdvertisement",
    "CreditLedger",
    "SidecarLedger",
    "TokenBucket",
    "check_client_conservation",
    "check_result_conservation",
    "check_sidecar_conservation",
    "check_state_conservation",
    "ledger_totals",
    "sidecar_ledger",
]
