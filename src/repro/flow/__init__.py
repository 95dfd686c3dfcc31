"""Flow control substrate: backpressure, admission, batched dispatch.

See DESIGN.md §10.  The package is pure policy/state — sidecars,
clients, and services import from here; nothing here schedules events
or consumes RNG, which is what keeps the flow-off trajectories
byte-identical to the pre-flow simulator.
"""

from repro.flow.admission import (AdmissionPolicy,
                                  QueueGradientAdmission,
                                  TokenBucketAdmission, build_admission)
from repro.flow.config import (ADMISSION_POLICIES, FlowConfig,
                               default_flow_config, neutral_flow_config)
from repro.flow.credits import (CREDIT_WIRE_BYTES, CreditAdvertisement,
                                CreditLedger, TokenBucket)
from repro.flow.invariants import (ConservationError, SidecarLedger,
                                   check_client_conservation,
                                   check_result_conservation,
                                   check_sidecar_conservation,
                                   check_state_conservation,
                                   ledger_totals, sidecar_ledger)

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "CREDIT_WIRE_BYTES",
    "ConservationError",
    "CreditAdvertisement",
    "CreditLedger",
    "FlowConfig",
    "QueueGradientAdmission",
    "SidecarLedger",
    "TokenBucket",
    "TokenBucketAdmission",
    "build_admission",
    "check_client_conservation",
    "check_result_conservation",
    "check_sidecar_conservation",
    "check_state_conservation",
    "default_flow_config",
    "ledger_totals",
    "neutral_flow_config",
    "sidecar_ledger",
]
