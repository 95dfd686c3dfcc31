"""Client mobility across edge sites: trajectories + session handover.

The deterministic mobility model (:mod:`repro.mobility.trajectory`)
drives the existing netem machinery with piecewise site attachments;
the stateful handover protocol (:mod:`repro.mobility.handover`) moves a
client's session state between sites with real transfer cost,
mid-handover fault recovery, and epoch-guarded cutover;
:mod:`repro.mobility.metrics` folds the outcome into report columns.
Nothing here runs unless a mobility experiment engages it, so
mobility-off trace digests are untouched.
"""

from repro.mobility.handover import (
    HandoverCoordinator,
    HandoverNotice,
    HandoverRecord,
    SessionDirectory,
)
from repro.mobility.metrics import MobilityReport, build_mobility_report
from repro.mobility.trajectory import (
    AttachmentSegment,
    ClientTrajectory,
    default_site_profiles,
    default_trajectories,
    random_trajectory,
)

__all__ = [
    "AttachmentSegment",
    "ClientTrajectory",
    "HandoverCoordinator",
    "HandoverNotice",
    "HandoverRecord",
    "MobilityReport",
    "SessionDirectory",
    "build_mobility_report",
    "default_site_profiles",
    "default_trajectories",
    "random_trajectory",
]
