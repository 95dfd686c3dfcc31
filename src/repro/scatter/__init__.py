"""scAtteR: the distributed stream-processing AR pipeline (§3.1).

Five containerized microservices process a client's video stream:

``primary``  pre-processing (grayscale + dimension reduction; CPU)
``sift``     object detection / feature extraction — **stateful**:
             it keeps each frame's features in memory until
             ``matching`` fetches them (or a timeout expires)
``encoding`` PCA + Fisher-vector compression
``lsh``      LSH nearest-neighbour shortlist
``matching`` feature matching + pose estimation / tracking; fetches
             sift's stored state for every frame — the dependency
             loop behind the paper's backpressure findings

Transport is UDP; every service processes one frame at a time and
drops work that arrives while it is busy.  See
:mod:`repro.scatterpp` for the redesigned pipeline.
"""

from repro.scatter.client import ArClient
from repro.scatter.config import (
    PIPELINE_ORDER,
    PlacementConfig,
    baseline_configs,
    scaling_config,
)
from repro.scatter.pipeline import ScatterPipeline
from repro.scatter.resilience import BreakerState, CircuitBreaker
from repro.scatter.services import (
    EncodingService,
    LshService,
    MatchingService,
    PrimaryService,
    SiftService,
)

__all__ = [
    "ArClient",
    "BreakerState",
    "CircuitBreaker",
    "EncodingService",
    "LshService",
    "MatchingService",
    "PIPELINE_ORDER",
    "PlacementConfig",
    "PrimaryService",
    "ScatterPipeline",
    "SiftService",
    "baseline_configs",
    "scaling_config",
]
