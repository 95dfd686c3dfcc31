"""Assembling scAtteR++ deployments.

scAtteR++ reuses the :class:`~repro.scatter.pipeline.ScatterPipeline`
machinery with swapped service classes: stateless stages wrapped in
queue sidecars.  :func:`scatterpp_pipeline_kwargs` builds the keyword
overrides; the ablation flags let benchmarks isolate how much of the
improvement comes from statelessness versus the sidecar.
"""

from __future__ import annotations

from typing import Optional

from repro.scatter.pipeline import SERVICE_CLASSES
from repro.scatterpp.services import (
    PackedEncodingService,
    PackedLshService,
    StatelessMatchingService,
    StatelessSiftService,
)
from repro.scatterpp.sidecar import sidecar_wrap

#: The paper's staleness threshold: 100 ms, the maximum tolerable
#: latency in XR applications (§5).
DEFAULT_THRESHOLD_S = 0.100


def scatterpp_pipeline_kwargs(*, threshold_s: Optional[float] = None,
                              stateless_sift: bool = True,
                              with_sidecars: bool = True,
                              flow: bool = False,
                              service_kwargs: Optional[dict] = None) -> dict:
    """Keyword arguments for :class:`ScatterPipeline` deploying
    scAtteR++ (or one of its ablations).

    * ``stateless_sift=False`` keeps the stateful sift↔matching loop.
    * ``with_sidecars=False`` keeps scAtteR's drop-when-busy ingress.
    * Both False reduces to plain scAtteR.
    * ``flow=True`` switches the flow substrate on in every sidecar;
      off keeps the paper's behaviour — and the golden trace digests —
      exactly.
    """
    threshold = (DEFAULT_THRESHOLD_S if threshold_s is None
                 else threshold_s)
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if flow and not with_sidecars:
        raise ValueError("flow control requires with_sidecars=True")

    classes = dict(SERVICE_CLASSES)
    if stateless_sift:
        classes["sift"] = StatelessSiftService
        classes["encoding"] = PackedEncodingService
        classes["lsh"] = PackedLshService
        classes["matching"] = StatelessMatchingService
    if with_sidecars:
        classes = {
            name: sidecar_wrap(cls, threshold_s=threshold, flow=flow)
            for name, cls in classes.items()
        }
    kwargs = {"service_classes": classes}
    if service_kwargs:
        kwargs["service_kwargs"] = service_kwargs
    return kwargs
