"""Deploying scAtteR on a testbed through the orchestrator."""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.cluster.container import Container
from repro.cluster.machine import Machine
from repro.cluster.testbed import Testbed
from repro.dsp.operator import StreamService
from repro.metrics.sketch import merge_sketches
from repro.net.addresses import Address
from repro.orchestra.orchestrator import Orchestrator
from repro.orchestra.sla import ServiceSla
from repro.scatter import config
from repro.scatter.config import PlacementConfig
from repro.scatter.services import (
    EncodingService,
    LshService,
    MatchingService,
    PrimaryService,
    SiftService,
)

SERVICE_CLASSES: Dict[str, Type[StreamService]] = {
    "primary": PrimaryService,
    "sift": SiftService,
    "encoding": EncodingService,
    "lsh": LshService,
    "matching": MatchingService,
}


class ScatterPipeline:
    """Builds and owns one scAtteR deployment."""

    def __init__(self, testbed: Testbed, orchestrator: Orchestrator,
                 placement: PlacementConfig, *,
                 service_classes: Optional[Dict[str, Type[StreamService]]] = None,
                 service_kwargs: Optional[Dict[str, dict]] = None):
        self.testbed = testbed
        self.orchestrator = orchestrator
        self.placement = placement
        self.service_classes = dict(SERVICE_CLASSES)
        if service_classes:
            self.service_classes.update(service_classes)
        self.service_kwargs = service_kwargs or {}
        self.deployed = False

    def deploy(self) -> None:
        """Deploy every replica per the placement configuration."""
        if self.deployed:
            return
        for service in config.PIPELINE_ORDER:
            for machine_name in self.placement.placements[service]:
                sla = ServiceSla(
                    service=service,
                    memory_bytes=config.SERVICE_MEMORY_BYTES[service],
                    requires_gpu=config.SERVICE_USES_GPU[service],
                    machine=machine_name)
                self.orchestrator.deploy(sla, self._factory)
        self.deployed = True

    def _factory(self, sla: ServiceSla, machine: Machine,
                 address: Address) -> StreamService:
        container = Container(
            machine, sla.service, base_memory_bytes=sla.memory_bytes,
            uses_gpu=sla.requires_gpu)
        service_class = self.service_classes[sla.service]
        rng = self.testbed.rng.stream(
            f"service.{sla.service}.{address.node}.{address.port}")
        extra = dict(self.service_kwargs.get(sla.service, {}))
        base_time_s = extra.pop("base_time_s",
                                config.SERVICE_TIME_S[sla.service])
        return service_class(
            name=sla.service, network=self.testbed.network,
            registry=self.orchestrator.registry, container=container,
            address=address,
            base_time_s=base_time_s,
            gpu_intensity=config.GPU_INTENSITY[sla.service],
            rng=rng, **extra)

    # ------------------------------------------------------------------
    # Introspection used by experiments
    # ------------------------------------------------------------------
    def instances(self, service: str) -> List[StreamService]:
        return self.orchestrator.instances(service)

    def service_latency_ms(self, service: str) -> float:
        """Mean processing latency across replicas (milliseconds).

        Per-replica latency sketches carry exact sums and counts, so
        the cross-replica mean is exact — merging, not resampling.
        """
        merged = merge_sketches(instance.stats.latency_samples_s
                                for instance in self.instances(service))
        if merged is None or merged.count == 0:
            return 0.0
        return 1000.0 * merged.mean

    def drop_counts(self) -> Dict[str, int]:
        """Busy-drops per service (summed over replicas)."""
        return {
            service: sum(i.stats.dropped_busy
                         for i in self.instances(service))
            for service in config.PIPELINE_ORDER
        }
