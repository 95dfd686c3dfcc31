"""The optimizer's evaluation oracle: genome specs → campaign cells.

Registered as the ``optimize`` pipeline in
:data:`repro.experiments.campaign.RUNNERS`, so genome candidates ride
the whole campaign stack — sharding across warm workers, failure
quarantine, and the content-addressed cell cache — exactly like every
characterization cell.

One oracle cell is a scAtteR++ run with the default flow substrate
(the ``scatterpp-flow`` preset) plus, when the genome carries
autoscaler genes, an app-aware :class:`~repro.orchestra.autoscaler.
Autoscaler` attached through the ``post_deploy`` hook.
After the run, the device/server energy model attributes joules and
cost (:func:`repro.metrics.energy.energy_summary`) — post-hoc, from
counters, moving zero events.

Neutrality contract (pinned by ``tests/test_determinism.py``): a
genome with no scaler genes — or a plain static placement name —
walks a trajectory *byte-identical* to the ``scatterpp-flow`` runner's
for the same placement, so the oracle inherits the serial ≡ sharded ≡
cached determinism guarantee without new golden files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.runner import (ExperimentResult, ExperimentSpec,
                                      run_experiment)
from repro.flow import default_flow_config
from repro.orchestra.optimize import Genome, ScalerGenes, is_genome_spec
from repro.scatter.config import PlacementConfig


def _scaler_genes(placement: PlacementConfig
                  ) -> Optional[ScalerGenes]:
    """Autoscaler genes encoded in the placement's name, if any.

    The genome's spec string *is* the placement name
    (:meth:`~repro.orchestra.optimize.Genome.to_placement`), so the
    scaler half survives the trip through the campaign layer — which
    only ships placement names across worker boundaries.
    """
    if not is_genome_spec(placement.name):
        return None
    return Genome.decode(placement.name).scaler


@dataclass
class _AutoscalerHook:
    """``post_deploy`` hook: attach an app-aware autoscaler built from
    ``genes`` and keep it for the result's decision log."""

    genes: ScalerGenes
    scaler: Optional[object] = None

    def __call__(self, sim, orchestrator, pipeline) -> None:
        from repro.orchestra.autoscaler import (AppAwareScalingPolicy,
                                                Autoscaler)

        policy = AppAwareScalingPolicy(
            drop_ratio_threshold=self.genes.drop_ratio,
            queue_depth_threshold=self.genes.queue_depth)
        self.scaler = Autoscaler(orchestrator, policy,
                                 max_replicas=self.genes.max_replicas,
                                 placement_machine=self.genes.machine)
        self.scaler.start()


def optimize_spec(placement: PlacementConfig, *, num_clients: int,
                  duration_s: float, seed: int = 0) -> ExperimentSpec:
    """The ``optimize`` preset: flow-on scAtteR++ plus, when the genome
    carries scaler genes, an autoscaler attached after deploy."""
    genes = _scaler_genes(placement)
    return ExperimentSpec(
        placement, num_clients, duration_s=duration_s, seed=seed,
        scatterpp=True, flow=default_flow_config(),
        post_deploy=_AutoscalerHook(genes) if genes is not None else None)


def run_optimize_experiment(
        placement: PlacementConfig, *, num_clients: int,
        duration_s: float, seed: int = 0) -> ExperimentResult:
    """One oracle cell: :func:`optimize_spec`, then post-hoc energy
    attribution and the autoscaler's decision log."""
    from repro.metrics.energy import energy_summary

    spec = optimize_spec(placement, num_clients=num_clients,
                         duration_s=duration_s, seed=seed)
    result = run_experiment(spec)
    result.energy = energy_summary(result)
    hook = spec.post_deploy
    if hook is not None:
        result.autoscaler = {
            "genes": hook.genes.as_dict(),
            "decisions": [{"timestamp_s": d.timestamp_s,
                           "service": d.service,
                           "reason": d.reason,
                           "replicas_after": d.replicas_after}
                          for d in hook.scaler.decisions],
            "skipped": [{"timestamp_s": s.timestamp_s,
                         "service": s.service,
                         "reason": s.reason}
                        for s in hook.scaler.skipped],
        }
    return result
