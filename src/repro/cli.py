"""Command-line interface.

Run experiments and regenerate paper figures without writing code::

    python -m repro figures                      # list figure targets
    python -m repro figure fig2 --duration 30    # regenerate one
    python -m repro run --config C12 --pipeline scatterpp \
        --clients 4 --duration 30 --trace        # one custom run
    python -m repro testbed                      # show the testbed
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import figures
from repro.experiments.reporting import (
    analytics_table,
    format_table,
    qos_table,
    service_metric_table,
    utilization_table,
)
from repro.experiments.campaign import resolve_placement
from repro.experiments.capacity import (
    DEFAULT_MAX_CLIENTS,
    DEFAULT_PROBE_DURATION_S,
    CapacitySlo,
    run_capacity_comparison,
    run_capacity_experiment,
)
from repro.experiments.runner import (
    ExperimentSpec,
    MobilitySpec,
    run_experiment,
)


def _print_qos_rows(rows: List[dict]) -> None:
    print(qos_table(rows))
    print()
    print(service_metric_table(rows, "service_latency_ms", "lat_ms"))
    print()
    print(utilization_table(rows))


def _print_fig7(rows: List[dict]) -> None:
    print(format_table(
        ["config", "clients", "FPS"],
        [[row["config"], row["clients"], row["fps"]] for row in rows]))


def _print_analytics(report: dict) -> None:
    print(analytics_table(report))


def _print_fig9(report: dict) -> None:
    print(format_table(
        ["loss", "clients", "FPS", "E2E(ms)"],
        [[f"{row['loss']:.5%}", row["clients"], row["fps"],
          row["e2e_ms"]] for row in report["loss"]]))
    print()
    print(format_table(
        ["RTT(ms)", "clients", "FPS", "E2E(ms)"],
        [[row["rtt_ms"], row["clients"], row["fps"], row["e2e_ms"]]
         for row in report["latency"]]))


def _print_fig10(panels: dict) -> None:
    rows = [[panel, row["config"], row["clients"], row["jitter_ms"]]
            for panel, panel_rows in panels.items()
            for row in panel_rows]
    print(format_table(["panel", "config", "clients", "jitter(ms)"],
                       rows))


def _print_headline(report: dict) -> None:
    print(format_table(["metric", "value"], [
        ["framerate multiplier", report["framerate_multiplier"]],
        ["capacity multiplier", report["capacity_multiplier"]],
        ["scAtteR success @1", report["scatter_success_1_client"]],
        ["scAtteR++ success @1",
         report["scatterpp_success_1_client"]],
    ]))


#: figure name -> (runner kwargs builder, printer, description)
FIGURES: Dict[str, tuple] = {
    "fig2": (figures.fig2_baseline_edge, _print_qos_rows,
             "baseline scAtteR on the edge (C1/C2/C12/C21)"),
    "fig3": (figures.fig3_scalability, _print_qos_rows,
             "scAtteR replica-scaling configurations"),
    "fig4": (figures.fig4_cloud, _print_qos_rows,
             "cloud-only deployment"),
    "fig6": (figures.fig6_scatterpp_edge, _print_qos_rows,
             "scAtteR++ on the edge"),
    "fig7": (figures.fig7_scaling_clients, _print_fig7,
             "scAtteR++ scaled services, 1-10 clients"),
    "fig8": (figures.fig8_sidecar_analytics, _print_analytics,
             "sidecar analytics, scaled deployment ramp"),
    "fig9": (figures.fig9_network_conditions, _print_fig9,
             "netem loss/latency sweeps"),
    "fig10": (figures.fig10_jitter, _print_fig10,
              "jitter panels (baseline/scaling/cloud)"),
    "fig11": (figures.fig11_hybrid, _print_qos_rows,
              "hybrid edge-cloud deployment"),
    "fig12": (figures.fig12_sidecar_e1, _print_analytics,
              "sidecar analytics, all services on E1"),
    "headline": (figures.headline_capacity, _print_headline,
                 "headline capacity/framerate multipliers"),
}


def _placement(name: str):
    """Resolve a ``--config`` value, exiting with the accepted forms
    when it names no placement."""
    try:
        return resolve_placement(name)
    except ValueError:
        raise SystemExit(
            f"unknown config {name!r}; use C1, C2, C12, C21, cloud, "
            f"hybrid, or a replica vector like 1,2,2,1,2") from None


def cmd_figures(args: argparse.Namespace) -> int:
    print(format_table(
        ["figure", "reproduces"],
        [[name, description]
         for name, (__, __p, description) in sorted(FIGURES.items())]))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    entry = FIGURES.get(args.name)
    if entry is None:
        print(f"unknown figure {args.name!r}; try 'figures'",
              file=sys.stderr)
        return 2
    runner, printer, description = entry
    print(f"# {args.name}: {description}\n")
    kwargs = {}
    if args.duration is not None:
        ramp = args.name in ("fig8", "fig12")
        kwargs["stage_s" if ramp else "duration_s"] = args.duration
    if args.seed is not None:
        kwargs["seed"] = args.seed
    printer(runner(**kwargs))
    return 0


def _crash_plan(crashes: List[str]):
    """A FaultPlan from ``--crash SERVICE@SECONDS`` flags (None if none)."""
    if not crashes:
        return None
    from repro.chaos.faults import FaultPlan, InstanceCrash

    faults = []
    for crash in crashes:
        service, sep, at = crash.partition("@")
        if not sep or not service:
            raise SystemExit(
                f"--crash wants SERVICE@SECONDS, got {crash!r}")
        faults.append(InstanceCrash(at_s=float(at), service=service))
    return FaultPlan(faults=faults)


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """The experiment a ``run`` or ``mobility`` command line asks for."""
    placement = _placement(args.config)
    task = dict(duration_s=args.duration, seed=args.seed)
    if args.command == "mobility":
        return ExperimentSpec(
            placement, args.clients, scatterpp=True,
            stateless_sift=False, plan=_crash_plan(args.crash),
            mobility=MobilitySpec(naive=args.naive,
                                  mean_dwell_s=args.dwell), **task)
    if args.flow and args.pipeline != "scatterpp":
        raise SystemExit("--flow requires --pipeline scatterpp "
                         "(the flow substrate lives in the sidecars)")
    if args.cohort_size is None:
        if args.tracers is not None or args.cohort_load != "constant":
            raise SystemExit("--tracers and --cohort-load require "
                             "--cohort-size")
    elif args.pipeline != "scatterpp":
        raise SystemExit("--cohort-size requires --pipeline scatterpp "
                         "(the cohort engine rides the sidecar flow "
                         "machinery)")
    clients = args.tracers if args.tracers is not None else args.clients
    return ExperimentSpec(
        placement, clients, scatterpp=args.pipeline == "scatterpp",
        flow=args.flow, cohort_size=args.cohort_size,
        cohort_load=args.cohort_load, tracing=args.trace, **task)


def cmd_run(args: argparse.Namespace) -> int:
    """``run`` and ``mobility``: one experiment, then one block per
    populated result field."""
    spec = _spec_from_args(args)
    result = run_experiment(spec)
    from repro.sim.kernel import active_backend

    print(format_table(["metric", "value"], [
        ["config", result.config_name],
        ["pipeline", "scatterpp" if spec.scatterpp else "scatter"],
        ["sim kernel", active_backend()],
        ["clients", result.num_clients],
        ["mean FPS", result.mean_fps()],
        ["success rate", result.success_rate()],
        ["availability", sum(c.availability() for c in result.clients)
         / len(result.clients)],
        ["E2E latency (ms)", result.mean_e2e_ms()],
        ["jitter (ms)", result.mean_jitter_ms()],
        ["estimated QoE (MOS 1-5)", result.qoe().mos],
        ["trace digest", result.trace_digest],
        ["outcome digest", result.outcome_digest()],
    ]))
    print()
    print(format_table(
        ["service", "latency(ms)", "memory(GB)"],
        [[service, latency,
          result.service_memory_gb().get(service, 0.0)]
         for service, latency
         in result.service_latency_ms().items()]))
    if result.flow is not None:
        flow = result.flow
        print()
        print(format_table(
            ["service", "enqueued", "rejected", "dispatched",
             "dropped_stale", "pending"],
            [[service,
              ledger.get("enqueued", 0), ledger.get("rejected", 0),
              ledger.get("dispatched", 0),
              ledger.get("dropped_stale", 0),
              ledger.get("pending", 0)]
             for service, ledger in flow["services"].items()]))
        print(f"\nclient frames paced: {flow['paced_frames']}, "
              f"batched: {flow['batched_frames']} frames in "
              f"{flow['batched_rounds']} rounds, shed on "
              f"backpressure: {flow['shed_backpressure']}")
    if result.cohort is not None:
        cohort = result.cohort
        population, ledger = cohort["spec"], cohort["ledger"]
        latency = cohort["latency_ms"]
        print()
        print(format_table(["cohort", "value"], [
            ["modeled clients", population["size"]],
            ["tracers (microscopic)", population["tracers"]],
            ["load process", population["load"]],
            ["bottleneck", f"{cohort['bottleneck_service']} "
                           f"({cohort['bottleneck_capacity_fps']:.1f}"
                           " fps)"],
            ["macro served fps", f"{cohort['served_fps']:.1f}"],
            ["macro latency p95 (ms)", f"{latency['p95']:.1f}"],
        ]))
        print()
        print(format_table(
            ["macro ledger", "frames"],
            [[key, ledger[key]]
             for key in ("offered", "shed_credits", "paced",
                         "rejected", "served", "dropped_stale",
                         "pending", "balance")]))
    if result.mobility is not None:
        report = result.mobility["report"]
        mttr = report["mttr_s"]
        print()
        print(format_table(["handover metric", "value"], [
            ["mode", "naive reconnect" if result.mobility["naive"]
             else "stateful handover"],
            ["handovers planned", report["planned"]],
            ["completed", report["completed"]],
            ["failed over (source died)", report["failed_over"]],
            ["abandoned", report["abandoned"]],
            ["superseded", report["superseded"]],
            ["attempts (retried)",
             f"{report['attempts']} ({report['retried']})"],
            ["handover MTTR mean (ms)", 1000.0 * mttr["mean"]],
            ["handover MTTR p95 (ms)", 1000.0 * mttr["p95"]],
            ["state entries moved", report["state_entries_moved"]],
            ["state moved (MB)",
             report["state_bytes_moved"] / 1e6],
            ["state entries lost", report["state_entries_lost"]],
            ["handover windows (client)", report["handover_windows"]],
            ["stale results rejected",
             report["rejected_stale_results"]],
            ["frames lost", report["frames_lost"]],
        ]))
        if report["frames_lost_by_reason"]:
            print()
            print(format_table(
                ["loss reason", "frames"],
                sorted(report["frames_lost_by_reason"].items(),
                       key=lambda kv: -kv[1])))
        print()
        print(format_table(
            ["client", "move", "outcome", "attempts", "latency(ms)",
             "entries", "lost"],
            [[record["client_id"],
              f"{record['from_site']}->{record['to_site']}",
              record["outcome"], record["attempts"],
              (1000.0 * record["latency_s"]
               if record["latency_s"] is not None else "-"),
              record["state_entries"], record["entries_lost"]]
             for record in result.mobility["handovers"]]))
    if result.resilience is not None:
        print()
        print(result.resilience.summary_table())
    if result.tracer is not None:
        print()
        breakdown = result.tracer.mean_breakdown_ms()
        print(format_table(
            ["trace component", "mean ms/frame"],
            sorted(breakdown.items(), key=lambda kv: -kv[1])))
        losses = result.tracer.loss_by_stage()
        if losses:
            print()
            print(format_table(
                ["lost after stage", "frames"],
                sorted(losses.items(), key=lambda kv: -kv[1])))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.cache import (DEFAULT_CACHE_DIR,
                                         CampaignCellCache)
    from repro.experiments.campaign import (
        Campaign,
        render_report,
        run_campaign,
    )

    cache = None
    if args.cache or args.cache_dir is not None:
        cache_dir = (args.cache_dir if args.cache_dir is not None
                     else DEFAULT_CACHE_DIR)
        cache = CampaignCellCache(cache_dir)
        print(f"  ... cell cache enabled under {cache_dir}/ "
              "(content-addressed; only changed cells recompute)")
    campaign = Campaign(
        name=args.name,
        pipelines=tuple(args.pipelines.split(",")),
        placements=tuple(args.placements.split(",")),
        client_counts=tuple(int(n) for n in args.clients.split(",")),
        duration_s=args.duration,
        seeds=tuple(int(s) for s in args.seeds.split(",")))
    if args.workers:
        tasks = len(campaign.cells) * len(campaign.seeds)
        print(f"  ... sharding {tasks} (cell, seed) tasks across "
              f"{args.workers} worker process(es)")
    report = run_campaign(
        campaign, store_dir=args.store, workers=args.workers,
        cache=cache,
        progress=lambda line: print(f"  ... {line}"),
        task_progress=(lambda line: print(f"      {line}"))
        if args.verbose else None)
    print()
    print(render_report(report))
    if report.cache is not None:
        cache = report.cache
        print(f"\ncell cache: hits={cache['hits']} "
              f"misses={cache['misses']} stored={cache['stored']} "
              f"corrupt={cache['corrupt']} "
              f"entries={cache['entries']} dir={cache['directory']}")
    if report.failures:
        print(f"\nWARNING: {len(report.failures)} cell(s) failed; "
              f"see the 'failed cells' table above.")
    if args.store:
        print(f"\nper-cell summaries stored under {args.store}/")
    return 0 if not report.failures else 1


def cmd_capacity(args: argparse.Namespace) -> int:
    config = _placement(args.config)
    slo_kwargs = {}
    if args.slo_fps is not None:
        slo_kwargs["min_fps"] = args.slo_fps
    if args.slo_p95_ms is not None:
        slo_kwargs["max_p95_ms"] = args.slo_p95_ms
    slo = CapacitySlo(**slo_kwargs)
    kwargs = dict(
        slo=slo, seed=args.seed, duration_s=args.duration,
        max_clients=args.max_clients,
        progress=lambda line: print(f"  ... {line}"))

    def print_report(report) -> None:
        print(format_table(
            ["clients", "FPS", "p95 E2E(ms)", "success", "SLO"],
            [[p.clients, p.fps, p.p95_e2e_ms, p.success_rate,
              "pass" if p.meets_slo else "fail"]
             for p in report.probes]))
        print(f"max clients at SLO: {report.max_clients}")

    if args.compare:
        comparison = run_capacity_comparison(config, **kwargs)
        print(f"\n# flow OFF ({config.name})")
        print_report(comparison["off"])
        print(f"\n# flow ON ({config.name})")
        print_report(comparison["on"])
        print(f"\ncapacity gain (on/off): {comparison['gain']:.2f}x")
    else:
        report = run_capacity_experiment(config, flow=args.flow, **kwargs)
        arm = "ON" if args.flow else "OFF"
        print(f"\n# flow {arm} ({config.name})")
        print_report(report)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.budget is not None:
        return _cmd_optimize_search(args)
    from repro.orchestra.placement import PlacementOptimizer

    optimizer = PlacementOptimizer(
        machines=tuple(args.machines.split(",")))
    estimates = optimizer.search()
    print(format_table(
        ["assignment [primary,sift,encoding,lsh,matching]",
         "pred FPS", "pred E2E(ms)", "bottleneck"],
        [[e.placement.name, e.throughput_fps, e.e2e_ms, e.bottleneck]
         for e in estimates[:args.top]]))
    best = optimizer.best(args.objective)
    print(f"\nbest by {args.objective}: {best.placement.name} "
          f"(pred {best.throughput_fps:.0f} FPS, "
          f"{best.e2e_ms:.1f} ms)")
    return 0


def _cmd_optimize_search(args: argparse.Namespace) -> int:
    """The simulation-backed sampled search (``--budget N``)."""
    import json as json_module

    from repro.experiments.cache import CampaignCellCache
    from repro.orchestra.optimize import OptimizeConfig, run_search

    ladder = tuple(int(part) for part in args.clients.split(","))
    generations = args.generations
    if generations is None:
        # Enough rounds to spend the budget at this population.
        generations = max(1, -(-args.budget // args.population) - 1)
    config = OptimizeConfig(
        name="cli-optimize", seed=args.seed,
        population=args.population, generations=generations,
        budget=args.budget, ladder=ladder, duration_s=args.duration,
        workers=args.workers,
        machines=tuple(args.machines.split(",")))
    print(f"searching: budget={args.budget} genomes, "
          f"population={config.population}, "
          f"generations={config.generations}, ladder={list(ladder)}, "
          f"duration={config.duration_s:g}s, seed={config.seed}")
    cache = (CampaignCellCache(args.cache_dir)
             if args.cache_dir is not None else None)
    report = run_search(config, cache=cache)
    rows = [[entry["genome"],
             entry["objectives"]["capacity"],
             f"{entry['objectives']['p95_ms']:.1f}",
             f"{entry['objectives']['joules_per_frame']:.1f}",
             f"{entry['objectives']['cost_units']:.0f}"]
            for entry in report.front]
    print(format_table(
        ["genome", "capacity", "p95(ms)", "J/frame", "cost"], rows))
    best = report.best()
    if best is not None:
        print(f"\nbest: {best['genome']} "
              f"(capacity {best['objectives']['capacity']}, "
              f"p95 {best['objectives']['p95_ms']:.1f} ms, "
              f"{best['objectives']['joules_per_frame']:.1f} J/frame)")
    print(f"evaluations: {report.evaluations}, "
          f"front digest: {report.front_digest()}")
    if report.cache is not None:
        cache = report.cache
        print(f"cell cache: hits={cache['hits']} "
              f"misses={cache['misses']} stored={cache['stored']}")
    if args.json:
        with open(args.json, "w") as handle:
            json_module.dump(report.as_dict(), handle, indent=2,
                             sort_keys=True)
        print(f"report written to {args.json}")
    return 0


def cmd_testbed(args: argparse.Namespace) -> int:
    from repro.cluster.testbed import build_paper_testbed
    from repro.sim import RngRegistry, Simulator

    testbed = build_paper_testbed(Simulator(), RngRegistry(0),
                                  num_clients=args.clients)
    rows = []
    for name in sorted(testbed.machines):
        machine = testbed.machines[name]
        gpus = (f"{len(machine.gpus)}x{machine.gpus[0].architecture.name}"
                if machine.gpus else "-")
        rows.append([name, machine.cpu_cores, gpus,
                     machine.memory.capacity_bytes / 2 ** 30])
    print(format_table(["machine", "cores", "gpus", "memory(GB)"],
                       rows))
    print()
    net = testbed.network
    pairs = [("nuc0", "e1"), ("nuc0", "e2"), ("nuc0", "cloud"),
             ("e1", "e2"), ("e1", "cloud")]
    print(format_table(
        ["path", "RTT(ms)"],
        [[f"{a} <-> {b}", net.path_rtt(a, b) * 1000.0]
         for a, b in pairs]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="scAtteR/scAtteR++ reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="list figure targets")

    figure = sub.add_parser("figure", help="regenerate one figure")
    figure.add_argument("name", help="figure id, e.g. fig2")
    figure.add_argument("--duration", type=float, default=None,
                        help="run (or ramp-stage) seconds per config")
    figure.add_argument("--seed", type=int, default=None)

    run = sub.add_parser("run", help="run one configuration")
    run.add_argument("--config", default="C12",
                     help="C1|C2|C12|C21|cloud|hybrid|1,2,2,1,2")
    run.add_argument("--pipeline", choices=("scatter", "scatterpp"),
                     default="scatter")
    run.add_argument("--clients", type=int, default=1)
    run.add_argument("--duration", type=float, default=30.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trace", action="store_true",
                     help="collect per-frame traces and print the "
                          "latency breakdown")
    run.add_argument("--flow", action="store_true",
                     help="engage the flow-control substrate "
                          "(admission control + credit backpressure "
                          "+ batched dispatch); scatterpp only")
    run.add_argument("--cohort-size", type=int, default=None,
                     help="model this many total clients as a "
                          "statistical cohort (scatterpp only); "
                          "--clients of them run microscopically "
                          "as tracers")
    run.add_argument("--tracers", type=int, default=None,
                     help="override the tracer count for "
                          "--cohort-size (defaults to --clients)")
    run.add_argument("--cohort-load", default="constant",
                     choices=("constant", "ramp", "diurnal",
                              "poisson"),
                     help="macro-membership load process "
                          "(with --cohort-size)")

    testbed = sub.add_parser("testbed", help="show the testbed")
    testbed.add_argument("--clients", type=int, default=4)

    mobility = sub.add_parser(
        "mobility",
        help="run a client-mobility experiment with stateful "
             "session handover between edge sites")
    mobility.add_argument("--config", default="C1",
                          help="C1|C2|C12|C21|cloud|hybrid|"
                               "1,2,2,1,2")
    mobility.add_argument("--clients", type=int, default=2)
    mobility.add_argument("--duration", type=float, default=20.0)
    mobility.add_argument("--seed", type=int, default=0)
    mobility.add_argument("--naive", action="store_true",
                          help="kill-and-reconnect baseline instead "
                               "of the stateful handover protocol")
    mobility.add_argument("--dwell", type=float, default=8.0,
                          help="mean dwell time per site (s)")
    mobility.add_argument("--crash", action="append", default=[],
                          metavar="SERVICE@T",
                          help="inject an instance crash, e.g. "
                               "sift@4.0 (repeatable; failures are "
                               "then discovered by heartbeat)")

    campaign = sub.add_parser(
        "campaign", help="run a replicated experiment grid")
    campaign.add_argument("--name", default="campaign")
    campaign.add_argument("--pipelines", default="scatter,scatterpp")
    campaign.add_argument("--placements", default="C1,C2,C12,C21")
    campaign.add_argument("--clients", default="1,2,3,4")
    campaign.add_argument("--duration", type=float, default=30.0)
    campaign.add_argument("--seeds", default="0")
    campaign.add_argument("--store", default=None,
                          help="directory for per-cell JSON summaries")
    campaign.add_argument("--workers", type=int, default=0,
                          help="shard (cell, seed) tasks across N "
                               "worker processes (0 = serial); "
                               "results are bit-identical either way")
    campaign.add_argument("--verbose", action="store_true",
                          help="print per-task progress lines")
    campaign.add_argument("--cache", action="store_true",
                          help="enable the content-addressed campaign "
                               "cell cache: re-runs replay unchanged "
                               "cells byte-identically and compute "
                               "only new/changed ones")
    campaign.add_argument("--cache-dir", default=None,
                          help="cell-cache directory (implies --cache; "
                               "default .repro-cell-cache)")

    capacity = sub.add_parser(
        "capacity",
        help="binary-search max clients meeting the FPS/p95 SLO")
    capacity.add_argument("--config", default="C12",
                          help="C1|C2|C12|C21|cloud|hybrid|1,2,2,1,2")
    capacity.add_argument("--duration", type=float,
                          default=DEFAULT_PROBE_DURATION_S,
                          help="virtual seconds per probe")
    capacity.add_argument("--seed", type=int, default=0)
    capacity.add_argument("--max-clients", type=int,
                          default=DEFAULT_MAX_CLIENTS,
                          help="probe ceiling for the search")
    capacity.add_argument("--slo-fps", type=float, default=None,
                          help="minimum mean per-client FPS")
    capacity.add_argument("--slo-p95-ms", type=float, default=None,
                          help="maximum p95 E2E latency (ms)")
    capacity.add_argument("--flow", action="store_true",
                          help="probe with the flow substrate on")
    capacity.add_argument("--compare", action="store_true",
                          help="probe both arms (flow off, then on) "
                               "and report the capacity gain")

    optimize = sub.add_parser(
        "optimize",
        help="search placements (analytic by default; --budget N "
             "samples genomes against the simulator)")
    optimize.add_argument("--machines", default="e1,e2",
                          help="comma-separated machine set")
    optimize.add_argument("--objective",
                          choices=("throughput", "latency", "energy"),
                          default="throughput")
    optimize.add_argument("--top", type=int, default=8,
                          help="how many candidates to print")
    optimize.add_argument("--budget", type=int, default=None,
                          help="genome evaluation budget: run the "
                               "multi-objective search against the "
                               "simulator instead of the analytic "
                               "model")
    optimize.add_argument("--seed", type=int, default=0,
                          help="search seed (same seed = bit-identical "
                               "Pareto front)")
    optimize.add_argument("--population", type=int, default=8,
                          help="genomes per round")
    optimize.add_argument("--generations", type=int, default=None,
                          help="rounds after the first (default: "
                               "sized to spend the budget)")
    optimize.add_argument("--clients", default="1,2,3,4",
                          help="capacity probe ladder, e.g. 1,2,3,4")
    optimize.add_argument("--duration", type=float, default=4.0,
                          help="virtual seconds per oracle cell")
    optimize.add_argument("--workers", type=int, default=0,
                          help="campaign workers for oracle cells")
    optimize.add_argument("--cache-dir", default=None,
                          help="cell cache directory (revisited "
                               "genomes replay instead of "
                               "re-simulating)")
    optimize.add_argument("--json", default=None,
                          help="write the OptimizationReport here")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers: Dict[str, Callable] = {
        "figures": cmd_figures,
        "figure": cmd_figure,
        "run": cmd_run,
        "testbed": cmd_testbed,
        "optimize": cmd_optimize,
        "campaign": cmd_campaign,
        "capacity": cmd_capacity,
        "mobility": cmd_run,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
