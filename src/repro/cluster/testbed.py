"""The paper's testbed: machines plus interconnect (§3.2).

Topology (RTTs as reported):

* client NUCs — E1: direct Ethernet, ≤1 ms RTT.
* E1 — E2: LAN, 2–4 hops, ≈3 ms RTT.
* clients — cloud: public Internet path, ≈15 ms RTT, with noticeable
  latency fluctuation (the paper attributes cloud jitter to it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cluster.gpu import A40, RTX_2080, TESLA_V100_VIRTUALIZED
from repro.cluster.machine import Machine
from repro.net.topology import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

#: RTTs from §3.2.
CLIENT_E1_RTT_S = 0.001
E1_E2_RTT_S = 0.003
CLIENT_CLOUD_RTT_S = 0.015

#: Link capacities: Ethernet to clients, LAN between edges, Internet
#: path to the cloud.
CLIENT_LINK_BPS = 1e9
LAN_LINK_BPS = 10e9
CLOUD_LINK_BPS = 1e9

#: One-way Gaussian jitter; the cloud path fluctuates visibly (§4).
LAN_JITTER_S = 0.00005
CLOUD_JITTER_S = 0.0008

#: The edge-server → cloud *transit* path (commodity Internet, unlike
#: the traffic-engineered client → AWS front-door path).  The paper's
#: hybrid deployment suffers "frame drops over the public Internet
#: path" (Appendix A.1.2); the loss rate is per MTU fragment, so most
#: 180 KB (≈123-fragment) frames crossing it are lost — the severe
#: degradation Figure 11 reports.
TRANSIT_LOSS = 0.008
TRANSIT_JITTER_S = 0.0015


@dataclass
class Testbed:
    """Machines plus the network wiring them together."""

    sim: Simulator
    network: Network
    rng: RngRegistry
    machines: Dict[str, Machine] = field(default_factory=dict)
    client_nodes: List[str] = field(default_factory=list)

    def machine(self, name: str) -> Machine:
        try:
            return self.machines[name]
        except KeyError:
            raise KeyError(f"unknown machine {name!r}; have "
                           f"{sorted(self.machines)}") from None


def build_paper_testbed(sim: Simulator, rng: RngRegistry,
                        num_clients: int = 4) -> Testbed:
    """Build E1, E2, cloud and ``num_clients`` client NUC nodes.

    Every client gets its own NUC node wired straight to E1, so client
    load scales by adding nodes, mirroring the virtualized-client setup
    of the paper.
    """
    if num_clients < 1:
        raise ValueError(f"need at least one client, got {num_clients}")
    network = Network(sim, rng=rng.stream("network"))
    testbed = Testbed(sim=sim, network=network, rng=rng)

    testbed.machines["e1"] = Machine(
        sim, "e1", cpu_cores=8, memory_gb=128.0, cpu_factor=1.0,
        gpu_architecture=RTX_2080, gpu_count=2)
    testbed.machines["e2"] = Machine(
        sim, "e2", cpu_cores=32, memory_gb=264.0, cpu_factor=0.95,
        gpu_architecture=A40, gpu_count=2)
    testbed.machines["cloud"] = Machine(
        sim, "cloud", cpu_cores=4, memory_gb=64.0, cpu_factor=1.30,
        gpu_architecture=TESLA_V100_VIRTUALIZED, gpu_count=1)

    network.add_link("e1", "e2", rtt_s=E1_E2_RTT_S,
                     bandwidth_bps=LAN_LINK_BPS, jitter_s=LAN_JITTER_S)
    # Server-to-server transit: E1 -> cloud over commodity Internet.
    network.add_link("e1", "cloud", rtt_s=CLIENT_CLOUD_RTT_S,
                     bandwidth_bps=CLOUD_LINK_BPS,
                     jitter_s=TRANSIT_JITTER_S, loss=TRANSIT_LOSS)

    for index in range(num_clients):
        node = f"nuc{index}"
        testbed.machines[node] = Machine(
            sim, node, cpu_cores=4, memory_gb=32.0, cpu_factor=1.6)
        network.add_link(node, "e1", rtt_s=CLIENT_E1_RTT_S,
                         bandwidth_bps=CLIENT_LINK_BPS)
        # Clients reach AWS through its traffic-engineered front door,
        # not through E1's transit: a direct ≈15 ms path.
        network.add_link(node, "cloud", rtt_s=CLIENT_CLOUD_RTT_S,
                         bandwidth_bps=CLOUD_LINK_BPS,
                         jitter_s=CLOUD_JITTER_S)
        testbed.client_nodes.append(node)

    return testbed


def server_machines() -> Dict[str, Machine]:
    """The testbed's server machines by name, built on a throwaway
    simulator for code that needs their specs without a run."""
    testbed = build_paper_testbed(Simulator(), RngRegistry(0),
                                  num_clients=1)
    return {name: machine for name, machine in testbed.machines.items()
            if name not in testbed.client_nodes}
