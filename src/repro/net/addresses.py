"""Addresses and Oakestra-style semantic service addressing.

Oakestra lets services reach each other through *semantic addresses*: a
stable service name resolves, at send time, to one concrete instance
address chosen by a balancing policy (round-robin by default).  The
:class:`ServiceRegistry` reproduces this: scAtteR services send to
``"sift"`` and the registry picks the replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True, order=True)
class Address:
    """A concrete endpoint: a node name plus a port number."""

    node: str
    port: int

    def __str__(self) -> str:
        return f"{self.node}:{self.port}"


BalancerFn = Callable[[str, List[Address]], Address]


class ServiceRegistry:
    """Maps service names to instance addresses with pluggable balancing.

    The default policy is round-robin per service name, mirroring
    Oakestra's replica balancing (§3.2, §4 "Service Scalability").
    """

    def __init__(self, balancer: Optional[BalancerFn] = None):
        self._instances: Dict[str, List[Address]] = {}
        self._rr_counters: Dict[str, int] = {}
        self._balancer = balancer

    def register(self, service: str, address: Address) -> None:
        """Add an instance address for ``service`` (idempotent)."""
        instances = self._instances.setdefault(service, [])
        if address not in instances:
            instances.append(address)

    def deregister(self, service: str, address: Address) -> None:
        instances = self._instances.get(service, [])
        if address in instances:
            instances.remove(address)

    def instances(self, service: str) -> List[Address]:
        """All registered instances of ``service`` (copy)."""
        return list(self._instances.get(service, []))

    def services(self) -> List[str]:
        return sorted(self._instances)

    def resolve(self, service: str) -> Address:
        """Pick one instance of ``service`` via the balancing policy.

        Raises :class:`LookupError` when the service has no instances.
        """
        instances = self._instances.get(service)
        if not instances:
            raise LookupError(f"no instances registered for {service!r}")
        if self._balancer is not None:
            return self._balancer(service, list(instances))
        counter = self._rr_counters.get(service, 0)
        self._rr_counters[service] = counter + 1
        return instances[counter % len(instances)]
