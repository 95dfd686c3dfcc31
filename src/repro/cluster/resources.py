"""Time-weighted utilization and memory accounting.

The orchestrator (and the paper's figures) report utilization as busy
time divided by capacity over the observation window — a
:class:`UsageMeter` integrates concurrent busy intervals to provide
exactly that.  :class:`MemoryAccount` tracks allocations; scAtteR's
stateful ``sift`` grows this account while frames wait for
``matching`` (§4, "memory utilization increases several folds").
"""

from __future__ import annotations

from repro.sim.kernel import Simulator


class UsageMeter:
    """Integrates ``level`` (number of busy units) over virtual time.

    ``capacity`` is the number of parallel units (CPU cores, GPU
    execution slots); utilization is the integral of level divided by
    ``capacity × elapsed``.
    """

    def __init__(self, sim: Simulator, capacity: float):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._level = 0.0
        self._last_change = sim.now
        self._window_start = sim.now
        self._window_area = 0.0

    def _advance(self) -> None:
        now = self.sim.now
        delta = now - self._last_change
        if delta > 0:
            self._window_area += self._level * delta
            self._last_change = now

    @property
    def level(self) -> float:
        return self._level

    def add(self, amount: float = 1.0) -> None:
        """Mark ``amount`` more units busy."""
        # _advance inlined: every compute adds and removes once.
        now = self.sim.now
        delta = now - self._last_change
        if delta > 0:
            self._window_area += self._level * delta
            self._last_change = now
        self._level += amount
        if self._level > self.capacity + 1e-9:
            raise ValueError(
                f"level {self._level} exceeds capacity {self.capacity}")

    def remove(self, amount: float = 1.0) -> None:
        """Mark ``amount`` units idle again."""
        now = self.sim.now  # _advance inlined, as in add
        delta = now - self._last_change
        if delta > 0:
            self._window_area += self._level * delta
            self._last_change = now
        self._level -= amount
        if self._level < -1e-9:
            raise ValueError(f"level went negative: {self._level}")
        self._level = max(0.0, self._level)

    def window_utilization(self, reset: bool = False) -> float:
        """Average utilization since the last window reset."""
        self._advance()
        elapsed = self.sim.now - self._window_start
        if elapsed <= 0:
            value = 0.0
        else:
            value = self._window_area / (self.capacity * elapsed)
        if reset:
            self._window_start = self.sim.now
            self._window_area = 0.0
        return value


class MemoryAccount:
    """Byte-granular allocation tracking."""

    def __init__(self, capacity_bytes: float):
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._in_use = 0.0

    @property
    def in_use_bytes(self) -> float:
        return self._in_use

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self._in_use

    def allocate(self, amount_bytes: float) -> None:
        if amount_bytes < 0:
            raise ValueError(f"negative allocation {amount_bytes}")
        self._in_use += amount_bytes

    def free(self, amount_bytes: float) -> None:
        if amount_bytes < 0:
            raise ValueError(f"negative free {amount_bytes}")
        self._in_use -= amount_bytes
        if self._in_use < -1e-6:
            raise ValueError("freed more memory than allocated")
        self._in_use = max(0.0, self._in_use)
