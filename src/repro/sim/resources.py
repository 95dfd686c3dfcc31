"""Blocking resources built on the kernel: semaphores and FIFO stores."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.kernel import Signal, SimulationError, Simulator, Waitable


class Resource:
    """A counting semaphore with FIFO grant order.

    ``yield resource.acquire()`` suspends until a slot is free; call
    :meth:`release` when done.  Used for CPU cores, GPU execution slots
    and one-frame-at-a-time service semantics.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[Signal] = deque()

    @property
    def queued(self) -> int:
        return len(self._queue)

    def acquire(self) -> Waitable:
        """Return a waitable that fires once a slot is granted."""
        grant = self.sim.signal()
        if self._in_use < self.capacity:
            self._in_use += 1
            self.sim.schedule(0.0, grant.fire, None)
        else:
            self._queue.append(grant)
        return grant

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns whether a slot was taken."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        if self._in_use == 0:
            raise SimulationError("release() without acquire()")
        if self._queue:
            grant = self._queue.popleft()
            grant.fire(None)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO item queue.

    ``yield store.get()`` suspends until an item is available; puts
    never block (callers that bound a queue model the drop policy on
    top of it).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put_nowait(self, item: Any) -> None:
        """Enqueue ``item``, or hand it to the oldest waiting getter."""
        if self._getters:
            getter = self._getters.popleft()
            getter.fire(item)
            return
        self._items.append(item)

    def get(self) -> Waitable:
        """Return a waitable firing with the next item (FIFO)."""
        grant = self.sim.signal()
        if self._items:
            item = self._items.popleft()
            self.sim.schedule(0.0, grant.fire, item)
        else:
            self._getters.append(grant)
        return grant

    def get_nowait(self) -> Any:
        """Dequeue immediately; raise :class:`LookupError` when empty."""
        if not self._items:
            raise LookupError("store is empty")
        return self._items.popleft()
