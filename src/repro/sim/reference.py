"""Reference (pre-optimization) event kernel — the correctness twin.

This is the event loop exactly as it stood before the hot-path
overhaul of :mod:`repro.sim.kernel`: no ``__slots__``, a peek-then-pop
``run()`` loop, an unbuffered :class:`TraceDigest` that folds every
event into blake2b one ``update()`` pair at a time, and an O(n)
``list.remove`` waiter discard.  It is kept verbatim for two jobs:

* **equivalence witness** — ``tests/test_sim_kernel.py`` replays
  identical programs and identical ``(when, seq, kind)`` streams
  through both kernels and asserts byte-for-byte equal fingerprints,
  which is what lets the optimized kernel claim bit-identity;
* **benchmark baseline** — ``benchmarks/bench_sim_hotpath.py``
  measures the optimized kernel's events/sec against this module, so
  the reported speedup is against the real pre-PR code, not a guess.

Like :mod:`repro.vision.reference`, this module trades speed for
obviousness and must not be "optimized": its value is that it does not
change.  Both kernels interoperate through ``sim.schedule`` only, so a
reference ``Simulator`` can drive the full experiment stack.
"""

from __future__ import annotations

import hashlib
import heapq
import struct
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. negative delays, double-fire)."""


class TraceDigest:
    """A running fingerprint of the event trajectory.

    Every event the kernel executes folds ``(time, seq, kind)`` into a
    blake2b hash, where *kind* is the qualified name of the callback.
    Two runs with the same fingerprint executed the same events, at the
    same virtual times, in the same order — which makes the digest a
    cheap replayable witness for the determinism contract: same seed ⇒
    same digest, regardless of worker count or process boundary.

    Deliberately avoids ``hash()`` (randomized per process via
    ``PYTHONHASHSEED``) so fingerprints compare across processes.
    """

    __slots__ = ("_hash", "events")

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self.events = 0

    def record(self, when: float, seq: int, kind: str) -> None:
        """Fold one executed event into the fingerprint."""
        self._hash.update(struct.pack("<dQ", when, seq))
        self._hash.update(kind.encode("utf-8", "replace"))
        self.events += 1

    def hexdigest(self) -> str:
        """Hex fingerprint of every event folded in so far."""
        return self._hash.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceDigest {self.hexdigest()} "
                f"({self.events} events)>")


def _event_kind(callback: Callable[..., None]) -> str:
    """A process-stable label for a scheduled callback."""
    kind = getattr(callback, "__qualname__", None)
    if kind is None:
        kind = type(callback).__qualname__
    return kind


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Waitable:
    """Base class for anything a process may yield on.

    A waitable is *fired* exactly once; firing wakes every process
    currently waiting on it and delivers :attr:`value` (or raises
    :attr:`exception` inside the waiter).
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.fired = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._waiters: list[Process] = []

    def _add_waiter(self, process: "Process") -> None:
        if self.fired:
            # Resume immediately (on the next event-loop tick so that
            # re-entrancy never bites).
            self.sim.schedule(0.0, process._resume, self)
        else:
            self._waiters.append(process)

    def _discard_waiter(self, process: "Process") -> None:
        try:
            self._waiters.remove(process)
        except ValueError:
            pass

    def fire(self, value: Any = None) -> None:
        """Fire the waitable, delivering ``value`` to all waiters."""
        if self.fired:
            raise SimulationError(f"{self!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.sim.schedule(0.0, process._resume, self)

    def fail(self, exception: BaseException) -> None:
        """Fire the waitable with an exception raised inside waiters."""
        if self.fired:
            raise SimulationError(f"{self!r} fired twice")
        self.fired = True
        self.exception = exception
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.sim.schedule(0.0, process._resume, self)


class Timeout(Waitable):
    """Fires after a fixed virtual-time delay."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(sim)
        self.delay = delay
        sim.schedule(delay, self._expire, value)

    def _expire(self, value: Any) -> None:
        if not self.fired:
            self.fire(value)


class Signal(Waitable):
    """A one-shot event fired explicitly by some other process."""


class AnyOf(Waitable):
    """Fires when the first of its children fires.

    The value delivered is the ``(child, child_value)`` pair of the
    winning child.  Remaining children keep running; their eventual
    values are discarded.
    """

    def __init__(self, sim: "Simulator", children: Iterable[Waitable]):
        super().__init__(sim)
        self.children = list(children)
        if not self.children:
            raise SimulationError("AnyOf needs at least one child")
        for child in self.children:
            self._watch(child)

    def _watch(self, child: Waitable) -> None:
        if child.fired:
            self.sim.schedule(0.0, self._child_fired, child)
        else:
            watcher = _Watcher(self, child)
            child._waiters.append(watcher)  # type: ignore[arg-type]

    def _child_fired(self, child: Waitable) -> None:
        if self.fired:
            return
        if child.exception is not None:
            self.fail(child.exception)
        else:
            self.fire((child, child.value))


class AllOf(Waitable):
    """Fires when every child has fired; value is the list of values."""

    def __init__(self, sim: "Simulator", children: Iterable[Waitable]):
        super().__init__(sim)
        self.children = list(children)
        self._pending = len(self.children)
        if self._pending == 0:
            sim.schedule(0.0, self.fire, [])
            return
        for child in self.children:
            if child.fired:
                sim.schedule(0.0, self._child_fired, child)
            else:
                child._waiters.append(_Watcher(self, child))  # type: ignore[arg-type]

    def _child_fired(self, child: Waitable) -> None:
        if self.fired:
            return
        if child.exception is not None:
            self.fail(child.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.fire([c.value for c in self.children])


class _Watcher:
    """Adapter letting composite waitables sit in a child's waiter list."""

    def __init__(self, parent: Waitable, child: Waitable):
        self.parent = parent
        self.child = child

    def _resume(self, _waitable: Waitable) -> None:
        self.parent._child_fired(self.child)  # type: ignore[attr-defined]


ProcessGenerator = Generator[Waitable, Any, Any]


class Process(Waitable):
    """A running process; also a waitable that fires on termination."""

    _ids = 0

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: Optional[str] = None):
        super().__init__(sim)
        Process._ids += 1
        self.name = name or f"proc-{Process._ids}"
        self._generator = generator
        self._target: Optional[Waitable] = None
        self._interrupts: list[Interrupt] = []
        sim.schedule(0.0, self._resume, None)

    @property
    def alive(self) -> bool:
        return not self.fired

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if self.fired:
            return
        self._interrupts.append(Interrupt(cause))
        if self._target is not None:
            self._target._discard_waiter(self)
            self._target = None
        self.sim.schedule(0.0, self._resume, None)

    def _resume(self, waitable: Optional[Waitable]) -> None:
        if self.fired:
            return
        if waitable is not None and waitable is not self._target:
            # Stale wake-up from a waitable we stopped caring about
            # (e.g. we were interrupted while waiting on it).
            return
        self._target = None
        try:
            if self._interrupts:
                interrupt = self._interrupts.pop(0)
                target = self._generator.throw(interrupt)
            elif waitable is not None and waitable.exception is not None:
                target = self._generator.throw(waitable.exception)
            else:
                value = waitable.value if waitable is not None else None
                target = self._generator.send(value)
        except StopIteration as stop:
            self.fire(stop.value)
            return
        except Interrupt as interrupt:
            # Process chose not to handle an interrupt: die quietly with
            # the cause as its value.
            self.fire(interrupt.cause)
            return
        if not isinstance(target, Waitable):
            self._generator.throw(
                SimulationError(f"process {self.name} yielded {target!r}, "
                                "which is not a Waitable"))
            return
        if self._interrupts:
            # An interrupt raced in while we were executing; deliver it
            # instead of blocking.
            self.sim.schedule(0.0, self._resume, None)
            return
        self._target = target
        target._add_waiter(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.fired else "alive"
        return f"<Process {self.name} {state}>"


class Simulator:
    """Owns virtual time and the event heap."""

    def __init__(self, digest: bool = True) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        #: Running trace fingerprint; ``None`` when disabled.
        self.digest: Optional[TraceDigest] = \
            TraceDigest() if digest else None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def fingerprint(self) -> Optional[str]:
        """Hex trace digest of every event executed so far.

        Identical fingerprints mean identical event trajectories —
        the determinism contract checked by
        ``tests/test_determinism.py``.  ``None`` when the digest was
        disabled at construction.
        """
        return self.digest.hexdigest() if self.digest else None

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq,
                                    callback, args))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def signal(self) -> Signal:
        return Signal(self)

    def any_of(self, children: Iterable[Waitable]) -> AnyOf:
        return AnyOf(self, children)

    def spawn(self, generator: ProcessGenerator,
              name: Optional[str] = None) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name)

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the heap drains or ``until`` is reached.

        Returns the virtual time at which execution stopped.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        try:
            while self._heap:
                when, _seq, callback, args = self._heap[0]
                if until is not None and when > until:
                    self._now = until
                    break
                heapq.heappop(self._heap)
                self._now = when
                if self.digest is not None:
                    self.digest.record(when, _seq,
                                       _event_kind(callback))
                callback(*args)
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now
