"""Core event loop and process model.

The kernel is a classic event-heap simulator.  Three concepts matter:

* :class:`Simulator` owns virtual time and the event heap.
* :class:`Waitable` is anything a process can ``yield`` to suspend on —
  :class:`Timeout`, :class:`Signal`, :class:`Process`, :class:`AnyOf`
  and :class:`AllOf`.
* :class:`Process` wraps a generator.  When the waitable it yielded
  fires, the kernel resumes the generator, sending the waitable's value.

Determinism: events scheduled for the same instant fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a
given seed always produces the same trajectory.

This module is the hot path of every experiment — campaigns push
millions of events through ``run()`` — so it is written for speed
without compromising the determinism contract:

* every waitable class uses ``__slots__``;
* ``run()`` pops the heap once per event (no peek-then-pop), aliases
  the heap/digest into locals, and splits into two loops so the
  profiler-off path reads no clock and pays no per-event branch;
* zero-delay events (wake-ups, spawn kickoffs — most campaign
  traffic) ride a FIFO ready lane merged with the heap by
  ``(when, seq)`` head comparison: O(1) appends/pops instead of
  O(log n) heap operations, identical execution order;
* :class:`TraceDigest` memoizes per-callback kind bytes and folds
  packed records into blake2b in chunks — the hashed *byte stream* is
  identical to the naive per-event implementation (blake2b is a
  stream hash, so chunking cannot change the digest), which is what
  keeps every committed golden fingerprint valid;
* waiter discards tombstone their slot in O(1) instead of an O(n)
  ``list.remove``, so interrupt-heavy runs with large waiter lists do
  not go quadratic.  Wake order is unchanged: survivors keep their
  subscription order, exactly as ``list.remove`` preserved it;
* ``Simulator.now`` is a plain slot, not a property.

One rule changes the event stream, and both kernels share it: an
event whose only act is to wake (a :class:`Timeout` expiring, which
includes the zero-delay grants of :mod:`repro.sim.resources`) resumes
its waiter inside the event when exactly one live waiter is subscribed
and nothing else is due at ``now`` (ready lane empty, heap top
strictly later).  The queued resume would have been the very next
event, so every callback runs in the same order; the resume takes no
sequence number, which lowers every later one alike, and writes no
digest record.  Every other wake is queued as before.

The pre-optimization kernel survives, with only that rule added, in
:mod:`repro.sim.reference`; equivalence tests replay identical
programs through both and require byte-identical fingerprints.
"""

from __future__ import annotations

import hashlib
import heapq
import struct
from collections import deque
from time import perf_counter_ns
from types import MethodType
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

_INFINITY = float("inf")
_PACK_EVENT = struct.Struct("<dQ").pack
_heappush = heapq.heappush
_heappop = heapq.heappop

#: Buffered digest entries (two per event record) folded into blake2b
#: per ``update()`` call — ~1024 events a chunk.
_FLUSH_ENTRIES = 2048


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

    The byte stream hashed is exactly the reference implementation's
    (``struct.pack("<dQ", when, seq)`` followed by the UTF-8 encoded
    kind, per event) — but the work per event is trimmed two ways:

    * kind bytes are memoized: bound methods key on their underlying
      function object, everything else on the qualname string, so the
      qualname lookup and UTF-8 encode happen once per distinct
      callback kind instead of once per event;
    * records accumulate in a list and fold into blake2b in chunks of
      :attr:`FLUSH_RECORDS`, replacing two C-call ``update()``s per
      event with one ``b"".join`` + ``update()`` per thousand.  A
      stream hash digests identical bytes to an identical value no
      matter how they are split, so buffering is invisible to every
      committed golden digest.
    """

    __slots__ = ("_hash", "events", "_pending", "_func_kinds",
                 "_name_kinds")

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self.events = 0
        #: Buffered (pack, kind) byte pairs awaiting one hash update.
        self._pending: List[bytes] = []
        #: plain function -> encoded kind (bound-method fast path).
        self._func_kinds: Dict[Any, bytes] = {}
        #: qualname string -> encoded kind (every other callable).
        self._name_kinds: Dict[str, bytes] = {}

    def record(self, when: float, seq: int, kind: str) -> None:
        """Fold one executed event into the fingerprint."""
        kind_bytes = self._name_kinds.get(kind)
        if kind_bytes is None:
            kind_bytes = kind.encode("utf-8", "replace")
            self._name_kinds[kind] = kind_bytes
        pending = self._pending
        pending.append(_PACK_EVENT(when, seq))
        pending.append(kind_bytes)
        self.events += 1
        if len(pending) >= _FLUSH_ENTRIES:
            self._flush()

    def record_event(self, when: float, seq: int,
                     callback: Callable[..., None]) -> None:
        """:meth:`record` with the kind derived from ``callback``.

        Equivalent to ``record(when, seq, _event_kind(callback))`` but
        memoized by function object for bound methods.  The simulator's
        digested loop inlines this body — keep the two in sync.
        """
        if type(callback) is MethodType:
            func = callback.__func__
            kind_bytes = self._func_kinds.get(func)
            if kind_bytes is None:
                kind_bytes = _event_kind(func).encode("utf-8", "replace")
                self._func_kinds[func] = kind_bytes
        else:
            kind = getattr(callback, "__qualname__", None)
            if kind is None:
                kind = type(callback).__qualname__
            kind_bytes = self._name_kinds.get(kind)
            if kind_bytes is None:
                kind_bytes = kind.encode("utf-8", "replace")
                self._name_kinds[kind] = kind_bytes
        pending = self._pending
        pending.append(_PACK_EVENT(when, seq))
        pending.append(kind_bytes)
        self.events += 1
        if len(pending) >= _FLUSH_ENTRIES:
            self._flush()

    def _flush(self) -> None:
        if self._pending:
            self._hash.update(b"".join(self._pending))
            self._pending.clear()

    def hexdigest(self) -> str:
        """Hex fingerprint of every event folded in so far."""
        self._flush()
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

    Waiter bookkeeping: entries record their list index on the waiter
    (``_wait_index``), so :meth:`_discard_waiter` can tombstone its
    slot with ``None`` in O(1) instead of an O(n) ``list.remove``.
    Firing skips tombstones, preserving the survivors' subscription
    order bit-for-bit; heavily tombstoned lists compact in place.
    """

    __slots__ = ("sim", "fired", "value", "exception", "_waiters",
                 "_dead")

    #: Compact the waiter list once at least this many tombstones have
    #: accumulated *and* they outnumber the live entries.
    _COMPACT_MIN = 32

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.fired = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._waiters: List[Any] = []
        self._dead = 0

    def _append_waiter(self, entry: Any) -> None:
        """Subscribe ``entry`` (a process or watcher) for the fire."""
        entry._wait_index = len(self._waiters)
        self._waiters.append(entry)

    def _add_waiter(self, process: "Process") -> None:
        if self.fired:
            # Resume immediately (on the next event-loop tick so that
            # re-entrancy never bites).
            self.sim.schedule(0.0, process._resume, self)
        else:
            process._wait_index = len(self._waiters)
            self._waiters.append(process)

    def _discard_waiter(self, process: "Process") -> None:
        waiters = self._waiters
        index = process._wait_index
        if 0 <= index < len(waiters) and waiters[index] is process:
            waiters[index] = None
            dead = self._dead + 1
            self._dead = dead
            if dead >= self._COMPACT_MIN and dead * 2 >= len(waiters):
                self._compact()

    def _compact(self) -> None:
        live = [entry for entry in self._waiters if entry is not None]
        for index, entry in enumerate(live):
            entry._wait_index = index
        self._waiters = live
        self._dead = 0

    def _wake_waiters(self) -> None:
        """Schedule every live waiter's resume at the current instant.

        Inlines ``sim.schedule(0.0, waiter._resume, self)`` — the
        per-waiter call/packing overhead is measurable at campaign
        scale — and lands the wake events on the simulator's zero-delay
        ready lane instead of the heap.  ``now + 0.0`` (not ``now``)
        reproduces ``schedule``'s arithmetic bit-for-bit: the digest
        packs the event time, and ``-0.0 + 0.0`` is ``+0.0``.  The
        event tuple layout must match :meth:`Simulator.schedule`.
        """
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        self._dead = 0
        sim = self.sim
        ready_append = sim._ready.append
        now = sim.now + 0.0
        seq = sim._seq
        args = (self,)
        for waiter in waiters:
            if waiter is not None:
                seq += 1
                ready_append((now, seq, waiter._resume, args))
        sim._seq = seq

    def fire(self, value: Any = None) -> None:
        """Fire the waitable, delivering ``value`` to all waiters."""
        if self.fired:
            raise SimulationError(f"{self!r} fired twice")
        self.fired = True
        self.value = value
        self._wake_waiters()

    def fail(self, exception: BaseException) -> None:
        """Fire the waitable with an exception raised inside waiters."""
        if self.fired:
            raise SimulationError(f"{self!r} fired twice")
        self.fired = True
        self.exception = exception
        self._wake_waiters()


class Timeout(Waitable):
    """Fires after a fixed virtual-time delay.

    The constructor and expiry callback are the single hottest
    allocation/dispatch pair in a campaign (every service delay is a
    timeout), so both flatten their call chains: ``__init__`` assigns
    the :class:`Waitable` fields directly and pushes its expiry event
    without going through :meth:`Simulator.schedule` (the delay is
    already validated non-negative), and ``_expire`` inlines
    :meth:`Waitable.fire` minus the double-fire guard it performs
    itself.  Heap tuple layout and seq accounting match ``schedule``
    exactly, so event order is untouched.  An expiry with one live
    waiter and nothing else due resumes that waiter in place (see the
    module docstring).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.sim = sim
        self.fired = False
        self.value = None
        self.exception = None
        self._waiters = []
        self._dead = 0
        self.delay = delay
        seq = sim._seq + 1
        sim._seq = seq
        if delay:
            _heappush(sim._heap,
                      (sim.now + delay, seq, self._expire, (value,)))
        else:
            sim._ready.append(
                (sim.now + delay, seq, self._expire, (value,)))

    def _expire(self, value: Any) -> None:
        if self.fired:
            return
        self.fired = True
        self.value = value
        # Inlined _wake_waiters: one call per expiry saved, and expiry
        # is the single most frequent event kind in every campaign.
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        live = len(waiters) - self._dead
        self._dead = 0
        sim = self.sim
        ready = sim._ready
        if live == 1 and not ready:
            heap = sim._heap
            if not heap or heap[0][0] > sim.now:
                # A lone waiter with nothing else due now: its queued
                # resume would be the very next event, so it runs here
                # instead, with no sequence number and no record (the
                # module docstring says why order holds).
                waiter = waiters[0]
                if waiter is None:
                    waiter = next(entry for entry in waiters
                                  if entry is not None)
                if sim.profile is None:
                    waiter._resume(self)
                else:
                    sim._resume_profiled(waiter, self)
                return
        ready_append = ready.append
        now = sim.now + 0.0
        seq = sim._seq
        args = (self,)
        for waiter in waiters:
            if waiter is not None:
                seq += 1
                ready_append((now, seq, waiter._resume, args))
        sim._seq = seq


class Signal(Waitable):
    """A one-shot event fired explicitly by some other process."""

    __slots__ = ()


class AnyOf(Waitable):
    """Fires when the first of its children fires.

    The value delivered is the ``(child, child_value)`` pair of the
    winning child.  Remaining children keep running; their eventual
    values are discarded.
    """

    __slots__ = ("children",)

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
            child._append_waiter(_Watcher(self, child))

    def _child_fired(self, child: Waitable) -> None:
        if self.fired:
            return
        if child.exception is not None:
            self.fail(child.exception)
        else:
            self.fire((child, child.value))


class AllOf(Waitable):
    """Fires when every child has fired; value is the list of values."""

    __slots__ = ("children", "_pending")

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
                child._append_waiter(_Watcher(self, child))

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

    __slots__ = ("parent", "child", "_wait_index")

    def __init__(self, parent: Waitable, child: Waitable):
        self.parent = parent
        self.child = child
        self._wait_index = -1

    def _resume(self, _waitable: Waitable) -> None:
        self.parent._child_fired(self.child)  # type: ignore[attr-defined]


ProcessGenerator = Generator[Waitable, Any, Any]


class Process(Waitable):
    """A running process; also a waitable that fires on termination."""

    __slots__ = ("name", "_generator", "_target", "_interrupts",
                 "_wait_index")

    _ids = 0

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: Optional[str] = None):
        super().__init__(sim)
        Process._ids += 1
        self.name = name or f"proc-{Process._ids}"
        self._generator = generator
        self._target: Optional[Waitable] = None
        self._interrupts: List[Interrupt] = []
        self._wait_index = -1
        # Inlined ``sim.schedule(0.0, self._resume, None)`` onto the
        # ready lane (``+ 0.0`` matches schedule's arithmetic exactly).
        seq = sim._seq + 1
        sim._seq = seq
        sim._ready.append((sim.now + 0.0, seq, self._resume, (None,)))

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
        while not isinstance(target, Waitable):
            # Misuse: the generator yielded something that cannot be
            # waited on.  Throw at the yield point; a generator that
            # catches the error may return (the process fires with the
            # return value) or yield a proper waitable (it resumes
            # waiting).  An uncaught throw propagates to the event
            # loop, as it always has.
            try:
                target = self._generator.throw(SimulationError(
                    f"process {self.name} yielded {target!r}, "
                    "which is not a Waitable"))
            except StopIteration as stop:
                self.fire(stop.value)
                return
        if self._interrupts:
            # An interrupt raced in while we were executing; deliver it
            # instead of blocking.
            self.sim.schedule(0.0, self._resume, None)
            return
        self._target = target
        # Inlined target._add_waiter(self) — one call per resume.
        if target.fired:
            sim = self.sim
            seq = sim._seq + 1
            sim._seq = seq
            sim._ready.append((sim.now + 0.0, seq, self._resume, (target,)))
        else:
            self._wait_index = len(target._waiters)
            target._waiters.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.fired else "alive"
        return f"<Process {self.name} {state}>"


_PROCESS_RESUME = Process._resume


class Simulator:
    """Owns virtual time and the event heap."""

    __slots__ = ("_heap", "_ready", "now", "_seq", "_running",
                 "digest", "profile", "_kind_names")

    def __init__(self, profile: bool = False) -> None:
        self._heap: List[tuple] = []
        #: Zero-delay fast lane.  Events scheduled with delay 0.0 — the
        #: wake/resume traffic that dominates campaigns — go here as
        #: O(1) appends instead of O(log n) heap pushes.  Invariant:
        #: the deque is sorted by ``(when, seq)``.  It holds because
        #: (a) inside ``run()`` appends happen at the nondecreasing
        #: current time with globally increasing seq, (b) every exit
        #: from a run loop spills leftovers back into the heap, so
        #: (c) outside ``run()`` all appends share one fixed ``now``.
        #: The run loops merge the two lanes by comparing heads, which
        #: preserves the heap-only execution order exactly.
        self._ready: deque = deque()
        #: Current virtual time in seconds: a plain slot, read on
        #: every event by every model layer (a property would cost a
        #: call each time).
        self.now = 0.0
        self._seq = 0
        self._running = False
        #: Running trace fingerprint.
        self.digest = TraceDigest()
        #: Opt-in per-event-kind wall-time profile; ``None`` (the
        #: default) keeps the loop free of clock reads.  Purely
        #: observational: profiling schedules no events and draws no
        #: RNG, so the trace digest is byte-identical either way.
        if profile:
            from repro.metrics.profiling import EventProfile

            self.profile: Optional["EventProfile"] = EventProfile()
        else:
            self.profile = None
        #: callback-function -> kind-string memo for the profiler.
        self._kind_names: Dict[Any, str] = {}

    def fingerprint(self) -> str:
        """Hex trace digest of every event executed so far.

        Identical fingerprints mean identical event trajectories —
        the determinism contract checked by
        ``tests/test_determinism.py``.
        """
        return self.digest.hexdigest()

    def wheel_stats(self) -> Dict[str, Any]:
        """Timer-wheel counters: none, the timers live in a heap."""
        return {}

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq + 1
        self._seq = seq
        if delay:
            _heappush(self._heap, (self.now + delay, seq, callback, args))
        else:
            self._ready.append((self.now + delay, seq, callback, args))

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
            if self.profile is not None:
                self._run_profiled(until)
            else:
                self._run_digested(until)
        finally:
            self._running = False
        return self.now

    # The two loops are structurally identical; they are kept separate
    # so the default run pays for exactly the instrumentation it asked
    # for — the profiler-off loop reads no clock.  Each merges the
    # heap with the zero-delay ready lane by head comparison (seq is
    # globally unique, so ``heap[0] < ready[0]`` never ties past the
    # first two fields) and pops once per event; an event past
    # ``until`` is pushed back.  Every exit spills ready-lane
    # leftovers into the heap, restoring the sortedness invariant for
    # events scheduled outside ``run()``.

    def _spill_ready(self) -> None:
        heap = self._heap
        ready = self._ready
        while ready:
            _heappush(heap, ready.popleft())

    def _run_digested(self, until: Optional[float]) -> None:
        heap = self._heap
        pop = _heappop
        digest = self.digest
        func_kinds_get = digest._func_kinds.get
        func_kinds = digest._func_kinds
        name_kinds_get = digest._name_kinds.get
        name_kinds = digest._name_kinds
        pending = digest._pending
        # ``pending`` is mutated via clear(), never rebound, so the
        # bound append stays valid across flushes.
        pending_append = pending.append
        hash_update = digest._hash.update
        pack = _PACK_EVENT
        method_type = MethodType
        ready = self._ready
        ready_popleft = ready.popleft
        stop_at = _INFINITY if until is None else until
        events = 0
        try:
            while True:
                if ready:
                    if heap and heap[0] < ready[0]:
                        event = pop(heap)
                    else:
                        event = ready_popleft()
                elif heap:
                    event = pop(heap)
                else:
                    break
                when, seq, callback, args = event
                if when > stop_at:
                    _heappush(heap, event)
                    self.now = until  # type: ignore[assignment]
                    return
                self.now = when
                # Inlined TraceDigest.record_event — the per-event
                # call overhead is measurable at campaign scale.  Keep
                # in sync with the method.
                if type(callback) is method_type:
                    func = callback.__func__
                    kind_bytes = func_kinds_get(func)
                    if kind_bytes is None:
                        kind_bytes = _event_kind(func).encode(
                            "utf-8", "replace")
                        func_kinds[func] = kind_bytes
                else:
                    kind = getattr(callback, "__qualname__", None)
                    if kind is None:
                        kind = type(callback).__qualname__
                    kind_bytes = name_kinds_get(kind)
                    if kind_bytes is None:
                        kind_bytes = kind.encode("utf-8", "replace")
                        name_kinds[kind] = kind_bytes
                pending_append(pack(when, seq))
                pending_append(kind_bytes)
                events += 1
                if len(pending) >= _FLUSH_ENTRIES:
                    hash_update(b"".join(pending))
                    pending.clear()
                callback(*args)
            if until is not None and until > self.now:
                self.now = until
        finally:
            # Counted locally in the loop; synced even when a callback
            # raises or the run stops at ``until``.
            digest.events += events
            if ready:
                self._spill_ready()

    def _run_profiled(self, until: Optional[float]) -> None:
        heap = self._heap
        pop = _heappop
        record = self.digest.record_event
        profile = self.profile
        profile_event = profile.record  # type: ignore[union-attr]
        kind_of = self._kind_name
        ready = self._ready
        ready_popleft = ready.popleft
        stop_at = _INFINITY if until is None else until
        try:
            while True:
                if ready:
                    if heap and heap[0] < ready[0]:
                        event = pop(heap)
                    else:
                        event = ready_popleft()
                elif heap:
                    event = pop(heap)
                else:
                    break
                when, seq, callback, args = event
                if when > stop_at:
                    _heappush(heap, event)
                    self.now = until  # type: ignore[assignment]
                    return
                self.now = when
                record(when, seq, callback)
                # Resumes run in place inside this event are timed on
                # their own; their time is taken out of the event's.
                nested_ns = profile.in_place_ns
                started = perf_counter_ns()
                callback(*args)
                profile_event(kind_of(callback),
                              perf_counter_ns() - started
                              - (profile.in_place_ns - nested_ns))
            if until is not None and until > self.now:
                self.now = until
        finally:
            if ready:
                self._spill_ready()

    def _resume_profiled(self, waiter: Any, waitable: Waitable) -> None:
        """Run a waiter's resume in place, timed on its own.

        :meth:`Timeout._expire` calls this instead of
        ``waiter._resume`` when the profiler is on, so a resume's time
        lands under the resumed generator, whether it ran queued or in
        place, and the profiled loop takes it out of the expiry's.
        """
        started = perf_counter_ns()
        waiter._resume(waitable)
        self.profile.record_in_place(  # type: ignore[union-attr]
            self._kind_name(waiter._resume), perf_counter_ns() - started)

    def _kind_name(self, callback: Callable[..., None]) -> str:
        """Memoized :func:`_event_kind` (profiler bookkeeping).

        A process resume is named after the generator it resumes
        (``Sidecar._dispatch_loop``, not ``Process._resume``), so the
        profile says which model code the time went to.  Other bound
        methods — most of the remaining callbacks — key on their
        underlying function, a small stable set.  Everything else
        derives its kind directly; memoizing per-call objects
        (lambdas, bound builtins) would only grow the table.
        """
        if type(callback) is MethodType:
            func = callback.__func__
            if func is _PROCESS_RESUME:
                return _event_kind(callback.__self__._generator)
            kind = self._kind_names.get(func)
            if kind is None:
                kind = _event_kind(func)
                self._kind_names[func] = kind
            return kind
        return _event_kind(callback)
