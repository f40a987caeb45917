"""Event-driven simulator core with generator-based processes.

Time is an integer number of *cycles*. The simulated SoC runs at 1 GHz
(paper Table I), so one cycle is one nanosecond; the harness converts cycle
counts to milliseconds when reporting paper-style numbers.

Processes are Python generators that ``yield``:

* an ``int`` or :class:`Delay` — resume after that many cycles;
* an :class:`Event` — resume when the event triggers (receiving its value);
* a :class:`Completion` — a pre-resolved wait handle (hits, pipe transfers);
* another :class:`Process` — resume when that process finishes (a *join*).

Sub-routines that follow the same protocol are invoked with ``yield from``.

The event queue is a calendar/bucket queue tuned for the short fixed
latencies that dominate this simulation (DRAM timings, cache hit
latencies); see :class:`Simulator`. Same-cycle events run in strict
scheduling order (a stable FIFO within a cycle), which keeps hardware
handshakes — and therefore cycle counts and trace digests — deterministic.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional


class SimulationError(RuntimeError):
    """Raised for protocol violations inside the simulation kernel."""


class StallReport(SimulationError):
    """A diagnosed stall: the event queue drained (or progress ceased) with
    a wait still outstanding.

    Subclasses :class:`SimulationError` so existing ``except`` clauses and
    tests matching ``"deadlock"`` keep working; the message gains a
    diagnosis naming the culprit component, its oldest outstanding request,
    and queue occupancies when a :class:`~repro.engine.watchdog.GCWatchdog`
    is attached.
    """

    def __init__(self, message: str, *, cycle: int = 0,
                 waiting_for: str = "", culprit: str = "",
                 oldest_request: str = "", occupancies=None,
                 faults=None):
        super().__init__(message)
        self.cycle = cycle
        self.waiting_for = waiting_for
        #: Component name the diagnosis blames ("" when undiagnosed).
        self.culprit = culprit
        #: Human-readable oldest outstanding request ("" if none).
        self.oldest_request = oldest_request
        #: Mapping of queue/component name -> occupancy at stall time.
        self.occupancies = dict(occupancies or {})
        #: Injected faults that had fired by the stall (FiredFault list).
        self.faults = list(faults or [])


class Delay:
    """Explicit delay request; ``yield Delay(n)`` is equivalent to ``yield n``."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        if cycles < 0:
            raise SimulationError(f"negative delay: {cycles}")
        self.cycles = int(cycles)

    def __repr__(self) -> str:
        return f"Delay({self.cycles})"


class Event:
    """A one-shot event that processes can wait on.

    An event starts untriggered. :meth:`trigger` fires it with an optional
    value; all current and future waiters are resumed with that value.
    Triggering twice is an error (hardware handshakes are one-shot).
    """

    __slots__ = ("sim", "triggered", "value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        # Created lazily on first waiter: most events (cache fills, queue
        # handshakes) trigger with zero or one waiter.
        self._waiters: Optional[List[Callable[[Any], None]]] = None
        self.name = name

    def trigger(self, value: Any = None) -> None:
        """Fire the event, resuming all waiters in this same cycle."""
        if self.triggered:
            raise SimulationError(f"event {self.name or id(self)} triggered twice")
        self.triggered = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._waiters = None
            schedule = self.sim.schedule
            for callback in waiters:
                schedule(0, callback, value)

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` when the event fires (immediately if fired)."""
        if self.triggered:
            self.sim.schedule(0, callback, self.value)
        elif self._waiters is None:
            self._waiters = [callback]
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:
        state = "fired" if self.triggered else "pending"
        return f"Event({self.name!r}, {state})"


class Completion:
    """A pre-resolved wait handle: the value is known at creation time and
    becomes observable at absolute cycle ``time``.

    Components return one instead of an :class:`Event` when they already
    know both the result and the latency at submit time (cache hits, TLB
    hits, queue handshakes, pipe transfers). Creating one performs **no**
    scheduling; a waiter that yields it either consumes it synchronously
    (``time <= now``) or costs a single bucket append for the remaining
    delay.

    The protocol mirrors the waited-on half of :class:`Event`: ``triggered``
    (computed from the clock, so handles held across cycles — e.g. store
    buffer entries — observe the same transition an Event would make),
    ``value``, and ``add_callback``. It cannot be triggered; it already was.

    Delivery of a *pending* completion is **hop-preserving**: the waiter is
    woken through ``schedule(delay, _deliver)`` followed by the same
    zero-delay hop ``Event.trigger`` performs, so it lands at the same
    intra-cycle bucket position as a ``schedule(latency, event.trigger)``
    armed at the same moment. The pinned cycle counts and trace digests
    depend on that intra-cycle order: a direct single-append delivery
    measurably reorders DRAM scheduling decisions.
    """

    __slots__ = ("sim", "time", "value")

    def __init__(self, sim: "Simulator", time: int, value: Any = None):
        self.sim = sim
        self.time = time
        self.value = value

    @property
    def triggered(self) -> bool:
        return self.sim.now >= self.time

    def _deliver(self, callback: Callable[[Any], None]) -> None:
        self.sim.schedule(0, callback, self.value)

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` at ``time`` (this cycle if past)."""
        sim = self.sim
        delay = self.time - sim.now
        if delay <= 0:
            sim.schedule(0, callback, self.value)
        else:
            sim.schedule(delay, self._deliver, callback)

    def __repr__(self) -> str:
        state = "ready" if self.triggered else f"at {self.time}"
        return f"Completion({state}, value={self.value!r})"


class Process(Event):
    """A running generator coroutine. Doubles as its own completion event.

    The completion event's value is the generator's return value
    (``StopIteration.value``).
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim, name=name)
        self._gen = gen
        sim.schedule(0, self._step, None)

    def _step(self, value: Any) -> None:
        # Fast path: consume already-triggered events (e.g. TLB hits)
        # synchronously instead of bouncing through the event queue.
        send = self._gen.send
        sim = self.sim
        while True:
            try:
                item = send(value)
            except StopIteration as stop:
                self.trigger(stop.value)
                return
            cls = item.__class__
            if cls is int:
                if item == 0:
                    value = None
                    continue
                sim.schedule(item, self._step, None)
                return
            if cls is Completion:
                # Ready completions are consumed synchronously (like an
                # already-triggered Event); pending ones resume through the
                # hop-preserving delivery, which fixes their intra-cycle
                # position (see Completion).
                remaining = item.time - sim.now
                if remaining <= 0:
                    value = item.value
                    continue
                sim.schedule(remaining, item._deliver, self._step)
                return
            if isinstance(item, Event):
                if item.triggered:
                    value = item.value
                    continue
                item.add_callback(self._step)
                return
            if cls is Delay:
                sim.schedule(item.cycles, self._step, None)
                return
            raise SimulationError(
                f"process {self.name!r} yielded unsupported item {item!r}"
            )


class Simulator:
    """The event queue and clock: a calendar queue, one FIFO bucket per
    occupied cycle.

    Buckets live in a dict keyed by absolute time; a heap of plain ints
    orders only the *distinct* occupied cycles. Scheduling into a busy
    cycle is a dict lookup plus a list append (no comparisons, no tuple
    construction, no sequence counter); the heap is touched once per
    cycle, not once per event. Draining iterates the bucket with the
    C-level list iterator, which picks up entries appended mid-drain —
    that is the zero-delay fast path: triggers and same-cycle handshakes
    run this cycle without ever touching the priority queue.

    Events scheduled for the same cycle run in scheduling order (a stable
    FIFO within a cycle), which keeps hardware handshakes deterministic.

    Invariants: ``_times`` holds exactly the keys of ``_buckets`` (each
    once), and every bucket's time is ``>= now``.
    """

    #: Optional stall diagnostician (a
    #: :class:`~repro.engine.watchdog.GCWatchdog`). Class-level ``None``
    #: keeps the undiagnosed path zero-cost: a drained queue does one
    #: attribute load and a ``None`` check before raising, and nothing on
    #: the hot event loop ever touches it.
    diagnostics = None

    def __init__(self) -> None:
        self.now = 0
        self.events_processed = 0
        self._buckets: dict = {}
        self._times: List[int] = []

    def schedule(self, delay: int, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` cycles from now."""
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is not None:
            bucket.append((callback, args))
        elif delay >= 0:
            self._buckets[time] = [(callback, args)]
            heapq.heappush(self._times, time)
        else:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")

    def at(self, time: int, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute cycle ``time``."""
        self.schedule(time - self.now, callback, *args)

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot event bound to this simulator."""
        return Event(self, name=name)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a process; returns its completion event."""
        return Process(self, gen, name=name)

    def _stall(self, event: Event) -> StallReport:
        """Build the exception for a drained queue with ``event`` pending.

        The one diagnostic site shared by :meth:`run_until` and its
        budgeted variant. Keeps the historical ``deadlock: event queue
        empty`` message as the prefix; when a watchdog is attached as
        :attr:`diagnostics` it appends the culprit diagnosis.
        """
        message = (f"deadlock: event queue empty at cycle {self.now} "
                   f"while waiting for {event!r}")
        diagnostics = self.diagnostics
        if diagnostics is not None:
            return diagnostics.diagnose(self, event, message)
        return StallReport(message, cycle=self.now, waiting_for=repr(event))

    @property
    def pending_events(self) -> int:
        """Number of events currently scheduled."""
        return sum(len(bucket) for bucket in self._buckets.values())

    def discard_pending(self) -> int:
        """Drop every scheduled event; returns how many were discarded.

        Used by the driver's safety net when abandoning a wedged hardware
        collection: residual callbacks from the dead unit must never fire
        into the restored heap.
        """
        dropped = self.pending_events
        self._buckets.clear()
        self._times.clear()
        return dropped

    def _retire(self, time: int, bucket: list, executed: int) -> None:
        """Account for a partial drain and keep the remainder queued."""
        del bucket[:executed]
        self.events_processed += executed
        if bucket:
            heapq.heappush(self._times, time)
        else:
            del self._buckets[time]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(now={self.now}, "
            f"pending={self.pending_events})"
        )

    # -- run loops ---------------------------------------------------------

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queue is empty, ``until`` cycles, or ``max_events``.

        Returns the final simulation time. If ``until`` is given, the clock is
        advanced to exactly ``until`` even if the queue drains earlier.
        """
        if until is not None and self.now > until:
            return self.now
        if max_events is not None:
            self._run_budgeted(until, max_events)
        else:
            # Unbudgeted hot loop: no per-event bookkeeping at all.
            buckets, times = self._buckets, self._times
            pop = heapq.heappop
            while times:
                time = times[0]
                if until is not None and time > until:
                    break
                pop(times)
                self.now = time
                bucket = buckets[time]
                i = -1
                try:
                    for i, (callback, args) in enumerate(bucket):
                        callback(*args)
                except BaseException:
                    # The failing event was dequeued but not counted; later
                    # same-cycle events stay queued.
                    self._retire(time, bucket, i + 1)
                    self.events_processed -= 1
                    raise
                self.events_processed += len(bucket)
                del buckets[time]
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def _run_budgeted(self, until: Optional[int], max_events: int) -> None:
        budget = max_events
        buckets, times = self._buckets, self._times
        while times and budget > 0:
            time = times[0]
            if until is not None and time > until:
                return
            heapq.heappop(times)
            self.now = time
            bucket = buckets[time]
            i = 0
            try:
                while i < len(bucket) and budget > 0:
                    callback, args = bucket[i]
                    i += 1
                    budget -= 1
                    callback(*args)
            except BaseException:
                # As in run(): the failing event is dequeued, not counted.
                self._retire(time, bucket, i)
                self.events_processed -= 1
                raise
            self._retire(time, bucket, i)
        if budget <= 0 and self._times:
            raise SimulationError(
                f"max_events={max_events} exhausted at cycle {self.now}; "
                "simulation is likely livelocked"
            )

    def run_until(self, event: Event, max_events: Optional[int] = None) -> Any:
        """Run until ``event`` triggers; returns its value.

        Raises :class:`StallReport` if the queue drains first (deadlock).
        """
        if max_events is not None:
            return self._run_until_budgeted(event, max_events)
        buckets, times = self._buckets, self._times
        pop = heapq.heappop
        while not event.triggered:
            if not times:
                raise self._stall(event)
            time = pop(times)
            self.now = time
            bucket = buckets[time]
            i = -1
            try:
                for i, (callback, args) in enumerate(bucket):
                    if event.triggered:
                        self._retire(time, bucket, i)
                        return event.value
                    callback(*args)
            except BaseException:
                self._retire(time, bucket, i + 1)
                self.events_processed -= 1
                raise
            self.events_processed += len(bucket)
            del buckets[time]
        return event.value

    def _run_until_budgeted(self, event: Event, max_events: int) -> Any:
        budget = max_events
        buckets, times = self._buckets, self._times
        while not event.triggered:
            if not times:
                raise self._stall(event)
            time = heapq.heappop(times)
            self.now = time
            bucket = buckets[time]
            i = 0
            try:
                while i < len(bucket) and budget > 0:
                    if event.triggered:
                        break
                    budget -= 1
                    callback, args = bucket[i]
                    i += 1
                    callback(*args)
            except BaseException:
                self._retire(time, bucket, i)
                self.events_processed -= 1
                raise
            self._retire(time, bucket, i)
            if bucket and budget <= 0 and not event.triggered:
                raise SimulationError(
                    f"max_events={max_events} exhausted at cycle {self.now}"
                )
        return event.value
