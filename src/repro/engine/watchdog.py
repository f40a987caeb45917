"""Watchdog supervision for modeled GC collections.

A wedged accelerator (dropped DRAM response, stuck request slot) used to
surface as a bare ``SimulationError: deadlock`` with no indication of
*which* component stopped making progress. The watchdog turns that into a
:class:`~repro.engine.simulator.StallReport` naming the culprit, its
oldest outstanding request, and queue occupancies — the software-check
half of the paper's §V-E escape hatch.

Three detection rules, all evaluated outside the simulation's event flow:

* **deadlock** — the event queue drains while the collection's completion
  event is still pending (the pre-existing condition, now diagnosed);
* **no progress** — simulated time advances ``stall_cycles`` without a
  single event being processed (a response delayed far into the future
  looks exactly like this);
* **overdue request** — an outstanding tracked request (DRAM, page walk)
  has been in flight longer than ``request_timeout`` even though other
  components are still busy (livelock).

Determinism: supervision runs the simulation in bounded slices via
``sim.run(until=now + check_interval)`` and inspects state *between*
slices. It schedules no events and emits no trace records on the
fault-free path. The clock stops at the first slice boundary at/after
the completion trigger, so callers account cycles from the trigger's
stamp (``completed_at``), and a supervised stop-the-world collection
reports the cycles of an unsupervised one. Code that *acts* at
``sim.now`` after a wait sees the boundary, not the trigger: a
supervised concurrent mark requests the traversal's stop at the slice
boundary after the mutator quiesced, so its handshake and mark cycles
overshoot the bare run's by the rest of that slice (DESIGN §11.2).

Zero-cost disabled path: components consult ``stats.watchdog`` (class
default ``None``) before every heartbeat or outstanding-request note, so
an unsupervised run pays one attribute load and a ``None`` check.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.simulator import Event, Simulator, StallReport

#: Cycles of simulated time with zero events processed before the watchdog
#: declares the collection stalled. GC pauses in the modeled configuration
#: are single-digit milliseconds (millions of cycles) of *continuous*
#: activity; the longest legitimate quiet gap is a DRAM round trip
#: (hundreds of cycles), so 200k cycles of silence is unambiguous.
DEFAULT_STALL_CYCLES = 200_000

#: In-flight age at which a tracked request (DRAM, page walk) is declared
#: overdue. Worst-case legitimate latency is queueing behind a full FR-FCFS
#: window plus a two-level walk — well under 10k cycles; 400k is a stall.
DEFAULT_REQUEST_TIMEOUT = 400_000

#: Supervision slice length. Bounds how far the clock can overshoot the
#: completion trigger and how stale the between-slice checks can be.
DEFAULT_CHECK_INTERVAL = 50_000


class GCWatchdog:
    """Progress supervisor for one (or more) simulated collections.

    Attach with :meth:`attach` before running, supervise the completion
    event with :meth:`run_until`, and read the structured diagnosis from
    the raised :class:`StallReport`. Components report liveness through
    three channels, all optional and all skipped when unattached:

    * :meth:`beat` — "component X did useful work at cycle N";
    * :meth:`note_submit` / :meth:`note_complete` — request-level tracking
      for components whose failure mode is a response that never arrives;
    * :meth:`register_probe` — occupancy probes sampled only at diagnosis
      time (queue depths, slots in flight), which double as the culprit
      ranking when no tracked request is outstanding.
    """

    def __init__(self, stall_cycles: int = DEFAULT_STALL_CYCLES,
                 request_timeout: int = DEFAULT_REQUEST_TIMEOUT,
                 check_interval: int = DEFAULT_CHECK_INTERVAL):
        self.stall_cycles = stall_cycles
        self.request_timeout = request_timeout
        self.check_interval = check_interval
        #: component -> cycle of its most recent heartbeat.
        self.heartbeats: Dict[str, int] = {}
        #: (component, key) -> (submit cycle, description).
        self.outstanding: Dict[Tuple[str, Any], Tuple[int, str]] = {}
        #: probe name -> (component, zero-arg occupancy callable).
        self._probes: Dict[str, Tuple[str, Callable[[], int]]] = {}
        self._stats = None
        self.trips = 0
        #: Cycle at which the last supervised event actually triggered.
        #: Slicing lets the clock overshoot the trigger by up to
        #: ``check_interval``; cycle accounting must use this, not
        #: ``sim.now``, after :meth:`run_until` returns.
        self.completed_at: Optional[int] = None

    # -- wiring ------------------------------------------------------------

    def attach(self, sim: Simulator, stats=None) -> "GCWatchdog":
        """Bind to ``sim`` (as its stall diagnostician) and optionally to a
        stats registry (``stats.watchdog``) so components can report."""
        sim.diagnostics = self
        if stats is not None:
            stats.watchdog = self
            self._stats = stats
        return self

    def detach(self, sim: Optional[Simulator] = None) -> None:
        if sim is not None and sim.diagnostics is self:
            sim.diagnostics = None
        if self._stats is not None and self._stats.watchdog is self:
            self._stats.watchdog = None
        self._stats = None

    def register_probe(self, name: str, component: str,
                       fn: Callable[[], int]) -> None:
        """Register an occupancy probe. Registration order is the culprit
        tie-break order when no tracked request is outstanding, so register
        upstream components (marker) before downstream ones (sweeper)."""
        self._probes[name] = (component, fn)

    # -- component-facing reporting (hot-ish paths; keep them cheap) -------

    def beat(self, component: str, now: int) -> None:
        """Record that ``component`` made progress at cycle ``now``."""
        self.heartbeats[component] = now

    def note_submit(self, component: str, key: Any, now: int,
                    desc: str) -> None:
        """Track an in-flight request expected to complete promptly."""
        self.outstanding[(component, key)] = (now, desc)

    def note_complete(self, component: str, key: Any) -> None:
        self.outstanding.pop((component, key), None)

    # -- supervision -------------------------------------------------------

    def run_until(self, sim: Simulator, event: Event) -> Any:
        """Run ``sim`` until ``event`` triggers, under supervision.

        Returns the event's value. Raises :class:`StallReport` on deadlock
        (via the kernel's own ``_stall``, which routes back through
        :meth:`diagnose`), on ``stall_cycles`` of zero progress, or on an
        overdue outstanding request.
        """
        self.completed_at = None

        def _stamp(_value):
            self.completed_at = sim.now

        event.add_callback(_stamp)
        last_processed = sim.events_processed
        last_progress = sim.now
        while not event.triggered:
            if sim.pending_events == 0:
                raise sim._stall(event)
            sim.run(until=sim.now + self.check_interval)
            now = sim.now
            if sim.events_processed != last_processed:
                last_processed = sim.events_processed
                last_progress = now
            elif now - last_progress >= self.stall_cycles:
                raise self.diagnose(
                    sim, event,
                    f"watchdog: no progress for {now - last_progress} "
                    f"cycles at cycle {now} while waiting for {event!r}")
            overdue = self._oldest_overdue(now)
            if overdue is not None:
                (component, _key), (t0, desc) = overdue
                raise self.diagnose(
                    sim, event,
                    f"watchdog: request overdue at cycle {now} "
                    f"({desc}, submitted to {component} at cycle {t0}, "
                    f"{now - t0} cycles in flight) "
                    f"while waiting for {event!r}")
        if self.completed_at is None:
            self.completed_at = sim.now
        return event.value

    def _oldest_overdue(self, now: int):
        oldest = None
        for item in self.outstanding.items():
            if oldest is None or item[1][0] < oldest[1][0]:
                oldest = item
        if oldest is not None and now - oldest[1][0] >= self.request_timeout:
            return oldest
        return None

    # -- diagnosis ---------------------------------------------------------

    def diagnose(self, sim: Simulator, event: Event,
                 message: str) -> StallReport:
        """Build the :class:`StallReport` for a detected stall. Also the
        kernel's ``diagnostics`` callback, so plain queue-drain deadlocks
        get the same treatment."""
        self.trips += 1
        occupancies: Dict[str, int] = {}
        for name, (_component, probe) in self._probes.items():
            try:
                occupancies[name] = int(probe())
            except Exception:
                occupancies[name] = -1
        culprit, oldest_desc = self._find_culprit(sim.now, occupancies)
        faults: List[Any] = []
        stats = self._stats
        if stats is not None:
            stats.inc("watchdog.trips")
            plane = stats.hwfaults
            if plane is not None:
                faults = list(plane.fired)
        detail = []
        if culprit:
            detail.append(f"culprit: {culprit}")
        if oldest_desc:
            detail.append(f"oldest outstanding: {oldest_desc}")
        if occupancies:
            detail.append("occupancy: " + ", ".join(
                f"{name}={value}" for name, value in occupancies.items()))
        if faults:
            detail.append("injected faults: " + "; ".join(
                str(fault) for fault in faults))
        full = message if not detail else (
            message + " [" + " | ".join(detail) + "]")
        return StallReport(full, cycle=sim.now, waiting_for=repr(event),
                           culprit=culprit, oldest_request=oldest_desc,
                           occupancies=occupancies, faults=faults)

    def _find_culprit(self, now: int,
                      occupancies: Dict[str, int]) -> Tuple[str, str]:
        """Deterministic culprit ranking: (1) the component holding the
        oldest tracked outstanding request; (2) the first registered probe
        with non-zero occupancy (work held but not moving); (3) the
        component with the stalest heartbeat."""
        oldest = None
        for (component, _key), (t0, desc) in self.outstanding.items():
            if oldest is None or t0 < oldest[1]:
                oldest = (component, t0, desc)
        if oldest is not None:
            component, t0, desc = oldest
            return component, (f"{desc} (submitted at cycle {t0}, "
                               f"{now - t0} cycles in flight)")
        for _name, (component, _probe) in self._probes.items():
            if occupancies.get(_name, 0) > 0:
                return component, ""
        if self.heartbeats:
            component = min(self.heartbeats, key=lambda c: self.heartbeats[c])
            return component, ""
        return "", ""
