"""DDR3 bank/row timing model with FIFO and FR-FCFS schedulers.

Models the paper's memory system (Table I): DDR3-2000, single rank, 8 banks,
open-page policy, latencies 14-14-14-47 ns at a 1 GHz SoC clock, and a
memory-access scheduler with a visibility window of 16 reads / 8 writes.

The model tracks per-bank open rows and busy times plus a shared data bus.
A request's service latency is:

* row hit: ``t_cas``
* row conflict (another row open): ``t_rp + t_rcd + t_cas``
* row closed (first touch): ``t_rcd + t_cas``

followed by a data-bus occupancy of ``ceil(size / 16B)`` cycles (DDR3-2000
peak bandwidth is 16 GB/s). ``t_ras`` limits back-to-back activates to the
same bank. FR-FCFS prefers row hits (oldest first), then the oldest request,
with reads prioritized over writes; FIFO is strict arrival order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.engine.simulator import Event, Simulator
from repro.engine.stats import BandwidthTracker, IntervalTracker, StatsRegistry
from repro.memory.config import DRAMConfig
from repro.memory.request import AccessKind, MemRequest


class DRAMController:
    """Event-driven DDR3 controller; ``submit`` returns a completion event."""

    def __init__(
        self,
        sim: Simulator,
        config: DRAMConfig,
        stats: Optional[StatsRegistry] = None,
        bandwidth: Optional[BandwidthTracker] = None,
    ):
        self.sim = sim
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self.bandwidth = bandwidth if bandwidth is not None else BandwidthTracker("dram")
        self.request_intervals = IntervalTracker("dram.requests")
        # Bank state lives in parallel columns indexed by bank number —
        # the scheduler's scan touches ``_bank_busy[idx]`` as one list
        # index instead of chasing a per-bank object's attribute.
        self._bank_busy: List[int] = [0] * config.n_banks
        self._bank_row: List[Optional[int]] = [None] * config.n_banks
        self._bank_activate: List[int] = [-(10**9)] * config.n_banks
        self._bus_free_at = 0
        # Queue entries are (request, completion event, bank index, row):
        # the bank/row decode is done once at submit so the scheduler's
        # scans never recompute it.
        self._reads: Deque[Tuple[MemRequest, Event, int, int]] = deque()
        self._writes: Deque[Tuple[MemRequest, Event, int, int]] = deque()
        self._next_pump_at: Optional[int] = None
        self._submit_counters: dict = {}
        self._ev_names: dict = {}
        self._c_activates = self.stats.counter("dram.activates")
        self._c_bytes_read = self.stats.counter("dram.bytes_read")
        self._c_bytes_written = self.stats.counter("dram.bytes_written")
        # Scheduler-hot config fields, captured once: the scan/pick/dispatch
        # loops run per pump wakeup and dominate DRAM model cost, so they
        # must not chase ``self.config.<field>`` attribute chains.
        self._read_window = config.read_window
        self._write_window = config.write_window
        self._fifo = config.scheduler == "fifo"
        self._t_cas = config.t_cas
        self._t_rcd_cas = config.t_rcd + config.t_cas
        self._t_rp_rcd_cas = config.t_rp + config.t_rcd + config.t_cas
        self._t_ras = config.t_ras
        self._bus_bpc = config.bus_bytes_per_cycle
        self._row_bytes = config.row_bytes
        self._n_banks = config.n_banks

    # -- public interface --------------------------------------------------

    def submit(self, req: MemRequest) -> Event:
        """Enqueue a request; the returned event triggers at completion."""
        req.issue_time = self.sim.now
        name = self._ev_names.get(req.source)
        if name is None:
            name = self._ev_names[req.source] = f"dram.{req.source}"
        event = Event(self.sim, name=name)
        # Row-interleaved mapping: consecutive rows hit different banks.
        row_index = req.addr // self._row_bytes
        queue = self._writes if req.kind is AccessKind.WRITE else self._reads
        queue.append((req, event, row_index % self._n_banks,
                      row_index // self._n_banks))
        now = self.sim.now
        self.request_intervals.record(now)
        self._record_submit(req)
        # Inlined _schedule_pump(0): submit is the hottest pump-arming site.
        next_at = self._next_pump_at
        if next_at is None or now < next_at:
            self._next_pump_at = now
            self.sim.schedule(0, self._pump, now)
        return event

    @property
    def pending(self) -> int:
        return len(self._reads) + len(self._writes)

    # -- scheduling ----------------------------------------------------------

    def _scan(self, queue, limit: int, now: int):
        """Oldest ready entry, oldest ready row-hit, and next bank-free time.

        Queue position order *is* issue-time order (requests are appended at
        submit time), so the first ready entry found is the oldest — no sort
        needed. Returns ``(first_ready, first_hit, wake)`` where the first
        two are ``(pos, entry)`` or ``None`` and ``wake`` is the earliest
        ``busy_until > now`` among scanned busy banks (the next time this
        window could make progress). ``wake`` is only complete when the scan
        saw the whole window — i.e. whenever no row hit was found — which is
        exactly the case the pump uses it in.
        """
        busy = self._bank_busy
        rows = self._bank_row
        first_ready = None
        wake = None
        pos = 0
        for entry in queue:
            if pos >= limit:
                break
            bank_idx = entry[2]
            busy_until = busy[bank_idx]
            if busy_until <= now:
                if first_ready is None:
                    first_ready = (pos, entry)
                if rows[bank_idx] == entry[3]:
                    return first_ready, (pos, entry), wake
            elif wake is None or busy_until < wake:
                wake = busy_until
            pos += 1
        return first_ready, None, wake

    def _pick(self, now: int):
        """The next dispatch as ((is_write, pos, entry) or None, wake).

        FR-FCFS prefers row hits (oldest first), then the oldest ready
        request; FIFO is strict arrival order. Reads beat writes at equal
        age in both policies. ``wake`` is the earliest visible bank-free
        time, valid precisely when the choice is ``None`` (both windows
        fully scanned), which lets the pump fold the old post-dispatch
        wakeup re-scan into its final failing pick.
        """
        reads = self._reads
        writes = self._writes
        # Single-occupant fast path: with one queued request there is no
        # hit-vs-oldest arbitration — every policy picks it the moment its
        # bank frees. This is the common case for the blocking CPU phases.
        if not writes:
            if len(reads) == 1:
                entry = reads[0]
                busy_until = self._bank_busy[entry[2]]
                if busy_until <= now:
                    return (False, 0, entry), None
                return None, busy_until
        elif not reads and len(writes) == 1:
            entry = writes[0]
            busy_until = self._bank_busy[entry[2]]
            if busy_until <= now:
                return (True, 0, entry), None
            return None, busy_until
        read_ready, read_hit, wake = self._scan(
            self._reads, self._read_window, now)
        write_ready, write_hit, wwake = self._scan(
            self._writes, self._write_window, now)
        if wwake is not None and (wake is None or wwake < wake):
            wake = wwake
        if self._fifo or (read_hit is None and write_hit is None):
            read, write = read_ready, write_ready
        else:
            read, write = read_hit, write_hit
        if read is None:
            if write is None:
                return None, wake
            return (True,) + write, wake
        if write is None or read[1][0].issue_time <= write[1][0].issue_time:
            return (False,) + read, wake
        return (True,) + write, wake

    def _pump(self, target: Optional[int] = None) -> None:
        """Dispatch every ready request, then sleep until a bank frees.

        Batch semantics: one wakeup drains all picks that are ready this
        cycle (the while loop), so back-to-back hits to open rows issue
        without intermediate event-queue round trips.

        A wakeup whose ``target`` no longer matches ``_next_pump_at`` was
        superseded by an earlier one. Such a pump can never dispatch: the
        scheduler window only changes inside pumps, and every completed pump
        re-arms the earliest useful wakeup for the window it left behind —
        so the stale pump would scan the queues and find nothing. Returning
        immediately skips that pointless scan without changing any
        dispatch time.
        """
        if target is not None and target != self._next_pump_at:
            return
        self._next_pump_at = None
        plane = self.stats.hwfaults
        if plane is not None and plane.is_stuck("dram"):
            # Stuck controller: requests accumulate, nothing dispatches,
            # and no further wakeup is armed — the watchdog's outstanding
            # tracking (or the queue-drain deadlock) names us.
            return
        now = self.sim.now
        reads, writes = self._reads, self._writes
        while True:
            choice, wake = self._pick(now)
            if choice is None:
                break
            is_write, pos, entry = choice
            del (writes if is_write else reads)[pos]
            self._dispatch(entry, now)
        if reads or writes:
            if wake is None:
                # All visible banks are free but nothing was picked: cannot
                # happen unless the window is empty; guard anyway.
                wake = now + 1
            self._schedule_pump(wake - now)

    def _dispatch(self, entry: tuple, now: int) -> None:
        req, event, bank_idx, row = entry
        open_row = self._bank_row[bank_idx]
        if open_row == row:
            access_latency = self._t_cas
        else:
            if open_row is None:
                access_latency = self._t_rcd_cas
            else:
                access_latency = self._t_rp_rcd_cas
            # Respect the minimum row-cycle time before re-activating.
            earliest_activate = self._bank_activate[bank_idx] + self._t_ras
            if now < earliest_activate:
                access_latency += earliest_activate - now
                self._bank_activate[bank_idx] = earliest_activate
            else:
                self._bank_activate[bank_idx] = now
            self._bank_row[bank_idx] = row
            self._c_activates.value += 1
        transfer = max(1, -(-req.size // self._bus_bpc))
        data_start = max(now + access_latency, self._bus_free_at)
        done = data_start + transfer
        self._bus_free_at = done
        self._bank_busy[bank_idx] = done
        self._record_complete(req, done, transfer)
        stats = self.stats
        if stats.hwfaults is not None or stats.watchdog is not None:
            self._dispatch_supervised(req, event, now, done)
            return
        self.sim.schedule(done - now, event.trigger, done)

    def _dispatch_supervised(self, req: MemRequest, event: Event,
                             now: int, done: int) -> None:
        """Response delivery with fault injection and/or watchdog tracking.

        Off the hot path: :meth:`_dispatch` only lands here when a fault
        plane or watchdog is attached. Tracking is registered *before* the
        fault is applied so a dropped or wedged response stays visible as
        the oldest outstanding request in the stall diagnosis.
        """
        wd = self.stats.watchdog
        if wd is not None:
            wd.beat("dram", now)
            wd.note_submit(
                "dram", id(event), req.issue_time,
                f"{req.kind.value} {req.size}B @0x{req.addr:x} "
                f"from {req.source}")
        plane = self.stats.hwfaults
        fault = plane.fire("dram", now) if plane is not None else None
        if fault is not None:
            if fault.kind in ("drop", "stuck"):
                # The response never arrives (stuck also wedges the pump
                # via the is_stuck latch checked there).
                return
            if fault.kind == "delay":
                done += fault.delay_cycles
            elif fault.kind == "corrupt":
                # Flip a payload bit in the backing store: the functional
                # read/write split means whoever consumes this word next
                # observes the corruption.
                plane.corrupt_word(None, req.addr - req.addr % 8)
        if wd is not None:
            self.sim.schedule(done - now, self._complete_tracked, event, done)
        else:
            self.sim.schedule(done - now, event.trigger, done)

    def _complete_tracked(self, event: Event, done: int) -> None:
        wd = self.stats.watchdog
        if wd is not None:
            wd.note_complete("dram", id(event))
        event.trigger(done)

    def abort_pending(self) -> int:
        """Drop every queued request and cancel the pump (safety-net abort
        of an abandoned collection). Returns how many were discarded."""
        dropped = len(self._reads) + len(self._writes)
        self._reads.clear()
        self._writes.clear()
        self._next_pump_at = None
        return dropped

    def _schedule_pump(self, delay: int) -> None:
        """Schedule a pump, keeping only the earliest pending wakeup live.

        Stale (later) pumps still fire off the event queue but carry a
        ``target`` that no longer matches ``_next_pump_at``, so ``_pump``
        returns before scanning — a cheap no-op instead of a full window
        scan per superseded wakeup.
        """
        target = self.sim.now + delay
        if self._next_pump_at is None or target < self._next_pump_at:
            self._next_pump_at = target
            self.sim.schedule(delay, self._pump, target)

    # -- statistics ----------------------------------------------------------

    def _record_submit(self, req: MemRequest) -> None:
        counters = self._submit_counters.get((req.kind, req.source))
        if counters is None:
            kind = "write" if req.kind is AccessKind.WRITE else (
                "amo" if req.kind is AccessKind.AMO else "read"
            )
            counters = (
                self.stats.counter(f"mem.requests.{req.source}"),
                self.stats.counter(f"mem.{kind}s.{req.source}"),
            )
            self._submit_counters[(req.kind, req.source)] = counters
        counters[0].value += 1
        counters[1].value += 1

    def _record_complete(self, req: MemRequest, done: int, transfer: int) -> None:
        if req.kind is AccessKind.AMO:
            # A fetch-or both reads and writes its word.
            self._c_bytes_read.value += req.size
            self._c_bytes_written.value += req.size
        elif req.kind is AccessKind.WRITE:
            self._c_bytes_written.value += req.size
        else:
            self._c_bytes_read.value += req.size
        self.bandwidth.record(done, req.size, busy_cycles=transfer)
        trace = self.stats.trace
        if trace is not None:
            trace.events.append((self.sim.now, "req", req.source, req.kind.value,
                                 req.addr, req.size, req.issue_time, done))
