"""Idealized latency-bandwidth pipe memory model.

Used for the paper's "Potential Performance" study (§VI-A, Fig. 17): "we
replaced our model with a latency-bandwidth pipe of latency 1 cycle and
bandwidth 8 GB/s. In this regime, we outperform the CPU by an average of
9.0x on the mark phase."

At a 1 GHz clock, 8 GB/s is 8 bytes per cycle: a request of ``size`` bytes
occupies the pipe for ``ceil(size / 8)`` cycles and completes ``latency``
cycles after its data slot.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.simulator import Completion, Event, Simulator
from repro.engine.stats import BandwidthTracker, IntervalTracker, StatsRegistry
from repro.memory.config import PipeConfig
from repro.memory.request import REQUEST_DESC, AccessKind, MemRequest


class LatencyBandwidthPipe:
    """Fixed-latency, fixed-bandwidth memory; same interface as the DRAM model."""

    def __init__(
        self,
        sim: Simulator,
        config: PipeConfig,
        stats: Optional[StatsRegistry] = None,
        bandwidth: Optional[BandwidthTracker] = None,
    ):
        self.sim = sim
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self.bandwidth = bandwidth if bandwidth is not None else BandwidthTracker("pipe")
        self.request_intervals = IntervalTracker("pipe.requests")
        self._bus_free_at = 0
        self._submit_counters: dict = {}
        self._c_bytes_read = self.stats.counter("dram.bytes_read")
        self._c_bytes_written = self.stats.counter("dram.bytes_written")

    def submit(self, req: MemRequest):
        """Enqueue a request; the returned handle completes at ``done``.

        The pipe is never contended — the completion time is fully
        determined at submit, so it returns a :class:`Completion` with zero
        queue insertions (a posted write costs nothing at all).
        """
        req.issue_time = self.sim.now
        self.request_intervals.record(self.sim.now)
        self._record_submit(req)
        transfer = max(1, -(-req.size // self.config.bytes_per_cycle))
        start = max(self.sim.now, self._bus_free_at)
        self._bus_free_at = start + transfer
        done = start + transfer + self.config.latency
        self._record_complete(req, done, transfer)
        plane = self.stats.hwfaults
        if plane is not None:
            faulted = self._apply_fault(plane, req, done)
            if faulted is not None:
                return faulted
        return Completion(self.sim, done, done)

    def _apply_fault(self, plane, req: MemRequest, done: int):
        """Fault hooks for the pipe model (it *is* the ``dram`` component).

        Returns a replacement wait handle, or ``None`` to deliver normally
        (possibly after mutating memory for ``corrupt``). Off the hot path:
        only reached with a fault plane attached.
        """
        now = self.sim.now
        if plane.is_stuck("dram"):
            dead = Event(self.sim, name=f"pipe.{req.source}.stuck")
            self._note_lost(req, dead)
            return dead
        fault = plane.fire("dram", now)
        if fault is None:
            return None
        if fault.kind in ("drop", "stuck"):
            dead = Event(self.sim, name=f"pipe.{req.source}.{fault.kind}")
            self._note_lost(req, dead)
            return dead
        if fault.kind == "delay":
            late = done + fault.delay_cycles
            event = Event(self.sim, name=f"pipe.{req.source}.delay")
            self.sim.at(late, event.trigger, late)
            return event
        # corrupt: flip a payload bit; timing is unchanged.
        plane.corrupt_word(None, req.addr - req.addr % 8)
        return None

    def _note_lost(self, req: MemRequest, handle) -> None:
        wd = self.stats.watchdog
        if wd is not None:
            wd.note_submit("dram", id(handle), req.issue_time,
                           REQUEST_DESC, req)

    @property
    def pending(self) -> int:
        """The pipe never queues; pending work is implicit in bus occupancy."""
        return 0

    def abort_pending(self) -> int:
        """The pipe holds no queued state; nothing to discard."""
        return 0

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
            self._c_bytes_read.value += req.size
            self._c_bytes_written.value += req.size
        elif req.kind is AccessKind.WRITE:
            self._c_bytes_written.value += req.size
        else:
            self._c_bytes_read.value += req.size
        self.bandwidth.record(done, req.size, transfer)
        trace = self.stats.trace
        if trace is not None:
            trace.events.append((self.sim.now, "req", req.source,
                                 req.kind.value, req.addr, req.size,
                                 req.issue_time, done))
