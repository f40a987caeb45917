"""Watchdog supervision: stall detection, diagnosis, event discarding."""

import pytest

from repro.engine.simulator import SimulationError, Simulator, StallReport
from repro.engine.stats import StatsRegistry
from repro.engine.watchdog import GCWatchdog
from repro.memory.request import REQUEST_DESC, AccessKind, MemRequest


class TestStallReport:
    def test_is_a_simulation_error(self):
        report = StallReport("deadlock: event queue empty", cycle=7)
        assert isinstance(report, SimulationError)
        assert report.cycle == 7

    def test_bare_deadlock_still_matches_legacy_handlers(self, sim):
        # Pre-watchdog callers catch SimulationError and match "deadlock";
        # the structured report must not break them.
        ev = sim.event()
        with pytest.raises(SimulationError, match="deadlock") as exc_info:
            sim.run_until(ev)
        assert isinstance(exc_info.value, StallReport)
        assert exc_info.value.culprit == ""  # no diagnostician attached

    def test_deadlock_routes_through_attached_diagnostics(self, sim):
        wd = GCWatchdog().attach(sim)
        wd.note_submit("dram", "req0", 0, "read 8B @0x1000 from marker")
        ev = sim.event()
        with pytest.raises(StallReport) as exc_info:
            sim.run_until(ev)
        report = exc_info.value
        assert report.culprit == "dram"
        assert "read 8B @0x1000" in str(report)
        assert wd.trips == 1
        wd.detach(sim)
        assert sim.diagnostics is None


class TestDetectionRules:
    def test_supervised_run_returns_event_value(self, sim):
        wd = GCWatchdog(check_interval=10)
        ev = sim.event()
        sim.schedule(25, ev.trigger, "done")
        assert wd.run_until(sim, ev) == "done"
        assert wd.trips == 0

    def test_no_progress_trips(self, sim):
        # One event parked far beyond the stall threshold: the queue never
        # drains (no deadlock) but nothing is processed either.
        wd = GCWatchdog(stall_cycles=500, check_interval=100)
        wd.beat("marker", 0)
        sim.schedule(10_000_000, lambda: None)
        ev = sim.event()
        with pytest.raises(StallReport, match="no progress") as exc_info:
            wd.run_until(sim, ev)
        assert exc_info.value.culprit == "marker"  # stalest heartbeat

    def test_overdue_request_trips_despite_progress(self, sim):
        # A livelock: events keep flowing, but one tracked request never
        # completes. Only the request-timeout rule can catch this.
        wd = GCWatchdog(stall_cycles=10**9, request_timeout=300,
                        check_interval=100)

        def chatter():
            while True:
                yield 50

        sim.process(chatter())
        wd.note_submit("tlb", "walk1", 0, "page walk for 0x4000")
        ev = sim.event()
        with pytest.raises(StallReport, match="overdue") as exc_info:
            wd.run_until(sim, ev)
        report = exc_info.value
        assert report.culprit == "tlb"
        assert "page walk for 0x4000" in report.oldest_request

    def test_completed_request_does_not_trip(self, sim):
        wd = GCWatchdog(request_timeout=300, check_interval=100)
        wd.note_submit("dram", "r1", 0, "read")
        wd.note_complete("dram", "r1")
        ev = sim.event()
        sim.schedule(10_000, ev.trigger, "ok")
        assert wd.run_until(sim, ev) == "ok"


class TestDiagnosis:
    def test_probe_ranking_follows_registration_order(self, sim):
        wd = GCWatchdog().attach(sim)
        wd.register_probe("markq.entries", "markqueue", lambda: 0)
        wd.register_probe("recl.blocks", "sweeper", lambda: 3)
        report = wd.diagnose(sim, sim.event(), "stall")
        assert report.culprit == "sweeper"
        assert report.occupancies == {"markq.entries": 0, "recl.blocks": 3}

    def test_outstanding_request_outranks_probes(self, sim):
        wd = GCWatchdog().attach(sim)
        wd.register_probe("markq.entries", "markqueue", lambda: 9)
        wd.note_submit("dram", "r", 5, "read 64B")
        report = wd.diagnose(sim, sim.event(), "stall")
        assert report.culprit == "dram"

    def test_request_is_described_only_when_diagnosed(self, sim):
        # Supervised components hand over the request, not its text; the
        # report reads as if the text had been formatted at submit time.
        wd = GCWatchdog().attach(sim)
        req = MemRequest(0x1F40, 64, AccessKind.READ, source="marker")
        wd.note_submit("dram", "r", 0, REQUEST_DESC, req)
        wd.note_submit("tlb", "w", 0, "page walk for 0x{:x} ({})",
                       0x4000, "gc-tlb")
        assert wd.outstanding[("dram", "r")] == (0, REQUEST_DESC, (req,))
        with pytest.raises(StallReport) as exc_info:
            sim.run_until(sim.event())
        text = (f"{req.kind.value} {req.size}B @0x{req.addr:x} "
                f"from {req.source}")
        assert exc_info.value.oldest_request == (
            f"{text} (submitted at cycle 0, 0 cycles in flight)")
        wd.note_complete("dram", "r")
        assert wd._find_culprit(20, {}) == (
            "tlb", "page walk for 0x4000 (gc-tlb) "
                   "(submitted at cycle 0, 20 cycles in flight)")

    def test_crashing_probe_reports_minus_one(self, sim):
        wd = GCWatchdog().attach(sim)
        wd.register_probe("broken", "marker",
                          lambda: (_ for _ in ()).throw(RuntimeError()))
        report = wd.diagnose(sim, sim.event(), "stall")
        assert report.occupancies == {"broken": -1}

    def test_diagnosis_collects_fired_faults_and_counters(self, sim):
        from repro.engine.faultplane import parse_hwfault_spec

        stats = StatsRegistry()
        plane = parse_hwfault_spec("drop:dram")
        plane.install(stats)
        plane.fire("dram", 42)
        wd = GCWatchdog().attach(sim, stats)
        report = wd.diagnose(sim, sim.event(), "stall")
        assert [str(f) for f in report.faults] == \
            ["drop:dram at cycle 42 (op #1)"]
        assert "injected faults" in str(report)
        assert stats.get("watchdog.trips") == 1
        wd.detach(sim)
        assert stats.watchdog is None


class TestDiscardPending:
    def test_discard_clears_the_queue(self, sim):
        hits = []
        sim.schedule(10, lambda: hits.append(1))
        sim.schedule(20, lambda: hits.append(2))
        assert sim.discard_pending() == 2
        assert sim.pending_events == 0
        sim.run()
        assert hits == []

    def test_discard_empty_queue_is_zero(self, sim):
        assert sim.discard_pending() == 0

    def test_sim_usable_after_discard(self, sim):
        sim.schedule(10, lambda: None)
        sim.discard_pending()
        hits = []
        sim.schedule(5, lambda: hits.append(sim.now))
        sim.run()
        assert hits  # new events still fire after the purge
