"""Fleet fault plane: grammar, rate model, failover admission, chaos.

The synthetic-timeline batteries mirror ``test_admission.py`` — fast,
and hypothesis explores fault geometries (crash cycles inside, before,
after grants; rosters of mixed kinds) far beyond the curated figure
rosters. The chaos battery is the PR's headline invariant: under *any*
seeded fault roster, every collection of every surviving tenant is
served exactly once, the grant log stays earliest-request-first, and
the replay tier's conservation law holds with shed arrivals counted.
"""

import heapq
import math
from dataclasses import replace
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.faultplane import FaultSpecGrammarError
from repro.fleet.admission import (
    FailoverConfig,
    ScheduleResult,
    ServiceGrant,
    schedule_fleet,
)
from repro.fleet.balancer import offline_split
from repro.fleet.faults import (
    DEFAULT_RESILIENCE_ROSTERS,
    FleetFault,
    FleetFaultSpec,
    FleetFaultSpecError,
)
from repro.workloads.latency import QueryReplay
from repro.workloads.mutator import MutatorRunResult
from tests.fleet.test_admission import (
    build_timelines,
    tenant_layouts,
    timeline,
)


class TestGrammar:
    def test_parse_roundtrip_of_every_default_roster(self):
        for label, spec in DEFAULT_RESILIENCE_ROSTERS:
            parsed = FleetFaultSpec.parse(spec)
            assert FleetFaultSpec.parse(parsed.spec()) == parsed, label

    def test_crash_entry_fields(self):
        spec = FleetFaultSpec.parse("crash:u2@1500")
        (fault,) = spec.faults
        assert fault == FleetFault(kind="crash", target_kind="unit",
                                   index=2, at_cycle=1500)

    def test_brownout_defaults_factor(self):
        (fault,) = FleetFaultSpec.parse("brownout:u0@10+20").faults
        assert fault.factor == 4.0 and fault.duration == 20
        assert fault.end_cycle == 30

    def test_slow_tenant_defaults_factor(self):
        (fault,) = FleetFaultSpec.parse("slow:t3").faults
        assert fault.target_kind == "tenant" and fault.factor == 2.0
        assert fault.end_cycle == math.inf

    def test_whitespace_and_empty_chunks_tolerated(self):
        spec = FleetFaultSpec.parse(" crash:u0 , ,slow:t1x2.5 ")
        assert len(spec.faults) == 2
        assert spec.faults[1].factor == 2.5

    @pytest.mark.parametrize("bad", [
        "wedge:u0",            # unknown kind
        "crash:x0",            # unknown target kind
        "crash:u0+100",        # crash takes no duration
        "crash:u0x2",          # crash takes no factor
        "brownout:u0",         # brownout needs a duration
        "brownout:u0+0",       # ...of at least one cycle
        "slow:u0+100",         # slow is permanent
        "slow:u0x1.0",         # factor must exceed 1
        "brownout:u0+10x0.5",  # ...even when explicit
        "crash:u",             # missing index
        "crash",               # missing target
    ])
    def test_bad_entries_raise_with_the_offender(self, bad):
        with pytest.raises(FleetFaultSpecError) as err:
            FleetFaultSpec.parse(bad)
        assert bad.split(",")[0] in str(err.value)

    def test_error_is_catchable_as_shared_grammar_error(self):
        with pytest.raises(FaultSpecGrammarError):
            FleetFaultSpec.parse("bogus:u0")

    def test_validate_rejects_out_of_roster_targets(self):
        spec = FleetFaultSpec.parse("crash:u3,slow:t1")
        with pytest.raises(FleetFaultSpecError, match="unit 3"):
            spec.validate(n_units=2, n_tenants=4)
        with pytest.raises(FleetFaultSpecError, match="tenant 1"):
            FleetFaultSpec.parse("slow:t1").validate(2, 1)
        spec.validate(n_units=4, n_tenants=2)  # in range: returns self

    def test_empty_spec_is_falsy(self):
        assert not FleetFaultSpec.parse("")
        assert FleetFaultSpec.parse("crash:u0")


class TestRateModel:
    def test_rate_segments_cover_zero_to_inf(self):
        spec = FleetFaultSpec.parse("brownout:u0@100+50x2")
        assert spec.rate_segments(0) == [
            (0, 100, 1.0), (100, 150, 2.0), (150, math.inf, 1.0)]
        assert spec.rate_segments(1) == [(0, math.inf, 1.0)]

    def test_overlapping_windows_multiply(self):
        spec = FleetFaultSpec.parse("brownout:u0@0+100x2,slow:u0@50x3")
        assert spec.rate_segments(0) == [
            (0, 50, 2.0), (50, 100, 6.0), (100, math.inf, 3.0)]

    def test_service_end_stretches_inside_a_window(self):
        spec = FleetFaultSpec.parse("brownout:u0@0+1000000x4")
        assert spec.service_end(0, 100, 50) == 100 + 200

    def test_service_end_spans_a_window_boundary(self):
        # 30 work cycles at 2x fit [0, 40): 20 done; the remaining 10
        # run at full rate after the window lifts.
        spec = FleetFaultSpec.parse("brownout:u0@0+40x2")
        assert spec.service_end(0, 0, 30) == 40 + 10

    def test_service_end_identity_off_the_faulted_unit(self):
        spec = FleetFaultSpec.parse("brownout:u0@0+100x4")
        assert spec.service_end(1, 7, 13) == 20

    def test_tenant_factor_windows(self):
        spec = FleetFaultSpec.parse("brownout:t0@100+50x3,slow:t1x2")
        assert spec.tenant_factor(0, 99) == 1.0
        assert spec.tenant_factor(0, 100) == 3.0
        assert spec.tenant_factor(0, 150) == 1.0
        assert spec.tenant_factor(1, 0) == 2.0
        assert spec.tenant_factor(2, 0) == 1.0

    def test_crash_queries(self):
        spec = FleetFaultSpec.parse("crash:u1@500,crash:t0@700")
        assert spec.crash_cycle(1) == 500
        assert spec.crash_cycle(0) is None
        assert spec.tenant_crash_cycle(0) == 700
        assert spec.crashed_units(3) == (1,)


EMPTY = FleetFaultSpec()


def _reference_shared(timelines, n_units, dram_tax):
    """Test-only oracle: the fault-free ``shared`` loop, written out.

    Earliest-request-first heap, least-loaded unit with the unit index
    breaking ties, DRAM-taxed durations — no crashes, no retries, no
    patience deadline. The one admission loop must reproduce it exactly
    with an empty plane armed and the timeout off.
    """
    n_tenants = len(timelines)
    tax = 1.0 + dram_tax * (n_tenants - 1) / n_units
    #: (request cycle, tenant, pause index) — tenant breaks ties.
    pending: List[Tuple[int, int, int]] = []
    for t, tl in enumerate(timelines):
        if tl.pauses:
            heapq.heappush(pending, (tl.pauses[0].start_cycle, t, 0))
    units = [0] * n_units  # cycle each unit becomes free
    drift = [0] * n_tenants  # how far each tenant's schedule has slipped
    adjusted: List[List] = [[] for _ in range(n_tenants)]
    grants: List[ServiceGrant] = []
    waits = [0] * n_tenants
    while pending:
        request, t, i = heapq.heappop(pending)
        unit = min(range(n_units), key=lambda u: (units[u], u))
        grant = max(request, units[unit])
        base_pause = timelines[t].pauses[i]
        end = grant + math.ceil(base_pause.pause_cycles * tax)
        units[unit] = end
        grants.append(ServiceGrant(tenant=t, pause_index=i, unit=unit,
                                   request=request, grant=grant, end=end))
        waits[t] += grant - request
        adjusted[t].append(replace(base_pause, start_cycle=request,
                                   mark_cycles=end - request,
                                   sweep_cycles=0))
        drift[t] += (end - request) - base_pause.pause_cycles
        if i + 1 < len(timelines[t].pauses):
            heapq.heappush(
                pending,
                (timelines[t].pauses[i + 1].start_cycle + drift[t], t, i + 1))
    return ScheduleResult(
        policy="shared",
        timelines=[
            MutatorRunResult(collector=tl.collector, pauses=adjusted[t],
                             mutator_cycles=tl.mutator_cycles)
            for t, tl in enumerate(timelines)
        ],
        grants=grants,
        queue_wait_cycles=waits,
    )


class TestFailoverAdmission:
    def test_empty_armed_plane_reproduces_shared_exactly(self):
        tls = build_timelines([[(100_000, 50_000), (400_000, 60_000)],
                               [(100_000, 40_000)]])
        plain = _reference_shared(tls, 2, 0.25)
        armed = schedule_fleet("shared", tls, n_units=2, dram_tax=0.25,
                               faults=EMPTY)
        assert armed.grants == plain.grants
        assert armed.timelines == plain.timelines
        assert armed.queue_wait_cycles == plain.queue_wait_cycles
        assert armed.failovers == [0, 0] and armed.fallbacks == [0, 0]

    @settings(deadline=None, max_examples=40)
    @given(layouts=tenant_layouts(), n_units=st.integers(1, 3),
           dram_tax=st.floats(0.0, 0.5, allow_nan=False))
    def test_empty_armed_plane_equivalence_holds_everywhere(
            self, layouts, n_units, dram_tax):
        # Patience disabled: the timeout is part of the failover
        # discipline and can fire on fault-free congestion too, which is
        # exactly why it is armed only when a plane is passed.
        tls = build_timelines(layouts)
        plain = _reference_shared(tls, n_units, dram_tax)
        armed = schedule_fleet("shared", tls, n_units=n_units,
                               dram_tax=dram_tax, faults=EMPTY,
                               failover=FailoverConfig(timeout_cycles=0))
        assert armed.grants == plain.grants
        assert armed.timelines == plain.timelines

    def test_crash_interrupts_and_retries_on_the_survivor(self):
        # Tenant 0 granted on unit 0 at 100k for 50k; unit 0 dies at
        # 120k mid-service. The retry backs off 10k and lands on unit 1.
        tls = build_timelines([[(100_000, 50_000)]])
        sched = schedule_fleet(
            "shared", tls, n_units=2, dram_tax=0.0,
            faults=FleetFaultSpec.parse("crash:u0@120000"),
            failover=FailoverConfig(backoff_cycles=10_000, max_retries=3,
                                    timeout_cycles=0))
        (event,) = sched.failover_events
        assert (event.unit, event.crash_cycle, event.attempt) == \
            (0, 120_000, 1)
        (grant,) = sched.grants
        assert grant.via == "unit" and grant.unit == 1
        assert grant.request == 130_000      # crash + backoff
        assert grant.first_request == 100_000
        assert grant.attempts == 2
        assert sched.failovers == [1]
        assert sched.retry_wait_cycles == [30_000]  # requeue - request
        # The tenant's recorded pause covers the whole stall from the
        # original request.
        (pause,) = sched.timelines[0].pauses
        assert pause.start_cycle == 100_000
        assert pause.pause_cycles == grant.end - 100_000

    def test_backoff_doubles_per_attempt(self):
        # Units 0 and 1 die in sequence so the request is interrupted
        # twice; the second requeue backs off 2x the first.
        tls = build_timelines([[(100_000, 50_000)]])
        sched = schedule_fleet(
            "shared", tls, n_units=3, dram_tax=0.0,
            faults=FleetFaultSpec.parse("crash:u0@110000,crash:u1@125000"),
            failover=FailoverConfig(backoff_cycles=10_000, max_retries=5,
                                    timeout_cycles=0))
        assert [e.attempt for e in sched.failover_events] == [1, 2]
        (grant,) = sched.grants
        assert grant.unit == 2 and grant.attempts == 3
        # attempt 1 died at 110k -> requeue 120k; attempt 2 died at
        # 125k -> backoff 20k -> requeue 145k.
        assert grant.request == 145_000

    def test_retry_budget_exhaustion_falls_back_to_software(self):
        sw = build_timelines([[(100_000, 90_000)]])
        tls = build_timelines([[(100_000, 30_000)]])
        sched = schedule_fleet(
            "shared", tls, n_units=1, dram_tax=0.0,
            faults=FleetFaultSpec.parse("crash:u0@110000"),
            failover=FailoverConfig(backoff_cycles=10_000, max_retries=0,
                                    timeout_cycles=0),
            software_timelines=sw)
        (grant,) = sched.grants
        assert grant.via == "fallback" and grant.unit == -1
        assert sched.fallbacks == [1]
        # Fallback runs the software pause duration; the tax is what it
        # cost over the hardware work the request asked for.
        assert grant.end - grant.grant == 90_000
        assert sched.fallback_tax_cycles == [90_000 - 30_000]

    def test_all_units_dead_degrades_immediately(self):
        tls = build_timelines([[(100_000, 30_000)]])
        sched = schedule_fleet(
            "shared", tls, n_units=2, dram_tax=0.0,
            faults=FleetFaultSpec.parse("crash:u0,crash:u1"))
        (grant,) = sched.grants
        assert grant.via == "fallback"
        assert grant.grant == 100_000  # no timeout wait: refused, not slow
        assert sched.availability(0) == 0.0
        assert sched.failovers == [0]  # nothing was ever in flight

    def test_timeout_gives_up_at_the_deadline(self):
        # Tenant 1's request at 100k queues behind tenant 0's monster
        # collection; with a 50k patience budget it falls back at 150k.
        tls = build_timelines([[(90_000, 2_000_000)], [(100_000, 30_000)]])
        sched = schedule_fleet(
            "shared", tls, n_units=1, dram_tax=0.0, faults=EMPTY,
            failover=FailoverConfig(timeout_cycles=50_000))
        by_tenant = {g.tenant: g for g in sched.grants}
        assert by_tenant[0].via == "unit"
        assert by_tenant[1].via == "fallback"
        assert by_tenant[1].grant == 150_000
        assert sched.retry_wait_cycles[1] == 50_000

    def test_no_plane_leaves_the_deadline_unarmed(self):
        # The same congestion without a plane: tenant 1 waits it out on
        # the unit, exactly as the fault-free oracle schedules it.
        tls = build_timelines([[(90_000, 2_000_000)], [(100_000, 30_000)]])
        sched = schedule_fleet(
            "shared", tls, n_units=1, dram_tax=0.0,
            failover=FailoverConfig(timeout_cycles=50_000))
        plain = _reference_shared(tls, 1, 0.0)
        assert sched.grants == plain.grants
        assert sched.timelines == plain.timelines
        assert sched.fallbacks == [0, 0]

    def test_crashed_tenant_collections_are_cancelled(self):
        tls = build_timelines([[(100_000, 10_000), (500_000, 10_000),
                                (900_000, 10_000)]])
        sched = schedule_fleet(
            "shared", tls, n_units=1, dram_tax=0.0,
            faults=FleetFaultSpec.parse("crash:t0@400000"))
        assert len(sched.grants) == 1          # only the pre-crash pause
        assert sched.cancelled == [2]
        assert len(sched.timelines[0].pauses) == 1

    def test_slow_tenant_stretches_its_own_collections_only(self):
        tls = build_timelines([[(100_000, 10_000)], [(500_000, 10_000)]])
        sched = schedule_fleet(
            "shared", tls, n_units=1, dram_tax=0.0,
            faults=FleetFaultSpec.parse("slow:t0x3"))
        by_tenant = {g.tenant: g for g in sched.grants}
        assert by_tenant[0].end - by_tenant[0].grant == 30_000
        assert by_tenant[1].end - by_tenant[1].grant == 10_000


def fault_rosters(max_units=3, max_tenants=5):
    """Strategy: valid fault rosters built straight from components."""
    crash = st.builds(
        FleetFault, kind=st.just("crash"),
        target_kind=st.sampled_from(["unit", "tenant"]),
        index=st.integers(0, max_units - 1),
        at_cycle=st.integers(0, 6_000_000))
    degrade = st.builds(
        FleetFault,
        kind=st.sampled_from(["brownout", "slow"]),
        target_kind=st.sampled_from(["unit", "tenant"]),
        index=st.integers(0, max_units - 1),
        at_cycle=st.integers(0, 6_000_000),
        duration=st.integers(1, 4_000_000),
        factor=st.floats(1.1, 8.0, allow_nan=False))
    entry = st.one_of(crash, degrade).map(
        lambda f: f if f.kind == "brownout"
        else FleetFault(kind=f.kind, target_kind=f.target_kind,
                        index=f.index, at_cycle=f.at_cycle,
                        duration=None,
                        factor=None if f.kind == "crash" else f.factor))
    return st.lists(entry, min_size=0, max_size=4).map(
        lambda fs: FleetFaultSpec(faults=tuple(fs)))


class TestChaosBattery:
    """Seeded randomized rosters: the invariants that must never break."""

    @settings(deadline=None, max_examples=80)
    @given(layouts=tenant_layouts(), n_units=st.integers(1, 3),
           dram_tax=st.floats(0.0, 0.5, allow_nan=False),
           faults=fault_rosters(),
           backoff=st.integers(1_000, 200_000),
           retries=st.integers(0, 4),
           timeout=st.sampled_from([0, 50_000, 1_000_000]))
    def test_every_surviving_collection_served_exactly_once(
            self, layouts, n_units, dram_tax, faults, backoff, retries,
            timeout):
        tls = build_timelines(layouts)
        faults = FleetFaultSpec(faults=tuple(
            f for f in faults.faults
            if f.index < (n_units if f.target_kind == "unit"
                          else len(tls))))
        sched = schedule_fleet(
            "shared", tls, n_units=n_units, dram_tax=dram_tax,
            faults=faults,
            failover=FailoverConfig(backoff_cycles=backoff,
                                    max_retries=retries,
                                    timeout_cycles=timeout))
        for t, tl in enumerate(tls):
            served = sorted(g.pause_index for g in sched.grants
                            if g.tenant == t)
            # Served + cancelled partitions the tenant's pause list: the
            # served indices are a prefix (requests are monotone, so a
            # tenant crash cancels exactly the suffix).
            n_served = len(tl.pauses) - sched.cancelled[t]
            assert served == list(range(n_served)), (t, served)
            crash = faults.tenant_crash_cycle(t)
            if crash is None:
                assert sched.cancelled[t] == 0
        # FIFO: the grant log is ordered by (re-queued) request cycle.
        assert all(a.request <= b.request
                   for a, b in zip(sched.grants, sched.grants[1:]))
        # Unit exclusivity among hardware grants; nothing is served by a
        # unit past its crash cycle; fallbacks never name a unit.
        busy_until = {}
        crash_at = {u: faults.crash_cycle(u) for u in range(n_units)}
        for grant in sched.grants:
            assert grant.end > grant.grant >= grant.request >= 0
            assert grant.first_request <= grant.request
            if grant.via == "unit":
                assert grant.grant >= busy_until.get(grant.unit, 0)
                busy_until[grant.unit] = grant.end
                if crash_at[grant.unit] is not None:
                    assert grant.end <= crash_at[grant.unit]
            else:
                assert grant.unit == -1
        # Counter consistency.
        assert sched.failovers == [
            sum(1 for e in sched.failover_events if e.tenant == t)
            for t in range(len(tls))]
        assert all(w >= 0 for w in sched.retry_wait_cycles)
        assert all(w >= 0 for w in sched.fallback_tax_cycles)
        # Adjusted timelines stay monotone and non-overlapping.
        for adjusted in sched.timelines:
            cursor = 0
            for pause in adjusted.pauses:
                assert pause.start_cycle >= cursor
                cursor = pause.start_cycle + pause.pause_cycles

    @settings(deadline=None, max_examples=40)
    @given(gaps=st.lists(st.integers(1, 3_000_000), min_size=1,
                         max_size=40),
           offline=st.integers(0, 40_000_000),
           seed=st.integers(0, 10_000))
    def test_replay_conservation_with_offline_shedding(self, gaps, offline,
                                                       seed):
        arrivals = []
        cursor = 0
        for gap in gaps:
            cursor += gap
            arrivals.append(cursor)
        replay = QueryReplay(
            timeline([(500_000, 40_000)], mutator=5_000_000),
            interval_cycles=100_000, service_mean_cycles=20_000,
            seed=seed,
        ).replay(arrivals, warmup=0, horizon=cursor + 1_000_000,
                 offline_after_cycle=offline)
        assert replay.conserved
        live, dead = offline_split(arrivals, offline)
        assert replay.shed >= len(dead)
        assert replay.completed + replay.in_flight <= len(live)

    def test_offline_prefix_replays_byte_identically(self):
        # The pre-crash records match the fault-free run record-for-
        # record: the RNG stream is drawn identically either way.
        arrivals = [i * 100_000 for i in range(1, 30)]
        tl = timeline([(500_000, 40_000)], mutator=5_000_000)

        def run(**kw):
            return QueryReplay(tl, interval_cycles=100_000,
                               service_mean_cycles=20_000,
                               seed=7).replay(arrivals, **kw)

        free = run()
        faulted = run(offline_after_cycle=1_500_000)
        live, dead = offline_split(arrivals, 1_500_000)
        assert faulted.shed == len(dead)
        assert faulted.records == free.records[:len(live)]
