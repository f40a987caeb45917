"""Fleet replay invariants that need the real simulation stack."""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet import report
from repro.fleet.balancer import spray, tenant_arrivals
from repro.fleet.faults import FleetFaultSpec
from repro.fleet.report import derive_schedule, simulate_fleet
from repro.fleet.spec import FleetSpec
from repro.fleet.timeline import base_run, tenant_timeline
from repro.workloads import _stdlib_stream, latency
from repro.workloads.latency import (
    SERVICE_SIGMA,
    QueryRecord,
    QueryReplay,
    compare_stw_concurrent,
    draw_service_times,
)

SPEC = FleetSpec(n_tenants=2, profiles_cycle=("luindex", "avrora"),
                 scale=0.008, seed=1, n_gcs=1, n_queries=400, warmup=40)


class TestBalancer:
    def test_spray_is_seeded_and_partitioning(self):
        a = spray(500, 3, seed=4)
        assert a == spray(500, 3, seed=4)
        assert a != spray(500, 3, seed=5)
        assert set(a) <= {0, 1, 2}
        per_tenant = tenant_arrivals(a, 1000, 3, 100)
        assert len(per_tenant) == 3
        assert sum(len(arr) for arr, _w in per_tenant) == 500
        assert sum(w for _arr, w in per_tenant) == 100
        # Arrival cycles are the global slots, strictly increasing.
        for arrivals, _w in per_tenant:
            assert arrivals == sorted(set(arrivals))

    def test_unpicked_tenant_gets_empty_slice(self):
        slices = tenant_arrivals([0, 0, 0], 1000, n_tenants=3, warmup=2)
        assert slices == [([0, 1000, 2000], 2), ([], 0), ([], 0)]

    @pytest.mark.parametrize("n_queries", [0, 5])
    def test_spray_needs_a_tenant(self, n_queries):
        with pytest.raises(ValueError, match="empty range"):
            spray(n_queries, 0, seed=1)

    @pytest.mark.parametrize("picks", [[0, 3], [-1, 0]])
    def test_slicing_rejects_assignments_outside_the_roster(self, picks):
        with pytest.raises(ValueError, match="outside the 3-tenant"):
            tenant_arrivals(picks, 1000, n_tenants=3, warmup=0)

    def test_slicing_rejects_arrival_cycles_past_int64(self):
        with pytest.raises(ValueError, match="overflow int64"):
            tenant_arrivals([0, 0, 0], 1 << 62, n_tenants=1, warmup=0)


def reference_spray(n_queries, n_tenants, seed):
    """The balancer's stream, one ``randrange`` call per query."""
    rng = random.Random(f"fleet-balancer:{seed}")
    return [rng.randrange(n_tenants) for _ in range(n_queries)]


def reference_tenant_arrivals(assignments, interval_cycles, n_tenants,
                              warmup):
    """Every tenant's slice, one append per global query."""
    slices = [[] for _ in range(n_tenants)]
    n_warmup = [0] * n_tenants
    for g, t in enumerate(assignments):
        slices[t].append(g * interval_cycles)
    for t in assignments[:warmup]:
        n_warmup[t] += 1
    return list(zip(slices, n_warmup))


#: ``None`` keeps the production block size; the small ones make every
#: request span several blocks.
BLOCKS = st.sampled_from([None, 1, 3, 64])


def with_block(block):
    return mock.patch.object(_stdlib_stream, "BLOCK_ATTEMPTS",
                             block or _stdlib_stream.BLOCK_ATTEMPTS)


class TestStreamIdentity:
    """The numpy streams are the stdlib streams, value for value; the
    per-element loops they replaced are the references."""

    @settings(deadline=None, max_examples=120)
    @given(
        n_queries=st.one_of(st.integers(0, 2), st.integers(0, 1500)),
        n_tenants=st.one_of(st.integers(1, 64),
                            st.sampled_from([1, 2, 4, 8, 16, 32, 64])),
        seed=st.integers(-2**70, 2**70),
        interval=st.integers(0, 10**9),
        warmup=st.integers(-3, 1600),
        block=BLOCKS,
    )
    @example(n_queries=1, n_tenants=1, seed=0, interval=1, warmup=0,
             block=1)
    def test_spray_and_slices_match_the_loops(self, n_queries, n_tenants,
                                              seed, interval, warmup,
                                              block):
        with with_block(block):
            assignments = spray(n_queries, n_tenants, seed)
        assert assignments == reference_spray(n_queries, n_tenants, seed)
        assert all(type(t) is int for t in assignments)
        slices = tenant_arrivals(assignments, interval, n_tenants, warmup)
        assert slices == reference_tenant_arrivals(
            assignments, interval, n_tenants, warmup)
        assert all(type(a) is int for arrivals, _w in slices
                   for a in arrivals)

    @settings(deadline=None, max_examples=60)
    @given(
        count=st.integers(0, 800),
        n=st.one_of(st.integers(1, 64), st.integers(1, 2**32 - 1)),
        seed=st.one_of(st.integers(), st.text()),
        block=BLOCKS,
    )
    def test_randbelow_matches_randrange(self, count, n, seed, block):
        rng = random.Random(seed)
        with with_block(block):
            drawn = _stdlib_stream.randbelow(count, n, seed)
        assert drawn.tolist() == [rng.randrange(n) for _ in range(count)]

    def test_randbelow_spans_one_word_at_most(self):
        with pytest.raises(ValueError, match="32-bit word"):
            _stdlib_stream.randbelow(1, 2**32, seed=1)


class TestDedicatedIdentity:
    def test_dedicated_equals_single_tenant_replay(self):
        """Under ``dedicated`` a tenant's latency must be exactly what a
        standalone QueryReplay of its own timeline and arrival slice
        yields — other tenants must have zero effect on it."""
        fleet = simulate_fleet(SPEC, policies=("dedicated",))
        slices = tenant_arrivals(
            spray(SPEC.n_queries, SPEC.n_tenants, SPEC.seed),
            fleet.interval_cycles, SPEC.n_tenants, SPEC.warmup)
        for tenant in SPEC.tenants():
            run = tenant_timeline(
                base_run(tenant.benchmark, "hw", SPEC.scale, SPEC.seed,
                         SPEC.n_gcs),
                tenant.phase_frac)
            arrivals, n_warm = slices[tenant.index]
            solo = QueryReplay(
                run, interval_cycles=fleet.interval_cycles,
                service_mean_cycles=fleet.service_mean_cycles,
                seed=tenant.seed,
            ).replay(arrivals, warmup=n_warm,
                     horizon=SPEC.n_queries * fleet.interval_cycles)
            report = fleet.reports[(tenant.index, "dedicated")]
            assert report.replay.records == solo.records
            assert (report.replay.arrived, report.replay.completed,
                    report.replay.in_flight, report.replay.shed) == \
                (solo.arrived, solo.completed, solo.in_flight, solo.shed)

    def test_removing_a_tenant_does_not_move_the_others(self):
        """Cell independence: replaying a subset reproduces the full
        fleet's rows for those tenants byte-for-byte (all policies)."""
        full = simulate_fleet(SPEC)
        subset = simulate_fleet(SPEC, tenant_indices=(1,))
        for policy in full.policies:
            assert subset.reports[(1, policy)].row() == \
                full.reports[(1, policy)].row()


class TestNoPerQueryObjects:
    """The fleet path and ``compare_stw_concurrent`` build no object per
    query: a replay holds columns, and ``records`` materialises rows only
    when asked."""

    def test_fleet_builds_no_query_records(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the fleet path built a QueryRecord")

        with monkeypatch.context() as patch:
            patch.setattr(latency, "QueryRecord", refuse)
            clean = simulate_fleet(SPEC)
            faulted = simulate_fleet(
                SPEC, policies=("shared",),
                faults=FleetFaultSpec.parse("slow:u0x2"))
            replay = clean.reports[(0, "shared")].replay
            with pytest.raises(AssertionError, match="built a QueryRecord"):
                replay.records  # the guard is armed
            comparison = compare_stw_concurrent(
                base_run("luindex", "sw", SPEC.scale, SPEC.seed, SPEC.n_gcs),
                base_run("luindex", "hw", SPEC.scale, SPEC.seed, SPEC.n_gcs),
                n_queries=300, warmup=30)
        assert comparison.stw["p99.9"] >= comparison.stw["p50"] > 0
        assert faulted.reports[(0, "shared")].summary is not None
        records = replay.records
        assert records and all(isinstance(r, QueryRecord) for r in records)
        assert [(r.index, r.intended_start, r.completion, r.near_gc)
                for r in records] == list(zip(
                    replay.index, replay.intended, replay.completion,
                    replay.near_gc))


class TestConservation:
    def test_conservation_across_policies(self):
        spec = FleetSpec(n_tenants=2, profiles_cycle=("luindex", "avrora"),
                         scale=0.008, seed=3, n_gcs=1, n_queries=400,
                         warmup=40, shed_backlog_intervals=2)
        fleet = simulate_fleet(spec)
        for report in fleet.reports.values():
            assert report.replay.conserved


class TestSharedServiceDraws:
    """A tenant's service times are drawn once per ``simulate_fleet``
    call and shared by every policy's replay."""

    def test_one_draw_per_arrival_across_policies(self, monkeypatch):
        counts = []

        def counting(n, *args):
            counts.append(n)
            return draw_service_times(n, *args)

        # Both the fleet's draw and a replay's own fallback draw count.
        monkeypatch.setattr(report, "draw_service_times", counting)
        monkeypatch.setattr(latency, "draw_service_times", counting)
        fleet = simulate_fleet(SPEC)
        assert len(fleet.policies) == 3
        assert len(counts) == SPEC.n_tenants
        assert sum(counts) == SPEC.n_queries  # not one per (policy, arrival)

    @pytest.mark.parametrize("case", ["clean", "shed", "crashed"])
    def test_shared_draws_replay_like_self_drawn(self, case):
        # Software-collector timelines: their longer pauses make the
        # backlog check shed at two intervals.
        interval, service = derive_schedule(SPEC)
        horizon = SPEC.n_queries * interval
        kwargs = {
            "clean": {},
            "shed": {"shed_backlog_cycles": 2 * interval},
            "crashed": {"offline_after_cycle": horizon // 2},
        }[case]
        slices = tenant_arrivals(
            spray(SPEC.n_queries, SPEC.n_tenants, SPEC.seed), interval,
            SPEC.n_tenants, SPEC.warmup)
        for tenant in SPEC.tenants():
            arrivals, n_warm = slices[tenant.index]
            sim = QueryReplay(
                tenant_timeline(base_run(tenant.benchmark, "sw",
                                         SPEC.scale, SPEC.seed,
                                         SPEC.n_gcs),
                                tenant.phase_frac),
                interval_cycles=interval, service_mean_cycles=service,
                seed=tenant.seed)
            services = draw_service_times(len(arrivals), service,
                                          SERVICE_SIGMA, tenant.seed)
            shared = sim.replay(arrivals, warmup=n_warm, horizon=horizon,
                                services=services, **kwargs)
            assert shared == sim.replay(arrivals, warmup=n_warm,
                                        horizon=horizon, **kwargs)
            if case != "clean":
                assert shared.shed > 0

    def test_service_count_must_match_arrivals(self):
        sim = QueryReplay(tenant_timeline(
            base_run("luindex", "hw", SPEC.scale, SPEC.seed, SPEC.n_gcs),
            0.0))
        with pytest.raises(ValueError, match="2 service times for 3"):
            sim.replay([0, 1, 2], services=[1000, 1000])
