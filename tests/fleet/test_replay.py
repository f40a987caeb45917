"""Fleet replay invariants that need the real simulation stack."""

import random

import pytest

from repro.fleet.balancer import spray, tenant_arrivals
from repro.fleet.faults import FleetFaultSpec
from repro.fleet.report import derive_schedule, simulate_fleet
from repro.fleet.spec import FleetSpec
from repro.fleet.timeline import base_run, tenant_timeline
from repro.workloads import latency
from repro.workloads.latency import (
    SERVICE_SIGMA,
    QueryRecord,
    QueryReplay,
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
    """The fleet path builds no object per query: a replay holds columns,
    and ``records`` materialises rows only when asked."""

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
        draws = 0
        lognormvariate = random.Random.lognormvariate

        def counting(self, mu, sigma):
            nonlocal draws
            draws += 1
            return lognormvariate(self, mu, sigma)

        monkeypatch.setattr(random.Random, "lognormvariate", counting)
        fleet = simulate_fleet(SPEC)
        assert len(fleet.policies) == 3
        assert draws == SPEC.n_queries  # not one per (policy, arrival)

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
