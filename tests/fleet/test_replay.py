"""Fleet replay invariants that need the real simulation stack."""

import random

import pytest

from repro.fleet.balancer import spray, tenant_arrivals
from repro.fleet.report import derive_schedule, simulate_fleet
from repro.fleet.spec import FleetSpec
from repro.fleet.timeline import base_run, tenant_timeline
from repro.workloads.latency import (
    SERVICE_SIGMA,
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
        per_tenant = [tenant_arrivals(a, 1000, t, 100) for t in range(3)]
        assert sum(len(arr) for arr, _w in per_tenant) == 500
        assert sum(w for _arr, w in per_tenant) == 100
        # Arrival cycles are the global slots, strictly increasing.
        for arrivals, _w in per_tenant:
            assert arrivals == sorted(set(arrivals))

    def test_unpicked_tenant_gets_empty_slice(self):
        arrivals, warm = tenant_arrivals([0, 0, 0], 1000, tenant=2, warmup=2)
        assert (arrivals, warm) == ([], 0)


class TestDedicatedIdentity:
    def test_dedicated_equals_single_tenant_replay(self):
        """Under ``dedicated`` a tenant's latency must be exactly what a
        standalone QueryReplay of its own timeline and arrival slice
        yields — other tenants must have zero effect on it."""
        fleet = simulate_fleet(SPEC, policies=("dedicated",))
        assignments = spray(SPEC.n_queries, SPEC.n_tenants, SPEC.seed)
        for tenant in SPEC.tenants():
            run = tenant_timeline(
                base_run(tenant.benchmark, "hw", SPEC.scale, SPEC.seed,
                         SPEC.n_gcs),
                tenant.phase_frac)
            arrivals, n_warm = tenant_arrivals(
                assignments, fleet.interval_cycles, tenant.index,
                SPEC.warmup)
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
        assignments = spray(SPEC.n_queries, SPEC.n_tenants, SPEC.seed)
        for tenant in SPEC.tenants():
            arrivals, n_warm = tenant_arrivals(assignments, interval,
                                               tenant.index, SPEC.warmup)
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
