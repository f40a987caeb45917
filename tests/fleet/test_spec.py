"""FleetSpec: the roster is deterministic, validated, and well-mixed."""

import pytest

from repro.fleet.spec import DEFAULT_PROFILES_CYCLE, FleetSpec
from repro.fleet.timeline import base_run, tenant_timeline
from repro.workloads.mutator import GCPauseRecord, MutatorRunResult


class TestRoster:
    def test_deterministic(self):
        assert FleetSpec(seed=7).tenants() == FleetSpec(seed=7).tenants()

    def test_seed_changes_roster_phases(self):
        a = FleetSpec(seed=1).tenants()
        b = FleetSpec(seed=2).tenants()
        assert [t.phase_frac for t in a] != [t.phase_frac for t in b]

    def test_profiles_cycle(self):
        roster = FleetSpec(n_tenants=5).tenants()
        cycle = DEFAULT_PROFILES_CYCLE
        assert [t.benchmark for t in roster] == [
            cycle[i % len(cycle)] for i in range(5)]

    def test_tenants_get_distinct_seeds_and_phases(self):
        roster = FleetSpec(n_tenants=6).tenants()
        assert len({t.seed for t in roster}) == 6
        assert len({t.phase_frac for t in roster}) == 6
        assert all(0.0 <= t.phase_frac < 1.0 for t in roster)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            FleetSpec(n_tenants=0)
        with pytest.raises(ValueError, match="at least one GC unit"):
            FleetSpec(n_units=0)
        with pytest.raises(ValueError, match="unknown profiles"):
            FleetSpec(profiles_cycle=("lusearch", "nope"))
        with pytest.raises(ValueError, match="at least one profile"):
            FleetSpec(profiles_cycle=())

    @pytest.mark.parametrize("field,bad,message", [
        ("scale", 0.0, "heap scale must be positive"),
        ("scale", -1.0, "heap scale must be positive"),
        ("scale", float("nan"), "heap scale must be positive"),
        ("dram_tax", -3.0, "DRAM tax cannot be negative"),
        ("shed_backlog_intervals", -1, "shed backlog cannot be negative"),
        ("n_queries", 0, "n_queries must be at least 1"),
        ("n_queries", -1, "n_queries must be at least 1"),
        ("warmup", -4, "warmup must be at least 0"),
        ("n_gcs", 0, "n_gcs must be at least 1"),
        ("interval_cycles", -5, "interval_cycles must be at least 0"),
        ("service_mean_cycles", -3,
         "service_mean_cycles must be at least 0"),
    ])
    def test_rejects_out_of_range_parameters(self, field, bad, message):
        with pytest.raises(ValueError, match=message):
            FleetSpec(**{field: bad})

    def test_zero_schedule_still_means_derive(self):
        spec = FleetSpec(interval_cycles=0, service_mean_cycles=0, warmup=0,
                         n_queries=1, n_gcs=1)
        assert (spec.interval_cycles, spec.service_mean_cycles) == (0, 0)


def synthetic_base(starts_and_durations, mutator=5_000_000):
    run = MutatorRunResult(collector="hw", mutator_cycles=mutator)
    for i, (start, duration) in enumerate(starts_and_durations):
        run.pauses.append(GCPauseRecord(
            index=i, start_cycle=start, mark_cycles=duration,
            sweep_cycles=0, objects_marked=0, cells_freed=0))
    return run


class TestTenantTimeline:
    def test_phase_zero_is_the_base_run(self):
        base = synthetic_base([(1_000_000, 200_000), (3_000_000, 250_000)])
        shifted = tenant_timeline(base, 0.0)
        assert shifted.pauses == base.pauses
        assert shifted.mutator_cycles == base.mutator_cycles

    def test_offset_shifts_pauses_and_mutator_together(self):
        base = synthetic_base([(1_000_000, 200_000), (3_000_000, 250_000)])
        shifted = tenant_timeline(base, 0.5)
        offset = shifted.pauses[0].start_cycle - base.pauses[0].start_cycle
        assert offset > 0
        assert shifted.mutator_cycles == base.mutator_cycles + offset
        assert [p.start_cycle - offset for p in shifted.pauses] == \
            [p.start_cycle for p in base.pauses]
        # Well-formed: monotone, non-overlapping, inside the window.
        cursor = 0
        for pause in shifted.pauses:
            assert pause.start_cycle >= cursor
            cursor = pause.start_cycle + pause.pause_cycles
        assert cursor <= shifted.total_cycles

    def test_base_run_never_mutated(self):
        base = synthetic_base([(1_000_000, 200_000)])
        before = [p.start_cycle for p in base.pauses]
        tenant_timeline(base, 0.9)
        assert [p.start_cycle for p in base.pauses] == before

    def test_phase_frac_validated(self):
        base = synthetic_base([(1_000_000, 200_000)])
        with pytest.raises(ValueError, match="phase_frac"):
            tenant_timeline(base, 1.0)

    @pytest.mark.slow
    def test_base_run_memoized(self):
        a = base_run("luindex", "hw", 0.008, 1, 1)
        b = base_run("luindex", "hw", 0.008, 1, 1)
        assert a is b
