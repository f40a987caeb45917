"""Differential determinism: the fleet figures are byte-identical across
worker layouts and cache states, and pinned to absolute digests.

The pinned digests are the determinism contract for the small-scale
scenario; a change here means fleet behavior changed and must be
deliberate (update the constants in the same commit that explains why).
"""

import pytest

from repro.fleet.timeline import reset_base_cache
from repro.harness import heapcache
from repro.harness.figures import axis_values
from repro.harness.sharding import run_entry_sharded
from repro.harness.suite import run_entry

SLO_KWARGS = dict(scale=0.008, n_tenants=3, n_queries=600, warmup=60,
                  n_gcs=2)
SLO_DIGEST = "7e2c15c29cd6c2a86bfca3c687a3b2bb06455afab6be2fa439f6c2de648b8e4d"
LBO_KWARGS = dict(scale=0.008, n_gcs=2)
LBO_DIGEST = "0d294e883a9a8ce21282be06f7dd8da74fb57f2dd53f5abc4bdec20631975463"

#: Small-scale fault drills: a fault-free roster (must not disturb the
#: schedule), a unit crash that interrupts an in-flight grant (requests
#: land ~1.3-3.3M cycles at this scale), and a crashed tenant.
RES_KWARGS = dict(scale=0.008, n_tenants=3, n_queries=300, warmup=30,
                  n_gcs=2, n_units=2,
                  rosters=(("no faults", ""),
                           ("crash u1", "crash:u1@1400000"),
                           ("crashed tenant", "crash:t1@2000000")))
RES_DIGEST = "b772e96501fd2119ab72bc9a3691d9406fa0ba6f4a4e6b530ea6875af34dc65d"

class TestPinnedDigests:
    def test_fleet_slo_digest(self):
        heapcache.reset_cache()
        reset_base_cache()
        assert run_entry(0, "fleet_slo", SLO_KWARGS).digest == SLO_DIGEST

    def test_fleet_lbo_digest(self):
        assert run_entry(0, "fleet_lbo", LBO_KWARGS).digest == LBO_DIGEST

    def test_fleet_resilience_digest(self):
        heapcache.reset_cache()
        reset_base_cache()
        assert run_entry(0, "fleet_resilience",
                         RES_KWARGS).digest == RES_DIGEST


class TestShardedIdentity:
    def test_fleet_slo_sharded_matches_inline(self):
        inline = run_entry(0, "fleet_slo", SLO_KWARGS)
        heapcache.reset_cache()
        reset_base_cache()
        sharded = run_entry_sharded(0, "fleet_slo", SLO_KWARGS, jobs=2)
        assert sharded.rendered == inline.rendered
        assert sharded.digest == inline.digest == SLO_DIGEST
        assert len(sharded.shard_digests) == 3  # one per tenant cell

    @pytest.mark.slow
    def test_fleet_lbo_sharded_matches_inline(self):
        inline = run_entry(0, "fleet_lbo", LBO_KWARGS)
        heapcache.reset_cache()
        reset_base_cache()
        sharded = run_entry_sharded(0, "fleet_lbo", LBO_KWARGS, jobs=2)
        assert sharded.rendered == inline.rendered
        assert sharded.digest == inline.digest == LBO_DIGEST

    def test_fleet_resilience_sharded_matches_inline(self):
        inline = run_entry(0, "fleet_resilience", RES_KWARGS)
        heapcache.reset_cache()
        reset_base_cache()
        sharded = run_entry_sharded(0, "fleet_resilience", RES_KWARGS,
                                    jobs=2)
        assert sharded.rendered == inline.rendered
        assert sharded.digest == inline.digest == RES_DIGEST
        assert len(sharded.shard_digests) == 3  # one per roster cell

    def test_tenant_axis_tracks_n_tenants(self):
        assert axis_values("fleet_slo", SLO_KWARGS) == [0, 1, 2]
        assert axis_values("fleet_slo", {}) == [0, 1, 2, 3]
        assert axis_values("fleet_slo", {"tenants": (1,)}) == [1]
        assert axis_values("fleet_lbo", {}) == [2, 4]

    def test_roster_axis_defaults_to_the_figure_family(self):
        from repro.fleet.faults import DEFAULT_RESILIENCE_ROSTERS

        assert axis_values("fleet_resilience", {}) == \
            list(DEFAULT_RESILIENCE_ROSTERS)
        assert axis_values("fleet_resilience", RES_KWARGS) == \
            list(RES_KWARGS["rosters"])


class TestSimCacheIdentity:
    def test_cold_and_warm_render_identical_bytes(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path))
        cold = run_entry(0, "fleet_slo", SLO_KWARGS)
        assert cold.cache_misses == 3 and cold.cache_hits == 0
        heapcache.reset_cache()
        reset_base_cache()
        warm = run_entry(0, "fleet_slo", SLO_KWARGS)
        assert warm.cache_hits == 3 and warm.cache_misses == 0
        assert warm.rendered == cold.rendered
        assert warm.digest == cold.digest == SLO_DIGEST

    def test_fleet_resilience_cold_and_warm_identical(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path))
        cold = run_entry(0, "fleet_resilience", RES_KWARGS)
        assert cold.cache_misses == 3 and cold.cache_hits == 0
        heapcache.reset_cache()
        reset_base_cache()
        warm = run_entry(0, "fleet_resilience", RES_KWARGS)
        assert warm.cache_hits == 3 and warm.cache_misses == 0
        assert warm.rendered == cold.rendered
        assert warm.digest == cold.digest == RES_DIGEST


class TestHeapConvergence:
    """Crashed-unit runs converge to the fault-free per-tenant heap state.

    Heap evolution depends only on which collections ran, in order —
    never on when admission scheduled them or whether hardware or the
    software fallback served them. So the oracle is
    ``tenant_heap_digest(..., n_gcs=<collections actually served>)``:
    a scheduler that dropped or duplicated a collection under faults
    shifts the served count and diverges from the fault-free digest.
    """

    def _scheduled(self, faults_spec):
        from repro.fleet import FleetFaultSpec, FleetSpec, schedule_fleet
        from repro.fleet.timeline import base_run, tenant_timeline

        spec = FleetSpec(n_tenants=3, scale=0.008, n_queries=300,
                         warmup=30, n_gcs=2, n_units=2)
        roster = spec.tenants()
        tls = [tenant_timeline(
            base_run(t.benchmark, "hw", spec.scale, spec.seed, spec.n_gcs),
            t.phase_frac) for t in roster]
        sched = schedule_fleet(
            "shared", tls, n_units=spec.n_units, dram_tax=spec.dram_tax,
            faults=FleetFaultSpec.parse(faults_spec))
        return spec, roster, tls, sched

    def test_the_digest_oracle_discriminates(self):
        # Sanity for everything below: one collection more or fewer
        # leaves a *different* heap digest, so "faulted digest equals
        # fault-free digest" can actually fail when a collection is
        # lost or duplicated.
        from repro.fleet.timeline import tenant_heap_digest

        assert tenant_heap_digest("lusearch", "hw", 0.008, 1, 1) != \
            tenant_heap_digest("lusearch", "hw", 0.008, 1, 2)

    def test_unit_crash_serves_every_collection(self):
        from repro.fleet.timeline import tenant_heap_digest

        spec, roster, tls, sched = self._scheduled("crash:u1@1400000")
        assert sum(sched.failovers) > 0  # the crash interrupted someone
        for t, tenant in enumerate(roster):
            served = sum(1 for g in sched.grants if g.tenant == t)
            assert served == len(tls[t].pauses)
            assert tenant_heap_digest(
                tenant.benchmark, "hw", spec.scale, spec.seed,
                served) == tenant_heap_digest(
                tenant.benchmark, "hw", spec.scale, spec.seed, spec.n_gcs)

    def test_tenant_crash_converges_to_the_truncated_oracle(self):
        from repro.fleet.timeline import tenant_heap_digest

        spec, roster, tls, sched = self._scheduled("crash:t1@2000000")
        assert sched.cancelled[1] > 0
        for t, tenant in enumerate(roster):
            served = sum(1 for g in sched.grants if g.tenant == t)
            assert served == len(tls[t].pauses) - sched.cancelled[t]
            faulted = tenant_heap_digest(
                tenant.benchmark, "hw", spec.scale, spec.seed, served)
            oracle = tenant_heap_digest(
                tenant.benchmark, "hw", spec.scale, spec.seed, spec.n_gcs)
            if t == 1:
                # The crashed tenant went dark mid-run: its heap is the
                # truncated oracle's, *not* the fault-free one.
                assert served < spec.n_gcs and faulted != oracle
            else:
                assert served == spec.n_gcs and faulted == oracle


@pytest.mark.slow
class TestFullScale:
    """The suite-scale entries themselves (the figures CI regenerates)."""

    def test_suite_entry_sharded_identity(self):
        from repro.harness.suite import SUITE

        kwargs = dict(SUITE)["fleet_slo"]
        inline = run_entry(0, "fleet_slo", kwargs)
        heapcache.reset_cache()
        reset_base_cache()
        sharded = run_entry_sharded(0, "fleet_slo", kwargs, jobs=2)
        assert sharded.rendered == inline.rendered
