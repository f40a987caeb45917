"""Fleet SLO report: summary refolds, degenerate tenants, the SLO claim."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.report import SLO_HEADERS, fleet_summary_rows
from repro.fleet.spec import FleetSpec
from repro.harness.experiments import fleet_slo

POS = st.floats(min_value=1e-3, max_value=1e3,
                allow_nan=False, allow_infinity=False)

#: The pinned small-scale scenario the acceptance criteria reference.
SCENARIO = dict(scale=0.008, n_tenants=3, n_queries=600, warmup=60, n_gcs=2)


def tenant_row(tenant, policy, values, blank=False):
    arrived, done, shed, goodput, p50, p99, p999, mx, wait, tax = values
    if blank:
        p50 = p99 = p999 = mx = ""
    return [tenant, f"bench{tenant}", policy, arrived, done, shed,
            goodput, p50, p99, p999, mx, wait, tax]


class TestSummaryRefold:
    @settings(deadline=None, max_examples=50)
    @given(data=st.data())
    def test_per_tenant_refold_matches_direct(self, data):
        """The fleet_slo_merge path: summaries recomputed from the
        tenant rows of per-tenant cells, concatenated in axis order,
        equal the direct ones."""
        n_tenants = data.draw(st.integers(1, 6))
        policies = data.draw(st.permutations(
            ["dedicated", "shared", "software"]))
        rows = []
        for tenant in range(n_tenants):
            blank = data.draw(st.booleans())
            for policy in policies:
                values = data.draw(st.tuples(
                    st.integers(0, 500), st.integers(0, 500),
                    st.integers(0, 50), POS, POS, POS, POS, POS, POS, POS))
                rows.append(tenant_row(tenant, policy, list(values),
                                       blank=blank))
        from repro.harness.experiments import ExperimentResult
        from repro.harness.sharding import fleet_slo_merge

        def result_for(tenant_rows):
            # Every fleet_slo run appends its own policy summaries.
            return ExperimentResult(
                exp_id="fleet_slo", title="t", paper_claim="p",
                headers=list(SLO_HEADERS),
                rows=tenant_rows + fleet_summary_rows(tenant_rows))

        cells = [result_for([r for r in rows if r[0] == tenant])
                 for tenant in range(n_tenants)]
        assert fleet_slo_merge(cells).rows == result_for(rows).rows

    def test_all_blank_latency_stays_blank(self):
        rows = [tenant_row(0, "dedicated",
                           [10, 10, 0, 5.0, 0, 0, 0, 0, 0.0, 2.0],
                           blank=True)]
        summary = fleet_summary_rows(rows)[0]
        assert summary[7:11] == ["", "", "", ""]
        assert summary[3:6] == [10, 10, 0]

    def test_policies_keep_first_seen_order(self):
        rows = [tenant_row(0, "shared", [1, 1, 0, 1.0] + [1.0] * 6),
                tenant_row(0, "dedicated", [1, 1, 0, 1.0] + [1.0] * 6)]
        assert [row[2] for row in fleet_summary_rows(rows)] == \
            ["shared", "dedicated"]


class TestFleetSLO:
    """Real-simulation claims on the pinned small-scale scenario."""

    @pytest.fixture(scope="class")
    def result(self):
        return fleet_slo(**SCENARIO)

    def test_schema(self, result):
        assert list(result.headers) == list(SLO_HEADERS)
        n_policies = 3
        assert len(result.rows) == \
            SCENARIO["n_tenants"] * n_policies + n_policies

    def test_shared_strictly_worse_p999_at_equal_goodput(self, result):
        """The acceptance criterion: contention costs tail, not goodput."""
        summaries = {row[2]: row for row in result.rows
                     if row[0] == "fleet"}
        dedicated, shared = summaries["dedicated"], summaries["shared"]
        assert shared[6] == dedicated[6]          # goodput q/s
        assert shared[4] == dedicated[4]          # completed
        assert shared[9] > dedicated[9]           # p99.9 strictly worse
        assert shared[12] > dedicated[12]         # and a higher GC tax

    def test_every_arrival_accounted(self, result):
        tenant_rows = [row for row in result.rows if row[0] != "fleet"]
        by_policy = {}
        for row in tenant_rows:
            by_policy.setdefault(row[2], []).append(row)
        for rows in by_policy.values():
            assert sum(row[3] for row in rows) == SCENARIO["n_queries"]

    def test_degenerate_warmup_renders_blank_not_nan(self):
        # Warm-up swallows every query: counters still add up, latency
        # cells are blank, and the render carries no NaN anywhere.
        result = fleet_slo(scale=0.008, n_tenants=2, n_queries=40,
                           warmup=40, n_gcs=1, policies=("dedicated",))
        tenant_rows = [row for row in result.rows if row[0] != "fleet"]
        assert tenant_rows
        for row in tenant_rows:
            assert row[7:11] == ["", "", "", ""]
        import re

        assert not re.search(r"\bnan\b", result.render().lower())


class TestSpecEconomy:
    def test_schedule_derivation_ignores_tenant_subset(self):
        """interval/service derive from the full roster — the anchor of
        per-tenant cell independence."""
        from repro.fleet.report import derive_schedule

        spec = FleetSpec(**{k: v for k, v in SCENARIO.items()
                            if k != "n_tenants"},
                         n_tenants=SCENARIO["n_tenants"])
        assert derive_schedule(spec) == derive_schedule(spec)
