"""Fleet simulation driver and the SLO report it aggregates.

:func:`simulate_fleet` is the one entry point: derive the roster and the
query schedule from the :class:`~repro.fleet.spec.FleetSpec`, arbitrate
collections under each policy, replay each tenant's arrival slice against
its adjusted pause timeline, and emit per-tenant
:class:`TenantReport` rows plus per-policy fleet summary rows.

Cell-independence contract (sharding/simcache): the *whole* fleet
schedule — base runs, phase offsets, admission arbitration, the
balancer's assignment — is recomputed deterministically from the spec in
every cell, and only the requested tenants are then replayed. A tenant's
row therefore never depends on which other tenants share its worker
process, which is what makes per-tenant cells merge byte-identically.

:func:`fleet_summary_rows` refolds the fleet rows into per-policy
summaries *from the row values themselves*, in row order; the unsharded
figure and the shard merge both call it, so summary floats fold in the
identical left-to-right order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fleet.admission import (
    POLICIES,
    FailoverConfig,
    schedule_fleet,
)
from repro.fleet.faults import FleetFaultSpec
from repro.fleet.spec import FleetSpec, TenantSpec
from repro.fleet.balancer import spray, tenant_arrivals
from repro.fleet.timeline import BaseRunReader, base_run, tenant_timeline
from repro.workloads.latency import (
    SERVICE_SIGMA,
    QueryReplay,
    ReplayResult,
    draw_service_times,
    percentile_summary,
)

#: Column schema of the fleet SLO table. ``fleet_summary_rows`` and the
#: ``fleet_slo`` shard merge both index into it, so it lives here, once.
SLO_HEADERS: Tuple[str, ...] = (
    "tenant", "benchmark", "policy", "arrived", "done", "shed",
    "goodput q/s", "p50 ms", "p99 ms", "p99.9 ms", "max ms",
    "wait ms", "GC tax %",
)

#: Marker in the ``tenant`` column distinguishing per-policy summary rows
#: from per-tenant rows (the merge drops and refolds the former).
SUMMARY_MARKER = "fleet"

#: Column schema of the ``fleet_resilience`` table — one fleet-level row
#: per fault roster. Deliberately *not* part of :data:`SLO_HEADERS`: the
#: fleet_slo digest is pinned, so degraded-mode accounting lives in its
#: own figure rather than widening the frozen SLO schema.
RESILIENCE_HEADERS: Tuple[str, ...] = (
    "fault roster", "arrived", "done", "shed", "goodput q/s",
    "p99 ms", "p99.9 ms", "avail %", "failovers", "retry wait ms",
    "fallback tax ms", "cancelled",
)


class ConservationError(AssertionError):
    """A replay broke ``arrived == completed + in_flight + shed``."""


@dataclass
class TenantReport:
    """One tenant's replay outcome under one policy."""

    tenant: TenantSpec
    policy: str
    replay: ReplayResult
    #: ``percentile_summary`` of the serviced post-warm-up records, or
    #: ``None`` when the warm-up discarded everything (documented
    #: degenerate case: latency cells render blank, counters still hold).
    summary: Optional[Dict[str, float]]
    goodput_qps: float
    wait_ms: float
    gc_tax_pct: float
    #: Degraded-mode accounting (defaults are the fault-free identities;
    #: they stay out of :meth:`row` so the pinned SLO schema is frozen).
    availability: float = 1.0
    failovers: int = 0
    retry_wait_ms: float = 0.0
    fallback_tax_ms: float = 0.0
    cancelled: int = 0

    def row(self) -> List[Any]:
        lat = (lambda key: self.summary[key]) if self.summary else \
            (lambda key: "")
        return [
            self.tenant.index, self.tenant.benchmark, self.policy,
            self.replay.arrived, self.replay.completed, self.replay.shed,
            self.goodput_qps,
            lat("p50"), lat("p99"), lat("p99.9"), lat("max"),
            self.wait_ms, self.gc_tax_pct,
        ]


@dataclass
class FleetResult:
    """All tenant reports of one simulated fleet."""

    spec: FleetSpec
    policies: Tuple[str, ...]
    tenant_indices: Tuple[int, ...]
    interval_cycles: int
    service_mean_cycles: int
    #: keyed ``(tenant index, policy)``.
    reports: Dict[Tuple[int, str], TenantReport]

    def rows(self) -> List[List[Any]]:
        """Tenant-outer, policy-inner — the shard axis is the tenant."""
        return [self.reports[(t, policy)].row()
                for t in self.tenant_indices for policy in self.policies]

    def summary_rows(self) -> List[List[Any]]:
        return fleet_summary_rows(self.rows())


def fleet_summary_rows(rows: Sequence[Sequence[Any]]) -> List[List[Any]]:
    """Per-policy fleet aggregates, refolded from tenant row values.

    Counts, goodput and queue wait sum across tenants; latency columns
    take the *worst tenant* (the fleet meets an SLO only if every tenant
    does); the GC tax averages. Blank cells (degenerate tenants) are
    skipped. Policies appear in first-seen row order.
    """
    policies: List[str] = []
    for row in rows:
        if row[2] not in policies:
            policies.append(row[2])
    out: List[List[Any]] = []
    for policy in policies:
        group = [row for row in rows if row[2] == policy]

        def col(i: int) -> List[Any]:
            return [row[i] for row in group if row[i] != ""]

        def worst(i: int) -> Any:
            values = col(i)
            return max(values) if values else ""

        taxes = col(12)
        out.append([
            SUMMARY_MARKER, "all", policy,
            sum(col(3)), sum(col(4)), sum(col(5)), sum(col(6)),
            worst(7), worst(8), worst(9), worst(10),
            sum(col(11)),
            sum(taxes) / len(taxes) if taxes else "",
        ])
    return out


def derive_schedule(spec: FleetSpec,
                    base_runs: BaseRunReader = base_run) -> Tuple[int, int]:
    """(interval, mean service) cycles for the fleet's query stream.

    Derived from the roster's *hardware* base runs — never from the
    policy under test — so every policy replays the identical schedule
    and the percentile gaps are policy-attributed by construction.
    """
    if spec.interval_cycles and spec.service_mean_cycles:
        return spec.interval_cycles, spec.service_mean_cycles
    total_gc = total_pauses = 0
    for tenant in spec.tenants():
        run = base_runs(tenant.benchmark, "hw", spec.scale, spec.seed,
                        spec.n_gcs)
        total_gc += run.gc_cycles
        total_pauses += len(run.pauses)
    mean_pause = total_gc // max(1, total_pauses)
    interval = spec.interval_cycles or max(50_000, mean_pause // 4)
    service = spec.service_mean_cycles or max(4_000, mean_pause // 50)
    return interval, service


def simulate_fleet(
    spec: FleetSpec,
    policies: Sequence[str] = POLICIES,
    tenant_indices: Optional[Sequence[int]] = None,
    faults: Optional[FleetFaultSpec] = None,
    base_runs: BaseRunReader = base_run,
) -> FleetResult:
    """Simulate the fleet; replay only ``tenant_indices`` (default: all).

    ``faults`` arms the fleet fault plane (shared policy only; the
    dedicated/software baselines have no shared pool to fail). With it
    unset every code path is byte-identical to the fault-free driver —
    the pinned ``fleet_slo`` digest contract. Every base run is read
    through ``base_runs``.
    """
    roster = spec.tenants()
    if tenant_indices is None:
        tenant_indices = tuple(t.index for t in roster)
    for t in tenant_indices:
        if not 0 <= t < spec.n_tenants:
            raise ValueError(f"tenant index {t} outside the "
                             f"{spec.n_tenants}-tenant roster")
    if faults is not None and not faults:
        faults = None  # an empty spec is the fault-free run, exactly
    if faults is not None:
        faults.validate(spec.n_units, spec.n_tenants)
    interval, service = derive_schedule(spec, base_runs)
    assignments = spray(spec.n_queries, spec.n_tenants, spec.seed)
    horizon = spec.n_queries * interval
    shed_cycles = (spec.shed_backlog_intervals * interval
                   if spec.shed_backlog_intervals > 0 else None)
    # A tenant's arrivals and service draws depend on neither the policy
    # nor its timeline (shed queries draw too), so every policy replays
    # the same lists: one slice and one draw per tenant per call.
    streams: Dict[int, Tuple[List[int], int, List[int]]] = {}
    for index in tenant_indices:
        arrivals, n_warmup = tenant_arrivals(assignments, interval, index,
                                             spec.warmup)
        streams[index] = (arrivals, n_warmup, draw_service_times(
            len(arrivals), service, SERVICE_SIGMA, roster[index].seed))
    reports: Dict[Tuple[int, str], TenantReport] = {}
    for policy in policies:
        collector = "sw" if policy == "software" else "hw"
        requested = [
            tenant_timeline(
                base_runs(t.benchmark, collector, spec.scale, spec.seed,
                          spec.n_gcs),
                t.phase_frac)
            for t in roster
        ]
        armed = faults is not None and policy == "shared"
        software = [
            tenant_timeline(
                base_runs(t.benchmark, "sw", spec.scale, spec.seed,
                          spec.n_gcs),
                t.phase_frac)
            for t in roster
        ] if armed else None
        sched = schedule_fleet(
            policy, requested, n_units=spec.n_units,
            dram_tax=spec.dram_tax, faults=faults,
            failover=FailoverConfig(
                backoff_cycles=spec.failover_backoff_cycles,
                max_retries=spec.failover_retries,
                timeout_cycles=spec.failover_timeout_cycles),
            software_timelines=software)
        for index in tenant_indices:
            tenant = roster[index]
            timeline = sched.timelines[index]
            arrivals, n_warmup, services = streams[index]
            offline = faults.tenant_crash_cycle(index) if armed else None
            replay = QueryReplay(
                timeline, interval_cycles=interval,
                service_mean_cycles=service, seed=tenant.seed,
            ).replay(arrivals, warmup=n_warmup, horizon=horizon,
                     shed_backlog_cycles=shed_cycles,
                     offline_after_cycle=offline, services=services)
            if not replay.conserved:
                raise ConservationError(
                    f"tenant {index} under {policy}: arrived "
                    f"{replay.arrived} != completed {replay.completed} + "
                    f"in_flight {replay.in_flight} + shed {replay.shed}")
            summary = (percentile_summary(replay.records,
                                          percentiles=(50.0, 99.0, 99.9))
                       if replay.records else None)
            reports[(index, policy)] = TenantReport(
                tenant=tenant,
                policy=policy,
                replay=replay,
                summary=summary,
                goodput_qps=replay.completed / (horizon / 1e9),
                wait_ms=sched.queue_wait_cycles[index] / 1e6,
                gc_tax_pct=100.0 * timeline.gc_time_fraction,
                availability=sched.availability(index),
                failovers=sched.failovers[index],
                retry_wait_ms=sched.retry_wait_cycles[index] / 1e6,
                fallback_tax_ms=sched.fallback_tax_cycles[index] / 1e6,
                cancelled=sched.cancelled[index],
            )
    return FleetResult(
        spec=spec,
        policies=tuple(policies),
        tenant_indices=tuple(tenant_indices),
        interval_cycles=interval,
        service_mean_cycles=service,
        reports=reports,
    )


def fleet_resilience_row(label: str, spec: FleetSpec, faults_spec: str,
                         base_runs: BaseRunReader = base_run) -> List[Any]:
    """One fleet-level row of the ``fleet_resilience`` table.

    Simulates the shared policy under one fault roster and folds the
    tenants: counts, goodput, failovers, retry wait, fallback tax and
    cancellations sum; latency and availability take the *worst* tenant
    (the fleet meets an SLO only if every tenant does). Conservation is
    asserted per tenant inside :func:`simulate_fleet` — a violation
    raises :class:`ConservationError` rather than rendering a wrong row.
    """
    faults = FleetFaultSpec.parse(faults_spec)
    result = simulate_fleet(spec, policies=("shared",), faults=faults,
                            base_runs=base_runs)
    reports = [result.reports[(t, "shared")]
               for t in result.tenant_indices]
    horizon = spec.n_queries * result.interval_cycles

    def worst(key: str) -> Any:
        values = [r.summary[key] for r in reports if r.summary]
        return max(values) if values else ""

    return [
        label,
        sum(r.replay.arrived for r in reports),
        sum(r.replay.completed for r in reports),
        sum(r.replay.shed for r in reports),
        sum(r.replay.completed for r in reports) / (horizon / 1e9),
        worst("p99"), worst("p99.9"),
        100.0 * min(r.availability for r in reports),
        sum(r.failovers for r in reports),
        sum(r.retry_wait_ms for r in reports),
        sum(r.fallback_tax_ms for r in reports),
        sum(r.cancelled for r in reports),
    ]
