"""Multi-tenant fleet simulation: N modeled app instances under one SLO.

The paper motivates the GC unit with datacenter economics — GC burns a
double-digit share of fleet CPU cycles and wrecks tail latency (§I/§II).
This package scales the single-process query replay of
:mod:`repro.workloads.latency` to a modeled *fleet*: a roster of tenants
running mixed DaCapo profiles (:mod:`repro.fleet.spec`), per-tenant GC
pause timelines phase-shifted from shared base runs
(:mod:`repro.fleet.timeline`), a FIFO admission queue arbitrating
one-or-more accelerator units with shared-DRAM contention modeled as a
service-rate tax (:mod:`repro.fleet.admission`), a seeded open-loop load
balancer (:mod:`repro.fleet.balancer`), and an SLO report plus a
Cai-et-al-style lower-bound-overhead estimate
(:mod:`repro.fleet.report`, :mod:`repro.fleet.lbo`).

Everything is deterministic: the whole fleet derives from the
:class:`~repro.fleet.spec.FleetSpec` seed, so the ``fleet_slo`` /
``fleet_lbo`` figures shard per-tenant / per-fleet-size through
:mod:`repro.harness.sharding` and cache through
:mod:`repro.harness.simcache` with byte-identical digests.
"""

from repro.fleet.admission import (
    POLICIES,
    FailoverConfig,
    FailoverEvent,
    ScheduleResult,
    ServiceGrant,
    resolve_policy,
    schedule_fleet,
)
from repro.fleet.balancer import spray, tenant_arrivals
from repro.fleet.faults import (
    DEFAULT_RESILIENCE_ROSTERS,
    FleetFault,
    FleetFaultSpec,
    FleetFaultSpecError,
)
from repro.fleet.lbo import fleet_lbo_rows
from repro.fleet.report import (
    ConservationError,
    FleetResult,
    TenantReport,
    fleet_resilience_row,
    fleet_summary_rows,
    simulate_fleet,
)
from repro.fleet.spec import FleetSpec, TenantSpec
from repro.fleet.timeline import (
    base_run,
    reset_base_cache,
    tenant_heap_digest,
    tenant_timeline,
)

__all__ = [
    "DEFAULT_RESILIENCE_ROSTERS",
    "POLICIES",
    "ConservationError",
    "FailoverConfig",
    "FailoverEvent",
    "FleetFault",
    "FleetFaultSpec",
    "FleetFaultSpecError",
    "FleetResult",
    "FleetSpec",
    "ScheduleResult",
    "ServiceGrant",
    "TenantReport",
    "TenantSpec",
    "base_run",
    "fleet_lbo_rows",
    "fleet_resilience_row",
    "fleet_summary_rows",
    "resolve_policy",
    "reset_base_cache",
    "schedule_fleet",
    "simulate_fleet",
    "spray",
    "tenant_arrivals",
    "tenant_heap_digest",
    "tenant_timeline",
]
