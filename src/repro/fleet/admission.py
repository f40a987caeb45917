"""GC scheduling policies and the shared-unit admission queue.

Three policies arbitrate who collects on what:

* ``dedicated`` — one accelerator unit (and DRAM channel) per tenant;
  pause timelines pass through untouched. The upper bound: zero queueing,
  zero contention, maximum silicon.
* ``shared`` — the fleet shares ``n_units`` accelerator units behind a
  FIFO admission queue. A tenant wanting to collect *stops its mutator at
  the request cycle* (stop-the-world) and resumes when a unit finishes
  its collection, so queue wait widens the pause; every admitted
  collection is additionally stretched by the shared-DRAM-channel
  service-rate tax ``1 + dram_tax * (n_tenants - 1) / n_units``.
* ``software`` — no accelerator at all: every tenant falls back to the
  software collector on its own CPU (the under-contention fallback).

The ``shared`` event loop is an earliest-request-first heap. FIFO is
well-defined because each tenant's requests are pushed in order and a
tenant's next request time never precedes its previous grant's end (the
mutator was stopped), so the heap never reorders an earlier request
behind a later one.

One loop serves every ``shared`` call. Without a fault plane it runs
against an empty :class:`~repro.fleet.faults.FleetFaultSpec` — no unit
dies, every rate factor is 1.0 — so it is the fault-free schedule. With
a plane armed it fails over: a grant in flight when its unit crashes is
re-queued earliest-request-first onto the surviving units with
deterministic exponential backoff; a request that exhausts its retry
budget, or whose wait would exceed the per-request timeout, is served by
the tenant's own *software* collector instead (the fleet-scale analogue
of ``run_gc_safe``'s graceful degradation — the collection still
happens, the tenant just pays the software-duration fallback tax). The
timeout is armed only when a plane is passed. Collections are never
shed: a skipped GC would be heap-semantically wrong. Load shedding stays
where it is honest, at the query-replay tier, where shed arrivals are
counted by the conservation law.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.fleet.faults import FleetFaultSpec
from repro.workloads.mutator import MutatorRunResult

POLICIES: Tuple[str, ...] = ("dedicated", "shared", "software")


def resolve_policy(name: str) -> str:
    """Validate a policy name, raising with the valid list (CLI UX)."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; "
                         f"valid policies: {', '.join(POLICIES)}")
    return name


@dataclass(frozen=True)
class FailoverConfig:
    """Retry discipline of the shared policy under an armed fault plane.

    ``backoff_cycles`` seeds the deterministic exponential backoff: the
    k-th retry of a request re-enters the queue ``backoff_cycles *
    2**(k-1)`` cycles after the crash was detected. ``max_retries``
    bounds hardware attempts per request (beyond it: software fallback).
    ``timeout_cycles`` is the per-request patience budget measured from
    the *original* request; a request that cannot start hardware service
    inside it falls back to software at the deadline (0 disables; the
    deadline is armed only when a fault plane is passed).
    """

    backoff_cycles: int = 50_000
    max_retries: int = 3
    timeout_cycles: int = 1_000_000


@dataclass(frozen=True)
class ServiceGrant:
    """One admitted collection on one unit (or its software fallback)."""

    tenant: int
    pause_index: int
    unit: int     # -1 when served by the tenant's software fallback
    request: int  # cycle of this (possibly re-queued) service attempt
    grant: int    # cycle service started (>= request)
    end: int      # grant + stretched duration
    #: The original request cycle (== ``request`` unless re-queued).
    first_request: int = -1
    #: Hardware service attempts consumed, interrupted ones included.
    attempts: int = 1
    #: ``"unit"`` or ``"fallback"``.
    via: str = "unit"

    def __post_init__(self) -> None:
        if self.first_request < 0:
            object.__setattr__(self, "first_request", self.request)

    @property
    def wait_cycles(self) -> int:
        return self.grant - self.request


@dataclass(frozen=True)
class FailoverEvent:
    """One interrupted service attempt: the unit died mid-collection."""

    tenant: int
    pause_index: int
    unit: int
    grant: int        # cycle the doomed attempt started
    crash_cycle: int  # cycle the unit died (service discarded here)
    attempt: int      # 1-based attempt number that was interrupted


@dataclass
class ScheduleResult:
    """The fleet schedule under one policy."""

    policy: str
    #: Per-tenant adjusted timelines — what each tenant's queries see.
    timelines: List[MutatorRunResult]
    #: Admission log (empty for ``dedicated``/``software``).
    grants: List[ServiceGrant]
    #: Per-tenant total cycles spent stopped waiting for a unit.
    queue_wait_cycles: List[int]
    #: Per-tenant interrupted-attempt counts (unit died mid-service).
    failovers: List[int] = field(default_factory=list)
    #: Per-tenant cycles burned on doomed attempts and backoff waits.
    retry_wait_cycles: List[int] = field(default_factory=list)
    #: Per-tenant collections served by the software fallback.
    fallbacks: List[int] = field(default_factory=list)
    #: Per-tenant extra stall cycles the fallback cost over the taxed
    #: hardware duration the request originally asked for.
    fallback_tax_cycles: List[int] = field(default_factory=list)
    #: Per-tenant collections cancelled because the tenant crashed.
    cancelled: List[int] = field(default_factory=list)
    #: The failover log (empty without an armed fault plane).
    failover_events: List[FailoverEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.timelines)
        for name in ("failovers", "retry_wait_cycles", "fallbacks",
                     "fallback_tax_cycles", "cancelled"):
            if not getattr(self, name):
                setattr(self, name, [0] * n)

    def availability(self, tenant: int) -> float:
        """Fraction of the tenant's served collections that hardware
        served (1.0 for the fault-free policies and for a tenant with no
        collections at all)."""
        hw = sum(1 for g in self.grants
                 if g.tenant == tenant and g.via == "unit")
        total = hw + self.fallbacks[tenant]
        return hw / total if total else 1.0


def _dedicated(timelines: Sequence[MutatorRunResult]) -> ScheduleResult:
    return ScheduleResult(
        policy="dedicated",
        timelines=[replace(tl) for tl in timelines],
        grants=[],
        queue_wait_cycles=[0] * len(timelines),
    )


def _shared(timelines: Sequence[MutatorRunResult], n_units: int,
            dram_tax: float, faults: Optional[FleetFaultSpec],
            failover: FailoverConfig,
            software_timelines: Optional[
                Sequence[MutatorRunResult]]) -> ScheduleResult:
    """The ``shared`` event loop, with or without a fleet fault plane.

    Earliest-request-first heap, least-loaded-unit pick with index
    tie-break, DRAM tax, plus the fault semantics of the module
    docstring. ``faults=None`` runs against an empty plane — no crashes,
    rate factor 1.0 — and leaves the patience deadline unarmed: the
    timeout is part of the failover discipline and could otherwise fire
    on fault-free congestion, moving the pinned fault-free schedules.
    """
    patience = failover.timeout_cycles if faults is not None else 0
    if faults is None:
        faults = FleetFaultSpec()
    n_tenants = len(timelines)
    tax = 1.0 + dram_tax * (n_tenants - 1) / n_units
    #: (eligible cycle, original request, tenant, pause index, attempt)
    #: — re-queued entries become eligible after backoff but keep their
    #: original request for ordering, so grants that died together on a
    #: crashed unit re-enter earliest-request-first.
    pending: List[Tuple[int, int, int, int, int]] = []
    for t, tl in enumerate(timelines):
        if tl.pauses:
            start = tl.pauses[0].start_cycle
            heapq.heappush(pending, (start, start, t, 0, 1))
    units = [0] * n_units
    crash_at = [faults.crash_cycle(u) for u in range(n_units)]
    drift = [0] * n_tenants
    adjusted: List[List] = [[] for _ in range(n_tenants)]
    grants: List[ServiceGrant] = []
    events: List[FailoverEvent] = []
    waits = [0] * n_tenants
    failovers = [0] * n_tenants
    retry_wait = [0] * n_tenants
    fallbacks = [0] * n_tenants
    fallback_tax = [0] * n_tenants
    cancelled = [0] * n_tenants

    def sw_duration(t: int, i: int, hw_work: int) -> int:
        """Software-fallback duration for tenant ``t``'s pause ``i``:
        the matching pause of its software base timeline, or a 3x stall
        when no software timeline was supplied (documented coarse
        stand-in for the sw/hw pause ratio)."""
        if software_timelines is not None and \
                i < len(software_timelines[t].pauses):
            return software_timelines[t].pauses[i].pause_cycles
        return 3 * hw_work

    while pending:
        eligible, first_request, t, i, attempt = heapq.heappop(pending)
        tenant_crash = faults.tenant_crash_cycle(t)
        if tenant_crash is not None and first_request >= tenant_crash:
            # The tenant is offline: this and every later collection of
            # its monotone request schedule is cancelled, not admitted.
            cancelled[t] += len(timelines[t].pauses) - i
            continue
        base_pause = timelines[t].pauses[i]
        work = math.ceil(base_pause.pause_cycles * tax
                         * faults.tenant_factor(t, first_request))
        deadline = first_request + patience if patience > 0 else None

        def finish(end: int, grant: ServiceGrant) -> None:
            grants.append(grant)
            # The tenant is stopped from its first request to end: its
            # recorded pause is the whole stall (wait + collection).
            adjusted[t].append(replace(base_pause,
                                       start_cycle=first_request,
                                       mark_cycles=end - first_request,
                                       sweep_cycles=0))
            drift[t] += (end - first_request) - base_pause.pause_cycles
            if i + 1 < len(timelines[t].pauses):
                nxt = timelines[t].pauses[i + 1].start_cycle + drift[t]
                heapq.heappush(pending, (nxt, nxt, t, i + 1, 1))

        def fall_back(at: int) -> None:
            fallbacks[t] += 1
            duration = math.ceil(sw_duration(t, i, work)
                                 * faults.tenant_factor(t, first_request))
            end = at + duration
            # The degraded-mode tax: what the software stall cost over
            # the taxed hardware duration the request asked for.
            fallback_tax[t] += max(0, duration - work)
            finish(end, ServiceGrant(tenant=t, pause_index=i, unit=-1,
                                     request=eligible, grant=at, end=end,
                                     first_request=first_request,
                                     attempts=attempt, via="fallback"))

        # Units that can still start this grant: alive at their earliest
        # possible start. Least-loaded wins, unit index breaking ties.
        alive = [u for u in range(n_units)
                 if crash_at[u] is None
                 or max(eligible, units[u]) < crash_at[u]]
        if not alive:
            # No hardware anywhere (connection refused, not a timeout):
            # the tenant detects immediately and degrades.
            fall_back(eligible)
            continue
        unit = min(alive, key=lambda u: (units[u], u))
        grant_cycle = max(eligible, units[unit])
        if deadline is not None and grant_cycle > deadline:
            # The queue cannot serve it inside the patience budget; the
            # tenant gives up at the deadline and collects in software.
            retry_wait[t] += deadline - eligible
            fall_back(deadline)
            continue
        end = faults.service_end(unit, grant_cycle, work)
        crash = crash_at[unit]
        if crash is not None and end > crash:
            # Interrupted mid-service: discard, back off, re-queue
            # earliest-request-first onto the survivors.
            events.append(FailoverEvent(tenant=t, pause_index=i, unit=unit,
                                        grant=grant_cycle, crash_cycle=crash,
                                        attempt=attempt))
            failovers[t] += 1
            units[unit] = crash  # the unit is dead; freeze its clock
            if attempt > failover.max_retries:
                retry_wait[t] += crash - eligible
                fall_back(crash)
                continue
            backoff = failover.backoff_cycles * (2 ** (attempt - 1))
            requeue = crash + backoff
            retry_wait[t] += requeue - eligible
            if deadline is not None and requeue > deadline:
                fall_back(max(crash, deadline))
                continue
            heapq.heappush(pending, (requeue, first_request, t, i,
                                     attempt + 1))
            continue
        units[unit] = end
        waits[t] += grant_cycle - eligible
        finish(end, ServiceGrant(tenant=t, pause_index=i, unit=unit,
                                 request=eligible, grant=grant_cycle,
                                 end=end, first_request=first_request,
                                 attempts=attempt, via="unit"))

    return ScheduleResult(
        policy="shared",
        timelines=[
            MutatorRunResult(collector=tl.collector, pauses=adjusted[t],
                             mutator_cycles=tl.mutator_cycles)
            for t, tl in enumerate(timelines)
        ],
        grants=grants,
        queue_wait_cycles=waits,
        failovers=failovers,
        retry_wait_cycles=retry_wait,
        fallbacks=fallbacks,
        fallback_tax_cycles=fallback_tax,
        cancelled=cancelled,
        failover_events=events,
    )


def schedule_fleet(policy: str, timelines: Sequence[MutatorRunResult],
                   n_units: int = 1, dram_tax: float = 0.25,
                   faults=None,
                   failover: Optional[FailoverConfig] = None,
                   software_timelines: Optional[
                       Sequence[MutatorRunResult]] = None) -> ScheduleResult:
    """Arbitrate the fleet's collections under ``policy``.

    ``timelines`` are the per-tenant *requested* timelines (already
    phase-offset): hardware-collector runs for ``dedicated``/``shared``,
    software-collector runs for ``software``. The returned timelines are
    what each tenant's query replay should run against.

    ``faults`` (a :class:`~repro.fleet.faults.FleetFaultSpec`) arms the
    fleet fault plane for the ``shared`` policy; ``failover`` tunes the
    retry discipline and ``software_timelines`` supplies the per-tenant
    software-collector runs that price the degraded-mode fallback. With
    ``faults`` unset the same loop runs against an empty plane with the
    patience deadline unarmed, which is the fault-free schedule.
    """
    resolve_policy(policy)
    if n_units < 1:
        raise ValueError(
            f"fleet needs at least one GC unit (n_units={n_units}): the "
            f"shared DRAM tax divides by n_units and admission picks "
            f"min() over the unit pool")
    if policy == "shared":
        return _shared(timelines, n_units, dram_tax, faults,
                       failover or FailoverConfig(), software_timelines)
    result = _dedicated(timelines)
    return replace(result, policy=policy)
