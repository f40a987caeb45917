"""Fleet and tenant specifications: the deterministic roster.

A :class:`FleetSpec` is the *only* input to a fleet simulation; every
downstream quantity — tenant profiles, per-tenant RNG seeds, phase
offsets, the balancer's arrival stream — derives from it, which is what
makes per-tenant cells independently recomputable (sharding/simcache) and
byte-identical across worker layouts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.workloads.profiles import DACAPO_PROFILES

#: Default mixed-profile cycle: a latency-sensitive search workload next
#: to two compute-heavy ones, mirroring a mixed-tenancy rack.
DEFAULT_PROFILES_CYCLE: Tuple[str, ...] = ("lusearch", "avrora", "pmd")


@dataclass(frozen=True)
class TenantSpec:
    """One modeled app instance of the fleet."""

    index: int
    name: str
    benchmark: str
    seed: int        # per-tenant RNG seed (service-time draws)
    phase_frac: float  # in [0, 1): GC phase offset vs the shared base run


@dataclass(frozen=True)
class FleetSpec:
    """The whole fleet, derived deterministically from one seed.

    ``interval_cycles``/``service_mean_cycles`` of 0 mean "derive from the
    mean hardware pause of the roster's base runs", preserving Fig. 1b's
    ratio of pause duration to arrival interval at scaled-down heap sizes.
    ``dram_tax`` is the shared-DRAM-channel contention proxy: under the
    ``shared`` policy every admission is stretched by
    ``1 + dram_tax * (n_tenants - 1) / n_units``.
    ``shed_backlog_intervals`` of 0 disables load shedding.

    The ``failover_*`` fields tune the shared policy's retry discipline
    when a fleet fault plane is armed (see
    :class:`~repro.fleet.admission.FailoverConfig`); with no faults they
    are inert and the fault-free schedule stays byte-identical.
    """

    n_tenants: int = 4
    profiles_cycle: Tuple[str, ...] = DEFAULT_PROFILES_CYCLE
    scale: float = 0.015
    seed: int = 1
    n_gcs: int = 2
    n_queries: int = 3000
    warmup: int = 150
    interval_cycles: int = 0
    service_mean_cycles: int = 0
    n_units: int = 1
    dram_tax: float = 0.25
    shed_backlog_intervals: int = 0
    failover_backoff_cycles: int = 50_000
    failover_retries: int = 3
    failover_timeout_cycles: int = 1_000_000

    def __post_init__(self) -> None:
        if self.n_tenants < 1:
            raise ValueError("fleet needs at least one tenant")
        if self.n_units < 1:
            raise ValueError("fleet needs at least one GC unit")
        if not self.scale > 0:
            raise ValueError(f"heap scale must be positive (got "
                             f"{self.scale})")
        if not self.dram_tax >= 0:
            raise ValueError(f"DRAM tax cannot be negative (got "
                             f"{self.dram_tax})")
        if self.shed_backlog_intervals < 0:
            raise ValueError("shed backlog cannot be negative "
                             "(0 disables shedding)")
        if self.failover_backoff_cycles < 1:
            raise ValueError("failover backoff must be at least one cycle")
        if self.failover_retries < 0:
            raise ValueError("failover retry budget cannot be negative")
        if self.failover_timeout_cycles < 0:
            raise ValueError("failover timeout cannot be negative "
                             "(0 disables the patience budget)")
        if not self.profiles_cycle:
            raise ValueError("profiles_cycle must name at least one profile")
        unknown = [p for p in self.profiles_cycle if p not in DACAPO_PROFILES]
        if unknown:
            raise ValueError(f"unknown profiles in cycle: {unknown}; "
                             f"valid: {', '.join(DACAPO_PROFILES)}")

    def tenants(self) -> Tuple[TenantSpec, ...]:
        """The deterministic roster: profiles cycle, seeds/phases hash."""
        roster = []
        for i in range(self.n_tenants):
            benchmark = self.profiles_cycle[i % len(self.profiles_cycle)]
            phase = random.Random(f"fleet:{self.seed}:tenant:{i}").random()
            roster.append(TenantSpec(
                index=i,
                name=f"t{i}",
                benchmark=benchmark,
                seed=self.seed * 100_003 + i * 7_919 + 17,
                phase_frac=phase,
            ))
        return tuple(roster)
