"""Open-loop load balancer: one seeded arrival stream sprayed over tenants.

The balancer is deliberately dumb — uniform random spray, no health
checks, no pause awareness — because the figures measure what the *GC
policies* do to the tail, and a smart balancer would mask it. One global
stream (query ``g`` arrives at ``g * interval_cycles``) is assigned
tenant-by-tenant from a seed-derived RNG, so every per-tenant shard/cache
cell recomputes the same assignment, and one pass over it cuts every
tenant's slice.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple


def spray(n_queries: int, n_tenants: int, seed: int) -> List[int]:
    """Tenant assignment per global query index, from the fleet seed."""
    rng = random.Random(f"fleet-balancer:{seed}")
    return [rng.randrange(n_tenants) for _ in range(n_queries)]


def tenant_arrivals(assignments: Sequence[int], interval_cycles: int,
                    n_tenants: int,
                    warmup: int) -> List[Tuple[List[int], int]]:
    """Every tenant's slice of the global stream, in one pass.

    Entry ``t`` is ``(arrival cycles, n_warmup)`` for tenant ``t``, where
    ``n_warmup`` counts the tenant's arrivals that fall inside the
    fleet-wide warm-up window (the first ``warmup`` *global* queries).
    Because arrivals are assigned in global order, those are exactly the
    tenant's first ``n_warmup`` arrivals — the form
    :class:`~repro.workloads.latency.QueryReplay` consumes. A tenant the
    spray never picked gets ``([], 0)``.
    """
    slices: List[List[int]] = [[] for _ in range(n_tenants)]
    appends = [arrivals.append for arrivals in slices]
    n_warmup = [0] * n_tenants
    for g, t in enumerate(assignments):
        appends[t](g * interval_cycles)
    for t in assignments[:warmup]:
        n_warmup[t] += 1
    return list(zip(slices, n_warmup))


def offline_split(arrivals: Sequence[int],
                  offline_after_cycle: int) -> Tuple[List[int], List[int]]:
    """Split one tenant's arrival slice at its crash cycle.

    Returns ``(live, offline)``: arrivals strictly before the cycle the
    tenant went offline, and the shed tail at/after it. The balancer
    keeps spraying at a dead tenant (it has no health checks, by design —
    see module docstring), so the shed tail is real traffic the
    conservation law must still count; the split lets the resilience
    report and the chaos battery predict exactly how many arrivals a
    crashed tenant sheds without replaying anything.
    """
    live = [a for a in arrivals if a < offline_after_cycle]
    return live, list(arrivals[len(live):])
