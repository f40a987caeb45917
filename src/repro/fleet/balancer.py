"""Open-loop load balancer: one seeded arrival stream sprayed over tenants.

The balancer is deliberately dumb — uniform random spray, no health
checks, no pause awareness — because the figures measure what the *GC
policies* do to the tail, and a smart balancer would mask it. One global
stream (query ``g`` arrives at ``g * interval_cycles``) is assigned
tenant-by-tenant from a seed-derived RNG, so every per-tenant shard/cache
cell recomputes the same assignment, and one mask per tenant over it cuts
that tenant's slice.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.workloads._stdlib_stream import randbelow


def spray(n_queries: int, n_tenants: int, seed: int) -> List[int]:
    """Tenant assignment per global query index, from the fleet seed.

    ``random.Random(f"fleet-balancer:{seed}").randrange(n_tenants)`` per
    query, value for value, drawn in numpy blocks
    (:mod:`repro.workloads._stdlib_stream`). As with the stdlib,
    ``n_tenants < 1`` raises ``ValueError`` (here even for no queries).
    """
    return spray_array(n_queries, n_tenants, seed).tolist()


def spray_array(n_queries: int, n_tenants: int, seed: int) -> np.ndarray:
    """:func:`spray` as an array, the form :func:`tenant_arrivals` reads
    without a list-to-array conversion."""
    return randbelow(n_queries, n_tenants, f"fleet-balancer:{seed}")


def tenant_arrivals(assignments: Union[Sequence[int], np.ndarray],
                    interval_cycles: int,
                    n_tenants: int,
                    warmup: int) -> List[Tuple[np.ndarray, int]]:
    """Every tenant's slice of the global stream.

    Entry ``t`` is ``(arrival cycles, n_warmup)`` for tenant ``t``: the
    cycles as an int64 array, and ``n_warmup`` the count of the tenant's
    arrivals inside the fleet-wide warm-up window (the first ``warmup``
    *global* queries). Because arrivals are assigned in global order,
    those are exactly the tenant's first ``n_warmup`` arrivals — the form
    :class:`~repro.workloads.latency.QueryReplay` consumes. A tenant the
    spray never picked gets an empty array; an assignment outside
    ``[0, n_tenants)`` raises ``ValueError``.
    """
    picks = np.asarray(assignments, dtype=np.int64)
    if picks.size and not 0 <= picks.min() <= picks.max() < n_tenants:
        raise ValueError(f"assignment outside the {n_tenants}-tenant "
                         f"roster")
    if (picks.size - 1) * abs(interval_cycles) >= 1 << 63:
        raise ValueError(f"{picks.size} arrivals {interval_cycles} cycles "
                         f"apart overflow int64 cycles")
    n_warmup = np.bincount(picks[:warmup], minlength=n_tenants).tolist()
    return [(np.flatnonzero(picks == t) * interval_cycles, n_warmup[t])
            for t in range(n_tenants)]
