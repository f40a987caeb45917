"""Lower-bound overhead (LBO) estimate in the style of Cai et al.

*Distilling the Real Cost of Production Garbage Collectors* (Cai,
Blackburn, Maas et al., PAPERS.md) argues that absolute GC cost is
unmeasurable — you cannot run the same program with free garbage
collection — but a *lower bound* is: take, per workload, the cheapest
observed configuration as the empirical baseline, and report every
collector's cost inflation over it. Any real no-GC baseline could only
be cheaper, so the reported overhead is a lower bound on the true cost.

Our distilled adaptation (honest deviations, see DESIGN §15):

* Their baseline distills over many production collectors × heap sizes;
  ours spans exactly our three collectors (``sw`` stop-the-world
  software, ``hw`` stop-the-world accelerator, ``concurrent``
  accelerator) at one heap scale.
* Their cost joins wall time with CPU utilization from production
  telemetry; ours is simulated wall cycles of the tenant's run
  (mutator + pauses). Work the concurrent collector overlaps with the
  mutator is therefore *excluded* from cost (it hides in the wall) but
  surfaced in the ``GC work %`` column.
* Tenants of one profile share a base run, so the per-collector
  distribution collapses per profile; the fleet-size axis varies the
  profile mix, not sampling noise.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.engine.stats import geomean
from repro.fleet.spec import DEFAULT_PROFILES_CYCLE, FleetSpec
from repro.fleet.timeline import BaseRunReader, base_run

LBO_HEADERS: Tuple[str, ...] = (
    "fleet size", "collector", "mean cost ms", "GC work %", "LBO %",
)


def _cost_cycles(run) -> int:
    """A tenant's distilled cost: wall cycles of the whole run."""
    return run.total_cycles


def _gc_work_pct(run) -> float:
    """GC work share incl. marking overlapped by the concurrent mutator."""
    overlapped = sum(p.concurrent_mark_cycles for p in run.pauses)
    total = run.total_cycles
    return 100.0 * (run.gc_cycles + overlapped) / total if total else 0.0


def fleet_lbo_rows(
    scale: float,
    seed: int,
    n_gcs: int,
    fleet_sizes: Sequence[int] = (2, 4),
    collectors: Sequence[str] = ("sw", "hw", "concurrent"),
    profiles_cycle: Sequence[str] = DEFAULT_PROFILES_CYCLE,
    base_runs: BaseRunReader = base_run,
) -> List[List[Any]]:
    """LBO table rows, grouped by fleet size (the shard axis).

    Per tenant, the baseline is the cheapest of the three collectors;
    ``LBO %`` is the geomean cost inflation over that baseline across the
    fleet — 0% for a collector that is cheapest on every tenant, and a
    lower bound on true GC overhead for every collector by construction
    (each per-tenant ratio is >= 1 against its own empirical minimum).
    """
    rows: List[List[Any]] = []
    for size in fleet_sizes:
        roster = FleetSpec(n_tenants=size,
                           profiles_cycle=tuple(profiles_cycle),
                           scale=scale, seed=seed, n_gcs=n_gcs).tenants()
        runs = {
            collector: [base_runs(t.benchmark, collector, scale, seed,
                                  n_gcs)
                        for t in roster]
            for collector in collectors
        }
        baseline = [min(_cost_cycles(runs[c][i]) for c in collectors)
                    for i in range(size)]
        for collector in collectors:
            costs = [_cost_cycles(run) for run in runs[collector]]
            ratios = [cost / base for cost, base in zip(costs, baseline)]
            rows.append([
                size, collector,
                geomean([c / 1e6 for c in costs]),
                sum(_gc_work_pct(run) for run in runs[collector]) / size,
                100.0 * (geomean(ratios) - 1.0),
            ])
    return rows
