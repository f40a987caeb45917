"""Intra-figure sharding: one figure as independent per-value cells.

``run_suite(jobs=N)`` parallelizes *across* figures, which strands N-1
workers once only the slowest figure remains. The figures that dominate the
suite's critical path are embarrassingly parallel *inside*: they iterate
independent units of work along one axis — benchmarks (fig01a, fig15,
fig16, fig17, fig20), queue sizes (fig19), mark-bit-cache sizes (fig21),
cache modes (fig18), or the fleet figures' tenants, fleet sizes and fault
rosters. Such a figure's record in :data:`repro.harness.figures.FIGURES`
carries a :class:`ShardSpec`: the axis, and the merge (one of the
families below) that refolds per-value
:class:`~repro.harness.experiments.ExperimentResult` rows into a table —
and therefore a determinism digest — byte-identical to the unsharded run.

A **cell** is a figure restricted to one axis value: the unit the sim
cache (:mod:`repro.harness.simcache`) keys, and the unit
``run_suite(shard_figures=True)`` dispatches to its worker pool
(:mod:`repro.harness.parallel`), which applies the merge once an entry's
last cell lands. Cache-cold, cache-warm, sharded and inline runs
therefore render the same bytes from the same cells.

Identity argument: every axis cell runs on a **freshly built heap** (the
figure bodies rebuild through the memoized heap cache per axis value, so a
cell never observes simulator or DRAM-state carry-over from its
predecessors — the restructure that PR 8 applied to fig16/18/19/21), which
makes per-cell rows equal the unsharded rows exactly; cells merge in axis
order, so row order is preserved; and summary rows (fig15/fig17 geomeans,
fleet_slo's policy summaries) are recomputed from the merged rows' float
values in the same left-to-right order the unsharded code folds them, so
even the floating-point summation order matches. The per-cell digests are
recorded on the :class:`~repro.harness.suite.FigureRun` for forensics,
but excluded from the figure digest itself; they are never persisted, so
every sharded run recomputes them, including one served from the sim cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List

if TYPE_CHECKING:
    from repro.harness.suite import FigureRun


def concat_merge(results: List[Any]) -> Any:
    """Merge cell results whose rows simply concatenate (no summary row)."""
    merged = replace(results[0])
    merged.rows = [row for result in results for row in result.rows]
    merged.extras = {}
    return merged


def geomean_tail_merge(*speedup_cols: int) -> Callable[[List[Any]], Any]:
    """Merge for figures ending in a geomean row over ``speedup_cols``.

    Each cell computed its own trailing geomean over its slice; drop
    those, concatenate the per-benchmark rows, and refold the geomean from
    the merged rows — same float values, same left-to-right order as the
    unsharded loop, hence a bit-identical summary row.
    """
    from repro.engine.stats import geomean

    def merge(results: List[Any]) -> Any:
        merged = replace(results[0])
        merged.rows = [row for result in results for row in result.rows[:-1]]
        summary: List[Any] = ["geomean"] + [""] * (len(merged.headers) - 1)
        for col in speedup_cols:
            summary[col] = geomean([row[col] for row in merged.rows])
        merged.rows = merged.rows + [summary]
        merged.extras = {}
        return merged

    return merge


def column_refold_merge(results: List[Any]) -> Any:
    """Merge for figures whose axis values occupy column *groups* (fig18).

    A cell that ran only one axis value leaves the other values' columns
    blank (``""``); rows line up one-to-one across results, so the merge
    overlays each blank entry with the first result that filled it.
    Entries that are blank in every result (e.g. the ``%`` columns of the
    ``mark cycles`` row) stay blank — exactly as the unsharded table
    renders them.
    """
    merged = replace(results[0])
    rows = [list(row) for row in results[0].rows]
    for result in results[1:]:
        if len(result.rows) != len(rows):
            raise ValueError(
                f"column-refold results disagree on row count: "
                f"{len(result.rows)} != {len(rows)}")
        for row, other in zip(rows, result.rows):
            for col, value in enumerate(other):
                if row[col] == "" and value != "":
                    row[col] = value
    merged.rows = rows
    merged.extras = {}
    return merged


def fleet_slo_merge(results: List[Any]) -> Any:
    """Merge for ``fleet_slo``: concat tenant rows, refold policy summaries.

    Each cell replayed a slice of the tenant axis and appended
    its own per-policy summary rows (marked ``"fleet"`` in the tenant
    column); drop those, concatenate the tenant rows in axis order, and
    refold the summaries from the merged rows through the *same* helper
    the unsharded figure uses — same floats, same left-to-right fold, so
    the summary rows are bit-identical.
    """
    from repro.fleet.report import SUMMARY_MARKER, fleet_summary_rows

    merged = replace(results[0])
    tenant_rows = [row for result in results for row in result.rows
                   if row[0] != SUMMARY_MARKER]
    merged.rows = tenant_rows + fleet_summary_rows(tenant_rows)
    merged.extras = {}
    return merged


@dataclass(frozen=True)
class ShardSpec:
    """How one figure splits: the kwarg axis and the merge.

    ``axis`` names the runner's keyword argument whose values are
    independent units of work (its values come from binding the kwargs to
    the runner, :func:`repro.harness.figures.axis_values`); ``merge``
    refolds per-cell results into the unsharded table.
    """

    axis: str
    merge: Callable[[List[Any]], Any]


def run_entry_sharded(index: int, exp_id: str, kwargs: Dict[str, Any],
                      jobs: int) -> FigureRun:
    """Run one entry as per-value cells on a pool of ``jobs`` workers.

    The one-entry form of ``run_suite(jobs=jobs, shard_figures=True)``:
    the same cell expansion, worker pool, crash detection and merge, with
    no retries and no ``REPRO_FAULTS`` plan. An entry with fewer than two
    axis values, or ``jobs < 2``, runs as one cell. A failed cell raises
    :class:`~repro.harness.parallel.SuiteRunError` naming the cell and its
    exit status or error.
    """
    from repro.harness.parallel import _run_entries, _Scheduler

    sched = _Scheduler(retries=0, backoff=0.0, keep_going=False,
                       say=lambda msg: None)
    (run,) = _run_entries([(index, exp_id, kwargs)], jobs, sched,
                          shard_figures=True)
    return run
