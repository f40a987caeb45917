"""Intra-figure sharding: split one figure across worker processes.

``run_suite(jobs=N)`` parallelizes *across* figures, which strands N-1
workers once only the slowest figure remains. The figures that dominate the
suite's critical path are embarrassingly parallel *inside*: they iterate
independent units of work along one axis — a benchmark list (fig01a, fig15,
fig16, fig17, fig20), a mark-queue-size sweep (fig19), a mark-bit-cache
sweep (fig21), or the shared-vs-partitioned cache modes (fig18). This
module splits such a figure's axis into contiguous chunks, fans the chunks
out over ``fork`` worker processes, and merges the per-chunk
:class:`~repro.harness.experiments.ExperimentResult` rows back into a
single figure whose rendered table — and therefore its determinism digest
— is byte-identical to the unsharded run.

Identity argument: every axis cell runs on a **freshly built heap** (the
figure bodies rebuild through the memoized heap cache per axis value, so a
cell never observes simulator or DRAM-state carry-over from its
predecessors — the restructure that PR 8 applied to fig16/18/19/21), which
makes per-chunk rows equal the unsharded rows exactly; chunks are
contiguous and merged in order, so row order is preserved; and summary
rows (fig15/fig17 geomeans) are recomputed from the merged rows' float
values in the same left-to-right order the unsharded code folds them, so
even the floating-point summation order matches. The per-shard digests are
recorded on the :class:`~repro.harness.suite.FigureRun` for forensics, but
excluded from the figure digest itself; they are never persisted, so every
sharded run recomputes them, including one served from the sim cache.

The same :class:`ShardSpec` machinery backs the content-addressed
simulation result cache (:mod:`repro.harness.simcache`): a cache-enabled
run decomposes a shardable figure into single-value cells — the finest
chunking — and refolds them with the identical merge, so cache-cold,
cache-warm, sharded, and inline runs all render the same bytes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.suite import FigureRun, run_entry
from repro.workloads.profiles import BENCHMARK_ORDER


def _concat_merge(results: List[Any]) -> Any:
    """Merge chunk results whose rows simply concatenate (no summary row)."""
    merged = replace(results[0])
    merged.rows = [row for result in results for row in result.rows]
    merged.extras = {}
    return merged


def _geomean_tail_merge(*speedup_cols: int) -> Callable[[List[Any]], Any]:
    """Merge for figures ending in a geomean row over ``speedup_cols``.

    Each chunk computed its own trailing geomean over its slice; drop
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


def _column_refold_merge(results: List[Any]) -> Any:
    """Merge for figures whose axis values occupy column *groups* (fig18).

    A chunk that ran only a subset of the axis leaves the other values'
    columns blank (``""``); rows line up one-to-one across chunks, so the
    merge overlays each blank cell with the first chunk that filled it.
    Cells that are blank in every chunk (e.g. the ``%`` columns of the
    ``mark cycles`` row) stay blank — exactly as the unsharded table
    renders them.
    """
    merged = replace(results[0])
    rows = [list(row) for row in results[0].rows]
    for result in results[1:]:
        if len(result.rows) != len(rows):
            raise ValueError(
                f"column-refold shards disagree on row count: "
                f"{len(result.rows)} != {len(rows)}")
        for row, other in zip(rows, result.rows):
            for col, value in enumerate(other):
                if row[col] == "" and value != "":
                    row[col] = value
    merged.rows = rows
    merged.extras = {}
    return merged


def _fleet_slo_merge(results: List[Any]) -> Any:
    """Merge for ``fleet_slo``: concat tenant rows, refold policy summaries.

    Each chunk replayed a contiguous slice of the tenant axis and appended
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
    """How one experiment splits: the kwarg axis, its defaults, the merge.

    ``axis`` names the keyword argument whose values are independent units
    of work; ``default`` mirrors the experiment function's default for that
    axis (consulted when the suite entry does not pass it explicitly);
    ``merge`` refolds per-chunk results into the unsharded table.
    """

    axis: str
    merge: Callable[[List[Any]], Any]
    default: Optional[Tuple[Any, ...]] = None
    #: Optional kwargs-aware default for axes whose value set depends on
    #: *other* kwargs (fleet_slo's tenant axis tracks ``n_tenants``).
    #: Takes precedence over ``default`` when the axis is implicit.
    default_fn: Optional[Callable[[Dict[str, Any]], Tuple[Any, ...]]] = None


#: Experiments with an axis of independent units of work, and how their
#: rows refold. Benchmark-axis figures default to the full DaCapo order;
#: config-axis figures mirror their function defaults. fig15's table ends
#: in a geomean row (speedups in columns 3 and 6), fig17's in one over
#: column 1; fig18 splits by cache mode into column groups; the rest
#: concatenate rows directly.
SHARDABLE: Dict[str, ShardSpec] = {
    "fig01a": ShardSpec(axis="benchmarks", merge=_concat_merge,
                        default=tuple(BENCHMARK_ORDER)),
    "fig15": ShardSpec(axis="benchmarks", merge=_geomean_tail_merge(3, 6),
                       default=tuple(BENCHMARK_ORDER)),
    "fig16": ShardSpec(axis="benchmarks", merge=_concat_merge,
                       default=("avrora",)),
    "fig17": ShardSpec(axis="benchmarks", merge=_geomean_tail_merge(1),
                       default=tuple(BENCHMARK_ORDER)),
    "fig18": ShardSpec(axis="cache_modes", merge=_column_refold_merge,
                       default=("shared", "partitioned")),
    "fig19": ShardSpec(axis="queue_entries", merge=_concat_merge,
                       default=(128, 512, 2048, 16384)),
    "fig20": ShardSpec(axis="benchmarks", merge=_concat_merge,
                       default=tuple(BENCHMARK_ORDER)),
    "fig21": ShardSpec(axis="cache_sizes", merge=_concat_merge,
                       default=(0, 16, 64, 105, 128, 256)),
    # The fleet figures: per-tenant / per-fleet-size cells. fleet_slo's
    # default mirrors the function's n_tenants=4 roster.
    "fleet_slo": ShardSpec(
        axis="tenants", merge=_fleet_slo_merge, default=(0, 1, 2, 3),
        default_fn=lambda kw: tuple(range(kw.get("n_tenants", 4)))),
    "fleet_lbo": ShardSpec(axis="fleet_sizes", merge=_concat_merge,
                           default=(2, 4)),
    # One cell per fault roster; each cell rebuilds its whole fleet
    # schedule from the spec, so rows concatenate in axis order.
    "fleet_resilience": ShardSpec(
        axis="rosters", merge=_concat_merge,
        default_fn=lambda kw: _resilience_rosters()),
}


def _resilience_rosters() -> Tuple[Any, ...]:
    """Late import: sharding must stay importable without the fleet pkg."""
    from repro.fleet.faults import DEFAULT_RESILIENCE_ROSTERS

    return DEFAULT_RESILIENCE_ROSTERS


def axis_values(exp_id: str, kwargs: Dict[str, Any]) -> Optional[List[Any]]:
    """The axis values a sharded run would split, or ``None``.

    Falls back to the spec's declared default (mirroring the experiment
    function's own default) when the kwargs leave the axis implicit.
    """
    spec = SHARDABLE.get(exp_id)
    if spec is None:
        return None
    values = kwargs.get(spec.axis)
    if values is None and spec.default_fn is not None:
        values = spec.default_fn(kwargs)
    if values is None:
        values = spec.default if spec.default is not None else BENCHMARK_ORDER
    return list(values)


def split_axis(values: Sequence[Any], n_shards: int) -> List[List[Any]]:
    """Deterministic contiguous chunks, earlier chunks one longer.

    Contiguity is what makes the merge a plain ordered concatenation.
    ``n_shards`` is clamped to ``len(values)`` so no chunk is ever empty —
    an empty chunk would fan out a worker with nothing to do and hand the
    merge a result with no rows.
    """
    n_shards = max(1, min(n_shards, len(values)))
    base, extra = divmod(len(values), n_shards)
    chunks: List[List[Any]] = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        chunks.append(list(values[start:start + size]))
        start += size
    return chunks


def can_shard(exp_id: str, kwargs: Dict[str, Any], jobs: int) -> bool:
    """Whether splitting this entry over ``jobs`` workers buys anything.

    Declines the degenerate oversubscribed case ``jobs > len(values)``:
    the split would leave trailing workers with empty chunks (avoided only
    by :func:`split_axis`'s clamp), every shard would carry a single axis
    value — all fixed per-shard startup cost — and the surplus workers
    would idle anyway. The figure-level pool spends those workers better.
    """
    if jobs < 2:
        return False
    values = axis_values(exp_id, kwargs)
    return values is not None and 2 <= len(values) and jobs <= len(values)


def _shard_child(conn, exp_id: str, kwargs: Dict[str, Any]) -> None:
    """Worker: run one chunk's experiment, ship the result over a pipe.

    Runs through :func:`repro.harness.simcache.run_experiment` so an
    enabled ``REPRO_SIM_CACHE`` serves unchanged cells from disk and
    persists fresh ones — sharded and inline runs share the same cells.
    ``extras`` can hold unpicklable/heavy simulation objects and feeds
    neither the rendered table nor the digest, so it is stripped before
    the send.
    """
    try:
        from repro.harness.simcache import run_experiment

        result, accounting = run_experiment(exp_id, kwargs)
        result.extras = {}
        conn.send(("ok", result, accounting.as_tuple()))
    except BaseException as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}", None))
        except Exception:
            pass
    finally:
        conn.close()


def run_entry_sharded(index: int, exp_id: str, kwargs: Dict[str, Any],
                      jobs: int) -> FigureRun:
    """Run one suite entry split across ``jobs`` worker processes.

    Falls back to the inline :func:`~repro.harness.suite.run_entry` when
    the entry is not shardable (unknown axis, one axis value, jobs < 2,
    or more workers than axis values — see :func:`can_shard`). A shard
    failure raises — the caller's retry accounting treats it like any
    other failed attempt.
    """
    from repro.harness.parallel import _describe_exit, _pool_context

    spec = SHARDABLE.get(exp_id)
    values = axis_values(exp_id, kwargs)
    if spec is None or not can_shard(exp_id, kwargs, jobs):
        return run_entry(index, exp_id, kwargs)

    chunks = split_axis(values, jobs)
    ctx = _pool_context()
    t0 = time.time()
    workers = []
    for chunk in chunks:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        shard_kwargs = dict(kwargs)
        shard_kwargs[spec.axis] = chunk
        proc = ctx.Process(target=_shard_child,
                           args=(child_conn, exp_id, shard_kwargs))
        proc.start()
        child_conn.close()
        workers.append((parent_conn, proc, chunk))

    results, errors, shard_digests = [], [], []
    cache_hits = cache_misses = 0
    for parent_conn, proc, chunk in workers:
        try:
            msg = parent_conn.recv()
        except (EOFError, OSError):
            msg = None  # died before reporting: name the exit status
        parent_conn.close()
        proc.join(5.0)
        if msg is None:
            msg = ("error", _describe_exit(proc.exitcode), None)
        if msg[0] == "ok":
            results.append(msg[1])
            shard_digests.append(hashlib.sha256(
                msg[1].render().encode()).hexdigest())
            if msg[2] is not None:
                hits, misses = msg[2]
                cache_hits += hits
                cache_misses += misses
        else:
            errors.append(f"shard {chunk}: {msg[1]}")
    if errors:
        raise RuntimeError(
            f"{exp_id} sharded over {len(chunks)} workers failed: "
            + "; ".join(errors))

    merged = spec.merge(results)
    return FigureRun(
        index=index,
        exp_id=exp_id,
        kwargs=dict(kwargs),
        rendered=merged.render(),
        elapsed=time.time() - t0,
        shard_digests=shard_digests,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
    )
