"""One record per figure of the paper's evaluation: :data:`FIGURES`.

A :class:`Figure` holds everything the harness knows about one figure, so
the suite (:data:`repro.harness.suite.SUITE`), the sim cache, the worker
pool, the CLI and ``tests/paper/test_claims.py`` read one table. Axis
values come from binding kwargs to the runner's own signature, so they
are never restated beside the runner.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.harness import experiments as E
from repro.harness.experiments import ExperimentResult
from repro.harness.sharding import (
    ShardSpec,
    column_refold_merge,
    concat_merge,
    fleet_slo_merge,
    geomean_tail_merge,
)
from repro.workloads.profiles import BENCHMARK_ORDER


class Claim(NamedTuple):
    """One published result, checked on the runner's result at ``kwargs``:
    its name, where the paper states it, its value there, a predicate."""

    name: str
    kwargs: Dict[str, Any]
    section: str
    paper: str
    holds: Callable[[ExperimentResult], bool]


def _claims(kwargs: Dict[str, Any], section: str,
            *rows) -> Tuple[Claim, ...]:
    """One claim per ``(name, paper value, predicate)`` row."""
    return tuple(Claim(name, kwargs, section, paper, holds)
                 for name, paper, holds in rows)


@dataclass(frozen=True)
class Figure:
    """One figure: its runner, the kwargs ``run-all`` runs it with (scales
    chosen for ~minutes total), how it splits into cells (``None`` runs it
    whole), the fleet base runs a cell reads (from the runner's
    arguments), its paper claims, and the profile ``repro trace <id>``
    replays at ``kwargs["scale"]``."""

    runner: Callable[..., ExperimentResult]
    kwargs: Dict[str, Any]
    shard: Optional[ShardSpec] = None
    base_runs: Optional[Callable[..., Tuple[Any, ...]]] = None
    claims: Tuple[Claim, ...] = ()
    trace: Optional[str] = None


# Predicate helpers for the claim rows.

def _col(result: ExperimentResult, key: int, value: int) -> Dict[Any, Any]:
    return {row[key]: row[value] for row in result.rows}


def _labelled(result: ExperimentResult) -> Dict[Any, Any]:
    return {row[0]: row for row in result.rows}


def _column(result: ExperimentResult, col: int) -> List[Any]:
    return [row[col] for row in result.rows]


def _flat(values: List[float], ratio: float) -> bool:
    return max(values) < ratio * min(values)


def _fig16_avrora(result):  # collector -> (benchmark, collector, GB/s, ...)
    return {row[1]: row for row in result.rows if row[0] == "avrora"}


def _fig18_shares(result):  # source -> (shared %, partitioned %)
    return {row[0]: (row[2], row[4]) for row in result.rows[:-1]}


def _fig19_series(result, config):  # rows of one queue config, by size
    return [row for row in result.rows if row[1] == config]


def _fig22_unit_parts(result):  # "[c] GC unit / <part>" -> mm^2
    return {k: v for k, v in _col(result, 0, 1).items() if k.startswith("[c]")}


#: Every figure, in suite (and report) order. Claim bands are wide on
#: purpose: the heaps are scaled down (DESIGN.md §1), so a row checks that
#: a result stays in the paper's regime, not that it matches the paper's
#: digits. A failing row means the model has drifted from its only
#: reference; report it rather than widening the band.
FIGURES: Dict[str, Figure] = {
    "fig01a": Figure(
        E.fig01a, dict(scale=0.02, n_gcs=2),
        shard=ShardSpec("benchmarks", concat_merge),
        claims=_claims(
            dict(scale=0.02, n_gcs=2), "Fig. 1a",
            ("max_gc_share", "up to ~35% of CPU time in GC",
             lambda r: max(_col(r, 0, 1).values()) > 15.0),
            ("xalan_over_luindex", "xalan among the heaviest, luindex "
             "lightest",
             lambda r: _col(r, 0, 1)["xalan"] > _col(r, 0, 1)["luindex"]),
            ("lusearch_over_luindex", "lusearch among the heaviest",
             lambda r: _col(r, 0, 1)["lusearch"] > _col(r, 0, 1)["luindex"]),
        )),
    "fig01b": Figure(
        E.fig01b, dict(scale=0.02, n_gcs=3),
        claims=_claims(
            dict(scale=0.02, n_gcs=3, n_queries=10_000, warmup=1_000),
            "Fig. 1b",
            ("tail_ratio", "GC stragglers up to ~100x the median",
             lambda r: _col(r, 0, 1)["tail ratio p99.9/p50"] > 20.0),
            ("queries_near_gc", "a share of queries lands on a pause",
             lambda r: _col(r, 0, 1)["queries near GC (%)"] > 1.0),
        )),
    "conc_latency": Figure(E.conc_latency, dict(scale=0.02, n_gcs=3)),
    "fig15": Figure(
        E.fig15, dict(scale=0.05), trace="avrora",
        # Speedups in columns 3 and 6 refold into the geomean row.
        shard=ShardSpec("benchmarks", geomean_tail_merge(3, 6)),
        claims=_claims(
            dict(scale=0.04), "Fig. 15",
            ("mark_geomean", "4.2x mark",
             lambda r: 3.0 < r.rows[-1][3] < 5.5),
            ("sweep_geomean", "1.9x sweep (2 sweepers)",
             lambda r: 1.4 < r.rows[-1][6] < 3.2),
            ("mark_every_benchmark", "every benchmark speeds up mark",
             lambda r: all(row[3] > 2.0 for row in r.rows[:-1])),
            ("sweep_every_benchmark", "every benchmark speeds up sweep",
             lambda r: all(row[6] > 1.2 for row in r.rows[:-1])),
        )),
    "fig16": Figure(
        # Two benchmarks so the figure has a benchmark axis to shard/cache.
        E.fig16, dict(scale=0.04, benchmarks=["avrora", "luindex"]),
        shard=ShardSpec("benchmarks", concat_merge), trace="avrora",
        claims=_claims(
            dict(scale=0.04), "Fig. 16",
            ("unit_bandwidth", "the unit exploits far more bandwidth",
             lambda r: _fig16_avrora(r)["GC unit"][2]
             > 2.0 * _fig16_avrora(r)["CPU"][2]),
            ("unit_pause", "the unit's pause is far shorter",
             lambda r: _fig16_avrora(r)["GC unit"][4]
             < 0.6 * _fig16_avrora(r)["CPU"][4]),
        )),
    "fig17": Figure(
        E.fig17, dict(scale=0.04), trace="lusearch",
        shard=ShardSpec("benchmarks", geomean_tail_merge(1)),
        claims=_claims(
            dict(scale=0.04), "Fig. 17",
            ("mark_geomean", "9.0x mark with a 1-cycle / 8 GB/s pipe",
             lambda r: 6.5 < r.rows[-1][1] < 12.0),
            ("request_cadence", "a request every ~8.66 cycles",
             lambda r: all(1.0 < row[3] < 20.0 for row in r.rows[:-1])),
            ("port_busy", "port busy ~88% of mark cycles",
             lambda r: all(row[4] > 25.0 for row in r.rows[:-1])),
            ("below_peak", "data consumption below the 8 GB/s peak",
             lambda r: all(row[5] < 8.0 for row in r.rows[:-1])),
        )),
    "fig18": Figure(
        E.fig18, dict(scale=0.03), trace="pmd",
        shard=ShardSpec("cache_modes", column_refold_merge),
        claims=_claims(
            dict(scale=0.03), "Fig. 18",
            ("shared_ptw_share", "shared cache: ~2/3 of L1 requests from "
             "the PTW",
             lambda r: _fig18_shares(r)["ptw"][0] > 40.0),
            ("shared_ptw_over_marker", "the PTW drowns out the marker",
             lambda r: _fig18_shares(r)["ptw"][0]
             > _fig18_shares(r)["marker"][0]),
            ("partitioned_marker_tracer",
             "partitioned: marker + tracer dominate memory requests",
             lambda r: _fig18_shares(r)["marker"][1]
             + _fig18_shares(r)["tracer"][1] > 50.0),
            ("partitioned_ptw_drops", "partitioning cuts the PTW's share",
             lambda r: _fig18_shares(r)["ptw"][1]
             < _fig18_shares(r)["ptw"][0]),
        )),
    "fig19": Figure(
        E.fig19, dict(scale=0.03), trace="xalan",
        shard=ShardSpec("queue_entries", concat_merge),
        claims=_claims(
            dict(scale=0.03, queue_entries=(128, 512, 2048, 16384)),
            "Fig. 19",
            ("spill_shrinks", "spilling shrinks as the queue grows",
             lambda r: _fig19_series(r, "TQ=128")[-1][2]
             <= _fig19_series(r, "TQ=128")[0][2]),
            ("spill_vanishes", "a queue covering the frontier never spills",
             lambda r: _fig19_series(r, "TQ=128")[-1][2] == 0),
            # The paper's ~2% is at its heap sizes; our scaled heaps have
            # a proportionally larger frontier, hence the wider band.
            ("spill_share", "spilling ~2% of memory requests",
             lambda r: _fig19_series(r, "TQ=128")[0][3] < 25.0),
            ("mark_time_flat", "mark time nearly flat vs queue size",
             lambda r: _flat([row[4] for row in _fig19_series(r, "TQ=128")],
                             1.7)),
            ("compression", "compression halves spilling",
             lambda r: _fig19_series(r, "Comp.")[0][2]
             < 0.8 * _fig19_series(r, "TQ=128")[0][2]),
        )),
    "fig20": Figure(
        E.fig20, dict(scale=0.025), trace="sunflow",
        shard=ShardSpec("benchmarks", concat_merge),
        claims=_claims(
            dict(scale=0.024, sweeper_counts=(1, 2, 4, 8)), "Fig. 20",
            ("linear_to_two", "linear scaling to 2 sweepers",
             lambda r: all(row[2] > 1.25 * row[1] for row in r.rows)),
            ("knee", "diminishing returns beyond 2 (contention)",
             lambda r: all(row[3] / row[2] < row[2] / row[1]
                           for row in r.rows)),
            ("eight_bounded", "8 sweepers gain little over 2",
             lambda r: all(row[4] < 2.0 * row[2] for row in r.rows)),
            ("two_beat_cpu", "2+ sweepers beat the CPU sweep",
             lambda r: all(row[2] > 1.2 for row in r.rows)),
        )),
    "fig21": Figure(
        E.fig21, dict(scale=0.04), trace="luindex",
        shard=ShardSpec("cache_sizes", concat_merge),
        claims=_claims(
            dict(scale=0.04, n_warm_gcs=2, cache_sizes=(0, 16, 64, 105, 256)),
            "Fig. 21",
            ("top56_share", "~56 objects draw ~10% of mark accesses",
             lambda r: r.extras["top56_share_pct"] > 3.0),
            ("no_cache_filters_nothing", "no cache filters nothing",
             lambda r: r.rows[0][1] == 0),
            ("filtering_grows", "filtering grows with cache size",
             lambda r: _column(r, 1)[-1] > _column(r, 1)[1] >= 0),
            ("mark_time_flat", "no substantial impact on mark time",
             lambda r: _flat(_column(r, 4), 1.25)),
        )),
    "fig22": Figure(
        E.fig22, dict(),
        claims=_claims(
            {}, "Fig. 22",
            ("unit_vs_rocket", "the unit is 18.5% the size of Rocket",
             lambda r: abs(_col(r, 0, 1)["unit/Rocket ratio %"] - 18.5)
             <= 1.5),
            ("sram_kb", "~64 KB of SRAM",
             lambda r: abs(_col(r, 0, 1)["unit SRAM-equivalent KB"] - 64)
             <= 6),
            ("mark_queue_dominates", "the mark queue dominates the unit",
             lambda r: _fig22_unit_parts(r)["[c] GC unit / Mark Q."]
             == max(_fig22_unit_parts(r).values())),
            ("area_ordering", "L2 > Rocket > HWGC",
             lambda r: _col(r, 0, 1)["[a] L2 Cache"]
             > _col(r, 0, 1)["[a] Rocket"] > _col(r, 0, 1)["[a] HWGC"]),
        )),
    "fig23": Figure(
        E.fig23, dict(scale=0.05),
        claims=_claims(
            dict(scale=0.04), "Fig. 23",
            ("energy_saving", "~14.5% lower GC energy",
             lambda r: r.rows[-1][-1] > 5.0),
            ("unit_dram_power", "much higher DRAM power for the unit",
             lambda r: all(row[2] > 1.3 * row[1] for row in r.rows[:-1])),
        )),
    "abl_layout": Figure(
        E.abl_layout, dict(scale=0.03),
        claims=_claims(
            dict(scale=0.03), "§IV-A idea I",
            ("tib_costs_more", "the TIB layout adds two accesses per object",
             lambda r: all(row[3] > 1.02 for row in r.rows)),
        )),
    "abl_decoupling": Figure(
        E.abl_decoupling, dict(scale=0.03),
        claims=_claims(
            dict(scale=0.03), "§IV-A ideas II/III",
            ("single_slot_slower", "decoupling exposes memory-level "
             "parallelism",
             lambda r: _col(r, 0, 1)["single-slot marker"]
             > 1.5 * _col(r, 0, 1)["decoupled (TQ=128, 16 slots)"]),
        )),
    "abl_scheduler": Figure(
        E.abl_scheduler, dict(scale=0.03),
        claims=_claims(
            dict(scale=0.03), "§VI-A",
            ("unit_prefers_frfcfs", "FR-FCFS/16 significantly helps the unit",
             lambda r: _labelled(r)["FR-FCFS/16"][2]
             < _labelled(r)["FIFO/8"][2]),
            ("cpu_insensitive", "the CPU is insensitive to the scheduler",
             lambda r: _flat(_column(r, 1), 1.10)),
        )),
    "abl_barriers": Figure(
        E.abl_barriers, dict(),
        claims=_claims(
            {}, "§III, §IV-E",
            ("software_overhead", "ZGC-style software barriers: up to 15%",
             lambda r: _labelled(r)["software"][1] < 20.0),
            ("vm_trap_storms", "VM traps storm under churn",
             lambda r: _labelled(r)["vm_trap"][2]
             > _labelled(r)["vm_trap"][1] * 10),
            ("refload_beats_software", "REFLOAD is cheaper than software",
             lambda r: _labelled(r)["refload"][1]
             < _labelled(r)["software"][1]),
            ("coherence_beats_software", "coherence is cheaper than software",
             lambda r: _labelled(r)["coherence"][1]
             < _labelled(r)["software"][1]),
            ("vm_trap_quiet", "VM traps are cheapest at low churn",
             lambda r: _labelled(r)["vm_trap"][1]
             < _labelled(r)["refload"][1]),
            ("vm_trap_worst_churn", "VM traps lose to software under churn",
             lambda r: _labelled(r)["vm_trap"][2]
             > _labelled(r)["software"][2]),
        )),
    "abl_superpages": Figure(
        E.abl_superpages, dict(scale=0.03),
        claims=_claims(
            dict(scale=0.04), "§VII",
            ("fewer_walks", "large pages relieve the TLB bottleneck",
             lambda r: _labelled(r)["2 MiB superpages"][2]
             < _labelled(r)["4 KiB pages"][2] / 5),
            ("speedup", "superpages speed up marking",
             lambda r: _labelled(r)["2 MiB superpages"][4] > 1.1),
        )),
    "abl_nonblocking_ptw": Figure(
        E.abl_nonblocking_ptw, dict(scale=0.03),
        claims=_claims(
            dict(scale=0.04), "§VI-A",
            ("baseline_is_one", "blocking walker is the baseline",
             lambda r: _column(r, 3)[0] == 1.0),
            ("speedup", "a non-blocking TLB recovers mark throughput",
             lambda r: _column(r, 3)[-1] > 1.1),
            ("monotone", "more concurrent walks never hurt",
             lambda r: _column(r, 3) == sorted(_column(r, 3))),
        )),
    "abl_throttle": Figure(
        E.abl_throttle, dict(scale=0.03),
        claims=_claims(
            dict(scale=0.04), "§VII",
            ("mark_slows", "tighter throttling lengthens the GC",
             lambda r: _column(r, 1) == sorted(_column(r, 1))),
            ("requests_drop", "tighter throttling frees bandwidth",
             lambda r: _column(r, 3) == sorted(_column(r, 3), reverse=True)),
        )),
    "fleet_slo": Figure(
        E.fleet_slo, dict(scale=0.015, n_gcs=2, n_queries=3000, warmup=150),
        shard=ShardSpec("tenants", fleet_slo_merge),
        base_runs=E.slo_base_runs),
    "fleet_lbo": Figure(
        E.fleet_lbo, dict(scale=0.015, n_gcs=2), base_runs=E.roster_base_runs,
        shard=ShardSpec("fleet_sizes", concat_merge)),
    # One cell per fault roster; each cell rebuilds its whole fleet
    # schedule from the spec, so rows concatenate in axis order.
    "fleet_resilience": Figure(
        E.fleet_resilience, dict(scale=0.015, n_gcs=2, n_queries=2000,
                                 warmup=100, n_units=3),
        shard=ShardSpec("rosters", concat_merge),
        base_runs=E.resilience_base_runs),
}


def bind(exp_id: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Every argument ``exp_id``'s runner takes with ``kwargs``, defaults
    applied. Raises ``TypeError`` on kwargs the runner would reject."""
    bound = inspect.signature(FIGURES[exp_id].runner).bind(**kwargs)
    bound.apply_defaults()
    return bound.arguments


def _none_means(axis: str, args: Dict[str, Any]) -> Sequence[Any]:
    """What a runner does with a ``None`` axis argument (the one default
    binding cannot read off its signature)."""
    if axis == "tenants":
        return range(args["n_tenants"])
    return BENCHMARK_ORDER


def axis_values(exp_id: str, kwargs: Dict[str, Any]) -> Optional[List[Any]]:
    """The axis values ``exp_id`` runs with ``kwargs``, or ``None`` for a
    figure that does not shard."""
    shard = FIGURES[exp_id].shard
    if shard is None:
        return None
    args = bind(exp_id, kwargs)
    values = args[shard.axis]
    return list(_none_means(shard.axis, args) if values is None else values)


def cells(exp_id: str, kwargs: Dict[str, Any]
          ) -> List[Tuple[Any, Dict[str, Any]]]:
    """``(axis value, cell kwargs)`` per axis value, in axis order: the
    cells the sim cache keys and the worker pool dispatches. Empty for a
    figure that runs whole, and for kwargs its runner rejects: run whole,
    the runner reports them as that figure's own error."""
    try:
        values = axis_values(exp_id, kwargs)
    except TypeError:
        return []
    if not values:
        return []
    axis = FIGURES[exp_id].shard.axis
    return [(value, {**kwargs, axis: [value]}) for value in values]


def fleet_base_runs(exp_id: str, kwargs: Dict[str, Any]) -> Tuple[Any, ...]:
    """The :data:`~repro.fleet.timeline.BaseRunKey` list one cell of
    ``exp_id`` reads (the runner's own list, which the worker pool
    simulates ahead of the cell); empty for a non-fleet figure. Raises on
    kwargs the runner would reject."""
    reads = FIGURES[exp_id].base_runs
    if reads is None:
        return ()
    args = bind(exp_id, kwargs)
    return reads(**{name: args[name]
                    for name in inspect.signature(reads).parameters})
