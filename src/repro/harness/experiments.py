"""One experiment runner per figure of the paper's evaluation.

Each ``figNN`` function regenerates the corresponding table/figure: it runs
the simulation at a configurable scale and returns an
:class:`ExperimentResult` holding the same rows/series the paper plots,
together with the paper's claim for side-by-side comparison. Each runner
has one record in :data:`repro.harness.figures.FIGURES`, through which the
EXPERIMENTS.md generator (``python -m repro run-all``) and the paper
claims test (``tests/paper/test_claims.py``) call it.

Scales are chosen so a figure regenerates in seconds-to-minutes of wall
time; the reproduced quantities are ratios and shapes, which are stable
across scale (see DESIGN.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import GCUnitConfig
from repro.core.concurrent.refload import BARRIER_MODELS, BarrierKind
from repro.engine.stats import geomean
from repro.harness.reporting import render_series, render_table
from repro.harness.runners import (
    build_heap,
    run_gc_comparison,
    run_hardware,
    run_software,
    run_sweep_only,
)
from repro.memory.config import (
    CacheConfig,
    DRAMConfig,
    MemorySystemConfig,
    TLBConfig,
)
from repro.power.area import AreaModel
from repro.power.energy import EnergyModel
from repro.swgc.cpu import CPUConfig
from repro.workloads.latency import QuerySimulator, latency_cdf, tail_ratio
from repro.workloads.mutator import MutatorModel
from repro.workloads.profiles import BENCHMARK_ORDER, DACAPO_PROFILES


@dataclass
class ExperimentResult:
    """Rows of one regenerated figure, plus the paper's claim."""

    exp_id: str
    title: str
    paper_claim: str
    headers: Sequence[str]
    rows: List[Sequence[Any]]
    notes: str = ""
    extras: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        parts = [
            f"## {self.exp_id}: {self.title}",
            f"Paper: {self.paper_claim}",
            "",
            render_table(self.headers, self.rows),
        ]
        if self.notes:
            parts.append("")
            parts.append(self.notes)
        return "\n".join(parts)


def _profiles(benchmarks: Optional[Sequence[str]] = None):
    names = benchmarks if benchmarks is not None else BENCHMARK_ORDER
    return [(name, DACAPO_PROFILES[name]) for name in names]


# ---------------------------------------------------------------------------
# Figure 1 — motivation
# ---------------------------------------------------------------------------

def fig01a(scale: float = 0.03, seed: int = 1, n_gcs: int = 3,
           benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Fraction of CPU time spent in GC pauses per benchmark (Fig. 1a)."""
    rows = []
    for name, profile in _profiles(benchmarks):
        built, _cp = build_heap(profile, scale=scale, seed=seed)
        run = MutatorModel(built, collector="sw").run(n_gcs=n_gcs)
        rows.append([
            name,
            100.0 * run.gc_time_fraction,
            100.0 * profile.gc_time_fraction_paper,
            len(run.pauses),
            run.mean_mark_cycles / 1e6,
        ])
    return ExperimentResult(
        exp_id="fig01a",
        title="CPU time spent in GC",
        paper_claim="workloads spend up to ~35% of CPU time in GC pauses",
        headers=["benchmark", "GC time %", "paper %", "pauses",
                 "mean mark ms"],
        rows=rows,
    )


def fig01b(scale: float = 0.03, seed: int = 1, n_gcs: int = 4,
           n_queries: int = 10_000, warmup: int = 1_000) -> ExperimentResult:
    """lusearch query-latency distribution with coordinated omission."""
    built, _cp = build_heap(DACAPO_PROFILES["lusearch"], scale=scale,
                            seed=seed)
    run = MutatorModel(built, collector="sw").run(n_gcs=n_gcs)
    # Scale the open-loop schedule to the simulated pause lengths, keeping
    # the paper's ratios (pauses several times the arrival interval, two
    # orders of magnitude above the median service time).
    mean_pause = run.gc_cycles // max(1, len(run.pauses))
    sim = QuerySimulator(
        run,
        interval_cycles=max(50_000, mean_pause // 6),
        service_mean_cycles=max(4_000, mean_pause // 60),
        seed=seed,
    )
    records = sim.run_queries(n_queries=n_queries, warmup=warmup)
    cdf = latency_cdf(records)
    lat = [r.latency_ms for r in records]
    lat.sort()

    def pct(p: float) -> float:
        idx = min(len(lat) - 1, max(0, int(p / 100.0 * len(lat)) - 1))
        return lat[idx]

    near_gc = sum(1 for r in records if r.near_gc)
    rows = [
        ["p50", pct(50)], ["p90", pct(90)], ["p99", pct(99)],
        ["p99.9", pct(99.9)], ["max", lat[-1]],
        ["tail ratio p99.9/p50", tail_ratio(records)],
        ["queries near GC (%)", 100.0 * near_gc / len(records)],
    ]
    return ExperimentResult(
        exp_id="fig01b",
        title="lusearch query latencies (ms), open-loop, CO-corrected",
        paper_claim="GC pauses introduce stragglers up to two orders of "
        "magnitude longer than the average request",
        headers=["statistic", "latency ms"],
        rows=rows,
        extras={"cdf": cdf, "records": len(records)},
    )


def conc_latency(scale: float = 0.03, seed: int = 1, n_gcs: int = 4,
                 n_queries: int = 10_000, warmup: int = 1_000,
                 benchmark: str = "lusearch") -> ExperimentResult:
    """STW vs concurrent collection under one open-loop query stream.

    Extends Fig. 1b's methodology to the collector §IV-D sketches: the
    same hardware unit runs once stop-the-world and once concurrently
    (mutator racing the mark; pause = termination handshake + sweep), and
    the identical query schedule is replayed against both timelines. The
    percentile gap is pause-attributed by construction.
    """
    from repro.workloads.latency import compare_stw_concurrent

    profile = DACAPO_PROFILES[benchmark]
    built, checkpoint = build_heap(profile, scale=scale, seed=seed)
    stw_run = MutatorModel(built, collector="hw", seed=seed).run(n_gcs=n_gcs)
    built.heap.restore(checkpoint)
    conc_run = MutatorModel(built, collector="concurrent",
                            seed=seed).run(n_gcs=n_gcs)
    comparison = compare_stw_concurrent(
        stw_run, conc_run, n_queries=n_queries, warmup=warmup, seed=seed)
    rows = [[stat, comparison.stw[stat], comparison.concurrent[stat]]
            for stat in ("p50", "p90", "p99", "p99.9", "max")]
    rows.append(["max GC pause", comparison.stw_max_pause_ms,
                 comparison.concurrent_max_pause_ms])
    conc_mark_ms = sum(p.concurrent_mark_cycles
                       for p in conc_run.pauses) / 1e6
    return ExperimentResult(
        exp_id="conc_latency",
        title=f"{benchmark} query latency (ms): STW vs concurrent "
        "collection",
        paper_claim="a concurrent version of the design only pauses the "
        "application for the termination handshake and the sweep (§IV-D), "
        "removing the mark phase from the pause-induced tail",
        headers=["statistic", "STW ms", "concurrent ms"],
        rows=rows,
        notes=f"{conc_mark_ms:.2f} ms of marking overlapped the running "
        "mutator instead of pausing it; schedule derived from the STW "
        f"run (interval {comparison.interval_cycles} cycles).",
        extras={"comparison": comparison},
    )


# ---------------------------------------------------------------------------
# Figure 15 — headline GC performance (DDR3 model)
# ---------------------------------------------------------------------------

def fig15(scale: float = 0.05, seed: int = 1,
          benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Mark/sweep time, CPU vs GC unit, per benchmark (Fig. 15)."""
    rows = []
    mark_speedups, sweep_speedups = [], []
    comparisons = {}
    for name, profile in _profiles(benchmarks):
        comp = run_gc_comparison(profile, scale=scale, seed=seed)
        comparisons[name] = comp
        mark_speedups.append(comp.mark_speedup)
        sweep_speedups.append(comp.sweep_speedup)
        rows.append([
            name, comp.sw.mark_ms, comp.hw.mark_ms, comp.mark_speedup,
            comp.sw.sweep_ms, comp.hw.sweep_ms, comp.sweep_speedup,
        ])
    rows.append([
        "geomean", "", "", geomean(mark_speedups), "", "",
        geomean(sweep_speedups),
    ])
    return ExperimentResult(
        exp_id="fig15",
        title="GC performance, DDR3 model (baseline unit config)",
        paper_claim="the GC unit outperforms the CPU by 4.2x for mark and "
        "1.9x for sweep (2 sweepers)",
        headers=["benchmark", "CPU mark ms", "unit mark ms", "mark x",
                 "CPU sweep ms", "unit sweep ms", "sweep x"],
        rows=rows,
        extras={"comparisons": comparisons},
    )


# ---------------------------------------------------------------------------
# Figure 16 — memory bandwidth over a pause
# ---------------------------------------------------------------------------

def fig16(scale: float = 0.05, seed: int = 1, n_warm_gcs: int = 2,
          bin_cycles: int = 20_000,
          benchmarks: Sequence[str] = ("avrora",)) -> ExperimentResult:
    """Bandwidth during the last GC pause, CPU vs unit, per benchmark.

    Each benchmark is a self-contained cell on a freshly built heap so the
    figure shards along the benchmark axis (and caches per cell) with
    byte-identical rows: no simulator or DRAM state leaks between cells.
    """
    rows = []
    sw_series_all: Dict[str, Any] = {}
    hw_series_all: Dict[str, Any] = {}
    for name, profile in _profiles(benchmarks):
        built, _cp = build_heap(profile, scale=scale, seed=seed)
        heap = built.heap
        # Evolve the heap through a couple of collections ("last GC pause").
        warm = MutatorModel(built, collector="sw")
        warm.run(n_gcs=n_warm_gcs)
        warm.mutate_phase()
        evolved = heap.checkpoint()

        bw = heap.memsys.bandwidth
        start_sw = heap.sim.now
        sw_result, sw_stats = run_software(heap)
        sw_window = (start_sw, heap.sim.now)
        sw_series_all[name] = bw.binned_window(*sw_window,
                                               bin_cycles=bin_cycles)
        sw_bytes = bw.window_bytes(*sw_window)
        sw_requests = sum(v for k, v in sw_stats.items()
                          if k.startswith("mem.requests."))

        heap.restore(evolved)
        hw_result, unit = run_hardware(heap)
        hw_series_all[name] = bw.binned_window(*unit.mark_window,
                                               bin_cycles=bin_cycles)
        hw_window = (unit.mark_window[0], unit.sweep_window[1])
        hw_bytes = bw.window_bytes(*hw_window)
        hw_requests = sum(v for k, v in unit.mark_stats.items()
                          if k.startswith("mem.requests."))
        hw_requests += sum(v for k, v in unit.sweep_stats.items()
                           if k.startswith("mem.requests."))

        sw_cycles = sw_window[1] - sw_window[0]
        hw_cycles = hw_window[1] - hw_window[0]
        # The paper plots bandwidth "based on 64B cache line accesses":
        # each memory request counts as one line access. That is the
        # natural unit for comparing a line-fill CPU against the unit's
        # sub-line requests.
        sw_eq = 64.0 * sw_requests / sw_cycles
        hw_eq = 64.0 * hw_requests / hw_cycles
        rows += [
            [name, "CPU", sw_eq, sw_bytes / sw_cycles,
             sw_result.total_cycles / 1e6],
            [name, "GC unit", hw_eq, hw_bytes / hw_cycles,
             hw_result.total_cycles / 1e6],
            [name, "unit / CPU", hw_eq / sw_eq, (hw_bytes / hw_cycles)
             / (sw_bytes / sw_cycles), ""],
        ]
    return ExperimentResult(
        exp_id="fig16",
        title="Memory bandwidth, last GC pause",
        paper_claim="the unit is far more effective at exploiting memory "
        "bandwidth, particularly during the mark phase (plotted as 64B "
        "line accesses)",
        headers=["benchmark", "collector", "64B-access GB/s",
                 "raw data GB/s", "pause ms"],
        rows=rows,
        extras={"sw_series": sw_series_all,
                "hw_mark_series": hw_series_all},
    )


# ---------------------------------------------------------------------------
# Figure 17 — potential performance (latency-bandwidth pipe)
# ---------------------------------------------------------------------------

def fig17(scale: float = 0.05, seed: int = 1,
          benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Mark speedup and request cadence with the 1-cycle / 8 GB/s pipe."""
    pipe_cfg = MemorySystemConfig(model="pipe")
    rows = []
    speedups = []
    for name, profile in _profiles(benchmarks):
        built, cp = build_heap(profile, scale=scale, seed=seed,
                               config=replace(pipe_cfg))
        comp = run_gc_comparison(profile, built=(built, cp))
        speedups.append(comp.mark_speedup)
        mark_requests = sum(
            v for k, v in comp.hw_mark_stats.items()
            if k.startswith("mem.requests.")
        )
        mark_cycles = comp.hw.mark_cycles
        interval = mark_cycles / mark_requests if mark_requests else 0.0
        data_bytes = (comp.hw_mark_stats.get("dram.bytes_read", 0)
                      + comp.hw_mark_stats.get("dram.bytes_written", 0))
        busy_pct = 100.0 * (data_bytes / 8) / mark_cycles
        rows.append([name, comp.mark_speedup, comp.sweep_speedup, interval,
                     busy_pct, data_bytes / mark_cycles])
    rows.append(["geomean", geomean(speedups), "", "", "", ""])
    return ExperimentResult(
        exp_id="fig17",
        title="GC performance with 1-cycle DRAM and 8 GB/s bandwidth",
        paper_claim="9.0x mark speedup; a request enters the memory system "
        "every 8.66 cycles; the port is busy 88% of mark cycles",
        headers=["benchmark", "mark x", "sweep x", "cycles/request",
                 "port busy %", "GB/s"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 18 — cache partitioning
# ---------------------------------------------------------------------------

def _scaled_tlb_unit(cache_mode: str) -> GCUnitConfig:
    """Unit config with TLB/PTW reach scaled to the heap like the paper's.

    The prototype's 32-entry TLBs reach 128 KB of a 200 MB heap (0.06%) and
    its 8 KB PTW cache covers ~2% of the leaf PTEs. At our reduced heap
    sizes the same entry counts would cover the whole heap, so this config
    scales them down to preserve the miss behaviour that Fig. 18 measures.
    """
    return GCUnitConfig(
        cache_mode=cache_mode,
        tlb=TLBConfig(entries=4),
        l2_tlb_entries=8,
        ptw_cache=CacheConfig(size_bytes=512, ways=2, hit_latency=1, mshrs=1),
        shared_cache=CacheConfig(size_bytes=2 * 1024, ways=4, hit_latency=2,
                                 mshrs=8),
    )


def fig18(scale: float = 0.04, seed: int = 1,
          benchmark: str = "avrora",
          cache_modes: Sequence[str] = ("shared", "partitioned"),
          ) -> ExperimentResult:
    """Traversal-unit request breakdown: shared cache vs partitioned.

    Each cache mode is a self-contained cell on a freshly built heap; a
    mode fills its own column pair and leaves the other mode's columns
    blank, so a run restricted to one mode produces exactly the columns
    the sharding merge overlays back together.
    """
    profile = DACAPO_PROFILES[benchmark]
    sources = ["queue", "tracer", "ptw", "marker"]
    # Column pair (count, %) each mode owns in the combined table.
    mode_cols = {"shared": (1, 2), "partitioned": (3, 4)}
    rows: List[List[Any]] = [[source, "", "", "", ""] for source in sources]
    cycles_row: List[Any] = ["mark cycles", "", "", "", ""]
    for mode in cache_modes:
        count_col, pct_col = mode_cols[mode]
        built, cp = build_heap(profile, scale=scale, seed=seed)
        heap = built.heap
        heap.restore(cp)
        _hw, unit = run_hardware(heap, _scaled_tlb_unit(mode))
        # Shared mode reports what reaches the (shared) L1; partitioned
        # mode reports what reaches memory — the paper's two panels.
        prefix = ("cache.gcu_l1.requests." if mode == "shared"
                  else "mem.requests.")
        reqs = {
            k.rsplit(".", 1)[-1]: v
            for k, v in unit.mark_stats.items()
            if k.startswith(prefix)
        }
        total = sum(reqs.values()) or 1
        for row, source in zip(rows, sources):
            row[count_col] = reqs.get(source, 0)
            row[pct_col] = 100.0 * reqs.get(source, 0) / total
        cycles_row[count_col] = (unit.mark_window[1]
                                 - unit.mark_window[0])
    rows.append(cycles_row)
    return ExperimentResult(
        exp_id="fig18",
        title=f"Traversal-unit requests by source ({benchmark}, "
        "TLB reach scaled to heap)",
        paper_claim="shared cache: 2/3 of L1 requests come from the PTW, "
        "drowning out other units; after partitioning, marker and tracer "
        "dominate the requests that reach memory",
        headers=["source", "shared L1 reqs", "shared %",
                 "partitioned mem reqs", "partitioned %"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 19 — mark-queue size, spilling, compression
# ---------------------------------------------------------------------------

def fig19(scale: float = 0.04, seed: int = 1,
          benchmark: str = "luindex",
          queue_entries: Sequence[int] = (128, 512, 2048, 16384),
          ) -> ExperimentResult:
    """Spill traffic and mark time vs mark-queue size (Fig. 19).

    Each queue size is a self-contained cell on a freshly built heap (the
    three per-size configs still share that cell's heap), so the figure
    shards along the queue-size axis with byte-identical rows.
    """
    profile = DACAPO_PROFILES[benchmark]
    configs = [
        ("TQ=128", dict(tracer_queue_entries=128)),
        ("TQ=8", dict(tracer_queue_entries=8)),
        ("Comp.", dict(tracer_queue_entries=128, address_compression=True)),
    ]
    rows = []
    for entries in queue_entries:
        built, cp = build_heap(profile, scale=scale, seed=seed)
        heap = built.heap
        for label, overrides in configs:
            heap.restore(cp)
            cfg = GCUnitConfig(mark_queue_entries=entries, **overrides)
            hw, unit = run_hardware(heap, cfg)
            total_requests = sum(
                v for k, v in unit.mark_stats.items()
                if k.startswith("mem.requests.")
            )
            spill_requests = hw.spill_writes + hw.spill_reads
            rows.append([
                cfg.mark_queue_bytes / 1024, label, spill_requests,
                100.0 * spill_requests / max(1, total_requests),
                hw.mark_ms, hw.spilled_entries,
            ])
    return ExperimentResult(
        exp_id="fig19",
        title=f"Mark-queue size trade-offs ({benchmark})",
        paper_claim="spilling accounts for only ~2% of memory requests; "
        "queue size barely affects mark time; compression reduces spilling "
        "by 2x",
        headers=["queue KB", "config", "spill reqs", "spill % of reqs",
                 "mark ms", "entries spilled"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 20 — block-sweeper scaling
# ---------------------------------------------------------------------------

def fig20(scale: float = 0.03, seed: int = 1,
          sweeper_counts: Sequence[int] = (1, 2, 3, 4, 6, 8),
          benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Sweep speedup vs number of block sweepers (Fig. 20)."""
    rows = []
    for name, profile in _profiles(benchmarks):
        built, cp = build_heap(profile, scale=scale, seed=seed)
        heap = built.heap
        sw_result, _stats = run_software(heap)
        sw_sweep = sw_result.sweep_cycles
        # Re-run the mark once with the unit, checkpoint the marked heap,
        # then sweep it under each sweeper count.
        heap.restore(cp)
        from repro.core.unit import GCUnit
        unit = GCUnit(heap, GCUnitConfig())
        unit.mark()
        marked = heap.checkpoint()
        speedups = []
        for n in sweeper_counts:
            heap.restore(marked)
            sweep_cycles, _recl = run_sweep_only(
                heap, GCUnitConfig(n_sweepers=n)
            )
            speedups.append(sw_sweep / sweep_cycles)
        rows.append([name] + speedups)
    return ExperimentResult(
        exp_id="fig20",
        title="Sweep speedup vs software, by number of block sweepers",
        paper_claim="linear scaling to 2 sweepers, diminishing beyond "
        "(DRAM contention); 4 sweepers outperform the CPU by 2-3x",
        headers=["benchmark"] + [f"{n} sweepers" for n in sweeper_counts],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 21 — mark-bit cache
# ---------------------------------------------------------------------------

def fig21(scale: float = 0.05, seed: int = 1, n_warm_gcs: int = 2,
          cache_sizes: Sequence[int] = (0, 16, 64, 105, 128, 256),
          benchmark: str = "luindex") -> ExperimentResult:
    """Object access frequencies and mark-bit-cache filtering (Fig. 21).

    Each cache size is a self-contained cell: the measured mark runs on a
    *freshly built* heap (zeroed simulator, cold DRAM) restored to the
    deterministically evolved image, so any subset of sizes produces
    exactly the rows of the full sweep — the property the sharding merge
    and the simulation cache rely on.
    """
    profile = DACAPO_PROFILES[benchmark]
    built, _cp = build_heap(profile, scale=scale, seed=seed)
    heap = built.heap
    # Evolve the heap (the paper samples the 8th GC of luindex). The warm
    # phase is deterministic from the fresh build, so every process that
    # runs a cell reconstructs the identical evolved image.
    warm = MutatorModel(built, collector="hw")
    warm.run(n_gcs=n_warm_gcs)
    warm.mutate_phase()
    evolved = heap.checkpoint()

    # (a) access-frequency histogram from the live graph.
    counts: Dict[int, int] = {}
    for root in heap.roots.read_all():
        if root:
            counts[root] = counts.get(root, 0) + 1
    for addr in heap.reachable():
        for ref in heap.view(addr).refs():
            counts[ref] = counts.get(ref, 0) + 1
    total_accesses = sum(counts.values())
    by_count = sorted(counts.values(), reverse=True)
    top56 = sum(by_count[:56])

    # (b) filter effectiveness per cache size, each on a fresh heap.
    rows = []
    for size in cache_sizes:
        cell_built, _ = build_heap(profile, scale=scale, seed=seed)
        cell_heap = cell_built.heap
        cell_heap.restore(evolved)
        hw, _unit = run_hardware(
            cell_heap, GCUnitConfig(mark_bit_cache_entries=size)
        )
        duplicates = hw.objects_requeued + hw.counters["marker_filtered"]
        filtered_pct = (100.0 * hw.counters["marker_filtered"]
                        / max(1, duplicates))
        rows.append([size, hw.counters["marker_filtered"], duplicates,
                     filtered_pct, hw.mark_ms])
    return ExperimentResult(
        exp_id="fig21",
        title=f"Mark-bit cache ({benchmark} after {n_warm_gcs + 1} GCs)",
        paper_claim="~56 objects account for ~10% of mark accesses; a "
        "small cache filters them with little effect on mark time",
        headers=["cache entries", "filtered", "duplicate accesses",
                 "filtered %", "mark ms"],
        rows=rows,
        extras={
            "top56_share_pct": 100.0 * top56 / max(1, total_accesses),
            "access_histogram": by_count[:200],
            "total_accesses": total_accesses,
        },
    )


# ---------------------------------------------------------------------------
# Figure 22 — area
# ---------------------------------------------------------------------------

def fig22(config: Optional[GCUnitConfig] = None) -> ExperimentResult:
    """Area estimates (Fig. 22)."""
    model = AreaModel()
    config = config if config is not None else GCUnitConfig()
    rows = [["[a] " + k, v] for k, v in model.totals(config).items()]
    rows += [["[b] Rocket / " + k, v]
             for k, v in model.rocket_breakdown().items()]
    rows += [["[c] GC unit / " + k, v]
             for k, v in model.unit_breakdown(config).items()]
    rows.append(["unit/Rocket ratio %", 100.0 * model.unit_to_rocket_ratio(config)])
    rows.append(["unit SRAM-equivalent KB", model.sram_equivalent_kb(config)])
    return ExperimentResult(
        exp_id="fig22",
        title="Area (mm^2, SAED EDK 32/28-anchored model)",
        paper_claim="the GC unit is 18.5% the size of the Rocket CPU, "
        "equivalent to ~64 KB of SRAM; the mark queue dominates",
        headers=["component", "mm^2"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 23 — power and energy
# ---------------------------------------------------------------------------

def fig23(scale: float = 0.05, seed: int = 1,
          benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    """DRAM power and total energy per pause, CPU vs unit (Fig. 23)."""
    model = EnergyModel()
    rows = []
    savings = []
    for name, profile in _profiles(benchmarks):
        comp = run_gc_comparison(profile, scale=scale, seed=seed)
        hw_stats = dict(comp.hw_mark_stats)
        for k, v in comp.hw_sweep_stats.items():
            hw_stats[k] = hw_stats.get(k, 0) + v
        e_sw = model.pause_energy(name, "sw", comp.sw.total_cycles,
                                  comp.sw_stats)
        e_hw = model.pause_energy(name, "hw", comp.hw.total_cycles, hw_stats)
        saving = EnergyModel.savings(e_sw, e_hw)
        savings.append(saving)
        rows.append([
            name, e_sw.dram.dynamic_mw, e_hw.dram.dynamic_mw,
            e_sw.attributable_mj, e_hw.attributable_mj, 100.0 * saving,
        ])
    rows.append(["mean", "", "", "", "",
                 100.0 * sum(savings) / len(savings)])
    return ExperimentResult(
        exp_id="fig23",
        title="DRAM power and GC energy per pause",
        paper_claim="the unit's DRAM power is much higher, but overall GC "
        "energy improves (~14.5% in the paper's estimate)",
        headers=["benchmark", "CPU DRAM mW", "unit DRAM mW", "CPU mJ",
                 "unit mJ", "energy saving %"],
        rows=rows,
        notes="Scale sensitivity: below scale~0.03 the simulated heap fits "
        "the CPU's caches (a regime the paper's 200 MB heaps never enter) "
        "and the comparison flips; run at scale>=0.05 for the paper-like "
        "regime.",
    )


# ---------------------------------------------------------------------------
# Ablations (design choices called out in §IV/§VI)
# ---------------------------------------------------------------------------

def abl_layout(scale: float = 0.04, seed: int = 1,
               benchmarks: Sequence[str] = ("avrora", "pmd"),
               ) -> ExperimentResult:
    """Bidirectional vs conventional (TIB) layout cost on the CPU mark."""
    rows = []
    for name in benchmarks:
        profile = DACAPO_PROFILES[name]
        built, cp = build_heap(profile, scale=scale, seed=seed)
        heap = built.heap
        bi, _ = run_software(heap, layout="bidirectional")
        heap.restore(cp)
        conv, _ = run_software(heap, layout="conventional")
        rows.append([name, bi.mark_ms, conv.mark_ms,
                     conv.mark_cycles / bi.mark_cycles])
    return ExperimentResult(
        exp_id="abl_layout",
        title="Object-layout ablation (software mark)",
        paper_claim="the conventional TIB layout adds two accesses per "
        "object; bidirectional eliminates them (§IV-A idea I)",
        headers=["benchmark", "bidirectional ms", "conventional ms",
                 "conv/bidir"],
        rows=rows,
    )


def abl_decoupling(scale: float = 0.04, seed: int = 1,
                   benchmark: str = "pmd") -> ExperimentResult:
    """Decoupled marker/tracer vs a tightly coupled pipeline (idea II/III)."""
    profile = DACAPO_PROFILES[benchmark]
    built, cp = build_heap(profile, scale=scale, seed=seed)
    heap = built.heap
    rows = []
    for label, tq, slots in (("decoupled (TQ=128, 16 slots)", 128, 16),
                             ("coupled (TQ=1, 16 slots)", 1, 16),
                             ("single-slot marker", 128, 1)):
        heap.restore(cp)
        hw, _unit = run_hardware(
            heap, GCUnitConfig(tracer_queue_entries=tq, marker_slots=slots)
        )
        rows.append([label, hw.mark_ms])
    base = rows[0][1]
    for row in rows:
        row.append(row[1] / base)
    return ExperimentResult(
        exp_id="abl_decoupling",
        title=f"Marker/tracer decoupling ablation ({benchmark})",
        paper_claim="decoupling marking and tracing via the tracer queue "
        "lets the unit use bandwidth a control-flow-limited CPU cannot",
        headers=["configuration", "mark ms", "vs decoupled"],
        rows=rows,
    )


def abl_scheduler(scale: float = 0.04, seed: int = 1,
                  benchmark: str = "avrora") -> ExperimentResult:
    """FR-FCFS vs FIFO memory scheduling, 8 vs 16 outstanding reads."""
    profile = DACAPO_PROFILES[benchmark]
    rows = []
    results = {}
    for label, sched, window in (("FR-FCFS/16", "frfcfs", 16),
                                 ("FR-FCFS/8", "frfcfs", 8),
                                 ("FIFO/16", "fifo", 16),
                                 ("FIFO/8", "fifo", 8)):
        mem_cfg = MemorySystemConfig(
            dram=DRAMConfig(scheduler=sched, read_window=window)
        )
        comp = run_gc_comparison(profile, scale=scale, seed=seed,
                                 memsys_config=mem_cfg)
        results[label] = comp
        rows.append([label, comp.sw.mark_ms, comp.hw.mark_ms,
                     comp.mark_speedup])
    return ExperimentResult(
        exp_id="abl_scheduler",
        title=f"Memory-access-scheduler ablation ({benchmark})",
        paper_claim="performance significantly improved changing from FIFO "
        "MAS to FR-FCFS and raising outstanding reads from 8 to 16; Rocket "
        "was insensitive to the configuration",
        headers=["scheduler", "CPU mark ms", "unit mark ms", "mark x"],
        rows=rows,
    )


def abl_barriers(mutator_cycles: int = 100_000_000,
                 ref_ops: int = 4_000_000) -> ExperimentResult:
    """Barrier-design cost comparison (§III, §IV-E)."""
    rows = []
    for kind in (BarrierKind.SOFTWARE_CONDITIONAL, BarrierKind.VM_TRAP,
                 BarrierKind.COHERENCE, BarrierKind.REFLOAD):
        model = BARRIER_MODELS[kind]
        quiet = model.slowdown(mutator_cycles, ref_ops, slow_fraction=1e-4)
        churn = model.slowdown(mutator_cycles, ref_ops, slow_fraction=2e-2)
        rows.append([kind.value, 100.0 * (quiet - 1.0),
                     100.0 * (churn - 1.0)])
    return ExperimentResult(
        exp_id="abl_barriers",
        title="Concurrent-GC barrier overheads (analytic, one guarded op "
        "per 25 cycles)",
        paper_claim="ZGC-style software barriers target up to 15% "
        "slow-down; trap-based designs suffer trap storms under churn; the "
        "coherence/REFLOAD designs avoid both",
        headers=["barrier", "overhead % (low churn)",
                 "overhead % (high churn)"],
        rows=rows,
    )


def abl_superpages(scale: float = 0.04, seed: int = 1,
                   benchmark: str = "avrora") -> ExperimentResult:
    """Superpages vs 4 KiB pages under TLB pressure (§VII).

    Uses reach-scaled TLBs (as in fig18) so translation pressure at our
    heap sizes matches the paper's 200 MB regime.
    """
    profile = DACAPO_PROFILES[benchmark]
    rows = []
    for label, use_super in (("4 KiB pages", False), ("2 MiB superpages", True)):
        mem_cfg = MemorySystemConfig(use_superpages=use_super)
        built, cp = build_heap(profile, scale=scale, seed=seed,
                               config=mem_cfg)
        heap = built.heap
        heap.restore(cp)
        cfg = _scaled_tlb_unit("partitioned")
        hw, unit = run_hardware(heap, cfg)
        walks = unit.mark_stats.get("ptw.walks", 0)
        pte_reads = unit.mark_stats.get("ptw.pte_reads", 0)
        rows.append([label, hw.mark_ms, walks, pte_reads])
    base = rows[0][1]
    for row in rows:
        row.append(base / row[1])
    return ExperimentResult(
        exp_id="abl_superpages",
        title=f"Page-size ablation ({benchmark}, reach-scaled TLBs)",
        paper_claim="the TLB is currently a bottleneck, but large heaps "
        "could use superpages instead of 4KB pages (§VII)",
        headers=["mapping", "mark ms", "PTW walks", "PTE reads",
                 "speedup vs 4KiB"],
        rows=rows,
    )


def abl_nonblocking_ptw(scale: float = 0.04, seed: int = 1,
                        benchmark: str = "avrora") -> ExperimentResult:
    """Blocking vs concurrent page-table walker (§VI-A future work)."""
    profile = DACAPO_PROFILES[benchmark]
    built, cp = build_heap(profile, scale=scale, seed=seed)
    heap = built.heap
    rows = []
    for label, walks, mshrs in (("blocking PTW (paper)", 1, 1),
                                ("2 concurrent walks", 2, 2),
                                ("4 concurrent walks", 4, 4)):
        heap.restore(cp)
        cfg = _scaled_tlb_unit("partitioned")
        cfg = replace(cfg, ptw_concurrent_walks=walks,
                      ptw_cache=replace(cfg.ptw_cache, mshrs=mshrs))
        hw, _unit = run_hardware(heap, cfg)
        rows.append([label, hw.mark_ms, hw.sweep_ms])
    base = rows[0][1]
    for row in rows:
        row.append(base / row[1])
    return ExperimentResult(
        exp_id="abl_nonblocking_ptw",
        title=f"Page-table-walker concurrency ({benchmark}, reach-scaled "
        "TLBs)",
        paper_claim="future work should introduce a non-blocking TLB that "
        "can perform multiple page-table walks concurrently (§VI-A)",
        headers=["walker", "mark ms", "sweep ms", "mark speedup"],
        rows=rows,
    )


def abl_throttle(scale: float = 0.04, seed: int = 1,
                 benchmark: str = "avrora",
                 intervals=(None, 8, 16, 32)) -> ExperimentResult:
    """Bandwidth throttling of the unit (§VII)."""
    profile = DACAPO_PROFILES[benchmark]
    built, cp = build_heap(profile, scale=scale, seed=seed)
    heap = built.heap
    rows = []
    for interval in intervals:
        heap.restore(cp)
        hw, unit = run_hardware(
            heap, GCUnitConfig(bandwidth_throttle=interval)
        )
        requests = sum(v for k, v in unit.mark_stats.items()
                       if k.startswith("mem.requests."))
        label = "unthrottled" if interval is None else f"1 req / {interval} cy"
        rows.append([
            label, hw.mark_ms, hw.sweep_ms,
            requests / max(1, hw.mark_cycles),
        ])
    return ExperimentResult(
        exp_id="abl_throttle",
        title=f"Bandwidth-throttling ablation ({benchmark})",
        paper_claim="interference could be reduced by communicating with "
        "the memory controller to only use residual bandwidth; switching "
        "units on and off would let a concurrent GC throttle or boost "
        "tracing (§VII)",
        headers=["throttle", "mark ms", "sweep ms", "requests/cycle"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Fleet figures — multi-tenant GC under SLO (ROADMAP item 2)
# ---------------------------------------------------------------------------

def fleet_slo(scale: float = 0.015, seed: int = 1, n_gcs: int = 2,
              n_tenants: int = 4, n_queries: int = 3000, warmup: int = 150,
              policies: Sequence[str] = ("dedicated", "shared", "software"),
              n_units: int = 1, dram_tax: float = 0.25,
              shed_backlog_intervals: int = 0,
              profiles_cycle: Optional[Sequence[str]] = None,
              tenants: Optional[Sequence[int]] = None) -> ExperimentResult:
    """Per-tenant tail latency and GC tax under fleet scheduling policies.

    One seeded open-loop arrival stream is sprayed across ``n_tenants``
    mixed-profile instances; each policy arbitrates their collections
    (dedicated unit per tenant / shared units behind a FIFO admission
    queue with a DRAM contention tax / software fallback) and every
    tenant replays its slice of the *identical* schedule against its
    adjusted pause timeline. ``tenants`` restricts which tenants are
    replayed — the shard/cache cell axis; the fleet schedule itself is
    always derived from the full roster, so any subset reproduces its
    rows byte-identically.
    """
    reads = slo_base_runs(scale, seed, n_gcs, n_tenants, policies,
                          profiles_cycle)
    from repro.fleet.report import SLO_HEADERS, fleet_summary_rows, \
        simulate_fleet
    from repro.fleet.spec import DEFAULT_PROFILES_CYCLE, FleetSpec
    from repro.fleet.timeline import BaseRuns

    spec = FleetSpec(
        n_tenants=n_tenants,
        profiles_cycle=tuple(profiles_cycle) if profiles_cycle is not None
        else DEFAULT_PROFILES_CYCLE,
        scale=scale, seed=seed, n_gcs=n_gcs,
        n_queries=n_queries, warmup=warmup,
        n_units=n_units, dram_tax=dram_tax,
        shed_backlog_intervals=shed_backlog_intervals,
    )
    result = simulate_fleet(spec, policies=tuple(policies),
                            tenant_indices=tenants,
                            base_runs=BaseRuns(reads))
    rows = result.rows()
    return ExperimentResult(
        exp_id="fleet_slo",
        title=f"fleet SLO report: {n_tenants} tenants, "
        f"{n_units} shared unit(s)",
        paper_claim="in tail-latency-sensitive workloads, the effective "
        "performance impact of GC pauses is even higher than the raw CPU "
        "share (§I); a decoupled accelerator serves collections off the "
        "critical path",
        headers=list(SLO_HEADERS),
        rows=rows + fleet_summary_rows(rows),
        notes=f"open-loop schedule derived from the roster's hardware "
        f"base runs: one query per {result.interval_cycles} cycles, mean "
        f"service {result.service_mean_cycles} cycles; latency columns "
        "are per-tenant percentiles (fleet rows: worst tenant), goodput "
        "counts queries completed inside the run horizon.",
    )


def fleet_lbo(scale: float = 0.015, seed: int = 1, n_gcs: int = 2,
              fleet_sizes: Sequence[int] = (2, 4),
              collectors: Sequence[str] = ("sw", "hw", "concurrent"),
              profiles_cycle: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Lower-bound GC overhead per collector (Cai et al.), per fleet size."""
    reads = roster_base_runs(scale, seed, n_gcs, fleet_sizes, collectors,
                             profiles_cycle)
    from repro.fleet.lbo import LBO_HEADERS, fleet_lbo_rows
    from repro.fleet.spec import DEFAULT_PROFILES_CYCLE
    from repro.fleet.timeline import BaseRuns

    rows = fleet_lbo_rows(
        scale=scale, seed=seed, n_gcs=n_gcs, fleet_sizes=tuple(fleet_sizes),
        collectors=tuple(collectors),
        profiles_cycle=tuple(profiles_cycle) if profiles_cycle is not None
        else DEFAULT_PROFILES_CYCLE,
        base_runs=BaseRuns(reads),
    )
    return ExperimentResult(
        exp_id="fleet_lbo",
        title="lower-bound GC overhead (LBO) per collector",
        paper_claim="Cai et al.: the cheapest observed configuration is an "
        "empirical baseline no real no-GC run could beat, so cost "
        "inflation over it lower-bounds the true GC overhead",
        headers=list(LBO_HEADERS),
        rows=rows,
        notes="cost = simulated wall cycles per tenant (geomean); the "
        "baseline is each tenant's cheapest of the three collectors; GC "
        "work % includes marking the concurrent collector overlapped "
        "with the mutator. Deviations from Cai et al. in DESIGN §15.",
    )


def fleet_resilience(scale: float = 0.015, seed: int = 1, n_gcs: int = 2,
                     n_tenants: int = 4, n_queries: int = 2000,
                     warmup: int = 100, n_units: int = 3,
                     dram_tax: float = 0.25,
                     failover_backoff_cycles: int = 50_000,
                     failover_retries: int = 3,
                     failover_timeout_cycles: int = 1_000_000,
                     profiles_cycle: Optional[Sequence[str]] = None,
                     rosters: Optional[Sequence[Sequence[str]]] = None
                     ) -> ExperimentResult:
    """Fleet goodput and tail latency under unit outages and brownouts.

    One fleet-level row per fault roster, all under the ``shared`` policy
    with failover armed: grants in flight on a crashed unit re-queue
    earliest-request-first onto the survivors with exponential backoff,
    and a request that exhausts its retry budget or its patience budget
    is served by the tenant's software collector (degraded mode, taxed
    honestly in its own column). ``rosters`` — ``(label, fault spec)``
    pairs — is the shard/cache cell axis: every cell recomputes its
    whole fleet schedule from the spec, so any roster subset reproduces
    its row byte-identically.
    """
    reads = resilience_base_runs(scale, seed, n_gcs, n_tenants,
                                 profiles_cycle, rosters)
    from repro.fleet.faults import DEFAULT_RESILIENCE_ROSTERS
    from repro.fleet.report import RESILIENCE_HEADERS, fleet_resilience_row
    from repro.fleet.spec import DEFAULT_PROFILES_CYCLE, FleetSpec
    from repro.fleet.timeline import BaseRuns

    if rosters is None:
        rosters = DEFAULT_RESILIENCE_ROSTERS
    spec = FleetSpec(
        n_tenants=n_tenants,
        profiles_cycle=tuple(profiles_cycle) if profiles_cycle is not None
        else DEFAULT_PROFILES_CYCLE,
        scale=scale, seed=seed, n_gcs=n_gcs,
        n_queries=n_queries, warmup=warmup,
        n_units=n_units, dram_tax=dram_tax,
        failover_backoff_cycles=failover_backoff_cycles,
        failover_retries=failover_retries,
        failover_timeout_cycles=failover_timeout_cycles,
    )
    base_runs = BaseRuns(reads)
    rows = [fleet_resilience_row(label, spec, faults_spec, base_runs)
            for label, faults_spec in rosters]
    return ExperimentResult(
        exp_id="fleet_resilience",
        title=f"fleet resilience: {n_tenants} tenants, {n_units} units, "
        f"fault drills",
        paper_claim="by replacing libhwgc, we can swap in a software "
        "implementation of our GC (§V-E) — at fleet scale that escape "
        "hatch is failover plus per-tenant software fallback, and the "
        "SLO report must price the degraded mode honestly",
        headers=list(RESILIENCE_HEADERS),
        rows=rows,
        notes="shared policy only (the dedicated/software baselines have "
        "no shared pool to fail); latency and availability columns take "
        "the worst tenant, counts sum; 'cancelled' are collections of "
        "crashed tenants (their later arrivals are shed and counted); "
        "conservation (arrived == done + in-flight + shed) is asserted "
        "per tenant before any row renders.",
    )


def roster_base_runs(scale: float, seed: int, n_gcs: int,
                     fleet_sizes: Sequence[int],
                     collectors: Sequence[str],
                     profiles_cycle: Optional[Sequence[str]]
                     ) -> Tuple[Any, ...]:
    """Each collector's base run of every profile in fleets of
    ``fleet_sizes`` — what ``fleet_lbo`` reads."""
    from repro.fleet.spec import DEFAULT_PROFILES_CYCLE, FleetSpec

    cycle = (tuple(profiles_cycle) if profiles_cycle is not None
             else DEFAULT_PROFILES_CYCLE)
    keys: Dict[Any, None] = {}
    for collector in collectors:
        for size in fleet_sizes:
            for tenant in FleetSpec(n_tenants=size, profiles_cycle=cycle,
                                    scale=scale, seed=seed,
                                    n_gcs=n_gcs).tenants():
                keys[(tenant.benchmark, collector, scale, seed, n_gcs)] = None
    return tuple(keys)


def slo_base_runs(scale, seed, n_gcs, n_tenants, policies, profiles_cycle):
    """The base runs one ``fleet_slo`` cell reads."""
    # The query schedule derives from the hardware runs whatever the
    # policies; only the software policy reads the software runs.
    collectors = ("hw", "sw") if "software" in policies else ("hw",)
    return roster_base_runs(scale, seed, n_gcs, (n_tenants,), collectors,
                            profiles_cycle)


def resilience_base_runs(scale, seed, n_gcs, n_tenants, profiles_cycle,
                         rosters):
    """The base runs one ``fleet_resilience`` cell reads."""
    from repro.fleet.faults import DEFAULT_RESILIENCE_ROSTERS, FleetFaultSpec

    # An empty fault spec is the fault-free run, which never reads the
    # software fallback's runs.
    armed = any(FleetFaultSpec.parse(spec) for _label, spec in
                (rosters if rosters is not None
                 else DEFAULT_RESILIENCE_ROSTERS))
    return roster_base_runs(scale, seed, n_gcs, (n_tenants,),
                            ("hw", "sw") if armed else ("hw",),
                            profiles_cycle)
