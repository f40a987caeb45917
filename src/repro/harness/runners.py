"""Shared experiment plumbing: build heaps, run both collectors, compare.

The pattern every figure uses: generate a profile's heap once, checkpoint
it, collect with the software baseline, restore, collect with the unit
(possibly across a sweep of unit configurations), and report per-phase
cycles plus memory-system stat deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.core.config import GCUnitConfig, HardwareGCResult
from repro.core.unit import GCUnit
from repro.heap.heapimage import HeapCheckpoint, ManagedHeap
from repro.memory.config import MemorySystemConfig
from repro.swgc.cpu import CPUConfig
from repro.swgc.marksweep import SoftwareCollector, SoftwareGCResult
from repro.workloads.graphgen import BuiltHeap, HeapGraphBuilder
from repro.workloads.profiles import BenchmarkProfile

#: Default scale for harness runs: ~12-20k objects per heap, a few seconds
#: of simulation per collector. Figures that sweep many configurations use
#: smaller scales (set per experiment).
DEFAULT_SCALE = 0.05


def build_heap(
    profile: BenchmarkProfile,
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    config: Optional[MemorySystemConfig] = None,
) -> Tuple[BuiltHeap, HeapCheckpoint]:
    """Generate a heap and checkpoint it for repeated collections.

    Builds are memoized through :mod:`repro.harness.heapcache`: repeated
    requests for the same ``(profile, scale, seed, config)`` reconstruct a
    fresh heap from the cached checkpoint instead of regenerating the
    object graph. Set ``REPRO_HEAP_CACHE`` to also persist builds on disk.
    """
    from repro.harness.heapcache import get_cache

    return get_cache().get_or_build(profile, scale, seed, config)


def run_software(
    heap: ManagedHeap,
    cpu_config: Optional[CPUConfig] = None,
    layout: str = "bidirectional",
) -> Tuple[SoftwareGCResult, Dict[str, int]]:
    """Run the CPU baseline; returns (result, memory-stat delta)."""
    before = heap.memsys.stats.as_dict()
    result = SoftwareCollector(heap, cpu_config=cpu_config,
                               layout=layout).collect()
    after = heap.memsys.stats.as_dict()
    delta = {k: v - before.get(k, 0) for k, v in after.items()
             if v != before.get(k, 0)}
    return result, delta


def run_hardware(
    heap: ManagedHeap,
    config: Optional[GCUnitConfig] = None,
) -> Tuple[HardwareGCResult, GCUnit]:
    """Run the GC unit; returns (result, the unit with per-phase stats)."""
    unit = GCUnit(heap, config)
    result = unit.collect()
    return result, unit


def run_sweep_only(
    heap: ManagedHeap,
    config: Optional[GCUnitConfig] = None,
) -> Tuple[int, "object"]:
    """Run just the reclamation unit on an already-marked heap.

    Used by sweeps over sweeper counts (Fig. 20): the mark phase does not
    depend on ``n_sweepers``, so it is run once and checkpointed.
    Returns (sweep_cycles, reclamation_unit).
    """
    from repro.core.sweeper import ReclamationUnit
    from repro.memory.cache import Cache
    from repro.memory.paging import VIRT_OFFSET
    from repro.memory.ptw import PageTableWalker
    from repro.memory.tlb import TLB, SharedL2TLB

    config = config if config is not None else GCUnitConfig()
    sim = heap.sim
    memsys = heap.memsys
    ptw_cache = Cache(sim, config.ptw_cache, memsys.model, name="ptw_cache",
                      stats=memsys.stats)
    ptw = PageTableWalker(sim, memsys.page_table, ptw_cache, source="ptw",
                          stats=memsys.stats)
    tlb = TLB(sim, config.tlb, ptw, name="recl",
              l2=SharedL2TLB(config.l2_tlb_entries), stats=memsys.stats)
    unit = ReclamationUnit(
        sim, memsys.phys, heap.block_list,
        lambda source: memsys.port(source), tlb,
        mark_parity=heap.mark_parity, virt_offset=VIRT_OFFSET,
        n_sweepers=config.n_sweepers, sweeper_slots=config.sweeper_slots,
        stats=memsys.stats,
    )
    start = sim.now
    done = unit.sweep()
    sim.run_until(done)
    return sim.now - start, unit


def attempt_stats() -> Dict[str, float]:
    """Process-level resource snapshot for per-attempt accounting.

    Workers attach this to each attempt record so the suite runner can
    annotate retries with CPU time and peak RSS — the signal that
    distinguishes an OOM-killed attempt (rss climbing to the cgroup limit)
    from a plain crash. Values are cumulative for the calling process;
    the suite runner subtracts a pre-task snapshot to get one attempt's.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return {}
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": round(ru.ru_utime + ru.ru_stime, 3),
            "max_rss_kb": float(ru.ru_maxrss)}


@dataclass
class GCComparison:
    """One benchmark, both collectors, same heap."""

    benchmark: str
    sw: SoftwareGCResult
    hw: HardwareGCResult
    sw_stats: Dict[str, int] = field(default_factory=dict)
    hw_mark_stats: Dict[str, int] = field(default_factory=dict)
    hw_sweep_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def mark_speedup(self) -> float:
        return self.sw.mark_cycles / self.hw.mark_cycles

    @property
    def sweep_speedup(self) -> float:
        return self.sw.sweep_cycles / self.hw.sweep_cycles

    @property
    def overall_speedup(self) -> float:
        return self.sw.total_cycles / self.hw.total_cycles

    def summary(self) -> str:
        return (
            f"{self.benchmark}: mark {self.sw.mark_ms:.2f}ms -> "
            f"{self.hw.mark_ms:.2f}ms (x{self.mark_speedup:.2f}), sweep "
            f"{self.sw.sweep_ms:.2f}ms -> {self.hw.sweep_ms:.2f}ms "
            f"(x{self.sweep_speedup:.2f})"
        )


def run_gc_comparison(
    profile: BenchmarkProfile,
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    unit_config: Optional[GCUnitConfig] = None,
    cpu_config: Optional[CPUConfig] = None,
    memsys_config: Optional[MemorySystemConfig] = None,
    built: Optional[Tuple[BuiltHeap, HeapCheckpoint]] = None,
) -> GCComparison:
    """Collect one generated heap with both collectors and compare.

    Both collectors see the byte-identical heap (checkpoint/restore), and
    the results are cross-checked: identical mark counts and identical
    free-cell counts, or the comparison raises.
    """
    if built is None:
        built = build_heap(profile, scale=scale, seed=seed,
                           config=memsys_config)
    built_heap, checkpoint = built
    heap = built_heap.heap
    heap.restore(checkpoint)
    sw_result, sw_stats = run_software(heap, cpu_config=cpu_config)
    sw_free = heap.check_free_lists()
    heap.restore(checkpoint)
    hw_result, unit = run_hardware(heap, unit_config)
    hw_free = heap.check_free_lists()
    if sw_result.objects_marked != hw_result.objects_marked:
        raise AssertionError(
            f"collector divergence on {profile.name}: SW marked "
            f"{sw_result.objects_marked}, HW {hw_result.objects_marked}"
        )
    if sw_free != hw_free:
        raise AssertionError(
            f"free-list divergence on {profile.name}: SW {sw_free} cells, "
            f"HW {hw_free}"
        )
    return GCComparison(
        benchmark=profile.name,
        sw=sw_result,
        hw=hw_result,
        sw_stats=sw_stats,
        hw_mark_stats=unit.mark_stats,
        hw_sweep_stats=unit.sweep_stats,
    )
