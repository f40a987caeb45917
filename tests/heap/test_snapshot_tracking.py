"""Block-sparse snapshots against every writer of the physical image.

``PhysicalMemory.snapshot`` copies only :meth:`live_blocks` and a restore
of the clean point copies back only the dirty blocks, so a writer that
bypasses the write helpers without ``note_dirty`` would silently drop out
of snapshots and restores. Each test here runs one real writer of the
image — a heap build, a software collection, a hardware mark and sweep, a
concurrent cycle with relocation, an armed ``corrupt`` fault,
``map_linear`` — and checks both halves of the tracking invariant:

* every nonzero word lies in a live block (what ``snapshot`` copies);
* every word changed since the clean point lies in a dirty block (what a
  restore of the clean point copies back).

The second file half guards resident memory: a checkpoint or a heap-cache
hit must cost about what the heap occupies, not the image size.
"""

import os
import sys

import numpy as np
import pytest

from repro.core.config import GCUnitConfig
from repro.core.driver import HWGCDriver
from repro.engine.faultplane import parse_hwfault_spec
from repro.harness.heapcache import HeapBuildCache
from repro.memory.memimage import BLOCK_SHIFT, PhysicalMemory
from repro.memory.paging import PageTable, VIRT_OFFSET
from repro.swgc.marksweep import SoftwareCollector
from repro.workloads import DACAPO_PROFILES, HeapGraphBuilder
from repro.workloads.mutator import ConcurrentMutator

SCALE = 0.005


def _blocks(indices: np.ndarray) -> set:
    return set((indices >> BLOCK_SHIFT).tolist())


def assert_live_tracked(phys: PhysicalMemory) -> None:
    """Every nonzero word of the image lies in a live block."""
    untracked = _blocks(np.flatnonzero(phys.words)) - phys.live_blocks()
    assert not untracked, f"nonzero words in blocks {sorted(untracked)}"


def run_tracked(phys: PhysicalMemory, action) -> None:
    """Run ``action`` and check both halves of the tracking invariant.

    The clean point is taken just before the action, so restoring it
    takes the dirty-blocks-only path: a write that skipped ``note_dirty``
    survives that restore and fails the comparison. The image is then put
    back to its post-action state through a foreign restore, and a
    snapshot of it must equal it.
    """
    before = phys.words.copy()
    clean = phys.snapshot()
    action()
    assert_live_tracked(phys)
    after = phys.words.copy()
    phys.restore(clean)
    changed = _blocks(np.flatnonzero(phys.words != before))
    assert not changed, f"writes outside dirty blocks {sorted(changed)}"
    phys.restore(after)
    assert np.array_equal(phys.words, after)
    assert np.array_equal(phys.snapshot(), after)


def _build(profile="luindex"):
    return HeapGraphBuilder(DACAPO_PROFILES[profile], scale=SCALE,
                            seed=13).build()


@pytest.mark.parametrize("profile", sorted(DACAPO_PROFILES))
def test_heap_build(profile):
    phys = _build(profile).heap.memsys.phys
    assert_live_tracked(phys)
    snap = phys.snapshot()
    assert np.array_equal(snap, phys.words)


def test_mutator_reference_stores():
    """``ObjectView.set_ref``'s SoA fast path writes the array directly;
    outside a collection no other write dirties the blocks it lands in."""
    heap = _build().heap
    views = [heap.view(a) for a in heap.objects]
    holders = [v for v in views if v.n_refs][::7]
    assert holders

    def store():
        for view in holders:
            old = view.get_ref(0)
            view.set_ref(0, holders[old == holders[0].addr].addr)
    run_tracked(heap.memsys.phys, store)


def test_software_collection():
    heap = _build().heap
    run_tracked(heap.memsys.phys, SoftwareCollector(heap).collect)


def test_hardware_mark_and_sweep():
    heap = _build().heap
    driver = HWGCDriver(heap, GCUnitConfig())
    driver.init_device()
    run_tracked(heap.memsys.phys, driver.run_gc)


def test_concurrent_cycle_with_relocation():
    built = _build()
    driver = HWGCDriver(built.heap, GCUnitConfig())
    driver.init_device()
    mutator = ConcurrentMutator(built, n_ops=120, seed=3)
    result = []
    run_tracked(built.heap.memsys.phys, lambda: result.append(
        driver.run_gc_concurrent(mutator, relocate_blocks=2)))
    assert result[0].objects_relocated > 0


@pytest.mark.parametrize("component", ["marker", "dram"])
def test_armed_corrupt_fault(component):
    heap = _build().heap
    phys = heap.memsys.phys
    plane = parse_hwfault_spec(f"corrupt:{component}")
    plane.install(heap.memsys.stats, phys)
    driver = HWGCDriver(heap, GCUnitConfig())
    driver.init_device()
    try:
        run_tracked(phys, driver.run_gc_safe)
    finally:
        plane.uninstall()
    assert plane.fired


@pytest.mark.parametrize("superpages", [False, True])
def test_map_linear(superpages):
    """A first mapping allocates (and so dirties) its tables; a remap
    rewrites leaf entries in tables that already exist, which only the
    bulk mapper's own ``note_dirty`` records."""
    phys = PhysicalMemory(8 * 1024 * 1024)
    table = PageTable(phys, (4096, 2 * 1024 * 1024))
    for pstart in (0, 2 * 1024 * 1024):
        run_tracked(phys, lambda: table.map_linear(
            VIRT_OFFSET, pstart, 4 * 1024 * 1024, superpages=superpages))
        assert table.translate(VIRT_OFFSET + 0x1238) == pstart + 0x1238


# -- resident memory ----------------------------------------------------------

#: What one checkpoint or heap-cache hit of an avrora scale-0.05 heap may
#: add to resident memory. The heap's live blocks are about 1 MiB; a dense
#: copy of its 64 MiB image adds 64.
RSS_BUDGET_MB = 8.0


def _rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/statm")
def test_checkpoint_and_cache_hit_stay_sparse_in_rss():
    cache = HeapBuildCache()
    avrora = DACAPO_PROFILES["avrora"]
    built, _checkpoint = cache.get_or_build(avrora, 0.05, 1)
    assert built.heap.memsys.phys.size_bytes == 64 * 1024 * 1024

    before = _rss_mb()
    checkpoint = built.heap.checkpoint()
    grown = _rss_mb() - before
    assert grown < RSS_BUDGET_MB, f"checkpoint grew RSS by {grown:.1f} MB"

    before = _rss_mb()
    hit = cache.get_or_build(avrora, 0.05, 1)
    grown = _rss_mb() - before
    assert cache.hits == 1
    assert grown < RSS_BUDGET_MB, f"heap-cache hit grew RSS by {grown:.1f} MB"
    assert np.array_equal(hit[0].heap.memsys.phys.words, checkpoint.words)
