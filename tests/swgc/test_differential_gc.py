"""Differential GC testing: accelerator vs software collector vs BFS oracle.

Three independent implementations traverse the same heap image:

* the accelerator (:class:`repro.core.unit.GCUnit`), a cycle-timed
  pipeline of reader / mark queue / marker / tracer;
* the software collector (:class:`repro.swgc.SoftwareCollector`), a
  different algorithmic expression (explicit worklist, CPU-timed);
* :meth:`ManagedHeap.reachable`, an untimed pure-Python BFS over the
  memory image — the oracle.

All three must agree on the exact marked set — not just its size — for
every heap shape we can construct: profile-generated DaCapo-like graphs
across size classes, and adversarial root-set shapes (empty, duplicated,
all-roots, deep chains, LOS objects).
"""

import pytest

from repro.core.unit import GCUnit
from repro.heap.heapimage import ManagedHeap
from repro.memory.config import MemorySystemConfig
from repro.swgc import SoftwareCollector
from repro.workloads.graphgen import HeapGraphBuilder
from repro.workloads.profiles import DACAPO_PROFILES

from tests.conftest import SMALL_MEM, make_random_heap


def marked_set(heap):
    """Addresses of every tracked object whose mark bit is set."""
    parity = heap.mark_parity
    return {a for a in heap.objects if heap.view(a).is_marked(parity)}


def differential_mark(heap, checkpoint):
    """Mark the same heap with both collectors; return (sw, hw, oracle) sets.

    Only the mark phase runs (sweeping overwrites dead cells, destroying
    the per-object mark bits this comparison reads).
    """
    heap.restore(checkpoint)
    oracle = heap.reachable()

    collector = SoftwareCollector(heap)
    counters = {"objects_marked": 0, "queue_peak": 0}
    done = heap.sim.process(collector.mark_process(counters), name="sw-mark")
    heap.sim.run_until(done)
    sw = marked_set(heap)

    heap.restore(checkpoint)
    GCUnit(heap).mark()
    hw = marked_set(heap)
    return sw, hw, oracle


def assert_agreement(heap, checkpoint):
    sw, hw, oracle = differential_mark(heap, checkpoint)
    assert sw == oracle, (
        f"software collector diverged from the BFS oracle: "
        f"{len(sw ^ oracle)} addresses differ"
    )
    assert hw == oracle, (
        f"accelerator diverged from the BFS oracle: "
        f"{len(hw ^ oracle)} addresses differ"
    )


class TestProfileHeaps:
    """Generated workload heaps across profiles, sizes, and seeds."""

    @pytest.mark.parametrize("profile", ["avrora", "lusearch", "pmd"])
    def test_small_scale(self, profile):
        built = HeapGraphBuilder(DACAPO_PROFILES[profile], scale=0.008,
                                 seed=11).build()
        assert_agreement(built.heap, built.heap.checkpoint())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seed_sweep(self, seed):
        built = HeapGraphBuilder(DACAPO_PROFILES["xalan"], scale=0.006,
                                 seed=seed).build()
        assert_agreement(built.heap, built.heap.checkpoint())

    @pytest.mark.slow
    @pytest.mark.parametrize("scale", [0.02, 0.04])
    def test_larger_scales(self, scale):
        built = HeapGraphBuilder(DACAPO_PROFILES["sunflow"], scale=scale,
                                 seed=5).build()
        assert_agreement(built.heap, built.heap.checkpoint())

    def test_oracle_matches_builder_ground_truth(self, tiny_built):
        built, checkpoint = tiny_built
        heap = built.heap
        heap.restore(checkpoint)
        # The builder records which objects it wired reachable; the BFS
        # oracle must agree before it is used to judge the collectors.
        assert heap.reachable() == set(built.live)


class TestRandomGraphs:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_wiring(self, seed):
        heap, _views = make_random_heap(n_objects=250, seed=seed)
        assert_agreement(heap, heap.checkpoint())

    def test_dense_graph(self):
        heap, _views = make_random_heap(n_objects=200, seed=8, max_refs=8,
                                        wire_prob=1.0)
        assert_agreement(heap, heap.checkpoint())

    def test_sparse_graph_mostly_garbage(self):
        heap, _views = make_random_heap(n_objects=300, seed=9, wire_prob=0.1,
                                        root_count=3)
        assert_agreement(heap, heap.checkpoint())


class TestRootShapes:
    """Adversarial root-set shapes on hand-built heaps."""

    def _heap(self):
        return ManagedHeap(config=MemorySystemConfig(total_bytes=SMALL_MEM))

    def test_empty_roots(self):
        heap = self._heap()
        for _ in range(10):
            heap.new_object(1)
        heap.set_roots([])
        assert_agreement(heap, heap.checkpoint())

    def test_duplicate_and_null_roots(self):
        heap = self._heap()
        a = heap.new_object(1)
        b = heap.new_object(0)
        a.set_ref(0, b.addr)
        heap.set_roots([a.addr, 0, a.addr, b.addr, a.addr, 0])
        assert_agreement(heap, heap.checkpoint())

    def test_every_object_is_a_root(self):
        heap = self._heap()
        views = [heap.new_object(0) for _ in range(40)]
        heap.set_roots([v.addr for v in views])
        assert_agreement(heap, heap.checkpoint())

    def test_deep_chain(self):
        # A 600-deep singly linked list: exercises traversal depth and the
        # mark queue staying shallow while the frontier is 1 object wide.
        heap = self._heap()
        views = [heap.new_object(1) for _ in range(600)]
        for parent, child in zip(views, views[1:]):
            parent.set_ref(0, child.addr)
        heap.set_roots([views[0].addr])
        assert_agreement(heap, heap.checkpoint())

    def test_cycle(self):
        heap = self._heap()
        a = heap.new_object(1)
        b = heap.new_object(1)
        a.set_ref(0, b.addr)
        b.set_ref(0, a.addr)
        heap.new_object(1)  # garbage
        heap.set_roots([a.addr])
        assert_agreement(heap, heap.checkpoint())

    def test_self_reference(self):
        heap = self._heap()
        a = heap.new_object(1)
        a.set_ref(0, a.addr)
        heap.set_roots([a.addr])
        assert_agreement(heap, heap.checkpoint())

    def test_los_objects(self):
        # Objects too large for any size class land in the LOS; the marker
        # must still mark them (and the tracer walk their many refs).
        heap = self._heap()
        big = heap.new_object(40, payload_words=2000)
        assert heap.los_objects, "expected the large object in the LOS"
        leaves = [heap.new_object(0) for _ in range(40)]
        for i, leaf in enumerate(leaves):
            big.set_ref(i, leaf.addr)
        heap.new_object(0)  # garbage
        heap.set_roots([big.addr])
        assert_agreement(heap, heap.checkpoint())

    def test_mixed_size_classes(self):
        # One object per size-class-ish shape, all reachable off one root.
        heap = self._heap()
        hub_children = []
        for n_refs, payload in [(0, 0), (1, 1), (2, 6), (4, 16), (8, 60),
                                (0, 200), (2, 500)]:
            hub_children.append(heap.new_object(n_refs, payload))
        hub = heap.new_object(len(hub_children))
        for i, child in enumerate(hub_children):
            hub.set_ref(i, child.addr)
        heap.set_roots([hub.addr])
        assert_agreement(heap, heap.checkpoint())


class TestFullCollectionAgreement:
    """Beyond marking: both collectors must free the same cells."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_freed_cell_counts_match(self, seed):
        heap, _views = make_random_heap(n_objects=300, seed=seed)
        checkpoint = heap.checkpoint()
        sw = SoftwareCollector(heap).collect()
        sw_free = heap.check_free_lists()
        heap.restore(checkpoint)
        hw = GCUnit(heap).collect()
        hw_free = heap.check_free_lists()
        assert sw.objects_marked == hw.objects_marked
        assert sw.cells_freed == hw.cells_freed
        assert sw.cells_live == hw.cells_live
        assert sw_free == hw_free


#: ``_full_run`` outputs: (sw mark, sw sweep, sw marked, sw freed, sw live,
#: hw mark, hw sweep, hw marked, hw freed, hw live, marked-set size,
#: events after both collections). Recorded when three kernels and the
#: event-only memory path all agreed on them (cycles across all six,
#: event counts across the three kernels).
PINNED_FULL_RUNS = {
    "random-250-seed2": (14_669, 19_676, 186, 64, 186,
                         4_415, 14_948, 186, 64, 186, 186, 19_052),
    "random-250-seed9": (13_180, 16_128, 171, 79, 171,
                         3_742, 10_532, 171, 79, 171, 171, 16_463),
    "random-180-seed6": (9_609, 11_612, 120, 60, 120,
                         2_615, 10_309, 120, 60, 120, 120, 12_489),
    "avrora-0.01-seed4": (148_182, 81_581, 1_326, 1_081, 1_321,
                          38_874, 62_656, 1_326, 1_081, 1_321,
                          1_326, 114_030),
    "avrora-0.01-seed7": (172_078, 75_381, 1_326, 1_081, 1_319,
                          42_617, 73_214, 1_326, 1_081, 1_319,
                          1_326, 121_649),
    "luindex-0.01-seed4": (184_058, 68_535, 907, 903, 899,
                           57_034, 50_770, 907, 903, 899,
                           907, 118_509),
    "luindex-0.01-seed7": (118_400, 70_001, 907, 900, 902,
                           28_894, 52_181, 907, 900, 902,
                           907, 91_860),
    "lusearch-0.01-seed4": (182_185, 117_448, 1_059, 1_953, 1_049,
                            53_132, 87_143, 1_059, 1_953, 1_049,
                            1_059, 149_973),
    "lusearch-0.01-seed7": (176_675, 119_014, 1_059, 1_954, 1_051,
                            51_075, 93_940, 1_059, 1_954, 1_051,
                            1_059, 147_854),
    "pmd-0.01-seed4": (275_987, 92_432, 1_571, 1_041, 1_564,
                       94_411, 78_040, 1_571, 1_041, 1_564,
                       1_571, 178_501),
    "pmd-0.01-seed7": (308_939, 96_477, 1_571, 1_042, 1_560,
                       99_792, 72_438, 1_571, 1_042, 1_560,
                       1_571, 196_011),
    "sunflow-0.01-seed4": (247_886, 100_279, 999, 1_214, 993,
                           76_067, 85_698, 999, 1_214, 993,
                           999, 167_294),
    "sunflow-0.01-seed7": (249_444, 98_430, 999, 1_213, 990,
                           80_495, 74_354, 999, 1_213, 990,
                           999, 168_544),
    "xalan-0.01-seed4": (192_391, 114_271, 1_289, 1_922, 1_283,
                         47_701, 77_675, 1_289, 1_922, 1_283,
                         1_289, 154_702),
    "xalan-0.01-seed7": (212_214, 119_510, 1_289, 1_924, 1_282,
                         53_330, 102_684, 1_289, 1_924, 1_282,
                         1_289, 168_166),
}

def _build(name):
    """``random-<n_objects>-seed<s>`` or ``<profile>-<scale>-seed<s>``."""
    kind, size, seed = name.rsplit("-", 2)
    seed = int(seed[len("seed"):])
    if kind == "random":
        return make_random_heap(n_objects=int(size), seed=seed)[0]
    return HeapGraphBuilder(DACAPO_PROFILES[kind], scale=float(size),
                            seed=seed).build().heap


class TestPinnedFullRuns:
    """SW then HW collection of one fresh heap lands on recorded cycle
    counts, freed-cell accounting, marked-set size and event count."""

    @staticmethod
    def _full_run(name):
        heap = _build(name)
        checkpoint = heap.checkpoint()
        sw = SoftwareCollector(heap).collect()
        n_marked = len(marked_set(heap))
        heap.restore(checkpoint)
        hw = GCUnit(heap).collect()
        return (
            sw.mark_cycles, sw.sweep_cycles, sw.objects_marked,
            sw.cells_freed, sw.cells_live,
            hw.mark_cycles, hw.sweep_cycles, hw.objects_marked,
            hw.cells_freed, hw.cells_live, n_marked,
            heap.sim.events_processed,
        )

    @pytest.mark.parametrize("name", sorted(PINNED_FULL_RUNS))
    def test_pinned(self, name):
        assert self._full_run(name) == PINNED_FULL_RUNS[name]
