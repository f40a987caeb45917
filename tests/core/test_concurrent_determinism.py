"""Determinism of the concurrent collector.

The concurrent cycle interleaves three actors (traversal unit, mutator,
relocator) on one simulated clock — the kind of machinery where hidden
nondeterminism (dict ordering, same-cycle tie-breaking) creeps in. This
gate pins one workload's *exact* cycle counts, heap digest, and trace
digest.

If a deliberate model change shifts the numbers, re-pin by running the
recipe in ``_run_pinned`` and updating the constants in the same commit
that explains why.
"""

import hashlib

import pytest

from repro.core.concurrent.collect import ConcurrentCycle
from repro.core.config import GCUnitConfig
from repro.core.driver import HWGCDriver
from repro.engine.faultplane import parse_hwfault_spec
from repro.engine.trace import TraceBus
from repro.heap.verify import reachable_digest
from repro.workloads import DACAPO_PROFILES, HeapGraphBuilder
from repro.workloads.mutator import ConcurrentMutator

#: [mark, handshake, sweep, objects_marked, cells_freed,
#:  write_barrier_hits, objects_relocated] for the pinned recipe below.
PINNED_CONC_CYCLES = [51_306, 106, 52_931, 726, 721, 77, 384]
#: reachable_digest(heap)[:16] after the pinned cycle.
PINNED_CONC_HEAP_DIGEST = "27a1bb5206fe925e"
#: sha256(repr(list(trace)))[:16] — every simulated event, in order.
PINNED_CONC_TRACE_DIGEST = "73a521b655447d85"


def _run_pinned():
    """The pinned recipe: luindex @ scale 0.008 seed 13, a 120-op seed-3
    mutator, 2 evacuated blocks, trace attached, bare ConcurrentCycle."""
    built = HeapGraphBuilder(DACAPO_PROFILES["luindex"], scale=0.008,
                             seed=13).build()
    heap = built.heap
    heap.memsys.stats.trace = TraceBus()
    mutator = ConcurrentMutator(built, n_ops=120, seed=3)
    result = ConcurrentCycle(heap, mutator=mutator, relocate_blocks=2).run()
    trace_digest = hashlib.sha256(
        repr(list(heap.memsys.stats.trace)).encode()).hexdigest()[:16]
    counters = [result.mark_cycles, result.handshake_cycles,
                result.sweep_cycles, result.objects_marked,
                result.cells_freed, result.write_barrier_hits,
                result.objects_relocated]
    return counters, reachable_digest(heap)[:16], trace_digest


@pytest.mark.slow
class TestPinnedConcurrentGate:
    """The pinned recipe must reproduce the pinned constants."""

    def test_pinned_constants(self):
        counters, heap_dig, trace_dig = _run_pinned()
        assert counters == PINNED_CONC_CYCLES
        assert heap_dig == PINNED_CONC_HEAP_DIGEST
        assert trace_dig == PINNED_CONC_TRACE_DIGEST


class TestRunToRunDeterminism:
    def test_two_runs_identical(self):
        first = _run_pinned()
        second = _run_pinned()
        assert first == second

    def test_armed_but_quiet_plane_is_invisible(self):
        """A fault plane whose trigger never fires must not perturb the
        concurrent collection by a single cycle or event."""
        counters_clean, heap_clean, trace_clean = _run_pinned()
        plane = parse_hwfault_spec("drop:dram:1000000000")
        built = HeapGraphBuilder(DACAPO_PROFILES["luindex"], scale=0.008,
                                 seed=13).build()
        heap = built.heap
        plane.install(heap.memsys.stats, heap.memsys.phys)
        try:
            heap.memsys.stats.trace = TraceBus()
            mutator = ConcurrentMutator(built, n_ops=120, seed=3)
            result = ConcurrentCycle(heap, mutator=mutator,
                                     relocate_blocks=2).run()
        finally:
            plane.uninstall()
        assert not plane.fired
        assert [result.mark_cycles, result.handshake_cycles,
                result.sweep_cycles, result.objects_marked,
                result.cells_freed, result.write_barrier_hits,
                result.objects_relocated] == counters_clean
        assert reachable_digest(heap)[:16] == heap_clean
        assert hashlib.sha256(
            repr(list(heap.memsys.stats.trace)).encode()
        ).hexdigest()[:16] == trace_clean

    def test_supervised_equals_bare_digest(self):
        """run_gc_safe's watchdog slicing must not change the modeled
        outcome — same reachable graph as the unsupervised cycle."""
        _counters, heap_dig, _trace = _run_pinned()
        built = HeapGraphBuilder(DACAPO_PROFILES["luindex"], scale=0.008,
                                 seed=13).build()
        driver = HWGCDriver(built.heap, GCUnitConfig())
        driver.init_device()
        safe = driver.run_gc_safe(
            mode="concurrent",
            mutator=ConcurrentMutator(built, n_ops=120, seed=3),
            relocate_blocks=2)
        assert safe.outcome == "hardware"
        assert reachable_digest(built.heap)[:16] == heap_dig
