"""Differential fault-injection suite: every fault kind x component pair
must end in a diagnosed fallback whose recovered heap matches the BFS
oracle exactly (the §V-E safety net, exercised adversarially)."""

import itertools

import pytest

from repro.core.config import GCUnitConfig
from repro.core.driver import HWGCDriver
from repro.core.mmio import Reg, Status
from repro.engine.faultplane import COMPONENTS, KINDS, parse_hwfault_spec
from repro.engine.simulator import StallReport
from repro.engine.trace import TraceBus
from repro.heap.verify import heap_digest
from repro.workloads import DACAPO_PROFILES, HeapGraphBuilder

PAIRS = list(itertools.product(KINDS, COMPONENTS))


@pytest.fixture(scope="module")
def drill_env():
    """One workload heap + checkpoint, its reachability oracle, and the
    fault-free reference digest every faulted run must converge to."""
    built = HeapGraphBuilder(DACAPO_PROFILES["luindex"], scale=0.008,
                             seed=13).build()
    heap = built.heap
    checkpoint = heap.checkpoint()
    oracle = heap.reachable()
    driver = HWGCDriver(heap, GCUnitConfig())
    driver.init_device()
    safe = driver.run_gc_safe()
    assert safe.outcome == "hardware", safe.reason()
    assert heap.reachable() == oracle
    heap.prune_dead(oracle)
    reference = heap_digest(heap)
    heap.restore(checkpoint)
    return heap, checkpoint, oracle, reference


def _run_with_fault(heap, spec):
    plane = parse_hwfault_spec(spec)
    plane.install(heap.memsys.stats, heap.memsys.phys)
    try:
        driver = HWGCDriver(heap, GCUnitConfig())
        driver.init_device()
        return driver.run_gc_safe(), driver, plane
    finally:
        plane.uninstall()


class TestDifferentialMatrix:
    @pytest.mark.parametrize("kind,component", PAIRS,
                             ids=[f"{k}:{c}" for k, c in PAIRS])
    def test_fault_forces_recorded_fallback_to_oracle(self, drill_env,
                                                      kind, component):
        heap, checkpoint, oracle, reference = drill_env
        heap.restore(checkpoint)
        before = heap.memsys.stats.get("driver.fallbacks")
        safe, driver, plane = _run_with_fault(heap, f"{kind}:{component}")
        # Never silent: the fault fired, the run degraded, and said so.
        assert plane.fired, "the armed fault never fired"
        assert safe.fallback, (
            f"{kind}:{component} was silently absorbed: {safe.reason()}")
        assert safe.result is not None  # the software net did collect
        assert heap.memsys.stats.get("driver.fallbacks") == before + 1
        assert heap.memsys.stats.get(f"hwfault.{kind}.{component}") >= 1
        assert driver.mmio.read(Reg.FALLBACKS) == 1
        assert driver.mmio.status == Status.READY
        # Exact convergence: live set == BFS oracle, logical digest == the
        # fault-free reference.
        assert heap.reachable() == oracle
        heap.prune_dead(heap.reachable())
        assert heap_digest(heap) == reference


class TestNamedCulprits:
    """The two diagnosis scenarios the watchdog must get right by name."""

    def test_dropped_dram_response_names_dram(self, drill_env):
        heap, checkpoint, _oracle, _reference = drill_env
        heap.restore(checkpoint)
        safe, _driver, _plane = _run_with_fault(heap, "drop:dram")
        assert isinstance(safe.stall, StallReport)
        assert safe.stall.culprit == "dram"
        assert "dram" in safe.stall.oldest_request or \
            "from" in safe.stall.oldest_request
        assert "deadlock" in str(safe.stall) or \
            "watchdog" in str(safe.stall)

    def test_stuck_marker_slot_names_marker(self, drill_env):
        heap, checkpoint, _oracle, _reference = drill_env
        heap.restore(checkpoint)
        safe, _driver, _plane = _run_with_fault(heap, "stuck:marker")
        assert isinstance(safe.stall, StallReport)
        assert safe.stall.culprit == "marker"
        assert safe.stall.occupancies.get("marker.slots_in_flight", 0) > 0


class TestObservability:
    def test_fault_and_fallback_ride_the_trace(self, drill_env):
        heap, checkpoint, _oracle, _reference = drill_env
        heap.restore(checkpoint)
        stats = heap.memsys.stats
        stats.trace = TraceBus()
        try:
            safe, _driver, _plane = _run_with_fault(heap, "drop:dram")
            assert safe.fallback
            faults = stats.trace.by_category("fault")
            assert faults and faults[0][2:4] == ("drop", "dram")
            fallbacks = stats.trace.by_category("fallback")
            assert len(fallbacks) == 1
            assert "dram" in fallbacks[0][2]  # reason names the culprit
        finally:
            stats.trace = None

    def test_watchdog_trip_counter_exported(self, drill_env):
        heap, checkpoint, _oracle, _reference = drill_env
        heap.restore(checkpoint)
        stats = heap.memsys.stats
        before = stats.get("watchdog.trips")
        safe, _driver, _plane = _run_with_fault(heap, "stuck:tlb")
        assert safe.fallback
        assert stats.get("watchdog.trips") == before + 1


class TestZeroCostWhenArmedButQuiet:
    def test_supervised_unfired_run_matches_unsupervised(self):
        """A plane that never fires + a watchdog that never trips must not
        perturb the modeled collection at all: same cycle counts, same
        logical heap."""
        def fresh():
            return HeapGraphBuilder(DACAPO_PROFILES["luindex"], scale=0.008,
                                    seed=13).build().heap

        plain_heap = fresh()
        plain = HWGCDriver(plain_heap, GCUnitConfig())
        plain.init_device()
        plain_result = plain.run_gc()
        plain_heap.prune_dead(plain_heap.reachable())

        armed_heap = fresh()
        plane = parse_hwfault_spec("drop:dram:1000000000")  # never reached
        plane.install(armed_heap.memsys.stats, armed_heap.memsys.phys)
        armed = HWGCDriver(armed_heap, GCUnitConfig())
        armed.init_device()
        safe = armed.run_gc_safe()
        assert safe.outcome == "hardware" and not safe.faults
        armed_heap.prune_dead(armed_heap.reachable())

        assert safe.result.mark_cycles == plain_result.mark_cycles
        assert safe.result.sweep_cycles == plain_result.sweep_cycles
        assert safe.result.objects_marked == plain_result.objects_marked
        assert safe.result.cells_freed == plain_result.cells_freed
        assert heap_digest(armed_heap) == heap_digest(plain_heap)


class TestEnvAttach:
    def test_env_spec_installs_plane_at_build(self, monkeypatch):
        from repro.heap.heapimage import ManagedHeap
        from repro.memory.config import MemorySystemConfig

        monkeypatch.setenv("REPRO_HWFAULTS", "corrupt:sweeper")
        heap = ManagedHeap(
            config=MemorySystemConfig(total_bytes=32 * 1024 * 1024))
        plane = heap.memsys.stats.hwfaults
        assert plane is not None
        assert plane.faults[0].spec() == "corrupt:sweeper:1"

    def test_env_unset_means_zero_cost_none(self, monkeypatch):
        from repro.heap.heapimage import ManagedHeap
        from repro.memory.config import MemorySystemConfig

        monkeypatch.delenv("REPRO_HWFAULTS", raising=False)
        heap = ManagedHeap(
            config=MemorySystemConfig(total_bytes=32 * 1024 * 1024))
        assert heap.memsys.stats.hwfaults is None
