"""Harness plumbing: comparisons are self-checking."""

import sys
from array import array

import pytest

from repro.core.config import GCUnitConfig
from repro.harness.parallel import run_suite
from repro.harness.runners import (
    attempt_stats,
    build_heap,
    run_gc_comparison,
    run_hardware,
    run_software,
    run_sweep_only,
)
from repro.harness.suite import select
from repro.workloads.profiles import DACAPO_PROFILES


@pytest.fixture(scope="module")
def prepared():
    return build_heap(DACAPO_PROFILES["avrora"], scale=0.008, seed=31)


class TestRunners:
    def test_comparison_is_cross_checked(self, prepared):
        comp = run_gc_comparison(DACAPO_PROFILES["avrora"], built=prepared)
        assert comp.mark_speedup > 1.5
        assert comp.sweep_speedup > 1.0
        assert comp.overall_speedup > 1.0
        assert "avrora" in comp.summary()

    def test_bandwidth_log_keeps_at_most_16_bytes_per_request(self):
        """An untraced run keeps one time and one size per memory
        transaction in typed columns; no container grows per request."""
        profile = DACAPO_PROFILES["avrora"]
        built = build_heap(profile, scale=0.01, seed=1)
        run_gc_comparison(profile, built=built)
        bw = built[0].heap.memsys.bandwidth
        requests = len(bw._times)
        assert requests > 10_000
        held = 0
        for name, value in vars(bw).items():
            assert not isinstance(value, (list, tuple, dict, set)), name
            if isinstance(value, array):
                held += sys.getsizeof(value)
        assert held <= 16 * requests

    def test_run_software_returns_stat_delta(self, prepared):
        built, cp = prepared
        built.heap.restore(cp)
        result, delta = run_software(built.heap)
        assert result.objects_marked == len(built.heap.reachable())
        assert any(k.startswith("mem.requests") for k in delta)

    def test_run_hardware_phase_windows(self, prepared):
        built, cp = prepared
        built.heap.restore(cp)
        result, unit = run_hardware(built.heap, GCUnitConfig())
        assert unit.mark_window[1] - unit.mark_window[0] == result.mark_cycles
        assert unit.sweep_window[1] - unit.sweep_window[0] == \
            result.sweep_cycles

    def test_attempt_stats_snapshot(self):
        stats = attempt_stats()
        assert stats["cpu_s"] >= 0.0
        assert stats["max_rss_kb"] > 0

    def test_sweep_only_matches_full_sweep(self, prepared):
        built, cp = prepared
        heap = built.heap
        heap.restore(cp)
        full, unit = run_hardware(heap, GCUnitConfig())
        heap.restore(cp)
        unit2 = __import__("repro.core.unit", fromlist=["GCUnit"]).GCUnit(
            heap, GCUnitConfig())
        unit2.mark()
        cycles, recl = run_sweep_only(heap, GCUnitConfig())
        assert recl.cells_freed == full.cells_freed
        assert recl.cells_live == full.cells_live


class TestSuiteSelection:
    """Regression: empty/unknown selections must raise, not silently
    run nothing (run_suite used to clamp jobs against `len(tasks) or 1`
    and return an empty report with exit 0)."""

    def test_empty_selection_raises_listing_valid_ids(self):
        with pytest.raises(KeyError, match="valid ids.*fig15"):
            select([])

    def test_unknown_id_raises_listing_valid_ids(self):
        with pytest.raises(KeyError, match="fig99.*valid ids"):
            select(["fig99"])

    def test_run_suite_propagates_empty_selection(self):
        with pytest.raises(KeyError, match="empty experiment selection"):
            run_suite(jobs=1, only=[])

    def test_all_unknown_selection_raises(self):
        with pytest.raises(KeyError, match="unknown experiment ids"):
            run_suite(jobs=2, only=["nope", "nada"])
