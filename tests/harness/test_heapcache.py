"""Heap-build cache: hits must be byte-identical, keys must not alias.

A cache hit returns a byte-identical ``HeapCheckpoint`` (and a fully
usable fresh heap), and any change to profile / scale / seed /
memory-config / code invalidates the key — no stale-heap reuse, in memory
or on disk.
"""

import dataclasses

import numpy as np
import pytest

from repro.harness import diskcache, heapcache
from repro.harness.diskcache import entry_key
from repro.harness.heapcache import HEAP_KIND, HeapBuildCache, build_inputs
from repro.memory.config import MemorySystemConfig
from repro.workloads.profiles import DACAPO_PROFILES

SCALE = 0.008
PROFILE = DACAPO_PROFILES["avrora"]


@pytest.fixture(autouse=True)
def _no_disk_env(monkeypatch):
    monkeypatch.delenv("REPRO_HEAP_CACHE", raising=False)
    heapcache.reset_cache()
    yield
    heapcache.reset_cache()


def _checkpoints_byte_identical(a, b) -> bool:
    assert np.array_equal(a.words, b.words)
    assert a.words.dtype == b.words.dtype
    for fld in dataclasses.fields(a):
        if fld.name == "words":
            continue
        assert getattr(a, fld.name) == getattr(b, fld.name), fld.name
    return True


def fingerprint(profile, scale, seed, config):
    return entry_key(HEAP_KIND, build_inputs(profile, scale, seed, config))


class TestFingerprint:
    def test_stable(self):
        assert fingerprint(PROFILE, 0.01, 1, None) == \
            fingerprint(PROFILE, 0.01, 1, None)

    @pytest.mark.parametrize("mutation", [
        dict(scale=0.011),
        dict(seed=2),
        dict(profile=DACAPO_PROFILES["pmd"]),
        dict(config=MemorySystemConfig()),
        dict(config=MemorySystemConfig(total_bytes=128 * 1024 * 1024)),
    ])
    def test_any_dimension_invalidates(self, mutation):
        base = dict(profile=PROFILE, scale=0.01, seed=1, config=None)
        changed = {**base, **mutation}
        assert fingerprint(**base) != fingerprint(**changed)

    def test_distinct_configs_distinct_keys(self):
        a = MemorySystemConfig()
        b = MemorySystemConfig(use_superpages=not a.use_superpages)
        assert fingerprint(PROFILE, 0.01, 1, a) != fingerprint(PROFILE, 0.01, 1, b)


class TestInProcessCache:
    def test_hit_returns_byte_identical_checkpoint(self):
        cache = HeapBuildCache()
        _built1, cp1 = cache.get_or_build(PROFILE, SCALE, 1)
        _built2, cp2 = cache.get_or_build(PROFILE, SCALE, 1)
        assert cache.hits == 1 and cache.misses == 1
        assert cp1 is not cp2
        assert _checkpoints_byte_identical(cp1, cp2)

    def test_hit_reconstructs_equivalent_built_heap(self):
        cache = HeapBuildCache()
        built1, _ = cache.get_or_build(PROFILE, SCALE, 1)
        built2, _ = cache.get_or_build(PROFILE, SCALE, 1)
        assert built1.heap is not built2.heap
        assert built1.heap.sim is not built2.heap.sim
        assert built1.live == built2.live
        assert built1.garbage == built2.garbage
        assert built1.hot == built2.hot
        assert built1.roots == built2.roots
        assert built1.rng.getstate() == built2.rng.getstate()
        assert np.array_equal(built1.heap.memsys.phys.snapshot(),
                              built2.heap.memsys.phys.snapshot())
        # Allocator lifetime counters drive mutator-time accounting
        # (Fig. 1a); a reconstructed heap must reproduce them exactly.
        assert built1.heap.allocator.bytes_allocated \
            == built2.heap.allocator.bytes_allocated
        assert built1.heap.allocator.objects_allocated \
            == built2.heap.allocator.objects_allocated

    def test_mutating_a_hit_does_not_poison_the_cache(self):
        cache = HeapBuildCache()
        built1, cp1 = cache.get_or_build(PROFILE, SCALE, 1)
        # Scribble over the first result's heap and checkpoint.
        built1.heap.memsys.phys.words[:128] = 0xDEAD
        cp1.words[:128] = 0xBEEF
        built1.live.clear()
        _built2, cp2 = cache.get_or_build(PROFILE, SCALE, 1)
        assert not np.array_equal(cp2.words[:128], cp1.words[:128])
        assert _built2.live

    def test_different_keys_do_not_alias(self):
        cache = HeapBuildCache()
        _, cp_a = cache.get_or_build(PROFILE, SCALE, 1)
        _, cp_b = cache.get_or_build(PROFILE, SCALE, 2)
        assert cache.misses == 2 and cache.hits == 0
        assert not np.array_equal(cp_a.words, cp_b.words)

    def test_lru_eviction(self):
        cache = HeapBuildCache(entries=1)
        cache.get_or_build(PROFILE, SCALE, 1)
        cache.get_or_build(PROFILE, SCALE, 2)  # evicts seed 1
        cache.get_or_build(PROFILE, SCALE, 1)
        assert cache.misses == 3
        assert len(cache._mem) == 1


class TestDiskCache:
    def test_roundtrip_across_processes(self, tmp_path):
        first = HeapBuildCache(disk_dir=tmp_path)
        _, cp1 = first.get_or_build(PROFILE, SCALE, 1)
        assert list(tmp_path.glob("*.heap"))

        fresh = HeapBuildCache(disk_dir=tmp_path)  # simulates a new worker
        _, cp2 = fresh.get_or_build(PROFILE, SCALE, 1)
        assert fresh.disk_hits == 1 and fresh.hits == 1
        assert _checkpoints_byte_identical(cp1, cp2)

    def test_disk_key_isolation(self, tmp_path):
        cache = HeapBuildCache(disk_dir=tmp_path)
        cache.get_or_build(PROFILE, SCALE, 1)
        fresh = HeapBuildCache(disk_dir=tmp_path)
        fresh.get_or_build(PROFILE, SCALE, 2)  # different seed: must rebuild
        assert fresh.disk_hits == 0 and fresh.misses == 1

    def test_env_configuration(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_HEAP_CACHE", str(tmp_path))
        heapcache.reset_cache()
        assert heapcache.get_cache().disk_dir == tmp_path
        monkeypatch.setenv("REPRO_HEAP_CACHE", "0")
        heapcache.reset_cache()
        assert heapcache.get_cache().disk_dir is None

    def test_unwritable_disk_is_harmless(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")  # mkdir will fail under this path
        cache = HeapBuildCache(disk_dir=target / "sub")
        _built, cp = cache.get_or_build(PROFILE, SCALE, 1)
        assert cp.words.size  # build still succeeded


class TestCodeFingerprint:
    """The stale-heap defect: a heap built by older code must never feed
    a simulation under newer code."""

    def test_entry_from_other_code_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diskcache, "_CODE_FINGERPRINT", "a" * 64)
        HeapBuildCache(disk_dir=tmp_path).get_or_build(PROFILE, SCALE, 1)
        monkeypatch.setattr(diskcache, "_CODE_FINGERPRINT", "b" * 64)
        fresh = HeapBuildCache(disk_dir=tmp_path)
        fresh.get_or_build(PROFILE, SCALE, 1)
        assert fresh.disk_hits == 0 and fresh.misses == 1

    def test_cell_after_a_code_change_matches_a_cacheless_run(
            self, tmp_path, monkeypatch):
        from repro.harness.simcache import run_experiment
        from repro.workloads.graphgen import HeapGraphBuilder

        kwargs = {"scale": 0.005, "benchmarks": ["avrora"]}
        monkeypatch.delenv("REPRO_HWFAULTS", raising=False)
        monkeypatch.setenv("REPRO_HEAP_CACHE", str(tmp_path / "heaps"))
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "cells"))
        monkeypatch.setattr(diskcache, "_CODE_FINGERPRINT", "a" * 64)
        before, _ = run_experiment("abl_layout", kwargs)  # warms both

        # The code change: arrays capped at 4 references, not 128.
        monkeypatch.setattr(HeapGraphBuilder, "_MAX_MS_REFS", 4)
        monkeypatch.setattr(diskcache, "_CODE_FINGERPRINT", "b" * 64)
        heapcache.reset_cache()  # a new process: only the disks are warm
        warm, acct = run_experiment("abl_layout", kwargs)
        assert acct.as_tuple() == (0, 1)

        monkeypatch.delenv("REPRO_HEAP_CACHE")
        monkeypatch.delenv("REPRO_SIM_CACHE")
        heapcache.reset_cache()
        cacheless, _ = run_experiment("abl_layout", kwargs)
        assert cacheless.rows != before.rows  # the change is visible
        assert warm.rows == cacheless.rows


class TestCachedRunsAreIdentical:
    def test_collection_on_cached_heap_is_cycle_identical(self):
        """A GC run on a cache-hit heap matches a run on a fresh build."""
        from repro.harness.runners import run_software

        cache = HeapBuildCache()
        built_fresh, _ = cache.get_or_build(PROFILE, SCALE, 1)
        built_hit, _ = cache.get_or_build(PROFILE, SCALE, 1)
        fresh, _ = run_software(built_fresh.heap)
        hit, _ = run_software(built_hit.heap)
        assert (fresh.mark_cycles, fresh.sweep_cycles, fresh.objects_marked) \
            == (hit.mark_cycles, hit.sweep_cycles, hit.objects_marked)
        assert built_fresh.heap.sim.events_processed \
            == built_hit.heap.sim.events_processed
