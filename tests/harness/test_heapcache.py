"""Heap-build cache: hits must be byte-identical, keys must not alias.

Covers the satellite requirements: a cache hit returns a byte-identical
``HeapCheckpoint`` (and a fully usable fresh heap), and any change to
profile / scale / seed / memory-config invalidates the key — no stale-heap
reuse, in memory or on disk.
"""

import dataclasses

import numpy as np
import pytest

from repro.harness import heapcache
from repro.harness.heapcache import HeapBuildCache, fingerprint
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


class TestEntriesEnv:
    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEAP_CACHE_ENTRIES", raising=False)
        assert heapcache.get_cache().entries == heapcache.DEFAULT_ENTRIES

    def test_positive_value_sizes_the_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEAP_CACHE_ENTRIES", "3")
        assert heapcache.get_cache().entries == 3

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
    def test_bad_value_names_the_variable_and_value(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_HEAP_CACHE_ENTRIES", raw)
        with pytest.raises(ValueError) as excinfo:
            heapcache.get_cache()
        assert "REPRO_HEAP_CACHE_ENTRIES" in str(excinfo.value)
        assert repr(raw) in str(excinfo.value)


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
