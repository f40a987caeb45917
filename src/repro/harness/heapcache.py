"""Memoized heap builds keyed by (profile, scale, seed, memory config, code).

Many figures sweep unit configurations over the *same* generated heap
(e.g. Fig. 15 and the energy model of Fig. 23 use identical heaps, the
ablations re-run avrora at one scale repeatedly). Heap generation is pure:
``HeapGraphBuilder.build`` consumes only ``(profile, scale, seed, config)``
and never advances the simulator, and the page table is linear-mapped
deterministically at construction. That makes a build fully reproducible
from its checkpoint, so this module caches builds:

* an **in-process LRU** (always on, ``DEFAULT_ENTRIES`` builds) holding
  zlib-compressed pickles — the words snapshot is stored sparsely
  (nonzero indices + values; generated heaps are ~98% zeros), so both the
  pickled payload and the compress/decompress work stay a couple of MB
  per entry regardless of the configured memory size;
* an optional **on-disk layer**: the ``heap`` kind of
  :mod:`repro.harness.diskcache`'s one store, in the directory
  ``REPRO_HEAP_CACHE`` names (``1`` for ``~/.cache/repro-heaps``;
  ``0``/``off`` disables) rather than ``REPRO_SIM_CACHE``'s, because the
  pickles differ per Python version. Disk entries survive across
  processes, which is what makes the parallel figure pipeline's workers
  share builds. The store keys each build by its inputs *and* the code
  fingerprint — a heap built by older code is a miss, never a stale hit —
  and owns the envelope, atomic writes and ``REPRO_HEAP_CACHE_MAX_MB``
  cap; an entry that fails to reconstruct is rebuilt and overwritten.

A cache hit never returns a previously-handed-out object: the entry is
unpickled into a **fresh** ``ManagedHeap`` (new simulator, cold memory
system) plus a fresh ``HeapCheckpoint``, so callers may mutate the result
freely — exactly as if they had rebuilt from scratch.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.harness.diskcache import Store, cache_dir_from_env, entry_key
from repro.heap.heapimage import HeapCheckpoint, ManagedHeap
from repro.memory.config import MemorySystemConfig
from repro.workloads.graphgen import BuiltHeap, HeapGraphBuilder
from repro.workloads.profiles import BenchmarkProfile

DEFAULT_ENTRIES = 8  # in-process LRU size, in builds
HEAP_KIND = "heap"
_COMPRESS_LEVEL = 1  # the words array is mostly zeros; level 1 is plenty


def build_inputs(
    profile: BenchmarkProfile,
    scale: float,
    seed: int,
    config: Optional[MemorySystemConfig],
) -> Dict[str, Any]:
    """Everything a build depends on, besides the code."""
    return {"profile": profile, "scale": float(scale), "seed": int(seed),
            "config": config}


def _effective_config(
    profile: BenchmarkProfile, scale: float, config: Optional[MemorySystemConfig]
) -> MemorySystemConfig:
    if config is not None:
        return config
    builder = HeapGraphBuilder(profile, scale=scale)
    return builder._default_config(profile.scaled_objects(scale))


class HeapBuildCache:
    """LRU of compressed build results, with an optional disk layer."""

    def __init__(
        self,
        entries: int = DEFAULT_ENTRIES,
        disk_dir: Optional[Path] = None,
    ):
        self.entries = max(1, entries)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._store = Store(self.disk_dir, "REPRO_HEAP_CACHE_MAX_MB")
        self._mem: "OrderedDict[str, bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    # -- public interface --------------------------------------------------

    def get_or_build(
        self,
        profile: BenchmarkProfile,
        scale: float,
        seed: int,
        config: Optional[MemorySystemConfig] = None,
    ) -> Tuple[BuiltHeap, HeapCheckpoint]:
        inputs = build_inputs(profile, scale, seed, config)
        key = entry_key(HEAP_KIND, inputs)
        blob = self._mem.get(key)
        if blob is not None:
            self._mem.move_to_end(key)
            self.hits += 1
            return self._reconstruct(blob, profile, scale, seed)

        def build():
            built = HeapGraphBuilder(profile, scale=scale, seed=seed,
                                     config=config).build()
            checkpoint = built.heap.checkpoint()
            return built, checkpoint, self._encode(built, checkpoint, config)

        def load(blob):
            return (*self._reconstruct(blob, profile, scale, seed), blob)

        (built, checkpoint, blob), hit = self._store.get_or_compute(
            HEAP_KIND, inputs, build, encode=lambda entry: entry[2],
            decode=load)
        if hit:
            self.hits += 1
            self.disk_hits += 1
        else:
            self.misses += 1
        self._mem_store(key, blob)
        return built, checkpoint

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _encode(built: BuiltHeap, checkpoint: HeapCheckpoint,
                config: Optional[MemorySystemConfig]) -> bytes:
        # Store the words snapshot sparsely: a generated heap's physical
        # memory is overwhelmingly zeros (typically ~2% occupancy), so
        # pickling (indices, values) of the nonzero words shrinks the
        # pre-compression payload from the full memory size to a couple of
        # MB — which is what makes both the compress here and the decompress
        # in ``_reconstruct`` cheap. ``checkpoint`` itself is returned to
        # the caller unmodified; only the pickled copy drops the dense
        # array.
        words = checkpoint.words
        nonzero = np.flatnonzero(words)
        entry = {
            "config": _effective_config(built.profile, built.scale, config),
            "checkpoint": dataclasses.replace(checkpoint, words=None),
            "words_sparse": (len(words), nonzero, words[nonzero]),
            "live": sorted(built.live),
            "garbage": sorted(built.garbage),
            "hot": list(built.hot),
            "roots": list(built.roots),
            "rng_state": built.rng.getstate() if built.rng is not None else None,
        }
        return zlib.compress(
            pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL),
            _COMPRESS_LEVEL,
        )

    def _reconstruct(
        self, blob: bytes, profile: BenchmarkProfile, scale: float, seed: int
    ) -> Tuple[BuiltHeap, HeapCheckpoint]:
        entry = pickle.loads(zlib.decompress(blob))
        heap = ManagedHeap(config=entry["config"])
        checkpoint: HeapCheckpoint = entry["checkpoint"]
        n_words, indices, values = entry["words_sparse"]
        checkpoint.words = np.zeros(n_words, dtype=np.uint64)
        checkpoint.words[indices] = values
        heap.restore(checkpoint)
        rng = None
        if entry["rng_state"] is not None:
            rng = random.Random()
            rng.setstate(entry["rng_state"])
        built = BuiltHeap(
            heap=heap,
            profile=profile,
            scale=scale,
            seed=seed,
            live=set(entry["live"]),
            garbage=set(entry["garbage"]),
            hot=list(entry["hot"]),
            roots=list(entry["roots"]),
            rng=rng,
        )
        return built, checkpoint

    def _mem_store(self, key: str, blob: bytes) -> None:
        self._mem[key] = blob
        self._mem.move_to_end(key)
        while len(self._mem) > self.entries:
            self._mem.popitem(last=False)


_GLOBAL: Optional[HeapBuildCache] = None


def get_cache() -> HeapBuildCache:
    """The process-wide cache, configured from the environment on first use."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = HeapBuildCache(disk_dir=cache_dir_from_env(
            "REPRO_HEAP_CACHE", "repro-heaps"))
    return _GLOBAL


def reset_cache() -> None:
    """Drop the process-wide cache (tests; also re-reads the environment)."""
    global _GLOBAL
    _GLOBAL = None
