"""Memoized heap builds keyed by (profile, scale, seed, memory config).

Many figures sweep unit configurations over the *same* generated heap
(e.g. Fig. 15 and the energy model of Fig. 23 use identical heaps, the
ablations re-run avrora at one scale repeatedly). Heap generation is pure:
``HeapGraphBuilder.build`` consumes only ``(profile, scale, seed, config)``
and never advances the simulator, and the page table is linear-mapped
deterministically at construction. That makes a build fully reproducible
from its checkpoint, so this module caches builds:

* an **in-process LRU** (always on, ``REPRO_HEAP_CACHE_ENTRIES`` entries,
  default 8) holding zlib-compressed pickles — the words snapshot is stored
  sparsely (nonzero indices + values; generated heaps are ~98% zeros), so
  both the pickled payload and the compress/decompress work stay a couple
  of MB per entry regardless of the configured memory size;
* an optional **on-disk layer** enabled by ``REPRO_HEAP_CACHE`` (``1`` for
  ``~/.cache/repro-heaps``, any other value is used as the directory;
  ``0``/``off`` disables). Disk entries survive across processes, which is
  what makes the parallel figure pipeline's workers share builds. The
  directory is LRU-capped by ``REPRO_HEAP_CACHE_MAX_MB`` and an entry
  that fails to reconstruct (torn write, bit-rot, stale pickle format) is
  dropped and transparently rebuilt — the shared disk-cache discipline of
  :mod:`repro.harness.diskcache`, which the simulation result cache
  (:mod:`repro.harness.simcache`) uses too.

A cache hit never returns a previously-handed-out object: the entry is
unpickled into a **fresh** ``ManagedHeap`` (new simulator, cold memory
system) plus a fresh ``HeapCheckpoint``, so callers may mutate the result
freely — exactly as if they had rebuilt from scratch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import random
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.harness.diskcache import (
    atomic_write_bytes,
    cache_dir_from_env,
    evict_lru,
    max_mb_from_env,
    touch,
)
from repro.heap.heapimage import HeapCheckpoint, ManagedHeap
from repro.memory.config import MemorySystemConfig
from repro.workloads.graphgen import BuiltHeap, HeapGraphBuilder
from repro.workloads.profiles import BenchmarkProfile

DEFAULT_ENTRIES = 8
_COMPRESS_LEVEL = 1  # the words array is mostly zeros; level 1 is plenty


def _canonical(value):
    """A deterministic plain-data projection for fingerprinting."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return sorted((repr(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return repr(value)


def fingerprint(
    profile: BenchmarkProfile,
    scale: float,
    seed: int,
    config: Optional[MemorySystemConfig],
) -> str:
    """Stable key over everything a build depends on."""
    payload = repr((
        _canonical(profile),
        repr(float(scale)),
        int(seed),
        _canonical(config) if config is not None else None,
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


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
        key = fingerprint(profile, scale, seed, config)
        blob = self._mem.get(key)
        from_disk = False
        if blob is not None:
            self._mem.move_to_end(key)
        else:
            blob = self._disk_read(key)
            if blob is not None:
                from_disk = True
        if blob is not None:
            try:
                result = self._reconstruct(blob, profile, scale, seed)
            except Exception:
                # Corrupt entry (torn write, bit-rot, stale pickle
                # format): drop it everywhere and rebuild transparently.
                self._mem.pop(key, None)
                self._disk_remove(key)
            else:
                if from_disk:
                    self.disk_hits += 1
                    self._mem_store(key, blob)
                self.hits += 1
                return result

        self.misses += 1
        built = HeapGraphBuilder(profile, scale=scale, seed=seed,
                                 config=config).build()
        checkpoint = built.heap.checkpoint()
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
            "config": _effective_config(profile, scale, config),
            "checkpoint": dataclasses.replace(checkpoint, words=None),
            "words_sparse": (len(words), nonzero, words[nonzero]),
            "live": sorted(built.live),
            "garbage": sorted(built.garbage),
            "hot": list(built.hot),
            "roots": list(built.roots),
            "rng_state": built.rng.getstate() if built.rng is not None else None,
        }
        blob = zlib.compress(
            pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL),
            _COMPRESS_LEVEL,
        )
        self._mem_store(key, blob)
        self._disk_write(key, blob)
        return built, checkpoint

    def clear(self) -> None:
        self._mem.clear()

    @property
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "entries": len(self._mem),
        }

    # -- internals ---------------------------------------------------------

    def _reconstruct(
        self, blob: bytes, profile: BenchmarkProfile, scale: float, seed: int
    ) -> Tuple[BuiltHeap, HeapCheckpoint]:
        entry = pickle.loads(zlib.decompress(blob))
        heap = ManagedHeap(config=entry["config"])
        checkpoint: HeapCheckpoint = entry["checkpoint"]
        sparse = entry.get("words_sparse")
        if sparse is not None:
            # Current format: densify the sparse words snapshot in place.
            n_words, indices, values = sparse
            words = np.zeros(n_words, dtype=np.uint64)
            words[indices] = values
            checkpoint.words = words
        # else: legacy entry (e.g. an old on-disk cache file) carrying the
        # dense array — usable as-is.
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

    def _disk_read(self, key: str) -> Optional[bytes]:
        if self.disk_dir is None:
            return None
        path = self.disk_dir / f"{key}.heap"
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        touch(path)
        return blob

    def _disk_write(self, key: str, blob: bytes) -> None:
        """Atomic write (tmp + rename) so concurrent workers never see a
        torn entry; then enforce the ``REPRO_HEAP_CACHE_MAX_MB`` LRU cap."""
        if self.disk_dir is None:
            return
        if atomic_write_bytes(self.disk_dir / f"{key}.heap", blob):
            evict_lru(self.disk_dir, max_mb_from_env("REPRO_HEAP_CACHE_MAX_MB"),
                      suffix=".heap")

    def _disk_remove(self, key: str) -> None:
        if self.disk_dir is None:
            return
        try:
            (self.disk_dir / f"{key}.heap").unlink()
        except OSError:
            pass


_GLOBAL: Optional[HeapBuildCache] = None


def get_cache() -> HeapBuildCache:
    """The process-wide cache, configured from the environment on first use."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = HeapBuildCache(entries=_entries_from_env(),
                                 disk_dir=cache_dir_from_env(
                                     "REPRO_HEAP_CACHE", "repro-heaps"))
    return _GLOBAL


def _entries_from_env() -> int:
    """``REPRO_HEAP_CACHE_ENTRIES``: a positive integer (unset → default).

    Raises :class:`ValueError` naming the variable and the value it got.
    """
    raw = os.environ.get("REPRO_HEAP_CACHE_ENTRIES", "").strip()
    if not raw:
        return DEFAULT_ENTRIES
    try:
        entries = int(raw)
    except ValueError:
        entries = 0
    if entries < 1:
        raise ValueError(
            f"REPRO_HEAP_CACHE_ENTRIES must be a positive integer, "
            f"got {raw!r}")
    return entries


def reset_cache() -> None:
    """Drop the process-wide cache (tests; also re-reads the environment)."""
    global _GLOBAL
    _GLOBAL = None
