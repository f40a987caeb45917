"""Functional physical-memory image.

A flat, word-addressed memory backed by a numpy ``uint64`` array. Every
functional artifact of the system — object headers, reference fields, free
lists, page tables, the spill region, the hwgc root region — lives in this
image, so the GC algorithms (software and accelerator) operate on *real*
in-memory data structures rather than Python mirrors.

Timing is handled separately by the DRAM/cache models; see
:mod:`repro.memory.interconnect` for how functional access and timing are
paired.
"""

from __future__ import annotations

import mmap
from typing import Iterable, List, Optional, Set

import numpy as np

from repro.memory.config import WORD_BYTES

_U64_MASK = (1 << 64) - 1

#: Tracking granularity: 4096 words = 32 KiB per block. A generated heap
#: occupies a few percent of the image (avrora at scale 0.05: 34 of 2,048
#: blocks of a 64 MiB image) and a GC run writes a few percent more (mark
#: bits, free-list links, spill region), so snapshots and restores copy
#: about a megabyte instead of the whole array.
BLOCK_SHIFT = 12
BLOCK_WORDS = 1 << BLOCK_SHIFT


def zeroed_words(n_words: int) -> np.ndarray:
    """A lazily zeroed ``uint64`` array of ``n_words`` words.

    The array lives in private anonymous pages: a page is made resident
    when first written, and reading an untouched one maps the kernel's
    shared zero page. An array that is mostly zeros therefore costs the
    memory of the pages written into it. ``np.zeros`` is lazily zeroed
    too, but numpy advises the kernel to back large arrays with 2 MiB
    huge pages, so each 32 KiB block copied into one would make 2 MiB
    resident; these pages are advised against huge pages instead.
    """
    buf = mmap.mmap(-1, n_words * WORD_BYTES, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.uint64)


def block_span(block: int) -> slice:
    """The word indices of ``block`` (clipped by numpy at the image end)."""
    lo = block << BLOCK_SHIFT
    return slice(lo, lo + BLOCK_WORDS)


def _nonzero_blocks(words: np.ndarray) -> Set[int]:
    """Blocks of ``words`` holding a nonzero word, by one per-block scan.

    Reading a lazily zeroed page does not make it resident, so scanning a
    mostly-zero :func:`zeroed_words` array costs time but no memory.
    """
    n_full = len(words) >> BLOCK_SHIFT
    full = words[:n_full << BLOCK_SHIFT].reshape(n_full, BLOCK_WORDS)
    blocks = set(np.flatnonzero(full.any(axis=1)).tolist())
    if words[n_full << BLOCK_SHIFT:].any():
        blocks.add(n_full)
    return blocks


class PhysicalMemory:
    """Word-granularity physical memory with atomic-update helpers.

    Snapshots and restores are block-sparse (:data:`BLOCK_WORDS` words a
    block). The image tracks two block sets relative to its *clean
    point*, the snapshot it was last taken from or restored to:

    * ``_clean_blocks`` — the blocks of the clean point holding a nonzero
      word (all of them; the rest of the clean point is zero);
    * ``_dirty_blocks`` — the blocks written since the clean point.

    Their union, :meth:`live_blocks`, covers every nonzero word of the
    image — the invariant everything here rests on. :meth:`snapshot`
    copies only those blocks into a lazily zeroed array; :meth:`restore`
    of the clean point copies back only the dirty blocks, and of any other
    snapshot zeroes the live blocks the snapshot lacks and copies the
    snapshot's nonzero blocks. The handful of direct ``words[...] = ...``
    writers outside this class (the SoA object-view fast path, the
    page-table bulk mapper) must call :meth:`note_dirty`: a write it
    misses is left out of every later snapshot and restore. Everything
    else funnels through the write helpers here.
    """

    def __init__(self, size_bytes: int):
        if size_bytes % WORD_BYTES != 0:
            raise ValueError(f"memory size must be word-aligned: {size_bytes}")
        self.size_bytes = size_bytes
        self.words = zeroed_words(size_bytes // WORD_BYTES)
        #: Blocks written since the clean point (see class docstring).
        self._dirty_blocks: Set[int] = set()
        #: The nonzero blocks of the clean point (none: the image starts
        #: zero).
        self._clean_blocks: Set[int] = set()
        #: The snapshot array the image currently equals modulo
        #: ``_dirty_blocks`` (``None`` until the first snapshot/restore).
        self._clean_snap = None

    def note_dirty(self, index: int, count: int = 1) -> None:
        """Record an out-of-band write of ``count`` words at word ``index``."""
        if count == 1:
            self._dirty_blocks.add(index >> BLOCK_SHIFT)
        else:
            self._dirty_blocks.update(
                range(index >> BLOCK_SHIFT,
                      ((index + count - 1) >> BLOCK_SHIFT) + 1))

    def live_blocks(self) -> Set[int]:
        """Every block of the image that may hold a nonzero word."""
        return self._clean_blocks | self._dirty_blocks

    def _index(self, addr: int) -> int:
        if addr % WORD_BYTES != 0:
            raise ValueError(f"unaligned word access: {addr:#x}")
        if not 0 <= addr < self.size_bytes:
            raise IndexError(f"physical address out of range: {addr:#x}")
        return addr // WORD_BYTES

    # -- scalar access ----------------------------------------------------

    def read_word(self, addr: int) -> int:
        """Read the 64-bit word at byte address ``addr``."""
        # Checks inlined (``_index`` only re-run to raise its message):
        # every functional access in a run goes through here.
        if addr % WORD_BYTES or not 0 <= addr < self.size_bytes:
            self._index(addr)
        return int(self.words[addr // WORD_BYTES])

    def write_word(self, addr: int, value: int) -> None:
        """Write the 64-bit word at byte address ``addr``."""
        if addr % WORD_BYTES or not 0 <= addr < self.size_bytes:
            self._index(addr)
        idx = addr // WORD_BYTES
        self.words[idx] = np.uint64(value & _U64_MASK)
        self._dirty_blocks.add(idx >> BLOCK_SHIFT)

    # -- atomics (the marker's fetch-or / fetch-and, §IV-A) ---------------

    def fetch_or(self, addr: int, mask: int) -> int:
        """Atomically OR ``mask`` into the word; returns the *old* value."""
        idx = self._index(addr)
        old = int(self.words[idx])
        self.words[idx] = np.uint64((old | mask) & _U64_MASK)
        self._dirty_blocks.add(idx >> BLOCK_SHIFT)
        return old

    def fetch_and(self, addr: int, mask: int) -> int:
        """Atomically AND ``mask`` into the word; returns the *old* value."""
        idx = self._index(addr)
        old = int(self.words[idx])
        self.words[idx] = np.uint64(old & mask & _U64_MASK)
        self._dirty_blocks.add(idx >> BLOCK_SHIFT)
        return old

    # -- bulk access (the tracer's unit-stride reference copies) ----------

    def read_words(self, addr: int, count: int) -> List[int]:
        """Read ``count`` consecutive words starting at ``addr``."""
        idx = self._index(addr)
        if idx + count > len(self.words):
            raise IndexError(f"bulk read past end: {addr:#x} +{count} words")
        return [int(w) for w in self.words[idx : idx + count]]

    def write_words(self, addr: int, values: Iterable[int]) -> None:
        """Write consecutive words starting at ``addr``."""
        idx = self._index(addr)
        vals = [np.uint64(v & _U64_MASK) for v in values]
        if idx + len(vals) > len(self.words):
            raise IndexError(f"bulk write past end: {addr:#x} +{len(vals)} words")
        self.words[idx : idx + len(vals)] = vals
        self.note_dirty(idx, len(vals))

    def fill(self, addr: int, count: int, value: int = 0) -> None:
        """Fill ``count`` words starting at ``addr`` with ``value``."""
        idx = self._index(addr)
        self.words[idx : idx + count] = np.uint64(value & _U64_MASK)
        self.note_dirty(idx, count)

    def scatter(self, index: np.ndarray, values) -> None:
        """Write ``values`` at the word indices ``index``, in one store.

        The bulk writers (the allocator's columnar carve, the graph
        generator's deferred wiring) go through here. An index must not
        repeat: which of two writes to one word lands is unspecified.
        """
        index = np.asarray(index, dtype=np.int64)
        if not index.size:
            return
        if index.min() < 0 or index.max() >= len(self.words):
            raise IndexError("scatter index outside physical memory")
        self.words[index] = np.asarray(values, dtype=np.uint64)
        self._dirty_blocks.update(
            np.flatnonzero(np.bincount(index >> BLOCK_SHIFT)).tolist())

    # -- snapshots (runs mutate mark bits / free lists) --------------------

    def snapshot(self) -> np.ndarray:
        """A copy of the entire image, for restoring between GC runs.

        The copy is a lazily zeroed array into which only the live blocks
        are copied, so it costs (in time and resident memory) what the
        heap occupies, not the image size. It becomes the image's clean
        point.
        """
        words = self.words
        snap = zeroed_words(len(words))
        blocks = set()
        for block in self.live_blocks():
            span = block_span(block)
            if words[span].any():
                snap[span] = words[span]
                blocks.add(block)
        self._clean_snap = snap
        self._clean_blocks = blocks
        self._dirty_blocks.clear()
        return snap

    def restore(self, snap: np.ndarray,
                blocks: Optional[Iterable[int]] = None) -> None:
        """Restore the image to ``snap`` and make it the clean point.

        Restoring the current clean point copies only the blocks written
        since it was established — the common checkpoint/collect/restore/
        collect pattern of every comparison harness. Any other snapshot
        (an older one, or an array from elsewhere, such as a heap-cache
        entry) is scanned for its nonzero blocks, unless the caller names
        them in ``blocks`` (a set covering every nonzero block of
        ``snap``, as the heap cache knows from its entry); the image's
        live blocks outside that set are zeroed and the set is copied in.
        """
        if snap.shape != self.words.shape:
            raise ValueError("snapshot shape mismatch")
        words = self.words
        if snap is self._clean_snap:
            for block in self._dirty_blocks:
                span = block_span(block)
                words[span] = snap[span]
        else:
            blocks = _nonzero_blocks(snap) if blocks is None else set(blocks)
            for block in self.live_blocks() - blocks:
                words[block_span(block)] = 0
            for block in blocks:
                span = block_span(block)
                words[span] = snap[span]
            self._clean_snap = snap
            self._clean_blocks = blocks
        self._dirty_blocks.clear()

    def __repr__(self) -> str:
        return f"PhysicalMemory({self.size_bytes // (1024 * 1024)} MiB)"
