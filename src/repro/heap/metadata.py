"""Structure-of-arrays metadata sidecar over a heap image.

:class:`ObjectView` decodes an object's status word on every hot accessor
(``n_refs``, ``refs``, ``ref_paddr``), which costs a numpy scalar read plus
bit arithmetic per call — measurable across the hundreds of thousands of
accessor calls a heap build or a ground-truth BFS performs. The *layout*
facts those accessors derive are immutable for the lifetime of an
allocation, so :class:`HeapMetadata` captures them once, as flat parallel
lists indexed by a single ``addr -> slot`` dict:

* ``n_refs`` / ``is_array`` — decoded from the status word's refcount field;
* ``status_index`` / ``ref_base_index`` — word indices into the physical
  memory's backing array (``PhysicalMemory.words``), so reference slices
  and header reads skip per-access address translation;
* ``header_word`` — the status word at build time (mark/tag bits included,
  for reference; mark bits are *mutable*, so liveness checks must still
  read memory — see :meth:`is_marked`).

The columns are decoded from the status words in one vectorised pass
and held as Python lists, which the per-object accessors index fastest.

The sidecar is a pure cache: every answer it gives equals what the
equivalent ``ObjectView`` chain computes from memory (unit-tested in
``tests/heap/test_metadata.py``). :class:`~repro.heap.heapimage.
ManagedHeap` builds one lazily and drops it whenever the object population
can change (allocation, restore, pruning), so holders never observe stale
layout.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.heap.header import ARRAY_FLAG, MARK_BIT, REFCOUNT_MASK, REFCOUNT_SHIFT
from repro.memory.config import WORD_BYTES


class HeapMetadata:
    """Immutable per-object layout facts in structure-of-arrays form."""

    __slots__ = (
        "mem",
        "virt_offset",
        "index",
        "n_refs",
        "is_array",
        "status_index",
        "ref_base_index",
        "header_word",
    )

    def __init__(self, mem, objects: Iterable[int], virt_offset: int):
        self.mem = mem
        self.virt_offset = virt_offset
        # Each address once, at its first occurrence.
        addrs = list(dict.fromkeys(objects))
        self.index: Dict[int, int] = dict(zip(addrs, range(len(addrs))))
        status_index = (np.array(addrs, dtype=np.int64) - virt_offset) \
            // WORD_BYTES
        header = mem.words[status_index]
        n_refs = ((header >> np.uint64(REFCOUNT_SHIFT))
                  & np.uint64(REFCOUNT_MASK)).astype(np.int64)
        self.n_refs: List[int] = n_refs.tolist()
        self.is_array: List[bool] = \
            ((header & np.uint64(ARRAY_FLAG)) != 0).tolist()
        self.status_index: List[int] = status_index.tolist()
        self.ref_base_index: List[int] = (status_index - n_refs).tolist()
        self.header_word: List[int] = header.tolist()

    def __len__(self) -> int:
        return len(self.n_refs)

    def __contains__(self, addr: int) -> bool:
        return addr in self.index

    # -- flat accessors (addr-keyed convenience over the slot arrays) -------

    def slot(self, addr: int) -> Optional[int]:
        """The object's slot in the parallel arrays, or ``None``."""
        return self.index.get(addr)

    def refs(self, addr: int) -> List[int]:
        """Non-null outgoing references (current memory contents)."""
        i = self.index[addr]
        n = self.n_refs[i]
        if n == 0:
            return []
        base = self.ref_base_index[i]
        return [int(w) for w in self.mem.words[base:base + n] if w]

    def ref_slot_paddrs(self, addr: int) -> List[int]:
        """Physical addresses of every reference slot, in field order."""
        i = self.index[addr]
        base = self.ref_base_index[i] * WORD_BYTES
        return [base + WORD_BYTES * k for k in range(self.n_refs[i])]

    def is_marked(self, addr: int, parity: int) -> bool:
        """Mark-bit test against *live* memory (mark bits are mutable)."""
        word = int(self.mem.words[self.status_index[self.index[addr]]])
        return ((word & MARK_BIT) != 0) == (parity == 1)

    # -- bulk operations ----------------------------------------------------

    def reachable(self, roots: Iterable[int]) -> Set[int]:
        """BFS over the current memory image using the flat layout columns.

        Equivalent to chasing ``ObjectView.refs()`` from the roots, minus
        the per-object header decoding. Addresses missing from the sidecar
        (objects the heap never tracked) fall back to decoding the status
        word from memory — including its bounds checking — so the result is
        identical to the view-based traversal for any graph.
        """
        index = self.index
        n_refs = self.n_refs
        ref_base = self.ref_base_index
        mem = self.mem
        words = mem.words
        virt_offset = self.virt_offset
        word_bytes = WORD_BYTES
        seen: Set[int] = set()
        seen_add = seen.add
        frontier = [r for r in roots if r]
        pop = frontier.pop
        extend = frontier.extend
        while frontier:
            addr = pop()
            if addr in seen:
                continue
            seen_add(addr)
            i = index.get(addr)
            if i is None:
                status_paddr = addr - virt_offset
                header = mem.read_word(status_paddr)
                n = (header >> REFCOUNT_SHIFT) & REFCOUNT_MASK
                if n:
                    extend(w for w in mem.read_words(
                        status_paddr - word_bytes * n, n) if w)
                continue
            n = n_refs[i]
            if n:
                base = ref_base[i]
                extend(int(w) for w in words[base:base + n] if w)
        return seen
