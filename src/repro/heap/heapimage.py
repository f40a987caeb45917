"""The assembled managed heap: spaces + allocator + roots + block list.

:class:`ManagedHeap` is the substrate both collectors operate on. It owns
the memory system, carves the MMTk-style spaces, and provides:

* allocation (`alloc`) routed to the MarkSweep space or, for objects larger
  than the biggest size class, the page-granular large-object space;
* root publication into hwgc-space;
* **functional ground truth**: :meth:`reachable` computes the reachable set
  by direct BFS over the memory image — the reference result every collector
  configuration must match exactly (property-tested);
* checkpoint/restore so one generated heap can be collected repeatedly
  under different hardware configurations (the paper's parameter sweeps).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine.simulator import Simulator
from repro.heap.allocator import SegregatedFreeListAllocator
from repro.heap.blocks import BlockList
from repro.heap.header import TAG_BIT, decode_refcount
from repro.heap.layout import BidirectionalLayout, ObjectShape
from repro.heap.metadata import HeapMetadata
from repro.heap.objectmodel import ObjectView
from repro.heap.roots import RootRegion
from repro.heap.sizeclass import SizeClassTable
from repro.heap.spaces import Space, SpaceKind, SpacePlan
from repro.memory.config import MemorySystemConfig, WORD_BYTES
from repro.memory.interconnect import MemorySystem, build_memory_system
from repro.memory.paging import PAGE_SIZE, VIRT_OFFSET


@dataclass
class HeapCheckpoint:
    """Opaque state captured by :meth:`ManagedHeap.checkpoint`."""

    words: np.ndarray
    mark_parity: int
    alloc_mark_value: int
    fresh_cursor: int
    class_blocks: Dict[int, List[int]]
    block_class: Dict[int, int]
    space_cursors: Dict[str, int]
    objects: List[int]
    los_objects: List[int]
    # Allocator lifetime counters (mutator-time accounting depends on them;
    # restoring into a fresh heap must reproduce them exactly).
    objects_allocated: int = 0
    bytes_allocated: int = 0


class ManagedHeap:
    """A JikesRVM-style heap inside the simulated memory system."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        config: Optional[MemorySystemConfig] = None,
        size_classes: Optional[SizeClassTable] = None,
    ):
        self.sim = sim if sim is not None else Simulator()
        self.memsys: MemorySystem = build_memory_system(self.sim, config)
        address_map = self.memsys.address_map
        self.plan = SpacePlan(address_map.heap)
        self.block_list = BlockList(self.memsys.phys, address_map.block_list)
        self.roots = RootRegion(self.memsys.phys, address_map.hwgc)
        self.size_classes = size_classes or SizeClassTable()
        #: Mark-bit value meaning "marked" for the *next* collection.
        self.mark_parity = 1
        self.allocator = SegregatedFreeListAllocator(
            self.memsys.phys,
            self.block_list,
            self.plan.marksweep.pstart,
            self.plan.marksweep.pend,
            VIRT_OFFSET,
            size_classes=self.size_classes,
            alloc_mark_value=0,
        )
        #: Every object ever allocated (virtual addresses); dead entries are
        #: pruned by :meth:`prune_dead` after a verified collection.
        self.objects: List[int] = []
        self.los_objects: List[int] = []
        self.gc_count = 0
        # Lazily-built SoA layout sidecar; dropped whenever the object
        # population can change (alloc / restore / prune_dead).
        self._metadata: Optional[HeapMetadata] = None

    # -- convenience -------------------------------------------------------

    @property
    def mem(self):
        return self.memsys.phys

    def view(self, addr: int) -> ObjectView:
        return ObjectView(self.memsys.phys, addr, VIRT_OFFSET,
                          meta=self._metadata)

    def metadata(self) -> HeapMetadata:
        """The SoA layout sidecar for the current object population.

        Built on first use and cached; any operation that allocates,
        restores, or prunes objects invalidates it, so callers may hold the
        returned reference only while the population is stable. Views handed
        out by :meth:`view` pick it up automatically once built.
        """
        meta = self._metadata
        if meta is None:
            meta = HeapMetadata(self.memsys.phys, self.objects, VIRT_OFFSET)
            self._metadata = meta
        return meta

    def to_virtual(self, paddr: int) -> int:
        return paddr + VIRT_OFFSET

    def to_physical(self, vaddr: int) -> int:
        return vaddr - VIRT_OFFSET

    # -- allocation ---------------------------------------------------------

    def alloc(self, shape: ObjectShape, space: str = "auto") -> int:
        """Allocate an object; returns its reference (virtual address).

        ``space`` may be ``"auto"`` (MarkSweep if it fits, else LOS),
        ``"immortal"`` or ``"code"``.
        """
        n_words = BidirectionalLayout.words_needed(shape)
        if space == "auto":
            if self.size_classes.fits(n_words):
                addr = self.allocator.alloc(shape)
                self.objects.append(addr)
                self._metadata = None
                return addr
            return self._alloc_bump(self.plan.los, shape, align=PAGE_SIZE,
                                    track_los=True)
        if space == "immortal":
            return self._alloc_bump(self.plan.immortal, shape)
        if space == "code":
            return self._alloc_bump(self.plan.code, shape)
        raise ValueError(f"unknown space {space!r}")

    def alloc_many(self, n_refs: Sequence[int], payload_words: Sequence[int],
                   is_array: Sequence[bool]) -> List[int]:
        """Allocate one object per element of the shape columns, in order.

        The bulk form of ``alloc(shape)`` on a heap whose allocator has
        carved nothing yet: MarkSweep-sized objects go through
        :meth:`SegregatedFreeListAllocator.alloc_many`, larger ones to the
        large-object space one by one, and the heap ends as a loop of
        :meth:`alloc` would leave it. Returns the references.
        """
        n_refs = np.asarray(n_refs, dtype=np.int64)
        payload_words = np.asarray(payload_words, dtype=np.int64)
        is_array = np.asarray(is_array, dtype=bool)
        fits = 2 + n_refs + payload_words <= self.size_classes.max_words
        addrs = np.empty(len(n_refs), dtype=np.int64)
        addrs[fits] = self.allocator.alloc_many(
            n_refs[fits], payload_words[fits], is_array[fits])
        for i in np.flatnonzero(~fits).tolist():
            addrs[i] = self._bump_init(self.plan.los, ObjectShape(
                int(n_refs[i]), int(payload_words[i]), bool(is_array[i])),
                align=PAGE_SIZE)
        refs = addrs.tolist()
        self.los_objects.extend(addrs[~fits].tolist())
        self.objects.extend(refs)
        self._metadata = None
        return refs

    def _alloc_bump(
        self, target: Space, shape: ObjectShape, align: int = WORD_BYTES,
        track_los: bool = False,
    ) -> int:
        addr = self._bump_init(target, shape, align)
        self.objects.append(addr)
        self._metadata = None
        if track_los:
            self.los_objects.append(addr)
        return addr

    def _bump_init(self, target: Space, shape: ObjectShape,
                   align: int = WORD_BYTES) -> int:
        """Bump-allocate and initialise an object; returns its reference."""
        nbytes = BidirectionalLayout.words_needed(shape) * WORD_BYTES
        if align == PAGE_SIZE:
            nbytes = -(-nbytes // PAGE_SIZE) * PAGE_SIZE
        cell_paddr = target.bump_alloc(nbytes, align=align)
        status_paddr = BidirectionalLayout.initialize(
            self.memsys.phys, cell_paddr, shape,
            mark=self.allocator.alloc_mark_value,
        )
        return self.to_virtual(status_paddr)

    def new_object(
        self, n_refs: int, payload_words: int = 0, is_array: bool = False,
        space: str = "auto",
    ) -> ObjectView:
        """Allocate and wrap in an :class:`ObjectView` in one call."""
        addr = self.alloc(ObjectShape(n_refs, payload_words, is_array), space)
        return self.view(addr)

    # -- roots ------------------------------------------------------------------

    def set_roots(self, refs: Iterable[int]) -> None:
        self.roots.write_roots(refs)

    # -- ground truth ---------------------------------------------------------------

    def reachable(self) -> Set[int]:
        """The exact reachable set (BFS over the memory image).

        Uses the SoA sidecar's flat layout columns to avoid re-decoding a
        status word per visited object; the traversal itself still reads the
        live memory image, so the result reflects current reference slots.
        """
        return self.metadata().reachable(self.roots.read_all())

    def live_marksweep_objects(self) -> Set[int]:
        """Reachable objects that live in the MarkSweep space."""
        ms = self.plan.marksweep
        return {a for a in self.reachable() if ms.contains(self.to_physical(a))}

    def remap_tracked(self, mapper) -> int:
        """Apply an address mapping to the tracked object lists.

        Used by relocation: after evacuation the forwarding table's
        ``resolve`` is the mapping from old to new addresses, and the
        tracking lists (which feed the metadata sidecar and the BFS
        oracle) must follow the objects. Returns how many entries moved.
        """
        moved = 0
        new_objects = []
        for addr in self.objects:
            new = mapper(addr)
            if new != addr:
                moved += 1
            new_objects.append(new)
        self.objects = new_objects
        self.los_objects = [mapper(addr) for addr in self.los_objects]
        self._metadata = None
        return moved

    def prune_dead(self, live: Set[int]) -> int:
        """Drop freed MarkSweep objects from the tracking list after a GC."""
        ms = self.plan.marksweep
        before = len(self.objects)
        self.objects = [
            a for a in self.objects
            if a in live or not ms.contains(self.to_physical(a))
        ]
        self._metadata = None
        return before - len(self.objects)

    # -- GC epoch management -------------------------------------------------------

    def complete_gc_cycle(self) -> None:
        """Flip mark parity after a finished mark+sweep.

        Objects that survived carry the just-used parity, which is exactly
        "unmarked" under the flipped parity; fresh allocations must match,
        so the allocator's initial mark value becomes the old parity.
        """
        old_parity = self.mark_parity
        self.mark_parity = 1 - old_parity
        self.allocator.alloc_mark_value = old_parity
        self.allocator.refresh_free_lists()
        self.gc_count += 1

    # -- checkpoint / restore ----------------------------------------------------------

    def checkpoint(self) -> HeapCheckpoint:
        return HeapCheckpoint(
            words=self.memsys.phys.snapshot(),
            mark_parity=self.mark_parity,
            alloc_mark_value=self.allocator.alloc_mark_value,
            fresh_cursor=self.allocator._fresh_cursor,
            class_blocks=copy.deepcopy(self.allocator._class_blocks),
            block_class=dict(self.allocator._block_class),
            space_cursors={s.name: s.cursor for s in self.plan},
            objects=list(self.objects),
            los_objects=list(self.los_objects),
            objects_allocated=self.allocator.objects_allocated,
            bytes_allocated=self.allocator.bytes_allocated,
        )

    def restore(self, checkpoint: HeapCheckpoint) -> None:
        self.memsys.phys.restore(checkpoint.words)
        self.mark_parity = checkpoint.mark_parity
        self.allocator.alloc_mark_value = checkpoint.alloc_mark_value
        self.allocator._fresh_cursor = checkpoint.fresh_cursor
        self.allocator._class_blocks = copy.deepcopy(checkpoint.class_blocks)
        self.allocator._block_class = dict(checkpoint.block_class)
        for space in self.plan:
            space.cursor = checkpoint.space_cursors[space.name]
        self.objects = list(checkpoint.objects)
        self.los_objects = list(checkpoint.los_objects)
        self.allocator.objects_allocated = checkpoint.objects_allocated
        self.allocator.bytes_allocated = checkpoint.bytes_allocated
        self._metadata = None

    # -- integrity checks (used by tests and debug harnesses) ----------------------------

    def check_free_lists(self) -> int:
        """Validate all block free lists; returns the number of free cells.

        Asserts: pointers stay within their block, land on cell boundaries,
        no cycles, and free cells are not tagged live.
        """
        total = 0
        for desc in self.block_list:
            head = desc.freelist_head
            seen = 0
            while head != 0:
                if not desc.base_vaddr <= head < desc.base_vaddr + desc.size_bytes:
                    raise AssertionError(
                        f"free ptr {head:#x} escapes block {desc.index}"
                    )
                if (head - desc.base_vaddr) % desc.cell_bytes:
                    raise AssertionError(
                        f"free ptr {head:#x} not on a cell boundary"
                    )
                word = self.memsys.phys.read_word(self.to_physical(head))
                if word & TAG_BIT:
                    raise AssertionError(
                        f"free cell {head:#x} still tagged live"
                    )
                seen += 1
                if seen > desc.n_cells:
                    raise AssertionError(f"cyclic free list in block {desc.index}")
                head = word
            total += seen
        return total

    def __repr__(self) -> str:
        return (
            f"ManagedHeap(objects={len(self.objects)}, "
            f"blocks={self.allocator.blocks_in_use}, gc={self.gc_count})"
        )
