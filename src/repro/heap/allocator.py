"""Segregated free-list allocator over blocks and size classes (§V-A).

Functional (untimed) — in the paper this is the application/runtime side:
the GC unit only *produces* free lists; the mutator consumes them during
allocation. The allocator:

* carves fresh :data:`~repro.heap.blocks.BLOCK_BYTES` blocks out of the
  MarkSweep space, assigns each a size class, and threads all cells of a
  fresh block onto its free list (next pointers stored in the cells
  themselves, Fig. 11);
* pops cells off per-class free lists, consulting the block list's
  sweeper-updated ``freelist_head`` fields after a GC ("places the
  resulting free lists into main memory for the application on the CPU to
  use during allocation", §IV);
* initializes object metadata through the configured layout and returns the
  object reference (virtual address of the status word).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.heap.blocks import BLOCK_BYTES, BlockDescriptor, BlockList
from repro.heap.header import make_header, make_scan_word
from repro.heap.layout import BidirectionalLayout, ObjectShape
from repro.heap.sizeclass import SizeClassTable
from repro.memory.config import WORD_BYTES
from repro.memory.memimage import PhysicalMemory


class OutOfMemoryError(MemoryError):
    """The MarkSweep space has no free cells and no room for fresh blocks."""


class SegregatedFreeListAllocator:
    """Allocation front-end for the MarkSweep space."""

    def __init__(
        self,
        mem: PhysicalMemory,
        block_list: BlockList,
        space_pstart: int,
        space_pend: int,
        virt_offset: int,
        size_classes: Optional[SizeClassTable] = None,
        alloc_mark_value: int = 0,
    ):
        self.mem = mem
        self.block_list = block_list
        self.space_pstart = space_pstart
        self.space_pend = space_pend
        self.virt_offset = virt_offset
        self.size_classes = size_classes or SizeClassTable()
        #: Mark-bit value written into fresh objects; the heap updates this
        #: when mark parity flips after a GC.
        self.alloc_mark_value = alloc_mark_value
        self._fresh_cursor = space_pstart
        # Per size class: indices of blocks that may still have free cells.
        self._class_blocks: Dict[int, List[int]] = {
            i: [] for i in range(len(self.size_classes))
        }
        self._block_class: Dict[int, int] = {}  # block index -> class
        self.objects_allocated = 0
        self.bytes_allocated = 0

    # -- address helpers ---------------------------------------------------

    def to_virtual(self, paddr: int) -> int:
        return paddr + self.virt_offset

    def to_physical(self, vaddr: int) -> int:
        return vaddr - self.virt_offset

    # -- block management ----------------------------------------------------

    def _carve_block(self, class_index: int) -> int:
        """Take a fresh block from the space; returns its block-list index."""
        if self._fresh_cursor + BLOCK_BYTES > self.space_pend:
            raise OutOfMemoryError(
                f"MarkSweep space exhausted at {self._fresh_cursor:#x}"
            )
        base_paddr = self._fresh_cursor
        self._fresh_cursor += BLOCK_BYTES
        cell_bytes = self.size_classes.cell_bytes(class_index)
        n_cells = BLOCK_BYTES // cell_bytes
        base_vaddr = self.to_virtual(base_paddr)
        # Thread every cell onto the block's free list.
        for i in range(n_cells):
            cell_paddr = base_paddr + i * cell_bytes
            next_vaddr = base_vaddr + (i + 1) * cell_bytes if i + 1 < n_cells else 0
            self.mem.write_word(cell_paddr, next_vaddr)
        desc = self.block_list.append(base_vaddr, cell_bytes, n_cells, base_vaddr)
        self._class_blocks[class_index].append(desc.index)
        self._block_class[desc.index] = class_index
        return desc.index

    def refresh_free_lists(self) -> None:
        """Re-discover free cells after a sweep.

        The sweeper wrote per-block free-list heads into the block list;
        every block whose head is non-zero can serve allocations again.
        """
        self._class_blocks = {i: [] for i in range(len(self.size_classes))}
        for desc in self.block_list:
            class_index = self._block_class.get(desc.index)
            if class_index is None:
                # A block created by someone else (tests); infer its class.
                class_index = self.size_classes.class_for(
                    desc.cell_bytes // WORD_BYTES
                )
                self._block_class[desc.index] = class_index
            if desc.freelist_head != 0:
                self._class_blocks[class_index].append(desc.index)

    # -- allocation -------------------------------------------------------------

    def _pop_cell(self, class_index: int) -> int:
        """Pop a free cell for the class; returns its *virtual* address."""
        blocks = self._class_blocks[class_index]
        while blocks:
            block_index = blocks[0]
            head = self.block_list.freelist_head(block_index)
            if head == 0:
                blocks.pop(0)
                continue
            next_vaddr = self.mem.read_word(self.to_physical(head))
            self.block_list.set_freelist_head(block_index, next_vaddr)
            return head
        block_index = self._carve_block(class_index)
        return self._pop_cell(class_index)

    def alloc(self, shape: ObjectShape) -> int:
        """Allocate an object; returns its reference (virtual address).

        Only MarkSweep-space sizes are accepted; larger objects belong to
        the large-object space (see :class:`~repro.heap.heapimage.
        ManagedHeap`).
        """
        n_words = BidirectionalLayout.words_needed(shape)
        class_index = self.size_classes.class_for(n_words)
        cell_vaddr = self._pop_cell(class_index)
        cell_paddr = self.to_physical(cell_vaddr)
        status_paddr = BidirectionalLayout.initialize(
            self.mem, cell_paddr, shape, mark=self.alloc_mark_value
        )
        self.objects_allocated += 1
        self.bytes_allocated += self.size_classes.cell_bytes(class_index)
        return self.to_virtual(status_paddr)

    def alloc_many(self, n_refs: np.ndarray, payload_words: np.ndarray,
                   is_array: np.ndarray) -> np.ndarray:
        """Allocate one object per element of the shape columns, in order.

        Leaves memory, the block list and the allocator exactly as a loop
        of :meth:`alloc` over the same shapes would, and returns the same
        references (an int64 array). It needs a never-used allocator: on
        one, a class's ``r``-th object takes cell ``r % n_cells`` of the
        class's ``r // n_cells``-th block, and blocks are carved in the
        order their first objects arrive, so every address follows from
        the shapes alone. The stores are vectorised: the free-list links
        of the cells no object took, the scan words, null reference slots
        and status words, then the block descriptors.
        """
        if self._fresh_cursor != self.space_pstart or len(self.block_list):
            raise ValueError("alloc_many needs a never-used allocator: "
                             "blocks have already been carved")
        n_refs = np.asarray(n_refs, dtype=np.int64)
        is_array = np.asarray(is_array, dtype=bool)
        n = len(n_refs)
        classes_words = np.asarray(self.size_classes.classes_words)
        need = 2 + n_refs + np.asarray(payload_words, dtype=np.int64)
        cls = np.searchsorted(classes_words, need)
        if n and cls.max() == len(classes_words):
            self.size_classes.class_for(int(need.max()))  # raises
        cells_per_block = BLOCK_BYTES // (classes_words * WORD_BYTES)

        # Each object's rank within its class, then its block and cell.
        per_class = np.bincount(cls, minlength=len(classes_words))
        rank = np.empty(n, dtype=np.int64)
        for c in np.flatnonzero(per_class).tolist():
            rank[cls == c] = np.arange(per_class[c])
        block_in_class, cell = np.divmod(rank, cells_per_block[cls])
        # A class's blocks are keyed contiguously; the carve order is the
        # order of the objects that open them (cell 0).
        blocks_per_class = -(-per_class // cells_per_block)
        key = np.cumsum(blocks_per_class) - blocks_per_class
        openers = np.flatnonzero(cell == 0)
        n_blocks = len(openers)
        if self.space_pstart + n_blocks * BLOCK_BYTES > self.space_pend:
            raise OutOfMemoryError(
                f"MarkSweep space exhausted: {n_blocks} blocks needed")
        carve_rank = np.empty(n_blocks, dtype=np.int64)
        carve_rank[key[cls[openers]] + block_in_class[openers]] = \
            np.arange(n_blocks)
        block = carve_rank[key[cls] + block_in_class]

        block_class = cls[openers]
        cell_bytes = classes_words[block_class] * WORD_BYTES
        n_cells = cells_per_block[block_class]
        block_paddr = self.space_pstart + np.arange(n_blocks) * BLOCK_BYTES
        cell_index = (block_paddr[block] + cell * cell_bytes[block]) \
            // WORD_BYTES
        status_index = cell_index + 1 + n_refs

        # Free-list links (``_carve_block`` threads every cell of a block;
        # the scan words below overwrite the links of the taken ones, so
        # only the cells no object took keep theirs).
        used = np.bincount(block, minlength=n_blocks)
        free = n_cells - used
        link_block = np.repeat(np.arange(n_blocks), free)
        link_cell = used[link_block] + np.arange(len(link_block)) \
            - np.repeat(np.cumsum(free) - free, free)
        link_paddr = block_paddr[link_block] + link_cell * cell_bytes[
            link_block]
        self.mem.scatter(link_paddr // WORD_BYTES, np.where(
            link_cell + 1 < n_cells[link_block],
            self.to_virtual(link_paddr + cell_bytes[link_block]), 0))

        # Object metadata (``BidirectionalLayout.initialize``): the header
        # encodings are evaluated once per distinct (n_refs, is_array).
        pair = 2 * n_refs + is_array
        scan = np.zeros(pair.max(initial=0) + 1, dtype=np.uint64)
        status = scan.copy()
        mark = self.alloc_mark_value
        for p in np.flatnonzero(np.bincount(pair)).tolist():
            scan[p] = make_scan_word(p >> 1, bool(p & 1))
            status[p] = make_header(p >> 1, bool(p & 1), mark=mark)
        self.mem.scatter(cell_index, scan[pair])
        self.mem.scatter(np.arange(n_refs.sum()) + np.repeat(
            cell_index + 1 - (np.cumsum(n_refs) - n_refs), n_refs), 0)
        self.mem.scatter(status_index, status[pair])

        # Block descriptors: a head is the first cell no object took.
        base_vaddr = self.to_virtual(block_paddr)
        self.block_list.append_many(
            base_vaddr, cell_bytes, n_cells,
            np.where(free > 0, base_vaddr + used * cell_bytes, 0))

        # Allocator state as the scalar loop leaves it: ``_pop_cell``
        # drops a filled block only when its class next allocates, so
        # each class lists just its last block.
        self._fresh_cursor = self.space_pstart + n_blocks * BLOCK_BYTES
        for c in np.flatnonzero(per_class).tolist():
            last = carve_rank[key[c] + blocks_per_class[c] - 1]
            self._class_blocks[c] = [int(last)]
        self._block_class.update(enumerate(block_class.tolist()))
        self.objects_allocated += n
        self.bytes_allocated += int(
            (classes_words[cls] * WORD_BYTES).sum())
        return self.to_virtual(status_index * WORD_BYTES)

    # -- introspection -----------------------------------------------------------

    @property
    def blocks_in_use(self) -> int:
        return (self._fresh_cursor - self.space_pstart) // BLOCK_BYTES

    def free_cells(self) -> int:
        """Total free cells across all blocks (walks the real free lists)."""
        total = 0
        for desc in self.block_list:
            head = desc.freelist_head
            seen = 0
            while head != 0:
                seen += 1
                if seen > desc.n_cells:
                    raise RuntimeError(
                        f"free list of block {desc.index} is cyclic or corrupt"
                    )
                head = self.mem.read_word(self.to_physical(head))
            total += seen
        return total
