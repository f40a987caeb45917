"""Blocks and the global block list consumed by the reclamation unit.

The MarkSweep space is divided into fixed-size blocks, each assigned a size
class (§V-A). The reclamation unit iterates "through a list of blocks"
(§IV-B); we materialize that list in its own physical region so the unit's
block-list reader performs real memory traffic.

Block-list layout (all 64-bit words):

* word 0 — number of descriptors.
* then, per block, a 4-word descriptor:
  ``[base_vaddr, cell_bytes, n_cells, freelist_head_vaddr]``.

The sweeper updates ``freelist_head_vaddr`` after reclaiming a block; the
allocator reads it back when it needs cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.memory.config import WORD_BYTES
from repro.memory.memimage import PhysicalMemory

BLOCK_BYTES = 8 * 1024
DESCRIPTOR_WORDS = 4


@dataclass
class BlockDescriptor:
    """In-Python view of one block-list entry."""

    index: int
    base_vaddr: int
    cell_bytes: int
    n_cells: int
    freelist_head: int  # virtual address of the first free cell, 0 if none

    @property
    def size_bytes(self) -> int:
        return self.cell_bytes * self.n_cells

    def cell_vaddr(self, i: int) -> int:
        if not 0 <= i < self.n_cells:
            raise IndexError(f"cell {i} out of {self.n_cells}")
        return self.base_vaddr + i * self.cell_bytes


class BlockList:
    """The global block-descriptor array, resident in physical memory."""

    def __init__(self, mem: PhysicalMemory, region: Tuple[int, int]):
        self.mem = mem
        self.base, self.end = region
        self.mem.write_word(self.base, 0)

    @property
    def count(self) -> int:
        return self.mem.read_word(self.base)

    def _descriptor_addr(self, index: int) -> int:
        addr = self.base + WORD_BYTES * (1 + index * DESCRIPTOR_WORDS)
        if addr + DESCRIPTOR_WORDS * WORD_BYTES > self.end:
            raise MemoryError("block-list region exhausted")
        return addr

    def append(self, base_vaddr: int, cell_bytes: int, n_cells: int,
               freelist_head: int) -> BlockDescriptor:
        index = self.count
        addr = self._descriptor_addr(index)
        self.mem.write_words(
            addr, [base_vaddr, cell_bytes, n_cells, freelist_head]
        )
        self.mem.write_word(self.base, index + 1)
        return BlockDescriptor(index, base_vaddr, cell_bytes, n_cells, freelist_head)

    def append_many(self, base_vaddr: np.ndarray, cell_bytes: np.ndarray,
                    n_cells: np.ndarray, freelist_head: np.ndarray) -> None:
        """Append one descriptor per element of the columns, in one store."""
        first = self.count
        count = len(base_vaddr)
        if not count:
            return
        self._descriptor_addr(first + count - 1)  # raises if it overflows
        descriptors = np.stack(
            [base_vaddr, cell_bytes, n_cells, freelist_head], axis=1)
        start = self._descriptor_addr(first) // WORD_BYTES
        index = np.arange(start, start + DESCRIPTOR_WORDS * count)
        self.mem.scatter(np.append(index, self.base // WORD_BYTES),
                         np.append(descriptors.ravel(), first + count))

    def read(self, index: int) -> BlockDescriptor:
        if not 0 <= index < self.count:
            raise IndexError(f"block {index} out of {self.count}")
        addr = self._descriptor_addr(index)
        base_vaddr, cell_bytes, n_cells, head = self.mem.read_words(addr, 4)
        return BlockDescriptor(index, base_vaddr, cell_bytes, n_cells, head)

    def descriptor_addr(self, index: int) -> int:
        """Physical address of a descriptor — the sweep reads these."""
        if not 0 <= index < self.count:
            raise IndexError(f"block {index} out of {self.count}")
        return self._descriptor_addr(index)

    def set_freelist_head(self, index: int, head_vaddr: int) -> None:
        addr = self._descriptor_addr(index) + 3 * WORD_BYTES
        self.mem.write_word(addr, head_vaddr)

    def freelist_head(self, index: int) -> int:
        addr = self._descriptor_addr(index) + 3 * WORD_BYTES
        return self.mem.read_word(addr)

    def __iter__(self) -> Iterator[BlockDescriptor]:
        for index in range(self.count):
            yield self.read(index)

    def __len__(self) -> int:
        return self.count
