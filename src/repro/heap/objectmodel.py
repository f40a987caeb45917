"""Typed view over an object in the simulated heap.

:class:`ObjectView` wraps an object reference (the virtual address of its
status word under the bidirectional layout) and exposes the fields the
collectors manipulate. Used by the graph generators, the mutator model, and
the verification code in tests; the collectors themselves read memory
directly, as the hardware does.
"""

from __future__ import annotations

from typing import List

from repro.heap.header import (
    MARK_BIT,
    TAG_BIT,
    decode_refcount,
    header_is_marked,
)
from repro.heap.layout import BidirectionalLayout
from repro.memory.config import WORD_BYTES
from repro.memory.memimage import PhysicalMemory


class ObjectView:
    """Accessor for one bidirectional-layout object.

    When a :class:`~repro.heap.metadata.HeapMetadata` sidecar is attached
    (``meta``/``_slot``), the layout-derived accessors — ``n_refs``,
    ``is_array``, ``ref_paddr``, ``get_ref``, ``set_ref``, ``refs`` — read
    the sidecar's flat arrays instead of decoding the status word from
    memory on every call. Mark-bit accessors always read live memory: mark
    state is mutable, and the sidecar only caches immutable layout.
    """

    __slots__ = ("mem", "addr", "virt_offset", "meta", "_slot")

    def __init__(self, mem: PhysicalMemory, addr: int, virt_offset: int,
                 meta=None):
        self.mem = mem
        self.addr = addr  # virtual address of the status word
        self.virt_offset = virt_offset
        self.meta = meta
        self._slot = meta.index.get(addr) if meta is not None else None

    # -- address translation ------------------------------------------------

    @property
    def status_paddr(self) -> int:
        return self.addr - self.virt_offset

    # -- header ------------------------------------------------------------

    @property
    def status_word(self) -> int:
        return self.mem.read_word(self.status_paddr)

    @property
    def n_refs(self) -> int:
        i = self._slot
        if i is not None:
            return self.meta.n_refs[i]
        return decode_refcount(self.status_word)[0]

    @property
    def is_array(self) -> bool:
        i = self._slot
        if i is not None:
            return self.meta.is_array[i]
        return decode_refcount(self.status_word)[1]

    @property
    def is_live_cell(self) -> bool:
        return bool(self.status_word & TAG_BIT)

    def is_marked(self, parity: int) -> bool:
        return header_is_marked(self.status_word, parity)

    @property
    def mark_bit(self) -> int:
        return 1 if self.status_word & MARK_BIT else 0

    # -- reference fields -----------------------------------------------------

    def ref_paddr(self, index: int) -> int:
        i = self._slot
        if i is not None:
            meta = self.meta
            if not 0 <= index < meta.n_refs[i]:
                raise IndexError(f"ref index {index} out of {meta.n_refs[i]}")
            return (meta.ref_base_index[i] + index) * WORD_BYTES
        vaddr = BidirectionalLayout.ref_field_addr(self.addr, self.n_refs, index)
        return vaddr - self.virt_offset

    def get_ref(self, index: int) -> int:
        """Read reference field ``index`` (0 means null)."""
        i = self._slot
        if i is not None:
            meta = self.meta
            if not 0 <= index < meta.n_refs[i]:
                raise IndexError(f"ref index {index} out of {meta.n_refs[i]}")
            return int(self.mem.words[meta.ref_base_index[i] + index])
        return self.mem.read_word(self.ref_paddr(index))

    def set_ref(self, index: int, target_vaddr: int) -> None:
        """Write reference field ``index``; ``0`` stores null."""
        i = self._slot
        if i is not None:
            meta = self.meta
            if not 0 <= index < meta.n_refs[i]:
                raise IndexError(f"ref index {index} out of {meta.n_refs[i]}")
            word_index = meta.ref_base_index[i] + index
            self.mem.words[word_index] = target_vaddr & 0xFFFFFFFFFFFFFFFF
            self.mem.note_dirty(word_index)
            return
        self.mem.write_word(self.ref_paddr(index), target_vaddr)

    def refs(self) -> List[int]:
        """All non-null outgoing references."""
        i = self._slot
        if i is not None:
            meta = self.meta
            n = meta.n_refs[i]
            if n == 0:
                return []
            base = meta.ref_base_index[i]
            return [int(w) for w in self.mem.words[base:base + n] if w]
        n = self.n_refs
        if n == 0:
            return []
        start_paddr = self.status_paddr - WORD_BYTES * n
        return [w for w in self.mem.read_words(start_paddr, n) if w != 0]

    # -- payload ---------------------------------------------------------------

    def payload_paddr(self, index: int) -> int:
        return self.status_paddr + WORD_BYTES * (1 + index)

    def get_payload(self, index: int) -> int:
        return self.mem.read_word(self.payload_paddr(index))

    def set_payload(self, index: int, value: int) -> None:
        self.mem.write_word(self.payload_paddr(index), value)

    def __repr__(self) -> str:
        return (
            f"ObjectView({self.addr:#x}, refs={self.n_refs}, "
            f"array={self.is_array}, mark={self.mark_bit})"
        )
