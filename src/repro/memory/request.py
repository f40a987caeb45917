"""Memory request descriptors shared by all timing models.

Requests carry a ``source`` string so the harness can attribute traffic to
the unit that generated it — the breakdown that drives Fig. 18 ("Traversal
Unit Memory Requests": mark queue / tracer / PTW / marker) and the bandwidth
plots (Figs. 16, 17b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

# TileLink in the prototype supports naturally aligned transfers of 8..64B
# (§V-C: "Our interconnect supports transfer sizes from 8 to 64B, but they
# have to be aligned").
MIN_TRANSFER = 8
MAX_TRANSFER = 64


class AccessKind(enum.Enum):
    """What kind of memory operation a request performs."""

    READ = "read"
    WRITE = "write"
    AMO = "amo"  # atomic read-modify-write (fetch-or / fetch-and)

    @property
    def is_write(self) -> bool:
        return self is AccessKind.WRITE

    @property
    def needs_response_data(self) -> bool:
        """AMOs and reads return data to the requester; writes are posted."""
        return self is not AccessKind.WRITE


#: ``str.format`` template describing a request. Components pass it with
#: the request to ``GCWatchdog.note_submit``, which renders it only when
#: it diagnoses a stall.
REQUEST_DESC = "{0.kind.value} {0.size}B @0x{0.addr:x} from {0.source}"


@dataclass(slots=True)
class MemRequest:
    """A single memory-system transaction.

    ``addr`` is a *physical* byte address (translation happens in the TLBs
    before requests reach the memory system). ``size`` is in bytes.

    Slotted: requests are allocated on every cache/DRAM/pipe access (about
    a hundred thousand per small GC comparison), so skipping the per-instance
    ``__dict__`` is a measurable win.
    """

    addr: int
    size: int
    kind: AccessKind
    source: str = "unknown"
    issue_time: Optional[int] = None
    tag: Optional[int] = None  # marker request-slot tag (Fig. 13)

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError(f"negative address: {self.addr:#x}")
        if self.size <= 0:
            raise ValueError(f"non-positive size: {self.size}")

    @property
    def is_write(self) -> bool:
        return self.kind is AccessKind.WRITE


class RequestSlots:
    """The marker's tag table (Fig. 13) as parallel columns indexed by tag.

    "Instead of full memory requests, we only hold a tag and a 64-bit
    address for each request" — so the model holds exactly that: one
    ``ref`` and one ``paddr`` column, preallocated to the slot count.
    In-flight state is a pair of list stores at issue and a pair of list
    loads at response; the response callback carries only the integer tag.
    """

    __slots__ = ("ref", "paddr")

    def __init__(self, n_slots: int):
        self.ref: list = [0] * n_slots
        self.paddr: list = [0] * n_slots

    def store(self, tag: int, ref: int, paddr: int) -> None:
        self.ref[tag] = ref
        self.paddr[tag] = paddr


def validate_tilelink(req: MemRequest) -> None:
    """Enforce the interconnect's transfer rules (power-of-two 8..64B, aligned).

    The tracer's request generator must only emit requests that pass this
    check; it is property-tested in ``tests/core/test_tracer.py``.
    """
    size = req.size
    if size < MIN_TRANSFER or size > MAX_TRANSFER:
        raise ValueError(f"transfer size {size} outside [8, 64]")
    if size & (size - 1) != 0:
        raise ValueError(f"transfer size {size} not a power of two")
    if req.addr % size != 0:
        raise ValueError(f"transfer {req.addr:#x} not aligned to size {size}")


def split_into_aligned_transfers(addr: int, nbytes: int) -> "list[tuple[int, int]]":
    """Split ``[addr, addr+nbytes)`` into maximal aligned 8..64B transfers.

    Implements the tracer's request-generation rule (§V-C): "If we need to
    copy 15 references (15x8 bytes) at 0x1a18, we therefore issue requests of
    transfer sizes 8, 32, 64, 16 (in this order)."

    ``addr`` and ``nbytes`` must be multiples of 8.
    """
    if addr % MIN_TRANSFER or nbytes % MIN_TRANSFER:
        raise ValueError("tracer transfers must be word-aligned")
    out = []
    cur = addr
    remaining = nbytes
    while remaining > 0:
        # The largest power-of-two size that divides the current alignment
        # and does not exceed what remains (capped at MAX_TRANSFER).
        align = cur & -cur if cur else MAX_TRANSFER
        size = min(align, MAX_TRANSFER)
        while size > remaining:
            size //= 2
        out.append((cur, size))
        cur += size
        remaining -= size
    return out
