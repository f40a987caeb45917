"""Software verification of hardware-GC results (§V-E).

"By replacing libhwgc, we can swap in a software implementation of our GC,
as well as a version that performs software checks of the hardware unit
(or produces a snapshot of the heap). This approach helped for debugging."

:class:`HeapVerifier` is that debug path: a functional (untimed) mark over
the heap image compared bit-for-bit against what a collector produced,
plus structural checks of free lists and block metadata.
:func:`snapshot_heap` / :func:`diff_snapshots` support the snapshot-based
debugging workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.heap.header import (
    decode_refcount,
    header_is_marked,
    scan_word_is_object,
)
from repro.heap.heapimage import ManagedHeap
from repro.memory.config import WORD_BYTES


@dataclass
class VerificationReport:
    """Outcome of a software check of a collection."""

    objects_checked: int = 0
    mark_errors: List[str] = field(default_factory=list)
    sweep_errors: List[str] = field(default_factory=list)
    freelist_errors: List[str] = field(default_factory=list)

    @property
    def problems(self) -> List[str]:
        return self.mark_errors + self.sweep_errors + self.freelist_errors

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_if_failed(self) -> None:
        problems = self.problems
        if problems:
            preview = "; ".join(problems[:5])
            raise AssertionError(
                f"hardware GC verification failed "
                f"({len(problems)} problems): {preview}"
            )


class HeapVerifier:
    """Functional re-execution of marking, compared against the heap image."""

    def __init__(self, heap: ManagedHeap):
        self.heap = heap

    def software_mark_set(self) -> Set[int]:
        """The reference result: BFS straight over the memory image."""
        return self.heap.reachable()

    def check_marks(self, parity: Optional[int] = None,
                    report: Optional[VerificationReport] = None,
                    live: Optional[Set[int]] = None,
                    ) -> VerificationReport:
        """Every tracked object's mark bit must match functional liveness.

        ``live`` lets the caller supply a pre-computed oracle (e.g. the
        reachable set captured *before* a hardware run). That matters under
        fault injection: a corrupting fault mutates the object graph, so a
        post-hoc BFS would agree with the corrupted heap and miss the
        damage.
        """
        heap = self.heap
        parity = parity if parity is not None else heap.mark_parity
        report = report or VerificationReport()
        expected_live = live if live is not None else self.software_mark_set()
        for addr in heap.objects:
            view = heap.view(addr)
            report.objects_checked += 1
            is_marked = view.is_marked(parity)
            should_be = addr in expected_live
            if is_marked != should_be:
                kind = "unmarked live" if should_be else "marked garbage"
                report.mark_errors.append(f"{kind} object at {addr:#x}")
        return report

    def check_sweep(self, report: Optional[VerificationReport] = None,
                    parity: Optional[int] = None,
                    live: Optional[Set[int]] = None,
                    floating_ok: bool = False) -> VerificationReport:
        """After a sweep: dead MarkSweep cells are free, live ones intact.

        ``live`` optionally supplies a pre-computed oracle reachable set
        (see :meth:`check_marks`). ``floating_ok`` relaxes the "surviving
        garbage" arm: a *concurrent* cycle legitimately keeps marked
        objects that died during marking (SATB floating garbage), so only
        unswept-dead cells are errors there.
        """
        heap = self.heap
        parity = parity if parity is not None else heap.mark_parity
        report = report or VerificationReport()
        live = live if live is not None else self.software_mark_set()
        ms = heap.plan.marksweep
        for desc in heap.block_list:
            base_paddr = heap.to_physical(desc.base_vaddr)
            if not ms.contains(base_paddr):
                report.sweep_errors.append(
                    f"block {desc.index} outside the MarkSweep space")
                continue
            for i in range(desc.n_cells):
                cell_paddr = base_paddr + i * desc.cell_bytes
                first = heap.mem.read_word(cell_paddr)
                if not scan_word_is_object(first):
                    continue  # a free cell; the free-list check covers it
                n_refs, _ = decode_refcount(first)
                status = heap.mem.read_word(
                    cell_paddr + WORD_BYTES * (1 + n_refs))
                obj_addr = desc.base_vaddr + i * desc.cell_bytes \
                    + WORD_BYTES * (1 + n_refs)
                if header_is_marked(status, parity):
                    if obj_addr not in live and not floating_ok:
                        report.sweep_errors.append(
                            f"surviving garbage cell at {obj_addr:#x}")
                else:
                    report.sweep_errors.append(
                        f"unswept dead object at {obj_addr:#x} "
                        "(cell still tagged live, not marked)")
        return report

    def check_free_lists(self, report: Optional[VerificationReport] = None,
                         ) -> VerificationReport:
        report = report or VerificationReport()
        try:
            self.heap.check_free_lists()
        except AssertionError as exc:
            report.freelist_errors.append(str(exc))
        return report

    def full_check(self, parity: Optional[int] = None,
                   live: Optional[Set[int]] = None) -> VerificationReport:
        """Marks + sweep + free lists in one report."""
        report = VerificationReport()
        self.check_marks(parity=parity, report=report, live=live)
        self.check_sweep(parity=parity, report=report, live=live)
        self.check_free_lists(report=report)
        return report


# -- heap snapshots (the debugging aid of §V-E) -----------------------------

@dataclass(frozen=True)
class ObjectSnapshot:
    addr: int
    n_refs: int
    is_array: bool
    mark_bit: int
    refs: Tuple[int, ...]


def snapshot_heap(heap: ManagedHeap) -> Dict[int, ObjectSnapshot]:
    """Capture the logical state of every tracked object."""
    out: Dict[int, ObjectSnapshot] = {}
    for addr in heap.objects:
        view = heap.view(addr)
        out[addr] = ObjectSnapshot(
            addr=addr,
            n_refs=view.n_refs,
            is_array=view.is_array,
            mark_bit=view.mark_bit,
            refs=tuple(view.refs()),
        )
    return out


def heap_digest(heap: ManagedHeap) -> str:
    """SHA-256 over the heap's *logical* post-GC state.

    Hashes the live-set snapshots (address, refcount, array flag, mark
    bit, outgoing references), each block's rebuilt free list, and the
    mark parity — the state a collection is supposed to produce. It
    deliberately excludes raw memory outside that (the hardware path
    leaves spill-ring residue the software path does not), so a hardware
    collection, a software collection, and a fault-recovered fallback of
    the same heap all digest identically — which is exactly the identity
    the CI fault smoke asserts.
    """
    import hashlib
    hasher = hashlib.sha256()
    hasher.update(f"parity={heap.mark_parity}\n".encode())
    # Live objects only: swept dead cells have had their scan word
    # overwritten by the free-list relink and no longer decode as objects.
    for addr in sorted(heap.reachable()):
        snap = heap.view(addr)
        hasher.update(
            f"obj {addr:#x} {snap.n_refs} {int(snap.is_array)} "
            f"{snap.mark_bit} {tuple(snap.refs())!r}\n".encode())
    for desc in heap.block_list:
        cells = []
        cur = desc.freelist_head
        # Bounded walk: a corrupted list (cycle, garbage pointer) must
        # still terminate with a distinctive digest, not an exception.
        for _ in range(desc.n_cells + 1):
            if cur == 0:
                break
            cells.append(cur)
            try:
                cur = heap.mem.read_word(heap.to_physical(cur))
            except Exception:
                cells.append(-1)
                break
        hasher.update(
            f"free block={desc.index} {cells!r}\n".encode())
    return hasher.hexdigest()


def reachable_digest(heap: ManagedHeap, include_marks: bool = False) -> str:
    """SHA-256 over the *reachable object graph only* — addresses, shapes
    and reference fields, excluding free lists, parity and (by default)
    mark bits.

    This is the differential currency for concurrent collections: a
    concurrent cycle and an untimed functional replay of the same mutator
    must produce byte-identical reachable graphs, even though their mark
    bits, free lists and floating garbage legitimately differ.
    """
    import hashlib
    hasher = hashlib.sha256()
    for addr in sorted(heap.reachable()):
        view = heap.view(addr)
        mark = view.mark_bit if include_marks else 0
        hasher.update(
            f"obj {addr:#x} {view.n_refs} {int(view.is_array)} "
            f"{mark} {tuple(view.refs())!r}\n".encode())
    return hasher.hexdigest()


def diff_snapshots(before: Dict[int, ObjectSnapshot],
                   after: Dict[int, ObjectSnapshot]) -> List[str]:
    """Human-readable differences between two snapshots."""
    diffs: List[str] = []
    for addr in sorted(set(before) | set(after)):
        a, b = before.get(addr), after.get(addr)
        if a is None:
            diffs.append(f"+ object {addr:#x} appeared")
        elif b is None:
            diffs.append(f"- object {addr:#x} disappeared")
        elif a != b:
            details = []
            if a.mark_bit != b.mark_bit:
                details.append(f"mark {a.mark_bit}->{b.mark_bit}")
            if a.refs != b.refs:
                details.append(f"refs changed ({len(a.refs)}->{len(b.refs)})")
            diffs.append(f"~ object {addr:#x}: {', '.join(details) or 'meta'}")
    return diffs
