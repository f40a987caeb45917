"""Software Mark & Sweep collector, timed on the in-order CPU model.

This is the baseline of Figs. 15–17 and 20: "we rewrote Jikes's GC in C,
compiling it with -O3 and linking it into the JVM" (§VI-A). The algorithm
is identical to the accelerator's — same bidirectional header encoding, same
parity marking, same per-block cell sweep writing free lists — executed as
the dependent load/store/branch stream a compiled loop produces.

The software mark queue lives in real memory (we reuse the spill region,
which the software collector owns when the unit is idle), so queue pushes
and pops are genuine stores/loads that mostly hit in the L1 — matching the
paper's observation that the only locality a CPU can exploit during marking
is incidental.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType
from typing import Dict, Optional

from repro.engine.simulator import Simulator
from repro.heap.header import (
    decode_refcount,
    header_is_marked,
    header_with_mark,
    scan_word_is_object,
)
from repro.heap.heapimage import ManagedHeap
from repro.memory.config import WORD_BYTES
from repro.swgc.cpu import CPUConfig, InOrderCPU

# Fixed instruction costs (cycles of non-memory work) for the compiled GC
# loops. These model the -O3 C implementation: loop control, address
# arithmetic, and field decoding around each memory operation.
_MARK_LOOP_OVERHEAD = 3  # pop bookkeeping + dispatch
_MARK_DECODE_OVERHEAD = 3  # extract mark bit / refcount from the header
_PUSH_OVERHEAD = 2  # per-reference null check + enqueue arithmetic
_SWEEP_CELL_OVERHEAD = 2  # cell-address arithmetic + loop control
_SWEEP_BLOCK_OVERHEAD = 4  # per-block setup


@dataclass
class SoftwareGCResult:
    """Timing and work counters for one software collection."""

    mark_cycles: int
    sweep_cycles: int
    objects_marked: int
    cells_freed: int
    cells_live: int
    queue_peak: int

    @property
    def total_cycles(self) -> int:
        return self.mark_cycles + self.sweep_cycles

    @property
    def mark_ms(self) -> float:
        return self.mark_cycles / 1e6  # 1 GHz: cycles are ns

    @property
    def sweep_ms(self) -> float:
        return self.sweep_cycles / 1e6


class _MajorityPredictor:
    """A tiny branch predictor: predicts the running-majority outcome."""

    def __init__(self) -> None:
        self._bias = 0

    def mispredicted(self, taken: bool) -> bool:
        predicted_taken = self._bias >= 0
        self._bias = min(8, self._bias + 1) if taken else max(-8, self._bias - 1)
        return predicted_taken != taken


class SoftwareCollector:
    """Runs stop-the-world Mark & Sweep on the CPU model."""

    def __init__(
        self,
        heap: ManagedHeap,
        cpu: Optional[InOrderCPU] = None,
        cpu_config: Optional[CPUConfig] = None,
        layout: str = "bidirectional",
    ):
        if layout not in ("bidirectional", "conventional"):
            raise ValueError(f"unknown layout {layout!r}")
        self.heap = heap
        self.sim: Simulator = heap.sim
        #: "conventional" charges the TIB-indirection costs of Fig. 6a (two
        #: extra accesses per object to find the reference offsets) — the
        #: layout ablation of §IV-A idea I. The heap image itself stays
        #: bidirectional; only the timing differs.
        self.layout = layout
        self.cpu = cpu if cpu is not None else InOrderCPU(
            heap.sim, heap.memsys, config=cpu_config
        )
        # The software mark queue occupies the spill region.
        self._queue_base = heap.memsys.address_map.spill[0]
        self._queue_capacity = (
            heap.memsys.address_map.spill[1] - self._queue_base
        ) // WORD_BYTES
        self.last_result: Optional[SoftwareGCResult] = None

    # -- queue helpers (functional part of the timed queue ops) -------------

    def _queue_slot_vaddr(self, index: int) -> int:
        paddr = self._queue_base + (index % self._queue_capacity) * WORD_BYTES
        return self.heap.to_virtual(paddr)

    # -- phases ---------------------------------------------------------------

    def mark_process(self, counters: Dict[str, int]):
        """The compiled mark loop: BFS with header read-modify-writes.

        This is the hottest generator in the software collector, so the
        fixed-cost sub-routines (``exec_ops``, ``branch``) are inlined and
        accumulated into a ``lag`` of pending delay cycles — memory ops use
        the flattened ``load_op``/``store_op`` handles (one yield in the
        common case, generator fallback on TLB misses and stalls), and the
        per-iteration attribute chains (``mem.read_word``, address
        translation) are hoisted to locals. Instruction accounting is
        batched into ``cpu.instructions`` at exit.

        The ``lag`` protocol: between two memory operations this process is
        the only actor observing its own intermediate wakeups, so every run
        of pure-delay yields (loop overhead, decode, branch outcome) is
        coalesced into a single ``yield lag`` flushed immediately before
        the next side-effectful call. Each memory op is therefore invoked at
        exactly the cycle the unbatched yields would reach, while the kernel
        processes one wakeup where it would otherwise process several.

        Store issue slots are still yielded directly, not folded into
        ``lag``. Folding leaves every cycle count unchanged but schedules
        the next wakeup one cycle earlier, which moves it within its
        target cycle's FIFO bucket. That reorders same-cycle trace records
        and changes the pinned avrora trace digest (``4e25471016662c74``
        at scale 0.05), so the pinned intra-cycle event order keeps the
        separate yield.
        """
        heap = self.heap
        mem = heap.mem
        cpu = self.cpu
        parity = heap.mark_parity
        predictor = _MajorityPredictor()
        mispredicted = predictor.mispredicted
        head = 0
        tail = 0

        load_op = cpu.load_op
        store_op = cpu.store_op
        gen = GeneratorType
        read_word = mem.read_word
        write_word = mem.write_word
        to_physical = heap.to_physical
        queue_slot_vaddr = self._queue_slot_vaddr
        queue_capacity = self._queue_capacity
        c_mispredicts = cpu._c_mispredicts
        penalty = cpu.config.branch_mispredict_penalty
        conventional = self.layout == "conventional"
        word_bytes = WORD_BYTES
        insns = 0  # inlined exec/branch instruction count, flushed at exit
        lag = 0  # pending pure-delay cycles, flushed before the next op

        try:
            # Enqueue the roots (reads from hwgc-space, writes to the queue).
            h = load_op(heap.to_virtual(heap.roots.base))
            if h.__class__ is gen:
                yield from h
            else:
                yield h
            n_roots = heap.roots.count
            for i in range(n_roots):
                root_paddr = heap.roots.base + word_bytes * (1 + i)
                if lag:
                    yield lag
                    lag = 0
                h = load_op(heap.to_virtual(root_paddr))
                if h.__class__ is gen:
                    yield from h
                else:
                    yield h
                ref = read_word(root_paddr)
                if ref == 0:
                    continue
                slot = queue_slot_vaddr(tail)
                write_word(to_physical(slot), ref)
                h = store_op(slot)
                if h.__class__ is gen:
                    yield from h
                else:
                    yield h
                tail += 1

            peak = tail - head
            while head < tail:
                insns += _MARK_LOOP_OVERHEAD
                slot = queue_slot_vaddr(head)
                yield lag + _MARK_LOOP_OVERHEAD
                lag = 0
                h = load_op(slot)
                if h.__class__ is gen:
                    yield from h
                else:
                    yield h
                ref = read_word(to_physical(slot))
                head += 1

                # Dependent header load, then the branch the paper calls
                # out: "the outcome of the mark operation determines whether
                # or not references need to be copied" (§IV-A).
                h = load_op(ref)
                if h.__class__ is gen:
                    yield from h
                else:
                    yield h
                status_paddr = to_physical(ref)
                status = read_word(status_paddr)
                already = header_is_marked(status, parity)
                insns += _MARK_DECODE_OVERHEAD + 1
                lag += _MARK_DECODE_OVERHEAD
                if mispredicted(not already):
                    c_mispredicts.value += 1
                    lag += penalty
                else:
                    lag += 1
                if already:
                    continue

                # Mark: store the updated header word.
                yield lag
                lag = 0
                write_word(status_paddr, header_with_mark(status, parity))
                h = store_op(ref)
                if h.__class__ is gen:
                    yield from h
                else:
                    yield h
                counters["objects_marked"] += 1

                n_refs, _is_array = decode_refcount(status)
                if conventional and n_refs > 0:
                    # Fig. 6a: load the TIB pointer, then the TIB's offset
                    # list. Few distinct TIBs exist, so these mostly hit in
                    # the cache ("most TIBs are in the cache", §IV-A).
                    tib_base = heap.to_virtual(heap.plan.immortal.pstart)
                    tib_vaddr = tib_base + (n_refs % 32) * 64
                    if lag:
                        yield lag
                        lag = 0
                    h = load_op(tib_vaddr)
                    if h.__class__ is gen:
                        yield from h
                    else:
                        yield h
                    h = load_op(tib_vaddr + word_bytes)
                    if h.__class__ is gen:
                        yield from h
                    else:
                        yield h
                # Walk the reference section (unit-stride, below the header).
                for i in range(n_refs):
                    field_vaddr = ref - word_bytes * (n_refs - i)
                    if lag:
                        yield lag
                        lag = 0
                    h = load_op(field_vaddr)
                    if h.__class__ is gen:
                        yield from h
                    else:
                        yield h
                    target = read_word(to_physical(field_vaddr))
                    insns += _PUSH_OVERHEAD
                    lag += _PUSH_OVERHEAD
                    if target == 0:
                        continue
                    if tail - head >= queue_capacity:
                        raise MemoryError("software mark queue overflow")
                    slot = queue_slot_vaddr(tail)
                    write_word(to_physical(slot), target)
                    yield lag
                    lag = 0
                    h = store_op(slot)
                    if h.__class__ is gen:
                        yield from h
                    else:
                        yield h
                    tail += 1
                    if tail - head > peak:
                        peak = tail - head
            if lag:
                yield lag
                lag = 0
            yield from cpu.drain_stores()
            counters["queue_peak"] = peak
        finally:
            cpu.instructions += insns

    def sweep_process(self, counters: Dict[str, int]):
        """The compiled sweep loop over the global block list (§V-D).

        Hot-loop shape mirrors :meth:`mark_process`: fixed-cost sub-routines
        accumulate into the pending-delay ``lag`` (flushed right before the
        next memory op), per-cell attribute chains are hoisted. The
        liveness branch is always correctly predicted (one cycle of lag).
        """
        heap = self.heap
        mem = heap.mem
        cpu = self.cpu
        parity = heap.mark_parity
        n_blocks = heap.block_list.count

        load_op = cpu.load_op
        store_op = cpu.store_op
        gen = GeneratorType
        read_word = mem.read_word
        write_word = mem.write_word
        to_physical = heap.to_physical
        word_bytes = WORD_BYTES
        insns = 0
        lag = 0  # pending pure-delay cycles, flushed before the next op

        try:
            for block_index in range(n_blocks):
                insns += _SWEEP_BLOCK_OVERHEAD
                desc_paddr = heap.block_list.descriptor_addr(block_index)
                yield lag + _SWEEP_BLOCK_OVERHEAD
                lag = 0
                h = load_op(heap.to_virtual(desc_paddr), size=32)
                if h.__class__ is gen:
                    yield from h
                else:
                    yield h
                desc = heap.block_list.read(block_index)
                free_head = 0
                cell_vaddr = desc.base_vaddr
                cell_bytes = desc.cell_bytes
                for cell_i in range(desc.n_cells):
                    cell_paddr = to_physical(cell_vaddr)
                    insns += _SWEEP_CELL_OVERHEAD
                    yield lag + _SWEEP_CELL_OVERHEAD
                    lag = 0
                    h = load_op(cell_vaddr)
                    if h.__class__ is gen:
                        yield from h
                    else:
                        yield h
                    first_word = read_word(cell_paddr)
                    if scan_word_is_object(first_word):
                        n_refs, _ = decode_refcount(first_word)
                        status_vaddr = cell_vaddr + word_bytes * (1 + n_refs)
                        h = load_op(status_vaddr)
                        if h.__class__ is gen:
                            yield from h
                        else:
                            yield h
                        status = read_word(to_physical(status_vaddr))
                        live = header_is_marked(status, parity)
                        insns += 1
                        lag += 1  # correctly-predicted liveness branch
                        if live:
                            counters["cells_live"] += 1
                            cell_vaddr += cell_bytes
                            continue
                        counters["cells_freed"] += 1
                    # Dead object or already-free cell: (re)link onto the
                    # list.
                    if lag:
                        yield lag
                        lag = 0
                    write_word(cell_paddr, free_head)
                    h = store_op(cell_vaddr)
                    if h.__class__ is gen:
                        yield from h
                    else:
                        yield h
                    free_head = cell_vaddr
                    cell_vaddr += cell_bytes
                head_paddr = desc_paddr + 3 * word_bytes
                if lag:
                    yield lag
                    lag = 0
                write_word(head_paddr, free_head)
                h = store_op(heap.to_virtual(head_paddr))
                if h.__class__ is gen:
                    yield from h
                else:
                    yield h
            if lag:
                yield lag
                lag = 0
            yield from cpu.drain_stores()
        finally:
            cpu.instructions += insns

    # -- driver -----------------------------------------------------------------

    def collect(self) -> SoftwareGCResult:
        """Run a full stop-the-world mark + sweep; returns timing/work stats.

        The caller is responsible for ``heap.complete_gc_cycle()`` afterwards
        (mirrors the runtime system finishing the pause).
        """
        counters = {
            "objects_marked": 0, "cells_freed": 0, "cells_live": 0,
            "queue_peak": 0,
        }
        trace = self.heap.memsys.stats.trace
        start = self.sim.now
        if trace is not None:
            trace.emit(start, "phase", "sw.mark", "B")
        done = self.sim.process(self.mark_process(counters), name="sw-mark")
        self.sim.run_until(done)
        if trace is not None:
            trace.emit(self.sim.now, "phase", "sw.mark", "E")
        mark_cycles = self.sim.now - start

        start = self.sim.now
        if trace is not None:
            trace.emit(start, "phase", "sw.sweep", "B")
        done = self.sim.process(self.sweep_process(counters), name="sw-sweep")
        self.sim.run_until(done)
        if trace is not None:
            trace.emit(self.sim.now, "phase", "sw.sweep", "E")
        sweep_cycles = self.sim.now - start

        self.last_result = SoftwareGCResult(
            mark_cycles=mark_cycles,
            sweep_cycles=sweep_cycles,
            objects_marked=counters["objects_marked"],
            cells_freed=counters["cells_freed"],
            cells_live=counters["cells_live"],
            queue_peak=counters["queue_peak"],
        )
        return self.last_result
