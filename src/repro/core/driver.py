"""The software side of the hardware GC: driver + libhwgc model (§V-E).

In the prototype, a Linux character device (/dev/hwgc0) configures the
unit: "the driver reads its process state, including the page-table base
register and status bits, which are written to memory-mapped registers in
the GC unit"; JikesRVM's MMTk plan calls into libhwgc.so through the
SysCall interface to initiate collections and poll for completion.

:class:`HWGCDriver` reproduces that control flow against the simulated
MMIO register file, and is the entry point the examples use: configure
once, then ``run_gc()``, ``run_gc_concurrent()`` or the supervised
``run_gc_safe()`` per collection. All three share one start / collect /
finish path; the supervised one adds a watchdog, a software check and
one fallback to the software collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Set

from repro.core.concurrent.collect import ConcurrentCycle, ConcurrentGCResult
from repro.core.config import GCUnitConfig, HardwareGCResult
from repro.core.mmio import Command, MMIORegisterFile, Reg, Status
from repro.core.unit import GCUnit
from repro.engine.simulator import StallReport
from repro.engine.watchdog import GCWatchdog
from repro.heap.heapimage import HeapCheckpoint, ManagedHeap
from repro.heap.verify import HeapVerifier, VerificationReport
from repro.swgc.marksweep import SoftwareCollector


@dataclass
class SafeGCResult:
    """Outcome of :meth:`HWGCDriver.run_gc_safe`.

    ``outcome`` is ``"hardware"`` when the accelerator finished and passed
    the software checks, or ``"fallback"`` when the collection was aborted
    (watchdog trip, model exception, or failed verification) and re-run on
    the :class:`~repro.swgc.marksweep.SoftwareCollector` safety net. A
    fallback is never silent: the stall/verification evidence and every
    injected fault that fired ride along here and in the stats/trace.
    """

    result: Any  # Hardware-, ConcurrentGCResult or SoftwareGCResult
    outcome: str
    stall: Optional[StallReport] = None
    hardware_error: Optional[str] = None
    verification: Optional[VerificationReport] = None
    faults: List[Any] = field(default_factory=list)
    discarded_events: int = 0
    discarded_requests: int = 0

    @property
    def fallback(self) -> bool:
        return self.outcome == "fallback"

    def reason(self) -> str:
        """One-line explanation of why the fallback (if any) happened."""
        if not self.fallback:
            return "hardware collection completed and verified"
        if self.stall is not None:
            culprit = self.stall.culprit or "unknown component"
            return f"watchdog stall (culprit: {culprit})"
        if self.hardware_error is not None:
            return f"hardware model error: {self.hardware_error}"
        if self.verification is not None and not self.verification.ok:
            return (f"verification failed "
                    f"({len(self.verification.problems)} problems)")
        return "unknown"


class HWGCDriver:
    """Configures the unit via MMIO and runs collections (the libhwgc path)."""

    def __init__(self, heap: ManagedHeap,
                 config: Optional[GCUnitConfig] = None):
        self.heap = heap
        self.config = config if config is not None else GCUnitConfig()
        self.mmio = MMIORegisterFile()
        self._initialized = False

    def init_device(self) -> None:
        """What the kernel driver does at open(): program the address-space
        and region registers from the process's state."""
        memsys = self.heap.memsys
        self.mmio.write(Reg.PAGE_TABLE_BASE, memsys.page_table.root)
        self.mmio.write(Reg.HWGC_BASE, memsys.address_map.hwgc[0])
        self.mmio.write(
            Reg.HWGC_SIZE,
            memsys.address_map.hwgc[1] - memsys.address_map.hwgc[0],
        )
        self.mmio.write(Reg.SPILL_BASE, memsys.address_map.spill[0])
        self.mmio.write(
            Reg.SPILL_SIZE,
            memsys.address_map.spill[1] - memsys.address_map.spill[0],
        )
        self.mmio.write(Reg.BLOCK_LIST_BASE, memsys.address_map.block_list[0])
        self.mmio.write(Reg.N_SWEEPERS, self.config.n_sweepers)
        self._initialized = True

    def run_gc(self) -> HardwareGCResult:
        """Initiate a full collection and poll until DONE (§IV-C).

        Precondition: the runtime has already written the roots into
        hwgc-space (root scanning stays in software, §IV-C)."""
        self._start(Command.START_FULL_GC)
        return self._finish(self._collect())

    def run_gc_concurrent(self, mutator,
                          relocate_blocks: int = 0) -> ConcurrentGCResult:
        """Initiate a concurrent collection (§IV-D) and run it to DONE.

        The mutator keeps running during marking: its reference operations
        go through the write/read barriers, and (with ``relocate_blocks``)
        relocation is served mid-traversal from the forwarding table. Only
        the termination handshake and the sweep pause the application.
        """
        self._start(Command.START_CONCURRENT_GC)
        return self._finish(self._collect(mutator, relocate_blocks))

    def _start(self, command: Command) -> None:
        """Check the unit can take a command, then program and issue it."""
        if not self._initialized:
            raise RuntimeError("driver not initialized; call init_device()")
        if self.mmio.status != Status.READY:
            raise RuntimeError(f"unit busy: {self.mmio.status}")
        self.mmio.write(Reg.MARK_PARITY, self.heap.mark_parity)
        self.mmio.write(Reg.COMMAND, int(command))

    def _collect(self, mutator=None, relocate_blocks: int = 0):
        """One hardware collection: mark then sweep, or (given a
        ``mutator``) a concurrent cycle racing it."""
        unit = GCUnit(self.heap, self.config)
        if mutator is not None:
            cycle = ConcurrentCycle(self.heap, self.config, mutator,
                                    relocate_blocks=relocate_blocks)
            return cycle.run(unit, on_phase=self._concurrent_phase)
        self.mmio.set_status(Status.MARKING)
        mark_cycles = unit.mark()
        self.mmio.set_status(Status.SWEEPING)
        return unit.collect_result(mark_cycles, unit.sweep())

    def _concurrent_phase(self, phase: str) -> None:
        """Status-register transitions as the concurrent cycle progresses."""
        if phase == "mark":
            self.mmio.set_status(Status.CONC_MARKING)
        elif phase == "sweep":
            self.mmio.set_status(Status.SWEEPING)

    def _finish(self, result):
        """Publish a finished collection's counters and return to READY."""
        self.mmio.set_status(Status.DONE)
        self.mmio.write(Reg.OBJECTS_MARKED, result.objects_marked)
        self.mmio.write(Reg.CELLS_FREED, result.cells_freed)
        if isinstance(result, ConcurrentGCResult):
            self.mmio.write(Reg.BARRIER_HITS, result.write_barrier_hits)
            self.mmio.write(Reg.OBJECTS_RELOCATED, result.objects_relocated)
        self.mmio.write(Reg.COMMAND, int(Command.IDLE))
        self.mmio.set_status(Status.READY)
        return result

    # -- the safety net (§V-E's replaceable libhwgc) -----------------------

    def run_gc_safe(self, mode: str = "stw", mutator=None,
                    relocate_blocks: int = 0) -> SafeGCResult:
        """Run a collection with supervision and graceful degradation.

        The hardware collection runs under a :class:`GCWatchdog`; its
        result is then software-checked against a reachability oracle
        (so even a fault that corrupts the object graph cannot fool the
        check). On a watchdog trip, a model exception, or a failed check,
        the hardware run is aborted — all residual simulation events and
        queued memory requests from the dead unit are discarded, the
        pre-GC heap snapshot is restored — and the collection re-runs on
        the software safety net, checked against the oracle captured
        *before* the run. Either way the final live set equals it exactly.

        ``mode="concurrent"`` supervises a concurrent cycle instead (pass
        the ``mutator``; see :meth:`run_gc_concurrent`). Its success path
        is checked against the oracle captured at the termination
        handshake — the only one valid for a graph that changed mid-cycle
        — with floating garbage allowed. Falling back restores the
        pre-cycle snapshot, so the mutator's work during the doomed cycle
        is lost and the software collector finishes a plain STW pause.
        """
        if mode not in ("stw", "concurrent"):
            raise ValueError(f"unknown GC mode {mode!r}")
        concurrent = mode == "concurrent"
        if concurrent and mutator is None:
            raise ValueError("mode='concurrent' needs a mutator")
        self._start(Command.START_CONCURRENT_GC if concurrent
                    else Command.START_FULL_GC)
        heap = self.heap
        stats = heap.memsys.stats
        snapshot = heap.checkpoint()
        oracle = heap.reachable()  # pre-GC: also the fallback's oracle
        wd = GCWatchdog().attach(heap.sim, stats)
        stall: Optional[StallReport] = None
        hardware_error: Optional[str] = None
        result = None
        try:
            result = self._collect(mutator if concurrent else None,
                                   relocate_blocks)
        except StallReport as exc:
            stall = exc
        except Exception as exc:  # a fault surfacing as a model error
            hardware_error = f"{type(exc).__name__}: {exc}"
        finally:
            wd.detach(heap.sim)
        verification: Optional[VerificationReport] = None
        if result is not None:
            verification = self._check(
                result.oracle if concurrent else oracle,
                floating_ok=concurrent)
        plane = stats.hwfaults
        fired = list(plane.fired) if plane is not None else []
        if verification is not None and verification.ok:
            return SafeGCResult(result=self._finish(result),
                                outcome="hardware",
                                verification=verification, faults=fired)
        # -- graceful degradation ------------------------------------------
        discarded_events, discarded_requests = self._abort_hardware(snapshot)
        self.mmio.set_status(Status.FALLBACK)
        stats.inc("driver.fallbacks")
        safe = SafeGCResult(result=None, outcome="fallback", stall=stall,
                            hardware_error=hardware_error,
                            verification=verification, faults=fired,
                            discarded_events=discarded_events,
                            discarded_requests=discarded_requests)
        trace = stats.trace
        if trace is not None:
            trace.emit(heap.sim.now, "fallback", safe.reason(),
                       stall.culprit if stall is not None else "")
        safe.result = SoftwareCollector(heap).collect()
        problems = self._check(oracle).problems
        if problems:  # double fault: nothing left to try
            raise AssertionError(
                f"software fallback failed its check ({len(problems)} "
                f"problems: {'; '.join(problems[:5])}); the fallback was "
                f"taken for {safe.reason()}")
        self.mmio.write(Reg.FALLBACKS, self.mmio.read(Reg.FALLBACKS) + 1)
        self._finish(safe.result)
        return safe

    def _check(self, oracle: Set[int],
               floating_ok: bool = False) -> VerificationReport:
        """Software check of a finished collection against ``oracle``.

        Checks only what stays decodable after a sweep: every oracle-live
        object's mark bit (swept dead cells no longer decode as objects,
        so the full ``check_marks`` walk is not applicable here), the
        per-cell sweep outcome, and the rebuilt free lists. With
        ``floating_ok`` (a concurrent cycle), floating garbage — objects
        that died during marking but were marked under SATB — may survive
        the sweep. A verifier crash — e.g. a corrupted header that no
        longer parses — counts as a failed check, not a driver error.
        """
        heap = self.heap
        report = VerificationReport()
        parity = heap.mark_parity
        try:
            for addr in sorted(oracle):
                report.objects_checked += 1
                if not heap.view(addr).is_marked(parity):
                    report.mark_errors.append(
                        f"unmarked live object at {addr:#x}")
            verifier = HeapVerifier(heap)
            verifier.check_sweep(report=report, parity=parity, live=oracle,
                                 floating_ok=floating_ok)
            verifier.check_free_lists(report=report)
        except Exception as exc:
            report.sweep_errors.append(
                f"verifier crashed: {type(exc).__name__}: {exc}")
        return report

    def _abort_hardware(self, snapshot: HeapCheckpoint):
        """Tear down an abandoned hardware collection.

        Order matters: residual events and queued DRAM requests from the
        dead unit must be discarded *before* the heap snapshot is restored
        — a stale completion callback firing into the restored image would
        corrupt it all over again. The fault plane is suspended for the
        remainder of the pause: the safety net models the CPU path, which
        the injected hardware faults do not reach.
        """
        sim = self.heap.sim
        discarded_events = sim.discard_pending()
        model = self.heap.memsys.model
        discarded_requests = model.abort_pending()
        stats = self.heap.memsys.stats
        plane = stats.hwfaults
        if plane is not None:
            plane.suspend()
        self.heap.restore(snapshot)
        return discarded_events, discarded_requests
