"""Mutator model: allocation churn between stop-the-world collections.

Drives the repeated-GC experiments: "average across all GC pauses during
the benchmark execution" (Fig. 15's methodology) and the CPU-time-in-GC
fractions of Fig. 1a. A *phase* allocates new objects off the free lists
the previous sweep produced, attaches some of them to the live graph
(overwriting references, which disconnects old subtrees into garbage),
drops and adds roots, then triggers a collection with the configured
collector (software baseline or the GC unit).

Mutator time is modeled analytically: ``allocated_bytes x
profile.mutator_cycles_per_byte`` — the application work a benchmark does
per byte it allocates, the knob that spreads benchmarks across Fig. 1a's
10-35% range.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.core.concurrent.collect import ConcurrentCycle, ConcurrentGCResult
from repro.core.config import GCUnitConfig, HardwareGCResult
from repro.core.unit import GCUnit
from repro.heap.layout import ObjectShape
from repro.swgc.cpu import CPUConfig
from repro.swgc.marksweep import SoftwareCollector, SoftwareGCResult
from repro.workloads.graphgen import BuiltHeap


@dataclass
class GCPauseRecord:
    """One GC pause.

    For a stop-the-world collection ``mark_cycles`` is the whole mark; for
    a concurrent collection it is only the termination handshake (the part
    that pauses the application) and ``concurrent_mark_cycles`` holds the
    marking span that raced the running mutator.
    """

    index: int
    start_cycle: int  # position on the run's virtual timeline
    mark_cycles: int
    sweep_cycles: int
    objects_marked: int
    cells_freed: int
    concurrent_mark_cycles: int = 0

    @property
    def pause_cycles(self) -> int:
        return self.mark_cycles + self.sweep_cycles

    @property
    def pause_ms(self) -> float:
        return self.pause_cycles / 1e6


@dataclass
class MutatorRunResult:
    """Timeline of a whole benchmark run: mutator segments + GC pauses."""

    collector: str
    pauses: List[GCPauseRecord] = field(default_factory=list)
    mutator_cycles: int = 0

    @property
    def gc_cycles(self) -> int:
        return sum(p.pause_cycles for p in self.pauses)

    @property
    def total_cycles(self) -> int:
        return self.gc_cycles + self.mutator_cycles

    @property
    def gc_time_fraction(self) -> float:
        total = self.total_cycles
        return self.gc_cycles / total if total else 0.0

    @property
    def mean_mark_cycles(self) -> float:
        if not self.pauses:
            return 0.0
        return sum(p.mark_cycles for p in self.pauses) / len(self.pauses)

    @property
    def mean_sweep_cycles(self) -> float:
        if not self.pauses:
            return 0.0
        return sum(p.sweep_cycles for p in self.pauses) / len(self.pauses)

    def timeline(self) -> List[tuple]:
        """[(kind, start, end), ...] alternating 'mutator'/'gc' segments."""
        segments = []
        cursor = 0
        for pause in self.pauses:
            if pause.start_cycle > cursor:
                segments.append(("mutator", cursor, pause.start_cycle))
            segments.append(
                ("gc", pause.start_cycle, pause.start_cycle + pause.pause_cycles)
            )
            cursor = pause.start_cycle + pause.pause_cycles
        return segments


class ConcurrentMutator:
    """A deterministic application process that runs *during* marking.

    Implements the duck type :class:`repro.core.concurrent.collect.
    ConcurrentCycle` expects: ``process(barriers)`` is a simulation-process
    generator whose every reference operation goes through the given
    :class:`~repro.core.concurrent.barriers.MutatorBarriers`, and
    ``final_roots()`` is the logical root set once mutation has quiesced.

    Two properties the test battery leans on:

    * **Replayability**: the generator yields only integer delays, so the
      differential oracle can step it functionally (plain iteration, no
      simulator) against a restored checkpoint and perform the *identical*
      operation sequence — same RNG stream, same allocation order, same
      addresses.
    * **Forwarding hygiene**: after a relocation prologue the BFS oracle
      still reports old addresses for objects referenced by stale fields
      (quarantined source cells keep decodable headers), so the working
      pool is normalized through the forwarding table before first use.

    Operation mix per step: allocate-and-attach (exercising allocate-black
    and the hidden-object race of Fig. 3), or detach/stash/reattach moves
    (read through the read barrier, two barriered writes — the exact
    interleaving SATB exists to survive). Root removals are deferred to
    ``final_roots()`` so the traversal's snapshot stays stable.
    """

    def __init__(
        self,
        built: BuiltHeap,
        n_ops: int = 240,
        period: int = 400,
        seed: int = 0,
        alloc_fraction: float = 0.35,
        root_add_fraction: float = 0.3,
        drop_root_fraction: float = 0.1,
    ):
        self.built = built
        self.heap = built.heap
        self.n_ops = n_ops
        self.period = period
        self.seed = seed
        self.alloc_fraction = alloc_fraction
        self.root_add_fraction = root_add_fraction
        self.drop_root_fraction = drop_root_fraction
        self.rng = random.Random(seed)
        from repro.workloads.graphgen import HeapGraphBuilder
        self._builder = HeapGraphBuilder(built.profile, built.scale,
                                         built.seed)
        self.ops = 0
        self.allocs = 0
        #: Addresses allocated during the cycle (allocate-black evidence).
        self.allocated: List[int] = []
        self.alloc_failures = 0
        self.ref_reads = 0
        self.ref_writes = 0
        self.roots_added = 0
        self._final_roots: Optional[List[int]] = None

    def process(self, barriers):
        from repro.heap.allocator import OutOfMemoryError

        heap = self.heap
        rng = self.rng
        fwd = barriers.forwarding
        resolve = fwd.resolve if fwd is not None else (lambda a: a)
        # Normalize through the forwarding table: pre-fixup BFS yields old
        # addresses for stale-referenced relocated objects.
        pool = sorted({resolve(a) for a in heap.reachable()})
        roots = [resolve(r) for r in heap.roots.read_all()]
        allocating = True
        for _ in range(self.n_ops):
            yield self.period
            self.ops += 1
            if rng.random() < self.alloc_fraction and allocating:
                shape = ObjectShape(*self._builder._sample_shape(rng))
                try:
                    addr = heap.alloc(shape)
                except MemoryError:
                    self.alloc_failures += 1
                    allocating = False
                    continue
                self.allocs += 1
                self.allocated.append(addr)
                view = heap.view(addr)
                for i in range(view.n_refs):
                    if rng.random() < 0.5 and pool:
                        # Initializing store into a fresh (null) field: the
                        # barrier has nothing old to publish, skip it.
                        view.set_ref(i, rng.choice(pool))
                if pool and rng.random() >= self.root_add_fraction:
                    parent = heap.view(rng.choice(pool))
                    if parent.n_refs:
                        barriers.write_ref(
                            parent, rng.randrange(parent.n_refs), addr)
                        self.ref_writes += 1
                else:
                    # Physical publish so the polling reader marks the new
                    # root mid-cycle; the logical list feeds final_roots().
                    heap.roots.append(addr)
                    roots.append(addr)
                    self.roots_added += 1
                pool.append(addr)
            elif len(pool) >= 2:
                # The Fig. 3 interleaving: detach a subtree, stash the only
                # reference while the collector may scan both parents, then
                # reattach elsewhere.
                src = heap.view(rng.choice(pool))
                dst = heap.view(rng.choice(pool))
                if src.n_refs == 0 or dst.n_refs == 0:
                    continue
                slot = rng.randrange(src.n_refs)
                moved = barriers.read_ref(src, slot)
                self.ref_reads += 1
                if moved == 0:
                    continue
                barriers.write_ref(src, slot, 0)
                yield max(1, self.period // 4)
                barriers.write_ref(dst, rng.randrange(dst.n_refs), moved)
                self.ref_writes += 2
        # Root drops deferred to quiescence: dropping during marking would
        # invalidate the traversal's SATB snapshot.
        self._final_roots = [r for r in roots
                             if rng.random() >= self.drop_root_fraction]

    def final_roots(self) -> List[int]:
        if self._final_roots is None:
            raise RuntimeError("mutator has not quiesced yet")
        return list(self._final_roots)


class MutatorModel:
    """Alternates mutator churn phases with collections."""

    def __init__(
        self,
        built: BuiltHeap,
        collector: str = "sw",
        unit_config: Optional[GCUnitConfig] = None,
        cpu_config: Optional[CPUConfig] = None,
        churn_fraction: float = 0.5,
        attach_probability: float = 0.55,
        seed: Optional[int] = None,
        conc_ops: int = 160,
        conc_period: int = 400,
        relocate_blocks: int = 0,
    ):
        if collector not in ("sw", "hw", "concurrent"):
            raise ValueError(f"unknown collector {collector!r}")
        self.built = built
        self.heap = built.heap
        self.collector = collector
        self.unit_config = unit_config if unit_config is not None else GCUnitConfig()
        self.cpu_config = cpu_config
        self.churn_fraction = churn_fraction
        self.attach_probability = attach_probability
        self.rng = random.Random(seed if seed is not None else built.seed + 7)
        self.conc_ops = conc_ops
        self.conc_period = conc_period
        self.relocate_blocks = relocate_blocks
        self._sw: Optional[SoftwareCollector] = None
        self.last_gc_result: Union[SoftwareGCResult, HardwareGCResult,
                                   ConcurrentGCResult, None] = None

    # -- one mutator phase -------------------------------------------------

    def mutate_phase(self) -> int:
        """Allocate/churn; returns the allocated byte count."""
        heap = self.heap
        profile = self.built.profile
        rng = self.rng
        bytes_before = heap.allocator.bytes_allocated
        live_list = sorted(heap.live_marksweep_objects())
        n_new = max(16, int(profile.scaled_objects(self.built.scale)
                            * self.churn_fraction))
        from repro.workloads.graphgen import HeapGraphBuilder
        builder = HeapGraphBuilder(profile, self.built.scale, self.built.seed)
        new_addrs = []
        for _ in range(n_new):
            shape = ObjectShape(*builder._sample_shape(rng))
            addr = heap.alloc(shape)
            new_addrs.append(addr)
            view = heap.view(addr)
            # Wire the new object's own fields to other new or live objects.
            for i in range(view.n_refs):
                r = rng.random()
                if r < profile.null_ref_fraction:
                    continue
                pool = new_addrs if rng.random() < 0.7 else live_list
                if pool:
                    view.set_ref(i, rng.choice(pool))
            # Attach to the live graph (or die young).
            if live_list and rng.random() < self.attach_probability:
                parent = heap.view(rng.choice(live_list))
                if parent.n_refs > 0:
                    # Overwriting a reference may orphan an old subtree —
                    # exactly how real mutators create garbage.
                    parent.set_ref(rng.randrange(parent.n_refs), addr)
        # Root churn: drop a few roots, add a few fresh ones.
        roots = [r for r in heap.roots.read_all()
                 if rng.random() > 0.05]
        roots.extend(rng.choice(new_addrs)
                     for _ in range(max(1, len(new_addrs) // 200)))
        heap.set_roots(roots)
        return heap.allocator.bytes_allocated - bytes_before

    # -- one collection ---------------------------------------------------------

    def collect_once(self) -> GCPauseRecord:
        """One collection with the configured collector.

        A concurrent cycle races a fresh mutator: the pause the timeline
        records is handshake + sweep only; the marking span that
        overlapped the application rides along in
        ``concurrent_mark_cycles`` for reporting.
        """
        heap = self.heap
        concurrent = self.collector == "concurrent"
        if self.collector == "sw":
            if self._sw is None:
                self._sw = SoftwareCollector(heap, cpu_config=self.cpu_config)
            result = self._sw.collect()
        elif concurrent:
            mutator = ConcurrentMutator(
                self.built, n_ops=self.conc_ops, period=self.conc_period,
                seed=self.rng.randrange(2 ** 31))
            result = ConcurrentCycle(heap, self.unit_config, mutator,
                                     relocate_blocks=self.relocate_blocks
                                     ).run()
        else:
            result = GCUnit(heap, self.unit_config).collect()
        self.last_gc_result = result
        live = heap.reachable()
        heap.prune_dead(live)
        heap.complete_gc_cycle()
        return GCPauseRecord(
            index=heap.gc_count - 1,
            start_cycle=0,  # placed on the timeline by run()
            mark_cycles=(result.handshake_cycles if concurrent
                         else result.mark_cycles),
            sweep_cycles=result.sweep_cycles,
            objects_marked=result.objects_marked,
            cells_freed=result.cells_freed,
            concurrent_mark_cycles=(result.concurrent_cycles if concurrent
                                    else 0),
        )

    # -- full run -----------------------------------------------------------------

    def run(self, n_gcs: int = 3) -> MutatorRunResult:
        """Alternate churn phases and collections, building the timeline."""
        profile = self.built.profile
        result = MutatorRunResult(collector=self.collector)
        cursor = 0
        for i in range(n_gcs):
            if i > 0:
                allocated = self.mutate_phase()
                mutator_cycles = int(allocated * profile.mutator_cycles_per_byte)
            else:
                # The initial heap was built before the first GC; charge its
                # allocation the same way.
                allocated = self.heap.allocator.bytes_allocated
                mutator_cycles = int(allocated * profile.mutator_cycles_per_byte)
            result.mutator_cycles += mutator_cycles
            cursor += mutator_cycles
            pause = self.collect_once()
            pause.start_cycle = cursor
            pause.index = i
            result.pauses.append(pause)
            cursor += pause.pause_cycles
        return result
