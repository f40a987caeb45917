"""TLBs for the CPU and the GC unit's marker/tracer.

The baseline GC-unit design has 32-entry TLBs per requester plus a 128-entry
shared L2 TLB (§VI-A). TLB hits are free (translation is folded into the
access); misses go to the shared L2 TLB and then to the page-table walker.

Superpage support (§VII: "large heaps could use superpages instead of 4KB
pages"): a 2 MiB mapping occupies one entry but covers 512 pages, which is
how superpages relieve the TLB pressure the paper identifies as the unit's
bottleneck.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.engine.simulator import Completion, Event, Simulator
from repro.engine.stats import StatsRegistry
from repro.memory.config import TLBConfig
from repro.memory.paging import PAGE_SIZE, SUPERPAGE_SIZE
from repro.memory.ptw import PageTableWalker


class _EntryStore:
    """Shared-capacity LRU over 4 KiB and 2 MiB entries."""

    def __init__(self, entries: int):
        self.capacity = entries
        # Keys are ints: ``vpn << 1`` for pages, ``(super_index << 1) | 1``
        # for superpages (a bijective encoding of the old ("p"/"s", index)
        # tuples — same entries, same LRU order, cheaper hashing); values:
        # base physical address of the page/superpage.
        self._map: "OrderedDict[int, int]" = OrderedDict()

    def lookup(self, vaddr: int) -> Optional[int]:
        """Physical address for vaddr, or None."""
        entries = self._map
        super_key = (vaddr // SUPERPAGE_SIZE) << 1 | 1
        base = entries.get(super_key)
        if base is not None:
            entries.move_to_end(super_key)
            return base + vaddr % SUPERPAGE_SIZE
        page_key = (vaddr // PAGE_SIZE) << 1
        base = entries.get(page_key)
        if base is not None:
            entries.move_to_end(page_key)
            return base + vaddr % PAGE_SIZE
        return None

    def insert(self, vaddr: int, paddr: int, superpage: bool) -> None:
        if superpage:
            key = (vaddr // SUPERPAGE_SIZE) << 1 | 1
            base = paddr - paddr % SUPERPAGE_SIZE
        else:
            key = (vaddr // PAGE_SIZE) << 1
            base = paddr - paddr % PAGE_SIZE
        if key in self._map:
            self._map.move_to_end(key)
            return
        if len(self._map) >= self.capacity:
            self._map.popitem(last=False)
        self._map[key] = base

    def flush(self) -> None:
        self._map.clear()

    def __len__(self) -> int:
        return len(self._map)


class SharedL2TLB:
    """A passive second-level TLB shared by the unit's requesters."""

    def __init__(self, entries: int = 128, latency: int = 2):
        self.entries = entries
        self.latency = latency
        self._store = _EntryStore(entries)
        self.hits = 0
        self.misses = 0

    def lookup(self, vaddr: int) -> Optional[int]:
        paddr = self._store.lookup(vaddr)
        if paddr is None:
            self.misses += 1
        else:
            self.hits += 1
        return paddr

    def insert(self, vaddr: int, paddr: int, superpage: bool = False) -> None:
        self._store.insert(vaddr, paddr, superpage)

    def flush(self) -> None:
        self._store.flush()


class TLB:
    """A fully-associative, LRU first-level TLB.

    ``translate(vaddr)`` returns an event that triggers with the physical
    address. Hits complete in the same cycle; misses consult the shared L2
    TLB (if present) and then the PTW.
    """

    def __init__(
        self,
        sim: Simulator,
        config: TLBConfig,
        ptw: PageTableWalker,
        name: str = "tlb",
        l2: Optional[SharedL2TLB] = None,
        stats: Optional[StatsRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self.ptw = ptw
        self.name = name
        self.l2 = l2
        self.stats = stats if stats is not None else StatsRegistry()
        self._store = _EntryStore(config.entries)
        self._c_hits = self.stats.counter(f"tlb.{name}.hits")
        self._c_misses = self.stats.counter(f"tlb.{name}.misses")
        self._c_l2_hits = self.stats.counter(f"tlb.{name}.l2_hits")
        self._ev_translate = f"{name}.translate"

    def translate(self, vaddr: int):
        """Translate a virtual address; completes with the physical address.

        L1 hits return a same-cycle :class:`Completion`; L2 hits return one
        due after the L2 latency — a single queue insertion happens only if
        the requester actually suspends on it.
        """
        paddr = self._store.lookup(vaddr)
        trace = self.stats.trace
        if paddr is not None:
            self._c_hits.value += 1
            if trace is not None:
                trace.events.append((self.sim.now, "tlb", self.name, "hit"))
            return Completion(self.sim, self.sim.now, paddr)
        self._c_misses.value += 1
        if trace is not None:
            trace.events.append((self.sim.now, "tlb", self.name, "miss"))
        if self.l2 is not None:
            l2_paddr = self.l2.lookup(vaddr)
            if l2_paddr is not None:
                self._c_l2_hits.value += 1
                if trace is not None:
                    trace.events.append((self.sim.now, "tlb", self.name, "l2_hit"))
                superpage = self.ptw.page_table.is_superpage(vaddr)
                self._store.insert(vaddr, l2_paddr, superpage)
                return Completion(
                    self.sim, self.sim.now + self.l2.latency, l2_paddr
                )

        stats = self.stats
        if stats.hwfaults is not None or stats.watchdog is not None:
            return self._walk_supervised(vaddr)
        event = Event(self.sim, name=self._ev_translate)

        def _walked(walked_paddr: int) -> None:
            superpage = self.ptw.page_table.is_superpage(vaddr)
            self._store.insert(vaddr, walked_paddr, superpage)
            if self.l2 is not None:
                self.l2.insert(vaddr, walked_paddr, superpage)
            event.trigger(walked_paddr)

        self.ptw.walk(vaddr).add_callback(_walked)
        return event

    def _walk_supervised(self, vaddr: int):
        """Page-walk path with fault injection and watchdog tracking.

        Only reached on an L1+L2 miss when a fault plane or watchdog is
        attached — hit paths above are untouched. The walk is tracked as an
        outstanding ``tlb`` request until its translation is *delivered*,
        so dropped, wedged and delayed walks all stay visible to the stall
        diagnosis.
        """
        sim = self.sim
        event = Event(sim, name=self._ev_translate)
        wd = self.stats.watchdog
        if wd is not None:
            wd.note_submit("tlb", id(event), sim.now,
                           "page walk for 0x{:x} ({})", vaddr, self.name)
        plane = self.stats.hwfaults
        fault = None
        if plane is not None:
            if plane.is_stuck("tlb"):
                return event
            fault = plane.fire("tlb", sim.now)
            if fault is not None and fault.kind in ("drop", "stuck"):
                # The walk never happens: the requester waits forever.
                return event

        def _deliver(walked_paddr: int) -> None:
            if wd is not None:
                wd.note_complete("tlb", id(event))
            event.trigger(walked_paddr)

        def _walked(walked_paddr: int) -> None:
            if fault is not None and fault.kind == "corrupt":
                # Deliver a corrupted translation without caching it (the
                # fault is transient, not a poisoned TLB entry).
                _deliver(plane.corrupt_value(walked_paddr))
                return
            superpage = self.ptw.page_table.is_superpage(vaddr)
            self._store.insert(vaddr, walked_paddr, superpage)
            if self.l2 is not None:
                self.l2.insert(vaddr, walked_paddr, superpage)
            if fault is not None and fault.kind == "delay":
                sim.schedule(fault.delay_cycles, _deliver, walked_paddr)
            else:
                _deliver(walked_paddr)

        self.ptw.walk(vaddr).add_callback(_walked)
        return event

    def flush(self) -> None:
        self._store.flush()

    @property
    def occupancy(self) -> int:
        return len(self._store)
