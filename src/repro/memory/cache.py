"""Set-associative write-back cache with MSHRs.

Used for the CPU's L1/L2 hierarchy (Table I), for the PTW's 8 KB backing
cache, and for the *shared-cache* traversal-unit configuration that the
paper evaluates and rejects in the cache-partitioning study (Fig. 18a).

Timing-only: functional data lives in :class:`~repro.memory.memimage.
PhysicalMemory`. A miss allocates an MSHR, fetches the full line from the
next level, and wakes all waiters coalesced onto that line; dirty victims
generate posted write-backs. When all MSHRs are busy, further misses queue
(this is what limits a CPU's memory-level parallelism, §IV-A).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.engine.simulator import Completion, Event, Simulator
from repro.engine.stats import StatsRegistry
from repro.memory.config import CacheConfig
from repro.memory.request import AccessKind, MemRequest


class Cache:
    """One cache level. ``submit`` has the same shape as the DRAM model's."""

    def __init__(
        self,
        sim: Simulator,
        config: CacheConfig,
        lower,
        name: str = "cache",
        stats: Optional[StatsRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self.lower = lower  # anything with submit(MemRequest) -> Event
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        self._n_sets = config.n_sets
        # Per-set LRU: OrderedDict mapping line_addr -> dirty flag; most
        # recently used at the end.
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self._n_sets)
        ]
        # line_addr -> (pending_dirty, [events to trigger on fill])
        self._mshrs: Dict[int, Tuple[bool, List[Event]]] = {}
        self._mshr_queue: Deque[Tuple[MemRequest, Event]] = deque()
        # Precomputed hot-path counter boxes (building f-strings and doing
        # dict lookups per access is measurable at millions of simulated
        # operations). Requests are counted per source; the box for each
        # source is cached on first sight.
        self._k_requests = f"cache.{name}.requests."
        self._c_requests: Dict[str, object] = {}
        self._c_hits = self.stats.counter(f"cache.{name}.hits")
        self._c_misses = self.stats.counter(f"cache.{name}.misses")
        self._c_coalesced = self.stats.counter(f"cache.{name}.mshr_coalesced")
        self._c_stalls = self.stats.counter(f"cache.{name}.mshr_stalls")
        self._c_writebacks = self.stats.counter(f"cache.{name}.writebacks")
        # Precomputed event names and hot config fields (building f-strings
        # and chasing config attributes per access is measurable at millions
        # of simulated operations).
        self._ev_access = f"{name}.access"
        self._line_bytes = config.line_bytes
        self._hit_latency = config.hit_latency

    # -- lookup helpers ------------------------------------------------------

    def _line_addr(self, addr: int) -> int:
        return addr - (addr % self.config.line_bytes)

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.config.line_bytes) % self._n_sets

    def contains(self, addr: int) -> bool:
        """Whether the line holding ``addr`` is currently resident."""
        line = self._line_addr(addr)
        return line in self._sets[self._set_index(line)]

    def warm(self, addr: int, dirty: bool = False) -> None:
        """Install a line without timing (used to pre-warm in tests)."""
        self._install(self._line_addr(addr), dirty, source="warm")

    # -- main interface --------------------------------------------------------

    def submit(self, req: MemRequest):
        """Access the cache; the returned handle completes at finish time.

        Requests spanning multiple lines are split; the event triggers when
        every constituent line access has completed.
        """
        counter = self._c_requests.get(req.source)
        if counter is None:
            counter = self._c_requests[req.source] = self.stats.counter(
                self._k_requests + req.source)
        counter.value += 1
        line_bytes = self._line_bytes
        addr = req.addr
        first = addr - (addr % line_bytes)
        last_addr = addr + req.size - 1
        last = last_addr - (last_addr % line_bytes)
        if first == last:
            return self._access_line(first, req)
        done = self.sim.event(name=f"{self.name}.multi")
        lines = list(range(first, last + 1, line_bytes))
        remaining = [len(lines)]

        def _one_done(_value) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                done.trigger(self.sim.now)

        for line in lines:
            sub = MemRequest(
                addr=line, size=self.config.line_bytes, kind=req.kind,
                source=req.source,
            )
            self._access_line(line, sub).add_callback(_one_done)
        return done

    def _access_line(self, line: int, req: MemRequest):
        cache_set = self._sets[(line // self._line_bytes) % self._n_sets]
        wants_dirty = req.kind is not AccessKind.READ
        if line in cache_set:
            cache_set.move_to_end(line)
            if wants_dirty:
                cache_set[line] = True
            self._c_hits.value += 1
            trace = self.stats.trace
            if trace is not None:
                trace.events.append((self.sim.now, "cache", self.name, "hit"))
            # Hit latency is fixed and known now: hand back a resolved
            # Completion instead of scheduling a deferred Event trigger.
            return Completion(self.sim, self.sim.now + self._hit_latency)
        event = Event(self.sim, name=self._ev_access)
        self._c_misses.value += 1
        trace = self.stats.trace
        if trace is not None:
            trace.events.append((self.sim.now, "cache", self.name, "miss"))
        if line in self._mshrs:
            dirty, waiters = self._mshrs[line]
            self._mshrs[line] = (dirty or wants_dirty, waiters)
            waiters.append(event)
            self._c_coalesced.value += 1
            return event
        if len(self._mshrs) >= self.config.mshrs:
            self._mshr_queue.append((req, event))
            self._c_stalls.value += 1
            return event
        self._start_fill(line, wants_dirty, event, req.source)
        return event

    # -- miss handling ---------------------------------------------------------

    def _start_fill(self, line: int, dirty: bool, event: Event, source: str) -> None:
        self._mshrs[line] = (dirty, [event])
        fill = MemRequest(
            addr=line, size=self.config.line_bytes, kind=AccessKind.READ,
            source=source,
        )
        self.lower.submit(fill).add_callback(lambda _v, l=line: self._finish_fill(l))

    def _finish_fill(self, line: int) -> None:
        dirty, waiters = self._mshrs.pop(line)
        self._install(line, dirty, source=f"{self.name}.wb")
        for waiter in waiters:
            self.sim.schedule(self.config.hit_latency, waiter.trigger, None)
        # Admit queued misses now that an MSHR is free.
        while self._mshr_queue and len(self._mshrs) < self.config.mshrs:
            req, event = self._mshr_queue.popleft()
            retry_line = self._line_addr(req.addr)
            cache_set = self._sets[self._set_index(retry_line)]
            wants_dirty = req.kind in (AccessKind.WRITE, AccessKind.AMO)
            if retry_line in cache_set:
                cache_set.move_to_end(retry_line)
                if wants_dirty:
                    cache_set[retry_line] = True
                self.sim.schedule(self.config.hit_latency, event.trigger, None)
            elif retry_line in self._mshrs:
                pending_dirty, waiters2 = self._mshrs[retry_line]
                self._mshrs[retry_line] = (pending_dirty or wants_dirty, waiters2)
                waiters2.append(event)
            else:
                self._start_fill(retry_line, wants_dirty, event, req.source)

    def _install(self, line: int, dirty: bool, source: str) -> None:
        cache_set = self._sets[self._set_index(line)]
        if line in cache_set:
            cache_set.move_to_end(line)
            cache_set[line] = cache_set[line] or dirty
            return
        if len(cache_set) >= self.config.ways:
            victim, victim_dirty = cache_set.popitem(last=False)
            if victim_dirty:
                self._c_writebacks.value += 1
                wb = MemRequest(
                    addr=victim, size=self.config.line_bytes,
                    kind=AccessKind.WRITE, source=source,
                )
                self.lower.submit(wb)  # posted; nobody waits
        cache_set[line] = dirty

    # -- maintenance -------------------------------------------------------------

    def flush(self) -> int:
        """Drop all lines, issuing (untimed) write-backs; returns dirty count."""
        dirty_count = 0
        for cache_set in self._sets:
            for line, dirty in cache_set.items():
                if dirty:
                    dirty_count += 1
                    self.lower.submit(
                        MemRequest(
                            addr=line, size=self.config.line_bytes,
                            kind=AccessKind.WRITE, source=f"{self.name}.flush",
                        )
                    )
            cache_set.clear()
        return dirty_count

    def __repr__(self) -> str:
        return f"Cache({self.name!r}, {self.config.size_bytes // 1024}KB)"
