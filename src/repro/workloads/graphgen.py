"""Synthetic object-graph generator.

Builds a heap whose *statistics* match a :class:`~repro.workloads.profiles.
BenchmarkProfile`: object size and fan-out distributions, array fraction,
live fraction at collection time, root counts, immortal/static objects,
large-object-space allocations, and the hot-object sharing skew behind
Fig. 21a.

Construction guarantees:

* exactly the requested live objects are reachable from the roots (live
  objects never reference garbage);
* garbage has internal structure (garbage subgraphs reference each other
  and may reference live objects — back-references are legal and common);
* a small hot set receives a configured fraction of all cross-references,
  so repeated mark attempts concentrate on few objects as in the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.heap.heapimage import ManagedHeap
from repro.heap.layout import ObjectShape
from repro.memory.config import WORD_BYTES, MemorySystemConfig
from repro.memory.paging import VIRT_OFFSET
from repro.workloads.profiles import BenchmarkProfile


@dataclass
class BuiltHeap:
    """A generated heap plus the ground-truth sets used by tests/figures."""

    heap: ManagedHeap
    profile: BenchmarkProfile
    scale: float
    seed: int
    live: Set[int]  # object addrs intended reachable
    garbage: Set[int]  # MarkSweep-space addrs intended unreachable
    hot: List[int]  # the hot shared objects (subset of live)
    roots: List[int]
    rng: random.Random = field(repr=False, default=None)

    @property
    def n_objects(self) -> int:
        return len(self.live) + len(self.garbage)

    def incoming_access_counts(self) -> Dict[int, int]:
        """Mark-accesses per object in one full traversal: one per root
        occurrence plus one per reference held by a live object. This is the
        quantity histogrammed in Fig. 21a."""
        counts: Dict[int, int] = {}
        for root in self.roots:
            counts[root] = counts.get(root, 0) + 1
        for addr in self.live:
            for ref in self.heap.view(addr).refs():
                counts[ref] = counts.get(ref, 0) + 1
        return counts


class HeapGraphBuilder:
    """Generates a heap for one benchmark profile."""

    # Reference-count cap for MarkSweep-space objects (largest size class
    # holds 256 words: scan + status + refs + payload).
    _MAX_MS_REFS = 128
    _LOS_REFS_RANGE = (128, 480)

    def __init__(
        self,
        profile: BenchmarkProfile,
        scale: float = 0.1,
        seed: int = 0,
        config: Optional[MemorySystemConfig] = None,
    ):
        self.profile = profile
        self.scale = scale
        self.seed = seed
        self.config = config

    # -- distribution helpers -------------------------------------------------

    @staticmethod
    def _geometric(rng: random.Random, mean: float) -> int:
        """Geometric-ish non-negative integer with the given mean."""
        if mean <= 0:
            return 0
        return min(int(rng.expovariate(1.0 / mean)), int(mean * 8) + 1)

    def _sample_shape(self, rng: random.Random) -> Tuple[int, int, bool]:
        """One object's ``(n_refs, payload words, is_array)``."""
        p = self.profile
        if rng.random() < p.array_fraction:
            n_refs = max(1, self._geometric(rng, p.mean_array_refs))
            return min(n_refs, self._MAX_MS_REFS), 1, True
        n_refs = min(self._geometric(rng, p.mean_refs), 12)
        return n_refs, self._geometric(rng, p.mean_payload_words), False

    # -- construction -------------------------------------------------------------

    def build(self) -> BuiltHeap:
        """Generate the heap in a fresh :class:`ManagedHeap`.

        Objects are handled as columns — reference, reference count and
        first reference-slot word index — rather than per-object views,
        and the wiring's (slot, target) pairs are written in one scatter
        at the end: every slot is written at most once, so the order of
        the writes cannot matter. The rng draws happen in the order a
        per-object build makes them (allocation draws nothing).
        """
        rng = random.Random(self.seed)
        n = self.profile.scaled_objects(self.scale)
        heap = ManagedHeap(config=self.config or self._default_config(n))
        built = BuiltHeap(heap=heap, profile=self.profile, scale=self.scale,
                          seed=self.seed, rng=rng,
                          **self._generate(rng, heap, n))
        self._verify(built)
        return built

    def _generate(self, rng: random.Random, heap: ManagedHeap,
                  n: int) -> Dict[str, Any]:
        """Allocate and wire the graph; returns the ground-truth sets.

        A method of its own so that its columns and wiring lists are
        freed before ``_verify`` builds the heap's layout sidecar.
        """
        p = self.profile

        # 1. MarkSweep-space objects: every shape, then one bulk allocation.
        n_refs_col, payload_col, array_col = zip(
            *[self._sample_shape(rng) for _ in range(n)])
        addrs = heap.alloc_many(n_refs_col, payload_col, array_col)
        n_refs = list(n_refs_col)

        # 2. Large-object-space arrays.
        n_los = max(0, int(n * p.los_fraction))
        for _ in range(n_los):
            refs = rng.randint(*self._LOS_REFS_RANGE)
            addrs.append(heap.alloc(ObjectShape(refs, 2, is_array=True)))
            n_refs.append(refs)

        # 3. Immortal statics (always roots: "static variables", Fig. 2).
        n_statics = max(4, n // 500)
        statics: List[int] = []
        static_refs: List[int] = []
        for _ in range(n_statics):
            refs = rng.randint(2, 4)
            statics.append(heap.alloc(ObjectShape(refs, 1), space="immortal"))
            static_refs.append(refs)

        def first_slot(addr: int, refs: int) -> int:
            """Word index of the first reference slot (bidirectional)."""
            return (addr - VIRT_OFFSET) // WORD_BYTES - refs

        # 4. Partition into live / garbage.
        indices = list(range(len(addrs)))
        rng.shuffle(indices)
        n_live = max(1, int(len(addrs) * p.live_fraction))
        live = indices[:n_live]
        garbage = indices[n_live:]
        live_addrs = [addrs[i] for i in live]
        hot = live_addrs[: p.hot_objects]

        # Deferred wiring: (slot word index, target) pairs.
        slots: List[int] = []
        targets: List[int] = []

        # 5. Spanning structure over the live set.
        roots = list(statics)
        extra_roots = max(8, int(n_live * p.root_fraction))
        free_slots: List[int] = []
        for addr, refs in zip(statics, static_refs):
            base = first_slot(addr, refs)
            free_slots.extend(range(base, base + refs))
        for i in live:
            addr = addrs[i]
            if free_slots:
                # Mix of uniform and recency-biased parents: shallow
                # BFS-like fan-out plus deep chains, like real heaps.
                if rng.random() < 0.5 and len(free_slots) > 32:
                    slot_i = rng.randrange(len(free_slots) - 32,
                                           len(free_slots))
                else:
                    slot_i = rng.randrange(len(free_slots))
                slots.append(free_slots.pop(slot_i))
                targets.append(addr)
            else:
                roots.append(addr)
            base = first_slot(addr, n_refs[i])
            free_slots.extend(range(base, base + n_refs[i]))

        # 6. Extra roots straight into the live set.
        for _ in range(extra_roots):
            roots.append(rng.choice(live_addrs))

        # 7. Fill remaining live slots: nulls, hot refs, or random live refs.
        # Hot references are *bursty*: objects created around the same time
        # tend to share the same hot target (a common class, table or
        # registry object), which is what makes a small recently-marked
        # cache effective (Fig. 21b).
        current_hot = rng.choice(hot) if hot else 0
        for slot in free_slots:
            r = rng.random()
            if r < p.null_ref_fraction:
                continue  # stays null
            if r < p.null_ref_fraction + p.hot_ref_fraction and hot:
                if rng.random() < 0.2:
                    current_hot = rng.choice(hot)
                target = current_hot
            else:
                target = rng.choice(live_addrs)
            slots.append(slot)
            targets.append(target)

        # 8. Garbage structure: spanning chains among garbage plus
        # references into the live set (legal; never marked).
        garbage_addrs = [addrs[i] for i in garbage]
        for idx, i in enumerate(garbage):
            base = first_slot(addrs[i], n_refs[i])
            for slot in range(base, base + n_refs[i]):
                r = rng.random()
                if r < p.null_ref_fraction:
                    continue
                if r < 0.6 and idx > 0:
                    target = garbage_addrs[rng.randrange(idx)]
                else:
                    target = rng.choice(garbage_addrs)
                slots.append(slot)
                targets.append(target)

        heap.mem.scatter(slots, targets)
        heap.set_roots(roots)
        return {"live": set(live_addrs) | set(statics),
                "garbage": set(garbage_addrs), "hot": hot, "roots": roots}

    def _default_config(self, n_objects: int) -> MemorySystemConfig:
        """Size physical memory generously for the object count."""
        # Mean cell ~96B, plus LOS pages, x4 headroom for mutator phases.
        need = max(64, (n_objects * 96 * 4) // (1024 * 1024) + 32)
        size = 1
        while size < need:
            size *= 2
        return MemorySystemConfig(total_bytes=size * 1024 * 1024)

    def _verify(self, built: BuiltHeap) -> None:
        """Reachability must match the intended live set exactly."""
        reachable = built.heap.reachable()
        if reachable != built.live:
            missing = built.live - reachable
            extra = reachable - built.live
            raise AssertionError(
                f"graph generation broke reachability: {len(missing)} live "
                f"objects unreachable, {len(extra)} garbage reachable"
            )
