"""Statistics collection for the evaluation harness.

The paper's figures are driven by counters (memory requests by source,
Fig. 18), time series (bandwidth over a pause, Fig. 16), histograms
(object access frequencies, Fig. 21a), and request-interval measurements
(cycles per request, Fig. 17b). This module provides one collector per shape.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter as PyCounter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class StatsRegistry:
    """A flat namespace of counters, keyed by string.

    Components attribute activity to keys like ``"mem.reads.marker"``; the
    harness slices by prefix when regenerating the paper's breakdowns.

    Counters are stored as :class:`Counter` boxes. Hot paths that bump the
    same key millions of times fetch the box once via :meth:`counter` and
    do ``box.value += 1`` inline — no per-increment dict traffic or method
    call. ``inc``/``get``/``as_dict`` remain the general string-keyed API
    and observe handle updates immediately (same box).

    The registry doubles as the attachment point for the structured trace
    bus (:mod:`repro.engine.trace`): every instrumented component already
    holds a registry, so ``stats.trace = TraceBus()`` enables tracing
    system-wide and ``stats.trace = None`` disables it. The class-level
    default keeps registries unpickled from older heap-cache entries (and
    every untouched hot path) on the zero-cost disabled path: one attribute
    load plus a ``None`` check.
    """

    #: The attached :class:`~repro.engine.trace.TraceBus`, or ``None``.
    trace = None

    #: The attached :class:`~repro.engine.faultplane.FaultPlane`, or
    #: ``None``. Same zero-cost discipline as :attr:`trace`: hook sites do
    #: one attribute load plus a ``None`` check when no faults are armed.
    hwfaults = None

    #: The attached :class:`~repro.engine.watchdog.GCWatchdog`, or
    #: ``None``. Heartbeat/outstanding-request hooks are skipped entirely
    #: when no watchdog is supervising the collection.
    watchdog = None

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, key: str) -> Counter:
        """The mutable counter box for ``key`` (created at zero)."""
        box = self._counters.get(key)
        if box is None:
            box = self._counters[key] = Counter(key)
        return box

    def inc(self, key: str, amount: int = 1) -> None:
        box = self._counters.get(key)
        if box is None:
            box = self._counters[key] = Counter(key)
        box.value += amount

    def get(self, key: str, default: int = 0) -> int:
        box = self._counters.get(key)
        return box.value if box is not None else default

    def with_prefix(self, prefix: str) -> Dict[str, int]:
        """All counters whose key starts with ``prefix``."""
        return {
            k: box.value for k, box in self._counters.items()
            if k.startswith(prefix)
        }

    def total(self, prefix: str) -> int:
        """Sum of all counters under ``prefix``."""
        return sum(self.with_prefix(prefix).values())

    def as_dict(self) -> Dict[str, int]:
        return {k: box.value for k, box in self._counters.items()}

    def merge(self, other: "StatsRegistry") -> None:
        for key, box in other._counters.items():
            self.inc(key, box.value)

    def reset(self) -> None:
        self._counters.clear()

    def __setstate__(self, state: dict) -> None:
        # Registries pickled before counters became boxes (old heap-cache
        # entries) store plain ints; re-box them on load.
        raw = state.get("_counters", {})
        boxed: Dict[str, Counter] = {}
        for key, value in raw.items():
            if not isinstance(value, Counter):
                box = Counter(key)
                box.value = value
                value = box
            boxed[key] = value
        state["_counters"] = boxed
        self.__dict__.update(state)

    def __repr__(self) -> str:
        return f"StatsRegistry({len(self._counters)} counters)"


class Histogram:
    """An exact histogram over integer-valued samples."""

    def __init__(self, name: str = ""):
        self.name = name
        self._counts: PyCounter = PyCounter()
        self.n = 0

    def add(self, value: int, count: int = 1) -> None:
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"non-finite histogram sample: {value}")
            value = int(value)
        if count < 0:
            raise ValueError(f"negative sample count: {count}")
        if count == 0:
            return
        self._counts[value] += count
        self.n += count

    def counts(self) -> Dict[int, int]:
        return dict(self._counts)

    def mean(self) -> float:
        if self.n == 0:
            return 0.0
        return sum(v * c for v, c in self._counts.items()) / self.n

    def percentile(self, p: float, default: Optional[int] = None) -> int:
        """p in [0, 100]; nearest-rank percentile.

        An empty histogram raises :class:`ValueError` unless ``default``
        is given (the NaN-safe path for optional series: callers rendering
        sparse figures pass ``default=0`` instead of special-casing).
        A single-sample histogram returns that sample for every ``p``.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if self.n == 0:
            if default is not None:
                return default
            raise ValueError("empty histogram")
        rank = max(1, math.ceil(p / 100.0 * self.n))
        seen = 0
        for value in sorted(self._counts):
            seen += self._counts[value]
            if seen >= rank:
                return value
        return max(self._counts)  # pragma: no cover - defensive

    def top(self, k: int) -> List[Tuple[int, int]]:
        """The ``k`` (value, count) pairs with the highest counts."""
        return self._counts.most_common(k)

    def __len__(self) -> int:
        return self.n


class TimeSeries:
    """A sequence of (time, value) samples."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[int] = []
        self.values: List[float] = []

    def sample(self, time: int, value: float) -> None:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"non-finite time-series sample: {value}")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def points(self) -> List[Tuple[int, float]]:
        return list(zip(self.times, self.values))


class IntervalTracker:
    """Tracks intervals between successive occurrences of an event.

    Used for Fig. 17b: "a request being sent into the memory system every
    8.66 cycles".
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self._first: Optional[int] = None
        self._last: Optional[int] = None

    def record(self, time: int) -> None:
        if self._first is None:
            self._first = time
        self._last = time
        self.count += 1

    def mean_interval(self) -> float:
        """Average cycles between occurrences (span / (count - 1))."""
        if self.count < 2 or self._first is None or self._last is None:
            return 0.0
        return (self._last - self._first) / (self.count - 1)

    @property
    def span(self) -> int:
        if self._first is None or self._last is None:
            return 0
        return self._last - self._first


class BandwidthTracker:
    """Accumulates (time, bytes) transfer records and bins them.

    The simulated clock is 1 GHz, so a cycle is 1 ns and ``bytes/cycle``
    equals GB/s — the unit used in Figs. 16 and 17.

    One record per memory transaction lives for the whole memory system,
    so the log is two typed columns, not a list of tuples: ``array('q')``
    completion times and ``array('I')`` sizes (a transfer is 8..64 B;
    ``nbytes`` must lie in ``[0, 2**32)``), about 12 B a request against a
    64 B tuple plus its boxed time. The readers view the columns through
    ``np.frombuffer`` and sum integer totals, so every value they return
    equals what a per-record Python loop computes.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._times = array("q")
        self._sizes = array("I")
        self._append_time = self._times.append
        self._append_size = self._sizes.append
        self.total_bytes = 0
        self.busy_cycles = 0

    def record(self, time: int, nbytes: int, busy_cycles: int = 0) -> None:
        self._append_time(time)
        self._append_size(nbytes)
        self.total_bytes += nbytes
        self.busy_cycles += busy_cycles

    def _columns(self) -> Tuple[np.ndarray, np.ndarray]:
        # Zero-copy views; callers must drop them before the next record,
        # since an array with exported buffers refuses to grow.
        return (np.frombuffer(self._times, dtype=np.int64),
                np.frombuffer(self._sizes, dtype=np.uint32))

    @staticmethod
    def _bins(times: np.ndarray, sizes: np.ndarray, start: int, nbins: int,
              bin_cycles: int) -> List[Tuple[int, float]]:
        """``[(bin start, GB/s), ...]`` for records already inside the
        ``nbins`` bins from ``start``. Each bin's byte total is an exact
        integer (a float64 sum is exact below 2**53 bytes), so dividing
        it by ``bin_cycles`` rounds as Python's ``int / int`` does."""
        totals = np.bincount((times - start) // bin_cycles,
                             weights=sizes, minlength=nbins)
        gbps = (totals / bin_cycles).tolist()
        return list(zip(range(start, start + nbins * bin_cycles, bin_cycles),
                        gbps))

    def binned(self, bin_cycles: int) -> List[Tuple[int, float]]:
        """Returns [(bin_start_cycle, GB/s within bin), ...] over the span."""
        if not self._times:
            return []
        if bin_cycles <= 0:
            raise ValueError("bin_cycles must be positive")
        times, sizes = self._columns()
        start = int(times.min())
        nbins = (int(times.max()) - start) // bin_cycles + 1
        return self._bins(times, sizes, start, nbins, bin_cycles)

    def binned_window(
        self, start: int, end: int, bin_cycles: int
    ) -> List[Tuple[int, float]]:
        """Like :meth:`binned` but restricted to ``[start, end)`` — used to
        slice one GC pause out of a longer run (Fig. 16)."""
        if bin_cycles <= 0:
            raise ValueError("bin_cycles must be positive")
        if end <= start:
            return []
        nbins = (end - start - 1) // bin_cycles + 1
        times, sizes = self._columns()
        inside = (times >= start) & (times < end)
        return self._bins(times[inside], sizes[inside], start, nbins,
                          bin_cycles)

    def window_bytes(self, start: int, end: int) -> int:
        """Total bytes transferred in ``[start, end)``."""
        times, sizes = self._columns()
        return int(sizes[(times >= start) & (times < end)].sum(dtype=np.int64))

    def average_gbps(self, span_cycles: Optional[int] = None) -> float:
        """Mean bandwidth in GB/s over the recorded span (or a given span).

        The recorded span runs from the first record to the last in
        record order, not from the earliest time to the latest."""
        if span_cycles is None:
            if len(self._times) < 2:
                return 0.0
            span_cycles = self._times[-1] - self._times[0]
        if span_cycles <= 0:
            return 0.0
        return self.total_bytes / span_cycles


def weighted_mean(pairs: Iterable[Tuple[float, float]]) -> float:
    """Mean of (value, weight) pairs; 0.0 when total weight is zero.

    NaN-safe: pairs with a non-finite value or weight are skipped (a
    figure with one degenerate series should not poison the aggregate).
    """
    total = 0.0
    weight_sum = 0.0
    for value, weight in pairs:
        if not (math.isfinite(value) and math.isfinite(weight)):
            continue
        total += value * weight
        weight_sum += weight
    return total / weight_sum if weight_sum else 0.0


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the paper reports cross-benchmark speedups this way."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    # NaN compares false against 0, so check finiteness explicitly.
    if any(not math.isfinite(v) or v <= 0 for v in values):
        raise ValueError("geomean requires positive finite values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
