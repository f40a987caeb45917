"""Cycle-stamped structured trace bus and derived metrics.

The paper's evaluation is built from per-cycle observations — bandwidth
over a pause (Fig. 16), cycles-per-request intervals (Fig. 17b), request
breakdowns by source (Fig. 18) — and debugging a mismatched figure needs
the same per-request visibility. This module provides it:

* :class:`TraceBus` — an append-only log of typed, cycle-stamped events.
  Components reach the bus through the :class:`~repro.engine.stats.
  StatsRegistry` they already hold (``stats.trace``); when no bus is
  attached (the default) the only cost on any hot path is one attribute
  load and a ``None`` check, so the disabled path is effectively free.
* :class:`TraceMetrics` — a facade deriving occupancy timelines,
  latency/utilization histograms, and per-phase request breakdowns from
  the raw event stream.
* Exporters — Chrome ``trace_event`` JSON (loadable in chrome://tracing
  and Perfetto), flat JSONL, and CSV — plus :func:`trace_digest`, the
  sha256 fingerprint the determinism tests compare across reruns and
  cache states and pin as absolute constants.

Every event is a plain tuple ``(cycle, category, *fields)`` where all
fields are ints or strings, so the stream is trivially picklable and its
``repr`` is canonical. Events are appended from simulation callbacks,
which the kernel executes in a fixed order (a stable FIFO within each
cycle) — the trace stream is therefore bit-identical from run to run and
is usable as a first-class test oracle.

Event taxonomy (category -> fields):

========  ==================================================================
``req``   ``(source, kind, addr, size, issue_cycle, done_cycle)`` — one
          memory-system transaction, emitted at scheduling time with both
          stamps (DRAM controller / latency-bandwidth pipe).
``queue`` ``(name, occupancy)`` — total-occupancy sample after an
          enqueue/dequeue (mark queue: on-chip + staged + spilled).
``spill`` ``(direction, entries, nbytes)`` — a mark-queue spill transfer
          (``direction`` is ``"write"`` or ``"read"``).
``phase`` ``(name, edge)`` — GC phase transition; ``edge`` is ``"B"`` or
          ``"E"`` (e.g. ``hw.mark``, ``hw.sweep``, ``sw.mark``).
``tlb``   ``(name, outcome)`` — ``hit`` / ``miss`` / ``l2_hit`` per lookup.
``ptw``   ``(op, vaddr)`` — a page-table walk start.
``cache`` ``(name, outcome)`` — per-line ``hit`` / ``miss``.
``mark``  ``(outcome, ref)`` — marker verdict: ``marked`` / ``already`` /
          ``filtered`` (mark-bit cache hit).
``tracer````(addr, n_refs)`` — the tracer starts copying an object's
          reference section.
``sweep`` ``(block, freed, live)`` — a block sweeper finished one block.
``cpu``   ``(op, vaddr)`` — software-collector CPU memory op
          (``load`` / ``store`` / ``amo``).
``fault`` ``(kind, component, op_index)`` — an injected hardware fault
          fired (:mod:`repro.engine.faultplane`); never emitted unless a
          fault plane is armed.
``fallback`` ``(reason, culprit)`` — the driver aborted a hardware
          collection and re-ran it on the software safety net; only
          emitted on that degradation path.
========  ==================================================================
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.stats import Histogram, TimeSeries

#: An event record: ``(cycle, category, *fields)``.
TraceEvent = Tuple[Any, ...]


class TraceBus:
    """An append-only, cycle-stamped structured event log.

    Attach to a registry with ``stats.trace = TraceBus()``; detach by
    setting it back to ``None``. Emission is a single list append.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, *event: Any) -> None:
        """Record one event tuple ``(cycle, category, *fields)``."""
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()

    def by_category(self, category: str) -> List[TraceEvent]:
        return [e for e in self.events if e[1] == category]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:
        return f"TraceBus({len(self.events)} events)"


def trace_digest(events: Iterable[TraceEvent]) -> str:
    """sha256 fingerprint of an event stream.

    ``repr`` of int/str tuples is canonical across processes and platforms,
    so equal streams always digest equally — the property the determinism
    tests assert across reruns and warm/cold heap caches.
    """
    h = hashlib.sha256()
    for event in events:
        h.update(repr(event).encode())
        h.update(b"\n")
    return h.hexdigest()


class TraceMetrics:
    """Derived views over a raw event stream.

    All methods are pure functions of the events; the same stream always
    produces the same timelines and histograms.
    """

    def __init__(self, events: Sequence[TraceEvent], stats: Any = None):
        self.events = list(events)
        #: Optional :class:`~repro.engine.stats.StatsRegistry` captured
        #: alongside the trace; enables counter-backed views (queue put
        #: stalls) that have no per-event representation.
        self.stats = stats

    # -- phases ------------------------------------------------------------

    def phase_windows(self) -> Dict[str, List[Tuple[int, int]]]:
        """Per phase name, the list of (begin, end) cycle windows."""
        windows: Dict[str, List[Tuple[int, int]]] = {}
        open_at: Dict[str, int] = {}
        for event in self.events:
            if event[1] != "phase":
                continue
            cycle, _, name, edge = event
            if edge == "B":
                open_at[name] = cycle
            elif edge == "E" and name in open_at:
                windows.setdefault(name, []).append((open_at.pop(name), cycle))
        return windows

    def phase_cycles(self) -> Dict[str, int]:
        """Total cycles spent per phase name."""
        return {
            name: sum(end - start for start, end in spans)
            for name, spans in self.phase_windows().items()
        }

    # -- requests ----------------------------------------------------------

    def requests_by_source(self) -> Dict[str, int]:
        """Fig. 18-style request counts attributed to each requester."""
        counts: Dict[str, int] = {}
        for event in self.events:
            if event[1] == "req":
                source = event[2]
                counts[source] = counts.get(source, 0) + 1
        return counts

    def request_latency_histogram(self, source: Optional[str] = None) -> Histogram:
        """Histogram of (done - issue) per request, optionally one source."""
        hist = Histogram(name=f"latency.{source or 'all'}")
        for event in self.events:
            if event[1] == "req" and (source is None or event[2] == source):
                hist.add(event[7] - event[6])
        return hist

    def phase_breakdown(self) -> Dict[str, Dict[str, int]]:
        """Per phase, request counts by source (requests attributed by
        issue cycle falling inside the phase's window)."""
        windows = self.phase_windows()
        breakdown: Dict[str, Dict[str, int]] = {
            name: {} for name in windows
        }
        for event in self.events:
            if event[1] != "req":
                continue
            source, issue = event[2], event[6]
            for name, spans in windows.items():
                if any(start <= issue <= end for start, end in spans):
                    per = breakdown[name]
                    per[source] = per.get(source, 0) + 1
        return breakdown

    # -- occupancy / utilization -------------------------------------------

    def queue_timeline(self, name: str) -> TimeSeries:
        """Occupancy-over-time samples for one named queue."""
        series = TimeSeries(name=f"queue.{name}")
        for event in self.events:
            if event[1] == "queue" and event[2] == name:
                series.sample(event[0], event[3])
        return series

    def queue_stalls(self) -> Dict[str, int]:
        """Per queue name, how many producer ``put()`` calls blocked on a
        full queue (``queue.<name>.put_stalls`` counters).

        Backpressure has no per-event trace record — a stalled put is the
        *absence* of progress — so this view needs the stats registry
        captured with the trace; without one it is empty.
        """
        if self.stats is None:
            return {}
        prefix = "queue."
        suffix = ".put_stalls"
        return {
            key[len(prefix):-len(suffix)]: value
            for key, value in sorted(self.stats.with_prefix(prefix).items())
            if key.endswith(suffix) and value
        }

    def queue_peak(self, name: str) -> int:
        return max(
            (e[3] for e in self.events if e[1] == "queue" and e[2] == name),
            default=0,
        )

    def bandwidth_timeline(self, bin_cycles: int) -> List[Tuple[int, float]]:
        """[(bin_start, GB/s)] from request completions (1 cycle = 1 ns)."""
        if bin_cycles <= 0:
            raise ValueError("bin_cycles must be positive")
        reqs = [e for e in self.events if e[1] == "req"]
        if not reqs:
            return []
        start = min(e[7] for e in reqs)
        end = max(e[7] for e in reqs)
        nbins = (end - start) // bin_cycles + 1
        totals = [0] * nbins
        for event in reqs:
            totals[(event[7] - start) // bin_cycles] += event[5]
        return [(start + i * bin_cycles, totals[i] / bin_cycles)
                for i in range(nbins)]

    def utilization_histogram(self, bin_cycles: int,
                              peak_bytes_per_cycle: float = 16.0) -> Histogram:
        """Histogram of per-bin bus utilization percent (DDR3-2000 peak is
        16 B/cycle); the shape behind 'how bursty is the unit's traffic'."""
        hist = Histogram(name="utilization_pct")
        for _, gbps in self.bandwidth_timeline(bin_cycles):
            hist.add(int(round(100.0 * gbps / peak_bytes_per_cycle)))
        return hist

    def summary(self) -> str:
        """A human-readable digest of the trace, for the CLI."""
        lines = [f"{len(self.events)} events"]
        cycles = self.phase_cycles()
        for name in sorted(cycles):
            lines.append(f"  phase {name:10s} {cycles[name]:>12,} cycles")
        by_source = self.requests_by_source()
        total = sum(by_source.values())
        lines.append(f"  {total:,} memory requests:")
        for source in sorted(by_source):
            share = 100.0 * by_source[source] / total if total else 0.0
            lines.append(
                f"    {source:10s} {by_source[source]:>10,} ({share:4.1f}%)"
            )
        stalls = self.queue_stalls()
        if stalls:
            lines.append("  queue backpressure (blocked puts):")
            for name in sorted(stalls):
                lines.append(f"    {name:12s} {stalls[name]:>10,}")
        faults = [e for e in self.events if e[1] == "fault"]
        if faults:
            lines.append(f"  {len(faults)} injected fault(s) fired:")
            for cycle, _, kind, component, op_index in faults:
                lines.append(
                    f"    {kind}:{component} at cycle {cycle:,} "
                    f"(op #{op_index})")
        for event in self.events:
            if event[1] == "fallback":
                cycle, _, reason, culprit = event
                lines.append(
                    f"  FALLBACK at cycle {cycle:,}: {reason}"
                    + (f" [{culprit}]" if culprit else ""))
        return "\n".join(lines)


# -- exporters ---------------------------------------------------------------

#: Cycle is 1 ns (1 GHz SoC clock); Chrome timestamps are microseconds.
_US_PER_CYCLE = 1e-3


def to_chrome_trace(events: Sequence[TraceEvent],
                    meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Convert an event stream to Chrome ``trace_event`` JSON (dict form).

    Load the written file in chrome://tracing or https://ui.perfetto.dev.
    Requests become duration ("X") slices on one track per source, queue
    occupancies become counter ("C") tracks, phases become nested B/E
    slices, and everything else becomes instant events.
    """
    trace_events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}

    def tid_for(name: str) -> int:
        tid = tids.get(name)
        if tid is None:
            tid = tids[name] = len(tids) + 1
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": name},
            })
        return tid

    for event in events:
        cycle, category = event[0], event[1]
        ts = cycle * _US_PER_CYCLE
        if category == "req":
            _, _, source, kind, addr, size, issue, done = event
            trace_events.append({
                "name": f"{kind} {size}B", "cat": "mem", "ph": "X",
                "pid": 0, "tid": tid_for(f"mem.{source}"),
                "ts": issue * _US_PER_CYCLE,
                "dur": (done - issue) * _US_PER_CYCLE,
                "args": {"addr": f"{addr:#x}", "size": size},
            })
        elif category == "queue":
            _, _, name, occupancy = event
            trace_events.append({
                "name": f"queue.{name}", "ph": "C", "pid": 0,
                "ts": ts, "args": {"entries": occupancy},
            })
        elif category == "phase":
            _, _, name, edge = event
            trace_events.append({
                "name": name, "cat": "gc", "ph": edge, "pid": 0,
                "tid": tid_for("gc.phases"), "ts": ts,
            })
        else:
            # spill / tlb / ptw / cache / mark / tracer / sweep / cpu:
            # instant events on a per-category track.
            label = ".".join(str(f) for f in event[1:3])
            trace_events.append({
                "name": label, "cat": category, "ph": "i", "s": "t",
                "pid": 0, "tid": tid_for(category), "ts": ts,
                "args": {"fields": [str(f) for f in event[2:]]},
            })
    doc: Dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
    }
    if meta:
        doc["otherData"] = {k: str(v) for k, v in meta.items()}
    return doc


def write_chrome_trace(events: Sequence[TraceEvent], path: str,
                       meta: Optional[Dict[str, Any]] = None) -> None:
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(events, meta=meta), fh)


def write_jsonl(events: Sequence[TraceEvent], path: str) -> None:
    """One JSON array per line: ``[cycle, category, ...fields]``."""
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(list(event)))
            fh.write("\n")


def write_csv(events: Sequence[TraceEvent], path: str) -> None:
    """Flat CSV: ``cycle,category,f0..fN`` (rows are variable arity)."""
    import csv

    width = max((len(e) - 2 for e in events), default=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle", "category"]
                        + [f"f{i}" for i in range(width)])
        for event in events:
            writer.writerow(list(event) + [""] * (width - (len(event) - 2)))
