"""Cycle-stamped trace capture for figure workloads (``python -m repro trace``).

Resolves a trace *target* — a DaCapo profile name (``avrora``) or a figure
id (``fig16``) — builds the workload heap through the memoizing
:mod:`repro.harness.heapcache` layer, attaches a :class:`~repro.engine.trace.TraceBus`
to the heap's :class:`~repro.engine.stats.StatsRegistry`, and replays one
collection per requested collector from the heap checkpoint.

The bus is attached *after* the build returns, so the (possibly cached)
heap-construction traffic is never traced: warm and cold ``REPRO_HEAP_CACHE``
runs produce bit-identical event streams — a property the determinism
suite asserts via :func:`~repro.engine.trace.trace_digest`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.trace import TraceBus, TraceMetrics, trace_digest
from repro.workloads.profiles import DACAPO_PROFILES, BenchmarkProfile

#: Default build scale when a profile is named directly.
DEFAULT_TRACE_SCALE = 0.02


def resolve_target(target: str,
                   scale: Optional[float] = None) -> Tuple[BenchmarkProfile, float]:
    """Map a CLI target (profile name or figure id) to (profile, scale);
    a figure id maps to its record's ``trace`` profile and suite scale."""
    from repro.harness.figures import FIGURES

    if target in DACAPO_PROFILES:
        return DACAPO_PROFILES[target], (
            scale if scale is not None else DEFAULT_TRACE_SCALE
        )
    traced = {exp_id: figure for exp_id, figure in FIGURES.items()
              if figure.trace is not None}
    if target in traced:
        return DACAPO_PROFILES[traced[target].trace], (
            scale if scale is not None else traced[target].kwargs["scale"]
        )
    raise KeyError(
        f"unknown trace target {target!r}; expected a profile "
        f"({', '.join(sorted(DACAPO_PROFILES))}) or a figure id "
        f"({', '.join(sorted(traced))})"
    )


@dataclass
class TraceCapture:
    """One traced run: the event stream plus per-collector summaries."""

    target: str
    profile: str
    scale: float
    seed: int
    collectors: Tuple[str, ...]
    bus: TraceBus
    #: Collector name -> {phase name: cycles} from the collection results.
    phase_cycles: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: The run's stats registry, for counter-backed views (queue put
    #: stalls) that have no per-event trace representation.
    stats: Optional[object] = None

    @property
    def events(self) -> list:
        return self.bus.events

    @property
    def digest(self) -> str:
        return trace_digest(self.bus.events)

    def metrics(self) -> TraceMetrics:
        return TraceMetrics(self.bus.events, stats=self.stats)


def trace_collection(
    target: str,
    scale: Optional[float] = None,
    seed: int = 1,
    collectors: str = "both",
) -> TraceCapture:
    """Capture a cycle-stamped trace of one GC on the target workload.

    ``collectors`` is ``"hw"``, ``"sw"``, or ``"both"``; with ``"both"``
    the software collector runs first and the heap is restored from the
    checkpoint in between, so both collections see the byte-identical heap
    and share one event stream (distinguished by phase names and request
    sources).
    """
    from repro.harness.runners import build_heap, run_hardware, run_software

    if collectors not in ("hw", "sw", "both"):
        raise ValueError(f"collectors must be hw|sw|both, got {collectors!r}")
    wanted = ("sw", "hw") if collectors == "both" else (collectors,)

    profile, resolved_scale = resolve_target(target, scale)
    built, checkpoint = build_heap(profile, scale=resolved_scale, seed=seed)
    heap = built.heap

    bus = TraceBus()
    heap.memsys.stats.trace = bus
    phase_cycles: Dict[str, Dict[str, int]] = {}
    try:
        for collector in wanted:
            heap.restore(checkpoint)
            if collector == "sw":
                result, _delta = run_software(heap)
                phase_cycles["sw"] = {
                    "sw.mark": result.mark_cycles,
                    "sw.sweep": result.sweep_cycles,
                }
            else:
                result, _unit = run_hardware(heap)
                phase_cycles["hw"] = {
                    "hw.mark": result.mark_cycles,
                    "hw.sweep": result.sweep_cycles,
                }
    finally:
        heap.memsys.stats.trace = None

    return TraceCapture(
        target=target,
        profile=profile.name,
        scale=resolved_scale,
        seed=seed,
        collectors=wanted,
        bus=bus,
        phase_cycles=phase_cycles,
        stats=heap.memsys.stats,
    )


def render_summary(capture: TraceCapture) -> str:
    """A human-readable digest of a capture for the CLI."""
    metrics = capture.metrics()
    lines: List[str] = [
        f"trace target: {capture.target} (profile {capture.profile}, "
        f"scale {capture.scale}, seed {capture.seed})",
        f"digest: {capture.digest}",
        metrics.summary(),
    ]
    peak = metrics.queue_peak("markq")
    if peak:
        lines.append(f"  mark queue peak: {peak} entries")
    return "\n".join(lines)
