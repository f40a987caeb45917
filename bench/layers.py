"""Per-layer metrics of the traced run, and what each should move.

Layer names are the ``repro`` package's module names. Times are inclusive
span durations summed per op (or per set-up, for the two set-up metrics)
and reported as the median over the traced ops; counts come from the
untraced ops' results. A layer a workload never calls reports 0. Costs
that cannot be timed from outside the program are given as overhead over
a lower bound (the LBO method): event dispatch against a no-op callback
chain, DRAM against the ideal pipe model.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, List, Sequence

STW, CONC, FLEET, RUNALL = ("stw_avrora", "conc_luindex", "fleet_replay",
                            "runall_subset")
SIM = (STW, CONC)

#: TraceBus request sources counted by the ``memory.trace_req`` probe; the
#: same names the simulated-cycle breakdown uses.
TRACE_SOURCES = ("cpu", "cpu.ptw", "l2.wb", "marker", "tracer", "queue",
                 "ptw", "sweeper")

_MEMORY = ("requests", "dram_bytes_read", "dram_bytes_written",
           "dram_activates", "dram_row_hit_ratio", "tlb_miss_ratio",
           "ptw_walks")

#: Per-layer metric -> (the end-to-end metric it should move, on which
#: workloads). Every per-layer metric in BENCHMARK.json appears here.
MOVES: Dict[str, tuple] = {
    "bench.trace_overhead_pct": ("op_s", (STW, CONC, FLEET, RUNALL)),
    "engine.events_per_op": ("op_s", SIM),
    "engine.host_ns_per_event": ("op_s", SIM),
    "engine.dispatch_ns_per_event": ("op_s", SIM),
    "engine.dispatch_share": ("op_s", SIM),
    "workloads.graphgen_build_s": ("setup_s", (STW, CONC, FLEET)),
    "workloads.base_run_s": ("setup_s", (FLEET,)),
    "workloads.replay_s": ("op_s", (FLEET,)),
    "workloads.replay_ns_per_query": ("queries_per_s", (FLEET,)),
    "harness.heapcache_hit_s": ("op_s", SIM),
    "harness.figure_s.conc_latency": ("op_s", (RUNALL,)),
    "harness.figure_s.fig19": ("op_s", (RUNALL,)),
    "harness.figure_s.fig22": ("op_s", (RUNALL,)),
    "harness.figure_s.fleet_resilience": ("op_s", (RUNALL,)),
    "harness.warm_s": ("op_s", (RUNALL,)),
    "harness.cells_simulated": ("op_s", (RUNALL,)),
    "harness.cells_hit": ("op_s", (RUNALL,)),
    "harness.simcache_bytes": ("op_s", (RUNALL,)),
    "harness.heapcache_bytes": ("op_s", (RUNALL,)),
    "harness.parallel_speedup": ("op_s", (RUNALL,)),
    # Workers are outside peak_rss_mb; reported only.
    "harness.worker_peak_rss_mb": ("peak_rss_mb", (RUNALL,)),
    "heap.restore_s": ("op_s", (STW,)),
    "swgc.collect_s": ("op_s", (STW,)),
    "swgc.events": ("op_s", (STW,)),
    "swgc.mark_cycles": ("op_s", (STW,)),
    "swgc.sweep_cycles": ("op_s", (STW,)),
    "swgc.cpu_loads": ("op_s", (STW,)),
    "swgc.cpu_stores": ("op_s", (STW,)),
    "swgc.mispredicts": ("op_s", (STW,)),
    "core.mark_s": ("op_s", (STW,)),
    "core.sweep_s": ("op_s", (STW,)),
    "core.mark_events": ("op_s", (STW,)),
    "core.sweep_events": ("op_s", (STW,)),
    "core.mark_cycles": ("op_s", (STW,)),
    "core.sweep_cycles": ("op_s", (STW,)),
    "core.objects_marked": ("op_s", (STW,)),
    "core.refs_traced": ("op_s", (STW,)),
    "core.spill_writes": ("op_s", (STW,)),
    "core.queue_peak_entries": ("op_s", (STW,)),
    "core.tracerq_put_stalls": ("op_s", (STW,)),
    "core.conc_gc_s": ("op_s", (CONC,)),
    "core.conc_mark_cycles": ("op_s", (CONC,)),
    "core.handshake_cycles": ("op_s", (CONC,)),
    "core.conc_sweep_cycles": ("op_s", (CONC,)),
    "core.barrier_hits": ("op_s", (CONC,)),
    "core.objects_relocated": ("op_s", (CONC,)),
    **{f"memory.{m}.{side}": ("op_s", (STW,))
       for m in _MEMORY for side in ("sw", "hw")},
    "memory.l1d_hit_ratio.sw": ("op_s", (STW,)),
    "memory.l2_hit_ratio.sw": ("op_s", (STW,)),
    "memory.dram_lbo_s": ("op_s", (STW,)),
    **{f"memory.trace_req.{src}": ("op_s", (STW,)) for src in TRACE_SOURCES},
    "fleet.simulate_s.clean": ("op_s", (FLEET,)),
    "fleet.simulate_s.faulted": ("op_s", (FLEET,)),
    "fleet.schedule_s": ("op_s", (FLEET,)),
    "fleet.completed": ("queries_per_s", (FLEET,)),
    "fleet.failovers": ("op_s", (FLEET,)),
}

#: Per-layer time metric -> the span it sums, per op.
_OP_SPANS = {
    "workloads.replay_s": "workloads.replay",
    "harness.heapcache_hit_s": "harness.heapcache_hit",
    "heap.restore_s": "heap.restore",
    "swgc.collect_s": "swgc.collect",
    "swgc.events": "swgc.collect#events",
    "core.mark_s": "core.mark",
    "core.sweep_s": "core.sweep",
    "core.mark_events": "core.mark#events",
    "core.sweep_events": "core.sweep#events",
    "core.conc_gc_s": "core.run_gc_safe",
    "fleet.simulate_s.clean": "fleet.simulate.clean",
    "fleet.simulate_s.faulted": "fleet.simulate.faulted",
    "fleet.schedule_s": "fleet.schedule",
}
#: ... and the two summed per cold set-up.
_SETUP_SPANS = {
    "workloads.graphgen_build_s": "workloads.graphgen_build",
    "workloads.base_run_s": "workloads.base_run",
}


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(names: Sequence[str], spans: List[Dict],
              setup_labels: Sequence[str], op_labels: Sequence[str],
              counts: List[Dict[str, float]], op_s: float,
              traced_op_s: float, probes: Dict[str, float]
              ) -> Dict[str, float]:
    """Every per-layer metric in ``names``.

    ``counts`` are the untraced ops' per-layer counts, ``op_s`` and
    ``traced_op_s`` the median op times without and with spans, and
    ``probes`` the lower-bound and extra-op measurements.
    """
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for s in spans:
        per = totals[s["label"]]
        per[s["name"]] += s["end"] - s["start"]
        for key, value in s["args"].items():
            if isinstance(value, (int, float)):
                per[f"{s['name']}#{key}"] += value

    def median_over(labels: Sequence[str], key: str) -> float:
        return _median([totals[label][key] for label in labels])

    values = {name: 0.0 for name in names}
    for key in {k for c in counts for k in c}:
        if key in values:
            values[key] = _median([c[key] for c in counts if key in c])
    values.update({m: median_over(op_labels, key)
                   for m, key in _OP_SPANS.items()})
    values.update({m: median_over(setup_labels, key)
                   for m, key in _SETUP_SPANS.items()})
    queries = median_over(op_labels, "workloads.replay#queries")
    events = values["engine.events_per_op"]
    dispatch_ns = probes["engine.dispatch_ns_per_event"]
    values.update({
        "bench.trace_overhead_pct": 100.0 * (traced_op_s / op_s - 1.0),
        "workloads.replay_ns_per_query":
            values["workloads.replay_s"] * 1e9 / queries if queries else 0.0,
        "engine.host_ns_per_event": op_s * 1e9 / events if events else 0.0,
        "engine.dispatch_share": events * dispatch_ns * 1e-9 / op_s,
        **probes,
    })
    return {name: float(values[name]) for name in names}


def dispatch_ns_per_event(n_events: int = 300_000, repeats: int = 3) -> float:
    """Event-dispatch lower bound: a self-rescheduling no-op callback."""
    from repro.engine.simulator import Simulator

    samples = []
    for _ in range(repeats):
        sim = Simulator()
        left = [n_events]

        def tick() -> None:
            left[0] -= 1
            if left[0]:
                sim.schedule(1, tick)

        sim.schedule(1, tick)
        t0 = time.perf_counter()
        sim.run()
        samples.append((time.perf_counter() - t0) * 1e9
                       / sim.events_processed)
    return _median(samples)
