"""The benchmark's four workloads: a cold set-up, one op, and its checks.

Each op starts from cold modelled state, matching the paper's
per-collection measurement: collections draw a fresh heap from the heap
cache (new simulator, empty caches, TLBs and DRAM), and the harness
workload starts from empty disk caches. A fresh heap is also needed for
correctness: ``ManagedHeap.restore`` is not a full reset, and a second
restore of the same avrora heap moves the software mark count.

The collection workloads cycle their ops through a small pool of heaps
drawn from the seed: heap shape moves an op's work by several per cent
from one seed to the next, and a median over a pool of shapes keeps that
out of the run-to-run spread. The pool's first heap is the seed's own.

Each op is checked against the outputs pinned for its input, where there
are pins (the pinned seed's pool); otherwise the pins give way to the
built-in cross-checks plus identity with the run's first op on the same
input.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from layers import TRACE_SOURCES
from repro.core.config import GCUnitConfig
from repro.core.driver import HWGCDriver
from repro.fleet import FleetFaultSpec, FleetSpec, reset_base_cache
from repro.fleet.report import derive_schedule, simulate_fleet
from repro.fleet.timeline import base_run
from repro.harness import parallel
from repro.harness import suite as suite_mod
from repro.harness.heapcache import reset_cache
from repro.harness.runners import build_heap, run_gc_comparison
from repro.harness.tracing import trace_collection
from repro.heap.verify import reachable_digest
from repro.workloads.mutator import ConcurrentMutator
from repro.workloads.profiles import DACAPO_PROFILES


@dataclass
class OpResult:
    """What one op produced."""

    #: The op's input seed; pins and op-to-op identity are per input.
    key: int
    #: Checked against the pins or the first op on the same input.
    outputs: Dict[str, Any]
    #: Cross-checks that hold at every seed: ``(field, expected, actual)``.
    checks: List[Tuple[str, Any, Any]] = field(default_factory=list)
    #: Deterministic per-layer counts, keyed by per-layer metric name.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Simulated cycles and replayed queries, for the throughput metrics.
    sim_cycles: int = 0
    queries: int = 0


class Workload:
    """One closed-loop workload: ``setup`` once per cold start, then ops."""

    name = ""
    pinned_seed = 1
    #: How many inputs the ops cycle through.
    pool = 1
    #: Pinned outputs by input seed.
    pins: Dict[int, Dict[str, Any]] = {}

    def __init__(self, seed: Optional[int], work_dir: Path):
        self.seed = self.pinned_seed if seed is None else seed
        self.pinned = self.seed == self.pinned_seed
        rng = random.Random(self.seed)
        self.inputs = [self.seed] + [rng.randrange(2 ** 31)
                                     for _ in range(self.pool - 1)]
        self.work_dir = work_dir

    def definition(self) -> Dict[str, Any]:
        """Every parameter of the workload; hashed into its fingerprint."""
        raise NotImplementedError

    def setup(self) -> None:
        """Bring the workload from cold to ready for its first op."""
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        """The ``index``-th op of the run."""
        raise NotImplementedError

    def probes(self, op_s: float,
               counts: List[Dict[str, float]]) -> Dict[str, float]:
        """Per-layer measurements that need extra work after the traced
        ops: lower bounds and one-off ops. ``op_s`` is the median untraced
        op time and ``counts`` the untraced ops' counts."""
        return {}


def _memory_counts(delta: Dict[str, int], suffix: str) -> Dict[str, float]:
    """Memory-layer counts from one phase's stats delta."""

    def total(prefix: str, end: str = "") -> int:
        return sum(v for k, v in delta.items()
                   if k.startswith(prefix) and k.endswith(end))

    requests = total("mem.requests.")
    activates = delta.get("dram.activates", 0)
    tlb_hits = total("tlb.", ".hits")
    tlb_misses = total("tlb.", ".misses")
    return {
        f"memory.requests.{suffix}": requests,
        f"memory.dram_bytes_read.{suffix}": delta.get("dram.bytes_read", 0),
        f"memory.dram_bytes_written.{suffix}":
            delta.get("dram.bytes_written", 0),
        f"memory.dram_activates.{suffix}": activates,
        # A request that needed no row activate hit an open row.
        f"memory.dram_row_hit_ratio.{suffix}":
            max(0.0, 1.0 - activates / requests) if requests else 0.0,
        f"memory.tlb_miss_ratio.{suffix}":
            tlb_misses / (tlb_hits + tlb_misses) if tlb_misses else 0.0,
        f"memory.ptw_walks.{suffix}": delta.get("ptw.walks", 0),
    }


def _hit_ratio(delta: Dict[str, int], cache: str) -> float:
    hits = delta.get(f"cache.{cache}.hits", 0)
    misses = delta.get(f"cache.{cache}.misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


class StwAvrora(Workload):
    """The paper's Fig. 15 unit of work: SW then HW collection of one heap.

    Engine, memory, core and swgc do nearly all of the op; harness and
    fleet do almost nothing.
    """

    name = "stw_avrora"
    pinned_seed = 1
    pool = 4
    profile = "avrora"
    scale = 0.05
    pins = {
        1: {"sw_mark_cycles": 1_096_061, "sw_sweep_cycles": 662_575,
            "hw_mark_cycles": 310_147, "hw_sweep_cycles": 339_682,
            "objects_marked": 6_637},
        577_090_037: {"sw_mark_cycles": 1_104_390,
                      "sw_sweep_cycles": 668_393, "hw_mark_cycles": 311_666,
                      "hw_sweep_cycles": 346_934, "objects_marked": 6_637},
        271_041_745: {"sw_mark_cycles": 1_066_534,
                      "sw_sweep_cycles": 679_764, "hw_mark_cycles": 299_793,
                      "hw_sweep_cycles": 291_750, "objects_marked": 6_637},
        1_095_513_148: {"sw_mark_cycles": 1_039_514,
                        "sw_sweep_cycles": 680_269,
                        "hw_mark_cycles": 302_294,
                        "hw_sweep_cycles": 299_591, "objects_marked": 6_637},
    }

    def definition(self) -> Dict[str, Any]:
        return {"profile": self.profile, "scale": self.scale,
                "heap_seeds": self.inputs, "op": "run_gc_comparison"}

    def setup(self) -> None:
        reset_cache()
        for seed in self.inputs:
            build_heap(DACAPO_PROFILES[self.profile], scale=self.scale,
                       seed=seed)

    def op(self, index: int, memsys_config=None) -> OpResult:
        profile = DACAPO_PROFILES[self.profile]
        seed = self.inputs[index % self.pool]
        built = build_heap(profile, scale=self.scale, seed=seed,
                           config=memsys_config)
        # Raises on any SW/HW divergence in marked objects or free cells.
        comp = run_gc_comparison(profile, built=built)
        heap = built[0].heap
        sw, hw = comp.sw, comp.hw
        hw_stats = dict(comp.hw_mark_stats)
        for key, value in comp.hw_sweep_stats.items():
            hw_stats[key] = hw_stats.get(key, 0) + value
        counts = {
            "engine.events_per_op": heap.sim.events_processed,
            "swgc.mark_cycles": sw.mark_cycles,
            "swgc.sweep_cycles": sw.sweep_cycles,
            "swgc.cpu_loads": comp.sw_stats.get("cpu.cpu.loads", 0),
            "swgc.cpu_stores": comp.sw_stats.get("cpu.cpu.stores", 0),
            "swgc.mispredicts": comp.sw_stats.get("cpu.cpu.mispredicts", 0),
            "core.mark_cycles": hw.mark_cycles,
            "core.sweep_cycles": hw.sweep_cycles,
            "core.objects_marked": hw.objects_marked,
            "core.refs_traced": hw.refs_traced,
            "core.spill_writes": hw.spill_writes,
            "core.queue_peak_entries": hw.counters["queue_peak_entries"],
            "core.tracerq_put_stalls":
                comp.hw_mark_stats.get("queue.tracerq.put_stalls", 0),
            "memory.l1d_hit_ratio.sw": _hit_ratio(comp.sw_stats, "l1d"),
            "memory.l2_hit_ratio.sw": _hit_ratio(comp.sw_stats, "l2"),
            **_memory_counts(comp.sw_stats, "sw"),
            **_memory_counts(hw_stats, "hw"),
        }
        return OpResult(
            key=seed,
            outputs={"sw_mark_cycles": sw.mark_cycles,
                     "sw_sweep_cycles": sw.sweep_cycles,
                     "hw_mark_cycles": hw.mark_cycles,
                     "hw_sweep_cycles": hw.sweep_cycles,
                     "objects_marked": hw.objects_marked},
            checks=[("objects_marked", len(built[0].live),
                     hw.objects_marked)],
            counts=counts,
            sim_cycles=heap.sim.now,
        )

    def probes(self, op_s: float,
               counts: List[Dict[str, float]]) -> Dict[str, float]:
        """DRAM lower-bound overhead and TraceBus request counts by source.

        ``memory.dram_lbo_s`` is the median op's host time on the DDR3
        model minus the pool's first op under the ideal pipe model. Memory
        work runs inside kernel callbacks, so this bounds the memory
        layer's host time where no span can. Both probes run on the pool's
        first heap.
        """
        profile = DACAPO_PROFILES[self.profile]
        built, _checkpoint = build_heap(profile, scale=self.scale,
                                        seed=self.seed)
        pipe = dataclasses.replace(built.heap.memsys.config, model="pipe")
        build_heap(profile, scale=self.scale, seed=self.seed,
                   config=pipe)  # cold build outside the timed op
        t0 = time.perf_counter()
        self.op(0, memsys_config=pipe)
        pipe_s = time.perf_counter() - t0
        capture = trace_collection(self.profile, scale=self.scale,
                                   seed=self.seed)
        by_source = capture.metrics().requests_by_source()
        probes = {"memory.dram_lbo_s": op_s - pipe_s}
        probes.update({f"memory.trace_req.{src}": by_source.get(src, 0)
                       for src in TRACE_SOURCES})
        return probes


class ConcLuindex(Workload):
    """A supervised concurrent collection with a racing mutator.

    The same layers as ``stw_avrora`` used differently: mutator writes go
    through SATB barriers beside the traversal's reads, with relocation,
    the watchdog-sliced loop and oracle verification, on another heap.
    """

    name = "conc_luindex"
    pinned_seed = 13
    pool = 4
    profile = "luindex"
    scale = 0.05
    mutator_ops = 2000
    mutator_seed = 3
    relocate_blocks = 4
    pins = {
        13: {"outcome": "hardware", "reachable_digest": "c155c7d051546ead",
             "mark_cycles": 850_099, "handshake_cycles": 6_899,
             "sweep_cycles": 273_099, "objects_marked": 4_536,
             "cells_freed": 4_505, "barrier_hits": 1_081,
             "objects_relocated": 456},
        1_112_433_019: {
            "outcome": "hardware", "reachable_digest": "f4dc2ce5d7ba38c3",
            "mark_cycles": 850_168, "handshake_cycles": 6_768,
            "sweep_cycles": 279_677, "objects_marked": 4_536,
            "cells_freed": 4_508, "barrier_hits": 1_079,
            "objects_relocated": 480},
        1_248_794_762: {
            "outcome": "hardware", "reachable_digest": "80e2362c48300456",
            "mark_cycles": 850_127, "handshake_cycles": 9_227,
            "sweep_cycles": 253_219, "objects_marked": 4_536,
            "cells_freed": 4_507, "barrier_hits": 1_027,
            "objects_relocated": 480},
        797_679_261: {
            "outcome": "hardware", "reachable_digest": "93da5dd95ed7e7ac",
            "mark_cycles": 850_170, "handshake_cycles": 4_870,
            "sweep_cycles": 278_857, "objects_marked": 4_536,
            "cells_freed": 4_508, "barrier_hits": 1_118,
            "objects_relocated": 480},
    }

    def definition(self) -> Dict[str, Any]:
        return {"profile": self.profile, "scale": self.scale,
                "heap_seeds": self.inputs, "mutator_ops": self.mutator_ops,
                "mutator_seed": self.mutator_seed,
                "relocate_blocks": self.relocate_blocks,
                "op": "run_gc_safe(mode=concurrent)"}

    def setup(self) -> None:
        reset_cache()
        for seed in self.inputs:
            build_heap(DACAPO_PROFILES[self.profile], scale=self.scale,
                       seed=seed)

    def op(self, index: int) -> OpResult:
        seed = self.inputs[index % self.pool]
        built, _checkpoint = build_heap(DACAPO_PROFILES[self.profile],
                                        scale=self.scale, seed=seed)
        driver = HWGCDriver(built.heap, GCUnitConfig())
        driver.init_device()
        safe = driver.run_gc_safe(
            mode="concurrent",
            mutator=ConcurrentMutator(built, n_ops=self.mutator_ops,
                                      seed=self.mutator_seed),
            relocate_blocks=self.relocate_blocks)
        r = safe.result
        outputs = {"outcome": safe.outcome,
                   "reachable_digest": reachable_digest(built.heap)[:16],
                   "objects_marked": r.objects_marked,
                   "cells_freed": r.cells_freed}
        if not safe.fallback:
            outputs.update(mark_cycles=r.mark_cycles,
                           handshake_cycles=r.handshake_cycles,
                           sweep_cycles=r.sweep_cycles,
                           barrier_hits=r.write_barrier_hits,
                           objects_relocated=r.objects_relocated)
        counts = {"engine.events_per_op": built.heap.sim.events_processed}
        if not safe.fallback:
            counts.update({
                "core.conc_mark_cycles": r.mark_cycles,
                "core.handshake_cycles": r.handshake_cycles,
                "core.conc_sweep_cycles": r.sweep_cycles,
                "core.barrier_hits": r.write_barrier_hits,
                "core.objects_relocated": r.objects_relocated,
            })
        return OpResult(
            key=seed,
            outputs=outputs,
            # A fallback means the unit failed its own oracle check.
            checks=[("outcome", "hardware", safe.outcome)],
            counts=counts,
            sim_cycles=built.heap.sim.now,
        )


class FleetReplay(Workload):
    """The fleet tier alone: query replay plus admission, with failover.

    Engine, core and memory are idle during ops; the mutator base runs
    that feed the fleet are simulated in set-up.
    """

    name = "fleet_replay"
    pinned_seed = 1
    faults = "crash:u2@2800000,brownout:u0@2000000+20000000x4"
    pins = {1: {"rows_sha256": "a7576e3870c7079411f0243354f6836c"
                               "3fcee55df951c32739742d7c5db07915"}}

    def __init__(self, seed: Optional[int], work_dir: Path):
        super().__init__(seed, work_dir)
        self.spec = FleetSpec(n_tenants=6, scale=0.015, n_gcs=2,
                              n_queries=100_000, warmup=5_000, n_units=3,
                              seed=self.seed)
        self.fault_spec = FleetFaultSpec.parse(self.faults)

    def definition(self) -> Dict[str, Any]:
        return {"spec": dataclasses.asdict(self.spec),
                "faults": self.faults,
                "op": "simulate_fleet(all policies) + "
                      "simulate_fleet(shared, faults)"}

    def setup(self) -> None:
        reset_cache()
        reset_base_cache()
        spec = self.spec
        derive_schedule(spec)  # the hardware base runs
        for tenant in spec.tenants():
            base_run(tenant.benchmark, "sw", spec.scale, spec.seed,
                     spec.n_gcs)

    def op(self, index: int) -> OpResult:
        clean = simulate_fleet(self.spec)
        faulted = simulate_fleet(self.spec, ("shared",),
                                 faults=self.fault_spec)
        rows = json.dumps([clean.rows(), faulted.rows()])
        reports = list(clean.reports.values()) + \
            list(faulted.reports.values())
        return OpResult(
            key=self.seed,
            outputs={"rows_sha256": hashlib.sha256(rows.encode())
                     .hexdigest()},
            counts={"fleet.completed":
                    sum(r.replay.completed for r in reports),
                    "fleet.failovers":
                    sum(r.failovers for r in faulted.reports.values())},
            queries=sum(r.replay.arrived for r in reports),
        )


class RunallSubset(Workload):
    """A cold then warm ``run_suite`` over a small figure subset.

    The only workload where the harness does real work: fig19 shards over
    queue sizes and fleet_resilience over rosters, conc_latency and fig22
    go to the persistent pool, and both disk caches are written then read.
    """

    name = "runall_subset"
    pinned_seed = 1
    jobs = 2
    pins = {1: {
        "digest.conc_latency": "01595c2f053bca65968f3acd06826ded"
                               "bb3ad3c231695389f9ed39ee357d010d",
        "digest.fig19": "25a4a92347a2ebadd4e47a80644b78e0"
                        "4696c992e6a6a0ca710cf1414ce78f2b",
        "digest.fig22": "6fd52e40788cb72816f8144f17be5362"
                        "edf2124140385801353b6e5e3404063c",
        "digest.fleet_resilience": "2121a77c39a63ac3bc792c29ae3b3e4e"
                                   "8d77ab61d7280eb24d832567b9027e4c",
    }}

    def entries(self) -> List[Tuple[str, Dict[str, Any]]]:
        seed = self.seed
        return [
            ("conc_latency", dict(scale=0.005, n_gcs=2, n_queries=1000,
                                  warmup=100, seed=seed)),
            ("fig19", dict(scale=0.005, queue_entries=[128, 2048],
                           seed=seed)),
            ("fig22", dict()),
            ("fleet_resilience", dict(
                scale=0.005, n_gcs=2, n_tenants=2, n_queries=300,
                warmup=30, n_units=2, seed=seed,
                rosters=[["no faults", ""],
                         ["crash u1", "crash:u1@1400000"]])),
        ]

    def definition(self) -> Dict[str, Any]:
        return {"suite": self.entries(), "jobs": self.jobs,
                "shard_figures": True, "op": "run_suite cold + warm"}

    def setup(self) -> None:
        # run_suite reads its entries from the suite table; this process
        # owns it, so point it at the subset.
        suite_mod.SUITE[:] = self.entries()
        self._op_index = 0

    def run_cold(self, jobs: int, shard_figures: bool):
        """One cold ``run_suite`` on fresh caches; returns (runs, cache dir)."""
        self._op_index += 1
        caches = self.work_dir / f"caches-{self._op_index}"
        os.environ["REPRO_SIM_CACHE"] = str(caches / "sim")
        os.environ["REPRO_HEAP_CACHE"] = str(caches / "heap")
        reset_cache()
        reset_base_cache()
        return parallel.run_suite(jobs=jobs, shard_figures=shard_figures), \
            caches

    def op(self, index: int) -> OpResult:
        t0 = time.perf_counter()
        cold, caches = self.run_cold(self.jobs, shard_figures=True)
        cold_s = time.perf_counter() - t0
        reset_cache()
        reset_base_cache()
        t0 = time.perf_counter()
        warm = parallel.run_suite(jobs=self.jobs, shard_figures=True)
        warm_s = time.perf_counter() - t0
        sizes = {name: sum(p.stat().st_size
                           for p in (caches / name).rglob("*") if p.is_file())
                 for name in ("sim", "heap")}
        shutil.rmtree(caches, ignore_errors=True)

        cold_digests = parallel.digests(cold)
        warm_digests = parallel.digests(warm)
        checks = [(f"status.{r.exp_id}", "ok", r.status) for r in cold + warm]
        checks += [(f"warm_digest.{exp_id}", digest,
                    warm_digests.get(exp_id))
                   for exp_id, digest in cold_digests.items()]
        checks.append(("warm_cells_simulated", 0,
                       sum(r.cache_misses for r in warm)))
        # Pool workers report their own peak RSS; sharded entries record
        # the orchestrating process instead, so they are left out.
        worker_rss = [rec.get("max_rss_kb", 0.0) / 1024
                      for r in cold if not r.shard_digests
                      for rec in r.attempt_history]
        counts = {f"harness.figure_s.{r.exp_id}": r.elapsed for r in cold}
        counts.update({
            "harness.cold_s": cold_s,
            "harness.warm_s": warm_s,
            "harness.cells_simulated": sum(r.cache_misses for r in cold),
            "harness.cells_hit": sum(r.cache_hits for r in warm),
            "harness.simcache_bytes": sizes["sim"],
            "harness.heapcache_bytes": sizes["heap"],
            "harness.worker_peak_rss_mb": max(worker_rss, default=0.0),
        })
        return OpResult(
            key=self.seed,
            outputs={f"digest.{k}": v for k, v in cold_digests.items()},
            checks=checks,
            counts=counts,
        )

    def probes(self, op_s: float,
               counts: List[Dict[str, float]]) -> Dict[str, float]:
        """Parallel speedup: one cold suite at jobs=1 over the median cold
        suite at jobs=2."""
        cold_s = statistics.median(c["harness.cold_s"] for c in counts)
        t0 = time.perf_counter()
        _runs, caches = self.run_cold(jobs=1, shard_figures=False)
        elapsed = time.perf_counter() - t0
        shutil.rmtree(caches, ignore_errors=True)
        return {"harness.parallel_speedup": elapsed / cold_s}


WORKLOADS = {cls.name: cls for cls in
             (StwAvrora, ConcLuindex, FleetReplay, RunallSubset)}
