#!/usr/bin/env python3
"""Run one workload in this fresh process and write its result record.

``run.py`` starts one of these per workload; it is not meant to be run by
hand. The run is a closed loop with one client: after ``SETUPS`` cold
set-ups, ops run back to back, each starting when the previous one ends,
until ``--seconds`` have passed. Between ops, untimed, the loop collects
Python's garbage, so every op starts from the same memory state and the
collector's pauses for one op's garbage do not land in the next op's
time. Every op's outputs are checked, and a failed check or a raised
exception is recorded and the loop carries on.

With ``--trace-dir`` the run splits its time: the first half runs untraced
(the reference for the tracing overhead), the second half with spans
around every layer call (see ``spans.py``); then the probes run, and the
per-layer metrics and a Chrome trace are written.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import (ROOT, SCHEMA_VERSION, SETUPS, WORK_DIR, load_benchmark,
                    summary)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git``; "unknown" without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


class OpLoop:
    """Runs and checks ops, counting every attempt and failure."""

    def __init__(self, workload, recorder):
        self.workload = workload
        self.recorder = recorder
        self.attempted = 0
        self.failures: List[Dict[str, Any]] = []
        self.failed_ops = 0
        #: The first op's outputs per input, for op-to-op identity.
        self.first: Dict[int, Dict[str, Any]] = {}
        self.counts: List[Dict[str, float]] = []

    def span(self, name: str, label: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        self.recorder.label = label
        return self.recorder.span(name)

    def run(self, seconds: float, traced: bool):
        """Ops until ``seconds`` pass; returns the timed ops as
        ``(seconds, label, result)`` triples."""
        timed = []
        start = time.perf_counter()
        first = self.attempted
        while (self.attempted == first
               or time.perf_counter() - start < seconds):
            index = self.attempted
            self.attempted += 1
            label = f"op{index}"
            t0 = time.perf_counter()
            try:
                with self.span("bench.op", label) if traced else \
                        contextlib.nullcontext():
                    result = self.workload.op(index)
            except Exception as exc:  # counted as a failed op; loop goes on
                self.fail(index, [("exception", "no exception",
                                   f"{type(exc).__name__}: {exc}")])
                continue
            finally:
                elapsed = time.perf_counter() - t0
                gc.collect()
            timed.append((elapsed, label, result))
            if not traced:
                self.counts.append(result.counts)
            self.check(index, result)
        return timed

    def check(self, index: int, result) -> None:
        """The input's pins, else its first op; then the cross-checks."""
        expected = self.workload.pins.get(result.key) or \
            self.first.setdefault(result.key, dict(result.outputs))
        problems = [(name, want, result.outputs.get(name))
                    for name, want in expected.items()
                    if result.outputs.get(name) != want]
        named = {name for name, _want, _got in problems}
        problems += [(name, want, got) for name, want, got in result.checks
                     if want != got and name not in named]
        if problems:
            self.fail(index, problems)

    def fail(self, index: int, problems) -> None:
        self.failed_ops += 1
        self.failures.extend({"op": index, "field": name, "expected": want,
                              "actual": got}
                             for name, want, got in problems)


def run_workload(name: str, seed: Optional[int], seconds: float,
                 trace_dir: Optional[Path], work_dir: Path,
                 t_start: float) -> Dict[str, Any]:
    """One full run of one workload; returns its result record."""
    t0 = time.perf_counter()
    import layers
    import spans
    import workloads
    from repro.harness.simcache import code_fingerprint
    import_s = time.perf_counter() - t0

    bench = load_benchmark()
    workload = workloads.WORKLOADS[name](seed, work_dir)
    traced = trace_dir is not None
    recorder = None
    if traced:
        spool = work_dir / "spool"
        spool.mkdir(parents=True, exist_ok=True)
        recorder = spans.SpanRecorder(spool)
        recorder.install(ROOT)
    loop = OpLoop(workload, recorder)

    setup_times, setup_labels = [], []
    for k in range(SETUPS):
        label = f"setup{k}"
        t0 = time.perf_counter()
        with loop.span("bench.setup", label):
            workload.setup()
        setup_times.append(import_s + time.perf_counter() - t0)
        setup_labels.append(label)
        gc.collect()

    if traced:
        recorder.uninstall()
        ops = loop.run(seconds / 2, traced=False)
        recorder.install(ROOT)
        traced_ops = loop.run(seconds / 2, traced=True)
        recorder.uninstall()
    else:
        ops = loop.run(seconds, traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics: Dict[str, Any] = {}
    op_times = [t for t, _label, _result in ops]
    if ops:
        metrics["op_s"] = summary(op_times, "s")
        if ops[0][2].sim_cycles:
            metrics["sim_mcycles_per_s"] = summary(
                [r.sim_cycles / 1e6 / t for t, _label, r in ops],
                "Mcycles/s")
        if ops[0][2].queries:
            metrics["queries_per_s"] = summary(
                [r.queries / t for t, _label, r in ops], "queries/s")
    metrics["setup_s"] = summary(setup_times, "s")
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    metrics["failed_ops_ratio"] = {
        "value": loop.failed_ops / loop.attempted, "unit": "ratio"}

    definition = workload.definition()
    fingerprint = hashlib.sha256(json.dumps(
        {"workload": name, "definition": definition, "seconds": seconds,
         "setups": SETUPS, "traced": traced},
        sort_keys=True).encode()).hexdigest()
    record = {
        "schema_version": SCHEMA_VERSION,
        "workload": name,
        "seed": workload.seed,
        "pinned": workload.pinned,
        "seconds": seconds,
        "traced": traced,
        "definition": definition,
        "fingerprint": fingerprint,
        "stamp": {"commit": git_commit(ROOT),
                  "code_fingerprint": code_fingerprint(),
                  "python": platform.python_version(),
                  "nproc": nproc()},
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": loop.failed_ops,
        "failures": loop.failures,
        "metrics": metrics,
    }
    if traced and ops and traced_ops:
        op_s = metrics["op_s"]["value"]
        recorder.label = "probe"
        probes = {"engine.dispatch_ns_per_event":
                  layers.dispatch_ns_per_event(),
                  **workload.probes(op_s, loop.counts)}
        collected = recorder.gather()
        values = layers.per_layer(
            [m["name"] for m in bench["per_layer"]], collected, setup_labels,
            [label for _t, label, _r in traced_ops], loop.counts, op_s,
            summary([t for t, _label, _r in traced_ops], "s")["value"],
            probes)
        record["per_layer"] = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench["per_layer"]}
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace = spans.chrome_trace(collected, t_start, os.getpid(),
                                   {"workload": name, "seed": workload.seed})
        (trace_dir / f"{name}.trace.json").write_text(json.dumps(trace))
        (trace_dir / f"{name}.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    work_dir = WORK_DIR / f"tmp-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              args.trace_dir, work_dir, t_start)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
