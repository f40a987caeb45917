"""Wall-clock spans around calls into each layer's public functions.

The program under test carries no spans of its own, so the traced run
wraps the layer entry points listed in :data:`TARGETS` from outside:
``install`` replaces each one, wherever this checkout's modules hold a
reference to it, with a wrapper that records a span (name, start, end,
parent span, and the op it belongs to); ``uninstall`` puts the originals
back. Untraced runs never install anything.

Spans stay in memory. A worker process forked while spans are on (the
harness's pool and shard workers) starts with an empty buffer and appends
its spans to a spool file each time its outermost span closes; the run
gathers the spool files when it ends, so the trace shows what each worker
did.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name) of every wrapped layer entry point.
#: Span names start with the layer's module name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.graphgen", "HeapGraphBuilder.build",
     "workloads.graphgen_build"),
    ("repro.workloads.mutator", "MutatorModel.run", "workloads.base_run"),
    ("repro.workloads.latency", "QueryReplay.replay", "workloads.replay"),
    ("repro.harness.heapcache", "HeapBuildCache.get_or_build",
     "harness.heapcache"),
    ("repro.harness.simcache", "run_experiment", "harness.run_experiment"),
    ("repro.harness.parallel", "run_suite", "harness.run_suite"),
    ("repro.harness.sharding", "run_entry_sharded",
     "harness.run_entry_sharded"),
    ("repro.heap.heapimage", "ManagedHeap.restore", "heap.restore"),
    ("repro.swgc.marksweep", "SoftwareCollector.collect", "swgc.collect"),
    ("repro.core.unit", "GCUnit.mark", "core.mark"),
    ("repro.core.unit", "GCUnit.sweep", "core.sweep"),
    ("repro.core.unit", "GCUnit.mark_concurrent", "core.conc_mark"),
    ("repro.core.driver", "HWGCDriver.run_gc_safe", "core.run_gc_safe"),
    ("repro.fleet.report", "simulate_fleet", "fleet.simulate"),
    ("repro.fleet.admission", "schedule_fleet", "fleet.schedule"),
)


class SpanRecorder:
    """In-memory span buffer for this process and the workers it forks."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = spool_dir
        self.spans: List[Dict[str, Any]] = []
        self.stack: List[str] = []
        #: The set-up, op or probe running now; stamped on every span.
        self.label = ""
        self.owner = os.getpid()
        self._serial = 0
        self._installed: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans = []
        self.stack = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict may be renamed or annotated."""
        self._serial += 1
        pid = os.getpid()
        record = {"name": name, "id": f"{pid}.{self._serial}",
                  "parent": self.stack[-1] if self.stack else None,
                  "label": self.label, "pid": pid, "args": {}}
        self.stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(record)
            if not self.stack and pid != self.owner:
                self._spool()

    def _spool(self) -> None:
        path = self.spool_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
        self.spans = []

    def gather(self) -> List[Dict[str, Any]]:
        """This process's spans plus every worker's spooled spans."""
        spans = list(self.spans)
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            spans.extend(json.loads(line) for line in
                         path.read_text().splitlines())
        return spans

    # -- wrapping ----------------------------------------------------------

    def install(self, root: Path) -> None:
        """Wrap every target wherever a module of ``root`` refers to it."""
        if self._installed:
            return
        for module_name, attr_path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            holders = [owner] if outer else _modules_under(root)
            for holder in holders:
                if vars(holder).get(attr) is original:
                    setattr(holder, attr, wrapper)
                    self._installed.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder.span(name) as record:
                before = _annotate_before(name, args, kwargs, record)
                result = fn(*args, **kwargs)
                _annotate_after(name, args, before, record)
                return result

        return wrapper


def _modules_under(root: Path) -> List[Any]:
    """Loaded modules whose source lies in the checkout (src/ and bench/)."""
    root_text = str(root)
    return [m for m in list(sys.modules.values())
            if str(getattr(m, "__file__", "") or "").startswith(root_text)]


def _simulator(obj: Any):
    sim = getattr(obj, "sim", None)
    return sim if sim is not None else obj.heap.sim


#: Span names whose wrapper records simulator events processed inside.
_EVENT_SPANS = {"swgc.collect", "core.mark", "core.sweep", "core.conc_mark",
                "core.run_gc_safe"}


def _annotate_before(name: str, args, kwargs, record) -> Optional[int]:
    """Counts known at call time; returns what ``_annotate_after`` needs."""
    if name in _EVENT_SPANS:
        return _simulator(args[0]).events_processed
    if name == "harness.heapcache":
        return args[0].hits
    if name == "workloads.replay":
        arrivals = args[1] if len(args) > 1 else kwargs["arrivals"]
        record["args"]["queries"] = len(arrivals)
    elif name == "fleet.simulate":
        faults = kwargs.get("faults", args[3] if len(args) > 3 else None)
        record["name"] = "fleet.simulate.faulted" if faults else \
            "fleet.simulate.clean"
    elif name == "harness.run_experiment":
        record["args"]["exp_id"] = args[0]
    return None


def _annotate_after(name: str, args, before: Optional[int], record) -> None:
    if name in _EVENT_SPANS:
        record["args"]["events"] = \
            _simulator(args[0]).events_processed - before
    elif name == "harness.heapcache":
        record["name"] = ("harness.heapcache_hit" if args[0].hits > before
                          else "harness.heapcache_miss")


def chrome_trace(spans: List[Dict[str, Any]], t0: float, owner: int,
                 meta: Dict[str, Any]) -> Dict[str, Any]:
    """Chrome ``trace_event`` JSON, as Perfetto opens it: one track per
    process, one complete ("X") slice per span, timestamps in µs from
    ``t0``. ``owner`` is the benchmark's own process; the rest are
    workers."""
    events: List[Dict[str, Any]] = []
    for pid in sorted({s["pid"] for s in spans}):
        role = "benchmark" if pid == owner else "worker"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": f"{role} {pid}"}})
    for s in sorted(spans, key=lambda s: s["start"]):
        events.append({
            "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
            "ts": (s["start"] - t0) * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
            "pid": s["pid"], "tid": 0,
            "args": {"label": s["label"], "id": s["id"],
                     "parent": s["parent"], **s["args"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {k: str(v) for k, v in meta.items()}}
