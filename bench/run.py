#!/usr/bin/env python3
"""The benchmark: run workloads, check every op, print every metric.

    python3 bench/run.py [--out R.json] [--seed S] [--seconds N]
                         [--trace 0|1|DIR] [WORKLOAD ...]
    python3 bench/run.py --workload NAME --seed S --seconds N --trace 0|1
    python3 bench/run.py --compare BASE.json[#N] NEW.json[#N]

Each workload runs in its own fresh Python process (``child.py``) as a
closed loop of back-to-back ops for ``--seconds`` (default: BENCHMARK.json's
``run_seconds``). Without ``--seed`` each workload uses its pinned seed and
every op is checked against pinned outputs. Without workloads, all of
BENCHMARK.json's run, one after another.

The tables go to stdout; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace`` the per-layer ones (prefixed with the
workload's name when several run). ``--trace 1`` writes the Chrome trace
and the full record of each workload under ``.bench_run/trace/``;
``--trace DIR`` writes them to DIR. ``--out`` appends the result records
to a JSON file, numbering each invocation, for ``--compare``.

Exit status: 0 when every op passed its checks, 1 when any failed (each
failure is named on stderr) or a workload process died, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from common import (BENCH_DIR, ROOT, SCHEMA_VERSION, SRC, WORK_DIR,
                    end_to_end_defs, load_benchmark)

#: The whole command must end within 180 s; a workload process gets this
#: long before it is killed with every process it started.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A workload could not be run to a result."""


def trace_dir(value: str) -> Optional[Path]:
    if value == "0":
        return None
    if value == "1":
        return WORK_DIR / "trace"
    return Path(value).resolve()


def run_workload(name: str, seed: Optional[int], seconds: float,
                 trace: Optional[Path]) -> Dict:
    """Run one workload in a fresh process; returns its result record."""
    result = WORK_DIR / f"result-{os.getpid()}-{name}.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", name,
           "--seconds", str(seconds), "--result", str(result)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace is not None:
        cmd += ["--trace-dir", str(trace)]
    # The workload sees none of the caller's REPRO_* settings: kernels,
    # caches and fault plans are part of the workload definition.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        status = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: no result within {CHILD_TIMEOUT_S}s")
    finally:
        # Stop the workload and any worker it left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if status != 0:
        raise BenchError(f"{name}: workload process exited with status "
                         f"{status}")
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink()


def print_record(record: Dict, bench: Dict) -> None:
    metrics = record["metrics"]
    n = metrics["op_s"]["n"] if "op_s" in metrics else 0
    print(f"{record['workload']}: seed {record['seed']}"
          f"{' (pinned)' if record['pinned'] else ''}, {record['attempted']}"
          f" ops attempted, {n} timed, {record['failed']} failed, "
          f"fingerprint {record['fingerprint'][:12]}")
    for name, spec in end_to_end_defs(bench).items():
        if name not in metrics:
            continue
        entry = metrics[name]
        spread = (f"  p25 {entry['p25']:.6g}  p75 {entry['p75']:.6g}  "
                  f"n {entry['n']}" if "p25" in entry else "")
        print(f"  {name:28s} {entry['value']:>14.6g} {spec['unit']:10s}"
              f"{spread}")
    for name, entry in record.get("per_layer", {}).items():
        print(f"  {name:40s} {entry['value']:>14.6g} {entry['unit']}")


def result_line(records: List[Dict], bench: Dict, traced: bool) -> Dict:
    """The summary line: the listed metrics of every record."""
    section = "per_layer" if traced else "end_to_end"
    names = [m["name"] for m in bench[section]]
    metrics = {}
    for record in records:
        source = record.get("per_layer" if traced else "metrics", {})
        missing = [name for name in names if name not in source]
        if missing:
            raise BenchError(f"{record['workload']}: no value for "
                             f"{', '.join(missing)}")
        for name in names:
            key = name if len(records) == 1 else \
                f"{record['workload']}.{name}"
            metrics[key] = {"value": source[name]["value"],
                            "unit": source[name]["unit"]}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def append_records(path: Path, records: List[Dict]) -> None:
    """Append this invocation's records to ``path``, numbering it."""
    doc = {"schema_version": SCHEMA_VERSION, "runs": []}
    if path.exists():
        doc = json.loads(path.read_text())
    invocation = 1 + max((r.get("invocation", 0) for r in doc["runs"]),
                         default=0)
    for record in records:
        record["invocation"] = invocation
    doc["runs"].extend(records)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def report_failures(records: List[Dict]) -> int:
    """Name every failed check on stderr; 1 if there was any."""
    status = 0
    for record in records:
        for f in record["failures"]:
            status = 1
            print(f"FAILED {record['workload']} op {f['op']}: {f['field']} "
                  f"expected {f['expected']!r}, got {f['actual']!r}",
                  file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--workload", action="append", default=[],
                        help="a workload to run (repeatable)")
    parser.add_argument("--seed", type=int,
                        help="input seed for every workload "
                             "(default: each workload's pinned seed)")
    parser.add_argument("--seconds", type=float,
                        help="measured time per workload")
    parser.add_argument("--trace", default="0", metavar="0|1|DIR",
                        help="run with spans and report per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="append the result records to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result files and exit")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.compare:
        from compare import CompareError, compare

        try:
            return compare(*args.compare, bench)
        except CompareError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    valid = [w["name"] for w in bench["workloads"]]
    names = args.workloads + args.workload or valid
    unknown = [n for n in names if n not in valid]
    if unknown:
        print(f"error: unknown workload(s) {', '.join(unknown)}; valid: "
              f"{', '.join(valid)}", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else float(bench["run_seconds"])
    trace = trace_dir(args.trace)

    WORK_DIR.mkdir(exist_ok=True)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, seconds, trace)
            print_record(record, bench)
            records.append(record)
        line = result_line(records, bench, traced=trace is not None)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        append_records(args.out, records)
    status = report_failures(records)
    print(json.dumps(line))
    return status


if __name__ == "__main__":
    sys.exit(main())
