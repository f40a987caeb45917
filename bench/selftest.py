#!/usr/bin/env python3
"""Self-checks of the benchmark: its definition, its gate and ``--compare``.

    python3 bench/selftest.py          # about 15 s
    python3 bench/selftest.py --slow   # adds a one-op run of every workload

Checks that BENCHMARK.json is well formed and agrees with the workload and
per-layer catalogues in this directory, that a wrong output fails its op
and the command's exit status, that ``--compare`` gives the verdicts its
rules promise on synthetic runs, and that a short run of ``stw_avrora``
(with ``--slow``, of every workload) passes end to end. Prints each failed
check and exits 1 if there was any.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import time
from typing import Dict, List

from common import (BENCH_DIR, ROOT, SRC, WORK_DIR, end_to_end_defs,
                    load_benchmark, quartiles)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def schema_problems(bench: Dict, workload_names, moves: Dict) -> List[str]:
    """Every way ``bench`` breaks the benchmark definition's rules."""
    problems: List[str] = []

    def need(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    need(set(bench) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"},
         f"top-level keys are {sorted(bench)}")
    command, paths = bench.get("command", []), bench.get("paths", [])
    need(isinstance(command, list) and 1 <= len(command) <= 32
         and all(isinstance(c, str) and len(c) <= 200 for c in command),
         "command must be 1-32 strings of at most 200 characters")
    need(isinstance(paths, list) and 1 <= len(paths) <= 16,
         "paths must list 1-16 directories")
    for item in list(command) + list(paths):
        need(not item.startswith("/") and ".." not in item.split("/"),
             f"{item!r} leaves the repository")
    for path in paths:
        need(bool(PATH.fullmatch(path)), f"bad path {path!r}")
    run_seconds = bench.get("run_seconds")
    need(isinstance(run_seconds, int) and 1 <= run_seconds <= 60,
         "run_seconds must be a whole number from 1 to 60")

    sections = {"workloads": ({"name", "why"}, 2, 8),
                "end_to_end": ({"name", "unit", "better", "bound"}, 1, 16),
                "per_layer": ({"name", "unit", "better"}, 1, 128)}
    seen = set()
    for section, (keys, low, high) in sections.items():
        entries = bench.get(section, [])
        need(low <= len(entries) <= high,
             f"{section} must hold {low}-{high} entries, not {len(entries)}")
        for entry in entries:
            name = entry.get("name", "")
            need(set(entry) == keys, f"{section} {name!r} keys are "
                                     f"{sorted(entry)}, not {sorted(keys)}")
            need(bool(NAME.fullmatch(name)), f"bad name {name!r}")
            need(name not in seen, f"name {name!r} used twice")
            seen.add(name)
            if "unit" in keys:
                need(bool(UNIT.fullmatch(entry.get("unit", ""))),
                     f"{name}: bad unit {entry.get('unit')!r}")
                need(entry.get("better") in ("higher", "lower"),
                     f"{name}: better must be higher or lower")
            if "bound" in keys:
                need(0 <= entry.get("bound", -1) <= 0.25,
                     f"{name}: bound must be within 0-0.25")
            if "why" in keys:
                why = entry.get("why", "")
                need(0 < len(why) <= 200 and "\n" not in why,
                     f"{name}: why must be one line of at most 200 letters")

    e2e = {m["name"]: m for m in bench.get("end_to_end", [])}
    setup = e2e.get("setup_s", {})
    need(setup.get("unit") == "s" and setup.get("better") == "lower",
         "setup_s must be an end-to-end metric in s, lower is better")
    need(setup.get("bound", 0) >= max(m["bound"] for m in e2e.values()),
         "setup_s must have the largest bound")

    listed = [w["name"] for w in bench.get("workloads", [])]
    need(sorted(listed) == sorted(workload_names),
         f"workloads {listed} differ from the code's {sorted(workload_names)}")
    layer_names = [m["name"] for m in bench.get("per_layer", [])]
    need(sorted(layer_names) == sorted(moves),
         "per-layer metrics differ from layers.MOVES: "
         f"{sorted(set(layer_names) ^ set(moves))}")
    known_e2e = end_to_end_defs(bench)
    for name, (target, on) in moves.items():
        need(target in known_e2e,
             f"{name} moves unknown end-to-end metric {target!r}")
        need(bool(on) and set(on) <= set(listed),
             f"{name} names unknown workloads {sorted(set(on) - set(listed))}")
    return problems


def check_schema(bench: Dict) -> List[str]:
    import layers
    import workloads

    problems = schema_problems(bench, list(workloads.WORKLOADS),
                               layers.MOVES)
    # The checker itself must catch a broken definition.
    broken = json.loads(json.dumps(bench))
    broken["per_layer"][0]["name"] = "bad name!"
    broken["end_to_end"][0]["bound"] = 0.5
    if len(schema_problems(broken, list(workloads.WORKLOADS),
                           layers.MOVES)) < 2:
        problems.append("schema check missed a bad name or bound")
    return problems


def check_gate() -> List[str]:
    """A wrong pin must fail the op and the exit status, naming the field."""
    import child
    import run
    import workloads

    pins = workloads.StwAvrora.pins[workloads.StwAvrora.pinned_seed]
    saved = dict(pins)
    pins["hw_mark_cycles"] += 1
    work = WORK_DIR / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record = child.run_workload("stw_avrora", None, 0.1, None, work,
                                    time.perf_counter())
    finally:
        pins.clear()
        pins.update(saved)
        shutil.rmtree(work, ignore_errors=True)
    problems = []
    fields = [f["field"] for f in record["failures"]]
    if record["failed"] != 1 or record["correct"] or \
            fields != ["hw_mark_cycles"]:
        problems.append(f"a wrong pin gave failed={record['failed']}, "
                        f"fields={fields}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = run.report_failures([record])
    if status == 0 or "hw_mark_cycles" not in err.getvalue() \
            or "stw_avrora op 0" not in err.getvalue():
        problems.append(f"a failed op gave exit status {status} and "
                        f"message {err.getvalue()!r}")
    return problems


def _record(workload: str, values, fingerprint: str = "f",
            failed_ratio: float = 0.0) -> Dict:
    """A synthetic result record with one ``op_s`` sample per value."""
    p25, median, p75 = quartiles(values)
    return {"workload": workload, "fingerprint": fingerprint,
            "metrics": {"op_s": {"value": median, "unit": "s", "p25": p25,
                                 "p75": p75, "samples": list(values)},
                        "failed_ops_ratio": {"value": failed_ratio,
                                             "unit": "ratio"}}}


def check_compare(bench: Dict) -> List[str]:
    from compare import CompareError, Side, compare, verdict

    problems = []

    def expect(want: str, base, new, better="lower", bound=0.1, pairs=()):
        got = verdict(base, new, better, bound, pairs)
        if got != want:
            problems.append(f"verdict {got!r}, expected {want!r} for "
                            f"{base} -> {new}")

    tight = Side(1.0, 0.99, 1.01, [0.99, 1.0, 1.01])
    expect("unchanged", tight, Side(1.02, 1.01, 1.03, [1.01, 1.02, 1.03]))
    expect("regressed", tight, Side(1.2, 1.19, 1.21, [1.19, 1.2, 1.21]))
    expect("improved", tight, Side(1.2, 1.19, 1.21, [1.19, 1.2, 1.21]),
           better="higher")
    wide = Side(1.0, 0.7, 1.3, [0.6, 1.0, 1.5])
    expect("unresolved", wide, Side(1.2, 0.9, 1.5, [0.8, 1.2, 1.6]))
    expect("unresolved", wide, Side(1.02, 0.7, 1.3, [0.6, 1.02, 1.5]))
    base10 = [1.0 + 0.01 * i for i in range(10)]
    new10 = [v * 0.9 for v in base10]
    expect("improved", Side(1.045, 1.02, 1.07, base10),
           Side(0.94, 0.92, 0.96, new10), pairs=list(zip(base10, new10)))
    mixed = [v * (0.9 if i % 3 else 1.1) for i, v in enumerate(base10)]
    expect("unchanged", Side(1.045, 1.02, 1.07, base10),
           Side(0.96, 0.93, 1.0, mixed), pairs=list(zip(base10, mixed)))
    expect("regressed", Side(0.0, 0.0, 0.0, [0.0]),
           Side(0.1, 0.1, 0.1, [0.1]), bound=0.0)

    work = WORK_DIR / "selftest-compare"
    work.mkdir(parents=True, exist_ok=True)

    def write(name: str, records) -> str:
        path = work / name
        path.write_text(json.dumps({"runs": records}))
        return str(path)

    base = write("base.json", [_record("stw_avrora", [2.0, 2.01, 2.02])])
    cases = [
        ("same runs", write("same.json",
                            [_record("stw_avrora", [2.0, 2.01, 2.02])]), 0),
        ("slower", write("slow.json",
                         [_record("stw_avrora", [3.0, 3.01, 3.02])]), 1),
        ("failed op", write("fail.json",
                            [_record("stw_avrora", [2.0, 2.01, 2.02],
                                     failed_ratio=0.25)]), 1),
    ]
    try:
        for label, new, want in cases:
            with contextlib.redirect_stdout(io.StringIO()):
                status = compare(base, new, bench)
            if status != want:
                problems.append(f"--compare on {label}: exit {status}, "
                                f"expected {want}")
        other = write("other.json", [_record("stw_avrora", [2.0], "g")])
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                compare(base, other, bench)
            problems.append("--compare accepted different fingerprints")
        except CompareError:
            pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def check_smoke(names: List[str]) -> List[str]:
    """Each workload passes a one-op run and prints the result line."""
    problems = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seconds", "0.1"], cwd=ROOT, capture_output=True, text=True,
            timeout=180)
        try:
            line = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            line = {}
        if proc.returncode != 0 or set(line) != {
                "correct", "attempted", "failed", "metrics"} \
                or not line["correct"]:
            problems.append(f"{name}: exit {proc.returncode}, "
                            f"stderr {proc.stderr[-500:]!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slow", action="store_true",
                        help="also run one op of every other workload")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    bench = load_benchmark()
    smoke = [w["name"] for w in bench["workloads"]] if args.slow \
        else ["stw_avrora"]
    checks = [("schema", lambda: check_schema(bench)),
              ("gate", check_gate),
              ("compare", lambda: check_compare(bench)),
              ("smoke", lambda: check_smoke(smoke))]
    failed = 0
    for label, check in checks:
        problems = check()
        print(f"{label}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
