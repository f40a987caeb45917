"""``--compare``: judge two sets of runs metric by metric against the bounds.

Each side is a result file written by ``run.py --out``, optionally
narrowed to one invocation with ``PATH#N``. For every workload on both
sides and every end-to-end metric, each side is summarised as median, p25
and p75: over its runs' values when it has two or more runs, and over the
single run's own per-op samples otherwise. The verdict is one of:

* ``regressed`` — the new median is worse than the base median by more
  than the metric's bound (for a bound of 0, such as ``failed_ops_ratio``,
  by anything at all), unless that is unresolved;
* ``unresolved`` — the spread (p75 - p25 over the median, on either side)
  is wider than the bound and the two sides' values overlap, so the runs
  cannot tell a change from noise;
* ``improved`` — with at least ten paired runs, the new side wins at least
  nine in ten pairs (ties count for neither) and the medians differ by more
  than the base side's p75 - p25; with fewer, every new value beats every
  base value and the medians differ by more than the bound;
* ``unchanged`` — everything else.

Runs of one workload must share its fingerprint (definition, seed, run
length, tracing) on both sides, or the comparison is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from common import end_to_end_defs, quartiles


class CompareError(Exception):
    """The two sides cannot be compared (unreadable, or not like for like)."""


@dataclass
class Side:
    median: float
    p25: float
    p75: float
    values: List[float]

    @property
    def spread(self) -> float:
        return (self.p75 - self.p25) / abs(self.median) if self.median else 0.0


def load_runs(spec: str) -> List[Dict]:
    """Records of ``PATH`` or, for ``PATH#N``, of its N-th invocation."""
    path, _, invocation = spec.partition("#")
    try:
        runs = json.loads(Path(path).read_text())["runs"]
    except (OSError, ValueError, KeyError) as exc:
        raise CompareError(f"cannot read runs from {path}: {exc}") from exc
    if invocation:
        runs = [r for r in runs if str(r.get("invocation")) == invocation]
        if not runs:
            raise CompareError(f"{path} holds no invocation {invocation}")
    return runs


def side(records: Sequence[Dict], metric: str) -> Side:
    """One side of one metric, or KeyError if its runs do not report it."""
    entries = [r["metrics"][metric] for r in records]
    if len(entries) == 1:
        entry = entries[0]
        values = entry.get("samples") or [entry["value"]]
        return Side(entry["value"], entry.get("p25", entry["value"]),
                    entry.get("p75", entry["value"]), values)
    values = [e["value"] for e in entries]
    p25, median, p75 = quartiles(values)
    return Side(median, p25, p75, values)


def verdict(base: Side, new: Side, better: str, bound: float,
            pairs: Sequence[Tuple[float, float]] = ()) -> str:
    """The verdict for one metric; ``pairs`` are (base, new) run values."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(b: float, n: float) -> float:
        return sign * (b - n)  # positive when the new value is better

    scale = abs(base.median) or 1.0
    worse_by = -gain(base.median, new.median) / scale
    if bound == 0.0:
        if worse_by > 0:
            return "regressed"
        return "improved" if worse_by < 0 else "unchanged"
    overlap = (min(new.values) <= max(base.values)
               and min(base.values) <= max(new.values))
    unresolved = max(base.spread, new.spread) > bound and overlap
    if worse_by > bound:
        return "unresolved" if unresolved else "regressed"
    if len(pairs) >= 10:
        wins = sum(1 for b, n in pairs if gain(b, n) > 0)
        if (wins >= 0.9 * len(pairs)
                and abs(new.median - base.median) > base.p75 - base.p25):
            return "improved"
    elif (all(gain(b, n) > 0 for b in base.values for n in new.values)
          and -worse_by > bound):
        return "improved"
    return "unresolved" if unresolved else "unchanged"


def compare(base_spec: str, new_spec: str, bench: Dict) -> int:
    """Print the comparison; 1 on any regression, else 0."""
    base_runs, new_runs = load_runs(base_spec), load_runs(new_spec)
    defs = end_to_end_defs(bench)
    regressed = False
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        base = [r for r in base_runs if r["workload"] == workload]
        new = [r for r in new_runs if r["workload"] == workload]
        if not base or not new:
            if base or new:
                print(f"{workload}: only in the "
                      f"{'base' if base else 'new'} runs; not compared")
            continue
        prints = {r["fingerprint"] for r in base + new}
        if len(prints) != 1:
            raise CompareError(
                f"{workload}: runs have different workload fingerprints "
                f"({', '.join(sorted(p[:12] for p in prints))}); compare "
                "only runs of the same definition, seed and run length")
        print(f"{workload}: {len(base)} base run(s), {len(new)} new run(s)")
        print(f"  {'metric':20s} {'base median [p25, p75]':>32s} "
              f"{'new median [p25, p75]':>32s}  verdict")
        for name, spec in defs.items():
            try:
                b, n = side(base, name), side(new, name)
            except KeyError:
                continue
            pairs = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                     for x, y in zip(base, new)]
            result = verdict(b, n, spec["better"], spec["bound"], pairs)
            regressed |= result == "regressed"
            print(f"  {name:20s} {_fmt(b):>32s} {_fmt(n):>32s}  {result}"
                  f"  ({spec['unit']}, bound {spec['bound']:.0%})")
    return 1 if regressed else 0


def _fmt(s: Side) -> str:
    return f"{s.median:.4g} [{s.p25:.4g}, {s.p75:.4g}]"
