"""Paths, the metric catalogue, and summary statistics shared by the
benchmark's parent (``run.py``), its per-workload child (``child.py``) and
``--compare``. Importing this module does not import ``repro``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

#: Version of the result record written by ``--out`` and read by
#: ``--compare``. Bump when a field changes meaning.
SCHEMA_VERSION = 1

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run leaves behind: result files, traces, temporary caches.
WORK_DIR = ROOT / ".bench_run"

#: Cold set-ups per run; ``setup_s`` reports their median.
SETUPS = 3

#: End-to-end metrics carried in the result record and judged by
#: ``--compare`` beyond BENCHMARK.json's ``end_to_end`` list. Each is
#: undefined on some workloads (no simulated cycles in the fleet replay,
#: no queries in a collection) or is 0 on a healthy run, and BENCHMARK.json
#: lists only metrics that every run reports non-zero.
EXTRA_METRICS: Dict[str, Dict] = {
    "sim_mcycles_per_s": {"unit": "Mcycles/s", "better": "higher",
                          "bound": 0.25},
    "queries_per_s": {"unit": "queries/s", "better": "higher",
                      "bound": 0.25},
    "failed_ops_ratio": {"unit": "ratio", "better": "lower", "bound": 0.0},
}


def load_benchmark() -> Dict:
    """The benchmark definition: workloads, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_defs(bench: Dict) -> Dict[str, Dict]:
    """Every end-to-end metric by name: BENCHMARK.json's, then the extras."""
    defs = {m["name"]: m for m in bench["end_to_end"]}
    for name, spec in EXTRA_METRICS.items():
        defs.setdefault(name, {"name": name, **spec})
    return defs


def quartiles(values: Sequence[float]) -> List[float]:
    """``[p25, median, p75]`` as ``statistics.quantiles(n=4)`` gives them.

    With fewer than two values every quartile is the value itself.
    """
    if not values:
        raise ValueError("no values to summarise")
    if len(values) < 2:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def summary(values: Sequence[float], unit: str) -> Dict:
    """A metric entry: median value with its quartiles, count and samples."""
    p25, median, p75 = quartiles(values)
    return {"value": median, "unit": unit, "p25": p25, "p75": p75,
            "n": len(values), "samples": [float(v) for v in values]}
