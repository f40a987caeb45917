"""The full figure suite: which experiments to run, at which scales.

:data:`SUITE` lists each figure of :data:`repro.harness.figures.FIGURES`
with the kwargs ``run-all`` runs it at; the parallel runner
(:mod:`repro.harness.parallel`) and the ``python -m repro run-all`` CLI,
which regenerates EXPERIMENTS.md, consume it. Experiments are referenced
by id (resolved through ``FIGURES``) so suite entries stay picklable
across worker processes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.harness.figures import FIGURES

#: (experiment id, ``run-all`` kwargs) per figure, in report order; read
#: at call time by :func:`select`, so assigning ``SUITE[:]`` runs a subset.
SUITE: List[Tuple[str, Dict[str, Any]]] = [
    (exp_id, dict(figure.kwargs)) for exp_id, figure in FIGURES.items()]

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``python -m repro run-all``. Every section regenerates one
table/figure from *A Hardware Accelerator for Tracing Garbage Collection*
(ISCA 2018); "Paper:" lines quote the published claim.

Methodology: heaps are synthetic DaCapo-like object graphs (see
``repro.workloads``), run at a fraction (``scale``) of the paper's 200 MB
heaps; the reproduced quantities are unit-vs-CPU **ratios and curve
shapes**, which are stable across scale. Where a quantity is
scale-sensitive (noted inline), the direction and regime still match the
paper. Timing comes from the cycle-approximate simulation documented in
DESIGN.md; 1 cycle = 1 ns (1 GHz SoC clock, Table I).

Known deviations (and why):

* **fig19** — spilling is a larger *share* of memory requests here
  (~5-16% vs the paper's ~2%) because a scaled-down heap has a
  proportionally larger traversal frontier relative to the queue; the
  conclusions the paper draws (mark time insensitive to queue size,
  compression halves spill traffic) reproduce.
* **fig21** — our synthetic hot-object skew yields a top-56 access share
  of ~4-9% vs the paper's 10%, and correspondingly lower mark-bit-cache
  filter rates; shape (filtering grows with cache size, mark time barely
  moves) reproduces.
* **fig23** — the paper estimates 14.5% energy savings; our Micron-style
  model lands at ~20-40% depending on benchmark, with the same structure
  (unit DRAM power 2-3x higher, energy lower because pauses shrink more).
* **fig17** — the request cadence is denser than the paper's 8.66
  cycles/request because scaled heaps are TLB-friendlier; port utilization
  and the ~9x speedup match.

"""


@dataclass
class FigureRun:
    """The outcome of one suite entry, safe to pickle across processes."""

    index: int
    exp_id: str
    kwargs: Dict[str, Any]
    rendered: str
    elapsed: float
    #: sha256 of the rendered table — the per-figure determinism
    #: fingerprint compared across reruns and across ``--jobs`` settings
    #: (the tables embed every reported cycle count).
    digest: str = field(default="")
    #: ``"ok"`` or ``"failed"`` (retries exhausted; ``rendered`` is empty
    #: and the report carries an annotation instead of a table).
    status: str = "ok"
    #: how many attempts this entry consumed (1 for a clean first run).
    attempts: int = 1
    #: last error string for a failed entry (exit status / exception).
    error: Optional[str] = None
    #: per-attempt records ``{"attempt", "status", "elapsed", ...}`` kept
    #: out of ``digest`` so retried runs stay byte-identical to clean ones.
    attempt_history: List[Dict[str, Any]] = field(default_factory=list)
    #: sha256 of each cell's partial table, in axis order, when the
    #: entry ran as per-value cells (``shard_figures``; empty for an
    #: entry run whole). Forensic only: excluded from ``digest`` so
    #: sharded and unsharded runs of the same figure fingerprint
    #: identically.
    shard_digests: List[str] = field(default_factory=list)
    #: simulation-result-cache accounting for this entry (zero when
    #: ``REPRO_SIM_CACHE`` is unset). Forensic only, like
    #: ``shard_digests``: excluded from ``digest`` so cold and warm runs
    #: fingerprint identically.
    cache_hits: int = 0
    cache_misses: int = 0
    #: fleet base runs the worker pool simulated ahead of this entry's
    #: cells, each credited to the first entry that reads it (zero
    #: without the pre-phase). Forensic only, like ``cache_misses``,
    #: which counts cells and never base runs.
    base_runs_ahead: int = 0

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = hashlib.sha256(self.rendered.encode()).hexdigest()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def select(only: Optional[Sequence[str]] = None) -> List[Tuple[str, Dict[str, Any]]]:
    """The suite, optionally restricted to a subset of experiment ids.

    An empty or fully-unknown selection raises rather than silently
    running nothing (``run-all --only typo`` used to exit 0 with an empty
    report); the error lists the valid ids.
    """
    valid = [exp_id for exp_id, _ in SUITE]
    if only is None:
        return list(SUITE)
    wanted = set(only)
    unknown = wanted - set(valid)
    if unknown:
        raise KeyError(f"unknown experiment ids: {sorted(unknown)}; "
                       f"valid ids: {', '.join(valid)}")
    selected = [(exp_id, kwargs) for exp_id, kwargs in SUITE
                if exp_id in wanted]
    if not selected:
        raise KeyError("empty experiment selection; "
                       f"valid ids: {', '.join(valid)}")
    return selected


def run_entry(index: int, exp_id: str, kwargs: Dict[str, Any]) -> FigureRun:
    """Run one suite entry; the unit of work the parallel runner fans out.

    Routes through the content-addressed simulation cache
    (:mod:`repro.harness.simcache`): with ``REPRO_SIM_CACHE`` unset that is
    a zero-overhead passthrough to the experiment function; with it set,
    unchanged cells come from disk instead of simulation.
    """
    from repro.harness.simcache import run_experiment

    t0 = time.time()
    result, accounting = run_experiment(exp_id, kwargs)
    return FigureRun(
        index=index,
        exp_id=exp_id,
        kwargs=dict(kwargs),
        rendered=result.render(),
        elapsed=time.time() - t0,
        cache_hits=accounting.hits,
        cache_misses=accounting.misses,
    )


def render_report(runs: Sequence[FigureRun]) -> str:
    """Assemble the EXPERIMENTS.md document from completed runs.

    Output depends only on run order and rendered tables, never on timing,
    so ``--jobs 1`` and ``--jobs N`` produce byte-identical documents
    modulo the per-figure elapsed annotations — which are deliberately
    rounded and excluded from the determinism digests.
    """
    from repro.harness.reporting import render_failure

    sections = [HEADER]
    for run in sorted(runs, key=lambda r: r.index):
        if not run.ok:
            sections.append(render_failure(run))
            sections.append("")
            continue
        sections.append(run.rendered)
        args = ", ".join(f"{k}={v}" for k, v in run.kwargs.items())
        sections.append(f"\n*({args or 'static model'}; "
                        f"regenerated in {run.elapsed:.0f}s)*\n")
    return "\n".join(sections)
