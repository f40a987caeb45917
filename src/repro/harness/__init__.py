"""Experiment harness: one runner per figure in the paper's evaluation.

Every function in :mod:`repro.harness.experiments` regenerates one
table/figure of the paper (see DESIGN.md's experiment index), and
:data:`repro.harness.figures.FIGURES` holds one record per figure: its
runner, suite kwargs, sharding, fleet base-run reads and the claim rows
``tests/paper/test_claims.py`` checks against the paper's numbers.
``EXPERIMENTS.md`` records paper-vs-measured for each.
"""

from repro.harness.runners import (
    GCComparison,
    build_heap,
    run_gc_comparison,
    run_hardware,
    run_software,
)
from repro.harness import experiments
from repro.harness.reporting import render_table, render_series

__all__ = [
    "GCComparison",
    "build_heap",
    "run_software",
    "run_hardware",
    "run_gc_comparison",
    "experiments",
    "render_table",
    "render_series",
]
