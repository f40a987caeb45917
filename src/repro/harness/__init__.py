"""Experiment harness: one runner per figure in the paper's evaluation.

Every function in :mod:`repro.harness.experiments` regenerates one
table/figure of the paper (see DESIGN.md's experiment index); the claims
table in ``tests/paper/test_claims.py`` checks their results against the
paper's numbers, and ``EXPERIMENTS.md`` records paper-vs-measured for
each.
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
