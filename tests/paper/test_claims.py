"""The paper's published results, checked row by row.

Each figure's record in :data:`repro.harness.figures.FIGURES` carries its
claim rows: per row the kwargs the runner is run with, where the paper
states the result, its value there, and a predicate over the runner's
:class:`ExperimentResult`. A failing row means the model has drifted from
its only reference; report it rather than widening the band.

Each distinct (figure, kwargs) pair is simulated once per session. Rows of
simulated figures are ``slow``; the static models (fig22, abl_barriers)
take no kwargs and run in the quick tier.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.core.config import GCUnitConfig
from repro.harness.experiments import ExperimentResult, fig22
from repro.harness.figures import FIGURES


@lru_cache(maxsize=None)
def _simulate(figure: str, kwargs: tuple) -> ExperimentResult:
    # Straight to the runner, not run_experiment: the sim cache drops
    # ``extras`` (fig21's top-56 share lives there).
    return FIGURES[figure].runner(**dict(kwargs))


@pytest.mark.parametrize("exp_id,claim", [
    pytest.param(exp_id, claim, id=f"{exp_id}.{claim.name}",
                 marks=[pytest.mark.slow] if claim.kwargs else [])
    for exp_id, figure in FIGURES.items() for claim in figure.claims
])
def test_claim(exp_id, claim):
    result = _simulate(exp_id, tuple(sorted(claim.kwargs.items())))
    assert claim.holds(result), (
        f"{exp_id}.{claim.name}: out of the paper's regime ({claim.paper}, "
        f"{claim.section})\n{result.render()}")


def test_area_rows_reject_a_larger_mark_queue():
    """The fig22 bands are tight enough to fail: a 2048-entry mark queue
    makes the unit ~26% of Rocket with ~90 KB of SRAM."""
    bigger = fig22(config=replace(GCUnitConfig(), mark_queue_entries=2048))
    rows = {claim.name: claim for claim in FIGURES["fig22"].claims}
    assert not rows["unit_vs_rocket"].holds(bigger)
    assert not rows["sram_kb"].holds(bigger)


def test_every_figure_has_a_claim():
    # DESIGN.md §4's experiment index.
    for exp_id in ("fig01a", "fig01b", *(f"fig{n}" for n in range(15, 24))):
        assert FIGURES[exp_id].claims, exp_id
