"""Content-addressed simulation result cache (``REPRO_SIM_CACHE``).

``run-all`` re-simulates every figure from scratch on every invocation,
even when nothing that could change the output has changed. Simulation
outputs here are *deterministic functions* of their inputs — that is the
repo's central invariant, enforced by the digest gates — so they are
cacheable by content address: hash everything the output depends on, and
an unchanged cell is a disk read instead of a simulation.

A **cell** is the unit of caching. For a figure whose record in
:data:`repro.harness.figures.FIGURES` has a ``ShardSpec``, a cell is one
axis value (one benchmark of fig15, one queue size of fig19, ...): the
experiment is invoked once per value
(:func:`repro.harness.figures.cells`) and the per-cell results are
refolded with the figure's own merge — the identical merge the sharded runner
uses, so cache-cold, cache-warm, sharded, and inline runs all render the
same bytes, and a kwargs tweak or code change only re-simulates the cells
it actually invalidates. Non-shardable figures are cached whole-figure.

A cell is the ``cell`` kind of :mod:`repro.harness.diskcache`'s one
store, in the ``REPRO_SIM_CACHE`` directory; its inputs are the
experiment id and its **complete kwargs** (axis restricted to the cell's
value), and the store owns the rest: the code fingerprint in the key,
the envelope, atomic writes and the ``REPRO_SIM_CACHE_MAX_MB`` cap. Only
cells count toward a run's hit/miss accounting; the fleet's base-run
entries in the same directory do not.

The cache is also how an interrupted ``run-all`` resumes: every finished
cell is on disk the moment it completes, so rerunning against the same
``REPRO_SIM_CACHE`` serves those cells as hits and simulates only the
missing ones. Because the code fingerprint is in every key, a rerun after
a source edit recomputes instead of splicing in results from older code.

Cached cells carry rows only, never ``extras`` (those can hold heavy or
unpicklable simulation objects); the rendered report does not read
``extras``, so the report stays byte-identical. Rows survive the JSON
round-trip exactly: floats serialize via ``repr`` (shortest round-trip)
and numpy scalars are converted to the Python scalars they render as.

When ``REPRO_HWFAULTS`` is armed the cache is bypassed entirely
(:func:`repro.harness.diskcache.sim_store` says why).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

# ``code_fingerprint`` is re-exported: result files name the code by it.
from repro.harness.diskcache import (
    Store,
    code_fingerprint,
    decode_json,
    encode_json,
    jsonable,
    sim_store,
)

CELL_KIND = "cell"


@dataclass
class CellAccounting:
    """Hit/miss counts for one ``run_experiment`` call."""

    hits: int = 0
    misses: int = 0

    def as_tuple(self) -> Tuple[int, int]:
        return (self.hits, self.misses)


def cell_inputs(exp_id: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """What one cell's output depends on, besides the code."""
    return {"exp_id": exp_id, "kwargs": kwargs}


def _result_to_payload(result: Any) -> Dict[str, Any]:
    return {
        "exp_id": result.exp_id,
        "title": result.title,
        "paper_claim": result.paper_claim,
        "headers": jsonable(list(result.headers)),
        "rows": jsonable([list(row) for row in result.rows]),
        "notes": result.notes,
    }


def _result_from_payload(payload: Dict[str, Any]) -> Any:
    from repro.harness.experiments import ExperimentResult

    return ExperimentResult(
        exp_id=payload["exp_id"],
        title=payload["title"],
        paper_claim=payload["paper_claim"],
        headers=list(payload["headers"]),
        rows=[list(row) for row in payload["rows"]],
        notes=payload.get("notes", ""),
    )


def _cached_call(store: Store, exp_id: str, kwargs: Dict[str, Any],
                 acct: CellAccounting) -> Any:
    """One cell: serve from the store, or simulate and persist."""
    from repro.harness.figures import FIGURES

    result, hit = store.get_or_compute(
        CELL_KIND, cell_inputs(exp_id, kwargs),
        lambda: FIGURES[exp_id].runner(**kwargs),
        encode=lambda r: encode_json(_result_to_payload(r)),
        decode=lambda blob: _result_from_payload(decode_json(blob)))
    if hit:
        acct.hits += 1
    else:
        acct.misses += 1
    return result


def run_experiment(exp_id: str, kwargs: Dict[str, Any]
                   ) -> Tuple[Any, CellAccounting]:
    """Run one experiment through the cache; the harness's single entry.

    With the cache disabled this is a passthrough call to the experiment
    function (extras intact, zero overhead). With it enabled, shardable
    figures decompose into per-axis-value cells refolded by their
    ``ShardSpec`` merge; others are cached as one whole-figure cell.
    """
    from repro.harness.figures import FIGURES, cells

    acct = CellAccounting()
    store = sim_store()
    figure = FIGURES[exp_id]
    if store.directory is None:
        return figure.runner(**kwargs), acct
    parts = cells(exp_id, kwargs)
    if not parts:
        return _cached_call(store, exp_id, dict(kwargs), acct), acct
    return figure.shard.merge([_cached_call(store, exp_id, cell_kwargs, acct)
                               for _value, cell_kwargs in parts]), acct
