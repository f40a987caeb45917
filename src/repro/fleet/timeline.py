"""Per-tenant GC pause timelines, derived from shared base runs.

Simulating a full :class:`~repro.workloads.mutator.MutatorModel` run per
tenant would multiply the fleet's cost by its size for no modeling gain:
two tenants running the same DaCapo profile at the same scale/seed have
statistically identical pause behavior. The fleet therefore keeps a
memoized *base-run library* — one simulated run per distinct
``(benchmark, collector, scale, seed, n_gcs)`` — and differentiates
tenants by a deterministic phase offset (staggered process start), which
is what actually matters to the admission queue: whether GC requests
collide in time.

Base runs and the heap digests after them are entries of the
``REPRO_SIM_CACHE`` store (kinds ``base-run`` and ``tenant-digest`` of
:mod:`repro.harness.diskcache`), so a second invocation against the same
cache simulates none of them. In-process they are memoized too, and never
mutated: tenant timelines are built from :func:`dataclasses.replace`
copies. The memo is per process: across a parallel ``run-all``'s
workers the store shares them, and the pool simulates each missing one
once, ahead of the cells that read it (:mod:`repro.harness.parallel`).
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Any, Callable, Dict, Iterable, Tuple

from repro.harness.diskcache import decode_json, encode_json, sim_store
from repro.harness.runners import build_heap
from repro.workloads.mutator import (
    GCPauseRecord,
    MutatorModel,
    MutatorRunResult,
)
from repro.workloads.profiles import DACAPO_PROFILES

_MEMO: Dict[Tuple[str, str, str, float, int, int], Any] = {}

#: ``(benchmark, collector, scale, seed, n_gcs)``: one base run.
BaseRunKey = Tuple[str, str, float, int, int]

BASE_RUN_KIND = "base-run"

#: How fleet code reads a base run: :func:`base_run` itself, or a figure
#: cell's :class:`BaseRuns`.
BaseRunReader = Callable[[str, str, float, int, int], MutatorRunResult]


def reset_base_cache() -> None:
    """Drop memoized base runs and heap digests (test isolation)."""
    _MEMO.clear()


def _stored(kind: str, finish: Callable[[MutatorModel, MutatorRunResult], Any],
            benchmark: str, collector: str, scale: float, seed: int,
            n_gcs: int, encode: Callable[[Any], bytes] = encode_json,
            decode: Callable[[bytes], Any] = decode_json) -> Any:
    """``finish(model, run)`` after ``n_gcs`` collections of one profile ×
    collector: memoized in-process, stored in ``REPRO_SIM_CACHE``."""
    memo_key = (kind, benchmark, collector, scale, seed, n_gcs)
    if memo_key not in _MEMO:
        def compute():
            built, _checkpoint = build_heap(DACAPO_PROFILES[benchmark],
                                            scale=scale, seed=seed)
            model = MutatorModel(built, collector=collector, seed=seed)
            return finish(model, model.run(n_gcs=n_gcs))

        _MEMO[memo_key], _hit = sim_store().get_or_compute(
            kind, _inputs(benchmark, collector, scale, seed, n_gcs),
            compute, encode, decode)
    return _MEMO[memo_key]


def _inputs(benchmark: str, collector: str, scale: float, seed: int,
            n_gcs: int) -> Dict[str, Any]:
    return {"benchmark": benchmark, "collector": collector,
            "scale": float(scale), "seed": seed, "n_gcs": n_gcs}


def base_run_stored(key: BaseRunKey) -> bool:
    """Whether ``key``'s base run is already an entry of the sim store."""
    return sim_store().has(BASE_RUN_KIND, _inputs(*key))


def _run_from_json(payload: Dict[str, Any]) -> MutatorRunResult:
    return MutatorRunResult(
        collector=payload["collector"],
        pauses=[GCPauseRecord(**pause) for pause in payload["pauses"]],
        mutator_cycles=payload["mutator_cycles"])


def base_run(benchmark: str, collector: str, scale: float, seed: int,
             n_gcs: int) -> MutatorRunResult:
    """The shared (memoized) mutator run for one profile × collector."""
    return _stored(BASE_RUN_KIND, lambda _model, run: run,
                   benchmark, collector, scale, seed, n_gcs,
                   encode=lambda run: encode_json(asdict(run)),
                   decode=lambda blob: _run_from_json(decode_json(blob)))


class BaseRuns:
    """The base runs one fleet cell may read, each loaded on first read.

    Called like :func:`base_run`. A read outside ``keys`` raises
    ``KeyError``: the list is what the worker pool simulates ahead of the
    cell, so a figure that read past it would quietly simulate again.
    """

    def __init__(self, keys: Iterable[BaseRunKey]):
        self.keys = frozenset(keys)

    def __call__(self, benchmark: str, collector: str, scale: float,
                 seed: int, n_gcs: int) -> MutatorRunResult:
        key = (benchmark, collector, scale, seed, n_gcs)
        if key not in self.keys:
            raise KeyError(f"base run {key} is not in the cell's list")
        return base_run(*key)


def tenant_heap_digest(benchmark: str, collector: str, scale: float,
                       seed: int, n_gcs: int) -> str:
    """Heap digest after ``n_gcs`` collections of one profile × collector.

    The fleet's heap-convergence oracle: heap evolution depends only on
    the mutator run (which collections happened, in order), never on
    *when* the admission queue scheduled them or whether a unit or the
    software fallback served them. A faulted fleet run therefore
    converges to the fault-free digest exactly when every surviving
    tenant's collections all actually ran — pass the count of served
    collections as ``n_gcs`` and a scheduler that dropped or duplicated
    one diverges here. Memoized and stored like :func:`base_run`.
    """
    from repro.heap.verify import heap_digest

    return _stored("tenant-digest",
                   lambda model, _run: heap_digest(model.heap),
                   benchmark, collector, scale, seed, n_gcs)


def tenant_timeline(base: MutatorRunResult,
                    phase_frac: float) -> MutatorRunResult:
    """A tenant's view of a base run: pauses shifted by a phase offset.

    The offset models a staggered process start — the tenant did
    ``offset`` extra cycles of mutator work before its first collection —
    so it is added to both every pause's ``start_cycle`` and the mutator
    total, keeping the timeline well-formed (monotone, non-overlapping,
    last pause inside ``total_cycles``). The offset spans up to a quarter
    of the mean inter-GC gap: enough to desynchronize same-profile
    tenants' admission requests, small enough to keep pause cadence.
    """
    if not 0.0 <= phase_frac < 1.0:
        raise ValueError(f"phase_frac must be in [0, 1): {phase_frac}")
    if not base.pauses:
        return replace(base)
    gap = base.total_cycles // (4 * len(base.pauses))
    offset = int(phase_frac * gap)
    return MutatorRunResult(
        collector=base.collector,
        pauses=[replace(p, start_cycle=p.start_cycle + offset)
                for p in base.pauses],
        mutator_cycles=base.mutator_cycles + offset,
    )
