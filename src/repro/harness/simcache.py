"""Content-addressed simulation result cache (``REPRO_SIM_CACHE``).

``run-all`` re-simulates every figure from scratch on every invocation,
even when nothing that could change the output has changed. Simulation
outputs here are *deterministic functions* of their inputs — that is the
repo's central invariant, enforced by the digest gates — so they are
cacheable by content address: hash everything the output depends on, and
an unchanged cell is a disk read instead of a simulation.

A **cell** is the unit of caching. For figures registered in
:data:`repro.harness.sharding.SHARDABLE`, a cell is one axis value (one
benchmark of fig15, one queue size of fig19, ...): the experiment is
invoked once per value and the per-cell results are refolded with the
figure's own ``ShardSpec`` merge — the identical merge the sharded runner
uses, so cache-cold, cache-warm, sharded, and inline runs all render the
same bytes, and a kwargs tweak or code change only re-simulates the cells
it actually invalidates. Non-shardable figures are cached whole-figure.

The cell key covers, via sha256 over canonical JSON:

* the experiment id and its **complete kwargs** (axis restricted to the
  cell's value);
* a **code fingerprint**: sha256 over every ``src/repro/**/*.py`` file's
  path and contents. Any source change invalidates the whole cache —
  deliberately coarse: simulation results routinely depend on distant
  modules (config defaults, kernel internals), and a stale hit that
  silently masks a code change would corrupt the determinism story the
  digests exist to protect.

Entries reuse :mod:`repro.harness.checkpoint`'s envelope — schema version
plus an embedded sha256 over the payload JSON — so truncation, bit-rot, or
hand-editing surfaces as :class:`~repro.harness.checkpoint.CheckpointCorrupt`
and the cell is transparently re-simulated and overwritten. Writes are
atomic (tmp + rename) and the directory is LRU-capped by
``REPRO_SIM_CACHE_MAX_MB`` (:mod:`repro.harness.diskcache`).

Cached cells carry rows only, never ``extras`` (those can hold heavy or
unpicklable simulation objects); the rendered report does not read
``extras``, so the report stays byte-identical. Rows survive the JSON
round-trip exactly: floats serialize via ``repr`` (shortest round-trip)
and numpy scalars are converted to the Python scalars they render as.

When ``REPRO_HWFAULTS`` is armed the cache is bypassed entirely — fault
injection changes outputs without changing any key component, so serving
or storing under an armed plane would poison the address space.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.checkpoint import (
    CheckpointCorrupt,
    atomic_write_text,
    unwrap_payload,
    wrap_payload,
)
from repro.harness.diskcache import evict_lru, max_mb_from_env, touch

#: Bump when the cell payload layout changes; old entries then miss.
CELL_SCHEMA = 1

CELL_SUFFIX = ".cell.json"


@dataclass
class CellAccounting:
    """Hit/miss counts for one ``run_experiment`` call."""

    hits: int = 0
    misses: int = 0

    def as_tuple(self) -> Tuple[int, int]:
        return (self.hits, self.misses)


def cache_dir_from_env() -> Optional[Path]:
    """The configured cache directory, or ``None`` when disabled.

    ``REPRO_SIM_CACHE``: empty/``0``/``off``/``no`` disables; ``1`` means
    ``~/.cache/repro-simcache``; anything else is used as the directory.
    An armed ``REPRO_HWFAULTS`` plane disables the cache outright (see
    module docstring).
    """
    if os.environ.get("REPRO_HWFAULTS"):
        return None
    raw = os.environ.get("REPRO_SIM_CACHE", "")
    if raw in ("", "0", "off", "no"):
        return None
    if raw == "1":
        return Path.home() / ".cache" / "repro-simcache"
    return Path(raw)


_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """sha256 over every ``src/repro`` Python source, memoized per process.

    The coarse invalidation knob: touching any source file retires every
    cached cell. Hashing ~150 small files costs single-digit milliseconds
    and runs once per process.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent
        sha = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            sha.update(str(path.relative_to(root)).encode())
            sha.update(b"\0")
            sha.update(path.read_bytes())
            sha.update(b"\0")
        _CODE_FINGERPRINT = sha.hexdigest()
    return _CODE_FINGERPRINT


def reset_code_fingerprint() -> None:
    """Drop the memoized fingerprint (tests that edit sources on disk)."""
    global _CODE_FINGERPRINT
    _CODE_FINGERPRINT = None


def _jsonable(value: Any) -> Any:
    """Project a value to plain JSON types, exactly round-trippable.

    Tuples become lists (so a tuple-vs-list axis spelling keys the same
    cell), numpy scalars become the Python scalars they format as, and
    dataclass kwargs (e.g. a ``MemorySystemConfig``) project to sorted
    field dicts.
    """
    import numpy as np

    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__,
                **{f.name: _jsonable(getattr(value, f.name))
                   for f in dataclasses.fields(value)}}
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _dumps(payload: Any) -> str:
    return json.dumps(payload, ensure_ascii=False, sort_keys=True,
                      allow_nan=True)


def cell_key(exp_id: str, kwargs: Dict[str, Any]) -> str:
    """The content address of one cell: inputs + code."""
    payload = _dumps({
        "schema": CELL_SCHEMA,
        "exp_id": exp_id,
        "kwargs": _jsonable(kwargs),
        "code": code_fingerprint(),
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _result_to_payload(result: Any) -> Dict[str, Any]:
    return {
        "exp_id": result.exp_id,
        "title": result.title,
        "paper_claim": result.paper_claim,
        "headers": _jsonable(list(result.headers)),
        "rows": _jsonable([list(row) for row in result.rows]),
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


def _cached_call(cache_dir: Path, exp_id: str, kwargs: Dict[str, Any],
                 acct: CellAccounting) -> Any:
    """One cell: serve from disk, or simulate and persist."""
    from repro.harness.experiments import ALL_EXPERIMENTS

    path = cache_dir / f"{cell_key(exp_id, kwargs)}{CELL_SUFFIX}"
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        text = None
    if text is not None:
        try:
            payload = unwrap_payload(text, path)
            result = _result_from_payload(payload)
        except (CheckpointCorrupt, KeyError, TypeError, ValueError):
            # Torn/rotted/hand-edited entry: fall through and re-simulate;
            # the fresh write below overwrites it.
            pass
        else:
            touch(path)
            acct.hits += 1
            return result

    result = ALL_EXPERIMENTS[exp_id](**kwargs)
    acct.misses += 1
    try:
        atomic_write_text(path, wrap_payload(_result_to_payload(result)))
    except OSError:
        # The cache is an optimization; never let disk trouble fail a run.
        return result
    evict_lru(cache_dir, max_mb_from_env("REPRO_SIM_CACHE_MAX_MB"),
              suffix=CELL_SUFFIX)
    return result


def run_experiment(exp_id: str, kwargs: Dict[str, Any]
                   ) -> Tuple[Any, CellAccounting]:
    """Run one experiment through the cache; the harness's single entry.

    With the cache disabled this is a passthrough call to the experiment
    function (extras intact, zero overhead). With it enabled, shardable
    figures decompose into per-axis-value cells refolded by their
    ``ShardSpec`` merge; others are cached as one whole-figure cell.
    """
    from repro.harness.experiments import ALL_EXPERIMENTS

    acct = CellAccounting()
    cache_dir = cache_dir_from_env()
    if cache_dir is None:
        return ALL_EXPERIMENTS[exp_id](**kwargs), acct

    from repro.harness.sharding import SHARDABLE, axis_values

    spec = SHARDABLE.get(exp_id)
    values = axis_values(exp_id, kwargs)
    if spec is None or not values:
        return _cached_call(cache_dir, exp_id, dict(kwargs), acct), acct

    cells: List[Any] = []
    for value in values:
        cell_kwargs = dict(kwargs)
        cell_kwargs[spec.axis] = [value]
        cells.append(_cached_call(cache_dir, exp_id, cell_kwargs, acct))
    return spec.merge(cells), acct
