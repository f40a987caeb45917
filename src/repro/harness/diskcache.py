"""The one content-addressed store: every cached result, one discipline.

Simulation outputs are deterministic functions of their inputs — the
repo's central invariant, enforced by the digest gates — so every
expensive result is cached by content address through
:meth:`Store.get_or_compute`. One entry point serves four kinds:

* ``heap`` — a generated heap (:mod:`repro.harness.heapcache`), in the
  ``REPRO_HEAP_CACHE`` directory (its pickles differ per Python version);
* ``cell`` — one figure cell's rows (:mod:`repro.harness.simcache`);
* ``base-run`` and ``tenant-digest`` — a fleet mutator base run and the
  heap digest after it (:mod:`repro.fleet.timeline`);

the last three in the ``REPRO_SIM_CACHE`` directory (:func:`sim_store`).

The discipline, the same for every kind:

* the **key** is sha256 over canonical JSON of (kind, the inputs'
  :func:`jsonable` projection, :func:`code_fingerprint`). Any source
  change retires every entry — deliberately coarse: results routinely
  depend on distant modules, and a stale hit that masks a code change
  would corrupt the determinism story the digests exist to protect;
* the entry ``<key>.<kind>`` is the value's bytes behind a one-line
  **envelope** carrying a schema version and a sha256 over those bytes
  (:func:`wrap`/:func:`unwrap`), so truncation, bit-rot or hand-editing
  is detected; such an entry is computed again and overwritten;
* writes are tmp + ``os.replace``, so concurrent workers never observe a
  torn entry;
* each directory is a bounded **LRU**: with its ``*_MAX_MB`` cap set, the
  least-recently-used store entries of any kind (by mtime; hits
  ``os.utime``) are evicted after each write until the directory fits.
  In-flight ``.tmp`` files and foreign files are never touched;
* disk trouble is never fatal — a cache is an optimization, so IO errors
  degrade to "no cache". A malformed *setting* is different:
  :func:`max_mb_from_env` rejects it loudly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

#: Bump when the envelope layout changes; old entries then fail to unwrap
#: and are recomputed rather than misparsed.
ENVELOPE_SCHEMA = 2

#: ``<sha256 hex>.<kind>``: the only file names eviction may delete.
_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.[a-z][a-z-]*")

CAP_VARS = ("REPRO_SIM_CACHE_MAX_MB", "REPRO_HEAP_CACHE_MAX_MB")


def cache_dir_from_env(var: str, default_subdir: str) -> Optional[Path]:
    """A cache directory from ``var``, or ``None`` when disabled.

    Empty/``0``/``off``/``no`` disables; ``1`` means
    ``~/.cache/<default_subdir>``; anything else is used as the directory.
    """
    raw = os.environ.get(var, "")
    if raw in ("", "0", "off", "no"):
        return None
    if raw == "1":
        return Path.home() / ".cache" / default_subdir
    return Path(raw)


def max_mb_from_env(var: str) -> Optional[float]:
    """Parse a ``*_MAX_MB`` cap; unset or empty means no cap (``None``).

    Anything but a positive number raises :class:`ValueError` naming the
    variable and its value: a typo must not leave the cache unbounded.
    """
    raw = os.environ.get(var, "").strip()
    if not raw:
        return None
    try:
        cap = float(raw)
    except ValueError:
        cap = math.nan
    if not cap > 0:  # also rejects NaN
        raise ValueError(
            f"{var} must be a positive number of megabytes, got {raw!r}")
    return cap


_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """sha256 over every ``src/repro`` Python source, memoized per process.

    The coarse invalidation knob: touching any source file retires every
    store entry. Hashing ~150 small files costs single-digit milliseconds
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


def dumps(payload: Any) -> str:
    """Canonical JSON: sorted keys so an embedded sha256 is reproducible,
    and Python's NaN/Infinity dialect so such floats round-trip."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True,
                      allow_nan=True)


def jsonable(value: Any) -> Any:
    """Project a value to plain JSON types, exactly round-trippable.

    Tuples become lists (so a tuple-vs-list axis spelling keys the same
    entry), numpy scalars become the Python scalars they format as, and
    dataclasses (a ``MemorySystemConfig``, a ``BenchmarkProfile``)
    project to sorted field dicts.
    """
    import numpy as np

    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__,
                **{f.name: jsonable(getattr(value, f.name))
                   for f in dataclasses.fields(value)}}
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def entry_key(kind: str, inputs: Any) -> str:
    """The content address of one entry: kind + inputs + code."""
    payload = dumps({"kind": kind, "inputs": jsonable(inputs),
                     "code": code_fingerprint()})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def encode_json(value: Any) -> bytes:
    return dumps(value).encode("utf-8")


def decode_json(blob: bytes) -> Any:
    return json.loads(blob.decode("utf-8"))


def wrap(body: bytes) -> bytes:
    """``body`` behind the envelope: one JSON header line, then the bytes."""
    header = dumps({"schema": ENVELOPE_SCHEMA,
                    "sha256": hashlib.sha256(body).hexdigest()})
    return header.encode("utf-8") + b"\n" + body


def unwrap(blob: bytes) -> bytes:
    """Validate an envelope and return its body.

    Raises :class:`ValueError` when the header is missing or not JSON,
    carries a foreign schema, or the body fails its sha256 (a truncated
    or bit-flipped entry).
    """
    header, sep, body = blob.partition(b"\n")
    try:
        doc = json.loads(header) if sep else None
    except ValueError:
        doc = None
    if not isinstance(doc, dict) or "sha256" not in doc:
        raise ValueError("missing envelope")
    if doc.get("schema") != ENVELOPE_SCHEMA:
        raise ValueError(f"schema {doc.get('schema')!r} != {ENVELOPE_SCHEMA}")
    if hashlib.sha256(body).hexdigest() != doc["sha256"]:
        raise ValueError("sha256 mismatch: entry corrupted or hand-edited")
    return body


def atomic_write_bytes(path: Path, blob: bytes) -> bool:
    """tmp + rename write; returns False (instead of raising) on IO error."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return False
    return True


def touch(path: Path) -> None:
    """Refresh an entry's mtime on read so eviction is LRU, not FIFO."""
    try:
        os.utime(path)
    except OSError:
        pass


def evict_lru(directory: Path, max_mb: Optional[float]) -> int:
    """Delete least-recently-used store entries until under the cap.

    Every ``<key>.<kind>`` entry counts, whatever its kind; ``.tmp`` and
    foreign files are neither counted nor deleted. Returns how many
    entries were removed. A ``None`` cap, a missing directory, or any IO
    trouble is a no-op. Entries that vanish concurrently (another worker
    evicting) are skipped silently.
    """
    if max_mb is None:
        return 0
    entries: List[Tuple[float, int, Path]] = []
    try:
        for path in Path(directory).iterdir():
            if not _ENTRY_NAME.fullmatch(path.name):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
    except OSError:
        return 0
    budget = max_mb * 1024 * 1024
    total = sum(size for _mtime, size, _path in entries)
    removed = 0
    # Oldest first; stop as soon as the survivors fit the cap.
    for _mtime, size, path in sorted(entries):
        if total <= budget:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        removed += 1
    return removed


@dataclass(frozen=True)
class Store:
    """One store directory and the variable naming its size cap.

    ``directory`` is ``None`` when the store is disabled; ``bypassed``
    says it is configured but switched off (an armed fault plane).
    """

    directory: Optional[Path]
    max_mb_var: str
    bypassed: bool = False

    def _path(self, kind: str, inputs: Any) -> Path:
        return self.directory / f"{entry_key(kind, inputs)}.{kind}"

    def has(self, kind: str, inputs: Any) -> bool:
        """Whether an entry of ``kind`` for ``inputs`` is on disk.

        Presence only: a corrupt entry still counts, and its reader
        computes it again through :meth:`get_or_compute`.
        """
        return (self.directory is not None
                and self._path(kind, inputs).is_file())

    def get_or_compute(self, kind: str, inputs: Any,
                       compute: Callable[[], Any],
                       encode: Callable[[Any], bytes] = encode_json,
                       decode: Callable[[bytes], Any] = decode_json,
                       ) -> Tuple[Any, bool]:
        """``(value, hit)``: the stored value of ``kind`` for ``inputs``,
        or ``compute()``'s, stored for next time.

        An entry that fails its envelope or ``decode`` (a stale pickle
        format, say) is a miss, and the fresh value overwrites it.
        """
        if self.directory is None:
            return compute(), False
        path = self._path(kind, inputs)
        try:
            value = decode(unwrap(path.read_bytes()))
        except Exception:
            # Absent, unreadable, corrupt, or a layout this code no longer
            # reads (pickles raise many types): a cache never fails a run.
            pass
        else:
            touch(path)
            return value, True
        value = compute()
        if atomic_write_bytes(path, wrap(encode(value))):
            evict_lru(self.directory, max_mb_from_env(self.max_mb_var))
        return value, False


def sim_store() -> Store:
    """The ``REPRO_SIM_CACHE`` store: figure cells, fleet base runs and
    tenant digests.

    An armed ``REPRO_HWFAULTS`` plane bypasses it: fault injection changes
    outputs without changing any key component, so serving or storing
    under an armed plane would poison the address space. Heap builds never
    advance the simulator, so the heap store has no such rule.
    """
    directory = cache_dir_from_env("REPRO_SIM_CACHE", "repro-simcache")
    armed = directory is not None and bool(os.environ.get("REPRO_HWFAULTS"))
    return Store(None if armed else directory, "REPRO_SIM_CACHE_MAX_MB",
                 bypassed=armed)

