"""Shared on-disk cache plumbing: envelope, atomic writes, LRU, size caps.

Both content-addressed caches — the heap-build cache
(:mod:`repro.harness.heapcache`, ``REPRO_HEAP_CACHE``) and the simulation
result cache (:mod:`repro.harness.simcache`, ``REPRO_SIM_CACHE``) — share
the same disk discipline:

* the directory comes from one env grammar (:func:`cache_dir_from_env`);
* writes are tmp + ``os.replace`` so concurrent workers never observe a
  torn entry;
* JSON entries sit in a schema-versioned envelope with an embedded sha256
  over the payload (:func:`wrap_payload`/:func:`unwrap_payload`), so
  truncation, bit-rot or hand-editing is detected rather than misparsed;
* the directory is a *bounded* LRU: with a ``*_MAX_MB`` cap configured,
  the least-recently-used entries (by mtime; readers ``os.utime`` on hit)
  are evicted after each write until the directory fits the cap;
* disk trouble is never fatal — a cache is an optimization, so the IO
  helpers here swallow ``OSError`` and degrade to "no cache". A malformed
  *setting* is different: :func:`max_mb_from_env` rejects it loudly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Bump when the envelope layout changes; old entries then fail to unwrap
#: and are recomputed rather than misparsed.
ENVELOPE_SCHEMA = 1


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


def dumps(payload: Any) -> str:
    """Canonical JSON: sorted keys so an embedded sha256 is reproducible,
    and Python's NaN/Infinity dialect so such floats round-trip."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True,
                      allow_nan=True)


def wrap_payload(payload: Dict[str, Any]) -> str:
    """Serialize ``payload`` inside the schema + sha256 envelope."""
    body = dumps(payload)
    sha = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return dumps({"schema": ENVELOPE_SCHEMA, "sha256": sha,
                  "payload_json": body})


def unwrap_payload(text: str) -> Dict[str, Any]:
    """Validate an envelope and return its payload.

    Raises :class:`ValueError` when the text is not JSON (a truncated
    write raises ``json.JSONDecodeError``, a subclass), has no envelope,
    carries a foreign schema, or fails its sha256.
    """
    doc = json.loads(text)
    body = doc.get("payload_json") if isinstance(doc, dict) else None
    if not isinstance(body, str):
        raise ValueError("missing envelope")
    if doc.get("schema") != ENVELOPE_SCHEMA:
        raise ValueError(f"schema {doc.get('schema')!r} != {ENVELOPE_SCHEMA}")
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != doc.get("sha256"):
        raise ValueError("sha256 mismatch: entry corrupted or hand-edited")
    return json.loads(body)


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


def evict_lru(directory: Path, max_mb: Optional[float],
              suffix: str = "") -> int:
    """Delete least-recently-used ``*suffix`` entries until under the cap.

    Returns how many entries were removed. A ``None`` cap, a missing
    directory, or any IO trouble is a no-op. Entries that vanish
    concurrently (another worker evicting) are skipped silently.
    """
    if max_mb is None:
        return 0
    directory = Path(directory)
    entries: List[Tuple[float, int, Path]] = []
    try:
        for path in directory.iterdir():
            if suffix and not path.name.endswith(suffix):
                continue
            if path.name.endswith(".tmp"):
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
    if total <= budget:
        return 0
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
