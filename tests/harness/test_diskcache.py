"""Shared disk-cache plumbing: dir grammar, size caps, envelope, atomic
writes, LRU eviction.

Both on-disk caches (heap builds and simulation cells) route through
:mod:`repro.harness.diskcache`; these tests pin the discipline they rely
on — one directory grammar, caps that reject malformed values, an
envelope that detects torn or edited entries, all-or-nothing writes, and
eviction that is LRU by mtime and never touches in-flight ``.tmp`` files
or foreign suffixes.
"""

import json
import os
from pathlib import Path

import pytest

from repro.harness.diskcache import (
    atomic_write_bytes,
    cache_dir_from_env,
    evict_lru,
    max_mb_from_env,
    touch,
    unwrap_payload,
    wrap_payload,
)


class TestCacheDirFromEnv:
    def test_grammar(self, monkeypatch):
        for raw in ("", "0", "off", "no"):
            monkeypatch.setenv("DIR", raw)
            assert cache_dir_from_env("DIR", "sub") is None
        monkeypatch.delenv("DIR")
        assert cache_dir_from_env("DIR", "sub") is None
        monkeypatch.setenv("DIR", "1")
        assert cache_dir_from_env("DIR", "sub") == \
            Path.home() / ".cache" / "sub"
        monkeypatch.setenv("DIR", "/some/where")
        assert cache_dir_from_env("DIR", "sub") == Path("/some/where")


class TestMaxMbFromEnv:
    def test_parses_positive_caps(self, monkeypatch):
        monkeypatch.setenv("CAP", "12.5")
        assert max_mb_from_env("CAP") == 12.5

    def test_unset_and_empty_mean_no_cap(self, monkeypatch):
        monkeypatch.delenv("CAP", raising=False)
        assert max_mb_from_env("CAP") is None
        monkeypatch.setenv("CAP", "")
        assert max_mb_from_env("CAP") is None

    @pytest.mark.parametrize("raw", ["banana", "nan", "0", "-5"])
    def test_invalid_and_nonpositive_are_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("CAP", raw)
        with pytest.raises(ValueError, match=f"CAP .*'{raw}'"):
            max_mb_from_env("CAP")


class TestEnvelope:
    def test_round_trip(self):
        payload = {"rows": [[1, "héap", float("inf")]], "empty": []}
        assert unwrap_payload(wrap_payload(payload)) == payload

    def test_truncated_entry_rejected(self):
        text = wrap_payload({"rows": [1, 2, 3]})
        with pytest.raises(ValueError):
            unwrap_payload(text[: len(text) // 2])

    def test_flipped_payload_byte_fails_the_sha(self):
        doc = json.loads(wrap_payload({"title": "table"}))
        doc["payload_json"] = doc["payload_json"].replace("table", "tadle")
        with pytest.raises(ValueError, match="sha256 mismatch"):
            unwrap_payload(json.dumps(doc))

    def test_foreign_schema_rejected(self):
        doc = json.loads(wrap_payload({"title": "table"}))
        doc["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            unwrap_payload(json.dumps(doc))

    def test_missing_envelope_rejected(self):
        with pytest.raises(ValueError, match="missing envelope"):
            unwrap_payload(json.dumps({"title": "table"}))


class TestAtomicWrite:
    def test_writes_and_reports_success(self, tmp_path):
        path = tmp_path / "sub" / "entry.bin"
        assert atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        # No .tmp litter left behind.
        assert list(path.parent.glob("*.tmp")) == []

    def test_io_trouble_returns_false(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert not atomic_write_bytes(blocker / "entry.bin", b"x")


class TestEviction:
    def _populate(self, directory, names, size=100):
        directory.mkdir(exist_ok=True)
        for i, name in enumerate(names):
            path = directory / name
            path.write_bytes(b"x" * size)
            # Deterministic LRU order: strictly increasing mtimes.
            os.utime(path, (1000 + i, 1000 + i))

    def test_oldest_evicted_first_until_under_cap(self, tmp_path):
        self._populate(tmp_path, ["a.cell", "b.cell", "c.cell"])
        # Cap fits two 100-byte entries.
        removed = evict_lru(tmp_path, 200 / (1024 * 1024), suffix=".cell")
        assert removed == 1
        assert not (tmp_path / "a.cell").exists()
        assert (tmp_path / "b.cell").exists()
        assert (tmp_path / "c.cell").exists()

    def test_touch_protects_a_recently_read_entry(self, tmp_path):
        self._populate(tmp_path, ["a.cell", "b.cell", "c.cell"])
        touch(tmp_path / "a.cell")  # a read refreshes mtime: now newest
        evict_lru(tmp_path, 200 / (1024 * 1024), suffix=".cell")
        assert (tmp_path / "a.cell").exists()
        assert not (tmp_path / "b.cell").exists()

    def test_tmp_files_and_foreign_suffixes_are_untouchable(self, tmp_path):
        self._populate(tmp_path, ["a.cell", "b.other", "c.tmp"])
        evict_lru(tmp_path, 0.0000001, suffix=".cell")
        assert not (tmp_path / "a.cell").exists()
        assert (tmp_path / "b.other").exists()
        assert (tmp_path / "c.tmp").exists()

    def test_no_cap_and_missing_directory_are_noops(self, tmp_path):
        self._populate(tmp_path, ["a.cell"])
        assert evict_lru(tmp_path, None) == 0
        assert evict_lru(tmp_path / "nope", 1.0) == 0
        assert (tmp_path / "a.cell").exists()
