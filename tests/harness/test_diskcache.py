"""The one content-addressed store: dir grammar, size caps, key,
envelope, atomic writes, LRU eviction, get-or-compute.

Heap builds, figure cells, fleet base runs and tenant digests all route
through :mod:`repro.harness.diskcache`; these tests pin the discipline
they rely on — one directory grammar, caps that reject malformed values,
a key that covers kind, inputs and code, an envelope that detects torn or
edited entries, all-or-nothing writes, and eviction that is LRU by mtime
over every entry kind and never touches in-flight ``.tmp`` files or
foreign files — and hold every entry kind to the same recovery contract.
"""

import json
import os
from pathlib import Path

import pytest

from repro.harness import diskcache, heapcache
from repro.harness.diskcache import (
    Store,
    atomic_write_bytes,
    cache_dir_from_env,
    entry_key,
    evict_lru,
    max_mb_from_env,
    touch,
    unwrap,
    wrap,
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


class TestKey:
    def test_kind_inputs_and_code_each_key_the_entry(self, monkeypatch):
        monkeypatch.setattr(diskcache, "_CODE_FINGERPRINT", "a" * 64)
        base = entry_key("cell", {"x": 1})
        assert entry_key("cell", {"x": 1}) == base
        assert entry_key("base-run", {"x": 1}) != base
        assert entry_key("cell", {"x": 2}) != base
        monkeypatch.setattr(diskcache, "_CODE_FINGERPRINT", "b" * 64)
        assert entry_key("cell", {"x": 1}) != base


def _truncate(blob):
    return blob[: len(blob) // 2]


def _flip_last_byte(blob):
    return blob[:-1] + bytes([blob[-1] ^ 0x01])


def _foreign_schema(blob):
    header, _, body = blob.partition(b"\n")
    doc = json.loads(header)
    doc["schema"] = 999
    return json.dumps(doc).encode() + b"\n" + body


CORRUPTIONS = {"truncated": _truncate, "flipped-byte": _flip_last_byte,
               "foreign-schema": _foreign_schema}


class TestEnvelope:
    def test_round_trip(self):
        for body in (b"", b"\x00\xffbinary\n", "héap ∞".encode()):
            assert unwrap(wrap(body)) == body

    @pytest.mark.parametrize("corrupt,match", [
        (_truncate, "sha256 mismatch"),
        (_flip_last_byte, "sha256 mismatch"),
        (_foreign_schema, "schema"),
        (lambda blob: b"{ not an envelope", "missing envelope"),
        (lambda blob: b'{"rows": 1}\nbody', "missing envelope"),
    ])
    def test_corruption_is_rejected(self, corrupt, match):
        with pytest.raises(ValueError, match=match):
            unwrap(corrupt(wrap(b"rows of a table" * 8)))


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


def _entry(i, kind="cell"):
    return f"{i:064x}.{kind}"


class TestEviction:
    def _populate(self, directory, names, size=100):
        directory.mkdir(exist_ok=True)
        for i, name in enumerate(names):
            path = directory / name
            path.write_bytes(b"x" * size)
            # Deterministic LRU order: strictly increasing mtimes.
            os.utime(path, (1000 + i, 1000 + i))

    def test_oldest_evicted_first_until_under_cap(self, tmp_path):
        self._populate(tmp_path, [_entry(1), _entry(2), _entry(3)])
        # Cap fits two 100-byte entries.
        removed = evict_lru(tmp_path, 200 / (1024 * 1024))
        assert removed == 1
        assert not (tmp_path / _entry(1)).exists()
        assert (tmp_path / _entry(2)).exists()
        assert (tmp_path / _entry(3)).exists()

    def test_every_kind_counts_toward_one_cap(self, tmp_path):
        self._populate(tmp_path, [_entry(1, "base-run"), _entry(2, "cell"),
                                  _entry(3, "tenant-digest")])
        assert evict_lru(tmp_path, 200 / (1024 * 1024)) == 1
        assert not (tmp_path / _entry(1, "base-run")).exists()

    def test_touch_protects_a_recently_read_entry(self, tmp_path):
        self._populate(tmp_path, [_entry(1), _entry(2), _entry(3)])
        touch(tmp_path / _entry(1))  # a read refreshes mtime: now newest
        evict_lru(tmp_path, 200 / (1024 * 1024))
        assert (tmp_path / _entry(1)).exists()
        assert not (tmp_path / _entry(2)).exists()

    def test_tmp_files_and_foreign_files_are_untouchable(self, tmp_path):
        foreign = ["notes.txt", "b.cell", f"{1:064x}.cell.json", "c.tmp"]
        self._populate(tmp_path, [_entry(1)] + foreign)
        evict_lru(tmp_path, 0.0000001)
        assert not (tmp_path / _entry(1)).exists()
        for name in foreign:
            assert (tmp_path / name).exists()

    def test_no_cap_and_missing_directory_are_noops(self, tmp_path):
        self._populate(tmp_path, [_entry(1)])
        assert evict_lru(tmp_path, None) == 0
        assert evict_lru(tmp_path / "nope", 1.0) == 0
        assert (tmp_path / _entry(1)).exists()


class TestGetOrCompute:
    def _calls(self):
        calls = []

        def compute():
            calls.append(1)
            return {"value": len(calls)}
        return calls, compute

    def test_miss_then_hit(self, tmp_path):
        store = Store(tmp_path, "CAP")
        calls, compute = self._calls()
        assert store.get_or_compute("cell", {"x": 1}, compute) == \
            ({"value": 1}, False)
        assert store.get_or_compute("cell", {"x": 1}, compute) == \
            ({"value": 1}, True)
        assert len(calls) == 1
        (entry,) = tmp_path.iterdir()
        assert entry.name == f"{entry_key('cell', {'x': 1})}.cell"

    def test_disabled_store_always_computes(self, tmp_path):
        store = Store(None, "CAP")
        calls, compute = self._calls()
        store.get_or_compute("cell", {}, compute)
        store.get_or_compute("cell", {}, compute)
        assert len(calls) == 2

    def test_undecodable_entry_is_a_miss_and_is_overwritten(self, tmp_path):
        store = Store(tmp_path, "CAP")
        store.get_or_compute("cell", {}, lambda: {"old": 1})

        def stale_format(blob):
            raise KeyError("layout the code no longer reads")
        value, hit = store.get_or_compute("cell", {}, lambda: {"new": 1},
                                          decode=stale_format)
        assert (value, hit) == ({"new": 1}, False)
        assert store.get_or_compute("cell", {}, lambda: None) == \
            ({"new": 1}, True)


# -- every entry kind, one recovery contract ------------------------------

SCALE = 0.008


@pytest.fixture
def stores(tmp_path, monkeypatch):
    """Both store directories enabled, every in-process memo empty."""
    from repro.fleet.timeline import reset_base_cache

    monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "sim"))
    monkeypatch.delenv("REPRO_HWFAULTS", raising=False)
    monkeypatch.delenv("REPRO_SIM_CACHE_MAX_MB", raising=False)
    monkeypatch.delenv("REPRO_HEAP_CACHE", raising=False)

    def reset():
        heapcache.reset_cache()
        reset_base_cache()
    reset()
    yield tmp_path, reset
    reset()


def _heap_build(tmp_path):
    from repro.heap.verify import heap_digest
    from repro.workloads.profiles import DACAPO_PROFILES

    cache = heapcache.HeapBuildCache(disk_dir=tmp_path / "heap")
    built, _ = cache.get_or_build(DACAPO_PROFILES["luindex"], SCALE, 1)
    return heap_digest(built.heap)


def _figure_cell(_tmp_path):
    from repro.harness.simcache import run_experiment

    return run_experiment("fig22", {})[0].render()


def _base_run(_tmp_path):
    from repro.fleet.timeline import base_run

    return base_run("luindex", "hw", SCALE, 1, 1)


def _tenant_digest(_tmp_path):
    from repro.fleet.timeline import tenant_heap_digest

    return tenant_heap_digest("luindex", "hw", SCALE, 1, 1)


KINDS = {"heap": ("heap", _heap_build), "cell": ("sim", _figure_cell),
         "base-run": ("sim", _base_run),
         "tenant-digest": ("sim", _tenant_digest)}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_corrupt_entry_is_recomputed_and_rewritten(stores, kind, corruption):
    tmp_path, reset = stores
    subdir, compute = KINDS[kind]
    first = compute(tmp_path)
    (entry,) = (tmp_path / subdir).glob(f"*.{kind}")
    original = entry.read_bytes()
    entry.write_bytes(CORRUPTIONS[corruption](original))
    reset()
    assert compute(tmp_path) == first
    assert entry.read_bytes() == original


@pytest.mark.parametrize("kind", ["base-run", "tenant-digest"])
def test_armed_fault_plane_neither_serves_nor_stores_fleet_entries(
        stores, monkeypatch, kind):
    import repro.fleet.timeline as timeline

    tmp_path, reset = stores
    _subdir, compute = KINDS[kind]
    monkeypatch.setenv("REPRO_HWFAULTS", "drop:dram:1000000000")
    compute(tmp_path)
    assert not (tmp_path / "sim").exists()  # nothing stored

    monkeypatch.delenv("REPRO_HWFAULTS")
    reset()
    compute(tmp_path)  # now stored
    assert list((tmp_path / "sim").glob(f"*.{kind}"))
    monkeypatch.setenv("REPRO_HWFAULTS", "drop:dram:1000000000")
    reset()
    runs = []
    real = timeline.MutatorModel.run

    def counting(self, n_gcs=3):
        runs.append(n_gcs)
        return real(self, n_gcs)
    monkeypatch.setattr(timeline.MutatorModel, "run", counting)
    compute(tmp_path)
    assert runs == [1]  # simulated again, not served
