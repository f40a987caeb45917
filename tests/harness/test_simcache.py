"""Content-addressed simulation result cache (``REPRO_SIM_CACHE``).

The contract under test: a warm cache serves unchanged cells without
re-simulating and renders byte-identical tables; anything that could
change an output (kwargs, engine, code) changes the cell key; anything
broken on disk (corruption, IO trouble) degrades to re-simulation, never
to a wrong or failed run; an armed hardware-fault plane bypasses the
cache entirely.
"""

import pytest

from repro.harness import simcache
from repro.harness.experiments import ALL_EXPERIMENTS, ExperimentResult
from repro.harness.sharding import SHARDABLE, ShardSpec, _concat_merge
from repro.harness.simcache import (
    CELL_SUFFIX,
    cache_dir_from_env,
    cell_key,
    run_experiment,
)

AXIS = ("alpha", "beta", "gamma")


def _figfake(benchmarks=AXIS, scale=1.0):
    """A registry-shaped stand-in: one row per benchmark, heavy extras."""
    _figfake.calls.append(tuple(benchmarks))
    return ExperimentResult(
        exp_id="figfake", title="fake", paper_claim="none",
        headers=["benchmark", "value"],
        rows=[[name, scale * (1 + AXIS.index(name))] for name in benchmarks],
        extras={"unpicklable": lambda: None},
    )


_figfake.calls = []


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """Enabled cache in a temp dir, fake shardable experiment registered."""
    monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "cells"))
    monkeypatch.delenv("REPRO_SIM_CACHE_MAX_MB", raising=False)
    monkeypatch.delenv("REPRO_HWFAULTS", raising=False)
    monkeypatch.setitem(ALL_EXPERIMENTS, "figfake", _figfake)
    monkeypatch.setitem(SHARDABLE, "figfake",
                        ShardSpec(axis="benchmarks", merge=_concat_merge,
                                  default=AXIS))
    _figfake.calls = []
    return tmp_path / "cells"


def _cells(cache_dir):
    return sorted(cache_dir.glob(f"*{CELL_SUFFIX}"))


class TestLifecycle:
    def test_disabled_is_a_passthrough(self, cache_env, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE", "")
        result, acct = run_experiment("figfake", {})
        assert acct.as_tuple() == (0, 0)
        assert _figfake.calls == [AXIS]  # one whole-figure invocation
        assert "unpicklable" in result.extras  # extras intact
        assert not cache_env.exists()

    def test_cold_decomposes_into_per_value_cells(self, cache_env):
        result, acct = run_experiment("figfake", {})
        assert acct.as_tuple() == (0, 3)
        assert _figfake.calls == [("alpha",), ("beta",), ("gamma",)]
        assert len(_cells(cache_env)) == 3
        assert [row[0] for row in result.rows] == list(AXIS)

    def test_warm_serves_every_cell_byte_identically(self, cache_env):
        cold, _ = run_experiment("figfake", {})
        _figfake.calls = []
        warm, acct = run_experiment("figfake", {})
        assert acct.as_tuple() == (3, 0)
        assert _figfake.calls == []  # zero re-simulation
        assert warm.render() == cold.render()

    def test_kwargs_change_only_invalidates_its_cells(self, cache_env):
        run_experiment("figfake", {})
        _figfake.calls = []
        _, acct = run_experiment("figfake", {"benchmarks": ["beta"]})
        assert acct.as_tuple() == (1, 0)  # beta's cell is shared
        _, acct = run_experiment("figfake", {"scale": 2.0})
        assert acct.as_tuple() == (0, 3)  # scale keys every cell

    def test_whole_figure_cells_for_nonshardable(self, cache_env):
        direct = ALL_EXPERIMENTS["fig22"]()
        cold, acct = run_experiment("fig22", {})
        assert acct.as_tuple() == (0, 1)
        warm, acct = run_experiment("fig22", {})
        assert acct.as_tuple() == (1, 0)
        assert cold.render() == warm.render() == direct.render()


class TestKeying:
    def test_tuple_and_list_spellings_share_a_cell(self):
        assert (cell_key("figfake", {"benchmarks": ("alpha",)})
                == cell_key("figfake", {"benchmarks": ["alpha"]}))

    def test_code_fingerprint_keys_the_cell(self, monkeypatch):
        monkeypatch.setattr(simcache, "_CODE_FINGERPRINT", "a" * 64)
        before = cell_key("figfake", {})
        monkeypatch.setattr(simcache, "_CODE_FINGERPRINT", "b" * 64)
        assert cell_key("figfake", {}) != before


class TestRobustness:
    def test_corrupt_cell_is_resimulated_and_overwritten(self, cache_env):
        cold, _ = run_experiment("figfake", {})
        victim = _cells(cache_env)[0]
        victim.write_text("{ not a checkpoint envelope")
        again, acct = run_experiment("figfake", {})
        assert acct.as_tuple() == (2, 1)
        assert again.render() == cold.render()
        # The overwrite healed the entry: next run is all hits.
        _, acct = run_experiment("figfake", {})
        assert acct.as_tuple() == (3, 0)

    def test_disk_trouble_degrades_to_resimulation(self, tmp_path,
                                                   monkeypatch, cache_env):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should be")
        monkeypatch.setenv("REPRO_SIM_CACHE", str(blocker / "cells"))
        result, acct = run_experiment("figfake", {})
        assert acct.as_tuple() == (0, 3)
        assert [row[0] for row in result.rows] == list(AXIS)

    def test_hwfaults_plane_bypasses_the_cache(self, cache_env, monkeypatch):
        monkeypatch.setenv("REPRO_HWFAULTS", "marker:drop:1")
        assert cache_dir_from_env() is None
        _, acct = run_experiment("figfake", {})
        assert acct.as_tuple() == (0, 0)
        assert not cache_env.exists()  # nothing stored under an armed plane

    def test_max_mb_cap_evicts_after_writes(self, cache_env, monkeypatch):
        run_experiment("figfake", {})
        assert len(_cells(cache_env)) == 3
        monkeypatch.setenv("REPRO_SIM_CACHE_MAX_MB", "0.0000001")
        run_experiment("figfake", {"scale": 2.0})
        assert len(_cells(cache_env)) < 3
