"""Content-addressed simulation result cache (``REPRO_SIM_CACHE``).

The contract under test: a warm cache serves unchanged cells without
re-simulating and renders byte-identical tables; anything that could
change an output (kwargs, engine, code) changes the cell key; IO trouble
degrades to re-simulation, never to a wrong or failed run (corrupt
entries of every kind are ``test_diskcache.py``'s); an armed
hardware-fault plane bypasses the cache entirely. Cells are the only
persisted figure results, so resuming a run means rerunning it against
the same cache.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import diskcache, simcache
from repro.harness.diskcache import (
    decode_json,
    encode_json,
    entry_key,
    sim_store,
    unwrap,
    wrap,
)
from repro.harness.experiments import ExperimentResult
from repro.harness.figures import FIGURES, Figure
from repro.harness.parallel import digests, run_suite
from repro.harness.sharding import ShardSpec, concat_merge
from repro.harness.simcache import CELL_KIND, cell_inputs, run_experiment

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
    monkeypatch.setitem(FIGURES, "figfake", Figure(
        _figfake, {}, shard=ShardSpec("benchmarks", concat_merge)))
    _figfake.calls = []
    return tmp_path / "cells"


def _cells(cache_dir):
    return sorted(cache_dir.glob(f"*.{CELL_KIND}"))


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
        direct = FIGURES["fig22"].runner()
        cold, acct = run_experiment("fig22", {})
        assert acct.as_tuple() == (0, 1)
        warm, acct = run_experiment("fig22", {})
        assert acct.as_tuple() == (1, 0)
        assert cold.render() == warm.render() == direct.render()


_scalars = st.one_of(
    st.integers(min_value=-2**40, max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=24),  # arbitrary unicode
    st.booleans(),
    st.none(),
)


@st.composite
def _results(draw):
    width = draw(st.integers(min_value=0, max_value=4))
    return ExperimentResult(
        exp_id=draw(st.text(min_size=1, max_size=16)),
        title=draw(st.text(max_size=40)),
        paper_claim=draw(st.text(max_size=40)),
        headers=draw(st.lists(st.text(max_size=12), min_size=width,
                              max_size=width)),
        # up to five rows of ``width`` cells, zero rows included
        rows=draw(st.lists(st.lists(_scalars, min_size=width,
                                    max_size=width), max_size=5)),
        notes=draw(st.text(max_size=60)),
    )


def _nan_eq(a, b) -> bool:
    """Structural equality where NaN == NaN (JSON round-trips Python's
    NaN/Infinity dialect; plain ``==`` would reject it)."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and \
            all(_nan_eq(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and \
            all(_nan_eq(x, y) for x, y in zip(a, b))
    # bool is an int subclass; keep True != 1 so types round-trip honestly.
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


def _round_trip(result):
    blob = wrap(encode_json(simcache._result_to_payload(result)))
    return simcache._result_from_payload(decode_json(unwrap(blob)))


class TestCellRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(result=_results())
    def test_payload_survives_the_envelope(self, result):
        back = _round_trip(result)
        assert _nan_eq(simcache._result_to_payload(back),
                       simcache._result_to_payload(result))
        assert back.render() == result.render()

    def test_unicode_specials_and_empty_rows_survive(self):
        result = ExperimentResult(
            exp_id="fig∞", title="héap ↦ 0xDEAD", paper_claim="λ",
            headers=["a", "b"],
            rows=[[float("nan"), float("inf")], [-float("inf"), "∅"]])
        back = _round_trip(result)
        assert math.isnan(back.rows[0][0])
        assert back.rows[0][1] == math.inf and back.rows[1][0] == -math.inf
        assert back.render() == result.render()
        empty = ExperimentResult(exp_id="e", title="", paper_claim="",
                                 headers=["x"], rows=[])
        assert _round_trip(empty).rows == []


def cell_key(exp_id, kwargs):
    return entry_key(CELL_KIND, cell_inputs(exp_id, kwargs))


class TestKeying:
    def test_tuple_and_list_spellings_share_a_cell(self):
        assert (cell_key("figfake", {"benchmarks": ("alpha",)})
                == cell_key("figfake", {"benchmarks": ["alpha"]}))

    def test_code_fingerprint_keys_the_cell(self, monkeypatch):
        monkeypatch.setattr(diskcache, "_CODE_FINGERPRINT", "a" * 64)
        before = cell_key("figfake", {})
        monkeypatch.setattr(diskcache, "_CODE_FINGERPRINT", "b" * 64)
        assert cell_key("figfake", {}) != before


class TestRobustness:
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
        assert sim_store().directory is None
        _, acct = run_experiment("figfake", {})
        assert acct.as_tuple() == (0, 0)
        assert not cache_env.exists()  # nothing stored under an armed plane

    def test_max_mb_cap_evicts_after_writes(self, cache_env, monkeypatch):
        run_experiment("figfake", {})
        assert len(_cells(cache_env)) == 3
        monkeypatch.setenv("REPRO_SIM_CACHE_MAX_MB", "0.0000001")
        run_experiment("figfake", {"scale": 2.0})
        assert len(_cells(cache_env)) < 3


class TestResume:
    """Resuming a run is rerunning it against the same cache."""

    ONLY = ["fig22", "abl_barriers"]  # static models: one cell each

    @pytest.fixture
    def clean(self, monkeypatch):
        for var in ("REPRO_SIM_CACHE", "REPRO_HWFAULTS", "REPRO_FAULTS"):
            monkeypatch.delenv(var, raising=False)
        return run_suite(jobs=1, only=self.ONLY)

    def test_rerun_simulates_only_the_missing_cells(self, clean, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "cells"))
        run_suite(jobs=1, only=["abl_barriers"])  # a half-finished run
        resumed = {r.exp_id: r for r in run_suite(jobs=1, only=self.ONLY)}
        assert (resumed["abl_barriers"].cache_hits,
                resumed["abl_barriers"].cache_misses) == (1, 0)
        assert (resumed["fig22"].cache_hits,
                resumed["fig22"].cache_misses) == (0, 1)
        assert digests(resumed.values()) == digests(clean)

    def test_completed_run_reruns_without_simulating(self, clean, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "cells"))
        run_suite(jobs=1, only=self.ONLY)
        for exp_id in self.ONLY:
            monkeypatch.setitem(FIGURES, exp_id, replace(
                FIGURES[exp_id],
                runner=lambda **kw: pytest.fail("nothing should re-simulate")))
        again = run_suite(jobs=1, only=self.ONLY)
        assert [r.cache_misses for r in again] == [0, 0]
        assert digests(again) == digests(clean)

    def test_rerun_after_a_code_change_recomputes(self, clean, tmp_path,
                                                  monkeypatch):
        """The stale-resume defect: a rerun after a source edit must not
        splice in results the older code produced."""
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "cells"))
        monkeypatch.setattr(diskcache, "_CODE_FINGERPRINT", "a" * 64)
        run_suite(jobs=1, only=["fig22"])
        real = FIGURES["fig22"].runner

        def edited(**kwargs):
            result = real(**kwargs)
            result.rows = result.rows[:-1]
            return result

        monkeypatch.setitem(FIGURES, "fig22",
                            replace(FIGURES["fig22"], runner=edited))
        monkeypatch.setattr(diskcache, "_CODE_FINGERPRINT", "b" * 64)
        (rerun,) = run_suite(jobs=1, only=["fig22"])
        assert (rerun.cache_hits, rerun.cache_misses) == (0, 1)
        assert rerun.digest != digests(clean)["fig22"]
