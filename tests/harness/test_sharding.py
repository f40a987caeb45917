"""Intra-figure sharding: split figures must reproduce unsharded digests.

The whole value of :mod:`repro.harness.sharding` rests on one invariant —
a figure split across worker processes renders the byte-identical table
(same digest) as the inline run — plus honest bookkeeping: per-shard
digests land on the ``FigureRun`` (recomputed on every sharded run, warm
sim cache included), and non-shardable entries silently fall back to the
inline path.
"""

import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import heapcache
from repro.harness.experiments import ExperimentResult
from repro.harness.sharding import (
    SHARDABLE,
    _column_refold_merge,
    _concat_merge,
    _geomean_tail_merge,
    axis_values,
    can_shard,
    run_entry_sharded,
    split_axis,
)
from repro.harness.suite import run_entry
from repro.workloads.profiles import BENCHMARK_ORDER

SCALE = 0.008


@pytest.fixture(autouse=True)
def _fresh_cache(monkeypatch):
    monkeypatch.delenv("REPRO_HEAP_CACHE", raising=False)
    heapcache.reset_cache()
    yield
    heapcache.reset_cache()


class TestSplit:
    def test_contiguous_and_exhaustive(self):
        values = list("abcdefg")
        for n in range(1, 9):
            chunks = split_axis(values, n)
            assert [v for chunk in chunks for v in chunk] == values
            assert all(chunk for chunk in chunks)
            assert len(chunks) == min(n, len(values))

    def test_earlier_chunks_take_the_remainder(self):
        assert split_axis(["a", "b", "c"], 2) == [["a", "b"], ["c"]]

    def test_axis_defaults_to_benchmark_order(self):
        assert axis_values("fig15", {}) == list(BENCHMARK_ORDER)
        assert axis_values("fig15", {"benchmarks": ["avrora"]}) == ["avrora"]
        assert axis_values("fig01b", {}) is None

    def test_can_shard(self):
        assert can_shard("fig15", {}, 2)
        assert not can_shard("fig15", {}, 1)
        assert not can_shard("fig15", {"benchmarks": ["avrora"]}, 4)
        assert not can_shard("fig01b", {}, 4)

    def test_can_shard_declines_oversubscription(self):
        # fig19's default axis has 4 queue sizes: 4 workers is the most
        # a shard can use; a 5th would idle on an empty chunk.
        assert can_shard("fig19", {}, 4)
        assert not can_shard("fig19", {}, 5)
        # fig18's axis is the two cache modes.
        assert can_shard("fig18", {}, 2)
        assert not can_shard("fig18", {}, 3)

    def test_every_new_figure_is_registered(self):
        assert {"fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
                "fleet_slo", "fleet_lbo"} <= set(SHARDABLE)

    def test_kwargs_aware_default_fn(self):
        # fleet_slo's tenant axis tracks the n_tenants kwarg rather than
        # a static default; explicit tenants kwargs still win.
        assert axis_values("fleet_slo", {"n_tenants": 2}) == [0, 1]
        assert axis_values("fleet_slo", {}) == [0, 1, 2, 3]
        assert axis_values("fleet_slo", {"n_tenants": 2,
                                         "tenants": (0,)}) == [0]


def _synthetic(headers, rows):
    return ExperimentResult(exp_id="syn", title="t", paper_claim="p",
                            headers=headers, rows=rows,
                            extras={"heavy": object()})


#: Positive, finite: the geomean refold takes logs of these.
POS = st.floats(min_value=1e-3, max_value=1e3,
                allow_nan=False, allow_infinity=False)


class TestMergeProperties:
    """merge(shard-split rows) == unsharded rows, byte-for-byte, for every
    merge family and every shard count (including oversubscribed)."""

    @settings(deadline=None)
    @given(values=st.lists(POS, min_size=1, max_size=8),
           n_shards=st.integers(1, 10))
    def test_concat(self, values, n_shards):
        headers = ["bench", "value"]
        rows = [[f"b{i}", v] for i, v in enumerate(values)]
        full = _synthetic(headers, rows)
        chunks = split_axis(rows, n_shards)
        merged = _concat_merge([_synthetic(headers, c) for c in chunks])
        assert merged.rows == rows
        assert merged.render() == full.render()
        assert merged.extras == {}

    @settings(deadline=None)
    @given(values=st.lists(st.tuples(POS, POS), min_size=1, max_size=8),
           n_shards=st.integers(1, 10))
    def test_geomean_tail_refolds_bit_identically(self, values, n_shards):
        from repro.engine.stats import geomean

        headers = ["bench", "mark", "sweep"]
        merge = _geomean_tail_merge(1, 2)

        def result_for(rows):
            # The unsharded figures fold a trailing geomean over the
            # speedup columns, left to right over the row order.
            summary = ["geomean",
                       geomean([r[1] for r in rows]),
                       geomean([r[2] for r in rows])]
            return _synthetic(headers, [list(r) for r in rows] + [summary])

        rows = [[f"b{i}", m, s] for i, (m, s) in enumerate(values)]
        full = result_for(rows)
        merged = merge([result_for(c) for c in split_axis(rows, n_shards)])
        assert merged.rows == full.rows
        assert merged.render() == full.render()

    @settings(deadline=None)
    @given(data=st.data())
    def test_column_refold_overlay(self, data):
        n_rows = data.draw(st.integers(1, 6))
        n_modes = data.draw(st.integers(2, 4))
        n_shards = data.draw(st.integers(1, 6))
        matrix = data.draw(st.lists(
            st.lists(POS, min_size=n_modes, max_size=n_modes),
            min_size=n_rows, max_size=n_rows))
        # One trailing column blank in every chunk must stay blank.
        headers = ["source"] + [f"m{m}" for m in range(n_modes)] + ["pad"]
        full_rows = [[f"r{r}", *matrix[r], ""] for r in range(n_rows)]
        chunk_results = []
        for modes in split_axis(list(range(n_modes)), n_shards):
            rows = [[f"r{r}",
                     *(matrix[r][m] if m in modes else ""
                       for m in range(n_modes)), ""]
                    for r in range(n_rows)]
            chunk_results.append(_synthetic(headers, rows))
        merged = _column_refold_merge(chunk_results)
        assert merged.rows == full_rows
        assert merged.render() == _synthetic(headers, full_rows).render()

    def test_column_refold_rejects_row_count_mismatch(self):
        a = _synthetic(["s", "x"], [["r0", 1.0]])
        b = _synthetic(["s", "x"], [["r0", ""], ["r1", ""]])
        with pytest.raises(ValueError, match="row count"):
            _column_refold_merge([a, b])


class TestShardedIdentity:
    """The gate: sharded digest == unsharded digest, rows and geomean."""

    @pytest.mark.slow
    @pytest.mark.parametrize("exp_id,kwargs", [
        ("fig15", dict(scale=SCALE, seed=1,
                       benchmarks=["avrora", "luindex", "lusearch"])),
        ("fig01a", dict(scale=SCALE, seed=1, n_gcs=1,
                        benchmarks=["avrora", "luindex"])),
        ("fig16", dict(scale=SCALE, seed=1,
                       benchmarks=["avrora", "luindex"])),
        ("fig17", dict(scale=SCALE, seed=1,
                       benchmarks=["avrora", "luindex"])),
        ("fig18", dict(scale=SCALE, seed=1)),
        ("fig19", dict(scale=SCALE, seed=1, queue_entries=(64, 2048))),
        ("fig20", dict(scale=SCALE, seed=1, sweeper_counts=(1, 2),
                       benchmarks=["avrora", "luindex"])),
        ("fig21", dict(scale=SCALE, seed=1, cache_sizes=(0, 256))),
    ])
    def test_sharded_matches_unsharded(self, exp_id, kwargs):
        inline = run_entry(0, exp_id, kwargs)
        heapcache.reset_cache()
        sharded = run_entry_sharded(0, exp_id, kwargs, jobs=2)
        assert sharded.rendered == inline.rendered
        assert sharded.digest == inline.digest
        assert len(sharded.shard_digests) == 2
        assert inline.shard_digests == []

    def test_fallback_for_non_shardable(self):
        kwargs = dict(scale=SCALE, seed=1, n_gcs=1, n_queries=200, warmup=10)
        run = run_entry_sharded(3, "fig01b", kwargs, jobs=4)
        assert run.exp_id == "fig01b"
        assert run.shard_digests == []
        assert run.ok

    def test_single_benchmark_falls_back(self):
        kwargs = dict(scale=SCALE, seed=1, n_gcs=1, benchmarks=["avrora"])
        run = run_entry_sharded(0, "fig01a", kwargs, jobs=4)
        assert run.shard_digests == []
        assert run.ok


class TestShardFailure:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched shard child needs the fork start method")
    def test_dead_shard_names_its_exit_status(self, monkeypatch):
        import repro.harness.simcache as simcache

        def dying(exp_id, kwargs, _real=simcache.run_experiment):
            if kwargs["benchmarks"] == ["avrora"]:
                os._exit(42)  # die without reporting: pipe EOF
            return _real(exp_id, kwargs)

        monkeypatch.setattr(simcache, "run_experiment", dying)
        kwargs = dict(scale=SCALE, seed=1, benchmarks=["avrora", "luindex"])
        with pytest.raises(RuntimeError, match="status 42"):
            run_entry_sharded(0, "fig15", kwargs, jobs=2)


class TestWarmShardDigests:
    def test_warm_sharded_run_recomputes_shard_digests(self, tmp_path,
                                                       monkeypatch):
        """Shard digests are not persisted anywhere: a sharded run served
        entirely from the sim cache rebuilds them from the cached cells."""
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "cells"))
        monkeypatch.delenv("REPRO_HWFAULTS", raising=False)
        kwargs = dict(scale=SCALE, seed=1, queue_entries=(64, 2048))
        cold = run_entry_sharded(0, "fig19", kwargs, jobs=2)
        warm = run_entry_sharded(0, "fig19", kwargs, jobs=2)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert len(warm.shard_digests) == 2
        assert warm.shard_digests == cold.shard_digests
        assert warm.digest == cold.digest


class TestSuiteIntegration:
    @pytest.mark.slow
    def test_run_suite_shard_figures_matches_serial(self):
        """``run-all --jobs 2 --shard-figures`` digests == serial digests."""
        from repro.harness.parallel import digests, run_suite
        from repro.harness.suite import SUITE

        # Shrink fig15 to a tiny two-benchmark slice for test runtime; the
        # suite entry itself is patched in-place and restored.
        import repro.harness.suite as suite_mod

        original = list(suite_mod.SUITE)
        tiny = [("fig15", dict(scale=SCALE, seed=1,
                               benchmarks=["avrora", "luindex"]))]
        suite_mod.SUITE[:] = tiny
        try:
            serial = run_suite(jobs=1, only=["fig15"])
            heapcache.reset_cache()
            sharded = run_suite(jobs=2, only=["fig15"], shard_figures=True)
        finally:
            suite_mod.SUITE[:] = original
        assert digests(serial) == digests(sharded)
        assert sharded[0].shard_digests and not serial[0].shard_digests

    def test_shardable_registry_names_are_suite_entries(self):
        from repro.harness.suite import SUITE

        suite_ids = {exp_id for exp_id, _ in SUITE}
        assert set(SHARDABLE) <= suite_ids
