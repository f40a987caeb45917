"""Intra-figure sharding: per-value cells must reproduce unsharded digests.

The whole value of :mod:`repro.harness.sharding` rests on one invariant —
a figure run as per-value cells on the worker pool renders the
byte-identical table (same digest) as the inline run — plus honest
bookkeeping: one digest per cell lands on the ``FigureRun`` (recomputed
on every sharded run, warm sim cache included), and entries with fewer
than two axis values run as a single cell.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import heapcache
from repro.harness.experiments import ExperimentResult
from repro.harness.figures import FIGURES, axis_values
from repro.harness.sharding import (
    column_refold_merge,
    concat_merge,
    geomean_tail_merge,
    run_entry_sharded,
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


def _signature_default(exp_id):
    """The runner's default for its axis; ``None`` also for an axis the
    runner lacks, which ``test_shardable_registry_names_are_suite_entries``
    reports."""
    figure = FIGURES[exp_id]
    param = inspect.signature(figure.runner).parameters.get(figure.shard.axis)
    return None if param is None else param.default


class TestAxisValues:
    def test_axis_defaults_to_benchmark_order(self):
        assert axis_values("fig15", {}) == list(BENCHMARK_ORDER)
        assert axis_values("fig15", {"benchmarks": ["avrora"]}) == ["avrora"]
        assert axis_values("fig01b", {}) is None

    def test_every_new_figure_is_registered(self):
        """The figures with an axis to split keep their shard spec."""
        sharded = {exp_id for exp_id, figure in FIGURES.items()
                   if figure.shard is not None}
        assert {"fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
                "fleet_slo", "fleet_lbo"} <= sharded

    def test_kwargs_aware_default(self):
        # fleet_slo's tenant axis tracks the n_tenants kwarg rather than
        # a static default; explicit tenants kwargs still win.
        assert axis_values("fleet_slo", {"n_tenants": 2}) == [0, 1]
        assert axis_values("fleet_slo", {}) == [0, 1, 2, 3]
        assert axis_values("fleet_slo", {"n_tenants": 2,
                                         "tenants": (0,)}) == [0]

    @pytest.mark.parametrize("exp_id", [
        exp_id for exp_id in sorted(FIGURES)
        if FIGURES[exp_id].shard is not None
        and _signature_default(exp_id) is not None])
    def test_default_mirrors_the_experiment_function(self, exp_id):
        """Where the experiment function spells its axis default out, the
        axis values without kwargs are that same tuple, in its order."""
        assert axis_values(exp_id, {}) == list(_signature_default(exp_id))


def _synthetic(headers, rows):
    return ExperimentResult(exp_id="syn", title="t", paper_claim="p",
                            headers=headers, rows=rows,
                            extras={"heavy": object()})


#: Positive, finite: the geomean refold takes logs of these.
POS = st.floats(min_value=1e-3, max_value=1e3,
                allow_nan=False, allow_infinity=False)


class TestMergeProperties:
    """merge(one result per axis value) == unsharded rows, byte-for-byte,
    for every merge family."""

    @settings(deadline=None)
    @given(values=st.lists(POS, min_size=1, max_size=8))
    def test_concat(self, values):
        headers = ["bench", "value"]
        rows = [[f"b{i}", v] for i, v in enumerate(values)]
        full = _synthetic(headers, rows)
        merged = concat_merge([_synthetic(headers, [row]) for row in rows])
        assert merged.rows == rows
        assert merged.render() == full.render()
        assert merged.extras == {}

    @settings(deadline=None)
    @given(values=st.lists(st.tuples(POS, POS), min_size=1, max_size=8))
    def test_geomean_tail_refolds_bit_identically(self, values):
        from repro.engine.stats import geomean

        headers = ["bench", "mark", "sweep"]
        merge = geomean_tail_merge(1, 2)

        def result_for(rows):
            # The unsharded figures fold a trailing geomean over the
            # speedup columns, left to right over the row order.
            summary = ["geomean",
                       geomean([r[1] for r in rows]),
                       geomean([r[2] for r in rows])]
            return _synthetic(headers, [list(r) for r in rows] + [summary])

        rows = [[f"b{i}", m, s] for i, (m, s) in enumerate(values)]
        full = result_for(rows)
        merged = merge([result_for([row]) for row in rows])
        assert merged.rows == full.rows
        assert merged.render() == full.render()

    @settings(deadline=None)
    @given(data=st.data())
    def test_column_refold_overlay(self, data):
        n_rows = data.draw(st.integers(1, 6))
        n_modes = data.draw(st.integers(2, 4))
        matrix = data.draw(st.lists(
            st.lists(POS, min_size=n_modes, max_size=n_modes),
            min_size=n_rows, max_size=n_rows))
        # One trailing column blank in every cell must stay blank.
        headers = ["source"] + [f"m{m}" for m in range(n_modes)] + ["pad"]
        full_rows = [[f"r{r}", *matrix[r], ""] for r in range(n_rows)]
        cell_results = []
        for mode in range(n_modes):
            rows = [[f"r{r}",
                     *(matrix[r][m] if m == mode else ""
                       for m in range(n_modes)), ""]
                    for r in range(n_rows)]
            cell_results.append(_synthetic(headers, rows))
        merged = column_refold_merge(cell_results)
        assert merged.rows == full_rows
        assert merged.render() == _synthetic(headers, full_rows).render()

    def test_column_refold_rejects_row_count_mismatch(self):
        a = _synthetic(["s", "x"], [["r0", 1.0]])
        b = _synthetic(["s", "x"], [["r0", ""], ["r1", ""]])
        with pytest.raises(ValueError, match="row count"):
            column_refold_merge([a, b])


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
        # One digest per cell, i.e. per axis value.
        assert len(sharded.shard_digests) == \
            len(axis_values(exp_id, kwargs))
        assert inline.shard_digests == []

    def test_non_shardable_runs_as_one_cell(self):
        kwargs = dict(scale=SCALE, seed=1, n_gcs=1, n_queries=200, warmup=10)
        run = run_entry_sharded(3, "fig01b", kwargs, jobs=4)
        assert run.exp_id == "fig01b"
        assert run.shard_digests == []
        assert len(run.attempt_history) == 1
        assert run.ok

    def test_single_benchmark_runs_as_one_cell(self):
        kwargs = dict(scale=SCALE, seed=1, n_gcs=1, benchmarks=["avrora"])
        run = run_entry_sharded(0, "fig01a", kwargs, jobs=4)
        assert run.shard_digests == []
        assert len(run.attempt_history) == 1
        assert run.ok

    def test_kwargs_the_runner_rejects_fail_the_entry(self):
        """An entry the runner cannot bind runs whole and fails as that
        entry, naming the runner's error, rather than aborting the
        expansion of every entry."""
        from repro.harness.parallel import SuiteRunError

        kwargs = dict(scale=SCALE, queue_entries=(64, 2048), bogus=1)
        with pytest.raises(SuiteRunError, match="bogus"):
            run_entry_sharded(0, "fig19", kwargs, jobs=2)

    def test_more_workers_than_values_is_one_cell_per_value(self):
        """fig19 with 2 queue sizes on 4 workers runs as 2 cells, each
        recorded with its axis value."""
        kwargs = dict(scale=SCALE, seed=1, queue_entries=(64, 2048))
        run = run_entry_sharded(0, "fig19", kwargs, jobs=4)
        assert run.ok and len(run.shard_digests) == 2
        assert [rec["cell"] for rec in run.attempt_history] == [64, 2048]


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
        """Every shard spec names an argument of its runner, and the
        figure's suite entry splits into at least two cells."""
        from repro.harness.figures import cells
        from repro.harness.suite import SUITE

        for exp_id, kwargs in SUITE:
            shard = FIGURES[exp_id].shard
            if shard is None:
                continue
            assert shard.axis in inspect.signature(
                FIGURES[exp_id].runner).parameters, exp_id
            assert len(cells(exp_id, kwargs)) >= 2, exp_id
