"""Experiment runners, exercised at tiny scales.

Each test regenerates a figure at a scale small enough for CI and checks
the *shape* of the result (direction of speedups, dominance relations),
not exact magnitudes — magnitudes against the paper's own numbers are
checked by the claims table in ``tests/paper/test_claims.py``.
"""

import pytest

from repro.harness import experiments as E
from repro.harness.reporting import render_series, render_table

TINY = dict(scale=0.008, seed=5)


class TestMotivation:
    @pytest.mark.slow
    def test_fig01a_rows(self):
        result = E.fig01a(scale=0.008, seed=5, n_gcs=2,
                          benchmarks=["avrora", "xalan"])
        assert len(result.rows) == 2
        fractions = {row[0]: row[1] for row in result.rows}
        # xalan is the GC-heaviest workload, avrora among the lightest.
        assert fractions["xalan"] > fractions["avrora"]
        assert result.render().startswith("## fig01a")

    def test_fig01b_tail(self):
        result = E.fig01b(scale=0.008, seed=5, n_gcs=2, n_queries=2000,
                          warmup=200)
        stats = {row[0]: row[1] for row in result.rows}
        assert stats["p99.9"] > 10 * stats["p50"]
        assert stats["max"] >= stats["p99.9"] >= stats["p99"] >= stats["p50"]


class TestHeadline:
    def test_fig15_speedups(self):
        result = E.fig15(scale=0.008, seed=5, benchmarks=["avrora"])
        row = result.rows[0]
        assert row[0] == "avrora"
        mark_x, sweep_x = row[3], row[6]
        assert mark_x > 1.5
        assert sweep_x > 1.0

    @pytest.mark.slow
    def test_fig17_pipe_is_faster_than_ddr3(self):
        ddr3 = E.fig15(scale=0.008, seed=5, benchmarks=["avrora"])
        pipe = E.fig17(scale=0.008, seed=5, benchmarks=["avrora"])
        assert pipe.rows[0][1] > ddr3.rows[0][3]  # mark speedup grows
        interval = pipe.rows[0][3]
        assert 1 <= interval < 40  # cycles per request, sane range


class TestDesignSpace:
    @pytest.mark.slow
    def test_fig18_partitioning_shifts_traffic(self):
        result = E.fig18(scale=0.01, seed=5)
        shares = {row[0]: (row[2], row[4]) for row in result.rows[:-1]}
        # Shared cache: the PTW dominates requests (the paper's 2/3).
        assert shares["ptw"][0] > 40.0
        # Partitioned: marker+tracer dominate what reaches memory.
        assert shares["marker"][1] + shares["tracer"][1] > 50.0

    @pytest.mark.slow
    def test_fig19_spilling_small(self):
        result = E.fig19(scale=0.01, seed=5, queue_entries=(64, 2048))
        by_config = {}
        for row in result.rows:
            by_config.setdefault(row[1], []).append(row)
        # Compression reduces spill traffic at equal queue size.
        tq128 = by_config["TQ=128"][0]
        comp = by_config["Comp."][0]
        assert comp[2] < tq128[2]
        # A large queue spills (much) less than a tiny one.
        assert by_config["TQ=128"][-1][2] <= by_config["TQ=128"][0][2]

    def test_fig20_scaling_shape(self):
        result = E.fig20(scale=0.008, seed=5, sweeper_counts=(1, 2, 4),
                         benchmarks=["avrora"])
        _name, s1, s2, s4 = result.rows[0]
        assert s2 > s1  # near-linear at first
        assert (s4 / s2) < (s2 / s1)  # diminishing beyond

    @pytest.mark.slow
    def test_fig21_hot_objects(self):
        result = E.fig21(scale=0.01, seed=5, n_warm_gcs=1,
                         cache_sizes=(0, 256), benchmark="luindex")
        assert result.extras["top56_share_pct"] > 2.0
        no_cache, big_cache = result.rows[0], result.rows[-1]
        assert no_cache[1] == 0
        assert big_cache[1] > 0  # the cache filtered something


class TestStaticModels:
    @pytest.mark.slow
    def test_fig23_energy_direction(self):
        # Needs a heap comfortably larger than the CPU caches (like the
        # paper's 200 MB heaps); tiny scales flip the comparison.
        result = E.fig23(scale=0.03, seed=5, benchmarks=["avrora"])
        row = result.rows[0]
        _b, cpu_mw, unit_mw, cpu_mj, unit_mj, saving = row
        assert unit_mw > cpu_mw  # higher DRAM power
        assert unit_mj < cpu_mj  # lower energy
        assert saving > 0


class TestAblations:
    def test_abl_layout(self):
        result = E.abl_layout(scale=0.008, seed=5, benchmarks=("avrora",))
        assert result.rows[0][3] > 1.0  # conventional is slower

    @pytest.mark.slow
    def test_abl_scheduler(self):
        result = E.abl_scheduler(scale=0.008, seed=5)
        by_label = {row[0]: row[3] for row in result.rows}
        # The unit benefits from FR-FCFS/16 over FIFO/8 (§VI-A).
        assert by_label["FR-FCFS/16"] > by_label["FIFO/8"]

    def test_registry_complete(self):
        """Every runner in ``experiments`` is the runner of the record
        named after it, so none is written and never run, and no record
        points at a neighbour's runner."""
        import inspect

        from repro.harness.figures import FIGURES

        runners = {name for name, fn in vars(E).items()
                   if inspect.isfunction(fn) and fn.__module__ == E.__name__
                   and not name.startswith("_")
                   and inspect.signature(fn).return_annotation
                   in ("ExperimentResult", E.ExperimentResult)}
        assert runners == set(FIGURES)
        for exp_id, figure in FIGURES.items():
            assert figure.runner is getattr(E, exp_id)


class TestReporting:
    def test_render_table(self):
        text = render_table(["a", "b"], [[1, 2.5], ["x", 0.001]])
        assert "| a" in text and "2.50" in text

    def test_render_series(self):
        text = render_series([(0, 1.0), (10, 2.0)], title="bw")
        assert "bw" in text and "#" in text
        assert render_series([], title="empty").startswith("empty")
