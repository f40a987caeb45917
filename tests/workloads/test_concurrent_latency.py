"""Concurrent mutator workload + the STW-vs-concurrent latency figure."""

import pytest

from repro.core.concurrent.barriers import MutatorBarriers
from repro.core.concurrent.collect import ConcurrentCycle
from repro.harness.experiments import conc_latency
from repro.heap.verify import reachable_digest
from repro.workloads import DACAPO_PROFILES, HeapGraphBuilder
from repro.workloads.latency import (
    LatencyComparison,
    QueryRecord,
    compare_stw_concurrent,
    percentile_summary,
)
from repro.workloads.mutator import (
    ConcurrentMutator,
    GCPauseRecord,
    MutatorModel,
)


def _build(scale=0.008, seed=13, profile="luindex"):
    return HeapGraphBuilder(DACAPO_PROFILES[profile], scale=scale,
                            seed=seed).build()


class TestConcurrentMutator:
    def test_functional_replay_is_deterministic(self):
        """Two untimed replays from the same checkpoint with the same
        seed perform the identical op stream and land on the same heap."""
        built = _build()
        heap = built.heap
        checkpoint = heap.checkpoint()
        outcomes = []
        for _ in range(2):
            heap.restore(checkpoint)
            mut = ConcurrentMutator(built, n_ops=100, seed=21)
            for _delay in mut.process(MutatorBarriers(heap)):
                pass
            heap.set_roots(mut.final_roots())
            outcomes.append((mut.ops, mut.allocs, mut.ref_writes,
                             mut.ref_reads, tuple(mut.final_roots()),
                             reachable_digest(heap)))
        assert outcomes[0] == outcomes[1]

    def test_final_roots_requires_quiescence(self):
        built = _build()
        mut = ConcurrentMutator(built, n_ops=50, seed=1)
        with pytest.raises(RuntimeError, match="quiesce"):
            mut.final_roots()

    def test_counters_add_up(self):
        built = _build()
        heap = built.heap
        mut = ConcurrentMutator(built, n_ops=150, seed=5)
        for _delay in mut.process(MutatorBarriers(heap)):
            pass
        assert mut.ops == 150
        assert mut.allocs == len(mut.allocated)
        assert mut.allocs + mut.ref_writes > 0
        heap.set_roots(mut.final_roots())
        assert heap.reachable()  # the surviving graph is non-empty


class TestMutatorModelConcurrent:
    def test_concurrent_collector_records_overlapped_mark(self):
        built = _build(scale=0.01)
        model = MutatorModel(built, collector="concurrent", seed=7,
                             conc_ops=80)
        run = model.run(n_gcs=2)
        assert run.collector == "concurrent"
        assert len(run.pauses) == 2
        for pause in run.pauses:
            # The overlapped mark is accounted separately from the pause:
            # pause = handshake + sweep, strictly below mark + sweep.
            assert pause.concurrent_mark_cycles > 0
            assert pause.pause_cycles < \
                pause.concurrent_mark_cycles + pause.sweep_cycles

    def test_concurrent_pauses_below_stw_pauses(self):
        built = _build(scale=0.01)
        checkpoint = built.heap.checkpoint()
        stw = MutatorModel(built, collector="hw", seed=7).run(n_gcs=2)
        built.heap.restore(checkpoint)
        conc = MutatorModel(built, collector="concurrent",
                            seed=7).run(n_gcs=2)
        assert max(p.pause_cycles for p in conc.pauses) < \
            max(p.pause_cycles for p in stw.pauses)

    def test_unknown_collector_rejected(self):
        with pytest.raises(ValueError, match="collector"):
            MutatorModel(_build(), collector="magic")

    def test_pause_record_backward_compatible(self):
        # Pre-concurrent construction sites omit the new field.
        rec = GCPauseRecord(index=0, start_cycle=0, mark_cycles=100,
                            sweep_cycles=50, objects_marked=1,
                            cells_freed=1)
        assert rec.concurrent_mark_cycles == 0
        assert rec.pause_cycles == 150


class TestPercentileSummary:
    def test_keys_and_ordering(self):
        records = [QueryRecord(i, 0, i * 1_000_000, False)
                   for i in range(1, 1001)]
        summary = percentile_summary(records)
        assert set(summary) == {"p50", "p90", "p99", "p99.9", "max"}
        assert summary["p50"] <= summary["p90"] <= summary["p99"] \
            <= summary["p99.9"] <= summary["max"]
        assert summary["max"] == pytest.approx(1000.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_summary([])


class TestCompareStwConcurrent:
    @pytest.fixture(scope="class")
    def comparison(self):
        built = _build(scale=0.01)
        checkpoint = built.heap.checkpoint()
        stw = MutatorModel(built, collector="hw", seed=7).run(n_gcs=3)
        built.heap.restore(checkpoint)
        conc = MutatorModel(built, collector="concurrent",
                            seed=7).run(n_gcs=3)
        return compare_stw_concurrent(stw, conc, n_queries=4_000,
                                      warmup=400)

    def test_concurrent_max_pause_strictly_below_stw(self, comparison):
        assert isinstance(comparison, LatencyComparison)
        assert comparison.concurrent_max_pause_ms < \
            comparison.stw_max_pause_ms

    def test_tail_latency_improves(self, comparison):
        # The open-loop query stream sees a shorter worst case...
        assert comparison.concurrent["max"] <= comparison.stw["max"]
        # ...and the pause-attributed extreme tail does not regress.
        assert comparison.concurrent["p99.9"] <= comparison.stw["p99.9"]
        assert comparison.tail_improvement >= 1.0

    def test_both_sides_share_the_schedule(self, comparison):
        # Warmup queries are discarded before aggregation.
        assert comparison.n_queries == 4_000 - 400
        assert comparison.interval_cycles > 0
        assert comparison.service_mean_cycles > 0


class TestConcLatencyExperiment:
    def test_registered_in_suite(self):
        from repro.harness.figures import FIGURES
        from repro.harness.suite import SUITE

        assert FIGURES["conc_latency"].runner is conc_latency
        assert ("conc_latency", FIGURES["conc_latency"].kwargs) in SUITE

    @pytest.mark.slow
    def test_experiment_renders_and_meets_criterion(self):
        result = conc_latency(scale=0.015, n_gcs=2, n_queries=3_000,
                              warmup=300)
        rendered = result.render()
        assert "conc_latency" in rendered or "Concurrent" in rendered
        comparison = result.extras["comparison"]
        # The acceptance criterion for the figure itself: the concurrent
        # collector's max pause is strictly below STW at this scale.
        assert comparison.concurrent_max_pause_ms < \
            comparison.stw_max_pause_ms
        for row in ("p50", "p99", "p99.9"):
            assert row in rendered
