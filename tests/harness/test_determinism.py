"""Determinism guarantees: reruns and worker counts must not change results.

The simulation is only trustworthy if the same ``(profile, scale, seed)``
produces bit-identical cycle counts and ``events_processed`` regardless of

* whether it is the first or a repeated run in the same process,
* whether figures are regenerated serially or fanned out across worker
  processes (``run-all --jobs 1`` vs ``--jobs N``),
* whether the heap came from a fresh build or a warm ``REPRO_HEAP_CACHE``.

The cycle-stamped trace stream is the strongest fingerprint: it records
every request, queue sample, and phase edge, so its sha256 digest equality
is a per-event assertion of identical execution.
"""

from pathlib import Path

import pytest

from repro.engine.simulator import Simulator
from repro.harness import heapcache
from repro.harness.parallel import digests, run_suite
from repro.harness.runners import build_heap, run_hardware, run_software
from repro.harness.suite import SUITE, run_entry
from repro.harness.tracing import trace_collection
from repro.workloads.profiles import DACAPO_PROFILES

SCALE = 0.008


@pytest.fixture(autouse=True)
def _fresh_cache(monkeypatch):
    """Each test builds through a pristine in-process cache, no disk layer."""
    monkeypatch.delenv("REPRO_HEAP_CACHE", raising=False)
    heapcache.reset_cache()
    yield
    heapcache.reset_cache()


def _collect_fingerprint(profile, scale, seed):
    """Everything a GC run reports, plus the simulator's event count."""
    built, checkpoint = build_heap(profile, scale=scale, seed=seed)
    sw, _delta = run_software(built.heap)
    sw_events = built.heap.sim.events_processed
    built.heap.restore(checkpoint)
    hw, _unit = run_hardware(built.heap)
    return (
        sw.mark_cycles, sw.sweep_cycles, sw.objects_marked, sw_events,
        hw.mark_cycles, hw.sweep_cycles, hw.objects_marked,
        built.heap.sim.events_processed,
    )


class TestSimulationDeterminism:
    @pytest.mark.slow
    def test_same_seed_same_result(self):
        profile = DACAPO_PROFILES["luindex"]
        first = _collect_fingerprint(profile, SCALE, seed=3)
        heapcache.reset_cache()
        second = _collect_fingerprint(profile, SCALE, seed=3)
        assert first == second

    def test_synthetic_workload_event_count(self):
        """A mixed zero-delay / short-delay workload lands on the clock
        and event count recorded when three kernels agreed on them."""

        def pinger(sim, n):
            for i in range(n):
                yield i % 3  # exercises 0-delay and wheel delays
                event = sim.event()
                sim.schedule(2, event.trigger, i)
                got = yield event
                assert got == i

        sim = Simulator()
        sim.process(pinger(sim, 500))
        sim.run()
        assert (sim.now, sim.events_processed) == (1_499, 1_334)


class TestTraceDeterminism:
    """The event stream itself, not just the summary counters, must be
    bit-identical across reruns and cache states."""

    @pytest.mark.slow
    def test_trace_digest_identical_warm_vs_cold_cache(self, monkeypatch,
                                                       tmp_path):
        monkeypatch.setenv("REPRO_HEAP_CACHE", str(tmp_path / "heaps"))
        heapcache.reset_cache()
        cold = trace_collection("avrora", scale=SCALE, seed=2)
        # Drop the in-process layer so the warm run reconstructs the heap
        # from the on-disk checkpoint.
        heapcache.reset_cache()
        warm = trace_collection("avrora", scale=SCALE, seed=2)
        assert len(cold.bus) > 0
        assert cold.digest == warm.digest
        assert cold.phase_cycles == warm.phase_cycles

    def test_single_collector_trace_repeats(self):
        first = trace_collection("avrora", scale=SCALE, seed=1,
                                 collectors="hw")
        heapcache.reset_cache()
        second = trace_collection("avrora", scale=SCALE, seed=1,
                                  collectors="hw")
        assert first.digest == second.digest

    def test_bus_detached_after_capture(self):
        capture = trace_collection("avrora", scale=SCALE, seed=1,
                                   collectors="hw")
        assert capture.bus is not None
        # The module-level registry default must remain untouched: a later
        # simulation in the same process starts with tracing disabled.
        from repro.engine.stats import StatsRegistry
        assert StatsRegistry().trace is None


#: ``run-all --jobs 1 --digests`` over the whole suite, one line per
#: figure; CI diffs a sharded ``--jobs 2`` run against it.
PINNED = dict(line.split() for line in Path(__file__).with_name(
    "suite_digests.txt").read_text().splitlines())


class TestParallelDeterminism:
    def test_jobs_merge_is_deterministic(self):
        """--jobs 1 and --jobs 4 must yield identical per-figure digests,
        the ones pinned for the suite."""
        only = ["fig22", "abl_barriers"]  # static models: instant
        serial = run_suite(jobs=1, only=only)
        fanned = run_suite(jobs=4, only=only)
        assert [r.exp_id for r in serial] == [r.exp_id for r in fanned]
        assert digests(serial) == digests(fanned)
        assert digests(serial) == {exp_id: PINNED[exp_id] for exp_id in only}

    def test_every_suite_figure_is_pinned(self):
        assert list(PINNED) == [exp_id for exp_id, _ in SUITE]

    @pytest.mark.slow
    def test_worker_process_matches_inline(self):
        """A simulated figure digests identically in-process and in a pool."""
        import multiprocessing

        kwargs = dict(scale=SCALE, seed=1, n_gcs=1, benchmarks=["avrora"])
        inline = run_entry(0, "fig01a", kwargs)
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=2) as pool:
            remote = pool.apply(run_entry, (0, "fig01a", kwargs))
        assert inline.digest == remote.digest
        assert inline.rendered == remote.rendered
