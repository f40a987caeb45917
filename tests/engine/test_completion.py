"""Completion semantics and the absolute cycle pins.

Cache/TLB hits, queue handshakes and pipe transfers return a pre-resolved
:class:`Completion` instead of an ``Event`` armed with ``schedule(latency,
event.trigger)``. Correctness hinges on two properties, both pinned here:

* **Protocol equivalence** — a Completion observed through ``triggered``/
  ``value``/``add_callback``/``yield`` behaves exactly like the Event it
  stands in for, including *where inside a cycle* its delivery lands
  (hop-preserving delivery).
* **Absolute pins** — small and paper-scale collections land on recorded
  cycle counts, marked-set sizes, event counts and trace digests.
"""

import pytest

from repro.engine.simulator import Completion, Event


class TestCompletionSemantics:
    def test_triggered_follows_the_clock(self, sim):
        c = Completion(sim, sim.now + 5, "data")
        assert not c.triggered
        sim.run_until(sim.process(self._sleep(4)))
        assert not c.triggered
        sim.run_until(sim.process(self._sleep(1)))
        assert c.triggered
        assert c.value == "data"

    @staticmethod
    def _sleep(cycles):
        yield cycles

    def test_creation_schedules_nothing(self, sim):
        before = sim.events_processed
        Completion(sim, sim.now + 100, None)
        sim.run()
        assert sim.events_processed == before

    def test_ready_completion_consumed_synchronously(self, sim):
        log = []

        def proc():
            value = yield Completion(sim, sim.now, 42)
            log.append((sim.now, value))
            yield 1
            log.append((sim.now, "after"))

        sim.run_until(sim.process(proc()))
        assert log == [(0, 42), (1, "after")]

    def test_pending_completion_resumes_at_its_time(self, sim):
        log = []

        def proc():
            value = yield Completion(sim, sim.now + 7, "late")
            log.append((sim.now, value))

        sim.run_until(sim.process(proc()))
        assert log == [(7, "late")]

    def test_callback_on_ready_completion_runs_this_cycle(self, sim):
        log = []

        def proc():
            yield 3
            Completion(sim, sim.now - 1, "v").add_callback(
                lambda v: log.append((sim.now, v)))
            yield 1

        sim.run_until(sim.process(proc()))
        assert log == [(3, "v")]

    def test_hop_preserving_delivery_order(self, sim):
        """A pending Completion lands at the same intra-cycle position as
        a ``schedule(latency, event.trigger)`` Event armed alongside it.

        Both are armed at cycle 0 for cycle 5, Event first. The event's
        trigger fires first in the bucket and its waiter hop is appended;
        the Completion's ``_deliver`` runs second and appends its hop after
        — so waiters resume in arming order, not in reverse.
        """
        order = []

        def wait(handle, tag):
            value = yield handle
            order.append((tag, sim.now, value))

        event = Event(sim, name="event")
        sim.schedule(5, event.trigger, "ev")
        completion = Completion(sim, 5, "cp")
        sim.process(wait(event, "event"))
        sim.process(wait(completion, "completion"))
        sim.run()
        assert order == [("event", 5, "ev"), ("completion", 5, "cp")]

    def test_mixed_arming_delivery_positions(self, sim):
        """Deliveries land where each was *scheduled into the bucket*.

        The Event's trigger enters bucket 4 at arming time (cycle 0, before
        any waiter suspends); each pending Completion's delivery enters when
        its waiter suspends on it. So the Event's waiter resumes first even
        though its Completion-waiting peers were created earlier.
        """
        order = []

        def wait(handle, tag):
            yield handle
            order.append(tag)

        first = Completion(sim, 4, None)
        second = Event(sim, name="second")
        sim.schedule(4, second.trigger, None)
        third = Completion(sim, 4, None)
        for tag, handle in [("a", first), ("b", second), ("c", third)]:
            sim.process(wait(handle, tag))
        sim.run()
        assert order == ["b", "a", "c"]


#: Small random heaps (``make_random_heap``): ``(n_objects, seed)`` ->
#: ((sw mark, sw sweep, sw marked, hw mark, hw sweep, hw marked, marked-set
#: size), (events after the sw collection, events after both)). Recorded
#: when three kernels and the event-only memory path all agreed on them
#: (cycles across all six, event counts across the three kernels).
PINNED_SMALL_GC = {
    (60, 0): ((4_455, 13_452, 48, 2_868, 9_967, 48, 48),
              (4_787, 9_381)),
    (60, 1): ((4_839, 13_678, 48, 3_324, 7_949, 48, 48),
              (4_809, 9_379)),
    (60, 2): ((5_190, 13_624, 54, 3_042, 9_798, 54, 54),
              (5_174, 10_274)),
    (60, 3): ((4_947, 13_359, 51, 2_880, 9_906, 51, 51),
              (5_019, 9_786)),
    (60, 4): ((4_032, 13_986, 42, 2_501, 8_000, 42, 42),
              (4_618, 9_067)),
    (60, 5): ((4_641, 13_456, 50, 3_026, 9_996, 50, 50),
              (4_811, 9_427)),
    (60, 6): ((4_595, 13_417, 49, 2_311, 9_907, 49, 49),
              (4_861, 9_521)),
    (60, 7): ((4_884, 13_246, 54, 2_834, 9_901, 54, 54),
              (4_930, 9_606)),
    (100, 0): ((5_940, 12_833, 73, 2_671, 10_051, 73, 73),
               (5_265, 10_342)),
    (100, 1): ((6_427, 13_083, 71, 3_263, 7_942, 71, 71),
               (5_252, 10_328)),
    (100, 2): ((7_230, 12_880, 86, 2_755, 10_029, 86, 86),
               (5_763, 11_461)),
    (100, 3): ((7_724, 12_076, 86, 3_073, 9_985, 86, 86),
               (5_861, 11_432)),
    (100, 4): ((6_250, 13_076, 74, 3_460, 8_016, 74, 74),
               (5_289, 10_411)),
    (100, 5): ((6_342, 12_678, 76, 2_924, 9_987, 76, 76),
               (5_370, 10_526)),
    (100, 6): ((7_005, 12_269, 83, 2_558, 9_966, 83, 83),
               (5_611, 10_988)),
    (100, 7): ((6_879, 12_394, 82, 2_972, 10_002, 82, 82),
               (5_524, 10_803)),
    (150, 0): ((8_158, 11_951, 101, 2_990, 10_260, 101, 101),
               (5_883, 11_520)),
    (150, 1): ((10_074, 11_986, 112, 3_929, 8_040, 112, 112),
               (6_261, 12_297)),
    (150, 2): ((9_451, 12_048, 118, 3_048, 10_906, 118, 118),
               (6_448, 12_769)),
    (150, 3): ((10_181, 11_362, 116, 3_170, 10_148, 116, 116),
               (6_483, 12_689)),
    (150, 4): ((9_888, 12_099, 113, 4_260, 8_088, 113, 113),
               (6_270, 12_381)),
    (150, 5): ((9_120, 11_672, 108, 3_324, 10_186, 108, 108),
               (6_041, 11_881)),
    (150, 6): ((9_167, 11_725, 109, 2_766, 10_225, 109, 109),
               (6_278, 12_281)),
    (150, 7): ((8_770, 11_797, 105, 3_028, 10_206, 105, 105),
               (6_025, 11_825)),
    (220, 0): ((12_530, 10_212, 158, 3_595, 10_490, 158, 158),
               (7_252, 14_177)),
    (220, 1): ((13_348, 14_308, 147, 4_539, 9_172, 147, 147),
               (7_676, 14_985)),
    (220, 2): ((12_875, 11_384, 162, 3_249, 11_066, 162, 162),
               (7_416, 14_641)),
    (220, 3): ((14_415, 12_886, 171, 4_020, 10_442, 171, 171),
               (8_286, 16_156)),
    (220, 4): ((13_617, 11_131, 153, 4_432, 8_097, 153, 153),
               (7_139, 14_163)),
    (220, 5): ((15_053, 15_387, 176, 4_158, 10_306, 176, 176),
               (8_907, 17_396)),
    (220, 6): ((11_690, 10_728, 154, 3_285, 10_381, 154, 154),
               (7_014, 13_738)),
    (220, 7): ((12_404, 16_173, 152, 3_490, 10_383, 152, 152),
               (8_323, 16_200)),
    (300, 0): ((15_446, 18_619, 191, 4_935, 12_377, 191, 191),
               (9_781, 19_055)),
    (300, 1): ((19_198, 18_912, 214, 7_061, 12_423, 214, 214),
               (10_485, 20_263)),
    (300, 2): ((16_615, 19_441, 207, 5_470, 15_369, 207, 207),
               (10_321, 20_031)),
    (300, 3): ((18_905, 18_357, 217, 6_420, 12_195, 217, 217),
               (10_730, 20_798)),
    (300, 4): ((18_604, 18_834, 210, 6_314, 12_608, 210, 210),
               (10_342, 20_108)),
    (300, 5): ((16_394, 18_676, 202, 5_937, 11_375, 202, 202),
               (10_064, 19_547)),
    (300, 6): ((14_841, 19_188, 176, 5_338, 12_803, 176, 176),
               (9_504, 18_518)),
    (300, 7): ((17_196, 18_280, 208, 5_780, 11_260, 208, 208),
               (10_098, 19_620)),
}


class TestSmallHeapPins:
    """Quick-tier cycle-exact reference: absolute cycles, marked-set size
    and kernel event counts for small SW + HW collections."""

    @staticmethod
    def _run_gc(n_objects, seed):
        from repro.core.unit import GCUnit
        from repro.swgc import SoftwareCollector
        from tests.conftest import make_random_heap

        heap, _views = make_random_heap(n_objects=n_objects, seed=seed)
        checkpoint = heap.checkpoint()
        sw = SoftwareCollector(heap).collect()
        parity = heap.mark_parity
        n_marked = sum(
            1 for a in heap.objects if heap.view(a).is_marked(parity))
        sw_events = heap.sim.events_processed
        heap.restore(checkpoint)
        hw = GCUnit(heap).collect()
        timing = (
            sw.mark_cycles, sw.sweep_cycles, sw.objects_marked,
            hw.mark_cycles, hw.sweep_cycles, hw.objects_marked, n_marked,
        )
        return timing, (sw_events, heap.sim.events_processed)

    @pytest.mark.parametrize("n_objects,seed", sorted(PINNED_SMALL_GC))
    def test_pinned_gc(self, n_objects, seed):
        assert self._run_gc(n_objects, seed) == \
            PINNED_SMALL_GC[(n_objects, seed)]


#: avrora @ scale=0.05 seed=1 — sw mark/sweep, hw mark/sweep cycles and
#: objects marked, from the paper-scale gc_comparison.
PINNED_CYCLES = [1_096_061, 662_575, 310_147, 339_682, 6_637]
#: sha256(repr(bus events))[:16] for the same workload's traced collection.
PINNED_TRACE_DIGEST = "4e25471016662c74"


@pytest.mark.slow
class TestPinnedIdentityGate:
    """Absolute constants at a paper-relevant scale: a regression that
    shifts any timing rule (e.g. in the DRAM model) trips the gate."""

    def test_pinned_cycles(self):
        from repro.harness.runners import run_gc_comparison
        from repro.workloads.profiles import DACAPO_PROFILES

        comp = run_gc_comparison(DACAPO_PROFILES["avrora"], scale=0.05,
                                 seed=1)
        assert [comp.sw.mark_cycles, comp.sw.sweep_cycles,
                comp.hw.mark_cycles, comp.hw.sweep_cycles,
                comp.sw.objects_marked] == PINNED_CYCLES

    def test_pinned_trace_digest(self):
        import hashlib

        from repro.harness.tracing import trace_collection

        cap = trace_collection("avrora", scale=0.05, seed=1)
        blob = repr(list(cap.bus)).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == PINNED_TRACE_DIGEST
