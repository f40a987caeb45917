"""Kernel semantics: scheduling order, processes, events, termination."""

import pytest

from repro.engine.simulator import (
    Completion,
    Delay,
    Event,
    SimulationError,
    Simulator,
)


class TestScheduling:
    def test_schedule_runs_in_time_order(self, sim):
        order = []
        sim.schedule(10, lambda: order.append("b"))
        sim.schedule(5, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 20

    def test_same_cycle_events_are_fifo(self, sim):
        order = []
        for i in range(5):
            sim.schedule(7, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_run_until_time(self, sim):
        hits = []
        sim.schedule(5, lambda: hits.append(5))
        sim.schedule(50, lambda: hits.append(50))
        sim.run(until=10)
        assert hits == [5]
        assert sim.now == 10
        sim.run()
        assert hits == [5, 50]

    def test_run_advances_clock_to_until_even_if_idle(self, sim):
        sim.run(until=123)
        assert sim.now == 123

    def test_at_absolute_time(self, sim):
        sim.schedule(10, lambda: None)
        hits = []
        sim.at(30, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [30]

    def test_max_events_guard(self, sim):
        def loop():
            sim.schedule(1, loop)

        sim.schedule(0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestEvents:
    def test_trigger_resumes_waiters_with_value(self, sim):
        ev = sim.event()
        got = []
        ev.add_callback(got.append)
        sim.schedule(3, ev.trigger, 42)
        sim.run()
        assert got == [42]

    def test_double_trigger_is_error(self, sim):
        ev = sim.event()
        ev.trigger()
        with pytest.raises(SimulationError):
            ev.trigger()

    def test_callback_after_trigger_fires_immediately(self, sim):
        ev = sim.event()
        ev.trigger("v")
        got = []
        ev.add_callback(got.append)
        sim.run()
        assert got == ["v"]


class TestProcesses:
    def test_process_delays(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield 10
            trace.append(sim.now)
            yield Delay(5)
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0, 10, 15]

    def test_process_waits_on_event(self, sim):
        ev = sim.event()
        out = []

        def proc():
            value = yield ev
            out.append((sim.now, value))

        sim.process(proc())
        sim.schedule(25, ev.trigger, "data")
        sim.run()
        assert out == [(25, "data")]

    def test_process_join(self, sim):
        def child():
            yield 10
            return "result"

        def parent():
            value = yield sim.process(child())
            return value

        p = sim.process(parent())
        sim.run()
        assert p.triggered and p.value == "result"

    def test_yield_from_subroutine(self, sim):
        def sub():
            yield 5
            return 7

        def proc():
            value = yield from sub()
            yield value
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 12

    def test_zero_delay_continues_same_cycle(self, sim):
        def proc():
            yield 0
            yield 0
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 0

    def test_already_triggered_event_fast_path(self, sim):
        ev = sim.event()
        ev.trigger(99)

        def proc():
            value = yield ev
            return value

        p = sim.process(proc())
        sim.run()
        assert p.value == 99

    def test_bad_yield_type_raises(self, sim):
        def proc():
            yield "nope"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_event(self, sim):
        ev = sim.event()
        sim.schedule(40, ev.trigger, "x")
        sim.schedule(100, lambda: None)
        assert sim.run_until(ev) == "x"
        assert sim.now == 40

    def test_run_until_deadlock_detected(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until(ev)


def _traffic(sim, log):
    """Four workers mixing zero-delay hops, short delays, Event handshakes
    and pending Completions, logging every resumption; returns a joiner
    process that finishes with the workers' return values."""

    def worker(k):
        for i in range(12):
            yield (i * k) % 5
            ev = sim.event()
            sim.schedule((i + k) % 3, ev.trigger, (k, i))
            got = yield ev
            log.append((sim.now, "ev", got))
            got = yield Completion(sim, sim.now + i % 4, (k, -i))
            log.append((sim.now, "cp", got))
        return k

    workers = [sim.process(worker(k), name=f"w{k}") for k in range(1, 5)]

    def joiner():
        done = []
        for w in workers:
            done.append((yield w))
        return done

    return sim.process(joiner(), name="joiner")


def _one_run():
    sim, log = Simulator(), []
    done = _traffic(sim, log)
    sim.run()
    return log, done.value, sim.now, sim.events_processed


class TestDrainLoops:
    """Splitting a run into budget- or time-bounded slices must replay the
    exact event order and accounting of one unbounded run: partial drains
    keep the rest of a cycle's bucket queued in FIFO order."""

    def test_reference_run_shape(self):
        log, value, now, events = _one_run()
        assert value == [1, 2, 3, 4]
        assert len(log) == 4 * 12 * 2
        assert (now, events) == (54, 213)

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13, 64, 1000])
    def test_budget_split_matches_one_run(self, budget):
        sim, log = Simulator(), []
        done = _traffic(sim, log)
        while sim.pending_events:
            try:
                sim.run(max_events=budget)
            except SimulationError as err:
                assert "exhausted" in str(err)
        assert (log, done.value, sim.now, sim.events_processed) == _one_run()

    @pytest.mark.parametrize("step", [1, 2, 3, 5, 8, 64])
    def test_until_split_matches_one_run(self, step):
        sim, log = Simulator(), []
        done = _traffic(sim, log)
        while sim.pending_events:
            sim.run(until=sim.now + step)
        ref_log, ref_value, ref_now, ref_events = _one_run()
        assert (log, done.value, sim.events_processed) == \
            (ref_log, ref_value, ref_events)
        assert ref_now <= sim.now < ref_now + step

    @pytest.mark.parametrize("budget", [1, 3, 8, 64])
    def test_run_until_budget_split_matches_one_run(self, budget):
        sim, log = Simulator(), []
        done = _traffic(sim, log)
        while not done.triggered:
            try:
                sim.run_until(done, max_events=budget)
            except SimulationError as err:
                assert "exhausted" in str(err)
        sim.run()
        assert (log, done.value, sim.now, sim.events_processed) == _one_run()

    @staticmethod
    def _boom():
        raise RuntimeError("boom")

    def test_failing_event_is_dequeued_not_counted(self, sim):
        hits = []
        sim.schedule(1, hits.append, "a")
        sim.schedule(1, self._boom)
        sim.schedule(1, hits.append, "c")
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert (hits, sim.events_processed, sim.pending_events) == \
            (["a"], 1, 1)
        sim.run()
        assert (hits, sim.events_processed, sim.pending_events) == \
            (["a", "c"], 2, 0)

    def test_failing_event_in_run_until(self, sim):
        hits = []
        ev = sim.event()
        sim.schedule(2, hits.append, "a")
        sim.schedule(2, self._boom)
        sim.schedule(2, ev.trigger, "done")
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_until(ev)
        assert (hits, sim.events_processed, ev.triggered) == (["a"], 1, False)
        assert sim.run_until(ev) == "done"
        assert sim.events_processed == 2
