"""Query-latency simulation: pause freezing and coordinated omission."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.workloads import _stdlib_stream
from repro.workloads._stdlib_stream import floored_exp_ints, km_accept
from repro.workloads.latency import (
    QueryRecord,
    QueryReplay,
    QuerySimulator,
    draw_service_times,
    latency_cdf,
    percentile_summary,
    tail_ratio,
)
from repro.workloads.mutator import GCPauseRecord, MutatorRunResult


def synthetic_run(pause_at=1_000_000, pause_len=500_000,
                  total_mutator=10_000_000, n_pauses=1):
    """A hand-built timeline with known pauses."""
    run = MutatorRunResult(collector="sw")
    cursor = 0
    for i in range(n_pauses):
        cursor += pause_at
        run.pauses.append(GCPauseRecord(
            index=i, start_cycle=cursor, mark_cycles=pause_len,
            sweep_cycles=0, objects_marked=0, cells_freed=0,
        ))
        cursor += pause_len
    run.mutator_cycles = n_pauses * pause_at
    return run


def windowed_run(windows, period):
    """A run whose pause windows are exactly ``[(start, end), ...]`` (in
    the given order) over a ``period``-cycle timeline."""
    run = MutatorRunResult(collector="sw")
    for i, (start, end) in enumerate(windows):
        run.pauses.append(GCPauseRecord(
            index=i, start_cycle=start, mark_cycles=end - start,
            sweep_cycles=0, objects_marked=0, cells_freed=0,
        ))
    run.mutator_cycles = period - run.gc_cycles
    return run


def linear_pause_after(windows, period, t):
    """The first tiled pause window ending after ``t``, by linear scan
    over every epoch from ``t``'s (the lookup before bisection)."""
    epoch = t // period
    while True:
        offset = epoch * period
        for start, end in windows:
            if end + offset > t:
                return start + offset, end + offset
        epoch += 1


def next_pause_start(windows, period, t):
    """The first tiled pause start at or after ``t``."""
    epoch = t // period
    while True:
        for start, _end in windows:
            if start + epoch * period >= t:
                return start + epoch * period
        epoch += 1


def linear_advance(windows, period, t, work):
    """Completion of ``work`` cycles of service started at ``t``, frozen
    during pauses: one linear scan per pause the work meets."""
    if not windows:
        return t + work
    while True:
        start, end = linear_pause_after(windows, period, t)
        if t >= start:
            t = end
            continue
        available = start - t
        if work <= available:
            return t + work
        work -= available
        t = end


def reference_replay(windows, period, arrivals, services, warmup=0,
                     horizon=None, shed_backlog_cycles=None,
                     offline_after_cycle=None):
    """Reference ``QueryReplay.replay``: the per-query loop, one
    independent :func:`linear_advance` per serviced query. Returns
    ``(records, (arrived, completed, in_flight, shed))``."""
    records = []
    prev_completion = 0
    prev_near_gc = False
    completed = in_flight = shed = 0
    for i, (intended, service) in enumerate(zip(arrivals, services)):
        if (offline_after_cycle is not None
                and intended >= offline_after_cycle):
            shed += 1
            continue
        if (shed_backlog_cycles is not None
                and prev_completion - intended > shed_backlog_cycles):
            shed += 1
            continue
        start = max(intended, prev_completion)
        completion = linear_advance(windows, period, start, service)
        near_gc = (completion - start > service
                   or (start > intended and prev_near_gc))
        prev_completion, prev_near_gc = completion, near_gc
        if horizon is not None and completion > horizon:
            in_flight += 1
        else:
            completed += 1
        if i >= warmup:
            records.append(QueryRecord(i, intended, completion, near_gc))
    return records, (len(arrivals), completed, in_flight, shed)


@st.composite
def well_formed_timelines(draw):
    """``(windows, period)``: in order, non-overlapping, inside the period
    and leaving mutator time. Small gaps make boundary cases common:
    zero-length pauses, a pause at cycle 0, one ending at the period."""
    n = draw(st.integers(1, 6))
    windows = []
    cursor = 0
    for _ in range(n):
        start = cursor + draw(st.integers(0, 40))
        cursor = start + draw(st.integers(0, 40))
        windows.append((start, cursor))
    period = cursor + draw(st.integers(0, 40))
    assume(period > sum(end - start for start, end in windows))
    return windows, period


class TestPauseFreezing:
    def test_query_before_pause_completes_normally(self):
        run = synthetic_run()
        sim = QuerySimulator(run, interval_cycles=100_000,
                             service_mean_cycles=10_000, seed=1)
        records = sim.run_queries(n_queries=5, warmup=0)
        assert records[0].latency_cycles < 100_000
        assert not records[0].near_gc

    def test_query_overlapping_pause_absorbs_it(self):
        run = synthetic_run(pause_at=1_000_000, pause_len=500_000)
        sim = QuerySimulator(run, interval_cycles=990_000,
                             service_mean_cycles=50_000, seed=1)
        records = sim.run_queries(n_queries=3, warmup=0)
        straggler = records[1]  # arrives at 990k, runs into the 1M pause
        assert straggler.latency_cycles > 500_000
        assert straggler.near_gc

    def test_coordinated_omission_measured_from_intent(self):
        """Queries queued behind a pause-delayed predecessor still measure
        from their intended start."""
        run = synthetic_run(pause_at=500_000, pause_len=2_000_000)
        sim = QuerySimulator(run, interval_cycles=100_000,
                             service_mean_cycles=50_000, seed=2)
        records = sim.run_queries(n_queries=20, warmup=0)
        # Several queries arrive during the pause; their latencies decrease
        # roughly by the interval as their intended starts advance.
        in_pause = [r for r in records if r.near_gc]
        assert len(in_pause) >= 3
        assert in_pause[0].latency_cycles > in_pause[2].latency_cycles
        # The backlog queries measure from intent, not from issue.
        assert in_pause[1].latency_cycles > 1_000_000

    def test_pauses_tile_past_one_iteration(self):
        run = synthetic_run()
        sim = QuerySimulator(run, interval_cycles=3_000_000,
                             service_mean_cycles=10_000, seed=3)
        records = sim.run_queries(n_queries=30, warmup=0)
        assert len(records) == 30  # timeline wrapped without error


class TestAggregation:
    def test_cdf_monotone(self):
        run = synthetic_run()
        sim = QuerySimulator(run, interval_cycles=150_000,
                             service_mean_cycles=20_000, seed=4)
        cdf = latency_cdf(sim.run_queries(n_queries=200, warmup=10))
        xs = [x for x, _y in cdf]
        ys = [y for _x, y in cdf]
        assert xs == sorted(xs)
        assert ys[-1] == pytest.approx(1.0)

    def test_tail_ratio_reflects_pauses(self):
        # Same GC duty cycle cannot saturate the open-loop system; only the
        # pause length differs.
        short = synthetic_run(pause_at=10_000_000, pause_len=100_000)
        long = synthetic_run(pause_at=10_000_000, pause_len=1_200_000)
        ratios = {}
        for label, run in (("short", short), ("long", long)):
            sim = QuerySimulator(run, interval_cycles=150_000,
                                 service_mean_cycles=15_000, seed=5)
            ratios[label] = tail_ratio(sim.run_queries(1000, warmup=0))
        assert ratios["long"] > ratios["short"]

    def test_empty_records(self):
        assert latency_cdf([]) == []
        with pytest.raises(ValueError):
            tail_ratio([])


class TestEdgeCases:
    """The degenerate inputs the fleet layer now feeds this module."""

    def test_pause_covering_entire_window_rejected(self):
        """No mutator time at all would spin the replay's pause walk
        forever; the simulator must refuse at construction."""
        run = MutatorRunResult(collector="sw", mutator_cycles=0)
        run.pauses.append(GCPauseRecord(
            index=0, start_cycle=0, mark_cycles=1_000_000, sweep_cycles=0,
            objects_marked=0, cells_freed=0))
        with pytest.raises(ValueError, match="entire run window"):
            QuerySimulator(run, seed=1)

    def test_warmup_discarding_everything_is_empty_not_nan(self):
        run = synthetic_run()
        sim = QuerySimulator(run, interval_cycles=100_000,
                             service_mean_cycles=10_000, seed=1)
        records = sim.run_queries(n_queries=50, warmup=100)
        assert records == []
        with pytest.raises(ValueError, match="no records"):
            percentile_summary(records)
        with pytest.raises(ValueError, match="no records"):
            tail_ratio(records)

    def test_empty_replay_schedule(self):
        sim = QueryReplay(synthetic_run(), service_mean_cycles=10_000,
                          seed=1)
        result = sim.replay([])
        assert (result.arrived, result.completed, result.in_flight,
                result.shed) == (0, 0, 0, 0)
        assert result.records == []
        assert result.conserved

    def test_replay_rejects_decreasing_arrivals(self):
        sim = QueryReplay(synthetic_run(), service_mean_cycles=10_000,
                          seed=1)
        with pytest.raises(ValueError, match="non-decreasing"):
            sim.replay([0, 200_000, 100_000])


class TestWellFormedTimeline:
    """Pause windows that cannot tile are rejected at construction, naming
    the offending pause; before, they were accepted and answered wrongly."""

    @pytest.mark.parametrize("windows, message", [
        # Out of order: a query at t=50 used to be served straight
        # through [0, 100).
        ([(200, 300), (0, 100)],
         r"pause 1 \[0, 100\) starts before pause 0 \[200, 300\): "
         r"pauses out of order"),
        ([(0, 200), (100, 300)],
         r"pause 1 \[100, 300\) overlaps pause 0 \[0, 200\)"),
        ([(100, 200), (900, 1100)],
         r"pause 1 \[900, 1100\) ends past the run's 1000 cycles"),
        ([(-100, 50)], r"pause 0 \[-100, 50\) is not a window of the run"),
    ], ids=["out-of-order", "overlapping", "past-the-end", "negative"])
    def test_ill_formed_timeline_rejected(self, windows, message):
        with pytest.raises(ValueError, match=message):
            QueryReplay(windowed_run(windows, period=1000))

    def test_boundary_shapes_accepted(self):
        """Touching, zero-length, at-zero and at-period pauses tile."""
        run = windowed_run([(0, 100), (100, 100), (100, 250), (900, 1000)],
                           period=1000)
        sim = QueryReplay(run)
        assert sim.replay([0], services=[1]).completion == [251]
        assert sim.replay([899], services=[2]).completion == [1251]


class TestPauseLookup:
    """The bisected lookup against the linear scan it replaced."""

    @settings(deadline=None, max_examples=400)
    @given(timeline=well_formed_timelines(), data=st.data())
    def test_lookup_matches_linear_scan(self, timeline, data):
        windows, period = timeline
        sim = QueryReplay(windowed_run(windows, period))
        edges = sorted({0, period - 1} | {c for w in windows for c in w})
        phase = data.draw(st.one_of(st.sampled_from(edges),
                                    st.integers(0, period - 1)))
        t = data.draw(st.integers(0, 5)) * period + phase
        work = data.draw(st.one_of(st.integers(0, 2 * period),
                                   st.integers(0, 40 * period)))
        i, offset = sim._pause_after(t)
        assert (windows[i][0] + offset, windows[i][1] + offset) == \
            linear_pause_after(windows, period, t)
        assert sim.replay([t], services=[work]).completion == \
            [linear_advance(windows, period, t, work)]


class TestReplayOracle:
    """The whole replay, one forward cursor over every query, against
    :func:`reference_replay`'s independent per-query walks."""

    def test_zero_service_at_pause_start_waits_the_pause_out(self):
        """A start exactly at a pause start is inside the pause: even a
        zero-work query waits it out (100 -> 200). A fast path testing
        only ``start + service <= pause start`` would answer 100."""
        sim = QueryReplay(windowed_run([(100, 200)], period=1000))
        result = sim.replay([100], services=[0])
        assert result.completion == [200]
        assert result.near_gc == [True]

    @settings(deadline=None, max_examples=300)
    @given(
        timeline=well_formed_timelines(),
        queries=st.lists(st.tuples(
            st.one_of(st.integers(0, 60), st.integers(0, 5_000)),
            st.booleans(),
            st.one_of(st.integers(0, 40), st.integers(0, 2_000)),
        ), max_size=40),
        warmup=st.integers(0, 10),
        shed=st.one_of(st.none(), st.integers(0, 300)),
        offline=st.one_of(st.none(), st.integers(0, 20_000)),
        horizon=st.one_of(st.none(), st.integers(0, 20_000)),
    )
    @example(timeline=([(100, 200)], 1000), queries=[(100, False, 0)],
             warmup=0, shed=None, offline=None, horizon=None)
    def test_replay_matches_per_query_reference(
            self, timeline, queries, warmup, shed, offline, horizon):
        """Each query arrives ``gap`` after the one before, or with
        ``snap`` at the next tiled pause start from there: arrivals on a
        pause edge are what a wrong fast path gets wrong."""
        windows, period = timeline
        arrivals, services = [], []
        t = 0
        for gap, snap, service in queries:
            t += gap
            if snap:
                t = next_pause_start(windows, period, t)
            arrivals.append(t)
            services.append(service)
        result = QueryReplay(windowed_run(windows, period)).replay(
            arrivals, warmup=warmup, horizon=horizon,
            shed_backlog_cycles=shed, offline_after_cycle=offline,
            services=services)
        records, counters = reference_replay(
            windows, period, arrivals, services, warmup=warmup,
            horizon=horizon, shed_backlog_cycles=shed,
            offline_after_cycle=offline)
        assert result.records == records
        assert (result.arrived, result.completed, result.in_flight,
                result.shed) == counters


class TestQueryReplay:
    def test_regular_schedule_matches_run_queries(self):
        """The differential identity simulate_fleet's dedicated path rests
        on: an explicit [i*interval] schedule replays to the exact records
        run_queries produces (same RNG draws, same completions)."""
        run = synthetic_run(pause_at=700_000, pause_len=400_000, n_pauses=3)
        kwargs = dict(interval_cycles=120_000, service_mean_cycles=30_000,
                      seed=9)
        reference = QuerySimulator(run, **kwargs).run_queries(
            n_queries=300, warmup=25)
        replayed = QueryReplay(run, **kwargs).replay(
            [i * 120_000 for i in range(300)], warmup=25)
        assert replayed.records == reference
        assert replayed.arrived == 300
        assert replayed.shed == 0
        assert replayed.conserved

    @settings(deadline=None, max_examples=60)
    @given(
        gaps=st.lists(st.integers(0, 400_000), min_size=0, max_size=80),
        warmup=st.integers(0, 90),
        shed_intervals=st.one_of(st.none(), st.integers(1, 6)),
        use_horizon=st.booleans(),
        seed=st.integers(0, 5),
    )
    def test_conservation(self, gaps, warmup, shed_intervals, use_horizon,
                          seed):
        """Every arrival is exactly one of completed/in-flight/shed."""
        arrivals = []
        t = 0
        for gap in gaps:
            t += gap
            arrivals.append(t)
        sim = QueryReplay(synthetic_run(), interval_cycles=100_000,
                          service_mean_cycles=40_000, seed=seed)
        shed_cycles = (shed_intervals * 100_000
                       if shed_intervals is not None else None)
        horizon = (arrivals[-1] + 200_000
                   if use_horizon and arrivals else None)
        result = sim.replay(arrivals, warmup=warmup, horizon=horizon,
                            shed_backlog_cycles=shed_cycles)
        assert result.arrived == len(arrivals)
        assert result.conserved
        serviced = result.completed + result.in_flight
        # Records are the post-warmup slice of the serviced queries.
        assert len(result.records) <= serviced
        assert all(r.index >= warmup for r in result.records)
        if shed_cycles is None:
            assert result.shed == 0
        # Latency is measured from intent and is never negative.
        assert all(r.latency_cycles >= 0 for r in result.records)


def reference_service_times(n, mean_cycles, sigma, seed):
    """The service-time stream, one ``lognormvariate`` call per query."""
    draw = random.Random(seed).lognormvariate
    mu = math.log(mean_cycles)
    return [max(1000, int(draw(mu, sigma))) for _ in range(n)]


def skewed(real, direction, ulps=1):
    """``real`` moved ``ulps`` ulps towards ``direction``: a libm that
    rounds differently from the one :mod:`math` uses."""
    def wrong(a):
        out = real(a)
        for _ in range(ulps):
            out = np.nextafter(out, direction)
        return out
    return wrong


class TestServiceTimeStream:
    """``draw_service_times`` is the stdlib's lognormal stream, value for
    value, and stays so where ``np.log``/``np.exp`` disagree with libm."""

    @settings(deadline=None, max_examples=120)
    @given(
        n=st.one_of(st.integers(0, 2), st.integers(0, 1200)),
        mean=st.one_of(st.integers(1, 200_000), st.integers(1, 10**12)),
        sigma=st.floats(0.0, 4.0),
        seed=st.one_of(st.integers(), st.text()),
        block=st.sampled_from([None, 1, 3, 64]),
    )
    @example(n=1, mean=120_000, sigma=0.35, seed=0, block=1)
    def test_matches_lognormvariate(self, n, mean, sigma, seed, block):
        with mock.patch.object(_stdlib_stream, "BLOCK_ATTEMPTS",
                               block or _stdlib_stream.BLOCK_ATTEMPTS):
            drawn = draw_service_times(n, mean, sigma, seed)
        assert drawn == reference_service_times(n, mean, sigma, seed)
        assert all(type(v) is int for v in drawn)

    @pytest.mark.parametrize("direction", [np.inf, -np.inf])
    def test_log_band_redecides_acceptance_with_math_log(self, monkeypatch,
                                                         direction):
        """Each ``zz`` sits on, one ulp above or one ulp below
        ``-math.log(u2)``; an ``np.log`` one ulp off moves the boundary
        and must not move a decision."""
        u2 = [0.3, 0.5, 0.7, 0.123456789, 0.999, 1e-9]
        rows = [(b, u) for u in u2 for b in (
            -math.log(u),
            math.nextafter(-math.log(u), math.inf),
            math.nextafter(-math.log(u), -math.inf))]
        zz = np.array([b for b, _u in rows])
        u2s = np.array([u for _b, u in rows])
        expected = [b <= -math.log(u) for b, u in rows]
        monkeypatch.setattr(np, "log", skewed(np.log, direction))
        assert (zz <= -np.log(u2s)).tolist() != expected  # the trap is set
        assert km_accept(zz, u2s).tolist() == expected

    @pytest.mark.parametrize("direction", [np.inf, -np.inf])
    def test_exp_band_truncates_with_math_exp(self, monkeypatch,
                                              direction):
        """Each ``x`` is within a few ulps of ``log(N)``, so ``exp(x)``
        straddles an integer; an ``np.exp`` two ulps off must not move
        an ``int``. Past 2**52, and for the non-finite, ``math.exp``
        decides and raises as the stdlib does."""
        xs = []
        for n in (1_000, 4_099, 120_000, 7_654_321, 2**40 + 1):
            x = math.log(n)
            for _ in range(3):
                x = math.nextafter(x, -math.inf)
            for _ in range(7):
                xs.append(x)
                x = math.nextafter(x, math.inf)
        xs += [50.0, 200.0, -math.inf, -745.2]
        expected = [max(1000, int(math.exp(x))) for x in xs]
        assert expected[-4] == int(math.exp(50.0)) > 2**63  # a big int
        monkeypatch.setattr(np, "exp", skewed(np.exp, direction, ulps=2))
        naive = np.maximum(np.trunc(np.exp(np.array(xs))), 1000.0)
        assert naive.tolist() != expected  # the trap is set
        assert floored_exp_ints(np.array(xs), 1000) == expected

    @pytest.mark.parametrize("x,error", [
        (1000.0, OverflowError), (math.nan, ValueError)])
    def test_exp_raises_where_the_stdlib_does(self, x, error):
        with pytest.raises(error):
            floored_exp_ints(np.array([5.0, x]), 1000)

    def test_sorted_latencies_are_ascending_ints(self):
        sim = QueryReplay(windowed_run([(100, 200)], period=1000))
        result = sim.replay([0, 90, 300, 310], services=[50, 30, 5, 0])
        latencies = result.sorted_latencies()
        assert latencies == sorted(
            r.completion - r.intended_start for r in result.records)
        assert all(type(v) is int for v in latencies)
        assert sim.replay([]).sorted_latencies() == []
