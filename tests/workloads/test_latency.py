"""Query-latency simulation: pause freezing and coordinated omission."""

import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.workloads import _stdlib_stream, latency
from repro.workloads._stdlib_stream import floored_exp_ints, km_accept
from repro.workloads.latency import (
    QueryRecord,
    QueryReplay,
    QuerySimulator,
    draw_service_times,
    latency_cdf,
    latency_summary,
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
    over every epoch from ``t``'s (floor division, negative ``t`` too)."""
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
    ``(records, (arrived, completed, in_flight, shed))``; a schedule
    that decreases, or starts before cycle 0, raises ``ValueError``."""
    for i, intended in enumerate(arrivals):
        previous = arrivals[i - 1] if i else 0
        if intended < previous:
            raise ValueError(f"arrival schedule must be non-decreasing: "
                             f"arrivals[{i}] == {intended} < {previous}")
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

    def test_negative_backlog_bound_rejected(self):
        sim = QueryReplay(synthetic_run())
        with pytest.raises(ValueError, match="shed_backlog_cycles -1 is"):
            sim.replay([0, 5], services=[4, 3], shed_backlog_cycles=-1)

    def test_negative_service_rejected(self):
        sim = QueryReplay(synthetic_run())
        with pytest.raises(ValueError, match=r"services\[1\] == -3"):
            sim.replay([0, 5], services=[4, -3])


class TestInt64Guard:
    """The replay computes in int64; what would leave it is refused
    rather than wrapped."""

    @pytest.mark.parametrize("arrivals, services, column", [
        ([0, 2**63], [1, 1], "arrivals"),
        ([0, 1], [1, 2**63], "services"),
        ([-2**63 - 1], [1], "arrivals"),
    ])
    def test_value_outside_int64_rejected(self, arrivals, services, column):
        sim = QueryReplay(synthetic_run())
        with pytest.raises(ValueError,
                           match=f"{column} hold a value outside int64"):
            sim.replay(arrivals, services=services)

    @pytest.mark.parametrize("windows, arrivals, services", [
        # Each value fits; the last arrival plus the total service not.
        ([], [2**62, 2**62], [2**62, 2**62]),
        # The sum fits, but 99 of every 100 cycles are paused: the
        # completion lands about 100 times further out.
        ([(0, 99)], [0], [2**57]),
    ], ids=["sum", "stretched"])
    def test_completion_past_int64_rejected(self, windows, arrivals,
                                            services):
        sim = QueryReplay(windowed_run(windows, period=100))
        with pytest.raises(ValueError, match="complete past int64"):
            sim.replay(arrivals, services=services)

    def test_completion_near_int64_is_exact(self):
        result = QueryReplay(windowed_run([], period=100)).replay(
            [2**62], services=[2**61 + 7])
        assert result.completion.tolist() == [2**62 + 2**61 + 7]


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
        assert sim.replay([0], services=[1]).completion.tolist() == [251]
        assert sim.replay([899], services=[2]).completion.tolist() == [1251]


def linear_warp(windows, period, t):
    """``W(t)``: ``t`` less the tiled pause cycles between cycle 0 and
    ``t`` (plus them, for a negative ``t``), summed window by window over
    every epoch in between."""
    lo, hi = min(0, t), max(0, t)
    paused = 0
    for epoch in range(lo // period, hi // period + 1):
        for start, end in windows:
            offset = epoch * period
            paused += max(0, min(end + offset, hi) - max(start + offset, lo))
    return t - paused if t >= 0 else t + paused


class TestWarpedTime:
    """Mutator time ``W`` and its two inverses against the linear scans:
    :func:`linear_warp` and :func:`linear_advance`, whose epoch is the
    floor division of ``t``, negative ``t`` included."""

    @settings(deadline=None, max_examples=400)
    @given(timeline=well_formed_timelines(), pick=st.integers(0, 10**6),
           on_edge=st.booleans(), epoch=st.integers(-5, 5),
           work=st.one_of(st.just(0), st.integers(0, 80),
                          st.integers(0, 2_000)))
    # One flat stretch across each epoch edge: t = 900 is the tail
    # pause's start, 100 of work fits exactly before the next one.
    @example(timeline=([(0, 100), (900, 1000)], 1000), pick=3,
             on_edge=True, epoch=0, work=0)
    @example(timeline=([(0, 100), (900, 1000)], 1000), pick=800,
             on_edge=False, epoch=1, work=100)
    def test_warp_and_inverses_match_linear_scans(self, timeline, pick,
                                                   on_edge, epoch, work):
        windows, period = timeline
        sim = QueryReplay(windowed_run(windows, period))
        edges = sorted({0, period - 1} | {c for w in windows for c in w})
        phase = edges[pick % len(edges)] if on_edge else pick % period
        t = epoch * period + phase
        w = sim._warp(np.array([t]))
        assert w.tolist() == [linear_warp(windows, period, t)]
        target = w + work
        earliest = int(sim._unwarp(target, "left")[0])
        latest = int(sim._unwarp(target, "right")[0])
        # The defining properties: the first and the last cycle at the
        # target, with ``W`` below it just before and above it just after.
        for cycle in (earliest, latest):
            assert linear_warp(windows, period, cycle) == target[0]
        assert linear_warp(windows, period, earliest - 1) < target[0]
        assert linear_warp(windows, period, latest + 1) > target[0]
        # Work completes at the earliest; zero work waits out a pause.
        assert (earliest if work else latest) == \
            linear_advance(windows, period, t, work)
        if t >= 0:
            assert sim.replay([t], services=[work]).completion.tolist() == \
                [linear_advance(windows, period, t, work)]

    def test_far_arrivals_allocate_per_pause_not_per_epoch(self):
        """Arrivals near 10**9 on a 5-cycle period lie 2*10**8 epochs in:
        the lookups divide to find the epoch and allocate only a few
        arrays the size of the schedule."""
        windows, period = [(1, 3)], 5
        sim = QueryReplay(windowed_run(windows, period))
        arrivals = [10**9 + 7 * i for i in range(50)]
        services = [i % 4 for i in range(50)]
        tracemalloc.start()
        try:
            result = sim.replay(arrivals, services=services)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        records, _counters = reference_replay(windows, period, arrivals,
                                              services)
        assert result.records == records


class TestReplayOracle:
    """The whole replay, vectorised in mutator time, against
    :func:`reference_replay`'s independent per-query walks."""

    def test_zero_service_at_pause_start_waits_the_pause_out(self):
        """A start exactly at a pause start is inside the pause: even a
        zero-work query waits it out (100 -> 200), by the right inverse
        of ``W``. The left inverse would answer 100."""
        sim = QueryReplay(windowed_run([(100, 200)], period=1000))
        result = sim.replay([100], services=[0])
        assert result.completion.tolist() == [200]
        assert result.near_gc.tolist() == [True]

    @settings(deadline=None, max_examples=300)
    @given(
        timeline=well_formed_timelines(),
        origin=st.one_of(st.just(0), st.integers(-40, 40)),
        queries=st.lists(st.tuples(
            st.one_of(st.integers(0, 60), st.integers(0, 5_000)),
            st.booleans(),
            st.one_of(st.integers(0, 40), st.integers(0, 2_000)),
        ), max_size=40),
        bulk=st.one_of(st.none(), st.tuples(st.integers(1_000, 1_200),
                                            st.integers(0, 2**32))),
        warmup=st.integers(0, 10),
        shed=st.one_of(st.none(), st.integers(0, 300)),
        offline=st.one_of(st.none(), st.integers(0, 20_000),
                          st.integers(0, 100_000)),
        horizon=st.one_of(st.none(), st.integers(0, 20_000),
                          st.integers(0, 100_000)),
        span=st.sampled_from([None, 1, 4, 16]),
    )
    @example(timeline=([(100, 200)], 1000), origin=0,
             queries=[(100, False, 0)], bulk=None, warmup=0, shed=None,
             offline=None, horizon=None, span=None)
    # A pause at cycle 0 and one ending at the period: one flat stretch
    # across every epoch edge. Zero work at a pause start waits it out,
    # across the edge too (900 -> 1100, 1000 -> 1100, 1900 -> 2100);
    # work that fits exactly completes at the pause start (850 + 50 ->
    # 900, 1700 + 200 -> 1900).
    @example(timeline=([(0, 100), (900, 1000)], 1000), origin=0,
             queries=[(0, False, 0), (850, False, 50), (50, False, 0),
                      (100, False, 0), (700, False, 200), (10, False, 0),
                      (0, True, 100)],
             bulk=None, warmup=0, shed=None, offline=None, horizon=None,
             span=None)
    # A shed burst ends at an arrival exactly ``shed`` behind the last
    # completion (250 - 250 = 0 is not > 0): that one is served.
    @example(timeline=([(100, 200)], 1000), origin=0,
             queries=[(0, False, 150), (240, False, 10), (10, False, 10)],
             bulk=None, warmup=0, shed=0, offline=None, horizon=None,
             span=None)
    # Overloaded with every queued query shed: a piece opened at a query
    # that queued would be served as if exact.
    @example(timeline=([(0, 0)], 1), origin=0, queries=[],
             bulk=(1000, 0), warmup=0, shed=0, offline=None, horizon=None,
             span=None)
    def test_replay_matches_per_query_reference(
            self, timeline, origin, queries, bulk, warmup, shed, offline,
            horizon, span):
        """Each query arrives ``gap`` after the one before, or with
        ``snap`` at the next tiled pause start from there: arrivals on a
        pause edge are what a wrong inverse gets wrong. ``bulk`` appends
        a thousand-odd seeded arrivals faster than the server drains
        them, so a shedding replay resumes after many bursts, from
        stretches as short as ``span`` (``SHED_BLOCK``). A schedule from
        a negative ``origin`` is refused, as the reference refuses it."""
        windows, period = timeline
        queries = list(queries)
        if bulk is not None:
            count, seed = bulk
            rng = random.Random(seed)
            queries += [
                (rng.choice((0, rng.randrange(60), rng.randrange(400))),
                 rng.random() < 0.2,
                 rng.choice((0, rng.randrange(40), rng.randrange(300))))
                for _ in range(count)]
        arrivals, services = [], []
        t = origin
        for gap, snap, service in queries:
            t += gap
            if snap:
                t = next_pause_start(windows, period, t)
            arrivals.append(t)
            services.append(service)
        kwargs = dict(warmup=warmup, horizon=horizon,
                      shed_backlog_cycles=shed, offline_after_cycle=offline)
        sim = QueryReplay(windowed_run(windows, period))
        with mock.patch.object(latency, "SHED_BLOCK",
                               span or latency.SHED_BLOCK):
            try:
                records, counters = reference_replay(
                    windows, period, arrivals, services, **kwargs)
            except ValueError as refused:
                with pytest.raises(ValueError, match=re.escape(str(refused))):
                    sim.replay(arrivals, services=services, **kwargs)
                return
            result = sim.replay(arrivals, services=services, **kwargs)
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
        reference = reference_service_times(n, mean, sigma, seed)
        with mock.patch.object(_stdlib_stream, "BLOCK_ATTEMPTS",
                               block or _stdlib_stream.BLOCK_ATTEMPTS):
            if any(v >> 63 for v in reference):  # past int64: refused
                with pytest.raises(ValueError, match="leaves int64"):
                    draw_service_times(n, mean, sigma, seed)
                return
            drawn = draw_service_times(n, mean, sigma, seed)
        assert drawn.dtype == np.int64
        assert drawn.tolist() == reference

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
        xs += [42.0, math.log(2**63), -math.inf, -745.2]
        expected = [max(1000, int(math.exp(x))) for x in xs]
        assert 2**52 < expected[-4] < expected[-3] < 2**63  # int64 holds
        monkeypatch.setattr(np, "exp", skewed(np.exp, direction, ulps=2))
        naive = np.maximum(np.trunc(np.exp(np.array(xs))), 1000.0)
        assert naive.tolist() != expected  # the trap is set
        assert floored_exp_ints(np.array(xs), 1000).tolist() == expected

    @pytest.mark.parametrize("x,error", [
        (1000.0, OverflowError), (math.nan, ValueError)])
    def test_exp_raises_where_the_stdlib_does(self, x, error):
        with pytest.raises(error):
            floored_exp_ints(np.array([5.0, x]), 1000)

    @pytest.mark.parametrize("x", [50.0, math.log(2**63) + 1e-12, 200.0])
    def test_draw_past_int64_raises(self, x):
        """The stdlib's draw would be a Python int of 2**63 or more; an
        int64 array cannot hold it, so the draw is refused."""
        assert int(math.exp(x)) >> 63
        with pytest.raises(ValueError, match="leaves int64"):
            floored_exp_ints(np.array([5.0, x]), 1000)

    def test_sorted_latencies_are_ascending_ints(self):
        sim = QueryReplay(windowed_run([(100, 200)], period=1000))
        result = sim.replay([0, 90, 300, 310], services=[50, 30, 5, 0])
        latencies = result.sorted_latencies()
        assert latencies.tolist() == sorted(
            r.completion - r.intended_start for r in result.records)
        assert latencies.dtype == np.int64
        assert sim.replay([]).sorted_latencies().size == 0

    def test_summary_of_the_array_equals_the_summary_of_the_list(self):
        """The fleet hands ``latency_summary`` the sorted array; its ranks
        are the same Python floats the list gives."""
        sim = QueryReplay(windowed_run([(100, 200)], period=1000))
        result = sim.replay(list(range(0, 4000, 37)), warmup=3)
        array = latency_summary(result.sorted_latencies())
        listed = latency_summary(result.sorted_latencies().tolist())
        assert array == listed
        assert all(type(v) is float for v in array.values())
