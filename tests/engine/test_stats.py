"""Statistics collectors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.stats import (
    BandwidthTracker,
    Counter,
    Histogram,
    IntervalTracker,
    StatsRegistry,
    TimeSeries,
    geomean,
    weighted_mean,
)


class TestRegistry:
    def test_inc_get_total(self):
        reg = StatsRegistry()
        reg.inc("mem.reads.cpu", 3)
        reg.inc("mem.reads.marker")
        reg.inc("mem.writes.cpu", 2)
        assert reg.get("mem.reads.cpu") == 3
        assert reg.total("mem.reads") == 4
        assert reg.with_prefix("mem.writes") == {"mem.writes.cpu": 2}

    def test_merge_and_reset(self):
        a, b = StatsRegistry(), StatsRegistry()
        a.inc("x", 1)
        b.inc("x", 2)
        b.inc("y", 5)
        a.merge(b)
        assert a.get("x") == 3 and a.get("y") == 5
        a.reset()
        assert a.as_dict() == {}

    def test_counter(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert int(c) == 5


class TestHistogram:
    def test_mean_and_percentile(self):
        h = Histogram()
        for v in [1, 1, 2, 3, 10]:
            h.add(v)
        assert h.mean() == pytest.approx(3.4)
        assert h.percentile(50) == 2
        assert h.percentile(100) == 10

    def test_top(self):
        h = Histogram()
        h.add(5, count=10)
        h.add(7, count=3)
        assert h.top(1) == [(5, 10)]

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(50)

    def test_empty_percentile_default(self):
        assert Histogram().percentile(50, default=0) == 0
        assert Histogram().percentile(99, default=-1) == -1

    def test_single_sample_every_percentile(self):
        h = Histogram()
        h.add(42)
        for p in (0, 1, 50, 99, 100):
            assert h.percentile(p) == 42

    def test_percentile_out_of_range(self):
        h = Histogram()
        h.add(1)
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(100.5)
        # The range check fires before the emptiness check/default.
        with pytest.raises(ValueError):
            Histogram().percentile(101, default=0)

    def test_add_rejects_non_finite(self):
        h = Histogram()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                h.add(bad)
        assert h.n == 0

    def test_add_finite_float_truncates(self):
        h = Histogram()
        h.add(3.7)
        assert h.counts() == {3: 1}

    def test_add_zero_and_negative_count(self):
        h = Histogram()
        h.add(5, count=0)
        assert h.n == 0 and h.counts() == {}
        with pytest.raises(ValueError):
            h.add(5, count=-1)

    def test_empty_mean(self):
        assert Histogram().mean() == 0.0

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_percentile_bounds(self, values):
        h = Histogram()
        for v in values:
            h.add(v)
        assert min(values) <= h.percentile(50) <= max(values)
        assert h.percentile(100) == max(values)


class TestBandwidth:
    def test_binned(self):
        bw = BandwidthTracker()
        bw.record(0, 64)
        bw.record(50, 64)
        bw.record(150, 128)
        bins = bw.binned(100)
        assert bins[0] == (0, 1.28)
        assert bins[1] == (100, 1.28)

    def test_binned_window(self):
        bw = BandwidthTracker()
        for t in range(0, 1000, 100):
            bw.record(t, 100)
        window = bw.binned_window(200, 600, 200)
        assert len(window) == 2
        assert bw.window_bytes(200, 600) == 400

    def test_average_gbps(self):
        bw = BandwidthTracker()
        bw.record(0, 800)
        bw.record(100, 800)
        assert bw.average_gbps() == pytest.approx(16.0)

    def test_bad_bin_raises(self):
        bw = BandwidthTracker()
        bw.record(0, 1)
        with pytest.raises(ValueError):
            bw.binned(0)


class ListTracker:
    """The tracker as one ``(time, bytes)`` tuple per record: the oracle
    the columnar :class:`BandwidthTracker` must agree with exactly."""

    def __init__(self):
        self.records = []

    def record(self, time, nbytes):
        self.records.append((time, nbytes))

    def binned(self, bin_cycles):
        if not self.records:
            return []
        start = min(t for t, _ in self.records)
        end = max(t for t, _ in self.records)
        return self._bins(start, (end - start) // bin_cycles + 1,
                          bin_cycles, end + 1)

    def binned_window(self, start, end, bin_cycles):
        if end <= start:
            return []
        return self._bins(start, (end - start - 1) // bin_cycles + 1,
                          bin_cycles, end)

    def _bins(self, start, nbins, bin_cycles, end):
        totals = [0] * nbins
        for time, nbytes in self.records:
            if start <= time < end:
                totals[(time - start) // bin_cycles] += nbytes
        return [(start + i * bin_cycles, totals[i] / bin_cycles)
                for i in range(nbins)]

    def window_bytes(self, start, end):
        return sum(b for t, b in self.records if start <= t < end)

    def average_gbps(self, span_cycles=None):
        if span_cycles is None:
            if len(self.records) < 2:
                return 0.0
            span_cycles = self.records[-1][0] - self.records[0][0]
        if span_cycles <= 0:
            return 0.0
        return sum(b for _, b in self.records) / span_cycles


#: Unsorted completion times (a pipe's records arrive out of order),
#: sizes from 0 up to the column's limit, and each record's busy cycles.
RECORDS = st.lists(st.tuples(st.integers(0, 3000),
                             st.integers(0, 2**32 - 1),
                             st.integers(0, 100)), max_size=60)


def typed(values):
    """Values with their types, so ``1`` and ``1.0`` do not compare equal."""
    if isinstance(values, list):
        return [typed(v) for v in values]
    if isinstance(values, tuple):
        return tuple(typed(v) for v in values)
    return type(values).__name__, values


class TestColumnarTrackerEqualsTupleLog:
    """Every reader of the columnar log returns the values, and the
    types, a list of ``(time, bytes)`` tuples gives."""

    @staticmethod
    def queries(data, times):
        """One call of each reader, on windows drawn around ``times``: at
        record times and one past them, and bins from 1 cycle to more
        than the whole span."""
        edges = st.sampled_from(sorted({0, 3001, *times,
                                        *(t + 1 for t in times)}))
        point = st.one_of(st.integers(-5, 3005), edges)
        start, end = data.draw(point), data.draw(point)
        span = max(times, default=0) - min(times, default=0)
        bin_cycles = data.draw(st.one_of(
            st.just(1), st.integers(1, 200), st.just(span + 1),
            st.integers(span + 1, 10 * span + 10)))
        span_cycles = data.draw(st.integers(-3, 5000))
        return [("binned", bin_cycles),
                ("binned_window", start, end, bin_cycles),
                ("window_bytes", start, end),
                ("average_gbps",),
                ("average_gbps", span_cycles)]

    @given(records=RECORDS, split=st.integers(0, 60), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_reader_matches(self, records, split, data):
        columns, oracle = BandwidthTracker(), ListTracker()
        # Reading half-way must not stop the columns from growing.
        for part in (records[:split], records[split:]):
            for time, nbytes, busy in part:
                columns.record(time, nbytes, busy)
                oracle.record(time, nbytes)
            for name, *args in self.queries(
                    data, [t for t, _ in oracle.records]):
                assert (typed(getattr(columns, name)(*args))
                        == typed(getattr(oracle, name)(*args))), name
        assert len(columns._times) == len(records)
        assert columns.total_bytes == sum(b for _, b, _ in records)
        assert columns.busy_cycles == sum(c for _, _, c in records)

    @pytest.mark.parametrize("records", [[], [(7, 64)]])
    def test_no_record_and_one_record(self, records):
        columns, oracle = BandwidthTracker(), ListTracker()
        for time, nbytes in records:
            columns.record(time, nbytes)
            oracle.record(time, nbytes)
        for start, end in [(0, 0), (7, 7), (7, 8), (0, 7), (8, 20), (-1, 99)]:
            for bins in (1, 3, 1000):
                assert (typed(columns.binned_window(start, end, bins))
                        == typed(oracle.binned_window(start, end, bins)))
                assert (typed(columns.binned(bins))
                        == typed(oracle.binned(bins)))
            assert (typed(columns.window_bytes(start, end))
                    == typed(oracle.window_bytes(start, end)))
        assert typed(columns.average_gbps()) == typed(oracle.average_gbps())


class TestIntervals:
    def test_mean_interval(self):
        it = IntervalTracker()
        for t in (0, 10, 20, 40):
            it.record(t)
        assert it.mean_interval() == pytest.approx(40 / 3)
        assert it.span == 40

    def test_single_sample(self):
        it = IntervalTracker()
        it.record(5)
        assert it.mean_interval() == 0.0


class TestTimeSeries:
    def test_points(self):
        ts = TimeSeries()
        ts.sample(1, 2.0)
        ts.sample(5, 3.0)
        assert ts.points() == [(1, 2.0), (5, 3.0)]
        assert len(ts) == 2

    def test_sample_rejects_non_finite(self):
        ts = TimeSeries()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ts.sample(0, bad)
        assert len(ts) == 0


class TestAggregates:
    def test_geomean(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_weighted_mean(self):
        assert weighted_mean([(10, 1), (20, 3)]) == pytest.approx(17.5)
        assert weighted_mean([]) == 0.0

    def test_weighted_mean_skips_non_finite(self):
        nan, inf = float("nan"), float("inf")
        assert weighted_mean([(10, 1), (nan, 5)]) == pytest.approx(10.0)
        assert weighted_mean([(10, 1), (20, inf)]) == pytest.approx(10.0)
        assert weighted_mean([(nan, 1)]) == 0.0

    def test_geomean_rejects_non_finite(self):
        with pytest.raises(ValueError):
            geomean([2.0, float("nan")])
        with pytest.raises(ValueError):
            geomean([2.0, float("inf")])
