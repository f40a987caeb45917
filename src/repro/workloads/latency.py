"""Query-latency simulation with coordinated-omission correction (Fig. 1b).

"We took the lusearch DaCapo benchmark ... and recorded request latencies
of a 10K query run (discarding the first 1K queries for warm-up), assuming
that a request is issued every 100ms and accounting for coordinated
omission."

The simulator replays an open-loop query schedule against a benchmark
timeline (mutator segments interleaved with GC pauses from a
:class:`~repro.workloads.mutator.MutatorRunResult`, tiled to cover the
run). A query's service only progresses during mutator segments; queries
arriving during (or queueing behind) a pause absorb its full duration.
Coordinated omission is handled the way Tene prescribes: latency is
measured from the *intended* arrival time, never from a delayed issue.

Scale note: our simulated pauses are milliseconds (scaled-down heaps), so
the default inter-arrival gap is scaled to preserve the paper's ratio of
pause duration to arrival interval; the CDF's *shape* — a short head and a
pause-induced tail two orders of magnitude long — is the reproduced result.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.workloads._stdlib_stream import floored_exp_ints, normal_deviates
from repro.workloads.mutator import MutatorRunResult


@dataclass
class QueryRecord:
    """One query of the open-loop run."""

    index: int
    intended_start: int  # cycles on the run timeline
    completion: int
    near_gc: bool  # overlapped (or queued behind) a GC pause

    @property
    def latency_cycles(self) -> int:
        return self.completion - self.intended_start

    @property
    def latency_ms(self) -> float:
        return self.latency_cycles / 1e6


@dataclass
class ReplayResult:
    """Outcome of replaying an explicit arrival schedule.

    The post-warm-up *serviced* queries are held as four parallel
    columns (shed queries never execute and leave no entry); the
    counters account for every arrival exactly once:
    ``arrived == completed + in_flight + shed``. A replay builds no
    object per query: :attr:`records` materialises the rows as
    :class:`QueryRecord` only when asked.
    """

    index: List[int]        # arrival index of each serviced query
    intended: List[int]     # its intended start, cycles
    completion: List[int]
    near_gc: List[bool]
    arrived: int
    completed: int  # serviced with completion <= horizon (incl. warm-up)
    in_flight: int  # serviced but still running at the horizon
    shed: int       # dropped by the backlog admission check

    @property
    def records(self) -> List[QueryRecord]:
        return [QueryRecord(*row) for row in zip(
            self.index, self.intended, self.completion, self.near_gc)]

    def sorted_latencies(self) -> List[int]:
        """The serviced queries' latencies in cycles, ascending."""
        latencies = np.array(self.completion, dtype=np.int64)
        latencies -= np.array(self.intended, dtype=np.int64)
        latencies.sort()
        return latencies.tolist()

    @property
    def conserved(self) -> bool:
        return self.arrived == self.completed + self.in_flight + self.shed


#: Shape of the lognormal service-time distribution.
SERVICE_SIGMA = 0.35


def draw_service_times(n: int, mean_cycles: int, sigma: float,
                       seed: int) -> List[int]:
    """The first ``n`` service times of the stream seeded by ``seed``.

    Lognormal around ``mean_cycles`` with shape ``sigma``, floored at 1000
    cycles: ``max(1000, int(rng.lognormvariate(log(mean_cycles), sigma)))``
    for ``rng = random.Random(seed)``, value for value, drawn in numpy
    blocks (:mod:`repro.workloads._stdlib_stream`). A replay consumes
    exactly one per arrival, in arrival order, whether the query is then
    served or shed, so the list depends on nothing but these four values:
    the fleet draws it once per tenant and hands the same list to every
    policy's replay.
    """
    mu = math.log(mean_cycles)
    return floored_exp_ints(mu + normal_deviates(n, seed) * sigma, 1000)


class QueryReplay:
    """Open-loop single-server replay of an arrival schedule over a
    GC-pause timeline.

    The fleet layer sprays one global arrival stream across tenants, so
    each tenant replays an irregular slice of it; :class:`QuerySimulator`
    replays Fig. 1b's regular schedule through the same loop.
    """

    def __init__(
        self,
        run: MutatorRunResult,
        interval_cycles: int = 1_000_000,  # 1 ms at 1 GHz (scaled 100 ms)
        service_mean_cycles: int = 120_000,
        service_sigma: float = SERVICE_SIGMA,
        seed: int = 42,
    ):
        self.run = run
        self.interval = interval_cycles
        self.service_mean = service_mean_cycles
        self.service_sigma = service_sigma
        self.seed = seed
        # One period of the timeline, as parallel start/end lists; ends
        # are sorted (``_tile_pauses`` rejects anything else), which is
        # what the bisected re-seek and the forward cursor rely on.
        self._period = run.total_cycles
        pauses = self._tile_pauses(self._period)
        self._starts = [start for start, _end in pauses]
        self._ends = [end for _start, end in pauses]

    def _tile_pauses(self, period: int) -> List[Tuple[int, int]]:
        """Pause windows [(start, end)] of one run period; lookups tile
        them modulo ``period`` so the schedule can extend past one
        benchmark iteration (DaCapo loops internally).

        Only a well-formed timeline tiles: pauses in start order, none
        overlapping the one before it, none ending past ``period``.
        Anything else would be answered wrongly (a query could be served
        through a pause it sits inside), so it is rejected here, at
        construction, naming the first offending pause. So is a run whose
        pauses cover the entire window: with no mutator time for service
        to progress, :meth:`replay`'s walk would spin forever hopping
        from one tiled pause straight into the next.
        """
        base = [(s, e) for kind, s, e in self.run.timeline() if kind == "gc"]
        if not base or period <= 0:
            return []
        prev_start = prev_end = 0
        for i, (start, end) in enumerate(base):
            before = f"pause {i - 1} [{prev_start}, {prev_end})"
            if start < 0 or end < start:
                problem = "is not a window of the run"
            elif start < prev_start:
                problem = f"starts before {before}: pauses out of order"
            elif start < prev_end:
                problem = f"overlaps {before}"
            elif end > period:
                problem = f"ends past the run's {period} cycles"
            else:
                prev_start, prev_end = start, end
                continue
            raise ValueError(f"ill-formed pause timeline: pause {i} "
                             f"[{start}, {end}) {problem}")
        covered = sum(end - start for start, end in base)
        if covered >= period:
            raise ValueError(
                f"GC pauses cover the entire run window ({covered} of "
                f"{period} cycles): queries could never complete")
        return base

    def _pause_after(self, t: int) -> Tuple[int, int]:
        """``(i, offset)``: pause ``i`` shifted by ``offset`` cycles is
        the first tiled pause window that ends after time ``t``.

        ``divmod`` places ``t`` in its epoch (which repetition of the run)
        and bisection finds the pause within it; past the epoch's last
        pause the answer is the next epoch's first. :meth:`replay` calls
        it only to re-seek its cursor past an idle gap.
        """
        period = self._period
        epoch, phase = divmod(t, period)
        i = bisect_right(self._ends, phase)
        if i == len(self._ends):
            return 0, (epoch + 1) * period
        return i, epoch * period

    def replay(
        self,
        arrivals: Sequence[int],
        warmup: int = 0,
        horizon: Optional[int] = None,
        shed_backlog_cycles: Optional[int] = None,
        offline_after_cycle: Optional[int] = None,
        services: Optional[Sequence[int]] = None,
    ) -> ReplayResult:
        """Run the schedule; latency is measured from intended arrival.

        ``warmup`` discards the first N records (they are still simulated —
        they consume service draws and queue behind-schedule work exactly
        like later queries). ``horizon`` splits serviced queries into
        completed vs in-flight at a cutoff cycle; ``None`` means no cutoff
        (everything serviced counts as completed).
        ``shed_backlog_cycles`` models load shedding: a query arriving when
        the server is running more than that many cycles behind is dropped
        without service. ``offline_after_cycle`` models a crashed tenant
        (fleet fault plane): arrivals at or after that cycle are shed and
        stay accounted by the conservation law. ``services`` gives one
        service time per arrival, as :func:`draw_service_times` returns
        them for this replay's count, mean, sigma and seed; ``None`` draws
        them here. Shed queries consume their draw too, so the pre-crash
        prefix replays byte-identically to the fault-free run. An empty
        schedule returns a zero-count result.
        """
        if services is None:
            services = draw_service_times(len(arrivals), self.service_mean,
                                          self.service_sigma, self.seed)
        elif len(services) != len(arrivals):
            raise ValueError(f"{len(services)} service times for "
                             f"{len(arrivals)} arrivals")
        starts, ends, period = self._starts, self._ends, self._period
        n_pauses = len(ends)
        # The cursor: pause ``i`` shifted by ``offset`` is the tiled
        # window [p_start, p_end); every window before it ends at or
        # before the last service walk. Service starts never decrease, so
        # the cursor only moves forward: by the walk below, or by one
        # ``_pause_after`` re-seek when a start jumps past its window. A
        # pause-free timeline (e.g. a crashed tenant whose collections
        # were all cancelled) has an unreachable window and serves
        # undisturbed.
        i = offset = 0
        p_start = p_end = math.inf
        if n_pauses:
            p_start, p_end = starts[0], ends[0]
        if horizon is None:
            horizon = math.inf
        if offline_after_cycle is None:
            offline_after_cycle = math.inf
        if shed_backlog_cycles is None:
            shed_backlog_cycles = math.inf
        index: List[int] = []
        intended_col: List[int] = []
        completion_col: List[int] = []
        near_gc_col: List[bool] = []
        prev_completion = 0
        prev_intended = 0
        prev_near_gc = False
        completed = in_flight = shed = 0
        for g, intended in enumerate(arrivals):
            if intended < prev_intended:
                raise ValueError(
                    f"arrival schedule must be non-decreasing: "
                    f"arrivals[{g}] == {intended} < {prev_intended}")
            prev_intended = intended
            if (intended >= offline_after_cycle
                    or prev_completion - intended > shed_backlog_cycles):
                shed += 1
                continue
            service = services[g]
            start = intended if intended > prev_completion \
                else prev_completion
            if p_end <= start:
                i, offset = self._pause_after(start)
                p_start, p_end = starts[i] + offset, ends[i] + offset
            # Walk while the work reaches the cursor's window. A start
            # exactly at p_start is inside the pause, even for zero work:
            # it waits the pause out.
            t, work = start, service
            while not (t < p_start and work <= p_start - t):
                if t < p_start:
                    work -= p_start - t
                t = p_end
                i += 1
                if i == n_pauses:
                    i = 0
                    offset += period
                p_start, p_end = starts[i] + offset, ends[i] + offset
            completion = t + work
            # "The colors indicate whether a query was close to a pause":
            # either it absorbed a pause directly, or it queued behind a
            # pause-delayed predecessor (ordinary queueing doesn't count).
            near_gc = (completion - start > service) or (
                start > intended and prev_near_gc
            )
            prev_completion = completion
            prev_near_gc = near_gc
            if completion > horizon:
                in_flight += 1
            else:
                completed += 1
            if g >= warmup:
                index.append(g)
                intended_col.append(intended)
                completion_col.append(completion)
                near_gc_col.append(near_gc)
        return ReplayResult(index=index, intended=intended_col,
                            completion=completion_col, near_gc=near_gc_col,
                            arrived=len(arrivals), completed=completed,
                            in_flight=in_flight, shed=shed)


class QuerySimulator(QueryReplay):
    """Fig. 1b's regular open-loop schedule — one query every
    ``interval_cycles`` — replayed through :meth:`QueryReplay.replay`."""

    def run_queries(self, n_queries: int = 10_000,
                    warmup: int = 1_000) -> List[QueryRecord]:
        """Replay ``[i * interval for i in range(n_queries)]``; returns
        the post-warm-up records.

        When fewer queries arrive than the warm-up discards
        (``n_queries <= warmup``) the returned list is empty — every query
        was warm-up — and downstream summaries (:func:`percentile_summary`,
        :func:`tail_ratio`) raise ``ValueError("no records")`` rather than
        emitting NaNs.
        """
        arrivals = [i * self.interval for i in range(n_queries)]
        return self.replay(arrivals, warmup=warmup).records


def latency_cdf(records: Sequence[QueryRecord]) -> List[Tuple[float, float]]:
    """[(latency_ms, cumulative_fraction), ...] sorted by latency."""
    if not records:
        return []
    latencies = sorted(r.latency_ms for r in records)
    n = len(latencies)
    return [(lat, (i + 1) / n) for i, lat in enumerate(latencies)]


def _sorted_latency_cycles(records: Sequence[QueryRecord]) -> List[int]:
    """The records' latencies in cycles, ascending."""
    return sorted(r.completion - r.intended_start for r in records)


def _nearest_rank_ms(latencies: Sequence[int], p: float) -> float:
    """Nearest-rank ``p``-th percentile of sorted cycle latencies, in ms;
    raises on none."""
    if not latencies:
        raise ValueError("no records")
    rank = max(1, math.ceil(p / 100.0 * len(latencies)))
    return latencies[rank - 1] / 1e6


def latency_summary(
    latencies: Sequence[int],
    percentiles: Sequence[float] = (50.0, 90.0, 99.0, 99.9),
) -> dict:
    """{"p50": ms, ..., "max": ms} of ascending cycle latencies.

    Only the reported ranks are converted to milliseconds (the same
    floats ``QueryRecord.latency_ms`` gives). The fleet passes
    :meth:`ReplayResult.sorted_latencies` straight in.
    """
    out = {f"p{p:g}": _nearest_rank_ms(latencies, p) for p in percentiles}
    out["max"] = _nearest_rank_ms(latencies, 100.0)
    return out


def percentile_summary(
    records: Sequence[QueryRecord],
    percentiles: Sequence[float] = (50.0, 90.0, 99.0, 99.9),
) -> dict:
    """:func:`latency_summary` of a query run's records."""
    return latency_summary(_sorted_latency_cycles(records), percentiles)


@dataclass
class LatencyComparison:
    """STW vs concurrent collection under the same open-loop query stream.

    The schedule (inter-arrival gap, service-time distribution, RNG seed)
    is derived once from the STW run and applied to both timelines, so any
    difference in the percentile columns is pause-attributed by
    construction.
    """

    stw: dict  # latency_summary of the STW run
    concurrent: dict
    stw_max_pause_ms: float
    concurrent_max_pause_ms: float
    interval_cycles: int
    service_mean_cycles: int
    n_queries: int

    @property
    def tail_improvement(self) -> float:
        """p99.9 ratio, STW over concurrent (>1 means concurrent wins)."""
        conc = self.concurrent["p99.9"]
        return self.stw["p99.9"] / conc if conc > 0 else float("inf")


def compare_stw_concurrent(
    stw_run: MutatorRunResult,
    concurrent_run: MutatorRunResult,
    n_queries: int = 10_000,
    warmup: int = 1_000,
    interval_cycles: int = 0,
    service_mean_cycles: int = 0,
    seed: int = 42,
) -> LatencyComparison:
    """Replay one query schedule against both timelines (Fig. 1b extended).

    Zero ``interval_cycles``/``service_mean_cycles`` means "derive from the
    STW run's mean pause", preserving the paper's ratio of pause duration
    to arrival interval at our scaled-down heap sizes.
    """
    if not stw_run.pauses:
        raise ValueError("STW run has no pauses to scale the schedule from")
    mean_pause = stw_run.gc_cycles // len(stw_run.pauses)
    interval = interval_cycles or max(50_000, mean_pause // 6)
    service = service_mean_cycles or max(4_000, mean_pause // 60)

    arrivals = [i * interval for i in range(n_queries)]

    def summarize(run: MutatorRunResult) -> dict:
        result = QueryReplay(run, interval_cycles=interval,
                             service_mean_cycles=service,
                             seed=seed).replay(arrivals, warmup=warmup)
        return latency_summary(result.sorted_latencies())

    return LatencyComparison(
        stw=summarize(stw_run),
        concurrent=summarize(concurrent_run),
        stw_max_pause_ms=max(p.pause_ms for p in stw_run.pauses),
        concurrent_max_pause_ms=max(
            p.pause_ms for p in concurrent_run.pauses),
        interval_cycles=interval,
        service_mean_cycles=service,
        n_queries=n_queries - warmup,
    )


def tail_ratio(records: Sequence[QueryRecord],
               p_low: float = 50.0, p_high: float = 99.9) -> float:
    """How many times longer the p_high tail is than the median —
    the 'two orders of magnitude' stragglers of §II."""
    latencies = _sorted_latency_cycles(records)
    low = _nearest_rank_ms(latencies, p_low)
    return (_nearest_rank_ms(latencies, p_high) / low if low > 0
            else float("inf"))
