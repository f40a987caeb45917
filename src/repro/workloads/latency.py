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


@dataclass(eq=False)
class ReplayResult:
    """Outcome of replaying an explicit arrival schedule.

    The post-warm-up *serviced* queries are held as four parallel numpy
    columns (shed queries never execute and leave no entry); the
    counters, Python ints, account for every arrival exactly once:
    ``arrived == completed + in_flight + shed``. A replay builds no
    object per query: :attr:`records` materialises the rows as
    :class:`QueryRecord` only when asked.
    """

    index: np.ndarray       # arrival index of each serviced query
    intended: np.ndarray    # its intended start, cycles
    completion: np.ndarray
    near_gc: np.ndarray     # bool
    arrived: int
    completed: int  # serviced with completion <= horizon (incl. warm-up)
    in_flight: int  # serviced but still running at the horizon
    shed: int       # dropped by the backlog admission check

    @property
    def records(self) -> List[QueryRecord]:
        return [QueryRecord(*row) for row in zip(
            self.index.tolist(), self.intended.tolist(),
            self.completion.tolist(), self.near_gc.tolist())]

    def sorted_latencies(self) -> np.ndarray:
        """The serviced queries' latencies in cycles, ascending (int64)."""
        latencies = self.completion - self.intended
        latencies.sort()
        return latencies

    @property
    def conserved(self) -> bool:
        return self.arrived == self.completed + self.in_flight + self.shed


#: Shape of the lognormal service-time distribution.
SERVICE_SIGMA = 0.35

#: Queries a stretch serves in its first round after a shed burst; each
#: round that sheds nothing doubles it.
SHED_BLOCK = 64

_INT64_MAX = np.iinfo(np.int64).max


def draw_service_times(n: int, mean_cycles: int, sigma: float,
                       seed: int) -> np.ndarray:
    """The first ``n`` service times of the stream seeded by ``seed``.

    Lognormal around ``mean_cycles`` with shape ``sigma``, floored at 1000
    cycles: ``max(1000, int(rng.lognormvariate(log(mean_cycles), sigma)))``
    for ``rng = random.Random(seed)``, value for value, as an int64 array
    drawn in numpy blocks (:mod:`repro.workloads._stdlib_stream`). A
    replay consumes one per arrival, served or shed, so the fleet draws
    it once per tenant and hands it to every policy's replay.
    """
    mu = math.log(mean_cycles)
    return floored_exp_ints(mu + normal_deviates(n, seed) * sigma, 1000)


def _int64_column(values: Sequence[int], name: str) -> np.ndarray:
    """``values`` as an int64 array; a value outside int64 raises."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name} hold a value outside int64 "
                         f"cycles") from None


class QueryReplay:
    """Open-loop single-server replay of an arrival schedule over a
    GC-pause timeline.

    The fleet layer sprays one global arrival stream across tenants, so
    each tenant replays an irregular slice of it; :class:`QuerySimulator`
    replays Fig. 1b's regular schedule through the same path. Service
    progresses only in mutator time ``W(t)``, the cycles before ``t`` no
    pause covers (flat across each pause), so the FIFO server is
    Lindley's recursion in ``W``: a prefix maximum (:meth:`replay`).
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
        # One period of the timeline as a pause table; ``W`` and its
        # inverses tile it, the epoch found by integer division. A
        # pause-free timeline is a one-cycle period with no pause.
        pauses = np.array(self._tile_pauses(run.total_cycles),
                          dtype=np.int64).reshape(-1, 2)
        starts, self._ends = pauses[:, 0], pauses[:, 1]
        self._period = run.total_cycles if len(pauses) else 1
        #: The pause starts, with the period as a sentinel past the last.
        self._starts = np.append(starts, self._period)
        #: Pause cycles before pause ``k`` of a period (``[-1]``: all).
        self._paused = np.append(0, np.cumsum(self._ends - starts))
        #: Mutator cycles per period, and ``W`` at each pause start.
        self._mutator = self._period - int(self._paused[-1])
        self._warped_starts = starts - self._paused[:-1]

    def _tile_pauses(self, period: int) -> List[Tuple[int, int]]:
        """Pause windows [(start, end)] of one run period; lookups tile
        them modulo ``period`` so the schedule can extend past one
        benchmark iteration (DaCapo loops internally).

        Only a well-formed timeline tiles: pauses in start order, none
        overlapping the one before it, none ending past ``period``.
        Anything else would be answered wrongly (a query could be served
        through a pause it sits inside), so it is rejected here, at
        construction, naming the first offending pause. So is a run whose
        pauses cover the entire window: with no mutator time, service
        could never progress and ``W`` would have no inverse.
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

    def _warp(self, t: np.ndarray) -> np.ndarray:
        """``W(t)``: ``t`` less the tiled pause cycles before it. Inside a
        pause, ``W`` stays at the pause start's value."""
        epoch, phase = np.divmod(t, self._period)
        k = np.searchsorted(self._ends, phase, side="right")
        paused = self._paused[k] + np.maximum(phase - self._starts[k], 0)
        return epoch * self._mutator + phase - paused

    def _unwarp(self, w: np.ndarray, side: str) -> np.ndarray:
        """The earliest (``side="left"``: a flat stretch's pause start) or
        latest (``"right"``: its end) cycle ``t`` with ``W(t) == w``. The
        left phase runs over ``(0, mutator]``, so a ``w`` reached at a
        pause that ends the period maps into that epoch, not the next."""
        if side == "left":
            epoch, phase = np.divmod(w - 1, self._mutator)
            phase += 1
        else:
            epoch, phase = np.divmod(w, self._mutator)
        k = np.searchsorted(self._warped_starts, phase, side=side)
        return epoch * self._period + phase + self._paused[k]

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
        schedule returns a zero-count result. Arrivals decreasing or
        before cycle 0, a negative service or backlog bound, or a schedule
        that could complete past int64 cycles raise ``ValueError``.

        Query ``i`` completes at ``W = S_i + max(carry, max_{j<=i} W(a_j)
        - S_{j-1})``, ``S`` the cumulative service, mapped back by the
        left inverse (work that fits exactly before a pause completes at
        its start) or, for zero work, the right (it waits the pause out).
        """
        if services is None:
            services = draw_service_times(len(arrivals), self.service_mean,
                                          self.service_sigma, self.seed)
        elif len(services) != len(arrivals):
            raise ValueError(f"{len(services)} service times for "
                             f"{len(arrivals)} arrivals")
        arrivals = _int64_column(arrivals, "arrivals")
        services = _int64_column(services, "services")
        n = len(arrivals)
        previous = np.append(0, arrivals[:-1])
        for g in np.flatnonzero(arrivals < previous)[:1]:
            raise ValueError(f"arrival schedule must be non-decreasing: "
                             f"arrivals[{g}] == {arrivals[g]} < "
                             f"{previous[g]}")
        for g in np.flatnonzero(services < 0)[:1]:
            raise ValueError(f"services[{g}] == {services[g]} is negative")
        # No completion passes W's right inverse at the last arrival plus
        # the total service, within one period past the epoch it reaches.
        total = int(services.sum()) if n * int(services.max(initial=0)) \
            <= _INT64_MAX else sum(services.tolist())  # else it could wrap
        reach = int(arrivals[-1]) + total if n else 0
        if (reach // self._mutator + 1) * self._period > _INT64_MAX:
            raise ValueError(f"the last arrival plus the total service "
                             f"{total} can complete past int64 cycles")
        live = n if offline_after_cycle is None else int(
            np.searchsorted(arrivals, offline_after_cycle))
        shed = n - live
        a, s = arrivals[:live], services[:live]
        warped = self._warp(a)
        limit = math.inf if shed_backlog_cycles is None \
            else shed_backlog_cycles
        if limit < 0:
            raise ValueError(f"shed_backlog_cycles {limit} is negative")
        completion = np.zeros(live, dtype=np.int64)
        served = np.zeros(live, dtype=bool)
        # Stretches still to serve, one row each in arrival order: arrivals
        # [lo, end), at most ``span`` of them this round, after a served
        # query that completed at ``done``.
        todo = np.array([[0, live, live, 0]])
        while len(todo := todo[todo[:, 0] < todo[:, 1]]):
            lo, end, span, done = todo.T
            size = np.minimum(span, end - lo)
            first = np.cumsum(size) - size
            row = np.repeat(np.arange(len(lo)), size)
            idx = lo[row] + np.arange(len(row)) - first[row]
            ai, si = a[idx], s[idx]
            before = np.cumsum(si) - si
            # Lindley's recursion in mutator time, one prefix maximum over
            # every stretch at once: each starts from its carry, which no
            # value of an earlier stretch exceeds.
            z = warped[idx] - before
            z[first] = np.maximum(z[first], self._warp(done) - before[first])
            w = before + si + np.maximum.accumulate(z)
            c = self._unwarp(w, "left")
            zero = si == 0
            c[zero] = self._unwarp(w[zero], "right")
            previous = np.append(0, c[:-1])
            previous[first] = done
            late = previous - ai > limit
            # A stretch splits into pieces where a query does not queue:
            # the load before cannot reach it, so each piece is exact up
            # to its first late arrival.
            opens = previous <= ai
            opens[first] = True
            piece = np.cumsum(opens) - 1
            starts = np.flatnonzero(opens)
            lates = np.cumsum(late)
            seen = lates - (lates - late)[starts][piece]
            exact = seen == 0
            completion[idx[exact]] = c[exact]
            served[idx[exact]] = True
            # A piece's first late arrival sheds the burst behind it, and
            # the piece resumes after that; a stretch whose round was
            # exact throughout goes on with twice the span.
            k = np.flatnonzero(late & (seen == 1))
            piece_row = row[starts]
            piece_end = np.where(
                np.append(piece_row[1:] == piece_row[:-1], False),
                np.append(idx[starts[1:]], 0), end[piece_row])
            resume = np.searchsorted(a, previous[k] - limit, side="left")
            shed += int((resume - idx[k]).sum())
            last = first + size - 1
            todo = np.concatenate((
                np.column_stack((resume, piece_end[piece[k]],
                                 np.full(len(k), SHED_BLOCK), previous[k])),
                np.column_stack((lo + size, end, 2 * span,
                                 c[last]))[exact[last]]))
            todo = todo[np.argsort(todo[:, 0], kind="stable")]
        # "The colors indicate whether a query was close to a pause": it
        # absorbed one at or after the last query that did not queue
        # (ordinary queueing doesn't count).
        index = np.flatnonzero(served)
        c, ai, si = completion[index], a[index], s[index]
        start = np.maximum(ai, np.append(0, c[:-1]))
        absorbed = c - start > si
        fresh = start == ai
        hits = np.cumsum(absorbed)
        near_gc = hits > np.append(0, (hits - absorbed)[fresh])[
            np.cumsum(fresh)]
        in_flight = 0 if horizon is None else \
            int(np.count_nonzero(c > horizon))
        warm = index >= warmup
        return ReplayResult(
            index=index[warm], intended=ai[warm], completion=c[warm],
            near_gc=near_gc[warm], arrived=n,
            completed=len(index) - in_flight, in_flight=in_flight,
            shed=shed)


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
        arrivals = np.arange(n_queries, dtype=np.int64) * self.interval
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
    """Nearest-rank ``p``-th percentile of sorted cycle latencies (a list
    or an int64 array), in ms; raises on none."""
    if len(latencies) == 0:
        raise ValueError("no records")
    rank = max(1, math.ceil(p / 100.0 * len(latencies)))
    return int(latencies[rank - 1]) / 1e6


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

    arrivals = np.arange(n_queries, dtype=np.int64) * interval

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
