"""Fault-tolerant parallel figure pipeline with retries.

``run_suite(jobs=N)`` runs every entry of :data:`repro.harness.suite.SUITE`
(or a subset) and merges results deterministically:

* **jobs=1** runs inline — no pool, no pickling, and the in-process heap
  cache is shared across figures (fig15/fig23 and the avrora ablations
  reuse each other's builds).
* **jobs>1** fans *cells* out over ``jobs`` persistent worker processes
  (``fork`` where available, ``spawn`` otherwise), the only workers the
  harness starts. A cell is a whole entry or, with ``shard_figures``,
  one axis value of an entry whose figure has a ``ShardSpec``
  (:func:`~repro.harness.figures.cells`) — the sim cache's cell. Each
  worker loops over cells from a duplex
  pipe, one in flight at a time, amortizing startup (and its in-process
  heap cache) across them; an entry's cells are refolded with its
  ``ShardSpec`` merge when the last one lands. Results are ordered by
  suite index and axis value, so the document and the digests are
  independent of scheduling. ``REPRO_HEAP_CACHE`` shares heap builds
  across workers.
* **fleet base-run pre-phase** (jobs>1 with an enabled sim store): the
  distinct mutator base runs the fleet cells read
  (:func:`~repro.harness.figures.fleet_base_runs`) that the store
  lacks are queued first, one pool task each, and a fleet cell is
  dispatched only once its own have landed, so it reads them from the
  store instead of simulating them beside its siblings; other cells fill
  idle workers meanwhile. It is an optimization, never a dependency:
  with the store disabled or bypassed (an armed ``REPRO_HWFAULTS``), at
  jobs=1, or with every entry present nothing is queued, and a base-run
  task that raises, crashes or times out is dropped without a retry —
  no figure's attempts move and its cells simulate the base run
  themselves. ``REPRO_FAULTS`` never matches a base-run task.

Fault tolerance (all opt-in; a fault-free run is byte-identical to the
pre-retry pipeline), applied to each cell on its own:

* **per-task timeout** (``timeout=``) — a worker that exceeds it is
  killed and the cell is rescheduled;
* **bounded retries** (``retries=N``) with deterministic exponential
  backoff (``backoff * 2**(attempt-1)`` seconds, no jitter);
* **crash recovery** — a worker that exits abnormally (segfault, OOM
  kill, ``os._exit``) is detected by pipe EOF, the attempt is attributed
  to the one cell that worker was running and described by its exit
  code, and a replacement worker is spawned; other in-flight cells are
  unaffected (each worker has its own pipe — a shared executor would
  raise ``BrokenProcessPool`` for every sibling);
* **graceful degradation** (``keep_going=True``) — a cell that exhausts
  its retries fails its entry (its undispatched cells are dropped),
  recorded as a failed :class:`FigureRun` (status, attempts, last error,
  per-attempt history); the run keeps going and ``render_report``
  annotates the failure. Without ``keep_going`` the first exhausted
  entry raises :class:`SuiteRunError` carrying the partial results;
* **resume** — there is no run directory of its own. With
  ``REPRO_SIM_CACHE`` set, every cell is persisted by
  :mod:`repro.harness.simcache` as it completes, so an interrupted run
  (including ``KeyboardInterrupt``, which tears the pool down cleanly)
  is resumed by rerunning against the same cache: finished cells are
  hits and only the missing ones are simulated.

Fault *injection* for exercising these paths lives in
:mod:`repro.harness.faults` (``REPRO_FAULTS`` env spec). The parent
resolves each cell attempt's fault and ships it with the task; the
pooled worker executes it before running the cell, so a ``crash`` lands
on the crash path, a ``hang`` on deadline reaping and a ``raise`` on the
in-band error path. With ``jobs=1`` the faults execute in the
orchestrating process itself — a ``crash`` fault will genuinely
``os._exit`` it — so crash/hang testing wants ``jobs>=2``.

Every figure's rendered table is hashed into ``FigureRun.digest`` — the
fingerprint the determinism tests compare across ``--jobs`` settings,
across sharded vs inline runs, and across faulted-and-retried vs clean
runs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.harness import faults, simcache
from repro.harness.runners import attempt_stats
from repro.harness.suite import FigureRun, render_report, run_entry, select

#: Default backoff base, seconds: attempt k retries after base * 2**(k-1).
DEFAULT_BACKOFF = 0.5

#: How long the scheduler sleeps when nothing is ready (seconds).
_TICK = 0.05


class SuiteRunError(RuntimeError):
    """An entry exhausted its retries and ``keep_going`` was off.

    ``failed`` is the failed entry's record; ``runs`` holds everything
    that completed before the abort (its cells are in the sim cache when
    ``REPRO_SIM_CACHE`` is set, so a rerun picks up from here).
    """

    def __init__(self, failed: FigureRun, runs: List[FigureRun]):
        self.failed = failed
        self.runs = runs
        super().__init__(
            f"{failed.exp_id} failed after {failed.attempts} attempt(s): "
            f"{failed.error}")


@dataclass(eq=False)
class _Entry:
    """One suite entry and the cells it runs as."""

    index: int
    exp_id: str
    kwargs: Dict[str, Any]
    #: its ``ShardSpec`` when it runs as per-value cells; ``None`` runs it
    #: whole.
    spec: Any = None
    cells: List["_TaskState"] = field(default_factory=list)
    #: monotonic time its first cell, or a base run credited to it, was
    #: dispatched to a worker.
    started: Optional[float] = None
    #: fleet base runs simulated ahead of the cells, credited to the
    #: first entry that reads each (``FigureRun.base_runs_ahead``).
    base_runs_ahead: int = 0


@dataclass(eq=False)
class _TaskState:
    """Scheduling state for one cell across its attempts."""

    entry: _Entry
    kwargs: Dict[str, Any]
    #: the cell's axis value (sharded entries only).
    value: Any = None
    attempts: int = 0
    history: List[Dict[str, Any]] = field(default_factory=list)
    #: monotonic time before which this cell must not be (re)launched.
    not_before: float = 0.0
    #: ``(result, (hits, misses))`` once a sharded cell has landed.
    output: Any = None
    #: pre-phase base runs still in flight or queued; the cell is not
    #: dispatched before they have landed or been dropped.
    waits_on: Set["_BaseRunTask"] = field(default_factory=set)


@dataclass(eq=False)
class _BaseRunTask:
    """One fleet base run the pool simulates ahead of the cells reading it.

    Never retried and never charged to a figure: a failed one is dropped
    and its cells simulate the base run themselves.
    """

    key: Tuple[Any, ...]
    #: the entry credited with it.
    credit: _Entry
    cells: List[_TaskState] = field(default_factory=list)
    #: always ready: it waits for nothing and never backs off.
    waits_on = frozenset()
    not_before = 0.0


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context("spawn")


def _stats_delta(before: Dict[str, float],
                 after: Dict[str, float]) -> Dict[str, float]:
    """Per-attempt resource accounting.

    ``attempt_stats`` is cumulative for the process; the runner subtracts
    its pre-task snapshot so the attempt record carries this task's CPU
    time (peak RSS stays the process-lifetime high-water mark — still the
    right signal for spotting an OOM-bound attempt).
    """
    out = dict(after)
    if "cpu_s" in before and "cpu_s" in out:
        out["cpu_s"] = round(out["cpu_s"] - before["cpu_s"], 3)
    return out


def _simulate_base_run(key: Tuple[Any, ...]) -> None:
    """A pre-phase task: one fleet base run, into the sim store."""
    from repro.fleet.timeline import base_run

    base_run(*key)


def _pool_worker_main(conn) -> None:
    """Persistent worker: loop tasks from a duplex pipe until the sentinel.

    Referenced as a module global (not a closure) so it pickles under
    ``spawn`` and inherits monkeypatched ``run_entry`` under ``fork``.
    ``None`` is the stop sentinel; a task is ``(mode, args, fault,
    hang_seconds)``, the fault resolved by the parent for this attempt
    (``None`` when none matches). An ``"entry"`` (``args`` = index,
    exp_id, kwargs) replies with its :class:`FigureRun`; a ``"cell"``
    (exp_id, kwargs) with ``(result, (hits, misses))`` for the parent's
    merge, ``extras`` stripped (they can hold unpicklable simulation
    objects and feed no table or digest); a ``"base-run"`` (its key)
    with ``None`` once the base run is in the store.
    """
    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                break
            if task is None:
                break
            mode, args, fault, hang_seconds = task
            before = attempt_stats()
            try:
                faults.execute(fault, hang_seconds)
                if mode == "entry":
                    out = run_entry(*args)
                elif mode == "cell":
                    result, accounting = simcache.run_experiment(*args)
                    result.extras = {}
                    out = (result, accounting.as_tuple())
                else:
                    out = _simulate_base_run(args)
            except BaseException as exc:
                try:
                    conn.send(("error", f"{type(exc).__name__}: {exc}",
                               _stats_delta(before, attempt_stats())))
                except Exception:  # parent went away; nothing to report to
                    break
            else:
                try:
                    conn.send(("ok", out,
                               _stats_delta(before, attempt_stats())))
                except Exception:
                    break
    finally:
        conn.close()


def _describe_exit(exitcode: Optional[int]) -> str:
    if exitcode is None:
        return "worker vanished without an exit code"
    if exitcode < 0:
        try:
            import signal
            name = signal.Signals(-exitcode).name
        except (ValueError, ImportError):
            name = f"signal {-exitcode}"
        return f"worker killed by {name}"
    return f"worker exited abnormally with status {exitcode}"


def _kill(proc) -> None:
    if proc.is_alive():
        proc.terminate()
        proc.join(1.0)
    if proc.is_alive():  # pragma: no cover - SIGTERM ignored
        proc.kill()
        proc.join(1.0)


class _Scheduler:
    """Per-cell attempt accounting, per-entry completion (inline and
    pooled): an entry completes when its last cell lands and fails when
    any one cell exhausts its retries."""

    def __init__(self, *, retries: int, backoff: float, keep_going: bool,
                 say: Callable[[str], None]):
        self.retries = max(0, retries)
        self.backoff = backoff
        self.keep_going = keep_going
        self.say = say
        #: finished entries (ok or failed), keyed by suite index
        self.completed: Dict[int, FigureRun] = {}

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def _record(self, state: _TaskState, record: Dict[str, Any]) -> None:
        state.attempts += 1
        record = {"attempt": state.attempts, **record}
        if state.entry.spec is not None:
            record["cell"] = state.value
        state.history.append(record)

    def finish_ok(self, state: _TaskState, out: Any,
                  wall: float, stats: Dict[str, float]) -> None:
        self._record(state, {"status": "ok", "elapsed": round(wall, 3),
                             **stats})
        entry = state.entry
        if entry.index in self.completed:  # a sibling failed the entry
            return
        if entry.spec is None:
            run = out
            run.attempts = state.attempts
            run.attempt_history = list(state.history)
        else:
            state.output = out
            if any(cell.output is None for cell in entry.cells):
                return
            run = _merge_cells(entry)
        self.completed[entry.index] = run
        note = (f" (attempt {run.attempts}/{self.max_attempts})"
                if run.attempts > 1 else "")
        self.say(f"  {run.exp_id} done in {run.elapsed:.0f}s{note}")

    def record_failure(self, state: _TaskState, status: str, error: str,
                       wall: float) -> Optional[float]:
        """Account one failed attempt.

        Returns the backoff delay if the cell should be retried, or
        ``None`` once it will not be: its retries are exhausted (after
        recording the failed entry — and raising :class:`SuiteRunError`
        unless ``keep_going``), or a sibling cell already failed the entry.
        """
        self._record(state, {"status": status, "elapsed": round(wall, 3),
                             "error": error})
        entry = state.entry
        if entry.index in self.completed:
            return None
        label = entry.exp_id if entry.spec is None else (
            f"{entry.exp_id}[{entry.spec.axis}={state.value!r}]")
        if state.attempts < self.max_attempts:
            delay = self.backoff * (2 ** (state.attempts - 1))
            state.not_before = time.monotonic() + delay
            self.say(f"  {label} {status} (attempt {state.attempts}/"
                     f"{self.max_attempts}): {error}; retrying in "
                     f"{delay:.1f}s")
            return delay
        if entry.spec is not None:
            error = f"{label}: {error}"
        history = [rec for cell in entry.cells for rec in cell.history]
        run = FigureRun(
            index=entry.index, exp_id=entry.exp_id,
            kwargs=dict(entry.kwargs), rendered="",
            elapsed=sum(rec.get("elapsed", 0.0) for rec in history),
            status="failed", attempts=state.attempts, error=error,
            attempt_history=history,
        )
        self.completed[entry.index] = run
        self.say(f"  {entry.exp_id} FAILED after {state.attempts} "
                 f"attempt(s): {error}")
        if not self.keep_going:
            raise SuiteRunError(run, _ordered(self.completed))
        return None


def _merge_cells(entry: _Entry) -> FigureRun:
    """Refold a sharded entry's cells into its :class:`FigureRun`: elapsed
    from first dispatch to last completion, the most attempts any cell
    needed, and every cell's attempt records (tagged ``"cell"``)."""
    results = [cell.output[0] for cell in entry.cells]
    return FigureRun(
        index=entry.index, exp_id=entry.exp_id, kwargs=dict(entry.kwargs),
        rendered=entry.spec.merge(results).render(),
        elapsed=time.monotonic() - entry.started,
        attempts=max(cell.attempts for cell in entry.cells),
        attempt_history=[rec for cell in entry.cells
                         for rec in cell.history],
        shard_digests=[hashlib.sha256(result.render().encode()).hexdigest()
                       for result in results],
        cache_hits=sum(cell.output[1][0] for cell in entry.cells),
        cache_misses=sum(cell.output[1][1] for cell in entry.cells),
    )


def _ordered(completed: Dict[int, FigureRun]) -> List[FigureRun]:
    return [completed[i] for i in sorted(completed)]


def _run_inline(states: List[_TaskState], sched: _Scheduler,
                plan: Optional[faults.FaultPlan]) -> None:
    """jobs=1: execute in-process (shared heap cache, no pickling).

    Every cell is a whole entry. Timeouts are not enforceable without a
    worker process; ``crash`` and ``hang`` faults execute literally in
    this process.
    """
    for state in states:
        entry = state.entry
        while True:
            sched.say(f"running {entry.exp_id} {entry.kwargs} ...")
            fault = (plan.match(entry.exp_id, state.attempts + 1)
                     if plan is not None else None)
            t0 = time.monotonic()
            before = attempt_stats()
            try:
                if plan is not None:
                    faults.execute(fault, plan.hang_seconds)
                run = run_entry(entry.index, entry.exp_id, entry.kwargs)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                delay = sched.record_failure(
                    state, "error", f"{type(exc).__name__}: {exc}",
                    time.monotonic() - t0)
                if delay is None:
                    break
                time.sleep(delay)
            else:
                sched.finish_ok(state, run, time.monotonic() - t0,
                                _stats_delta(before, attempt_stats()))
                break


class _PoolWorker:
    """One persistent worker process and what it is currently running."""

    __slots__ = ("conn", "proc", "state", "started", "deadline")

    def __init__(self, conn, proc):
        self.conn = conn
        self.proc = proc
        self.state: Optional[_TaskState] = None
        self.started = 0.0
        self.deadline: Optional[float] = None


def _plan_base_runs(states: List[_TaskState]) -> List[_BaseRunTask]:
    """The pre-phase: fleet base runs to simulate ahead of their cells.

    One task per distinct base run the cells read (per
    :func:`~repro.harness.figures.fleet_base_runs`) that is not in
    the sim store yet; each cell waits for its own. Nothing is planned
    with the store disabled or bypassed (an armed ``REPRO_HWFAULTS``),
    when a cell could not read what a worker stored.
    """
    from repro.fleet.timeline import base_run_stored
    from repro.harness.diskcache import sim_store
    from repro.harness.figures import fleet_base_runs

    if sim_store().directory is None:
        return []
    tasks: Dict[Tuple[Any, ...], _BaseRunTask] = {}
    stored: Set[Tuple[Any, ...]] = set()
    for state in states:
        try:
            keys = fleet_base_runs(state.entry.exp_id, state.kwargs)
        except (TypeError, ValueError):
            continue  # the cell itself reports its bad kwargs
        for key in keys:
            if key in stored:
                continue
            task = tasks.get(key)
            if task is None:
                if base_run_stored(key):
                    stored.add(key)
                    continue
                task = tasks[key] = _BaseRunTask(key, state.entry)
            task.cells.append(state)
            state.waits_on.add(task)
    return list(tasks.values())


def _task_message(state, plan: Optional[faults.FaultPlan],
                  hang_seconds: float) -> Tuple[Any, ...]:
    """What a worker receives for one attempt (see
    :func:`_pool_worker_main`). Base runs never match a fault."""
    if isinstance(state, _BaseRunTask):
        return ("base-run", state.key, None, hang_seconds)
    entry = state.entry
    fault = (plan.match(entry.exp_id, state.attempts + 1)
             if plan is not None else None)
    if entry.spec is None:
        return ("entry", (entry.index, entry.exp_id, state.kwargs), fault,
                hang_seconds)
    return ("cell", (entry.exp_id, state.kwargs), fault, hang_seconds)


def _run_persistent_pool(ahead: List[_BaseRunTask],
                         states: List[_TaskState], jobs: int,
                         sched: _Scheduler, plan: Optional[faults.FaultPlan],
                         timeout: Optional[float]) -> None:
    """jobs>1: long-lived workers over duplex pipes.

    Dispatch keeps one task in flight per worker, so a death (pipe EOF)
    or a blown deadline still attributes to exactly one task; the dead
    worker is replaced and a cell goes through the normal retry
    accounting (a failed entry's pending cells are dropped). The
    ``ahead`` base runs are queued first; a cell is dispatched once the
    base runs it waits for have landed or been dropped, and other cells
    fill idle workers meanwhile. Workers are told to stop (``None``
    sentinel) as the queue drains.
    """
    ctx = _pool_context()
    hang_seconds = (plan.hang_seconds if plan is not None
                    else faults.DEFAULT_HANG_SECONDS)
    pending: deque = deque(ahead + states)
    workers: List[_PoolWorker] = []
    if ahead:
        sched.say(f"simulating {len(ahead)} fleet base run(s) ahead of "
                  "their cells ...")
    sched.say(f"running {len(states)} cells on {jobs} persistent "
              "workers ...")

    def spawn() -> _PoolWorker:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_pool_worker_main, args=(child_conn,))
        proc.start()
        child_conn.close()
        worker = _PoolWorker(parent_conn, proc)
        workers.append(worker)
        return worker

    def discard(worker: _PoolWorker, *, kill: bool) -> None:
        workers.remove(worker)
        if kill:
            _kill(worker.proc)
        else:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
            worker.proc.join(5.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck worker
                _kill(worker.proc)
        worker.conn.close()

    def release(task: _BaseRunTask) -> None:
        for cell in task.cells:
            cell.waits_on.discard(task)

    def fail(state, status: str, error: str, wall: float) -> None:
        """Requeue a failed cell, or drop its entry's pending cells; drop
        a failed base run and release its cells to simulate it."""
        if isinstance(state, _BaseRunTask):
            sched.say(f"  fleet base run {state.key} {status}: {error}; "
                      "its cells simulate it themselves")
            release(state)
        elif sched.record_failure(state, status, error, wall) is not None:
            pending.append(state)
        else:
            for sibling in [s for s in pending
                            if isinstance(s, _TaskState)
                            and s.entry is state.entry]:
                pending.remove(sibling)

    try:
        while pending or any(w.state is not None for w in workers):
            now = time.monotonic()
            busy = sum(1 for w in workers if w.state is not None)
            # Keep exactly as many workers as remaining work can use.
            while len(workers) < min(jobs, busy + len(pending)):
                spawn()

            # Dispatch every ready cell there is an idle worker for.
            for worker in workers:
                if worker.state is not None or not pending:
                    continue
                ready = next((i for i, s in enumerate(pending)
                              if s.not_before <= now and not s.waits_on),
                             None)
                if ready is None:
                    break
                pending.rotate(-ready)
                state = pending.popleft()
                pending.rotate(ready)
                try:
                    worker.conn.send(
                        _task_message(state, plan, hang_seconds))
                except (OSError, ValueError):
                    # Died while idle: requeue, reap below via pipe EOF.
                    pending.appendleft(state)
                    continue
                worker.state = state
                worker.started = time.monotonic()
                worker.deadline = (worker.started + timeout
                                   if timeout else None)
                # A sharded entry's elapsed time includes the base runs
                # simulated ahead on its behalf.
                owner = (state.credit if isinstance(state, _BaseRunTask)
                         else state.entry)
                if owner.started is None:
                    owner.started = worker.started

            if not any(w.state is not None for w in workers):
                if pending:
                    # Everything pending is backing off; sleep until the
                    # earliest retry becomes eligible.
                    wake = min(s.not_before for s in pending)
                    time.sleep(max(0.0, wake - time.monotonic()))
                continue

            # Wait for a result (or a death), bounded by the nearest
            # deadline. Idle workers are watched too: their EOF means a
            # silent death to reap before assigning them work.
            wait_for = _TICK if pending else 1.0
            deadlines = [w.deadline for w in workers
                         if w.state is not None and w.deadline is not None]
            if deadlines:
                wait_for = min(wait_for,
                               max(0.0, min(deadlines) - time.monotonic()))
            by_conn = {w.conn: w for w in workers}
            ready_conns = multiprocessing.connection.wait(
                list(by_conn), timeout=wait_for)

            for conn in ready_conns:
                worker = by_conn[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    msg = None  # worker died
                if msg is None:
                    state = worker.state
                    wall = (time.monotonic() - worker.started
                            if state is not None else 0.0)
                    worker.proc.join(5.0)
                    detail = _describe_exit(worker.proc.exitcode)
                    discard(worker, kill=True)
                    if state is not None:
                        fail(state, "crash", detail, wall)
                    continue
                state = worker.state
                worker.state = None
                worker.deadline = None
                wall = time.monotonic() - worker.started
                if msg[0] != "ok":
                    fail(state, "error", msg[1], wall)
                elif isinstance(state, _BaseRunTask):
                    state.credit.base_runs_ahead += 1
                    release(state)
                else:
                    sched.finish_ok(state, msg[1], wall, msg[2])

            # Reap workers that blew their deadline; their replacement is
            # spawned by the top-up at the head of the loop.
            now = time.monotonic()
            for worker in list(workers):
                if (worker.state is None or worker.deadline is None
                        or now < worker.deadline):
                    continue
                state = worker.state
                discard(worker, kill=True)
                fail(state, "timeout", f"timed out after {timeout:.0f}s",
                     now - worker.started)

            # Retire surplus idle workers once the queue has drained past
            # them (graceful stop, not a kill).
            surplus = len(workers) - max(
                1, min(jobs, sum(1 for w in workers
                                 if w.state is not None) + len(pending)))
            for worker in [w for w in workers if w.state is None][:surplus]:
                discard(worker, kill=False)
    finally:
        # Abort, KeyboardInterrupt, or normal exit: never leak workers.
        for worker in list(workers):
            discard(worker, kill=worker.state is not None)


def _run_entries(entries: Sequence[Tuple[int, str, Dict[str, Any]]],
                 jobs: int, sched: _Scheduler,
                 plan: Optional[faults.FaultPlan] = None,
                 timeout: Optional[float] = None,
                 shard_figures: bool = False) -> List[FigureRun]:
    """Run ``(index, exp_id, kwargs)`` entries as cells; results by index.

    With ``shard_figures`` and ``jobs > 1``, an entry whose figure has
    two or more axis values expands into one cell per value; every other
    entry is one cell. A lone cell runs inline.
    """
    from repro.harness.figures import FIGURES, cells

    states: List[_TaskState] = []
    for index, exp_id, kwargs in entries:
        entry = _Entry(index=index, exp_id=exp_id, kwargs=kwargs)
        parts = cells(exp_id, kwargs) if shard_figures and jobs > 1 else []
        if len(parts) >= 2:
            entry.spec = FIGURES[exp_id].shard
            entry.cells = [_TaskState(entry, cell_kwargs, value)
                           for value, cell_kwargs in parts]
        else:
            entry.cells = [_TaskState(entry, kwargs)]
        states.extend(entry.cells)
    jobs = max(1, min(jobs, len(states)))
    if jobs == 1:
        _run_inline(states, sched, plan)
    else:
        _run_persistent_pool(_plan_base_runs(states), states, jobs, sched,
                             plan, timeout)
    for state in states:
        run = sched.completed.get(state.entry.index)
        if run is not None:
            run.base_runs_ahead = state.entry.base_runs_ahead
    return _ordered(sched.completed)


def run_suite(
    jobs: int = 1,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = DEFAULT_BACKOFF,
    keep_going: bool = False,
    fault_plan: Optional[faults.FaultPlan] = None,
    shard_figures: bool = False,
) -> List[FigureRun]:
    """Run the figure suite with ``jobs`` workers; results in suite order.

    ``fault_plan`` defaults to the ``REPRO_FAULTS`` environment spec; a
    fault naming an id that is not a suite entry raises ``ValueError``.
    Entries that exhaust ``retries`` raise :class:`SuiteRunError`, or —
    with ``keep_going`` — come back as ``FigureRun(status="failed")``
    records that :func:`render_report` annotates.

    ``shard_figures`` (with ``jobs > 1``) additionally splits figures
    with a shardable axis (see :mod:`repro.harness.sharding`) into one
    cell per axis value, scheduled on the same worker pool as every
    other entry. Digests are unchanged across all of it.
    """
    entries = [(i, exp_id, kwargs)
               for i, (exp_id, kwargs) in enumerate(select(only))]
    if fault_plan is None:
        fault_plan = faults.plan_from_env()
    if fault_plan is not None:
        fault_plan.check_ids([exp_id for exp_id, _ in select()])
    sched = _Scheduler(
        retries=retries, backoff=backoff, keep_going=keep_going,
        say=progress if progress is not None else (lambda msg: None))
    return _run_entries(entries, jobs, sched, fault_plan, timeout,
                        shard_figures)


def digests(runs: Sequence[FigureRun]) -> Dict[str, str]:
    """Per-figure determinism fingerprints, keyed by experiment id."""
    return {run.exp_id: run.digest for run in runs}


def default_jobs() -> int:
    """A sensible worker count when the user passes ``--jobs 0``."""
    return max(1, os.cpu_count() or 1)


def write_report(runs: Sequence[FigureRun], out_path: str) -> None:
    with open(out_path, "w") as fh:
        fh.write(render_report(runs))
