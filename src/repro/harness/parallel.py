"""Fault-tolerant parallel figure pipeline with retries and checkpoints.

``run_suite(jobs=N)`` runs every entry of :data:`repro.harness.suite.SUITE`
(or a subset) and merges results deterministically:

* **jobs=1** runs inline — no pool, no pickling, and the in-process heap
  cache is shared across figures (fig15/fig23 and the avrora ablations
  reuse each other's builds).
* **jobs>1** fans entries out over a pool of ``jobs`` persistent worker
  processes (``fork`` start method where available, ``spawn``
  otherwise). Each worker loops over tasks from a duplex pipe, one task
  in flight at a time, amortizing interpreter + import startup (and its
  in-process heap cache) across the tasks it runs. Completion order is
  arbitrary but the merge sorts by suite index, so the output document
  and the per-figure digests are independent of scheduling. Set
  ``REPRO_HEAP_CACHE`` to share heap builds across workers via the disk
  cache.

Fault tolerance (all opt-in; a fault-free run is byte-identical to the
pre-retry pipeline):

* **per-task timeout** (``timeout=``) — a worker that exceeds it is
  killed and the entry is rescheduled;
* **bounded retries** (``retries=N``) with deterministic exponential
  backoff (``backoff * 2**(attempt-1)`` seconds, no jitter);
* **crash recovery** — a worker that exits abnormally (segfault, OOM
  kill, ``os._exit``) is detected by pipe EOF, the attempt is attributed
  to the one task that worker was running and described by its exit
  code, and a replacement worker is spawned; other in-flight entries are
  unaffected (each worker has its own pipe — a shared executor would
  raise ``BrokenProcessPool`` for every sibling);
* **graceful degradation** (``keep_going=True``) — an entry that
  exhausts its retries is recorded as a failed :class:`FigureRun`
  (status, attempts, last error, per-attempt history) and the run keeps
  going; ``render_report`` annotates the failure instead of aborting.
  Without ``keep_going`` the first exhausted entry raises
  :class:`SuiteRunError` carrying the partial results;
* **checkpoints** (``store=``) — completed entries are saved atomically
  through :class:`repro.harness.checkpoint.CheckpointStore` as they
  finish, so an interrupted run (including ``KeyboardInterrupt``, which
  tears the pool down cleanly) resumes re-executing only what's missing.

Fault *injection* for exercising these paths lives in
:mod:`repro.harness.faults` (``REPRO_FAULTS`` env spec). The parent
resolves each attempt's fault and ships it with the task; the pooled
worker executes it before running the entry, so a ``crash`` lands on
the crash path, a ``hang`` on deadline reaping and a ``raise`` on the
in-band error path. With ``jobs=1`` the faults execute in the
orchestrating process itself — a ``crash`` fault will genuinely
``os._exit`` it — so crash/hang testing wants ``jobs>=2``.

Every figure's rendered table is hashed into ``FigureRun.digest`` — the
fingerprint the determinism tests compare across ``--jobs`` settings,
across sharded vs inline runs, and across faulted-and-retried vs clean
runs.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.harness import faults
from repro.harness.runners import attempt_stats
from repro.harness.suite import FigureRun, render_report, run_entry, select

#: Default backoff base, seconds: attempt k retries after base * 2**(k-1).
DEFAULT_BACKOFF = 0.5

#: How long the scheduler sleeps when nothing is ready (seconds).
_TICK = 0.05


class SuiteRunError(RuntimeError):
    """An entry exhausted its retries and ``keep_going`` was off.

    ``failed`` is the failed entry's record; ``runs`` holds everything
    that completed before the abort (checkpointed if a store was given,
    so ``--resume`` picks up from here).
    """

    def __init__(self, failed: FigureRun, runs: List[FigureRun]):
        self.failed = failed
        self.runs = runs
        super().__init__(
            f"{failed.exp_id} failed after {failed.attempts} attempt(s): "
            f"{failed.error}")


@dataclass
class _TaskState:
    """Scheduling state for one suite entry across its attempts."""

    index: int
    exp_id: str
    kwargs: Dict[str, Any]
    attempts: int = 0
    history: List[Dict[str, Any]] = field(default_factory=list)
    #: monotonic time before which this task must not be (re)launched.
    not_before: float = 0.0


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


def _pool_worker_main(conn) -> None:
    """Persistent worker: loop tasks from a duplex pipe until the sentinel.

    Referenced as a module global (not a closure) so it pickles under
    ``spawn`` and inherits monkeypatched ``run_entry`` under ``fork``.
    ``None`` is the stop sentinel; a task is ``(index, exp_id, kwargs,
    fault, hang_seconds)``, the fault resolved by the parent for this
    attempt (``None`` when none matches).
    """
    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                break
            if task is None:
                break
            index, exp_id, kwargs, fault, hang_seconds = task
            before = attempt_stats()
            try:
                faults.execute(fault, hang_seconds)
                run = run_entry(index, exp_id, kwargs)
            except BaseException as exc:
                try:
                    conn.send(("error", f"{type(exc).__name__}: {exc}",
                               _stats_delta(before, attempt_stats())))
                except Exception:  # parent went away; nothing to report to
                    break
            else:
                try:
                    conn.send(("ok", run,
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
    """Shared bookkeeping for the inline and pooled execution paths."""

    def __init__(self, *, retries: int, backoff: float, keep_going: bool,
                 store, say: Callable[[str], None],
                 completed: Dict[int, FigureRun]):
        self.retries = max(0, retries)
        self.backoff = backoff
        self.keep_going = keep_going
        self.store = store
        self.say = say
        self.completed = completed

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def finish_ok(self, state: _TaskState, run: FigureRun,
                  wall: float, stats: Dict[str, float]) -> None:
        state.attempts += 1
        state.history.append({"attempt": state.attempts, "status": "ok",
                              "elapsed": round(wall, 3), **stats})
        run.attempts = state.attempts
        run.attempt_history = list(state.history)
        self.completed[state.index] = run
        if self.store is not None:
            self.store.save(run)
        note = (f" (attempt {state.attempts}/{self.max_attempts})"
                if state.attempts > 1 else "")
        self.say(f"  {run.exp_id} done in {run.elapsed:.0f}s{note}")

    def record_failure(self, state: _TaskState, status: str, error: str,
                       wall: float) -> Optional[float]:
        """Account one failed attempt.

        Returns the backoff delay if the task should be retried, or
        ``None`` once retries are exhausted (after recording the failed
        entry — and raising :class:`SuiteRunError` unless ``keep_going``).
        """
        state.attempts += 1
        state.history.append({"attempt": state.attempts, "status": status,
                              "elapsed": round(wall, 3), "error": error})
        if state.attempts < self.max_attempts:
            delay = self.backoff * (2 ** (state.attempts - 1))
            state.not_before = time.monotonic() + delay
            self.say(f"  {state.exp_id} {status} (attempt {state.attempts}/"
                     f"{self.max_attempts}): {error}; retrying in "
                     f"{delay:.1f}s")
            return delay
        run = FigureRun(
            index=state.index, exp_id=state.exp_id,
            kwargs=dict(state.kwargs), rendered="",
            elapsed=sum(rec.get("elapsed", 0.0) for rec in state.history),
            status="failed", attempts=state.attempts, error=error,
            attempt_history=list(state.history),
        )
        self.completed[state.index] = run
        if self.store is not None:
            self.store.save(run)
        self.say(f"  {state.exp_id} FAILED after {state.attempts} "
                 f"attempt(s): {error}")
        if not self.keep_going:
            raise SuiteRunError(run, _ordered(self.completed))
        return None


def _ordered(completed: Dict[int, FigureRun]) -> List[FigureRun]:
    return [completed[i] for i in sorted(completed)]


def _run_inline(states: List[_TaskState], sched: _Scheduler,
                plan: Optional[faults.FaultPlan],
                say: Callable[[str], None],
                runner: Optional[Callable[..., FigureRun]] = None) -> None:
    """jobs=1: execute in-process (shared heap cache, no pickling).

    Timeouts are not enforceable without a worker process; ``crash`` and
    ``hang`` faults execute literally in this process. ``runner``
    overrides ``run_entry`` for the intra-figure sharded path (which fans
    its own workers out from this process).
    """
    for state in states:
        while True:
            say(f"running {state.exp_id} {state.kwargs} ...")
            fault = (plan.match(state.exp_id, state.attempts + 1)
                     if plan is not None else None)
            t0 = time.monotonic()
            before = attempt_stats()
            try:
                if plan is not None:
                    faults.execute(fault, plan.hang_seconds)
                execute = runner if runner is not None else run_entry
                run = execute(state.index, state.exp_id, state.kwargs)
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


def _run_persistent_pool(states: List[_TaskState], jobs: int,
                         sched: _Scheduler, plan: Optional[faults.FaultPlan],
                         timeout: Optional[float],
                         say: Callable[[str], None]) -> None:
    """jobs>1: long-lived workers over duplex pipes.

    Dispatch keeps one task in flight per worker, so a death (pipe EOF)
    or a blown deadline still attributes to exactly one entry; the dead
    worker is replaced and the entry goes through the normal retry
    accounting. Workers are told to stop (``None`` sentinel) as the queue
    drains.
    """
    ctx = _pool_context()
    hang_seconds = (plan.hang_seconds if plan is not None
                    else faults.DEFAULT_HANG_SECONDS)
    pending = deque(states)
    workers: List[_PoolWorker] = []
    say(f"running {len(states)} experiments on {jobs} persistent "
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

    try:
        while pending or any(w.state is not None for w in workers):
            now = time.monotonic()
            busy = sum(1 for w in workers if w.state is not None)
            # Keep exactly as many workers as remaining work can use.
            while len(workers) < min(jobs, busy + len(pending)):
                spawn()

            # Dispatch every ready task there is an idle worker for.
            for worker in workers:
                if worker.state is not None or not pending:
                    continue
                ready = next((i for i, s in enumerate(pending)
                              if s.not_before <= now), None)
                if ready is None:
                    break
                pending.rotate(-ready)
                state = pending.popleft()
                pending.rotate(ready)
                fault = (plan.match(state.exp_id, state.attempts + 1)
                         if plan is not None else None)
                try:
                    worker.conn.send((state.index, state.exp_id,
                                      state.kwargs, fault, hang_seconds))
                except (OSError, ValueError):
                    # Died while idle: requeue, reap below via pipe EOF.
                    pending.appendleft(state)
                    continue
                worker.state = state
                worker.started = time.monotonic()
                worker.deadline = (worker.started + timeout
                                   if timeout else None)

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
                        if sched.record_failure(state, "crash", detail,
                                                wall) is not None:
                            pending.append(state)
                    continue
                state = worker.state
                worker.state = None
                worker.deadline = None
                wall = time.monotonic() - worker.started
                if msg[0] == "ok":
                    sched.finish_ok(state, msg[1], wall, msg[2])
                else:
                    if sched.record_failure(state, "error", msg[1],
                                            wall) is not None:
                        pending.append(state)

            # Reap workers that blew their deadline; their replacement is
            # spawned by the top-up at the head of the loop.
            now = time.monotonic()
            for worker in list(workers):
                if (worker.state is None or worker.deadline is None
                        or now < worker.deadline):
                    continue
                state = worker.state
                discard(worker, kill=True)
                if sched.record_failure(
                        state, "timeout",
                        f"timed out after {timeout:.0f}s",
                        now - worker.started) is not None:
                    pending.append(state)

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


def run_suite(
    jobs: int = 1,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = DEFAULT_BACKOFF,
    keep_going: bool = False,
    store=None,
    fault_plan: Optional[faults.FaultPlan] = None,
    shard_figures: bool = False,
) -> List[FigureRun]:
    """Run the figure suite with ``jobs`` workers; results in suite order.

    ``store`` (a :class:`~repro.harness.checkpoint.CheckpointStore`)
    enables resume: entries already checkpointed are loaded instead of
    re-run, and new completions are checkpointed as they land.
    ``fault_plan`` defaults to the ``REPRO_FAULTS`` environment spec.
    Entries that exhaust ``retries`` raise :class:`SuiteRunError`, or —
    with ``keep_going`` — come back as ``FigureRun(status="failed")``
    records that :func:`render_report` annotates.

    ``shard_figures`` (with ``jobs > 1``) additionally splits figures
    with a shardable axis (see :mod:`repro.harness.sharding`) across the
    ``jobs`` workers — those entries run first, each using the whole
    worker pool, then the remaining entries fan out one-per-worker.
    Digests are unchanged across all of it.
    """
    entries = select(only)
    tasks = [(i, exp_id, kwargs) for i, (exp_id, kwargs) in enumerate(entries)]
    say = progress if progress is not None else (lambda msg: None)
    if fault_plan is None:
        fault_plan = faults.plan_from_env()

    completed: Dict[int, FigureRun] = {}
    if store is not None:
        completed = store.load_completed()
        for path in store.corrupt:
            say(f"  discarding corrupt checkpoint {path.name}; will re-run")
        if completed:
            say(f"resuming: {len(completed)}/{len(tasks)} entries already "
                "complete")

    states = [_TaskState(index=i, exp_id=exp_id, kwargs=kwargs)
              for i, exp_id, kwargs in tasks if i not in completed]
    sched = _Scheduler(retries=retries, backoff=backoff,
                       keep_going=keep_going, store=store, say=say,
                       completed=completed)
    if states and shard_figures and jobs > 1:
        from repro.harness.sharding import can_shard, run_entry_sharded

        sharded = [s for s in states if can_shard(s.exp_id, s.kwargs, jobs)]
        if sharded:
            say(f"sharding {len(sharded)} figure(s) across {jobs} workers "
                "each ...")
            _run_inline(
                sharded, sched, fault_plan, say,
                runner=lambda i, e, k: run_entry_sharded(i, e, k, jobs))
            remaining = {id(s) for s in sharded}
            states = [s for s in states if id(s) not in remaining]
    if states:
        jobs = max(1, min(jobs, len(states)))
        if jobs == 1:
            _run_inline(states, sched, fault_plan, say)
        else:
            _run_persistent_pool(states, jobs, sched, fault_plan, timeout,
                                 say)
    return _ordered(completed)


def digests(runs: Sequence[FigureRun]) -> Dict[str, str]:
    """Per-figure determinism fingerprints, keyed by experiment id."""
    return {run.exp_id: run.digest for run in runs}


def default_jobs() -> int:
    """A sensible worker count when the user passes ``--jobs 0``."""
    return max(1, os.cpu_count() or 1)


def write_report(runs: Sequence[FigureRun], out_path: str) -> None:
    with open(out_path, "w") as fh:
        fh.write(render_report(runs))
