"""The persistent worker pool behind ``run_suite(jobs>1)``.

The pool amortizes interpreter startup across tasks but must keep the
guarantees of process isolation: byte-identical digests, one-task-per-
worker crash attribution with retry and replacement, timeout reaping,
and fault drills that land on those same paths.
"""

import os

import pytest

import repro.harness.parallel as parallel
import repro.harness.suite as suite_mod
from repro.harness import faults, heapcache
from repro.harness.parallel import digests, run_suite

#: Static-model entries: no simulation, so pool tests run in seconds.
TINY = [("fig22", {}), ("abl_barriers", {})]

BACKOFF = 0.01


@pytest.fixture
def tiny_suite(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
    original = list(suite_mod.SUITE)
    suite_mod.SUITE[:] = TINY
    heapcache.reset_cache()
    yield
    suite_mod.SUITE[:] = original
    heapcache.reset_cache()


class TestPoolIdentity:
    def test_pool_matches_inline_digests(self, tiny_suite):
        inline = run_suite(jobs=1)
        pooled = run_suite(jobs=2)
        assert digests(inline) == digests(pooled)
        assert all(r.ok for r in pooled)

    def test_workers_are_reused_across_tasks(self, tiny_suite, tmp_path,
                                             monkeypatch):
        pids = tmp_path / "pids"

        def recording_run_entry(index, exp_id, kwargs,
                                _real=parallel.run_entry):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return _real(index, exp_id, kwargs)

        # Three tasks on two persistent workers: pigeonhole forces reuse,
        # which one process per task would never exhibit.
        suite_mod.SUITE[:] = TINY + [("fig22", {})]
        monkeypatch.setattr(parallel, "run_entry", recording_run_entry)
        runs = run_suite(jobs=2)
        assert all(r.ok for r in runs)
        recorded = pids.read_text().split()
        assert len(recorded) == 3
        assert len(set(recorded)) <= 2


class TestPoolFaultTolerance:
    def test_worker_death_is_attributed_retried_and_replaced(
            self, tiny_suite, tmp_path, monkeypatch):
        flag = str(tmp_path / "crashed-once")

        def crashing_run_entry(index, exp_id, kwargs,
                               _real=parallel.run_entry):
            if exp_id == "fig22":
                try:
                    fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    pass  # second attempt: behave
                else:
                    os.close(fd)
                    os._exit(42)  # die without reporting: pipe EOF
            return _real(index, exp_id, kwargs)

        clean = run_suite(jobs=2)
        monkeypatch.setattr(parallel, "run_entry", crashing_run_entry)
        runs = run_suite(jobs=2, retries=1, backoff=BACKOFF)
        assert digests(runs) == digests(clean)
        crashed = next(r for r in runs if r.exp_id == "fig22")
        assert crashed.ok and crashed.attempts == 2
        first = crashed.attempt_history[0]
        assert first["status"] == "crash"
        assert "status 42" in first["error"]
        # The sibling entry was unaffected by the dead worker.
        other = next(r for r in runs if r.exp_id == "abl_barriers")
        assert other.ok and other.attempts == 1

    def test_exhausted_retries_fail_the_entry(self, tiny_suite, monkeypatch):
        def always_crashing(index, exp_id, kwargs, _real=parallel.run_entry):
            if exp_id == "fig22":
                os._exit(17)
            return _real(index, exp_id, kwargs)

        monkeypatch.setattr(parallel, "run_entry", always_crashing)
        runs = run_suite(jobs=2, retries=1, backoff=BACKOFF,
                         keep_going=True)
        failed = next(r for r in runs if r.exp_id == "fig22")
        assert failed.status == "failed" and failed.attempts == 2
        assert all(rec["status"] == "crash"
                   for rec in failed.attempt_history)

    def test_deadline_kills_a_hung_pooled_worker(self, tiny_suite, tmp_path,
                                                 monkeypatch):
        flag = str(tmp_path / "hung-once")

        def hanging_run_entry(index, exp_id, kwargs,
                              _real=parallel.run_entry):
            if exp_id == "fig22":
                try:
                    fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    pass
                else:
                    os.close(fd)
                    import time
                    time.sleep(60)
            return _real(index, exp_id, kwargs)

        monkeypatch.setattr(parallel, "run_entry", hanging_run_entry)
        runs = run_suite(jobs=2, timeout=1.0, retries=1,
                         backoff=BACKOFF)
        hung = next(r for r in runs if r.exp_id == "fig22")
        assert hung.ok and hung.attempts == 2
        assert hung.attempt_history[0]["status"] == "timeout"

    def test_per_attempt_stats_are_deltas(self, tiny_suite):
        runs = run_suite(jobs=2)
        for run in runs:
            for rec in run.attempt_history:
                # Static models cost ~0 CPU; a cumulative (non-delta)
                # reading would carry worker import/startup time.
                assert rec["cpu_s"] < 5.0
                assert rec["cpu_s"] >= 0.0


class TestPoolFaultDrills:
    """``REPRO_FAULTS`` drills run on the persistent workers themselves."""

    @staticmethod
    def _record(monkeypatch, log, run_delay=None):
        """Log ``<event> <exp_id> <pid>`` for every fault fired and every
        entry run, in whichever worker process does it."""

        def note(event, exp_id):
            with open(log, "a") as fh:
                fh.write(f"{event} {exp_id} {os.getpid()}\n")

        def recording_execute(fault, hang_seconds=faults.DEFAULT_HANG_SECONDS,
                              _real=faults.execute):
            if fault is not None:
                note(fault.kind, fault.exp_id)
            _real(fault, hang_seconds)

        def recording_run_entry(index, exp_id, kwargs,
                                _real=parallel.run_entry):
            note("run", exp_id)
            if run_delay is not None:
                run_delay(exp_id)
            return _real(index, exp_id, kwargs)

        monkeypatch.setattr(faults, "execute", recording_execute)
        monkeypatch.setattr(parallel, "run_entry", recording_run_entry)

    @staticmethod
    def _events(log):
        return [tuple(line.split()) for line in log.read_text().splitlines()]

    def test_worker_survives_a_raise_fault_and_is_reused(
            self, tiny_suite, tmp_path, monkeypatch):
        suite_mod.SUITE[:] = TINY + [("fig22", {})]
        clean = run_suite(jobs=2)
        log = tmp_path / "events"
        self._record(monkeypatch, log)
        runs = run_suite(jobs=2, retries=1, backoff=BACKOFF,
                         fault_plan=faults.parse_spec("raise:fig22:1"))
        assert digests(runs) == digests(clean)
        for run in (r for r in runs if r.exp_id == "fig22"):
            assert run.ok and run.attempts == 2
            first = run.attempt_history[0]
            assert first["status"] == "error"
            assert "FaultInjected" in first["error"]
        events = self._events(log)
        raised = {pid for kind, _exp, pid in events if kind == "raise"}
        assert len(raised) >= 1
        # Five attempts (two of them raising) on two workers, and no
        # third process: the workers that raised were kept, not replaced.
        assert len(events) == 5
        assert len({pid for _kind, _exp, pid in events}) <= 2

    def test_crash_fault_replaces_the_worker(self, tiny_suite, tmp_path,
                                             monkeypatch):
        import time

        clean = run_suite(jobs=2)
        log = tmp_path / "events"

        def hold_sibling(exp_id):
            # Keep the sibling's worker busy while fig22 crashes, so the
            # retry needs a new worker.
            if exp_id == "abl_barriers":
                time.sleep(1.0)

        self._record(monkeypatch, log, run_delay=hold_sibling)
        runs = run_suite(jobs=2, retries=1, backoff=BACKOFF,
                         fault_plan=faults.parse_spec("crash:fig22:1"))
        assert digests(runs) == digests(clean)
        crashed = next(r for r in runs if r.exp_id == "fig22")
        assert crashed.ok and crashed.attempts == 2
        assert crashed.attempt_history[0]["status"] == "crash"
        assert "status 139" in crashed.attempt_history[0]["error"]
        events = self._events(log)
        (crash_pid,) = [pid for kind, _exp, pid in events if kind == "crash"]
        (retry_pid,) = [pid for kind, exp, pid in events
                        if kind == "run" and exp == "fig22"]
        (sibling_pid,) = [pid for kind, exp, pid in events
                          if kind == "run" and exp == "abl_barriers"]
        assert retry_pid not in (crash_pid, sibling_pid)
