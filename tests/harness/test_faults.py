"""Crash-injection suite: the runner must survive what faults.py throws.

Uses the two static-model suite entries (fig22, abl_barriers) so every
scenario runs in well under a second of real work, with tiny backoffs.
Crash/hang scenarios use ``jobs=2``, so the faults execute on the
persistent pool's workers — with ``jobs=1`` they execute in this very
process (by design; see :mod:`repro.harness.parallel`).
"""

import multiprocessing
import os
import time

import pytest

import repro.harness.suite as suite_mod
from repro.harness import heapcache, parallel
from repro.harness.faults import (
    Fault,
    FaultInjected,
    FaultPlan,
    FaultSpecError,
    parse_spec,
    plan_from_env,
)
from repro.harness.parallel import SuiteRunError, digests, run_suite

ONLY = ["fig22", "abl_barriers"]  # static models: instant
BACKOFF = 0.01

#: A small shardable entry (two queue-size cells, ~1 s each) beside a
#: static one, for drills on ``run_suite(shard_figures=True)``.
SHARDED = [("fig19", dict(scale=0.005, seed=1, queue_entries=[128, 2048])),
           ("fig22", {})]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched worker needs the fork start method")


@pytest.fixture(autouse=True)
def _no_env_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


class TestSpecParsing:
    def test_full_spec(self):
        plan = parse_spec("crash:fig16:1,hang:fig18:2,raise:fig20:*")
        assert plan.faults == (
            Fault("crash", "fig16", 1),
            Fault("hang", "fig18", 2),
            Fault("raise", "fig20", None),
        )

    def test_attempt_defaults_to_first(self):
        (fault,) = parse_spec("crash:fig16").faults
        assert fault.attempt == 1
        assert fault.matches("fig16", 1)
        assert not fault.matches("fig16", 2)
        assert not fault.matches("fig17", 1)

    def test_star_matches_every_attempt(self):
        (fault,) = parse_spec("raise:fig16:*").faults
        assert all(fault.matches("fig16", n) for n in (1, 2, 7))

    @pytest.mark.parametrize("bad", ["crash", "oops:fig16", "crash::1",
                                     "crash:fig16:0", "crash:fig16:x",
                                     "crash:fig16:1:2"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_spec(bad)

    def test_plan_from_env(self, monkeypatch):
        assert plan_from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "raise:fig22:1")
        plan = plan_from_env()
        assert plan.match("fig22", 1).kind == "raise"
        assert plan.match("fig22", 2) is None

    def test_raise_fault_executes_inband(self):
        plan = parse_spec("raise:fig22:1")
        with pytest.raises(FaultInjected, match="raise:fig22:1"):
            plan.inject("fig22", 1)
        plan.inject("fig22", 2)  # no match: no-op


class TestCrashRecovery:
    def test_killed_worker_is_retried_and_recovered(self):
        """A worker segfault-exit on attempt 1 must not lose the run."""
        clean = run_suite(jobs=2, only=ONLY)
        plan = parse_spec("crash:fig22:1")
        lines = []
        runs = run_suite(jobs=2, only=ONLY, progress=lines.append,
                         retries=2, backoff=BACKOFF, fault_plan=plan)
        assert [r.exp_id for r in runs] == [r.exp_id for r in clean]
        assert digests(runs) == digests(clean)
        by_id = {r.exp_id: r for r in runs}
        assert by_id["fig22"].attempts == 2
        assert by_id["fig22"].attempt_history[0]["status"] == "crash"
        assert by_id["fig22"].attempt_history[1]["status"] == "ok"
        assert by_id["abl_barriers"].attempts == 1
        assert any("retrying" in line for line in lines)

    def test_exhausted_retries_keep_going_annotates(self):
        plan = parse_spec("crash:fig22:*")
        runs = run_suite(jobs=2, only=ONLY, retries=1, backoff=BACKOFF,
                         keep_going=True, fault_plan=plan)
        by_id = {r.exp_id: r for r in runs}
        failed = by_id["fig22"]
        assert not failed.ok and failed.attempts == 2
        assert "abnormally" in failed.error
        assert by_id["abl_barriers"].ok
        report = parallel.render_report(runs)
        assert "fig22: FAILED" in report
        assert "2 attempt(s)" in report
        # The healthy figure still renders its table.
        assert "unit/Rocket ratio" not in report  # fig22 is the failed one
        assert "abl_barriers" in report

    def test_exhausted_retries_without_keep_going_raises(self):
        plan = parse_spec("crash:fig22:*")
        with pytest.raises(SuiteRunError, match="fig22"):
            run_suite(jobs=2, only=ONLY, retries=1, backoff=BACKOFF,
                      fault_plan=plan)
        assert multiprocessing.active_children() == []

    def test_inline_raise_fault_is_retried(self):
        """jobs=1 path: in-band errors retry with the same accounting."""
        clean = run_suite(jobs=1, only=ONLY)
        plan = parse_spec("raise:abl_barriers:1")
        runs = run_suite(jobs=1, only=ONLY, retries=1, backoff=BACKOFF,
                         fault_plan=plan)
        assert digests(runs) == digests(clean)
        by_id = {r.exp_id: r for r in runs}
        assert by_id["abl_barriers"].attempts == 2
        assert "FaultInjected" in \
            by_id["abl_barriers"].attempt_history[0]["error"]


class TestHangRecovery:
    def test_timeout_fires_and_task_is_rescheduled(self):
        clean = run_suite(jobs=2, only=ONLY)
        plan = FaultPlan(faults=(Fault("hang", "fig22", 1),),
                         hang_seconds=60.0)
        t0 = time.monotonic()
        runs = run_suite(jobs=2, only=ONLY, retries=1, backoff=BACKOFF,
                         timeout=1.0, fault_plan=plan)
        assert time.monotonic() - t0 < 30.0  # killed, not slept out
        assert digests(runs) == digests(clean)
        by_id = {r.exp_id: r for r in runs}
        assert by_id["fig22"].attempts == 2
        assert by_id["fig22"].attempt_history[0]["status"] == "timeout"
        assert "timed out" in by_id["fig22"].attempt_history[0]["error"]
        assert multiprocessing.active_children() == []


@pytest.fixture
def sharded_suite(monkeypatch):
    """SUITE narrowed to :data:`SHARDED`; yields its clean digests."""
    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
    monkeypatch.setattr(suite_mod, "SUITE", list(SHARDED))
    heapcache.reset_cache()
    yield digests(run_suite(jobs=1))
    heapcache.reset_cache()


class TestShardedCells:
    """Sharded entries run as per-value cells on the pool, so faults,
    timeouts and crashes are handled per cell like any other task."""

    def test_crash_fault_is_retried_per_cell(self, sharded_suite):
        lines = []
        runs = run_suite(jobs=2, shard_figures=True, retries=2,
                         backoff=BACKOFF, progress=lines.append,
                         fault_plan=parse_spec("crash:fig19:1"))
        assert digests(runs) == sharded_suite
        fig19 = runs[0]
        assert fig19.ok and fig19.attempts == 2
        assert len(fig19.shard_digests) == 2
        crashes = [rec for rec in fig19.attempt_history
                   if rec["status"] == "crash"]
        assert sorted(rec["cell"] for rec in crashes) == [128, 2048]
        assert all("status 139" in rec["error"] for rec in crashes)
        assert any("fig19[queue_entries=128] crash" in line
                   and "retrying" in line for line in lines)

    def test_hung_cell_is_reaped_at_the_deadline(self, sharded_suite):
        plan = FaultPlan(faults=(Fault("hang", "fig19", 1),),
                         hang_seconds=60.0)
        t0 = time.monotonic()
        runs = run_suite(jobs=2, shard_figures=True, retries=1,
                         backoff=BACKOFF, timeout=3.0, fault_plan=plan)
        assert time.monotonic() - t0 < 30.0  # killed, not slept out
        assert digests(runs) == sharded_suite
        history = runs[0].attempt_history
        for cell in (128, 2048):
            first = next(rec for rec in history if rec["cell"] == cell)
            assert first["status"] == "timeout"
            assert "timed out" in first["error"]
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_dead_cell_names_its_exit_status(self, sharded_suite,
                                             monkeypatch):
        import repro.harness.simcache as simcache

        def dying(exp_id, kwargs, _real=simcache.run_experiment):
            if kwargs.get("queue_entries") == [128]:
                os._exit(42)  # die without reporting: pipe EOF
            return _real(exp_id, kwargs)

        monkeypatch.setattr(simcache, "run_experiment", dying)
        with pytest.raises(SuiteRunError,
                           match=r"fig19\[queue_entries=128\]: .*status 42"):
            run_suite(jobs=2, shard_figures=True, retries=0)
        assert multiprocessing.active_children() == []

    def test_exhausted_cell_fails_its_entry_and_drops_siblings(
            self, monkeypatch):
        """The first cell to exhaust its retries fails fig19; cells not
        yet dispatched never run, and the other entry still finishes."""
        monkeypatch.setattr(suite_mod, "SUITE", [
            ("fig19", dict(scale=0.005, seed=1,
                           queue_entries=[128, 512, 2048, 16384])),
            ("fig22", {})])
        runs = run_suite(jobs=2, shard_figures=True, keep_going=True,
                         fault_plan=parse_spec("crash:fig19:*"))
        failed, fig22 = runs
        assert failed.status == "failed" and fig22.ok
        assert failed.error.startswith("fig19[queue_entries=")
        assert "status 139" in failed.error
        # Two workers: at most the first two cells were ever dispatched.
        assert {rec["cell"] for rec in failed.attempt_history} <= {128, 512}


class TestKeyboardInterrupt:
    def test_pool_torn_down_rerun_resumes_from_cache(self, tmp_path,
                                                     monkeypatch):
        """Ctrl-C mid-run: workers reaped, the finished figure's cell is
        cached, and a rerun against the same cache hits it."""
        monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
        clean = run_suite(jobs=2, only=ONLY)
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "cells"))

        def interrupt_after_first_done(msg):
            if "done" in msg:
                raise KeyboardInterrupt

        # fig22 hangs forever (no timeout); abl_barriers completes, its
        # "done" progress line triggers the interrupt.
        plan = FaultPlan(faults=(Fault("hang", "fig22", None),),
                         hang_seconds=600.0)
        with pytest.raises(KeyboardInterrupt):
            run_suite(jobs=2, only=ONLY, backoff=BACKOFF,
                      progress=interrupt_after_first_done, fault_plan=plan)
        assert multiprocessing.active_children() == []

        resumed = {r.exp_id: r for r in run_suite(jobs=2, only=ONLY)}
        assert (resumed["abl_barriers"].cache_hits,
                resumed["abl_barriers"].cache_misses) == (1, 0)
        assert (resumed["fig22"].cache_hits,
                resumed["fig22"].cache_misses) == (0, 1)
        assert digests(resumed.values()) == digests(clean)


class TestCLIRecovery:
    def test_injected_crash_run_matches_clean_digests(self, monkeypatch,
                                                      capsys):
        from repro.__main__ import main

        def run(args):
            code = main(["run-all", "--jobs", "2", "--only",
                         ",".join(ONLY), "--retries", "2", "--digests",
                         *args])
            out = capsys.readouterr().out
            digest_lines = sorted(
                line for line in out.splitlines()
                if len(line.split()) == 2 and len(line.split()[1]) == 64)
            return code, digest_lines

        code, clean = run([])
        assert code == 0
        monkeypatch.setenv("REPRO_FAULTS", "crash:fig22:1")
        code, faulted = run([])
        assert code == 0
        assert faulted == clean

    def test_exhausted_retries_exit_nonzero(self, monkeypatch, capsys,
                                            tmp_path):
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_FAULTS", "crash:fig22:*")
        out = tmp_path / "report.md"
        code = main(["run-all", "--jobs", "2", "--only", ",".join(ONLY),
                     "--retries", "1", "--keep-going", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED fig22" in captured.err
        assert "fig22: FAILED" in out.read_text()

    def test_abort_names_the_cache_and_rerun_resumes(self, monkeypatch,
                                                     capsys, tmp_path):
        """An aborted run points at its cache; the rerun serves the cell
        that finished and simulates only the one that failed."""
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "cells"))
        monkeypatch.setenv("REPRO_FAULTS", "raise:abl_barriers:*")
        args = ["run-all", "--jobs", "1", "--only", ",".join(ONLY)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"completed cells are cached in {tmp_path / 'cells'}" in err
        assert "rerun with the same REPRO_SIM_CACHE to continue" in err

        monkeypatch.delenv("REPRO_FAULTS")
        assert main(args) == 0
        assert "sim cache: 1 hit(s), 1 simulated cell(s)" in \
            capsys.readouterr().out

    def test_unknown_fault_id_exits_2(self, monkeypatch, capsys):
        """A typo'd drill must not pass by injecting nothing."""
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_FAULTS", "crash:nosuchfig:1")
        assert main(["run-all", "--jobs", "2", "--only", "fig22"]) == 2
        err = capsys.readouterr().err
        assert "'nosuchfig'" in err
        assert "valid ids: " in err and "fig22" in err

    def test_bad_fault_spec_exits_2(self, monkeypatch, capsys):
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_FAULTS", "explode:fig22:1")
        assert main(["run-all", "--jobs", "1", "--only", "fig22"]) == 2
        assert "kind must be one of" in capsys.readouterr().err
