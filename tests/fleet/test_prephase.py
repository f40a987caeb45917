"""Fleet base runs are simulated once, ahead of the cells that read them.

``fleet_base_runs`` is the one list of base runs a fleet cell reads: the
figures read through a :class:`~repro.fleet.timeline.BaseRuns` of it, and
with ``jobs > 1`` and a sim store the worker pool simulates its missing
entries first, as tasks of their own. The pre-phase is an optimization
only: with no store, a bypassed one, ``jobs=1`` or every entry present it
plans nothing, and a base-run task that fails is dropped while its cells
simulate the base run themselves — digests never move.
"""

import os
import time
import uuid
from collections import Counter

import pytest

import repro.fleet.timeline as timeline
import repro.harness.parallel as parallel
import repro.harness.suite as suite_mod
from repro.harness import faults, heapcache
from repro.harness.figures import FIGURES, fleet_base_runs
from repro.harness.parallel import digests, run_suite
from repro.harness.suite import run_entry
from repro.workloads.mutator import MutatorModel
from tests.fleet.test_determinism import RES_KWARGS, SLO_DIGEST, SLO_KWARGS

SMALL = dict(scale=0.005, n_gcs=1, seed=1, n_tenants=2, n_queries=200,
             warmup=20)
CLEAN, ARMED = ("no faults", ""), ("crash u1", "crash:u1@1400000")

#: Two clean roster cells reading the same two hardware base runs.
TWO_CLEAN = dict(SMALL, n_units=2, rosters=(CLEAN, ("also clean", "")))


@pytest.fixture(autouse=True)
def _no_fault_planes(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_HWFAULTS", raising=False)


def _suite(monkeypatch, *entries):
    monkeypatch.setattr(suite_mod, "SUITE", list(entries))


def _reset_memos():
    heapcache.reset_cache()
    timeline.reset_base_cache()


def _markers(directory):
    return [path.name.rsplit("-", 1)[0] for path in directory.iterdir()]


@pytest.fixture
def simulated(tmp_path, monkeypatch):
    """Every ``MutatorModel.run`` in any process leaves one marker file
    named after its base run (the forked workers inherit the patch)."""
    marks = tmp_path / "simulated"
    marks.mkdir()

    def run(self, n_gcs=3, _real=MutatorModel.run):
        built = self.built
        key = (f"{built.profile.name}:{self.collector}:{built.scale}:"
               f"{built.seed}:{n_gcs}")
        (marks / f"{key}-{uuid.uuid4().hex}").touch()
        return _real(self, n_gcs)

    monkeypatch.setattr(MutatorModel, "run", run)
    return marks


@pytest.fixture
def dispatched(tmp_path, monkeypatch):
    """Every pre-phase task a worker starts leaves one marker file."""
    marks = tmp_path / "dispatched"
    marks.mkdir()

    def simulate(key, _real=parallel._simulate_base_run):
        (marks / f"{':'.join(map(str, key))}-{uuid.uuid4().hex}").touch()
        _real(key)

    monkeypatch.setattr(parallel, "_simulate_base_run", simulate)
    return marks


class TestOneList:
    """A cell reads exactly the base runs ``fleet_base_runs`` lists."""

    @pytest.mark.parametrize("exp_id,kwargs", [
        ("fleet_slo", SMALL),
        ("fleet_slo", dict(SMALL, policies=("dedicated", "shared"))),
        ("fleet_lbo", dict(scale=0.005, n_gcs=1, fleet_sizes=(1, 2),
                           collectors=("hw", "concurrent"))),
        ("fleet_resilience", dict(SMALL, n_units=2, rosters=(CLEAN,))),
        ("fleet_resilience", dict(SMALL, n_units=2, rosters=(CLEAN, ARMED))),
    ], ids=["slo", "slo-no-software", "lbo", "resilience-clean",
            "resilience-armed"])
    def test_misses_equal_the_list(self, exp_id, kwargs, monkeypatch):
        misses = []

        def recording(kind, finish, *key, _real=timeline._stored, **kw):
            if (kind, *key) not in timeline._MEMO:
                misses.append((kind, *key))
            return _real(kind, finish, *key, **kw)

        monkeypatch.setattr(timeline, "_stored", recording)
        FIGURES[exp_id].runner(**kwargs)
        read = [tuple(key) for kind, *key in misses
                if kind == timeline.BASE_RUN_KIND]
        listed = fleet_base_runs(exp_id, kwargs)
        assert len(listed) == len(set(listed))
        assert sorted(read) == sorted(listed)

    def test_a_read_outside_the_list_raises(self):
        reads = timeline.BaseRuns([("avrora", "hw", 0.005, 1, 1)])
        with pytest.raises(KeyError, match="not in the cell's list"):
            reads("avrora", "sw", 0.005, 1, 1)

    def test_non_fleet_figures_read_none(self):
        assert fleet_base_runs("fig22", {}) == ()


class TestOnceOnly:
    def test_a_cold_parallel_run_simulates_each_base_run_once(
            self, tmp_path, monkeypatch, simulated):
        # Both figures read the same hardware and software base runs;
        # every cell used to simulate the ones it read on its own worker.
        resilience = dict(RES_KWARGS, rosters=RES_KWARGS["rosters"][:2])
        _suite(monkeypatch, ("fleet_resilience", resilience),
               ("fleet_slo", SLO_KWARGS))
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "sim"))
        runs = run_suite(jobs=2, shard_figures=True)
        counts = Counter(_markers(simulated))
        listed = {":".join(map(str, key))
                  for exp_id, kwargs in suite_mod.SUITE
                  for key in fleet_base_runs(exp_id, kwargs)}
        assert set(counts) == listed
        assert set(counts.values()) == {1}
        assert sum(r.base_runs_ahead for r in runs) == len(listed)
        assert all(r.ok and r.attempts == 1 for r in runs)

        monkeypatch.delenv("REPRO_SIM_CACHE")
        _reset_memos()
        serial = run_suite(jobs=1)
        assert digests(runs) == digests(serial)
        assert digests(runs)["fleet_slo"] == SLO_DIGEST


class TestSkipped:
    """Nothing is dispatched ahead where a cell could not use it."""

    @pytest.mark.parametrize("case", ["store-disabled", "hwfaults-armed",
                                      "jobs-1", "warm-rerun"])
    def test_no_prephase(self, case, tmp_path, monkeypatch, dispatched):
        _suite(monkeypatch, ("fleet_resilience", TWO_CLEAN))
        jobs = 1 if case == "jobs-1" else 2
        if case != "store-disabled":
            monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "sim"))
        if case == "hwfaults-armed":
            # Armed but quiet: it never fires, so digests stay clean.
            monkeypatch.setenv("REPRO_HWFAULTS", "drop:dram:1000000000")
        if case == "warm-rerun":
            cold = run_suite(jobs=2, shard_figures=True)
            assert sum(r.base_runs_ahead for r in cold) == 2
            for path in dispatched.iterdir():
                path.unlink()
            _reset_memos()
        runs = run_suite(jobs=jobs, shard_figures=True)
        assert _markers(dispatched) == []
        assert sum(r.base_runs_ahead for r in runs) == 0
        monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
        monkeypatch.delenv("REPRO_HWFAULTS", raising=False)
        _reset_memos()
        reference = run_entry(0, "fleet_resilience", TWO_CLEAN)
        assert digests(runs) == {"fleet_resilience": reference.digest}


class TestFailureIsolation:
    """A failed base-run task is dropped, never retried or charged to a
    figure; its cells simulate the base run themselves."""

    @pytest.mark.parametrize("how", ["raise", "exit", "timeout"])
    def test_failed_task_releases_its_cells(self, how, tmp_path,
                                            monkeypatch):
        def failing(key):
            if how == "raise":
                raise RuntimeError("base run failed")
            if how == "exit":
                os._exit(3)
            time.sleep(60)

        _suite(monkeypatch, ("fleet_resilience", TWO_CLEAN))
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "sim"))
        monkeypatch.setattr(parallel, "_simulate_base_run", failing)
        said = []
        runs = run_suite(jobs=2, shard_figures=True, progress=said.append,
                         timeout=6 if how == "timeout" else None)
        dropped = [msg for msg in said if "fleet base run" in msg
                   and "its cells simulate it themselves" in msg]
        assert len(dropped) == 2  # one per planned base run, no retry
        (run,) = runs
        assert run.ok and run.attempts == 1 and run.base_runs_ahead == 0
        assert [rec["status"] for rec in run.attempt_history] == ["ok"] * 2
        # The cells stored the base runs they simulated themselves.
        assert len(list((tmp_path / "sim").glob("*.base-run"))) == 2
        monkeypatch.delenv("REPRO_SIM_CACHE")
        _reset_memos()
        reference = run_entry(0, "fleet_resilience", TWO_CLEAN)
        assert run.digest == reference.digest

    def test_bad_kwargs_fail_their_cell_not_the_plan(self, tmp_path,
                                                     monkeypatch):
        bad = dict(TWO_CLEAN, rosters=(CLEAN, ("typo", "explode:u1")))
        _suite(monkeypatch, ("fleet_resilience", bad))
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "sim"))
        (run,) = run_suite(jobs=2, shard_figures=True, keep_going=True)
        assert not run.ok and "explode" in run.error

    def test_cell_faults_never_land_on_a_base_run(self, tmp_path,
                                                  monkeypatch, dispatched):
        _suite(monkeypatch, ("fleet_resilience", TWO_CLEAN))
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "sim"))
        runs = run_suite(jobs=2, shard_figures=True, retries=1,
                         backoff=0.01,
                         fault_plan=faults.parse_spec(
                             "crash:fleet_resilience:1"))
        (run,) = runs
        # Both base runs ran ahead, unfaulted; each roster cell crashed
        # once and recovered on its retry.
        assert len(_markers(dispatched)) == 2 and run.base_runs_ahead == 2
        assert run.ok and run.attempts == 2
        crashed = [rec for rec in run.attempt_history
                   if rec["status"] == "crash"]
        assert sorted(rec["cell"] for rec in crashed) == \
            sorted(TWO_CLEAN["rosters"])
        monkeypatch.delenv("REPRO_SIM_CACHE")
        _reset_memos()
        reference = run_entry(0, "fleet_resilience", TWO_CLEAN)
        assert run.digest == reference.digest


class TestRunAllReport:
    def test_run_all_counts_base_runs_apart_from_cells(
            self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        _suite(monkeypatch, ("fleet_resilience", TWO_CLEAN))
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "sim"))
        argv = ["run-all", "--jobs", "2", "--shard-figures", "--digests"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fleet base runs: 2 simulated ahead of their cells" in out
        assert "sim cache: 0 hit(s), 2 simulated cell(s)" in out
        assert len(list((tmp_path / "sim").glob("*.base-run"))) == 2
        _reset_memos()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fleet base runs" not in out
        assert "sim cache: 2 hit(s), 0 simulated cell(s)" in out
