"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out and "avrora" in out

    def test_run_experiment(self, capsys):
        assert main(["run", "fig22"]) == 0
        out = capsys.readouterr().out
        assert "unit/Rocket ratio" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_compare(self, capsys):
        assert main(["compare", "avrora", "--scale", "0.008"]) == 0
        out = capsys.readouterr().out
        assert "overall speedup" in out

    def test_compare_unknown_benchmark(self, capsys):
        assert main(["compare", "specjbb"]) == 2

    def test_compare_passes_falsy_seed_and_scale_through(self, capsys,
                                                         monkeypatch):
        import repro.harness.runners as runners
        calls = []

        class Comparison:
            overall_speedup = 1.0

            def summary(self):
                return ""

        def record(profile, scale, seed):
            calls.append((profile.name, scale, seed))
            return Comparison()

        monkeypatch.setattr(runners, "run_gc_comparison", record)
        assert main(["compare", "avrora"]) == 0
        assert main(["compare", "avrora", "--seed", "0"]) == 0
        assert calls == [("avrora", 0.03, 1), ("avrora", 0.03, 0)]
        # --scale 0 is refused by name, as `run --scale 0` is, instead of
        # silently running the default scale.
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["compare", "avrora", "--scale", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("avrora --scale 0.0 ")
        assert "scale 0.0 leaves only 0" in err
        assert len(err.splitlines()) == 1

    def test_area(self, capsys):
        assert main(["area"]) == 0
        assert "Mark Q." in capsys.readouterr().out

    def test_run_with_scale_and_seed(self, capsys):
        assert main(["run", "abl_barriers"]) == 0

    @pytest.mark.parametrize("argv,flag", [
        (["run", "fig22", "--scale", "0.1"], "--scale"),
        (["run", "abl_barriers", "--seed", "3"], "--seed"),
    ])
    def test_run_refuses_a_flag_the_figure_does_not_take(self, capsys, argv,
                                                        flag):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"{argv[1]} takes no {flag}\n"

    def test_run_refuses_a_bad_scale_by_name(self, capsys):
        assert main(["run", "fig15", "--scale", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fig15 --scale -1.0: scale -1.0 leaves only")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv,start", [
        (["trace", "avrora", "--scale", "0"],
         "avrora --scale 0.0: scale 0.0 leaves only 0 objects"),
        (["fault-drill", "--benchmark", "avrora", "--scale", "0"],
         "avrora --scale 0.0: scale 0.0 leaves only 0 objects"),
        (["fault-drill", "--mode", "concurrent",
          "--relocate-blocks", "-1"],
         "--relocate-blocks must be at least 0 (got -1)"),
    ])
    def test_heap_build_inputs_are_refused_by_flag(self, capsys, argv,
                                                   start):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(start)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["compare", "avrora", "--scale", "0.005"],
        ["trace", "avrora", "--scale", "0.005"],
        ["fleet", "--scale", "0.005", "--tenants", "2", "--queries", "200",
         "--warmup", "20"],
    ])
    def test_bad_hwfault_env_is_refused_by_name(self, capsys, monkeypatch,
                                                argv):
        monkeypatch.setenv("REPRO_HWFAULTS", "bogus")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "REPRO_HWFAULTS='bogus': bad hwfault 'bogus'" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("flag,value,shown", [
        ("--timeout", "-1", "-1"),
        ("--timeout", "0", "0"),
        ("--retries", "-1", "-1"),
        ("--jobs", "-2", "-2"),
    ])
    def test_run_all_rejects_nonsense_counts(self, capsys, flag, value,
                                             shown):
        assert main(["run-all", "--only", "fig22", flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and f"(got {shown})" in err

    @pytest.mark.parametrize("var", ["REPRO_SIM_CACHE_MAX_MB",
                                     "REPRO_HEAP_CACHE_MAX_MB"])
    def test_run_all_rejects_bad_cache_cap_before_running(
            self, capsys, monkeypatch, var):
        monkeypatch.setenv(var, "banana")
        assert main(["run-all", "--only", "fig22"]) == 2
        captured = capsys.readouterr()
        assert var in captured.err and "'banana'" in captured.err
        assert "running fig22" not in captured.out

    def test_run_all_says_when_the_sim_cache_is_bypassed(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "cells"))
        monkeypatch.setenv("REPRO_HWFAULTS", "drop:dram:1000000000")
        assert main(["run-all", "--only", "fig22"]) == 0
        out = capsys.readouterr().out
        assert out.count("sim cache: bypassed (REPRO_HWFAULTS is armed)") == 1
        assert "hit(s)" not in out
        monkeypatch.delenv("REPRO_HWFAULTS")
        assert main(["run-all", "--only", "fig22"]) == 0
        out = capsys.readouterr().out
        assert "bypassed" not in out
        assert "sim cache: 0 hit(s), 1 simulated cell(s)" in out


class TestTraceCommand:
    def test_chrome_export_is_valid(self, capsys, tmp_path):
        out = tmp_path / "gc.json"
        assert main(["trace", "avrora", "--scale", "0.008",
                     "--out", str(out), "--digest"]) == 0
        text = capsys.readouterr().out
        assert "digest:" in text and "memory requests" in text
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert events, "empty Chrome trace"
        phases = {e["name"] for e in events if e.get("ph") == "B"}
        assert {"hw.mark", "hw.sweep", "sw.mark", "sw.sweep"} <= phases
        # Every slice must carry the required trace_event keys.
        for e in events:
            assert {"name", "ph", "pid"} <= e.keys()
        assert doc["otherData"]["target"] == "avrora"

    def test_figure_target_resolves(self, capsys, tmp_path):
        out = tmp_path / "fig.jsonl"
        assert main(["trace", "fig16", "--scale", "0.008", "--collector",
                     "hw", "--format", "jsonl", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert isinstance(first[0], int) and isinstance(first[1], str)
        assert "profile avrora" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        out = tmp_path / "gc.csv"
        assert main(["trace", "avrora", "--scale", "0.008", "--collector",
                     "sw", "--format", "csv", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("cycle,category")

    def test_unknown_target(self, capsys):
        assert main(["trace", "specjbb"]) == 2
        assert "unknown trace target" in capsys.readouterr().err
