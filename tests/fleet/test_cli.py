"""``python -m repro fleet`` CLI: policy validation UX and output."""

import pytest

from repro.__main__ import main


class TestPolicyValidation:
    def test_bogus_policy_exits_nonzero_listing_valid(self, capsys):
        assert main(["fleet", "--policy", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        for name in ("dedicated", "shared", "software"):
            assert name in err

    def test_one_bad_policy_in_a_list_still_fails(self, capsys):
        assert main(["fleet", "--policy", "dedicated,bogus"]) == 2
        assert "valid policies" in capsys.readouterr().err

    def test_empty_policy_selection_fails(self, capsys):
        assert main(["fleet", "--policy", ","]) == 2
        assert "valid policies" in capsys.readouterr().err


class TestCountValidation:
    @pytest.mark.parametrize("flag,bad,minimum", [
        ("--units", "0", 1),
        ("--units", "-2", 1),
        ("--tenants", "0", 1),
        ("--tenants", "-1", 1),
        ("--queries", "0", 1),
        ("--warmup", "-1", 0),
        ("--gcs", "0", 1),
    ])
    def test_non_positive_counts_exit_2_naming_the_constraint(
            self, capsys, flag, bad, minimum):
        assert main(["fleet", flag, bad]) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be at least {minimum} (got {bad})" in err

    @pytest.mark.parametrize("flag,bad,message", [
        ("--scale", "0", "--scale must be greater than 0 (got 0.0)"),
        ("--scale", "-1", "--scale must be greater than 0 (got -1.0)"),
        ("--scale", "nan", "--scale must be greater than 0 (got nan)"),
        ("--dram-tax", "-3", "--dram-tax must be at least 0 (got -3.0)"),
        ("--shed-intervals", "-1",
         "--shed-intervals must be at least 0 (got -1)"),
    ])
    def test_bad_fleet_parameters_exit_2_in_one_line(self, capsys, flag,
                                                     bad, message):
        """Each exits 2 before simulating anything, with the one stderr
        line naming the flag (not a traceback, and not silently taken as
        "never shed")."""
        assert main(["fleet", flag, bad]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert captured.out == ""

    def test_valid_counts_are_not_rejected_by_the_validator(self, capsys):
        # --warmup 0 is legal (minimum is 0, not 1): the validator must
        # not reject the boundary value.  Smallest possible run.
        rc = main(["fleet", "--scale", "0.008", "--tenants", "1",
                   "--queries", "1", "--warmup", "0", "--gcs", "1",
                   "--policy", "dedicated"])
        assert rc == 0
        assert "## fleet_slo" in capsys.readouterr().out


class TestFaultsFlag:
    @pytest.mark.parametrize("spec", [
        "explode:u0",            # unknown kind
        "crash:x1",              # unknown target class
        "crash:u0+5",            # crash forbids a duration
        "brownout:u0",           # brownout requires one
        "slow:u0x1.0",           # factor must exceed 1.0
        "crash:",                # missing target
    ])
    def test_bad_grammar_exits_2(self, capsys, spec):
        assert main(["fleet", "--faults", spec]) == 2
        assert capsys.readouterr().err.strip()

    def test_out_of_range_target_exits_2(self, capsys):
        assert main(["fleet", "--units", "2", "--tenants", "2",
                     "--faults", "crash:u5"]) == 2
        assert "u5" in capsys.readouterr().err

    def test_faults_run_prints_the_resilience_table(self, capsys):
        rc = main(["fleet", "--scale", "0.008", "--tenants", "2",
                   "--queries", "200", "--warmup", "20", "--gcs", "1",
                   "--units", "2", "--faults", "slow:u0x2", "--digest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "## fleet_resilience" in out
        assert "avail %" in out and "failovers" in out
        assert "slow:u0x2" in out
        digest = out.strip().splitlines()[-1]
        assert len(digest) == 64 and int(digest, 16) >= 0


class TestFleetCommand:
    def test_prints_table_and_digest(self, capsys):
        rc = main(["fleet", "--scale", "0.008", "--tenants", "2",
                   "--queries", "300", "--warmup", "30", "--gcs", "1",
                   "--policy", "dedicated", "--digest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "## fleet_slo" in out
        assert "goodput q/s" in out
        digest = out.strip().splitlines()[-1]
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_second_run_serves_base_runs_from_the_sim_cache(
            self, capsys, monkeypatch, tmp_path):
        import repro.fleet.timeline as timeline

        argv = ["fleet", "--scale", "0.008", "--tenants", "2",
                "--queries", "300", "--warmup", "30", "--gcs", "1",
                "--policy", "dedicated", "--digest"]
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path))
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("*.base-run"))
        timeline.reset_base_cache()  # a second invocation
        monkeypatch.setattr(timeline.MutatorModel, "run", lambda *a, **k:
                            pytest.fail("a stored base run re-simulated"))
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_bad_sim_cache_cap_exits_2_naming_it(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE_MAX_MB", "banana")
        assert main(["fleet", "--tenants", "1"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_SIM_CACHE_MAX_MB" in err and "'banana'" in err

    @pytest.mark.slow
    def test_lbo_flag_appends_the_lbo_table(self, capsys):
        rc = main(["fleet", "--scale", "0.008", "--tenants", "2",
                   "--queries", "200", "--warmup", "20", "--gcs", "1",
                   "--policy", "dedicated", "--lbo"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "## fleet_lbo" in out
        assert "LBO %" in out
