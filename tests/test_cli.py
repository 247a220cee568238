import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import oracle_cox, sim_dataset, write_dataset

from mixcox import Dataset, DatasetError, DiagnosticModel, fit, inference
from mixcox.cli import main, parse_dataset, run_fit

DATA_DIR = Path(__file__).parent / "data"


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def replace_intervals(monkeypatch, interval_of):
    """Make ``mixcox fit`` report ``interval_of(param)`` as each profile
    interval; the likelihood-ratio tests still run."""
    real = inference._profile

    def replaced(*args, **kwargs):
        intervals, tests = real(*args, **kwargs)
        return {param: interval_of(param) for param in intervals}, tests

    monkeypatch.setattr(inference, "_profile", replaced)


GOOD = """time,event,treatment,biomarker_test
1.5,1,0,1
2.0,0,1,0
3.25,1,1,NA
"""


class TestParseDataset:
    def test_well_formed(self, tmp_path):
        data = parse_dataset(write(tmp_path, GOOD))
        assert len(data) == 3
        assert data.test[2] == -1  # NA row
        assert data.time[2] == 3.25

    def test_missing_tokens(self, tmp_path):
        text = GOOD.replace("3.25,1,1,NA", "3.25,1,1,") + "4.0,0,0,na\n"
        data = parse_dataset(write(tmp_path, text))
        assert list(data.test) == [1, 0, -1, -1]

    def test_tab_delimited(self, tmp_path):
        data = parse_dataset(write(tmp_path, GOOD.replace(",", "\t")))
        assert len(data) == 3

    def test_bad_event_names_row_and_column(self, tmp_path):
        p = write(tmp_path, GOOD.replace("2.0,0,1,0", "2.0,2,1,0"))
        with pytest.raises(DatasetError, match=r":3: column event"):
            parse_dataset(p)

    def test_nonpositive_time_rejected(self, tmp_path):
        for bad in ("0.0,1,0,1", "inf,1,0,1", "inf,0,0,1"):
            p = write(tmp_path, GOOD.replace("1.5,1,0,1", bad))
            with pytest.raises(DatasetError, match=r":2: column time"):
                parse_dataset(p)

    def test_unknown_test_token(self, tmp_path):
        p = write(tmp_path, GOOD.replace("3.25,1,1,NA", "3.25,1,1,maybe"))
        with pytest.raises(DatasetError, match=r":4: column biomarker_test"):
            parse_dataset(p)

    def test_semicolon_delimited(self, tmp_path):
        data = parse_dataset(write(tmp_path, GOOD.replace(",", ";")))
        assert list(data.test) == [1, 0, -1]
        assert data.time[2] == 3.25

    def test_quoted_header(self, tmp_path):
        header, rest = GOOD.split("\n", 1)
        for sep in (",", ", ", "\t"):
            quoted = sep.join(f'"{name}"' for name in header.split(","))
            body = rest if sep == ", " else rest.replace(",", sep)
            data = parse_dataset(write(tmp_path, quoted + "\n" + body))
            assert list(data.test) == [1, 0, -1], sep

    def test_bad_header(self, tmp_path):
        p = write(tmp_path, GOOD.replace("biomarker_test", "marker"))
        with pytest.raises(DatasetError, match="header"):
            parse_dataset(p)
        with pytest.raises(DatasetError) as info:
            parse_dataset(write(tmp_path, GOOD.replace("biomarker_test", "marker")
                                .replace(",", ";")))
        assert str(info.value) == (
            f"{p}: header must contain exactly time, event, treatment, "
            "biomarker_test; got time, event, treatment, marker")

    def test_roundtrip_identical_fit(self, tmp_path):
        data = sim_dataset(31, n_per_arm=50, sens=0.9, spec=0.9)
        p = tmp_path / "rt.csv"
        write_dataset(data, p)
        back = parse_dataset(p)
        assert np.array_equal(data.time, back.time)
        assert np.array_equal(data.event, back.event)
        assert np.array_equal(data.treatment, back.treatment)
        assert np.array_equal(data.test, back.test)
        diag = DiagnosticModel(0.9, 0.9, 0.3, prevalence_known=False)
        r1 = fit(data, diag)
        r2 = fit(back, diag)
        assert r1.theta_hat == r2.theta_hat
        assert r1.obs_loglik == r2.obs_loglik


class TestRunFit:
    def test_perfect_test_matches_plain_cox(self, tmp_path):
        data = sim_dataset(32, n_per_arm=80, sens=1.0, spec=1.0)
        p = tmp_path / "d.csv"
        write_dataset(data, p)
        report = run_fit(str(p), 1.0, 1.0)
        x = data.treatment.astype(float)
        v = data.test.astype(float)
        beta_ref, _ = oracle_cox(data.time, data.event,
                                 np.column_stack([x, v, x * v]))
        got = [row.estimate for row in report.parameters[:3]]
        assert np.max(np.abs(np.array(got) - beta_ref)) < 1e-6

    def test_prevalence_row_only_when_estimated(self, tmp_path):
        data = sim_dataset(33, n_per_arm=50, sens=0.9, spec=0.9)
        p = tmp_path / "d.csv"
        write_dataset(data, p)
        with_pi = run_fit(str(p), 0.9, 0.9)
        names = [row.name for row in with_pi.parameters]
        assert names == ["beta1", "beta2", "gamma", "pi"]
        without = run_fit(str(p), 0.9, 0.9, prevalence=0.3)
        assert [row.name for row in without.parameters] == ["beta1", "beta2", "gamma"]

    def test_intervals_contain_estimates(self, tmp_path):
        data = sim_dataset(34, n_per_arm=50, sens=0.85, spec=0.9)
        p = tmp_path / "d.csv"
        write_dataset(data, p)
        report = run_fit(str(p), 0.85, 0.9)
        for row in report.parameters:
            assert row.ci.contains(row.estimate)

    def test_tiny_dataset_with_degenerate_profile_region(self, tmp_path):
        # 20 subjects: the prevalence profile hits prevalence values where
        # the constrained fit separates; the CI search must ride over that
        # (treating those candidates as outside the region), not crash
        rows = [
            (2.3, 1, 1, "1"), (5.1, 0, 0, "1"), (1.7, 1, 0, "0"),
            (8.4, 0, 1, "0"), (3.3, 1, 1, "NA"), (6.2, 1, 0, "1"),
            (4.8, 0, 1, "0"), (7.5, 1, 0, "NA"), (2.9, 1, 1, "0"),
            (9.1, 0, 0, "1"), (5.5, 1, 1, "1"), (3.8, 0, 0, "0"),
            (6.6, 1, 1, "0"), (4.2, 1, 0, "1"), (7.9, 0, 1, "1"),
            (1.2, 1, 0, "0"), (8.8, 0, 0, "0"), (5.9, 1, 1, "NA"),
            (3.1, 1, 0, "1"), (6.9, 0, 1, "0"),
        ]
        text = "time,event,treatment,biomarker_test\n" + "\n".join(
            f"{t},{d},{x},{v}" for t, d, x, v in rows
        )
        p = write(tmp_path, text, name="tiny.csv")
        report = run_fit(str(p), 0.9, 0.85)
        for row in report.parameters:
            assert row.ci.contains(row.estimate)

    def test_open_interval_marked_in_text(self, tmp_path, capsys, monkeypatch):
        data = sim_dataset(35, n_per_arm=40, sens=1.0, spec=1.0)
        p = tmp_path / "d.csv"
        write_dataset(data, p)
        replace_intervals(monkeypatch, lambda param: inference.Interval(
            -50.0, 50.0, open_high=param == "gamma"))
        assert main(["fit", str(p), "--sens", "1", "--spec", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        marked = [line for line in lines if ") *" in line]
        assert [line.split()[0] for line in marked] == ["interaction"]
        assert "  * endpoint not bracketed; interval open" in lines


class TestGoldenReport:
    def test_text_layout(self, tmp_path):
        out = tmp_path / "report.txt"
        rc = main([
            "fit", str(DATA_DIR / "golden_trial.csv"),
            "--sens", "0.9", "--spec", "0.85", "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text() == (DATA_DIR / "golden_report.txt").read_text()

    def test_structured_layout(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "fit", str(DATA_DIR / "golden_trial.csv"),
            "--sens", "0.9", "--spec", "0.85", "--format", "structured",
            "--out", str(out),
        ])
        assert rc == 0
        got = json.loads(out.read_text())
        ref = json.loads((DATA_DIR / "golden_report.json").read_text())
        assert got == ref

    def test_known_prevalence_text_layout(self, tmp_path):
        # the prevalence held at 0.3: no prevalence interval, and no
        # prevalence in the profile information
        out = tmp_path / "report.txt"
        rc = main([
            "fit", str(DATA_DIR / "golden_trial.csv"),
            "--sens", "0.9", "--spec", "0.85", "--prev", "0.3", "--out", str(out),
        ])
        assert rc == 0
        assert out.read_bytes() == (DATA_DIR / "golden_report_prev.txt").read_bytes()

    def test_known_prevalence_structured_layout(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "fit", str(DATA_DIR / "golden_trial.csv"),
            "--sens", "0.9", "--spec", "0.85", "--prev", "0.3", "--format", "structured",
            "--out", str(out),
        ])
        assert rc == 0
        got = json.loads(out.read_text())
        ref = json.loads((DATA_DIR / "golden_report_prev.json").read_text())
        assert got == ref

    def test_byte_order_mark_is_read(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start the file with one
        bom = tmp_path / "golden_bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / "golden_trial.csv").read_bytes())
        out = tmp_path / "report.txt"
        rc = main(["fit", str(bom), "--sens", "0.9", "--spec", "0.85", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (DATA_DIR / "golden_report.txt").read_bytes()


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        data = sim_dataset(35, n_per_arm=40, sens=1.0, spec=1.0)
        p = tmp_path / "d.csv"
        write_dataset(data, p)
        assert main(["fit", str(p), "--sens", "1", "--spec", "1"]) == 0
        assert "Parameter estimates" in capsys.readouterr().out

    def test_validation_error_bad_data(self, tmp_path, capsys):
        p = write(tmp_path, GOOD.replace("2.0,0,1,0", "2.0,7,1,0"))
        assert main(["fit", str(p), "--sens", "1", "--spec", "1"]) == 1
        assert "column event" in capsys.readouterr().err

    def test_validation_error_bad_flags(self, tmp_path, capsys):
        p = write(tmp_path, GOOD)
        assert main(["fit", str(p), "--sens", "1.5", "--spec", "1"]) == 1
        assert main(["fit", str(p), "--sens", "0.4", "--spec", "0.4"]) == 1
        capsys.readouterr()
        assert main(["fit", str(p), "--sens", "1", "--spec", "1",
                     "--max-em-iter", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        for flag, value in (("--alpha", "1.5"), ("--prev", "1.0"), ("--format", "xml")):
            assert main(["fit", str(p), "--sens", "1", "--spec", "1",
                         flag, value]) == 1
            assert capsys.readouterr().err.startswith("error: ")

    def test_convergence_failure(self, tmp_path, capsys):
        data = sim_dataset(36, n_per_arm=60, sens=0.8, spec=0.8)
        p = tmp_path / "d.csv"
        write_dataset(data, p)
        rc = main(["fit", str(p), "--sens", "0.8", "--spec", "0.8",
                   "--max-em-iter", "2"])
        assert rc == 2
        assert "did not converge" in capsys.readouterr().err

    def test_refit_at_the_cap_is_convergence_failure(self, capsys):
        # the fit itself converges in 10 maps; some profile refits do not,
        # and a refit stopped at the cap must not feed an interval
        rc = main(["fit", str(DATA_DIR / "golden_trial.csv"), "--sens", "0.9",
                   "--spec", "0.85", "--max-em-iter", "10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: estimation failed: EM did not converge within 10 ")
        # and it names the refit, which the fit is not
        assert re.search(r", in the profile refit at (beta1|beta2|gamma|pi) = -?[0-9.e-]+\n$",
                         err)

    def test_cap_of_one_is_a_validation_error(self, capsys):
        # no fit converges in one map: convergence compares two of them
        rc = main(["fit", str(DATA_DIR / "golden_trial.csv"), "--sens", "0.9",
                   "--spec", "0.85", "--max-em-iter", "1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: max_iter must be at least 2")

    def test_interval_excluding_estimate(self, tmp_path, capsys, monkeypatch):
        data = sim_dataset(35, n_per_arm=40, sens=1.0, spec=1.0)
        p = tmp_path / "d.csv"
        write_dataset(data, p)
        replace_intervals(monkeypatch, lambda param: inference.Interval(1e6, 2e6))
        assert main(["fit", str(p), "--sens", "1", "--spec", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: estimation failed: ")
        assert "excludes the estimate" in err

    @staticmethod
    def edge_trial(tmp_path, time, event):
        """40 subjects, 20 per arm, random test results."""
        rng = np.random.default_rng(0)
        data = Dataset(time, event, np.repeat([0, 1], 20), rng.integers(0, 2, 40))
        p = tmp_path / "edge.csv"
        write_dataset(data, p)
        return ["fit", str(p), "--sens", "0.9", "--spec", "0.85"]

    def test_single_event_is_estimation_failure(self, tmp_path, capsys):
        event = np.zeros(40, dtype=int)
        event[3] = 1
        assert main(self.edge_trial(tmp_path, np.arange(1.0, 41.0), event)) == 2
        assert capsys.readouterr().err.startswith("error: estimation failed: ")

    def test_events_in_one_arm_is_estimation_failure(self, tmp_path, capsys):
        event = np.zeros(40, dtype=int)
        event[:20:2] = 1  # every other control subject, no treated subject
        assert main(self.edge_trial(tmp_path, np.arange(1.0, 41.0), event)) == 2
        assert capsys.readouterr().err.startswith("error: estimation failed: ")

    def test_all_tied_times_fit(self, tmp_path, capsys):
        event = (np.random.default_rng(1).random(40) < 0.6).astype(int)
        assert main(self.edge_trial(tmp_path, np.full(40, 5.0), event)) == 0
        assert "converged: True" in capsys.readouterr().out

    def test_tied_trial_near_separation_is_quiet(self, tmp_path, capsys):
        # profile refits on this trial push Newton trial steps far enough
        # along a separating direction to overflow exp(eta); such a step
        # must count as failed, not print floating-point warnings
        rng = np.random.default_rng(0)
        rng.integers(0, 2, 40)  # the test results edge_trial draws; events come next
        event = (rng.random(40) < 0.6).astype(int)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(self.edge_trial(tmp_path, np.full(40, 5.0), event))
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert rc == 0
        assert "converged: True" in capsys.readouterr().out

    def test_overflowing_warm_start_is_quiet(self, tmp_path, capsys):
        # the gamma profile is flat far out, and the endpoint searches stop
        # at +-50 (cox.SEPARATION_BOUND) with the interval open, short of
        # gamma = 709, where the warm start's relative risk
        # exp(beta1 + beta2 + gamma) overflows; the refits there are quiet
        p = tmp_path / "trial.csv"
        write_dataset(sim_dataset(10022, n_per_arm=40), p)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["fit", str(p), "--sens", "0.8", "--spec", "0.8"])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert rc == 0
        assert "(-50.00, 50.00) *" in capsys.readouterr().out

    def test_io_error(self, capsys):
        assert main(["fit", "/nonexistent/file.csv",
                     "--sens", "1", "--spec", "1"]) == 3

    def test_simulate_zero_reps_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenarios.json"
        cfg.write_text(json.dumps(TestSimulateCommand.CONFIG[:1]))
        assert main(["simulate", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "o"), "--reps", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestSimulateCommand:
    CONFIG = [
        {
            "theta": [0.0, 0.1, 0.0], "pi": 0.3, "sens": 0.9, "spec": 0.9,
            "n_per_arm": 40, "reps": 3, "seed": 55, "alpha": 0.05,
        },
        {
            "theta": [-0.5, 0.1, 0.3], "pi": 0.3, "sens": 1.0, "spec": 1.0,
            "n_per_arm": 40, "reps": 3, "seed": 56,
        },
    ]

    def test_writes_tables_and_is_reproducible(self, tmp_path, capsys):
        cfg = tmp_path / "scenarios.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        for name in ("summary.txt", "summary.csv"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b
        csv_text = (out1 / "summary.csv").read_text()
        assert len(csv_text.strip().splitlines()) == 3  # header + 2 scenarios
        assert "scenario 1/2" in capsys.readouterr().out

    def test_reps_override(self, tmp_path, capsys):
        cfg = tmp_path / "scenarios.json"
        cfg.write_text(json.dumps(self.CONFIG[:1]))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                     "--reps", "2"]) == 0
        assert ",2," in (out / "summary.csv").read_text().splitlines()[1]

    @pytest.mark.parametrize("scenario, key, value",
                             [(0, "n_per_arm", 0), (1, "pi", 1.3), (0, "alpha", 1.5)],
                             ids=["n_per_arm", "pi_of_second", "alpha"])
    def test_invalid_scenario_fails_before_any_runs(self, tmp_path, capsys,
                                                    scenario, key, value):
        entries = [dict(entry) for entry in self.CONFIG]
        entries[scenario][key] = value
        cfg = tmp_path / "scenarios.json"
        cfg.write_text(json.dumps(entries))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid scenario entry")
        assert "scenario 1/" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("key, value, flags, message", [
        ("prevalence_known", "false", [], "prevalence_known must be true or false, got 'false'"),
        ("prevalence_known", 1, [], "prevalence_known must be true or false, got 1"),
        ("n_per_arm", 20.7, [], "n_per_arm must be an integer, got 20.7"),
        ("n_per_arm", True, [], "n_per_arm must be an integer, got True"),
        ("reps", 2.9, [], "reps must be an integer, got 2.9"),
        ("seed", 1.5, [], "seed must be an integer, got 1.5"),
        ("seed", -3, [], "base_seed must be non-negative, got -3"),
        ("seed", 56, ["--seed", "-3"], "base_seed must be non-negative, got -3"),
        ("theta", [0.0, 0.1, 0.0, 0.2], [], "theta must be a list of 3 numbers, got "),
    ], ids=["known_str", "known_int", "n_float", "n_bool", "reps_float", "seed_float",
            "seed_negative", "seed_flag_negative", "theta_four"])
    def test_values_are_never_coerced(self, tmp_path, capsys, key, value, flags, message):
        entries = [dict(entry) for entry in self.CONFIG]
        entries[1][key] = value
        cfg = tmp_path / "scenarios.json"
        cfg.write_text(json.dumps(entries))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid scenario entry")
        assert message in captured.err
        assert "scenario 1/" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_worker_count_below_one_is_validation_error(self, tmp_path, capsys, workers):
        cfg = tmp_path / "scenarios.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                     "--workers", workers]) == 1
        assert capsys.readouterr().err == "error: workers must be at least 1\n"
        assert not (out / "summary.txt").exists()
        assert not (out / "summary.csv").exists()

    def test_invalid_json_is_validation_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "{not json", name="bad.json")
        assert main(["simulate", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "x")]) == 1

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out-dir", str(tmp_path / "x")]) == 3


def test_import_leaves_out_quadrature_and_root_finding():
    # most of the command's start-up is imports; the package runs on numpy
    # and the standard library, and loads no scipy module at all
    src = Path(inference.__file__).resolve().parent.parent
    code = ("import sys, mixcox.cli; print([m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"
