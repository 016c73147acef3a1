import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import eventfdi as ef
from eventfdi import cli, harness
from eventfdi.cli import main

import _golden
from _oracles import random_stable_model

REPO = Path(__file__).resolve().parents[1]
SCENARIO = str(REPO / "scenarios" / "paper_sec5.json")


def strict_json(text: str):
    """text parsed as RFC 8259 JSON, which has no NaN, Infinity or -Infinity."""

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one command; any JSON on stdout must be strict."""
    code = main(list(argv))
    out = capsys.readouterr()
    if "{" in out.out:
        strict_json(out.out[out.out.index("{"):])
    return code, out.out, out.err


def payload_file(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return str(path)


def small_config_file(tmp_path, **overrides):
    return payload_file(tmp_path, ef.paper_scenario(steps=260, trajectories=2, **overrides))


def unstable_config_file(tmp_path):
    """The paper scenario with A scaled to spectral radius 1.05, for 60 steps."""
    A = np.array(harness.PAPER_A)
    A *= 1.05 / np.max(np.abs(np.linalg.eigvals(A)))
    payload = ef.paper_scenario(steps=60, trajectories=2, burn_in=20, attack_start=10)
    payload["model"] = dict(payload["model"], A=A.tolist())
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(payload))
    return str(path)


def large_config_file(tmp_path):
    """The paper scenario, 300 steps, on a random stable system with n = 12 and m = 2."""
    model = random_stable_model(12, 2, 0.95, 12)
    payload = ef.paper_scenario(steps=300, trajectories=2, burn_in=150, attack_start=75)
    payload["model"] = {key: getattr(model, key).tolist() for key in ("A", "C", "Q", "R", "Xi0")}
    path = tmp_path / "n12.json"
    path.write_text(json.dumps(payload))
    return str(path)


def assert_unconverged_theory_exits_2(capsys, tmp_path, payload, command):
    """A stable A whose theory the code cannot finish is a numeric error, not an
    undefined theory."""
    code, out, err = run_cli(capsys, command, "--config", payload_file(tmp_path, payload))
    assert code == 2 and out == ""
    assert err.startswith("numeric error: event-based covariance did not converge")


def assert_one_error_line(code, err):
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


class TestStrictJson:
    def test_values_that_are_not_finite_print_as_null(self):
        text = cli._json({"a": 1.0, "b": [2.0, math.inf], "c": {"d": math.nan}})
        assert strict_json(text) == {
            "a": 1.0, "b": [2.0, None], "c": {"d": None}, "undefined": "not finite: b, d"
        }


class TestSolve:
    def test_paper_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--beta", "1.4",
            "--sigma", "11.34",
            "--upsilon", "0.01",
            "--target-M", "0.99865",
            "--dof", "3",
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["mu_star"] == pytest.approx(2.7705, abs=5e-3)
        assert payload["delta_bar_star"] == pytest.approx(2.4828, abs=5e-3)
        assert payload["marcum_residual"] < 1e-9
        assert payload["trigger_residual"] < 1e-9

    def test_feasible_interval_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--beta", "1.4",
            "--sigma", "11.34",
            "--upsilon", "0.01",
            "--target-M", "0.99865",
            "--dof", "3",
            "--mu", "5.0",
        )
        assert code == 0
        payload = strict_json(out)
        band = payload["feasible_delta"]
        assert band["low"] < band["high"]

    def test_infeasible_geometry_is_validation_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "solve",
            "--beta", "4.0",
            "--sigma", "11.34",
            "--upsilon", "0.01",
            "--target-M", "0.99865",
            "--dof", "3",
        )
        assert code == 1
        assert "sqrt(sigma)" in err

    def test_target_below_q_beta_is_validation_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "solve",
            "--beta", "1.4",
            "--sigma", "11.34",
            "--upsilon", "0.01",
            "--target-M", "0.05",
            "--dof", "3",
        )
        assert code == 1 and out == ""
        assert "M = 0.05" in err and "Q(beta)" in err and "Traceback" not in err

    def test_negative_sigma_is_validation_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "solve",
            "--beta", "1.4",
            "--sigma", "-1",
            "--upsilon", "0.01",
            "--target-M", "0.99865",
            "--dof", "3",
        )
        assert code == 1
        assert err.startswith("error: sigma must be positive")
        assert "Traceback" not in err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--bogus", "1")
        assert code == 1
        assert err.startswith("usage: eventfdi solve")
        assert err.splitlines()[-1].startswith("eventfdi: error: the following arguments are required")

    def test_removed_m_option_is_not_read_as_mu(self, capsys):
        code, out, err = run_cli(
            capsys,
            "solve",
            "--beta", "1.4",
            "--sigma", "11.34",
            "--upsilon", "0.01",
            "--target-M", "0.99865",
            "--dof", "3",
            "--m", "5",
        )
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == "eventfdi: error: unrecognized arguments: --m 5"

    def test_failed_root_search_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("eventfdi.attack._ncx2_survival", lambda *args: float("nan"))
        code, out, err = run_cli(
            capsys,
            "solve",
            "--beta", "1.4",
            "--sigma", "11.34",
            "--upsilon", "0.01",
            "--target-M", "0.99865",
            "--dof", "3",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("numeric error: root search")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mu", ["1e160", "1e200"])
    def test_overflowing_scaling_is_validation_error(self, capsys, mu):
        code, out, err = run_cli(
            capsys,
            "solve",
            "--beta", "1.4",
            "--sigma", "11.34",
            "--upsilon", "0.01",
            "--target-M", "0.99865",
            "--dof", "3",
            "--mu", mu,
        )
        assert code == 1 and out == ""
        assert err == f"error: mu^2 sigma overflows: mu = {float(mu)!r}, sigma = 11.34\n"

    @pytest.mark.parametrize("mu", ["1e5", "3e8", "3e9", "1e10"])
    def test_huge_scaling_is_a_numeric_error(self, capsys, mu):
        """The interval's upper end lies where the survival ufunc is inaccurate (1e5,
        3e8) or gives nan (3e9, 1e10), and no tail bound settles the value: a numeric
        error, not a wrong value or a nan in the output."""
        code, out, err = run_cli(
            capsys,
            "solve",
            "--beta", "1.4",
            "--sigma", "11.34",
            "--upsilon", "0.01",
            "--target-M", "0.99865",
            "--dof", "3",
            "--mu", mu,
        )
        assert code == 2 and out == ""
        assert err.startswith("numeric error: noncentral chi-square survival undefined")

    def test_bad_number_names_the_argument(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--beta", "x")
        assert code == 1
        assert err.startswith("usage: eventfdi solve")
        assert err.splitlines()[-1] == "eventfdi: error: argument --beta: invalid float value: 'x'"

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--mu", "0", "expected a finite number >= 1, got '0'"),
            ("--mu", "-5", "expected a finite number >= 1, got '-5'"),
            ("--mu", "nan", "expected a finite number >= 1, got 'nan'"),
            ("--dof", "0", "expected an integer >= 1, got '0'"),
            ("--mu", "abc", "invalid float value: 'abc'"),
            ("--dof", "abc", "invalid int value: 'abc'"),
        ],
    )
    def test_bad_scaling_or_dof_names_the_argument(self, capsys, option, value, message):
        argv = {
            "--beta": "1.4",
            "--sigma": "11.34",
            "--upsilon": "0.01",
            "--target-M": "0.99865",
            "--dof": "3",
            option: value,
        }
        code, out, err = run_cli(capsys, "solve", *[t for pair in argv.items() for t in pair])
        assert code == 1 and out == ""
        assert err.startswith("usage: eventfdi solve")
        assert err.splitlines()[-1] == f"eventfdi: error: argument {option}: {message}"


class TestSimulate:
    def test_runs_shipped_scenario_with_overrides(self, capsys, tmp_path):
        config = small_config_file(tmp_path)
        code, out, _ = run_cli(capsys, "simulate", "--config", config, "--attack", "off")
        assert code == 0
        payload = strict_json(out)
        assert payload["trajectory_count"] == 2
        assert 0.0 <= payload["comm_rate"] <= 1.0

    def test_deterministic_summaries(self, capsys, tmp_path):
        config = small_config_file(tmp_path)
        args = ("simulate", "--config", config, "--attack", "off", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_writes_trace_and_summary(self, capsys, tmp_path):
        config = small_config_file(tmp_path)
        trace = tmp_path / "trace.csv"
        out_file = tmp_path / "summary.json"
        code, out, _ = run_cli(
            capsys, "simulate", "--config", config,
            "--trace", str(trace), "--out", str(out_file),
        )
        assert code == 0
        assert trace.read_text().splitlines()[0] == ef.trace_header(3, 2)
        assert strict_json(out_file.read_text()) == strict_json(out)

    def test_forward_only_at_the_paper_budget(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--attack", "forward_only")
        assert code == 0
        payload = strict_json(out)
        assert payload["trajectory_count"] == 50 and payload["step_count"] == 4000
        assert payload["comm_rate"] == pytest.approx(payload["analytic_trigger"], abs=5e-4)

    @pytest.mark.parametrize("empty", [False, True], ids=["missing_dir", "empty"])
    @pytest.mark.parametrize("option", ["--trace", "--out"])
    def test_unwritable_output_is_validation_error(
        self, capsys, tmp_path, monkeypatch, option, empty
    ):
        """Both paths, an empty one too, are checked before the run: one error line,
        nothing on stdout."""
        missing = "" if empty else tmp_path / "missing" / "file"
        config = small_config_file(tmp_path)

        def no_run(config, trace_path=None):
            raise AssertionError("simulated")

        monkeypatch.setattr(cli, "run_scenario", no_run)
        code, out, err = run_cli(capsys, "simulate", "--config", config, option, str(missing))
        assert_one_error_line(code, err)
        assert repr(str(missing)) in err
        assert out == ""

    def test_output_check_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        """A run that fails after the paths are checked leaves no empty output behind."""
        trace, out_file = tmp_path / "trace.csv", tmp_path / "summary.json"

        def diverged(config, trace_path=None):
            raise ef.NumericError("all trajectories diverged; no summary available")

        monkeypatch.setattr(cli, "run_scenario", diverged)
        code, out, _ = run_cli(
            capsys, "simulate", "--config", small_config_file(tmp_path),
            "--trace", str(trace), "--out", str(out_file),
        )
        assert code == 2 and out == ""
        assert not trace.exists() and not out_file.exists()

    def test_non_numeric_config_value_is_validation_error(self, capsys, tmp_path):
        config = small_config_file(tmp_path, beta="x")
        code, out, err = run_cli(capsys, "simulate", "--config", config)
        assert code == 1
        assert out == ""
        assert err.startswith("error: 'beta' must be a number")
        assert "Traceback" not in err

    def test_diverged_trajectory_is_reported_with_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "summary.json"
        with _golden._poisoned_noise():
            code, out, _ = run_cli(
                capsys, "simulate", "--config", small_config_file(tmp_path), "--out", str(out_file)
            )
        assert code == 2
        payload = strict_json(out)
        assert payload["divergence"] == [1] and payload["trajectory_count"] == 1
        assert strict_json(out_file.read_text()) == payload

    def test_every_trajectory_overflowing_exits_2(self, capsys, tmp_path):
        A = np.array(harness.PAPER_A)
        A *= 1.3 / np.max(np.abs(np.linalg.eigvals(A)))
        payload = ef.paper_scenario(steps=1800, trajectories=2, burn_in=200, attack_start=100)
        payload["model"] = dict(payload["model"], A=A.tolist())
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2 and out == ""
        assert err == "numeric error: all trajectories diverged; no summary available\n"

    @pytest.mark.parametrize(
        "dof, sigma, reason",
        [
            (10**200, None, "designed sigma 1e+200"),
            (10**400, None, "degrees of freedom must be finite as a float"),
            (10**400, 11.34, "degrees of freedom must be finite as a float"),
        ],
        ids=["design_fails", "half_overflows_designed", "half_overflows_given"],
    )
    def test_failed_threshold_design_is_validation_error(self, capsys, tmp_path, dof, sigma, reason):
        config = small_config_file(tmp_path, solver_dof=dof, sigma=sigma)
        code, out, err = run_cli(capsys, "analyze", "--config", config)
        assert code == 1 and out == ""
        assert err.startswith(f"error: invalid 'solver_dof': {reason}")

    def test_overflowing_attack_params_fail_before_the_run(self, capsys, tmp_path, monkeypatch):
        def no_run(config):
            raise AssertionError("simulated")

        monkeypatch.setattr(harness, "_simulate", no_run)
        config = small_config_file(tmp_path, attack_params={"mu": 1e200, "delta_bar": 1.0})
        code, out, err = run_cli(capsys, "simulate", "--config", config)
        assert code == 1 and out == ""
        assert err.startswith("error: invalid attack_params: attack parameters overflow")

    def test_unstable_plant_prints_null_theory_with_its_reason(self, capsys, tmp_path):
        out_file = tmp_path / "summary.json"
        config = unstable_config_file(tmp_path)
        code, out, _ = run_cli(capsys, "simulate", "--config", config, "--out", str(out_file))
        assert code == 0
        payload = strict_json(out)
        assert payload["theory_bias"] is None and payload["theory_cov_trace"] is None
        assert payload["theory"] == "undefined: A is not stable"
        assert payload["emp_cov_trace"] > 0.0 and "undefined" not in payload
        assert out_file.read_text() == out

    def test_unconverged_theory_exits_2(self, capsys, tmp_path, unconverged_payload):
        assert_unconverged_theory_exits_2(capsys, tmp_path, unconverged_payload, "simulate")

    def test_slow_plant_has_a_theory(self, capsys, tmp_path, slow_plant_payload):
        code, out, _ = run_cli(capsys, "simulate", "--config",
                               payload_file(tmp_path, slow_plant_payload))
        assert code == 0
        assert strict_json(out)["theory_cov_trace"] == pytest.approx(115.1266, abs=1e-4)

    def test_missing_config_is_validation_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "content",
        [b'{"solver_dof": ' + b"1" * 5000 + b"}", b'{"beta": "\xe9"}'],
        ids=["integer_past_python_limit", "not_utf8"],
    )
    def test_unreadable_config_is_validation_error(self, capsys, tmp_path, content):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read config {str(path)!r}: ")


class TestAnalyze:
    def test_open_loop_trace_at_large_mu(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--config", SCENARIO, "--mu", "10000")
        assert code == 0
        payload = strict_json(out)
        assert payload["open_loop_cov_trace"] == pytest.approx(0.0915, abs=1e-3)
        assert payload["attacked_cov_trace"] == pytest.approx(
            payload["open_loop_cov_trace"], abs=1e-3
        )

    def test_default_params_report_bias(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--config", SCENARIO)
        assert code == 0
        payload = strict_json(out)
        assert payload["mu"] == pytest.approx(2.7705, abs=5e-3)
        assert len(payload["bias"]) == 3

    def test_overflowing_scaling_is_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--config", SCENARIO, "--mu", "1e200")
        assert code == 1 and out == ""
        assert err.startswith("error: attack parameters overflow: mu = 1e+200, delta_bar = 2.48")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mu", ["3e9", "1e10"])
    def test_huge_scaling_alarm_is_zero(self, capsys, mu):
        """The survival ufunc gives nan at these noncentralities; the tail bound gives 0."""
        code, out, err = run_cli(capsys, "analyze", "--config", SCENARIO, "--mu", mu)
        assert code == 0, err
        payload = strict_json(out)
        assert payload["analytic_alarm"] == 0.0 and payload["analytic_trigger"] == 1.0

    def test_unstable_plant_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "analyze", "--config", unstable_config_file(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("numeric error: steady bias diverges; A has spectral radius")

    def test_unconverged_theory_exits_2(self, capsys, tmp_path, unconverged_payload):
        assert_unconverged_theory_exits_2(capsys, tmp_path, unconverged_payload, "analyze")

    def test_tiny_sigma_alarm_is_one(self, capsys, tmp_path):
        # the alarm's ufunc overflows at x = mu^2 sigma = 4e-28, noncentrality 400
        path = small_config_file(
            tmp_path, beta=0.0, sigma=1e-30, attack_params={"mu": 20.0, "delta_bar": 1.0}
        )
        code, out, err = run_cli(capsys, "analyze", "--config", path)
        assert code == 0, err
        payload = strict_json(out)
        assert payload["analytic_alarm"] == 1.0 and payload["analytic_trigger"] == 1.0


class TestSweep:
    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--config", SCENARIO,
            "--mu-grid", "1,2,5,10000", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "mu,trace"
        traces = [float(line.split(",")[1]) for line in lines[1:]]
        assert traces == sorted(traces)
        assert traces[-1] == pytest.approx(0.0915, abs=1e-3)

    @pytest.mark.parametrize("grid", ["1,,2", "0.5,abc"])
    def test_bad_grid_is_validation_error(self, capsys, grid):
        code, out, err = run_cli(capsys, "sweep", "--config", SCENARIO, "--mu-grid", grid)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: eventfdi sweep")
        assert err.splitlines()[-1] == (
            f"eventfdi: error: argument --mu-grid: expected comma-separated numbers, got {grid!r}"
        )

    def test_nan_in_grid_is_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--config", SCENARIO, "--mu-grid", "2,nan")
        assert code == 1
        assert out == ""
        assert err.startswith("error: mu grid entries must be >= 1")

    def test_stdout_default(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--config", SCENARIO, "--mu-grid", "1,2")
        assert code == 0
        assert out.splitlines()[0] == "mu,trace"

    def test_descending_grid_keeps_its_order(self, capsys):
        _, ascending, _ = run_cli(capsys, "sweep", "--config", SCENARIO, "--mu-grid", "1,2")
        code, out, _ = run_cli(capsys, "sweep", "--config", SCENARIO, "--mu-grid", "2,1")
        assert code == 0
        assert out.splitlines() == ["mu,trace"] + ascending.splitlines()[:0:-1]

    def test_unstable_plant_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sweep", "--config", unstable_config_file(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("numeric error: attacked covariance diverges; A has spectral radius")

    @pytest.mark.parametrize("empty", [False, True], ids=["missing_dir", "empty"])
    def test_unwritable_output_is_validation_error(self, capsys, tmp_path, empty):
        missing = "" if empty else tmp_path / "missing" / "sweep.csv"
        code, out, err = run_cli(capsys, "sweep", "--mu-grid", "1,2", "--out", str(missing))
        assert out == ""
        assert_one_error_line(code, err)
        assert repr(str(missing)) in err


class TestLargeSystem:
    """Every command but solve on a scenario with n = 12, past the Kronecker range of
    the Lyapunov solves."""

    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        return large_config_file(tmp_path_factory.mktemp("n12"))

    def test_analyze(self, capsys, config):
        code, out, _ = run_cli(capsys, "analyze", "--config", config)
        assert code == 0
        payload = strict_json(out)
        assert len(payload["bias"]) == 12 and "undefined" not in payload

    def test_sweep(self, capsys, config):
        code, out, _ = run_cli(capsys, "sweep", "--config", config, "--mu-grid", "1,2,5,10000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "mu,trace" and len(lines) == 5
        traces = [float(line.split(",")[1]) for line in lines[1:]]
        assert traces == sorted(traces)

    def test_simulate(self, capsys, config):
        code, out, _ = run_cli(capsys, "simulate", "--config", config)
        assert code == 0
        payload = strict_json(out)
        assert payload["trajectory_count"] == 2 and len(payload["emp_bias"]) == 12
        assert "undefined" not in payload


class TestReproducePaper:
    def test_quick_budget_passes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce-paper", "--quick")
        assert code == 0, out
        table = out.splitlines()
        assert any(line.startswith("PASS  scaling mu*") for line in table)
        assert any(line.startswith("NOTE  published attacked rate") for line in table)
        assert not any(line.startswith("FAIL") for line in table)

    def test_a_gate_past_its_bound_fails_the_command(self, capsys, monkeypatch, reproduction):
        attacked = dataclasses.replace(reproduction.attacked, cancellation_max=1.0)
        broken = reproduction._replace(attacked=attacked)
        monkeypatch.setattr(cli, "reproduce_paper", lambda quick: broken)
        code, out, _ = run_cli(capsys, "reproduce-paper")
        assert code == cli.EXIT_NUMERIC
        table = out.splitlines()
        assert "FAIL  feedback cancellation gap: 1 (<= 1e-09)" in table
        assert sum(line.startswith("FAIL") for line in table) == 1
        assert strict_json(out[out.index("{"):])["failures"] == 1


class TestImportGraph:
    """A fresh interpreter: the tests in this process import scipy.optimize themselves."""

    @staticmethod
    def scipy_modules(statement: str, *argv) -> list:
        """The scipy.optimize, scipy.linalg and scipy.stats modules loaded after statement."""
        code = (
            f"import json, sys, eventfdi, eventfdi.cli; {statement}; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.optimize', 'scipy.linalg', 'scipy.stats')))))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        )
        return json.loads(result.stdout.splitlines()[-1])

    def test_library_loads_no_scipy_optimize_linalg_or_stats(self):
        assert self.scipy_modules("pass") == []

    def test_analyze_at_n12_loads_none_either(self, tmp_path):
        # n = 12 is past the Kronecker range: the Lyapunov solves are Smith's doubling
        statement = "eventfdi.cli.main(['analyze', '--config', sys.argv[1]])"
        assert self.scipy_modules(statement, large_config_file(tmp_path)) == []


class TestClosedStdout:
    def test_reader_closing_stdout_leaves_no_traceback(self):
        """The reader closes stdout after the first line of an output far larger than a
        pipe holds, so the rest of the write meets a closed pipe. stdout is buffered, as
        it is by default: unbuffered, a write cut short by the close returns its count
        and drops the rest without raising."""
        grid = ",".join(str(mu) for mu in range(1, 15001))  # about 390 kB of CSV
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "eventfdi.cli", "sweep", "--mu-grid", grid],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=REPO,
            env=dict(env, PYTHONPATH=str(REPO / "src")),
        )
        assert proc.stdout.readline() == b"mu,trace\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""
