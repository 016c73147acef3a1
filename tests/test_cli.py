import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eventfdi as ef
from eventfdi.cli import main

REPO = Path(__file__).resolve().parents[1]
SCENARIO = str(REPO / "scenarios" / "paper_sec5.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def small_config_file(tmp_path, **overrides):
    payload = ef.paper_scenario(steps=260, trajectories=2, **overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return str(path)


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
        payload = json.loads(out)
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
        payload = json.loads(out)
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
        monkeypatch.setattr("eventfdi.attack.marcum_q", lambda *args: float("nan"))
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

    def test_bad_number_names_the_argument(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--beta", "x")
        assert code == 1
        assert err.startswith("usage: eventfdi solve")
        assert err.splitlines()[-1] == "eventfdi: error: argument --beta: invalid float value: 'x'"


class TestSimulate:
    def test_runs_shipped_scenario_with_overrides(self, capsys, tmp_path):
        config = small_config_file(tmp_path)
        code, out, _ = run_cli(capsys, "simulate", "--config", config, "--attack", "off")
        assert code == 0
        payload = json.loads(out)
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
        assert json.loads(out_file.read_text()) == json.loads(out)

    def test_non_numeric_config_value_is_validation_error(self, capsys, tmp_path):
        config = small_config_file(tmp_path, beta="x")
        code, out, err = run_cli(capsys, "simulate", "--config", config)
        assert code == 1
        assert out == ""
        assert err.startswith("error: 'beta' must be a number")
        assert "Traceback" not in err

    def test_missing_config_is_validation_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error" in err


class TestAnalyze:
    def test_open_loop_trace_at_large_mu(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--config", SCENARIO, "--mu", "10000")
        assert code == 0
        payload = json.loads(out)
        assert payload["open_loop_cov_trace"] == pytest.approx(0.0915, abs=1e-3)
        assert payload["attacked_cov_trace"] == pytest.approx(
            payload["open_loop_cov_trace"], abs=1e-3
        )

    def test_default_params_report_bias(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--config", SCENARIO)
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == pytest.approx(2.7705, abs=5e-3)
        assert len(payload["bias"]) == 3


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


class TestReproducePaper:
    def test_quick_budget_passes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce-paper", "--quick")
        assert code == 0, out
        table = out.splitlines()
        assert any(line.startswith("PASS  scaling mu*") for line in table)
        assert any(line.startswith("NOTE  published attacked rate") for line in table)
        assert not any(line.startswith("FAIL") for line in table)


class TestImportGraph:
    def test_library_loads_no_scipy_optimize_linalg_or_stats(self):
        # a fresh interpreter: the tests in this process import scipy.optimize themselves
        code = (
            "import sys, eventfdi, eventfdi.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.optimize', 'scipy.linalg', 'scipy.stats'))))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        )
        assert result.stdout.strip() == "[]"


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
