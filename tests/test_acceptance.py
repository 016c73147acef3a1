"""Acceptance suite: the published experiment reproduced end to end.

Each test covers one exit criterion at its stated tolerance and prints one
PASS line (visible with pytest -s or in the captured output).
"""

import json
import math
import time

import numpy as np
import pytest

import eventfdi as ef
from eventfdi.cli import main as cli_main

from _oracles import marcum_quad


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num:2d}: {text}")


class TestC01SolverReproduction:
    def test_solver_reproduction(self, capsys):
        t0 = time.time()
        code = cli_main(
            [
                "solve",
                "--beta", "1.4",
                "--sigma", "11.34",
                "--upsilon", "0.01",
                "--target-M", "0.99865",
                "--dof", "3",
            ]
        )
        elapsed = time.time() - t0
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["mu_star"] == pytest.approx(2.7705, abs=5e-3)
        assert payload["delta_bar_star"] == pytest.approx(2.4828, abs=5e-3)
        assert payload["marcum_residual"] < 1e-9
        assert payload["trigger_residual"] < 1e-9
        assert elapsed < 1.0
        _report(
            1,
            f"solve -> ({payload['mu_star']:.4f}, {payload['delta_bar_star']:.4f}) "
            f"vs (2.7705, 2.4828), residuals < 1e-9, {elapsed * 1e3:.0f} ms",
        )


class TestC02ThresholdDesign:
    def test_threshold_design(self):
        sigma = ef.chi2_quantile(0.01, 3)
        assert sigma == pytest.approx(11.345, abs=5e-3)
        # the published attack target 99.87% is the rounded display of
        # Phi(3) = 0.99865; the confidence level it encodes is 3
        psi = ef.SuccessCriteria(M=0.99865, Upsilon=0.01).Psi
        assert psi == pytest.approx(3.000, abs=1e-3)
        _report(2, f"sigma = {sigma:.4f} (11.345 +/- 5e-3), Psi = {psi:.5f} (3.000 +/- 1e-3)")


class TestC03NominalCommunicationRate:
    def test_nominal_communication_rate(self, nominal_big):
        result, elapsed = nominal_big
        s = result.summary
        n = s.step_count * s.trajectory_count
        assert n >= 200_000
        assert s.comm_rate == pytest.approx(0.2969, abs=5e-3)
        closed_form = 1.0 - (1.0 - 2.0 * ef.gaussian_q(1.4)) ** 2
        se = math.sqrt(closed_form * (1.0 - closed_form) / n)
        assert abs(s.comm_rate - closed_form) <= 3 * se
        assert elapsed < 30.0
        _report(
            3,
            f"nominal rate {s.comm_rate:.5f} vs 0.2969 +/- 0.005 and closed form "
            f"{closed_form:.5f} within 3 SE ({3 * se:.2e}); run {elapsed:.1f} s < 30 s",
        )


class TestC04AttackedCommunicationRate:
    def test_attacked_communication_rate(self, attacked_big):
        s = attacked_big.summary
        n = s.step_count * s.trajectory_count
        assert n >= 200_000
        assert s.comm_rate >= 0.997
        se = math.sqrt(s.analytic_trigger * (1.0 - s.analytic_trigger) / n)
        assert abs(s.comm_rate - s.analytic_trigger) <= 3 * se
        _report(
            4,
            f"attacked rate {s.comm_rate:.5f} >= 0.997 and within 3 SE "
            f"({3 * se:.2e}) of analytic {s.analytic_trigger:.5f} "
            "(published 99.98% is not derivable from its own constraints)",
        )


class TestC05DetectorStealth:
    def test_detector_stealth(self, attacked_big, nominal_big):
        attacked = attacked_big.summary
        nominal = nominal_big[0].summary
        n = nominal.step_count * nominal.trajectory_count
        assert attacked.alarm_rate <= 0.012
        expected = ef.chi2_survival(11.34, 2)
        se = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(nominal.alarm_rate - expected) <= 3 * se
        _report(
            5,
            f"attacked alarm {attacked.alarm_rate:.5f} <= 0.012; nominal alarm "
            f"{nominal.alarm_rate:.5f} within 3 SE of exp(-11.34/2) = {expected:.5f}",
        )


class TestC06FeedbackCancellation:
    def test_feedback_cancellation(self, attacked_big):
        # max_i |z_sensor - z_nominal|_i / (1 + |z_nominal_i|) over every
        # attacked step of the entire run
        assert attacked_big.cancellation_max <= 1e-9
        _report(
            6,
            f"sensor-side innovation equals nominal to {attacked_big.cancellation_max:.2e} "
            "(<= 1e-9) at every step",
        )


class TestC07BiasLaw:
    def test_bias_law(self, bias_run):
        s = bias_run.summary
        assert bias_run.traj_bias_means.shape[0] >= 200
        assert s.step_count >= 500
        se = bias_run.traj_bias_means.std(axis=0, ddof=1) / math.sqrt(
            bias_run.traj_bias_means.shape[0]
        )
        gap = np.abs(s.emp_bias - s.theory_bias)
        assert np.all(gap <= 3 * se)
        _report(
            7,
            f"empirical bias {np.array2string(s.emp_bias, precision=4)} matches "
            f"(I-A)^-1 K F^-T delta componentwise within 3 SE (max gap {gap.max():.2e})",
        )


class TestC08CovarianceRecursion:
    def test_covariance_recursion(self, bias_run, steady, paper_model):
        s = bias_run.summary
        assert s.comm_rate >= 0.995  # Assumption-4 regime audit
        rel = abs(s.emp_cov_trace - s.theory_cov_trace) / s.theory_cov_trace
        assert rel <= 0.05
        fp_off = ef.attacked_covariance_fixed_point(
            ef.AttackParams.off(2), steady, paper_model
        )
        kalman_posterior = ef.op_q_tilde(steady.P, 1.0, paper_model)
        assert np.max(np.abs(fp_off - kalman_posterior)) < 1e-9
        _report(
            8,
            f"error covariance trace {s.emp_cov_trace:.5f} vs recursion fixed point "
            f"{s.theory_cov_trace:.5f} (rel {rel:.3f} <= 0.05); scaling-off fixed point "
            "equals the Kalman posterior to 1e-9",
        )


class TestC09OpenLoopLimit:
    def test_open_loop_limit(self, steady, paper_model):
        open_trace = float(np.trace(ef.open_loop_fixed_point(paper_model)))
        assert open_trace == pytest.approx(0.0915, abs=5e-4)
        params = ef.AttackParams(1e4, 2.4828, 2)
        large = float(
            np.trace(ef.attacked_covariance_fixed_point(params, steady, paper_model))
        )
        assert abs(large - open_trace) <= 1e-3
        _report(
            9,
            f"open-loop trace {open_trace:.5f} (0.0915 +/- 5e-4); fixed point at "
            f"scaling 1e4 within {abs(large - open_trace):.2e} of it",
        )


class TestC10SweepMonotonicity:
    def test_sweep_monotonicity(self, steady, paper_model):
        grid = [1.0, 1.5, 2.0, 2.7705, 5.0, 10.0, 100.0]
        points = ef.mu_sweep(grid, steady, paper_model)
        traces = [p.trace for p in points]
        assert all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))
        for prev, cur in zip(points, points[1:]):
            eigs = np.linalg.eigvalsh(cur.fixed_point - prev.fixed_point)
            assert eigs.min() >= -1e-9
        _report(
            10,
            "fixed-point traces nondecreasing over the scaling grid with "
            "consecutive PSD dominance (eig tol 1e-9): "
            + ", ".join(f"{t:.5f}" for t in traces),
        )


class TestC11SpecialFunctionOracles:
    def test_marcum_oracle_grid(self):
        worst = 0.0
        for nu in (0.5, 1.0, 1.5, 2.5):
            for a in np.linspace(0.0, 10.0, 11):
                for b in np.linspace(0.0, 15.0, 11):
                    got = ef.marcum_q(nu, float(a), float(b))
                    ref = marcum_quad(nu, float(a), float(b))
                    worst = max(worst, abs(got - ref))
                    assert abs(got - ref) <= 1e-8
        _report(
            11,
            f"Marcum Q vs quadrature oracle over 4 x 121 grid points: "
            f"max |diff| = {worst:.2e} <= 1e-8 (round-trip in the companion check)",
        )

    def test_gaussian_inverse_round_trip(self):
        # 1e-9 on the range where binary64 can represent the tail; left of
        # about -5.5 the round trip is representation-limited (see notes)
        xs = np.linspace(-5.4, 6.0, 115)
        worst = max(abs(ef.gaussian_q_inv(ef.gaussian_q(float(x))) - float(x)) for x in xs)
        assert worst <= 1e-9
        _report(11, f"gaussian_q_inv round trip: max |x' - x| = {worst:.2e} <= 1e-9")


class TestC12Determinism:
    def test_trace_byte_determinism(self, paper_payload, tmp_path):
        config = ef.config_from_dict(
            dict(paper_payload, steps=400, trajectories=3)
        )
        first, second = tmp_path / "run1.csv", tmp_path / "run2.csv"
        ef.run_scenario(config, trace_path=first)
        ef.run_scenario(config, trace_path=second)
        b1, b2 = first.read_bytes(), second.read_bytes()
        assert b1 == b2
        _report(12, f"identical config+seed give byte-identical traces ({len(b1)} bytes)")
