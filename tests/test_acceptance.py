"""Acceptance suite: the published experiment reproduced end to end.

`test_gate` asserts each row of `eventfdi.cli.GATES`, the one table of the
acceptance gates, on the full-budget reproduction that `reproduce-paper` prints
(the `reproduction` fixture, run once per session). The classes below make the
checks that only this suite makes, by criterion number. Each prints one PASS
line (visible with pytest -s or in the captured output).
"""

import json
import math
import time

import numpy as np
import pytest

import eventfdi as ef
from eventfdi.cli import GATES, evaluate
from eventfdi.cli import main as cli_main

import _golden
from _oracles import marcum_quad


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num:2d}: {text}")


@pytest.mark.parametrize("gate", GATES, ids=[gate.name for gate in GATES])
def test_gate(gate, reproduction):
    ok, line = evaluate(gate, reproduction)
    print(line)
    assert ok, line


class TestC01SolverReproduction:
    def test_solver_reproduction(self, capsys):
        t0 = time.perf_counter()
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
        elapsed = time.perf_counter() - t0
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


class TestC03NominalCommunicationRate:
    def test_nominal_communication_rate(self, nominal_big):
        s = nominal_big.summary
        n = s.step_count * s.trajectory_count
        assert n >= 200_000
        closed_form = 1.0 - (1.0 - 2.0 * ef.gaussian_q(1.4)) ** 2
        se = math.sqrt(closed_form * (1.0 - closed_form) / n)
        assert abs(s.comm_rate - closed_form) <= 3 * se
        _, elapsed = _golden.paper_reproduction()  # every paper run, the nominal one included
        assert elapsed < 30.0
        _report(
            3,
            f"nominal rate {s.comm_rate:.5f} within 3 SE ({3 * se:.2e}) of the closed form "
            f"{closed_form:.5f}; the paper runs took {elapsed:.1f} s < 30 s",
        )


class TestC04AttackedCommunicationRate:
    def test_attacked_communication_rate(self, attacked_big):
        s = attacked_big.summary
        assert s.step_count * s.trajectory_count >= 200_000
        assert s.comm_rate >= 0.997
        _report(
            4,
            f"attacked rate {s.comm_rate:.5f} >= 0.997 "
            "(published 99.98% is not derivable from its own constraints)",
        )


class TestC05DetectorStealth:
    def test_detector_stealth(self, attacked_big, nominal_big):
        # the attacked band is tighter than the gate's cap of 0.012 on the same rate
        nominal, attacked = nominal_big.summary, attacked_big.summary
        chi2_tail = ef.chi2_survival(11.34, 2)
        for s, expected in ((nominal, chi2_tail), (attacked, attacked.analytic_alarm)):
            se = math.sqrt(expected * (1.0 - expected) / (s.step_count * s.trajectory_count))
            assert abs(s.alarm_rate - expected) <= 3 * se
        _report(
            5,
            f"nominal alarm {nominal.alarm_rate:.5f} within 3 SE of exp(-11.34/2) = "
            f"{chi2_tail:.5f}; attacked alarm {attacked.alarm_rate:.5f} within 3 SE of "
            f"analytic {attacked.analytic_alarm:.5f}",
        )


class TestC07BiasLaw:
    def test_bias_law(self, bias_run):
        assert bias_run.traj_bias_means.shape[0] >= 200
        assert bias_run.summary.step_count >= 500
        _report(7, "bias run has >= 200 trajectories of >= 500 post-burn-in steps")


class TestC08CovarianceRecursion:
    def test_covariance_recursion(self, steady, paper_model):
        fp_off = ef.attacked_covariance_fixed_point(
            ef.AttackParams.off(2), steady, paper_model
        )
        kalman_posterior = ef.op_q_tilde(steady.P, 1.0, paper_model)
        assert np.max(np.abs(fp_off - kalman_posterior)) < 1e-9
        _report(8, "scaling-off fixed point equals the Kalman posterior to 1e-9")


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
