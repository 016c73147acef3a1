import math

import numpy as np
import pytest

from eventfdi import (
    ConfigError,
    DetectorConfig,
    DomainError,
    NumericError,
    chi2_survival,
    design_threshold,
    statistic,
    test as detector_test,
)
from eventfdi.detector import check_thresholds

from _oracles import diagnostics


class TestStatistic:
    def test_zero_vector(self):
        assert statistic(np.zeros(3)) == 0.0

    def test_unit_vector(self):
        assert statistic(np.array([0.0, 1.0])) == 1.0

    def test_squared_norm(self):
        assert statistic(np.array([3.0, 4.0])) == pytest.approx(25.0, abs=1e-14)

    def test_chi2_mean_in_nominal_loop(self, nominal_big):
        assert diagnostics(nominal_big.sums)["g_mean"] == pytest.approx(2.0, rel=0.03)


class TestDetectorConfig:
    @pytest.mark.parametrize("dof", [0, -1, 2.5, 3.0, True, "3"])
    def test_dof_must_be_a_positive_integer(self, dof):
        with pytest.raises(DomainError, match="degrees of freedom must be a positive integer"):
            DetectorConfig(sigma=11.34, upsilon=0.01, dof=dof)

    @pytest.mark.parametrize(
        "sigma, upsilon, message",
        [
            (0.0, 0.01, "sigma must be positive"),
            (math.inf, 0.01, "sigma must be positive"),
            (math.nan, 0.01, "sigma must be positive"),
            (11.34, 0.0, r"upsilon must be in \(0, 1\)"),
            (11.34, 1.0, r"upsilon must be in \(0, 1\)"),
        ],
    )
    def test_threshold_and_budget_domains(self, sigma, upsilon, message):
        with pytest.raises(DomainError, match=message):
            DetectorConfig(sigma=sigma, upsilon=upsilon, dof=3)


class TestHypothesisTest:
    def test_zero_statistic_silent(self):
        config = DetectorConfig(sigma=11.34, upsilon=0.01, dof=3)
        assert detector_test(0.0, config) == 0

    def test_boundary_alarms(self):
        config = DetectorConfig(sigma=11.34, upsilon=0.01, dof=3)
        assert detector_test(11.34, config) == 1

    def test_monotone(self):
        config = DetectorConfig(sigma=5.0, upsilon=0.01, dof=2)
        fired = [g for g in np.linspace(0, 10, 101) if detector_test(float(g), config)]
        assert fired == [g for g in np.linspace(0, 10, 101) if g >= 5.0]

    def test_negative_statistic_rejected(self):
        config = DetectorConfig(sigma=5.0, upsilon=0.01, dof=2)
        with pytest.raises(DomainError):
            detector_test(-1.0, config)

    def test_self_consistent_design_meets_budget(self, paper_payload):
        # threshold designed at dof = m: empirical alarm rate stays within
        # upsilon + 3 standard errors
        import eventfdi as ef

        payload = dict(paper_payload, attack_mode="off", steps=2700, trajectories=10)
        payload.pop("sigma")
        payload["solver_dof"] = 2
        result = ef.run_scenario(ef.config_from_dict(payload))
        n = result.summary.step_count * result.summary.trajectory_count
        upsilon = 0.01
        assert result.summary.alarm_rate <= upsilon + 3 * math.sqrt(
            upsilon * (1 - upsilon) / n
        )


class TestDesignThreshold:
    def test_paper_value(self):
        config = design_threshold(0.01, 3)
        assert config.sigma == pytest.approx(11.345, abs=5e-3)
        assert config.dof == 3

    def test_two_dof_closed_form(self):
        config = design_threshold(math.exp(-0.5), 2)
        assert config.sigma == pytest.approx(1.0, abs=1e-9)

    def test_survival_consistency(self):
        config = design_threshold(0.05, 4)
        assert chi2_survival(config.sigma, 4) == pytest.approx(0.05, abs=1e-9)

    def test_scheduler_threshold_guard(self):
        # sqrt(11.345) ~ 3.368, so beta = 3.4 must be rejected
        with pytest.raises(ConfigError):
            design_threshold(0.01, 3, beta=3.4)

    @pytest.mark.parametrize(
        "beta, sigma, field",
        [
            (1.4, -1.0, "sigma"),
            (1.4, 0.0, "sigma"),
            (1.4, float("nan"), "sigma"),
            (1.4, float("inf"), "sigma"),
            (-0.1, 11.34, "beta"),
            (float("nan"), 11.34, "beta"),
            (4.0, 11.34, "beta"),
        ],
    )
    def test_check_thresholds_rejects(self, beta, sigma, field):
        with pytest.raises(ConfigError) as err:
            check_thresholds(beta, sigma)
        assert err.value.field == field
        if field == "beta":
            assert "sqrt(sigma)" in str(err.value)

    def test_scheduler_threshold_ok(self):
        config = design_threshold(0.01, 3, beta=1.4)
        assert config.sigma > 1.4**2

    def test_budget_check_survives_optimization(self, monkeypatch):
        # the check is a raise, not an assert, so python -O keeps it
        monkeypatch.setattr("eventfdi.detector.chi2_quantile", lambda upsilon, dof: 5.0)
        with pytest.raises(NumericError, match="above the budget"):
            design_threshold(0.01, 3)

    def test_upsilon_domain(self):
        with pytest.raises(DomainError):
            design_threshold(0.0, 3)
