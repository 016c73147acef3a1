import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import eventfdi as ef
from eventfdi import (
    AttackParams,
    AttackState,
    ConfigError,
    DomainError,
    NumericError,
    SuccessCriteria,
    alarm_probability,
    attack_effect_update,
    feasible_delta_interval,
    forward_attack,
    solve_optimal_params,
    trigger_probability,
)
from eventfdi import attack, special
from eventfdi.attack import _ROOT_XTOL, _brentq

from _oracles import diagnostics, marcum_quad, ncx2_survival_quad

PAPER_MU = 2.7705
PAPER_DELTA = 2.4828


@pytest.fixture(scope="module")
def criteria():
    return SuccessCriteria(M=0.99865, Upsilon=0.01)


@pytest.fixture(scope="module")
def paper_params():
    return AttackParams(PAPER_MU, PAPER_DELTA, 2)


class TestAttackParams:
    def test_derived_norms(self, paper_params):
        assert paper_params.delta_bar == PAPER_DELTA
        assert paper_params.phi == pytest.approx(PAPER_DELTA)
        assert paper_params.xi == pytest.approx(PAPER_MU**2 * PAPER_DELTA**2)

    def test_bias_sits_in_the_first_channel_read_only(self):
        params = AttackParams(2.0, -1.5, 3)
        assert params.m == 3 and params.phi == 1.5
        assert params.delta.tolist() == [-1.5, 0.0, 0.0]
        with pytest.raises(ValueError):
            params.delta[1] = 1.0

    def test_phi_and_xi_are_exact_up_to_the_overflow_bound(self):
        assert AttackParams(1.0, 1e154, 2).phi == 1e154
        assert AttackParams(1.0, 1e154, 2).xi == AttackParams(1e154, 1.0, 2).xi == 1e154**2
        with pytest.raises(DomainError, match="attack parameters overflow"):
            AttackParams(1.0, 1e200, 2)

    @pytest.mark.parametrize(
        "mu, delta_bar",
        [(1e200, 0.0), (1e200, 1.0), (2.0, 1e154), (1.0, 1e200), (1e100, 1e60), (1e154, -2.0)],
    )
    def test_rejects_overflowing_noncentrality(self, mu, delta_bar):
        """mu^2 or xi = mu^2 delta_bar^2 overflows, whether a float ** raises
        OverflowError or the product is inf."""
        with pytest.raises(DomainError, match="attack parameters overflow"):
            AttackParams(mu, delta_bar, 2)

    @pytest.mark.parametrize("mu", [0.5, math.nan, math.inf])
    def test_mu_domain(self, mu):
        with pytest.raises(DomainError, match="mu must be >= 1"):
            AttackParams(mu, 0.0, 2)

    @pytest.mark.parametrize("delta_bar", [math.nan, math.inf, -math.inf])
    def test_delta_bar_must_be_finite(self, delta_bar):
        with pytest.raises(DomainError, match="delta_bar must be finite"):
            AttackParams(2.0, delta_bar, 2)

    @pytest.mark.parametrize("m", [0, -1, 2.0, True, None])
    def test_m_must_be_a_positive_int(self, m):
        with pytest.raises(DomainError, match="m must be a positive integer"):
            AttackParams(2.0, 1.0, m)

    def test_off_params(self):
        off = AttackParams.off(2)
        assert off.is_off and off.phi == 0.0 and off.xi == 0.0


class TestForwardAttack:
    def test_identity_when_off(self, rng):
        eps = rng.standard_normal(2)
        out = forward_attack(eps, AttackParams.off(2))
        assert np.allclose(out, eps, atol=1e-15)

    def test_zero_input_gives_bias(self, paper_params):
        out = forward_attack(np.zeros(2), paper_params)
        assert np.allclose(out, [PAPER_DELTA, 0.0], atol=1e-12)

    def test_moments(self, paper_params, rng):
        eps = rng.standard_normal((100_000, 2))
        out = eps / paper_params.mu + paper_params.delta
        ref = np.array([forward_attack(e, paper_params) for e in eps[:100]])
        assert np.allclose(out[:100], ref, atol=1e-14)
        assert out[:, 0].mean() == pytest.approx(PAPER_DELTA, abs=0.01)
        assert out[:, 0].var() == pytest.approx(1 / PAPER_MU**2, rel=0.03)


class TestAttackEffect:
    def test_no_transmission_propagates(self, steady, paper_model, paper_params):
        state = AttackState.zeros(3)
        state.x_tilde_post = np.array([0.5, -0.2, 0.1])
        new = attack_effect_update(state, 0, np.zeros(2), steady, paper_params, paper_model)
        expected = paper_model.A @ state.x_tilde_post
        assert np.allclose(new.x_tilde_prior, expected, atol=1e-14)
        assert np.allclose(new.x_tilde_post, expected, atol=1e-14)

    def test_attack_off_keeps_zero(self, steady, paper_model, rng):
        state = AttackState.zeros(3)
        off = AttackParams.off(2)
        for _ in range(20):
            state = attack_effect_update(
                state, int(rng.integers(2)), rng.standard_normal(2), steady, off, paper_model
            )
        assert np.allclose(state.x_tilde_post, 0.0, atol=1e-15)

    def test_redundant_path_consistency(self, steady):
        """The effect recursion must reproduce the direct filter difference.

        The attacker replicates the estimator's gain sequence (it knows the
        model and observes gamma), so the reference recursion here replays
        the filter covariance from the traced trigger decisions and feeds
        attack_effect_update the per-step gain bundle. Agreement is required
        at every attacked step, including excursions after silent steps.
        """
        config = ef.config_from_dict(
            ef.paper_scenario(steps=320, trajectories=1, burn_in=300)
        )
        import tempfile, os, csv

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            ef.run_scenario(config, trace_path=path)
            with open(path) as fh:
                rows = list(csv.DictReader(fh))

        from eventfdi.estimator import (
            SteadyState,
            initial_filter_state,
            measurement_update,
            time_update,
        )

        filt = initial_filter_state(config.model)
        state = AttackState.zeros(3)
        for row in rows:
            k = int(row["k"])
            gamma = int(row["gamma"])
            if k > 0:
                filt = time_update(filt, config.model)
            if k >= config.attack_start:
                bundle = SteadyState(P=filt.P_prior, K=filt.K, F=filt.F, S=filt.S, L=filt.L)
                z = np.array([float(row["z_1"]), float(row["z_2"])])  # sensor-side = nominal
                state = attack_effect_update(
                    state, gamma, z, bundle, config.attack_params, config.model
                )
                diff = np.array(
                    [float(row[f"xhata_{i}"]) - float(row[f"xhat_{i}"]) for i in (1, 2, 3)]
                )
                assert np.allclose(state.x_tilde_post, diff, atol=1e-9)
            filt = measurement_update(filt, np.zeros(2), gamma, config.beta, config.model)

    def test_forward_only_innovation_drifts(self, paper_payload, steady):
        # negative control: without the feedback correction the sensor-side
        # innovation is no longer N(0, S); the bias -C A E dominates the
        # second moment about the nominal zero mean
        config = ef.config_from_dict(
            dict(paper_payload, attack_mode="forward_only", steps=2200, trajectories=5)
        )
        stats = diagnostics(ef.run_scenario(config).sums)
        mean = stats["sensor_innovation_mean"]
        second_moment = stats["sensor_innovation_cov"] + np.outer(mean, mean)
        drift = abs(np.trace(second_moment) - np.trace(steady.S))
        assert drift / np.trace(steady.S) > 0.25
        assert np.linalg.norm(mean) > 0.1

    def test_two_channel_innovation_stays_nominal(self, attacked_big, steady):
        # positive control for the negative control above
        stats = diagnostics(attacked_big.sums)
        mean = stats["sensor_innovation_mean"]
        assert np.linalg.norm(mean) < 0.01
        second_moment = stats["sensor_innovation_cov"] + np.outer(mean, mean)
        assert abs(np.trace(second_moment) - np.trace(steady.S)) / np.trace(steady.S) < 0.05


class TestTriggerProbability:
    def test_nominal_paper_rate(self):
        p = trigger_probability(AttackParams.off(2), 1.4)
        assert p == pytest.approx(0.29694, abs=1e-5)

    def test_attacked_paper_rate(self, paper_params):
        p = trigger_probability(paper_params, 1.4)
        assert p == pytest.approx(0.99865, abs=1e-4)

    def test_zero_threshold_triggers(self, paper_params):
        assert trigger_probability(paper_params, 0.0) == 1.0

    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
    def test_beta_domain_names_beta(self, paper_params, beta):
        with pytest.raises(DomainError, match="beta must be nonnegative and finite"):
            trigger_probability(paper_params, beta)

    def test_monte_carlo_agreement(self, paper_params, rng):
        eps = rng.standard_normal((200_000, 2))
        out = eps / paper_params.mu + paper_params.delta
        emp = (np.abs(out).max(axis=1) > 1.4).mean()
        p = trigger_probability(paper_params, 1.4)
        assert emp == pytest.approx(p, abs=3 * math.sqrt(p * (1 - p) / len(out)))


class TestAlarmProbability:
    def test_nominal_matches_design(self):
        assert alarm_probability(AttackParams.off(3), 11.34, 3) == pytest.approx(
            0.0100, abs=5e-4
        )

    def test_attacked_paper_design_dof(self, paper_params):
        assert alarm_probability(paper_params, 11.34, 3) == pytest.approx(0.0100, abs=5e-4)

    def test_vanishes_for_large_sigma(self, paper_params):
        assert alarm_probability(paper_params, 4e4, 3) == pytest.approx(0.0, abs=1e-12)

    def test_paper_alarm_boundary(self):
        params = AttackParams(2.7705, 2.4828, 2)
        assert alarm_probability(params, 11.34, 3) == pytest.approx(0.0100, abs=2e-4)

    def test_zero_noncentrality_reduces_to_central(self):
        for dof in (1, 2, 3, 4):
            for sigma in (0.5, 4.0, 11.34):
                assert alarm_probability(AttackParams.off(2), sigma, dof) == pytest.approx(
                    ef.chi2_survival(sigma, dof), abs=1e-10
                )

    def test_matches_quadrature(self):
        params = AttackParams(1.0, math.sqrt(47.3), 2)
        assert alarm_probability(params, 30.0, 2) == pytest.approx(
            marcum_quad(1.0, math.sqrt(47.3), math.sqrt(30.0)), abs=1e-9
        )

    @pytest.mark.parametrize("dof", [0, -1, 1.5, True, pytest.param(10**400, id="10**400")])
    def test_rejects_bad_dof(self, paper_params, dof):
        with pytest.raises(DomainError, match="degrees of freedom"):
            alarm_probability(paper_params, 11.34, dof)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_sigma(self, paper_params, sigma):
        with pytest.raises(DomainError, match="sigma must be positive and finite"):
            alarm_probability(paper_params, sigma, 3)

    @pytest.mark.parametrize("mu, sigma", [(1e154, 11.34), (2.0, 1e308)])
    def test_rejects_overflow(self, mu, sigma):
        """xi is finite for every AttackParams; mu^2 sigma is this function's own."""
        params = AttackParams(mu, 1.0, 2)
        with pytest.raises(DomainError, match="alarm_probability overflows: mu\\^2 sigma = inf"):
            alarm_probability(params, sigma, 3)

    def test_tiny_boundary_at_a_huge_noncentrality_is_answered_at_once(self):
        """Noncentrality 1e8 and x = 1e-22: the ufunc takes seconds to give 1 here, and
        the tail bound, asked first below the mean, settles 1."""
        params = AttackParams(1e4, 1.0, 2)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            assert alarm_probability(params, 1e-30, 2) == 1.0
            times.append(time.perf_counter() - start)
        assert min(times) < 1e-3

    def test_monte_carlo_agreement_channel_dof(self, paper_params, rng):
        eps = rng.standard_normal((200_000, 2))
        out = eps / paper_params.mu + paper_params.delta
        emp = ((out * out).sum(axis=1) >= 11.34).mean()
        p = alarm_probability(paper_params, 11.34, 2)
        assert emp == pytest.approx(p, abs=3 * math.sqrt(p * (1 - p) / len(out)))


class TestSolver:
    def test_paper_reproduction(self, criteria):
        params = solve_optimal_params(1.4, 11.34, criteria, 3)
        assert params.mu == pytest.approx(PAPER_MU, abs=5e-3)
        assert params.delta_bar == pytest.approx(PAPER_DELTA, abs=5e-3)

    def test_constraint_residuals(self, criteria):
        params = solve_optimal_params(1.4, 11.34, criteria, 3)
        psi = criteria.Psi
        trig_res = params.mu * (params.delta_bar - 1.4) - psi
        marcum_res = (
            ef.marcum_q(1.5, params.mu * params.delta_bar, params.mu * math.sqrt(11.34))
            - 0.01
        )
        assert abs(trig_res) < 1e-9
        assert abs(marcum_res) < 1e-9

    def test_channel_dof_regression(self, criteria):
        # self-consistent 2-dof mode (exact integer-order Marcum), frozen anchor
        params = solve_optimal_params(1.4, 11.34, criteria, 2)
        assert params.mu == pytest.approx(2.7391335, abs=1e-6)
        assert params.delta_bar == pytest.approx(2.4952285, abs=1e-6)

    @pytest.mark.parametrize("dof", [19, 21, 23])
    def test_large_odd_dof_matches_oracle(self, criteria, dof):
        # the detector boundary at the solution, by quadrature of the density
        sigma = ef.design_threshold(0.01, dof, beta=1.4).sigma
        params = solve_optimal_params(1.4, sigma, criteria, dof)
        alarm = ncx2_survival_quad(
            params.mu**2 * sigma, dof, (params.mu * params.delta_bar) ** 2
        )
        assert abs(alarm - criteria.Upsilon) <= 1e-9

    def test_constraints_hold_as_inequalities(self, criteria):
        params = solve_optimal_params(1.4, 11.34, criteria, 3, m=2)
        assert trigger_probability(params, 1.4) >= criteria.M - 1e-9
        assert alarm_probability(params, 11.34, 3) <= criteria.Upsilon + 1e-9

    def test_invalid_beta(self, criteria):
        with pytest.raises(ConfigError):
            solve_optimal_params(4.0, 11.34, criteria, 3)

    def test_boundary_solution_warns(self):
        # a huge alarm budget leaves the detector constraint slack at mu = 1
        lax = SuccessCriteria(M=0.9, Upsilon=0.999)
        with pytest.warns(RuntimeWarning, match="inactive"):
            params = solve_optimal_params(1.4, 11.34, lax, 2)
        assert params.mu == 1.0

    @pytest.mark.parametrize(
        "upsilon, mu_is_one, delta_star, messages",
        [
            (0.7, False, 3.60, ["solved bias 3.596243 is not below sqrt(sigma) = 3.367492"]),
            (
                0.99,
                True,
                4.40,
                [
                    "detector constraint inactive at mu = 1; returning the boundary solution",
                    "solved bias 4.400000 is not below sqrt(sigma) = 3.367492",
                ],
            ),
        ],
    )
    def test_bias_above_root_sigma_warns_on_either_exit(
        self, upsilon, mu_is_one, delta_star, messages
    ):
        """The root exit (Upsilon 0.7) and the boundary exit (0.99) share one tail:
        delta* = beta + Psi/mu*, checked against sqrt(sigma) once."""
        target = SuccessCriteria(M=1.0 - ef.gaussian_q(3.0), Upsilon=upsilon)
        with pytest.warns(RuntimeWarning) as caught:
            params = solve_optimal_params(1.4, 11.34, target, 3)
        assert (params.mu == 1.0) is mu_is_one
        assert params.delta_bar == 1.4 + target.Psi / params.mu
        assert params.delta_bar == pytest.approx(delta_star, abs=5e-3)
        assert [str(w.message) for w in caught] == messages


    @pytest.mark.parametrize("M", [0.05, 0.01])
    def test_target_below_q_beta_names_M(self, M):
        """Below Q(beta) = 0.0808 at beta = 1.4, beta + Psi < 0 and the trigger
        boundary is negative at mu = 1; the error names M and the bound."""
        with pytest.raises(ConfigError) as err:
            solve_optimal_params(1.4, 11.34, SuccessCriteria(M=M, Upsilon=0.01), 3)
        assert err.value.field == "M"
        assert f"M = {M!r}" in str(err.value) and "Q(beta) = 0.0807567" in str(err.value)

    @pytest.mark.parametrize(
        "M, upsilon, name",
        [
            (0.0, 0.01, "M"),
            (1.0, 0.01, "M"),
            (math.nan, 0.01, "M"),
            (0.99, 0.0, "Upsilon"),
            (0.99, 1.0, "Upsilon"),
            (0.99, math.nan, "Upsilon"),
        ],
    )
    def test_criteria_domain(self, M, upsilon, name):
        with pytest.raises(DomainError, match=rf"{name} must be in \(0, 1\)"):
            SuccessCriteria(M=M, Upsilon=upsilon)

    def test_target_just_above_q_beta_solves(self):
        just_above = SuccessCriteria(M=ef.gaussian_q(1.4) * (1 + 1e-9), Upsilon=0.01)
        params = solve_optimal_params(1.4, 11.34, just_above, 3)
        assert params.mu >= 1.0 and params.delta_bar >= 0.0
        low, high = feasible_delta_interval(1.5 * params.mu, 1.4, 11.34, just_above, 3)
        assert 0.0 <= low < high

    def test_residual_past_1e9_is_config_error(self, criteria, monkeypatch):
        """A root search that returns a scaling off the root fails the residual guard."""
        monkeypatch.setattr(attack, "_brentq", lambda f, lo, hi, f_lo, f_hi: (lo, f_lo))
        with pytest.raises(ConfigError, match=r"solver residual \S+ exceeds 1e-9") as caught:
            solve_optimal_params(1.4, 11.34, criteria, 3)
        assert caught.value.field == "M"


class TestFeasibleInterval:
    def test_degenerate_at_optimum(self, criteria):
        """At the paper's mu* the detector gap at delta* is -2.4e-15, so the search
        runs, and its root is delta* itself."""
        params = solve_optimal_params(1.4, 11.34, criteria, 3)
        assert (params.mu, params.delta_bar) == (2.770517623768802, 2.4828218405708826)
        assert feasible_delta_interval(params.mu, 1.4, 11.34, criteria, 3) == (
            2.4828218405708826,
            2.4828218405708826,
        )

    @pytest.mark.parametrize("dof, beta", [(1, 0.5), (2, 2.0), (20, 0.5)])
    def test_degenerate_interval_without_a_search(self, criteria, monkeypatch, dof, beta):
        """Where the gap at the solved delta* rounds above 0 (by less than 1e-9),
        the interval is (delta*, delta*) and no root search runs."""
        sigma = ef.design_threshold(0.01, dof, beta=beta).sigma
        params = solve_optimal_params(beta, sigma, criteria, dof)

        def no_search(*args):
            raise AssertionError("root search ran")

        monkeypatch.setattr(attack, "_first_root", no_search)
        interval = feasible_delta_interval(params.mu, beta, sigma, criteria, dof)
        assert interval == (params.delta_bar, params.delta_bar)

    def test_interval_at_every_solved_optimum_is_a_point(self, criteria):
        """Over dof 1-24 and beta in {0.5, 1, 1.4, 2}, low is delta* bit for bit
        and high is within 2e-12 of it."""
        for dof in range(1, 25):
            for beta in (0.5, 1.0, 1.4, 2.0):
                sigma = ef.design_threshold(0.01, dof, beta=beta).sigma
                params = solve_optimal_params(beta, sigma, criteria, dof)
                low, high = feasible_delta_interval(params.mu, beta, sigma, criteria, dof)
                assert low == params.delta_bar
                assert 0.0 <= high - low <= 2e-12

    @pytest.mark.parametrize("mu", [1e154, 1e160, 1e200])
    def test_scaling_whose_boundary_overflows_rejected(self, criteria, mu):
        with pytest.raises(DomainError, match="mu\\^2 sigma overflows"):
            feasible_delta_interval(mu, 1.4, 11.34, criteria, 3)

    @pytest.mark.parametrize("sigma, field", [(-1.0, "sigma"), (1.0, "beta")])
    def test_thresholds_checked(self, criteria, sigma, field):
        with pytest.raises(ConfigError) as err:
            feasible_delta_interval(5.0, 1.4, sigma, criteria, 3)
        assert err.value.field == field

    def test_widens_above_optimum(self, criteria):
        params = solve_optimal_params(1.4, 11.34, criteria, 3)
        low, high = feasible_delta_interval(2 * params.mu, 1.4, 11.34, criteria, 3)
        assert high - low > 0.0

    def test_sampled_biases_satisfy_both_constraints(self, criteria):
        params = solve_optimal_params(1.4, 11.34, criteria, 3)
        mu = 1.5 * params.mu
        low, high = feasible_delta_interval(mu, 1.4, 11.34, criteria, 3)
        for delta_bar in np.linspace(low, high, 7):
            candidate = AttackParams(mu, float(delta_bar), 3)
            assert trigger_probability(candidate, 1.4) >= criteria.M - 1e-9
            assert alarm_probability(candidate, 11.34, 3) <= criteria.Upsilon + 1e-9

    def test_below_optimum_rejected(self, criteria):
        with pytest.raises(DomainError):
            feasible_delta_interval(1.2, 1.4, 11.34, criteria, 3)

    @pytest.mark.parametrize("mu", [0.0, -5.0, float("nan"), 0.5])
    def test_scaling_below_one_rejected_before_the_search(self, criteria, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="mu must be >= 1"):
                feasible_delta_interval(mu, 1.4, 11.34, criteria, 3)

    @pytest.mark.parametrize("M, mu", [(0.05, 1.1), (0.05, 2.0), (0.01, 4.0)])
    def test_target_below_q_beta_rejected(self, M, mu):
        """No optimum exists below Q(beta), so no mu is above it, whether or not
        beta + Psi/mu is negative at this mu (it is at 1.1 and not at 2 or 4)."""
        with pytest.raises(DomainError) as err:
            feasible_delta_interval(mu, 1.4, 11.34, SuccessCriteria(M=M, Upsilon=0.01), 3)
        assert f"M = {M!r}" in str(err.value) and "Q(beta) = 0.0807567" in str(err.value)


def scipy_brentq(f, a, b):
    return optimize.brentq(f, a, b, xtol=_ROOT_XTOL)


def brent_root(f, lo, hi):
    """_brentq's root on [lo, hi], handed the bracket's values as the solvers hand them."""
    return _brentq(f, lo, hi, f(lo), f(hi))[0]


def solver_brackets(dof, beta, upsilon):
    """The gap functions and doubling brackets of both solvers for one design.

    Yields (gap, lo, hi) for solve_optimal_params' gap in mu, then for
    feasible_delta_interval's gap in delta at 1.1, 1.5, 2 and 5 times mu*.
    """
    criteria = SuccessCriteria(M=0.99865, Upsilon=upsilon)
    sigma = ef.design_threshold(upsilon, dof, beta=beta).sigma
    psi, root_sigma = criteria.Psi, math.sqrt(sigma)

    def mu_gap(mu):
        return ef.marcum_q(0.5 * dof, mu * beta + psi, mu * root_sigma) - upsilon

    lo, hi = 1.0, 2.0
    while mu_gap(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    yield mu_gap, lo, hi
    mu_star = brent_root(mu_gap, lo, hi)
    for factor in (1.1, 1.5, 2.0, 5.0):
        mu = factor * mu_star

        def delta_gap(delta_bar, mu=mu):
            return ef.marcum_q(0.5 * dof, mu * delta_bar, mu * root_sigma) - upsilon

        lo = hi = beta + psi / mu
        while delta_gap(hi) < 0.0:
            lo, hi = hi, 2.0 * hi
        yield delta_gap, lo, hi


class TestSolverGaps:
    """Both solvers evaluate their gaps through the ufunc helper that marcum_q
    wraps, with the order checked once per call: the same bits as marcum_q."""

    @staticmethod
    def _library_gaps(monkeypatch, dof, beta, upsilon):
        """The gap functions the two solvers hand to _brentq, in solver_brackets' order."""
        gaps = []

        def spy(f, xa, xb, fa, fb):
            gaps.append(f)
            return _brentq(f, xa, xb, fa, fb)

        monkeypatch.setattr(attack, "_brentq", spy)
        criteria = SuccessCriteria(M=0.99865, Upsilon=upsilon)
        sigma = ef.design_threshold(upsilon, dof, beta=beta).sigma
        mu_star = solve_optimal_params(beta, sigma, criteria, dof).mu
        for factor in (1.1, 1.5, 2.0, 5.0):
            feasible_delta_interval(factor * mu_star, beta, sigma, criteria, dof)
        return gaps

    @pytest.mark.parametrize("dof", range(1, 25))
    def test_gaps_equal_marcum_gaps(self, dof, monkeypatch):
        count = 0
        for beta in (0.5, 1.0, 1.4):
            for upsilon in (0.001, 0.01, 0.05):
                library = self._library_gaps(monkeypatch, dof, beta, upsilon)
                reference = list(solver_brackets(dof, beta, upsilon))
                assert len(library) == len(reference) == 5
                for gap, (marcum_gap, lo, hi) in zip(library, reference):
                    root = brent_root(marcum_gap, lo, hi)
                    for x in (*np.linspace(lo, hi, 9), root):
                        assert gap(float(x)) == marcum_gap(float(x))
                        count += 1
        assert count == 9 * 5 * 10

    def test_dof_checked_once_per_call(self, criteria, monkeypatch):
        calls = []
        dof_check = special._check_dof

        def counting(check):
            def counted(value):
                calls.append(value)
                return check(value)

            return counted

        # every name: the solvers' own import and the one the special functions look up
        monkeypatch.setattr(attack, "_check_dof", counting(dof_check))
        monkeypatch.setattr(special, "_check_dof", counting(dof_check))
        mu_star = solve_optimal_params(1.4, 11.34, criteria, 3).mu
        assert calls == [3]
        feasible_delta_interval(2.0 * mu_star, 1.4, 11.34, criteria, 3)
        assert calls == [3, 3]
        special.marcum_q(1.5, 1.0, 1.0)  # the Marcum order takes the same rule, on 2 nu
        assert calls == [3, 3, 3]

    @pytest.mark.parametrize(
        "dof, message",
        [
            (0, "must be a positive integer"),
            (1.5, "must be a positive integer"),
            pytest.param(10**400, "must be finite as a float, got an integer of 1329 bits",
                         id="10**400"),
        ],
    )
    def test_dof_still_validated(self, criteria, dof, message):
        for solve in (
            lambda: solve_optimal_params(1.4, 11.34, criteria, dof),
            lambda: feasible_delta_interval(5.0, 1.4, 11.34, criteria, dof),
        ):
            with pytest.raises(DomainError, match=f"degrees of freedom {message}"):
                solve()


class TestEachPointEvaluatedOnce:
    """Within one solve, no survival argument triple is evaluated twice: the gap at
    mu = 1 (or at low) is the bracket's first end, the doubling hands its values
    to _brentq, and the root's value is the residual."""

    @staticmethod
    def _survival_calls(monkeypatch):
        calls = []
        survival = attack._ncx2_survival

        def spy(*args):
            calls.append(args)
            return survival(*args)

        monkeypatch.setattr(attack, "_ncx2_survival", spy)
        return calls

    @staticmethod
    def _designs():
        yield 1.4, 11.34, 3  # the paper point
        for dof in range(1, 25):
            for beta in (0.5, 1.4):
                yield beta, ef.design_threshold(0.01, dof, beta=beta).sigma, dof

    def test_no_repeated_argument_in_a_solve(self, criteria, monkeypatch):
        calls = self._survival_calls(monkeypatch)
        solves = 0
        for beta, sigma, dof in self._designs():
            calls.clear()
            mu_star = solve_optimal_params(beta, sigma, criteria, dof).mu
            assert len(calls) >= 3 and len(set(calls)) == len(calls), (dof, beta)
            for factor in (1.1, 1.5, 2.0, 5.0):
                calls.clear()
                feasible_delta_interval(factor * mu_star, beta, sigma, criteria, dof)
                assert len(calls) >= 3 and len(set(calls)) == len(calls), (dof, beta, factor)
                solves += 1
        assert solves == 4 * 49

    def test_paper_point_counts(self, criteria, monkeypatch):
        """The paper's solve takes 14 evaluations and the interval at 2 mu* 12, each
        at a new point (17 and 15 when the bracket ends and the root were evaluated
        again)."""
        calls = self._survival_calls(monkeypatch)
        mu_star = solve_optimal_params(1.4, 11.34, criteria, 3).mu
        assert len(calls) == len(set(calls)) == 14
        calls.clear()
        feasible_delta_interval(2.0 * mu_star, 1.4, 11.34, criteria, 3)
        assert len(calls) == len(set(calls)) == 12


class TestNanSurvival:
    """A nan from the survival ufunc that no tail bound settles raises NumericError,
    so a solver's gap never reads it as 0, a finite gap of -Upsilon."""

    def test_gap_with_nan_argument_raises(self):
        mu, root_sigma = math.nan, math.sqrt(11.34)

        def gap(delta_bar):
            a, b = mu * delta_bar, mu * root_sigma
            return special._ncx2_survival(b * b, 3.0, a * a) - 0.01

        with pytest.raises(NumericError, match="survival undefined"):
            brent_root(gap, 1.0, 2.0)

    def test_solvers_raise_on_nan_ufunc(self, criteria, monkeypatch):
        monkeypatch.setattr(special, "_ncx2_sf", lambda *args: math.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="survival undefined"):
                solve_optimal_params(1.4, 11.34, criteria, 3)
            with pytest.raises(NumericError, match="survival undefined"):
                feasible_delta_interval(5.0, 1.4, 11.34, criteria, 3)

    @pytest.mark.parametrize("mu", [3e9, 1e10])
    def test_huge_scaling(self, criteria, mu):
        """The paper's pair at a scaling whose noncentrality the ufunc gives nan for:
        the alarm is 0 by the tail bound, and the interval's upper end, where the
        survival crosses Upsilon, is a point no bound settles."""
        assert alarm_probability(AttackParams(mu, 2.4828, 2), 11.34, 2) == 0.0
        with pytest.raises(NumericError, match="survival undefined"):
            feasible_delta_interval(mu, 1.4, 11.34, criteria, 3)


class TestBrentPort:
    """_brentq against scipy.optimize.brentq: the same bits, compared with ==."""

    @pytest.mark.parametrize("dof", range(1, 25))
    def test_solver_gaps_bit_identical(self, dof):
        count = 0
        for beta in (0.5, 1.0, 1.4):
            for upsilon in (0.001, 0.01, 0.05):
                for gap, lo, hi in solver_brackets(dof, beta, upsilon):
                    assert brent_root(gap, lo, hi) == scipy_brentq(gap, lo, hi)
                    count += 1
        assert count == 45

    @settings(max_examples=200, deadline=None)
    @given(
        root=st.floats(-10.0, 10.0),
        scale=st.floats(0.01, 100.0),
        power=st.integers(0, 3),
        left=st.floats(1e-3, 20.0),
        right=st.floats(1e-3, 20.0),
    )
    def test_smooth_bracketed_functions_bit_identical(self, root, scale, power, left, right):
        def f(x):
            return math.atan(scale * (x - root)) + 0.01 * (x - root) ** (2 * power + 1)

        lo, hi = root - left, root + right
        assert brent_root(f, lo, hi) == scipy_brentq(f, lo, hi)
        assert brent_root(f, hi, lo) == scipy_brentq(f, hi, lo)

    def test_paper_roots_exact_bits(self):
        config = ef.config_from_dict(ef.paper_scenario())
        assert config.attack_params.mu == 2.770517623768802
        assert config.attack_params.delta_bar == 2.4828218405708826

    @pytest.mark.parametrize("lo, hi", [(0.75, 2.0), (0.0, 0.75)])
    def test_exact_root_at_an_endpoint_is_returned(self, lo, hi):
        root = brent_root(lambda x: x - 0.75, lo, hi)
        assert root == scipy_brentq(lambda x: x - 0.75, lo, hi) == 0.75

    def test_same_sign_bracket_raises(self):
        with pytest.raises(NumericError, match="same sign"):
            brent_root(lambda x: x * x + 1.0, -1.0, 2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_raises(self, bad):
        # at a bracket end the caller hands in, and at a point the search adds
        with pytest.raises(NumericError, match="function value"):
            brent_root(lambda x: bad if x > 0.5 else x - 0.75, 0.0, 1.0)
        with pytest.raises(NumericError, match="function value"):
            brent_root(lambda x: bad if 0.5 < x < 1.0 else x - 0.75, 0.0, 1.0)

    def test_returns_the_value_at_the_root(self):
        def f(x):
            return math.atan(3.0 * (x - 0.3)) + 0.01 * x**3

        root, f_root = _brentq(f, -1.0, 2.0, f(-1.0), f(2.0))
        assert root == scipy_brentq(f, -1.0, 2.0)
        assert f_root == f(root)

    def test_no_convergence_raises(self):
        # a sign change with no root: the bracket shrinks onto the jump, but
        # |f| never falls, and 100 iterations cannot bisect [0, 1e300] to 1e-12
        with pytest.raises(NumericError, match="did not converge"):
            brent_root(lambda x: 1.0 if x > 1.0 else -1.0, 0.0, 1e300)
