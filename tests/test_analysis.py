import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg

import eventfdi as ef
from eventfdi import (
    AttackParams,
    DivergenceError,
    DomainError,
    attacked_covariance_fixed_point,
    attacked_covariance_step,
    event_based_covariance,
    mu_sweep,
    open_loop_fixed_point,
    op_h,
    op_q_tilde,
    steady_bias,
)
from eventfdi import analysis
from eventfdi import model as model_module
from eventfdi.analysis import _lyapunov
from eventfdi.estimator import _sym
from eventfdi.model import SystemModel, _kron_square
from numpy.linalg import _umath_linalg

from _oracles import (
    lyapunov_kron,
    random_psd,
    random_stable_model,
    relative_gap,
    unstable_model,
)

PAPER_MU = 2.7705
PAPER_DELTA = 2.4828


@pytest.fixture(scope="module")
def paper_params():
    return AttackParams(PAPER_MU, PAPER_DELTA, 2)


class TestDirectFixedPoints:
    """The direct Lyapunov solves against the one-step maps and a Kronecker solve."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        rho=st.floats(0.0, 0.995),
        mu=st.one_of(st.just(1.0), st.floats(1.0, 1e4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_residual_through_step_maps(self, n, m, rho, mu, seed):
        model = random_stable_model(n, m, rho, seed)
        steady = ef.riccati_fixed_point(model)
        params = AttackParams(mu, 1.0, m)

        attacked = attacked_covariance_fixed_point(params, steady, model)
        stepped = attacked_covariance_step(attacked, params, steady, model)
        assert relative_gap(stepped, attacked) <= 1e-11
        open_fp = open_loop_fixed_point(model)
        assert relative_gap(op_h(open_fp, model), open_fp) <= 1e-11

        forcing = attacked_covariance_step(np.zeros((n, n)), params, steady, model)  # Q - W
        assert relative_gap(attacked, lyapunov_kron(model.A, forcing)) <= 1e-10
        assert relative_gap(open_fp, lyapunov_kron(model.A, model.Q)) <= 1e-10
        assert np.array_equal(attacked, attacked.T)
        assert np.array_equal(open_fp, open_fp.T)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        rho=st.floats(0.0, 0.995),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kronecker_solve_matches_scipy(self, n, rho, seed):
        # Over 20 000 of these systems at rho = 0.995 the worst relative gap
        # to scipy was 3.6e-12, and 0.22 of cond(I - A kron A) * eps; the
        # gap is in the last bits and grows with the conditioning.
        model = random_stable_model(n, 2, rho, seed)
        lhs = np.eye(n * n) - np.kron(model.A, model.A)
        bound = np.linalg.cond(lhs) * np.finfo(float).eps
        for forcing in (model.Q, model.Q - 0.5 * np.eye(n)):
            ref = _sym(linalg.solve_discrete_lyapunov(model.A, forcing))
            assert relative_gap(_lyapunov(model, forcing), ref) <= bound

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 9),
        rho=st.floats(0.0, 0.995),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_broadcast_operator_is_kron_bits(self, n, rho, seed):
        model = random_stable_model(n, 2, rho, seed)
        A = model.A
        assert np.array_equal(_kron_square(A), np.kron(A, A))
        forcing = model.Q - 0.5 * random_psd(np.random.default_rng(seed), n)
        assert np.array_equal(_lyapunov(model, forcing), _sym(lyapunov_kron(A, forcing)))

    def test_kronecker_solve_paper_bits(self, steady, paper_model):
        for forcing in (paper_model.Q, paper_model.Q - 0.3 * steady.P):
            ref = _sym(linalg.solve_discrete_lyapunov(paper_model.A, forcing))
            assert np.array_equal(_lyapunov(paper_model, forcing), ref)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(10, 16),
        rho=st.floats(0.0, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=12, rho=0.999, seed=0)  # one doubling pass alone left a residual of 7e-13
    def test_large_n_smith_doubling(self, n, rho, seed):
        # from n = 10 on the solve is Smith's doubling; the Kronecker solve is
        # still correct there, only slow, and stays the reference. Two solutions
        # whose residuals are at most 1e-14 differ by at most the conditioning of
        # I - A kron A times that.
        model = random_stable_model(n, 2, rho, seed)
        lhs = np.eye(n * n) - np.kron(model.A, model.A)
        bound = np.linalg.cond(lhs) * 1e-14
        for forcing in (model.Q, model.Q - 0.5 * random_psd(np.random.default_rng(seed), n)):
            P = _lyapunov(model, forcing)
            assert np.array_equal(P, P.T)
            assert relative_gap(model.A @ P @ model.A.T + forcing, P) <= 1e-14
            assert relative_gap(P, lyapunov_kron(model.A, forcing)) <= bound

    @pytest.mark.parametrize(
        "solve",
        [attacked_covariance_fixed_point, lambda params, steady, model: open_loop_fixed_point(model)],
        ids=["attacked", "open_loop"],
    )
    def test_singular_kronecker_system_diverges_quietly(
        self, solve, steady, paper_model, paper_params, monkeypatch
    ):
        """The gufunc gives a singular system nan, not LinAlgError; the solve reports
        that as DivergenceError and leaks no RuntimeWarning. The singular operator
        is the one the model holds: a copy of the paper model built with I - I = 0."""
        monkeypatch.setattr(model_module, "_kron_square", lambda A: np.eye(A.size))
        model = SystemModel(
            paper_model.A, paper_model.C, paper_model.Q, paper_model.R, paper_model.Xi0
        )
        assert not model._lyapunov_operator.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="Lyapunov solve failed"):
                solve(paper_params, steady, model)

    def test_unstable_A_attacked_diverges(self):
        model = unstable_model()
        steady = ef.riccati_fixed_point(model)
        for params in (AttackParams.off(2), AttackParams(3.0, 1.0, 2)):
            with pytest.raises(DivergenceError, match="spectral radius"):
                attacked_covariance_fixed_point(params, steady, model)

    def test_marginal_A_diverges(self):
        # spectral radius exactly 1: no stationary covariance exists
        model = SystemModel(
            A=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            C=np.eye(2),
            Q=np.eye(2),
            R=np.eye(2),
            Xi0=np.eye(2),
        )
        with pytest.raises(DivergenceError):
            open_loop_fixed_point(model)
        with pytest.raises(DivergenceError):
            attacked_covariance_fixed_point(
                AttackParams.off(2), ef.riccati_fixed_point(model), model
            )

    def test_unstable_A_sweep_diverges(self):
        model = unstable_model()
        steady = ef.riccati_fixed_point(model)
        with pytest.raises(DivergenceError, match="spectral radius"):
            mu_sweep([1.0, 2.0, 1e4], steady, model)


class TestOneOperatorPerModel:
    """The model builds I - A kron A once, at construction, for n < 10, and every
    Lyapunov solve on it reads that operator; from n = 10 on none is built."""

    @staticmethod
    def _counted_builds(monkeypatch):
        builds = []
        build = model_module._kron_square

        def counted(A):
            builds.append(A.shape[0])
            return build(A)

        monkeypatch.setattr(model_module, "_kron_square", counted)
        return builds

    @pytest.mark.parametrize("n", [1, 3, 9, 10, 12])
    def test_one_build_across_the_solves(self, n, monkeypatch):
        builds = self._counted_builds(monkeypatch)
        model = random_stable_model(n, 2, 0.9, seed=n)
        assert builds == ([n] if n < 10 else [])
        steady = ef.riccati_fixed_point(model)
        attacked_covariance_fixed_point(AttackParams(2.0, 1.0, 2), steady, model)
        open_loop_fixed_point(model)
        mu_sweep([1.0, 2.0, float("inf")], steady, model)
        assert builds == ([n] if n < 10 else [])

    @pytest.mark.parametrize("n", [3, 10])
    def test_one_build_for_a_run_and_its_theory(self, n, monkeypatch):
        builds = self._counted_builds(monkeypatch)
        source = random_stable_model(n, 2, 0.9, seed=n)
        model = {name: getattr(source, name).tolist() for name in ("A", "C", "Q", "R", "Xi0")}
        builds.clear()
        config = ef.config_from_dict(
            ef.paper_scenario(
                model=model, steps=40, trajectories=2, burn_in=10, attack_start=5
            )
        )
        result = ef.run_scenario(config)
        assert np.isfinite(result.summary.theory_cov_trace)
        assert builds == ([n] if n < 10 else [])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 11),
        rho=st.floats(0.0, 0.995),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_operator_bits_and_read_only(self, n, rho, seed):
        model = random_stable_model(n, 2, rho, seed)
        operator = model._lyapunov_operator
        if n >= 10:
            assert operator is None
            return
        assert np.array_equal(operator, np.eye(n * n) - np.kron(model.A, model.A))
        assert not operator.flags.writeable


class TestSteadyBias:
    def test_zero_bias_for_zero_delta(self, steady, paper_model):
        bias = steady_bias(AttackParams.off(2), steady, paper_model)
        assert np.allclose(bias, 0.0, atol=1e-15)

    def test_linear_in_delta(self, steady, paper_model):
        one = steady_bias(AttackParams(2.0, 1.0, 2), steady, paper_model)
        two = steady_bias(AttackParams(2.0, 2.0, 2), steady, paper_model)
        assert np.allclose(two, 2.0 * one, atol=1e-12)

    def test_defining_equation(self, steady, paper_model, paper_params):
        bias = steady_bias(paper_params, steady, paper_model)
        lhs = (np.eye(3) - paper_model.A) @ bias
        rhs = steady.K @ np.linalg.solve(steady.F.T, paper_params.delta)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_unstable_A_rejected(self, steady):
        model = SystemModel(
            A=1.2 * np.eye(2),
            C=np.eye(2),
            Q=0.1 * np.eye(2),
            R=np.eye(2),
            Xi0=np.eye(2),
        )
        local = ef.riccati_fixed_point(model)
        with pytest.raises(DivergenceError, match="steady bias diverges; A has spectral radius"):
            steady_bias(AttackParams(2.0, 1.0, 2), local, model)


class TestAttackedCovariance:
    def test_paper_mu_between_extremes(self, steady, paper_model, paper_params):
        fp = attacked_covariance_fixed_point(paper_params, steady, paper_model)
        lo = np.trace(op_q_tilde(steady.P, 1.0, paper_model))
        hi = np.trace(open_loop_fixed_point(paper_model))
        assert lo < np.trace(fp) < hi

    def test_regression_anchor(self, steady, paper_model, paper_params):
        fp = attacked_covariance_fixed_point(paper_params, steady, paper_model)
        assert np.trace(fp) == pytest.approx(0.0732852, abs=2e-6)

    @pytest.mark.parametrize("mu", [1e154, 1e200, 1e300])
    def test_scaling_whose_square_overflows_is_rejected(self, steady, paper_model, mu):
        """AttackParams refuses a mu whose mu^2 delta_bar^2 overflows, so the weight
        2/mu - 1/mu^2 is always evaluable. Far below that bound, at mu = 1e150, 1/mu^2
        is under half an ulp of 2/mu: the weight is 2/mu and the fixed point the open
        loop's."""
        with pytest.raises(DomainError, match="attack parameters overflow"):
            AttackParams(mu, PAPER_DELTA, 2)
        params = AttackParams(1e150, PAPER_DELTA, 2)
        term = analysis._injection_term(params, steady, paper_model)
        shape = analysis._injection_shape(steady, paper_model)
        assert np.array_equal(term, (2.0 / 1e150) * shape)
        fp = attacked_covariance_fixed_point(params, steady, paper_model)
        assert np.trace(fp) == pytest.approx(np.trace(open_loop_fixed_point(paper_model)))

    def test_step_is_one_recursion(self, steady, paper_model, paper_params, rng):
        X = random_psd(rng, 3)
        stepped = attacked_covariance_step(X, paper_params, steady, paper_model)
        weight = 2.0 / PAPER_MU - 1.0 / PAPER_MU**2
        D = steady.P @ paper_model.C.T @ np.linalg.solve(
            steady.S, paper_model.C @ steady.P
        )
        ref = paper_model.A @ X @ paper_model.A.T + paper_model.Q - weight * D
        assert np.max(np.abs(stepped - 0.5 * (ref + ref.T))) < 1e-13


class TestOpenLoop:
    def test_A_zero_fixed_point_is_Q(self):
        model = SystemModel(
            A=np.zeros((2, 2)),
            C=np.eye(2),
            Q=0.2 * np.eye(2),
            R=np.eye(2),
            Xi0=np.eye(2),
        )
        assert np.allclose(open_loop_fixed_point(model), model.Q, atol=1e-11)

    def test_residual(self, paper_model):
        fp = open_loop_fixed_point(paper_model)
        assert np.max(np.abs(fp - op_h(fp, paper_model))) < 1e-11

    def test_matches_kron_solve(self, paper_model):
        fp = open_loop_fixed_point(paper_model)
        ref = lyapunov_kron(paper_model.A, paper_model.Q)
        assert np.max(np.abs(fp - ref)) < 1e-10

    def test_unstable_A_diverges(self):
        model = SystemModel(
            A=1.05 * np.eye(2),
            C=np.eye(2),
            Q=np.eye(2),
            R=np.eye(2),
            Xi0=np.eye(2),
        )
        with pytest.raises(DivergenceError):
            open_loop_fixed_point(model)


def _event_weight(beta: float, m: int) -> float:
    p = 1.0 - (1.0 - 2.0 * ef.gaussian_q(beta)) ** m
    return p + (1.0 - p) * ef.kappa(beta)


class TestEventBasedCovariance:
    """The attack-off theory: the event-based filter's expected posterior covariance."""

    def test_paper_value(self, steady, paper_model):
        assert _event_weight(1.4, 2) == pytest.approx(0.64846, abs=1e-5)
        trace = np.trace(event_based_covariance(1.4, steady, paper_model))
        assert trace == pytest.approx(0.068368, abs=1e-6)

    @pytest.mark.parametrize(
        "n, m, rho, seed", [(3, 2, 0.8, 101), (5, 4, 0.95, 103), (2, 1, 0.999, 109)]
    )
    def test_fixed_point_residual(self, n, m, rho, seed):
        """(2, 1, 0.999, 109) takes 2,366 steps, far past the doubling cap of 64."""
        model = random_stable_model(n, m, rho, seed)
        w = _event_weight(1.4, m)
        posterior = event_based_covariance(1.4, ef.riccati_fixed_point(model), model)
        assert relative_gap(op_q_tilde(op_h(posterior, model), w, model), posterior) < 1e-7

    def test_always_firing_is_the_kalman_posterior(self, steady, paper_model):
        posterior = event_based_covariance(0.0, steady, paper_model)
        assert relative_gap(posterior, op_q_tilde(steady.P, 1.0, paper_model)) < 1e-12

    def test_cap_raises(self, steady, paper_model, monkeypatch):
        monkeypatch.setattr(analysis, "_EVENT_STEPS", 3)
        with pytest.raises(DivergenceError, match="event-based covariance did not converge "
                           "within 3 iterations"):
            event_based_covariance(1.4, steady, paper_model)

    @pytest.mark.parametrize(
        "n, m, rho, seed",
        [(3, 2, 0.8, 101), (4, 3, 0.9, 102), (5, 4, 0.95, 103), (3, 4, 0.95, 104)],
    )
    def test_matches_monte_carlo(self, n, m, rho, seed):
        """run_scenario's attack-off theory against 100 x 2,000 window steps: within 1 %
        (the closure is first order), with an SE below 0.5 %, while the always-transmit
        fixed point that was the theory before lies more than 20 SEs away."""
        source = random_stable_model(n, m, rho, seed)
        model = {name: getattr(source, name).tolist() for name in ("A", "C", "Q", "R", "Xi0")}
        config = ef.config_from_dict(ef.paper_scenario(
            model=model, sigma=None, solver_dof=m, steps=2200, trajectories=100, burn_in=200,
            seed=seed, attack_mode="off",
        ))
        result = ef.run_scenario(config)
        empirical, theory = result.summary.emp_cov_trace, result.summary.theory_cov_trace
        se = float(result.sums.se("err_sq"))
        always = np.trace(attacked_covariance_fixed_point(
            AttackParams.off(m), ef.riccati_fixed_point(config.model), config.model
        ))
        print(f"gap {(empirical - theory) / theory:+.2%}, z {(empirical - theory) / se:+.2f}, "
              f"SE {se / empirical:.2%}, always-transmit z {(empirical - always) / se:+.0f}")
        assert se < 0.005 * empirical
        assert abs(empirical - theory) <= 0.01 * theory
        assert abs(empirical - always) > 20 * se


class TestMuSweep:
    def test_paper_grid(self, steady, paper_model):
        grid = [1.0, 2.0, PAPER_MU, 5.0, 10.0, 1e4]
        points = mu_sweep(grid, steady, paper_model)
        traces = [p.trace for p in points]
        assert all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))
        assert traces[-1] == pytest.approx(0.0915, abs=1e-3)

    def test_mu_one_equals_kalman(self, steady, paper_model):
        points = mu_sweep([1.0], steady, paper_model)
        posterior_trace = np.trace(op_q_tilde(steady.P, 1.0, paper_model))
        assert points[0].trace == pytest.approx(posterior_trace, abs=1e-9)

    def test_psd_dominance_consecutive(self, steady, paper_model):
        points = mu_sweep([1.0, 2.0, 5.0], steady, paper_model)
        for prev, cur in zip(points, points[1:]):
            eigs = np.linalg.eigvalsh(cur.fixed_point - prev.fixed_point)
            assert eigs.min() > -1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        rho=st.floats(0.0, 0.995),
        mu=st.floats(1.0, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_entries_match_single_fixed_points(self, n, m, rho, mu, seed):
        model = random_stable_model(n, m, rho, seed)
        steady = ef.riccati_fixed_point(model)
        for point in mu_sweep([1.0, mu, 10.0 * mu], steady, model):
            single = attacked_covariance_fixed_point(
                AttackParams(point.mu, 0.0, m), steady, model
            )
            assert relative_gap(point.fixed_point, single) <= 1e-12
            assert point.trace == pytest.approx(np.trace(single), rel=1e-12)

    @pytest.mark.parametrize("grid", [[1.0, 1.0 + 1e-7, 2.0, 3.0], [3.0, 2.0], [1.0]])
    def test_indefinite_injected_term_is_rejected(self, monkeypatch, grid):
        # an indefinite injection shape D makes X_W = lyap(A, D) = D / 0.75
        # indefinite with a positive trace: the traces would still rise, but no
        # grid, in any order or of one point, hides the negative eigenvalue
        model = SystemModel(
            A=0.5 * np.eye(2), C=np.eye(2), Q=np.eye(2), R=np.eye(2), Xi0=np.eye(2)
        )
        steady = ef.riccati_fixed_point(model)
        monkeypatch.setattr(analysis, "_injection_shape", lambda *_: np.diag([1.0, -0.5]))
        with pytest.raises(DivergenceError, match=r"least eigenvalue -0\.667, not >= -1e-9"):
            mu_sweep(grid, steady, model)

    def test_grid_in_any_order(self, steady, paper_model):
        up = mu_sweep([1.0, 2.0, PAPER_MU, float("inf")], steady, paper_model)
        down = mu_sweep([float("inf"), PAPER_MU, 2.0, 1.0], steady, paper_model)
        for a, b in zip(up, reversed(down)):
            assert (a.mu, a.trace) == (b.mu, b.trace)
            assert np.array_equal(a.fixed_point, b.fixed_point)

    def test_grid_validation(self, steady, paper_model):
        with pytest.raises(DomainError):
            mu_sweep([0.5], steady, paper_model)
        with pytest.raises(DomainError):
            mu_sweep([2.0, float("nan")], steady, paper_model)

    def test_infinite_mu_is_open_loop(self, steady, paper_model):
        point = mu_sweep([float("inf")], steady, paper_model)[0]
        assert point.trace == pytest.approx(np.trace(open_loop_fixed_point(paper_model)), rel=1e-9)


class TestGufuncBits:
    """The analysis path calls the LAPACK gufuncs without the np.linalg wrappers;
    on nonsingular input each call gives the wrapper's bits."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 9), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_solve_solve1_inv_match_wrappers(self, n, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + n * np.eye(n)  # diagonally weighted: well conditioned
        b, b1 = rng.standard_normal((n, k)), rng.standard_normal(n)
        solved = _umath_linalg.solve(a, b, signature="dd->d")
        assert solved.tobytes() == np.linalg.solve(a, b).tobytes()
        solved1 = _umath_linalg.solve1(a, b1, signature="dd->d")
        assert solved1.tobytes() == np.linalg.solve(a, b1).tobytes()
        assert _umath_linalg.inv(a, signature="d->d").tobytes() == np.linalg.inv(a).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_eigvalsh_lo_matches_wrapper(self, n, seed):
        sym = _sym(np.random.default_rng(seed).standard_normal((n, n)))
        got = _umath_linalg.eigvalsh_lo(sym, signature="d->d")
        assert got.tobytes() == np.linalg.eigvalsh(sym).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 9),
        rho=st.floats(0.0, 0.995),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kronecker_solve_matches_wrapper(self, n, rho, seed):
        model = random_stable_model(n, 2, rho, seed)
        lhs = model._lyapunov_operator  # up to 81 x 81
        rhs = (model.Q - 0.5 * random_psd(np.random.default_rng(seed), n)).reshape(-1)
        solved = _umath_linalg.solve1(lhs, rhs, signature="dd->d")
        assert solved.tobytes() == np.linalg.solve(lhs, rhs).tobytes()
