import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import linalg

import eventfdi as ef
from eventfdi import (
    DivergenceError,
    DomainError,
    NumericError,
    initial_filter_state,
    innovation,
    kappa,
    measurement_update,
    op_h,
    op_q_tilde,
    riccati_fixed_point,
    schedule,
    time_update,
    transform_innovation,
)
from eventfdi import estimator
from eventfdi.estimator import _sym, factor_stack
from eventfdi.model import SystemModel

from _oracles import (
    diagnostics,
    matmul_loops,
    random_psd,
    random_stable_model,
    relative_gap,
    riccati_doubling_reference,
    unstable_model,
)


# every float, with nan, +-inf, +-0 and subnormals drawn often
_SYM_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308]),
)


@st.composite
def _square_stacks(draw):
    """A float array of shape (*stack, n, n), stack of 0 to 2 dimensions."""
    n = draw(st.integers(1, 5))
    stack = draw(st.lists(st.integers(1, 3), max_size=2))
    return draw(hnp.arrays(np.float64, (*stack, n, n), elements=_SYM_ENTRIES))


class TestSym:
    """_sym halves the sum in place: the bits of 0.5 * (X + X^T), and never a
    write into X."""

    @staticmethod
    def _reference(X):
        return 0.5 * (X + X.swapaxes(-1, -2))

    @settings(max_examples=200, deadline=None)
    @given(X=_square_stacks(), writeable=st.booleans())
    def test_bits_of_the_product(self, X, writeable):
        X.setflags(write=writeable)
        before = X.tobytes()
        with np.errstate(all="ignore"):  # inf - inf and friends: nan, as in the reference
            got, ref = _sym(X), self._reference(X)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert X.tobytes() == before

    @settings(max_examples=50, deadline=None)
    @given(X=_square_stacks(), copies=st.integers(1, 4))
    def test_broadcast_view(self, X, copies):
        view = np.broadcast_to(X, (copies, *X.shape))  # read-only, zero strides
        before = X.tobytes()
        with np.errstate(all="ignore"):
            got, ref = _sym(view), self._reference(view)
        assert got.tobytes() == ref.tobytes()
        assert got.flags.writeable and not np.shares_memory(got, X)
        assert X.tobytes() == before

    def test_model_matrices_untouched(self, paper_model):
        for name in ("A", "Q", "Xi0"):
            mat = getattr(paper_model, name)
            before = mat.tobytes()
            assert _sym(mat).tobytes() == self._reference(mat).tobytes()
            assert mat.tobytes() == before and not mat.flags.writeable


class TestOpH:
    def test_zero_gives_Q(self, paper_model):
        assert np.allclose(op_h(np.zeros((3, 3)), paper_model), paper_model.Q, atol=1e-15)

    def test_identity_dynamics(self):
        model = SystemModel(
            A=np.eye(2), C=np.eye(2), Q=np.zeros((2, 2)), R=np.eye(2), Xi0=np.eye(2)
        )
        X = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(op_h(X, model), X, atol=1e-15)

    def test_against_loop_oracle(self, paper_model):
        X = np.eye(3)
        ref = matmul_loops(matmul_loops(paper_model.A, X), paper_model.A.T) + paper_model.Q
        assert np.allclose(op_h(X, paper_model), ref, atol=1e-14)

    def test_shape_check(self, paper_model):
        with pytest.raises(DomainError):
            op_h(np.eye(2), paper_model)


class TestOpQTilde:
    def test_lambda_zero_identity(self, paper_model, rng):
        X = random_psd(rng, 3)
        assert np.allclose(op_q_tilde(X, 0.0, paper_model), X, atol=1e-15)

    def test_zero_matrix(self, paper_model):
        assert np.allclose(op_q_tilde(np.zeros((3, 3)), 1.0, paper_model), 0.0, atol=1e-15)

    def test_psd_ordering_in_lambda(self, paper_model, rng):
        # q_tilde(X) <= q_tilde_lam(X) <= X in the PSD order
        for _ in range(20):
            X = random_psd(rng, 3, scale=2.0)
            lam = rng.uniform(0.0, 1.0)
            full = op_q_tilde(X, 1.0, paper_model)
            partial = op_q_tilde(X, lam, paper_model)
            assert np.linalg.eigvalsh(X - partial).min() > -1e-10
            assert np.linalg.eigvalsh(partial - full).min() > -1e-10

    def test_lambda_domain(self, paper_model):
        with pytest.raises(DomainError):
            op_q_tilde(np.eye(3), 1.5, paper_model)

    def test_shape_check(self, paper_model):
        with pytest.raises(DomainError, match="op_q_tilde expects a 3x3 matrix"):
            op_q_tilde(np.eye(2), 0.5, paper_model)

    def test_singular_innovation_covariance_raises(self):
        # C X C^T = -R makes S = 0
        model = SystemModel(
            A=np.zeros((2, 2)), C=np.eye(2), Q=np.zeros((2, 2)), R=np.eye(2), Xi0=np.eye(2)
        )
        with pytest.raises(NumericError, match="singular innovation covariance in q_tilde"):
            op_q_tilde(-np.eye(2), 1.0, model)


class TestMahalanobisFactor:
    def test_identity_cov(self):
        model = SystemModel(
            A=np.zeros((2, 2)),
            C=np.eye(2),
            Q=np.zeros((2, 2)),
            R=np.eye(2),
            Xi0=np.zeros((2, 2)),
        )
        F = initial_filter_state(model).F
        assert np.allclose(F, np.eye(2), atol=1e-14)

    def test_scalar_scaling(self):
        model = SystemModel(
            A=np.zeros((2, 2)),
            C=np.eye(2),
            Q=np.zeros((2, 2)),
            R=4.0 * np.eye(2),
            Xi0=np.zeros((2, 2)),
        )
        F = initial_filter_state(model).F
        assert np.allclose(F, 0.5 * np.eye(2), atol=1e-14)

    def test_whitens_steady_covariance(self, paper_model, steady):
        F = steady.F
        S_inv = np.linalg.solve(steady.S, np.eye(2))
        assert np.max(np.abs(F @ F.T - S_inv)) < 1e-10

    def test_lower_triangular_convention(self, steady):
        # F = L^{-T} is upper triangular
        assert steady.F[1, 0] == 0.0
        assert np.allclose(steady.L @ steady.F.T, np.eye(2), atol=1e-13)


class TestFactorStack:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @settings(max_examples=30, deadline=None)
    @given(T=st.integers(1, 5), scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_each_slice_matches_the_matrix_alone_and_linalg(self, m, T, scale, seed):
        """Each slice of a stack gets the bits and strides the matrix gets on its own,
        and F = L^{-T} with L the lower Cholesky factor: np.linalg's bits for m >= 3,
        where both call the same kernels, and its values for the closed forms (against
        a triangular solve, since inv's pivoting fills in F's structural zero)."""
        rng = np.random.default_rng(seed)
        S = np.stack([random_psd(rng, m, scale) + 0.1 * scale * np.eye(m) for _ in range(T)])
        L, F = factor_stack(S)
        for t in range(T):
            L_t, F_t = factor_stack(S[t])
            for got, alone in ((L[t], L_t), (F[t], F_t)):
                assert got.tobytes() == alone.tobytes() and got.strides == alone.strides
            L_ref = np.linalg.cholesky(S[t])
            F_ref = np.linalg.inv(L_ref).T
            if m >= 3:
                assert L_t.tobytes() == L_ref.tobytes() and F_t.tobytes() == F_ref.tobytes()
                assert F_t.strides == F_ref.strides
            else:
                F_ref = linalg.solve_triangular(L_ref, np.eye(m), lower=True).T
                assert np.allclose(L_t, L_ref, rtol=1e-13, atol=0.0)
                assert np.allclose(F_t, F_ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_closed_form_leaves_indefinite_slice_non_finite(self, m, rng):
        """Every m: a slice that is not positive definite gets non-finite factors (all
        nan for m >= 3; the closed forms keep their structural zeros), with nothing but
        the invalid flag raised, and every other slice keeps its bits."""
        S = np.stack([random_psd(rng, m) + 0.1 * np.eye(m) for _ in range(4)])
        S[2] = -S[2]
        with pytest.warns(RuntimeWarning, match="^invalid value encountered") as caught:
            L, F = factor_stack(S)
        assert all(str(w.message).startswith("invalid value") for w in caught)
        lower = np.tril_indices(m)
        assert not np.isfinite(L[2][lower]).any() and not np.isfinite(F[2].T[lower]).any()
        if m >= 3:
            assert np.isnan(L[2]).all() and np.isnan(F[2]).all()
        for t in (0, 1, 3):
            L_t, F_t = factor_stack(S[t])
            assert L[t].tobytes() == L_t.tobytes() and F[t].tobytes() == F_t.tobytes()

    @pytest.mark.parametrize("m", [3, 4])
    def test_factors_of_a_slice_depend_on_that_slice_alone(self, m, rng):
        """Where np.linalg.cholesky rejects the whole stack, each slice still gets the
        factors it gets on its own, and a slice that was indefinite on one call is
        factored normally on the next."""
        S = np.stack([random_psd(rng, m) + 0.1 * np.eye(m) for _ in range(4)])
        S[2] = -S[2]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(S)

        def factors(stack):
            return factor_stack(stack), [factor_stack(stack[t : t + 1]) for t in range(4)]

        with pytest.warns(RuntimeWarning, match="^invalid value encountered"):
            flagged = factors(S)
        healed = factors(np.where(np.arange(4)[:, None, None] == 2, np.eye(m), S))
        for (L, F), alone in (flagged, healed):
            for t, (L_t, F_t) in enumerate(alone):
                assert L[t].tobytes() == L_t[0].tobytes() and F[t].tobytes() == F_t[0].tobytes()
        assert np.array_equal(L[2], np.eye(m)) and np.array_equal(F[2], np.eye(m))


def _nan_entry(S):
    S = S.copy()
    S[-1, 0] = S[0, -1] = np.nan
    return S


def _inf_diagonal(S):
    """F stays finite here (a zero where L has inf), so only L shows the fault."""
    S = S.copy()
    S[-1, -1] = np.inf
    return S


class TestScalarCallersRejectBadS:
    """initial_filter_state, time_update and riccati_fixed_point factor S with
    factor_stack and raise NumericError when the factors are not finite; the flags
    that factorization sets leak no RuntimeWarning."""

    CORRUPT = {
        "negated": np.negative,
        "zero": np.zeros_like,
        "nan_entry": _nan_entry,
        "inf_diagonal": _inf_diagonal,
    }

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("corrupt", sorted(CORRUPT))
    @pytest.mark.parametrize("caller", ["initial_filter_state", "time_update", "riccati_fixed_point"])
    def test_raises_numeric_error(self, caller, corrupt, m, monkeypatch):
        model = random_stable_model(3, m, 0.9, seed=m)
        prev = initial_filter_state(model)
        call = {
            "initial_filter_state": lambda: initial_filter_state(model),
            "time_update": lambda: time_update(prev, model),
            "riccati_fixed_point": lambda: riccati_fixed_point(model),
        }[caller]
        real = estimator.factor_stack
        monkeypatch.setattr(estimator, "factor_stack", lambda S: real(self.CORRUPT[corrupt](S)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="not positive definite"):
                call()


class TestInnovationAndTransform:
    def test_exact_prediction_gives_zero(self, paper_model):
        x = np.array([0.4, -1.0, 2.0])
        y = paper_model.C @ x
        assert np.allclose(innovation(y, x, paper_model), 0.0, atol=1e-15)

    def test_linearity_in_measurement(self, paper_model, rng):
        x = rng.standard_normal(3)
        y = rng.standard_normal(2)
        d = rng.standard_normal(2)
        assert np.allclose(
            innovation(y + d, x, paper_model),
            innovation(y, x, paper_model) + d,
            atol=1e-14,
        )

    def test_transform_zero(self):
        assert np.array_equal(transform_innovation(np.zeros(2), np.eye(2)), np.zeros(2))

    def test_transform_identity_factor(self, rng):
        z = rng.standard_normal(2)
        assert np.array_equal(transform_innovation(z, np.eye(2)), z)


class TestSchedule:
    def test_zero_innovation_silent(self):
        assert schedule(np.zeros(2), 1.4) == 0

    def test_boundary_is_silent(self):
        assert schedule(np.array([1.4, -0.3]), 1.4) == 0

    def test_exceeding_triggers(self):
        assert schedule(np.array([1.4000001, 0.0]), 1.4) == 1

    def test_negative_beta_rejected(self):
        with pytest.raises(DomainError):
            schedule(np.zeros(2), -0.5)


class TestMeasurementUpdate:
    def test_silent_update_keeps_mean(self, paper_model):
        filt = initial_filter_state(paper_model)
        upd = measurement_update(filt, np.array([0.2, 0.1]), 0, 1.4, paper_model)
        assert np.array_equal(upd.x_post, filt.x_prior)
        assert np.allclose(
            upd.P_post, op_q_tilde(filt.P_prior, kappa(1.4), paper_model), atol=1e-13
        )

    def test_fired_update_is_kalman_correction(self, paper_model, rng):
        filt = initial_filter_state(paper_model)
        z = rng.standard_normal(2)
        eps = transform_innovation(z, filt.F)
        upd = measurement_update(filt, eps, 1, 1.4, paper_model)
        assert np.allclose(upd.x_post, filt.x_prior + filt.K @ z, atol=1e-12)
        assert np.allclose(upd.P_post, op_q_tilde(filt.P_prior, 1.0, paper_model), atol=1e-13)

    def test_zero_beta_branches_agree(self, paper_model):
        # kappa(0) = 1 makes the silent covariance update the full one
        filt = initial_filter_state(paper_model)
        p0 = measurement_update(filt, np.zeros(2), 0, 0.0, paper_model).P_post
        p1 = measurement_update(filt, np.zeros(2), 1, 0.0, paper_model).P_post
        assert np.allclose(p0, p1, atol=1e-14)

    def test_posterior_dominated_by_prior(self, paper_model, rng):
        filt = initial_filter_state(paper_model)
        for gamma in (0, 1):
            upd = measurement_update(filt, rng.standard_normal(2), gamma, 1.4, paper_model)
            assert np.linalg.eigvalsh(upd.P_prior - upd.P_post).min() > -1e-10

    def test_gamma_validated(self, paper_model):
        filt = initial_filter_state(paper_model)
        with pytest.raises(DomainError):
            measurement_update(filt, np.zeros(2), 2, 1.4, paper_model)


class TestFilterStateAliasing:
    """The posterior a prior state carries is a copy, and a measurement update writes
    only new arrays, so a caller may keep or change any state it was handed."""

    @staticmethod
    def _posterior_copies_prior(filt):
        for post, prior in ((filt.x_post, filt.x_prior), (filt.P_post, filt.P_prior)):
            assert np.array_equal(post, prior) and not np.shares_memory(post, prior)

    def test_initial_state(self, paper_model):
        filt = initial_filter_state(paper_model)
        self._posterior_copies_prior(filt)
        assert not np.shares_memory(filt.P_prior, paper_model.Xi0)

    def test_time_update(self, paper_model, rng):
        filt = measurement_update(
            initial_filter_state(paper_model), rng.standard_normal(2), 1, 1.4, paper_model
        )
        upd = time_update(filt, paper_model)
        self._posterior_copies_prior(upd)
        assert not np.shares_memory(upd.P_prior, filt.P_post)

    @pytest.mark.parametrize("gamma", [0, 1])
    def test_measurement_update_leaves_its_input_unchanged(self, paper_model, rng, gamma):
        filt = time_update(initial_filter_state(paper_model), paper_model)
        before = {f.name: getattr(filt, f.name).copy() for f in dataclasses.fields(filt)}
        upd = measurement_update(filt, rng.standard_normal(2), gamma, 1.4, paper_model)
        for name, value in before.items():
            assert np.array_equal(getattr(filt, name), value), name
        assert not np.shares_memory(upd.x_post, filt.x_prior)
        assert not np.shares_memory(upd.P_post, filt.P_prior)


class TestTimeUpdate:
    def test_zero_posterior_gives_zero_prior(self, paper_model):
        filt = initial_filter_state(paper_model)
        upd = time_update(filt, paper_model)
        assert np.array_equal(upd.x_prior, np.zeros(3))

    def test_matches_hand_rolled_propagation(self, paper_model, rng):
        filt = initial_filter_state(paper_model)
        filt = measurement_update(filt, rng.standard_normal(2), 1, 1.4, paper_model)
        upd = time_update(filt, paper_model)
        assert np.allclose(upd.x_prior, matmul_loops(paper_model.A, filt.x_post[:, None])[:, 0], atol=1e-12)
        ref_P = (
            matmul_loops(matmul_loops(paper_model.A, filt.P_post), paper_model.A.T)
            + paper_model.Q
        )
        assert np.allclose(upd.P_prior, ref_P, atol=1e-12)

    def test_fixed_point_persistence(self, paper_model, steady):
        # a posterior at q_tilde(P) propagates back to the steady prior P
        filt = initial_filter_state(paper_model)
        filt.P_post = op_q_tilde(steady.P, 1.0, paper_model)
        upd = time_update(filt, paper_model)
        assert np.max(np.abs(upd.P_prior - steady.P)) < 1e-9

    def test_factor_consistency(self, paper_model, rng):
        filt = initial_filter_state(paper_model)
        filt = measurement_update(filt, rng.standard_normal(2), 1, 1.4, paper_model)
        upd = time_update(filt, paper_model)
        S = paper_model.C @ upd.P_prior @ paper_model.C.T + paper_model.R
        assert np.max(np.abs(upd.F @ upd.F.T @ S - np.eye(2))) < 1e-10
        assert np.max(np.abs(upd.S - S)) < 1e-12


class TestRiccati:
    def test_A_zero_fixed_point_is_Q(self):
        model = SystemModel(
            A=np.zeros((2, 2)),
            C=np.eye(2),
            Q=0.3 * np.eye(2),
            R=np.eye(2),
            Xi0=np.zeros((2, 2)),
        )
        steady = riccati_fixed_point(model)
        assert np.allclose(steady.P, model.Q, atol=1e-11)

    def test_fixed_point_residual(self, paper_model, steady):
        residual = steady.P - op_h(op_q_tilde(steady.P, 1.0, paper_model), paper_model)
        assert np.max(np.abs(residual)) < 1e-11

    def test_gain_consistency(self, paper_model, steady):
        K_ref = steady.P @ paper_model.C.T @ np.linalg.inv(
            paper_model.C @ steady.P @ paper_model.C.T + paper_model.R
        )
        assert np.max(np.abs(steady.K - K_ref)) < 1e-10

    def test_nonconvergence_raises(self):
        # an unobserved random walk: the iterates double each step and stay finite
        model = SystemModel(
            A=np.eye(2),
            C=np.zeros((1, 2)),
            Q=0.01 * np.eye(2),
            R=np.eye(1),
            Xi0=np.zeros((2, 2)),
        )
        with pytest.raises(DivergenceError, match="Riccati iteration did not converge within 64 iterations"):
            riccati_fixed_point(model)

    # scipy's DARE fails its QZ reordering when A is scaled to a spectral
    # radius near 1e-278, so below 1e-12 only A = 0 itself is drawn
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        rho=st.one_of(st.just(0.0), st.floats(1e-12, 0.995)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, m=1, rho=0.995, seed=1)  # slow linear convergence: 1.7e-11 by iteration
    def test_matches_scipy_dare(self, n, m, rho, seed):
        model = random_stable_model(n, m, rho, seed)
        ref = linalg.solve_discrete_are(model.A.T, model.C.T, model.Q, model.R)
        assert relative_gap(riccati_fixed_point(model).P, ref) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        rho=st.one_of(st.floats(0.0, 0.995), st.floats(1.01, 1.6)),
        zero_start=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_match_frozen_doubling(self, n, m, rho, zero_start, seed):
        # rho > 1 gives unstable plants, detectable through a random C
        model = random_stable_model(n, m, rho, seed)
        if zero_start:
            model = SystemModel(model.A, model.C, model.Q, model.R, np.zeros((n, n)))
        try:
            P_ref, K_ref = riccati_doubling_reference(model)
        except DivergenceError:
            with pytest.raises(DivergenceError):
                riccati_fixed_point(model)
            return
        steady = riccati_fixed_point(model)
        assert np.array_equal(steady.P, P_ref)
        assert np.array_equal(steady.K, K_ref)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        rho=st.one_of(st.floats(0.0, 0.995), st.floats(1.01, 1.6)),
        k=st.integers(1, 26),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scaling_the_noise_scales_P_exactly(self, n, m, rho, k, seed):
        # Q, R and Xi0 times s = 2^-k scale every iterate by s exactly, and the
        # stop is relative, so P scales exactly. For an even k, s has an exact
        # square root, so S's factors scale exactly and K keeps its bits.
        model = random_stable_model(n, m, rho, seed)
        s = 2.0**-k
        scaled = SystemModel(model.A, model.C, s * model.Q, s * model.R, s * model.Xi0)
        try:
            steady = riccati_fixed_point(model)
        except DivergenceError:
            with pytest.raises(DivergenceError):
                riccati_fixed_point(scaled)
            return
        small = riccati_fixed_point(scaled)
        assert np.array_equal(small.P, s * steady.P)
        if k % 2 == 0:
            assert np.array_equal(small.K, steady.K)

    def test_paper_noise_scaled_by_2_to_the_minus_26(self, paper_model, steady):
        s = 2.0**-26
        model = paper_model
        scaled = SystemModel(model.A, model.C, s * model.Q, s * model.R, s * model.Xi0)
        small = riccati_fixed_point(scaled)
        assert np.array_equal(small.P, s * steady.P)
        assert np.array_equal(small.K, steady.K)

    def test_unstable_plant_matches_scipy_dare(self):
        model = unstable_model()
        ref = linalg.solve_discrete_are(model.A.T, model.C.T, model.Q, model.R)
        assert relative_gap(riccati_fixed_point(model).P, ref) <= 1e-12

    def test_unstable_noiseless_plant_stabilising_solution(self):
        # P = 4P - 4P^2/(P + 1) has the roots 0 and 3; only 3 stabilises,
        # and the map's iterates from X = 0 stay at 0
        model = SystemModel(
            A=np.array([[2.0]]),
            C=np.array([[1.0]]),
            Q=np.array([[0.0]]),
            R=np.array([[1.0]]),
            Xi0=np.array([[1.0]]),
        )
        assert riccati_fixed_point(model).P[0, 0] == pytest.approx(3.0, rel=1e-12)

    def test_undetectable_pair_raises(self):
        # the unstable mode 1.5 is not seen by C
        model = SystemModel(
            A=np.diag([1.5, 0.5]),
            C=np.array([[0.0, 1.0]]),
            Q=np.eye(2),
            R=np.eye(1),
            Xi0=np.eye(2),
        )
        with pytest.raises(DivergenceError):
            riccati_fixed_point(model)

    def test_singular_doubling_matrix_diverges_quietly(self, paper_model, monkeypatch):
        """The inverse gufunc gives a singular W nan, not LinAlgError; the next
        iterate carries it into DivergenceError, and no RuntimeWarning leaks."""
        real = estimator._umath_linalg
        singular = SimpleNamespace(
            solve=real.solve,
            inv=lambda a, signature: real.inv(np.zeros_like(a), signature=signature),
        )
        monkeypatch.setattr(estimator, "_umath_linalg", singular)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="non-finite values"):
                riccati_fixed_point(paper_model)

    def test_covariance_converges_under_always_fire(self, paper_model, steady):
        # Assumption-4 regime: repeated gamma=1 updates land on the fixed point
        filt = initial_filter_state(paper_model)
        for _ in range(400):
            filt = measurement_update(filt, np.zeros(2), 1, 1.4, paper_model)
            filt = time_update(filt, paper_model)
        assert np.max(np.abs(filt.P_prior - steady.P)) < 1e-9


class TestClosedLoopStatistics:
    def test_innovation_covariance_matches_S(self, nominal_big, steady):
        emp = diagnostics(nominal_big.sums)["sensor_innovation_cov"]
        assert abs(np.trace(emp) - np.trace(steady.S)) / np.trace(steady.S) < 0.05

    def test_whitened_innovation_moments(self, nominal_big):
        stats = diagnostics(nominal_big.sums)
        assert np.max(np.abs(stats["eps_mean"])) < 0.02
        assert np.all(stats["eps_var"] > 0.97) and np.all(stats["eps_var"] < 1.03)

    def test_whiteness_in_kalman_regime(self, paper_payload):
        # beta = 0 -> always fire -> standard Kalman innovations are white
        config = ef.config_from_dict(
            dict(paper_payload, attack_mode="off", beta=0.0, steps=2700, trajectories=20)
        )
        result = ef.run_scenario(config)
        n = result.summary.step_count * result.summary.trajectory_count
        assert np.max(np.abs(diagnostics(result.sums)["eps_lag1"])) < 4 / np.sqrt(n)

    def test_event_trigger_leaves_lag1_correlation(self, nominal_big):
        # at beta = 1.4 the no-update steps leave a genuine positive lag-1
        # correlation ~ (1 - kappa) Pr(gamma=0) x innovation feedthrough
        lag1 = diagnostics(nominal_big.sums)["eps_lag1"]
        assert np.all(lag1 > 0.005)
        assert np.all(lag1 < 0.09)
