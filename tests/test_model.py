import numpy as np
import pytest

from eventfdi import (
    DomainError,
    ModelError,
    NumericError,
    PlantState,
    RandomSource,
    SystemModel,
    sample_initial_state,
    step,
)

from _oracles import lyapunov_kron


def make_model(**overrides):
    base = dict(
        A=np.array([[0.5, 0.1], [0.0, 0.8]]),
        C=np.array([[1.0, 0.0]]),
        Q=0.04 * np.eye(2),
        R=np.array([[0.25]]),
        Xi0=np.eye(2),
    )
    base.update(overrides)
    return SystemModel(**base)


class TestSystemModel:
    def test_dimensions(self, paper_model):
        assert paper_model.n == 3
        assert paper_model.m == 2

    def test_paper_model_is_stable(self, paper_model):
        # stability enables the bias law and the open-loop fixed point
        assert paper_model.spectral_radius() < 1.0

    def test_rejects_nonsquare_A(self):
        with pytest.raises(ModelError):
            make_model(A=np.ones((2, 3)))

    def test_rejects_wrong_C_width(self):
        with pytest.raises(ModelError):
            make_model(C=np.ones((1, 3)))

    def test_rejects_asymmetric_Q(self):
        with pytest.raises(ModelError):
            make_model(Q=np.array([[0.1, 0.2], [0.0, 0.1]]))

    def test_rejects_indefinite_Q(self):
        with pytest.raises(ModelError):
            make_model(Q=np.array([[1.0, 0.0], [0.0, -0.5]]))

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("Q", 0.04 * np.eye(3), "Q must be 2x2"),
            ("R", 0.25 * np.eye(2), "R must be 1x1"),
            ("Xi0", np.eye(1), "Xi0 must be 2x2"),
            ("Q", 0.04 * np.ones((2, 3)), "Q must be square"),
            ("R", np.array([0.25]), "R must be a 2-D matrix"),
        ],
    )
    def test_rejects_wrong_covariance_size(self, name, value, message):
        with pytest.raises(ModelError, match=message):
            make_model(**{name: value})

    def test_clamps_Q_within_the_semidefinite_tolerance(self):
        """-5e-11 is within the tolerance 1e-10: Q is kept as given and its
        eigenvalue is clamped to zero in the noise factor; -2e-10 is not."""
        model = make_model(Q=np.diag([1.0, -5e-11]))
        assert np.array_equal(model.Q, np.diag([1.0, -5e-11]))
        assert np.array_equal(model._q_factor, np.diag([1.0, 0.0]))
        with pytest.raises(ModelError, match="Q must be positive semi-definite"):
            make_model(Q=np.diag([1.0, -2e-10]))

    def test_rejects_semidefinite_R(self):
        with pytest.raises(ModelError):
            make_model(R=np.array([[0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ModelError):
            make_model(A=np.array([[np.nan, 0.0], [0.0, 0.5]]))

    def test_owns_read_only_matrices(self):
        A = np.array([[0.5, 0.1], [0.0, 0.8]])
        model = make_model(A=A)
        rho = model.spectral_radius()
        A[0, 0] = 5.0
        assert model.A[0, 0] == 0.5
        assert model.spectral_radius() == rho == 0.8
        for name in ("A", "C", "Q", "R", "Xi0"):
            with pytest.raises(ValueError):
                getattr(model, name)[0, 0] = 1.0

    def test_singular_Q_allowed(self):
        model = make_model(Q=np.array([[0.04, 0.0], [0.0, 0.0]]))
        assert model.Q[1, 1] == 0.0


class TestRandomSource:
    def test_same_ids_same_stream(self):
        a = RandomSource(42, 3)
        b = RandomSource(42, 3)
        assert np.array_equal(a.normal(16), b.normal(16))

    def test_different_streams_differ(self):
        a = RandomSource(42, 0)
        b = RandomSource(42, 1)
        assert not np.array_equal(a.normal(16), b.normal(16))

    def test_negative_seed_wraps(self):
        assert RandomSource(-1).seed == (1 << 64) - 1

    def test_negative_stream_id_rejected(self):
        with pytest.raises(DomainError, match="stream_id must be nonnegative"):
            RandomSource(42, -1)


class TestInitialState:
    def test_zero_covariance_gives_zero_state(self):
        model = make_model(Xi0=np.zeros((2, 2)))
        state = sample_initial_state(model, RandomSource(7))
        assert np.array_equal(state.x, np.zeros(2))
        assert state.k == 0

    def test_determinism(self):
        model = make_model()
        x1 = sample_initial_state(model, RandomSource(7, 5)).x
        x2 = sample_initial_state(model, RandomSource(7, 5)).x
        assert np.array_equal(x1, x2)

    def test_identity_covariance_moments(self):
        model = make_model(Xi0=np.eye(2))
        rng = RandomSource(11)
        draws = np.array([sample_initial_state(model, rng).x for _ in range(100_000)])
        cov = draws.T @ draws / len(draws)
        assert np.max(np.abs(cov - np.eye(2))) < 0.03


class TestStep:
    def test_noiseless_identity_dynamics(self):
        # R = 0 violates the R > 0 contract, so the process side is checked
        # exactly (Q = 0 is legal) and the measurement up to a tiny legal R
        model = make_model(A=np.eye(2), Q=np.zeros((2, 2)), R=np.array([[1e-8]]))
        state = PlantState(x=np.array([1.0, -2.0]), k=0)
        nxt, y = step(model, state, RandomSource(5))
        assert np.array_equal(nxt.x, state.x)
        assert y == pytest.approx(model.C @ state.x, abs=1e-3)
        assert nxt.k == 1

    def test_replay_equality(self):
        model = make_model()
        def run():
            rng = RandomSource(9, 2)
            state = sample_initial_state(model, rng)
            out = []
            for _ in range(50):
                state, y = step(model, state, rng)
                out.append((state.x.copy(), y.copy()))
            return out
        for (xa, ya), (xb, yb) in zip(run(), run()):
            assert np.array_equal(xa, xb)
            assert np.array_equal(ya, yb)

    def test_non_finite_state_raises(self):
        state = PlantState(x=np.array([np.nan, 0.0]), k=4)
        with pytest.raises(NumericError, match="non-finite plant state at k=4"):
            step(make_model(), state, RandomSource(5))

    def test_measurement_uses_pre_update_state(self):
        model = make_model(Q=np.zeros((2, 2)), R=np.array([[1e-8]]))
        state = PlantState(x=np.array([3.0, 1.0]), k=0)
        _, y = step(model, state, RandomSource(1))
        assert y == pytest.approx([3.0], abs=1e-3)


@pytest.fixture(scope="module")
def plant_noise(paper_model):
    rng = RandomSource(13)
    state = sample_initial_state(paper_model, rng)
    xs = np.empty((100_001, paper_model.n))
    xs[0] = state.x
    for k in range(100_000):
        state, _ = step(paper_model, state, rng)
        xs[k + 1] = state.x
    w = xs[1:] - xs[:-1] @ paper_model.A.T
    return xs, w


class TestNoiseStatistics:
    def test_whiteness(self, plant_noise):
        _, w = plant_noise
        n_samples = len(w)
        centered = w - w.mean(axis=0)
        var = (centered * centered).mean(axis=0)
        for lag in (1, 2, 3):
            corr = (centered[lag:] * centered[:-lag]).mean(axis=0) / var
            assert np.max(np.abs(corr)) < 4 / np.sqrt(n_samples)

    def test_gaussian_skewness(self, plant_noise):
        _, w = plant_noise
        centered = w - w.mean(axis=0)
        skew = (centered**3).mean(axis=0) / (centered**2).mean(axis=0) ** 1.5
        assert np.max(np.abs(skew)) < 0.05

    def test_open_loop_covariance_trace(self, plant_noise, paper_model):
        # state covariance of the uncorrected plant approaches the
        # Lyapunov fixed point of A X A^T + Q
        xs, _ = plant_noise
        xs = xs[200:]
        emp_trace = np.trace(xs.T @ xs / len(xs))
        assert emp_trace == pytest.approx(0.0915, abs=0.005)
        assert np.trace(lyapunov_kron(paper_model.A, paper_model.Q)) == pytest.approx(
            0.0915421, abs=1e-6
        )
