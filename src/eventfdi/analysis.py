"""Theoretical performance of the remote estimator under the attack, and without it.

With the scheduler effectively always firing, the attacked estimate is
biased by E = (I - A)^{-1} K F^{-T} delta and its error covariance about
that bias follows

    P^a_{k+1} = A P^a_k A^T + Q - (2/mu - 1/mu^2) P C^T S^{-1} C P,

whose fixed point interpolates between the standard Kalman posterior
covariance (mu = 1) and the open-loop Lyapunov fixed point (mu -> inf).

Both fixed points are discrete Lyapunov equations P = A P A^T + (Q - W),
with W the injection term above (W = 0 for the open loop). For n < 10 they
are solved directly, vec P = (I - A kron A)^{-1} vec(Q - W), one n^2 x n^2
linear solve on the operator I - A kron A that the model builds once, at
construction, for all its solves; from n = 10 on, by Smith's squared
doubling, which stops by the rule of the Riccati doubling (see _lyapunov).
They, the steady bias and the sweep exist iff A is stable, the one rule
check_stable checks against the spectral radius the model computed once
at construction. The equation is linear in its forcing, and
1 - (2/mu - 1/mu^2) = (1 - 1/mu)^2, so across scaling values the attacked
fixed point is

    P^a(mu) = X_1 + (1 - 1/mu)^2 X_W,

with X_1 = lyap(A, Q - D) the mu = 1 point, X_W = lyap(A, D) and
D = P C^T S^{-1} C P: a sweep takes two solves, whatever its length. Both
terms are positive semi-definite (mu_sweep checks X_W once), so the sum
rises with mu and does not cancel, as X_open - (2/mu - 1/mu^2) X_W would
near mu = 1 for a slow A. The one-step maps stay as the recursions'
definition and as an independent residual check of the solves:
attacked_covariance_step for the attacked recursion, and estimator.op_h,
the time update, for the open loop.

With the attack off the scheduler fires on part of the steps only, at the
rate attack.trigger_probability gives for mu = 1 and delta = 0, and the
filter updates with weight kappa(beta) on the others. The expected
covariance is then the fixed point of the modified algebraic Riccati
equation at the average weight w (event_based_covariance), solved by
Riccati doublings at the information its own fixed point gives.
"""

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .attack import AttackParams, trigger_probability
from .errors import DivergenceError, DomainError
from .estimator import SteadyState, _doubling_limit, _riccati_doublings, _sym, op_h, op_q_tilde
from .model import SystemModel
from .special import kappa


@dataclass(frozen=True)
class SweepPoint:
    mu: float
    trace: float
    fixed_point: np.ndarray


def check_stable(model: SystemModel, name: str) -> None:
    """Raise DivergenceError unless A is stable: a direct solve on an unstable A
    still returns a matrix, so the spectral radius is checked before any solve."""
    rho = model.spectral_radius()
    if rho >= 1.0:
        raise DivergenceError(f"{name} diverges; A has spectral radius {rho:.6f} >= 1")


def steady_bias(params: AttackParams, steady: SteadyState, model: SystemModel) -> np.ndarray:
    """The steady offset E of the attacked estimate, the solution of
    (I - A) E = K F^{-T} delta; an unstable A (unbounded bias) raises DivergenceError."""
    check_stable(model, "steady bias")
    rhs = steady.K @ (steady.L @ params.delta)  # K F^{-T} delta
    return _umath_linalg.solve1(np.eye(model.n) - model.A, rhs, signature="dd->d")


def _injection_shape(steady: SteadyState, model: SystemModel) -> np.ndarray:
    """D = P C^T S^{-1} C P, the injection term before its weight 2/mu - 1/mu^2."""
    CP = model.C @ steady.P
    return _sym(steady.P @ model.C.T @ _umath_linalg.solve(steady.S, CP, signature="dd->d"))


def _injection_term(params: AttackParams, steady: SteadyState, model: SystemModel):
    mu = params.mu  # AttackParams keeps mu^2 finite
    return (2.0 / mu - 1.0 / mu**2) * _injection_shape(steady, model)


def attacked_covariance_step(
    P_a: np.ndarray,
    params: AttackParams,
    steady: SteadyState,
    model: SystemModel,
) -> np.ndarray:
    """One step of the attacked-covariance recursion, symmetrized."""
    return op_h(P_a, model) - _injection_term(params, steady, model)


def _smith_doublings(A: np.ndarray, forcing: np.ndarray):
    """Smith's iterates, X <- X + A_k X A_k^T with A_k = A^(2^k), from X = forcing:
    the k-th is the sum of A^i forcing A^iT over i < 2^k."""
    X, A_k = forcing, A
    while True:
        X = X + A_k @ X @ A_k.T
        yield X
        A_k = A_k @ A_k


def _lyapunov(model: SystemModel, forcing: np.ndarray) -> np.ndarray:
    """The P with P = A P A^T + forcing, symmetrized (A must be stable).

    For n < 10 this is the Kronecker solve (I - A kron A) vec P = vec forcing,
    the method scipy.linalg.solve_discrete_lyapunov itself picks there, with
    its bits. The operator I - A kron A is the model's, built once per model
    at construction, so the solves on one model share it. That system is
    n^2 x n^2, so its time grows as n^6; from n = 10 on, where the model
    holds no operator, Smith's doubling (SIAM J. Appl. Math. 16(1), 1968)
    does the work in n x n products, stopped by the Riccati iteration's
    rule. Squared powers of a non-normal A that grow before they decay
    drift (at n = 12 and spectral radius 0.999 the residual reached 7e-13 of
    P), so a second pass solves for the first answer's residual: below
    1e-15 of P after it.

    The Kronecker solve calls the LAPACK gufunc behind np.linalg.solve
    directly (same bits): a singular or non-finite system gives nan, not
    LinAlgError. Any non-finite result raises DivergenceError.
    """
    n, lhs = model.n, model._lyapunov_operator
    if lhs is None:
        A, P = model.A, np.zeros((n, n))
        for _ in range(2):  # the solve from P = 0, then one refinement step
            with np.errstate(all="ignore"):  # an overflow is caught as non-finite
                residual = forcing + A @ P @ A.T - P
            P = P + _doubling_limit(_smith_doublings(A, residual), residual, "Lyapunov doubling")
        return _sym(P)
    with np.errstate(invalid="ignore"):  # a singular system: nan, caught below
        vec = _umath_linalg.solve1(lhs, forcing.reshape(-1), signature="dd->d")
    if not np.isfinite(vec).all():
        raise DivergenceError("Lyapunov solve failed: singular or non-finite system")
    return _sym(vec.reshape(n, n))


def _lyapunov_fixed_point(model: SystemModel, forcing: np.ndarray, name: str) -> np.ndarray:
    check_stable(model, name)
    return _lyapunov(model, forcing)


def attacked_covariance_fixed_point(
    params: AttackParams, steady: SteadyState, model: SystemModel
) -> np.ndarray:
    """Fixed point of the attacked recursion: the Lyapunov equation with forcing Q - W."""
    return _lyapunov_fixed_point(
        model, model.Q - _injection_term(params, steady, model), "attacked covariance"
    )


def open_loop_fixed_point(model: SystemModel) -> np.ndarray:
    """Fixed point of P <- op_h(P) = A P A^T + Q, the estimator with no
    corrections at all; exists iff A is stable."""
    return _lyapunov_fixed_point(model, model.Q, "open-loop covariance")


def event_based_covariance(beta: float, steady: SteadyState, model: SystemModel) -> np.ndarray:
    """Expected posterior covariance of the event-based filter with no attack.

    The whitened innovation is N(0, I) to first order, so the scheduler fires
    with p = 1 - (1 - 2 Q(beta))^m, trigger_probability with the attack off,
    and the update weight averages
    w = p + (1 - p) kappa(beta) (Wu et al., IEEE TAC 58(4), 2013). The prior
    covariance is the fixed point of the modified algebraic Riccati equation
    X = op_h(op_q_tilde(X, w)) (Sinopoli et al., IEEE TAC 49(9), 2004); the
    result is op_q_tilde(X, w). With V = R + (1 - w) C X C^T, op_q_tilde(X, w)
    is the Kalman update at information G = w C^T V^{-1} C (G, not V / w, so
    w = 0 stays finite): each step is the Riccati doubling's limit at the G of
    the last X, from the Kalman prior steady.P, and the steps stop by the
    doubling rule on V, not on X, which each limit reproduces only to about
    its own stop.
    """
    p = trigger_probability(AttackParams.off(model.m), beta)
    w = p + (1.0 - p) * kappa(beta)
    X = steady.P

    def noises():
        nonlocal X
        while True:
            V = _sym(model.R + (1.0 - w) * (model.C @ X @ model.C.T))
            yield V
            G = w * _sym(model.C.T @ _umath_linalg.solve(V, model.C, signature="dd->d"))
            X = _doubling_limit(_riccati_doublings(model, X, G), X, "event-based covariance")

    steps = noises()
    _doubling_limit(steps, next(steps), "event-based covariance")
    return op_q_tilde(X, w, model)


def mu_sweep(
    mu_grid, steady: SteadyState, model: SystemModel
) -> list[SweepPoint]:
    """Fixed point of the attacked recursion, and its trace, per scaling value.

    Every fixed point is X_1 + (1 - 1/mu)^2 X_W from the same two Lyapunov
    solves (see the module docstring), so over any grid, in any order, the
    fixed points rise with mu and dominate the mu = 1 point in the positive
    semi-definite order exactly when X_W does. That is the one check: the
    least eigenvalue of X_W must be >= -1e-9 (a nan is not), else
    DivergenceError. An unstable A raises DivergenceError, as the single
    fixed points do. Every entry must be >= 1 (nan is not); inf is the
    open-loop limit.
    """
    mus = [float(mu) for mu in mu_grid]
    if not all(mu >= 1.0 for mu in mus):
        raise DomainError(f"mu grid entries must be >= 1, got {mus!r}")
    check_stable(model, "attacked covariance")
    shape = _injection_shape(steady, model)
    kalman = _lyapunov(model, model.Q - shape)
    injected = _lyapunov(model, shape)
    low = _umath_linalg.eigvalsh_lo(injected, signature="d->d").min()
    if not low >= -1e-9:
        raise DivergenceError(
            f"injected term X_W has least eigenvalue {low:.3g}, not >= -1e-9: the fixed "
            "points would not rise with mu"
        )
    points = []
    for mu in mus:
        fp = kalman + (1.0 - 1.0 / mu) ** 2 * injected
        points.append(SweepPoint(mu=mu, trace=float(np.trace(fp)), fixed_point=fp))
    return points
