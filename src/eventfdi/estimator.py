"""Event-based remote MMSE estimator.

Time update propagates through h(X) = A X A^T + Q; the measurement update
applies the Kalman correction when the scheduler fired (gamma = 1) and the
kappa(beta)-weighted partial covariance update q_tilde_{kappa(beta)} when it
did not. The innovation is whitened by the factor F with F F^T = S^{-1},
S = C P^- C^T + R, fixed to the lower-triangular Cholesky convention so
traces are bit-reproducible.

The per-step updates run millions of times in Monte Carlo loops, so the
filter carries the Cholesky factor L of S alongside F = L^{-T}: every
F^{-T} application is then a small matrix product instead of a solve, and
the gain is K = (P^- C^T F) F^T. For 1x1 and 2x2 innovation covariances the
factorization is done in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DivergenceError, DomainError, NumericError
from .model import SystemModel
from .special import kappa


def _sym(mat: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (mat + mat.swapaxes(-1, -2))


@dataclass
class FilterState:
    """Per-trajectory filter variables at one time step.

    x_prior/x_post are the a priori / a posteriori estimates, P_prior/P_post
    the matching covariances, K the Kalman gain, F the whitening factor for
    the current prior. S caches the innovation covariance C P^- C^T + R and
    L its lower Cholesky factor (so F = L^{-T} and F^{-T} = L).
    """

    x_prior: np.ndarray
    x_post: np.ndarray
    P_prior: np.ndarray
    P_post: np.ndarray
    K: np.ndarray
    F: np.ndarray
    S: np.ndarray
    L: np.ndarray


@dataclass(frozen=True)
class SteadyState:
    """Converged prior covariance P with its gain K, factor F and S = C P C^T + R.

    L is the lower Cholesky factor of S (F = L^{-T}).
    """

    P: np.ndarray
    K: np.ndarray
    F: np.ndarray
    S: np.ndarray
    L: np.ndarray


def op_h(X: np.ndarray, model: SystemModel) -> np.ndarray:
    """Covariance time-update map h(X) = A X A^T + Q, symmetrized."""
    X = np.asarray(X, dtype=float)
    if X.shape != (model.n, model.n):
        raise DomainError(f"op_h expects a {model.n}x{model.n} matrix, got {X.shape}")
    return _sym(model.A @ X @ model.A.T + model.Q)


def op_q_tilde(X: np.ndarray, lam: float, model: SystemModel) -> np.ndarray:
    """Partial measurement-update map X - lam * X C^T (C X C^T + R)^{-1} C X."""
    X = np.asarray(X, dtype=float)
    if X.shape != (model.n, model.n):
        raise DomainError(f"op_q_tilde expects a {model.n}x{model.n} matrix, got {X.shape}")
    lam = float(lam)
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"op_q_tilde requires lambda in [0, 1], got {lam!r}")
    CX = model.C @ X
    S = CX @ model.C.T + model.R
    try:
        correction = CX.T @ np.linalg.solve(S, CX)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular innovation covariance in q_tilde: {exc}") from exc
    return _sym(X - lam * correction)


def _factor_pair(S: np.ndarray):
    """Lower Cholesky factor L of S and F = L^{-T}; closed forms for m <= 2."""
    m = S.shape[0]
    if m == 1:
        s = S[0, 0]
        if not s > 0.0:
            raise NumericError("innovation covariance not positive definite")
        root = math.sqrt(s)
        return np.array([[root]]), np.array([[1.0 / root]])
    if m == 2:
        a, b, c = S[0, 0], S[1, 0], S[1, 1]
        if not a > 0.0:
            raise NumericError("innovation covariance not positive definite")
        l11 = math.sqrt(a)
        l21 = b / l11
        rest = c - l21 * l21
        if not rest > 0.0:
            raise NumericError("innovation covariance not positive definite")
        l22 = math.sqrt(rest)
        L = np.array([[l11, 0.0], [l21, l22]])
        F = np.array([[1.0 / l11, -l21 / (l11 * l22)], [0.0, 1.0 / l22]])
        return L, F
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"innovation covariance not positive definite: {exc}") from exc
    return L, np.linalg.inv(L).T


def factor_stack(S: np.ndarray):
    """`_factor_pair` over a (T, m, m) stack; returns (L, F) stacks.

    Each slice that is positive definite gets the bits `_factor_pair` gives
    it: closed forms run elementwise for m <= 2, and for m >= 3 the stacked
    LAPACK kernels that np.linalg.cholesky and np.linalg.inv call run
    without those wrappers, which raise for the whole stack. A slice that
    is not positive definite gets non-finite factors instead, for every m
    (all nan for m >= 3; the closed forms keep their structural zeros), so
    its whitened innovation, hence its statistic, is non-finite; no other
    slice is touched. Such a slice sets the invalid flag, so the caller's
    np.errstate decides whether it warns.
    """
    m = S.shape[-1]
    if m == 1:
        root = np.sqrt(S)
        return root, 1.0 / root
    if m == 2:
        a, b, c = S[:, 0, 0], S[:, 1, 0], S[:, 1, 1]
        l11 = np.sqrt(a)
        l21 = b / l11
        l22 = np.sqrt(c - l21 * l21)
        L = np.zeros(S.shape)
        L[:, 0, 0], L[:, 1, 0], L[:, 1, 1] = l11, l21, l22
        F = np.zeros(S.shape)
        F[:, 0, 0], F[:, 0, 1], F[:, 1, 1] = 1.0 / l11, -l21 / (l11 * l22), 1.0 / l22
        return L, F
    L = _umath_linalg.cholesky_lo(S, signature="d->d")
    return L, _umath_linalg.inv(L, signature="d->d").swapaxes(-1, -2)


def _derived(P_prior: np.ndarray, model: SystemModel):
    """S, L, F, K for a prior covariance (K = (P C^T F) F^T = P C^T S^{-1})."""
    PCt = P_prior @ model.C.T
    S = _sym(model.C @ PCt + model.R)
    L, F = _factor_pair(S)
    K = (PCt @ F) @ F.T
    return S, L, F, K


def initial_filter_state(model: SystemModel) -> FilterState:
    """Filter at k = 0 before any measurement: prior mean 0, prior covariance Xi0."""
    x0 = np.zeros(model.n)
    P0 = model.Xi0.copy()
    S, L, F, K = _derived(P0, model)
    return FilterState(
        x_prior=x0,
        x_post=x0.copy(),
        P_prior=P0,
        P_post=P0.copy(),
        K=K,
        F=F,
        S=S,
        L=L,
    )


def time_update(prev: FilterState, model: SystemModel) -> FilterState:
    """Propagate posterior to the next prior and refresh gain and whitening factor."""
    x_prior = model.A @ prev.x_post
    P_prior = op_h(prev.P_post, model)
    S, L, F, K = _derived(P_prior, model)
    return FilterState(
        x_prior=x_prior,
        x_post=x_prior.copy(),
        P_prior=P_prior,
        P_post=P_prior.copy(),
        K=K,
        F=F,
        S=S,
        L=L,
    )


def innovation(y: np.ndarray, x_prior: np.ndarray, model: SystemModel) -> np.ndarray:
    """Measurement innovation z = y - C x^-."""
    return np.asarray(y, dtype=float) - model.C @ np.asarray(x_prior, dtype=float)


def transform_innovation(z: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Whitened innovation eps = F^T z (N(0, I_m) under nominal operation)."""
    return np.asarray(F, dtype=float).T @ np.asarray(z, dtype=float)


def schedule(eps: np.ndarray, beta: float) -> int:
    """Trigger decision: 0 when the sup norm stays within beta, else 1."""
    beta = float(beta)
    if not (beta >= 0.0):
        raise DomainError(f"schedule requires beta >= 0, got {beta!r}")
    return 0 if np.max(np.abs(eps)) <= beta else 1


def measurement_update(
    state: FilterState,
    eps_received: np.ndarray,
    gamma: int,
    beta: float,
    model: SystemModel,
) -> FilterState:
    """Apply the received whitened innovation (attacked or not; the filter cannot tell).

    x_post = x^- + gamma * K F^{-T} eps; the covariance takes the full update
    q_tilde when gamma = 1 and the kappa(beta)-weighted partial update when
    the scheduler stayed silent. Both branches use the cached gain:
    q_tilde_lam(P^-) = P^- - lam * K C P^-.
    """
    if gamma not in (0, 1):
        raise DomainError(f"gamma must be 0 or 1, got {gamma!r}")
    lam = 1.0 if gamma else kappa(beta)
    P_post = _sym(state.P_prior - lam * (state.K @ (model.C @ state.P_prior)))
    if gamma:
        x_post = state.x_prior + state.K @ (state.L @ eps_received)
    else:
        x_post = state.x_prior.copy()
    return FilterState(
        x_prior=state.x_prior,
        x_post=x_post,
        P_prior=state.P_prior,
        P_post=P_post,
        K=state.K,
        F=state.F,
        S=state.S,
        L=state.L,
    )


_RICCATI_TOL = 1e-12
_RICCATI_DOUBLINGS = 64


def riccati_fixed_point(model: SystemModel) -> SteadyState:
    """Steady prior covariance, the limit of P <- h(q_tilde(P)), by doubling.

    One Riccati step is the map X -> Q + A X (I + G X)^{-1} A^T with
    G = C^T R^{-1} C. Its 2^k-fold composition has the same form,
    X -> H_k + A_k^T X (I + G_k X)^{-1} A_k, and doubling squares it:
    with W = I + G_k H_k,

        A_{k+1} = A_k W^{-1} A_k,
        G_{k+1} = G_k + A_k W^{-1} G_k A_k^T,
        H_{k+1} = H_k + A_k^T H_k W^{-1} A_k,

    from A_0 = A^T, G_0 = G, H_0 = Q (Anderson and Moore, Optimal
    Filtering, 1979). The map is evaluated at the iteration's start X_0
    (Xi0, or Q when Xi0 is zero), so iterate 2^k follows from k doubling
    steps; H_k alone is the iterate from X = 0, which for an unstable A
    with Q = 0 can be a non-stabilising fixed point. Convergence is the
    max-norm difference of successive iterates below _RICCATI_TOL within
    _RICCATI_DOUBLINGS doubling steps; W^{-1} is formed only when another
    doubling follows. Non-finite iterates or non-convergence raise,
    signalling an effectively undetectable pair.
    """
    X0 = model.Xi0 if np.any(model.Xi0) else model.Q
    eye = np.eye(model.n)
    A_k = model.A.T
    G_k = _sym(model.C.T @ np.linalg.solve(model.R, model.C))
    H_k = model.Q
    P = X0
    with np.errstate(all="ignore"):
        for _ in range(_RICCATI_DOUBLINGS):
            try:
                P_next = _sym(H_k + A_k.T @ X0 @ np.linalg.solve(eye + G_k @ X0, A_k))
                change = np.max(np.abs(P_next - P))
                if change < _RICCATI_TOL:
                    P = P_next
                    break
                # a nan or inf in P_next makes the change non-finite; finite
                # iterates whose difference overflows keep iterating
                if not math.isfinite(change) and not np.all(np.isfinite(P_next)):
                    raise DivergenceError("Riccati iteration produced non-finite values")
                P = P_next
                W_inv = np.linalg.inv(eye + G_k @ H_k)
            except np.linalg.LinAlgError as exc:
                raise DivergenceError(f"Riccati doubling hit a singular matrix: {exc}") from exc
            WA = W_inv @ A_k
            H_k, G_k, A_k = (
                _sym(H_k + A_k.T @ H_k @ WA),
                _sym(G_k + A_k @ W_inv @ G_k @ A_k.T),
                A_k @ WA,
            )
        else:
            raise DivergenceError(
                f"Riccati iteration did not converge within {_RICCATI_DOUBLINGS} doubling steps"
            )
    S, L, F, K = _derived(P, model)
    return SteadyState(P=P, K=K, F=F, S=S, L=L)
