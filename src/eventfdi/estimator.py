"""Event-based remote MMSE estimator.

Time update propagates through h(X) = A X A^T + Q; the measurement update
applies the Kalman correction when the scheduler fired (gamma = 1) and the
kappa(beta)-weighted partial covariance update q_tilde_{kappa(beta)} when it
did not. The innovation is whitened by the factor F with F F^T = S^{-1},
S = C P^- C^T + R, fixed to the lower-triangular Cholesky convention so
traces are bit-reproducible. A state at a prior carries copies of it as its
posterior; measurement_update returns a new state that shares all but those.

The per-step updates run millions of times in Monte Carlo loops, so the
filter carries the Cholesky factor L of S alongside F = L^{-T}: every
F^{-T} application is then a small matrix product instead of a solve, and
the gain is K = (P^- C^T F) F^T. factor_stack is the one factorization of
S, for one matrix or for harness's stack of them: closed forms for 1x1 and
2x2, LAPACK for larger. An S that is not positive definite gets non-finite
factors; the scalar functions here raise NumericError on them.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DivergenceError, DomainError, NumericError
from .model import SystemModel
from .special import kappa


_HALF = np.float64(0.5)  # built once: a per-call np.float64(0.5) costs more than it saves


def _sym(mat: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack: the bits of
    0.5 * (mat + mat^T), halved in place in the sum, one temporary fewer."""
    out = mat + mat.swapaxes(-1, -2)
    out *= _HALF
    return out


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


def factor_stack(S: np.ndarray):
    """Lower Cholesky factor L of S and F = L^{-T}, for one (m, m) matrix or a
    (..., m, m) stack; returns (L, F) of S's shape.

    The closed forms run elementwise for m <= 2; for m >= 3 the LAPACK
    kernels behind np.linalg.cholesky and np.linalg.inv run without those
    wrappers, which raise for the whole stack, and F is the transposed view
    of the inverse, as f_storage states. A matrix that is not positive
    definite gets non-finite factors instead, for every m (all nan for m >= 3;
    the closed forms keep their structural zeros), so its whitened
    innovation, hence its statistic, is non-finite; no other slice of a
    stack is touched. Such a matrix sets the invalid or divide flag, so the
    caller's np.errstate decides whether it warns.
    """
    m = S.shape[-1]
    if m == 1:
        root = np.sqrt(S)
        return root, 1.0 / root
    if m == 2:
        a, b, c = S[..., 0, 0], S[..., 1, 0], S[..., 1, 1]
        l11 = np.sqrt(a)
        l21 = b / l11
        l22 = np.sqrt(c - l21 * l21)
        L = np.zeros(S.shape)
        L[..., 0, 0], L[..., 1, 0], L[..., 1, 1] = l11, l21, l22
        F = np.zeros(S.shape)
        F[..., 0, 0], F[..., 0, 1], F[..., 1, 1] = 1.0 / l11, -l21 / (l11 * l22), 1.0 / l22
        return L, F
    L = _umath_linalg.cholesky_lo(S, signature="d->d")
    return L, _umath_linalg.inv(L, signature="d->d").swapaxes(-1, -2)


def f_storage(F: np.ndarray) -> np.ndarray:
    """factor_stack's F to the C-contiguous array behind it and back (F for m <= 2, F^T
    for m >= 3): np.matmul picks its kernel by strides, so a copy of F stores this."""
    return F.swapaxes(-1, -2) if F.shape[-1] >= 3 else F


def _derived(P_prior: np.ndarray, model: SystemModel):
    """S, L, F, K for a prior covariance (K = (P C^T F) F^T = P C^T S^{-1}).

    Raises NumericError, with no warning, when S is not positive definite:
    factor_stack's factors are then not finite.
    """
    PCt = P_prior @ model.C.T
    S = _sym(model.C @ PCt + model.R)
    with np.errstate(all="ignore"):
        L, F = factor_stack(S)
        if not (np.isfinite(L).all() and np.isfinite(F).all()):
            raise NumericError("innovation covariance not positive definite")
    K = (PCt @ F) @ F.T
    return S, L, F, K


def _prior_state(x_prior: np.ndarray, P_prior: np.ndarray, model: SystemModel) -> FilterState:
    """The filter at a prior, with its gain and factors; the posterior is a copy of
    the prior until a measurement update."""
    S, L, F, K = _derived(P_prior, model)
    return FilterState(x_prior=x_prior, x_post=x_prior.copy(), P_prior=P_prior,
                       P_post=P_prior.copy(), K=K, F=F, S=S, L=L)


def initial_filter_state(model: SystemModel) -> FilterState:
    """Filter at k = 0 before any measurement: prior mean 0, prior covariance Xi0."""
    return _prior_state(np.zeros(model.n), model.Xi0.copy(), model)


def time_update(prev: FilterState, model: SystemModel) -> FilterState:
    """Propagate posterior to the next prior and refresh gain and whitening factor."""
    return _prior_state(model.A @ prev.x_post, op_h(prev.P_post, model), model)


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
    return replace(state, x_post=x_post, P_post=P_post)


_DOUBLINGS = 64
_DOUBLING_RTOL = 1e-10


def _doubling_limit(iterates, start: np.ndarray, name: str, cap: int = _DOUBLINGS) -> np.ndarray:
    """The limit of a doubling iteration: the first of the iterates after start
    whose max-norm change is at most _DOUBLING_RTOL of its max norm. The rule is
    relative, so inputs scaled by a power of two scale the limit exactly; as each
    doubling squares the contraction, what is left is about the change squared.
    A non-finite iterate raises DivergenceError (finite iterates whose difference
    overflows keep iterating), and so do cap iterates without the stop. A plain
    fixed-point iteration stops by the same rule with a cap of its own.
    """
    P = start
    with np.errstate(all="ignore"):  # the iterates may carry nan into this check
        for P_next in itertools.islice(iterates, cap):
            change = np.abs(P_next - P).max()
            if not math.isfinite(change) and not np.isfinite(P_next).all():
                raise DivergenceError(f"{name} produced non-finite values")
            if change <= _DOUBLING_RTOL * np.abs(P_next).max():
                return P_next
            P = P_next
    raise DivergenceError(f"{name} did not converge within {cap} iterations")


def _riccati_doublings(model: SystemModel, X0: np.ndarray):
    """Iterates 1, 2, 4, ... of the Riccati map from X0 (see riccati_fixed_point);
    W^{-1} is formed only when the next one is asked for."""
    eye = np.eye(model.n)
    A_k = model.A.T
    G_k = _sym(model.C.T @ _umath_linalg.solve(model.R, model.C, signature="dd->d"))
    H_k = model.Q
    while True:
        step = _umath_linalg.solve(eye + G_k @ X0, A_k, signature="dd->d")
        yield _sym(H_k + A_k.T @ X0 @ step)
        W_inv = _umath_linalg.inv(eye + G_k @ H_k, signature="d->d")
        WA = W_inv @ A_k
        H_k, G_k, A_k = (
            _sym(H_k + A_k.T @ H_k @ WA),
            _sym(G_k + A_k @ W_inv @ G_k @ A_k.T),
            A_k @ WA,
        )


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
    with Q = 0 can be a non-stabilising fixed point. The iterates stop by
    _doubling_limit: a change of at most 1e-10 of the iterate in max norm,
    within 64 doublings. The solves and the inverse call the LAPACK gufuncs
    behind np.linalg.solve and np.linalg.inv directly, with the same bits
    and without the wrappers' checks: a singular or non-finite matrix gives
    nan entries, not LinAlgError, and the iterates carry them. Non-finite
    iterates or non-convergence raise DivergenceError, signalling an
    effectively undetectable pair.
    """
    X0 = model.Xi0 if np.any(model.Xi0) else model.Q
    P = _doubling_limit(_riccati_doublings(model, X0), X0, "Riccati iteration")
    S, L, F, K = _derived(P, model)
    return SteadyState(P=P, K=K, F=F, S=S, L=L)
