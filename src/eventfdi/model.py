"""Discrete-time LTI plant with Gaussian noise and the seeded random-source contract.

x_{k+1} = A x_k + w_k,   w_k ~ N(0, Q)
y_k     = C x_k + v_k,   v_k ~ N(0, R)

with x_0 ~ N(0, Xi0). A SystemModel is immutable after construction: it
validates shapes and definiteness eagerly, holds read-only copies of its
matrices, and computes what is derived from them (the noise factors, the
spectral radius of A and, for n < 10, the Lyapunov operator I - A kron A)
once: Q and Xi0 must be symmetric positive semi-definite and R positive
definite, to a relative tolerance of 1e-10.
Each trajectory owns a private RandomSource so trajectories can run
concurrently without coordination.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelError, NumericError

_SYM_TOL = 1e-10
_SEED_MASK = (1 << 64) - 1
_SMITH_FROM_N = 10  # the Lyapunov solves use Smith's doubling from this n on


def _as_matrix(value, name: str) -> np.ndarray:
    """A float copy of value, so the model never aliases the caller's array."""
    arr = np.array(value, dtype=float)
    if arr.ndim != 2:
        raise ModelError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{name} must have finite entries")
    return arr


def _check_symmetric_psd(mat: np.ndarray, name: str, definite: bool = False) -> tuple:
    """(symmetric part, its symmetric square root) from one eigh, else ModelError.

    Eigenvalues within the PSD tolerance are clamped to zero in the root, so
    singular covariances (Xi0 = 0, rank-deficient Q) factor cleanly.
    """
    if mat.shape[0] != mat.shape[1]:
        raise ModelError(f"{name} must be square, got shape {mat.shape}")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > _SYM_TOL * scale:
        raise ModelError(f"{name} must be symmetric")
    sym = 0.5 * (mat + mat.T)
    eigs, vecs = np.linalg.eigh(sym)
    if definite:
        if eigs.min() <= _SYM_TOL * scale:
            raise ModelError(f"{name} must be positive definite (min eig {eigs.min():.3e})")
    elif eigs.min() < -_SYM_TOL * scale:
        raise ModelError(f"{name} must be positive semi-definite (min eig {eigs.min():.3e})")
    return sym, vecs @ np.diag(np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.T


def _kron_square(A: np.ndarray) -> np.ndarray:
    """A kron A by broadcasting: each entry is the one product A[i, k] * A[j, l],
    so the bits are np.kron's, at a quarter of its cost for n < 10."""
    n = A.shape[0]
    return (A[:, None, :, None] * A[None, :, None, :]).reshape(n * n, n * n)


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Plant matrices A, C, Q, R, Xi0 with dimensions n (state) and m (measurement).

    The matrices are read-only copies of the arguments, so the noise factors,
    the spectral radius of A and the Lyapunov operator, computed once here,
    stay valid.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Xi0: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        if A.shape[0] != A.shape[1]:
            raise ModelError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        C = _as_matrix(self.C, "C")
        if C.shape[1] != n:
            raise ModelError(f"C must have {n} columns, got shape {C.shape}")
        Q, q_factor = _check_symmetric_psd(_as_matrix(self.Q, "Q"), "Q")
        R, r_factor = _check_symmetric_psd(_as_matrix(self.R, "R"), "R", definite=True)
        Xi0, xi0_factor = _check_symmetric_psd(_as_matrix(self.Xi0, "Xi0"), "Xi0")
        if Q.shape[0] != n:
            raise ModelError(f"Q must be {n}x{n}, got shape {Q.shape}")
        if R.shape[0] != C.shape[0]:
            raise ModelError(f"R must be {C.shape[0]}x{C.shape[0]}, got shape {R.shape}")
        if Xi0.shape[0] != n:
            raise ModelError(f"Xi0 must be {n}x{n}, got shape {Xi0.shape}")
        for name, mat in (("A", A), ("C", C), ("Q", Q), ("R", R), ("Xi0", Xi0)):
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)
        object.__setattr__(self, "_q_factor", q_factor)
        object.__setattr__(self, "_r_factor", r_factor)
        object.__setattr__(self, "_xi0_factor", xi0_factor)
        object.__setattr__(self, "_rho", float(np.max(np.abs(np.linalg.eigvals(A)))))
        operator = None  # Smith's doubling, from _SMITH_FROM_N on, needs no operator
        if n < _SMITH_FROM_N:
            operator = np.eye(n * n) - _kron_square(A)  # the Kronecker solve's I - A kron A
            operator.setflags(write=False)
        object.__setattr__(self, "_lyapunov_operator", operator)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def spectral_radius(self) -> float:
        """Largest eigenvalue modulus of A, computed at construction."""
        return self._rho


@dataclass
class PlantState:
    """True plant state x_k at time index k."""

    x: np.ndarray
    k: int = 0


class RandomSource:
    """Deterministic Gaussian stream identified by (seed, stream_id).

    Two sources built with the same identifiers emit identical sequences;
    draws advance the stream. Draw order inside each operation is fixed, so
    whole-trajectory replay is exact.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if stream_id < 0:
            raise DomainError(f"stream_id must be nonnegative, got {stream_id!r}")
        self.seed = int(seed) & _SEED_MASK
        self.stream_id = int(stream_id)
        self._gen = np.random.default_rng([self.seed, self.stream_id])

    def normal(self, size: int) -> np.ndarray:
        return self._gen.standard_normal(size)

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, stream_id={self.stream_id})"


def sample_initial_state(model: SystemModel, rng: RandomSource) -> PlantState:
    """Draw x_0 ~ N(0, Xi0) through the symmetric square root of Xi0."""
    x0 = model._xi0_factor @ rng.normal(model.n)
    return PlantState(x=x0, k=0)


def step(model: SystemModel, state: PlantState, rng: RandomSource):
    """Advance the plant one step; returns (next state, measurement y_k).

    The measurement belongs to the *current* index k; the returned state
    carries x_{k+1}. Process noise is drawn before measurement noise.
    """
    w = model._q_factor @ rng.normal(model.n)
    v = model._r_factor @ rng.normal(model.m)
    y = model.C @ state.x + v
    x_next = model.A @ state.x + w
    # a nan/inf anywhere poisons the sums
    if not math.isfinite(float(x_next.sum()) + float(y.sum())):
        raise NumericError(f"non-finite plant state at k={state.k}")
    return PlantState(x=x_next, k=state.k + 1), y
