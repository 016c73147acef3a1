"""Two-channel scheduler-pointed innovation attack.

The forward channel rescales and biases the whitened innovation,
eps_tilde = eps / mu + delta, inflating the trigger probability while
compressing the detector statistic; the feedback channel injects
alpha = -C xtilde^- so the sensor keeps seeing a nominal innovation. The
solver finds the smallest scaling mu for which both success constraints
hold with equality: the Marcum detector boundary and the Gaussian trigger
boundary mu*(delta - beta) = Psi.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detector import check_thresholds
from .errors import ConfigError, DomainError, NumericError
from .estimator import SteadyState
from .model import SystemModel
from .special import _check_dof, _check_order, _ncx2_survival, gaussian_q, gaussian_q_inv

_MU_CAP = 1e6
_ROOT_XTOL = 1e-12
_ROOT_RTOL = 4.0 * math.ulp(1.0)  # scipy's default and least rtol, 4 eps
_ROOT_MAX_ITER = 100


def _brentq(f, xa: float, xb: float) -> float:
    """Root of f on a sign-changing bracket [xa, xb] by Brent's method (Brent 1973).

    A step-for-step port of the C routine behind scipy.optimize.brentq,
    including its extrapolation formula, at xtol 1e-12, rtol 4 eps and 100
    iterations: it returns the same bits as scipy on the same bracket. A
    bracket without a sign change, a non-finite function value and a run
    that does not converge raise NumericError.
    """

    def call(x: float) -> float:
        fx = f(x)
        if not math.isfinite(fx):
            raise NumericError(f"root search: function value {fx!r} at x = {x!r}")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericError(
            f"root search: f({xpre!r}) = {fpre!r} and f({xcur!r}) = {fcur!r} have the same sign"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NumericError(f"root search did not converge in {_ROOT_MAX_ITER} iterations")


@dataclass(frozen=True, eq=False)
class AttackParams:
    """Time-invariant forward-attack parameters.

    delta carries at most one nonzero component (the scheduler triggers on
    the sup norm, so a single biased channel is enough); derived norms:
    phi = ||delta||_2, psi = ||delta||_inf, noncentrality xi = mu^2 phi^2.
    """

    mu: float
    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=float).ravel())
        if not (math.isfinite(self.mu) and self.mu >= 1.0):
            raise DomainError(f"mu must be >= 1, got {self.mu!r}")
        if not np.all(np.isfinite(self.delta)):
            raise DomainError("delta must have finite entries")
        if np.count_nonzero(self.delta) > 1:
            raise DomainError("delta may have at most one nonzero component")

    @classmethod
    def scalar_bias(cls, mu: float, delta_bar: float, m: int):
        """Bias in the first component (the channels are exchangeable)."""
        delta = np.zeros(int(m))
        delta[0] = float(delta_bar)
        return cls(mu=float(mu), delta=delta)

    @classmethod
    def off(cls, m: int):
        return cls(mu=1.0, delta=np.zeros(int(m)))

    @property
    def delta_bar(self) -> float:
        nz = self.delta[self.delta != 0.0]
        return float(nz[0]) if nz.size else 0.0

    @property
    def phi(self) -> float:
        return float(np.linalg.norm(self.delta))

    @property
    def psi(self) -> float:
        return float(np.max(np.abs(self.delta))) if self.delta.size else 0.0

    @property
    def xi(self) -> float:
        return self.mu**2 * self.phi**2

    @property
    def is_off(self) -> bool:
        return self.mu == 1.0 and not np.any(self.delta)


@dataclass
class AttackState:
    """Attack-effect bookkeeping: xtilde = xhat_attacked - xhat_nominal.

    Starts at zero (the attack begins with the estimator at steady state);
    the feedback injection is alpha = -C xtilde^-.
    """

    x_tilde_prior: np.ndarray
    x_tilde_post: np.ndarray

    @classmethod
    def zeros(cls, n: int, m: int | None = None):
        """The zero state; m is ignored, kept optional so two-argument calls still work."""
        return cls(x_tilde_prior=np.zeros(n), x_tilde_post=np.zeros(n))


@dataclass(frozen=True)
class SuccessCriteria:
    """Attack target M (minimum trigger probability) and false-alarm budget Upsilon.

    Psi is the Gaussian confidence level with Q(Psi) = 1 - M.
    """

    M: float
    Upsilon: float

    def __post_init__(self):
        if not (0.0 < self.M < 1.0):
            raise DomainError(f"M must be in (0, 1), got {self.M!r}")
        if not (0.0 < self.Upsilon < 1.0):
            raise DomainError(f"Upsilon must be in (0, 1), got {self.Upsilon!r}")

    @property
    def Psi(self) -> float:
        return gaussian_q_inv(1.0 - self.M)


def forward_attack(eps: np.ndarray, params: AttackParams) -> np.ndarray:
    """Forward-channel modification eps_tilde = eps / mu + delta."""
    return np.asarray(eps, dtype=float) / params.mu + params.delta


def attack_effect_update(
    state: AttackState,
    gamma: int,
    z: np.ndarray,
    steady: SteadyState,
    params: AttackParams,
    model: SystemModel,
) -> AttackState:
    """One step of the attack-effect recursion.

    xtilde_k^- = A xtilde_{k-1};
    xtilde_k = xtilde_k^- + (gamma/mu - gamma) K z_k + gamma K F^{-T} delta,
    where z_k is the nominal innovation at the sensor.
    """
    x_prior = model.A @ state.x_tilde_post
    x_post = x_prior + (gamma / params.mu - gamma) * (steady.K @ np.asarray(z, dtype=float))
    if gamma:
        x_post = x_post + steady.K @ (steady.L @ params.delta)  # F^{-T} = L
    return AttackState(x_tilde_prior=x_prior, x_tilde_post=x_post)


def trigger_probability(params: AttackParams, beta: float, m: int) -> float:
    """Exact Pr(||eps_tilde||_inf > beta) under the forward attack.

    With the bias in one component and Phi = 1 - Q:
    1 - [Phi(mu (beta - delta)) - Phi(-mu (beta + delta))]
        * (1 - 2 Q(mu beta))^(m-1).
    """
    beta = float(beta)
    if beta < 0.0:
        raise DomainError(f"beta must be nonnegative, got {beta!r}")
    if m < 1:
        raise DomainError(f"m must be a positive integer, got {m!r}")
    mu, db = params.mu, params.delta_bar
    biased_inside = gaussian_q(-mu * (beta + db)) - gaussian_q(mu * (beta - db))
    clean_inside = 1.0 - 2.0 * gaussian_q(mu * beta)
    return 1.0 - biased_inside * clean_inside ** (m - 1)


def alarm_probability(params: AttackParams, sigma: float, dof: int) -> float:
    """Pr(g_tilde >= sigma) for the attacked statistic, via the Marcum survival.

    g_tilde >= sigma is V >= mu^2 sigma for the chi-square variable
    V = mu^2 ||eps_tilde||^2 with dof degrees of freedom and noncentrality
    xi = mu^2 phi^2. dof must be a positive integer and sigma positive and
    finite, and mu^2 sigma and xi must not overflow, else DomainError.
    """
    _check_dof(dof)
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma!r}")
    x, xi = params.mu**2 * sigma, params.xi
    if not (math.isfinite(x) and math.isfinite(xi)):
        raise DomainError(f"alarm_probability overflows: mu^2 sigma = {x!r}, xi = {xi!r}")
    return _ncx2_survival(x, float(dof), xi)


def _target_below_bound(beta: float, psi_level: float, M: float) -> str | None:
    """Why M is out of reach of the trigger boundary, or None when it is not.

    The boundary delta = beta + Psi/mu enters the Marcum detector boundary
    as the argument mu beta + Psi, which must be nonnegative for every
    mu >= 1: beta + Psi >= 0, that is M >= Q(beta).
    """
    if beta + psi_level >= 0.0:
        return None
    return (
        f"attack target M = {M!r} is below Q(beta) = {gaussian_q(beta):.6g} at beta = {beta!r}: "
        f"the trigger boundary beta + Psi/mu is negative at mu = 1 (Psi = {psi_level:.6g})"
    )


def solve_optimal_params(
    beta: float,
    sigma: float,
    criteria: SuccessCriteria,
    dof: int,
    m: int | None = None,
) -> AttackParams:
    """Smallest scaling mu* >= 1 meeting both success constraints with equality.

    Substituting the active trigger boundary delta = beta + Psi/mu into the
    detector boundary leaves a single equation
    G(mu) = Q_{dof/2}(mu beta + Psi, mu sqrt(sigma)) - Upsilon = 0,
    bracketed by doubling from mu = 1 (first sign change, hence smallest
    root) and solved on that bracket by _brentq, the port of scipy's
    Brent routine, to 1e-12. The order dof/2 is checked once per call, and
    each gap evaluates the survival function behind marcum_q directly: its
    arguments are finite and >= 0 by construction. The returned delta
    vector has dimension m (default dof). A target M below Q(beta) raises
    ConfigError on field "M"; a root search that fails raises NumericError.
    """
    beta = float(beta)
    sigma = float(sigma)
    check_thresholds(beta, sigma)
    if m is None:
        m = dof
    psi_level = criteria.Psi
    reason = _target_below_bound(beta, psi_level, criteria.M)
    if reason:
        raise ConfigError(reason, field="M")
    root_sigma = math.sqrt(sigma)
    two_nu = 2.0 * _check_order(0.5 * dof)

    def gap(mu: float) -> float:
        a, b = mu * beta + psi_level, mu * root_sigma
        return _ncx2_survival(b * b, two_nu, a * a) - criteria.Upsilon

    if gap(1.0) <= 0.0:
        # Detector constraint already slack at the mu >= 1 boundary.
        warnings.warn(
            "detector constraint inactive at mu = 1; returning the boundary solution",
            RuntimeWarning,
            stacklevel=2,
        )
        return AttackParams.scalar_bias(1.0, beta + psi_level, m)

    lo = 1.0
    hi = 2.0
    while gap(hi) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > _MU_CAP:
            raise ConfigError(
                f"no feasible scaling found up to mu = {_MU_CAP:.0e}; "
                "check beta, sigma, Upsilon and M"
            )
    mu_star = _brentq(gap, lo, hi)
    delta_star = beta + psi_level / mu_star

    residual = abs(gap(mu_star))
    if residual > 1e-9:
        raise ConfigError(
            f"solver residual {residual:.3e} exceeds 1e-9; constraints inconsistent"
        )
    if delta_star >= root_sigma:
        warnings.warn(
            f"solved bias {delta_star:.6f} is not below sqrt(sigma) = {root_sigma:.6f}",
            RuntimeWarning,
            stacklevel=2,
        )
    return AttackParams.scalar_bias(mu_star, delta_star, m)


def feasible_delta_interval(
    mu: float,
    beta: float,
    sigma: float,
    criteria: SuccessCriteria,
    dof: int,
) -> tuple[float, float]:
    """Feasible bias range [low, high] for a fixed scaling mu >= mu*.

    low is the trigger boundary beta + Psi/mu; high is the bias at which the
    Marcum detector boundary is hit, bracketed by doubling and solved by
    _brentq to 1e-12. Empty when mu is below the optimum; a mu that is
    not finite or is below 1, and a target M below Q(beta), which has no
    optimum, raise DomainError.
    """
    mu, sigma = float(mu), float(sigma)
    if not (math.isfinite(mu) and mu >= 1.0):  # also keeps the gap's arguments >= 0
        raise DomainError(f"mu must be >= 1, got {mu!r}")
    check_thresholds(beta, sigma)
    psi_level = criteria.Psi
    reason = _target_below_bound(beta, psi_level, criteria.M)
    if reason:
        raise DomainError(reason)
    root_sigma = math.sqrt(sigma)
    two_nu = 2.0 * _check_order(0.5 * dof)
    low = beta + psi_level / mu

    def gap(delta_bar: float) -> float:
        a, b = mu * delta_bar, mu * root_sigma
        return _ncx2_survival(b * b, two_nu, a * a) - criteria.Upsilon

    boundary = gap(low)
    if boundary > 0.0:
        if boundary < 1e-9:  # mu == mu* up to solver rounding: degenerate interval
            return low, low
        raise DomainError(
            f"empty feasible interval: mu = {mu!r} is below the optimal scaling"
        )
    lo, hi = low, max(low, 1e-6)
    while gap(hi) < 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise DomainError("failed to bracket the detector boundary in delta")
    high = _brentq(gap, lo, hi)
    return low, high
