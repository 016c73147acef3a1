"""Two-channel scheduler-pointed innovation attack.

The forward channel rescales and biases the whitened innovation,
eps_tilde = eps / mu + delta, inflating the trigger probability while
compressing the detector statistic; the feedback channel injects
alpha = -C xtilde^- so the sensor keeps seeing a nominal innovation. As in
the paper, the attack is the pair (mu, delta_bar), the bias sitting on one
of the m channels; AttackParams is the one home of its numeric domain.
The solver finds the smallest scaling mu for which both success
constraints hold with equality: the Marcum detector boundary and the
Gaussian trigger boundary mu*(delta - beta) = Psi. It and the feasible
bias interval share their setup and their root search.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detector import check_thresholds
from .errors import ConfigError, DomainError, NumericError
from .estimator import SteadyState
from .model import SystemModel
from .special import _check_dof, _ncx2_survival, gaussian_q, gaussian_q_inv

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
    """Forward-attack scaling mu >= 1 and bias delta_bar on m channels, else DomainError.

    The bias sits in the first channel (the scheduler triggers on the sup
    norm and the channels are exchangeable): delta = delta_bar e_1, a
    read-only vector. phi = ||delta|| = |delta_bar|; noncentrality
    xi = mu^2 phi^2. mu^2 and xi must be finite, so every analysis of the
    parameters can evaluate them.
    """

    mu: float
    delta_bar: float
    m: int

    def __post_init__(self):
        mu, delta_bar, m = float(self.mu), float(self.delta_bar), self.m
        if not (math.isfinite(mu) and mu >= 1.0):
            raise DomainError(f"mu must be >= 1, got {self.mu!r}")
        if not math.isfinite(delta_bar):
            raise DomainError(f"delta_bar must be finite, got {self.delta_bar!r}")
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise DomainError(f"m must be a positive integer, got {m!r}")
        try:
            xi = mu**2 * delta_bar**2
        except OverflowError:  # a float ** raises where * gives inf
            xi = math.inf
        if not math.isfinite(xi):  # then mu^2 is finite too: mu**2 raises otherwise
            raise DomainError(f"attack parameters overflow: mu = {mu!r}, delta_bar = {delta_bar!r}")
        delta = np.zeros(m)
        delta[0] = delta_bar
        delta.setflags(write=False)
        for name, value in (("mu", mu), ("delta_bar", delta_bar), ("delta", delta)):
            object.__setattr__(self, name, value)

    @classmethod
    def off(cls, m: int):
        return cls(1.0, 0.0, m)

    @property
    def phi(self) -> float:
        return abs(self.delta_bar)

    @property
    def xi(self) -> float:
        return self.mu**2 * self.phi**2

    @property
    def is_off(self) -> bool:
        return self.mu == 1.0 and self.delta_bar == 0.0


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


def trigger_probability(params: AttackParams, beta: float) -> float:
    """Exact Pr(||eps_tilde||_inf > beta) under the forward attack on params.m channels.

    With the bias in one component and Phi = 1 - Q:
    1 - [Phi(mu (beta - delta)) - Phi(-mu (beta + delta))]
        * (1 - 2 Q(mu beta))^(m-1).
    """
    beta = float(beta)
    if beta < 0.0:
        raise DomainError(f"beta must be nonnegative, got {beta!r}")
    mu, db = params.mu, params.delta_bar
    biased_inside = gaussian_q(-mu * (beta + db)) - gaussian_q(mu * (beta - db))
    clean_inside = 1.0 - 2.0 * gaussian_q(mu * beta)
    return 1.0 - biased_inside * clean_inside ** (params.m - 1)


def alarm_probability(params: AttackParams, sigma: float, dof: int) -> float:
    """Pr(g_tilde >= sigma) for the attacked statistic, via the Marcum survival.

    g_tilde >= sigma is V >= mu^2 sigma for the chi-square variable
    V = mu^2 ||eps_tilde||^2 with dof degrees of freedom and noncentrality
    xi = mu^2 phi^2, both finite by AttackParams. dof must be a positive
    integer, sigma positive and finite, and mu^2 sigma must not overflow,
    else DomainError.
    """
    _check_dof(dof)
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma!r}")
    x = params.mu**2 * sigma
    if not math.isfinite(x):
        raise DomainError(f"alarm_probability overflows: mu^2 sigma = {x!r}")
    return _ncx2_survival(x, float(dof), params.xi)


def _solver_setup(beta: float, sigma: float, criteria: SuccessCriteria, dof: int, target_error):
    """(Psi, sqrt(sigma), 2 nu) for both solvers, after the checks they share.

    check_thresholds rules on beta and sigma, and _check_dof on dof, once per
    solve; a dof it admits makes nu = dof/2 a valid Marcum order. The
    trigger boundary delta = beta + Psi/mu enters the detector boundary as
    the argument mu beta + Psi, which must be nonnegative for every mu >= 1:
    beta + Psi >= 0, that is M >= Q(beta). A target below that raises
    target_error(reason).
    """
    check_thresholds(beta, sigma)
    psi_level = criteria.Psi
    if beta + psi_level < 0.0:
        raise target_error(
            f"attack target M = {criteria.M!r} is below Q(beta) = {gaussian_q(beta):.6g} "
            f"at beta = {beta!r}: the trigger boundary beta + Psi/mu is negative at mu = 1 "
            f"(Psi = {psi_level:.6g})"
        )
    return psi_level, math.sqrt(sigma), float(_check_dof(dof))


def _first_root(f, sign: float, lo: float, hi: float, cap: float, failure: Exception) -> float:
    """Root of f at its first sign change past lo, where f has the given sign.

    hi doubles, lo following it, while sign * f(hi) > 0; a hi past cap
    raises failure. _brentq then solves on [lo, hi].
    """
    while sign * f(hi) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > cap:
            raise failure
    return _brentq(f, lo, hi)


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
    Brent routine, to 1e-12. Each gap evaluates the survival function
    behind marcum_q directly: its arguments are finite and >= 0 by
    construction. The returned parameters have m channels (default dof).
    A target M below Q(beta), or one that no scaling up to 1e6 meets,
    raises ConfigError on field "M"; a root search that fails raises
    NumericError.
    """
    beta, sigma = float(beta), float(sigma)
    psi_level, root_sigma, two_nu = _solver_setup(
        beta, sigma, criteria, dof, lambda reason: ConfigError(reason, field="M")
    )
    if m is None:
        m = dof

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
        return AttackParams(1.0, beta + psi_level, m)

    no_root = ConfigError(
        f"no feasible scaling found up to mu = {_MU_CAP:.0e} for the attack target "
        f"M = {criteria.M!r}; check beta, sigma, Upsilon, dof and M",
        field="M",
    )
    mu_star = _first_root(gap, 1.0, 1.0, 2.0, _MU_CAP, no_root)
    delta_star = beta + psi_level / mu_star

    residual = abs(gap(mu_star))
    if residual > 1e-9:
        raise ConfigError(
            f"solver residual {residual:.3e} exceeds 1e-9; constraints inconsistent",
            field="M",
        )
    if delta_star >= root_sigma:
        warnings.warn(
            f"solved bias {delta_star:.6f} is not below sqrt(sigma) = {root_sigma:.6f}",
            RuntimeWarning,
            stacklevel=2,
        )
    return AttackParams(mu_star, delta_star, m)


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
    _brentq to 1e-12. Empty when mu is below the optimum, and (low, low)
    at mu* up to solver rounding; a mu that is not finite or is below 1 or
    whose mu^2 sigma overflows, and a target M below Q(beta), which has no
    optimum, raise DomainError.
    """
    mu, sigma = float(mu), float(sigma)
    if not (math.isfinite(mu) and mu >= 1.0):  # also keeps the gap's arguments >= 0
        raise DomainError(f"mu must be >= 1, got {mu!r}")
    psi_level, root_sigma, two_nu = _solver_setup(beta, sigma, criteria, dof, DomainError)
    b = mu * root_sigma
    x = b * b  # the detector boundary mu^2 sigma, fixed for the search
    if not math.isfinite(x):
        raise DomainError(f"mu^2 sigma overflows: mu = {mu!r}, sigma = {sigma!r}")
    low = beta + psi_level / mu

    def gap(delta_bar: float) -> float:
        a = mu * delta_bar
        return _ncx2_survival(x, two_nu, a * a) - criteria.Upsilon

    boundary = gap(low)
    if boundary > 0.0:
        if boundary < 1e-9:  # mu == mu* up to solver rounding: degenerate interval
            return low, low
        raise DomainError(
            f"empty feasible interval: mu = {mu!r} is below the optimal scaling"
        )
    no_root = DomainError("failed to bracket the detector boundary in delta")
    high = _first_root(gap, -1.0, low, max(low, 1e-6), 1e9, no_root)
    return low, high
