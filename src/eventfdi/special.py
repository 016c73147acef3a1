"""Scalar special functions for the probabilistic machinery.

Everything here is a pure function of its arguments: the Gaussian tail
Q(x) and its inverse, the scheduler covariance factor kappa(beta), central
and noncentral chi-square survival functions, and the Marcum Q-function
Q_nu(a, b) = Pr(V >= b^2) for V noncentral chi-square with 2*nu degrees of
freedom and noncentrality a^2.

Every Marcum order, integer or half-integer, is the Poisson mixture of
central chi-square survivals, summed outward from the Poisson mode; two
rigorous bounds return 0 or 1 directly when the value is saturated (see
Gil, Segura and Temme, "Computation of the Marcum Q-function", ACM TOMS
40(3), 2014, for the function's numerics).
"""

import math

from scipy import optimize, special as sp

from .errors import DomainError, NumericError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN_SQRT_2PI = math.log(_SQRT_2PI)

# Below this a is treated as 0: the central branch is within a^2/2 <= 5e-13
# of the true value.
_MARCUM_CENTRAL_CUTOFF = 1e-6

_SERIES_TOL = 1e-15  # neglected terms on each side of the mode, relative to the sum
_SATURATED = 1e-16  # bound on Q or 1 - Q below which the value is 0 or 1


def gaussian_q(x: float) -> float:
    """Upper tail of the standard Gaussian, Q(x) = Pr(N(0,1) >= x)."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gaussian_q requires finite x, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def gaussian_q_inv(p: float) -> float:
    """Inverse of gaussian_q: the x with Q(x) = p, for p in (0, 1).

    Seeded by the erfc inverse and polished with one Newton step against
    gaussian_q itself, so the round trip is exact at working precision.
    Note the binary64 limit on the left tail: p near 1 carries an absolute
    resolution of ~1.1e-16, so x = gaussian_q_inv(gaussian_q(x)) can be off
    by ~eps/(2 pdf(x)) for x below about -5.5 no matter the algorithm.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"gaussian_q_inv requires p in (0, 1), got {p!r}")
    x = _SQRT2 * float(sp.erfcinv(2.0 * p))
    # Newton polish: d/dx Q(x) = -pdf(x)
    pdf = math.exp(-0.5 * x * x) / _SQRT_2PI
    if pdf > 0.0:
        x += (gaussian_q(x) - p) / pdf
    return x


def kappa(beta: float) -> float:
    """Covariance shrink factor of the open (non-triggered) update.

    kappa(beta) = (2/sqrt(2*pi)) * beta * exp(-beta^2/2) / (1 - 2*Q(beta)),
    with the analytic limit kappa(0) = 1 (both numerator and denominator
    vanish linearly at beta = 0).
    """
    beta = float(beta)
    if not math.isfinite(beta) or beta < 0.0:
        raise DomainError(f"kappa requires beta >= 0, got {beta!r}")
    if beta == 0.0:
        return 1.0
    num = (2.0 / _SQRT_2PI) * beta * math.exp(-0.5 * beta * beta)
    den = math.erf(beta / _SQRT2)  # equals 1 - 2*Q(beta)
    return num / den


def _check_dof(dof: int) -> int:
    if not isinstance(dof, (int,)) or isinstance(dof, bool) or dof < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {dof!r}")
    return dof


def chi2_survival(x: float, dof: int) -> float:
    """Pr(X >= x) for a central chi-square variable with `dof` degrees of freedom."""
    _check_dof(dof)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"chi2_survival requires x >= 0, got {x!r}")
    return float(sp.gammaincc(0.5 * dof, 0.5 * x))


def chi2_quantile(upper_tail: float, dof: int) -> float:
    """The threshold s with chi2_survival(s, dof) = upper_tail."""
    _check_dof(dof)
    upper_tail = float(upper_tail)
    if not (0.0 < upper_tail < 1.0):
        raise DomainError(
            f"chi2_quantile requires upper_tail in (0, 1), got {upper_tail!r}"
        )
    hi = float(dof) + 10.0
    while chi2_survival(hi, dof) > upper_tail:
        hi *= 2.0
        if hi > 1e12:
            raise NumericError("chi2_quantile failed to bracket the root")
    root = optimize.brentq(
        lambda s: chi2_survival(s, dof) - upper_tail, 0.0, hi, xtol=1e-13, rtol=1e-15
    )
    return float(root)


def _check_order(nu: float) -> float:
    nu = float(nu)
    two_nu = 2.0 * nu
    if not math.isfinite(nu) or nu <= 0.0 or abs(two_nu - round(two_nu)) > 1e-9:
        raise DomainError(
            f"Marcum order must be a positive multiple of 0.5, got {nu!r}"
        )
    return nu


def _stirlerr(x: float) -> float:
    """log(x!) - log(sqrt(2 pi x) (x/e)^x), the error of Stirling's formula.

    By lgamma up to 15, where it is within a few 1e-15 of the value, and by
    five terms of the Stirling series above, whose remainder is below 1e-16
    there (Loader, "Fast and accurate computation of binomial
    probabilities", 2000).
    """
    if x <= 15.0:
        return math.lgamma(x + 1.0) - (x + 0.5) * math.log(x) + x - _LN_SQRT_2PI
    xx = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / xx) / xx) / xx) / xx) / x


def _bd0(x: float, lam: float) -> float:
    """x log(x/lam) + lam - x without cancellation when x is near lam (Loader)."""
    if abs(x - lam) < 0.1 * (x + lam):
        v = (x - lam) / (x + lam)
        total = (x - lam) * v
        term = 2.0 * x * v
        v *= v
        j = 1
        while True:
            term *= v
            step = term / (2 * j + 1)
            if total + step == total:
                return total
            total += step
            j += 1
    return x * math.log(x / lam) + lam - x


def _poisson_weight(x: float, lam: float) -> float:
    """lam^x e^{-lam} / Gamma(x + 1) for x >= 0, lam > 0, by Loader's saddle-point form.

    exp(-stirlerr(x) - bd0(x, lam)) / sqrt(2 pi x) keeps its relative
    accuracy at any lam, where exp(x log lam - lam - lgamma(x + 1)) loses
    about eps * lam log lam to the cancellation of its large terms.
    """
    if x == 0.0:
        return math.exp(-lam)
    return math.exp(-_stirlerr(x) - _bd0(x, lam)) / math.sqrt(2.0 * math.pi * x)


def _marcum_series(nu: float, a: float, b: float) -> float:
    """Poisson mixture of central chi-square survivals, summed from the mode.

    Needs a, b > 0 (marcum_q routes a or b at or below 1e-6 elsewhere).

    Q_nu(a,b) = sum_j pois(j; a^2/2) S_j with S_j = Pr(chi^2_{2(nu+j)} >= b^2)
    = gammaincc(nu + j, b^2/2), valid for every order, and 1 - Q is the same
    mixture of G_j = 1 - S_j = gammainc(nu + j, b^2/2). S_j increases in j,
    which gives two rigorous saturation bounds over the window [lo, hi]
    around the mode:

        Q     <= S_hi + Pr(Pois > hi),
        1 - Q <= G_lo + Pr(Pois < lo);

    when either is below 1e-16 the value is 0 or 1 without summing. Otherwise
    the mixture of whichever of Q and 1 - Q is likely the smaller (b^2/2
    against the mean nu + a^2/2) is summed, so a value near 1 keeps its
    relative accuracy in 1 - Q. The sweep starts at the Poisson mode and
    expands both ways until a bound on each side's neglected terms is below
    1e-15 of the sum; it never leaves the window, whose outside mass is
    negligible. At the mode, the Poisson weight and the chi-square step
    between adjacent orders come from Loader's saddle-point form
    (_poisson_weight); away from it they follow by their ratio recurrences.
    """
    lam = 0.5 * a * a
    y = 0.5 * b * b
    spread = 12.0 * math.sqrt(lam) + 40.0
    hi = math.floor(lam + spread)
    if sp.gammaincc(nu + hi, y) + sp.pdtrc(hi, lam) < _SATURATED:
        return 0.0
    lo = max(0, math.ceil(lam - spread))
    if sp.gammainc(nu + lo, y) + (sp.pdtr(lo - 1, lam) if lo else 0.0) < _SATURATED:
        return 1.0

    # sum Q (terms S_j, increasing in j) or 1 - Q (terms G_j, decreasing)
    survival = y >= lam + nu
    sign = 1.0 if survival else -1.0
    j0 = int(lam)
    p0 = _poisson_weight(j0, lam)
    v0 = float(sp.gammaincc(nu + j0, y) if survival else sp.gammainc(nu + j0, y))
    # S at order t+1 minus S at order t is e^{-y} y^t / Gamma(t+1); here t = nu + j0
    e0 = sign * _poisson_weight(nu + j0, y)
    total = p0 * v0

    # below the mode, with p the weight at k = j - 1, the weights decrease
    # away from the mode, so the mass below k is at most p * k < p * j; the
    # terms there are at most v or 1
    p, v, e = p0, v0, e0
    for j in range(j0, lo, -1):
        e *= (nu + j) / y
        v -= e
        p *= j / lam
        total += p * v
        if p * j * (v if survival else 1.0) < _SERIES_TOL * total:
            break

    # above the mode, with p the weight at k = j + 1, the weight ratio past k
    # is at most r = lam/(k+1) < 1, so the mass past k is at most
    # p * r/(1-r) = p * lam/(k+1-lam); the terms there are at most 1 or v
    p, v, e = p0, v0, e0
    for j in range(j0, hi):
        v += e
        e *= y / (nu + j + 1)
        p *= lam / (j + 1)
        total += p * v
        if j + 2 > lam and p * lam * (1.0 if survival else v) < (
            _SERIES_TOL * total * (j + 2 - lam)
        ):
            break

    return total if survival else 1.0 - total


def marcum_q(nu: float, a: float, b: float) -> float:
    """Marcum Q-function Q_nu(a, b) for nu a positive multiple of 0.5.

    Every order goes through the Poisson-mixture series; see _marcum_series.
    """
    nu = _check_order(nu)
    a = float(a)
    b = float(b)
    if not math.isfinite(a) or a < 0.0:
        raise DomainError(f"marcum_q requires a >= 0, got {a!r}")
    if not math.isfinite(b) or b < 0.0:
        raise DomainError(f"marcum_q requires b >= 0, got {b!r}")

    if b <= _MARCUM_CENTRAL_CUTOFF:
        # Pr(V >= b^2) differs from 1 by O(b^(2 nu)), below 1e-12 here
        return 1.0
    if a <= _MARCUM_CENTRAL_CUTOFF:
        # saturated like the series, which keeps Q monotone across the cutoff
        value = chi2_survival(b * b, int(round(2 * nu)))
        return value if value >= _SATURATED else 0.0

    return min(1.0, max(0.0, _marcum_series(nu, a, b)))


def noncentral_chi2_survival(x: float, dof: int, noncentrality: float) -> float:
    """Pr(V >= x) for V noncentral chi-square with `dof` dof and the given noncentrality."""
    _check_dof(dof)
    x = float(x)
    noncentrality = float(noncentrality)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"noncentral_chi2_survival requires x >= 0, got {x!r}")
    if not math.isfinite(noncentrality) or noncentrality < 0.0:
        raise DomainError(
            f"noncentral_chi2_survival requires noncentrality >= 0, got {noncentrality!r}"
        )
    return marcum_q(0.5 * dof, math.sqrt(noncentrality), math.sqrt(x))
