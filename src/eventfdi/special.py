"""Scalar special functions for the probabilistic machinery.

Everything here is a pure function of its arguments: the Gaussian tail
Q(x) and its inverse, the scheduler covariance factor kappa(beta), the
central chi-square survival function and quantile, and the Marcum
Q-function Q_nu(a, b) = Pr(V >= b^2) for V noncentral chi-square with 2*nu
degrees of freedom and noncentrality a^2. marcum_q is the one public entry
to the noncentral survival; attack.alarm_probability and the attack
solvers check their own domains and call its helper _ncx2_survival.

The noncentral survival, and with it every Marcum order, integer or
half-integer, is Boost's noncentral chi-square complement as scipy ships it
(the ufunc behind scipy.stats.ncx2.sf, called without the scipy.stats
layer). Up to a noncentrality of 1e10 it keeps its relative accuracy deep
into the upper tail, and its cost grows slowly with the noncentrality; the
tests check it against 50-digit Poisson sums (see Gil, Segura and Temme,
"Computation of the Marcum Q-function", ACM TOMS 40(3), 2014, for the
function's numerics). One tail bound, Birge's, settles the value first
below the mean, where the ufunc can take seconds to give 1, and settles
every input the ufunc gives no value for as 0 or 1, else NumericError.
Every dof, and every Marcum order as its dof 2 nu, passes one rule,
_check_dof.
"""

import math
import operator
import sys

from scipy import special as sp

from .errors import DomainError, NumericError

try:
    from scipy.special._ufuncs import _ncx2_sf
except ImportError as exc:  # private name: present and checked in scipy 1.17.1
    raise ImportError(
        "eventfdi needs scipy>=1.17.1, whose scipy.special._ufuncs provides _ncx2_sf"
    ) from exc

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
    """dof if it is a positive int whose float is finite (each use converts it to a
    float), else DomainError."""
    if not isinstance(dof, int) or isinstance(dof, bool) or dof < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {dof!r}")
    if dof > sys.float_info.max:
        raise DomainError(
            f"degrees of freedom must be finite as a float, got an integer of {dof.bit_length()} bits"
        )
    return dof


def chi2_survival(x: float, dof: int) -> float:
    """Pr(X >= x) for a central chi-square variable with `dof` degrees of freedom."""
    _check_dof(dof)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"chi2_survival requires x >= 0, got {x!r}")
    return float(sp.gammaincc(0.5 * dof, 0.5 * x))


def chi2_quantile(upper_tail: float, dof: int) -> float:
    """The threshold s with chi2_survival(s, dof) = upper_tail.

    Seeded by the inverse regularized gamma and polished with one Newton
    step against chi2_survival itself, as gaussian_q_inv is.
    """
    _check_dof(dof)
    upper_tail = float(upper_tail)
    if not (0.0 < upper_tail < 1.0):
        raise DomainError(
            f"chi2_quantile requires upper_tail in (0, 1), got {upper_tail!r}"
        )
    k = 0.5 * dof
    s = 2.0 * float(sp.gammainccinv(k, upper_tail))  # > 0 for every upper_tail < 1
    # Newton polish: d/ds chi2_survival(s) = -pdf(s)
    pdf = math.exp((k - 1.0) * math.log(0.5 * s) - 0.5 * s - math.lgamma(k)) / 2.0
    if pdf > 0.0:
        s += (chi2_survival(s, dof) - upper_tail) / pdf
    return s


_UFUNC_NONCENTRALITY = 1e10  # the largest noncentrality handed to the ufunc


def _ncx2_survival(x: float, dof: float, noncentrality: float) -> float:
    """Pr(V >= x): 1 where _tail_bound settles it below the mean, else the
    ufunc's value clipped to [0, 1], else _tail_bound's 0 or 1, else
    NumericError.

    Below the mean dof + noncentrality the bound goes first: where it
    settles 1, the ufunc gives 1 too, after work linear in the
    noncentrality (4 s at 1e8) or an OverflowError from Boost's tgamma
    (scans of dof 1 to 1e8 find that only at x < 3e-8 and dof +
    noncentrality >= 341, where the bound's statistic is >= 42.6 > 38).
    Above the mean the check costs one addition and one comparison. The
    ufunc returns -0.0 at x = 0, where the value is 1; at any x > 0,
    however small, it is within 2e-16 of a 50-digit sum. Its series lose
    accuracy past a noncentrality of about 3e10, with Boost warnings (0.26
    against 0.31 one half standard deviation above the mean at 1e11), may
    run for minutes near 1e17, and give nan past about 5e18; an infinite
    argument also gives nan. Every input it does not answer, past
    _UFUNC_NONCENTRALITY, with nan or with OverflowError, goes to
    _tail_bound.
    """
    if x == 0.0 or (x < dof + noncentrality and _tail_bound(x, dof, noncentrality) == 1.0):
        return 1.0
    if noncentrality <= _UFUNC_NONCENTRALITY:
        try:
            value = float(_ncx2_sf(x, dof, noncentrality))
        except OverflowError:
            value = math.nan
        if not math.isnan(value):
            return min(1.0, max(0.0, value))
    value = _tail_bound(x, dof, noncentrality)
    if math.isnan(value):
        raise NumericError(
            f"noncentral chi-square survival undefined at x = {x!r}, dof = {dof!r}, "
            f"noncentrality = {noncentrality!r}: no tail bound settles it"
        )
    return value


def _tail_bound(x: float, dof: float, noncentrality: float) -> float:
    """Pr(V >= x) as 0 or 1 where a tail bound settles it, else nan.

    With k = dof, lam = noncentrality, s = k + 2 lam and any u > 0,
    Pr(V >= k + lam + 2 sqrt(s u) + 2u) and Pr(V <= k + lam - 2 sqrt(s u))
    are at most e^-u (Birge 2001, Lemma 8.1). The value is 0 when x is past
    the upper point of a u with e^-u < 2^-1075, half the least subnormal,
    and 1 when x is below the lower point of a u with e^-u < 2^-54, that is
    when the lower statistic (k + lam - x)^2 / (4 s) is past 38; as
    s <= 2 (k + lam), it is at least about (k + lam) / 8 for a tiny x.
    """
    s, gap = dof + 2.0 * noncentrality, x - dof - noncentrality
    if gap > 0.0:  # the u whose upper point is x: sqrt(u) = gap / (sqrt(s) + sqrt(s + 2 gap))
        root_u = math.sqrt(gap) / (math.sqrt(s / gap) + math.sqrt(s / gap + 2.0))
        if root_u * root_u > 745.2:  # e^-745.2 < 2^-1075
            return 0.0
    elif gap * gap / (4.0 * s) > 38.0:  # e^-38 < 2^-54
        return 1.0
    return math.nan


def marcum_q(nu: float, a: float, b: float) -> float:
    """Marcum Q-function Q_nu(a, b) for nu an exact positive multiple of 0.5.

    Q_nu(a, b) = Pr(V >= b^2) for V noncentral chi-square with 2 nu degrees
    of freedom and noncentrality a^2, computed as that survival function.
    The order's rule is _check_dof on 2 nu, read as an int when nu is an
    integer or a float whose double is integral. Its relative error against
    a 50-digit Poisson sum stays near 1e-14 for Q from 1 down to 1e-15 and
    beyond.
    """
    try:
        two_nu = 2 * operator.index(nu)
    except TypeError:
        two_nu = 2.0 * float(nu)
        two_nu = int(two_nu) if two_nu.is_integer() else two_nu
    try:
        dof = _check_dof(two_nu)
    except DomainError as exc:
        raise DomainError(f"Marcum order must be a positive multiple of 0.5, 2 nu the dof: {exc}") from None
    a = float(a)
    b = float(b)
    if not math.isfinite(a) or a < 0.0:
        raise DomainError(f"marcum_q requires a >= 0, got {a!r}")
    if not math.isfinite(b) or b < 0.0:
        raise DomainError(f"marcum_q requires b >= 0, got {b!r}")
    return _ncx2_survival(b * b, float(dof), a * a)
