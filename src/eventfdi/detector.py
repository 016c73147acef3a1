"""Chi-square false-data detector and threshold design."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .special import _check_dof, chi2_quantile, chi2_survival


@dataclass(frozen=True)
class DetectorConfig:
    """Detection threshold sigma, the false-alarm rate it was designed for, and the design dof.

    The design dof is independent of the channel dimension m on purpose: a
    threshold may be read off a chi-square table for a different dof than
    the statistic actually follows.
    """

    sigma: float
    upsilon: float
    dof: int

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive, got {self.sigma!r}")
        if not (0.0 < self.upsilon < 1.0):
            raise DomainError(f"upsilon must be in (0, 1), got {self.upsilon!r}")
        _check_dof(self.dof)


def statistic(eps_received: np.ndarray) -> float:
    """Detector statistic g = ||eps||_2^2 of the received transformed innovation."""
    eps = np.asarray(eps_received, dtype=float)
    return float(eps @ eps)


def test(g: float, config: DetectorConfig) -> int:
    """1 (alarm, "under attack") iff g >= sigma; the boundary alarms."""
    if not (g >= 0.0):
        raise DomainError(f"statistic must be nonnegative, got {g!r}")
    return 1 if g >= config.sigma else 0


def check_thresholds(beta: float, sigma: float) -> None:
    """Require a positive, finite sigma and 0 <= beta < sqrt(sigma), else raise ConfigError
    on 'sigma' or 'beta' (with beta >= sqrt(sigma) every transmitted innovation alarms)."""
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ConfigError(f"sigma must be positive and finite, got {sigma!r}", field="sigma")
    if not (0.0 <= beta < math.sqrt(sigma)):
        raise ConfigError(
            f"thresholds must satisfy 0 <= beta < sqrt(sigma): "
            f"beta={beta!r}, sqrt(sigma)={math.sqrt(sigma):.6f}",
            field="beta",
        )


def design_threshold(
    upsilon: float, dof: int, beta: float | None = None
) -> DetectorConfig:
    """Pick sigma so the central chi-square upper tail at sigma equals upsilon.

    When the scheduler threshold beta is supplied, check it against sigma
    by check_thresholds. A sigma whose tail exceeds upsilon by more than
    1e-9 raises NumericError.
    """
    sigma = chi2_quantile(upsilon, dof)
    if beta is not None:
        check_thresholds(beta, sigma)
    config = DetectorConfig(sigma=sigma, upsilon=upsilon, dof=dof)
    survival = chi2_survival(config.sigma, dof)
    if not survival <= upsilon + 1e-9:
        raise NumericError(
            f"designed sigma {sigma!r} gives false-alarm rate {survival!r} "
            f"above the budget {upsilon!r}"
        )
    return config
