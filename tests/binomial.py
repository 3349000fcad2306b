"""The spread the statistical tests allow an empirical attack rate."""

import math


def binomial_sigma(rate: float, trials: int) -> float:
    """Standard deviation of an empirical rate over the given trial count."""
    if trials <= 0:
        return 0.0
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)
