"""Bounds on the achievable distortion region for the Gaussian-quadratic case.

Closed forms implemented here, for source variance ``sigma_s2`` and
reference-channel noise variance ``sigma_n2``:

- inner bound (no-authentication lower bound on D_r, via the maximum
  channel input power allowed by an encoding-distortion budget):

      D_r = sigma_n2 * sigma_s2 / (sigma_n2 + (sqrt(D_e) + sigma_s)^2)

- low-D_e achievable regime (distortion-compensated quantization with
  scaling ``alpha`` set to the largest root of the information
  constraint):  D_e = sigma_t2,  D_r = sigma_s2 D_e / (D_e + alpha^2 sigma_s2)

- high-D_e achievable regime (amplified quantization, amplification
  ``beta`` at the smallest value meeting the information constraint):
  D_e = (1-beta)^2 sigma_s2 + beta^2 sigma_t2,
  D_r = sigma_s2 sigma_t2 / (sigma_s2 + sigma_t2)

- quantize-and-embed baseline:  D_r = sigma_s2 / (1 + D_e / sigma_n2)

The achievable frontier interpolated by :func:`envelope_dr` is the lower
convex envelope (time-sharing closure) of the two achievable regimes swept
over the auxiliary noise variance ``sigma_t2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SWEEP_LO_FACTOR = 1e-4   # sigma_t2 sweep spans [lo * sigma_n2, hi * sigma_s2]
SWEEP_HI_FACTOR = 1e4
SWEEP_POINTS = 400        # sigma_t2 values per regime, log-spaced


@dataclass(frozen=True)
class GaussianScenario:
    sigma_s2: float
    sigma_n2: float

    def __post_init__(self):
        if not (self.sigma_s2 > 0 and self.sigma_n2 > 0):
            raise ValueError("variances must be positive")


def inner_bound_dr(scenario: GaussianScenario, de: float) -> float:
    """No-authentication bound: the best D_r any scheme with budget D_e can reach."""
    if de < 0:
        raise ValueError("De must be >= 0")
    s2, n2 = scenario.sigma_s2, scenario.sigma_n2
    return n2 * s2 / (n2 + (math.sqrt(de) + math.sqrt(s2)) ** 2)


def low_de_alpha(scenario: GaussianScenario, sigma_t2: float) -> float:
    """Largest scaling parameter keeping the information gap nonnegative.

    Positive root of  a^2 (t s + n s) - 2 a t s - t^2 = 0  in normalized
    variances (t = sigma_t2, s = sigma_s2, n = sigma_n2).
    """
    if sigma_t2 <= 0:
        raise ValueError("sigma_t2 must be positive")
    s2, n2 = scenario.sigma_s2, scenario.sigma_n2
    return (1.0 + math.sqrt(1.0 + sigma_t2 / s2 + n2 / s2)) / (1.0 + n2 / sigma_t2)


def low_de_gap(scenario: GaussianScenario, sigma_t2: float, alpha: float) -> float:
    """I(U;Y) - I(S;U) in bits for the distortion-compensated encoder."""
    t, s, n = sigma_t2, scenario.sigma_s2, scenario.sigma_n2
    num = t * (t + s + n)
    den = t * s * (1.0 - alpha) ** 2 + n * (t + alpha ** 2 * s)
    return 0.5 * math.log2(num / den)


def low_de_point(scenario: GaussianScenario, sigma_t2: float) -> tuple[float, float]:
    """(D_e, D_r) of the low-distortion regime at auxiliary variance sigma_t2."""
    alpha = low_de_alpha(scenario, sigma_t2)
    s2 = scenario.sigma_s2
    de = sigma_t2
    dr = s2 * de / (de + alpha ** 2 * s2)
    return de, dr


def high_de_beta(scenario: GaussianScenario, sigma_t2: float) -> float:
    if sigma_t2 <= 0:
        raise ValueError("sigma_t2 must be positive")
    s2, n2 = scenario.sigma_s2, scenario.sigma_n2
    return math.sqrt(s2 * n2 / (sigma_t2 * (s2 + sigma_t2)))


def high_de_point(scenario: GaussianScenario, sigma_t2: float) -> tuple[float, float]:
    """(D_e, D_r) of the amplified-quantization regime at sigma_t2."""
    beta = high_de_beta(scenario, sigma_t2)
    s2 = scenario.sigma_s2
    de = (1.0 - beta) ** 2 * s2 + beta ** 2 * sigma_t2
    dr = s2 * sigma_t2 / (s2 + sigma_t2)
    return de, dr


def _lower_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain lower hull of (x, y) points sorted by x."""
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    hull: list[np.ndarray] = []
    for q in pts:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0]) <= 0:
                hull.pop()
            else:
                break
        hull.append(q)
    return np.asarray(hull)


def sweep_points(scenario: GaussianScenario):
    """Raw (D_e, D_r) samples of the two achievable regimes over sigma_t2."""
    t_lo = SWEEP_LO_FACTOR * scenario.sigma_n2
    t_hi = SWEEP_HI_FACTOR * scenario.sigma_s2
    t_grid = np.logspace(math.log10(t_lo), math.log10(t_hi), SWEEP_POINTS)
    low = np.array([low_de_point(scenario, t) for t in t_grid])
    high = np.array([high_de_point(scenario, t) for t in t_grid])
    return low, high


def envelope_dr(scenario: GaussianScenario, de):
    """Envelope D_r interpolated at the query D_e values (scalar or array).

    Queries outside the swept range clamp to the end values; a running
    minimum enforces the monotonicity that budget slackness implies.
    """
    hull = _lower_hull(np.concatenate(sweep_points(scenario)))
    de_q = np.atleast_1d(np.asarray(de, dtype=float))
    out = np.interp(de_q, hull[:, 0], hull[:, 1])
    # up-closure in De: more budget can never hurt
    order = np.argsort(de_q)
    run = np.minimum.accumulate(out[order])
    res = np.empty_like(out)
    res[order] = run
    return float(res[0]) if np.isscalar(de) or np.asarray(de).ndim == 0 else res


def qe_dr(scenario: GaussianScenario, de: float) -> float:
    """Quantize-and-embed baseline: rate R(D_r) equated to capacity C(D_e)."""
    if de < 0:
        raise ValueError("De must be >= 0")
    return scenario.sigma_s2 / (1.0 + de / scenario.sigma_n2)

