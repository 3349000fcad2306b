"""Two-layer achievable distortion region for degraded Gaussian editing.

The reference channel has a mild-edit output ``Y_f = X + N`` and a harsh-edit
output ``Y_c = Y_f + V``.  The layered construction uses

    U = S + A / alpha      (coarse description)
    T = S + B / beta       (refinement)
    X = S + A + B          (common encoding)

with A, B independent zero-mean Gaussians of variances sigma_a2, sigma_b2.
MMSE decoding of S from U (coarse) and from (U, T) (fine) gives

    D_e    = sigma_a2 + sigma_b2
    D_r^c  = sigma_s2 sigma_a2 / (sigma_a2 + alpha^2 sigma_s2)
    D_r^f  = sigma_s2 sigma_a2 sigma_b2 /
             (beta^2 sigma_s2 sigma_a2 + sigma_a2 sigma_b2
              + alpha^2 sigma_s2 sigma_b2)

The coarse layer must satisfy I(U;Y_c) - I(S;U) >= 0, which is the
single-layer low-distortion condition with the auxiliary variance replaced
by sigma_a2 and the noise by sigma_n2 + sigma_v2 + sigma_b2, so its root
and gap are :mod:`regions_gaussian`'s at that noise.  The fine
layer must satisfy I(T;Y_f|U) - I(S;T|U) >= 0.  For jointly Gaussian
variables both terms are log ratios of conditional variances, so the
condition is Var(T|U,Y_f) <= Var(T|U,S) (the determinant condition
det(Cov[T,U,Y_f]) / det(Cov[U,Y_f]) <= det(Cov[T,U,S]) / det(Cov[U,S])
read as Schur complements).  With v = Var(S|U) and d = Var(Y_f|U) it reads

    v - ((1 - alpha) v + sigma_b2 / beta)^2 / d <= 0,

a quadratic in 1/beta whose root gives the largest feasible beta directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regions_gaussian import GaussianScenario, inner_bound_dr, low_de_alpha, low_de_gap

FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LayeredScenario:
    sigma_s2: float
    sigma_n2: float
    sigma_v2: float

    def __post_init__(self):
        if not (self.sigma_s2 > 0 and self.sigma_n2 > 0 and self.sigma_v2 > 0):
            raise ValueError("all variances must be positive")


@dataclass(frozen=True)
class LayeredParams:
    sigma_a2: float
    sigma_b2: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.sigma_a2 > 0 and self.sigma_b2 > 0):
            raise ValueError("innovation variances must be positive")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("scaling parameters must be finite")


@dataclass(frozen=True)
class DistortionTriple:
    de: float
    drc: float
    drf: float

    def __post_init__(self):
        if self.de < 0:
            raise ValueError("de must be >= 0")
        if not (0 < self.drf <= self.drc):
            raise ValueError("need 0 < drf <= drc")


def distortion_triple(scenario: LayeredScenario, params: LayeredParams) -> DistortionTriple:
    """Distortions of the layered construction (independent of the channel)."""
    s2 = scenario.sigma_s2
    a2, b2, al, be = params.sigma_a2, params.sigma_b2, params.alpha, params.beta
    de = a2 + b2
    drc = s2 * a2 / (a2 + al ** 2 * s2)
    drf = s2 * a2 * b2 / (be ** 2 * s2 * a2 + a2 * b2 + al ** 2 * s2 * b2)
    return DistortionTriple(de, drc, drf)


def _coarse_channel(scenario: LayeredScenario, sigma_b2: float) -> GaussianScenario:
    """The single-layer scenario the coarse layer faces: the refinement
    noise B adds to the harsh channel's noise."""
    return GaussianScenario(scenario.sigma_s2, scenario.sigma_n2 + scenario.sigma_v2 + sigma_b2)


def coarse_alpha_root(scenario: LayeredScenario, sigma_a2: float, sigma_b2: float) -> float:
    """Largest coarse scaling with nonnegative gap; the refinement noise B
    adds to the effective channel noise seen by the coarse layer."""
    if sigma_a2 <= 0 or sigma_b2 < 0:
        raise ValueError("invalid innovation variances")
    return low_de_alpha(_coarse_channel(scenario, sigma_b2), sigma_a2)


def coarse_gap(scenario: LayeredScenario, params: LayeredParams) -> float:
    """I(U;Y_c) - I(S;U) in bits, closed form."""
    return low_de_gap(_coarse_channel(scenario, params.sigma_b2), params.sigma_a2, params.alpha)


def _conditional_variances(scenario: LayeredScenario, a2, b2, alpha):
    """Var(S|U) and Var(Y_f|U), elementwise over numpy values.

    U = S + A/alpha observes S through noise of variance c = a2/alpha^2, so
    Var(S|U) = s2 c / (s2 + c); given U, Y_f = alpha U + (1 - alpha) S + B + N.
    """
    c = a2 / alpha ** 2
    v = scenario.sigma_s2 * c / (scenario.sigma_s2 + c)
    return v, (1.0 - alpha) ** 2 * v + b2 + scenario.sigma_n2


def fine_feasibility_margin(scenario: LayeredScenario, params: LayeredParams) -> float:
    """Var(T|U,Y_f) - Var(T|U,S); feasible iff <= 0.

    With v = Var(S|U) and d = Var(Y_f|U), Var(T|U) = v + b2/beta^2,
    Cov(T,Y_f|U) = (1 - alpha) v + b2/beta and Var(T|U,S) = b2/beta^2, so
    the margin is v - ((1 - alpha) v + b2/beta)^2 / d.  Returns +inf where
    the value is not finite (as where alpha or beta is 0), so callers see
    such parameters as infeasible.
    """
    a2, b2, al, be = (np.float64(x) for x in (params.sigma_a2, params.sigma_b2,
                                              params.alpha, params.beta))
    with np.errstate(all="ignore"):
        v, d = _conditional_variances(scenario, a2, b2, al)
        margin = float(v - ((1.0 - al) * v + b2 / be) ** 2 / d)
    return margin if math.isfinite(margin) else math.inf


def single_layer_bounds(scenario: LayeredScenario, de: float) -> tuple[float, float]:
    """(coarse, fine) lower bounds from the single-layer no-auth bound.

    The coarse decoder faces noise sigma_n2 + sigma_v2, the fine decoder
    sigma_n2 alone; any layered point must lie above both.
    """
    s2, n2 = scenario.sigma_s2, scenario.sigma_n2
    return (inner_bound_dr(GaussianScenario(s2, n2 + scenario.sigma_v2), de),
            inner_bound_dr(GaussianScenario(s2, n2), de))


@dataclass(frozen=True)
class SlicePoint:
    triple: DistortionTriple
    params: LayeredParams


def _max_feasible_betas(scenario: LayeredScenario, a2, b2, alpha) -> list:
    """Largest beta with a nonpositive margin for each lane
    ``(a2[i], b2[i], alpha[i])``.

    For beta > 0 the margin rises with beta (stronger refinement needs more
    information through the fine channel) and is 0 where
    (1 - alpha) v + b2/beta = sqrt(d v), so the feasible set is
    (0, b2 / (sqrt(d v) - (1 - alpha) v)]; d v >= (1 - alpha)^2 v^2 keeps
    the root positive.  A lane is None where the root is below 1e-9 or not
    finite and 1e9 where it is above 1e9.
    """
    a2, b2, alpha = (np.asarray(x, dtype=float) for x in (a2, b2, alpha))
    with np.errstate(all="ignore"):
        v, d = _conditional_variances(scenario, a2, b2, alpha)
        roots = b2 / (np.sqrt(d * v) - (1.0 - alpha) * v)
    return [min(beta, 1e9) if beta >= 1e-9 and math.isfinite(beta) else None
            for beta in roots.tolist()]


def region_slice(scenario: LayeredScenario, de: float, resolution: int = 100) -> list[SlicePoint]:
    """Pareto frontier of (drf, drc) pairs at encoding budget de.

    Sweeps the innovation split sigma_a2 in (0, de), sets
    sigma_b2 = de - sigma_a2, fixes the coarse scaling at its largest
    feasible root, and pushes the refinement scaling to the root of the
    fine-layer margin (drf decreases with beta, drc does not depend on it),
    for all split points in one :func:`_max_feasible_betas` call.  Output
    is Pareto-minimal, sorted by drf increasing with drc strictly
    decreasing; :func:`single_codebook_endpoints` reads the time-sharing
    endpoints off it.
    """
    if de <= 0:
        raise ValueError("De must be positive")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    a2s = [de * float(f) for f in np.linspace(1e-3, 1.0 - 1e-3, resolution)]
    b2s = [de - a2 for a2 in a2s]
    alphas = [coarse_alpha_root(scenario, a2, b2) for a2, b2 in zip(a2s, b2s)]
    betas = _max_feasible_betas(scenario, a2s, b2s, alphas)
    cands: list[SlicePoint] = []
    for a2, b2, alpha, beta in zip(a2s, b2s, alphas, betas):
        if beta is None:
            continue
        params = LayeredParams(a2, b2, alpha, beta)
        if coarse_gap(scenario, params) < -FEAS_TOL:
            continue
        cands.append(SlicePoint(distortion_triple(scenario, params), params))
    if not cands:
        return []
    cands.sort(key=lambda sp: (sp.triple.drf, sp.triple.drc))
    pareto: list[SlicePoint] = []
    best_drc = math.inf
    for sp in cands:
        if sp.triple.drc < best_drc - 1e-15:
            pareto.append(sp)
            best_drc = sp.triple.drc
    return pareto


def time_share(point_a: DistortionTriple, point_b: DistortionTriple, lam: float) -> DistortionTriple:
    """Componentwise mix:  lam * point_a + (1 - lam) * point_b.

    The endpoints are single-codebook operating points that already carry
    the time-sharing accounting (see :func:`single_codebook_endpoints`):
    the fine-only system's coarse entry is the prior variance (its harsh
    decoder outputs the prior mean), the coarse-only system's fine entry is
    its own coarse distortion (the mild decoder can always decode the
    degraded layer).
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lambda must be in [0, 1]")
    mix = lambda x, y: lam * x + (1.0 - lam) * y
    return DistortionTriple(
        mix(point_a.de, point_b.de),
        mix(point_a.drc, point_b.drc),
        mix(point_a.drf, point_b.drf),
    )


def single_codebook_endpoints(
    scenario: LayeredScenario, de: float, points: list[SlicePoint]
) -> tuple[DistortionTriple, DistortionTriple]:
    """Time-sharing endpoints at budget de, read off ``points``, the
    :func:`region_slice` at that budget.

    Coarse-only endpoint: all innovation in the coarse layer; its fine
    reconstruction equals the coarse one.  Fine-only endpoint: all
    innovation in the refinement; its coarse reconstruction is the prior
    mean, at distortion sigma_s2.  The slice is sorted by drf with drc
    strictly decreasing, so its last point has the smallest drc and its
    first the smallest drf.
    """
    if not points:
        raise ValueError("empty slice; no endpoints available")
    drc = points[-1].triple.drc
    a = DistortionTriple(de, drc, drc)
    b = DistortionTriple(de, scenario.sigma_s2, points[0].triple.drf)
    return a, b
