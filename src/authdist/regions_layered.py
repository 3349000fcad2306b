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
by sigma_a2 and the noise by sigma_n2 + sigma_v2 + sigma_b2.  The fine
layer must satisfy I(T;Y_f|U) - I(S;T|U) >= 0, evaluated through the
equivalent Gaussian determinant condition

    det(Cov[T,U,Y_f]) / det(Cov[U,Y_f]) <= det(Cov[T,U,S]) / det(Cov[U,S]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def coarse_alpha_root(scenario: LayeredScenario, sigma_a2: float, sigma_b2: float) -> float:
    """Largest coarse scaling with nonnegative gap; the refinement noise B
    adds to the effective channel noise seen by the coarse layer."""
    if sigma_a2 <= 0 or sigma_b2 < 0:
        raise ValueError("invalid innovation variances")
    s2 = scenario.sigma_s2
    eff_n2 = scenario.sigma_n2 + scenario.sigma_v2 + sigma_b2
    return (1.0 + math.sqrt(1.0 + sigma_a2 / s2 + eff_n2 / s2)) / (1.0 + eff_n2 / sigma_a2)


def coarse_gap(scenario: LayeredScenario, params: LayeredParams) -> float:
    """I(U;Y_c) - I(S;U) in bits, closed form."""
    s2 = scenario.sigma_s2
    a2, b2, al = params.sigma_a2, params.sigma_b2, params.alpha
    eff = scenario.sigma_n2 + scenario.sigma_v2 + b2
    num = a2 * (a2 + s2 + eff)
    den = a2 * s2 * (1.0 - al) ** 2 + eff * (a2 + al ** 2 * s2)
    return 0.5 * math.log2(num / den)


def coarse_gap_covariance(scenario: LayeredScenario, params: LayeredParams) -> float:
    """Same gap evaluated from the joint Gaussian covariance (oracle route)."""
    s2 = scenario.sigma_s2
    a2, b2, al = params.sigma_a2, params.sigma_b2, params.alpha
    var_u = s2 + a2 / al ** 2
    var_yc = s2 + a2 + b2 + scenario.sigma_n2 + scenario.sigma_v2
    cov_uyc = s2 + a2 / al
    det_uy = var_u * var_yc - cov_uyc ** 2
    det_us = var_u * s2 - s2 * s2
    if det_uy <= 0 or det_us <= 0:
        return -math.inf
    i_uy = 0.5 * math.log2(var_u * var_yc / det_uy)
    i_su = 0.5 * math.log2(var_u * s2 / det_us)
    return i_uy - i_su


def _fine_covariances(scenario: LayeredScenario, params: LayeredParams):
    s2 = scenario.sigma_s2
    a2, b2, al, be = params.sigma_a2, params.sigma_b2, params.alpha, params.beta
    var_t = s2 + b2 / be ** 2
    var_u = s2 + a2 / al ** 2
    var_yf = s2 + a2 + b2 + scenario.sigma_n2
    cov_tu = s2
    cov_ty = s2 + b2 / be
    cov_uy = s2 + a2 / al
    lam_tuy = np.array(
        [[var_t, cov_tu, cov_ty], [cov_tu, var_u, cov_uy], [cov_ty, cov_uy, var_yf]]
    )
    lam_uy = np.array([[var_u, cov_uy], [cov_uy, var_yf]])
    lam_tus = np.array([[var_t, cov_tu, s2], [cov_tu, var_u, s2], [s2, s2, s2]])
    lam_us = np.array([[var_u, s2], [s2, s2]])
    return lam_tuy, lam_uy, lam_tus, lam_us


def fine_feasibility_margin(scenario: LayeredScenario, params: LayeredParams) -> float:
    """lhs - rhs of the determinant condition; feasible iff <= 0.

    Returns +inf for degenerate (near-singular) covariances so callers see
    them as infeasible.
    """
    if params.alpha == 0.0 or params.beta == 0.0:
        return math.inf
    lam_tuy, lam_uy, lam_tus, lam_us = _fine_covariances(scenario, params)
    if not all(np.isfinite(m).all() for m in (lam_tuy, lam_uy, lam_tus, lam_us)):
        return math.inf
    dets = []
    for m in (lam_tuy, lam_uy, lam_tus, lam_us):
        sign, logdet = np.linalg.slogdet(m)
        if sign <= 0 or not math.isfinite(logdet):
            return math.inf
        dets.append(logdet)
    lhs = math.exp(dets[0] - dets[1])
    rhs = math.exp(dets[2] - dets[3])
    return lhs - rhs


def fine_feasible(scenario: LayeredScenario, params: LayeredParams) -> bool:
    """Whether the refinement layer's information constraint holds."""
    return fine_feasibility_margin(scenario, params) <= FEAS_TOL


def single_layer_bounds(scenario: LayeredScenario, de: float) -> tuple[float, float]:
    """(coarse, fine) lower bounds from the single-layer no-auth bound.

    The coarse decoder faces noise sigma_n2 + sigma_v2, the fine decoder
    sigma_n2 alone; any layered point must lie above both.
    """
    if de < 0:
        raise ValueError("De must be >= 0")
    s2, n2, v2 = scenario.sigma_s2, scenario.sigma_n2, scenario.sigma_v2
    root = (math.sqrt(de) + math.sqrt(s2)) ** 2
    drc = s2 * (n2 + v2) / (n2 + v2 + root)
    drf = s2 * n2 / (n2 + root)
    return drc, drf


@dataclass(frozen=True)
class SlicePoint:
    triple: DistortionTriple
    params: LayeredParams


def _max_feasible_beta(scenario: LayeredScenario, a2: float, b2: float, alpha: float):
    """Largest beta satisfying the determinant condition, by bisection.

    The margin is increasing in beta (stronger refinement needs more
    information through the fine channel), so the feasible set is an
    interval (0, beta_max].  The geometric bisection keeps lo feasible and
    hi infeasible and stops when their midpoint rounds to one of them,
    i.e. when they are adjacent floats (about 60 steps from [1e-9, 1e9]);
    it returns lo, the last feasible float.
    """
    lo = 1e-9
    if fine_feasibility_margin(scenario, LayeredParams(a2, b2, alpha, lo)) > FEAS_TOL:
        return None
    hi = 1e9
    if fine_feasibility_margin(scenario, LayeredParams(a2, b2, alpha, hi)) <= FEAS_TOL:
        return hi
    while (mid := math.sqrt(lo * hi)) not in (lo, hi):
        if fine_feasibility_margin(scenario, LayeredParams(a2, b2, alpha, mid)) <= FEAS_TOL:
            lo = mid
        else:
            hi = mid
    return lo


def region_slice(scenario: LayeredScenario, de: float, resolution: int = 100) -> list[SlicePoint]:
    """Pareto frontier of (drf, drc) pairs at encoding budget de.

    Sweeps the innovation split sigma_a2 in (0, de), sets
    sigma_b2 = de - sigma_a2, fixes the coarse scaling at its largest
    feasible root, and pushes the refinement scaling to the edge of the
    determinant condition (drf decreases with beta, drc does not depend on
    it).  Output is Pareto-minimal, sorted by drf increasing with drc
    strictly decreasing; :func:`single_codebook_endpoints` reads the
    time-sharing endpoints off it.
    """
    if de <= 0:
        raise ValueError("De must be positive")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    frac = np.linspace(1e-3, 1.0 - 1e-3, resolution)
    cands: list[SlicePoint] = []
    for f in frac:
        a2 = de * float(f)
        b2 = de - a2
        alpha = coarse_alpha_root(scenario, a2, b2)
        beta = _max_feasible_beta(scenario, a2, b2, alpha)
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
