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
layer must satisfy I(T;Y_f|U) - I(S;T|U) >= 0, evaluated through the
equivalent Gaussian determinant condition

    det(Cov[T,U,Y_f]) / det(Cov[U,Y_f]) <= det(Cov[T,U,S]) / det(Cov[U,S]).
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


def fine_margins(scenario: LayeredScenario, a2, b2, alpha, beta) -> np.ndarray:
    """:func:`fine_feasibility_margin` over lanes, bit for bit.

    ``a2``, ``b2``, ``alpha`` and ``beta`` are equal-length sequences holding
    one lane's sigma_a2, sigma_b2 and scalings each.  A lane's margin is
    +inf where alpha or beta is 0, where a covariance entry is not finite,
    or where a determinant's sign is not positive.  One ``slogdet`` call per
    covariance stack factors each matrix as a call on that matrix alone
    does; the squares and ``exp`` stay Python's per lane, since numpy's
    may differ from them in the last ulp.
    """
    a2, b2, alpha, beta = (np.asarray(x, dtype=float) for x in (a2, b2, alpha, beta))
    out = np.full(a2.shape, math.inf)
    live = np.flatnonzero((alpha != 0.0) & (beta != 0.0))
    s2 = scenario.sigma_s2
    a2, b2, al, be = a2[live], b2[live], alpha[live], beta[live]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        var_t = s2 + b2 / np.array([x ** 2 for x in be.tolist()])
        var_u = s2 + a2 / np.array([x ** 2 for x in al.tolist()])
        var_yf = s2 + a2 + b2 + scenario.sigma_n2
        cov_ty = s2 + b2 / be
        cov_uy = s2 + a2 / al
    s = np.full(live.size, s2)
    lam_tuy = np.stack([var_t, s, cov_ty, s, var_u, cov_uy, cov_ty, cov_uy, var_yf],
                       -1).reshape(-1, 3, 3)
    # the four matrices are lam_tuy = Cov[T,U,Y_f], lam_tus = Cov[T,U,S] and
    # their (U, .) blocks, so lam_tuy holds every entry of them
    finite = np.isfinite(lam_tuy).all(axis=(1, 2))
    live, lam_tuy = live[finite], lam_tuy[finite]
    lam_tus = lam_tuy.copy()
    lam_tus[:, 2, :] = lam_tus[:, :, 2] = s2
    ok = np.ones(live.size, dtype=bool)
    dets = []
    for m in (lam_tuy, lam_tuy[:, 1:, 1:], lam_tus, lam_tus[:, 1:, 1:]):
        sign, logdet = np.linalg.slogdet(m)
        ok &= (sign > 0) & np.isfinite(logdet)
        dets.append(logdet)
    d0, d1, d2, d3 = (d[ok] for d in dets)
    lhs = [math.exp(x) for x in (d0 - d1).tolist()]
    rhs = [math.exp(x) for x in (d2 - d3).tolist()]
    out[live[ok]] = np.subtract(lhs, rhs)
    return out


def fine_feasibility_margin(scenario: LayeredScenario, params: LayeredParams) -> float:
    """lhs - rhs of the determinant condition; feasible iff <= 0.

    Returns +inf for degenerate (near-singular) covariances so callers see
    them as infeasible.  One lane of :func:`fine_margins`.
    """
    return float(fine_margins(scenario, [params.sigma_a2], [params.sigma_b2],
                              [params.alpha], [params.beta])[0])


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
    """Largest beta satisfying the determinant condition for each lane
    ``(a2[i], b2[i], alpha[i])``, by bisections run in lockstep.

    The margin is increasing in beta (stronger refinement needs more
    information through the fine channel), so each lane's feasible set is
    an interval (0, beta_max].  A lane is None when 1e-9 is infeasible and
    1e9 when 1e9 is feasible.  Otherwise its geometric bisection keeps lo
    feasible and hi infeasible, and the lane stops on its own when their
    midpoint rounds to one of them, i.e. when they are adjacent floats
    (about 60 steps from [1e-9, 1e9]); it returns lo, the last feasible
    float.  Each step evaluates the margins of all open lanes in one
    :func:`fine_margins` call.
    """
    a2, b2, alpha = (np.asarray(x, dtype=float) for x in (a2, b2, alpha))

    def feasible(lanes, beta):
        return fine_margins(scenario, a2[lanes], b2[lanes], alpha[lanes], beta) <= FEAS_TOL

    out: list = [None] * a2.size
    lanes = np.arange(a2.size)
    lanes = lanes[feasible(lanes, np.full(lanes.size, 1e-9))]
    top = feasible(lanes, np.full(lanes.size, 1e9))
    for i in lanes[top].tolist():
        out[i] = 1e9
    lanes = lanes[~top]
    lo, hi = np.full(lanes.size, 1e-9), np.full(lanes.size, 1e9)
    while lanes.size:
        mid = np.array([math.sqrt(x) for x in (lo * hi).tolist()])
        done = (mid == lo) | (mid == hi)
        for i, beta in zip(lanes[done].tolist(), lo[done].tolist()):
            out[i] = beta
        lanes, lo, hi, mid = lanes[~done], lo[~done], hi[~done], mid[~done]
        ok = feasible(lanes, mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return out


def region_slice(scenario: LayeredScenario, de: float, resolution: int = 100) -> list[SlicePoint]:
    """Pareto frontier of (drf, drc) pairs at encoding budget de.

    Sweeps the innovation split sigma_a2 in (0, de), sets
    sigma_b2 = de - sigma_a2, fixes the coarse scaling at its largest
    feasible root, and pushes the refinement scaling to the edge of the
    determinant condition (drf decreases with beta, drc does not depend on
    it); the beta bisections of all split points run in lockstep, in one
    :func:`_max_feasible_betas` call.  Output is Pareto-minimal, sorted by
    drf increasing with drc strictly decreasing;
    :func:`single_codebook_endpoints` reads the time-sharing endpoints off
    it.
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
