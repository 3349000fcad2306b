import math

import numpy as np
import pytest
from scipy.optimize import minimize

from authdist.regions_gaussian import (
    GaussianScenario,
    envelope_dr,
    high_de_beta,
    high_de_point,
    inner_bound_dr,
    low_de_alpha,
    low_de_gap,
    low_de_point,
    outer_boundary,
    qe_dr,
    sweep_points,
)

SCN = GaussianScenario(sigma_s2=100.0, sigma_n2=1.0)


def information_embedding_alpha(scenario: GaussianScenario, sigma_t2: float) -> float:
    """The classical embedding (dirty-paper) scaling for the same noises."""
    if sigma_t2 <= 0:
        raise ValueError("sigma_t2 must be positive")
    return sigma_t2 / (sigma_t2 + scenario.sigma_n2)


def quadratic_residual(scn, t2, alpha):
    """Residual of the alpha quadratic, normalized by its leading coefficient."""
    s2, n2 = scn.sigma_s2, scn.sigma_n2
    lead = t2 * s2 + n2 * s2
    return (alpha ** 2 * lead - 2 * alpha * t2 * s2 - t2 ** 2) / lead


def test_inner_bound_values():
    assert inner_bound_dr(GaussianScenario(1.0, 1.0), 0.0) == pytest.approx(0.5)
    assert inner_bound_dr(SCN, 1.0) == pytest.approx(100.0 / 122.0, abs=1e-14)
    assert inner_bound_dr(SCN, 1e9) < 1e-5


def test_inner_bound_strictly_decreasing():
    des = np.linspace(0.0, 50.0, 100)
    vals = [inner_bound_dr(SCN, float(d)) for d in des]
    assert (np.diff(vals) < 0).all()


def test_low_de_alpha_value_and_root_oracle():
    alpha = low_de_alpha(SCN, 1.0)
    assert alpha == pytest.approx(1.004975246918104, abs=1e-12)
    # independent oracle: numpy root-finding on the quadratic itself
    s2, n2, t2 = 100.0, 1.0, 1.0
    roots = np.roots([t2 * s2 + n2 * s2, -2 * t2 * s2, -t2 ** 2])
    assert alpha == pytest.approx(float(roots.max()), abs=1e-9)


def test_low_de_alpha_noiseless_limit():
    scn = GaussianScenario(100.0, 1e-12)
    assert low_de_alpha(scn, 4.0) == pytest.approx(1.0 + math.sqrt(1.04), rel=1e-9)


def test_costa_comparison_ratio():
    ratio = low_de_alpha(SCN, 1.0) / information_embedding_alpha(SCN, 1.0)
    assert ratio == pytest.approx(2.009950493836208, abs=1e-12)
    assert ratio == pytest.approx(1.0 + math.sqrt(1.0 + 2.0 / 100.0), abs=1e-12)


def test_quadratic_residual_small():
    rng = np.random.default_rng(0)
    for _ in range(200):
        scn = GaussianScenario(10 ** rng.uniform(-2, 3), 10 ** rng.uniform(-2, 2))
        t2 = 10 ** rng.uniform(-3, 3)
        assert abs(quadratic_residual(scn, t2, low_de_alpha(scn, t2))) < 1e-9


def test_low_de_gap_zero_at_root():
    rng = np.random.default_rng(1)
    for _ in range(100):
        scn = GaussianScenario(10 ** rng.uniform(-1, 3), 10 ** rng.uniform(-1, 2))
        t2 = 10 ** rng.uniform(-2, 2)
        gap = low_de_gap(scn, t2, low_de_alpha(scn, t2))
        assert gap >= -1e-9
        assert abs(gap) < 1e-9


def test_low_de_point_value():
    de, dr = low_de_point(SCN, 1.0)
    assert de == 1.0
    assert dr == pytest.approx(0.9804159493296921, abs=1e-12)


def test_low_de_point_small_budget_approaches_prior():
    # at vanishing encoding budget the reconstruction cannot beat the prior:
    # Dr -> sigma_s2, the authentication cost at low distortion
    _, dr = low_de_point(SCN, 1e-10)
    assert dr == pytest.approx(SCN.sigma_s2, rel=1e-4)


def test_low_de_point_dominates_inner():
    for t2 in np.logspace(-3, 3, 40):
        de, dr = low_de_point(SCN, float(t2))
        assert dr >= inner_bound_dr(SCN, de) - 1e-12


def test_high_de_point_unit_case():
    scn = GaussianScenario(1.0, 1.0)
    assert high_de_beta(scn, 1.0) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    de, dr = high_de_point(scn, 1.0)
    assert de == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
    assert dr == pytest.approx(0.5, abs=1e-15)


def test_high_de_limits():
    # huge auxiliary noise: reconstruction no better than the prior
    _, dr = high_de_point(SCN, 1e12)
    assert dr == pytest.approx(SCN.sigma_s2, rel=1e-6)
    # vanishing channel noise: no amplification needed
    scn = GaussianScenario(100.0, 1e-12)
    beta = high_de_beta(scn, 2.0)
    assert beta < 1e-5
    de, dr = high_de_point(scn, 2.0)
    assert de == pytest.approx(scn.sigma_s2, rel=1e-5)
    assert dr == pytest.approx(100.0 * 2.0 / 102.0, abs=1e-12)


def test_envelope_below_sampled_regimes():
    low, high = sweep_points(SCN, 200)
    curve = outer_boundary(SCN, 200)
    for pts in (low, high):
        interp = np.interp(pts[:, 0], curve.de, curve.dr)
        assert (interp <= pts[:, 1] + 1e-9).all()


def test_envelope_monotone_and_above_inner():
    des = np.logspace(-3, 4, 120)
    env = envelope_dr(SCN, des)
    assert (np.diff(env) <= 1e-12).all()
    inner = np.array([inner_bound_dr(SCN, float(d)) for d in des])
    assert (inner <= env + 1e-12).all()


def test_qe_values():
    assert qe_dr(SCN, 0.0) == pytest.approx(100.0)
    assert qe_dr(SCN, 1.0) == pytest.approx(50.0)
    # exhibits the gap against the achievable low-De point at the same budget
    assert qe_dr(SCN, 1.0) / low_de_point(SCN, 1.0)[1] > 50.0


def test_qe_never_beats_inner_bound():
    for de in np.logspace(-3, 4, 60):
        assert inner_bound_dr(SCN, float(de)) <= qe_dr(SCN, float(de)) + 1e-12


def _high_de_sigma_t2_200_steps(scn, de):
    """sigma_t2 at which the high-De regime spends the budget de, by a
    200-step geometric bisection on [1e-12, 1e12] * sigma_s2."""
    lo, hi = 1e-12 * scn.sigma_s2, 1e12 * scn.sigma_s2
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if high_de_point(scn, mid)[0] > de:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _innovation_eval(scenario, b, c, d):
    """Distortions and gap for U = S + cT, X = bU + dT with T ~ N(0, 1).

    Returns (de, dr, gap_bits) computed from the joint Gaussian covariance.
    """
    s2, n2 = scenario.sigma_s2, scenario.sigma_n2
    # X = b S + (b c + d) T
    coef_t = b * c + d
    de = (b - 1.0) ** 2 * s2 + coef_t ** 2
    var_u = s2 + c * c
    var_x = b * b * s2 + coef_t ** 2
    var_y = var_x + n2
    cov_uy = b * s2 + c * coef_t
    cov_us = s2
    dr = s2 - cov_us ** 2 / var_u
    det_uy = var_u * var_y - cov_uy ** 2
    det_us = var_u * s2 - cov_us ** 2
    if det_uy <= 0 or det_us <= 0:
        return de, max(dr, 1e-300), -math.inf
    i_uy = 0.5 * math.log2(var_u * var_y / det_uy)
    i_su = 0.5 * math.log2(var_u * s2 / det_us)
    return de, dr, i_uy - i_su


def best_gaussian_codebook_dr(scenario, de, restarts=12, seed=0):
    """Refinement search over general Gaussian innovations (b, c, d), the
    oracle for the closed forms.

    Minimizes D_r subject to the information gap >= 0 and encoding
    distortion <= de; always at least as good as the two closed-form
    regimes at the same budget (they are feasible starting points).
    """
    def pack_eval(v):
        return _innovation_eval(scenario, v[0], v[1], v[2])

    cons = [
        {"type": "ineq", "fun": lambda v: pack_eval(v)[2]},
        {"type": "ineq", "fun": lambda v: de - pack_eval(v)[0]},
    ]
    # low-De regime: U = S + T/alpha, X = S + T  ->  b=1, c=sqrt(t)/alpha, d adjusts
    alpha = low_de_alpha(scenario, de)
    starts = [[1.0, math.sqrt(de) / alpha, math.sqrt(de) * (1.0 - 1.0 / alpha)]]
    # high-De regime: U = S + T, X = beta U  ->  b=beta, c=sqrt(t2), d=0
    t2 = _high_de_sigma_t2_200_steps(scenario, de)
    starts.append([high_de_beta(scenario, t2), math.sqrt(t2), 0.0])
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        starts.append([rng.uniform(0.2, 2.0), rng.uniform(0.01, 3.0) * math.sqrt(de),
                       rng.uniform(-1.0, 1.0) * math.sqrt(de)])

    best = math.inf
    for v0 in starts:
        d0, r0, g0 = pack_eval(v0)
        if g0 >= -1e-9 and d0 <= de * (1 + 1e-9):
            best = min(best, r0)
        res = minimize(lambda v: pack_eval(v)[1], v0, method="SLSQP", constraints=cons,
                       options={"maxiter": 200, "ftol": 1e-14})
        d1, r1, g1 = pack_eval(res.x)
        if g1 >= -1e-7 and d1 <= de * (1 + 1e-7):
            best = min(best, r1)
    return best


def test_refinement_dominates_both_regimes():
    # the search starts from both regimes' points at the same budget, so it
    # can only improve on them; the inner bound lower-bounds any Gaussian
    # codebook, the search's included
    for de in (0.5, 1.0, 10.0):
        refined = best_gaussian_codebook_dr(SCN, de, restarts=6, seed=0)
        assert refined <= low_de_point(SCN, de)[1] + 1e-6
        # high regime point at the same budget, via bisection on sigma_t2
        lo, hi = 1e-9, 1e9
        for _ in range(100):
            mid = math.sqrt(lo * hi)
            if high_de_point(SCN, mid)[0] > de:
                lo = mid
            else:
                hi = mid
        assert refined <= high_de_point(SCN, lo)[1] + 1e-6
        assert refined >= inner_bound_dr(SCN, de) - 1e-9


def test_scenario_validation():
    with pytest.raises(ValueError):
        GaussianScenario(0.0, 1.0)
    with pytest.raises(ValueError):
        GaussianScenario(1.0, -1.0)
    with pytest.raises(ValueError):
        low_de_alpha(SCN, 0.0)
