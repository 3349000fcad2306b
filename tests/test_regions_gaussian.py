import math

import numpy as np
import pytest

from authdist.regions_gaussian import (
    GaussianScenario,
    _high_de_sigma_t2,
    best_gaussian_codebook_dr,
    envelope_dr,
    high_de_beta,
    high_de_point,
    information_embedding_alpha,
    inner_bound_dr,
    low_de_alpha,
    low_de_gap,
    low_de_point,
    outer_boundary,
    qe_dr,
    sweep_points,
)

SCN = GaussianScenario(sigma_s2=100.0, sigma_n2=1.0)


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


def test_refinement_dominates_both_regimes():
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


def _high_de_sigma_t2_200_steps(scn, de):
    """The former fixed-length bisection, kept as the oracle."""
    lo, hi = 1e-12 * scn.sigma_s2, 1e12 * scn.sigma_s2
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if high_de_point(scn, mid)[0] > de:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_high_de_bisection_matches_200_step_oracle():
    rng = np.random.default_rng(23)
    for _ in range(400):
        scn = GaussianScenario(10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 3))
        # budgets from far below sigma_s2 to far above sigma_n2
        de = 10 ** rng.uniform(-3, 3) * (scn.sigma_s2 if rng.random() < 0.5 else scn.sigma_n2)
        assert _high_de_sigma_t2(scn, de) == _high_de_sigma_t2_200_steps(scn, de)


def test_high_de_bisection_rejects_a_budget_above_its_start():
    de_at_lo = high_de_point(SCN, 1e-12 * SCN.sigma_s2)[0]
    for de in (de_at_lo, 2 * de_at_lo):
        with pytest.raises(ValueError):
            _high_de_sigma_t2(SCN, de)
        with pytest.raises(ValueError):
            best_gaussian_codebook_dr(SCN, de, restarts=0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        GaussianScenario(0.0, 1.0)
    with pytest.raises(ValueError):
        GaussianScenario(1.0, -1.0)
    with pytest.raises(ValueError):
        low_de_alpha(SCN, 0.0)
