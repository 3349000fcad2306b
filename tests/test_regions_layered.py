import math

import numpy as np
import pytest

from authdist.regions_gaussian import GaussianScenario, inner_bound_dr
from authdist.regions_layered import (
    FEAS_TOL,
    DistortionTriple,
    LayeredParams,
    LayeredScenario,
    coarse_alpha_root,
    coarse_gap,
    coarse_gap_covariance,
    distortion_triple,
    fine_feasibility_margin,
    fine_feasible,
    region_slice,
    single_codebook_endpoints,
    single_layer_bounds,
    time_share,
    _max_feasible_beta,
)

SCN = LayeredScenario(sigma_s2=1000.0, sigma_n2=1.0, sigma_v2=10.0)


def test_distortion_triple_exact_values():
    t = distortion_triple(SCN, LayeredParams(0.5, 0.5, 1.0, 1.0))
    assert t.de == pytest.approx(1.0)
    assert t.drc == pytest.approx(500.0 / 1000.5, abs=1e-12)      # 0.499750...
    assert t.drf == pytest.approx(250.0 / 1000.25, abs=1e-12)     # 0.249938...


def test_distortion_triple_limits():
    # large coarse scaling wipes out coarse distortion
    t = distortion_triple(SCN, LayeredParams(0.5, 0.5, 1e6, 1.0))
    assert t.drc < 1e-9
    # refinement never hurts
    rng = np.random.default_rng(7)
    for _ in range(300):
        params = LayeredParams(10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 2),
                               rng.uniform(0.01, 5.0), rng.uniform(0.01, 5.0))
        t = distortion_triple(SCN, params)
        assert t.drf <= t.drc + 1e-12


def test_triple_validation():
    with pytest.raises(ValueError):
        DistortionTriple(1.0, 0.2, 0.5)    # fine worse than coarse
    with pytest.raises(ValueError):
        LayeredParams(0.0, 1.0, 1.0, 1.0)


def test_coarse_gap_zero_at_substituted_root():
    alpha = coarse_alpha_root(SCN, 0.5, 0.5)
    gap = coarse_gap(SCN, LayeredParams(0.5, 0.5, alpha, 1.0))
    assert gap == pytest.approx(0.0, abs=1e-9)


def test_coarse_gap_alpha_zero_direct_substitution():
    # with alpha = 0 and vanishing refinement noise the closed form reduces to
    # (1/2) log2[a(a+s+n+v) / (a s + (n+v) a)]
    a2 = 0.7
    params = LayeredParams(a2, 1e-30, 0.0, 1.0)
    s, n, v = SCN.sigma_s2, SCN.sigma_n2, SCN.sigma_v2
    expected = 0.5 * math.log2(a2 * (a2 + s + n + v) / (a2 * s + (n + v) * a2))
    assert coarse_gap(SCN, params) == pytest.approx(expected, abs=1e-9)


def test_coarse_gap_matches_covariance_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        params = LayeredParams(10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 2),
                               rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0))
        closed = coarse_gap(SCN, params)
        cov = coarse_gap_covariance(SCN, params)
        worst = max(worst, abs(closed - cov))
    assert worst < 1e-8


def test_fine_feasible_noiseless_channel():
    # infeasible at the nominal noise, feasible as the fine channel cleans up
    alpha = coarse_alpha_root(SCN, 0.5, 0.5)
    params = LayeredParams(0.5, 0.5, alpha, 1.0)
    assert not fine_feasible(SCN, params)
    clean = LayeredScenario(SCN.sigma_s2, 1e-9, SCN.sigma_v2)
    assert fine_feasible(clean, params)


def test_fine_feasibility_shrinks_with_beta():
    # margin increases with beta: stronger refinement needs more channel
    # information, so the feasible set is an interval (0, beta_max]
    alpha = coarse_alpha_root(SCN, 0.5, 0.5)
    margins = [fine_feasibility_margin(SCN, LayeredParams(0.5, 0.5, alpha, b))
               for b in (0.01, 0.1, 0.3, 1.0, 3.0)]
    assert all(m1 < m2 for m1, m2 in zip(margins, margins[1:]))
    feas = [m <= 1e-9 for m in margins]
    assert feas == sorted(feas, reverse=True)


def test_fine_feasible_degenerate_params():
    # alpha = 0 makes the coarse description pure noise with infinite variance
    assert not fine_feasible(SCN, LayeredParams(0.5, 0.5, 0.0, 1.0))


def test_single_layer_bounds_exact_values():
    drc, drf = single_layer_bounds(SCN, 1.0)
    assert drc == pytest.approx(10.230221336167203, abs=1e-9)
    assert drf == pytest.approx(0.938750691793865, abs=1e-9)


def test_single_layer_bounds_degenerate_broadcast():
    tiny = LayeredScenario(1000.0, 1.0, 1e-15)
    drc, drf = single_layer_bounds(tiny, 2.0)
    inner = inner_bound_dr(GaussianScenario(1000.0, 1.0), 2.0)
    assert drc == pytest.approx(inner, rel=1e-12)
    assert drf == pytest.approx(inner, rel=1e-12)


def test_single_layer_bounds_vanish_at_large_budget():
    drc, drf = single_layer_bounds(SCN, 1e12)
    assert drc < 1e-5 and drf < 1e-6


@pytest.fixture(scope="module")
def slice_de1():
    return region_slice(SCN, 1.0, resolution=80)


def test_slice_points_witness_their_constraints(slice_de1):
    for sp in slice_de1:
        assert coarse_gap(SCN, sp.params) >= -1e-9
        assert fine_feasible(SCN, sp.params)
        assert sp.triple.de == pytest.approx(1.0, abs=1e-12)


def test_slice_is_pareto_and_sorted(slice_de1):
    drf = [sp.triple.drf for sp in slice_de1]
    drc = [sp.triple.drc for sp in slice_de1]
    assert all(a < b for a, b in zip(drf, drf[1:]))
    assert all(a > b for a, b in zip(drc, drc[1:]))


def test_slice_respects_single_layer_bounds(slice_de1):
    drc_lo, drf_lo = single_layer_bounds(SCN, 1.0)
    for sp in slice_de1:
        assert sp.triple.drc >= drc_lo - 1e-9
        assert sp.triple.drf >= drf_lo - 1e-9


def test_coarse_corner_improves_with_budget():
    prev = math.inf
    for de_db in (-10, -5, 0, 5, 10):
        pts = region_slice(SCN, 10 ** (de_db / 10), resolution=40)
        best_drc = min(sp.triple.drc for sp in pts)
        assert best_drc < prev
        prev = best_drc


def test_time_share_endpoints_and_midpoint():
    a = DistortionTriple(1.0, 30.0, 30.0)
    b = DistortionTriple(1.0, 1000.0, 2.0)
    assert time_share(a, b, 1.0) == a
    assert time_share(a, b, 0.0) == b
    mid = time_share(a, b, 0.5)
    assert (mid.de, mid.drc, mid.drf) == (1.0, 515.0, 16.0)
    with pytest.raises(ValueError):
        time_share(a, b, 1.5)


def test_time_share_dominated_by_slice(slice_de1):
    end_a, end_b = single_codebook_endpoints(SCN, 1.0, slice_de1)
    assert end_b.drc == SCN.sigma_s2        # fine-only system: coarse = prior mean
    assert end_a.drf == end_a.drc           # coarse-only system: degraded decode
    drf = np.array([sp.triple.drf for sp in slice_de1])
    drc = np.array([sp.triple.drc for sp in slice_de1])
    for lam in np.linspace(0.05, 0.95, 19):
        mix = time_share(end_a, end_b, float(lam))
        slice_drc = float(np.interp(mix.drf, drf, drc))
        assert slice_drc <= mix.drc + 1e-9


@pytest.mark.parametrize("scn", [SCN, LayeredScenario(sigma_s2=10.0, sigma_n2=1.0, sigma_v2=1.0)])
@pytest.mark.parametrize("de", [0.1, 1.0, 10.0])
def test_beta_edge_is_last_feasible_float(scn, de):
    for f in np.linspace(1e-3, 1.0 - 1e-3, 15):
        a2 = de * float(f)
        b2 = de - a2
        alpha = coarse_alpha_root(scn, a2, b2)
        beta = _max_feasible_beta(scn, a2, b2, alpha)
        assert beta is not None
        assert fine_feasibility_margin(scn, LayeredParams(a2, b2, alpha, beta)) <= FEAS_TOL
        above = float(np.nextafter(beta, np.inf))
        assert fine_feasibility_margin(scn, LayeredParams(a2, b2, alpha, above)) > FEAS_TOL


def test_endpoints_of_an_empty_slice_are_refused():
    with pytest.raises(ValueError):
        single_codebook_endpoints(SCN, 1.0, [])
