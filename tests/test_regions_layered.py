import math
from fractions import Fraction

import numpy as np
import pytest

from authdist.regions_gaussian import GaussianScenario, inner_bound_dr, low_de_gap
from authdist.regions_layered import (
    DistortionTriple,
    LayeredParams,
    LayeredScenario,
    coarse_alpha_root,
    distortion_triple,
    fine_feasibility_margin,
    region_slice,
    single_codebook_endpoints,
    single_layer_bounds,
    time_share,
    _max_feasible_betas,
)

SCN = LayeredScenario(sigma_s2=1000.0, sigma_n2=1.0, sigma_v2=10.0)
FEAS_TOL = 1e-9


def coarse_gap(scenario: LayeredScenario, params: LayeredParams) -> float:
    """I(U;Y_c) - I(S;U) in bits, closed form: the single-layer gap at the
    coarse layer's noise sigma_n2 + sigma_v2 + sigma_b2, the channel whose
    root coarse_alpha_root takes."""
    noise = scenario.sigma_n2 + scenario.sigma_v2 + params.sigma_b2
    return low_de_gap(GaussianScenario(scenario.sigma_s2, noise), params.sigma_a2, params.alpha)


def coarse_gap_covariance(scenario: LayeredScenario, params: LayeredParams) -> float:
    """The coarse gap evaluated from the joint Gaussian covariance (oracle route)."""
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


def fine_feasible(scenario: LayeredScenario, params: LayeredParams) -> bool:
    """Whether the refinement layer's information constraint holds."""
    return fine_feasibility_margin(scenario, params) <= FEAS_TOL


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


@pytest.mark.oracle
@pytest.mark.parametrize("call, message", [
    (lambda: LayeredScenario(0.0, 1.0, 10.0), "variances must be positive"),
    (lambda: LayeredScenario(1000.0, 1.0, -1.0), "variances must be positive"),
    (lambda: LayeredParams(0.5, 0.5, math.nan, 1.0), "must be finite"),
    (lambda: LayeredParams(0.5, 0.5, 1.0, math.inf), "must be finite"),
    (lambda: DistortionTriple(-1e-9, 0.5, 0.2), "de must be >= 0"),
    (lambda: DistortionTriple(1.0, 0.5, 0.0), "0 < drf <= drc"),
    (lambda: region_slice(SCN, 0.0), "De must be positive"),
    (lambda: region_slice(SCN, -1.0), "De must be positive"),
], ids=["scenario s2 = 0", "scenario v2 < 0", "params nan alpha", "params inf beta",
        "triple de < 0", "triple drf = 0", "slice De = 0", "slice De < 0"])
def test_layered_types_and_slice_refuse_arguments_outside_their_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
        p = sp.params
        assert coarse_gap(SCN, p) >= -1e-9
        assert fine_feasible(SCN, p)
        assert _scalar_margin(SCN, p.sigma_a2, p.sigma_b2, p.alpha, p.beta) <= FEAS_TOL
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


def test_endpoints_of_an_empty_slice_are_refused():
    with pytest.raises(ValueError):
        single_codebook_endpoints(SCN, 1.0, [])


# The determinant margin (by slogdet) and the per-lane bisection at FEAS_TOL
# that the conditional-variance margin and its closed-form root replaced,
# kept as oracles, and the determinant condition in exact arithmetic.

def _scalar_margin(scenario, a2, b2, al, be):
    if al == 0.0 or be == 0.0:
        return math.inf
    s2 = scenario.sigma_s2
    var_t = s2 + b2 / be ** 2
    var_u = s2 + a2 / al ** 2
    var_yf = s2 + a2 + b2 + scenario.sigma_n2
    cov_tu = s2
    cov_ty = s2 + b2 / be
    cov_uy = s2 + a2 / al
    mats = (np.array([[var_t, cov_tu, cov_ty], [cov_tu, var_u, cov_uy], [cov_ty, cov_uy, var_yf]]),
            np.array([[var_u, cov_uy], [cov_uy, var_yf]]),
            np.array([[var_t, cov_tu, s2], [cov_tu, var_u, s2], [s2, s2, s2]]),
            np.array([[var_u, s2], [s2, s2]]))
    if not all(np.isfinite(m).all() for m in mats):
        return math.inf
    dets = []
    for m in mats:
        sign, logdet = np.linalg.slogdet(m)
        if sign <= 0 or not math.isfinite(logdet):
            return math.inf
        dets.append(logdet)
    return math.exp(dets[0] - dets[1]) - math.exp(dets[2] - dets[3])


def _scalar_max_beta(scenario, a2, b2, alpha):
    feasible = lambda beta: _scalar_margin(scenario, a2, b2, alpha, beta) <= FEAS_TOL
    lo, hi = 1e-9, 1e9
    if not feasible(lo):
        return None
    if feasible(hi):
        return hi
    while (mid := math.sqrt(lo * hi)) not in (lo, hi):
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _random_lanes(seed, scenarios=24, lanes=25):
    """(scenario, a2, b2, alpha) lane lists at random budgets and splits,
    alpha at its coarse root; SCN and a small-source scenario come first."""
    rng = np.random.default_rng(seed)
    fixed = [SCN, LayeredScenario(sigma_s2=10.0, sigma_n2=1.0, sigma_v2=1.0)]
    for k in range(scenarios):
        scn = fixed[k] if k < len(fixed) else LayeredScenario(
            10 ** rng.uniform(-1, 4), 10 ** rng.uniform(-2, 1), 10 ** rng.uniform(-2, 2))
        de = 10 ** rng.uniform(-2, 2)
        a2 = (de * rng.uniform(1e-3, 1.0 - 1e-3, lanes)).tolist()
        b2 = [de - x for x in a2]
        yield scn, a2, b2, [coarse_alpha_root(scn, x, y) for x, y in zip(a2, b2)]


def _golden_lanes():
    """The split points of out/layered_slices.csv: SCN (SNR 30 dB, harsh
    excess 10 dB) at De of 10, 5, 0, -5 and -10 dB, resolution 80."""
    for de_db in (10, 5, 0, -5, -10):
        de = 10.0 ** (de_db / 10.0)
        a2 = [de * float(f) for f in np.linspace(1e-3, 1.0 - 1e-3, 80)]
        b2 = [de - x for x in a2]
        yield SCN, a2, b2, [coarse_alpha_root(SCN, x, y) for x, y in zip(a2, b2)]


FAINT = LayeredScenario(1e-12, 1.0, 10.0)      # a source all but known
FAINTER = LayeredScenario(1e-20, 1.0, 10.0)


def _branch_lanes():
    """SCN lanes on both sides of the None branch, then faint-source lanes
    up to the 1e9 branch, as (scenario, a2, b2, alpha) lane lists."""
    alpha = coarse_alpha_root(SCN, 0.5, 0.5)
    yield SCN, *zip((0.5, 0.5, alpha), (1e-6, 1e-3 - 1e-6, 1e3), (0.5, 0.5, 0.0), (0.1, 0.9, 0.5),
                    (0.5, 1e-12, coarse_alpha_root(SCN, 0.5, 1e-12)))
    for scn in (FAINT, FAINTER):
        yield scn, *zip(*[(a2, de - a2, coarse_alpha_root(scn, a2, de - a2))
                          for de in (1e-12, 1e-3, 1.0) for a2 in (1e-3 * de, 0.5 * de)])


def _exact_margin(scenario, a2, b2, al, be):
    """lhs - rhs of the determinant condition, every covariance entry and
    determinant a Fraction of the float inputs, so its sign is exact."""
    s2, n2, a2, b2, al, be = map(Fraction, (scenario.sigma_s2, scenario.sigma_n2,
                                            a2, b2, al, be))
    var_t, var_u, var_yf = s2 + b2 / be ** 2, s2 + a2 / al ** 2, s2 + a2 + b2 + n2
    cov_ty, cov_uy = s2 + b2 / be, s2 + a2 / al

    def det3(x, y, z):
        return (x[0] * (y[1] * z[2] - y[2] * z[1]) - x[1] * (y[0] * z[2] - y[2] * z[0])
                + x[2] * (y[0] * z[1] - y[1] * z[0]))

    lhs = (det3((var_t, s2, cov_ty), (s2, var_u, cov_uy), (cov_ty, cov_uy, var_yf))
           / (var_u * var_yf - cov_uy ** 2))
    rhs = det3((var_t, s2, s2), (s2, var_u, s2), (s2, s2, s2)) / (var_u * s2 - s2 * s2)
    return lhs - rhs


@pytest.mark.oracle
@pytest.mark.parametrize("lanes", [lambda: _random_lanes(32), _golden_lanes, _branch_lanes],
                         ids=["random", "golden", "branch"])
def test_beta_root_brackets_the_exact_margin(lanes):
    # the exact determinant margin changes sign within 1e-9 of the root;
    # a None lane is infeasible at 1e-9 and a 1e9 lane feasible at 1e9
    count = 0
    for scn, a2, b2, alpha in lanes():
        for lane, beta in zip(zip(a2, b2, alpha), _max_feasible_betas(scn, a2, b2, alpha)):
            count += 1
            if beta is None:
                assert lane[2] == 0.0 or _exact_margin(scn, *lane, 1e-9) > 0
            elif beta == 1e9:
                assert _exact_margin(scn, *lane, 1e9) <= 0
            else:
                assert _exact_margin(scn, *lane, beta * (1 - 1e-9)) <= 0
                assert _exact_margin(scn, *lane, beta * (1 + 1e-9)) > 0
    assert count >= 16


@pytest.mark.oracle
def test_margin_matches_the_slogdet_oracle():
    # both signs of alpha and beta; where slogdet calls a covariance
    # singular (beta so large that Var(T|U) is all b2 / beta^2) the margin
    # is positive, which the oracle's +inf also reads as infeasible
    rng = np.random.default_rng(31)
    compared = 0
    for scn, a2, b2, alpha in _random_lanes(30):
        signs = rng.choice([-1.0, 1.0], (2, len(a2)))
        alpha = (signs[0] * alpha).tolist()
        beta = (signs[1] * 10 ** rng.uniform(-9, 9, len(a2))).tolist()
        for lane in zip(a2, b2, alpha, beta):
            m = fine_feasibility_margin(scn, LayeredParams(*lane))
            want = _scalar_margin(scn, *lane)
            if math.isfinite(want):
                s2 = scn.sigma_s2
                v = s2 - s2 ** 2 / (s2 + lane[0] / lane[2] ** 2)
                assert abs(m - want) <= 1e-9 * max(abs(want), v)
                compared += 1
            else:
                assert 0 < m < math.inf
    assert compared >= 500


@pytest.mark.oracle
def test_degenerate_margins_are_infinite_like_the_slogdet_oracle():
    alpha = coarse_alpha_root(SCN, 0.5, 0.5)
    lanes = [
        (0.5, 0.5, 0.0, 1.0),              # alpha = 0
        (0.5, 0.5, -0.0, 1.0),
        (0.5, 0.5, alpha, 0.0),            # beta = 0
        (math.inf, 0.5, alpha, 1.0),       # non-finite entries
        (0.5, math.inf, alpha, 1.0),
        (0.5, 0.5, 1e-160, 1.0),           # a2 / alpha^2 overflows
    ]
    for lane in lanes:
        assert _scalar_margin(SCN, *lane) == math.inf
        assert fine_feasibility_margin(SCN, LayeredParams(*lane)) == math.inf
    for beta in (1.0, 0.3):
        m = fine_feasibility_margin(SCN, LayeredParams(0.5, 0.5, alpha, beta))
        assert m == pytest.approx(_scalar_margin(SCN, 0.5, 0.5, alpha, beta), rel=1e-9)


@pytest.mark.oracle
def test_beta_root_matches_the_bisection_oracle():
    for scn, a2, b2, alpha in _random_lanes(32):
        got = _max_feasible_betas(scn, a2, b2, alpha)
        want = [_scalar_max_beta(scn, *lane) for lane in zip(a2, b2, alpha)]
        assert [b is None for b in got] == [b is None for b in want]
        for g, w in zip(got, want):
            assert type(g) is float and g == pytest.approx(w, rel=1e-6)


@pytest.mark.oracle
def test_beta_root_takes_the_none_and_top_branches():
    near, faint, fainter = (_max_feasible_betas(*lanes) for lanes in _branch_lanes())
    # the determinant margin by slogdet read lane 1 (covariance entries
    # near 1e15) as infeasible at beta = 1e-9, where its exact margin is
    # about -1e12; alpha = 0 has no root, and a refinement of variance
    # 1e-12 cannot carry a beta of 1e-9
    assert near[1] == pytest.approx(997.5, rel=1e-3)
    assert near[2] is None and near[4] is None
    assert all(1e-9 < b < 1e9 for b in near[:2] + near[3:4])
    # a source all but known: the root grows as
    # sqrt(Var(Y_f|U) / Var(S|U)) b2 / (b2 + n2), past 1e9 at variance 1e-20
    assert all(1e-7 < b < 1e6 for b in faint)
    assert all(b < 1e9 for b in fainter[:4]) and fainter[4:] == [1e9, 1e9]
    assert _max_feasible_betas(SCN, [], [], []) == []


# The bodies coarse_alpha_root, coarse_gap and single_layer_bounds had before
# they delegated to regions_gaussian at the coarse layer's effective noise,
# kept as oracles: the delegating code must give the same bits.

def _former_coarse_alpha_root(scenario, sigma_a2, sigma_b2):
    s2 = scenario.sigma_s2
    eff_n2 = scenario.sigma_n2 + scenario.sigma_v2 + sigma_b2
    return (1.0 + math.sqrt(1.0 + sigma_a2 / s2 + eff_n2 / s2)) / (1.0 + eff_n2 / sigma_a2)


def _former_coarse_gap(scenario, params):
    s2 = scenario.sigma_s2
    a2, b2, al = params.sigma_a2, params.sigma_b2, params.alpha
    eff = scenario.sigma_n2 + scenario.sigma_v2 + b2
    num = a2 * (a2 + s2 + eff)
    den = a2 * s2 * (1.0 - al) ** 2 + eff * (a2 + al ** 2 * s2)
    return 0.5 * math.log2(num / den)


def _former_single_layer_bounds(scenario, de):
    s2, n2, v2 = scenario.sigma_s2, scenario.sigma_n2, scenario.sigma_v2
    root = (math.sqrt(de) + math.sqrt(s2)) ** 2
    return s2 * (n2 + v2) / (n2 + v2 + root), s2 * n2 / (n2 + root)


def test_single_layer_formulas_match_the_former_scalar_oracle_bit_for_bit():
    rng = np.random.default_rng(43)
    var = lambda: float(10 ** rng.uniform(-5, 5))
    extremes = [LayeredScenario(s, n, v) for s in (1e-5, 1e5) for n in (1e-5, 1e5)
                for v in (1e-5, 1e5)]
    got, want = [], []
    for scn in extremes + [LayeredScenario(var(), var(), var()) for _ in range(1200)]:
        a2, b2 = var(), var()
        for b in (0.0, b2):
            got.append(coarse_alpha_root(scn, a2, b))
            want.append(_former_coarse_alpha_root(scn, a2, b))
        for alpha in (got[-1], float(rng.uniform(-3.0, 3.0)), 0.0):
            params = LayeredParams(a2, b2, alpha, 1.0)
            got.append(coarse_gap(scn, params))
            want.append(_former_coarse_gap(scn, params))
        for de in (0.0, var()):
            got.extend(single_layer_bounds(scn, de))
            want.extend(_former_single_layer_bounds(scn, de))
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_coarse_root_and_bounds_refuse_invalid_arguments():
    # b2 < 0 leaves the coarse layer's effective noise positive here, so the
    # single-layer scenario alone would not refuse it
    for a2, b2 in ((0.5, -1e-3), (0.0, 0.5), (-0.5, 0.5)):
        with pytest.raises(ValueError):
            coarse_alpha_root(SCN, a2, b2)
    with pytest.raises(ValueError):
        single_layer_bounds(SCN, -1.0)
