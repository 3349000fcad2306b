from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import authdist.regions_binary as regions_binary
from authdist.core import ZERO_MASS, binary_entropy
from authdist.regions_binary import (
    AGREE_TOL,
    FEAS_TOL,
    GRID_EPS,
    POLISH_COUNT,
    POLISH_FTOL,
    BinaryAuxParams,
    boundary,
    embedding_capacity,
    optimize_rate_fn,
    params_to_joint,
    qe_boundary,
    _best_decoder,
    _boundary_seed,
    _checked,
    _de_grid,
    _de_value_grad,
    _dr_value_grad,
    _evaluate,
    _gap_value_grad,
    _inv_entropy,
    _screen,
    _starts,
    _tau_nu_table,
)
from test_core import bsc_convolve, mutual_information

H_02 = 0.7219280948873623


def rate_gap(params: BinaryAuxParams, p: float) -> float:
    """I(U;Y) - I(U;S) for the parametric family at reference crossover p,
    closed form (the family's rate gap of the regions_binary docstring)."""
    if not (0.0 <= p <= 0.5):
        raise ValueError(f"crossover must be in [0, 1/2], got {p}")
    a, t, v = params.alpha, params.tau, params.nu
    coded = binary_entropy(t) - binary_entropy(p)
    uncoded = binary_entropy(v) - binary_entropy(bsc_convolve(p, v))
    return a * coded + (1.0 - a) * uncoded


def param_distortions(params: BinaryAuxParams) -> tuple[float, float]:
    """(D_e, D_r) = (alpha tau, alpha tau + (1 - alpha) nu)."""
    de = params.alpha * params.tau
    return de, de + (1.0 - params.alpha) * params.nu


def family_joint_tables(alpha, tau, nu, p):
    """Explicit (U,S) and (U,Y) joint pmfs of the four-symbol auxiliary family.

    Independent oracle route for the rate gap: symbols {0,1} carry the coded
    branch (U = S xor T, X = U), symbols {2,3} the uncoded branch
    (U = (S xor V) + 2, X = S), S uniform.
    """
    jus = np.zeros((4, 2))
    juy = np.zeros((4, 2))
    for s in (0, 1):
        ps = 0.5
        for t in (0, 1):
            w = ps * alpha * (tau if t else 1 - tau)
            u = s ^ t
            jus[u, s] += w
            for nn in (0, 1):
                juy[u, u ^ nn] += w * (p if nn else 1 - p)
        for v in (0, 1):
            w = ps * (1 - alpha) * (nu if v else 1 - nu)
            u = (s ^ v) + 2
            jus[u, s] += w
            for nn in (0, 1):
                juy[u, s ^ nn] += w * (p if nn else 1 - p)
    return jus, juy


def test_rate_gap_boundary_corner():
    # alpha=1, tau=p makes both informations equal for any nu
    assert rate_gap(BinaryAuxParams(1.0, 0.2, 0.1), 0.2) == pytest.approx(0.0, abs=1e-14)


def test_rate_gap_noiseless_channel():
    params = BinaryAuxParams(0.7, 0.15, 0.3)
    expected = 0.7 * binary_entropy(0.15)
    assert rate_gap(params, 0.0) == pytest.approx(expected, abs=1e-14)


def test_rate_gap_against_joint_pmf_oracle():
    alpha, tau, nu, p = 0.5, 0.1, 0.05, 0.2
    jus, juy = family_joint_tables(alpha, tau, nu, p)
    oracle = mutual_information(juy) - mutual_information(jus)
    got = rate_gap(BinaryAuxParams(alpha, tau, nu), p)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(-0.3722734238643312, abs=1e-12)


@given(st.floats(0.01, 0.49))
def test_rate_gap_identity_at_tau_equals_p(tau):
    assert rate_gap(BinaryAuxParams(1.0, tau, 0.25), tau) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30)
@given(st.floats(0.0, 1.0), st.floats(0.01, 0.49), st.floats(0.01, 0.49),
       st.floats(0.01, 0.49))
def test_rate_gap_matches_oracle_everywhere(alpha, tau, nu, p):
    jus, juy = family_joint_tables(alpha, tau, nu, p)
    oracle = mutual_information(juy) - mutual_information(jus)
    assert rate_gap(BinaryAuxParams(alpha, tau, nu), p) == pytest.approx(oracle, abs=1e-9)


def test_param_distortions():
    de, dr = param_distortions(BinaryAuxParams(1.0, 0.2, 0.3))
    assert (de, dr) == (pytest.approx(0.2), pytest.approx(0.2))
    de, dr = param_distortions(BinaryAuxParams(0.0, 0.25, 0.4999))
    assert de == 0.0 and dr == pytest.approx(0.4999)
    de, dr = param_distortions(BinaryAuxParams(0.5, 0.1, 0.05))
    assert (de, dr) == (pytest.approx(0.05), pytest.approx(0.075))


def test_params_validation():
    with pytest.raises(ValueError):
        BinaryAuxParams(1.2, 0.2, 0.2)
    with pytest.raises(ValueError):
        BinaryAuxParams(0.5, 0.0, 0.2)
    with pytest.raises(ValueError):
        BinaryAuxParams(0.5, 0.2, 0.5)


@pytest.fixture(scope="module")
def boundary_curve():
    return boundary(0.2, resolution=200)


def _parent_sweep(p, resolution, ntau, nnu):
    """The (tau, nu) sweep ``boundary`` ran before it hoisted its per-call
    terms: every cell's a_max and both D_r ends are rebuilt per grid D_e.
    Kept as the oracle for the current sweep: (dr, witnesses as tuples)."""
    de_grid = _de_grid(p, resolution)
    if p == 0.0:
        return np.zeros_like(de_grid), [(0.0, 0.25, GRID_EPS)] * resolution
    T, V, B1, B2 = _tau_nu_table(p, ntau, nnu)
    span = B1 - B2
    with np.errstate(divide="ignore", invalid="ignore"):
        a_min = np.where(span > 0, -B2 / span, np.where(B2 >= -FEAS_TOL, 0.0, np.inf))
    a_min = np.clip(a_min, 0.0, np.inf)
    dr_out = np.full(resolution, 0.5)
    wit_out = [None] * resolution
    for i, de in enumerate(de_grid):
        with np.errstate(divide="ignore", over="ignore"):
            a_max = np.minimum(1.0, de / T)
        feasible = a_min <= a_max + 1e-15
        if not feasible.any():
            continue
        a_lo = np.where(feasible, a_min, 0.0)
        a_hi = np.where(feasible, a_max, 0.0)
        dr_lo = V + a_lo * (T - V)
        dr_hi = V + a_hi * (T - V)
        dr_cell = np.where(feasible, np.minimum(dr_lo, dr_hi), 0.5)
        j = np.unravel_index(np.argmin(dr_cell), dr_cell.shape)
        best = float(dr_cell[j])
        if best < 0.5:
            dr_out[i] = best
            a_star = float(a_lo[j] if dr_lo[j] <= dr_hi[j] else a_hi[j])
            wit_out[i] = (a_star, float(T[j]), float(V[j]))
    return np.minimum.accumulate(dr_out), wit_out


@pytest.mark.parametrize("p", [0.0, 1e-3, 0.05, 0.2, 0.49, 0.5])
@pytest.mark.parametrize("resolution,ntau,nnu", [(2, 2, 2), (7, 5, 9), (41, 23, 17),
                                                 (120, 60, 45)])
def test_boundary_matches_the_parent_sweep(p, resolution, ntau, nnu):
    curve = boundary(p, resolution, ntau, nnu)
    dr, witnesses = _parent_sweep(p, resolution, ntau, nnu)
    assert curve.dr.tobytes() == dr.tobytes()
    assert [None if w is None else (w.alpha, w.tau, w.nu) for w in curve.witnesses] == witnesses


def _assert_boundary_is_the_parent_sweep(p, resolution, ntau, nnu):
    """Bit for bit, witnesses included.  A cell feasible through the 1e-15
    slack alone can give the sweep a witness alpha in (1, 1 + 1e-15], which
    ``boundary`` reports as 1 (a larger alpha is no valid parameter)."""
    curve = boundary(p, resolution, ntau, nnu)
    dr, witnesses = _parent_sweep(p, resolution, ntau, nnu)
    assert curve.dr.tobytes() == dr.tobytes()
    assert ([None if w is None else (w.alpha, w.tau, w.nu) for w in curve.witnesses]
            == [None if w is None else (min(w[0], 1.0), *w[1:]) for w in witnesses])


@settings(max_examples=120, deadline=None)
@given(p=st.floats(0.0, 0.5), resolution=st.integers(2, 60), ntau=st.integers(1, 40),
       nnu=st.integers(1, 40))
def test_boundary_matches_the_parent_sweep_on_random_grids(p, resolution, ntau, nnu):
    _assert_boundary_is_the_parent_sweep(p, resolution, ntau, nnu)


@pytest.mark.parametrize("p,resolution,ntau,nnu", [
    # a grid D_e (0.1, 0.2) lies one ulp below p: the tau = p row has
    # a_max = 1 - 1.1e-16, and its cells, at a_min = 1, are feasible
    # through the slack alone
    (float(np.nextafter(0.1, 1.0)), 6, 5, 9),
    (float(np.nextafter(0.1, 1.0)), 6, 200, 200),
    (float(np.nextafter(0.2, 1.0)), 6, 23, 17),
    # a tau row just below p, with a_min in (1, 1 + 1e-15]: feasible
    # through the slack alone from a_max = 1 on, witness alpha above 1
    (0.25, 67, 51, 55),
])
def test_boundary_full_scan_fallback_matches_the_parent_sweep(p, resolution, ntau, nnu,
                                                              monkeypatch):
    scanned = []
    scan = regions_binary._scan
    monkeypatch.setattr(regions_binary, "_scan", lambda *a: scanned.append(a) or scan(*a))
    _assert_boundary_is_the_parent_sweep(p, resolution, ntau, nnu)
    assert scanned


@pytest.fixture(scope="module")
def qe_curve():
    return qe_boundary(0.2, resolution=201)


class TestBoundary:
    @pytest.fixture
    def curve(self, boundary_curve):
        return boundary_curve

    def test_corner_points(self, curve):
        step = 0.5 / 199
        assert curve.dr_at(0.2) == pytest.approx(0.2, abs=2 * step)
        assert curve.dr[0] == pytest.approx(0.5)
        assert curve.dr[-1] == pytest.approx(0.2, abs=2 * step)

    def test_witnesses_feasible_and_matching(self, curve):
        step = 0.5 / 199
        for de, dr, w in zip(curve.de, curve.dr, curve.witnesses):
            if w is None:
                assert dr == pytest.approx(0.5)
                continue
            assert rate_gap(w, 0.2) >= -1e-9
            wde, wdr = param_distortions(w)
            assert wde <= de + step
            assert wdr == pytest.approx(dr, abs=1e-12)

    def test_digital_signature_corner(self):
        curve = boundary(0.0, resolution=50)
        assert (curve.dr == 0.0).all()

    def test_region_shrinks_with_p(self, curve):
        milder = boundary(0.1, resolution=200)
        assert (milder.dr <= curve.dr + 1e-9).all()


def test_embedding_capacity_examples():
    assert embedding_capacity(0.0, 0.2) == 0.0
    assert embedding_capacity(0.5, 0.2) == pytest.approx(1.0 - H_02, abs=1e-12)
    dp = 1.0 - 2.0 ** (-H_02)
    assert dp == pytest.approx(0.39371337339584077, abs=1e-14)
    # continuity at the breakpoint
    assert embedding_capacity(dp, 0.2) == pytest.approx(
        binary_entropy(dp) - H_02, abs=1e-12)


def test_embedding_capacity_concave_envelope_dominates_raw():
    p = 0.2
    for de in np.linspace(0.0, 0.5, 101):
        raw = max(binary_entropy(de) - binary_entropy(p), 0.0) if de >= p else 0.0
        assert embedding_capacity(float(de), p) >= raw - 1e-12


class TestQeBoundary:
    @pytest.fixture
    def curve(self, qe_curve):
        return qe_curve

    def test_full_budget_matches_crossover(self, curve):
        # 1 - h(Dr) = 1 - h(p) forces Dr = p
        assert curve.dr[-1] == pytest.approx(0.2, abs=1e-9)

    def test_zero_budget_is_half(self, curve):
        assert curve.dr[0] == pytest.approx(0.5)

    def test_bisection_point(self, curve):
        # frozen from the capacity/rate-distortion equation at De = 0.2
        assert curve.dr_at(0.2) == pytest.approx(0.29526780434587374, abs=1e-6)

    def test_consistency_with_equation(self, curve):
        for de, dr in zip(curve.de[1:], curve.dr[1:]):
            cap = embedding_capacity(float(de), 0.2)
            if cap > 0:
                assert 1.0 - binary_entropy(dr) == pytest.approx(cap, abs=1e-9)

    def test_qe_above_boundary(self, curve):
        opt = boundary(0.2, resolution=201)
        assert (curve.dr >= opt.dr - 1e-6).all()


class TestOptimizeRateFn:
    def test_achievable_corner(self):
        res = optimize_rate_fn(0.2, 0.2, 0.2, restarts=6, seed=0)
        assert res.value >= -1e-3
        assert res.q_u_given_s.sum(axis=1) == pytest.approx(np.ones(2), abs=1e-9)

    def test_outside_region_is_negative(self):
        res = optimize_rate_fn(0.0, 0.01, 0.2, restarts=6, seed=0)
        assert res.value < 0.0

    def test_trivial_half_budget(self):
        # independent auxiliary: gap exactly 0, E[d_r] = 1/2
        res = optimize_rate_fn(0.0, 0.5, 0.2, restarts=4, seed=0)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_parametric_seed_evaluates_exactly(self):
        w = BinaryAuxParams(0.5, 0.1, 0.05)
        val, de, dr, _ = _evaluate(params_to_joint(w, 7), 7, 0.2)
        assert val == pytest.approx(rate_gap(w, 0.2), abs=1e-12)
        assert (de, dr) == (pytest.approx(0.05, abs=1e-12), pytest.approx(0.075, abs=1e-12))

    def test_dominates_best_parametric_witness(self):
        de, dr, p = 0.1, 0.3, 0.2
        res = optimize_rate_fn(de, dr, p, restarts=4, seed=0)
        best = -np.inf
        curve = boundary(p, resolution=101, ntau=80, nnu=80)
        for w in curve.witnesses:
            if w is None:
                continue
            wde, wdr = param_distortions(w)
            if wde <= de and wdr <= dr:
                best = max(best, rate_gap(w, p))
        assert res.value >= best - 1e-3

    @pytest.mark.parametrize("de, dr, p, K", [(0.1, 0.15, 0.05, 7), (0.25, 0.201, 0.2, 7),
                                              (0.0, 0.01, 0.2, 7), (0.2, 0.3, 0.2, 3)])
    def test_start_record(self, de, dr, p, K):
        res = optimize_rate_fn(de, dr, p, cardinality=K, restarts=4, seed=0)
        assert len(res.starts) == res.restarts_used
        seeds = [kind for kind, _ in _boundary_seed(de, dr, p, K)] if K >= 4 else []
        kinds = [s.kind for s in res.starts]
        assert kinds == seeds + ["random"] * 4
        # one screen entry, then up to four decoder alternations if polished
        for s in res.starts:
            assert (2 <= len(s.nit) <= 5) if s.polished else len(s.nit) == 1
            assert all(n >= 0 for n in s.nit)
            assert len(s.nfev) == len(s.nit) and all(n >= 1 for n in s.nfev)
            assert s.seconds >= 0.0
        winners = [s for s in res.starts if s.won]
        assert np.isfinite(res.value)
        assert len(winners) == 1
        assert winners[0].feasible and winners[0].value == res.value
        assert all(s.value <= res.value for s in res.starts if s.feasible)
        assert sum(s.polished for s in res.starts) <= POLISH_COUNT

    def test_start_record_without_a_feasible_start(self):
        res = optimize_rate_fn(0.0, 0.0, 0.2, restarts=4, max_iter=1, seed=0)
        assert res.value == -np.inf
        assert len(res.starts) == res.restarts_used
        assert not any(s.won or s.feasible for s in res.starts)

    def test_start_kinds_of_the_parametric_seeds(self):
        # family member only: the budgets do not allow the tau = p quantizer
        assert [k for k, _ in _boundary_seed(0.1, 0.15, 0.2, 7)] == ["family"]
        assert [k for k, _ in _boundary_seed(0.25, 0.201, 0.2, 7)] == ["family", "capacity"]
        assert [k for k, _ in _boundary_seed(0.0, 0.0, 0.2, 7)] == []


BUDGETS = (0.5, 0.5, 0.2, 7)
# Two feasible points of the parametric family: B has the larger rate gap.  The
# auxiliary symbol 6 has no mass in either, so its Bernoulli parameters tell
# the fakes below which point they were given.
POINT_A = params_to_joint(BinaryAuxParams(0.5, 0.1, 0.05), 7)
POINT_B = params_to_joint(BinaryAuxParams(0.9, 0.1, 0.05), 7)
POINT_B[-1] = 1.0
# uniform auxiliary, X = not S: E[d_e] = 1, outside any budget
POINT_OFF = np.concatenate([np.full(14, 1 / 7), np.tile([1.0, 0.0], 7)])


def _two_points(z):
    """A and B are their own images, so a polish ends after one alternation."""
    return POINT_A if z[-1] <= 0.5 else POINT_B


def _identity(z):
    return z


def _off(z):
    return POINT_OFF


def _fake_minimize(polish, status=lambda x0: 0):
    """Stand-in for scipy's SLSQP, which only the polish calls: maps its start
    point through ``polish`` and ends with ``status(x0)``.  The optimizer's
    forked worker inherits it through the module global."""
    def fake(fun, x0, jac, method, bounds, constraints, options):
        assert options["ftol"] == POLISH_FTOL
        return SimpleNamespace(x=np.array(polish(x0), dtype=float), nit=1, nfev=1,
                               status=status(x0), success=status(x0) == 0)
    return fake


def _fake_rounds(monkeypatch, screen, polish, status=lambda x0: 0):
    def mapped(de, dr, p, K, z0s, max_iter):
        """Stand-in for the batched screen: maps each start through ``screen``
        and evaluates the image as the screen evaluates its ends."""
        ends = []
        for z0 in z0s:
            feasible, val, zz = _checked(screen(z0), de, dr, K, p)
            ends.append((0, feasible, val, zz, _best_decoder(zz[: 2 * K].reshape(2, K)),
                         (1,), (1,), 0.0))
        return ends

    monkeypatch.setattr(regions_binary, "_screen", mapped)
    monkeypatch.setattr(regions_binary, "minimize", _fake_minimize(polish, status))


def _oracle(screen, polish, restarts=12):
    """What optimize_rate_fn should report at BUDGETS when the screen and SLSQP
    are replaced by the maps ``screen`` and ``polish``: the polished starts, in
    (value, start index) order, and each start's kept (feasible, value)."""
    de, dr, p, K = BUDGETS
    starts = _starts(de, dr, p, K, restarts, 0)
    screened = [_checked(screen(z0), de, dr, K, p) for _, z0 in starts]
    leaders = [i for i in sorted(range(len(starts)), key=lambda i: (-screened[i][1], i))
               if screened[i][0]][:POLISH_COUNT]
    kept = []
    for i, (kind, z0) in enumerate(starts):
        points = [screened[i][:2]]
        if i in leaders:
            points.append(_checked(polish(screened[i][2]), de, dr, K, p)[:2])
        if kind != "random":
            points.append(_checked(z0, de, dr, K, p)[:2])
        feasible = [v for f, v in points if f]
        kept.append((True, max(feasible)) if feasible else points[0])
    return leaders, kept


class TestScreenAndPolish:
    @pytest.mark.parametrize("screen", [_identity, _two_points], ids=["identity", "two_points"])
    def test_polished_set_is_the_top_feasible_screened_ends(self, monkeypatch, screen):
        _fake_rounds(monkeypatch, screen, _identity)
        res = optimize_rate_fn(*BUDGETS, restarts=12, seed=0)
        leaders, kept = _oracle(screen, _identity)
        # the identity leaves some starts infeasible; the two points tie many
        assert len(leaders) == POLISH_COUNT
        assert [i for i, s in enumerate(res.starts) if s.polished] == sorted(leaders)

    def test_polished_start_keeps_the_better_of_its_two_ends(self, monkeypatch):
        # polish moves half the starts to the best family member and the
        # other half off the budgets, so both ends get kept
        family = _boundary_seed(*BUDGETS)[0][1]

        def polish(z):
            return family if z[-1] <= 0.5 else POINT_OFF

        _fake_rounds(monkeypatch, _identity, polish)
        res = optimize_rate_fn(*BUDGETS, restarts=12, seed=0)
        leaders, kept = _oracle(_identity, polish)
        assert [(s.feasible, s.value) for s in res.starts] == kept
        screened_only = _oracle(_identity, _off)[1]
        gains = [kept[i][1] > screened_only[i][1] for i in leaders]
        assert any(gains) and not all(gains)

    def test_polish_leaves_a_feasible_seed_its_start_point(self, monkeypatch):
        # every screened and polished end is outside the budgets: only the
        # seeds' own start points are feasible, and the best of them wins
        _fake_rounds(monkeypatch, _off, _off)
        res = optimize_rate_fn(*BUDGETS, restarts=4, seed=0)
        de, dr, p, K = BUDGETS
        seeds = [_checked(z0, de, dr, K, p) for _, z0 in _boundary_seed(de, dr, p, K)]
        assert len(seeds) == 2 and all(f for f, _, _ in seeds)
        best = max(range(2), key=lambda i: seeds[i][1])
        assert res.value == seeds[best][1]
        assert np.array_equal(res.q_u_given_s.reshape(-1), seeds[best][2][:2 * K])
        assert [s.won for s in res.starts] == [i == best for i in range(6)]
        assert [s.feasible for s in res.starts] == [True] * 2 + [False] * 4
        assert not any(s.polished for s in res.starts)

    @pytest.mark.parametrize("de, dr, p", [(0.25, 0.201, 0.2), (0.1, 0.15, 0.05), (0.2, 0.2, 0.2)])
    def test_polish_never_reports_less_than_a_feasible_seed(self, de, dr, p):
        res = optimize_rate_fn(de, dr, p, restarts=4, seed=0)
        for _, z0 in _boundary_seed(de, dr, p, 7):
            feasible, val, _ = _checked(z0, de, dr, 7, p)
            if feasible:
                assert res.value >= val

    def test_polish_converged_is_the_winners_final_slsqp_run(self, monkeypatch):
        # without the seeds, which would win, and at seed 1, start 0 screens
        # to A and stops there, a later start at B wins, and its polish, started
        # at B, stops on the iteration limit
        monkeypatch.setattr(regions_binary, "_boundary_seed", lambda *args: [])
        _fake_rounds(monkeypatch, _two_points, _identity,
                     status=lambda x0: 9 if np.array_equal(x0, POINT_B) else 0)
        res = optimize_rate_fn(*BUDGETS, restarts=12, seed=1)
        won = [i for i, s in enumerate(res.starts) if s.won]
        assert len(won) == 1 and 0 < won[0] and res.starts[won[0]].polished
        assert res.starts[0].feasible and res.starts[0].value < res.value
        assert res.converged is False

    def test_polish_status_8_converges_where_another_polished_start_agrees(self, monkeypatch):
        # the same setting with every polish stopping on its line search
        # (status 8): the polished starts at B agree with the winner
        monkeypatch.setattr(regions_binary, "_boundary_seed", lambda *args: [])
        _fake_rounds(monkeypatch, _two_points, _identity, status=lambda x0: 8)
        res = optimize_rate_fn(*BUDGETS, restarts=12, seed=1)
        agree = [s for s in res.starts if s.polished and abs(s.value - res.value) <= AGREE_TOL]
        assert len(agree) >= 2 and any(s.won for s in agree)
        assert res.converged is True

    def test_polish_status_8_alone_is_not_converged(self, monkeypatch):
        # random starts left where they are: the polished values are apart
        monkeypatch.setattr(regions_binary, "_boundary_seed", lambda *args: [])
        _fake_rounds(monkeypatch, _identity, _identity, status=lambda x0: 8)
        res = optimize_rate_fn(*BUDGETS, restarts=12, seed=0)
        polished = sorted(s.value for s in res.starts if s.polished)
        assert len(polished) == POLISH_COUNT and polished[-1] == res.value
        assert polished[-1] - polished[-2] > AGREE_TOL
        assert res.converged is False


def _screen_key(end):
    """Everything in a screened end but its share of the wall time."""
    status, feasible, value, zz, g, nit, nfev, _ = end
    return status, feasible, repr(value), zz.tobytes(), g.tolist(), nit, nfev


@pytest.mark.parametrize("de, dr, p", [(0.25, 0.2013, 0.2), (0.025, 0.4331, 0.2), (0.1, 0.15, 0.05)])
def test_screen_is_batch_invariant(de, dr, p):
    # a start screens bit for bit the same alone, in the full batch and in the
    # batch reversed, so splitting the batch could not change the result
    z0s = [z0 for _, z0 in _starts(de, dr, p, 7, 32, 0)]
    full = [_screen_key(e) for e in _screen(de, dr, p, 7, z0s, 300)]
    reverse = [_screen_key(e) for e in _screen(de, dr, p, 7, z0s[::-1], 300)][::-1]
    alone = [_screen_key(_screen(de, dr, p, 7, [z0], 300)[0]) for z0 in z0s]
    assert full == alone == reverse
    assert sum(key[1] for key in full) >= POLISH_COUNT


def test_screen_of_one_step_ends_outside_zero_budgets():
    # what leaves optimize_rate_fn(0, 0, 0.2, max_iter=1) its -inf sentinel
    z0s = [z0 for _, z0 in _starts(0.0, 0.0, 0.2, 7, 4, 0)]
    ends = _screen(0.0, 0.0, 0.2, 7, z0s, 1)
    # one evaluation at the start, one trial step: iteration limit, infeasible
    assert all(e[0] == 9 and not e[1] and e[5][0] <= 1 and e[6] == (2,) for e in ends)


def test_screen_ends_within_the_snap_are_pulled_onto_the_budgets():
    de, dr, p, K = 0.25, 0.2013, 0.2, 7
    z0s = [z0 for _, z0 in _starts(de, dr, p, K, 32, 0)]
    for end in _screen(de, dr, p, K, z0s, 300):
        _, de_got, dr_got, _ = _evaluate(end[3], K, p)
        assert end[1] == (de_got <= de + FEAS_TOL and dr_got <= dr + FEAS_TOL)
        assert end[1] or max(de_got - de, dr_got - dr) > regions_binary.SCREEN_SNAP


def _capped_inv_entropy(target):
    """The former 80-step bisection, kept as the oracle where it converged."""
    lo, hi = 0.0, 0.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_inv_entropy_small_targets():
    # 80 halvings of [0, 1/2] leave a bracket of 4e-25, too wide below ~1e-7
    rng = np.random.default_rng(5)
    for t in [*(10.0 ** -k for k in range(7, 14)), *10 ** rng.uniform(-13, -7, 200)]:
        x = _inv_entropy(float(t))
        # x is the float where h crosses t (h itself is only accurate to about
        # 1e-16 absolute here, so h(x) / t need not be 1)
        assert binary_entropy(np.nextafter(x, 0.0)) <= t <= binary_entropy(np.nextafter(x, 1.0))
    assert binary_entropy(_inv_entropy(1e-12)) / 1e-12 == 1.0
    assert _inv_entropy(0.0) == 0.0


def test_inv_entropy_floor_below_the_entropy_of_zero_mass():
    # binary_entropy is 0 at or below ZERO_MASS = 1e-15, so targets under the
    # entropy of the next float (about 5.1e-14) cannot be inverted
    floor = binary_entropy(np.nextafter(ZERO_MASS, 1.0))
    assert 5.1e-14 < floor < 5.2e-14
    for t in (5.1e-14, 1e-14, 1e-20, 1e-300, 5e-324):
        assert _inv_entropy(t) == ZERO_MASS
    assert _inv_entropy(5.2e-14) > ZERO_MASS


def test_inv_entropy_matches_capped_bisection_where_it_converged():
    rng = np.random.default_rng(6)
    for t in [*rng.uniform(1e-6, 1.0, 500), *10 ** rng.uniform(-6, 0, 500), 1.0]:
        assert _inv_entropy(float(t)) == _capped_inv_entropy(float(t))


def _central_differences(f, z, h=1e-6):
    """Central differences of the row values f(z) along each column of z."""
    grad = np.empty_like(z)
    for i in range(z.shape[1]):
        e = np.zeros_like(z)
        e[:, i] = h
        grad[:, i] = (f(z + e) - f(z - e)) / (2 * h)
    return grad


@pytest.mark.parametrize("p", [0.05, 0.2])
def test_gradient_of_objective_and_budgets_matches_central_differences(p):
    K, B = 7, 5
    rng = np.random.default_rng(17)
    for _ in range(2):
        # interior points: every q(u|s) >= 1/(2K), every X=1 probability in (0.05, 0.95)
        q = 0.5 * rng.dirichlet(np.ones(K), size=(B, 2)) + 0.5 / K
        r = rng.uniform(0.05, 0.95, (B, K, 2))
        z = np.concatenate([q.reshape(B, -1), r.reshape(B, -1)], axis=1)
        g = _best_decoder(q)
        for value_grad in (lambda zz, rows: _gap_value_grad(zz, K, p),
                           lambda zz, rows: _de_value_grad(zz, K),
                           lambda zz, rows: _dr_value_grad(zz, K, g[rows])):
            value, grad = value_grad(z, slice(None))
            # each row is the one-row call's, bit for bit
            for b in range(B):
                one = value_grad(z[b:b + 1], slice(b, b + 1))
                assert one[0][0] == value[b] and np.array_equal(one[1][0], grad[b])
            # the rows are independent, so one difference per column serves all
            numeric = _central_differences(lambda zz: value_grad(zz, slice(None))[0], z)
            assert (np.abs(numeric - grad).max(axis=1) <= 1e-5 * np.abs(grad).max(axis=1)).all()
