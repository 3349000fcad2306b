import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from authdist import sim_gaussian
from authdist.sim_gaussian import (
    GaussCodebook,
    GaussSimConfig,
    build_gauss_codebook,
    run_gauss_trials,
)
from binomial import binomial_sigma


def make_config(**kw):
    base = dict(n=8, rate=2.0, sigma_s2=100.0, sigma_n2=1.0, trials=200,
                seed_public=101, seed_secret=202)
    base.update(kw)
    return GaussSimConfig(**base)


@pytest.fixture(scope="module")
def codebook():
    return build_gauss_codebook(make_config())


def test_config_defaults_and_validation():
    cfg = make_config()
    assert cfg.gamma == pytest.approx(1.0 / math.sqrt(8))
    assert cfg.epsilon == pytest.approx(0.25)
    assert cfg.decode_radius == pytest.approx(1.25)
    with pytest.raises(ValueError):
        make_config(n=2)
    with pytest.raises(ValueError):
        make_config(rate=3.0)            # 8 * 3 = 24 > 22 cap
    with pytest.raises(ValueError):
        make_config(sigma_n2=0.0)
    for name in ("rate", "gamma", "epsilon"):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            make_config(**{name: math.nan})


def test_codebook_sizes_and_variance(codebook):
    cfg = make_config()
    assert codebook.count == round(2.0 ** (8 * 2.0)) == 65536
    expected_adm = round(2.0 ** (8 * (2.0 - cfg.gamma)))
    assert codebook.n_admissible == expected_adm
    assert codebook.n_admissible / codebook.count == pytest.approx(
        2.0 ** (-8 * cfg.gamma), rel=1e-3)
    # chi-square bound on the empirical per-sample variance of all codewords
    n_samples = codebook.count * codebook.n
    var_hat = float((codebook.codewords ** 2).mean())
    rel_3sigma = 3.0 * math.sqrt(2.0 / n_samples)
    assert abs(var_hat / 100.0 - 1.0) <= rel_3sigma


def test_codebook_reproducible(codebook):
    again = build_gauss_codebook(make_config())
    assert (codebook.codewords == again.codewords).all()
    assert (codebook.admissible == again.admissible).all()


def test_encode_exact_hit_and_zero_budget(codebook):
    adm0 = int(codebook.admissible_indices[0])
    x, idx = codebook.encode(codebook.codewords[adm0], math.inf)
    assert idx == adm0
    assert float(((x - codebook.codewords[adm0]) ** 2).mean()) == 0.0
    off = codebook.codewords[adm0] + 0.5
    assert codebook.encode(off, 0.0) is None


def test_decode_roundtrip_and_radius(codebook):
    cfg = make_config()
    adm0 = int(codebook.admissible_indices[0])
    out = codebook.decode(codebook.codewords[adm0], cfg.decode_radius)
    assert out is not None and out[1] == adm0
    # forbidden codeword: rejected unless the marking is ignored
    forb = int(np.flatnonzero(~codebook.admissible)[0])
    out = codebook.decode(codebook.codewords[forb], cfg.decode_radius)
    assert out is None
    out = codebook.decode(codebook.codewords[forb], cfg.decode_radius, check_admissibility=False)
    assert out is not None and out[1] == forb
    # far input: outside every decoding sphere
    far = np.full(8, 1000.0)
    assert codebook.decode(far, cfg.decode_radius) is None


def test_reference_trials_identity_and_reproducibility(codebook):
    cfg = make_config(trials=400)
    stats = run_gauss_trials(cfg, codebook=codebook)
    assert stats == run_gauss_trials(cfg, codebook=codebook)
    assert stats.matched > 0
    assert stats.dr_de_max_gap == 0.0


def test_decode_success_approaches_one_as_noise_vanishes():
    # epsilon held fixed while the channel noise shrinks: the decoding
    # sphere then dwarfs the perturbation and every trial authenticates
    cfg = make_config(sigma_n2=1e-6, epsilon=0.25, trials=300)
    stats = run_gauss_trials(cfg)
    assert stats.decode_failures + stats.wrong_codeword == 0
    assert stats.matched == stats.trials_run


def test_encoding_distortion_decreases_with_rate():
    des = []
    for rate in (1.0, 1.5, 2.0):
        cfg = make_config(rate=rate, gamma=0.25, trials=150)
        stats = run_gauss_trials(cfg)
        des.append(stats.empirical_de)
    assert des[0] > des[1] > des[2]


def test_substitute_attack_rate(codebook):
    cfg = make_config(trials=3000)
    stats = run_gauss_trials(cfg, "substitute_codeword", codebook=codebook)
    target = codebook.n_admissible / codebook.count
    sigma = binomial_sigma(target, stats.attack_trials)
    assert abs(stats.attack_rate - target) <= 3 * sigma


def test_every_attacker_respects_the_marking_bound(codebook):
    cfg = make_config(trials=2000)
    bound = codebook.n_admissible / codebook.count
    for attacker, param in (("substitute_codeword", None),
                            ("heavy_noise", 25.0),
                            ("random_vector", None)):
        stats = run_gauss_trials(cfg, attacker, param, codebook=codebook)
        sigma = binomial_sigma(bound, max(stats.attack_trials, 1))
        assert stats.attack_rate <= bound + 3 * sigma


def test_encode_budget_counts_failures(codebook):
    cfg = make_config(trials=200)
    stats = run_gauss_trials(cfg, encode_budget=1e-6, codebook=codebook)
    assert stats.encode_failures == stats.trials_run


# -- nearest-codeword search against a direct-distance brute force ----------

def _hand_codebook(rows):
    rows = np.asarray(rows, dtype=float)
    return GaussCodebook(rows, np.ones(len(rows), dtype=bool))


def _brute_nearest(cb, targets, among=None):
    among = np.arange(cb.count) if among is None else np.asarray(among)
    idx = np.empty(len(targets), dtype=np.int64)
    for i, t in enumerate(targets):
        d2 = ((cb.codewords[among] - t) ** 2).sum(axis=1)
        idx[i] = among[d2 == d2.min()].min()
    return idx, ((cb.codewords[idx] - targets) ** 2).mean(axis=1)


def _marked(cb, among):
    """``cb`` with the index array ``among`` as its admissible rows."""
    admissible = np.zeros(cb.count, dtype=bool)
    admissible[among] = True
    return GaussCodebook(cb.codewords, admissible)


def _among(cb, admissible):
    return cb.admissible_indices if admissible else None


def _assert_matches_brute(cb, targets, admissible=False):
    """``cb.nearest(targets, admissible)`` against the brute force over
    every row or the admissible rows."""
    idx, dist = cb.nearest(targets, admissible)
    want_idx, want_dist = _brute_nearest(cb, targets, _among(cb, admissible))
    assert (idx == want_idx).all()
    assert (dist == want_dist).all()


@pytest.mark.oracle
def test_nearest_matches_brute_force_on_random_targets(codebook):
    rng = np.random.default_rng(7)
    sources = rng.normal(0.0, 10.0, size=(200, 8))
    outputs = codebook.codewords[rng.integers(0, codebook.count, 200)] + rng.normal(size=(200, 8))
    subset = np.sort(rng.choice(codebook.count, 500, replace=False))
    for targets in (sources, outputs):
        _assert_matches_brute(codebook, targets)
        _assert_matches_brute(codebook, targets, True)
        _assert_matches_brute(_marked(codebook, subset), targets, True)


@pytest.mark.oracle
def test_nearest_finds_exact_codeword_hits(codebook):
    picks = np.random.default_rng(8).integers(0, codebook.count, 200)
    idx, dist = codebook.nearest(codebook.codewords[picks])
    assert (idx == picks).all() and (dist == 0.0).all()
    adm = codebook.admissible_indices[::97]
    idx, dist = codebook.nearest(codebook.codewords[adm], True)
    assert (idx == adm).all() and (dist == 0.0).all()


@pytest.mark.oracle
def test_nearest_lowest_index_wins_among_duplicate_rows():
    cb = _hand_codebook([[5, 5, 5, 5], [1, 2, 3, 4], [0, 0, 0, 0],
                         [1, 2, 3, 4], [0, 0, 0, 0], [1, 2, 3, 4]])
    targets = np.array([[1, 2, 3, 4], [1.1, 2, 3, 4], [0, 0, 0, 0.2], [9, 9, 9, 9]])
    assert cb.nearest(targets)[0].tolist() == [1, 1, 2, 0]
    # a subset is searched as the admissible rows of the same codewords
    assert _marked(cb, [3, 4, 5]).nearest(targets, True)[0].tolist() == [3, 3, 4, 3]
    # a target equidistant from two distinct rows takes the lower index
    assert cb.nearest(np.array([[0.5, 1, 1.5, 2]]))[0].tolist() == [1]
    _assert_matches_brute(cb, targets)
    for among in ([0, 2, 4], [1, 3, 5]):
        _assert_matches_brute(_marked(cb, among), targets, True)


@pytest.mark.oracle
@pytest.mark.parametrize("rows", [[[1.0, -2.0, 0.5, 3.0]],
                                  [[1.0, -2.0, 0.5, 3.0], [0.0, 0.0, 0.0, 0.0]],
                                  [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]])
def test_nearest_on_one_and_two_row_codebooks(rows):
    cb = _hand_codebook(rows)
    rng = np.random.default_rng(9)
    targets = np.vstack([cb.codewords, rng.normal(0.0, 2.0, size=(50, 4))])
    _assert_matches_brute(cb, targets)
    _assert_matches_brute(_marked(cb, [len(rows) - 1]), targets, True)
    _assert_matches_brute(cb, targets, True)


@pytest.mark.oracle
@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 40), n=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
def test_nearest_keeps_the_tie_rule_on_integer_lattices(count, n, seed):
    # small integer coordinates give exact distances and many exact ties
    rng = np.random.default_rng(seed)
    cb = _hand_codebook(rng.integers(-2, 3, size=(count, n)))
    targets = rng.integers(-3, 4, size=(30, n)) / 2.0
    among = np.flatnonzero(rng.random(count) < 0.5)
    _assert_matches_brute(cb, targets)
    if among.size:
        _assert_matches_brute(_marked(cb, among), targets, True)


# -- the search within a radius ------------------------------------------------

def _assert_matches_brute_within(cb, targets, radius, admissible, want):
    # within the radius: the brute-force index and distortion ``want``;
    # beyond it, any distance above the radius
    idx, dist = cb.nearest(targets, admissible, radius)
    want_idx, want_dist = want
    inside = want_dist <= radius
    assert (idx[inside] == want_idx[inside]).all()
    assert (dist[inside] == want_dist[inside]).all()
    assert (dist[~inside] > radius).all()
    assert ((0 <= idx) & (idx < cb.count)).all()


@pytest.mark.oracle
def test_nearest_within_a_radius_matches_brute_force(codebook):
    rng = np.random.default_rng(10)
    sources = rng.normal(0.0, 10.0, size=(100, 8))
    outputs = codebook.codewords[rng.integers(0, codebook.count, 100)] + rng.normal(size=(100, 8))
    subset = np.sort(rng.choice(codebook.count, 500, replace=False))
    searches = [(codebook, False), (codebook, True), (_marked(codebook, subset), True)]
    for targets in (sources, outputs, codebook.codewords[:40]):
        for cb, admissible in searches:
            want = _brute_nearest(cb, targets, _among(cb, admissible))
            for radius in (0.0, *np.quantile(want[1], [0.1, 0.5, 0.9]), want[1][3], -1.0,
                           math.inf):
                _assert_matches_brute_within(cb, targets, radius, admissible, want)


@pytest.mark.oracle
@pytest.mark.parametrize("gap", [0.0, 0.5e-9, 1e-9, 1.5e-9, 3e-9])
def test_nearest_within_a_radius_keeps_the_tie_rule(gap):
    # row 1 lies at distance 1 from the target, rows 0 and 2 a relative gap
    # further; radii just inside, at, between and past the two distances put
    # the farther rows inside the search bound or just past it
    cb = _hand_codebook([[1 + gap, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1 + gap, 0], [9, 9, 9, 9]])
    target = np.zeros((1, 4))
    near, far = 0.25, (1 + gap) ** 2 / 4
    searches = [(cb, False),
                *((_marked(cb, among), True) for among in ([0, 1, 2], [0, 2], [2, 3]))]
    for radius in (near * (1 - 1e-9), near, (near + far) / 2, far, far * (1 + 1e-9), math.inf):
        for search, admissible in searches:
            want = _brute_nearest(search, target, _among(search, admissible))
            _assert_matches_brute_within(search, target, radius, admissible, want)
    if gap == 0.0:
        # equidistant rows inside the radius: the lower index wins
        assert cb.nearest(target, radius=0.3)[0].tolist() == [0]
        assert _marked(cb, [1, 2]).nearest(target, True, 0.3)[0].tolist() == [1]


@pytest.mark.oracle
@pytest.mark.parametrize("attacker, param, budget", [(None, None, None), (None, None, 40.0),
                                                     ("substitute_codeword", None, None),
                                                     ("heavy_noise", 25.0, None),
                                                     ("random_vector", None, 40.0)])
def test_nearest_radius_does_not_change_gauss_trials(codebook, attacker, param, budget,
                                                     monkeypatch):
    cfg = make_config(trials=300)
    bounded = run_gauss_trials(cfg, attacker, param, budget, codebook=codebook)
    unbounded = GaussCodebook.nearest
    monkeypatch.setattr(GaussCodebook, "nearest", lambda self, targets, admissible=False,
                        radius=math.inf: unbounded(self, targets, admissible))
    assert run_gauss_trials(cfg, attacker, param, budget, codebook=codebook) == bounded


@pytest.mark.oracle
@pytest.mark.parametrize("attacker, attack_p, message", [
    ("unknown_attacker", None, "attacker must be one of"),
    (None, 5.0, "only to the heavy_noise attacker"),
    ("random_vector", 5.0, "only to the heavy_noise attacker"),
])
def test_gauss_trials_refuse_an_attacker_or_strength_they_cannot_run(attacker, attack_p,
                                                                     message, monkeypatch):
    # refused before any codebook is drawn
    monkeypatch.setattr(sim_gaussian, "build_gauss_codebook", lambda cfg: pytest.fail("drawn"))
    with pytest.raises(ValueError, match=message):
        run_gauss_trials(make_config(), attacker, attack_p)


@pytest.mark.parametrize("admissible", [np.array([0, 2]), np.array([True, False, True]),
                                        np.ones((2, 3), dtype=bool), np.ones((3, 3), dtype=bool),
                                        None, 1])
def test_nearest_refuses_an_index_array_and_any_marking(admissible, monkeypatch):
    # a Gaussian codebook searches every codeword or its admissible rows:
    # anything else, per-trial markings of the right shape included, is
    # refused before any tree is built
    cb = GaussCodebook(np.array([[0.0, 0, 0, 0], [1, 1, 1, 1], [2, 2, 2, 2]]),
                       np.array([True, False, True]))
    monkeypatch.setattr(sim_gaussian, "_kd_tree", lambda *a, **kw: pytest.fail("searched"))
    with pytest.raises(ValueError, match="searches every codeword"):
        cb.nearest(np.zeros((2, 4)), admissible)
