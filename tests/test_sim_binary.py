from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from authdist import sim_binary
from authdist.core import binary_entropy
from authdist.sim_binary import (
    BinCodebook,
    SimConfig,
    build_codebook,
    pack_bits,
    run_attack_trials,
    run_reference_trials,
    unpack_bits,
    _random_words,
)
from authdist.sim_common import binomial_sigma, stream


def make_config(**kw):
    base = dict(n=16, tau=0.2, gamma=0.25, p=0.08, delta=0.12, trials=100,
                seed_public=11, seed_secret=22)
    base.update(kw)
    return SimConfig(**base)


def handmade_codebook(patterns, admissible, n):
    words = np.stack([pack_bits(np.array(p, dtype=np.uint8)) for p in patterns])
    return BinCodebook(n, words, np.array(admissible, dtype=bool))


@pytest.mark.oracle
@pytest.mark.parametrize("n", [8, 16, 63, 64, 65, 100])
def test_pack_unpack_roundtrip(n):
    bits = np.random.default_rng(n).integers(0, 2, n).astype(np.uint8)
    assert (unpack_bits(pack_bits(bits), n) == bits).all()


def _pack_bits_by_or_at(bits):
    """The bit-at-a-time packing formula pack_bits must reproduce."""
    bits = np.asarray(bits, dtype=np.uint32)
    out = np.zeros((bits.size + 31) // 32, dtype=np.uint32)
    idx = np.arange(bits.size)
    np.bitwise_or.at(out, idx // 32, bits << (idx % 32).astype(np.uint32))
    return out


def _unpack_bits_by_shift_and_mask(words, n):
    """The shift-and-mask formula unpack_bits must reproduce."""
    idx = np.arange(n)
    return ((words[idx // 32] >> (idx % 32).astype(np.uint32)) & np.uint32(1)).astype(np.uint8)


@pytest.mark.oracle
def test_unpack_bits_matches_the_shift_and_mask_formula():
    rng = np.random.default_rng(5)
    for n in range(1, 201):
        words = _random_words(rng, 1, n)[0]
        for w in (words, ~words, np.zeros_like(words)):
            got, want = unpack_bits(w, n), _unpack_bits_by_shift_and_mask(w, n)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert (got == want).all()


@pytest.mark.oracle
def test_pack_bits_matches_the_bitwise_or_formula():
    rng = np.random.default_rng(4)
    for n in range(1, 201):
        for bits in (rng.integers(0, 2, n).astype(np.uint8), rng.random(n) < 0.5,
                     np.ones(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8)):
            got, want = pack_bits(bits), _pack_bits_by_or_at(bits)
            assert got.dtype == np.uint32 and got.shape == want.shape
            assert (got == want).all()


@pytest.mark.oracle
@pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65, 130])
def test_codebook_words_keep_the_draw_order_of_two_64_bit_draws(n):
    # two draws of (count, ceil(n/64)) 32-bit values as uint64, the rows'
    # 64-bit words' low halves and then their high halves
    count, w = 5, -(-n // 64)
    rng = np.random.default_rng(n)
    lo, hi = (rng.integers(0, 2 ** 32, (count, w), dtype=np.uint64) for _ in range(2))
    want = np.zeros((count, 2 * w), dtype=np.uint32)
    want[:, 0::2], want[:, 1::2] = lo, hi
    want = want[:, :-(-n // 32)]
    want &= np.array([(1 << min(32, n - 32 * j)) - 1 for j in range(want.shape[1])],
                     dtype=np.uint32)
    got_rng = np.random.default_rng(n)
    got = _random_words(got_rng, count, n)
    assert got.dtype == np.uint32 and got.tolist() == want.tolist()
    assert got_rng.random() == rng.random()


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(n=4)
    with pytest.raises(ValueError):
        make_config(tau=0.5)
    with pytest.raises(ValueError):
        make_config(gamma=0.0)
    with pytest.raises(ValueError):
        make_config(delta=-0.1)
    # tractability cap: n (1 - h(tau) + 2 gamma) must stay <= 24 bits
    with pytest.raises(ValueError):
        make_config(n=64)


def test_codebook_sizes_from_rate_arithmetic():
    cfg = make_config()
    cb = build_codebook(cfg)
    rate = 1.0 - binary_entropy(0.2) + 0.5
    assert cb.count == round(2.0 ** (16 * rate)) == 5592
    assert cb.n_admissible == round(2.0 ** (16 * (rate - 0.25))) == 350
    assert cb.n_admissible / cb.count == pytest.approx(2.0 ** (-16 * 0.25), abs=1e-3)


def test_codebook_reproducible_and_secret_dependent():
    cfg = make_config()
    a, b = build_codebook(cfg), build_codebook(cfg)
    assert (a.words == b.words).all()
    assert (a.admissible == b.admissible).all()
    c = build_codebook(make_config(seed_secret=23))
    assert (a.words == c.words).all()
    assert (a.admissible != c.admissible).any()
    d = build_codebook(make_config(seed_public=12))
    assert (a.words != d.words).any()


def test_half_admissible_when_n_gamma_is_one():
    cfg = make_config(n=16, gamma=1.0 / 16.0)
    cb = build_codebook(cfg)
    assert abs(cb.n_admissible - cb.count / 2.0) <= 1.0


def test_admissibility_marginal_over_fresh_secrets():
    # small codebook: n=8, tau=0.3, gamma=0.3 -> |C| = 54, |A| = 10
    cfg = make_config(n=8, tau=0.3, gamma=0.3)
    cb0 = build_codebook(cfg)
    target = cb0.n_admissible / cb0.count
    hits = 0
    resamples = 10000
    for s in range(resamples):
        cb = build_codebook(make_config(n=8, tau=0.3, gamma=0.3, seed_secret=1000 + s))
        hits += int(cb.admissible[0])
    rate = hits / resamples
    assert abs(rate - target) <= 3.0 * binomial_sigma(target, resamples)


def test_encode_exact_hit_and_threshold():
    n = 16
    zeros = [0] * n
    ones = [1] * n
    cb = handmade_codebook([zeros, ones], [True, True], n)
    radius = make_config(tau=0.2, delta=0.1).encode_radius
    # source equal to an admissible codeword: distortion 0
    x, idx = cb.encode(zeros, radius)
    assert idx == 0 and (x == 0).all()
    # radius is n(tau+delta) = 4.8: four flips encode, six fail (10 from ones)
    src4 = [1] * 4 + [0] * (n - 4)
    x, idx = cb.encode(src4, radius)
    assert idx == 0
    src6 = [1] * 6 + [0] * (n - 6)
    assert cb.encode(src6, radius) is None


def test_encode_skips_forbidden_and_breaks_ties_low():
    n = 16
    zeros = [0] * n
    one_flip = [1] + [0] * (n - 1)
    cb = handmade_codebook([zeros, one_flip], [False, True], n)
    radius = make_config(delta=0.1).encode_radius
    x, idx = cb.encode(zeros, radius)
    assert idx == 1                      # nearest admissible, not nearest overall
    # tie between two admissible codewords goes to the lowest index
    a = [1, 0] + [0] * (n - 2)
    b = [0, 1] + [0] * (n - 2)
    cb2 = handmade_codebook([a, b], [True, True], n)
    _, idx = cb2.encode(zeros, radius)
    assert idx == 0


def test_decode_noiseless_recovers_codeword():
    # the decoded reconstruction must equal the encoder's codeword whenever
    # decoding succeeds; rare rejections happen when a forbidden duplicate
    # of the codeword sits at a lower index (tie goes to the lowest index)
    cfg = make_config(trials=50)
    cb = build_codebook(cfg)
    encoded = authentic = 0
    for t in range(50):
        rng = stream(cfg.seed_public, 1, t)
        s = rng.integers(0, 2, cfg.n).astype(np.uint8)
        res = cb.encode(s, cfg.encode_radius)
        if res is None:
            continue
        encoded += 1
        x, idx = res
        out = cb.decode(x, cfg.decode_radius)
        if out is not None:
            authentic += 1
            assert (out[0] == x).all()
    assert encoded > 0 and authentic >= 0.9 * encoded


def test_decode_out_of_radius_and_forbidden():
    n = 16
    zeros = [0] * n
    cb = handmade_codebook([zeros], [True], n)
    radius = make_config(p=0.08, delta=0.12).decode_radius
    far = [1] * 8 + [0] * 8          # distance 8 > n(p+delta) = 3.2
    assert cb.decode(far, radius) is None
    cb_forbidden = handmade_codebook([zeros], [False], n)
    assert cb_forbidden.decode(zeros, radius) is None
    # public decoding ignores the marking
    assert cb_forbidden.decode(zeros, radius, check_admissibility=False) is not None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=16, max_size=16))
def test_decode_is_total(bits):
    cfg = make_config()    # p = 0.08, delta = 0.12
    out = build_codebook(cfg).decode(np.array(bits, dtype=np.uint8), cfg.decode_radius)
    assert out is None or len(out) == 2


def test_resubmitted_encoding_is_never_an_attack():
    cfg = make_config(p=0.0, trials=30)
    cb = build_codebook(cfg)
    for t in range(30):
        rng = stream(cfg.seed_public, 1, t)
        s = rng.integers(0, 2, cfg.n).astype(np.uint8)
        res = cb.encode(s, cfg.encode_radius)
        if res is None:
            continue
        x, _ = res
        out = cb.decode(x, cfg.decode_radius)
        if out is not None:
            assert (out[0] == x).all()


def test_reference_trials_reproducible_and_identity():
    cfg = make_config(n=24, tau=0.2, gamma=0.1, p=0.08, delta=0.12, trials=400)
    stats = run_reference_trials(cfg)
    again = run_reference_trials(cfg)
    assert stats == again
    assert stats.dr_de_max_gap == 0.0
    assert stats.matched > 0
    # p = 0: every produced reconstruction is the encoder's codeword, so the
    # per-trial identity D_r == D_e is exact across the whole run
    clean = run_reference_trials(make_config(p=0.0, trials=200))
    assert clean.wrong_codeword == 0
    assert clean.dr_de_max_gap == 0.0
    assert clean.empirical_dr == pytest.approx(clean.empirical_de, rel=0.05)


def test_attack_trials_substitute_rate():
    cfg = make_config(trials=4000)
    cb = build_codebook(cfg)
    stats = run_attack_trials(cfg, "substitute_codeword", codebook=cb)
    target = cb.n_admissible / cb.count
    sigma = binomial_sigma(target, stats.attack_trials)
    assert abs(stats.attack_rate - target) <= 3 * sigma
    assert stats.attack_trials == cfg.trials - stats.encode_failures


def test_attack_trials_fresh_marking():
    # per-trial markings sample the construction phase: i.i.d. successes at
    # the marginal rate, still reproducible from the seeds
    cfg = make_config(trials=3000)
    stats = run_attack_trials(cfg, "substitute_codeword", fresh_marking=True)
    assert stats == run_attack_trials(cfg, "substitute_codeword", fresh_marking=True)
    target = 2.0 ** (-16 * 0.25)
    assert abs(stats.attack_rate - target) <= 3 * binomial_sigma(target, stats.attack_trials)


def test_attack_trials_random_vector_bounded():
    cfg = make_config(n=32, tau=0.2, gamma=0.1, trials=2000)
    stats = run_attack_trials(cfg, "random_vector")
    bound = 2.0 ** (-32 * 0.1)
    assert stats.attack_rate <= bound + 3 * binomial_sigma(bound, stats.attack_trials)


def test_every_attacker_respects_the_marking_bound():
    cfg = make_config(n=16, tau=0.2, gamma=0.25, trials=3000)
    bound = 2.0 ** (-16 * 0.25)
    for attacker, attack_p in (("substitute_codeword", None),
                               ("heavy_noise", 0.4),
                               ("random_vector", None)):
        stats = run_attack_trials(cfg, attacker, attack_p, fresh_marking=True)
        sigma = binomial_sigma(bound, max(stats.attack_trials, 1))
        assert stats.attack_rate <= bound + 3 * sigma, attacker


def test_heavy_noise_needs_param():
    cfg = make_config()
    with pytest.raises(ValueError):
        run_attack_trials(cfg, "heavy_noise")
    with pytest.raises(ValueError):
        run_attack_trials(cfg, "heavy_noise", attack_p=0.05)   # not heavier than p
    with pytest.raises(ValueError):
        run_attack_trials(cfg, "unknown_attacker")
    with pytest.raises(ValueError, match="only to the heavy_noise attacker"):
        run_attack_trials(cfg, "substitute_codeword", 0.3)


# -- nearest-codeword search against distances over unpacked bits ----------

def _brute_nearest(cb, targets, among=None):
    """Lowest-index nearest codeword by distances over unpacked bits."""
    bits = np.stack([cb.content(i) for i in range(cb.count)])
    rows_of = (repeat(np.arange(cb.count)) if among is None
               else repeat(among) if among.ndim == 1 else map(np.flatnonzero, among))
    idx, dist = [], []
    for target, rows in zip(targets, rows_of):
        d = (bits[rows] != unpack_bits(target, cb.n)).sum(axis=1)
        idx.append(rows[d == d.min()].min())
        dist.append(d.min())
    return np.array(idx), np.array(dist)


def _marked(cb, among):
    """``cb`` with the index array ``among`` as its admissible rows."""
    admissible = np.zeros(cb.count, dtype=bool)
    admissible[among] = True
    return BinCodebook(cb.n, cb.words, admissible)


def _assert_matches_brute(cb, targets, admissible=False):
    """``cb.nearest(targets, admissible)`` against the brute force over
    every row, the admissible rows or the per-trial markings."""
    idx, dist = cb.nearest(targets, admissible)
    among = (None if admissible is False else cb.admissible_indices if admissible is True
             else admissible)
    want_idx, want_dist = _brute_nearest(cb, targets, among)
    assert idx.tolist() == want_idx.tolist()
    assert dist.tolist() == want_dist.tolist()


# one target row per tile, tiles of a few rows that do not divide the 100
# targets, and the default budget
@pytest.mark.oracle
@pytest.mark.parametrize("scan_bytes", [1, 1 << 14, sim_binary.SCAN_BYTES])
@pytest.mark.parametrize("n", [16, 32, 33, 64, 65, 130])
def test_nearest_matches_brute_force_over_unpacked_bits(n, scan_bytes, monkeypatch):
    monkeypatch.setattr(sim_binary, "SCAN_BYTES", scan_bytes)
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, size=(600, n)).astype(np.uint8)
    bits[400:450] = bits[10:60]          # duplicates of lower-index rows
    cb = handmade_codebook(bits, rng.random(600) < 0.3, n)
    noisy = bits[rng.integers(0, 600, 40)] ^ (rng.random((40, n)) < 0.1)
    targets = np.stack([pack_bits(b) for b in np.vstack(
        [bits[400:420], noisy, rng.integers(0, 2, size=(40, n))])])
    markings = rng.random((len(targets), 600)) < 0.2
    _assert_matches_brute(cb, targets)
    _assert_matches_brute(cb, targets, True)
    _assert_matches_brute(cb, targets, markings)
    assert cb.nearest(targets[:20])[0].tolist() == list(range(10, 30))


@pytest.mark.oracle
def test_nearest_lowest_index_wins_among_duplicate_rows():
    n = 70
    zeros, ones = [0] * n, [1] * n
    two = [1, 1] + [0] * (n - 2)
    far = [1] * 64 + [0] * (n - 64)
    cb = handmade_codebook([ones, two, zeros, two, zeros, far], [True] * 6, n)
    targets = np.stack([pack_bits(np.array(t, dtype=np.uint8))
                        for t in (zeros, two, [1] + [0] * (n - 1), ones)])
    assert cb.nearest(targets)[0].tolist() == [2, 1, 1, 0]
    # a subset is searched as the admissible rows of the same words
    assert _marked(cb, [3, 4, 5]).nearest(targets, True)[0].tolist() == [4, 3, 3, 5]
    assert _marked(cb, [1, 3]).nearest(targets, True)[0].tolist() == [1, 1, 1, 1]
    masks = np.zeros((4, 6), dtype=bool)
    for row, marked in enumerate([[0, 3], [4, 5], [1, 2, 3], [1, 3]]):
        masks[row, marked] = True
    assert cb.nearest(targets, masks)[0].tolist() == [3, 4, 1, 1]
    _assert_matches_brute(cb, targets)
    _assert_matches_brute(cb, targets, masks)
    for among in ([3, 4, 5], [1, 3], [0, 2, 4]):
        _assert_matches_brute(_marked(cb, among), targets, True)


@pytest.mark.oracle
def test_nearest_distances_do_not_wrap_past_255_bits():
    # 260 bits over five words: the all-ones row lies 260 bits from the
    # zero target, which an 8-bit count would wrap to 4 < 10
    n = 260
    ten = [1] * 10 + [0] * (n - 10)
    cb = handmade_codebook([[1] * n, ten], [True, True], n)
    (idx,), (dist,) = cb.nearest(pack_bits(np.zeros(n, dtype=np.uint8))[None, :])
    assert (idx, dist) == (1, 10)
    assert cb.nearest(pack_bits(np.ones(n, dtype=np.uint8))[None, :])[1].tolist() == [0]
    # a masked-out row counts above every distance, 260 included
    zero = pack_bits(np.zeros(n, dtype=np.uint8))[None, :]
    idx, dist = cb.nearest(zero, np.array([[True, False]]))
    assert (idx.tolist(), dist.tolist()) == ([0], [260])


@pytest.mark.parametrize("admissible", [np.array([0, 2]), np.array([True, False, True]),
                                        np.ones((3, 3), dtype=bool), np.ones((2, 4), dtype=bool),
                                        np.ones((2, 3), dtype=np.uint8), None, 1])
def test_nearest_refuses_anything_but_the_two_searches_and_per_trial_markings(admissible):
    # an index array, a 1-D or mis-shaped marking, a non-bool array or
    # another object: refused before the admissible rows' words are cached
    n = 16
    cb = handmade_codebook([[0] * n, [1] * n, [1] * 8 + [0] * 8], [True, False, True], n)
    targets = pack_bits(np.zeros((2, n), dtype=np.uint8))
    with pytest.raises(ValueError, match="admissible must be"):
        cb.nearest(targets, admissible)
    assert "_admissible_words" not in vars(cb)
    assert cb.nearest(targets, np.ones((2, 3), dtype=bool))[0].tolist() == [0, 0]
