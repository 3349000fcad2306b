import math

import numpy as np
import pytest

from authdist import sim_binary, sim_common, sim_gaussian
from authdist.pubkey import (
    TagCarrier,
    TestDoubleScheme,
    binomial_majority_error,
    carrier_channel_robustness,
    index_bits,
    pk_decode,
    pk_encode,
    repetition_for_recovery,
)
from authdist.sim_binary import SimConfig, build_codebook
from authdist.sim_common import TrialStats, stream
from authdist.sim_gaussian import GaussSimConfig, build_gauss_codebook

KS = KP = b"matched-test-key"


def bin_config(**kw):
    base = dict(n=16, tau=0.2, gamma=0.25, p=0.0, delta=0.12, trials=200,
                seed_public=11, seed_secret=22)
    base.update(kw)
    return SimConfig(**base)


@pytest.fixture(scope="module")
def bin_cb():
    return build_codebook(bin_config())


@pytest.fixture(scope="module")
def scheme():
    return TestDoubleScheme(64)


@pytest.fixture(scope="module")
def bin_tags(bin_cb, scheme):
    return TagCarrier(scheme, bin_cb.count, 1)


def test_scheme_sign_verify_contract(scheme):
    msg = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
    tag = scheme.sign(msg, KS)
    assert tag.size == 64 and set(np.unique(tag)) <= {0, 1}
    assert (tag == scheme.sign(msg, KS)).all()
    assert scheme.verify(msg, tag, KP)
    assert not scheme.verify(msg, tag, b"other-key")
    assert not scheme.verify(msg, 1 - tag, KP)
    other = scheme.sign(np.array([1, 0, 1, 1, 0, 0, 0], dtype=np.uint8), KS)
    assert (other != tag).any()
    # a block signs each row as the scalar call does, an empty message included
    block = scheme.sign(np.array([[1, 0, 1, 1, 0, 0, 1], [1, 0, 1, 1, 0, 0, 0]], np.uint8), KS)
    assert np.array_equal(block, [tag, other])
    assert scheme.verify(np.stack([msg, msg]), np.stack([tag, 1 - tag]), KP).tolist() == [True, False]
    empty = scheme.sign(np.array([], dtype=np.uint8), KS)
    assert empty.size == 64 and np.array_equal(scheme.sign(np.zeros((2, 0), np.uint8), KS),
                                               [empty, empty])


def test_index_bits_width_and_value():
    bits = index_bits(5, 5592)
    assert bits.size == 13                       # ceil(log2 5592)
    assert int("".join(map(str, bits)), 2) == 5
    assert index_bits(0, 2).size == 1
    block = index_bits(np.array([0, 5, 5591]), 5592)
    assert block.shape == (3, 13)
    for row, i in zip(block, [0, 5, 5591]):
        assert np.array_equal(row, index_bits(i, 5592))
    with pytest.raises(TypeError, match="integer"):
        index_bits(1.5, 5592)


@pytest.mark.parametrize("index", [4, 5, -1, -3, [1, 4], [-1, 2]])
def test_index_outside_the_codebook_is_refused(index, scheme):
    # the low bits alone would read 5 and -3 as 1 at count 4
    tags = TagCarrier(scheme, 4, 3)
    carrier = tags.sign(1, KS)
    for call in (lambda: index_bits(index, 4), lambda: tags.sign(index, KS),
                 lambda: tags.verify(carrier, index, KP)):
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            call()
    assert tags.verify(carrier, 1, KP)


def test_embedding_overhead_and_exact_extraction(bin_cb, bin_tags):
    rng = stream(1, 0)
    s = rng.integers(0, 2, 16).astype(np.uint8)
    pe = pk_encode(s, bin_cb, bin_tags, KS, bin_config().encode_radius)
    assert pe is not None
    assert pe.embedding_overhead == pytest.approx(64 / (16 + 64))
    out = pk_decode(pe.block, bin_cb, bin_tags, KP, bin_config().decode_radius)
    assert out.authentic and out.codeword_index == pe.codeword_index


def test_pk_equals_secret_key_on_clean_channel(bin_cb, bin_tags):
    cfg = bin_config()
    for t in range(300):
        rng = stream(cfg.seed_public, 1, t)
        s = rng.integers(0, 2, cfg.n).astype(np.uint8)
        pe = pk_encode(s, bin_cb, bin_tags, KS, cfg.encode_radius)
        if pe is None:
            continue
        pk_out = pk_decode(pe.block, bin_cb, bin_tags, KP, cfg.decode_radius)
        sk_out = bin_cb.decode(pe.content, cfg.decode_radius)
        assert pk_out.authentic == sk_out.authentic
        if pk_out.authentic:
            assert (pk_out.reconstruction == sk_out.reconstruction).all()


def test_tag_reuse_substitution_rejected(bin_cb, bin_tags):
    cfg = bin_config()
    rejected = attacks = 0
    for t in range(500):
        rng = stream(cfg.seed_public, 1, t)
        s = rng.integers(0, 2, cfg.n).astype(np.uint8)
        pe = pk_encode(s, bin_cb, bin_tags, KS, cfg.encode_radius)
        if pe is None:
            continue
        arng = stream(cfg.seed_public, 2, t)
        while True:
            j = int(arng.integers(0, bin_cb.count))
            if not (bin_cb.content(j) == pe.content).all():
                break
        forged = np.concatenate([bin_cb.content(j), pe.carrier])
        attacks += 1
        rejected += int(not pk_decode(forged, bin_cb, bin_tags, KP, cfg.decode_radius).authentic)
    assert attacks > 0 and rejected == attacks


def test_random_tag_forgery_rejected(bin_cb, bin_tags):
    cfg = bin_config()
    arng = stream(99, 0)
    accepted = 0
    for _ in range(10000):
        j = int(arng.integers(0, bin_cb.count))
        tag = arng.integers(0, 2, 64).astype(np.uint8)
        block = np.concatenate([bin_cb.content(j), tag])
        accepted += int(pk_decode(block, bin_cb, bin_tags, KP, cfg.decode_radius).authentic)
    assert accepted == 0


def test_forgery_rate_independent_of_marking(bin_cb, scheme, bin_tags):
    # with the marking published, only the tag gates acceptance: submitting a
    # FORBIDDEN codeword with a valid tag for its index must be accepted
    forb = int(np.flatnonzero(~bin_cb.admissible)[0])
    tag = scheme.sign(index_bits(forb, bin_cb.count), KS)
    block = np.concatenate([bin_cb.content(forb), tag])
    out = pk_decode(block, bin_cb, bin_tags, KP, bin_config().decode_radius)
    assert out.authentic and out.codeword_index == forb


def test_conditional_equivalence_under_noise(bin_cb, bin_tags):
    # noisy content, clean carrier: whenever the tag survives, the pk decoder
    # agrees with the public content decode and accepts iff that decode
    # recovers the signed index
    cfg = bin_config(p=0.08)
    for t in range(200):
        rng = stream(cfg.seed_public, 1, t)
        s = rng.integers(0, 2, cfg.n).astype(np.uint8)
        pe = pk_encode(s, bin_cb, bin_tags, KS, cfg.encode_radius)
        if pe is None:
            continue
        noisy_content = pe.content ^ (rng.random(cfg.n) < cfg.p).astype(np.uint8)
        block = np.concatenate([noisy_content, pe.carrier])
        pk_out = pk_decode(block, bin_cb, bin_tags, KP, cfg.decode_radius)
        public = bin_cb.decode(noisy_content, cfg.decode_radius, check_admissibility=False)
        should_accept = public.authentic and public.codeword_index == pe.codeword_index
        assert pk_out.authentic == should_accept
        if pk_out.authentic:
            assert (pk_out.reconstruction == public.reconstruction).all()


def test_binomial_majority_error_against_direct_sum():
    # independent oracle: direct summation of the binomial tail
    direct = sum(math.comb(9, j) * 0.08 ** j * 0.92 ** (9 - j) for j in range(5, 10))
    assert direct == pytest.approx(3.1358185373696e-04, rel=1e-10)
    assert binomial_majority_error(9, 0.08) == pytest.approx(direct, rel=1e-12)


def test_repetition_for_recovery_meets_target():
    k = repetition_for_recovery(0.08, 64, target=0.99)
    assert k % 2 == 1
    assert (1 - binomial_majority_error(k, 0.08)) ** 64 >= 0.99
    assert (1 - binomial_majority_error(k - 2, 0.08)) ** 64 < 0.99
    assert repetition_for_recovery(0.0, 64) == 1


def test_carrier_robustness_clean_channel(scheme):
    cfg = bin_config(p=0.0, trials=200)
    stats = carrier_channel_robustness(cfg, scheme, repetition=1)
    assert stats.tag_recoveries == cfg.trials


def test_carrier_robustness_needs_redundancy(scheme):
    cfg = bin_config(p=0.08, trials=2000)
    rep9 = carrier_channel_robustness(cfg, scheme, repetition=9)
    rep1 = carrier_channel_robustness(cfg, scheme, repetition=1)
    # predictions: (1 - 3.14e-4)^64 = 0.9801 vs 0.92^64 = 0.0048
    assert rep9.tag_recoveries / cfg.trials >= 0.96
    assert rep1.tag_recoveries / cfg.trials <= 0.05


def test_quantized_carrier_roundtrip_and_noise():
    tag = stream(3, 0).integers(0, 2, 64).astype(np.uint8)
    tags = TagCarrier(TestDoubleScheme(64), 2, 3, 6.0)
    carrier = tags.embed(tag)
    assert (tags.extract(carrier) == tag).all()
    noise = stream(3, 1).normal(0.0, 1.0, carrier.size)
    assert (tags.extract(carrier + noise) == tag).all()


# the binary and quantized carrier codecs the lattice codec replaced, kept
# as its oracle
def _embed_binary(tag, repetition):
    return np.repeat(tag, repetition).astype(np.uint8)


def _extract_binary(carrier, tag_bits, repetition):
    votes = carrier[: tag_bits * repetition].reshape(tag_bits, repetition)
    return (votes.sum(axis=1) * 2 > repetition).astype(np.uint8)


def _embed_quantized(tag, repetition, step):
    return np.repeat(tag.astype(float), repetition) * step


def _extract_quantized(carrier, tag_bits, repetition, step):
    lattice = np.rint(carrier[: tag_bits * repetition] / step).astype(np.int64)
    bits = (lattice & 1).astype(np.uint8)
    votes = bits.reshape(tag_bits, repetition)
    return (votes.sum(axis=1) * 2 > repetition).astype(np.uint8)


@pytest.mark.oracle
@pytest.mark.parametrize("repetition", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("tag_bits", [8, 64])
def test_carrier_codec_matches_the_binary_oracle(tag_bits, repetition):
    # even repetitions tie; both read a tie as 0
    tags = TagCarrier(TestDoubleScheme(tag_bits), 2, repetition)
    for t in range(50):
        rng = stream(tag_bits * 10 + repetition, t)
        tag = rng.integers(0, 2, tag_bits).astype(np.uint8)
        carrier = tags.embed(tag)
        assert carrier.dtype == np.uint8
        assert np.array_equal(carrier, _embed_binary(tag, repetition))
        p = rng.uniform(0.0, 0.5)
        noisy = carrier ^ (rng.random(carrier.size) < p).astype(np.uint8)
        assert np.array_equal(tags.extract(noisy), _extract_binary(noisy, tag_bits, repetition))


@pytest.mark.oracle
@pytest.mark.parametrize("repetition", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("step", [6.0, 0.7])
def test_carrier_codec_matches_the_quantized_oracle(step, repetition):
    tags = TagCarrier(TestDoubleScheme(64), 2, repetition, step)
    for t in range(50):
        rng = stream(int(step * 10) + repetition, t)
        tag = rng.integers(0, 2, 64).astype(np.uint8)
        carrier = tags.embed(tag)
        assert carrier.dtype == np.float64
        assert np.array_equal(carrier, _embed_quantized(tag, repetition, step))
        noisy = carrier + rng.normal(0.0, rng.uniform(0.0, step), carrier.size)
        assert np.array_equal(tags.extract(noisy), _extract_quantized(noisy, 64, repetition, step))


@pytest.mark.oracle
@pytest.mark.parametrize("step, repetition", [(1, 1), (1, 2), (1, 3), (6.0, 3), (0.7, 4)])
@pytest.mark.parametrize("tag_bits", [8, 13, 64])
def test_block_carrier_matches_the_scalar_oracle_row_by_row(tag_bits, repetition, step):
    # even repetitions tie; both read a tie as 0
    count = 5592
    tags = TagCarrier(TestDoubleScheme(tag_bits), count, repetition, step)
    rng = stream(tag_bits + 100 * repetition, int(step * 10))
    idx = rng.integers(0, count, 40)
    carriers = tags.sign(idx, KS)
    # a BSC on binary carriers, Gaussian noise on quantized ones, every
    # other row clean
    clean = np.arange(40)[:, None] % 2 == 0
    noisy = (carriers ^ (~clean & (rng.random(carriers.shape) < 0.2)) if step == 1
             else carriers + ~clean * rng.normal(0.0, step / 2, carriers.shape))
    decoded = np.where(rng.random(40) < 0.5, idx, rng.integers(0, count, 40))
    read, verdicts = tags.extract(noisy), tags.verify(noisy, decoded, KP)
    assert carriers.shape == (40, tag_bits * repetition) and verdicts.shape == (40,)
    extract = (_extract_binary if step == 1 else
               lambda c, b, r: _extract_quantized(c, b, r, step))
    for i in range(40):
        tag = tags.scheme.sign(index_bits(int(idx[i]), count), KS)
        want = (_embed_binary(tag, repetition) if step == 1
                else _embed_quantized(tag, repetition, step))
        assert np.array_equal(carriers[i], want)
        assert np.array_equal(read[i], extract(noisy[i], tag_bits, repetition))
        assert verdicts[i] == tags.verify(noisy[i], int(decoded[i]), KP)
    # the block's verdicts are not all alike
    assert verdicts.any() and not verdicts.all()


def test_binary_pk_decode_refuses_a_carrier_sample_other_than_0_or_1(bin_cb, bin_tags):
    s = stream(1, 0).integers(0, 2, 16).astype(np.uint8)
    block = pk_encode(s, bin_cb, bin_tags, KS, bin_config().encode_radius).block
    assert pk_decode(block, bin_cb, bin_tags, KP, bin_config().decode_radius).authentic
    # the old vote count read a 2 as two votes for 1, a parity read as 0
    block[-1] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        pk_decode(block, bin_cb, bin_tags, KP, bin_config().decode_radius)
    for bad in (math.nan, 0.5, -1.0):
        floats = block.astype(float)
        floats[-1] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            pk_decode(floats, bin_cb, bin_tags, KP, bin_config().decode_radius)


def test_gaussian_pk_roundtrip():
    cfg = GaussSimConfig(n=8, rate=1.5, sigma_s2=100.0, sigma_n2=1.0, trials=10,
                         seed_public=5, seed_secret=6)
    cb = build_gauss_codebook(cfg)
    tags = TagCarrier(TestDoubleScheme(64), cb.count, 3, 6.0)
    for t in range(20):
        s = stream(7, t).normal(0, 10.0, 8)
        pe = pk_encode(s, cb, tags, KS, math.inf)
        out = pk_decode(pe.block, cb, tags, KP, cfg.decode_radius)
        assert out.authentic and out.codeword_index == pe.codeword_index
        # substitution with the old tag must fail
        arng = stream(8, t)
        j = int(arng.integers(0, cb.count))
        if j != pe.codeword_index:
            forged = np.concatenate([cb.codewords[j], pe.carrier])
            assert not pk_decode(forged, cb, tags, KP, cfg.decode_radius).authentic


@pytest.mark.parametrize("quant_step", [0.0, -6.0, math.nan])
def test_gaussian_pk_decode_refuses_a_step_that_is_not_positive(quant_step):
    cfg = GaussSimConfig(n=8, rate=1.5, sigma_s2=100.0, sigma_n2=1.0, trials=10,
                         seed_public=5, seed_secret=6)
    cb = build_gauss_codebook(cfg)
    scheme = TestDoubleScheme(64)
    pe = pk_encode(stream(7, 0).normal(0, 10.0, 8), cb, TagCarrier(scheme, cb.count, 1, 6.0), KS,
                   math.inf)
    with pytest.raises(ValueError, match="step must be positive"):
        pk_decode(pe.block, cb, TagCarrier(scheme, cb.count, 1, quant_step), KP, cfg.decode_radius)
    with pytest.raises(ValueError, match="step must be positive"):
        pk_encode(stream(7, 0).normal(0, 10.0, 8), cb, TagCarrier(scheme, cb.count, 1, quant_step),
                  KS, math.inf)


def test_gaussian_carrier_robustness():
    cfg = GaussSimConfig(n=8, rate=1.5, sigma_s2=100.0, sigma_n2=1.0, trials=400,
                         seed_public=5, seed_secret=6)
    stats = carrier_channel_robustness(cfg, TestDoubleScheme(64), repetition=3)
    assert stats.tag_recoveries / cfg.trials >= 0.99


def test_carrier_robustness_pinned_stats():
    # recorded with one stream(seed_public, 3, t) per trial; 600 trials span
    # three driver blocks
    cfg = bin_config(p=0.05, trials=600)
    stats = carrier_channel_robustness(cfg, TestDoubleScheme(64), repetition=3)
    assert stats == TrialStats(trials_run=600, decode_failures=216, matched=384,
                               tag_recoveries=384)
    gcfg = GaussSimConfig(n=8, rate=1.5, sigma_s2=100.0, sigma_n2=1.0, trials=600,
                          seed_public=5, seed_secret=6)
    gstats = carrier_channel_robustness(gcfg, TestDoubleScheme(64), repetition=1)
    assert gstats == TrialStats(trials_run=600, decode_failures=80, matched=520,
                                tag_recoveries=520)


def test_carrier_robustness_builds_no_codebook(monkeypatch):
    # the pinned stats again, with every codebook build and codebook stream refused
    for module, name in ((sim_binary, "build_codebook"), (sim_gaussian, "build_gauss_codebook"),
                         (sim_common, "draw_codebook"), (sim_common, "stream")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **kw: pytest.fail(name))
    stats = carrier_channel_robustness(bin_config(p=0.05, trials=600), TestDoubleScheme(64),
                                       repetition=3)
    assert stats.tag_recoveries == 384
    gcfg = GaussSimConfig(n=8, rate=1.5, sigma_s2=100.0, sigma_n2=1.0, trials=600,
                          seed_public=5, seed_secret=6)
    assert carrier_channel_robustness(gcfg, TestDoubleScheme(64), repetition=1).matched == 520


@pytest.mark.oracle
@pytest.mark.parametrize("one, zero", [(2.0, 0.5), (255.0, math.nan)])
def test_an_observation_outside_the_bits_is_refused_before_any_search(one, zero, scheme):
    # each observation casts to codeword 13's bits
    cfg = SimConfig(n=16, tau=0.2, gamma=0.25, p=0.08, delta=0.12, trials=1, seed_public=1,
                    seed_secret=2)
    cb = build_codebook(cfg)
    y = np.where(cb.content(13) == 1, one, zero)
    tags = TagCarrier(scheme, cb.count, 1)
    block = np.concatenate([y, tags.sign(13, KS)])
    for call in (lambda: cb.decode(y, cfg.decode_radius), lambda: cb.encode(y, cfg.encode_radius),
                 lambda: pk_decode(block, cb, tags, KP, cfg.decode_radius)):
        with pytest.raises(ValueError, match="0 or 1"):
            call()
    # the same block with codeword 13's bits decodes as codeword 13
    clean = np.concatenate([cb.content(13), tags.sign(13, KS)])
    assert pk_decode(clean, cb, tags, KP, cfg.decode_radius).codeword_index == 13


@pytest.mark.oracle
def test_pk_calls_refuse_a_carrier_for_another_codebook_size(bin_cb, scheme):
    # unchecked, a carrier for 100 codewords would refuse only the blocks
    # that decode to an index of 100 or more
    s = stream(1, 0).integers(0, 2, 16).astype(np.uint8)
    block = np.concatenate([bin_cb.content(4000), np.zeros(64, np.uint8)])
    for count in (100, 2 * bin_cb.count):
        tags = TagCarrier(scheme, count, 1)
        with pytest.raises(ValueError, match="tag carrier"):
            pk_encode(s, bin_cb, tags, KS, bin_config().encode_radius)
        with pytest.raises(ValueError, match="tag carrier"):
            pk_decode(block, bin_cb, tags, KP, bin_config().decode_radius)


@pytest.mark.oracle
@pytest.mark.parametrize("bad", [2, 0.5, -1])
def test_binary_pk_decode_refuses_a_content_sample_other_than_0_or_1(bin_cb, bin_tags, bad):
    s = stream(1, 0).integers(0, 2, 16).astype(np.uint8)
    block = pk_encode(s, bin_cb, bin_tags, KS, bin_config().encode_radius).block.astype(float)
    block[0] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        pk_decode(block, bin_cb, bin_tags, KP, bin_config().decode_radius)


@pytest.mark.oracle
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["source", "channel output", "carrier"])
def test_gaussian_non_finite_samples_are_refused_before_the_tree_search(where, bad, monkeypatch):
    cfg = GaussSimConfig(n=8, rate=1.5, sigma_s2=100.0, sigma_n2=1.0, trials=10,
                         seed_public=5, seed_secret=6)
    cb = build_gauss_codebook(cfg)
    tags = TagCarrier(TestDoubleScheme(64), cb.count, 3, 6.0)
    block = pk_encode(stream(7, 0).normal(0, 10.0, 8), cb, tags, KS, math.inf).block
    block[cb.n if where == "carrier" else 0] = bad
    # a fresh codebook has built no tree yet: none may be built now
    cb = build_gauss_codebook(cfg)
    monkeypatch.setattr(sim_gaussian, "_kd_tree", lambda points: pytest.fail("searched"))
    call = {"source": lambda: cb.encode(block[:cb.n], math.inf),
            "channel output": lambda: cb.decode(block[:cb.n], cfg.decode_radius),
            "carrier": lambda: pk_decode(block, cb, tags, KP, cfg.decode_radius)}[where]
    with pytest.raises(ValueError, match="Gaussian samples must be finite"):
        call()
