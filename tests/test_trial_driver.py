"""``run_trials``: block-size independence, block draws against
per-trial Generators and the per-trial loop, and termination."""

import argparse
import copy
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from authdist import sim_common
from authdist._ziggurat import KI, WI
from authdist.cli import _run_pk_trials
from authdist.pubkey import TagCarrier, TestDoubleScheme, pk_decode, pk_encode, source_bits
from authdist.sim_binary import (BinCodebook, SimConfig, _random_words, bsc_channel,
                                 build_codebook, pack_bits, run_attack_trials,
                                 run_reference_trials, uniform_words)
from authdist.sim_gaussian import GaussSimConfig, build_gauss_codebook, run_gauss_trials
from binomial import binomial_sigma

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

BIN_CFG = SimConfig(n=16, tau=0.2, gamma=0.25, p=0.08, delta=0.12, trials=300,
                    seed_public=11, seed_secret=22)
PK_CFG = SimConfig(n=16, tau=0.2, gamma=0.25, p=0.08, delta=0.05, trials=300,
                   seed_public=5, seed_secret=6)
G_CFG = GaussSimConfig(n=8, rate=2.0, sigma_s2=100.0, sigma_n2=1.0, trials=300,
                       seed_public=3, seed_secret=4)


@pytest.fixture(scope="module")
def codebooks():
    return build_codebook(BIN_CFG), build_codebook(PK_CFG), build_gauss_codebook(G_CFG)


def _pk(attacker, tag_bits=64):
    return argparse.Namespace(tag_bits=tag_bits, repetition=3, attacker=attacker)


# every path the driver serves, at settings where each outcome class occurs
PATHS = {
    "binary reference": lambda b, k, g: run_reference_trials(BIN_CFG, b),
    "binary substitute": lambda b, k, g: run_attack_trials(BIN_CFG, codebook=b),
    "binary heavy_noise, fresh marking": lambda b, k, g: run_attack_trials(
        BIN_CFG, "heavy_noise", 0.3, b, fresh_marking=True),
    "binary random_vector": lambda b, k, g: run_attack_trials(BIN_CFG, "random_vector", codebook=b),
    "gaussian reference, encode budget": lambda b, k, g: run_gauss_trials(
        G_CFG, encode_budget=12.0, codebook=g),
    "gaussian substitute": lambda b, k, g: run_gauss_trials(
        G_CFG, "substitute_codeword", codebook=g),
    "gaussian heavy_noise": lambda b, k, g: run_gauss_trials(G_CFG, "heavy_noise", 1.2,
                                                             codebook=g),
    "gaussian random_vector": lambda b, k, g: run_gauss_trials(G_CFG, "random_vector",
                                                               codebook=g),
    "pk reference": lambda b, k, g: _run_pk_trials(_pk(None), PK_CFG, k)[0],
    "pk substitute": lambda b, k, g: _run_pk_trials(_pk("substitute_codeword"), PK_CFG, k)[0],
}


# blocks of 1 and 7 trials; with per-trial markings also blocks of 3,
# the most that a mask budget of three binary masks allows
@pytest.mark.parametrize("setting, value", [("CHUNK", 1), ("CHUNK", 7),
                                            ("MARKING_BYTES", 3 * 5592)])
@pytest.mark.parametrize("path", PATHS)
def test_results_do_not_depend_on_the_block_size(path, setting, value, codebooks, monkeypatch):
    default = PATHS[path](*codebooks)
    assert default.trials_run == 300 > sim_common.CHUNK
    assert codebooks[0].count == 5592
    monkeypatch.setattr(sim_common, setting, value)
    assert PATHS[path](*codebooks) == default


SEEDS = st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 128 + 3, 2 ** 200]),
                  st.integers(0, 2 ** 64))


@pytest.mark.oracle
@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, key=st.sampled_from([0, 1, 2]),
       ts=st.lists(st.one_of(st.integers(0, 300), st.integers(0, 2 ** 32 - 1)), max_size=5))
def test_streams_match_one_stream_per_trial(seed, key, ts):
    got = sim_common.streams(seed, key, ts)
    assert len(got) == len(ts)

    def check(t, rng):
        want = sim_common.stream(seed, key, t)
        assert rng.integers(0, 2 ** 63, 3).tolist() == want.integers(0, 2 ** 63, 3).tolist()
        assert rng.random(2).tolist() == want.random(2).tolist()
        assert rng.normal(size=2).tolist() == want.normal(size=2).tolist()
    got.each(check, ts)


@pytest.mark.oracle
def test_stats_refuse_counts_above_the_trials_run_and_sigma_of_no_trials_is_zero():
    for field in ("encode_failures", "decode_failures", "wrong_codeword", "matched",
                  "attack_successes", "attack_trials"):
        with pytest.raises(ValueError, match="counts must lie"):
            sim_common.TrialStats(trials_run=3, **{field: 4})
    assert binomial_sigma(0.5, 0) == 0.0


@pytest.mark.oracle
def test_streams_reject_what_seed_sequence_rejects():
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match=str(want.value)):
        sim_common.streams(-1, sim_common.TRIAL_KEY, range(3))
    for t in (-1, 2 ** 32):
        with pytest.raises(ValueError, match="trial indices"):
            sim_common.streams(5, sim_common.TRIAL_KEY, [0, t])


@pytest.mark.oracle
@settings(max_examples=150, deadline=None)
@given(seed=st.one_of(st.sampled_from([0, 2 ** 32, 2 ** 64 + 3, 2 ** 200]), st.integers(0, 2 ** 70)),
       key=st.integers(0, 3), n=st.integers(1, 130), p=st.floats(0.0, 0.5),
       ts=st.lists(st.one_of(st.integers(0, 300), st.integers(2 ** 32 - 300, 2 ** 32 - 1)),
                   min_size=1, max_size=4))
def test_block_draws_match_per_trial_generators(seed, key, n, p, ts):
    zeros = pack_bits(np.zeros((len(ts), n), dtype=np.uint8))
    words = sim_common.streams(seed, key, ts)
    got_words, got_flips = uniform_words(words, n), bsc_channel(n, p)(zeros, words)
    bits = sim_common.streams(seed, key, ts)
    got_bits, got_bit_flips = source_bits(bits, n), bsc_channel(n, p)(zeros, bits)
    # a 32-bit draw after an odd count of bits takes the half held back first
    got_tail, got_random = bits.uint32(3), bits.random(2)
    for i, t in enumerate(ts):
        rng = sim_common.stream(seed, key, t)
        assert (got_words[i] == _random_words(rng, 1, n)[0]).all()
        assert (got_flips[i] == pack_bits(rng.random(n) < p)).all()
        rng = sim_common.stream(seed, key, t)
        assert (got_bits[i] == pack_bits(rng.integers(0, 2, n).astype(np.uint8))).all()
        assert (got_bit_flips[i] == pack_bits(rng.random(n) < p)).all()
        assert got_tail[i].tolist() == rng.integers(0, 2 ** 32, 3, dtype=np.uint64).tolist()
        assert got_random[i].tolist() == rng.random(2).tolist()


# Lemire's rule rejects about half the draws at 2^31 + 5 and none at 2^32
HIGHS = st.one_of(st.sampled_from([2, 3, 5592, 40295, 65536, 2 ** 31 + 5, 2 ** 32 - 1, 2 ** 32]),
                  st.integers(2, 2 ** 32))


@pytest.mark.oracle
@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, key=st.sampled_from([0, 1, 2]), high=HIGHS, before=st.integers(0, 3),
       ts=st.lists(st.one_of(st.integers(0, 300), st.integers(0, 2 ** 32 - 1)), min_size=1,
                   max_size=6))
def test_bounded_draws_match_per_trial_generators(seed, key, high, before, ts):
    draws = sim_common.streams(seed, key, ts)
    # an odd count of 32-bit draws before the bounded one holds a half back
    got_before = draws.uint32(before)
    got = draws.integers(high)
    got_after = draws.uint32(3)
    # the even rows draw again alone; every row then draws on from its own position
    again = np.arange(0, len(ts), 2)
    got_again, got_last, got_random = draws.integers(high, again), draws.uint32(1), draws.random(1)
    for i, t in enumerate(ts):
        rng = sim_common.stream(seed, key, t)
        assert got_before[i].tolist() == rng.integers(0, 2 ** 32, before, dtype=np.uint64).tolist()
        assert got[i] == rng.integers(0, high)
        assert got_after[i].tolist() == rng.integers(0, 2 ** 32, 3, dtype=np.uint64).tolist()
        if i % 2 == 0:
            assert got_again[i // 2] == rng.integers(0, high)
        assert got_last[i].tolist() == rng.integers(0, 2 ** 32, 1, dtype=np.uint64).tolist()
        assert got_random[i].tolist() == rng.random(1).tolist()


@pytest.mark.oracle
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, key=st.sampled_from([0, 1, 2, 3]),
       count=st.integers(32, 56),
       scale=st.one_of(st.sampled_from([1.0, 10.0]), st.floats(1e-3, 1e3)), high=HIGHS,
       before=st.sampled_from([0, 1, 2, 13]), start=st.sampled_from([0, 2 ** 32 - 2048]))
def test_block_normals_match_per_trial_generators(seed, key, count, scale, high, before, start):
    """2048 rows of 32 to 56 normals: about 13 idx-0 tail draws and 300
    wedge rejections come first off the fast path in their rows at 32, more
    at more, and the test asserts that at least one of each did."""
    ts = range(start, start + 2048)
    draws = sim_common.streams(seed, key, ts)
    # an odd count of 32-bit draws holds a half back across the normals
    got_int, got_before = draws.integers(high), draws.uint32(before)
    got = draws.normal(count, scale)
    got_after, got_random = draws.integers(high), draws.random(1)
    raw = np.random.PCG64(0)
    outputs = np.empty((len(ts), count), dtype=np.uint64)
    for i, t in enumerate(ts):
        rng = sim_common.stream(seed, key, t)
        assert got_int[i] == rng.integers(0, high)
        assert got_before[i].tolist() == rng.integers(0, 2 ** 32, before, dtype=np.uint64).tolist()
        raw.state = rng.bit_generator.state
        outputs[i] = raw.random_raw(count)
        assert got[i].tobytes() == rng.normal(0.0, scale, count).tobytes()
        assert got_after[i] == rng.integers(0, high)
        assert got_random[i].tolist() == rng.random(1).tolist()
    # a row's first draw off the fast path reads the output after those
    # the row's fast draws took, one each
    wi, ki = np.array(WI), np.array(KI, dtype=np.uint64)
    idx, rabs = outputs & 0xFF, outputs >> 9 & (2 ** 52 - 1)
    fast = rabs < ki[idx]
    rows = np.flatnonzero(~fast.all(axis=1))
    at = rows, fast[rows].argmin(axis=1)
    tail = idx[at] == 0
    # a wedge test that accepts returns the fast path's value
    x = rabs[at] * wi[idx[at]]
    rejected = ~tail & (got[at] != 0.0 + scale * np.where(outputs[at] & 0x100 != 0, -x, x))
    assert tail.any() and rejected.any()


MULT, MOD = sim_common.PCG64_MULT, 1 << 128


def _crafted(out):
    """A PCG64 state and increment whose next output is ``out``, and whose
    output after it reads 0 as a double."""
    inc = -MULT * out % MOD | 1     # steps out to 0 or 1, whose XSL-RR outputs are 0 or 1
    return (out - inc) * pow(MULT, -1, MOD) % MOD, inc      # steps to out, whose output is out


def _place(rng, state, inc):
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}


def _probe(rng, out):
    """rng's standard normal from the :func:`_crafted` state of ``out``,
    and whether the draw took that one output only."""
    _place(rng, *_crafted(out))
    x = rng.standard_normal()
    return x, rng.bit_generator.state["state"]["state"] == out


@pytest.mark.oracle
def test_block_normals_at_the_fast_paths_edges_match_numpy():
    """Rows whose first output has rabs = 0, ki[idx] - 1, ki[idx] or the
    largest rabs, either sign, at the tail's idx 0 and at wedges."""
    outs = [rabs << 9 | sign << 8 | idx for idx in (0, 1, 2, 128, 255) for sign in (0, 1)
            for rabs in {0, max(KI[idx] - 1, 0), KI[idx], 2 ** 52 - 1}]
    states = [_crafted(out) for out in outs]
    words = np.array([[s >> 64, s & 2 ** 64 - 1, c >> 64, c & 2 ** 64 - 1] for s, c in states],
                     dtype=np.uint64)
    got = sim_common.Streams(words).normal(3, 2.5)
    rng = np.random.Generator(np.random.PCG64(0))
    for row, state in zip(got, states):
        _place(rng, *state)
        assert row.tobytes() == rng.normal(0.0, 2.5, 3).tobytes()


@pytest.mark.oracle
def test_the_committed_ziggurat_tables_are_numpys():
    rng = np.random.Generator(np.random.PCG64(0))
    assert len(WI) == len(KI) == 256
    for idx in range(256):
        # rabs = 1 draws wi[idx] itself, through a wedge test that a
        # uniform of 0 passes where the fast path takes no rabs
        assert _probe(rng, 1 << 9 | idx)[0] == WI[idx]
        assert _probe(rng, 1 << 9 | 1 << 8 | idx)[0] == -WI[idx]
        # the fast path takes every rabs below ki[idx] and no other
        if KI[idx]:
            assert _probe(rng, KI[idx] - 1 << 9 | idx) == ((KI[idx] - 1) * WI[idx], True)
        if KI[idx] < 2 ** 52:
            assert not _probe(rng, KI[idx] << 9 | idx)[1]


@pytest.mark.oracle
def test_a_bounded_draw_refuses_a_range_beyond_32_bits():
    draws = sim_common.streams(5, sim_common.ATTACK_KEY, range(3))
    for high in (1, 2 ** 32 + 1):
        with pytest.raises(ValueError, match="2 <= high <= 2"):
            draws.integers(high)


# codebooks of 2 to 4 rows of n = 9 codewords 0, 1 and 2, all admissible but
# the last row: the encoder mostly takes codeword 0, and its substitutes
# mostly draw again; at 4 rows the draw decides whether the attack wins
FEW_ROWS = {2: [0, 1], 3: [0, 0, 1], 4: [0, 0, 1, 2]}


def _few_rows_codebook(rows):
    words = _random_words(sim_common.stream(rows, 9), 3, 9)
    assert len(np.unique(words)) == 3
    return BinCodebook(n=9, words=words[FEW_ROWS[rows]],
                       admissible=np.arange(rows) < rows - 1)


@pytest.mark.oracle
@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, rows=st.integers(2, 4), tag_bits=st.sampled_from([8, 13, 64]),
       picks=st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_block_substitutes_and_forged_tags_match_per_trial_generators(seed, rows, tag_bits,
                                                                      picks):
    cb = _few_rows_codebook(rows)
    x = cb.rows[[min(p, rows - 1) for p in picks]]
    draws = sim_common.streams(seed, sim_common.ATTACK_KEY, range(len(picks)))
    got = sim_common.substitute(cb)(x, draws)
    # as in the pk tag check, the forged tags are drawn by some of the rows,
    # taken from the block at the draw each has reached
    kept = np.arange(len(picks))[::-2]
    got_tags = dict(zip(kept, draws.take(kept).uint32(tag_bits) >> 31))

    def check(i, rng):
        while ((want := cb.rows[rng.integers(0, rows)]) == x[i]).all():
            pass
        assert (got[i] == want).all()
        if i in got_tags:
            assert got_tags[i].tolist() == rng.integers(0, 2, tag_bits).tolist()
    sim_common.streams(seed, sim_common.ATTACK_KEY, range(len(picks))).each(check,
                                                                            range(len(picks)))


@pytest.mark.oracle
def test_block_and_per_trial_draws_mix_on_one_block():
    ts = range(40)
    draws = sim_common.streams(5, sim_common.TRIAL_KEY, ts)
    words = lambda block: np.stack(block.each(
        lambda rng: rng.integers(0, 2 ** 32, 2, dtype=np.uint64)))
    normals = lambda rows, block: np.stack(block.each(lambda row, rng: row + rng.normal(size=2),
                                                      rows))
    odd = np.arange(1, len(ts), 2)
    # the half the first draw holds back passes to the Generators and back
    got = [draws.uint32(1), words(draws), draws.normal(8, 3.0), normals(np.ones((40, 2)), draws),
           draws.uint32(1)]
    # rows taken from the block draw on from where they stand and leave it alone
    got_taken, got_random = draws.take(odd).each(lambda rng: rng.random()), draws.random(2)
    for i, t in enumerate(ts):
        rng = sim_common.stream(5, sim_common.TRIAL_KEY, t)
        want = [rng.integers(0, 2 ** 32, 1, dtype=np.uint64),
                rng.integers(0, 2 ** 32, 2, dtype=np.uint64), rng.normal(0.0, 3.0, 8),
                1 + rng.normal(size=2), rng.integers(0, 2 ** 32, 1, dtype=np.uint64)]
        assert [g[i].tolist() for g in got] == [w.tolist() for w in want]
        if i % 2:
            assert got_taken[i // 2] == copy.deepcopy(rng).random()
        assert got_random[i].tolist() == rng.random(2).tolist()


def _per_trial_run_trials(cb, trials, seed, source, channel, *, encode_radius, decode_radius,
                          attacked=False, tag_check=None):
    """``run_trials`` as it ran before block draws: ``source(rng)`` and
    ``channel(x, rng)`` one trial at a time on each trial's Generator, and
    ``tag_check(encoded, decoded, rng)`` per trial the decoder accepted."""
    enc_fail = dec_fail = wrong = matched = 0
    de, dr, max_gap = [], [], 0.0
    for start in range(0, trials, sim_common.CHUNK):
        ts = range(start, min(start + sim_common.CHUNK, trials))
        rngs = [sim_common.stream(seed, sim_common.TRIAL_KEY, t) for t in ts]
        sources = np.stack([source(rng) for rng in rngs])
        idx, dist = cb.nearest(sources, True)
        ok = np.flatnonzero(dist <= encode_radius)
        enc_fail += len(ts) - ok.size
        if not ok.size:
            continue
        idx, sources, x = idx[ok], sources[ok], cb.rows[idx[ok]]
        d_e = cb.distortion(idx, sources)
        de.extend(d_e.tolist())
        channel_rngs = ([sim_common.stream(seed, sim_common.ATTACK_KEY, ts.start + i) for i in ok]
                        if attacked else [rngs[i] for i in ok])
        k, dist = cb.nearest(np.stack([channel(row, rng) for row, rng in zip(x, channel_rngs)]))
        accept = dist <= decode_radius
        if tag_check is None:
            accept &= cb.admissible[k]
        else:
            accept &= [a and tag_check(*args) for a, *args in zip(accept, idx, k, channel_rngs)]
        same = accept & (cb.rows[k] == x).all(axis=1)
        d_r = cb.distortion(k, sources)
        dec_fail += int((~accept).sum())
        matched += int(same.sum())
        wrong += int((accept & ~same).sum())
        dr.extend(d_r[accept].tolist())
        max_gap = max([max_gap, *np.abs(d_r - d_e)[same].tolist()])
    encoded = trials - enc_fail
    return sim_common.TrialStats(
        trials_run=trials, encode_failures=enc_fail, decode_failures=dec_fail,
        wrong_codeword=wrong, matched=matched,
        empirical_de=math.fsum(de) / encoded if encoded else 0.0,
        empirical_dr=math.fsum(dr) / len(dr) if dr else 0.0, dr_de_max_gap=max_gap,
        attack_successes=wrong if attacked else 0, attack_trials=encoded if attacked else 0)


def _per_trial_path(path, cfg, cb):
    """``path`` run through the per-trial loop with its per-trial draws."""
    n = cfg.n
    words = lambda rng: _random_words(rng, 1, n)[0]
    bsc = lambda p: lambda x, rng: x ^ pack_bits(rng.random(n) < p)

    def substitute(x, rng):
        while True:
            y = cb.rows[int(rng.integers(0, cb.count))]
            if not (y == x).all():
                return y

    tag_bits = 13 if path.endswith("13-bit tags") else 64
    tags = TagCarrier(TestDoubleScheme(tag_bits), cb.count, 3)

    def tag_check(idx, k, rng):
        carrier = (tags.embed(rng.integers(0, 2, tag_bits).astype(np.uint8))
                   if path.startswith("pk substitute") else tags.sign(int(idx), b"cli-pk-key"))
        return tags.verify(carrier, int(k), b"cli-pk-key")

    if path.startswith("gaussian"):
        normal = lambda var, rng: rng.normal(0.0, math.sqrt(var), size=n)
        channel = {"gaussian reference": lambda x, rng: x + normal(cfg.sigma_n2, rng),
                   "gaussian substitute": substitute,
                   "gaussian heavy_noise": lambda x, rng: x + normal(1.2, rng),
                   "gaussian random_vector": lambda x, rng: normal(
                       cfg.sigma_s2 + cfg.sigma_n2, rng)}[path]
        return _per_trial_run_trials(
            cb, cfg.trials, cfg.seed_public, lambda rng: normal(cfg.sigma_s2, rng), channel,
            encode_radius=math.inf, decode_radius=cfg.decode_radius,
            attacked=path != "gaussian reference")
    source, kw = words, {}
    if path.startswith("pk"):
        source = lambda rng: pack_bits(rng.integers(0, 2, n).astype(np.uint8))
        kw = dict(tag_check=tag_check)
    channel = {"binary reference": bsc(cfg.p), "binary heavy_noise": bsc(0.3),
               "binary random_vector": lambda x, rng: words(rng),
               "binary substitute": substitute, "pk reference": bsc(cfg.p),
               "pk substitute": substitute, "pk substitute, 13-bit tags": substitute}[path]
    stats = _per_trial_run_trials(
        cb, cfg.trials, cfg.seed_public, source, channel,
        encode_radius=cfg.encode_radius, decode_radius=cfg.decode_radius,
        attacked=path not in ("binary reference", "pk reference"), **kw)
    if path.startswith("pk"):
        return replace(stats, empirical_de=0.0, empirical_dr=0.0, dr_de_max_gap=0.0)
    return stats if path == "binary reference" else replace(stats, empirical_dr=0.0,
                                                            dr_de_max_gap=0.0)


BLOCK_PATHS = {
    "binary reference": lambda cfg, cb: run_reference_trials(cfg, cb),
    "binary heavy_noise": lambda cfg, cb: run_attack_trials(cfg, "heavy_noise", 0.3, cb),
    "binary random_vector": lambda cfg, cb: run_attack_trials(cfg, "random_vector", codebook=cb),
    "binary substitute": lambda cfg, cb: run_attack_trials(cfg, codebook=cb),
    "pk reference": lambda cfg, cb: _run_pk_trials(_pk(None), cfg, cb)[0],
    "pk substitute": lambda cfg, cb: _run_pk_trials(_pk("substitute_codeword"), cfg, cb)[0],
}
# odd and even word counts, one to two words, codebooks of 2^7 to 2^16 rows
ODD_N_CFGS = {n: SimConfig(n=n, tau=tau, gamma=gamma, p=0.08, delta=0.12, trials=150,
                           seed_public=31 + n, seed_secret=47 + n)
              for n, tau, gamma in ((9, 0.2, 0.25), (17, 0.2, 0.25), (33, 0.2, 0.1),
                                    (70, 0.3, 0.04))}


@pytest.fixture(scope="module")
def odd_n_codebooks():
    return {n: build_codebook(cfg) for n, cfg in ODD_N_CFGS.items()}


# beyond the block paths at each blocklength: the Gaussian paths, codebooks of
# 2 to 4 rows with duplicate rows, where most substitutes draw again, and
# 13-bit forged tags, whose odd count of 32-bit draws holds a half back
EXTRA_PATHS = {
    "gaussian reference": lambda cfg, cb: run_gauss_trials(cfg, codebook=cb),
    "gaussian substitute": lambda cfg, cb: run_gauss_trials(cfg, "substitute_codeword",
                                                            codebook=cb),
    "gaussian heavy_noise": lambda cfg, cb: run_gauss_trials(cfg, "heavy_noise", 1.2, codebook=cb),
    "gaussian random_vector": lambda cfg, cb: run_gauss_trials(cfg, "random_vector", codebook=cb),
    "pk substitute, 13-bit tags": lambda cfg, cb: _run_pk_trials(
        _pk("substitute_codeword", 13), cfg, cb)[0],
}
FEW_ROWS_CFG = SimConfig(n=9, tau=0.2, gamma=0.25, p=0.08, delta=0.3, trials=150,
                         seed_public=61, seed_secret=62)
EXTRA_CFGS = {"gaussian": G_CFG, **{f"{r} rows": FEW_ROWS_CFG for r in (2, 3, 4)}}
BLOCK_CASES = [*((path, n) for path in BLOCK_PATHS for n in ODD_N_CFGS),
               *((path, "gaussian") for path in EXTRA_PATHS if path.startswith("gaussian")),
               *((path, f"{r} rows") for r in (2, 3, 4)
                 for path in ("binary substitute", "pk substitute", "pk substitute, 13-bit tags")),
               *(("pk substitute, 13-bit tags", n) for n in ODD_N_CFGS)]


@pytest.fixture(scope="module")
def case_codebooks(odd_n_codebooks):
    return {**odd_n_codebooks, "gaussian": build_gauss_codebook(G_CFG),
            **{f"{r} rows": _few_rows_codebook(r) for r in (2, 3, 4)}}


@pytest.mark.oracle
@pytest.mark.parametrize("path, n", BLOCK_CASES)
def test_block_trials_match_the_per_trial_loop(path, n, case_codebooks):
    cfg, cb = {**ODD_N_CFGS, **EXTRA_CFGS}[n], case_codebooks[n]
    assert {**BLOCK_PATHS, **EXTRA_PATHS}[path](cfg, cb) == _per_trial_path(path, cfg, cb)


@pytest.mark.parametrize("setting", ["CHUNK", "MARKING_BYTES"])
@pytest.mark.parametrize("path", [path for path in PATHS if not path.startswith("gaussian")])
def test_results_at_an_odd_blocklength_do_not_depend_on_the_block_size(path, setting,
                                                                       odd_n_codebooks,
                                                                       monkeypatch):
    """The block-size test's binary and pk paths at n = 17."""
    cfg = ODD_N_CFGS[17]
    cb = odd_n_codebooks[17]
    monkeypatch.setitem(globals(), "BIN_CFG", cfg)
    monkeypatch.setitem(globals(), "PK_CFG", cfg)
    default = PATHS[path](cb, cb, None)
    monkeypatch.setattr(sim_common, setting, 7 if setting == "CHUNK" else 3 * cb.count)
    assert PATHS[path](cb, cb, None) == default


# both configurations pass validation and build a one-codeword codebook
ONE_CODEWORD = {
    "binary": ["binary", "--n", "8", "--tau", "0.49", "--gamma", "0.001"],
    "pk": ["pk", "--n", "8", "--tau", "0.49", "--gamma", "0.001"],
    "gaussian": ["gaussian", "--n", "4", "--rate", "0.01"],
}


@pytest.mark.parametrize("kind", ONE_CODEWORD)
def test_substitution_without_a_second_codeword_is_a_configuration_error(kind, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-m", "authdist.cli", "sim", *ONE_CODEWORD[kind], "--trials", "5",
         "--seed", "1", "--seed-secret", "2", "--attacker", "substitute_codeword",
         "--out", str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "two distinct codewords" in proc.stderr


def _finishes_or_refuses(run, cb):
    """A run either finishes or, for codeword substitution on a codebook
    without two distinct codewords, refuses with a ValueError."""
    try:
        assert run().trials_run == 1
    except ValueError as exc:
        assert "two distinct codewords" in str(exc)
        assert not (cb.rows != cb.rows[0]).any()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 12), tau=st.floats(0.01, 0.49), gamma=st.floats(0.001, 1.0),
       p=st.floats(0.0, 0.45), delta=st.floats(0.01, 0.5), seed=st.integers(0, 2 ** 16))
def test_every_accepted_small_binary_config_finishes_every_attacker(n, tau, gamma, p, delta, seed):
    try:
        cfg = SimConfig(n=n, tau=tau, gamma=gamma, p=p, delta=delta, trials=1,
                        seed_public=seed, seed_secret=seed + 1)
    except ValueError:
        assume(False)
    cb = build_codebook(cfg)
    for attacker, attack_p in (("substitute_codeword", None), ("heavy_noise", (p + 0.5) / 2),
                               ("random_vector", None)):
        _finishes_or_refuses(lambda: run_attack_trials(cfg, attacker, attack_p, cb), cb)
    _finishes_or_refuses(lambda: _run_pk_trials(_pk("substitute_codeword"), cfg, cb)[0], cb)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 8), rate=st.floats(0.001, 2.0), seed=st.integers(0, 2 ** 16))
def test_every_accepted_small_gaussian_config_finishes_every_attacker(n, rate, seed):
    assume(n * rate <= 8)
    cfg = GaussSimConfig(n=n, rate=rate, sigma_s2=100.0, sigma_n2=1.0, trials=1,
                         seed_public=seed, seed_secret=seed + 1)
    cb = build_gauss_codebook(cfg)
    for attacker in ("substitute_codeword", "heavy_noise", "random_vector"):
        _finishes_or_refuses(lambda: run_gauss_trials(cfg, attacker, codebook=cb), cb)


@pytest.mark.parametrize("kind", ["binary", "gaussian"])
def test_a_nan_radius_accepts_nothing_on_the_scalar_and_block_paths(kind):
    # both paths accept with d <= radius, which no distance meets at NaN;
    # every scalar call answers (samples, codeword index) or None
    if kind == "binary":
        cb = build_codebook(SimConfig(n=16, tau=0.2, gamma=0.25, p=0.08, delta=0.12,
                                      trials=200, seed_public=1, seed_secret=2))
        far = 1 - cb.content(int(cb.admissible_indices[0]))
        source, channel = (lambda draws: uniform_words(draws, 16)), bsc_channel(16, 0.08)
    else:
        cb = build_gauss_codebook(GaussSimConfig(n=8, rate=1.0, sigma_s2=100.0, sigma_n2=1.0,
                                                 trials=200, seed_public=1, seed_secret=2))
        far = np.full(8, 1e3)
        source = lambda draws: draws.normal(8, 10.0)
        channel = lambda x, draws: x + draws.normal(8, 1.0)
    k = int(cb.admissible_indices[0])
    content, key = cb.content(k), b"nan-radius"
    tags = TagCarrier(TestDoubleScheme(64), cb.count, 1, 1 if kind == "binary" else 6.0)
    block, idx = pk_encode(content, cb, tags, key, 0.0)
    assert np.array_equal(block[cb.n:], tags.sign(k, key))
    for samples, idx in (cb.encode(content, 0.0), cb.decode(content, 0.0), (block[:cb.n], idx),
                         pk_decode(block, cb, tags, key, 0.0)):
        assert np.array_equal(samples, content) and isinstance(idx, int) and idx == k
    assert cb.encode(content, math.nan) is None
    assert cb.decode(content, math.nan) is None
    assert pk_encode(content, cb, tags, key, math.nan) is None
    assert pk_decode(block, cb, tags, key, math.nan) is None
    assert cb.encode(far, math.nan) is None
    stats = sim_common.run_trials(cb, 200, 1, source, channel, encode_radius=math.nan,
                                  decode_radius=math.nan)
    assert stats.encode_failures == 200
