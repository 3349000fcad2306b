"""The shared trial driver: block-size independence and termination."""

import argparse
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from authdist import sim_common
from authdist.cli import _run_pk_trials
from authdist.sim_binary import SimConfig, build_codebook, run_attack_trials, run_reference_trials
from authdist.sim_gaussian import GaussSimConfig, build_gauss_codebook, run_gauss_trials

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


def _pk(attacker):
    return argparse.Namespace(tag_bits=64, repetition=3, attacker=attacker)


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


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, key=st.sampled_from([0, 1, 2]),
       ts=st.lists(st.one_of(st.integers(0, 300), st.integers(0, 2 ** 32 - 1)), max_size=5))
def test_streams_match_one_stream_per_trial(seed, key, ts):
    got = sim_common.streams(seed, key, ts)
    assert len(got) == len(ts)
    for rng, t in zip(got, ts):
        want = sim_common.stream(seed, key, t)
        assert rng.integers(0, 2 ** 63, 3).tolist() == want.integers(0, 2 ** 63, 3).tolist()
        assert rng.random(2).tolist() == want.random(2).tolist()
        assert rng.normal(size=2).tolist() == want.normal(size=2).tolist()


def test_streams_reject_what_seed_sequence_rejects():
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match=str(want.value)):
        sim_common.streams(-1, sim_common.TRIAL_KEY, range(3))
    for t in (-1, 2 ** 32):
        with pytest.raises(ValueError, match="trial indices"):
            sim_common.streams(5, sim_common.TRIAL_KEY, [0, t])


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
