"""Pinned outputs of every simulation path.

The committed ``out/`` manifests must replay byte for byte.  The paths no
golden file covers are pinned by small runs recorded before the trial
loops were merged into one driver: binary and public-key runs by their
results checksum, Gaussian runs by every count and the largest D_r - D_e
gap exactly.

The Gaussian distortion means are pinned exactly too, as the correctly
rounded (``math.fsum``) means of the per-trial distortions those runs
produced.  The loops they replace summed in running floats, per block for
D_e, and so reported means up to 3 ulp away from these (``empirical_dr``
of the reference run: ...331 for ...326; ``empirical_de`` of the
random_vector run: ...5992 for ...5996).  Binary distortions are
multiples of 1/n with n a power of two here, so their sums are exact
either way.
"""

import dataclasses
import json
import pathlib

import pytest

from authdist.cli import main
from authdist.sim_binary import SimConfig, run_attack_trials

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"

BIN = ["--tau", "0.2", "--p", "0.08", "--delta", "0.12", "--trials", "300"]
CHECKSUM_PINS = {
    "binary reference n=32": (
        ["sim", "binary", "--n", "32", "--gamma", "0.1", *BIN, "--seed", "11", "--seed-secret", "22"],
        "7ee5610d4ec6378698a37f6831351e552efc90e4cae885caa1cb2f9d7164c603"),
    "binary random_vector n=16": (
        ["sim", "binary", "--n", "16", "--gamma", "0.25", *BIN, "--seed", "11", "--seed-secret", "22",
         "--attacker", "random_vector"],
        "624eff4c55a19ae83c0b5416f01631d9e6ccb90cf6b3253f7f672d32c13efead"),
    "pk reference n=16": (
        ["sim", "pk", "--n", "16", "--gamma", "0.25", *BIN, "--seed", "5", "--seed-secret", "6"],
        "af63d7bbda0da5b6bd1c6045606da2a6a36f1e41bf793fc148e41a24035ab2c4"),
    "pk substitute n=16": (
        ["sim", "pk", "--n", "16", "--tau", "0.2", "--gamma", "0.25", "--p", "0.0", "--delta", "0.12",
         "--trials", "300", "--seed", "5", "--seed-secret", "6",
         "--attacker", "substitute_codeword", "--repetition", "3"],
        "bfb6f76802132275385d0ff45376eb84e7e3003145517c7cc1f8a17f8085fc31"),
}

GAUSS = ["sim", "gaussian", "--snr-db", "20"]
GAUSS_PINS = {
    "gaussian reference n=8": (
        [*GAUSS, "--n", "8", "--rate", "2", "--trials", "400", "--seed", "3", "--seed-secret", "4"],
        dict(trials_run=400, encode_failures=0, decode_failures=87, wrong_codeword=0, matched=313,
             empirical_de=12.4965713151271, empirical_dr=12.201363607817326, dr_de_max_gap=0.0,
             attack_successes=0, attack_trials=0, tag_recoveries=0)),
    "gaussian substitute n=8": (
        [*GAUSS, "--n", "8", "--rate", "2", "--trials", "400", "--seed", "3", "--seed-secret", "4",
         "--attacker", "substitute_codeword"],
        dict(trials_run=400, encode_failures=0, decode_failures=309, wrong_codeword=91, matched=0,
             empirical_de=12.4965713151271, empirical_dr=205.77161365820496, dr_de_max_gap=0.0,
             attack_successes=91, attack_trials=400, tag_recoveries=0)),
    "gaussian heavy_noise n=8": (
        [*GAUSS, "--n", "8", "--rate", "2", "--trials", "300", "--seed", "5", "--seed-secret", "6",
         "--attacker", "heavy_noise", "--attack-p", "1.2"],
        dict(trials_run=300, encode_failures=0, decode_failures=125, wrong_codeword=0, matched=175,
             empirical_de=13.226399321818198, empirical_dr=12.9914830696175, dr_de_max_gap=0.0,
             attack_successes=0, attack_trials=300, tag_recoveries=0)),
    "gaussian random_vector n=4": (
        ["sim", "gaussian", "--snr-db", "10", "--n", "4", "--rate", "2", "--trials", "300",
         "--seed", "5", "--seed-secret", "6", "--attacker", "random_vector"],
        dict(trials_run=300, encode_failures=0, decode_failures=204, wrong_codeword=96, matched=0,
             empirical_de=1.7718503469395996, empirical_dr=16.129066077238093, dr_de_max_gap=0.0,
             attack_successes=96, attack_trials=300, tag_recoveries=0)),
}


def _run(argv, tmp_path):
    out = tmp_path / "run.json"
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("name", ["bin_substitute.json", "bin_heavy_noise.json", "pk_forgery.json"])
def test_golden_manifest_replays_byte_identically(name, tmp_path):
    rerun = tmp_path / name
    assert main(["sim", "--from-manifest", str(OUT / name), "--out", str(rerun)]) == 0
    assert rerun.read_bytes() == (OUT / name).read_bytes()


@pytest.mark.parametrize("name", CHECKSUM_PINS)
def test_binary_and_pk_runs_keep_their_checksum(name, tmp_path):
    argv, checksum = CHECKSUM_PINS[name]
    assert _run(argv, tmp_path)["manifest"]["output_checksum"] == checksum


@pytest.mark.parametrize("name", GAUSS_PINS)
def test_gaussian_runs_keep_counts_and_means(name, tmp_path):
    argv, pinned = GAUSS_PINS[name]
    assert _run(argv, tmp_path)["results"]["stats"] == pinned


@pytest.mark.parametrize("attacker, attack_p, pinned", [
    ("substitute_codeword", None,
     dict(decode_failures=280, wrong_codeword=20, matched=0, attack_successes=20)),
    ("heavy_noise", 0.4,
     dict(decode_failures=281, wrong_codeword=18, matched=1, attack_successes=18)),
])
def test_fresh_marking_attacks_keep_their_stats(attacker, attack_p, pinned):
    cfg = SimConfig(n=16, tau=0.2, gamma=0.25, p=0.08, delta=0.12, trials=300,
                    seed_public=11, seed_secret=22)
    stats = run_attack_trials(cfg, attacker, attack_p, fresh_marking=True)
    assert dataclasses.asdict(stats) == dict(
        trials_run=300, encode_failures=0, empirical_de=0.15375, empirical_dr=0.0,
        dr_de_max_gap=0.0, attack_trials=300, tag_recoveries=0, **pinned)
