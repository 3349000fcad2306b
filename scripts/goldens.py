#!/usr/bin/env python3
"""The committed out/ files and the CLI argv that writes each one.

Usage: python scripts/goldens.py

Rewrites every file in out/ through ``authdist.cli.main``: the
binary-Hamming region and its quantize-and-embed comparison at four
crossover probabilities, the Gaussian-quadratic bounds at four SNRs, the
two-layer slices at SNR 30 dB with a harsh-edit excess of 10 dB, and the
simulations of the attack study against the 2^(-n gamma) bound.  Prints
each simulation's attack rate and its 95% interval.  The tests replay
every file from ``GOLDENS``.
"""

import json
import pathlib
import sys

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"

_BIN_SIM = ["--tau", "0.2", "--delta", "0.12", "--trials", "20000", "--seed", "11",
            "--seed-secret", "22"]

GOLDENS = {
    **{f"binary_region_p{p:.2f}.csv": ["region-binary", "--p", str(p), "--resolution", "500"]
       for p in (0.05, 0.10, 0.15, 0.20)},
    "gaussian_bounds.csv": ["region-gaussian", "--snr-db", "-10", "--snr-db", "0",
                            "--snr-db", "10", "--snr-db", "30", "--resolution", "200"],
    "layered_slices.csv": ["region-layered", "--snr-db", "30", "--sigma-v-db", "10",
                           *[a for de_db in (10, 5, 0, -5, -10) for a in ("--de-db", str(de_db))],
                           "--resolution", "80"],
    "bin_substitute.json": ["sim", "binary", "--n", "16", "--gamma", "0.25", "--p", "0.08",
                            *_BIN_SIM, "--attacker", "substitute_codeword"],
    "bin_heavy_noise.json": ["sim", "binary", "--n", "32", "--gamma", "0.1", "--p", "0.08",
                             *_BIN_SIM, "--attacker", "heavy_noise", "--attack-p", "0.4"],
    "pk_forgery.json": ["sim", "pk", "--n", "16", "--gamma", "0.25", "--p", "0.0", *_BIN_SIM,
                        "--attacker", "substitute_codeword", "--tag-bits", "64"],
    "gauss_substitute.json": ["sim", "gaussian", "--n", "8", "--rate", "2", "--snr-db", "20",
                              "--trials", "2000", "--seed", "3", "--seed-secret", "4",
                              "--attacker", "substitute_codeword"],
}


def run() -> int:
    # imported here, so that reading GOLDENS loads no numpy
    from authdist.cli import main

    OUT.mkdir(exist_ok=True)
    for name, argv in GOLDENS.items():
        path = OUT / name
        rc = main([*argv, "--out", str(path)])
        if rc != 0:
            return rc
        if argv[0] == "sim":
            results = json.loads(path.read_text())["results"]
            print(f"{name}: attack_rate={results['attack_rate']:.5f} "
                  f"ci95={results['attack_rate_ci95']}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
