"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` for per-criterion pass/fail
lines.  Every tolerance and trial count is pinned here; a few tests are
minutes-long Monte Carlo runs, with their stated runtime budgets asserted.
"""

import json
import math
import time

import numpy as np
import pytest

from authdist.cli import main as cli_main
from authdist.pubkey import TestDoubleScheme, index_bits, pk_decode, pk_encode
from authdist.regions_binary import boundary, optimize_rate_fn, qe_boundary
from authdist.regions_gaussian import (
    GaussianScenario,
    envelope_dr,
    high_de_point,
    inner_bound_dr,
    low_de_alpha,
    qe_dr,
)
from authdist.regions_layered import (
    LayeredScenario,
    region_slice,
    single_codebook_endpoints,
    single_layer_bounds,
    time_share,
)
from authdist.sim_binary import SimConfig, build_codebook, decode, run_attack_trials, run_reference_trials
from authdist.sim_common import binomial_sigma, stream
from authdist.sim_gaussian import GaussSimConfig, build_gauss_codebook, run_gauss_trials


def report(num: int, detail: str) -> None:
    print(f"\n[acceptance {num:02d}] PASS  {detail}")


@pytest.fixture(scope="module")
def binary_curve_500():
    return boundary(0.2, resolution=500)


def test_criterion_01_binary_corner_points(binary_curve_500):
    t0 = time.time()
    curve = binary_curve_500
    step = 0.5 / 499
    at_p = curve.dr_at(0.2)
    assert abs(at_p - 0.2) <= 2 * step
    assert abs(curve.dr[0] - 0.5) <= 2 * step
    assert abs(curve.de[0] - 0.0) <= 2 * step
    assert abs(curve.dr[-1] - 0.2) <= 2 * step
    assert abs(curve.de[-1] - 0.5) <= 2 * step
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(1, f"corners (0.2,{at_p:.4f}), (0,{curve.dr[0]:.4f}), "
              f"(0.5,{curve.dr[-1]:.4f}) within 2 grid steps [{elapsed:.1f}s]")


def test_criterion_02_optimizer_confirms_boundary(binary_curve_500):
    t0 = time.time()
    curve = binary_curve_500
    de_grid = np.linspace(0.025, 0.5, 20)
    for de in de_grid:
        bdr = float(curve.dr_at(float(de)))
        above = optimize_rate_fn(float(de), min(0.5, bdr + 1e-3), 0.2,
                                 cardinality=7, restarts=32, seed=0)
        below = optimize_rate_fn(float(de), bdr - 1e-3, 0.2,
                                 cardinality=7, restarts=32, seed=0)
        assert above.value >= 0.0, f"De={de}: region point rejected ({above.value})"
        assert below.value < 0.0, f"De={de}: outside point accepted ({below.value})"
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(2, f"rate-function zero crossing within 1e-3 of the boundary "
              f"at 20 grid points, cardinality 7 [{elapsed:.0f}s]")


def test_criterion_03_gaussian_closed_forms():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        scn = GaussianScenario(10 ** rng.uniform(-2, 3), 10 ** rng.uniform(-2, 2))
        t2 = 10 ** rng.uniform(-3, 3)
        alpha = low_de_alpha(scn, t2)
        s2, n2 = scn.sigma_s2, scn.sigma_n2
        lead = t2 * s2 + n2 * s2
        residual = (alpha ** 2 * lead - 2 * alpha * t2 * s2 - t2 ** 2) / lead
        worst = max(worst, abs(residual))
    assert worst < 1e-9
    de, dr = high_de_point(GaussianScenario(1.0, 1.0), 1.0)
    assert abs(de - (2.0 - math.sqrt(2.0))) <= 1e-9
    assert abs(dr - 0.5) <= 1e-9
    report(3, f"alpha quadratic residual worst {worst:.2e} over 1e3 scenarios; "
              f"unit high-De point ({de:.9f}, {dr}) exact to 1e-9")


def test_criterion_04_asymptotic_convergence():
    t0 = time.time()
    snr40 = GaussianScenario(1e4, 1.0)
    r1 = envelope_dr(snr40, 1.0) / inner_bound_dr(snr40, 1.0)
    assert r1 <= 1.1
    snr0 = GaussianScenario(1.0, 1.0)
    r2 = envelope_dr(snr0, 1000.0) / inner_bound_dr(snr0, 1000.0)
    assert r2 <= 1.05
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(4, f"envelope/inner = {r1:.4f} (<=1.1 at 40 dB, De=n2) and "
              f"{r2:.4f} (<=1.05 at 0 dB, De=1e3 n2) [{elapsed:.1f}s]")


def test_criterion_05_quantize_and_embed_gap():
    scn = GaussianScenario(1e4, 1.0)
    loss = (scn.sigma_n2 / scn.sigma_s2) * qe_dr(scn, 1.0) / inner_bound_dr(scn, 1.0)
    assert abs(loss - 0.5) <= 0.02
    for p in (0.05, 0.10, 0.15, 0.20):
        opt = boundary(p, resolution=201)
        qe = qe_boundary(p, resolution=201)
        assert (qe.dr >= opt.dr - 1e-6).all(), f"q-e dips below the region at p={p}"
    report(5, f"gaussian q-e loss ratio {loss:.4f} (1/2 within 0.02 at SNR 1e4); "
              f"binary q-e curve above the frontier for p in {{.05,.1,.15,.2}}")


def test_criterion_06_binary_attack_security():
    t0 = time.time()
    # fresh secret marking per trial samples the construction phase the
    # 2^(-n gamma) claim averages over, making successes i.i.d. binomial
    cfg16 = SimConfig(n=16, tau=0.2, gamma=0.25, p=0.08, delta=0.12, trials=100000,
                      seed_public=11, seed_secret=22)
    sub = run_attack_trials(cfg16, "substitute_codeword", fresh_marking=True)
    target = 0.0625
    sigma = binomial_sigma(target, sub.attack_trials)
    assert abs(sub.attack_rate - target) <= 3 * sigma

    cfg32 = SimConfig(n=32, tau=0.2, gamma=0.1, p=0.08, delta=0.12, trials=100000,
                      seed_public=11, seed_secret=22)
    heavy = run_attack_trials(cfg32, "heavy_noise", attack_p=0.4)
    bound = 2.0 ** (-32 * 0.1)
    assert heavy.attack_rate <= bound + 3 * binomial_sigma(bound, heavy.attack_trials)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(6, f"substitute rate {sub.attack_rate:.5f} vs 0.0625 "
              f"(|diff| <= 3 sigma = {3*sigma:.5f}); heavy-noise rate "
              f"{heavy.attack_rate:.5f} <= 2^-3.2 + 3 sigma [{elapsed:.0f}s]")


def test_criterion_07_binary_reference_operation():
    stats = {}
    for n in (16, 24, 32):
        cfg = SimConfig(n=n, tau=0.2, gamma=0.1, p=0.08, delta=0.12, trials=10000,
                        seed_public=11, seed_secret=22)
        stats[n] = run_reference_trials(cfg)
    s32 = stats[32]
    # failure budget: encoder failures plus decoder-declared rejections
    assert s32.failure_rate <= 0.10
    # conditional identity: D_r == D_e exactly on every matched trial
    for n in (16, 24, 32):
        assert stats[n].dr_de_max_gap == 0.0
        assert stats[n].matched > 0
    totals = [stats[n].total_failure_rate for n in (16, 24, 32)]
    assert totals[0] > totals[1] > totals[2]
    report(7, f"n=32 failure rate {s32.failure_rate:.4f} <= 0.10; per-trial "
              f"D_r == D_e exact; total failures {totals[0]:.3f} > "
              f"{totals[1]:.3f} > {totals[2]:.3f} across n=16,24,32")


def test_criterion_08_gaussian_simulation():
    t0 = time.time()
    cfg = GaussSimConfig(n=8, rate=2.0, sigma_s2=100.0, sigma_n2=1.0, trials=2000,
                         seed_public=3003, seed_secret=4004)
    cb = build_gauss_codebook(cfg)
    ref = run_gauss_trials(cfg, codebook=cb)
    assert ref.matched > 0
    assert ref.dr_de_max_gap == 0.0
    cfg_attack = GaussSimConfig(n=8, rate=2.0, sigma_s2=100.0, sigma_n2=1.0,
                                trials=100000, seed_public=3003, seed_secret=4004)
    att = run_gauss_trials(cfg_attack, "substitute_codeword", codebook=cb)
    target = cb.n_admissible / cb.count
    sigma = binomial_sigma(target, att.attack_trials)
    assert abs(att.attack_rate - target) <= 3 * sigma
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(8, f"D_r == D_e exact on {ref.matched} matched trials; substitute "
              f"rate {att.attack_rate:.5f} vs |A|/|C| = {target:.5f} "
              f"(3 sigma = {3*sigma:.5f}) [{elapsed:.0f}s]")


def test_criterion_09_layered_containment():
    t0 = time.time()
    scn = LayeredScenario(sigma_s2=1000.0, sigma_n2=1.0, sigma_v2=10.0)
    for de_db in (10, 5, 0, -5, -10):
        de = 10.0 ** (de_db / 10.0)
        pts = region_slice(scn, de, resolution=60)
        assert pts, f"empty slice at {de_db} dB"
        drc_lo, drf_lo = single_layer_bounds(scn, de)
        for sp in pts:
            assert sp.triple.drc >= drc_lo - 1e-9
            assert sp.triple.drf >= drf_lo - 1e-9
    pts = region_slice(scn, 1.0, resolution=60)
    drf = np.array([sp.triple.drf for sp in pts])
    drc = np.array([sp.triple.drc for sp in pts])
    end_a, end_b = single_codebook_endpoints(scn, 1.0, pts)
    for lam in np.linspace(0.0, 1.0, 21):
        mix = time_share(end_a, end_b, float(lam))
        assert float(np.interp(mix.drf, drf, drc)) <= mix.drc + 1e-9
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(9, f"all five slices respect the single-layer bounds; time-share "
              f"chord dominated by the De=0 dB slice [{elapsed:.0f}s]")


def test_criterion_10_public_key_end_to_end():
    t0 = time.time()
    cfg = SimConfig(n=16, tau=0.2, gamma=0.25, p=0.0, delta=0.12, trials=10000,
                    seed_public=5005, seed_secret=6006)
    cb = build_codebook(cfg)
    scheme = TestDoubleScheme(64)
    key = b"acceptance-key"

    # 10a: matched keys, clean carrier and channel: pk outcome == secret-key
    mismatches = 0
    encodings = []
    for t in range(10000):
        rng = stream(cfg.seed_public, 1, t)
        s = rng.integers(0, 2, cfg.n).astype(np.uint8)
        pe = pk_encode(s, cb, scheme, key, delta=cfg.delta)
        if pe is None:
            continue
        encodings.append(pe)
        pk_out = pk_decode(pe.block, cb, scheme, key, p=cfg.p, delta=cfg.delta)
        sk_out = decode(pe.content, cb, cfg.p, cfg.delta)
        same = pk_out.authentic == sk_out.authentic and (
            not pk_out.authentic
            or (pk_out.reconstruction == sk_out.reconstruction).all())
        mismatches += int(not same)
    assert mismatches == 0

    # 10b: codeword substitution with tag reuse is rejected always
    rejected = attacks = 0
    n_enc = len(encodings)
    for t in range(100000):
        pe = encodings[t % n_enc]
        arng = stream(cfg.seed_public, 2, t)
        while True:
            j = int(arng.integers(0, cb.count))
            if not (cb.codeword_bits(j) == pe.content).all():
                break
        block = np.concatenate([cb.codeword_bits(j), pe.carrier])
        attacks += 1
        rejected += int(not pk_decode(block, cb, scheme, key,
                                      p=cfg.p, delta=cfg.delta).authentic)
    assert rejected == attacks == 100000

    # 10c: random 64-bit tag forgery never accepted over 1e6 trials; the
    # content path is deterministic per substituted codeword, so the decoded
    # index and its required tag are memoized per index
    accepted = 0
    arng = stream(7007, 0)
    idxs = arng.integers(0, cb.count, size=1000000)
    tags = arng.integers(0, 2, size=(1000000, 64), dtype=np.uint8)
    required = {}
    for i in range(1000000):
        j = int(idxs[i])
        if j not in required:
            dec = decode(cb.codeword_bits(j), cb, cfg.p, cfg.delta,
                         check_admissibility=False)
            required[j] = scheme.sign(index_bits(dec.codeword_index, cb.count), key)
        accepted += int((required[j] == tags[i]).all())
    assert accepted == 0
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(10, f"pk == secret-key on 1e4 clean trials; tag reuse rejected "
               f"100000/100000; random-tag acceptances 0/1e6 [{elapsed:.0f}s]")


def test_criterion_11_manifest_reproducibility(tmp_path):
    first, second = tmp_path / "run.json", tmp_path / "rerun.json"
    argv = ["sim", "binary", "--n", "16", "--tau", "0.2", "--gamma", "0.25",
            "--p", "0.08", "--delta", "0.12", "--trials", "2000",
            "--seed", "11", "--seed-secret", "22",
            "--attacker", "substitute_codeword", "--out", str(first)]
    assert cli_main(argv) == 0
    assert cli_main(["sim", "--from-manifest", str(first), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    checksum = json.loads(first.read_text())["manifest"]["output_checksum"]
    report(11, f"manifest re-run byte-identical (sha256 {checksum[:12]}...)")
