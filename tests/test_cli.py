import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from authdist import cli
from authdist.cli import main
from authdist.regions_binary import MAX_CARDINALITY
from authdist.regions_gaussian import GaussianScenario, envelope_dr, inner_bound_dr, qe_dr
from authdist.regions_layered import LayeredScenario, single_layer_bounds
from authdist.sim_binary import SimConfig
from authdist.sim_gaussian import GaussSimConfig


ROOT = pathlib.Path(__file__).resolve().parents[1]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_region_binary_csv(tmp_path):
    out = tmp_path / "rb.csv"
    assert main(["region-binary", "--p", "0.2", "--resolution", "101",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 101
    step = 0.5 / 100
    hits = [r for r in rows if abs(float(r["de"]) - 0.2) <= step]
    assert any(abs(float(r["dr"]) - 0.2) <= 2 * step for r in hits)
    for r in rows:
        assert float(r["dr_qe"]) >= float(r["dr"]) - 1e-6
        assert float(r["dr_noauth"]) == 0.2


def test_region_binary_signature_corner(tmp_path):
    out = tmp_path / "rb0.csv"
    assert main(["region-binary", "--p", "0.0", "--resolution", "21",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert all(float(r["dr"]) == 0.0 for r in rows)


def test_region_gaussian_csv(tmp_path):
    out = tmp_path / "rg.csv"
    assert main(["region-gaussian", "--snr-db", "30", "--snr-db", "40",
                 "--resolution", "61", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 2 * 3 * 61
    by_curve = {}
    for r in rows:
        key = (r["snr_db"], r["curve"], r["de_over_n_db"])
        by_curve[key] = float(r["dr_over_n_db"])
    for (snr, curve, de), dr in by_curve.items():
        if curve == "inner":
            assert dr <= by_curve[(snr, "envelope", de)] + 1e-9
    # 30 dB: envelope within 20% of the inner bound at De = 20 dB above noise
    scn = GaussianScenario(1000.0, 1.0)
    ratio = envelope_dr(scn, 100.0) / inner_bound_dr(scn, 100.0)
    assert ratio < 1.2
    # 40 dB: quantize-and-embed pays about SNR/2 at De = sigma_n2
    scn40 = GaussianScenario(1e4, 1.0)
    loss = (1.0 / 1e4) * qe_dr(scn40, 1.0) / inner_bound_dr(scn40, 1.0)
    assert loss == pytest.approx(0.5, abs=0.02)


def test_region_layered_csv(tmp_path):
    out = tmp_path / "rl.csv"
    assert main(["region-layered", "--snr-db", "30", "--sigma-v-db", "10",
                 "--de-db", "0", "--de-db", "5", "--resolution", "30",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    scn = LayeredScenario(1000.0, 1.0, 10.0)
    layered = {}
    for r in rows:
        de_db = float(r["de_db"])
        drf = 10 ** (float(r["drf_db"]) / 10)
        drc = 10 ** (float(r["drc_db"]) / 10)
        drc_lo, drf_lo = single_layer_bounds(scn, 10 ** (de_db / 10))
        assert drc >= drc_lo - 1e-6 and drf >= drf_lo - 1e-6
        layered.setdefault((de_db, r["kind"]), []).append((drf, drc))
    # coarse corners improve with the encoding budget (curves march downward)
    assert (min(c for _, c in layered[(5.0, "layered")])
            < min(c for _, c in layered[(0.0, "layered")]))
    # time-sharing rows are dominated by the layered frontier
    for de_db in (0.0, 5.0):
        pts = sorted(layered[(de_db, "layered")])
        fs = [f for f, _ in pts]
        cs = [c for _, c in pts]
        for f, c in layered[(de_db, "timeshare")]:
            assert float(np.interp(f, fs, cs)) <= c + 1e-6


def test_sim_manifest_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["sim", "binary", "--n", "16", "--tau", "0.2", "--gamma", "0.25",
            "--p", "0.08", "--delta", "0.12", "--trials", "300",
            "--seed", "7", "--seed-secret", "8",
            "--attacker", "substitute_codeword", "--out", str(out1)]
    assert main(argv) == 0
    assert main(["sim", "--from-manifest", str(out1), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    body = json.dumps(doc["results"], sort_keys=True, indent=2)
    import hashlib
    assert doc["manifest"]["output_checksum"] == hashlib.sha256(body.encode()).hexdigest()


def test_sim_gaussian_and_pk_commands(tmp_path):
    out = tmp_path / "g.json"
    assert main(["sim", "gaussian", "--n", "8", "--rate", "1.5", "--snr-db", "20",
                 "--trials", "200", "--seed", "3", "--seed-secret", "4",
                 "--attacker", "substitute_codeword", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    ratio = doc["results"]["admissible_size"] / doc["results"]["codebook_size"]
    assert doc["results"]["attack_rate"] == pytest.approx(ratio, abs=0.1)
    lo, hi = doc["results"]["attack_rate_ci95"]
    assert lo <= doc["results"]["attack_rate"] <= hi

    out_pk = tmp_path / "pk.json"
    assert main(["sim", "pk", "--n", "16", "--trials", "200", "--p", "0.0",
                 "--seed", "5", "--seed-secret", "6",
                 "--attacker", "substitute_codeword", "--tag-bits", "64",
                 "--out", str(out_pk)]) == 0
    doc = json.loads(out_pk.read_text())
    assert doc["results"]["tag_forgeries_accepted"] == 0


def test_exit_codes(tmp_path):
    # missing seeds on a sim command
    assert main(["sim", "binary", "--trials", "10", "--out", str(tmp_path / "x.json")]) == 2
    # configuration error: tractability cap exceeded before any work starts
    assert main(["sim", "binary", "--n", "60", "--tau", "0.2", "--gamma", "0.25",
                 "--trials", "10", "--seed", "1", "--seed-secret", "2",
                 "--out", str(tmp_path / "y.json")]) == 2
    # i/o error: unwritable output path
    assert main(["region-binary", "--p", "0.2", "--resolution", "11",
                 "--out", str(tmp_path / "no_dir" / "z.csv")]) == 3


def test_optimize_command(tmp_path):
    out = tmp_path / "opt.json"
    assert main(["optimize", "--de", "0.2", "--dr", "0.2", "--p", "0.2",
                 "--restarts", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["r_star"] >= -1e-3
    for row in doc["results"]["witness_u_given_s"]:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
    assert doc["manifest"]["params"]["cardinality"] == 7


def _small_sim_manifest(tmp_path):
    path = tmp_path / "run.json"
    assert main(["sim", "binary", "--n", "16", "--trials", "200", "--seed", "7",
                 "--seed-secret", "8", "--attacker", "substitute_codeword",
                 "--out", str(path)]) == 0
    return path, json.loads(path.read_text())


def _results_checksum(results):
    import hashlib
    return hashlib.sha256(json.dumps(results, sort_keys=True, indent=2).encode()).hexdigest()


def test_manifest_rerun_that_differs_exits_4(tmp_path):
    path, doc = _small_sim_manifest(tmp_path)
    # edited results under a matching checksum: the rerun cannot reproduce them
    doc["results"]["stats"]["matched"] += 1
    doc["manifest"]["output_checksum"] = _results_checksum(doc["results"])
    path.write_text(json.dumps(doc))
    assert main(["sim", "--from-manifest", str(path), "--out", str(tmp_path / "b.json")]) == 4
    # edited results under the old checksum: refused before any rerun
    path, doc = _small_sim_manifest(tmp_path)
    doc["results"]["attack_rate"] = 0.0
    path.write_text(json.dumps(doc))
    assert main(["sim", "--from-manifest", str(path), "--out", str(tmp_path / "c.json")]) == 4


def test_manifest_replay_rejects_foreign_manifests_and_unknown_params(tmp_path, capsys):
    path, doc = _small_sim_manifest(tmp_path)
    opt = tmp_path / "opt.json"
    opt.write_text(json.dumps({"manifest": {
        "command": "optimize", "params": {"de": 0.2, "dr": 0.2, "p": 0.2, "cardinality": 7,
                                          "restarts": 4, "seed": 0},
        "seeds": {"seed": 0}, "version": "0.1.0", "output_checksum": "0" * 64},
        "results": {}}))
    assert main(["sim", "--from-manifest", str(opt), "--out", str(tmp_path / "x.json")]) == 2
    # a sim manifest whose params or whole manifest is not an object
    bad = tmp_path / "bad.json"
    for broken in ({**doc, "manifest": {**doc["manifest"], "params": ["n"]}},
                   {**doc, "manifest": ["sim"]}):
        bad.write_text(json.dumps(broken))
        capsys.readouterr()
        assert main(["sim", "--from-manifest", str(bad), "--out", str(tmp_path / "z.json")]) == 2
        assert "is not a sim manifest" in capsys.readouterr().err
        assert not (tmp_path / "z.json").exists()
    doc["manifest"]["params"]["block_size"] = 7
    path.write_text(json.dumps(doc))
    assert main(["sim", "--from-manifest", str(path), "--out", str(tmp_path / "y.json")]) == 2


@pytest.mark.parametrize("attack_p", ["0", "-1", "nan", "inf"])
def test_gaussian_heavy_noise_rejects_a_non_positive_variance(attack_p, tmp_path, capsys):
    assert main(["sim", "gaussian", "--n", "4", "--rate", "1", "--trials", "5",
                 "--seed", "1", "--seed-secret", "2", "--attacker", "heavy_noise",
                 "--attack-p", attack_p, "--out", str(tmp_path / "g.json")]) == 2
    assert "positive per-sample noise variance" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_gaussian_heavy_noise_defaults_only_without_attack_p(tmp_path):
    base = ["sim", "gaussian", "--n", "4", "--rate", "2", "--trials", "200", "--seed", "1",
            "--seed-secret", "2", "--attacker", "heavy_noise"]
    runs = {}
    for name, extra in (("default", []), ("four", ["--attack-p", "4"]),
                        ("tiny", ["--attack-p", "1e-6"])):
        out = tmp_path / f"{name}.json"
        assert main([*base, *extra, "--out", str(out)]) == 0
        runs[name] = json.loads(out.read_text())["results"]["stats"]
    # the default is a variance of 4 sigma_n^2, and a tiny variance is used as given
    assert runs["default"] == runs["four"] != runs["tiny"]


def test_manifest_replay_reports_a_version_mismatch(tmp_path, capsys):
    path, doc = _small_sim_manifest(tmp_path)
    capsys.readouterr()
    assert main(["sim", "--from-manifest", str(path), "--out", str(tmp_path / "a.json")]) == 0
    assert capsys.readouterr().err == ""
    doc["manifest"]["version"] = "0.0.1"
    path.write_text(json.dumps(doc))
    assert main(["sim", "--from-manifest", str(path), "--out", str(tmp_path / "b.json")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "0.0.1" in err[0]
    assert json.loads((tmp_path / "b.json").read_text())["results"] == doc["results"]
    # the mismatch line comes on top of the exit codes, never instead of them
    doc["results"]["attack_rate"] = 0.0
    path.write_text(json.dumps(doc))
    assert main(["sim", "--from-manifest", str(path), "--out", str(tmp_path / "c.json")]) == 4
    assert len(capsys.readouterr().err.splitlines()) == 2


@pytest.mark.parametrize("repetition", ["0", "-1"])
def test_pk_rejects_a_repetition_below_one(repetition, tmp_path, capsys):
    assert main(["sim", "pk", "--n", "16", "--trials", "5", "--seed", "5", "--seed-secret", "6",
                 "--repetition", repetition, "--out", str(tmp_path / "pk.json")]) == 2
    assert "repetition must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "pk.json").exists()


@pytest.mark.parametrize("attacker", ["heavy_noise", "random_vector"])
def test_pk_refuses_an_attacker_it_does_not_run(attacker, tmp_path, capsys):
    assert main(["sim", "pk", "--n", "16", "--trials", "5", "--seed", "5", "--seed-secret", "6",
                 "--attacker", attacker, "--out", str(tmp_path / "pk.json")]) == 2
    assert "substitute_codeword" in capsys.readouterr().err
    assert not (tmp_path / "pk.json").exists()


@pytest.mark.parametrize("kind", [
    ["binary", "--n", "16"],
    ["binary", "--n", "16", "--attacker", "random_vector"],
    ["gaussian", "--n", "4", "--rate", "1"],
    ["gaussian", "--n", "4", "--rate", "1", "--attacker", "substitute_codeword"],
    ["pk", "--n", "16"],
    ["pk", "--n", "16", "--attacker", "substitute_codeword"],
])
def test_attack_p_without_heavy_noise_is_a_configuration_error(kind, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["sim", *kind, "--trials", "5", "--seed", "1", "--seed-secret", "2",
                 "--attack-p", "0.3", "--out", str(out)]) == 2
    assert "only to the heavy_noise attacker" in capsys.readouterr().err
    assert not out.exists()


def test_a_negative_seed_is_a_configuration_error(tmp_path):
    for kind in (["binary", "--n", "16"], ["gaussian", "--n", "4", "--rate", "1"],
                 ["pk", "--n", "16"]):
        assert main(["sim", *kind, "--trials", "5", "--seed", "-1", "--seed-secret", "2",
                     "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.oracle
@pytest.mark.parametrize("kind", [["binary", "--n", "16"], ["pk", "--n", "16"],
                                  ["gaussian", "--n", "4", "--rate", "1"]])
def test_more_trials_than_the_trial_streams_serve_are_a_configuration_error(kind, tmp_path,
                                                                           capsys, monkeypatch):
    def unreachable(config):
        raise AssertionError("the run started")    # it would fail only after 2^32 trials
    monkeypatch.setattr(cli, "build_codebook", unreachable)
    monkeypatch.setattr(cli, "build_gauss_codebook", unreachable)
    out = tmp_path / "x.json"
    assert main(["sim", *kind, "--trials", str(2 ** 32 + 1), "--seed", "1", "--seed-secret", "2",
                 "--out", str(out)]) == 2
    assert "trials must lie in [1, 4294967296]" in capsys.readouterr().err
    assert not out.exists()
    # the last trial index the streams serve is 2^32 - 1
    SimConfig(n=16, tau=0.2, gamma=0.25, p=0.08, delta=0.12, trials=2 ** 32, seed_public=1,
              seed_secret=2)
    GaussSimConfig(n=4, rate=1.0, sigma_s2=1.0, sigma_n2=1.0, trials=2 ** 32, seed_public=1,
                   seed_secret=2)


@pytest.mark.parametrize("argv", [
    ["region-gaussian", "--snr-db", "4000"],
    ["region-gaussian", "--snr-db", "10", "--snr-db", "inf"],
    ["region-layered", "--snr-db", "4000", "--sigma-v-db", "10", "--de-db", "0"],
    ["region-layered", "--snr-db", "30", "--sigma-v-db", "4000", "--de-db", "0"],
    ["region-layered", "--snr-db", "30", "--sigma-v-db", "10", "--de-db", "0",
     "--de-db", "4000"],
    ["sim", "gaussian", "--snr-db", "4000", "--seed", "1", "--seed-secret", "2"],
    ["sim", "gaussian", "--snr-db", "nan", "--seed", "1", "--seed-secret", "2"],
])
def test_a_db_argument_out_of_range_is_a_configuration_error(argv, tmp_path, capsys):
    out = tmp_path / "x.out"
    assert main([*argv, "--out", str(out)]) == 2
    assert "dB is out of range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["binary", "--n", "16", "--delta", "nan"], "delta"),
    (["binary", "--n", "16", "--gamma", "nan"], "gamma"),
    (["gaussian", "--n", "4", "--gamma", "nan"], "gamma"),
    (["gaussian", "--n", "4", "--rate", "nan"], "rate"),
])
def test_a_nan_parameter_is_a_configuration_error_naming_it(argv, name, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["sim", *argv, "--trials", "5", "--seed", "1", "--seed-secret", "2",
                 "--out", str(out)]) == 2
    assert f"{name} must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_negative_restarts_are_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "opt.json"
    assert main(["optimize", "--de", "0.2", "--dr", "0.2", "--p", "0.2",
                 "--restarts", "-3", "--out", str(out)]) == 2
    assert "restarts must be >= 0" in capsys.readouterr().err
    assert not out.exists()
    # no random start, the parametric seeds only
    assert main(["optimize", "--de", "0.2", "--dr", "0.2", "--p", "0.2",
                 "--restarts", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["manifest"]["params"]["restarts"] == 0


def test_optimize_with_no_start_to_run_is_a_configuration_error(tmp_path, capsys):
    # below cardinality 4 there is no parametric seed, so restarts 0 runs nothing
    out = tmp_path / "opt.json"
    assert main(["optimize", "--de", "0.2", "--dr", "0.2", "--p", "0.2",
                 "--cardinality", "2", "--restarts", "0", "--out", str(out)]) == 2
    assert "no start to run" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.oracle
@pytest.mark.parametrize("cardinality", ["1", "33", "100000"])
def test_optimize_refuses_a_cardinality_outside_its_range(cardinality, tmp_path, capsys):
    # 100000 used to die in a pool worker with a numpy memory error, and
    # 128 ran for minutes; the refusal comes before any start or import
    out = tmp_path / "opt.json"
    assert main(["optimize", "--de", "0.2", "--dr", "0.2", "--p", "0.2",
                 "--cardinality", cardinality, "--restarts", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"configuration error: auxiliary cardinality must be in "
                                f"[2, {MAX_CARDINALITY}], got {cardinality}"]
    assert not out.exists()


@pytest.mark.parametrize("resolution", ["0", "1"])
@pytest.mark.parametrize("argv", [
    ["region-binary", "--p", "0.2"],
    ["region-gaussian", "--snr-db", "10"],
    ["region-layered", "--snr-db", "30", "--sigma-v-db", "10", "--de-db", "0"],
])
def test_a_region_resolution_below_two_is_a_configuration_error(argv, resolution, tmp_path,
                                                                capsys):
    out = tmp_path / "region.csv"
    assert main([*argv, "--resolution", resolution, "--out", str(out)]) == 2
    assert "resolution must be >= 2" in capsys.readouterr().err
    assert not out.exists()


# each asks numpy for more than 2^57 bytes, which any allocator refuses at once
@pytest.mark.parametrize("argv", [
    ["sim", "pk", "--n", "16", "--trials", "3", "--seed", "1", "--seed-secret", "2",
     "--repetition", "1000000000000000"],
    ["sim", "pk", "--n", "16", "--trials", "3", "--seed", "1", "--seed-secret", "2",
     "--repetition", "1000000000000000", "--attacker", "substitute_codeword"],
    ["region-binary", "--p", "0.2", "--resolution", "100000000000000000"],
    ["region-gaussian", "--snr-db", "10", "--resolution", "100000000000000000"],
])
def test_an_allocation_too_large_is_a_configuration_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: Unable to allocate")
    assert not out.exists()


NO_SCIPY_SCRIPT = r"""
import json, pathlib, sys
from authdist import cli
from authdist.cli import main
from authdist.regions_binary import MAX_CARDINALITY

def loaded():
    return sorted(m for m in ("scipy.optimize", "scipy.spatial") if m in sys.modules)

out = pathlib.Path(sys.argv[1]) / "out"
seeds = ["--trials", "20", "--seed", "1", "--seed-secret", "2"]
report = {"import authdist.cli": loaded()}
for name, argv in (
        ("region-binary", ["region-binary", "--p", "0.2", "--resolution", "11"]),
        ("region-gaussian", ["region-gaussian", "--snr-db", "10", "--resolution", "5"]),
        ("region-layered", ["region-layered", "--snr-db", "30", "--sigma-v-db", "10",
                            "--de-db", "0", "--resolution", "5"]),
        ("sim binary", ["sim", "binary", "--n", "16", *seeds]),
        ("sim pk", ["sim", "pk", "--n", "16", *seeds])):
    assert main([*argv, "--out", str(out)]) == 0, name
    report[name] = loaded()

from authdist import regions_binary
import scipy.optimize
report["minimize"] = regions_binary.minimize is scipy.optimize.minimize
print(json.dumps(report))
"""


@pytest.mark.oracle
def test_import_and_commands_that_call_no_scipy_load_no_scipy(tmp_path):
    # only optimize (SLSQP) and sim gaussian (k-d trees) call scipy; a fresh
    # interpreter shows what the import and every other command load
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # the module global that the optimizer's worker calls resolves to scipy's
    assert report.pop("minimize") is True
    assert report == {name: [] for name in report}
