"""The benchmark's workloads: the CLI jobs of one pass and their output checks.

Every workload is a closed loop with one client: the worker runs the jobs
of a pass one after another through ``authdist.cli.main(argv)``, and starts
the next job only when the previous one has returned.  The argv reproduce
the repository's own scripts and README commands; only trial counts and
seeds are derived from the benchmark's arguments.

There are two workloads, each the union of two groups of jobs:
``monte_carlo`` runs the ``binary_mc`` (binary and public-key sims) and
``gauss_mc`` (Gaussian sims) groups, ``regions`` runs the ``regions``
(region scripts) and ``optimizer`` (rate-function optimizer) groups.  Two
long workloads, rather than four short ones, let each run last long enough
for its medians to hold on a small shared host.

A check returns ``None`` for a correct output, or a message saying what is
wrong; a wrong output counts as a failed job.  Checks read the committed
``out/`` files but never write to ``out/``.

This module uses only the standard library, so the parent process can build
job lists without importing numpy, and the checks do not lean on the code
they check.
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import json
import math
import pathlib
import random
from typing import Callable

GROUPS = {"monte_carlo": ("binary_mc", "gauss_mc"), "regions": ("regions", "optimizer")}
WORKLOADS = tuple(GROUPS)
SIZES = ("full", "tiny")

# scripts/attack_study.py, with its trial count and seeds left open
ATTACK_STUDY = (
    ("bin_substitute.json",
     ["sim", "binary", "--n", "16", "--tau", "0.2", "--gamma", "0.25",
      "--p", "0.08", "--delta", "0.12", "--attacker", "substitute_codeword"]),
    ("bin_heavy_noise.json",
     ["sim", "binary", "--n", "32", "--tau", "0.2", "--gamma", "0.1",
      "--p", "0.08", "--delta", "0.12", "--attacker", "heavy_noise", "--attack-p", "0.4"]),
    ("pk_forgery.json",
     ["sim", "pk", "--n", "16", "--tau", "0.2", "--gamma", "0.25",
      "--p", "0.0", "--delta", "0.12", "--attacker", "substitute_codeword",
      "--tag-bits", "64"]),
)
ATTACK_STUDY_TRIALS, ATTACK_STUDY_SEEDS = 20000, (11, 22)

REGION_CSVS = (*(f"binary_region_p{p:.2f}.csv" for p in (0.05, 0.10, 0.15, 0.20)),
               "gaussian_bounds.csv", "layered_slices.csv")
# committed files the checks read
OUT_FILES = (*(name for name, _ in ATTACK_STUDY), *REGION_CSVS)

# README.md: the n=32 reference run and the Gaussian run
README_BINARY_REF = ["sim", "binary", "--n", "32", "--tau", "0.2", "--gamma", "0.1",
                     "--p", "0.08", "--delta", "0.12"]
README_BINARY_REF_TRIALS = 10000
README_GAUSSIAN = ["sim", "gaussian", "--n", "8", "--rate", "2", "--snr-db", "20"]
README_GAUSSIAN_TRIALS = 10000

# Trials per job in one pass, as a share of the documented count.  Full
# passes are a tenth (binary) and a fifth (Gaussian) of the documented runs,
# so that a run of the benchmark holds several passes.
TRIAL_SHARE = {"binary_mc": {"full": 10, "tiny": 400},
               "gauss_mc": {"full": 5, "tiny": 200}}

# acceptance criterion 02: point 9 of its grid np.linspace(0.025, 0.5, 20),
# reference crossover, offset from the frontier, optimizer arguments
OPT_DE = 0.025 + 9 * (0.5 - 0.025) / 19
OPT_P, OPT_OFFSET = 0.2, 1e-3
OPT_ARGS = {"full": ["--cardinality", "7", "--restarts", "32", "--seed", "0"],
            "tiny": ["--cardinality", "7", "--restarts", "1", "--seed", "0"]}


@dataclasses.dataclass(frozen=True)
class Job:
    """One CLI invocation: argv without ``--out``, its output file name, the
    check its output must pass, and the group of jobs it belongs to."""

    argv: tuple[str, ...]
    out: str
    check: Callable[[pathlib.Path], str | None]
    group: str = ""

    @property
    def sim(self) -> bool:
        return self.argv[0] == "sim"


def _golden(root: pathlib.Path, name: str) -> Callable[[pathlib.Path], str | None]:
    """Byte-for-byte comparison with the committed out/<name>."""
    golden = root / "out" / name

    def check(path: pathlib.Path) -> str | None:
        if path.read_bytes() != golden.read_bytes():
            return f"differs from out/{name}"
        return None
    return check


def _csv_header(root: pathlib.Path, name: str) -> Callable[[pathlib.Path], str | None]:
    """Same header as the committed out/<name>, and at least one data row."""
    header = (root / "out" / name).read_text().splitlines()[0]

    def check(path: pathlib.Path) -> str | None:
        lines = path.read_text().splitlines()
        if not lines or lines[0] != header or len(lines) < 2:
            return f"CSV header or rows differ in shape from out/{name}"
        return None
    return check


def binomial_sigma(rate: float, trials: int) -> float:
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / trials) if trials > 0 else 0.0


# Tolerance of the attack-rate checks, in binomial standard deviations.  The
# acceptance tests use 3 sigma at one pinned seed; here every seed the
# benchmark is given is checked, and at 3 sigma 2 of the first 98 seeds
# failed a check by chance (the rates are binomial: their z-scores over
# those seeds have sd 1.05).  At 5 sigma a chance failure has odds below
# 1e-6 per check.
Z_ATTACK = 5.0


def check_sim(path: pathlib.Path) -> str | None:
    """Invariants of a sim result, by its attacker.

    Reference runs: D_r == D_e exactly on matched trials, and some matched.
    Substitute codeword (binary and Gaussian): attack rate within Z_ATTACK
    sigma of |A|/|C|.  Heavy noise: attack rate at most 2^(-n gamma) +
    Z_ATTACK sigma.  Public-key forgery: no forged tag accepted.
    """
    res = json.loads(path.read_text())["results"]
    cfg, stats = res["config"], res["stats"]
    attacker = cfg.get("attacker")
    if attacker is None:
        if stats["dr_de_max_gap"] != 0.0 or stats["matched"] <= 0:
            return (f"reference run: dr_de_max_gap={stats['dr_de_max_gap']} "
                    f"matched={stats['matched']}")
        return None
    att, rate = stats["attack_trials"], res["attack_rate"]
    if att <= 0:
        return "attack run with no attacked trials"
    if cfg["kind"] == "pk":
        if res["tag_forgeries_accepted"] != 0:
            return f"{res['tag_forgeries_accepted']} forged tags accepted"
        return None
    if attacker == "substitute_codeword":
        target = res["admissible_size"] / res["codebook_size"]
        tol = Z_ATTACK * binomial_sigma(target, att)
        if abs(rate - target) > tol:
            return f"substitute rate {rate} not within {tol} of |A|/|C| = {target}"
        return None
    if attacker == "heavy_noise":
        bound = 2.0 ** (-cfg["n"] * cfg["gamma"])
        limit = bound + Z_ATTACK * binomial_sigma(bound, att)
        if rate > limit:
            return f"heavy-noise rate {rate} above 2^(-n gamma) + {Z_ATTACK:g} sigma = {limit}"
        return None
    return f"no check for attacker {attacker}"


def check_optimize(above: bool) -> Callable[[pathlib.Path], str | None]:
    def check(path: pathlib.Path) -> str | None:
        r_star = json.loads(path.read_text())["results"]["r_star"]
        if above and not r_star >= 0.0:
            return f"r_star={r_star} < 0 above the frontier"
        if not above and not r_star < 0.0:
            return f"r_star={r_star} >= 0 below the frontier"
        return None
    return check


def frontier(root: pathlib.Path, de: float) -> float:
    """D_r of the p=0.2 frontier at de, linearly interpolated from
    out/binary_region_p0.20.csv (the interpolation of RegionCurve.dr_at)."""
    with open(root / "out" / "binary_region_p0.20.csv", newline="") as fh:
        rows = [(float(r["de"]), float(r["dr"])) for r in csv.DictReader(fh)]
    xs = [x for x, _ in rows]
    i = bisect.bisect_right(xs, de)
    if i == 0:
        return rows[0][1]
    if i == len(rows):
        return rows[-1][1]
    (x0, y0), (x1, y1) = rows[i - 1], rows[i]
    return y0 + (de - x0) * (y1 - y0) / (x1 - x0)


def _sim_seeds(seed: int, count: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(rng.randrange(1, 2 ** 31), rng.randrange(1, 2 ** 31)) for _ in range(count)]


def _sim_argv(base: list[str], trials: int, seeds: tuple[int, int]) -> tuple[str, ...]:
    return (*base, "--trials", str(trials), "--seed", str(seeds[0]),
            "--seed-secret", str(seeds[1]))


def pass_jobs(workload: str, seed: int, size: str, root: pathlib.Path) -> list[Job]:
    """The jobs of one pass, group by group.  Every pass of a run repeats
    the same jobs."""
    return [dataclasses.replace(job, group=group) for group in GROUPS[workload]
            for job in _group_jobs(group, seed, size, root)]


def _group_jobs(group: str, seed: int, size: str, root: pathlib.Path) -> list[Job]:
    if group == "binary_mc":
        share = TRIAL_SHARE[group][size]
        seeds = _sim_seeds(seed, len(ATTACK_STUDY) + 1)
        jobs = [Job(_sim_argv(argv, ATTACK_STUDY_TRIALS // share, s), name, check_sim)
                for (name, argv), s in zip(ATTACK_STUDY, seeds)]
        jobs.append(Job(_sim_argv(README_BINARY_REF, README_BINARY_REF_TRIALS // share,
                                  seeds[-1]), "ref.json", check_sim))
        return jobs
    if group == "gauss_mc":
        trials = README_GAUSSIAN_TRIALS // TRIAL_SHARE[group][size]
        s_ref, s_att = _sim_seeds(seed, 2)
        return [Job(_sim_argv(README_GAUSSIAN, trials, s_ref), "gsim.json", check_sim),
                Job(_sim_argv(README_GAUSSIAN + ["--attacker", "substitute_codeword"],
                              trials, s_att), "gsim_attack.json", check_sim)]
    if group == "regions":
        # the exact argv of the three region scripts; deterministic, seed unused
        jobs = [Job(("region-binary", "--p", str(p), "--resolution", "500"),
                    f"binary_region_p{p:.2f}.csv", _golden(root, f"binary_region_p{p:.2f}.csv"))
                for p in (0.05, 0.10, 0.15, 0.20)]
        jobs.append(Job(("region-gaussian", "--snr-db", "-10", "--snr-db", "0",
                         "--snr-db", "10", "--snr-db", "30", "--resolution", "200"),
                        "gaussian_bounds.csv", _golden(root, "gaussian_bounds.csv")))
        layered = ["region-layered", "--snr-db", "30", "--sigma-v-db", "10"]
        if size == "full":
            for de_db in (10, 5, 0, -5, -10):
                layered += ["--de-db", str(de_db)]
            jobs.append(Job((*layered, "--resolution", "80"), "layered_slices.csv",
                            _golden(root, "layered_slices.csv")))
        else:
            jobs.append(Job((*layered, "--de-db", "0", "--resolution", "4"),
                            "layered_slices.csv", _csv_header(root, "layered_slices.csv")))
        return jobs
    if group == "optimizer":
        # acceptance 02's call pair at one grid point, seed pinned as there;
        # deterministic, seed unused
        bdr = frontier(root, OPT_DE)
        base = ["optimize", "--de", repr(OPT_DE), "--p", repr(OPT_P), *OPT_ARGS[size]]
        return [Job((*base, "--dr", repr(min(0.5, bdr + OPT_OFFSET))), "above.json",
                    check_optimize(True)),
                Job((*base, "--dr", repr(bdr - OPT_OFFSET)), "below.json",
                    check_optimize(False))]
    raise ValueError(f"unknown group {group!r}")


def golden_jobs(workload: str, seed: int, size: str, root: pathlib.Path) -> list[Job]:
    """Untimed replays at a committed out/ file's parameters and seeds.

    monte_carlo replays one attack-study job per run, chosen by the seed,
    and compares it with the committed file byte for byte.
    """
    if workload != "monte_carlo" or size != "full":
        return []
    name, argv = ATTACK_STUDY[seed % len(ATTACK_STUDY)]
    return [Job(_sim_argv(argv, ATTACK_STUDY_TRIALS, ATTACK_STUDY_SEEDS), f"replay_{name}",
                _golden(root, name))]


def items(job: Job, path: pathlib.Path) -> int:
    """Units of work one job completed: Monte Carlo trials for sims, SLSQP
    starts for optimize, data rows for region CSVs."""
    if job.sim:
        return json.loads(path.read_text())["results"]["stats"]["trials_run"]
    if job.argv[0] == "optimize":
        return json.loads(path.read_text())["results"]["restarts_used"]
    return path.read_text().count("\n") - 1
