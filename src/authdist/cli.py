"""Command-line surface: region curves, simulations, and the rate optimizer.

All outputs are data-only (CSV or JSON) and deterministic: simulation
commands require explicit seeds, floats are formatted locale-free, and
every sim/optimize result embeds a manifest (command, parameters, seeds,
version, checksum of the results block) from which the run can be
reproduced byte-identically via ``sim --from-manifest``.

Exit codes: 0 success, 2 configuration error (an array too large to allocate
included), 3 I/O error, 4 a ``sim --from-manifest`` rerun whose results
checksum differs from the recorded one (or whose recorded results do not
match their checksum).
Replaying a manifest written by another version prints one line on stderr
and leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .regions_binary import boundary, optimize_rate_fn, qe_boundary
from .regions_gaussian import GaussianScenario, envelope_dr, inner_bound_dr, qe_dr
from .regions_layered import (
    LayeredScenario,
    region_slice,
    single_codebook_endpoints,
    time_share,
)
from .pubkey import TagCarrier, TestDoubleScheme, run_pk_trials
from .sim_binary import SimConfig, build_codebook, run_attack_trials, run_reference_trials
from .sim_common import ATTACKERS, wilson_interval
from .sim_gaussian import GaussSimConfig, build_gauss_codebook, run_gauss_trials

DB_GRID_LO, DB_GRID_HI = -20.0, 40.0
# bound on every dB argument: variances within 1e-100..1e100, where the region
# and trial arithmetic stays finite (10^(x/10) itself is finite up to 3082 dB)
DB_LIMIT = 1000.0


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


def _from_db(x: float) -> float:
    """10^(x/10), refused with ValueError outside [-DB_LIMIT, DB_LIMIT] dB
    (NaN included)."""
    if not -DB_LIMIT <= x <= DB_LIMIT:
        raise ValueError(f"{_fmt(x)} dB is out of range [{_fmt(-DB_LIMIT)}, {_fmt(DB_LIMIT)}]")
    return 10.0 ** (x / 10.0)


def _checksum(results) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True, indent=2).encode()).hexdigest()


def _results_json(manifest_core: dict, results: dict) -> str:
    doc = {"manifest": {**manifest_core, "version": __version__,
                        "output_checksum": _checksum(results)},
           "results": results}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_region_binary(args) -> int:
    curve = boundary(args.p, args.resolution)
    qe = qe_boundary(args.p, args.resolution)
    lines = ["de,dr,dr_qe,dr_noauth"]
    for de, dr, drq in zip(curve.de, curve.dr, qe.dr):
        lines.append(f"{_fmt(de)},{_fmt(dr)},{_fmt(drq)},{_fmt(args.p)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_region_gaussian(args) -> int:
    if args.resolution < 2:
        raise ValueError("resolution must be >= 2")
    lines = ["snr_db,curve,de_over_n_db,dr_over_n_db"]
    de_db_grid = np.linspace(DB_GRID_LO, DB_GRID_HI, args.resolution)
    for snr_db in args.snr_db:
        scn = GaussianScenario(sigma_s2=_from_db(snr_db), sigma_n2=1.0)
        de_grid = 10.0 ** (de_db_grid / 10.0) * scn.sigma_n2
        env = envelope_dr(scn, de_grid)
        for name, values in (
            ("inner", [inner_bound_dr(scn, de) for de in de_grid]),
            ("envelope", env),
            ("qe", [qe_dr(scn, de) for de in de_grid]),
        ):
            for de_db, dr in zip(de_db_grid, values):
                lines.append(f"{_fmt(snr_db)},{name},{_fmt(de_db)},{_fmt(_db(dr))}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_region_layered(args) -> int:
    sigma_n2 = 1.0
    scn = LayeredScenario(
        sigma_s2=_from_db(args.snr_db) * sigma_n2,
        sigma_n2=sigma_n2,
        sigma_v2=_from_db(args.sigma_v_db) * sigma_n2,
    )
    lines = ["de_db,kind,drf_db,drc_db"]
    for de_db in args.de_db:
        de = _from_db(de_db) * sigma_n2
        pts = region_slice(scn, de, args.resolution)
        for sp in pts:
            lines.append(f"{_fmt(de_db)},layered,{_fmt(_db(sp.triple.drf))},{_fmt(_db(sp.triple.drc))}")
        end_a, end_b = single_codebook_endpoints(scn, de, pts)
        for lam in np.linspace(0.0, 1.0, 21):
            mix = time_share(end_a, end_b, float(lam))
            lines.append(f"{_fmt(de_db)},timeshare,{_fmt(_db(mix.drf))},{_fmt(_db(mix.drc))}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


SIM_PARAMS = ("kind", "n", "tau", "gamma", "p", "delta", "trials", "seed", "seed_secret",
              "attacker", "attack_p", "rate", "snr_db", "tag_bits", "repetition")


def _sim_params(args) -> dict:
    return {k: getattr(args, k, None) for k in SIM_PARAMS}


def _run_sim(args) -> dict:
    if args.attack_p is not None and args.attacker != "heavy_noise":
        raise ValueError("--attack-p applies only to the heavy_noise attacker")
    extra = {}
    if args.kind in ("binary", "pk"):
        config = SimConfig(n=args.n, tau=args.tau, gamma=args.gamma, p=args.p,
                           delta=args.delta, trials=args.trials,
                           seed_public=args.seed, seed_secret=args.seed_secret)
        cb = build_codebook(config)
        if args.kind == "pk":
            stats, extra = _run_pk_trials(args, config, cb)
        elif args.attacker:
            stats = run_attack_trials(config, args.attacker, args.attack_p, cb)
        else:
            stats = run_reference_trials(config, cb)
    elif args.kind == "gaussian":
        sigma_n2 = 1.0
        config = GaussSimConfig(n=args.n, rate=args.rate,
                                sigma_s2=_from_db(args.snr_db) * sigma_n2,
                                sigma_n2=sigma_n2, trials=args.trials,
                                seed_public=args.seed, seed_secret=args.seed_secret,
                                gamma=args.gamma)
        cb = build_gauss_codebook(config)
        stats = run_gauss_trials(config, args.attacker, args.attack_p, codebook=cb)
    else:
        raise ValueError(f"unknown sim kind {args.kind!r}")
    lo, hi = wilson_interval(stats.attack_successes, stats.attack_trials)
    return {
        "config": {k: v for k, v in _sim_params(args).items() if v is not None},
        "stats": asdict(stats),
        "attack_rate": stats.attack_rate,
        "attack_rate_ci95": [lo, hi],
        "codebook_size": cb.count,
        "admissible_size": cb.n_admissible,
        **extra,
    }


def _run_pk_trials(args, config: SimConfig, cb):
    """``run_pk_trials`` at the arguments' tag bits and repetition."""
    tags = TagCarrier(TestDoubleScheme(args.tag_bits), cb.count, args.repetition)
    stats = run_pk_trials(config, cb, tags, b"cli-pk-key", args.attacker)
    return stats, {"tag_forgeries_accepted": stats.attack_successes}


def cmd_sim(args) -> int:
    recorded = None
    if args.from_manifest:
        with open(args.from_manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        manifest = doc.get("manifest") if isinstance(doc, dict) else None
        params = manifest.get("params", {}) if isinstance(manifest, dict) else None
        if (not isinstance(params, dict) or manifest.get("command") != "sim"
                or "output_checksum" not in manifest):
            raise ValueError(f"{args.from_manifest} is not a sim manifest")
        unknown = sorted(set(params) - set(SIM_PARAMS))
        if unknown:
            raise ValueError(f"unknown manifest params: {', '.join(unknown)}")
        for k, v in params.items():
            setattr(args, k, v)
        if manifest.get("version") != __version__:
            print(f"manifest written by authdist {manifest.get('version')}, "
                  f"replayed by {__version__}", file=sys.stderr)
        recorded = manifest["output_checksum"]
        if _checksum(doc.get("results")) != recorded:
            print("manifest results do not match their recorded checksum", file=sys.stderr)
            return 4
    if args.seed is None or args.seed_secret is None:
        raise ValueError("sim commands require explicit --seed and --seed-secret")
    results = _run_sim(args)
    manifest = {"command": "sim", "params": _sim_params(args),
                "seeds": {"seed": args.seed, "seed_secret": args.seed_secret}}
    _write_text(args.out, _results_json(manifest, results))
    if recorded is not None and _checksum(results) != recorded:
        print(f"rerun checksum differs from the manifest's {recorded}", file=sys.stderr)
        return 4
    return 0


def cmd_optimize(args) -> int:
    res = optimize_rate_fn(args.de, args.dr, args.p, args.cardinality,
                           restarts=args.restarts, seed=args.seed)
    results = {
        "r_star": float(res.value),
        "converged": bool(res.converged),
        "restarts_used": int(res.restarts_used),
        "witness_u_given_s": [[float(x) for x in row] for row in res.q_u_given_s],
        "witness_x1_given_us": [[float(x) for x in row] for row in res.p_x1_given_us],
        "witness_decoder": [int(x) for x in res.decoder],
    }
    manifest = {"command": "optimize",
                "params": {"de": args.de, "dr": args.dr, "p": args.p,
                           "cardinality": args.cardinality, "restarts": args.restarts,
                           "seed": args.seed},
                "seeds": {"seed": args.seed}}
    _write_text(args.out, _results_json(manifest, results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="authdist",
                                     description="authentication-with-distortion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    rb = sub.add_parser("region-binary", help="binary-Hamming region curves (CSV)")
    rb.add_argument("--p", type=float, required=True)
    rb.add_argument("--resolution", type=int, default=500)
    rb.add_argument("--out", required=True)
    rb.set_defaults(func=cmd_region_binary)

    rg = sub.add_parser("region-gaussian", help="Gaussian-quadratic bounds (CSV)")
    rg.add_argument("--snr-db", type=float, action="append", required=True)
    rg.add_argument("--resolution", type=int, default=200)
    rg.add_argument("--out", required=True)
    rg.set_defaults(func=cmd_region_gaussian)

    rl = sub.add_parser("region-layered", help="two-layer region slices (CSV)")
    rl.add_argument("--snr-db", type=float, required=True)
    rl.add_argument("--sigma-v-db", type=float, required=True)
    rl.add_argument("--de-db", type=float, action="append", required=True)
    rl.add_argument("--resolution", type=int, default=60)
    rl.add_argument("--out", required=True)
    rl.set_defaults(func=cmd_region_layered)

    sim = sub.add_parser("sim", help="Monte Carlo trials (JSON + manifest)")
    sim.add_argument("kind", nargs="?", choices=("binary", "gaussian", "pk"), default="binary")
    sim.add_argument("--n", type=int, default=16)
    sim.add_argument("--tau", type=float, default=0.2)
    sim.add_argument("--gamma", type=float, default=0.25)
    sim.add_argument("--p", type=float, default=0.08)
    sim.add_argument("--delta", type=float, default=0.1)
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--seed-secret", type=int, default=None)
    sim.add_argument("--attacker", choices=ATTACKERS, default=None)
    sim.add_argument("--attack-p", type=float, default=None,
                     help="heavy_noise strength, refused without --attacker heavy_noise: "
                          "binary, a BSC crossover probability in (p, 1/2]; gaussian, a "
                          "per-sample noise variance > 0 (default 4 sigma_n^2)")
    sim.add_argument("--rate", type=float, default=2.0, help="gaussian codebook rate (bits/sample)")
    sim.add_argument("--snr-db", type=float, default=20.0, help="gaussian SNR in dB")
    sim.add_argument("--tag-bits", type=int, default=64)
    sim.add_argument("--repetition", type=int, default=1,
                     help="pk carrier samples per tag bit; a reference run does not yet "
                          "send the carrier through the channel")
    sim.add_argument("--from-manifest", default=None)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_sim)

    opt = sub.add_parser("optimize", help="rate-function estimate (JSON)")
    opt.add_argument("--de", type=float, required=True)
    opt.add_argument("--dr", type=float, required=True)
    opt.add_argument("--p", type=float, required=True)
    opt.add_argument("--cardinality", type=int, default=7)
    opt.add_argument("--restarts", type=int, default=32)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--out", required=True)
    opt.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (IOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
