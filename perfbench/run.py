#!/usr/bin/env python3
"""authdist benchmark: one run of one workload, reported as one JSON line.

Usage, from the root of a checkout (nothing needs to be installed; the
worker imports the package from ``src/``)::

    python3 perfbench/run.py --workload monte_carlo --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py``): ``monte_carlo`` (the ``binary_mc`` and
``gauss_mc`` job groups) and ``regions`` (the ``regions`` and ``optimizer``
job groups).  Each run starts a fresh single-process interpreter that runs
passes of the workload's CLI jobs in a closed loop with one client and
checks every output.

End-to-end metrics (``--trace 0``):

- ``setup_s``: interpreter start until ``import authdist.cli`` returns,
  median over several fresh interpreters, each scaled to a host of fixed
  speed by a reference interpreter started just before and just after it;
- ``wall_s_norm``, ``cpu_s_norm``: wall and user+system CPU seconds of one
  pass: every run of a job scaled to a host of fixed speed by a reference
  kernel timed around it (see ``worker.py``), then the sum over the jobs
  of a pass of each job's median over the run;
- ``trials_per_s_norm``: work items of a pass per ``wall_s_norm``: Monte
  Carlo trials (sims), SLSQP starts (optimize) and CSV data rows (region
  jobs);
- ``peak_rss_mb``: the worker's own ``ru_maxrss``.

The measured ``setup_s``, ``wall_s``, ``cpu_s`` and ``trials_per_s``, the
reference kernel's time and each group's share of ``wall_s`` are printed
and kept as information.

``--trace 1`` reports the per-layer metrics of ``tracer.py`` instead, from
traced passes, plus the tracing overhead.  The error rate is ``failed`` over
``attempted`` in the result line: jobs that raise, exit non-zero or fail
their output check.  Each result, with the machine it ran on, is also
written to ``.perfbench/results/``; traced runs write their spans to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

E2E_UNITS = {"setup_s": "s", "wall_s_norm": "s", "cpu_s_norm": "s",
             "trials_per_s_norm": "1/s", "peak_rss_mb": "MB"}
MEASURED = ("wall_s", "cpu_s", "trials_per_s")
# fresh interpreters that only import the CLI; half start before the worker
# and half after it, so the samples span the run
SETUP_PROBES = {"full": 8, "tiny": 1}
PROBE = "import time, authdist.cli; print(authdist.cli.__file__); print(time.monotonic())"
# A fresh interpreter that imports a fixed set of standard-library modules:
# a sample of the host's current speed at the work set-up does.  Set-up
# times drift with the host by 30% over minutes; scaled by this reference,
# which takes about SETUP_REF_NOMINAL_S on an idle host, they drift by 7%.
SETUP_REF = ("import time, json, decimal, email.parser, http.client, xml.dom.minidom, "
             "sqlite3, asyncio; print(time.monotonic())")
SETUP_REF_NOMINAL_S = 0.1
RUN_LIMIT_S = 170.0
# One BLAS thread: the workloads have one client, and on a small shared box
# OpenBLAS's spinning second thread doubles CPU time, slows gauss_mc's
# score matrices and, when another process competes for the cores, stretches
# an optimize call from seconds to a minute.
BLAS_THREADS = "1"


def _own_module(path: str) -> bool:
    return pathlib.Path(path).resolve().is_relative_to(ROOT / "src")


def _started(code: str, env: dict) -> tuple[float, list[str]]:
    """Seconds from starting an interpreter on code until it printed
    time.monotonic() as its last word, and the words before it."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, text=True,
                         capture_output=True, timeout=60, check=True).stdout.split()
    return float(out[-1]) - t0, out[:-1]


def _setup_samples(env: dict, count: int) -> list[tuple[float, float]]:
    """count set-up times, each as measured and scaled by the reference
    interpreter's times just before and just after it."""
    samples = []
    ref = _started(SETUP_REF, env)[0]
    for _ in range(count):
        setup, (module,) = _started(PROBE, env)
        if not _own_module(module):
            raise RuntimeError(f"imported {module}, not the checkout's authdist")
        before, ref = ref, _started(SETUP_REF, env)[0]
        samples.append((setup, setup * SETUP_REF_NOMINAL_S / ((before + ref) / 2)))
    return samples


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny: a few trials per job, for the smoke test")
    args = ap.parse_args()
    started = time.monotonic()

    missing = [str(p.relative_to(ROOT)) for p in
               [ROOT / "src" / "authdist" / "cli.py", *(ROOT / "out" / n for n in workloads.OUT_FILES)]
               if not p.is_file()]
    if missing:
        print(f"perfbench: not an authdist checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS}
    STATE.mkdir(exist_ok=True)
    setup = _setup_samples(env, SETUP_PROBES[args.size] // 2)

    run_name = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.size == "tiny" else "")
    name = f"{run_name}-trace{args.trace}"
    spans = STATE / "traces" / f"{run_name}.jsonl"
    if args.trace:
        spans.parent.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="outputs-", dir=STATE)
    try:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--root", str(ROOT),
               "--tmp", tmp, "--spans", str(spans), "--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} did not finish within {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    rec = json.loads(lines[-1])
    if not _own_module(rec["module"]):
        print(f"perfbench: worker imported {rec['module']}", file=sys.stderr)
        return 1
    setup += _setup_samples(env, SETUP_PROBES[args.size] - len(setup))

    if args.trace:
        metrics = {k: {"value": v, "unit": tracer.LAYER_UNITS[k]}
                   for k, v in rec["layers"].items()}
    else:
        values = {**{k: rec[k] for k in E2E_UNITS}, "setup_s": statistics.median(s for _, s in setup)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **rec["versions"],
        "blas_threads": int(BLAS_THREADS),
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }
    failed = len(rec["failures"])
    result = {"correct": failed == 0, "attempted": rec["attempted"], "failed": failed,
              "metrics": metrics}
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(
        {**result, **{k: rec[k] for k in MEASURED}, "passes": rec["passes"],
         "group_wall_s": rec["group_wall_s"], "job_walls": rec["job_walls"],
         "ref_s": rec["ref_s"], "ref_samples": rec["ref_samples"],
         "worker_setup_s": rec["setup_s"], "setup_samples": setup, "machine": machine,
         "output_checksums": rec["output_checksums"], "output_sha256": rec["output_sha256"],
         "failures": rec["failures"]},
        indent=2) + "\n")

    for msg in rec["failures"][:10]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    for job, checksum in sorted(rec["output_checksums"].items()):
        print(f"output_checksum {job} {checksum}")
    print(f"measured setup_s {statistics.median(m for m, _ in setup):.4f} "
          + " ".join(f"{k} {rec[k]:.4f}" for k in MEASURED) + f"; reference kernel {rec['ref_s'] * 1e3:.3f} ms")
    for group, wall in rec["group_wall_s"].items():
        print(f"group_wall_s {group} {wall:.4f}")
    print(f"passes {rec['passes']:.2f}; error_rate {failed}/{rec['attempted']}")
    if args.trace:
        print(f"spans written to {spans.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
