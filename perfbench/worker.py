"""One workload run in a fresh, single-process interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src/``.  It times ``import authdist.cli`` from the moment the parent
started it, warms up on the tiny version of the workload's jobs, then runs
the jobs in a closed loop, one after another and pass after pass: every
job runs at least once, and after the first pass no job starts that would
end past ``--seconds`` by its median so far.  Every job's output is
checked.  A pass's wall and CPU time are the sums over its jobs of each
job's median over the run.

The host's speed drifts: on a small shared virtual machine the same code
runs up to 1.5 times slower for seconds to minutes at a time, and a run's
median follows.  So before each job the worker also times a fixed reference
kernel, and reports every time twice: as measured, and scaled to a host on
which the kernel takes ``REF_NOMINAL_S`` (the ``_norm`` metrics: each
job's time x ``REF_NOMINAL_S`` / the mean of the kernel's times just
before and just after that job, then summed over jobs like the measured
times).  The last line of standard output is one JSON record.

With ``--trace 1`` it runs whole passes in which each job runs untraced and
then traced: the traced runs give the per-layer metrics, the difference of
the two pass times is the tracing overhead, and a traced output that
differs from its untraced twin counts as a failed job.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

import workloads


REF_REPS = 5
REF_NOMINAL_S = 0.005


@functools.cache
def _ref_rows():
    import numpy as np
    return np.random.default_rng(0).standard_normal((65536, 8))


def _reference() -> float:
    """Mean seconds of one repetition of a fixed kernel, a sample of the
    host's current speed: a pure-Python loop and four nearest-row scans of
    a 4 MB matrix, the two kinds of work the workloads do (a few ms in all)."""
    import numpy as np
    rows = _ref_rows()
    t0 = time.perf_counter()
    for _ in range(REF_REPS):
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        for _ in range(4):
            np.argmin(rows @ rows[0])
    return (time.perf_counter() - t0) / REF_REPS


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Runs jobs through ``cli.main`` and keeps the tally of the run."""

    def __init__(self, cli, tmp: pathlib.Path):
        self.cli = cli
        self.tmp = tmp
        self.attempted = 0
        self.failures: list[str] = []
        self.checksums: dict[str, str] = {}
        self.digests: dict[str, str] = {}

    def _run(self, job: workloads.Job) -> str | None:
        path = self.tmp / job.out
        path.unlink(missing_ok=True)
        try:
            rc = self.cli.main([*job.argv, "--out", str(path)])
        except SystemExit as exc:   # argparse rejects an argv
            return f"exited with {exc.code}"
        except Exception:           # any crash is a failed job; keep running
            return traceback.format_exc(limit=3)
        return None if rc == 0 else f"exit code {rc}"

    def run(self, job: workloads.Job, tracer=None) -> tuple[float, float, int, str] | None:
        """Runs one job and checks its output; returns its wall seconds, CPU
        seconds, work items and output sha256, or None if it failed."""
        if tracer:
            tracer.job += 1
            tracer.install()
        try:
            t0, c0 = time.perf_counter(), _cpu()
            err = self._run(job)
            wall, cpu = time.perf_counter() - t0, _cpu() - c0
        finally:
            if tracer:
                tracer.uninstall()
        path = self.tmp / job.out
        if err is None:
            err = job.check(path)
        self.attempted += 1
        if err is not None:
            self.failures.append(f"{' '.join(job.argv)}: {err}")
            return None
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.digests[job.out] = digest   # a traced run's last run of a job is traced
        if job.sim:
            self.checksums[job.out] = json.loads(path.read_text())["manifest"]["output_checksum"]
        return wall, cpu, workloads.items(job, path), digest


def _pass_sum(samples: list[list[float]]) -> float:
    """A pass's total: the sum over jobs of each job's median sample."""
    return sum(statistics.median(s) for s in samples if s)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=workloads.SIZES, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args()

    import authdist.cli as cli
    setup_s = time.monotonic() - args.spawned_at

    root = pathlib.Path(args.root)
    jobs = workloads.pass_jobs(args.workload, args.seed, args.size, root)
    runner = Runner(cli, pathlib.Path(args.tmp))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    for job in workloads.pass_jobs(args.workload, args.seed, "tiny", root):
        runner.run(job)

    # per job: wall, CPU and traced wall samples; work items of one run
    walls, cpus, traced = ([[] for _ in jobs] for _ in range(3))
    items = [0] * len(jobs)
    # reference kernel times before each timed job and after the last one;
    # each timed run that succeeded as (job, index of the kernel time just
    # before it, wall seconds, CPU seconds)
    refs: list[float] = []
    timed: list[tuple[int, int, float, float]] = []

    def run_timed(i: int):
        refs.append(_reference())
        res = runner.run(jobs[i])
        if res:
            timed.append((i, len(refs) - 1, res[0], res[1]))
            walls[i].append(res[0])
            cpus[i].append(res[1])
            items[i] = res[2]
        return res

    started, n = time.perf_counter(), 0
    if tracer:
        while True:
            pass_start = time.perf_counter()
            for i, job in enumerate(jobs):
                res = run_timed(i)
                t_res = runner.run(job, tracer)
                if t_res:
                    traced[i].append(t_res[0])
                if res and t_res and res[3] != t_res[3]:
                    runner.failures.append(f"{' '.join(job.argv)}: traced output differs")
            n += len(jobs)
            now = time.perf_counter()
            # stop when another pass of the same length would overrun
            if now - started + (now - pass_start) > args.seconds:
                break
    else:
        while True:
            i = n % len(jobs)
            # after the first pass, stop before a job that would overrun
            due = time.perf_counter() - started + (statistics.median(walls[i]) if walls[i] else 0)
            if n >= len(jobs) and due > args.seconds:
                break
            run_timed(i)
            n += 1
    refs.append(_reference())

    for job in workloads.golden_jobs(args.workload, args.seed, args.size, root):
        runner.run(job)

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    wall_s, cpu_s = _pass_sum(walls), _pass_sum(cpus)
    trials_per_s = sum(items) / wall_s if wall_s else 0.0
    # the samples again, each scaled by the kernel's times around its run
    walls_norm, cpus_norm = ([[] for _ in jobs] for _ in range(2))
    for i, k, wall, cpu in timed:
        scale = REF_NOMINAL_S / ((refs[k] + refs[k + 1]) / 2)
        walls_norm[i].append(wall * scale)
        cpus_norm[i].append(cpu * scale)
    wall_s_norm = _pass_sum(walls_norm)
    result = {
        "setup_s": setup_s,
        "passes": n / len(jobs),
        "ref_s": statistics.median(refs),
        "ref_samples": refs,
        "job_walls": {job.out: w for job, w in zip(jobs, walls)},
        "group_wall_s": {g: _pass_sum([w for job, w in zip(jobs, walls) if job.group == g])
                         for g in dict.fromkeys(job.group for job in jobs)},
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "trials_per_s": trials_per_s,
        "wall_s_norm": wall_s_norm,
        "cpu_s_norm": _pass_sum(cpus_norm),
        "trials_per_s_norm": sum(items) / wall_s_norm if wall_s_norm else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "output_checksums": runner.checksums,
        "output_sha256": runner.digests,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
        "module": cli.__file__,
    }
    if tracer:
        overhead = _pass_sum(traced) - wall_s
        result["layers"] = tracer.layer_metrics(n // len(jobs), overhead)
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
