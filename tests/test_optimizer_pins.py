"""Bit-for-bit pins of the rate-function optimizer.

SLSQP's LAPACK calls reduce in a thread-dependent order, so the pins hold
at one BLAS thread: every pinned call runs in one subprocess with
``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``.

Pinned:
- the sha256 of the two benchmark ``optimize`` files (acceptance 02's call
  pair at De = 0.25, p = 0.2, D_r = frontier +- 1e-3, K = 7, 32 restarts,
  seed 0; the frontier is read off ``out/binary_region_p0.20.csv`` as the
  benchmark does);
- the sha256 of (value, witnesses, decoder, converged, restarts_used) for
  cheap calls with 4 restarts, one of them the infeasible sentinel;
- the SLSQP iterations and function evaluations summed over all those calls,
  which only the polish makes: the screen runs without SLSQP.

The screen and the polished starts of one call run as one task in one
forked worker with one OpenBLAS thread; the last tests check that each cheap
call runs in exactly one worker and comes out the same on one CPU as on all
of them, and with one BLAS thread as with two, and that the worker exits
when its caller is killed.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

BENCH_SHA = {
    "above": "e5b90c437e460cdf3c9fb6ef4d101198ed4a9e216ca31cb7b39b7b234830a270",
    "below": "7ef9a252b6a05a90ff0528ff82c98024257d941899e21ea70c4f992c5f1189e1",
}

# (de, dr, p, cardinality, max_iter) with restarts=4, seed=0
CHEAP = {
    "p0.05": (0.1, 0.15, 0.05, 7, 300),
    "p0.20_above": (0.25, 0.201, 0.2, 7, 300),
    "p0.20_below": (0.4, 0.15, 0.2, 7, 300),
    "k3_no_seeds": (0.2, 0.3, 0.2, 3, 300),
    "sentinel": (0.0, 0.0, 0.2, 7, 1),
}

CHEAP_SHA = {
    "p0.05": "265fc63ef397ac888866b0ea90238eee5002e7f991bfd36921bf4422aaac0830",
    "p0.20_above": "b45ade70ca37b8238ef4a8fe30950bad651f61c3eb7bd11810ddcab0fdf553b6",
    "p0.20_below": "644c551d7f5f3bd0a6c9905b6e4b061750bcbe405c55c330569cbe0639783657",
    "k3_no_seeds": "0185fa0f5c6d556ede72ea3ae1bae62b5021fc4c1a51f98ee9b3c120e74b22d7",
    "sentinel": "ab44cbaece786246c7e87152ea4c17a78fe403e2ea6b27ec5a39c36971feb654",
}

SLSQP_TOTALS = {"nit": 207, "nfev": 751}

SCRIPT = r"""
import csv, hashlib, json, pathlib, shutil, sys, tempfile
import numpy as np
from authdist import regions_binary
from authdist.cli import main

root = pathlib.Path(sys.argv[1])
cheap = json.loads(sys.argv[2])
inner = regions_binary.minimize
# one line per SLSQP call, appended to a file: calls made in forked worker
# processes inherit this wrapper and land in the same file
counts = pathlib.Path(tempfile.mkdtemp()) / "slsqp.txt"
counts.touch()

def counted(*a, **k):
    res = inner(*a, **k)
    with open(counts, "a") as fh:
        fh.write(f"{int(res.nit)} {int(res.nfev)}\n")
    return res

regions_binary.minimize = counted

with open(root / "out" / "binary_region_p0.20.csv", newline="") as fh:
    rows = [(float(r["de"]), float(r["dr"])) for r in csv.DictReader(fh)]
de = 0.025 + 9 * (0.5 - 0.025) / 19
bdr = float(np.interp(de, [x for x, _ in rows], [y for _, y in rows]))
out = {"bench": {}, "cheap": {}}
with tempfile.TemporaryDirectory() as tmp:
    for name, dr in (("above", min(0.5, bdr + 1e-3)), ("below", bdr - 1e-3)):
        path = pathlib.Path(tmp) / (name + ".json")
        argv = ["optimize", "--de", repr(de), "--dr", repr(dr), "--p", "0.2",
                "--cardinality", "7", "--restarts", "32", "--seed", "0", "--out", str(path)]
        assert main(argv) == 0
        out["bench"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
for name, (de, dr, p, k, max_iter) in cheap.items():
    res = regions_binary.optimize_rate_fn(de, dr, p, cardinality=k, restarts=4,
                                          max_iter=max_iter, seed=0)
    h = hashlib.sha256(repr(float(res.value)).encode())
    h.update(np.ascontiguousarray(res.q_u_given_s, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(res.p_x1_given_us, dtype=np.float64).tobytes())
    h.update(np.asarray(res.decoder, dtype=np.int64).tobytes())
    h.update(f"{bool(res.converged)},{int(res.restarts_used)}".encode())
    out["cheap"][name] = h.hexdigest()
calls = [line.split() for line in counts.read_text().splitlines()]
out["slsqp"] = {"nit": sum(int(n) for n, _ in calls), "nfev": sum(int(f) for _, f in calls)}
shutil.rmtree(counts.parent)
print(json.dumps(out))
"""


WORKERS_SCRIPT = r"""
import json, multiprocessing, os, pathlib, sys, tempfile
from authdist import regions_binary

cheap = json.loads(sys.argv[1])
if sys.argv[2] == "one_cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
inner = regions_binary.minimize
inner_screen = regions_binary._screen
# the pid of every screen and SLSQP call, appended to a file by the forked workers
pids = pathlib.Path(tempfile.mkdtemp()) / "pids.txt"

def record():
    with open(pids, "a") as fh:
        fh.write(f"{os.getpid()}\n")

def traced(*a, **k):
    record()
    return inner(*a, **k)

def traced_screen(*a, **k):
    record()
    return inner_screen(*a, **k)

regions_binary.minimize = traced
regions_binary._screen = traced_screen
with open("/proc/self/maps") as fh:
    openblas = any("openblas" in line for line in fh)
out = {"cpus": len(os.sched_getaffinity(0)), "openblas": openblas, "pid": os.getpid(),
       "calls": {}}
for name, (de, dr, p, k, max_iter) in cheap.items():
    pids.write_text("")
    res = regions_binary.optimize_rate_fn(de, dr, p, cardinality=k, restarts=4,
                                          max_iter=max_iter, seed=0)
    out["calls"][name] = {
        "result": [repr(float(res.value)), res.q_u_given_s.tobytes().hex(),
                   res.p_x1_given_us.tobytes().hex(), res.decoder.tolist(),
                   bool(res.converged), int(res.restarts_used)],
        "starts": [[s.kind, bool(s.feasible), repr(float(s.value)), list(s.nit),
                    list(s.nfev), s.won] for s in res.starts],
        "workers": sorted({int(pid) for pid in pids.read_text().split()}),
        "left_running": len(multiprocessing.active_children()),
    }
pids.unlink()
pids.parent.rmdir()
print(json.dumps(out))
"""


KILLED_SCRIPT = r"""
import pathlib, sys, time
from authdist import regions_binary
started = pathlib.Path(sys.argv[1])

def announced(*a, **k):
    # the screen's worker announces itself and then waits to be killed
    started.touch()
    time.sleep(600)

regions_binary._screen = announced
regions_binary.optimize_rate_fn(0.25, 0.201, 0.2, restarts=32, seed=0)
"""


def _env(blas_threads="1"):
    return {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads, "OMP_NUM_THREADS": blas_threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")]))}


def _run(script, *args, blas_threads="1"):
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=_env(blas_threads), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def pinned_run():
    return _run(SCRIPT, str(ROOT), json.dumps(CHEAP))


@pytest.mark.parametrize("name", sorted(BENCH_SHA))
def test_benchmark_optimize_output_hash(pinned_run, name):
    assert pinned_run["bench"][name] == BENCH_SHA[name]


@pytest.mark.parametrize("name", sorted(CHEAP_SHA))
def test_cheap_call_result_hash(pinned_run, name):
    assert pinned_run["cheap"][name] == CHEAP_SHA[name]


def test_slsqp_iteration_totals(pinned_run):
    assert pinned_run["slsqp"] == SLSQP_TOTALS


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_worker_count_does_not_change_the_result():
    # one worker per call, not the caller, runs every screen and SLSQP call,
    # on one CPU as on all of them, and is gone when the call returns
    one = _run(WORKERS_SCRIPT, json.dumps(CHEAP), "one_cpu")
    every = _run(WORKERS_SCRIPT, json.dumps(CHEAP), "every_cpu")
    assert one["cpus"] == 1
    for name in CHEAP:
        a, b = one["calls"][name], every["calls"][name]
        assert a["result"] == b["result"], name
        assert a["starts"] == b["starts"], name
        assert a["left_running"] == b["left_running"] == 0, name
        for run, calls in ((one, a), (every, b)):
            assert len(calls["workers"]) == 1 and run["pid"] not in calls["workers"], name


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_blas_thread_count_does_not_change_the_result():
    one = _run(WORKERS_SCRIPT, json.dumps(CHEAP), "every_cpu")
    two = _run(WORKERS_SCRIPT, json.dumps(CHEAP), "every_cpu", blas_threads="2")
    if not two["openblas"]:
        pytest.skip("the workers set the thread count of OpenBLAS only")
    for name in CHEAP:
        assert one["calls"][name]["result"] == two["calls"][name]["result"], name
        assert one["calls"][name]["starts"] == two["calls"][name]["starts"], name


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers die with their parent on Linux")
def test_workers_exit_when_the_caller_is_killed(tmp_path):
    started = tmp_path / "started"
    proc = subprocess.Popen([sys.executable, "-c", KILLED_SCRIPT, str(started)], env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.monotonic() + 120
    while not started.exists() and proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.02)
    assert started.exists() and proc.poll() is None
    proc.kill()
    # the workers inherited both pipes: they reach EOF only once every worker is gone
    proc.communicate(timeout=60)
