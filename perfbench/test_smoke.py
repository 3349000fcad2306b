"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced.  Both runs must check
out correct, report every metric BENCHMARK.json names with its unit, and
write identical outputs.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    record = ROOT / ".perfbench" / "results" / f"{workload}-seed{SEED}-tiny-trace{trace}.json"
    return {**result, "outputs": json.loads(record.read_text())["output_sha256"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    runs = {trace: _run(workload, trace) for trace in (0, 1)}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = runs[trace]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    assert runs[0]["metrics"]["wall_s_norm"]["value"] > 0
    assert runs[0]["outputs"] and runs[0]["outputs"] == runs[1]["outputs"]


def test_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regions", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
