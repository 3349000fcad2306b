"""Byte-for-byte replay of the committed region CSVs.

Each case runs ``cli.main`` with the argv that ``scripts/goldens.py``
records for the file, into a temporary directory, and compares the result
with ``out/``.
"""

import pathlib
import runpy

import pytest

from authdist.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "out"
GOLDENS = runpy.run_path(str(ROOT / "scripts" / "goldens.py"))["GOLDENS"]
CASES = {name: argv for name, argv in GOLDENS.items() if name.endswith(".csv")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_region_csv_replays_byte_for_byte(name, tmp_path):
    path = tmp_path / name
    assert main([*CASES[name], "--out", str(path)]) == 0
    assert path.read_bytes() == (OUT / name).read_bytes()
