"""Byte-for-byte replay of the committed region CSVs.

Each case runs ``cli.main`` with the exact argv of the script in
``scripts/`` that wrote the file, into a temporary directory, and compares
the result with ``out/``.
"""

import pathlib

import pytest

from authdist.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"

CASES = {
    **{
        f"binary_region_p{p:.2f}.csv": ["region-binary", "--p", str(p), "--resolution", "500"]
        for p in (0.05, 0.10, 0.15, 0.20)
    },
    "gaussian_bounds.csv": ["region-gaussian", "--snr-db", "-10", "--snr-db", "0",
                            "--snr-db", "10", "--snr-db", "30", "--resolution", "200"],
    "layered_slices.csv": ["region-layered", "--snr-db", "30", "--sigma-v-db", "10",
                           *[a for de_db in (10, 5, 0, -5, -10) for a in ("--de-db", str(de_db))],
                           "--resolution", "80"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_region_csv_replays_byte_for_byte(name, tmp_path):
    path = tmp_path / name
    assert main([*CASES[name], "--out", str(path)]) == 0
    assert path.read_bytes() == (OUT / name).read_bytes()
