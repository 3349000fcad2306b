#!/usr/bin/env python3
"""Write src/authdist/_ziggurat.py: the two tables of NumPy's ziggurat
sampler for standard normals that its fast path reads, ``wi_double`` and
``ki_double``, recovered from the installed NumPy's own ``Generator``.

NumPy's sampler takes one 64-bit output r and reads idx = r & 0xff, a sign
bit and rabs = r >> 9 (52 bits); it returns rabs * wi[idx], signed, when
rabs < ki[idx] and otherwise draws more.  A PCG64 state is crafted for each
probed output, so ``wi[idx]`` is the draw at rabs = 1 (the wedge test that
follows where ki[idx] <= 1 is made to accept) and ``ki[idx]`` the least
rabs whose draw takes a second output, found by bisection.

Usage: python scripts/ziggurat_tables.py
"""

import pathlib

import numpy as np

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "authdist" / "_ziggurat.py"
MULT = 2549297995355413924 << 64 | 4865540595714422341    # PCG64's LCG multiplier
MOD = 1 << 128
RABS = 1 << 52


def probe(rng, out: int) -> tuple[float, bool]:
    """rng's standard normal from a state whose next output is ``out`` and
    whose output after it reads 0 as a double; whether it took one output.

    An output is the XSL-RR of the stepped state, which is ``out`` itself
    for a state below 2^64; the increment sets the step after it."""
    inc = -MULT * out % MOD | 1
    state = (out - inc) * pow(MULT, -1, MOD) % MOD
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    x = rng.standard_normal()
    return x, rng.bit_generator.state["state"]["state"] == out


def tables() -> tuple[list[float], list[int]]:
    rng = np.random.Generator(np.random.PCG64(0))
    wi, ki = [], []
    for idx in range(256):
        wi.append(probe(rng, 1 << 9 | idx)[0])
        lo, hi = 0, RABS    # the fast path takes rabs < lo and refuses rabs >= hi
        while lo < hi:
            mid = (lo + hi) // 2
            if probe(rng, mid << 9 | idx)[1]:
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
    return wi, ki


def main() -> None:
    wi, ki = tables()
    rows = lambda values, per_line: "".join(
        "    " + " ".join(f"{v!r}," for v in values[i:i + per_line]) + "\n"
        for i in range(0, len(values), per_line))
    OUT.write_text(
        '"""NumPy\'s ziggurat tables for standard normals, ``wi_double`` and\n'
        "``ki_double``, as scripts/ziggurat_tables.py recovers them from NumPy's\n"
        f'Generator (numpy {np.__version__}).  Generated; do not edit."""\n\n'
        f"WI = (\n{rows(wi, 3)})\n\nKI = (\n{rows(ki, 4)})\n")


if __name__ == "__main__":
    main()
