"""The binary entropy function, scalar and vectorized.

Conventions used throughout the package: all logarithms are base 2, rates
and informations are in bits/sample, and ``0 * log2(0) == 0``: arguments
within ZERO_MASS = 1e-15 of 0 or 1 have entropy exactly 0.
"""

from __future__ import annotations

import math

import numpy as np

ZERO_MASS = 1e-15


def binary_entropy(q) -> float:
    """h(q) = -q log2 q - (1-q) log2 (1-q), with 0 log2 0 := 0."""
    q = float(q)
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {q}")
    if q <= ZERO_MASS or q >= 1.0 - ZERO_MASS:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def binary_entropy_arr(q: np.ndarray) -> np.ndarray:
    """Vectorized ``binary_entropy`` for arrays already known to lie in [0, 1]."""
    q = np.asarray(q, dtype=float)
    out = np.zeros_like(q)
    m = (q > ZERO_MASS) & (q < 1.0 - ZERO_MASS)
    qm = q[m]
    out[m] = -qm * np.log2(qm) - (1.0 - qm) * np.log2(1.0 - qm)
    return out
