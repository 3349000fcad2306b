"""Shared probability and entropy primitives.

Conventions used throughout the package:

- all logarithms are base 2; rates and informations are in bits/sample,
- ``0 * log2(0) == 0``; pmf entries below 1e-15 are treated as exact zeros
  in entropy sums,
- pmfs must sum to 1 within 1e-12 and are rejected (not renormalized)
  otherwise, so every number's provenance stays explicit.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import math

import numpy as np

PMF_SUM_TOL = 1e-12
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


def bsc_convolve(a, b) -> float:
    """Crossover probability of two cascaded BSCs: a(1-b) + (1-a)b."""
    a, b = float(a), float(b)
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"bsc_convolve arguments must be in [0, 1], got {(a, b)}")
    return a * (1.0 - b) + (1.0 - a) * b


def entropy(pmf) -> float:
    """Shannon entropy (bits) of a pmf given as an array of any shape."""
    p = np.asarray(pmf, dtype=float).ravel()
    if (p < 0).any() or abs(p.sum() - 1.0) > PMF_SUM_TOL:
        raise ValueError("entropy argument must be a valid pmf")
    m = p > ZERO_MASS
    return float(-(p[m] * np.log2(p[m])).sum())


def mutual_information(joint) -> float:
    """I(A;B) in bits for a joint pmf table over a 2-D product alphabet.

    The table must be non-empty, finite, nonnegative and sum to 1 within
    ``PMF_SUM_TOL``.  Always >= 0 up to float rounding.
    """
    t = np.asarray(joint, dtype=float)
    if t.ndim != 2 or t.size == 0:
        raise ValueError("mutual_information expects a non-empty joint pmf over two axes")
    if (t < 0).any() or not np.isfinite(t).all():
        raise ValueError("pmf entries must be finite and >= 0")
    s = float(t.sum())
    if abs(s - 1.0) > PMF_SUM_TOL:
        raise ValueError(f"pmf entries sum to {s!r}, not 1 within {PMF_SUM_TOL}")
    pa = t.sum(axis=1, keepdims=True)
    pb = t.sum(axis=0, keepdims=True)
    m = t > ZERO_MASS
    val = float((t[m] * np.log2(t[m] / (pa @ pb)[m])).sum())
    return max(val, 0.0)

