from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from authdist.core import ZERO_MASS, binary_entropy

# The BSC cascade, entropy and mutual information below are oracles of the
# test suite (tests/test_regions_binary.py imports them too); pmfs must sum
# to 1 within PMF_SUM_TOL and are rejected, not renormalized.
PMF_SUM_TOL = 1e-12


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


# mpmath, 40 digits: h(1/5) = 0.721928094887362347870319429489...
H_02 = 0.7219280948873623


def test_binary_entropy_degenerate_and_uniform():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_high_precision_point():
    assert binary_entropy(0.2) == pytest.approx(H_02, abs=1e-14)


@pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
def test_binary_entropy_domain(bad):
    with pytest.raises(ValueError):
        binary_entropy(bad)


def test_binary_entropy_concave_symmetric_max():
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    h = np.array([binary_entropy(q) for q in grid])
    assert h.max() == pytest.approx(1.0, abs=1e-12)
    assert grid[h.argmax()] == pytest.approx(0.5, abs=1e-3)
    # symmetry about 1/2
    assert np.allclose(h, h[::-1], atol=1e-12)
    # midpoint concavity on the grid
    mid = 0.5 * (h[:-2] + h[2:])
    assert (h[1:-1] >= mid - 1e-12).all()


def test_bsc_convolve_examples():
    assert bsc_convolve(0.3, 0.0) == pytest.approx(0.3)
    assert bsc_convolve(0.5, 0.37) == pytest.approx(0.5)
    exact = Fraction(1, 5) * Fraction(19, 20) + Fraction(4, 5) * Fraction(1, 20)
    assert exact == Fraction(23, 100)
    assert bsc_convolve(0.2, 0.05) == pytest.approx(float(exact), abs=1e-15)


@given(st.floats(0, 1), st.floats(0, 1))
def test_bsc_convolve_symmetric_and_absorbing(a, b):
    assert bsc_convolve(a, b) == pytest.approx(bsc_convolve(b, a), abs=1e-12)
    assert bsc_convolve(a, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_bsc_convolve_domain():
    with pytest.raises(ValueError):
        bsc_convolve(-0.1, 0.2)
    with pytest.raises(ValueError):
        bsc_convolve(0.2, 1.5)


def test_mutual_information_product_is_zero():
    pa = np.array([0.3, 0.7])
    pb = np.array([0.1, 0.5, 0.4])
    assert mutual_information(np.outer(pa, pb)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_identity_coupling():
    assert mutual_information(np.array([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(1.0)


def test_mutual_information_bsc_point():
    p = 0.2
    joint = np.array([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])
    assert mutual_information(joint) == pytest.approx(1.0 - H_02, abs=1e-12)


def test_mutual_information_entropy_identity():
    rng = np.random.default_rng(42)
    for _ in range(50):
        t = rng.dirichlet(np.ones(12)).reshape(3, 4)
        ha = entropy(t.sum(axis=1))
        hb = entropy(t.sum(axis=0))
        hab = entropy(t)
        assert mutual_information(t) == pytest.approx(ha + hb - hab, abs=1e-10)
        assert mutual_information(t) >= 0.0


def test_joint_pmf_validation():
    # mutual_information refuses a table that is not a joint pmf over two axes
    for bad in (
        np.array([[0.6, 0.5]]),                      # sums over 1
        np.array([[1.2, -0.2]]),                     # negative mass
        np.array([[0.5, np.nan], [0.25, 0.25]]),     # NaN
        np.array([0.5, 0.5]),                        # one axis
        np.full((2, 2, 2), 0.125),                   # three axes
    ):
        with pytest.raises(ValueError):
            mutual_information(bad)
