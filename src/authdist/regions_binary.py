"""Achievable distortion region for the binary-Hamming scenario.

The region is generated by a three-parameter family of auxiliary variables:
with probability ``alpha`` the source bit is quantized through a BSC(tau)
and the channel input equals the auxiliary symbol; with probability
``1 - alpha`` the source is sent uncoded and the auxiliary symbol is the
source passed through a BSC(nu) (flagged on a disjoint alphabet).  The
resulting distortions and information quantities are

    D_e = alpha * tau
    D_r = alpha * tau + (1 - alpha) * nu
    I(U;Y) - I(U;S) = alpha * [h(tau) - h(p)]
                      + (1 - alpha) * [h(nu) - h(p * nu)]

where ``h`` is the binary entropy, ``p`` the reference crossover and
``*`` the BSC convolution.  A pair is achievable iff the gap is >= 0 for
some admissible parameters within the distortion budgets.

Also provides the quantize-and-embed baseline (source coding + information
embedding) and a numerical estimate of the underlying rate function over a
general auxiliary alphabet, used to confirm the parametric region.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .core import binary_entropy, binary_entropy_arr

GRID_EPS = 1e-4          # open-interval clamp for tau, nu grids
NTAU = NNU = 200         # tau and nu values of the (tau, nu) grid
FEAS_TOL = 1e-9          # mutual-information feasibility tolerance
NEAR_ONE = 8 * 2.0 ** -53  # boundary's full-scan bound on (1 - a_max) * nu step
CANDIDATE_CHUNK = 32     # grid points per block of boundary's candidate evaluation
# largest auxiliary alphabet optimize_rate_fn takes.  At 32 symbols (one BLAS
# thread, 2-core host) the screen of 34 starts took 0.10-0.15 s and a polish
# 0.01-0.13 s, while one SLSQP run to 1e-12 from a random start took 3.6-8.6 s;
# such a run took 38 s at 64 symbols and over 120 s at 128
MAX_CARDINALITY = 32
# optimize_rate_fn screens every start by augmented-Lagrangian ascent
# (_screen): SCREEN_ROUNDS multiplier updates, SCREEN_STEPS steps apart, at
# penalty weight SCREEN_RHO and first step size SCREEN_ETA, then polishes the
# POLISH_COUNT best feasible ends through SLSQP to POLISH_FTOL.  Against
# screening through SLSQP at ftol 1e-6, acceptance 02's 40 calls fell short by
# at most 2.3e-12 (4.6e-10 at seed 1, 6.6e-11 at p = 0.1).  With a penalty
# weight of 50 or 200, a first step of 0.01 or 1, 10 rounds or 10 steps a round
# they fell short by at most 7.2e-9; without the 1e-3 floor under p(u,s), by
# 9.8e-7 at p = 0.1.
SCREEN_ROUNDS = 15
SCREEN_STEPS = 20
SCREEN_RHO = 100.0
SCREEN_ETA = 0.1
SCREEN_FLOOR = 1e-3
SCREEN_SNAP = 1e-3
SCREEN_GAIN_TOL = 1e-9
POLISH_FTOL = 1e-12
POLISH_COUNT = 4
MAX_ITER = 300           # bound on the screen's steps and on each SLSQP run's iterations
AGREE_TOL = 1e-9
LN2 = math.log(2.0)


def minimize(*args, **kwargs):
    """scipy's ``minimize``, imported when called, so that only
    ``optimize_rate_fn`` pays for scipy.optimize."""
    from scipy import optimize
    return optimize.minimize(*args, **kwargs)


@dataclass(frozen=True)
class BinaryAuxParams:
    """Mixing probability and the two flip rates of the auxiliary family."""

    alpha: float
    tau: float
    nu: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (0.0 < self.tau < 0.5):
            raise ValueError(f"tau must be in (0, 1/2), got {self.tau}")
        if not (0.0 < self.nu < 0.5):
            raise ValueError(f"nu must be in (0, 1/2), got {self.nu}")


@dataclass(frozen=True)
class RegionCurve:
    """Distortion frontier sampled on a D_e grid.

    ``de`` is strictly increasing, ``dr`` non-increasing, all values in
    [0, 1/2].  ``witnesses[i]`` is the parameter triple achieving point i,
    or None where the grid point is infeasible (D_r pinned at 1/2).
    """

    de: np.ndarray
    dr: np.ndarray
    witnesses: tuple = field(default=None, repr=False)

    def __post_init__(self):
        de = np.asarray(self.de, dtype=float)
        dr = np.asarray(self.dr, dtype=float)
        if de.shape != dr.shape or de.ndim != 1 or de.size < 2:
            raise ValueError("curve needs matching 1-D de/dr arrays, >= 2 points")
        if not (np.isfinite(de).all() and np.isfinite(dr).all()):
            raise ValueError("curve coordinates must be finite")
        if not (np.diff(de) > 0).all():
            raise ValueError("de grid must be strictly increasing")
        if (np.diff(dr) > 1e-12).any():
            raise ValueError("dr must be non-increasing along the curve")
        if de.min() < -1e-12 or de.max() > 0.5 + 1e-12 or dr.min() < -1e-12 or dr.max() > 0.5 + 1e-12:
            raise ValueError("curve coordinates must lie in [0, 1/2]")
        de.setflags(write=False)
        dr.setflags(write=False)
        object.__setattr__(self, "de", de)
        object.__setattr__(self, "dr", dr)

    def dr_at(self, de: float) -> float:
        """Piecewise-linear interpolation of the frontier."""
        return float(np.interp(de, self.de, self.dr))


def _de_grid(p: float, resolution: int) -> np.ndarray:
    """The D_e grid of a frontier on [0, 1/2], after checking p and resolution."""
    if not (0.0 <= p <= 0.5):
        raise ValueError(f"crossover must be in [0, 1/2], got {p}")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    return np.linspace(0.0, 0.5, resolution)


def _tau_nu_table(p: float) -> tuple[np.ndarray, ...]:
    """(T, V, B1, B2) over the NTAU x NNU grid, indexed [tau, nu]: the flip
    rates and the coded and uncoded gap brackets (the uncoded one <= 0)."""
    tau = np.linspace(GRID_EPS, 0.5 - GRID_EPS, NTAU)
    if 0.0 < p < 0.5:
        # the flat part of the frontier needs tau == p exactly
        tau = np.unique(np.append(tau, p))
    nu = np.linspace(GRID_EPS, 0.5 - GRID_EPS, NNU)
    b1 = binary_entropy_arr(tau) - binary_entropy(p)
    b2 = binary_entropy_arr(nu) - binary_entropy_arr(p + nu - 2 * p * nu)
    return (*np.meshgrid(tau, nu, indexing="ij"), *np.meshgrid(b1, b2, indexing="ij"))


def _alpha_floor(p: float) -> tuple[np.ndarray, ...]:
    """(T, V, a_min) over the (tau, nu) grid: the flip rates and each cell's
    smallest alpha with rate gap alpha B1 + (1 - alpha) B2 >= 0, inf where
    no alpha in [0, 1] reaches it."""
    T, V, B1, B2 = _tau_nu_table(p)
    span = B1 - B2
    with np.errstate(divide="ignore", invalid="ignore"):
        a_min = np.where(span > 0, -B2 / span, np.where(B2 >= -FEAS_TOL, 0.0, np.inf))
    return T, V, np.clip(a_min, 0.0, np.inf)


def _alpha_limit(de, tau):
    """min(1, D_e / tau), the largest alpha within the encoding budget."""
    with np.errstate(over="ignore"):     # a subnormal tau = p
        return np.minimum(1.0, de / tau)


def _scan(a_max: np.ndarray, a_min: np.ndarray, V: np.ndarray, slope: np.ndarray,
          dr_lo: np.ndarray) -> tuple[float, int]:
    """The whole (tau, nu) table at one grid D_e, given the alpha limit of
    each tau row as a column: D_r and flat index of the best cell, ties to
    the first in (tau, nu) order, with infeasible cells at D_r = 1/2."""
    dr_cell = np.where(a_min <= a_max + 1e-15, np.minimum(dr_lo, V + a_max * slope), 0.5)
    j = int(np.argmin(dr_cell))
    return float(dr_cell.flat[j]), j


def boundary(p: float, resolution: int = 500) -> RegionCurve:
    """Lower frontier D_r(D_e) of the achievable region on a D_e grid.

    For each grid D_e, minimizes D_r over all parameter triples with
    ``alpha * tau <= D_e`` (the encoding budget) and rate gap >= 0.  For a
    fixed (tau, nu) cell the gap is linear in alpha, so feasibility reduces
    to an alpha interval [a_min, a_max], a_max = min(1, D_e / tau), and
    D_r = nu + alpha (tau - nu), linear too, is least at one of its ends.
    The frontier point is the least such D_r over the (tau, nu) grid, ties
    to the first cell in (tau, nu) order.  Infeasible grid points report
    D_r = 1/2, which is always achievable by ignoring the channel output.

    Rather than scan the whole table at every grid point (``_scan``), the
    search evaluates one candidate cell per tau row plus one, with the
    scan's expressions, so curve and witnesses are bit for bit the scan's.
    a_max does not decrease along the grid, so a cell stays feasible from
    the grid index one ``searchsorted`` per row finds.  Cells with
    tau >= nu give their a_min end, which does not depend on D_e: the
    first feasible one in (D_r, cell) order is the candidate.  Cells with
    tau < nu give their a_max end, which rises with nu while a_max < 1:
    a row's candidate is its smallest-nu feasible cell, or, at a_max = 1,
    its best cell, found once.

    A grid point runs the full scan where that order may fail: where a row
    has a_max < 1 and (1 - a_max) * dnu <= NEAR_ONE, dnu the nu step (each
    computed D_r in (0, 1/2) is within 1.5 * 2^-53 of the exact one), and
    where a cell is feasible through the 1e-15 slack alone
    (a_max < a_min <= a_max + 1e-15).  Both occur: at a grid D_e less than
    1e-15 * p below p, the tau = p row has a_min = 1 and a_max just below
    1.  The witness alpha of a slack cell at a_max = 1, up to 1 + 1e-15, is
    reported as 1.
    """
    de_grid = _de_grid(p, resolution)
    if p == 0.0:
        # Digital-signature corner: gap = alpha h(tau) >= 0 always, and the
        # open-interval infimum nu -> 0 gives D_r -> 0 at every budget.
        dr = np.zeros_like(de_grid)
        wit = tuple(BinaryAuxParams(0.0, 0.25, GRID_EPS) for _ in de_grid)
        return RegionCurve(de_grid, dr, wit)

    T, V, a_min = _alpha_floor(p)
    slope = T - V
    with np.errstate(invalid="ignore"):
        # the a_min end of D_r (nan or inf only where a_min is inf, a cell
        # no budget makes feasible)
        dr_lo = V + a_min * slope
    rows, cols = T.shape
    none = rows * cols                        # flat index standing for "no cell"
    tau = T[:, :1]
    steps = np.arange(resolution)
    down = slope < 0

    # grid index from which each cell is feasible (resolution if never)
    first = np.empty(T.shape, dtype=np.intp)
    for r in range(rows):
        first[r] = np.searchsorted(_alpha_limit(de_grid, tau[r]) + 1e-15, a_min[r])
    # the grid points where the ordering may fail: cells feasible through
    # the slack alone, until a_max reaches a_min, and rows just below 1
    fallback = np.zeros(resolution, dtype=bool)
    slack = _alpha_limit(de_grid[np.minimum(first, resolution - 1)], tau) < a_min
    for r, n in zip(*np.nonzero(slack & (first < resolution))):
        fallback[first[r, n]:np.searchsorted(_alpha_limit(de_grid, tau[r]), a_min[r, n])] = True
    near_one = 1.0 - NEAR_ONE / np.diff(V[0]).min(initial=np.inf)

    # tau >= nu: the first cell in (D_r, cell) order feasible at each grid index
    level = np.flatnonzero(~down & (first < resolution))
    level = level[np.argsort(dr_lo.flat[level], kind="stable")]
    pos = np.searchsorted(-np.minimum.accumulate(first.flat[level]), -steps)
    level_best = np.append(level, none)[pos]
    level_dr = np.append(dr_lo.flat[level], np.inf)[pos]
    # tau < nu: per row, the flat index of the best cell at a_max = 1
    # (where V + slope is the scan's V + a_max * slope), and per row and
    # grid index, that of the smallest-nu feasible cell
    fixed = np.where(down & (a_min <= 1.0 + 1e-15), np.minimum(dr_lo, V + slope), np.inf)
    fixed_best = np.where(fixed.min(axis=1) < np.inf,
                          np.arange(rows) * cols + fixed.argmin(axis=1), none)
    rising = np.full((rows, resolution + 1), none)
    cell = np.flatnonzero(down)
    np.minimum.at(rising, (cell // cols, first.flat[cell]), cell)
    np.minimum.accumulate(rising, axis=1, out=rising)

    best = np.empty(resolution)
    win = np.empty(resolution, dtype=np.intp)
    for s in range(0, resolution, CANDIDATE_CHUNK):
        i = steps[s:s + CANDIDATE_CHUNK]
        a_max = _alpha_limit(de_grid[i], tau)
        fallback[i] |= ((a_max < 1.0) & (a_max >= near_one)).any(axis=0)
        c = np.where(a_max < 1.0, rising[:, i], fixed_best[:, None])
        k = np.minimum(c, none - 1)
        dr_c = np.where(c < none, np.minimum(dr_lo.flat[k], V.flat[k] + a_max * slope.flat[k]),
                        np.inf)
        dr_c = np.vstack([dr_c, level_dr[i]])
        best[i] = dr_c.min(axis=0)
        win[i] = np.where(dr_c == best[i], np.vstack([c, level_best[i]]), none).min(axis=0)
    for i in np.flatnonzero(fallback):
        best[i], win[i] = _scan(_alpha_limit(de_grid[i], tau), a_min, V, slope, dr_lo)

    ok = np.flatnonzero(best < 0.5)
    j = win[ok]
    a_max = _alpha_limit(de_grid[ok], tau[j // cols, 0])
    alpha = np.where(dr_lo.flat[j] <= V.flat[j] + a_max * slope.flat[j], a_min.flat[j], a_max)
    wit_out: list[BinaryAuxParams | None] = [None] * resolution
    for i, jj, a in zip(ok, j, np.minimum(alpha, 1.0)):
        wit_out[i] = BinaryAuxParams(float(a), float(T.flat[jj]), float(V.flat[jj]))
    # budget is a <=, frontier is monotone
    dr_out = np.minimum.accumulate(np.where(best < 0.5, best, 0.5))
    return RegionCurve(de_grid, dr_out, tuple(wit_out))


def embedding_capacity(de: float, p: float) -> float:
    """Information-embedding capacity C(D_e) for the BSC host at crossover p.

    Upper concave envelope of h(D_e) - h(p) on [p, 1/2]: linear through
    the origin up to the breakpoint D_p = 1 - 2^(-h(p)), then the curve
    itself.
    """
    if not (0.0 <= de <= 0.5):
        raise ValueError(f"De must be in [0, 1/2], got {de}")
    if not (0.0 <= p <= 0.5):
        raise ValueError(f"crossover must be in [0, 1/2], got {p}")
    hp = binary_entropy(p)
    dp = 1.0 - 2.0 ** (-hp)
    if 0.0 < de <= dp:
        slope = (binary_entropy(dp) - hp) / dp
        return max(slope * de, 0.0)
    return max(binary_entropy(de) - hp, 0.0)


def _inv_entropy(target: float) -> float:
    """h^{-1}(target) on [0, 1/2] by bisection (h is increasing there).

    The bisection stops at the first step that leaves the bracket unchanged,
    since every later step would repeat it; for targets near 0 that takes
    more than the 80 steps a fixed count used to allow.

    ``binary_entropy`` is 0 at or below ``core.ZERO_MASS`` = 1e-15, so every
    target in (0, 5.1e-14], below the entropy of the next float above 1e-15,
    returns 1e-15.  No caller reaches them: ``qe_boundary``'s targets
    1 - C(D_e) are far larger.
    """
    lo, hi = 0.0, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < target:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)


def qe_boundary(p: float, resolution: int = 500) -> RegionCurve:
    """Quantize-and-embed frontier: solve 1 - h(D_r) = C(D_e) per grid D_e.

    The left side is the rate needed to describe the source at distortion
    D_r; the right is what the watermark can carry.  Zero capacity pins
    D_r = 1/2.
    """
    de_grid = _de_grid(p, resolution)
    dr = np.empty_like(de_grid)
    for i, de in enumerate(de_grid):
        cap = embedding_capacity(float(de), p)
        if cap <= 0.0:
            dr[i] = 0.5
        else:
            dr[i] = _inv_entropy(1.0 - cap)
    dr = np.minimum.accumulate(dr)
    return RegionCurve(de_grid, dr)


# ---------------------------------------------------------------------------
# Rate-function estimate over a general auxiliary alphabet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StartRecord:
    """How one start of ``optimize_rate_fn`` ended.

    ``kind`` is "family" (best member of the parametric family), "capacity"
    (the capacity-achieving quantizer) or "random"; ``value`` and
    ``feasible`` describe the point the start keeps: the best feasible one
    among its screened end, its polished end if it was polished and, for a
    parametric seed, its own start point; with none feasible, the screened
    end.  ``nit`` and ``nfev`` hold one entry for the screen (its accepted
    steps and objective evaluations) and then, if the start was polished,
    SLSQP's iterations and function evaluations for each decoder
    alternation; ``seconds`` is the start's wall time in the worker
    process, its share of the screen plus its polish; ``won`` marks the
    start whose point is reported; ``polished`` marks the starts SLSQP ran.
    """

    kind: str
    feasible: bool
    value: float
    nit: tuple[int, ...]
    nfev: tuple[int, ...]
    seconds: float
    won: bool
    polished: bool


@dataclass(frozen=True)
class RateFnResult:
    """Best rate-gap found, its witness distributions, and convergence info."""

    value: float
    q_u_given_s: np.ndarray      # (2, K) rows on the simplex
    p_x1_given_us: np.ndarray    # (K, 2) Bernoulli parameters for X = 1
    decoder: np.ndarray          # (K,) hard reconstruction per auxiliary symbol
    converged: bool
    restarts_used: int
    starts: tuple[StartRecord, ...] = field(repr=False)   # one record per start


def _xlog(a: np.ndarray) -> np.ndarray:
    return np.where(a > 1e-15, np.log2(np.maximum(a, 1e-300)), 0.0)


def _gap_value_grad(z: np.ndarray, K: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Objective I(U;Y) - I(S;U) and its gradient wrt the packed variables,
    for each row of the (B, 4K) array ``z``.  Each row's numbers depend on
    that row alone: the passes are elementwise or reduce within a row.

    The two sums over the length-2 ``s`` axis, p(u) and the (U, Y) joint's
    y = 1 column, are written out as one ``np.add`` of the two slices:
    numpy reduces two terms as exactly that sum, in a costlier call.  The
    sums over ``u`` stay numpy's reductions in their layouts, which fix
    their summation order (pairwise from K = 8 on a contiguous axis)."""
    B = len(z)
    q = np.maximum(z[:, : 2 * K].reshape(B, 2, K), 1e-15)
    r = z[:, 2 * K:].reshape(B, K, 2)
    w1 = p + r * (1.0 - 2.0 * p)                      # P(Y=1 | u, s)
    # the two joints and three marginals share one buffer, so one pass takes
    # all the logs: [jus | juy | pu | ps | py] per row.  jus is a transposed
    # view of 0.5 * q, which fixes the summation order of i_su.
    buf = np.empty((B, 5 * K + 4))
    jus = np.multiply(0.5, q, out=buf[:, : 2 * K].reshape(B, 2, K)).transpose(0, 2, 1)
    juy = buf[:, 2 * K: 4 * K].reshape(B, K, 2)                     # joint of (U, Y)
    pu, ps, py = buf[:, 4 * K: 5 * K], buf[:, 5 * K: 5 * K + 2], buf[:, 5 * K + 2:]
    np.add(buf[:, :K], buf[:, K: 2 * K], out=pu)
    jw = jus * w1
    np.add(jw[:, :, 0], jw[:, :, 1], out=juy[:, :, 1])
    np.subtract(pu, juy[:, :, 1], out=juy[:, :, 0])
    jus.sum(axis=1, out=ps)
    juy.sum(axis=1, out=py)

    lg = _xlog(buf)
    l_pu = lg[:, 4 * K: 5 * K, None]
    l_su = lg[:, : 2 * K].reshape(B, 2, K).transpose(0, 2, 1) - l_pu - lg[:, None, 5 * K: 5 * K + 2]
    l_uy = lg[:, 2 * K: 4 * K].reshape(B, K, 2) - l_pu - lg[:, None, 5 * K + 2:]
    i_su = (jus * l_su).sum(axis=(1, 2))
    i_uy = (juy * l_uy).sum(axis=(1, 2))

    # exact unconstrained gradients: all three marginals vary with the joint
    g_su = l_su - 1.0 / LN2
    g_uy = l_uy - 1.0 / LN2

    grad = np.empty((B, 4 * K))
    grad[:, : 2 * K].reshape(B, 2, K).transpose(0, 2, 1)[...] = 0.5 * (
        g_uy[:, :, :1] * (1.0 - w1) + g_uy[:, :, 1:] * w1 - g_su)
    np.multiply((g_uy[:, :, 1] - g_uy[:, :, 0])[:, :, None] * jus, 1.0 - 2.0 * p,
                out=grad[:, 2 * K:].reshape(B, K, 2))
    return i_uy - i_su, grad


def _de_value_grad(z: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """E[d_e] and its gradient for each row of the (B, 4K) array ``z``."""
    B = len(z)
    q = z[:, : 2 * K].reshape(B, 2, K)
    r = z[:, 2 * K:].reshape(B, K, 2)
    grad = np.empty((B, 4 * K))
    d_q = grad[:, : 2 * K].reshape(B, 2, K)
    np.multiply(0.5, r[:, :, 0], out=d_q[:, 0])
    np.subtract(0.5, 0.5 * r[:, :, 1], out=d_q[:, 1])
    d_r = grad[:, 2 * K:].reshape(B, K, 2)
    np.multiply(0.5, q[:, 0], out=d_r[:, :, 0])
    np.multiply(-0.5, q[:, 1], out=d_r[:, :, 1])
    return (q * d_q).sum(axis=(1, 2)), grad


def _misses(g: np.ndarray) -> np.ndarray:
    """(..., 2, K) mask of the symbols whose hard decoder g (..., K) misses s."""
    return g[..., None, :] != np.arange(2)[:, None]


def _dr_value_grad(z: np.ndarray, K: int, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[d_r] and its gradient for each row of the (B, 4K) array ``z`` under
    the hard decoders ``g`` (B, K)."""
    B = len(z)
    grad = np.zeros((B, 4 * K))
    grad[:, : 2 * K] = 0.5 * _misses(g).reshape(B, 2 * K)
    return (z[:, : 2 * K] * grad[:, : 2 * K]).sum(axis=1), grad


def _budget_constraint(de: float, dr: float, K: int, g: np.ndarray) -> dict:
    """Both distortion budgets as one SLSQP inequality, for a fixed hard
    decoder g: values de - E[d_e] and dr - E[d_r].  E[d_r] is linear for a
    fixed g, so its miss indices and Jacobian row are built once."""
    miss = np.flatnonzero(_misses(g))
    jac = np.empty((2, 4 * K))
    jac[1] = -_dr_value_grad(np.zeros((1, 4 * K)), K, g[None])[1][0]

    def fun(zz):
        return np.array([de - _de_value_grad(zz[None], K)[0][0], dr - 0.5 * float(zz[miss].sum())])

    def jacobian(zz):
        # SLSQP copies the rows into its own matrix, so one array serves
        jac[0] = -_de_value_grad(zz[None], K)[1][0]
        return jac

    return {"type": "ineq", "fun": fun, "jac": jacobian}


def _best_decoder(q: np.ndarray) -> np.ndarray:
    """The minimum-distortion estimate of S from each symbol: 1 where
    q(u|1) > q(u|0), for q of shape (..., 2, K)."""
    return (q[..., 1, :] > q[..., 0, :]).astype(int)


def _checked(z: np.ndarray, de: float, dr: float, K: int,
             p: float) -> list[tuple[bool, float, np.ndarray, np.ndarray]]:
    """Feasibility within both budgets (up to ``FEAS_TOL``), rate gap,
    clipped variables and their best hard decoder, one tuple for each row of
    the (B, 4K) array ``z`` once q is clipped to >= 0 and normalized and r
    clipped to [0, 1]."""
    B = len(z)
    q = np.clip(z[:, : 2 * K].reshape(B, 2, K), 0.0, None)
    q = q / q.sum(axis=2, keepdims=True)
    zz = np.concatenate([q.reshape(B, 2 * K), np.clip(z[:, 2 * K:], 0.0, 1.0)], axis=1)
    g = _best_decoder(q)
    feasible = ((_de_value_grad(zz, K)[0] <= de + FEAS_TOL)
                & (_dr_value_grad(zz, K, g)[0] <= dr + FEAS_TOL))
    val = _gap_value_grad(zz, K, p)[0]
    return [(bool(f), float(v), row, gb) for f, v, row, gb in zip(feasible, val, zz, g)]


def params_to_joint(params: BinaryAuxParams, K: int) -> np.ndarray:
    """Embed the parametric witness into the packed optimizer variables."""
    if K < 4:
        raise ValueError("parametric embedding needs at least 4 auxiliary symbols")
    a, t, v = params.alpha, params.tau, params.nu
    q = np.zeros((2, K))
    r = np.full((K, 2), 0.5)
    for s in (0, 1):
        q[s, s] += a * (1.0 - t)
        q[s, 1 - s] += a * t
        q[s, 2 + s] += (1.0 - a) * (1.0 - v)
        q[s, 2 + (1 - s)] += (1.0 - a) * v
    r[0, :] = 0.0   # coded symbols transmit the symbol itself
    r[1, :] = 1.0
    r[2] = [0.0, 1.0]   # uncoded symbols transmit the source
    r[3] = [0.0, 1.0]
    q = q / q.sum(axis=1, keepdims=True)
    return np.concatenate([q.reshape(-1), r.reshape(-1)])


def best_family_member(de: float, dr: float, p: float) -> BinaryAuxParams | None:
    """Family member maximizing the rate gap within both distortion budgets,
    over the (tau, nu) grid of ``boundary``.

    For a fixed (tau, nu) cell the gap is increasing in alpha (the coded
    bracket dominates the uncoded one), so the cell optimum sits at the
    largest alpha the budgets allow; the best cell wins.
    """
    if p == 0.0:
        return BinaryAuxParams(min(1.0, de / 0.25), 0.25, GRID_EPS)
    T, V, B1, B2 = _tau_nu_table(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_dr = np.where(T > V, (dr - V) / (T - V), np.inf)
        # cells where the uncoded branch alone busts the reconstruction
        # budget need alpha large enough, which may contradict the encoding
        # budget
        a_lo = np.where(V > dr, np.where(T < V, (V - dr) / (V - T), np.inf), 0.0)
    a_hi = np.minimum(_alpha_limit(de, T), a_dr)
    feasible = (a_hi >= 0.0) & (a_lo <= np.minimum(a_hi, 1.0) + 1e-15)
    if not feasible.any():
        return None
    # the gap is linear in alpha, so the cell optimum is at an interval end
    lo = np.clip(a_lo, 0.0, 1.0)
    hi = np.clip(a_hi, 0.0, 1.0)
    gap_lo = lo * B1 + (1.0 - lo) * B2
    gap_hi = hi * B1 + (1.0 - hi) * B2
    a = np.where(gap_hi >= gap_lo, hi, lo)
    gap = np.where(feasible, np.maximum(gap_lo, gap_hi), -np.inf)
    j = np.unravel_index(np.argmax(gap), gap.shape)
    return BinaryAuxParams(float(a[j]), float(T[j]), float(V[j]))


def _boundary_seed(de: float, dr: float, p: float, K: int) -> list[tuple[str, np.ndarray]]:
    """Parametric seeds as (kind, packed variables): the best family member
    within the (de, dr) budgets, and the capacity-achieving quantizer
    (alpha = 1, tau = p) when both budgets allow it."""
    seeds = []
    best = best_family_member(de, dr, p)
    if best is not None:
        seeds.append(("family", params_to_joint(best, K)))
    if 0.0 < p < 0.5 and p <= de + 1e-12 and p <= dr + 1e-12:
        seeds.append(("capacity", params_to_joint(BinaryAuxParams(1.0, p, 0.25), K)))
    return seeds


def _init_worker(parent: int) -> None:
    """Pool initializer: have Linux kill the worker when its parent dies, and
    run every OpenBLAS the process has loaded on one thread.

    A worker whose parent is killed mid-call would otherwise wait on the task
    queue for ever, holding open every pipe it inherited from the parent.
    SLSQP's small BLAS calls gain nothing from more threads, whose waits
    spin, and one thread makes the result independent of the BLAS thread
    count the process started with."""
    import ctypes
    import signal

    ctypes.CDLL(None).prctl(1, signal.SIGKILL)   # 1 = PR_SET_PDEATHSIG
    if os.getppid() != parent:                   # the parent died before that
        os._exit(1)
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        # the names of a plain build and of the scipy-openblas wheels
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            if hasattr(lib, name):
                getattr(lib, name)(1)


def _snap(z: np.ndarray, de: float, dr: float, K: int) -> np.ndarray:
    """The rows of the (B, 4K) array ``z`` that exceed a budget by at most
    ``SCREEN_SNAP``, pulled onto it: q(.|s) is mixed with its own mass on the
    symbols its best decoder maps to s, which scales E[d_r] down and keeps
    that decoder, then p(x=1|u,s) is mixed with x = s, which scales E[d_e]
    down and leaves q alone."""
    B = len(z)
    q = z[:, : 2 * K].reshape(B, 2, K)
    g = _best_decoder(q)
    d_r = _dr_value_grad(z, K, g)[0]
    hit = np.where(_misses(g), 0.0, q)
    mass = hit.sum(axis=2, keepdims=True)
    over = (d_r > dr) & (d_r <= dr + SCREEN_SNAP) & (mass > 0.0).all(axis=(1, 2))
    t = np.where(over, 1.0 - dr / np.where(over, d_r, 1.0), 0.0)[:, None, None]
    z = np.concatenate([((1.0 - t) * q + t * hit / np.maximum(mass, 1e-300)).reshape(B, 2 * K),
                        z[:, 2 * K:]], axis=1)
    d_e = _de_value_grad(z, K)[0]
    over = (d_e > de) & (d_e <= de + SCREEN_SNAP)
    keep = (de / np.where(over, d_e, 1.0))[:, None]
    s = np.tile(np.arange(2.0), K)          # x = s for each (u, s)
    r = z[:, 2 * K:]
    z[:, 2 * K:] = np.where(over[:, None], s + keep * (r - s), r)
    return z


def _screen(de: float, dr: float, p: float, K: int, z0s) -> list[tuple]:
    """The screen of ``optimize_rate_fn``: every start advanced at once, as
    one (B, 4K) array, by augmented-Lagrangian ascent on both budgets.

    A step moves each row of q(u|s) by an exponentiated-gradient step and
    p(x=1|u,s) by a gradient step scaled by 1 / p(u,s) (floored at
    ``SCREEN_FLOOR``) and clipped to [0, 1].  A start keeps the step only if
    it raises its augmented Lagrangian, with penalty weight ``SCREEN_RHO``,
    and then doubles its step size; otherwise it halves it.  Every
    ``SCREEN_STEPS`` steps each start updates the multipliers of both budgets
    and re-picks its hard decoder; the screen takes ``SCREEN_ROUNDS`` such
    rounds, at most ``MAX_ITER`` steps in all.  Ends within ``SCREEN_SNAP``
    of the budgets are then pulled onto them (``_snap``), and all ends are
    checked in one batched ``_checked``.  Every pass is elementwise or
    reduces within one start, with no matrix product, so a start's result
    does not depend on the other starts in the batch.

    At the optimizer's sizes numpy's per-call overhead is most of a step's
    time, so a step makes few calls: the objective unrolls its sums over
    ``s`` (see ``_gap_value_grad``), E[d_r]'s gradient, which depends only
    on the round's decoder, is built once a round, and accepted steps are
    copied into the start's arrays in place.

    Returns one ``_run_start`` tuple per start.  Its status is 0 where the
    end is within both budgets and the last round raised the start's
    augmented Lagrangian by at most ``SCREEN_GAIN_TOL``, and 9 (iteration
    limit) otherwise; ``nit`` holds its accepted steps, ``nfev`` its
    objective evaluations and ``seconds`` its share of the batch's wall time.
    """
    t0 = time.perf_counter()
    z0 = np.asarray(z0s, dtype=float)
    B = len(z0)
    q = np.clip(z0[:, : 2 * K].reshape(B, 2, K), 1e-12, None)
    z = np.concatenate([(q / q.sum(axis=2, keepdims=True)).reshape(B, 2 * K),
                        np.clip(z0[:, 2 * K:], 0.0, 1.0)], axis=1)
    lam = np.zeros((B, 2))
    eta = np.full(B, SCREEN_ETA)
    nit = np.zeros(B, dtype=int)
    trial = np.empty_like(z)

    def lagrangian(z, lam, grad_r):
        """Augmented Lagrangian, its gradient and the budget excesses, given
        the round's gradient ``grad_r`` of E[d_r], which is E[d_r]'s
        coefficients too."""
        f, grad = _gap_value_grad(z, K, p)
        d_e, grad_e = _de_value_grad(z, K)
        h = np.empty((B, 2))
        np.subtract(d_e, de, out=h[:, 0])
        np.subtract((z[:, : 2 * K] * grad_r[:, : 2 * K]).sum(axis=1), dr, out=h[:, 1])
        m = np.maximum(lam + SCREEN_RHO * h, 0.0)
        pen = m * m - lam * lam
        grad -= m[:, :1] * grad_e + m[:, 1:] * grad_r
        return f - (pen[:, 0] + pen[:, 1]) / (2.0 * SCREEN_RHO), grad, h

    def step(z, grad, eta):
        """Write the step from ``z`` along ``grad`` into ``trial``."""
        e = eta[:, None]
        q = z[:, : 2 * K].reshape(B, 2, K)
        lq = (e * grad[:, : 2 * K]).reshape(B, 2, K)
        q_new = q * np.exp(lq - lq.max(axis=2, keepdims=True))
        np.divide(q_new, q_new.sum(axis=2, keepdims=True), out=trial[:, : 2 * K].reshape(B, 2, K))
        jus = np.maximum(0.5 * q.transpose(0, 2, 1).reshape(B, 2 * K), SCREEN_FLOOR)
        np.clip(z[:, 2 * K:] + e * grad[:, 2 * K:] / jus, 0.0, 1.0, out=trial[:, 2 * K:])

    steps = min(SCREEN_ROUNDS * SCREEN_STEPS, MAX_ITER)
    nfev = 0
    for k in range(steps):
        if k % SCREEN_STEPS == 0:
            if k:
                lam = np.maximum(lam + SCREEN_RHO * h, 0.0)
            # E[d_r] is linear in z for the round's decoder
            grad_r = _dr_value_grad(z, K, _best_decoder(z[:, : 2 * K].reshape(B, 2, K)))[1]
            val, grad, h = lagrangian(z, lam, grad_r)
            round_start = val.copy()      # val takes accepted steps in place
            nfev += 1
        step(z, grad, eta)
        t_val, t_grad, t_h = lagrangian(trial, lam, grad_r)
        nfev += 1
        up = t_val >= val
        np.copyto(z, trial, where=up[:, None])
        np.copyto(val, t_val, where=up)
        np.copyto(grad, t_grad, where=up[:, None])
        np.copyto(h, t_h, where=up[:, None])
        eta *= np.where(up, 2.0, 0.5)
        nit += up
    gain = val - round_start if steps else np.zeros(B)
    z = _snap(z, de, dr, K)
    seconds = (time.perf_counter() - t0) / B
    return [(0 if feasible and gain[b] <= SCREEN_GAIN_TOL else 9, feasible, value, zz, g,
             (int(nit[b]),), (nfev,), seconds)
            for b, (feasible, value, zz, g) in enumerate(_checked(z, de, dr, K, p))]


def _run_start(de: float, dr: float, p: float, K: int, z0: np.ndarray) -> tuple:
    """The polish of one start of ``optimize_rate_fn``: up to four SLSQP
    alternations to ``POLISH_FTOL`` with hard-decoder updates from ``z0``,
    then the end point's evaluation.

    Returns ``(status, feasible, value, zz, g, nit, nfev, seconds)``: the
    exit status of the last SLSQP run (0 where it met its stopping test), the
    feasibility and rate gap of the clipped end point ``zz``, the last hard
    decoder, SLSQP's iterations and function evaluations per alternation, and
    the wall time.
    """
    t0 = time.perf_counter()
    bounds = [(0.0, 1.0)] * (4 * K)
    simplex_jac = np.concatenate([np.kron(np.eye(2), np.ones((1, K))), np.zeros((2, 2 * K))], axis=1)
    simplex = {"type": "eq", "fun": lambda zz: zz[: 2 * K].reshape(2, K).sum(axis=1) - 1.0,
               "jac": lambda zz: simplex_jac}

    def neg_gap(zz):
        val, grad = _gap_value_grad(zz[None], K, p)
        return -val[0], -grad[0]

    z = np.asarray(z0, dtype=float)
    q0 = np.clip(z[: 2 * K].reshape(2, K), 1e-12, None)
    g = _best_decoder(q0 / q0.sum(axis=1, keepdims=True))
    nit, nfev = [], []
    for _ in range(4):
        res = minimize(neg_gap, z, jac=True, method="SLSQP", bounds=bounds,
                       constraints=[simplex, _budget_constraint(de, dr, K, g)],
                       options={"maxiter": MAX_ITER, "ftol": POLISH_FTOL})
        nit.append(int(res.nit))
        nfev.append(int(res.nfev))
        z = np.clip(res.x, 0.0, 1.0)
        qn = np.clip(z[: 2 * K].reshape(2, K), 1e-12, None)
        g_new = _best_decoder(qn / qn.sum(axis=1, keepdims=True))
        if (g_new == g).all():
            break
        g = g_new
    [(feasible, val, zz, _)] = _checked(z[None], de, dr, K, p)
    return (int(res.status), feasible, val, zz, g, tuple(nit), tuple(nfev),
            time.perf_counter() - t0)


def _starts(de: float, dr: float, p: float, K: int, restarts: int,
            seed: int) -> list[tuple[str, np.ndarray]]:
    """The starts of ``optimize_rate_fn`` as (kind, packed variables): the
    parametric seeds (from 4 auxiliary symbols up), then ``restarts`` random
    points drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    starts = _boundary_seed(de, dr, p, K) if K >= 4 else []
    for _ in range(restarts):
        q0 = rng.dirichlet(np.ones(K), size=2)
        r0 = rng.random((K, 2))
        starts.append(("random", np.concatenate([q0.reshape(-1), r0.reshape(-1)])))
    return starts


def _solve(de: float, dr: float, p: float, K: int, starts) -> RateFnResult:
    """The search of ``optimize_rate_fn`` from its ``starts``, run in its
    worker: the screen, the polish of the ``POLISH_COUNT`` best feasible
    screened ends one after another, then each start's kept point and the
    winner."""
    screened = _screen(de, dr, p, K, [z0 for _, z0 in starts])
    # a stable sort: equal values keep start order
    leaders = sorted((i for i, end in enumerate(screened) if end[1]),
                     key=lambda i: -screened[i][2])[:POLISH_COUNT]
    polished = {i: _run_start(de, dr, p, K, screened[i][3]) for i in leaders}

    # each start keeps its best feasible point, the first of equal values in
    # the order (a parametric seed's start point,) screened end, polished end;
    # with none feasible, its screened end
    rounds = [[end, polished[i]] if i in polished else [end] for i, end in enumerate(screened)]
    kept = []
    for (kind, z0), ends in zip(starts, rounds):
        points = [(feasible, val, zz, g) for _, feasible, val, zz, g, *_ in ends]
        if kind != "random":
            points.insert(0, _checked(z0[None], de, dr, K, p)[0])
        kept.append(max((pt for pt in points if pt[0]), key=lambda pt: pt[1], default=points[-1]))

    # max keeps the first of equal values: the winner is picked in start order
    winner = max((i for i, pt in enumerate(kept) if pt[0]), key=lambda i: kept[i][1], default=-1)
    if winner >= 0:
        _, value, zz, g = kept[winner]
        # SLSQP's status 8 (positive directional derivative in the line
        # search) is its tolerance floor when another polished start agrees
        status = rounds[winner][-1][0]
        converged = status == 0 or status == 8 and winner in polished and any(
            kept[i][0] and abs(kept[i][1] - value) <= AGREE_TOL for i in polished if i != winner)
    else:
        # the uniform independent auxiliary is always feasible when dr ~ 1/2,
        # otherwise report the (infeasible-start) sentinel
        z = np.concatenate([np.full(2 * K, 1.0 / K), np.full(2 * K, 0.5)])
        [(feasible, value, zz, g)] = _checked(z[None], de, dr, K, p)
        value = value if feasible else -np.inf
        converged = False
    records = tuple(
        StartRecord(kind, feasible, val, sum((e[5] for e in ends), ()),
                    sum((e[6] for e in ends), ()), sum(e[7] for e in ends),
                    won=i == winner, polished=len(ends) == 2)
        for i, ((kind, _), (feasible, val, *_), ends) in enumerate(zip(starts, kept, rounds)))
    return RateFnResult(value, zz[: 2 * K].reshape(2, K), zz[2 * K:].reshape(K, 2), g, converged,
                        len(starts), records)


def optimize_rate_fn(
    de: float,
    dr: float,
    p: float,
    cardinality: int = 7,
    restarts: int = 32,
    seed: int = 0,
) -> RateFnResult:
    """Estimate sup I(U;Y) - I(S;U) subject to E[d_e] <= de, E[d_r] <= dr.

    The supremum runs over conditionals p(u|s) on an auxiliary alphabet of
    the given cardinality and (not necessarily deterministic) p(x|u, s);
    the reconstruction map is the minimum-distortion estimator of S from U.
    The starts are parametric seeds plus random restarts; the reported value
    is always attained by a feasible witness, so it is a lower bound on the
    true supremum.

    The starts run in two rounds.  The screen (``_screen``) advances all of
    them at once by augmented-Lagrangian ascent with hard-decoder updates,
    using elementwise numpy passes only.  The polish runs the
    ``POLISH_COUNT`` best feasible screened ends, ranked by value and then
    start order, from where they ended through SLSQP to ``POLISH_FTOL``,
    alternating with hard-decoder updates at most four times.  A polished
    start keeps the better of its two feasible ends, and a parametric seed's
    own start point competes too, so a feasible seed is never reported worse
    than it started.  The winner is the first start, in start order, whose
    kept point has the largest value.  ``converged`` is the stopping test of
    the winner's last run; a polished winner whose last SLSQP run stops on
    its line search (status 8) counts as converged when another polished
    start's kept value is within ``AGREE_TOL`` of it.

    Each SLSQP point costs one objective call, which returns value and
    gradient from one pass of logarithms, and one call of a single
    inequality holding both budgets.  Both rounds and the pick of the winner
    (``_solve``) run as one task in one forked worker process, in a pool that
    is shut down before the call returns.  The worker runs OpenBLAS on one
    thread, so with OpenBLAS builds of numpy and scipy the result does not
    depend on the BLAS thread count.  ``starts`` on the result records every
    start's kind, kept value, feasibility, iterations and function
    evaluations, wall time and whether it was polished; the ``optimize``
    command leaves it out of its checksummed results.
    """
    if not (0.0 <= de <= 0.5 and 0.0 <= dr <= 0.5):
        raise ValueError("distortion budgets must be in [0, 1/2]")
    if not (0.0 <= p <= 0.5):
        raise ValueError(f"crossover must be in [0, 1/2], got {p}")
    if not (2 <= cardinality <= MAX_CARDINALITY):
        raise ValueError(f"auxiliary cardinality must be in [2, {MAX_CARDINALITY}], "
                         f"got {cardinality}")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    # imported here, not at module top, so importing the CLI stays as cheap
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    K = int(cardinality)
    starts = _starts(de, dr, p, K, restarts, seed)
    if not starts:
        raise ValueError("no start to run: restarts must be >= 1 where no parametric "
                         "seed applies (cardinality < 4 or no family member within the budgets)")
    # imported before the fork, so that each call's worker inherits it
    import scipy.optimize  # noqa: F401

    # fork, named because the default start method differs across Python
    # versions and platforms: the worker inherits the imported modules
    # (spawn would import scipy again).
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=(os.getpid(),)) as ex:
        return ex.submit(_solve, de, dr, p, K, starts).result()
