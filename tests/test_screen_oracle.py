"""The optimizer's screen and its evaluator against the bodies they replaced.

``_gap_value_grad`` writes its two sums over the length-2 ``s`` axis as one
``np.add`` of the two slices, and ``_screen`` builds E[d_r]'s gradient once
a round, takes accepted steps in place and checks all its ends in one
batched evaluation.  The reference bodies below are the earlier ones, with
numpy's reductions over ``s``, a fresh array per accepted step and one
evaluation per end.  Every number must come out bit for bit the same: the
objective and its gradient, and each screened end with its status, ``nit``
and ``nfev``.
"""

import numpy as np
import pytest

import authdist.regions_binary as regions_binary
from authdist.regions_binary import (
    FEAS_TOL,
    LN2,
    SCREEN_ETA,
    SCREEN_FLOOR,
    SCREEN_GAIN_TOL,
    SCREEN_RHO,
    SCREEN_ROUNDS,
    SCREEN_STEPS,
    _best_decoder,
    _de_value_grad,
    _dr_value_grad,
    _gap_value_grad,
    _screen,
    _snap,
    _xlog,
)


def reference_gap_value_grad(z, K, p):
    B = len(z)
    q = np.clip(z[:, : 2 * K].reshape(B, 2, K), 1e-15, None)
    r = z[:, 2 * K:].reshape(B, K, 2)
    w1 = p + r * (1.0 - 2.0 * p)
    buf = np.empty((B, 5 * K + 4))
    jus = np.multiply(0.5, q, out=buf[:, : 2 * K].reshape(B, 2, K)).transpose(0, 2, 1)
    juy = buf[:, 2 * K: 4 * K].reshape(B, K, 2)
    pu, ps, py = buf[:, 4 * K: 5 * K], buf[:, 5 * K: 5 * K + 2], buf[:, 5 * K + 2:]
    jus.sum(axis=2, out=pu)
    (jus * w1).sum(axis=2, out=juy[:, :, 1])
    np.subtract(pu, juy[:, :, 1], out=juy[:, :, 0])
    jus.sum(axis=1, out=ps)
    juy.sum(axis=1, out=py)

    lg = _xlog(buf)
    l_pu = lg[:, 4 * K: 5 * K, None]
    l_su = lg[:, : 2 * K].reshape(B, 2, K).transpose(0, 2, 1) - l_pu - lg[:, None, 5 * K: 5 * K + 2]
    l_uy = lg[:, 2 * K: 4 * K].reshape(B, K, 2) - l_pu - lg[:, None, 5 * K + 2:]
    i_su = (jus * l_su).sum(axis=(1, 2))
    i_uy = (juy * l_uy).sum(axis=(1, 2))

    g_su = l_su - 1.0 / LN2
    g_uy = l_uy - 1.0 / LN2

    grad = np.empty((B, 4 * K))
    grad[:, : 2 * K].reshape(B, 2, K).transpose(0, 2, 1)[...] = 0.5 * (
        g_uy[:, :, :1] * (1.0 - w1) + g_uy[:, :, 1:] * w1 - g_su)
    np.multiply((g_uy[:, :, 1] - g_uy[:, :, 0])[:, :, None] * jus, 1.0 - 2.0 * p,
                out=grad[:, 2 * K:].reshape(B, K, 2))
    return i_uy - i_su, grad


def reference_checked(z, de, dr, K, p):
    """Feasibility, rate gap and clipped variables of the one point ``z``."""
    q = np.clip(z[: 2 * K].reshape(2, K), 0.0, None)
    q = q / q.sum(axis=1, keepdims=True)
    r = np.clip(z[2 * K:].reshape(K, 2), 0.0, 1.0)
    zz = np.concatenate([q.reshape(-1), r.reshape(-1)])
    val = float(reference_gap_value_grad(zz[None], K, p)[0][0])
    de_got = float(_de_value_grad(zz[None], K)[0][0])
    dr_got = float(_dr_value_grad(zz[None], K, _best_decoder(q)[None])[0][0])
    return de_got <= de + FEAS_TOL and dr_got <= dr + FEAS_TOL, val, zz


def reference_screen(de, dr, p, K, z0s):
    z0 = np.asarray(z0s, dtype=float)
    B = len(z0)
    q = np.clip(z0[:, : 2 * K].reshape(B, 2, K), 1e-12, None)
    z = np.concatenate([(q / q.sum(axis=2, keepdims=True)).reshape(B, 2 * K),
                        np.clip(z0[:, 2 * K:], 0.0, 1.0)], axis=1)
    lam = np.zeros((B, 2))
    eta = np.full(B, SCREEN_ETA)
    nit = np.zeros(B, dtype=int)

    def lagrangian(z, lam, g):
        f, grad = reference_gap_value_grad(z, K, p)
        d_e, grad_e = _de_value_grad(z, K)
        d_r, grad_r = _dr_value_grad(z, K, g)
        h = np.stack([d_e - de, d_r - dr], axis=1)
        m = np.maximum(lam + SCREEN_RHO * h, 0.0)
        pen = m * m - lam * lam
        grad -= m[:, :1] * grad_e + m[:, 1:] * grad_r
        return f - (pen[:, 0] + pen[:, 1]) / (2.0 * SCREEN_RHO), grad, h

    def step(z, grad, eta):
        e = eta[:, None]
        q = z[:, : 2 * K].reshape(B, 2, K)
        lq = (e * grad[:, : 2 * K]).reshape(B, 2, K)
        q_new = q * np.exp(lq - lq.max(axis=2, keepdims=True))
        jus = np.maximum(0.5 * q.transpose(0, 2, 1).reshape(B, 2 * K), SCREEN_FLOOR)
        r_new = np.clip(z[:, 2 * K:] + e * grad[:, 2 * K:] / jus, 0.0, 1.0)
        return np.concatenate([(q_new / q_new.sum(axis=2, keepdims=True)).reshape(B, 2 * K),
                               r_new], axis=1)

    steps = min(SCREEN_ROUNDS * SCREEN_STEPS, regions_binary.MAX_ITER)
    nfev = 0
    for k in range(steps):
        if k % SCREEN_STEPS == 0:
            if k:
                lam = np.maximum(lam + SCREEN_RHO * h, 0.0)
            g = _best_decoder(z[:, : 2 * K].reshape(B, 2, K))
            val, grad, h = lagrangian(z, lam, g)
            round_start = val
            nfev += 1
        trial = step(z, grad, eta)
        t_val, t_grad, t_h = lagrangian(trial, lam, g)
        nfev += 1
        up = t_val >= val
        z = np.where(up[:, None], trial, z)
        val = np.where(up, t_val, val)
        grad = np.where(up[:, None], t_grad, grad)
        h = np.where(up[:, None], t_h, h)
        eta = np.where(up, 2.0 * eta, 0.5 * eta)
        nit += up
    gain = val - round_start if steps else np.zeros(B)
    z = _snap(z, de, dr, K)
    ends = []
    for b in range(B):
        feasible, value, zz = reference_checked(z[b], de, dr, K, p)
        ends.append((0 if feasible and gain[b] <= SCREEN_GAIN_TOL else 9, feasible, value, zz,
                     _best_decoder(zz[: 2 * K].reshape(2, K)), (int(nit[b]),), (nfev,)))
    return ends


def _key(end):
    """A screened end in comparable form: its floats as bytes, no wall time."""
    status, feasible, value, zz, g, nit, nfev = end[:7]
    return (status, type(feasible), feasible, type(value), repr(value), zz.tobytes(), g.tolist(),
            nit, nfev)


def _rows(rng, B, K):
    """B packed points: random q(u|s) with some entries exactly 0 (half of
    q(.|0) in the first point) and random r with some entries exactly 0 and
    1."""
    q = rng.dirichlet(np.full(K, 0.5), size=(B, 2))
    q[rng.random((B, 2, K)) < 0.2] = 0.0
    q[0, 0, : K // 2] = 0.0
    q[:, :, -1] += 1e-3                       # no row of zeros only
    r = rng.random((B, K, 2))
    r[rng.random((B, K, 2)) < 0.2] = 0.0
    r[rng.random((B, K, 2)) < 0.2] = 1.0
    return np.concatenate([q.reshape(B, -1), r.reshape(B, -1)], axis=1)


P_VALUES = (0.0, 0.05, 0.2, 0.5)
K_VALUES = (2, 3, 5, 7, 8, 13, 32)      # K >= 8 reaches numpy's pairwise sums over u
B_VALUES = (1, 3, 34)
BUDGETS = ((0.25, 0.2), (0.05, 0.45), (0.1, 0.15), (0.5, 0.5))


@pytest.mark.oracle
@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("K", K_VALUES)
def test_gap_value_grad_is_the_reference_bit_for_bit(K, p):
    rng = np.random.default_rng([K, int(1000 * p)])
    z = _rows(rng, 34, K)
    # unclipped q, as SLSQP may pass: tiny negatives and entries under the 1e-15 floor
    z[1, : 2 * K] = rng.choice([-1e-17, 0.0, 1e-16, 0.25], size=2 * K)
    for B in B_VALUES:
        value, grad = _gap_value_grad(z[:B], K, p)
        ref_value, ref_grad = reference_gap_value_grad(z[:B], K, p)
        assert value.tobytes() == ref_value.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.oracle
@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("K", K_VALUES)
def test_screen_is_the_reference_bit_for_bit(K, p):
    i = K_VALUES.index(K) + P_VALUES.index(p)
    B = B_VALUES[i % len(B_VALUES)]
    de, dr = BUDGETS[i % len(BUDGETS)]
    rng = np.random.default_rng([K, int(1000 * p), 1])
    z0s = list(_rows(rng, B, K))
    ends = [_key(e) for e in _screen(de, dr, p, K, z0s)]
    assert ends == [_key(e) for e in reference_screen(de, dr, p, K, z0s)]


@pytest.mark.oracle
@pytest.mark.parametrize("B", B_VALUES)
def test_screen_is_the_reference_on_the_optimizers_starts(B):
    # the seeded starts at two budgets near the p = 0.2 frontier: the first 34
    # end at status 0 and 9, feasible and not
    outcomes = set()
    for de, dr in ((0.25, 0.2013), (0.025, 0.4331)):
        z0s = [z0 for _, z0 in regions_binary._starts(de, dr, 0.2, 7, 32, 0)][:B]
        ends = [_key(e) for e in _screen(de, dr, 0.2, 7, z0s)]
        assert ends == [_key(e) for e in reference_screen(de, dr, 0.2, 7, z0s)]
        outcomes |= {(e[0], e[2]) for e in ends}
    assert B < 34 or outcomes == {(0, True), (9, True), (9, False)}
