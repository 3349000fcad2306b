"""The Monte Carlo trial driver shared by every simulator, its statistics
types and RNG plumbing.

Randomness discipline: every consumer derives its generator from a
``SeedSequence`` with an explicit spawn key, so a (config, seeds) pair maps
to bit-identical results no matter how trials are batched:

- ``(seed_public, (0,))``   codebook generation
- ``(seed_secret, (0,))``   admissibility marking
- ``(seed_public, (1, t))`` source and reference-channel noise of trial t
- ``(seed_public, (2, t))`` attacker randomness of trial t (public knowledge)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CODEBOOK_KEY = 0
TRIAL_KEY = 1
ATTACK_KEY = 2
CHUNK = 256    # trials per block of the driver
MARKING_BYTES = 1 << 24    # bound on the per-trial admissible masks a block holds


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, spawn key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass(frozen=True)
class DecodeOutcome:
    """Either an authentic reconstruction or the not-authentic verdict.

    ``codeword_index is None`` iff the decoder declared the input
    unauthenticatable; in that case there is no reconstruction.
    """

    reconstruction: np.ndarray | None
    codeword_index: int | None

    def __post_init__(self):
        if (self.reconstruction is None) != (self.codeword_index is None):
            raise ValueError("reconstruction and codeword_index must be both set or both absent")

    @property
    def authentic(self) -> bool:
        return self.codeword_index is not None

    @classmethod
    def not_authentic(cls) -> "DecodeOutcome":
        return cls(None, None)


@dataclass(frozen=True)
class TrialStats:
    """Aggregated Monte Carlo outcomes for one simulator run.

    ``decode_failures`` counts trials where the decoder declared
    not-authentic; ``wrong_codeword`` counts trials where it produced a
    reconstruction different from the encoder's (the successful-attack
    event class, whatever channel was in effect).  ``dr_de_max_gap`` is
    the largest per-trial difference |d_r - d_e| over trials that
    recovered the encoder's codeword; zero means the reconstruction
    distortion is identically the encoding distortion on those trials.
    """

    trials_run: int
    encode_failures: int = 0
    decode_failures: int = 0
    wrong_codeword: int = 0
    matched: int = 0
    empirical_de: float = 0.0
    empirical_dr: float = 0.0
    dr_de_max_gap: float = 0.0
    attack_successes: int = 0
    attack_trials: int = 0
    tag_recoveries: int = 0

    def __post_init__(self):
        counts = (self.encode_failures, self.decode_failures, self.wrong_codeword,
                  self.matched, self.attack_successes, self.attack_trials)
        if any(c < 0 or c > self.trials_run for c in counts):
            raise ValueError("counts must lie in [0, trials_run]")

    @property
    def attack_rate(self) -> float:
        return self.attack_successes / self.attack_trials if self.attack_trials else 0.0

    @property
    def failure_rate(self) -> float:
        """Encoder failures plus decoder-declared failures, per trial."""
        return (self.encode_failures + self.decode_failures) / self.trials_run

    @property
    def total_failure_rate(self) -> float:
        """Every trial that did not end with the encoder's reconstruction."""
        bad = self.encode_failures + self.decode_failures + self.wrong_codeword
        return bad / self.trials_run


class Codebook:
    """What the trial driver needs of a codebook with a keyed admissible
    subset.  Subclasses hold ``rows`` (one codeword per row, compared by
    value) and ``admissible`` (a bool mask over them), and define
    ``nearest(targets, among=None)``: the index of the nearest codeword to
    each target row, lowest index on ties, searching only the index array
    ``among`` when given (per-trial markings pass an iterable of one array
    per row), and its distance in the unit of the radii passed to
    ``run_trials``; and ``distortion(indices, targets)``: the
    per-sample distortion between codewords and target rows.
    """

    def __post_init__(self):
        self.rows.setflags(write=False)
        self.admissible.setflags(write=False)

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def n_admissible(self) -> int:
        return int(self.admissible.sum())

    @cached_property
    def admissible_indices(self) -> np.ndarray:
        return np.flatnonzero(self.admissible)


def mark_admissible(rng: np.random.Generator, count: int, n_admissible: int) -> np.ndarray:
    """Admissible mask: the head of a keyed pseudorandom permutation of the
    indices, which is a uniformly random subset."""
    admissible = np.zeros(count, dtype=bool)
    admissible[rng.permutation(count)[:n_admissible]] = True
    return admissible


def substitute(cb):
    """Attacker that submits a uniformly drawn codeword other than the
    encoder's, redrawing while the draw equals the encoder's codeword.

    Raises ValueError unless the codebook holds two distinct codewords,
    without which the redraw would never end.
    """
    rows = cb.rows
    if not (rows != rows[0]).any():
        raise ValueError("codeword substitution needs two distinct codewords")

    def attack(x, rng):
        while True:
            y = rows[int(rng.integers(0, len(rows)))]
            if not (y == x).all():
                return y
    return attack


def run_trials(cb, trials: int, seed: int, source, channel, *, encode_radius: float,
               decode_radius: float, attacked: bool = False, marking=None,
               check_admissibility: bool = True, tag_check=None) -> TrialStats:
    """source -> encode -> channel or attacker -> decode over a
    :class:`Codebook`, tallied over trials.

    Trial t draws ``source(rng)`` and the reference ``channel(x, rng)``
    from ``(seed, (1, t))``; when ``attacked`` the channel is an attacker
    fed from ``(seed, (2, t))`` and every encoded trial is an attack, won
    by a wrong reconstruction.  The encoder takes the nearest admissible
    codeword within ``encode_radius``; the decoder the nearest codeword,
    rejected beyond ``decode_radius``, when forbidden (if
    ``check_admissibility``; ``marking(t)`` replaces the admissible mask of
    trial t) or when ``tag_check(encoded, decoded, rng)`` fails.

    Trials run in blocks of CHUNK (fewer when per-trial masks would exceed
    MARKING_BYTES) and every sum is one ``math.fsum`` over per-trial values,
    so the result does not depend on the block size.
    """
    enc_fail = dec_fail = wrong = matched = 0
    de: list[float] = []
    dr: list[float] = []
    max_gap = 0.0
    block = CHUNK if marking is None else max(1, min(CHUNK, MARKING_BYTES // cb.count))
    for start in range(0, trials, block):
        ts = range(start, min(start + block, trials))
        rngs = [stream(seed, TRIAL_KEY, t) for t in ts]
        sources = np.stack([source(rng) for rng in rngs])
        masks = None if marking is None else [marking(t) for t in ts]
        among = (cb.admissible_indices if masks is None
                 else (np.flatnonzero(m) for m in masks))
        idx, dist = cb.nearest(sources, among)
        ok = np.flatnonzero(dist <= encode_radius)
        enc_fail += len(ts) - ok.size
        if not ok.size:
            continue
        idx, sources, x = idx[ok], sources[ok], cb.rows[idx[ok]]
        d_e = cb.distortion(idx, sources)
        de.extend(d_e.tolist())
        channel_rngs = [stream(seed, ATTACK_KEY, ts[i]) if attacked else rngs[i] for i in ok]
        k, dist = cb.nearest(np.stack([channel(row, rng) for row, rng in zip(x, channel_rngs)]))
        accept = dist <= decode_radius
        if check_admissibility:
            accept &= cb.admissible[k] if masks is None else [masks[i][j] for i, j in zip(ok, k)]
        if tag_check is not None:
            accept &= [a and tag_check(*args) for a, *args in zip(accept, idx, k, channel_rngs)]
        same = accept & (cb.rows[k] == x).all(axis=1)
        d_r = cb.distortion(k, sources)
        dec_fail += int((~accept).sum())
        matched += int(same.sum())
        wrong += int((accept & ~same).sum())
        dr.extend(d_r[accept].tolist())
        max_gap = max([max_gap, *np.abs(d_r - d_e)[same].tolist()])
    encoded = trials - enc_fail
    return TrialStats(
        trials_run=trials,
        encode_failures=enc_fail,
        decode_failures=dec_fail,
        wrong_codeword=wrong,
        matched=matched,
        empirical_de=math.fsum(de) / encoded if encoded else 0.0,
        empirical_dr=math.fsum(dr) / len(dr) if dr else 0.0,
        dr_de_max_gap=max_gap,
        attack_successes=wrong if attacked else 0,
        attack_trials=encoded if attacked else 0,
    )


def binomial_sigma(rate: float, trials: int) -> float:
    """Standard deviation of an empirical rate over the given trial count."""
    if trials <= 0:
        return 0.0
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)
