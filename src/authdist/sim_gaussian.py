"""Monte Carlo of the sphere-packing construction with Gaussian codebooks.

Random i.i.d. Gaussian codewords stand in for the ideal packing: the
encoder maps the source to the nearest admissible codeword (which is also
the channel input), the decoder maps its observation to the nearest
codeword overall and rejects when it is forbidden or outside the decoding
radius sigma_n2 + epsilon per sample.  The authentic reconstruction is the
codeword itself, so reconstruction distortion equals encoding distortion
on every correctly decoded trial, and the admissible fraction 2^(-n gamma)
bounds every attacker's success probability.

Both nearest-codeword searches are exact k-d tree queries (one tree over
the codebook for the decoder, one over the admissible rows for the
encoder, each built once per codebook), which keep the lowest-index tie
rule of the ``Codebook`` protocol.

Desk-scale caveat: at the blocklengths the tractability cap allows, the
empirical distortions sit well above the asymptotic sigma_n2 value; the
claims checked here are the per-trial identity, the attack bound, and
rate/blocklength trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .sim_common import (CODEBOOK_KEY, Codebook, DecodeOutcome, TrialStats, mark_admissible,
                         run_trials, stream, substitute)

LOG2_GAUSS_CAP = 22.0
CHUNK = 256    # unused by the search; perfbench/tracer.py still reads it

GAUSS_ATTACKERS = ("substitute_codeword", "heavy_noise", "random_vector")


@dataclass(frozen=True)
class GaussSimConfig:
    n: int
    rate: float
    sigma_s2: float
    sigma_n2: float
    trials: int
    seed_public: int
    seed_secret: int
    gamma: float | None = None     # None -> 1/sqrt(n)
    epsilon: float | None = None   # None -> sigma_n2 / 4

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("blocklength must be >= 4")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.n * self.rate > LOG2_GAUSS_CAP:
            raise ValueError(
                f"codebook of 2^{self.n * self.rate:.2f} codewords exceeds "
                f"the 2^{LOG2_GAUSS_CAP:.0f} tractability cap"
            )
        if not (self.sigma_s2 > 0 and self.sigma_n2 > 0):
            raise ValueError("variances must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.gamma is None:
            object.__setattr__(self, "gamma", 1.0 / math.sqrt(self.n))
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", self.sigma_n2 / 4.0)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def decode_radius(self) -> float:
        """Per-sample squared decoding radius r^2 = sigma_n2 + epsilon."""
        return self.sigma_n2 + self.epsilon


@dataclass(frozen=True)
class GaussCodebook(Codebook):
    codewords: np.ndarray       # (count, n) float
    admissible: np.ndarray      # (count,) bool
    sigma_s2: float
    seed_public: int
    seed_secret: int

    @property
    def rows(self) -> np.ndarray:
        return self.codewords

    @property
    def n(self) -> int:
        return self.codewords.shape[1]

    @cached_property
    def _all_indices(self) -> np.ndarray:
        return np.arange(self.count)

    @cached_property
    def _tree(self) -> cKDTree:
        return cKDTree(self.codewords)

    @cached_property
    def _admissible_tree(self) -> cKDTree:
        return cKDTree(self.codewords[self.admissible_indices])

    def nearest(self, targets: np.ndarray, among: np.ndarray | None = None):
        """Index and per-sample squared distance of the nearest codeword to
        each target row, searching only the indices ``among`` when given.

        An exact k-d tree search over the whole codebook or over
        ``admissible_indices`` (any other ``among`` gets a tree of its own)
        finds the two nearest rows; where their distances are equal, the
        target is rescanned with direct distances and the lowest index
        among the minima wins.
        """
        if among is None:
            among, tree = self._all_indices, self._tree
        elif among is self.admissible_indices:
            tree = self._admissible_tree
        else:
            tree = cKDTree(self.codewords[among])
        dist, pos = tree.query(targets, k=2)
        idx = among[pos[:, 0]]
        for i in np.flatnonzero(dist[:, 0] == dist[:, 1]):
            d2 = ((tree.data - targets[i]) ** 2).sum(axis=1)
            idx[i] = among[d2 == d2.min()].min()
        return idx, self.distortion(idx, targets)

    def distortion(self, indices: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-sample squared error between codewords and target rows."""
        return ((self.codewords[indices] - targets) ** 2).mean(axis=1)


def build_gauss_codebook(config: GaussSimConfig) -> GaussCodebook:
    """|C| = round(2^(n rate)) i.i.d. N(0, sigma_s2) codewords; admissible
    subset of size round(2^(n (rate - gamma))) from the secret stream."""
    count = round(2.0 ** (config.n * config.rate))
    n_adm = round(2.0 ** (config.n * (config.rate - config.gamma)))
    n_adm = min(max(n_adm, 1), count)
    rng = stream(config.seed_public, CODEBOOK_KEY)
    codewords = rng.normal(0.0, math.sqrt(config.sigma_s2), size=(count, config.n))
    admissible = mark_admissible(stream(config.seed_secret, CODEBOOK_KEY), count, n_adm)
    return GaussCodebook(codewords, admissible, config.sigma_s2,
                         config.seed_public, config.seed_secret)


def gauss_encode(source, cb: GaussCodebook, radius_budget: float | None = None):
    """Nearest admissible codeword; fails when the per-sample squared
    distance exceeds radius_budget (None means unlimited)."""
    source = np.asarray(source, dtype=float)
    if source.size != cb.n:
        raise ValueError(f"source length {source.size} != blocklength {cb.n}")
    (idx,), (d2,) = cb.nearest(source[None, :], cb.admissible_indices)
    if radius_budget is not None and d2 > radius_budget:
        return None
    return cb.codewords[idx], int(idx)


def gauss_decode(y, cb: GaussCodebook, radius: float,
                 check_admissibility: bool = True) -> DecodeOutcome:
    """Nearest codeword overall; not-authentic outside the per-sample
    squared radius or on a forbidden codeword."""
    y = np.asarray(y, dtype=float)
    if y.size != cb.n:
        raise ValueError(f"output length {y.size} != blocklength {cb.n}")
    (k,), (d2,) = cb.nearest(y[None, :])
    if d2 > radius or (check_admissibility and not cb.admissible[k]):
        return DecodeOutcome.not_authentic()
    return DecodeOutcome(cb.codewords[k].copy(), int(k))


def run_gauss_trials(
    config: GaussSimConfig,
    mode: str = "reference",
    attacker: str = "substitute_codeword",
    attack_param: float | None = None,
    encode_budget: float | None = None,
    codebook: GaussCodebook | None = None,
) -> TrialStats:
    """Reference or attack trials with Gaussian source and noise.

    mode="reference": source -> nearest admissible -> AWGN -> decode.
    mode="attack": the attacker replaces the channel output; success iff
    the decoder outputs a reconstruction different from the encoder's.
    ``attack_param`` is heavy_noise's per-sample noise variance, positive
    (None: 4 sigma_n2).
    """
    if mode not in ("reference", "attack"):
        raise ValueError("mode must be 'reference' or 'attack'")
    if mode == "attack" and attacker not in GAUSS_ATTACKERS:
        raise ValueError(f"attacker must be one of {GAUSS_ATTACKERS}")
    if mode == "attack" and attacker == "heavy_noise" and not (
            attack_param is None or attack_param > 0):
        raise ValueError("heavy_noise needs a positive per-sample noise variance attack_p")
    cb = codebook if codebook is not None else build_gauss_codebook(config)
    n = config.n
    sigma_s = math.sqrt(config.sigma_s2)
    sigma_n = math.sqrt(config.sigma_n2)
    if mode == "reference":
        channel = lambda x, rng: x + rng.normal(0.0, sigma_n, size=n)
    elif attacker == "substitute_codeword":
        channel = substitute(cb)
    elif attacker == "heavy_noise":
        scale = 2.0 * sigma_n if attack_param is None else math.sqrt(attack_param)
        channel = lambda x, rng: x + rng.normal(0.0, scale, size=n)
    else:
        scale = math.sqrt(config.sigma_s2 + config.sigma_n2)
        channel = lambda x, rng: rng.normal(0.0, scale, size=n)
    return run_trials(cb, config.trials, config.seed_public,
                      lambda rng: rng.normal(0.0, sigma_s, size=n), channel,
                      encode_radius=math.inf if encode_budget is None else encode_budget,
                      decode_radius=config.decode_radius, attacked=mode == "attack")
