"""Monte Carlo of the sphere-packing construction with Gaussian codebooks.

Random i.i.d. Gaussian codewords stand in for the ideal packing: the
encoder maps the source to the nearest admissible codeword (which is also
the channel input), the decoder maps its observation to the nearest
codeword overall and rejects when it is forbidden or outside the decoding
radius sigma_n2 + epsilon per sample.  The authentic reconstruction is the
codeword itself, so reconstruction distortion equals encoding distortion
on every correctly decoded trial, and the admissible fraction 2^(-n gamma)
bounds every attacker's success probability.

Both nearest-codeword searches are one exact k-d tree query for the two
nearest rows within the search radius (over a tree of the codebook for the
decoder, of the admissible rows for the encoder, each built once per
codebook); a second row within a relative 1e-9 of the first triggers a
direct rescan, which keeps the ``Codebook`` protocol's lowest-index tie
rule.  The trees are scipy.spatial's ``cKDTree``, imported when the first
tree is built, so importing this module loads no scipy.  Each tree is built
for the search it serves (see ``GaussCodebook._tree`` and
``_admissible_tree``); the searches are exact and the rescan reads the
tree's rows in their original order, so no build option moves an index or
a distance.

The trials' normals (source, reference channel, heavy noise, random
vector) are block draws (``sim_common.Streams.normal``).

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

from .sim_common import (ATTACKERS, CODEBOOK_KEY, MAX_TRIALS, Codebook, TrialStats,
                         mark_admissible, run_trials, stream, substitute)

LOG2_GAUSS_CAP = 22.0
CHUNK = 256    # unused by the search; perfbench/tracer.py still reads it
TIE_TOL = 1e-9    # relative distance within which a second row forces a rescan


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
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        if self.n * self.rate > LOG2_GAUSS_CAP:
            raise ValueError(
                f"codebook of 2^{self.n * self.rate:.2f} codewords exceeds "
                f"the 2^{LOG2_GAUSS_CAP:.0f} tractability cap"
            )
        if not (self.sigma_s2 > 0 and self.sigma_n2 > 0):
            raise ValueError("variances must be positive")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, {MAX_TRIALS}]")
        if self.gamma is None:
            object.__setattr__(self, "gamma", 1.0 / math.sqrt(self.n))
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", self.sigma_n2 / 4.0)
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    @property
    def decode_radius(self) -> float:
        """Per-sample squared decoding radius r^2 = sigma_n2 + epsilon."""
        return self.sigma_n2 + self.epsilon


def _kd_tree(points: np.ndarray, **options):
    """A k-d tree over the rows of ``points``, built with cKDTree's
    ``options``."""
    from scipy.spatial import cKDTree
    return cKDTree(points, **options)


@dataclass(frozen=True)
class GaussCodebook(Codebook):
    codewords: np.ndarray       # (count, n) float
    admissible: np.ndarray      # (count,) bool

    @property
    def rows(self) -> np.ndarray:
        return self.codewords

    @property
    def n(self) -> int:
        return self.codewords.shape[1]

    def observe(self, samples, length: int) -> np.ndarray:
        """``length`` finite samples, as floats."""
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (length,):
            raise ValueError(f"a block of {length} samples expected, got shape {samples.shape}")
        if not np.isfinite(samples).all():
            raise ValueError("Gaussian samples must be finite")
        return samples

    def content(self, index: int) -> np.ndarray:
        """A copy of codeword ``index``."""
        return self.codewords[index].copy()

    @cached_property
    def _all_indices(self) -> np.ndarray:
        return np.arange(self.count)

    @cached_property
    def _tree(self):
        # for the decoder's short query bounded by its radius: sliding-
        # midpoint splits without shrunk cells build in half the time of
        # scipy's default, and leaves of 48 rows keep the nodes fewer than
        # the default's; the decoder's query is about 17% slower for it
        # (8.7 -> 10.2 ms on 2000 targets at n=8, rate 2)
        return _kd_tree(self.codewords, balanced_tree=False, compact_nodes=False, leafsize=48)

    @cached_property
    def _admissible_tree(self):
        # leaves of 64 rows speed the encoder's unbounded query by a third
        return _kd_tree(self.codewords[self.admissible_indices], leafsize=64)

    def nearest(self, targets: np.ndarray, among: np.ndarray | None = None,
                radius: float = math.inf):
        """Index and per-sample squared distance of the nearest codeword to
        each target row, searching only the indices ``among`` when given.

        One exact k-d tree query over the whole codebook or over
        ``admissible_indices`` (any other ``among`` gets a tree of its own)
        finds the two nearest rows within a bound just above the radius.
        Where the second comes within a relative TIE_TOL of the first, the
        target is rescanned with direct distances and the lowest index among
        the minima wins.  A target with no row within the bound reports an
        infinite distance.
        """
        if among is None:
            among, tree = self._all_indices, self._tree
        else:
            tree = (self._admissible_tree if among is self.admissible_indices
                    else _kd_tree(self.codewords[among]))
        # the tree keeps d^2 < bound^2 only: the absolute term finds exact hits at radius 0
        bound = math.sqrt(self.n * max(radius, 0.0)) * (1 + TIE_TOL) + TIE_TOL
        dist, pos = tree.query(targets, k=2, distance_upper_bound=bound)
        far = np.isinf(dist[:, 0])
        idx = among[np.where(far, 0, pos[:, 0])]
        for i in np.flatnonzero(~far & (dist[:, 1] <= dist[:, 0] * (1 + TIE_TOL))):
            d2 = ((tree.data - targets[i]) ** 2).sum(axis=1)
            idx[i] = among[d2 == d2.min()].min()
        return idx, np.where(far, math.inf, self.distortion(idx, targets))

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
    return GaussCodebook(codewords, admissible)


def run_gauss_trials(
    config: GaussSimConfig,
    attacker: str | None = None,
    attack_param: float | None = None,
    encode_budget: float | None = None,
    codebook: GaussCodebook | None = None,
) -> TrialStats:
    """Reference or attack trials with Gaussian source and noise.

    attacker=None: source -> nearest admissible -> AWGN -> decode.
    Otherwise the attacker replaces the channel output; success iff the
    decoder outputs a reconstruction different from the encoder's.
    ``attack_param`` is heavy_noise's per-sample noise variance, positive
    (None: 4 sigma_n2).
    """
    if attacker not in (None, *ATTACKERS):
        raise ValueError(f"attacker must be one of {ATTACKERS}")
    if attacker == "heavy_noise" and not (attack_param is None or attack_param > 0):
        raise ValueError("heavy_noise needs a positive per-sample noise variance attack_p")
    cb = codebook if codebook is not None else build_gauss_codebook(config)
    n = config.n
    sigma_s = math.sqrt(config.sigma_s2)
    sigma_n = math.sqrt(config.sigma_n2)
    if attacker is None:
        channel = lambda x, draws: x + draws.normal(n, sigma_n)
    elif attacker == "substitute_codeword":
        channel = substitute(cb)
    elif attacker == "heavy_noise":
        scale = 2.0 * sigma_n if attack_param is None else math.sqrt(attack_param)
        channel = lambda x, draws: x + draws.normal(n, scale)
    else:
        scale = math.sqrt(config.sigma_s2 + config.sigma_n2)
        channel = lambda x, draws: draws.normal(n, scale)
    return run_trials(cb, config.trials, config.seed_public,
                      lambda draws: draws.normal(n, sigma_s), channel,
                      encode_radius=math.inf if encode_budget is None else encode_budget,
                      decode_radius=config.decode_radius, attacked=attacker is not None)
