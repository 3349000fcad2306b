"""Monte Carlo of the secret-key random-codebook scheme, binary-Hamming case.

The simulated scheme is the corner of the parametric family with every
source symbol coded (encoding and reconstruction distortions coincide):
codewords are i.i.d. uniform bit strings, a secret uniformly random subset
is marked admissible, the encoder quantizes the source to the nearest
admissible codeword, the channel is a BSC, and the decoder maps to the
nearest codeword in the full public codebook, rejecting when it is
forbidden or too far.  Joint typicality is realized as Hamming-distance
thresholds n(tau + delta) on the encoder side and n(p + delta) on the
decoder side (``SimConfig.encode_radius`` and ``decode_radius``), which the
trial driver and the scalar ``BinCodebook.encode``/``decode`` take.

Codewords, sources and channel outputs share one packed layout, ceil(n/32)
little-endian uint32 words per row, so distances are XOR + popcount over
the searched rows at once, a tile of target rows at a time.  The encoder
searches a cached copy of the admissible rows' words, the decoder the whole
codebook; per-trial markings (fresh markings) mask the whole codebook.
Uniform rows are drawn as the 32-bit halves of ceil(n/64) 64-bit words
each, every row's low halves before any high half, and interleaved low
half first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import binary_entropy
from .sim_common import (ATTACKERS, CODEBOOK_KEY, MAX_TRIALS, Codebook, Streams, TrialStats,
                         draw_codebook, mark_admissible, run_trials, streams, substitute)

LOG2_CODEBOOK_CAP = 24.0
SCAN_BYTES = 1 << 19    # XOR words one tile of the nearest-codeword scan holds


@dataclass(frozen=True)
class SimConfig:
    n: int
    tau: float
    gamma: float
    p: float
    delta: float
    trials: int
    seed_public: int
    seed_secret: int

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("blocklength must be >= 8")
        if not (0.0 < self.tau < 0.5):
            raise ValueError("tau must be in (0, 1/2)")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not (0.0 <= self.p <= 0.5):
            raise ValueError("p must be in [0, 1/2]")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, {MAX_TRIALS}]")
        if self.log2_codebook_size > LOG2_CODEBOOK_CAP:
            raise ValueError(
                f"codebook of 2^{self.log2_codebook_size:.2f} codewords exceeds "
                f"the 2^{LOG2_CODEBOOK_CAP:.0f} tractability cap"
            )

    @property
    def rate(self) -> float:
        """Codebook rate: source-description rate plus twice the penalty."""
        return 1.0 - binary_entropy(self.tau) + 2.0 * self.gamma

    @property
    def log2_codebook_size(self) -> float:
        return self.n * self.rate

    @property
    def encode_radius(self) -> float:
        """Encoder Hamming radius n(tau + delta), with slack against rounding."""
        return self.n * (self.tau + self.delta) + 1e-12

    @property
    def decode_radius(self) -> float:
        """Decoder Hamming radius n(p + delta), with slack against rounding."""
        return self.n * (self.p + self.delta) + 1e-12


def _n_words(n: int) -> int:
    """32-bit words per packed n-bit row."""
    return (n + 31) // 32


def _interleave(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Packed n-bit rows from the low and high 32-bit halves of their
    64-bit words, (rows, ceil(n/64)) each."""
    words = np.stack([lo, hi], axis=-1, dtype=np.uint32).reshape(len(lo), -1)
    words = words[:, :_n_words(n)].copy()
    words[:, -1] &= np.uint32(0xFFFFFFFF >> -n % 32)     # the last word's bits below n
    return words


def _random_words(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """(count, W) packed matrix of i.i.d. uniform bits: every row's 64-bit
    words' low halves, then every row's high halves, in one draw."""
    return _interleave(*rng.integers(0, 1 << 32, (2, count, (_n_words(n) + 1) // 2),
                                     dtype=np.uint32), n)


def uniform_words(draws: Streams, n: int) -> np.ndarray:
    """Every stream's ``_random_words(rng, 1, n)[0]``: its 64-bit words'
    low halves, then their high halves."""
    return _interleave(*np.split(draws.uint32((_n_words(n) + 1) // 2 * 2), 2, axis=1), n)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """(..., n) bits -> (..., W) uint32 words, LSB-first within each word."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    buf = np.zeros((*packed.shape[:-1], 4 * _n_words(np.shape(bits)[-1])), dtype=np.uint8)
    buf[..., :packed.shape[-1]] = packed
    return buf.view("<u4").astype(np.uint32, copy=False)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """(W,) uint32 words -> (n,) uint8 bits."""
    return np.unpackbits(words.astype("<u4", copy=False).view(np.uint8), count=n,
                         bitorder="little")


@dataclass(frozen=True)
class BinCodebook(Codebook):
    """Indexed random codebook with a keyed admissible subset."""

    n: int
    words: np.ndarray          # (count, W) packed codewords
    admissible: np.ndarray     # (count,) bool

    @property
    def rows(self) -> np.ndarray:
        return self.words

    def observe(self, samples, length: int) -> np.ndarray:
        """``length`` bits, each 0 or 1, as uint8."""
        samples = np.asarray(samples)
        if samples.shape != (length,):
            raise ValueError(f"a block of {length} samples expected, got shape {samples.shape}")
        if not ((samples == 0) | (samples == 1)).all():
            raise ValueError("binary samples must be 0 or 1")
        return samples.astype(np.uint8, copy=False)

    def content(self, index: int) -> np.ndarray:
        """Codeword ``index`` as bits."""
        return unpack_bits(self.words[index], self.n)

    def target(self, samples: np.ndarray) -> np.ndarray:
        return pack_bits(samples)

    @cached_property
    def _admissible_words(self) -> np.ndarray:
        """The words of ``admissible_indices``, which are sorted."""
        return self.words[self.admissible_indices]

    def nearest(self, targets: np.ndarray, admissible=False,
                radius: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
        """Index and Hamming distance of the nearest codeword to each packed
        target row, lowest index on ties, over every codeword (``False``),
        the admissible rows (``True``) or the rows that row i of a
        ``(len(targets), count)`` bool array marks for target i.  Every
        distance is exact, so ``radius`` is not needed.

        A tile of target rows, as many as SCAN_BYTES of XOR words hold, is
        XORed and popcounted against the searched rows (``words`` or its
        cached admissible rows) one uint32 word column at a time in
        preallocated buffers; rows outside a marking count all ones.
        """
        if isinstance(admissible, bool):
            marked = None
        elif (isinstance(admissible, np.ndarray) and admissible.dtype == bool
              and admissible.shape == (len(targets), self.count)):
            marked, admissible = admissible, False
        else:
            raise ValueError("admissible must be True, False or a (targets, codewords) bool "
                             "array of per-trial markings")
        words = self._admissible_words if admissible else self.words
        acc = np.min_scalar_type(32 * words.shape[1])
        height = max(1, min(len(targets), SCAN_BYTES // words[:, 0].nbytes))
        xor = np.empty((height, len(words)), dtype=words.dtype)
        counts, part = np.empty((2, height, len(words)), dtype=acc)
        idx = np.empty(len(targets), dtype=np.int64)
        for start in range(0, len(targets), height):
            tile = slice(start, min(start + height, len(targets)))
            x, d, p = (buf[:tile.stop - start] for buf in (xor, counts, part))
            for c in range(words.shape[1]):
                np.bitwise_xor(words[:, c], targets[tile, c, None], out=x)
                np.bitwise_count(x, out=p if c else d)
                if c:
                    d += p
            if marked is not None:
                d |= np.subtract(marked[tile], acc.type(1), out=p)   # 0 where marked
            idx[tile] = d.argmin(axis=1)
        dist = np.bitwise_count(words[idx] ^ targets).sum(axis=1, dtype=np.int64)
        return (self.admissible_indices[idx] if admissible else idx), dist

    def distortion(self, indices: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-sample Hamming distortion between codewords and packed rows."""
        return np.bitwise_count(self.words[indices] ^ targets).sum(axis=1) / self.n


def build_codebook(config: SimConfig) -> BinCodebook:
    """The public codebook of i.i.d. uniform codewords with its secret
    admissible subset (``sim_common.draw_codebook``)."""
    return BinCodebook(config.n, *draw_codebook(
        config, lambda rng, count: _random_words(rng, count, config.n)))


def run_binary_trials(config: SimConfig, cb: BinCodebook, channel, source=None,
                      **kw) -> TrialStats:
    """The trial driver at the binary encoder and decoder radii; sources are
    uniform words unless ``source(draws)`` says otherwise."""
    return run_trials(cb, config.trials, config.seed_public,
                      source or (lambda draws: uniform_words(draws, config.n)), channel,
                      encode_radius=config.encode_radius, decode_radius=config.decode_radius,
                      **kw)


def bsc_channel(n: int, p: float):
    """BSC(p) on packed n-bit rows: bit i flips where the row's stream
    draws ``random()`` below p at its i-th draw."""
    return lambda x, draws: x ^ pack_bits(draws.random(n) < p)


def run_reference_trials(config: SimConfig, codebook: BinCodebook | None = None) -> TrialStats:
    """source -> encode -> BSC(p) -> decode, tallied over config.trials."""
    cb = codebook if codebook is not None else build_codebook(config)
    return run_binary_trials(config, cb, bsc_channel(config.n, config.p))


def run_attack_trials(
    config: SimConfig,
    attacker: str = "substitute_codeword",
    attack_p: float | None = None,
    codebook: BinCodebook | None = None,
    fresh_marking: bool = False,
) -> TrialStats:
    """Attack trials: the attacker sees everything except the secret marking.

    A trial is a successful attack iff the decoder outputs a reconstruction
    different from the encoder's codeword.  Trials whose encoding fails are
    skipped (there is no authentic reconstruction to attack).

    With ``fresh_marking`` every trial draws its own admissible subset from
    a per-trial substream of seed_secret, sampling the construction phase
    the 2^(-n gamma) security statement averages over; successes are then
    i.i.d. across trials.  Otherwise one fixed marking is attacked
    throughout, and the empirical rate concentrates on that realization.
    """
    if attacker not in ATTACKERS:
        raise ValueError(f"attacker must be one of {ATTACKERS}")
    if attacker == "heavy_noise":
        if attack_p is None or not (config.p < attack_p <= 0.5):
            raise ValueError("heavy_noise needs attack_p in (p, 1/2]")
    cb = codebook if codebook is not None else build_codebook(config)
    n = config.n
    if attacker == "substitute_codeword":
        channel = substitute(cb)
    elif attacker == "heavy_noise":
        channel = bsc_channel(n, attack_p)
    else:
        channel = lambda x, draws: uniform_words(draws, n)
    marking = None
    if fresh_marking:
        marking = lambda ts: np.stack(streams(config.seed_secret, CODEBOOK_KEY, ts).each(
            lambda rng: mark_admissible(rng, cb.count, cb.n_admissible)))
    stats = run_binary_trials(config, cb, channel, attacked=True, marking=marking)
    # binary attack runs report the encoding distortion only
    return replace(stats, empirical_dr=0.0, dr_de_max_gap=0.0)
