"""Monte Carlo of the secret-key random-codebook scheme, binary-Hamming case.

The simulated scheme is the corner of the parametric family with every
source symbol coded (encoding and reconstruction distortions coincide):
codewords are i.i.d. uniform bit strings, a secret uniformly random subset
is marked admissible, the encoder quantizes the source to the nearest
admissible codeword, the channel is a BSC, and the decoder maps to the
nearest codeword in the full public codebook, rejecting when it is
forbidden or too far.  Joint typicality is realized as Hamming-distance
thresholds n(tau + delta) on the encoder side and n(p + delta) on the
decoder side.

Codewords are stored packed, 64 bits per word, so distances are XOR +
popcount over the whole codebook at once, a tile of target rows at a time
(one contiguous uint32 word per codeword when n <= 32).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import binary_entropy
from .sim_common import (ATTACKERS, CODEBOOK_KEY, MAX_TRIALS, Codebook, DecodeOutcome, Streams,
                         TrialStats, mark_admissible, run_trials, stream, streams, substitute)

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


def _n_words(n: int) -> int:
    return (n + 63) // 64


def _join_words(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Packed n-bit rows from their low and high 32-bit halves."""
    words = (hi << np.uint64(32)) | lo
    rem = n % 64
    if rem:
        words[:, -1] &= np.uint64((1 << rem) - 1)
    return words


def _random_words(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """(count, W) packed matrix of i.i.d. uniform bits."""
    w = _n_words(n)
    lo = rng.integers(0, 1 << 32, size=(count, w), dtype=np.uint64)
    return _join_words(lo, rng.integers(0, 1 << 32, size=(count, w), dtype=np.uint64), n)


def uniform_words(draws: Streams, n: int) -> np.ndarray:
    """Every stream's ``_random_words(rng, 1, n)[0]``: W low halves, then
    W high halves."""
    lo = draws.uint32(_n_words(n))
    return _join_words(lo, draws.uint32(_n_words(n)), n)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """(..., n) bits -> (..., W) uint64 words, LSB-first within each word."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    buf = np.zeros((*packed.shape[:-1], 8 * _n_words(np.shape(bits)[-1])), dtype=np.uint8)
    buf[..., :packed.shape[-1]] = packed
    return buf.view("<u8").astype(np.uint64, copy=False)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """(W,) uint64 words -> (n,) uint8 bits."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), count=n,
                         bitorder="little")


@dataclass(frozen=True)
class BinCodebook(Codebook):
    """Indexed random codebook with a keyed admissible subset."""

    n: int
    tau: float
    words: np.ndarray          # (count, W) packed codewords
    admissible: np.ndarray     # (count,) bool

    @property
    def rows(self) -> np.ndarray:
        return self.words

    def codeword_bits(self, index: int) -> np.ndarray:
        return unpack_bits(self.words[index], self.n)

    @cached_property
    def _scan_words(self) -> np.ndarray:
        """For n <= 32 a contiguous uint32 copy of the one word column."""
        return self.words[:, :1].astype(np.uint32) if self.n <= 32 else self.words

    def nearest(self, targets: np.ndarray, among=None,
                radius: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
        """Index and Hamming distance of the nearest codeword to each packed
        target row, lowest index on ties, searching only the index array
        ``among`` or the rows of a ``(targets, count)`` bool mask when given.
        Every distance is exact, so ``radius`` is not needed.

        A tile of target rows, as many as SCAN_BYTES of XOR words hold, is
        XORed and popcounted against the codebook one word column at a time
        in preallocated buffers; rows outside a mask count all ones.
        """
        marked = among if among is not None and among.ndim == 2 else None
        rows = None if among is None or marked is not None else np.sort(among)
        words = self._scan_words if rows is None else self._scan_words[rows]
        targets = targets.astype(words.dtype, copy=False)
        acc = np.min_scalar_type(64 * words.shape[1])
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
        return (idx if rows is None else rows[idx]), dist

    def distortion(self, indices: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-sample Hamming distortion between codewords and packed rows."""
        return np.bitwise_count(self.words[indices] ^ targets).sum(axis=1) / self.n


def build_codebook(config: SimConfig) -> BinCodebook:
    """Draw the public codebook and mark the secret admissible subset.

    |C| = round(2^(n R)) i.i.d. uniform codewords from seed_public;
    |A| = round(2^(n (R - gamma))) indices chosen as the head of a keyed
    pseudorandom permutation derived from seed_secret, which is a uniformly
    random subset of the index set.
    """
    count = round(2.0 ** config.log2_codebook_size)
    n_adm = round(2.0 ** (config.n * (config.rate - config.gamma)))
    n_adm = min(max(n_adm, 1), count)
    words = _random_words(stream(config.seed_public, CODEBOOK_KEY), count, config.n)
    admissible = mark_admissible(stream(config.seed_secret, CODEBOOK_KEY), count, n_adm)
    return BinCodebook(config.n, config.tau, words, admissible)


def _radius(n: int, fraction: float) -> float:
    """Hamming radius n * fraction, with slack against rounding."""
    return n * fraction + 1e-12


def encode(source, cb: BinCodebook, delta: float):
    """Quantize to the nearest admissible codeword within radius n(tau+delta).

    Returns ``(x_bits, codeword_index)`` with x equal to the chosen
    codeword, or None when no admissible codeword lies within the radius
    (counted as an encoding failure by the trial drivers).  Ties go to the
    lowest index.
    """
    source = np.asarray(source, dtype=np.uint8)
    if source.size != cb.n:
        raise ValueError(f"source length {source.size} != blocklength {cb.n}")
    (idx,), (d,) = cb.nearest(pack_bits(source)[None, :], cb.admissible_indices)
    if d > _radius(cb.n, cb.tau + delta):
        return None
    return cb.codeword_bits(idx), int(idx)


def apply_bsc(x, p: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability p using the given stream."""
    x = np.asarray(x, dtype=np.uint8)
    flips = (rng.random(x.size) < p).astype(np.uint8)
    return x ^ flips


def decode(y, cb: BinCodebook, p: float, delta: float,
           check_admissibility: bool = True) -> DecodeOutcome:
    """Nearest-codeword decoding over the full public codebook.

    Not-authentic when nothing lies within radius n(p+delta) or when the
    nearest codeword (lowest index on ties) is forbidden.  Total: every
    input yields an outcome, never an exception.
    """
    y = np.asarray(y, dtype=np.uint8)
    if y.size != cb.n:
        raise ValueError(f"channel output length {y.size} != blocklength {cb.n}")
    (k,), (d,) = cb.nearest(pack_bits(y)[None, :])
    if d > _radius(cb.n, p + delta) or (check_admissibility and not cb.admissible[k]):
        return DecodeOutcome.not_authentic()
    return DecodeOutcome(cb.codeword_bits(k), int(k))


def run_binary_trials(config: SimConfig, cb: BinCodebook, channel, source=None,
                      **kw) -> TrialStats:
    """The trial driver at the binary encoder and decoder radii; sources are
    uniform words unless ``source(draws)`` says otherwise."""
    return run_trials(cb, config.trials, config.seed_public,
                      source or (lambda draws: uniform_words(draws, config.n)), channel,
                      encode_radius=_radius(cb.n, cb.tau + config.delta),
                      decode_radius=_radius(cb.n, config.p + config.delta), **kw)


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
        marking = lambda ts: np.stack([mark_admissible(rng, cb.count, cb.n_admissible)
                                       for rng in streams(config.seed_secret, CODEBOOK_KEY, ts)])
    stats = run_binary_trials(config, cb, channel, attacked=True, marking=marking)
    # binary attack runs report the encoding distortion only
    return replace(stats, empirical_dr=0.0, dr_de_max_gap=0.0)
