"""Public-key adaptation: sign the reconstruction's index, embed the tag.

The secret admissibility marking is published (decoding ignores it) and
authenticity instead rests on a digital signature: the encoder signs the
bitwise representation of the authentic reconstruction (the codeword index
in fixed-width binary) and embeds the tag on a reserved carrier appended
to the content block.  The index is a deterministic function of the source
only once the codebook is fixed, so signing happens against the published
codebook realization.  The decoder re-derives the index by public nearest-
codeword decoding, extracts the tag estimate, and accepts only if the
signature verifies.  Forging therefore requires forging a tag for a new
index, whatever the admissible fraction was.

Carrier: the tag is repetition-coded on a scalar lattice, k carrier
samples per tag bit: bit b maps to lattice point b * step, and extraction
rounds each sample to the nearest lattice point and takes the majority of
the parities.  Binary content uses step 1, so its carrier samples are the
repeated tag bits themselves; Gaussian content uses a wider step.
:class:`TagCarrier` is the one place that knows this format.  It signs,
extracts and verifies one tag or a block of them, one per row, so the trial
driver checks a block of trials' tags in one call.

:func:`pk_encode` and :func:`pk_decode` wrap any ``sim_common.Codebook``'s
scalar ``encode``/``decode`` with a :class:`TagCarrier` and answer as they
do, ``(samples, index)`` or None; the codebook's ``observe`` checks the
whole block, carrier included, against the content's alphabet.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .sim_binary import BinCodebook, SimConfig, bsc_channel, pack_bits, run_binary_trials
from .sim_common import CARRIER_KEY, CHUNK, TrialStats, codebook_sizes, streams, substitute
from .sim_gaussian import GaussSimConfig


def _check_key(key: bytes) -> None:
    if not 1 <= len(key) <= 64:
        raise ValueError(f"a key is 1 to 64 bytes, got {len(key)}")


class TestDoubleScheme:
    """Keyed deterministic tag standing in for a real signature scheme.

    sign = keyed BLAKE2b truncated to tag_bits; verify = recompute and
    compare.  Signing and public key coincide (symmetric stand-in); any
    asymmetric scheme with the same sign/verify surface plugs in instead.
    """

    __test__ = False    # not a pytest class, despite the name

    def __init__(self, tag_bits: int = 64):
        if tag_bits < 8 or tag_bits > 512:
            raise ValueError("tag_bits must be in [8, 512]")
        self.tag_bits = tag_bits

    def sign(self, message_bits, signing_key: bytes) -> np.ndarray:
        """The tag of a message, or of each row of a (rows, bits) block, under
        a key of BLAKE2b's 1 to 64 bytes (an empty one would leave it unkeyed)."""
        _check_key(signing_key)
        msg = np.asarray(message_bits, dtype=np.uint8)
        digest_size = (self.tag_bits + 7) // 8
        packed = np.packbits(msg, axis=-1)
        buf, width, suffix = packed.tobytes(), packed.shape[-1], bytes([msg.shape[-1] % 256])
        digests = b"".join([hashlib.blake2b(buf[i * width:(i + 1) * width] + suffix,
                                            key=signing_key, digest_size=digest_size).digest()
                            for i in range(math.prod(msg.shape[:-1]))])
        return np.unpackbits(np.frombuffer(digests, dtype=np.uint8).reshape(
            *msg.shape[:-1], digest_size), axis=-1, count=self.tag_bits)

    def verify(self, message_bits, tag_bits, public_key: bytes):
        """Whether the tag verifies for the message; one verdict per row
        for a block.  A key outside 1 to 64 bytes is refused whatever the tag."""
        _check_key(public_key)
        tag = np.asarray(tag_bits, dtype=np.uint8)
        if tag.shape[-1:] != (self.tag_bits,):
            ok = np.zeros(np.shape(message_bits)[:-1], dtype=bool)
        else:
            ok = (self.sign(message_bits, public_key) == tag).all(axis=-1)
        return ok if ok.ndim else bool(ok)


def index_bits(index, count: int) -> np.ndarray:
    """Fixed-width binary representation of a codeword index, MSB first;
    of an array of indices, one row each.  Refuses an index outside
    [0, count)."""
    index = np.asarray(index)
    if index.dtype.kind not in "iu":
        raise TypeError("a codeword index is an integer")
    # a negative index wraps to one above 2^63
    big_endian = index.astype(">u8")
    if np.count_nonzero(big_endian >= count):
        raise ValueError(f"codeword index outside [0, {count})")
    width = max((count - 1).bit_length(), 1)
    return np.unpackbits(big_endian[..., None].view(np.uint8), axis=-1)[..., 64 - width:]


@dataclass(frozen=True)
class TagCarrier:
    """The tag format: the signed codeword index on a repetition-coded
    lattice carrier.

    Bit b is embedded as ``b * step``, ``repetition`` times; reading rounds
    each sample to the nearest lattice point and takes the majority of the
    points' parities (ties read 0).  Binary content uses ``step = 1``, so
    the carrier samples are the repeated tag bits themselves.  Each method
    takes one tag, carrier or index, or a block of them, one per row.
    """

    scheme: TestDoubleScheme
    count: int              # codebook size, fixing the index width
    repetition: int
    step: float = 1

    def __post_init__(self):
        if self.repetition < 1:
            raise ValueError("repetition must be >= 1")
        if not self.step > 0:
            raise ValueError("the carrier step must be positive")

    def embed(self, tag: np.ndarray) -> np.ndarray:
        return np.repeat(tag, self.repetition, axis=-1) * self.step

    def extract(self, carrier) -> np.ndarray:
        carrier = np.asarray(carrier)
        lattice = np.rint(np.divide(carrier, self.step, dtype=float)).astype(np.int64)
        votes = (lattice & 1).reshape(*carrier.shape[:-1], self.scheme.tag_bits, self.repetition)
        return (votes.sum(axis=-1) * 2 > self.repetition).astype(np.uint8)

    def sign(self, index, signing_key: bytes) -> np.ndarray:
        """The carrier of the tag signing codeword ``index``."""
        return self.embed(self.scheme.sign(index_bits(index, self.count), signing_key))

    def verify(self, carrier, index, public_key: bytes):
        """Whether the tag read off ``carrier`` verifies for ``index``."""
        return self.scheme.verify(index_bits(index, self.count), self.extract(carrier), public_key)


def pk_encode(source, cb, tags: TagCarrier, signing_key: bytes, radius: float):
    """Encode within ``radius``, sign the codeword index, append the tag's
    carrier.

    Returns ``(block, codeword_index)``, the content followed by its
    carrier, or None when the encoder fails.
    """
    _check_carrier(cb, tags)
    result = cb.encode(source, radius)
    if result is None:
        return None
    x, idx = result
    return np.concatenate([x, tags.sign(idx, signing_key)]), idx


def pk_decode(block, cb, tags: TagCarrier, public_key: bytes, radius: float):
    """Decode the content publicly within ``radius`` (marking ignored),
    read the tag off the carrier and accept only if it verifies.

    Returns ``(content, codeword_index)``, or None for the not-authentic
    verdict.  The admissibility predicate plays no role: anyone holding the
    public key can decode.  Rejection happens only on decode failure or
    signature mismatch.  The whole block, carrier included, must hold
    samples of the content's alphabet (``cb.observe``).
    """
    _check_carrier(cb, tags)
    block = cb.observe(block, cb.n + tags.scheme.tag_bits * tags.repetition)
    inner = cb.decode(block[:cb.n], radius, check_admissibility=False)
    if inner is None or not tags.verify(block[cb.n:], inner[1], public_key):
        return None
    return inner


def _check_carrier(cb, tags: TagCarrier) -> None:
    """Refuse a carrier whose index width is not the codebook's: it would
    sign or verify only the indices below its own count."""
    if tags.count != cb.count:
        raise ValueError(f"a tag carrier for {tags.count} codewords on a codebook of {cb.count}")


def source_bits(draws, n: int) -> np.ndarray:
    """Every stream's ``integers(0, 2, n)`` source bits, packed.  For a
    range of 2, Lemire's method returns the top bit of one 32-bit draw."""
    return pack_bits(draws.uint32(n) >> 31)


def run_pk_trials(config: SimConfig, cb: BinCodebook, tags: TagCarrier, key: bytes,
                  attacker: str | None) -> TrialStats:
    """``sim pk`` trials: the reference channel, or codeword substitution
    with a forged random tag.  The decoder ignores the marking and accepts
    only when the carried tag verifies for the decoded index."""
    if attacker not in (None, "substitute_codeword"):
        raise ValueError(f"sim pk supports only the substitute_codeword attacker, not {attacker}")

    def tag_check(idx, k, draws):
        # the carrier passes the reference channel untouched; the attacker
        # draws its forged tag's integers(0, 2, tag_bits) after its
        # substitute codeword
        carriers = (tags.embed((draws.uint32(tags.scheme.tag_bits) >> 31).astype(np.uint8))
                    if attacker else tags.sign(idx, key))
        return tags.verify(carriers, k, key)

    stats = run_binary_trials(
        config, cb, substitute(cb) if attacker else bsc_channel(config.n, config.p),
        source=lambda draws: source_bits(draws, config.n),
        attacked=bool(attacker), tag_check=tag_check)
    return replace(stats, empirical_de=0.0, empirical_dr=0.0, dr_de_max_gap=0.0)


def binomial_majority_error(repetition: int, p: float) -> float:
    """P[majority of `repetition` BSC(p) copies is wrong] (ties count as wrong)."""
    k = repetition
    thresh = k // 2 + 1 if k % 2 else k // 2
    return sum(math.comb(k, j) * p ** j * (1 - p) ** (k - j) for j in range(thresh, k + 1))


def repetition_for_recovery(p: float, tag_bits: int) -> int:
    """Smallest odd repetition factor with predicted tag recovery >= 99%."""
    if p <= 0:
        return 1
    for k in range(1, 199, 2):
        per_bit = binomial_majority_error(k, p)
        if (1.0 - per_bit) ** tag_bits >= 0.99:
            return k
    raise ValueError(f"no repetition factor below 199 reaches 0.99 at p={p}")


def carrier_channel_robustness(
    config,
    scheme: TestDoubleScheme | None = None,
    repetition: int | None = None,
) -> TrialStats:
    """Tag-recovery rate when the reference channel also hits the carrier.

    Accepts a binary :class:`SimConfig` (BSC on the carrier bits) or a
    Gaussian :class:`GaussSimConfig` (AWGN on the quantized carrier).  The
    repetition factor defaults to the smallest one whose predicted recovery
    is >= 99% at the configured channel.  Trials sign uniform indices of the
    config's codebook size; no codebook is built.
    """
    scheme = scheme or TestDoubleScheme()
    key = b"carrier-robustness"
    if isinstance(config, SimConfig):
        rep = repetition if repetition is not None else repetition_for_recovery(config.p, scheme.tag_bits)
        step = 1
        noise = lambda carriers, draws: carriers ^ (draws.random(carriers.shape[1]) < config.p)
    elif isinstance(config, GaussSimConfig):
        step, sigma_n = 6.0 * math.sqrt(config.sigma_n2), math.sqrt(config.sigma_n2)
        rep = repetition if repetition is not None else 3
        noise = lambda carriers, draws: carriers + draws.normal(carriers.shape[1], sigma_n)
    else:
        raise TypeError(f"unsupported config type {type(config).__name__}")
    count = codebook_sizes(config)[0]
    tags = TagCarrier(scheme, count, rep, step)
    recovered = 0
    for start in range(0, config.trials, CHUNK):
        draws = streams(config.seed_public, CARRIER_KEY,
                        range(start, min(start + CHUNK, config.trials)))
        # each trial draws its index (integers(0, 1) draws nothing), then
        # its carrier noise; a tag is recovered when the tag read off the
        # noisy carrier is the one read off the clean carrier, which is the
        # signed tag exactly
        index = draws.integers(count) if count > 1 else np.zeros(len(draws), dtype=np.int64)
        carriers = tags.sign(index, key)
        noisy = noise(carriers, draws)
        recovered += int((tags.extract(noisy) == tags.extract(carriers)).all(axis=1).sum())
    return TrialStats(trials_run=config.trials, decode_failures=config.trials - recovered,
                      matched=recovered, tag_recoveries=recovered)
