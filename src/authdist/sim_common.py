"""The Monte Carlo trial driver shared by every simulator, its statistics
types and RNG plumbing.

Randomness discipline: every consumer derives its generator from a
``SeedSequence`` with an explicit spawn key, so a (config, seeds) pair maps
to bit-identical results no matter how trials are batched:

- ``(seed_public, (0,))``   codebook generation
- ``(seed_secret, (0,))``   admissibility marking
- ``(seed_secret, (0, t))`` fresh admissibility marking of trial t in
  ``sim_binary.run_attack_trials(fresh_marking=True)``
- ``(seed_public, (1, t))`` source and reference-channel noise of trial t
- ``(seed_public, (2, t))`` attacker randomness of trial t (public knowledge)
- ``(seed_public, (3, t))`` tag and carrier noise of trial t in
  ``pubkey.carrier_channel_robustness``

:func:`run_trials` derives a block's trial streams at once with
:func:`streams`, bit-identical to one :func:`stream` call per trial: the
``(seed, key)`` part of the ``SeedSequence`` pool is hashed once per block
and only the last spawn word t is mixed in per trial, as one vector
operation over the block.  That gives each trial's PCG64 seed words, and
PCG64's seeding turns them into each trial's 128-bit state.

Draws are then computed for the whole block from those states
(:class:`Streams`): PCG64's state after m more outputs is an affine
function of its current state, so one slice of a jump table of multiplier
powers gives every trial's next outputs at once, in 128-bit arithmetic on
uint64 arrays, and NumPy's rules turn outputs into draws.  These are the
binary and pk sources, the BSC and heavy-noise flips, the random_vector
words, the substitute attacker (Lemire's bounded ``integers``, drawn again
for the few rows it rejects or that hit the encoder's codeword, each row
at its own draw position), the pk forged tags that follow it, and every
Gaussian normal: NumPy's ziggurat takes one output per normal on its fast
path, and the few rows whose draw leaves it finish on a ``Generator``
placed at the row's state (:meth:`Streams.each`).  Fresh markings
(``permutation``) alone are drawn one trial at a time that way.

Per target, the rest of a trial's cost is the codebook's ``nearest``
search, one block search for the encoder (the admissible rows) and the
decoder (every codeword) alike: the binary scan popcounts a tile of targets
against the packed rows it searches (masked by per-trial markings), the
Gaussian one is a k=2 k-d tree query bounded by the radius, rescanning
targets whose second row lies within a relative 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

CODEBOOK_KEY = 0
TRIAL_KEY = 1
ATTACK_KEY = 2
CARRIER_KEY = 3
CHUNK = 256    # trials per block of the driver
MARKING_BYTES = 1 << 24    # bound on the per-trial admissible masks a block holds
MAX_TRIALS = 1 << 32    # trial indices of the streams lie below 2^32

ATTACKERS = ("substitute_codeword", "heavy_noise", "random_vector")


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, spawn key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx)
POOL_SIZE = 4
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MASK32 = 0xFFFFFFFF


def _n_words(value: int) -> int:
    """Number of uint32 words SeedSequence splits a non-negative int into."""
    return max(1, -(-int(value).bit_length() // 32))


def _hash(values: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix over a uint32 array; returns the next constant."""
    values = values ^ np.uint32(hash_const)
    hash_const = hash_const * mult & MASK32
    values = values * np.uint32(hash_const)
    return values ^ (values >> 16), hash_const


def streams(seed: int, key: int, ts) -> Streams:
    """The :class:`Streams` of ``[stream(seed, key, t) for t in ts]``, bit
    for bit, for trial indices 0 <= t < 2^32.

    ``SeedSequence(seed, spawn_key=(key,)).pool`` is the entropy pool with
    everything but t mixed in, and SeedSequence's hash constant advances by
    a count fixed by the word lengths of seed and key.  Mixing in t and
    ``generate_state(4, uint64)`` then run in uint32 array arithmetic over
    all of ``ts`` at once, and PCG64's seeding in 128-bit arithmetic on
    those words.
    """
    pool = np.random.SeedSequence(seed, spawn_key=(key,)).pool
    t = np.asarray(ts, dtype=np.int64)
    if t.size and (t.min() < 0 or t.max() > MASK32):
        raise ValueError("trial indices must lie in [0, 2^32)")
    t = t.astype(np.uint32)
    # hashmix calls so far: one per pool word, one per ordered pair of
    # pool words, and POOL_SIZE per entropy word beyond the pool
    beyond = max(_n_words(seed), POOL_SIZE) + _n_words(key) - POOL_SIZE
    hash_const = INIT_A * pow(MULT_A, POOL_SIZE ** 2 + POOL_SIZE * beyond, 1 << 32) & MASK32
    pool_l = pool * np.uint32(MIX_MULT_L)
    mixed = []
    for i in range(POOL_SIZE):
        hashed, hash_const = _hash(t, hash_const, MULT_A)
        mix = pool_l[i] - np.uint32(MIX_MULT_R) * hashed
        mixed.append(mix ^ (mix >> 16))
    state = np.empty((t.size, 2 * POOL_SIZE), dtype=np.uint32)
    hash_const = INIT_B
    for j in range(2 * POOL_SIZE):
        state[:, j], hash_const = _hash(mixed[j % POOL_SIZE], hash_const, MULT_B)
    # PCG64 seeded with words w0..w3 takes the odd increment
    # c = (w2:w3) << 1 | 1 (128-bit numbers, high word first) and steps
    # s -> A s + c once from c + (w0:w1)
    w0, w1, w2, w3 = (state[:, 1::2].astype(np.uint64) << 32 | state[:, 0::2]).T
    ch, cl = w2 << 1 | w3 >> 63, w3 << 1 | 1
    bl = w1 + cl
    sh, sl = _mul128(np.uint64(PCG64_MULT >> 64), np.uint64(PCG64_MULT & MASK64),
                     w0 + ch + (bl < cl), bl)
    lo = sl + cl
    return Streams(np.stack([sh + ch + (lo < sl), lo, ch, cl], axis=1))


# PCG64's LCG multiplier (numpy/random/src/pcg64/pcg64.h)
PCG64_MULT = 2549297995355413924 << 64 | 4865540595714422341
MASK52, MASK64, MASK128 = (1 << 52) - 1, (1 << 64) - 1, (1 << 128) - 1


@cache
def _jump_table(size: int) -> np.ndarray:
    """(4, size) uint64: the high and low words of A^m, then those of
    G_m = A^0 + ... + A^(m-1), mod 2^128, for m < size (A = PCG64_MULT)."""
    table = np.empty((4, size), dtype=np.uint64)
    a, g = 1, 0
    for m in range(size):
        table[:, m] = a >> 64, a & MASK64, g >> 64, g & MASK64
        a, g = a * PCG64_MULT & MASK128, g + a & MASK128
    return table


@cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """NumPy's ziggurat tables ``wi_double`` and ``ki_double``."""
    from ._ziggurat import KI, WI
    return np.array(WI), np.array(KI, dtype=np.uint64)


def _mul128(ah, al, bh, bl):
    """High and low words of (ah:al) (bh:bl) mod 2^128, for uint64 arrays
    of high (h) and low (l) 64-bit words; the high word of al bl is summed
    from the 32-bit limbs' products."""
    a0, a1, b0, b1 = al & MASK32, al >> 32, bl & MASK32, bl >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & MASK32) + (p10 & MASK32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + al * bh + ah * bl
    return hi, al * bl


class Streams:
    """The PCG64 streams of a block of trials, each at the draw it has
    reached: row i starts as ``stream(seed, key, t_i)`` and every draw made
    on the block moves it on as that Generator's draws would.

    The block draws compute every row's next draws at once from the rows'
    128-bit states; :meth:`each` makes any other draw one row at a time on
    a Generator placed at the row's state, and the two mix freely.  A draw
    may be made for some rows only (``rows``, an index array): those rows
    move ahead alone.
    """

    def __init__(self, state: np.ndarray, half=None, held=None):
        self.state = state      # (T, 4) uint64: each PCG64's state s, then its increment c
        # whether a 32-bit draw held back the upper half of an output, and that half
        self._held = np.zeros(len(state), dtype=bool) if held is None else held
        self._half = np.zeros(len(state), dtype=np.uint64) if half is None else half

    def __len__(self) -> int:
        return len(self.state)

    def take(self, rows) -> "Streams":
        """The streams of the given rows, each at the draw it has reached."""
        return Streams(self.state[rows], self._half[rows], self._held[rows])

    def each(self, draw, *row_args, rows=None) -> list:
        """``draw(*args, rng)`` for every row (or the rows of ``rows``) in
        turn, with ``args`` the row's items of ``row_args`` and ``rng`` one
        Generator placed at the row's state; the row then stands where the
        Generator stopped."""
        rng = np.random.Generator(np.random.PCG64(0))
        got = []
        for i, *args in zip(range(len(self)) if rows is None else rows, *row_args):
            sh, sl, ch, cl = self.state[i].tolist()
            rng.bit_generator.state = {"bit_generator": "PCG64",
                                       "state": {"state": sh << 64 | sl, "inc": ch << 64 | cl},
                                       "has_uint32": int(self._held[i]),
                                       "uinteger": int(self._half[i])}
            got.append(draw(*args, rng))
            state = rng.bit_generator.state
            s = state["state"]["state"]
            self.state[i, :2] = s >> 64, s & MASK64
            self._held[i], self._half[i] = state["has_uint32"], state["uinteger"]
        return got

    def _steps(self, count: int, rows):
        """(len(rows), count + 1) high and low words of the states of
        ``rows`` after 0 to ``count`` more outputs: s, then A^m s + G_m c
        after m > 0, read off one shared slice of the jump table."""
        sh, sl, ch, cl = (self.state[rows, i, None] for i in range(4))
        ah, al, gh, gl = _jump_table(1 << count.bit_length())[:, 1:count + 1]
        hi, lo = np.empty((2, len(sh), count + 1), dtype=np.uint64)
        hi[:, :1], lo[:, :1] = sh, sl
        h1, l1 = _mul128(ah, al, sh, sl)
        h2, l2 = _mul128(gh, gl, ch, cl)
        np.add(l1, l2, out=lo[:, 1:])
        np.add(h1 + h2, lo[:, 1:] < l1, out=hi[:, 1:], casting="unsafe")
        return hi, lo

    def _outputs(self, count: int, rows, used) -> np.ndarray:
        """(len(rows), count) uint64: the next ``count`` outputs of the
        streams of ``rows``, each the XSL-RR of the state it steps to;
        each row then moves ahead by ``used`` outputs (one count, or one per
        row)."""
        hi, lo = self._steps(count, rows)
        at = np.arange(len(hi))
        self.state[rows, 0], self.state[rows, 1] = hi[at, used], lo[at, used]
        return _xsl_rr(hi[:, 1:], lo[:, 1:])

    def uint32(self, count: int, rows=slice(None)) -> np.ndarray:
        """Every stream's (or the streams of ``rows``)
        ``integers(0, 2**32, count, dtype=np.uint64)``: outputs split into
        32-bit halves, low half first, a half held back by the previous draw
        first of all."""
        held = self._held[rows]
        pairs = (count + 1) // 2
        out = self._outputs(pairs, rows, (count + 1 - held) // 2)
        # column 0 the half held back, then the outputs' halves
        halves = np.empty((len(out), 2 * pairs + 1), dtype=np.uint64)
        halves[:, 0] = self._half[rows]
        halves[:, 1::2], halves[:, 2::2] = out & MASK32, out >> 32
        got = np.where(held[:, None], halves[:, :count], halves[:, 1:count + 1])
        self._half[rows] = np.where(held, halves[:, count], halves[:, min(count + 1, 2 * pairs)])
        self._held[rows] = held ^ bool(count & 1)    # held may view _held: set last
        return got

    def integers(self, high: int, rows=slice(None)) -> np.ndarray:
        """Every stream's (or the streams of ``rows``) ``integers(0, high)``
        for 2 <= high <= 2^32, as int64: Lemire's rule on a 32-bit draw,
        drawing again for the rows whose draw it rejects."""
        if not 2 <= high <= 1 << 32:
            raise ValueError("a bounded draw needs 2 <= high <= 2^32")
        at = np.arange(len(self))[rows]
        out = np.empty(len(at), dtype=np.int64)
        todo = np.arange(len(at))
        threshold = ((1 << 32) - high) % high
        while todo.size:
            m = self.uint32(1, at[todo])[:, 0] * np.uint64(high)
            done = m & MASK32 >= threshold
            out[todo[done]] = m[done] >> 32
            todo = todo[~done]
        return out

    def random(self, count: int) -> np.ndarray:
        """Every stream's ``random(count)``: (output >> 11) 2^-53 each;
        a half held back stays held back."""
        return (self._outputs(count, slice(None), count) >> 11) * 2.0 ** -53

    def normal(self, count: int, scale: float) -> np.ndarray:
        """Every stream's ``normal(0.0, scale, count)``; a half held back
        stays held back.

        NumPy's ziggurat reads one output r per draw: idx = r & 0xff, a sign
        bit 8 and the 52-bit rabs = r >> 9, and returns +-rabs wi[idx] when
        rabs < ki[idx] (nearly always), scaled as ``0.0 + scale x``.  A row
        whose draw leaves that path (the idx-0 tail or a wedge test) draws
        the rest of its row through :meth:`each`.
        """
        wi, ki = _ziggurat()
        hi, lo = self._steps(count, slice(None))
        r = _xsl_rr(hi[:, 1:], lo[:, 1:])
        idx, rabs = r & 0xFF, r >> 9 & MASK52
        x = rabs * wi[idx]
        out = 0.0 + scale * np.where(r & 0x100 != 0, -x, x)
        fast = rabs < ki[idx]
        self.state[:, 0], self.state[:, 1] = hi[:, count], lo[:, count]
        slow = np.flatnonzero(~fast.all(axis=1))
        first = fast[slow].argmin(axis=1)     # each slow row's first draw off the path
        self.state[slow, 0], self.state[slow, 1] = hi[slow, first], lo[slow, first]
        rests = self.each(lambda j, rng: rng.normal(0.0, scale, count - j), first, rows=slow)
        for i, j, rest in zip(slow, first, rests):
            out[i, j:] = rest
        return out


def _xsl_rr(hi, lo):
    """PCG64's output of the 128-bit states (hi:lo)."""
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << ((64 - rot) & 63)


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
    """A codebook of blocklength ``n`` with a keyed admissible subset, as
    the trial driver and the scalar :meth:`encode`/:meth:`decode` use it.
    Both scalar calls give one block's answer as ``(content, index)``, the
    codeword's samples and its index, or None when they fail.

    Subclasses hold ``n``, ``rows`` (one codeword per row, compared by
    value) and ``admissible`` (a bool mask over them), and define
    ``nearest(targets, admissible=False, radius=inf)``: the index of the
    nearest codeword to each target row, lowest index on ties, and its
    distance in the unit of the radii passed to ``run_trials``, exact within
    ``radius`` and above it for a target with no codeword within it.  It
    searches every codeword (``admissible=False``, the decoder's search) or
    the admissible rows (``True``, the encoder's); the binary codebook also
    takes per-trial markings, a ``(len(targets), count)`` bool array whose
    row i marks the rows target i may take.  Any other ``admissible`` is
    refused with a ValueError before any search.  Subclasses also define
    ``distortion(indices, targets)``: the per-sample
    distortion between codewords and target rows; ``observe(samples,
    length)``: the samples of one block of ``length`` as an array, refused
    with a ValueError when the length or a sample is outside the content's
    alphabet; and ``content(k)``: codeword k as such samples.  ``target``
    turns observed content samples into a search row (the samples
    themselves unless a subclass packs them).
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

    def target(self, samples: np.ndarray) -> np.ndarray:
        return samples

    def encode(self, source, radius: float):
        """Quantize one source block to the nearest admissible codeword
        within ``radius``, lowest index on ties.

        Returns ``(content, codeword_index)``, or None when no admissible
        codeword lies within the radius (an encoding failure).
        """
        (k,), (d,) = self.nearest(self.target(self.observe(source, self.n))[None], True,
                                  radius)
        return (self.content(k), int(k)) if d <= radius else None

    def decode(self, y, radius: float, check_admissibility: bool = True):
        """Nearest-codeword decoding of one observed block over the whole
        codebook, lowest index on ties.

        Returns ``(content, codeword_index)``, or None for the not-authentic
        verdict: nothing lies within ``radius`` or, when
        ``check_admissibility``, the nearest codeword is forbidden.  Every
        observation gives an outcome; one outside the content's alphabet is
        refused with a ValueError.
        """
        (k,), (d,) = self.nearest(self.target(self.observe(y, self.n))[None], radius=radius)
        if not d <= radius or (check_admissibility and not self.admissible[k]):
            return None
        return self.content(k), int(k)


def codebook_sizes(config) -> tuple[int, int]:
    """|C| = round(2^(n R)) codewords and |A| = round(2^(n (R - gamma)))
    admissible ones, at least one and at most |C|, for a config's blocklength
    ``n``, ``rate`` R and ``gamma``."""
    count = round(2.0 ** (config.n * config.rate))
    return count, min(max(round(2.0 ** (config.n * (config.rate - config.gamma))), 1), count)


def draw_codebook(config, draw) -> tuple[np.ndarray, np.ndarray]:
    """A config's public codewords and secret admissible mask: the
    :func:`codebook_sizes` rows drawn by ``draw(rng, count)`` on
    ``stream(seed_public, CODEBOOK_KEY)``, then the admissible ones marked
    on ``stream(seed_secret, CODEBOOK_KEY)``."""
    count, n_admissible = codebook_sizes(config)
    rows = draw(stream(config.seed_public, CODEBOOK_KEY), count)
    return rows, mark_admissible(stream(config.seed_secret, CODEBOOK_KEY), count, n_admissible)


def mark_admissible(rng: np.random.Generator, count: int, n_admissible: int) -> np.ndarray:
    """Admissible mask: the head of a keyed pseudorandom permutation of the
    indices, which is a uniformly random subset."""
    admissible = np.zeros(count, dtype=bool)
    admissible[rng.permutation(count)[:n_admissible]] = True
    return admissible


def substitute(cb):
    """Attacker channel that submits a uniformly drawn codeword other than
    the encoder's, each row drawing again while its draw equals the
    encoder's codeword.

    Raises ValueError unless the codebook holds two distinct codewords,
    without which the redraw would never end.
    """
    rows = cb.rows
    if not (rows != rows[0]).any():
        raise ValueError("codeword substitution needs two distinct codewords")

    def attack(x, draws):
        y = np.empty_like(x)
        todo = np.arange(len(x))
        while todo.size:
            k = draws.integers(len(rows), todo)
            hit = (rows[k] == x[todo]).all(axis=1)
            y[todo[~hit]] = rows[k[~hit]]
            todo = todo[hit]
        return y
    return attack


def run_trials(cb, trials: int, seed: int, source, channel, *, encode_radius: float,
               decode_radius: float, attacked: bool = False, marking=None,
               tag_check=None) -> TrialStats:
    """source -> encode -> channel or attacker -> decode over a
    :class:`Codebook`, tallied over trials.

    Sources and channels draw a block of trials at once: ``source(draws)``
    returns one source row per trial of the block and ``channel(x, draws)``
    one channel output per codeword row of ``x``, where ``draws`` are the
    :class:`Streams` of those trials (a per-trial draw goes through
    :meth:`Streams.each`).  Trial t's source and reference channel draw from
    ``(seed, (1, t))``, in that order; when ``attacked`` the channel is an
    attacker drawing from ``(seed, (2, t))`` and every encoded trial is an
    attack, won by a wrong reconstruction.  The encoder takes the nearest
    admissible codeword within ``encode_radius``; the decoder the nearest
    codeword, rejected beyond ``decode_radius`` and when forbidden
    (``marking(ts)`` returns a ``(len(ts), count)`` bool array, one
    admissible mask per trial of the block ``ts``, replacing the codebook's); a given ``tag_check(encoded,
    decoded, draws)`` replaces the admissibility check: it returns one
    verdict per trial the decoder accepted so far, given their codeword
    indices and the channel's streams, which it may go on drawing from.

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
        draws = streams(seed, TRIAL_KEY, ts)
        sources = source(draws)
        masks = None if marking is None else marking(ts)
        idx, dist = cb.nearest(sources, True if masks is None else masks, encode_radius)
        ok = np.flatnonzero(dist <= encode_radius)
        enc_fail += len(ts) - ok.size
        if not ok.size:
            continue
        idx, sources, x = idx[ok], sources[ok], cb.rows[idx[ok]]
        d_e = cb.distortion(idx, sources)
        de.extend(d_e.tolist())
        channel_draws = streams(seed, ATTACK_KEY, ts.start + ok) if attacked else draws.take(ok)
        k, dist = cb.nearest(channel(x, channel_draws), radius=decode_radius)
        accept = dist <= decode_radius
        if tag_check is None:
            accept &= cb.admissible[k] if masks is None else masks[ok, k]
        else:
            acc = np.flatnonzero(accept)
            accept[acc] = tag_check(idx[acc], k[acc], channel_draws.take(acc))
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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    z = 1.96
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)
