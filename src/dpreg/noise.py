"""Seeded randomness, Laplace sampling, privacy budgets and their audit ledger.

All mechanism randomness flows through :class:`RandomStream` so that a run is
fully determined by ``(seed, stream_index)``. Laplace draws use the explicit
inverse CDF (one uniform per draw) and normals use Box-Muller, so the draw
sequence is stable across numpy versions; only the underlying uniform bit
stream is delegated to PCG64. ``mechanisms._fit`` writes each ledger from
the budget split of the mechanism's record in ``mechanisms.MECHANISMS``.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np


# dp_ss's 4/epsilon is the largest Laplace scale per budget of any release;
# the registry sits above this module, so a test pins the 4 to it (D15).
# A draw is at most 52 ln 2 (about 36.0) scales, since u is raised to
# 2^-53; the floor allows 53 ln 2 (about 36.7), which leaves 2% of
# sqrt(max double) for the exact sum, so at or above it every noisy sum,
# and the product of any two, is finite. It is about 1.1e-152.
_LARGEST_SCALE = 4
_EPSILON_FLOOR = _LARGEST_SCALE * 53 * math.log(2) / math.sqrt(np.finfo(np.float64).max)


def _as_float(value, name: str | None = None) -> float:
    """``value`` as a float for a finiteness check; a bool or non-real is NaN, or raises if named."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):  # float() reads True, "1"
        if name is not None:
            raise ValueError(f"{name} must be a number, got {value!r}")
        return math.nan
    try:
        return float(value)
    except OverflowError:  # past the double range, as 10**400 is: an infinity of its sign
        return math.inf if value > 0 else -math.inf


def _as_epsilon(budget) -> float:
    """``budget`` as a float epsilon; every budget's one check.

    Raises ValueError for a bool or any non-real, NaN, infinity, and values below
    ``_EPSILON_FLOOR``, where the largest draws and their products overflow.
    """
    eps = _as_float(budget, "epsilon")
    if not (eps >= _EPSILON_FLOOR and math.isfinite(eps)):
        raise ValueError(
            f"epsilon must be positive and finite, with a finite Laplace scale "
            f"{_LARGEST_SCALE:g}/epsilon, got {eps}; the smallest epsilon at which every "
            f"noisy sum, and the product of two, stays finite is {_EPSILON_FLOOR:.4g}"
        )
    return eps


class RandomStream:
    """Deterministic random source identified by (seed, stream_index).

    Equal (seed, stream_index) pairs replay the same draw sequence;
    distinct stream indices under one seed give statistically independent
    substreams, so each Monte Carlo iteration can own its own stream. The
    PCG64 state is numpy's ``SeedSequence(entropy=seed,
    spawn_key=(stream_index,))``, computed by ``_pcg64_seeds`` (DECISIONS.md,
    D12). ``seed`` and ``stream_index`` must be non-negative integers; a
    bool, a float or a negative value raises ValueError.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        seed, stream_index = _as_index(seed, "seed"), _as_index(stream_index, "stream_index")
        self._start(seed, stream_index, _pcg64_seeds(seed, stream_index))

    def _start(self, seed: int, stream_index: int, words: np.ndarray) -> None:
        self.seed = seed
        self.stream_index = stream_index
        generator, pcg64 = _seeding()
        self._gen = generator(pcg64(_SeedWords(words)))

    @classmethod
    def _substreams(cls, seed: int, start: int, stop: int):
        """``cls(seed, i)`` for i in range(start, stop), each built as it is taken.

        The streams of a ``_Run``, seeded ``_SEED_BLOCK`` indices per array
        pass; each equals ``cls(seed, i)`` draw for draw. ``stop`` is at most
        2^32, the array path's limit; a larger one raises ValueError at the
        first draw.
        """
        return (stream for _, stream in _Run(None, seed, start, stop, cls))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed}, stream_index={self.stream_index})"

    def uniform(self, size=None, out=None):
        """Uniform draws on [0, 1), into ``out`` if given; a float when both are None."""
        return self._gen.random(size, out=out)

    def _laplace_u(self, size, out=None):
        """The uniforms that ``laplace`` reads, into ``out`` if given; a float when size is None."""
        return self._gen.random(size, out=out)

    def laplace(self, scale: float, size=None):
        """Centered Laplace draws via the inverse CDF, one uniform each.

        ``scale`` must be one positive, finite number; anything else, an
        array included, raises ValueError before a uniform is drawn. A draw
        is transformed in place, ``_BLOCK`` values at a time: it allocates
        the array of uniforms, which it overwrites with its result, and two
        scratch arrays of at most a block. Every value equals the unblocked
        expression's bit for bit (DECISIONS.md, D5).
        """
        b = _as_float(scale)
        if not (b > 0 and math.isfinite(b)):
            raise ValueError(f"Laplace scale must be one positive, finite number, got {scale!r}")
        unit = _unit_laplace(self._laplace_u(size), -b)
        return float(unit) if size is None else unit

    def normal(self, size=None):
        """Standard normal draws via Box-Muller (``_box_muller``): all u1, then all u2."""
        u1 = np.asarray(self._gen.random(size))
        out = _box_muller(u1, np.asarray(self._gen.random(size)))
        return float(out) if size is None else out

    def permutation(self, n: int) -> np.ndarray:
        """Uniformly random permutation of range(n)."""
        return self._gen.permutation(n)


@dataclass(frozen=True)
class _Run:
    """The pairs ``(data, cls(seed, i))``, i from ``start`` to ``stop``: a block on one dataset.

    Iterated, it yields them, each stream built as it is taken; a Laplace
    draw reads it whole instead, through ``laplace_u`` (DECISIONS.md, D24).
    """

    data: object
    seed: int
    start: int
    stop: int
    cls: type = RandomStream

    def __iter__(self):
        seed = _as_index(self.seed, "seed")
        for lo, block in self._seeds(seed):
            for i, words in enumerate(block, lo):
                stream = self.cls.__new__(self.cls)
                stream._start(seed, i, words)
                yield self.data, stream

    def _seeds(self, seed: int):
        """``(lo, words)`` per ``_SEED_BLOCK`` indices, ``words[i - lo]`` the seeds of index i."""
        start = _as_index(self.start, "stream_index")
        if self.stop > 1 << 32:
            raise ValueError(f"substreams stop at index 2**32, got stop={self.stop}")
        for lo in range(start, self.stop, _SEED_BLOCK):
            indices = np.arange(lo, min(lo + _SEED_BLOCK, self.stop), dtype=np.uint64)
            yield lo, _pcg64_seeds(seed, indices)

    def laplace_u(self, k: int) -> np.ndarray:
        """(N, k) uniforms, row i - start ``cls(seed, i)._laplace_u(k)``, read by any override."""
        if self.cls._laplace_u is not RandomStream._laplace_u:
            return np.array([stream._laplace_u(k) for _, stream in self]).reshape(-1, k)
        blocks = self._seeds(_as_index(self.seed, "seed"))
        return np.concatenate([np.empty((0, k))] + [_pcg64_uniforms(w, k) for _, w in blocks])


def _as_index(value, name: str) -> int:
    """``value`` as a non-negative int; numpy integers pass, bools and floats raise."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}") from None
    if index < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return index


def _as_count(value, name: str) -> int:
    """``value`` as a positive int, by the rules of ``_as_index``."""
    try:
        count = _as_index(value, name)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return count


# -- Seeding: numpy's SeedSequence, transcribed (DECISIONS.md, D12) -----------
#
# numpy's SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4,
# np.uint64), whose algorithm numpy's seeding policy (NEP 19) keeps fixed;
# a test compares the two byte for byte. Every value is a 32-bit word
# held in a Python int or a uint64 array: a product of two words fits in 64
# bits, so the one code runs on one index or on an array of them.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# Indices seeded, and streams drawn by ``_pcg64_uniforms``, in one array pass.
_SEED_BLOCK = 1024


@functools.cache
def _hash_steps(init: int, mult: int, count: int) -> tuple:
    """The ``(xor, mult)`` constants of ``count`` hash steps.

    Step k xors by ``init * mult^k`` mod 2^32 and multiplies by the next power.
    They depend on no data, so each count's are computed once, at first use.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return tuple(zip(consts[:-1], consts[1:]))


# The order in which the seed's pool words are mixed into each other.
_MIX_ORDER = tuple((src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE)
                   if src != dst)


def _pcg64_seeds(seed: int, index) -> np.ndarray:
    """The PCG64 seed words of stream ``index`` of ``seed``, as numpy computes them.

    ``index`` is an int, giving a (4,) uint64 array, or a uint64 array of
    indices below 2^32, giving one C-contiguous row of four per index.
    The seed is padded with zeros to the pool size, since a spawn key is
    given; its first four words are hashed into the pool and mixed into
    each other, and its further words, then the index's, are mixed into
    every pool word. Each step on Python ints is written out rather than
    called, which takes about a quarter off their cost. An array's one word
    is mixed into the four pool words in one (4, N) pass, since they do not
    depend on each other there, and the eight output words are one
    (2, 4, N) pass (D12).
    """
    words = _uint32_words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    array = isinstance(index, np.ndarray)
    extra = words[_POOL_SIZE:] + ([] if array else _uint32_words(index))
    count = _POOL_SIZE * (_POOL_SIZE + len(extra) + array)
    steps = iter(_hash_steps(_INIT_A, _MULT_A, count))
    pool = []
    for word, (xor, mult) in zip(words[:_POOL_SIZE], steps):
        value = (word ^ xor) * mult & _MASK32
        pool.append(value ^ value >> 16)
    for (src, dst), (xor, mult) in zip(_MIX_ORDER, steps):
        value = (pool[src] ^ xor) * mult & _MASK32
        value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
        pool[dst] = value ^ value >> 16
    for word in extra:
        for dst, (xor, mult) in zip(range(_POOL_SIZE), steps):
            value = (word ^ xor) * mult & _MASK32
            value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
            pool[dst] = value ^ value >> 16
    pool = np.array(pool, dtype=np.uint64)[:, None]
    if array:  # the four pool words take the index's one word at once, a row each
        tail = np.array(_hash_steps(_INIT_A, _MULT_A, count)[-_POOL_SIZE:], dtype=np.uint64)
        value = (index ^ tail[:, :1]) * tail[:, 1:] & _MASK32
        value = (_MIX_MULT_L * pool - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
        pool = value ^ value >> 16
    out = np.array(_hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE), dtype=np.uint64)
    xors, mults = out.T.reshape(2, 2, _POOL_SIZE, 1)
    value = (pool ^ xors) * mults & _MASK32
    state = (value ^ value >> 16).reshape(2 * _POOL_SIZE, -1)
    seeds = np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)
    return seeds if array else seeds[0]


def _uint32_words(n: int) -> list:
    """The 32-bit words of a non-negative int, least significant first; [0] for 0."""
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


# -- PCG64 by jumps: numpy's bit generator, transcribed (DECISIONS.md, D24) ----
#
# PCG64 steps its 128-bit state s to s M + inc and draws rotr64(hi ^ lo,
# hi >> 58) of the new state. Seeded with words (w0, w1, w2, w3), draw j
# (from 1) reads initstate M^(j+1) + inc (M^(j+1) + c_(j+1)), where
# initstate = w0 2^64 + w1, inc = 2 (w2 2^64 + w3) + 1 and
# c_t = 1 + M + ... + M^(t-1); Generator.random returns (draw >> 11) 2^-53.
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


@functools.cache
def _jumps(k: int) -> tuple:
    """Draws 1 to k's multipliers of initstate (row 0) and inc (row 1), in (2, 1, k) uint64 parts."""
    power, total, pairs = _PCG64_MULT, 1, []  # M^t and c_t, from t = 1
    for _ in range(k):
        power, total = power * _PCG64_MULT & _MASK128, total + power & _MASK128
        pairs.append((power, power + total & _MASK128))
    hi, lo = (np.array([[c >> shift & _MASK64 for c in row] for row in zip(*pairs)],
                       dtype=np.uint64)[:, None] for shift in (64, 0))
    return hi, lo, lo & _MASK32, lo >> 32


def _pcg64_uniforms(words: np.ndarray, k: int) -> np.ndarray:
    """(N, k): ``Generator.random(k)`` of the PCG64 seeded by each row of (N, 4) ``words``."""
    c_hi, c_lo, c_lo0, c_lo1 = _jumps(k)
    w0, w1, w2, w3 = words.T
    with np.errstate(over="ignore"):  # arrays wrap silently; a scalar operand would warn
        x_hi = np.stack([w0, w2 << 1 | w3 >> 63])[:, :, None]  # initstate, then inc, one pass
        x_lo = np.stack([w1, w3 << 1 | 1])[:, :, None]
        x0, x1 = x_lo & _MASK32, x_lo >> 32
        low = x1 * c_lo0 + (x0 * c_lo0 >> 32)  # the high half of x_lo c_lo, from 32-bit halves
        mid = x0 * c_lo1 + (low & _MASK32)
        hi = x1 * c_lo1 + (low >> 32) + (mid >> 32) + x_lo * c_hi + x_hi * c_lo
        lo = x_lo * c_lo
        s_lo = lo[0] + lo[1]
        s_hi = hi[0] + hi[1] + (s_lo < lo[0])
        x, rot = s_hi ^ s_lo, s_hi >> 58
        return ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0**-53


class _SeedWords:
    """Hands PCG64 the four uint64 words of ``_pcg64_seeds``, all it asks for.

    ``_seeding`` registers it as numpy's ``ISeedSequence``. PCG64 keeps it
    as its seed sequence, so it lives at module level, where pickle finds it.
    """

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@functools.cache
def _seeding():
    """numpy's Generator and PCG64, with ``_SeedWords`` registered as a seed sequence.

    Imported at the first stream, so that importing dpreg does not import
    ``numpy.random``.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    return Generator, PCG64


# Draws are transformed in place, this many values at a time, so the
# scratch of a bulk draw stays two blocks of floats.
_BLOCK = 1 << 14
# The smallest positive value Generator.random returns; u = 0 is raised to it.
_U_MIN = 2.0**-53


def _unit_laplace(u, neg_b=None):
    """Overwrite ``u`` with ``sign(t) * log1p(-2|t|)``, t = max(u, 2^-53) - 1/2, times ``neg_b``.

    F^{-1}(u) = -b * sign(u - 1/2) * ln(1 - 2|u - 1/2|), computed with
    log1p so values of u near 1/2 lose no precision. u = 0 is raised to
    2^-53, the smallest positive uniform, so no draw is infinite and the
    two extreme draws stay exact negatives. sign(.) * ln(.) is exact, so
    -b enters after the single rounding and every scale rounds the same
    real product it would round on its own. Laplace(b) draws are this at
    ``neg_b = -b``; with no ``neg_b`` it is the draw at b = -1, for the
    caller to scale by -b.

    ``u`` is a float or a float64 array; an array is overwritten and
    returned, a float gives a 0-d array. Each block of ``_BLOCK`` values
    runs the expression's operations in the same order into two scratch
    arrays of at most a block, so every value is bit-identical to it
    (DECISIONS.md, D5).
    """
    u = np.asarray(u, dtype=np.float64)
    flat = u.reshape(-1)
    t_buf = np.empty(min(flat.size, _BLOCK))
    a_buf = np.empty(t_buf.size)
    for start in range(0, flat.size, _BLOCK):
        out = flat[start:start + _BLOCK]
        t = t_buf[:out.size]
        a = a_buf[:out.size]
        np.maximum(out, _U_MIN, out=t)
        np.subtract(t, 0.5, out=t)
        np.abs(t, out=a)
        np.multiply(a, -2.0, out=a)
        np.log1p(a, out=a)
        # sign(t) goes to the output block: numpy 2.4 runs sign in place
        # over its input about 4x slower than into another array.
        np.sign(t, out=out)
        np.multiply(out, a, out=out)
        if neg_b is not None:
            np.multiply(out, neg_b, out=out)
    return u


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Overwrite ``u1`` with ``sqrt(-2 log1p(-u1)) * cos(2 pi u2)``; ``u2`` is scratch.

    The standard normals of Box-Muller, one per pair of uniforms. Each
    operation is the expression's, in its order, on arrays of any shape, so
    every value is bit-identical to it (DECISIONS.md, D18).
    """
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)
    np.multiply(u1, -2.0, out=u1)
    np.sqrt(u1, out=u1)
    np.multiply(u2, 2.0 * np.pi, out=u2)
    np.cos(u2, out=u2)
    return np.multiply(u1, u2, out=u1)


@dataclass(frozen=True)
class NoiseEvent:
    """One privacy-budget expenditure: which release, how much, what noise."""

    label: str
    epsilon: float
    scale: float | None = None


@dataclass
class NoiseLedger:
    """Audit trail of the budget consumed by one mechanism invocation.

    Mechanisms append one event per released query group; the sum of the
    ``epsilon`` fields equals the total budget spent, which the tests audit.
    """

    events: list[NoiseEvent] = field(default_factory=list)

    def record(self, label: str, epsilon: float, scale: float | None = None) -> None:
        self.events.append(NoiseEvent(label, epsilon, scale))

    def total_epsilon(self) -> float:
        return math.fsum(e.epsilon for e in self.events)
