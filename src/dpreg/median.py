"""Exponential-mechanism private median over a clipped range.

The mechanism clips the values to [clip_lo, clip_hi], splits that range into
the intervals between consecutive sorted values (range endpoints included as
sentinels), scores each interval by how balanced the counts on either side of
it are, and samples an interval with probability proportional to
``length * exp(epsilon * utility / 2)``, then a uniform point inside it.
The rank utility has add/remove sensitivity 1, so the release is epsilon-DP.

One weight pass serves every budget and every list of a call, and one
sampler reads it (DECISIONS.md, D9). A weight is its interval's length
times a rank factor from one table per list size and budgets (D13), so a
draw runs no ``exp`` per list; rows that the table cannot hold to
e^-600 of their largest weight take a log-domain pass instead.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .noise import RandomStream, _as_epsilon, _as_float

# Width of the blocks whose sums locate the picked interval.
_BLOCK = 64
# Exponents at or below this give weight 0, which keeps numpy's SIMD exp
# on its fast path: it leaves it near -707.7.
_DEAD_BELOW = -705.0
# What numpy's exp gives there: subtracting it zeroes a clamped weight.
_DEAD_WEIGHT = float(np.exp(np.array([_DEAD_BELOW]))[0])


def _check_clip(clip_lo: float, clip_hi: float) -> None:
    # A finite span of the bounds as floats implies finite bounds; the interval lengths need it.
    if not (clip_lo < clip_hi and math.isfinite(_as_float(clip_hi) - _as_float(clip_lo))):
        raise ValueError("clip range must be finite with lower < upper, got "
                         f"[{_as_float(clip_lo)}, {_as_float(clip_hi)}]")


def _check_call(values, epsilon, clip_lo: float, clip_hi: float) -> tuple:
    """``values`` and ``epsilon`` of a public call, checked; NaN, which no clip holds, raises."""
    epsilon = _as_epsilon(epsilon)
    _check_clip(clip_lo, clip_hi)
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        raise ValueError("median values must not be NaN")
    return values, epsilon


def _prepare(pools, clip_lo: float, clip_hi: float) -> np.ndarray:
    """Interval edges of each pool, ``(L, m + 2)``: clip_lo, the sorted clipped values, clip_hi.

    A pool is a sequence of array-likes whose concatenation, as float64, is
    one median's values; every pool holds m values in all.
    """
    pools = [[np.asarray(part, dtype=np.float64) for part in pool] for pool in pools]
    m = sum(part.size for part in pools[0])
    edges = np.empty((len(pools), m + 2))
    edges[:, 0], edges[:, -1] = clip_lo, clip_hi
    values = edges[:, 1:-1]
    for row, pool in zip(values, pools):
        np.concatenate(pool, out=row)
    values.clip(clip_lo, clip_hi, out=values)
    values.sort(axis=1)
    return edges


def _minus_ranks(m: int) -> np.ndarray:
    """Minus the rank penalty of each of the m + 1 intervals, ``-r_i``.

    r_i = |i - m/2| - (m mod 2)/2: 0 at the best ranks, m // 2 and
    (m + 1) // 2, and a whole number elsewhere, so every value is exact.
    """
    minus_rank = np.arange(m + 1, dtype=np.float64)
    after = (m + 1) // 2 - minus_rank
    minus_rank -= m // 2
    return np.minimum(minus_rank, after, out=minus_rank)


def _width(m: int) -> int:
    """Columns of the weight rows of m values: the m + 1 intervals padded to whole blocks."""
    return (m // _BLOCK + 1) * _BLOCK


@functools.lru_cache(maxsize=1)
def _rank_table(m: int, halves: tuple) -> np.ndarray:
    """The rank factors of m values, ``(B, width)``: ``exp(-halves[j] * r_i)``, read-only.

    Like every weight here, the factor is ``exp(max(a, -705)) -
    exp(-705)``: exactly 1 at the best ranks, and exactly 0 where ``a <=
    _DEAD_BELOW`` and on the columns past m that pad the width to whole
    blocks. The last table built is kept, so that lists of one size at the
    same budgets, such as a draw's run of pairs, share it (DECISIONS.md, D23).
    """
    minus_rank = _minus_ranks(m)
    table = np.zeros((len(halves), _width(m)))
    factors = table[:, : m + 1]
    # From h = 705 on, every factor but the best ranks' is 0, so capping h
    # there changes none and keeps h r finite at any epsilon.
    np.multiply(np.minimum(halves, -_DEAD_BELOW)[:, None], minus_rank, out=factors)
    np.maximum(factors, _DEAD_BELOW, out=factors)
    np.exp(factors, out=factors)
    factors -= _DEAD_WEIGHT
    table.setflags(write=False)
    return table


def _trust_floor(span: float) -> float:
    """The least row maximum at which a table row holds every weight to e^-600 of it.

    A table weight is off by at most ``span * exp(-705)`` (the factor's
    clamp, on a length of at most the clip span) plus 2^-1074 (a product
    that underflows) (DECISIONS.md, D13).
    """
    return math.exp(600.0) * (span * _DEAD_WEIGHT + 2.0**-1074)


def _weights(edges: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """Unnormalized interval weights, ``(B, L, width)``, at each half-budget ``halves[j]``.

    Entry (j, l, i) is interval i's length in pool l times the factor
    (j, i) of ``_rank_table``, and 0 on the padding columns. A row whose
    largest weight is below ``_trust_floor`` of the clip span, as when the
    best ranks tie or are tiny, gets ``_log_weights`` instead.
    """
    m = edges.shape[1] - 2
    table = _rank_table(m, tuple(halves.tolist()))
    w = np.empty((halves.size, edges.shape[0], table.shape[1]))
    # Each pool's lengths go straight into its first weight row, which
    # every other budget's row reads before it is scaled itself.
    lengths = w[0, :, : m + 1]
    np.subtract(edges[:, 1:], edges[:, :-1], out=lengths)
    w[0, :, m + 1 :] = 0.0
    floor = _trust_floor(edges[0, -1] - edges[0, 0])
    # The best ranks' factor is 1, so a pool whose best length reaches the
    # floor keeps every row; the others are checked row by row.
    best = np.maximum(lengths[:, m // 2], lengths[:, (m + 1) // 2])
    short = (best < floor).nonzero()[0]
    if halves.size > 1:
        np.multiply(w[:1], table[1:, None, :], out=w[1:])
    w[0] *= table[0]
    for l in short:
        rows = (w[:, l].max(axis=1) < floor).nonzero()[0]
        w[rows, l, : m + 1] = _log_weights(edges[l], halves[rows])
    return w


def _log_weights(edges: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """The weights of one pool's m + 1 intervals, ``(b, m + 1)``, in the log domain.

    With ``a = log(length) - halves[j] * (r_i - r*)``, where r* is the
    least rank penalty of a positive-length interval, less its row's
    maximum, the weight is ``exp(max(a, -705)) - exp(-705)``. The best
    positive-length intervals thus keep their log lengths at any
    epsilon, and a penalty that overflows, or a zero length, gives 0.
    Where r* is 0 the shift subtracts nothing, so the weights are those of
    the unshifted penalty, bit for bit.
    """
    lengths = edges[1:] - edges[:-1]
    minus_rank = _minus_ranks(lengths.size - 1)
    # Zero-length intervals nearer the centre than r* keep their -inf log
    # length, so their shift is clamped at 0.
    minus_rank -= minus_rank[lengths > 0].max()
    np.minimum(minus_rank, 0.0, out=minus_rank)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.multiply(halves[:, None], minus_rank)
        a += np.log(lengths, out=lengths)
    a -= a.max(axis=1, keepdims=True)
    np.maximum(a, _DEAD_BELOW, out=a)
    np.exp(a, out=a)
    a -= _DEAD_WEIGHT
    return a


def _locate(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of the interval each row (j, l) of ``w`` picks at ``u[l]``, ``(B, L)``.

    The pick is the first interval whose prefix sum exceeds u * total.
    Block sums find the block, and one sequential prefix inside it the
    interval: a prefix passes only where it grows, so a pick has positive
    weight. Where the prefix inside the block never passes, as when
    u * total rounds to the total, the row takes the last interval of
    positive weight up to that block.
    """
    blocks = w.reshape(-1, w.shape[2] // _BLOCK, _BLOCK)
    rows = np.arange(blocks.shape[0])
    ends = np.zeros((rows.size, blocks.shape[1] + 1))  # weight before each block, then the total
    np.einsum("rbk->rb", blocks, out=ends[:, 1:])
    np.add.accumulate(ends, axis=1, out=ends)
    target = (u * ends[:, -1].reshape(w.shape[:2])).ravel()
    # Counting only the inner block ends keeps a target at the total in the last block.
    block = (ends[:, 1:-1] <= target[:, None]).sum(axis=1)
    inner = np.add.accumulate(blocks[rows, block], axis=1)
    pos = (inner <= (target - ends[rows, block])[:, None]).sum(axis=1)
    idx = block * _BLOCK + pos
    for r in (pos == _BLOCK).nonzero()[0]:
        idx[r] = (blocks[r, : block[r] + 1].ravel() > 0.0).nonzero()[0][-1]
    return idx.reshape(w.shape[:2])


def median_interval_probs(values, epsilon: float, clip_lo: float, clip_hi: float):
    """Interval edges and selection probabilities of the median mechanism.

    Returns ``(edges, probs)`` where ``edges`` has m + 2 entries (clip_lo,
    the m clipped sorted values, clip_hi) and ``probs[i]`` is the probability
    of picking the interval ``[edges[i], edges[i + 1]]``. Interval i has i
    values below it and m - i at or above, giving rank utility
    ``-|i - m/2|``; zero-length intervals (tied values) get zero mass.
    These are the weights :func:`dp_median` samples: some below e^-600 of
    the largest are set to 0, and none larger is (DECISIONS.md, D13). No
    ``epsilon * m`` product can overflow them. At an epsilon so large that
    every other weight rounds away, the best-ranked intervals of positive
    length share the mass by length. A NaN value raises ValueError.
    """
    values, epsilon = _check_call(values, epsilon, clip_lo, clip_hi)
    edges = _prepare([[values]], clip_lo, clip_hi)
    w = _weights(edges, np.array([0.5 * epsilon]))[0, 0, : edges.shape[1] - 1]
    return edges[0], w / w.sum()


def _dp_medians(pools, epsilons, clip_lo: float, clip_hi: float, uniforms) -> np.ndarray:
    """``dp_median`` of each pool at each budget, ``(B, L)``, from one uniform pair per pool.

    ``pools`` holds L pools of equal size, each a sequence of arrays whose
    concatenation is one median's values. ``uniforms`` holds, for each pool
    in turn, the two uniforms a single ``dp_median`` call draws, interval
    pick first, so entry (j, l) equals ``dp_median(pool l, epsilons[j], ...)``
    on a stream that yields them. Together the outputs are not epsilon-DP
    at any one budget. The caller has checked every budget and the clip
    range, and no value is NaN.
    """
    edges = _prepare(pools, clip_lo, clip_hi)
    u_pick, u_point = np.asarray(uniforms, dtype=np.float64).reshape(len(pools), 2).T
    idx = _locate(_weights(edges, 0.5 * np.asarray(epsilons, dtype=np.float64)), u_pick)
    row = np.arange(len(pools))
    lo, hi = edges[row, idx], edges[row, idx + 1]
    return lo + (hi - lo) * u_point


def dp_median(
    values,
    epsilon: float,
    clip_lo: float,
    clip_hi: float,
    stream: RandomStream,
) -> float:
    """epsilon-DP median of ``values`` within [clip_lo, clip_hi].

    Consumes exactly two uniforms per call: one to pick an interval from
    :func:`median_interval_probs`, one for the point inside it, so replaying
    a stream replays the output. Empty input is one interval, the clip
    range, so it returns a uniform point of that range; it draws the same
    two uniforms, and a single value gives the same law. ±inf are clipped,
    and a NaN value raises ValueError before a uniform is drawn.
    """
    values, epsilon = _check_call(values, epsilon, clip_lo, clip_hi)
    return float(_dp_medians([[values]], (epsilon,), clip_lo, clip_hi, stream.uniform(2))[0, 0])
