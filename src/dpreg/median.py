"""Exponential-mechanism private median over a clipped range.

The mechanism clips the values to [clip_lo, clip_hi], splits that range into
the intervals between consecutive sorted values (range endpoints included as
sentinels), scores each interval by how balanced the counts on either side of
it are, and samples an interval with probability proportional to
``length * exp(epsilon * utility / 2)``, then a uniform point inside it.
The rank utility has add/remove sensitivity 1, so the release is epsilon-DP.

One weight pass serves every budget and every list of a call, and one
sampler reads it (DECISIONS.md, D9). A weight below ``exp(_DEAD_BELOW)``
times the largest is set to 0, so ``exp`` never leaves its fast path.
"""

from __future__ import annotations

import math

import numpy as np

from .noise import RandomStream, _as_epsilon

# Width of the blocks whose sums locate the picked interval.
_BLOCK = 64
# Log weights, less their row's maximum, at or below this get weight 0.
# numpy's SIMD exp leaves its fast path near -707.7; the mass dropped is
# below m * 1e-306 of the total, far under the 2^-53 grid of the uniforms.
_DEAD_BELOW = -705.0
# What numpy's exp gives there: subtracting it zeroes a clamped weight.
_DEAD_WEIGHT = float(np.exp(np.array([_DEAD_BELOW]))[0])


def _check_clip(clip_lo: float, clip_hi: float) -> None:
    # A finite span implies finite bounds; the interval lengths need it.
    if not (clip_lo < clip_hi and math.isfinite(clip_hi - clip_lo)):
        raise ValueError(f"clip range must be finite with lower < upper, got [{clip_lo}, {clip_hi}]")


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


def _weights(edges: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """Unnormalized interval weights, ``(B, L, width)``, at each half-budget ``halves[j]``.

    With ``a = log(length) - halves[j] * (|i - m/2| - (m mod 2)/2)``, the
    log weight the mechanism defines, less its row's maximum, entry (j, l, i) is
    ``exp(max(a, _DEAD_BELOW)) - exp(_DEAD_BELOW)``: ``exp(a)`` where ``a``
    is above -667, and exactly 0 where ``a <= _DEAD_BELOW`` and on the
    columns past m that pad the width to whole blocks.
    """
    m = edges.shape[1] - 2
    width = -(-(m + 1) // _BLOCK) * _BLOCK
    w = np.empty((halves.size, edges.shape[0], width))
    with np.errstate(divide="ignore", over="ignore"):
        # Each row starts as minus its rank penalty, which overflows to
        # -inf, weight 0, at a huge epsilon, as it should. The best rank's is
        # 0, so no epsilon rounds its log lengths away (even m shifts by 0.0).
        np.multiply(-halves[:, None, None],
                    np.abs(np.arange(width) - m / 2.0) - (m % 2) / 2.0, out=w)
        # Then it adds its pool's log lengths, one pool at a time so that
        # only one row of them is alive. log(0) = -inf marks a zero-length
        # interval, and the padding past m gets weight 0 too.
        for l, row in enumerate(edges):
            log_len = row[1:] - row[:-1]
            w[:, l, : m + 1] += np.log(log_len, out=log_len)
        w[:, :, m + 1 :] = -np.inf
        top = w.max(axis=2, keepdims=True)
        # Where every positive-length interval's rank penalty overflowed, the
        # mechanism's law in doubles (exp(-eps/2) is 0) is the positive-length
        # intervals of best rank, by length. Only a huge halves * m/2 overflows.
        if max(halves.tolist()) * (m / 2.0) == math.inf:
            for j, l in zip(*np.isneginf(top[:, :, 0]).nonzero()):
                log_len = np.log(np.diff(edges[l]))
                rank = np.where(log_len > -np.inf, np.abs(np.arange(m + 1) - m / 2.0), np.inf)
                w[j, l, : m + 1] = np.where(rank == rank.min(), log_len, -np.inf)
                top[j, l] = w[j, l].max()
        w -= top
        np.maximum(w, _DEAD_BELOW, out=w)
        np.exp(w, out=w)
        w -= _DEAD_WEIGHT
    return w


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
    Weights are normalized in log space with max-subtraction, so large
    ``epsilon * m`` products cannot overflow. These are the weights
    :func:`dp_median` samples, those below ``exp(-705)`` of the largest
    set to 0. Where every positive-length interval's rank penalty overflows,
    the positive-length intervals of best rank share the mass by length.
    """
    epsilon = _as_epsilon(epsilon)
    _check_clip(clip_lo, clip_hi)
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
    range.
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
    two uniforms, and a single value gives the same law.
    """
    epsilon = _as_epsilon(epsilon)
    _check_clip(clip_lo, clip_hi)
    return float(_dp_medians([[values]], (epsilon,), clip_lo, clip_hi, stream.uniform(2))[0, 0])
