"""Bounded datasets: validated records in the unit square and rescaling.

Every mechanism in this package assumes records live in [0, 1]^2; that bound
is what makes the per-record sensitivity analysis true. ``Dataset`` enforces
it once at construction, and ``normalize`` maps raw data with known bounds
into the unit square.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .noise import _as_float


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned box containing the raw data, used for rescaling."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        # An infinite span would map every value to 0 or NaN: a silent wrong fit.
        for axis, lo, hi in (("x", self.x_min, self.x_max), ("y", self.y_min, self.y_max)):
            if not (lo < hi and math.isfinite(_as_float(hi) - _as_float(lo))):
                raise ValueError(f"{axis} bounds must be finite and satisfy {axis}_min < "
                                 f"{axis}_max with a finite span, got "
                                 f"[{_as_float(lo)}, {_as_float(hi)}]")

    @property
    def x_span(self) -> float:
        return self.x_max - self.x_min

    @property
    def y_span(self) -> float:
        return self.y_max - self.y_min


class Dataset:
    """Immutable collection of records in the unit square.

    Sufficient sums are computed lazily and cached on the instance (see the
    ``cache`` dict used by the statistics modules), so fitting several
    mechanisms to one dataset pays for each sum once. The coordinates are
    views of a read-only block (``_rows``) to keep the cache honest: a
    Dataset never shares its caller's memory, so no later write can change
    a record without its sums.
    """

    __slots__ = ("x", "y", "cache")

    def __init__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
            raise ValueError(
                f"x and y must be 1-d arrays of equal length, got shapes {x.shape} and {y.shape}"
            )
        xy = np.empty((2, 1, x.size))
        xy[0, 0], xy[1, 0] = x, y
        (ds,) = self._rows(xy)  # the copies, checked and frozen as every block is
        self.x, self.y, self.cache = ds.x, ds.y, ds.cache

    @classmethod
    def _rows(cls, xy: np.ndarray) -> list:
        """A Dataset on each row of a new (2, D, n) float64 block, with no copy.

        Dataset k holds ``xy[0, k]`` as x and ``xy[1, k]`` as y. For blocks
        that nothing else holds, such as ``normalize``'s rescaled columns
        and the fresh datasets of ``evaluate._datasets``, where a copy would
        only cost time and peak memory. The block is range-checked once
        (``_check_rows``) and made read-only first, so every Dataset is a
        read-only view of a base that is read-only too, and no write can
        change a record under its cached sums.
        """
        _check_rows(xy)
        xy.setflags(write=False)
        datasets = []
        for x, y in zip(*xy):
            ds = cls.__new__(cls)
            ds.x, ds.y, ds.cache = x, y, {}
            datasets.append(ds)
        return datasets

    @classmethod
    def from_records(cls, records: Iterable[tuple]) -> "Dataset":
        pairs = _as_pairs(records)
        return cls(pairs[:, 0], pairs[:, 1])

    def __len__(self) -> int:
        return self.x.size

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)})"


def as_dataset(data) -> Dataset:
    """Coerce records, pairs, or a (n, 2) array into a ``Dataset``."""
    if isinstance(data, Dataset):
        return data
    return Dataset.from_records(data)


def _as_pairs(records) -> np.ndarray:
    """``records`` as an (n, 2) float array; an ndarray is converted whole, not row by row."""
    pairs = np.asarray(records if isinstance(records, np.ndarray) else list(records),
                       dtype=np.float64)
    if pairs.size == 0:
        return np.empty((0, 2))
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"records must be (x, y) pairs, got array shape {pairs.shape}")
    return pairs


_RESCALE_HINT = "rescale with normalize() and explicit bounds first"


def _check_range(values: np.ndarray, name: str, declared=None) -> None:
    """Raise ValueError naming the first of ``values`` outside [0, 1], or NaN.

    With ``declared = (lo, hi)``, ``normalize``'s bounds, the range is
    [lo, hi] and the message names the declared bounds. The value prints as
    a Python float, the same on every numpy (whose scalar repr changed in 2.0).
    """
    lo, hi = declared or (0.0, 1.0)
    bad = ~((values >= lo) & (values <= hi))  # also catches NaN
    if bad.any():
        i = int(np.argmax(bad))
        where = f"declared bounds [{lo}, {hi}]" if declared else f"[0, 1]; {_RESCALE_HINT}"
        raise ValueError(f"record {i}: {name}={float(values[i])!r} outside {where}")


def _check_rows(xy: np.ndarray) -> None:
    """Check that a (2, D, n) block of D datasets' coordinates lies in [0, 1].

    One min/max pair passes a block inside [0, 1]. Otherwise the datasets
    are checked in order, each x before its y, so the error names the same
    record, with the same message, as a block of the first that fails alone.
    """
    if xy.size and not (xy.min() >= 0.0 and xy.max() <= 1.0):  # also catches NaN
        for x, y in zip(*xy):
            _check_range(x, "x")
            _check_range(y, "y")


def normalize(data, bounds: Bounds) -> Dataset:
    """Affinely map raw (x, y) pairs from ``bounds`` into the unit square.

    Raises ValueError naming the first offending record if any point falls
    outside the declared bounds.
    """
    raw = _as_pairs(data)
    x, y = raw[:, 0], raw[:, 1]
    _check_range(x, "x", (bounds.x_min, bounds.x_max))
    _check_range(y, "y", (bounds.y_min, bounds.y_max))
    # Rescaled into a new block of one dataset, which the Dataset keeps; the
    # values are unchanged.
    xy = np.empty((2, 1, len(raw)))
    for out, v, lo, span in ((xy[0, 0], x, bounds.x_min, bounds.x_span),
                             (xy[1, 0], y, bounds.y_min, bounds.y_span)):
        np.subtract(v, lo, out=out)
        out /= span
    return Dataset._rows(xy)[0]


# Rump, Ogita and Oishi's error-free extraction ("Accurate Floating-Point
# Summation Part I: Faithful Rounding", SIAM J. Sci. Comput. 31(1), 2008).
# For a chunk of c values of magnitude at most 1, take sigma = 2^M with
# 2^M >= c + 2. Then q = (sigma + v) - sigma is exact, a multiple of
# 2^-53 sigma of magnitude at most (2^-M + 2^-53) sigma, and v - q is exact
# with magnitude at most 2^-53 sigma. Any partial sum of c such q is a
# multiple of 2^-53 sigma below sigma, so ``np.add.reduceat`` sums them
# exactly in whatever order it adds. The remainders meet the same bound at
# sigma * 2^(M - 53), so each further pass extracts the next 53 - M bits.
# Once sigma is at most 2^(-968 - M), the remainders are multiples of
# 2^-1074 whose sum stays below 2^-1021, so they too sum exactly. The group
# sums build their per-record rows one chunk of records at a time, and a
# chunk may hold the records of several datasets, each of which gets its
# own partials (DECISIONS.md, D17).
_CHUNK = 1 << 14


def exact_sum(values) -> float:
    """Correctly rounded sum of ``values``, bit-identical to ``math.fsum``.

    Every value must be finite with magnitude at most 1, as every component
    of a record in the unit square is; anything else raises ValueError
    before the extraction (see above), which would sum it wrongly.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not (np.abs(values) <= 1.0).all():  # also catches NaN
        raise ValueError("exact_sum takes finite values of magnitude at most 1")
    return float(_exact_sums([(values,)], 1, lambda v: ((0, v),))[0][0])


def _extract(row: np.ndarray, starts: np.ndarray, q: np.ndarray, r: np.ndarray) -> list:
    """The exact terms of each segment's sum of ``row``, as lists of floats.

    Segment s of ``row`` runs from ``starts[s]`` to the next start; ``q``
    and ``r`` are scratch arrays as long as ``row``. Runs extraction passes
    (see above), each adding one exact partial per segment, until at most
    1/256 of the remainders are not zero; those join their segment's terms.
    """
    m = (row.size + 1).bit_length()
    sigma, partials, src = math.ldexp(1.0, m), [], row
    while True:
        np.add(src, sigma, out=q)
        q -= sigma
        np.subtract(src, q, out=r)
        partials.append(np.add.reduceat(q, starts))
        src = r
        if len(partials) > 1:
            rest = np.flatnonzero(r != 0.0)  # a mask's nonzero is far faster than r's
            if rest.size <= row.size >> 8:
                break
            if sigma <= math.ldexp(1.0, -968 - m):
                partials.append(np.add.reduceat(r, starts))
                rest = rest[:0]
                break
        sigma = math.ldexp(sigma, m - 53)
    terms = np.array(partials).T.tolist()
    if rest.size:
        left = r[rest].tolist()
        cuts = np.searchsorted(rest, starts).tolist() + [rest.size]
        for s, t in enumerate(terms):
            t += left[cuts[s] : cuts[s + 1]]
    return terms


def _exact_sums(columns: list, count: int, rows) -> list:
    """``count`` exact sums over each dataset of ``columns``, ``_CHUNK`` records at a time.

    ``columns`` holds one tuple of equal-length arrays per
    dataset, such as ``(ds.x, ds.y)``. The records of all datasets are cut
    into chunks of ``_CHUNK``, and each chunk's columns are copied into
    buffers that every chunk reuses. ``rows(*chunk)``
    yields ``(i, row)``: the values that sum i adds, computed elementwise,
    each of magnitude at most 1. ``_extract`` splits each row exactly into
    a few terms per dataset, and one ``math.fsum`` per dataset and sum
    rounds their exact total, so sum i of a dataset equals ``math.fsum`` of
    row i over its records, bit for bit. Returns one array of ``count`` sums
    per dataset; a dataset with no records sums to zeros.
    """
    terms = [[[] for _ in range(count)] for _ in columns]
    bounds = np.cumsum([0] + [len(cols[0]) for cols in columns]).tolist()
    width = min(bounds[-1], _CHUNK)
    joined = [np.empty(width) for _ in columns[0]] if columns else []
    q, r = np.empty(width), np.empty(width)
    for first in range(0, bounds[-1], _CHUNK):
        end = min(first + _CHUNK, bounds[-1])
        # (dataset, lo, hi) for each dataset's records lo to hi in this chunk.
        # One with no records has none: np.add.reduceat reads a repeated
        # start as one value, not as 0.
        held = range(bisect.bisect_right(bounds, first) - 1, bisect.bisect_left(bounds, end))
        segments = [(k, max(first, bounds[k]) - bounds[k], min(end, bounds[k + 1]) - bounds[k])
                    for k in held if bounds[k] < bounds[k + 1]]
        size = end - first
        chunk = [np.concatenate([columns[k][j][lo:hi] for k, lo, hi in segments],
                                out=buf[:size]) for j, buf in enumerate(joined)]
        starts = np.cumsum([0] + [hi - lo for _, lo, hi in segments[:-1]])
        for i, row in rows(*chunk):
            for (k, _, _), t in zip(segments, _extract(row, starts, q[:size], r[:size])):
                terms[k][i] += t
    return [np.array([math.fsum(t) for t in per]) for per in terms]
