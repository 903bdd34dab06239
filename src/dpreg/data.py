"""Bounded datasets: validated records in the unit square and rescaling.

Every mechanism in this package assumes records live in [0, 1]^2; that bound
is what makes the per-record sensitivity analysis true. ``Dataset`` enforces
it once at construction, and ``normalize`` maps raw data with known bounds
into the unit square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np


class Record(NamedTuple):
    """One (x, y) observation; both coordinates must lie in [0, 1]."""

    x: float
    y: float


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
            if not (lo < hi and math.isfinite(lo) and math.isfinite(hi - lo)):
                raise ValueError(f"{axis} bounds must be finite and satisfy {axis}_min < "
                                 f"{axis}_max with a finite span, got [{lo}, {hi}]")

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
    copied and marked read-only to keep the cache honest: a Dataset never
    shares its caller's memory, so no later write can change a record
    without its sums.
    """

    __slots__ = ("x", "y", "cache")

    def __init__(self, x, y):
        self._hold(np.array(x, dtype=np.float64, order="C"),
                   np.array(y, dtype=np.float64, order="C"))

    @classmethod
    def _owning(cls, x: np.ndarray, y: np.ndarray) -> "Dataset":
        """A Dataset on ``x`` and ``y`` themselves, not on copies.

        For new contiguous float64 arrays that nothing else holds, such as
        ``normalize``'s rescaled columns, where a copy would only raise the
        peak memory.
        """
        ds = cls.__new__(cls)
        ds._hold(x, y)
        return ds

    def _hold(self, x: np.ndarray, y: np.ndarray) -> None:
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
            raise ValueError(
                f"x and y must be 1-d arrays of equal length, got shapes {x.shape} and {y.shape}"
            )
        _check_unit_interval(x, "x")
        _check_unit_interval(y, "y")
        x.setflags(write=False)
        y.setflags(write=False)
        self.x = x
        self.y = y
        self.cache: dict = {}

    @classmethod
    def from_records(cls, records: Iterable[tuple]) -> "Dataset":
        pairs = _as_pairs(records)
        return cls(pairs[:, 0], pairs[:, 1])

    def __len__(self) -> int:
        return self.x.size

    def __iter__(self):
        for xi, yi in zip(self.x, self.y):
            yield Record(float(xi), float(yi))

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


def _check_unit_interval(values: np.ndarray, name: str) -> None:
    if values.size == 0:
        return
    bad = ~((values >= 0.0) & (values <= 1.0))  # also catches NaN
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"record {i}: {name}={values[i]!r} outside [0, 1]; "
            "rescale with normalize() and explicit bounds first"
        )


def normalize(data, bounds: Bounds) -> Dataset:
    """Affinely map raw (x, y) pairs from ``bounds`` into the unit square.

    Raises ValueError naming the first offending record if any point falls
    outside the declared bounds.
    """
    raw = _as_pairs(data)
    x, y = raw[:, 0], raw[:, 1]
    for name, v, lo, hi in (
        ("x", x, bounds.x_min, bounds.x_max),
        ("y", y, bounds.y_min, bounds.y_max),
    ):
        bad = ~((v >= lo) & (v <= hi))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"record {i}: {name}={v[i]!r} outside declared bounds [{lo}, {hi}]"
            )
    # Rescaled in place: one new array per coordinate, which the Dataset
    # keeps; the values are unchanged.
    nx = x - bounds.x_min
    nx /= bounds.x_span
    ny = y - bounds.y_min
    ny /= bounds.y_span
    return Dataset._owning(nx, ny)


# Each double splits exactly into a high part, its top 27 significand bits,
# and a low part, the remaining 26. Within one exponent bin every high part
# is an integer below 2^27 times one unit, and every low part an integer
# below 2^26 times a smaller one, so each bin sums exactly while it holds at
# most 2^26 terms. Chunks of 2^16 stay far inside that bound and in cache;
# the group sums build their per-record rows one chunk of records at a time.
_HIGH_MASK = -(1 << 26)
_CHUNK = 1 << 16


def exact_sum(values) -> float:
    """Correctly rounded sum of ``values``, bit-identical to ``math.fsum``.

    Input must be finite with magnitude at most 1; every caller sums
    components of records in the unit square. Both halves of every double
    are accumulated per biased exponent with ``np.bincount`` (exact, see
    above), and ``math.fsum`` of the few non-zero bin sums rounds their
    exact total once, as ``math.fsum`` of the values would (Demmel and
    Hida, "Accurate and Efficient Floating Point Summation", 2003).
    """
    bins = _exact_bins(np.ascontiguousarray(values, dtype=np.float64))
    return math.fsum(np.concatenate(bins)) if bins else 0.0


def _exact_bins(values: np.ndarray) -> list:
    """Arrays of the non-zero exponent-bin sums of ``values``, ``_CHUNK`` at a time.

    Each bin sum is exact, so the bins of any split of a vector, gathered
    into one ``math.fsum``, give its correctly rounded sum. ``values`` must
    be a contiguous float64 array.
    """
    bins = []
    for start in range(0, values.size, _CHUNK):
        chunk = values[start : start + _CHUNK]
        bits = chunk.view(np.int64)
        exponent = (bits >> 52) & 0x7FF
        high = (bits & _HIGH_MASK).view(np.float64)
        for part in (high, chunk - high):
            sums = np.bincount(exponent, weights=part)
            bins.append(sums[sums != 0.0])
    return bins


def _chunked_exact_sums(ds: Dataset, count: int, rows) -> np.ndarray:
    """``count`` exact sums over the records of ``ds``, ``_CHUNK`` records at a time.

    ``rows(x, y)`` yields ``(i, row)`` for the records of one chunk: the
    values that sum i adds, computed elementwise from the chunk's
    coordinates. Only one chunk's rows and the exact bins of each sum are
    alive at once, and one ``math.fsum`` per sum rounds the exact total of
    its bins, so sum i equals ``math.fsum`` of row i over all records, bit
    for bit.
    """
    bins = [[] for _ in range(count)]
    for start in range(0, len(ds), _CHUNK):
        stop = start + _CHUNK
        for i, row in rows(ds.x[start:stop], ds.y[start:stop]):
            bins[i] += _exact_bins(row)
    return np.array([math.fsum(np.concatenate(b)) if b else 0.0 for b in bins])
