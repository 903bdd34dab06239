"""exact_sum and the group sums against math.fsum: the same double, bit for bit.

Every group sum in the package goes through the exact bins of
``exact_sum``, one chunk of records at a time, and seeded outputs depend on
those sums being exactly ``math.fsum``'s. The corpus
covers the cases where a plain float sum goes wrong: subnormals, values
spread over many exponents, and heavy cancellation between signs.
"""

import math
import tracemalloc

import numpy as np
import pytest

from dpreg.data import _CHUNK, Dataset, exact_sum
from dpreg.simplex import _cell_sums, _component_rows, _ss_rows, group_contributions

TINY = 2.0 ** -1074


def same_double(got: float, want: float) -> bool:
    return isinstance(got, float) and got.hex() == want.hex()


def corpus():
    """About 1,200 seeded vectors, each finite with magnitude at most 1."""
    rng = np.random.default_rng(20260418)
    yield "empty", np.empty(0)
    for v in (0.0, -0.0, 1.0, -1.0, TINY, -TINY, 0.1, 2.0 ** -1022):
        yield f"single {v!r}", np.array([v])
    for n in (1, 2, 17, 1000):
        yield f"zeros {n}", np.zeros(n)
        yield f"negative zeros {n}", -np.zeros(n)
    for i in range(200):
        n = int(rng.integers(1, 400))
        # subnormals down to 2^-1074, mixed with the smallest normals
        yield f"subnormal {i}", rng.integers(-(2 ** 53), 2 ** 53, n) * TINY
    for i in range(200):
        x = rng.random(int(rng.integers(1, 2000)))
        for k in (2, 3, 5, 8, 12):
            yield f"x**{k} {i}", x ** k
        yield f"x - x**2 {i}", x - x * x
    for i in range(200):
        n = int(rng.integers(1, 500))
        signs = rng.choice([-1.0, 1.0], n)
        yield f"exponents {i}", signs * rng.random(n) * 2.0 ** -rng.integers(0, 1070, n)
    for i in range(200):
        a = rng.random(int(rng.integers(1, 800)))
        small = rng.random(a.size) * 2.0 ** -rng.integers(30, 80, a.size)
        v = np.concatenate([a, -a, small, -small[: a.size // 2]])
        yield f"cancellation {i}", rng.permutation(v)
    for i in range(100):
        a = rng.random(int(rng.integers(1, 300))) * 0.5
        # each pair leaves one rounding error of a + eps behind
        yield f"near cancellation {i}", np.concatenate([a + 2.0 ** -52, -a, [2.0 ** -60]])


CORPUS = list(corpus())


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 1000


def test_matches_fsum_bit_for_bit():
    for name, v in CORPUS:
        assert same_double(exact_sum(v), math.fsum(v)), name


def test_input_longer_than_one_chunk():
    rng = np.random.default_rng(7)
    n = 3 * _CHUNK + 5
    cases = {
        "uniform": rng.random(n),
        "largest below one": np.full(n, 1.0 - 2.0 ** -53),
        "ones and tiny": np.where(rng.random(n) < 0.5, 1.0, TINY),
        "cancellation": np.concatenate([rng.random(n // 2), -rng.random(n // 2)]),
    }
    for name, v in cases.items():
        assert same_double(exact_sum(v), math.fsum(v)), name


def test_accepts_strided_views_and_lists():
    rng = np.random.default_rng(3)
    m = rng.random((500, 3))
    assert same_double(exact_sum(m[:, 1]), math.fsum(m[:, 1]))
    values = [0.1, 0.2, 0.3, -0.6]
    assert same_double(exact_sum(values), math.fsum(values))


@pytest.mark.parametrize("n", [0, 1, 1000])
def test_zero_total_is_positive_zero(n):
    v = np.concatenate([np.full(n, 0.25), np.full(n, -0.25), [-0.0]])
    assert same_double(exact_sum(v), 0.0)


def fsum_hex(rows):
    return [math.fsum(row.tolist()).hex() for row in rows]


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_chunked_group_sums_equal_fsum_of_full_rows(n):
    rng = np.random.default_rng(n)
    x, y = rng.random(n), rng.random(n)
    x[:: 7] = np.round(x[:: 7] * 4) / 4  # exact quarters, 0 and 1 included
    ds = Dataset(x, y)
    for d in (1, 2, 3, 4):
        g1, g2 = group_contributions(x, y, d)  # full-length columns
        want = fsum_hex(np.concatenate([g1, g2], axis=1).T)
        got = _cell_sums(ds, _component_rows, d, 3 * d + 3)
        assert [v.hex() for v in got.tolist()] == want, d
    xy, xx = x * y, x * x
    want = fsum_hex([x, 1.0 - x, y, 1.0 - y, xy, 1.0 - xy, xx, 1.0 - xx])
    assert [v.hex() for v in _cell_sums(ds, _ss_rows, 1, 8).tolist()] == want


def test_group_sums_hold_one_chunk_of_rows():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.random(1 << 20), rng.random(1 << 20))  # 8 MB per coordinate
    tracemalloc.start()
    try:
        _cell_sums(ds, _component_rows, 3, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
