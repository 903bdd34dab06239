"""exact_sum and the group sums against math.fsum: the same double, bit for bit.

Every group sum in the package goes through the extraction kernel of
``exact_sum`` (``data._exact_sums``), one chunk of records at a time, where
one chunk may hold many small datasets, and seeded outputs depend on those
sums being exactly ``math.fsum``'s. The corpus covers the cases where a
plain float sum goes wrong: subnormals, values spread over many exponents,
and heavy cancellation between signs.
"""

import math
import tracemalloc

import numpy as np
import pytest

import dpreg.simplex
from dpreg.data import _CHUNK, Dataset, _exact_sums, exact_sum
from dpreg.mechanisms import MECHANISMS
from dpreg.noise import RandomStream
from dpreg.simplex import (
    _cell_sums,
    _component_rows,
    _laplace_draw,
    _ss_rows,
    group_contributions,
)

from zero_noise import ZeroNoiseStream

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -1.0 - 2.0 ** -52, 2.0 ** 60])
def test_rejects_values_outside_the_kernel_contract(bad):
    # sigma = 2^M holds the sum exactly only for |v| <= 1; a larger value
    # would give a silent wrong sum, so it is refused before any pass.
    with pytest.raises(ValueError, match="magnitude at most 1"):
        exact_sum([0.25, bad, 0.5])


def fsum_hex(rows):
    return [math.fsum(row.tolist()).hex() for row in rows]


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK + 1, 4 * _CHUNK - 1, 4 * _CHUNK,
                               4 * _CHUNK + 1, 12 * _CHUNK + 5])
def test_chunked_group_sums_equal_fsum_of_full_rows(n):
    rng = np.random.default_rng(n)
    x, y = rng.random(n), rng.random(n)
    x[:: 7] = np.round(x[:: 7] * 4) / 4  # exact quarters, 0 and 1 included
    ds = Dataset(x, y)
    for d in (1, 2, 3, 4):
        g1, g2 = group_contributions(x, y, d)  # full-length columns
        want = fsum_hex(np.concatenate([g1, g2], axis=1).T)
        got = _cell_sums([ds], _component_rows, d, 3 * d + 3)[0]
        assert [v.hex() for v in got.tolist()] == want, d
    xy, xx = x * y, x * x
    want = fsum_hex([x, 1.0 - x, y, 1.0 - y, xy, 1.0 - xy, xx, 1.0 - xx])
    assert [v.hex() for v in _cell_sums([ds], _ss_rows, 1, 8)[0].tolist()] == want


def test_group_sums_hold_one_chunk_of_rows():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.random(1 << 20), rng.random(1 << 20))  # 8 MB per coordinate
    tracemalloc.start()
    try:
        _cell_sums([ds], _component_rows, 3, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def cells(rows, x, y, d):
    """The full-length rows of ``rows`` on x and y, in cell order."""
    return [row for _, row in sorted(rows(x, y, d), key=lambda cell: cell[0])]


ROWS = [(_component_rows, d, 3 * d + 3) for d in (1, 2, 3, 4)] + [(_ss_rows, 1, 8)]


def block_datasets(rng):
    """Small datasets around one longer than the cap, with hard cases for the passes."""
    def ds(n, scale=1.0):
        x, y = rng.random(n) * scale, rng.random(n)
        x[:: 5] = rng.choice([0.0, 1.0, 2.0 ** -1074], x[:: 5].size)
        return Dataset(x, y)

    return [ds(0), ds(1), ds(2), ds(7), ds(1000), ds(0), ds(_CHUNK + 9), ds(2), ds(1),
            ds(3000, 1e-3), ds(9000), ds(9000, 1e-5), ds(0), ds(5)]


def test_blocked_sums_equal_fsum_per_dataset_and_cell():
    # One call sums every dataset; chunks cut through the long dataset and
    # the two of 9000, and x scaled by 1e-3 or 1e-5 leaves low bits that a
    # second pass cannot take, so a third one and the remainders run.
    datasets = block_datasets(np.random.default_rng(41))
    for rows, d, count in ROWS:
        got = _exact_sums([(ds.x, ds.y) for ds in datasets], count,
                          lambda x, y: rows(x, y, d))
        for ds, sums in zip(datasets, got):
            assert [v.hex() for v in sums.tolist()] == fsum_hex(cells(rows, ds.x, ds.y, d)), \
                (rows.__name__, d, len(ds))


def test_remainders_decide_the_rounding():
    # Each dataset sums to 0.5 plus half an ulp, a tie, and one value of
    # 2^-1000 that no pass takes decides it up or down. Dropping the
    # remainders, or giving one to the wrong dataset, moves the sum.
    datasets = []
    for k in range(6):
        v = np.zeros(300 + 37 * k)
        v[0], v[1], v[-1] = 0.5, 2.0 ** -54, (-1) ** k * 2.0 ** -1000
        datasets.append(v)
    got = _exact_sums([(v,) for v in datasets], 1, lambda v: ((0, v),))
    for v, sums in zip(datasets, got):
        assert same_double(float(sums[0]), math.fsum(v))
        assert same_double(exact_sum(v), math.fsum(v))
    assert [float(s[0]) for s in got] == [0.5 + 2.0 ** -53, 0.5] * 3


def test_laplace_draw_blocks_mixed_cached_and_uncached_datasets():
    # Pairs whose datasets are cached, uncached, repeated or given as records
    # give each pair its own sums: with the noise off, each row is the exact
    # sums times the reading, and every cache holds math.fsum's sums.
    rng = np.random.default_rng(43)
    datasets = block_datasets(rng)
    for rows, d, count in ROWS:
        release = MECHANISMS["dp_ss" if rows is _ss_rows else "dp_rss"]
        for ds in datasets:
            ds.cache.clear()
        for ds in datasets[::3]:
            _cell_sums([ds], rows, d, count)
        records = [(0.5, 0.25), (2.0 ** -1074, 1.0)]
        data = datasets + datasets[::2] + [records]
        got = _laplace_draw(release, [[(ds, ZeroNoiseStream(0, 0)) for ds in data]], (1.0,), d)
        matrix = release.reading(d)
        for row, ds in zip(got, data):
            want = fsum_hex(cells(rows, *(np.array(records).T if ds is records else (ds.x, ds.y)),
                                  d))
            assert row.tobytes() == (np.array([float.fromhex(h) for h in want]) @ matrix).tobytes()
        for ds in datasets:
            assert [v.hex() for v in ds.cache[rows, d].tolist()] == fsum_hex(
                cells(rows, ds.x, ds.y, d))


def test_fixed_dataset_over_many_pairs_is_summed_once(monkeypatch):
    calls = []
    real = dpreg.simplex._exact_sums

    def counting(columns, count, rows):
        calls.append(len(columns))
        return real(columns, count, rows)

    monkeypatch.setattr(dpreg.simplex, "_exact_sums", counting)
    rng = np.random.default_rng(47)
    ds = Dataset(rng.random(300), rng.random(300))
    pairs = [(ds, RandomStream(5, i)) for i in range(100)]
    got = _laplace_draw(MECHANISMS["dp_rss"], [pairs], (0.5, 2.0))
    assert calls == [1]
    alone = [_laplace_draw(MECHANISMS["dp_rss"], [[(ds, RandomStream(5, i))]], (0.5, 2.0))
             for i in range(100)]
    assert got.tobytes() == np.concatenate(alone).tobytes()
    assert calls == [1]
    # The caller's blocks are the draw's: a block's distinct uncached
    # datasets take one call however often they repeat, the same datasets
    # over two blocks take two, and a block of cached datasets takes none.
    datasets = block_datasets(rng)
    half = len(datasets) // 2
    for blocks, want in (([datasets + datasets[::2]], [len(datasets)]),
                         ([datasets[:half], datasets[half:]], [half, len(datasets) - half]),
                         ([datasets[::3] * 2], [])):
        if want:
            for data in datasets:
                data.cache.clear()
        calls.clear()
        _laplace_draw(MECHANISMS["dp_rss"],
                      [[(data, ZeroNoiseStream(0, 0)) for data in block] for block in blocks],
                      (1.0,))
        assert calls == want, [len(block) for block in blocks]


def test_rows_of_a_concatenated_block_equal_each_datasets_rows_bitwise():
    # A block computes its cell rows once on the concatenated coordinates,
    # so every elementwise step (np.power with an array exponent, products,
    # differences) must give each record the value it gets on its own
    # dataset, at every length and offset. Pinned here for numpy's SIMD
    # loops, whose tails and alignment differ with the length.
    rng = np.random.default_rng(53)
    parts = [(rng.random(n), rng.random(n)) for n in range(1, 18)]
    x, y = (np.concatenate(c) for c in zip(*parts))
    offsets = np.cumsum([0] + [len(px) for px, _ in parts])
    for rows, d, _ in ROWS:
        joined = cells(rows, x, y, d)
        for (px, py), lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            alone = cells(rows, px, py, d)
            for cell, (whole, part) in enumerate(zip(joined, alone)):
                assert whole[lo:hi].tobytes() == part.tobytes(), (rows.__name__, d, len(px), cell)
