import re

import numpy as np
import pytest

from dpreg import Bounds, Dataset, RandomStream, as_dataset, exact_group_stats, normalize
from dpreg.data import _check_rows

UNIT = Bounds(0.0, 1.0, 0.0, 1.0)


def test_dataset_basicproperties():
    ds = Dataset(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    assert len(ds) == 2
    assert not ds.x.flags.writeable
    assert not ds.y.flags.writeable


def test_dataset_copies_its_callers_arrays():
    # A Dataset that kept its caller's array would make it read-only, and one
    # built on a view would change under a write to the base while its cached
    # sums did not: a silent wrong fit.
    x, y = np.array([0.1, 0.2, 0.9]), np.array([0.5, 0.1, 0.7])
    a, b = x.copy(), y.copy()
    ds = Dataset(a, b)
    a[0] = b[0] = 0.8  # raised "assignment destination is read-only" while the Dataset kept a
    assert ds.x.tolist() == x.tolist() and ds.y.tolist() == y.tolist()
    raw = np.column_stack([x, y])
    ds = normalize(raw, UNIT)
    raw[0] = 0.8
    assert ds.x.tolist() == x.tolist() and ds.y.tolist() == y.tolist()
    want = [s.tolist() for s in exact_group_stats(Dataset(x, y))]
    base = np.append(x, 0.3)
    ds = Dataset(base[:3], y)
    assert [s.tolist() for s in exact_group_stats(ds)] == want
    base[0] = 0.8
    assert ds.x.tolist() == x.tolist()
    assert [s.tolist() for s in exact_group_stats(ds)] == want
    fresh = [s.tolist() for s in exact_group_stats(Dataset(base[:3], y))]
    assert fresh != want
    # Nor can a caller make the coordinates writable again under their
    # cached sums, whichever entry point built the Dataset.
    for ds in (Dataset(x, y), Dataset.from_records(raw), as_dataset(raw), normalize(raw, UNIT)):
        for coord in (ds.x, ds.y):
            with pytest.raises(ValueError):
                coord.setflags(write=True)


def test_dataset_rejects_out_of_range_values():
    with pytest.raises(ValueError, match="record 1"):
        Dataset(np.array([0.5, 1.2]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="record 0"):
        Dataset(np.array([0.5]), np.array([-0.01]))
    with pytest.raises(ValueError):
        Dataset(np.array([0.1, 0.2]), np.array([0.3]))


@pytest.mark.parametrize("bad", [1.5, -0.25, np.nan])
def test_block_check_names_the_record_that_dataset_names(bad):
    # A block of fresh datasets is checked at once; on a bad value it must
    # raise Dataset's error for the first dataset that fails, x before y.
    rng = np.random.default_rng(4)
    for places in ([(0, 1, 3)], [(1, 1, 3)], [(1, 1, 0), (0, 1, 4)], [(1, 2, 0), (0, 2, 1)]):
        xy = rng.random((2, 4, 5))
        for place in places:
            xy[place] = bad
        xy[0, 3, 0] = bad  # a later dataset fails too
        k = places[0][1]
        with pytest.raises(ValueError) as want:
            Dataset(xy[0, k], xy[1, k])
        with pytest.raises(ValueError) as got:
            _check_rows(xy)
        assert str(got.value) == str(want.value)
        assert re.match(r"record \d: [xy]=", str(got.value))
    _check_rows(rng.random((2, 4, 5)))
    _check_rows(np.empty((2, 3, 0)))


def test_dataset_from_records_and_as_dataset():
    ds = Dataset.from_records([(0.0, 0.5), (1.0, 1.0)])
    assert len(ds) == 2
    assert as_dataset(ds) is ds
    again = as_dataset([(0.0, 0.5), (1.0, 1.0)])
    assert np.array_equal(again.x, ds.x)
    assert np.array_equal(again.y, ds.y)


def test_as_dataset_takes_an_array_by_columns():
    # An (n, 2) array is converted whole, not copied record by record, and
    # gives the columns' bytes; the Dataset never shares the caller's array.
    a = RandomStream(4, 0).uniform((1000, 2))
    cols = Dataset(a[:, 0], a[:, 1])
    for arr in (a.copy(), np.asfortranarray(a)):
        ds = as_dataset(arr)
        assert ds.x.tobytes() == cols.x.tobytes() and ds.y.tobytes() == cols.y.tobytes()
        arr[0] = 0.5
        assert (ds.x[0], ds.y[0]) == (cols.x[0], cols.y[0])
    assert len(as_dataset(np.empty((0, 2)))) == len(normalize(np.empty((0, 2)), UNIT)) == 0
    for entry in (as_dataset, lambda r: normalize(r, UNIT)):
        assert len(entry(a.view(RowByRow))) == 1000


class RowByRow(np.ndarray):
    """An array that fails when it is taken apart row by row."""

    def __iter__(self):
        raise AssertionError("the array was iterated row by row")


def test_records_that_are_not_pairs_raise_alike_through_every_entry_point():
    for bad in (np.full((4, 3), 0.5), np.full(4, 0.5)):
        msg = re.escape(f"records must be (x, y) pairs, got array shape {bad.shape}")
        for entry in (as_dataset, Dataset.from_records, lambda r: normalize(r, UNIT)):
            for records in (bad, bad.tolist()):
                with pytest.raises(ValueError, match=msg):
                    entry(records)


def test_bounds_validation():
    b = Bounds(0.0, 10.0, -5.0, 5.0)
    assert b.x_span == 10.0
    assert b.y_span == 10.0
    with pytest.raises(ValueError):
        Bounds(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Bounds(0.0, 1.0, 2.0, -2.0)
    # Every bound is finite, and so is every span: with an infinite span
    # each normalized value would be 0 or NaN.
    inf, nan = float("inf"), float("nan")
    for bad in ((0.0, inf, 0.0, 1.0), (-inf, 0.0, 0.0, 1.0), (-1e308, 1e308, 0.0, 1.0),
                (nan, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, nan), (0.0, 1.0, -inf, inf),
                (0.0, 1.0, -1.5e308, 1.5e308)):
        with pytest.raises(ValueError, match="bounds must be finite"):
            Bounds(*bad)
    assert Bounds(-1e308, 0.0, 0.0, 1e308).x_span == 1e308


def test_bounds_of_more_than_4300_digits_are_refused_by_their_own_rule():
    # str() of such an int raises Python's digit-limit ValueError, which once
    # replaced the message; the message names the bound as the float it reads.
    with pytest.raises(ValueError, match=r"^x bounds must be finite .* got \[0\.0, inf\]$"):
        Bounds(0, 10**5000, 0, 1)
    with pytest.raises(ValueError, match=r"^y bounds must be finite .* got \[-inf, 1\.0\]$"):
        Bounds(0, 1, -(10**5000), 1)


def test_normalize_maps_bounds_to_unit_square():
    bounds = Bounds(0.0, 10.0, 0.0, 100.0)
    ds = normalize([(5.0, 50.0), (0.0, 0.0), (10.0, 100.0)], bounds)
    assert ds.x == pytest.approx([0.5, 0.0, 1.0])
    assert ds.y == pytest.approx([0.5, 0.0, 1.0])


def test_normalize_rejects_data_outside_declared_bounds():
    bounds = Bounds(0.0, 10.0, 0.0, 100.0)
    with pytest.raises(ValueError, match="record 2"):
        normalize([(5.0, 50.0), (1.0, 1.0), (10.5, 50.0)], bounds)
    with pytest.raises(ValueError, match="record 0"):
        normalize([(5.0, -0.5)], bounds)
