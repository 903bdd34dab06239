import math
import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dpreg import NoiseEvent, NoiseLedger, RandomStream
from dpreg.noise import _BLOCK, _SEED_BLOCK, _Run, _pcg64_seeds
from dpreg.mechanisms import MECHANISMS
from dpreg.simplex import _cell_sums, _laplace_draw

from zero_noise import ZeroNoiseStream

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_laplace_scale_must_be_positive():
    # A rejected scale raises before any uniform is consumed. A scale is one
    # number: an array of them, even of good ones, is refused.
    s = RandomStream(8, 1)
    for bad in (0.0, -2.0, np.array([1.0, 0.0]), np.array([2.0, np.inf]), np.ones((2, 2)),
                np.array([2.0, 3.0]), np.array([2.0]), np.array(2.0), [2.0], True):
        with pytest.raises(ValueError):
            s.laplace(bad, 4)
    assert s.uniform() == RandomStream(8, 1).uniform()


def test_same_seed_same_draws():
    a = RandomStream(42, 0)
    b = RandomStream(42, 0)
    assert np.array_equal(a.uniform(100), b.uniform(100))
    assert np.array_equal(a.laplace(2.0, 50), b.laplace(2.0, 50))
    assert np.array_equal(a.normal(50), b.normal(50))


def test_distinct_stream_indices_decorrelate():
    a = RandomStream(42, 0).uniform(100)
    b = RandomStream(42, 1).uniform(100)
    assert not np.array_equal(a, b)


def test_scalar_draws_match_vector_draws():
    # The generator consumes one underlying uniform per scalar, so drawing
    # eight scalars must reproduce a single size-8 vector draw exactly.
    vec = RandomStream(7, 3).uniform(8)
    s = RandomStream(7, 3)
    scalars = np.array([s.uniform() for _ in range(8)])
    assert np.array_equal(vec, scalars)

    vec_l = RandomStream(7, 3).laplace(1.5, 8)
    s = RandomStream(7, 3)
    scalars_l = [s.laplace(1.5) for _ in range(8)]
    assert all(isinstance(v, float) for v in scalars_l)
    assert np.array_equal(vec_l, np.array(scalars_l))


class FixedUniforms:
    """Stand-in for a stream's generator that returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):  # Generator.random's size and out
        assert np.shape(self.u) == (() if size is None else np.empty(size).shape)
        if out is not None:
            out[...] = self.u
            return out
        return self.u if size is None else self.u.copy()


def stream_with_uniforms(u):
    s = RandomStream(0, 0)
    s._gen = FixedUniforms(u)
    return s


def reference_laplace(u, b):
    """The unblocked transform, as one expression over the whole draw."""
    unit = np.sign(u - 0.5) * np.log1p(-2.0 * np.abs(u - 0.5))
    unit *= -b
    return unit


HAND_PLACED = (0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 2.0**-53, 1.0 - 2.0**-53)
ORACLE_SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7,
                (2, 3000, 3), (2, 5, 3), (2100, 8), (7, 8), (3000, 6))
ORACLE_SCALES = (1.7, 3e-5)


@pytest.mark.parametrize("size", ORACLE_SIZES)
def test_laplace_equals_unblocked_expression_bitwise(size):
    # Blocked or not, every value is the one-line expression's, bit for bit,
    # and the stream ends where a plain draw of the uniforms ends.
    for scale in ORACLE_SCALES:
        s = RandomStream(13, 2)
        got = s.laplace(scale, size)
        plain = RandomStream(13, 2)
        want = reference_laplace(plain.uniform(size), scale)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert s.uniform() == plain.uniform()

        # Uniforms at and next to 1/2 and at both ends of the range, placed
        # at the first and the last values of every block.
        u = RandomStream(14, 2).uniform(size)
        flat = u.reshape(-1)
        for k in range(0, flat.size, _BLOCK):
            block = flat[k:k + _BLOCK]
            n = min(len(HAND_PLACED), block.size)
            block[:n] = HAND_PLACED[:n]
            block[-n:] = HAND_PLACED[::-1][:n]
        got = stream_with_uniforms(u).laplace(scale, size)
        assert got.tobytes() == reference_laplace(u, scale).tobytes()


def test_scalar_laplace_equals_unblocked_expression_bitwise():
    for u in HAND_PLACED + (0.3, 0.9):
        for scale in ORACLE_SCALES:
            got = stream_with_uniforms(u).laplace(scale)
            assert np.asarray(got).tobytes() == reference_laplace(np.float64(u), scale).tobytes()


@pytest.mark.parametrize("size", [None, 5, 3 * _BLOCK + 7, (2, 3000, 3)])
def test_zero_uniform_gives_finite_symmetric_draw(size):
    # u = 0 is drawn as the smallest positive uniform: a finite draw that
    # mirrors the largest one, at u = 1 - 2^-53, with no divide-by-zero.
    ends = [0, -1]
    for scale in (2.0, 0.25):
        if size is None:
            zero, top = 0.0, 1.0 - 2.0**-53
        else:
            zero, top = np.full(size, 0.5), np.full(size, 0.5)
            zero.reshape(-1)[ends] = 0.0
            top.reshape(-1)[ends] = 1.0 - 2.0**-53
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            low = stream_with_uniforms(zero).laplace(scale, size)
            high = stream_with_uniforms(top).laplace(scale, size)
        assert np.all(np.isfinite(low))
        assert np.array_equal(low, -high)
        # |draw| = 52·ln 2 ≈ 36.04 scales there, the largest a draw can have.
        assert np.all(np.reshape(low, -1)[ends] < -36.0 * scale)


@pytest.mark.parametrize("b", [0.5, 1.0, 3.0])
def test_laplace_variance_matches_two_b_squared(b):
    n = 1_000_000
    draws = RandomStream(int(b * 10), 0).laplace(b, n)
    target = 2.0 * b * b
    # CLT band: the sample variance of a Laplace has std roughly
    # sqrt(Var(X^2))/sqrt(n) ~ target * sqrt(5/n); five sigmas is generous.
    assert abs(draws.var() - target) <= 5.0 * target * math.sqrt(5.0 / n)
    assert abs(draws.mean()) <= 5.0 * b * math.sqrt(2.0 / n)


def test_laplace_rejects_bad_scale():
    s = RandomStream(0, 0)
    with pytest.raises(ValueError):
        s.laplace(0.0)
    with pytest.raises(ValueError):
        s.laplace(-1.0)
    with pytest.raises(ValueError):
        s.laplace(float("nan"))
    with pytest.raises(ValueError):
        s.laplace(float("inf"))


def test_integers_past_the_double_range_raise_each_checks_value_error(random_dataset):
    # float() raises OverflowError on these; each check reads them as an
    # infinity of their sign and refuses them with its own ValueError.
    from dpreg import Bounds, ExperimentGrid, SetupConfig, TheilSenHyper, dp_median, dp_rss_fit

    big = 10**400
    ds = random_dataset(1, n=10)
    calls = [
        (lambda: dp_rss_fit(ds, big, RandomStream(1, 0)), "epsilon must be positive"),
        (lambda: ExperimentGrid((big,), 1, ("dp_rss",)), "epsilon must be positive"),
        (lambda: SetupConfig(10, big, 0.5, 0.1, 0), "alpha must be finite"),
        (lambda: SetupConfig(10, 0.5, -big, 0.1, 0), "beta must be finite"),
        (lambda: Bounds(0, big, 0, 1), "x bounds must be finite"),
        (lambda: Bounds(0, 1, -big, 1), "y bounds must be finite"),
        (lambda: TheilSenHyper(r_lo=-big, r_hi=big), "clip range must be finite"),
        (lambda: TheilSenHyper(r_lo=big, r_hi=big + 1), "clip range must be finite"),
        (lambda: dp_median([0.1], big, -2, 2, RandomStream(1, 0)), "epsilon must be positive"),
        (lambda: dp_median([0.1], 1.0, -big, 2, RandomStream(1, 0)), "clip range must be finite"),
        (lambda: RandomStream(1, 0).laplace(big), "Laplace scale must be"),
        (lambda: RandomStream(1, 0).laplace(-big, 3), "Laplace scale must be"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_normal_moments():
    n = 1_000_000
    draws = RandomStream(3, 0).normal(n)
    assert abs(draws.mean()) <= 5.0 / math.sqrt(n)
    assert abs(draws.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)


@pytest.mark.parametrize("n", [None, 1, 1000, 20000])
def test_normal_equals_the_box_muller_expression_bitwise(n):
    # A draw reads all its u1, then all its u2, and transforms them in
    # place; each value is the one-line expression's, bit for bit, and the
    # stream ends where a plain draw of the uniforms ends.
    plain = RandomStream(8, 3)
    u1, u2 = plain.uniform(n), plain.uniform(n)
    want = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    s = RandomStream(8, 3)
    got = s.normal(n)
    assert isinstance(got, float) == (n is None)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert s.uniform() == plain.uniform()


def test_permutation_is_a_permutation():
    p = RandomStream(9, 0).permutation(257)
    assert sorted(p.tolist()) == list(range(257))
    q = RandomStream(9, 0).permutation(257)
    assert np.array_equal(p, q)


def test_zero_noise_stream_silences_laplace_only():
    z = ZeroNoiseStream(4, 0)
    after = RandomStream(4, 0).uniform()
    # Every draw is +0.0, never -0.0, and consumes no uniform.
    for scale, size, want in ((2.0, None, np.zeros(())), (2.0, 5, np.zeros(5)),
                              (2.0, 3 * _BLOCK + 7, np.zeros(3 * _BLOCK + 7)),
                              (3.0, (4, 2), np.zeros((4, 2)))):
        got = z.laplace(scale, size)
        assert np.asarray(got).tobytes() == want.tobytes(), (scale, size)
    assert isinstance(z.laplace(2.0), float)
    with pytest.raises(ValueError):
        z.laplace(-1.0)  # scale validation is kept
    # non-noise channels still behave like the parent stream
    assert z.uniform() == after
    assert np.array_equal(ZeroNoiseStream(4, 0).permutation(10),
                          RandomStream(4, 0).permutation(10))


def test_zero_noise_stream_releases_the_exact_statistics(three_point_line):
    # The pair-major draw reads ZeroNoiseStream's uniforms through the same
    # hook, so each release is the exact cell sums read by the matrix.
    for name, d in (("dp_rss", 1), ("dp_rss", 3), ("dp_ss", 1)):
        pairs = [(three_point_line, ZeroNoiseStream(0, i)) for i in range(3)]
        release = MECHANISMS[name]
        matrix = release.reading(d)
        got = _laplace_draw(release, [pairs], (0.5, 2.0), d)
        want = _cell_sums([three_point_line], release.rows, d, len(matrix))[0] @ matrix
        assert got.tobytes() == np.tile(want, (6, 1)).tobytes(), (name, d)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RandomStream(-1, 0)
    with pytest.raises(ValueError):
        RandomStream(0, -2)


@pytest.mark.parametrize("bad", [True, False, np.True_, 1.7, 1.0, "1", None])
def test_seed_and_stream_index_must_be_integers(bad):
    # int(True) and int(1.7) would silently run as seed 1.
    with pytest.raises(ValueError):
        RandomStream(bad, 1)
    with pytest.raises(ValueError):
        RandomStream(1, bad)
    with pytest.raises(ValueError):
        next(RandomStream._substreams(bad, 1, 3))


def test_numpy_integer_seeds_are_accepted():
    for seed, index in ((np.int64(3), np.uint32(2)), (np.uint64(2**63 + 1), np.int8(7))):
        s = RandomStream(seed, index)
        assert (type(s.seed), type(s.stream_index)) == (int, int)
        assert repr(s) == repr(RandomStream(int(seed), int(index)))
        assert s.uniform(4).tobytes() == RandomStream(int(seed), int(index)).uniform(4).tobytes()


# Seeds of 1 to 7 32-bit words: a seed of fewer words than the pool is
# padded to it, and a longer one mixes its extra words in after. One of 16
# words, with any index, needs more hash steps than are precomputed.
TRANSCRIPTION_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 9, 2**96 + 5, 2**200, 2**500 + 7)


def numpy_seeds(seed, index):
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(4, np.uint64)


@pytest.mark.parametrize("seed", TRANSCRIPTION_SEEDS)
def test_pcg64_seeds_equal_numpys_seed_sequence(seed):
    for index in (0, 1, 2**32 - 1, 2**32, 2**64 + 1):
        got = _pcg64_seeds(seed, index)
        assert got.dtype == np.uint64 and got.shape == (4,)
        assert got.tobytes() == numpy_seeds(seed, index).tobytes(), (seed, index)
    # The array path, on a block that crosses the 1024 boundary.
    indices = np.array([0, 1, 2**32 - 1] + list(range(1000, 1100)), dtype=np.uint64)
    kept = indices.copy()
    got = _pcg64_seeds(seed, indices)
    assert indices.tobytes() == kept.tobytes()
    assert got.dtype == np.uint64 and got.shape == (len(indices), 4) and got.flags.c_contiguous
    want = np.array([numpy_seeds(seed, i) for i in indices.tolist()])
    assert got.tobytes() == want.tobytes(), seed
    # The four-wide passes on one index, and on the blocks of a run that
    # crosses _SEED_BLOCK and ends at 2^32: first and last rows of each.
    one = _pcg64_seeds(seed, np.array([2**32 - 1], dtype=np.uint64))
    assert one.shape == (1, 4) and one.tobytes() == numpy_seeds(seed, 2**32 - 1).tobytes()
    blocks = list(_Run(None, seed, 2**32 - _SEED_BLOCK - 6, 2**32)._seeds(seed))
    assert [(lo, len(words)) for lo, words in blocks] == [(2**32 - _SEED_BLOCK - 6, _SEED_BLOCK),
                                                          (2**32 - 6, 6)]
    for lo, words in blocks:
        for row in (0, 1, len(words) - 1):
            assert words[row].tobytes() == numpy_seeds(seed, lo + row).tobytes(), (seed, lo, row)


@pytest.mark.parametrize("seed, start, stop", [(3, 0, 5), (2**40 + 3, 1000, 2100),
                                               (7, 2**32 - 3, 2**32)])
def test_substreams_equal_single_streams(seed, start, stop):
    # Blocks of 1024 indices, and the last indices below 2^32.
    streams = list(RandomStream._substreams(seed, start, stop))
    assert [s.stream_index for s in streams] == list(range(start, stop))
    picks = {0, 1, 2, len(streams) - 2, len(streams) - 1} | set(range(1020, 1030))
    for bulk in [streams[k] for k in sorted(picks) if k < len(streams)]:
        one = RandomStream(seed, bulk.stream_index)
        assert (bulk.seed, bulk.stream_index, repr(bulk)) == (one.seed, one.stream_index, repr(one))
        assert bulk.uniform(3).tobytes() == one.uniform(3).tobytes()
        assert bulk.normal(3).tobytes() == one.normal(3).tobytes()
        assert bulk.permutation(9).tobytes() == one.permutation(9).tobytes()
        assert bulk.laplace(2.0, 6).tobytes() == one.laplace(2.0, 6).tobytes()
    assert type(next(ZeroNoiseStream._substreams(seed, start, stop))) is ZeroNoiseStream


def test_substreams_stop_at_two_to_the_32():
    with pytest.raises(ValueError):
        next(RandomStream._substreams(7, 2**32 - 3, 2**32 + 1))


# Seeds of 1 to 7 32-bit words; a seed of more than four fills the pool
# with its own words before the index's is mixed in.
RUN_SEEDS = (0, 1, 2**32, 2**64 + 5, 2**127 + 3, 2**128 + 7, 2**200)


@pytest.mark.parametrize("seed", RUN_SEEDS)
def test_run_uniforms_equal_each_streams_own_bytewise(seed):
    # A run's uniforms come from the transcribed PCG64, one pass per
    # _SEED_BLOCK streams, and must be every stream's own Generator draws:
    # runs of 1 to 1025 streams from index 0 and up to 2^32, and for two
    # seeds one of 3000 up to 2^32, at every k from 1 to 16. A stream's
    # first k uniforms are the first k of its 16.
    size = 3000 if seed in (0, 2**200) else _SEED_BLOCK + 1
    first = np.array([RandomStream(seed, i)._laplace_u(16) for i in range(_SEED_BLOCK + 1)])
    last = np.array([RandomStream(seed, i)._laplace_u(16) for i in range(2**32 - size, 2**32)])
    sizes = (1, 100, _SEED_BLOCK, _SEED_BLOCK + 1)
    runs = [(0, n, first[:n]) for n in sizes]
    runs += [(2**32 - n, 2**32, last[-n:]) for n in sorted({*sizes, size})]
    for k in range(1, 17):
        for start, stop, want in runs:
            got = _Run(None, seed, start, stop).laplace_u(k)
            assert got.dtype == np.float64 and got.shape == (stop - start, k)
            assert got.tobytes() == want[:, :k].tobytes(), (start, stop, k)


def test_a_run_is_drawn_as_its_pairs_bitwise(random_dataset):
    # A run, alone or between blocks of pairs, one of them empty, gives the
    # rows of its pairs drawn one by one; a Theil-Sen draw takes its pairs
    # as their streams are built.
    ds, other = random_dataset(3, n=40), random_dataset(4, n=30)
    for name, mech in MECHANISMS.items():
        if mech.hyper is None:
            continue
        run = _Run(ds, 9, 5, 12)
        alone = np.concatenate([mech.draw(mech, [[(ds, RandomStream(9, i))]], (0.5, 2.0),
                                          mech.hyper) for i in range(5, 12)])
        assert mech.draw(mech, [run], (0.5, 2.0), mech.hyper).tobytes() == alone.tobytes(), name
        mixed = [run, [(other, RandomStream(9, 1)), (ds, RandomStream(9, 2))], [],
                 _Run(other, 9, 3, 5)]
        pairs = [*run, (other, RandomStream(9, 1)), (ds, RandomStream(9, 2)), *_Run(other, 9, 3, 5)]
        want = np.concatenate([mech.draw(mech, [[pair]], (0.5, 2.0), mech.hyper)
                               for pair in pairs])
        assert mech.draw(mech, mixed, (0.5, 2.0), mech.hyper).tobytes() == want.tobytes(), name


def test_a_zero_noise_run_releases_the_exact_statistics(random_dataset):
    # A stream class that overrides _laplace_u is read through it, stream by
    # stream, so every row of a ZeroNoiseStream run is the exact release.
    ds = random_dataset(5, n=50)
    for name in ("dp_rss", "dp_ss"):
        release = MECHANISMS[name]
        exact = _laplace_draw(release, [[(ds, ZeroNoiseStream(0, 0))]], (1.0,))[0]
        sums = _cell_sums([ds], release.rows, 1, len(release.reading(1)))[0]
        assert exact.tobytes() == (sums[None] @ release.reading(1))[0].tobytes()
        got = _laplace_draw(release, [_Run(ds, 3, 1, 8, ZeroNoiseStream)], (0.5, 2.0))
        assert got.tobytes() == np.tile(exact, (14, 1)).tobytes(), name
    assert np.array_equal(_Run(ds, 3, 1, 4, ZeroNoiseStream).laplace_u(6), np.full((3, 6), 0.5))


def test_a_run_past_two_to_the_32_raises(random_dataset):
    ds = random_dataset(6, n=20)
    run = _Run(ds, 7, 2**32 - 3, 2**32 + 1)
    with pytest.raises(ValueError, match=r"2\*\*32"):
        run.laplace_u(6)
    for name, mech in MECHANISMS.items():
        if mech.hyper is not None:
            with pytest.raises(ValueError, match=r"2\*\*32"):
                mech.draw(mech, [run], (1.0,), mech.hyper)


def replay(streams):
    return [(repr(s), s.uniform(3).tobytes(), s.normal(2).tobytes(), s.laplace(2.0, 3).tobytes())
            for s in streams]


def test_streams_pickle_and_replay_in_a_fresh_process():
    # PCG64 keeps its seed sequence, so a pickled stream carries one; a
    # stream sent to a worker process must rebuild there and go on as here.
    streams = [RandomStream(1, 2), ZeroNoiseStream(3, 4), *RandomStream._substreams(5, 1, 3)]
    for s in streams:
        s.uniform(2)
    blob = pickle.dumps(streams)
    want = replay(streams)
    assert replay(pickle.loads(blob)) == want
    code = ("import pickle, sys; from test_noise import replay; "
            "sys.stdout.buffer.write(pickle.dumps(replay(pickle.load(sys.stdin.buffer))))")
    path = os.pathsep.join(filter(None, [SRC, os.path.dirname(os.path.abspath(__file__)),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], input=blob, capture_output=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert pickle.loads(out) == want


def test_importing_dpreg_leaves_numpy_random_unimported():
    # Streams import numpy.random when the first one is built. numpy 1.x
    # imports it with numpy itself, so only what dpreg adds is checked.
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import dpreg; "
            "print(before, 'numpy.random' in sys.modules)")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout.split()
    assert out[0] == out[1], out


def test_ledger_totals_epsilon():
    ledger = NoiseLedger()
    ledger.record("half one", 0.5, 2.0)
    ledger.record("half two", 0.5, 2.0)
    assert ledger.total_epsilon() == 1.0
    assert len(ledger.events) == 2
    assert ledger.events[0] == NoiseEvent("half one", 0.5, 2.0)
