import bz2
import csv
import gzip
import json
import lzma
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np
import pytest

from dpreg.cli import (
    _BLOCK_BYTES,
    MECHANISM_NAMES,
    RESULTS_HEADER,
    SEEDED_FIT_NOTICE,
    VERIFY_HEADER,
    _count_lines,
    _read_xy_csv,
    main,
)
from dpreg.simplex import _MAX_DEGREE


def write_csv(tmp_path, rows, header="x,y", name="data.csv"):
    """Write one line per row, its fields joined by commas; () is a blank line."""
    path = tmp_path / name
    path.write_text("\n".join([header] + [",".join(map(str, row)) for row in rows]) + "\n")
    return str(path)


class RawFile(NamedTuple):
    """A test input given as the exact bytes of a file and its name."""

    name: str
    data: bytes


class Flags(NamedTuple):
    """A well-formed three-record input fitted with these flags instead."""

    argv: tuple


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LINE_ROWS = [(0.0, 0.2), (0.5, 0.45), (1.0, 0.7)]
# The whole stderr of a seeded fit that succeeds; stdout holds the release alone.
NOTICE = SEEDED_FIT_NOTICE + "\n"


def test_fit_recovers_line_at_huge_budget(tmp_path, capsys):
    path = write_csv(tmp_path, LINE_ROWS)
    code, out, err = run(capsys, ["fit", path, "--epsilon", "1e6", "--seed", "3"])
    assert code == 0 and err == NOTICE
    assert NOTICE.count("\n") == 1 and "reproducible" in NOTICE and "not private" in NOTICE
    res = json.loads(out)
    assert res["mechanism"] == "dp_rss"
    assert res["fallback"] is False
    assert abs(res["alpha_hat"] - 0.5) < 1e-2
    assert abs(res["beta_hat"] - 0.2) < 1e-2


def test_fit_runs_every_mechanism(tmp_path, capsys):
    path = write_csv(tmp_path, LINE_ROWS)
    for mechanism in MECHANISM_NAMES:
        argv = ["fit", path, "--mechanism", mechanism, "--epsilon", "2.0"]
        if mechanism == "dp_rss_poly":
            argv += ["--degree", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        res = json.loads(out)
        assert res["mechanism"] == mechanism
        assert "fallback" in res
        if mechanism == "dp_rss_poly":
            assert res["degree"] == 2
            assert len(res["coeffs"]) == 3


def test_fit_empty_dataset_reports_fallback(tmp_path, capsys):
    path = write_csv(tmp_path, [])
    code, out, _ = run(capsys, ["fit", path, "--epsilon", "1.0", "--seed", "1"])
    assert code == 0
    res = json.loads(out)
    assert res["fallback"] is True
    assert res["alpha_hat"] == 0.0
    assert res["beta_hat"] == 0.5


@pytest.mark.parametrize("mechanism", ["dp_rss", "dp_ss"])
def test_fit_constant_x_falls_back_at_huge_budget(tmp_path, capsys, mechanism):
    # Three records at x = 0.01: the x-spread rounds to a positive value,
    # so only the pivot guard stops a line with a huge slope. dp_ss used to
    # print alpha_hat 32, beta_hat 0.18 and no fallback here.
    path = write_csv(tmp_path, [(0.01, 0.1), (0.01, 0.5), (0.01, 0.9)])
    code, out, err = run(capsys, ["fit", path, "--mechanism", mechanism,
                                  "--epsilon", "1e300", "--seed", "1"])
    assert (code, err) == (0, NOTICE)
    res = json.loads(out)
    assert (res["alpha_hat"], res["beta_hat"], res["fallback"]) == (0, 0.5, True)


def test_fit_rescales_raw_data_with_bounds(tmp_path, capsys):
    path = write_csv(tmp_path, [(0.0, 20.0), (5.0, 45.0), (10.0, 70.0)])
    code, out, _ = run(capsys, [
        "fit", path, "--epsilon", "1e9", "--seed", "2",
        "--x-min", "0", "--x-max", "10", "--y-min", "0", "--y-max", "100",
    ])
    assert code == 0
    res = json.loads(out)
    assert abs(res["alpha_hat"] - 5.0) < 1e-2
    assert abs(res["beta_hat"] - 20.0) < 1e-2


def test_fit_polynomial_recovers_quadratic(tmp_path, capsys):
    rows = [(x / 20.0, 0.25 * (x / 20.0) ** 2 + 0.25 * (x / 20.0) + 0.2)
            for x in range(21)]
    path = write_csv(tmp_path, rows)
    code, out, _ = run(capsys, [
        "fit", path, "--mechanism", "dp_rss_poly", "--degree", "2",
        "--epsilon", "1e9",
    ])
    assert code == 0
    res = json.loads(out)
    for got, want in zip(res["coeffs"], (0.25, 0.25, 0.2)):
        assert abs(got - want) < 1e-3


def test_fit_stdout_is_deterministic(tmp_path, capsys):
    path = write_csv(tmp_path, LINE_ROWS)
    argv = ["fit", path, "--epsilon", "0.5", "--seed", "11"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    _, other, _ = run(capsys, ["fit", path, "--epsilon", "0.5", "--seed", "12"])
    assert other != first


def test_fit_without_seed_draws_secret_noise(tmp_path, capsys):
    # A default seed would let anyone who knows it replay the noise, so an
    # unseeded fit draws a fresh secret seed and does not print it. At 200
    # records and epsilon 10 a fallback, the same constant fit twice, is all
    # but impossible.
    path = write_csv(tmp_path, [(i / 199, 0.2 + 0.5 * i / 199) for i in range(200)])
    argv = ["fit", path, "--mechanism", "dp_rss", "--epsilon", "10"]
    results = []
    for _ in range(2):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        results.append(json.loads(out))
    assert [(r["seed"], r["fallback"]) for r in results] == [(None, False)] * 2
    assert results[0]["alpha_hat"] != results[1]["alpha_hat"]
    assert results[0]["beta_hat"] != results[1]["beta_hat"]


@pytest.mark.parametrize("rows, header, fragment", [
    ([(0.1, 0.2), ("0.5", "abc")], "x,y", "line 3"),
    ([(0.1, 0.2)], "a,b", "header"),
    ([(1.5, 0.2)], "x,y", "--x-min"),
    ([(0.1, 0.2), (), (0.3, 0.4)], "x,y", "line 3: expected 2 fields, got 0"),
    ([(0.1, 0.2), ()], "x,y", "line 3: expected 2 fields, got 0"),
    ([(0.1, 0.2), (0.3,)], "x,y", "line 3: expected 2 fields, got 1"),
    ([(0.1, 0.2), (0.3, 0.4), (0.5, 0.6, 0.7)], "x,y", "line 4: expected 2 fields, got 3"),
    ([(0.1, 0.2), ("abc", 0.4)], "x,y", "line 3: could not convert string to float: 'abc'"),
    ([("0.1", "0.2x")], "x,y", "line 2: could not convert string to float: '0.2x'"),
    ([(0.1, 0.2), (0.3, "a" * 200_000)], "x,y", "line 3: field larger than field limit"),
    ([(0.1, 0.2), ('"0.3\n"', 0.4), (0.5, "abc")], "x,y", "line 3: a record must not span"),
    (RawFile("data.csv", b"x,y\n0.1,0.2\n\xff\xfe,0.3\n"), None, "line 3: not UTF-8 text"),
    (RawFile("data.csv", b"x\xff,y\n0.1,0.2\n"), None, "line 1: not UTF-8 text"),
    (RawFile("data.csv", gzip.compress(b"x,y\n0.1,0.2\n")), None, "line 1: not UTF-8 text"),
    (RawFile("data.csv.gz", gzip.compress(b"x,y\n0.1,0.2\n")), None, "compressed input"),
    (RawFile("data.csv", b'"x\n",y\n0.1,0.2\n'), None, "line 1: expected header 'x,y'"),
    (RawFile("data.csv", b"x," + b"y" * 200_000 + b"\n"), None, "line 1: field larger"),
    # Every epsilon passes the one budget check; 4/1e-320 overflows.
    (Flags(("--epsilon", "inf")), "x,y", "--epsilon: epsilon must be positive and finite"),
    (Flags(("--epsilon=-inf",)), "x,y", "--epsilon: epsilon must be positive"),
    (Flags(("--epsilon", "nan")), "x,y", "--epsilon: epsilon must be positive"),
    (Flags(("--epsilon", "0")), "x,y", "--epsilon: epsilon must be positive"),
    (Flags(("--epsilon", "1e-320")), "x,y", "finite Laplace scale 4/epsilon, got 1e-320"),
    (Flags(("--mechanism", "dp_theil_sen", "--epsilon", "inf")), "x,y", "got inf"),
    (Flags(("--mechanism", "dp_rss_poly", "--degree", "2", "--epsilon", "1e-320")), "x,y",
     "got 1e-320"),
    # Above 4/max_double the scale is finite, but below about 1.1e-152 the
    # largest draws, or products of two noisy sums, overflow: dp_ss at
    # 2.3e-308 once ended in a traceback from math.fsum.
    (Flags(("--mechanism", "dp_ss", "--epsilon", "2.3e-308")), "x,y",
     "got 2.3e-308; the smallest epsilon at which every noisy sum, and the product of two, "
     "stays finite is 1.096e-152"),
    # Bounds must be finite, with a finite span: an infinite span maps every
    # x to 0, which once gave a silent fit with alpha_hat -0.
    (Flags(("--epsilon", "1", "--x-min=0", "--x-max", "inf", "--y-min", "0", "--y-max", "5")),
     "x,y",
     "x bounds must be finite and satisfy x_min < x_max with a finite span, got [0.0, inf]"),
    (Flags(("--epsilon", "1", "--x-min=-1e308", "--x-max", "1e308", "--y-min", "0",
            "--y-max", "5")), "x,y", "with a finite span, got [-1e+308, 1e+308]"),
    (Flags(("--epsilon", "1", "--x-min=-inf", "--x-max", "5", "--y-min", "0", "--y-max", "5")),
     "x,y", "x bounds must be finite"),
    (Flags(("--epsilon", "1", "--x-min=0", "--x-max", "5", "--y-min", "nan", "--y-max", "5")),
     "x,y", "y bounds must be finite"),
    # A negative seed once ended in a traceback from RandomStream.
    (Flags(("--epsilon", "1", "--seed", "-3")), "x,y",
     "--seed must be a non-negative integer, got -3"),
    (Flags(("--mechanism", "dp_theil_sen", "--epsilon", "1", "--seed=-1")), "x,y",
     "--seed must be a non-negative integer, got -1"),
    (RawFile("data.csv", b""), None, "empty file, expected header 'x,y'"),
    # float() takes these and numpy's parser does not; the line is still named.
    (RawFile("data.csv", b"x,y\n0.1,0.2\n0_5,0.4\n"), None,
     "line 3: could not convert string to float: '0_5'"),
    (RawFile("data.csv", "x,y\n0.1,0.2\n\u0660.\u0665,0.4\n".encode()), None,
     "line 3: could not convert string to float: '\u0660.\u0665'"),
    (Flags(("--mechanism", "dp_rss_poly", "--degree", "0", "--epsilon", "1")), "x,y",
     "--degree: degree must be a positive integer, got 0"),
    (Flags(("--mechanism", "dp_rss_poly", "--degree", str(_MAX_DEGREE + 1), "--epsilon", "1")),
     "x,y", f"--degree: degree must be at most {_MAX_DEGREE}, got {_MAX_DEGREE + 1}"),
    (Flags(("--epsilon", "1", "--x-min", "0", "--x-max", "0.5", "--y-min", "0", "--y-max", "1")),
     "x,y", "outside declared bounds [0.0, 0.5]"),
])
def test_fit_input_errors(tmp_path, capsys, rows, header, fragment):
    flags = ("--epsilon", "1.0")
    if isinstance(rows, RawFile):
        path = tmp_path / rows.name
        path.write_bytes(rows.data)
        path = str(path)
    elif isinstance(rows, Flags):
        path, flags = write_csv(tmp_path, LINE_ROWS, header=header), rows.argv
    else:
        path = write_csv(tmp_path, rows, header=header)
    code, out, err = run(capsys, ["fit", path, *flags])
    assert code == 2
    assert err.startswith("dpreg: error: ") and "Traceback" not in err
    assert fragment in err


@pytest.mark.parametrize("flags, message", [
    ((), "record 0: x=1.5 outside [0, 1]; "
         "pass --x-min/--x-max/--y-min/--y-max to rescale raw data"),
    (("--x-min", "0", "--x-max", "1", "--y-min", "0", "--y-max", "1"),
     "record 0: x=1.5 outside declared bounds [0.0, 1.0]"),
])
def test_fit_out_of_range_message(tmp_path, capsys, flags, message):
    # The value prints as a Python float on every numpy, and the message
    # gives the CLI's rescaling hint alone, not the library's as well.
    path = write_csv(tmp_path, [(1.5, 0.2)])
    assert run(capsys, ["fit", path, "--epsilon", "1", *flags]) == (
        2, "", f"dpreg: error: {message}\n")


COMPRESSORS = {
    ".gz": gzip.compress,
    ".bz2": bz2.compress,
    ".xz": lzma.compress,
    ".lzma": lambda data: lzma.compress(data, format=lzma.FORMAT_ALONE),
}


@pytest.mark.parametrize("compressed", [False, True])
@pytest.mark.parametrize("suffix", sorted(COMPRESSORS))
def test_fit_refuses_compressed_suffixes(tmp_path, capsys, suffix, compressed):
    # numpy would decompress these names, so neither the plain text nor a
    # real archive is read.
    text = ("x,y\n" + "".join(f"{x},{y}\n" for x, y in LINE_ROWS)).encode()
    path = tmp_path / ("data.csv" + suffix)
    path.write_bytes(COMPRESSORS[suffix](text) if compressed else text)
    code, out, err = run(capsys, ["fit", str(path), "--epsilon", "1.0"])
    assert (code, out) == (2, "")
    assert err.startswith(f"dpreg: error: {path}: compressed input is not supported")


def test_fit_accepts_quotes_crlf_and_header_only(tmp_path, capsys, monkeypatch):
    argv = ["--epsilon", "0.5", "--seed", "11"]
    _, plain, _ = run(capsys, ["fit", write_csv(tmp_path, LINE_ROWS), *argv])
    quoted = write_csv(tmp_path, [(f'"{x}"', y) for x, y in LINE_ROWS], name="quoted.csv")
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes("\r\n".join(["x,y"] + [f"{x},{y}" for x, y in LINE_ROWS]).encode())
    # Names that numpy neither decompresses nor, once made absolute, takes
    # for a URL; the last is the relative path file:/localhost/data.csv.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file:" / "localhost").mkdir(parents=True)
    write_csv(tmp_path / "file:" / "localhost", LINE_ROWS)
    names = [write_csv(tmp_path, LINE_ROWS, name=n) for n in ("data.GZ", "data.csv.txt")]
    for path in (quoted, str(crlf), *names, "file://localhost/data.csv"):
        code, out, err = run(capsys, ["fit", path, *argv])
        assert (code, out, err) == (0, plain, NOTICE), path

    header_only = tmp_path / "header.csv"
    header_only.write_text("x,y")
    code, out, err = run(capsys, ["fit", str(header_only), *argv])
    assert code == 0 and err == NOTICE
    assert json.loads(out)["fallback"] is True


def _parse_corpus():
    """CSV texts, each given with its exact line ends, that every reader takes."""
    rng = np.random.default_rng(20261018)
    wide = rng.standard_normal(10**5) * 10.0 ** rng.integers(-300, 300, 10**5)
    unit = rng.random(10**5)
    seeded = "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(wide.tolist(), unit.tolist()))
    digits17 = "x,y\n" + "".join(
        f"{a:.17g},{b:.17g}\n" for a, b in zip(wide[:1000].tolist(), unit[:1000].tolist()))
    rows = "0.5,0.25\r\n" * ((_BLOCK_BYTES - 100) // 10)
    head = "x,y\r\n" + rows + "0.5,"
    pad = " " * (_BLOCK_BYTES - 1 - len(head) - len("0.25"))
    crlf_split = head + pad + "0.25\r\n0.75,0.5\r\n"  # \r ends the first read block
    cr_split = head + pad + "0.25\r0.75,0.5\n"
    assert crlf_split[_BLOCK_BYTES - 1:_BLOCK_BYTES + 1] == "\r\n"
    assert cr_split[_BLOCK_BYTES - 1:_BLOCK_BYTES + 1] == "\r0"
    return {
        "exponents": "x,y\n1e-3,2.5E+2\n-1.5e-300,4e300\n5E-324,1.7976931348623157e308\n",
        "plus_and_spaces": "x,y\n+0.5, 0.25\n 0.125 ,+1e0\n\t-2.5\t,  +.5  \n",
        "quoted": 'x,y\n"0.5","0.25"\n0.1,"-0.0"\n"+1e-2",3\n',
        "negative_zero": "x,y\n-0.0,0.0\n-0,+0\n-0e5,0\n",
        "repr": "x,y\n0.1,0.30000000000000004\n0.7071067811865476,2.220446049250313e-16\n",
        "digits17": digits17,
        "crlf": "x,y\r\n0.1,0.2\r\n0.3,0.4\r\n",
        "lone_cr": "x,y\r0.1,0.2\r0.3,0.4\r",
        "mixed": "x,y\r\n0.1,0.2\r0.3,0.4\n0.5,0.6\r\n0.7,0.8\r",
        "no_trailing_newline": "x,y\n0.1,0.2\n0.3,0.4",
        "header_only": "x,y\n",
        "header_only_no_newline": "x,y",
        "seeded_1e5": seeded,
        "crlf_split_across_blocks": crlf_split,
        "cr_at_block_end": cr_split,
    }


PARSE_CORPUS = _parse_corpus()


def reference_pairs(text: str) -> np.ndarray:
    """The records of ``text`` by csv.reader and float(), as an (n, 2) array."""
    rows = list(csv.reader(text.splitlines()))[1:]
    assert all(len(row) == 2 for row in rows)
    return np.array([[float(a), float(b)] for a, b in rows], dtype=np.float64).reshape(-1, 2)


@pytest.mark.parametrize("case", sorted(PARSE_CORPUS))
def test_read_xy_csv_matches_csv_reader_bitwise(tmp_path, case):
    text = PARSE_CORPUS[case]
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    got, want = _read_xy_csv(str(path)), reference_pairs(text)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()  # bitwise, so -0.0 and NaN payloads count
    assert _count_lines(str(path)) == len(text.splitlines())


def golden_csv(tmp_path, name, x_scale=1.0, y_scale=1.0, y_shift=0.0):
    """2000 seeded rows of a noisy line, each value written exactly."""
    rng = np.random.default_rng(20260418)
    x = rng.random(2000)
    y = np.clip(0.3 + 0.4 * x + 0.05 * rng.standard_normal(2000), 0.0, 1.0)
    rows = [(repr(x_scale * a), repr(y_scale * b - y_shift)) for a, b in zip(x.tolist(), y.tolist())]
    return write_csv(tmp_path, rows, name=name)


# Exact stdout of seeded fits. A change to these bytes changes a seeded
# release, so it must be deliberate and say so.
GOLDEN_FITS = [
    (["--mechanism", "dp_rss"],
     '{\n  "mechanism": "dp_rss",\n  "epsilon": 0.7,\n  "seed": 5,\n'
     '  "alpha_hat": 0.379113697482,\n  "beta_hat": 0.305160488252,\n  "fallback": false\n}\n'),
    (["--mechanism", "dp_ss"],
     '{\n  "mechanism": "dp_ss",\n  "epsilon": 0.7,\n  "seed": 5,\n'
     '  "alpha_hat": 0.406784361714,\n  "beta_hat": 0.289485712563,\n  "fallback": false\n}\n'),
    (["--mechanism", "dp_theil_sen"],
     '{\n  "mechanism": "dp_theil_sen",\n  "epsilon": 0.7,\n  "seed": 5,\n'
     '  "alpha_hat": 0.39286447707,\n  "beta_hat": 0.301719651567,\n  "fallback": false\n}\n'),
    (["--mechanism", "dp_rss_poly", "--degree", "3"],
     '{\n  "mechanism": "dp_rss_poly",\n  "epsilon": 0.7,\n  "seed": 5,\n  "degree": 3,\n'
     '  "coeffs": [0.568871029712, -0.444987323568, 0.31163922677, 0.346240284135],\n'
     '  "fallback": false\n}\n'),
    (["--mechanism", "dp_rss", "--x-min", "0", "--x-max", "10", "--y-min", "-50",
      "--y-max", "50"],
     '{\n  "mechanism": "dp_rss",\n  "epsilon": 0.7,\n  "seed": 5,\n'
     '  "alpha_hat": 3.79113697482,\n  "beta_hat": -19.4839511748,\n  "fallback": false\n}\n'),
]


@pytest.mark.parametrize("flags, expected", GOLDEN_FITS)
def test_fit_golden_outputs(tmp_path, capsys, flags, expected):
    if "--x-min" in flags:
        path = golden_csv(tmp_path, "raw.csv", x_scale=10.0, y_scale=100.0, y_shift=50.0)
    else:
        path = golden_csv(tmp_path, "unit.csv")
    code, out, err = run(capsys, ["fit", path, "--epsilon", "0.7", "--seed", "5", *flags])
    assert (code, err) == (0, NOTICE)
    assert out == expected


# Exact stdout of a seeded variance check. It runs the bulk Laplace path
# (more than one block of draws per chunk) and the chunked variance merge
# over six full chunks of trials and a partial one; its values must not move.
GOLDEN_VERIFY = (
    'statistic,method,empirical_var,theoretical_var,relative_error,improvement_ratio\n'
    'n,dp_rss,12.0078343989,12,0.000652866572166,1.33299580662\n'
    'n,dp_ss,16.0063929003,16,0.000399556267888,1.33299580662\n'
    's_x,dp_rss,10.6441740185,10.6666666667,0.00210868576729,3.01220710892\n'
    's_x,dp_ss,32.0624566471,32,0.0019517702206,3.01220710892\n'
    's_y,dp_rss,10.6551956338,10.6666666667,0.00107540933227,2.99240315074\n'
    's_y,dp_ss,31.8846409863,32,0.00360496917962,2.99240315074\n'
    's_x2,dp_rss,6.61457002764,6.66666666667,0.00781449585398,4.80316769914\n'
    's_x2,dp_ss,31.7708891004,32,0.00715971561112,4.80316769914\n'
    's_xy,dp_rss,6.65817436934,6.66666666667,0.00127384459968,4.77101365358\n'
    's_xy,dp_ss,31.766240824,32,0.00730497424854,4.77101365358\n'
)


def test_verify_golden_output(capsys):
    code, out, err = run(capsys, ["verify", "--epsilon", "1.0", "--trials", "100000",
                                  "--seed", "5"])
    assert (code, err) == (0, "")
    assert out == GOLDEN_VERIFY


def test_fit_flag_misuse(tmp_path, capsys):
    path = write_csv(tmp_path, LINE_ROWS)
    cases = [
        (["fit", path, "--epsilon", "0"], "positive"),
        (["fit", path, "--epsilon", "1", "--degree", "2"], "--degree"),
        (["fit", path, "--mechanism", "dp_rss_poly", "--epsilon", "1"], "--degree"),
        (["fit", path, "--mechanism", "dp_rss_poly", "--degree", "2",
          "--epsilon", "1", "--x-min", "0", "--x-max", "1", "--y-min", "0",
          "--y-max", "1"], "unit square"),
        (["fit", path, "--epsilon", "1", "--x-min", "0"], "together"),
        (["fit", str(tmp_path / "missing.csv"), "--epsilon", "1"], "cannot read"),
    ]
    for argv, fragment in cases:
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert fragment in err, argv
    # argparse rejects unknown mechanisms on its own
    code, _, err = run(capsys, ["fit", path, "--mechanism", "ols", "--epsilon", "1"])
    assert code == 2
    assert "invalid choice" in err


def test_fit_degree_bound(tmp_path, capsys):
    # The largest degree fits (here it falls back); one above it is refused
    # before the file is read, so a missing file is not reported.
    path = write_csv(tmp_path, LINE_ROWS)
    code, out, err = run(capsys, ["fit", path, "--mechanism", "dp_rss_poly", "--degree",
                                  str(_MAX_DEGREE), "--epsilon", "1", "--seed", "3"])
    assert (code, err) == (0, NOTICE)
    assert json.loads(out)["degree"] == _MAX_DEGREE
    code, out, err = run(capsys, ["fit", str(tmp_path / "missing.csv"), "--mechanism",
                                  "dp_rss_poly", "--degree", str(_MAX_DEGREE + 1),
                                  "--epsilon", "1"])
    assert (code, out) == (2, "")
    assert err.startswith(f"dpreg: error: --degree: degree must be at most {_MAX_DEGREE}, "
                          f"got {_MAX_DEGREE + 1}; ")


def experiment_config(tmp_path, **overrides):
    cfg = {
        "n": 60, "alpha": 0.5, "beta": 0.2, "sigma": 0.05, "seed": 3,
        "epsilons": [0.5, 1.0], "iterations": 3,
        "methods": ["dp_rss", "dp_theil_sen", "dp_ss"],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_experiment_writes_csv_and_manifest(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    config = experiment_config(tmp_path)
    out_path = tmp_path / "results.csv"
    code, _, err = run(capsys, ["experiment", config, "--output", str(out_path)])
    assert code == 0 and err == ""

    lines = out_path.read_text().splitlines()
    assert lines[0] == RESULTS_HEADER
    assert len(lines) == 7
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == ["dp_rss"] * 2 + ["dp_ss"] * 2 + ["dp_theil_sen"] * 2
    assert [line.split(",")[1] for line in lines[1:]] == ["0.5", "1"] * 3

    manifest = json.loads((tmp_path / "results.csv.manifest.json").read_text())
    assert manifest["command"] == "experiment"
    assert manifest["seed"] == 3
    assert manifest["budget"] is None
    assert manifest["mechanism"] is None
    assert manifest["timestamp"] == "2023-11-14T22:13:20+00:00"
    assert manifest["output_paths"] == [str(out_path)]

    # rerunning reproduces both files byte for byte
    first_csv = out_path.read_bytes()
    first_manifest = (tmp_path / "results.csv.manifest.json").read_bytes()
    assert main(["experiment", config, "--output", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == first_csv
    assert (tmp_path / "results.csv.manifest.json").read_bytes() == first_manifest


@pytest.mark.parametrize("epoch", ["abc", "1e3", "-99999999999999", "9" * 30])
def test_bad_source_date_epoch_is_a_usage_error_that_writes_nothing(tmp_path, capsys,
                                                                    monkeypatch, epoch):
    # It once ended in a traceback after the results file was written,
    # which was left without its manifest.
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    for argv, name in ((["experiment", experiment_config(tmp_path)], "results.csv"),
                       (["verify", "--epsilon", "1.0", "--trials", "100000"], "variances.csv")):
        code, out, err = run(capsys, argv + ["--output", str(tmp_path / name)])
        assert (code, out) == (2, "")
        assert err == ("dpreg: error: SOURCE_DATE_EPOCH must be Unix seconds in years 1-9999, "
                       f"got {epoch!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("epoch", [None, ""])
def test_unset_or_empty_source_date_epoch_stamps_the_current_time(tmp_path, capsys,
                                                                  monkeypatch, epoch):
    if epoch is None:
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    else:
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    for argv in (["experiment", experiment_config(tmp_path, methods=["dp_rss"])],
                 ["verify", "--epsilon", "1.0", "--trials", "100000"]):
        before = datetime.now(tz=timezone.utc).replace(microsecond=0)
        code, _, err = run(capsys, argv + ["--output", str(tmp_path / "out.csv")])
        assert (code, err) == (0, "")
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        stamp = datetime.fromisoformat(manifest["timestamp"])
        assert before <= stamp <= datetime.now(tz=timezone.utc)


def test_experiment_single_iteration_writes_na(tmp_path, capsys):
    config = experiment_config(tmp_path, iterations=1, methods=["dp_rss"],
                               epsilons=[1.0])
    out_path = tmp_path / "one.csv"
    code, _, _ = run(capsys, ["experiment", config, "--output", str(out_path)])
    assert code == 0
    row = out_path.read_text().splitlines()[1].split(",")
    assert row[3] == "NA" and row[5] == "NA"   # std columns
    assert row[2] != "NA"


@pytest.mark.parametrize("overrides, fragment", [
    ({"budget": 1.0}, "unknown config key"),
    ({"methods": ["ols"]}, "unknown method"),
    ({"epsilons": [1.0, 0.5]}, "increasing"),
    ({"n": 10.5}, "positive integer"),
    ({"fresh_data_per_iteration": "yes"}, "true or false"),
    ({"epsilons": [0.5, float("inf")]}, "epsilon must be positive and finite"),
    ({"epsilons": [float("nan")]}, "epsilon must be positive"),
    ({"epsilons": [0.0, 1.0]}, "epsilon must be positive"),
    ({"epsilons": [1e-320, 1.0]}, "finite Laplace scale"),
    ({"epsilons": []}, "must not be empty"),
    # A non-finite setup value once ended in a traceback from Dataset.
    ({"alpha": float("nan")}, "alpha must be finite, got nan"),
    ({"beta": float("inf")}, "beta must be finite, got inf"),
    ({"sigma": float("nan")}, "sigma must be finite, got nan"),
    ({"sigma": float("inf")}, "sigma must be finite, got inf"),
    # JSON booleans are Python ints: these once ended in a numpy traceback,
    # and a true epsilon ran silently at epsilon 1.
    ({"n": True, "seed": False, "iterations": True}, "n must be a positive integer, got True"),
    ({"seed": False}, "seed must be a non-negative integer, got False"),
    ({"iterations": True}, "iterations must be a positive integer, got True"),
    ({"epsilons": [True]}, "epsilon must be a number, got True"),
    ({"epsilons": [0.5, False]}, "epsilon must be a number, got False"),
    ({"alpha": True}, "alpha must be a number, got true"),
    ({"sigma": False}, "sigma must be a number, got false"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    # float() takes text: these once ran, at epsilons 1 and 2 and at alpha 0.5.
    ({"epsilons": "12"}, "epsilon must be a number, got '1'"),
    ({"epsilons": ["0.5", 1.0]}, "epsilon must be a number, got '0.5'"),
    ({"alpha": "0.5"}, 'alpha must be a number, got "0.5"'),
    ({"beta": None}, "beta must be a number, got null"),
    ({"sigma": [0.1]}, "sigma must be a number, got [0.1]"),
])
def test_experiment_config_errors(tmp_path, capsys, overrides, fragment):
    config = experiment_config(tmp_path, **overrides)
    code, _, err = run(capsys, ["experiment", config, "--output",
                                str(tmp_path / "x.csv")])
    assert code == 2
    assert not (tmp_path / "x.csv").exists()
    assert err.startswith("dpreg: error: ") and "Traceback" not in err
    assert fragment in err


def test_experiment_missing_key_and_bad_json(tmp_path, capsys):
    cfg = {"n": 50}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, ["experiment", str(path), "--output",
                                str(tmp_path / "x.csv")])
    assert code == 2 and "missing config key" in err

    bad = tmp_path / "bad.json"
    for text, fragment in (("{not json", "invalid JSON"), ("[1, 2]", "config must be a JSON object"),
                           (None, "cannot read")):
        if text is None:
            bad.unlink()
        else:
            bad.write_text(text)
        code, _, err = run(capsys, ["experiment", str(bad), "--output",
                                    str(tmp_path / "x.csv")])
        assert code == 2 and fragment in err, text


def test_experiment_numbers_past_the_double_range_are_usage_errors(tmp_path, capsys):
    # A 401-digit alpha, sigma or epsilon once ended in an OverflowError
    # traceback, and a 5,001-digit number in json's digit-limit ValueError,
    # which is not a JSONDecodeError. Each exits 2 naming the file.
    out_path = tmp_path / "x.csv"
    big = 10**400
    for overrides, fragment in (({"alpha": big}, "alpha must be finite"),
                                ({"sigma": big}, "sigma must be finite"),
                                ({"epsilons": [0.5, big]}, "epsilon must be positive"),
                                ({"seed": "many digits"}, "invalid JSON")):
        config = experiment_config(tmp_path, **overrides)
        path = tmp_path / "config.json"
        path.write_text(path.read_text().replace('"many digits"', "1" + "0" * 5000))
        code, _, err = run(capsys, ["experiment", config, "--output", str(out_path)])
        assert code == 2 and err.startswith(f"dpreg: error: {config}: ") and fragment in err
        assert "Traceback" not in err and not out_path.exists()


@pytest.mark.parametrize("command", ["experiment", "verify"])
def test_unwritable_output_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                            command):
    # An unwritable --output once ended in a traceback after the whole run.
    # Each path is checked before the run, and a CSV that exists keeps its
    # bytes when its manifest cannot be written.
    def no_run(*args, **kwargs):
        raise AssertionError("the run started before its output was checked")

    monkeypatch.setattr("dpreg.cli.run_experiment", no_run)
    monkeypatch.setattr("dpreg.cli.verify_variances", no_run)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    argv = (["experiment", experiment_config(tmp_path)] if command == "experiment"
            else ["verify", "--epsilon", "1.0", "--trials", "100000"])
    missing = tmp_path / "missing" / "out.csv"
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    (tmp_path / "kept.csv.manifest.json").mkdir()
    (tmp_path / "new.csv.manifest.json").mkdir()
    for out_path, reason in ((missing, "No such file or directory"),
                             (kept, "Is a directory"), (tmp_path / "new.csv", "Is a directory")):
        code, out, err = run(capsys, argv + ["--output", str(out_path)])
        assert (code, out) == (2, "")
        failed = missing if out_path == missing else f"{out_path}.manifest.json"
        assert err == f"dpreg: error: cannot write {failed}: {reason}\n"
    assert kept.read_text() == "old\n"
    left = sorted(p.name for p in tmp_path.iterdir() if p.name != "config.json")
    assert left == ["kept.csv", "kept.csv.manifest.json", "new.csv.manifest.json"]


def test_verify_prints_table(capsys):
    code, out, err = run(capsys, ["verify", "--epsilon", "1.0",
                                  "--trials", "100000", "--seed", "5"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == VERIFY_HEADER
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "n" and first[1] == "dp_rss"
    assert float(first[3]) == 12.0
    for a, b in zip(lines[1::2], lines[2::2]):
        fa, fb = a.split(","), b.split(",")
        assert fa[0] == fb[0]
        assert float(fa[4]) < 0.05 and float(fb[4]) < 0.05
        assert fa[5] == fb[5]  # shared improvement ratio per statistic


def test_verify_epsilon_scales_theory(capsys):
    code, out, _ = run(capsys, ["verify", "--epsilon", "2.0",
                                "--trials", "100000", "--seed", "5"])
    assert code == 0
    first = out.splitlines()[1].split(",")
    assert float(first[3]) == 3.0  # 12 / epsilon^2


def test_verify_rejects_small_trial_counts(capsys):
    code, _, err = run(capsys, ["verify", "--epsilon", "1.0", "--trials", "999"])
    assert code == 2
    assert "at least 100000" in err


@pytest.mark.parametrize("epsilon", ["inf", "nan", "0", "-1", "1e-320"])
def test_verify_rejects_bad_epsilon(capsys, epsilon):
    code, out, err = run(capsys, ["verify", "--epsilon", epsilon, "--trials", "100000"])
    assert (code, out) == (2, "")
    assert err.startswith("dpreg: error: --epsilon: epsilon must be positive")


def test_verify_rejects_negative_seed(capsys):
    # A negative seed once ended in a traceback from RandomStream.
    code, out, err = run(capsys, ["verify", "--epsilon", "1.0", "--trials", "100000",
                                  "--seed", "-3"])
    assert (code, out) == (2, "")
    assert err == "dpreg: error: --seed must be a non-negative integer, got -3\n"


def test_verify_output_file_with_manifest(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    out_path = tmp_path / "variances.csv"
    argv = ["verify", "--epsilon", "1.0", "--trials", "100000",
            "--output", str(out_path)]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out == ""
    assert out_path.read_text().splitlines()[0] == VERIFY_HEADER
    manifest = json.loads((tmp_path / "variances.csv.manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["budget"] == 1.0
    first = out_path.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == first
