import bz2
import csv
import gzip
import json
import lzma
from typing import NamedTuple

import numpy as np
import pytest

from dpreg.cli import (
    _BLOCK_BYTES,
    MECHANISM_NAMES,
    RESULTS_HEADER,
    VERIFY_HEADER,
    _count_lines,
    _read_xy_csv,
    main,
)


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


def test_fit_recovers_line_at_huge_budget(tmp_path, capsys):
    path = write_csv(tmp_path, LINE_ROWS)
    code, out, err = run(capsys, ["fit", path, "--epsilon", "1e6", "--seed", "3"])
    assert code == 0 and err == ""
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
        assert (code, out, err) == (0, plain, ""), path

    header_only = tmp_path / "header.csv"
    header_only.write_text("x,y")
    code, out, err = run(capsys, ["fit", str(header_only), *argv])
    assert code == 0 and err == ""
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
     '  "alpha_hat": 0.39993640681,\n  "beta_hat": 0.300465332559,\n  "fallback": false\n}\n'),
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
    assert (code, err) == (0, "")
    assert out == expected


# Exact stdout of a seeded variance check. It runs the bulk Laplace path
# (more than one block of draws), whose values must not move.
GOLDEN_VERIFY = (
    'statistic,method,empirical_var,theoretical_var,relative_error,improvement_ratio\n'
    'n,dp_rss,12.0221418906,12,0.00184515754705,1.3322776723\n'
    'n,dp_ss,16.016831214,16,0.00105195087633,1.3322776723\n'
    's_x,dp_rss,10.5950270792,10.6666666667,0.00671621132143,3.03747282536\n'
    's_x,dp_ss,32.1821068371,32,0.0056908386596,3.03747282536\n'
    's_y,dp_rss,10.7196728422,10.6666666667,0.00496932895219,2.97846200634\n'
    's_y,dp_ss,31.9281382807,32,0.00224567872656,2.97846200634\n'
    's_x2,dp_rss,6.65709270104,6.66666666667,0.00143609484363,4.78806932248\n'
    's_x2,dp_ss,31.8746213388,32,0.00391808316275,4.78806932248\n'
    's_xy,dp_rss,6.78259095357,6.66666666667,0.0173886430358,4.70922135679\n'
    's_xy,dp_ss,31.9407221729,32,0.00185243209684,4.70922135679\n'
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
])
def test_experiment_config_errors(tmp_path, capsys, overrides, fragment):
    config = experiment_config(tmp_path, **overrides)
    code, _, err = run(capsys, ["experiment", config, "--output",
                                str(tmp_path / "x.csv")])
    assert code == 2
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
    bad.write_text("{not json")
    code, _, err = run(capsys, ["experiment", str(bad), "--output",
                                str(tmp_path / "x.csv")])
    assert code == 2 and "invalid JSON" in err


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
