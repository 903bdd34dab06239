"""Command-line interface: fit, experiment, and verify subcommands.

Outputs are deterministic functions of the flags: floats are serialized with
12 significant digits, CSV rows have a fixed order, and run manifests honour
SOURCE_DATE_EPOCH, so rerunning a command reproduces its files byte for
byte. The one exception is ``dpreg fit`` without ``--seed``, which draws its
noise from a secret seed that it does not print. A seeded fit writes
``SEEDED_FIT_NOTICE`` to stderr and nothing more to stdout. Usage and
format errors exit with status 2; a mechanism falling back is still a
successful run and exits 0.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import warnings
from dataclasses import astuple, fields
from datetime import datetime, timezone

import numpy as np

from .data import _RESCALE_HINT, Bounds, Dataset, normalize
from .evaluate import (
    _MIN_TRIALS,
    VARIANCES,
    ExperimentGrid,
    ExperimentRow,
    SetupConfig,
    STATISTIC_ORDER,
    VarianceRow,
    run_experiment,
    verify_variances,
)
from .mechanisms import MECHANISMS, _fit, denormalize_fit
from .noise import RandomStream, _as_epsilon, _as_float
from .simplex import _as_degree

RESULTS_HEADER = ",".join(f.name for f in fields(ExperimentRow))
# VarianceRow's fields, then the baseline's variance over the refined one's.
VERIFY_HEADER = ",".join([f.name for f in fields(VarianceRow)] + ["improvement_ratio"])

# Written to stderr by every seeded ``dpreg fit``; stdout stays the release alone.
SEEDED_FIT_NOTICE = ("dpreg: note: --seed makes this release reproducible; it is not private "
                     "against anyone who knows the seed")

MECHANISM_NAMES = tuple(MECHANISMS)
# The mechanisms whose every fit is given its degree, so it is a polynomial.
_POLYNOMIAL_NAMES = tuple(name for name, m in MECHANISMS.items() if m.hyper is None)


class _CliError(Exception):
    """Usage or format error; printed to stderr with exit status 2."""


def _fmt(value: float) -> str:
    """Serialize a float with 12 significant digits; NaN becomes NA."""
    if isinstance(value, float) and math.isnan(value):
        return "NA"
    return format(value, ".12g")


def _json_dumps(value) -> str:
    """Minimal JSON writer of a flat object that formats every float via :func:`_fmt`."""
    if isinstance(value, dict):
        items = ",\n".join(f'  "{k}": {_json_dumps(v)}' for k, v in value.items())
        return "{\n" + items + "\n}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_dumps(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return "null" if math.isnan(value) else _fmt(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _timestamp() -> str:
    """UTC timestamp, overridable via SOURCE_DATE_EPOCH; read before a command writes a file."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        ts = int(epoch) if epoch else int(datetime.now(tz=timezone.utc).timestamp())
        return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise _CliError(f"SOURCE_DATE_EPOCH must be Unix seconds in years 1-9999, got {epoch!r}")


def _start_output(path: str) -> str:
    """The manifest's timestamp, once ``path`` and its manifest are known to be writable.

    Runs before any work. Opens each file for appending, so an existing one
    keeps its bytes, and removes one that it created; exits 2 naming the
    first that cannot be written, so a run never leaves a CSV without its
    manifest, and writes nothing when the timestamp is refused.
    """
    timestamp = _timestamp()
    for target in (path, path + ".manifest.json"):
        existed = os.path.lexists(target)
        try:
            open(target, "a").close()
        except OSError as exc:
            raise _CliError(f"cannot write {target}: {exc.strerror}") from exc
        if not existed:
            os.remove(target)
    return timestamp


def _write_manifest(command: str, seed, budget, timestamp: str, output_path: str) -> None:
    manifest = {
        "command": command,
        "seed": seed,
        "budget": budget,
        "mechanism": None,
        "timestamp": timestamp,
        "output_paths": [output_path],
    }
    with open(output_path + ".manifest.json", "w") as fh:
        fh.write(_json_dumps(manifest) + "\n")


# numpy opens a file name ending in one of these through a decompressor.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
_BLOCK_BYTES = 1 << 20  # read size of the line count


def _read_xy_csv(path: str) -> np.ndarray:
    """Parse a two-column CSV with mandatory header ``x,y`` into an (n, 2) array.

    The input is UTF-8 text with one record per line; \\n, \\r\\n and \\r
    each end a line. numpy's C reader pulls large blocks only when it is
    given a file name rather than a handle, and it then decompresses names
    that end in a compression suffix, so those names are refused.
    """
    if os.path.splitext(path)[1] in _COMPRESSED_SUFFIXES:
        raise _CliError(
            f"{path}: compressed input is not supported; names ending in "
            f"{', '.join(_COMPRESSED_SUFFIXES)} are refused, so decompress or rename it"
        )
    try:
        fh = open(path, encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise _CliError(f"{path} line 1: {exc}") from exc
    if header is None:
        raise _CliError(f"{path}: empty file, expected header 'x,y'")
    if not _is_utf8(header):
        raise _CliError(f"{path} line 1: not UTF-8 text")
    # loadtxt skips one line, so the header must not span lines.
    if [c.strip() for c in header] != ["x", "y"] or reader.line_num != 1:
        raise _CliError(f"{path} line 1: expected header 'x,y', got {','.join(header)!r}")
    rows = _count_lines(path) - 1
    if rows == 0:
        return np.empty((0, 2))
    try:
        with warnings.catch_warnings():
            # An all-blank body is caught by the row count below.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # The absolute path keeps numpy from reading a name like
            # "http://host/x.csv" as a URL.
            pairs = np.loadtxt(
                os.path.abspath(path), delimiter=",", comments=None, quotechar='"',
                skiprows=1, encoding="utf-8", dtype=np.float64, ndmin=2,
            )
    except ValueError as exc:  # UnicodeDecodeError included
        raise _CliError(_first_bad_line(path) or f"{path}: {exc}") from exc
    # loadtxt skips blank lines silently, so every line must give one row.
    if pairs.shape != (rows, 2):
        raise _CliError(
            _first_bad_line(path)
            or f"{path}: {len(pairs)} records on {rows} lines; a record must not span lines"
        )
    return pairs


def _count_lines(path: str) -> int:
    """Number of lines in ``path``, where \\n, \\r\\n and \\r each end a line."""
    count, last = 0, b"\n"
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_BLOCK_BYTES), b""):
            count += block.count(b"\n")
            if b"\r" in block:  # a fast scan; counting pairs is slow
                count += block.count(b"\r") - block.count(b"\r\n")
            if last == b"\r" and block.startswith(b"\n"):  # a \r\n split across blocks
                count -= 1
            last = block[-1:]
    return count + (last not in (b"\n", b"\r"))


def _is_utf8(fields) -> bool:
    """False if ``fields`` hold bytes that were not UTF-8 (surrogate escapes)."""
    try:
        ",".join(fields).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _parse_float(field: str) -> float:
    """``float(field)``, refusing also what ``float`` takes and numpy's parser does not.

    Those are underscores and non-ASCII digits; whitespace around the
    number, Unicode included, both take.
    """
    if "_" in field or not field.strip().isascii():
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(field)


def _first_bad_line(path: str) -> str | None:
    """Describe the first record of ``path`` that is not two floats, if any.

    Runs only after the fast parse failed, to name the offending line; it
    never returns data.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        lineno = 1
        try:
            for lineno, row in enumerate(reader, start=2):
                if reader.line_num != lineno:  # so far one record per line
                    return f"{path} line {lineno}: a record must not span lines"
                if not _is_utf8(row):
                    return f"{path} line {lineno}: not UTF-8 text"
                if len(row) != 2:
                    return f"{path} line {lineno}: expected 2 fields, got {len(row)}"
                try:
                    _parse_float(row[0]), _parse_float(row[1])
                except ValueError as exc:
                    return f"{path} line {lineno}: {exc}"
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            return f"{path} line {lineno + 1}: {exc}"
    return None


def _bounds_from_args(args) -> Bounds | None:
    flags = (args.x_min, args.x_max, args.y_min, args.y_max)
    given = sum(v is not None for v in flags)
    if given == 0:
        return None
    if given < 4:
        raise _CliError("--x-min, --x-max, --y-min, and --y-max must be given together")
    try:
        return Bounds(*flags)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _check_budget_flags(args) -> None:
    """Check ``--epsilon`` and ``--seed`` before anything is read or drawn."""
    try:
        _as_epsilon(args.epsilon)
    except ValueError as exc:
        raise _CliError(f"--epsilon: {exc}") from exc
    if args.seed is not None and args.seed < 0:
        raise _CliError(f"--seed must be a non-negative integer, got {args.seed}")


def cmd_fit(args) -> int:
    _check_budget_flags(args)
    bounds = _bounds_from_args(args)
    polynomial = MECHANISMS[args.mechanism].hyper is None
    if polynomial:
        if args.degree is None:
            raise _CliError(f"{args.mechanism} requires --degree")
        try:
            _as_degree(args.degree)
        except ValueError as exc:
            raise _CliError(f"--degree: {exc}") from exc
        if bounds is not None:
            raise _CliError(
                "bounds rescaling applies to the linear mechanisms only; "
                f"{args.mechanism} expects data already in the unit square"
            )
    elif args.degree is not None:
        raise _CliError(f"--degree is only valid with {', '.join(_POLYNOMIAL_NAMES)}, "
                        f"not {args.mechanism}")

    pairs = _read_xy_csv(args.data)
    if bounds is not None:
        try:
            ds = normalize(pairs, bounds)
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
    else:
        try:
            ds = Dataset(pairs[:, 0], pairs[:, 1])
        except ValueError as exc:  # the CLI's rescaling hint replaces the library's
            hint = "pass --x-min/--x-max/--y-min/--y-max to rescale raw data"
            raise _CliError(str(exc).replace(_RESCALE_HINT, hint)) from exc
    del pairs  # the Dataset holds its own columns; the fit needs no parse

    seed = args.seed
    if seed is None:
        import secrets  # only an unseeded release reads the OS's entropy

        seed = secrets.randbits(128)
    fit = _fit(args.mechanism, ds, args.epsilon, RandomStream(seed, 0), None, args.degree)
    if bounds is not None:
        fit = denormalize_fit(fit, bounds)
    out = {"mechanism": args.mechanism, "epsilon": args.epsilon, "seed": args.seed}
    if polynomial:
        out["degree"] = fit.degree
        out["coeffs"] = list(fit.coeffs)
    else:
        out["alpha_hat"], out["beta_hat"] = fit.coeffs
    out["fallback"] = fit.fallback
    print(_json_dumps(out))
    if args.seed is not None:
        print(SEEDED_FIT_NOTICE, file=sys.stderr)
    return 0


_CONFIG_REQUIRED = tuple(f.name for f in fields(SetupConfig) + fields(ExperimentGrid))
_CONFIG_OPTIONAL = ("fresh_data_per_iteration",)


def _load_experiment_config(path: str):
    import json

    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past json's digit limit
        raise _CliError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise _CliError(f"{path}: config must be a JSON object")
    for key in raw:
        if key not in _CONFIG_REQUIRED + _CONFIG_OPTIONAL:
            raise _CliError(f"{path}: unknown config key {key!r}")
    for key in _CONFIG_REQUIRED:
        if key not in raw:
            raise _CliError(f"{path}: missing config key {key!r}")
    fresh = raw.get("fresh_data_per_iteration", False)
    if not isinstance(fresh, bool):
        raise _CliError(f"{path}: fresh_data_per_iteration must be true or false")
    # JSON numbers load as int or float; float() would take true for 1 and "0.5" for 0.5.
    for key in ("alpha", "beta", "sigma"):
        if type(raw[key]) not in (int, float):
            raise _CliError(f"{path}: {key} must be a number, got {json.dumps(raw[key])}")
    try:
        setup = SetupConfig(
            n=raw["n"], alpha=_as_float(raw["alpha"]), beta=_as_float(raw["beta"]),
            sigma=_as_float(raw["sigma"]), seed=raw["seed"],
        )
        grid = ExperimentGrid(
            epsilons=tuple(raw["epsilons"]), iterations=raw["iterations"],
            methods=tuple(raw["methods"]),
        )
    except (TypeError, ValueError) as exc:
        raise _CliError(f"{path}: {exc}") from exc
    return setup, grid, fresh


def _results_csv_lines(rows):
    lines = [RESULTS_HEADER]
    for r in rows:
        method, *values = astuple(r)
        lines.append(",".join([method] + [_fmt(v) for v in values]))
    return lines


def cmd_experiment(args) -> int:
    setup, grid, fresh = _load_experiment_config(args.config)
    timestamp = _start_output(args.output)
    rows = run_experiment(setup, grid, fresh_data_per_iteration=fresh)
    with open(args.output, "w") as fh:
        fh.write("\n".join(_results_csv_lines(rows)) + "\n")
    _write_manifest("experiment", setup.seed, None, timestamp, args.output)
    return 0


def _verify_csv_lines(rows):
    by_key = {(r.statistic, r.method): r for r in rows}
    refined, baseline = VARIANCES
    lines = [VERIFY_HEADER]
    for stat in STATISTIC_ORDER:
        ratio = by_key[stat, baseline].empirical_var / by_key[stat, refined].empirical_var
        for method in (refined, baseline):
            values = astuple(by_key[stat, method])[2:] + (ratio,)
            lines.append(",".join([stat, method] + [_fmt(v) for v in values]))
    return lines


def cmd_verify(args) -> int:
    _check_budget_flags(args)
    if args.trials < _MIN_TRIALS:
        raise _CliError(f"--trials must be at least {_MIN_TRIALS}, got {args.trials}")
    timestamp = _start_output(args.output) if args.output else None
    rows = verify_variances(args.epsilon, args.trials, RandomStream(args.seed, 0))
    lines = _verify_csv_lines(rows)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        _write_manifest("verify", args.seed, args.epsilon, timestamp, args.output)
    else:
        print("\n".join(lines))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpreg",
        description="Differentially private linear and polynomial regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one dataset privately")
    fit.add_argument("data", help="CSV file with header x,y")
    fit.add_argument("--mechanism", choices=MECHANISM_NAMES, default="dp_rss")
    fit.add_argument("--epsilon", type=float, required=True, help="total privacy budget")
    fit.add_argument("--seed", type=int, default=None,
                     help="seed of the noise; a seeded release is reproducible and is not "
                          "private against anyone who knows the seed (default: a secret "
                          "128-bit seed from the OS, printed as null)")
    fit.add_argument("--degree", type=int, default=None,
                     help=f"polynomial degree ({', '.join(_POLYNOMIAL_NAMES)})")
    fit.add_argument("--x-min", type=float, default=None, help="raw-data bounds for rescaling")
    fit.add_argument("--x-max", type=float, default=None)
    fit.add_argument("--y-min", type=float, default=None)
    fit.add_argument("--y-max", type=float, default=None)
    fit.set_defaults(func=cmd_fit)

    exp = sub.add_parser("experiment", help="Monte Carlo error sweep from a JSON config")
    exp.add_argument("config", help="JSON config file")
    exp.add_argument("--output", required=True, help="results CSV path")
    exp.set_defaults(func=cmd_experiment)

    ver = sub.add_parser("verify", help="check released-statistic variances against theory")
    ver.add_argument("--epsilon", type=float, required=True)
    ver.add_argument("--trials", type=int, default=1_000_000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--output", default=None, help="CSV path (default: stdout)")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"dpreg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
