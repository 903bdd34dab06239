"""Child process of the benchmark; it runs the program being measured.

``worker.py loop --workload W --seed S --seconds T --trace 0|1 --out FILE``
    Runs rounds of an in-process workload for T seconds and writes each
    lane's samples and outputs to FILE as JSON. With ``--trace 1`` the first
    half of the time runs untraced and the second half with spans on; the
    spans go to ``--spans``.
``worker.py fit --summary FILE --spans FILE -- fit <dpreg fit arguments>``
    Runs ``dpreg fit`` in this process with spans on, then writes them.

Both expect ``dpreg`` importable from ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys

import tracing
import workloads

SPAN_LIMIT = 100_000  # spans written per file; the summary covers all of them


def write_spans(tracer, path) -> None:
    with open(path, "w") as fh:
        json.dump({"total": len(tracer.spans), "fields": tracing.SPAN_FIELDS,
                   "spans": tracer.span_records(SPAN_LIMIT)}, fh)


def cmd_loop(args) -> int:
    dpreg = workloads.import_dpreg()
    lane_fns = workloads.lanes(dpreg, args.workload, args.seed)
    result = {}
    if args.trace:
        half = args.seconds / 2.0
        result["rounds"] = workloads.run_rounds(lane_fns, half)
        tracer = tracing.Tracer().install_all()
        try:
            result["traced_rounds"] = workloads.run_rounds(
                lane_fns, half, len(result["rounds"]), tracer)
        finally:
            tracer.restore()
        result["trace"] = tracer.summary()
        write_spans(tracer, args.spans)
    else:
        result["rounds"] = workloads.run_rounds(lane_fns, args.seconds)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def cmd_fit(args) -> int:
    dpreg = workloads.import_dpreg()
    tracer = tracing.Tracer().install_all()
    try:
        code = dpreg.cli.main(args.argv)
    finally:
        tracer.restore()
    with open(args.summary, "w") as fh:
        json.dump(tracer.summary(), fh)
    write_spans(tracer, args.spans)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    loop = sub.add_parser("loop")
    loop.add_argument("--workload", required=True)
    loop.add_argument("--seed", type=int, required=True)
    loop.add_argument("--seconds", type=float, required=True)
    loop.add_argument("--trace", type=int, choices=(0, 1), default=0)
    loop.add_argument("--out", required=True)
    loop.add_argument("--spans")
    loop.set_defaults(func=cmd_loop)
    fit = sub.add_parser("fit")
    fit.add_argument("--summary", required=True)
    fit.add_argument("--spans", required=True)
    fit.add_argument("argv", nargs=argparse.REMAINDER)
    fit.set_defaults(func=cmd_fit)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
