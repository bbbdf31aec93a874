"""Command-line interface.

Commands: ``measure`` (multiscale report of a bit sequence, read in fixed
blocks so memory does not grow with its length), ``rbn`` and
``eca`` (single simulator runs), ``sweep`` (batch experiments writing CSV/JSON
result files).  Exit codes: 0 success, 1 internal failure, 2 usage or input
error.  Numeric CSV output uses 9 significant digits so repeated runs can be
compared byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .eca import INITS, ORIENTATIONS, EcaConfig, oriented_series, rule_table, run_eca
from .experiments import (
    MEASURE_FIELDS,
    ProfileResult,
    _check_rows,
    _repeat,
    csv_text,
    eca_class_survey,
    json_text,
    multiscale_profiles,
    rbn_sweep,
    write_sweep_files,
    write_text,
)
from .measures import check_scale, series_matrix_measures, streamed_measures
from .rbn import RbnConfig, generate_rbn, run_rbn, serialize_network
from .trajectory import _check_count, _text_bits, trajectory_csv, trajectory_pbm

__all__ = ["main"]


def _parse_ints(text: str, what: str, check) -> tuple[int, ...]:
    """A comma list of distinct ints, each passed through its one validator."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad {what} list: {text!r}") from exc
    for value in values:
        check(value)
    if (twice := _repeat(values)) is not None:
        raise ValueError(f"{what} list {text!r} repeats {twice}")
    return values


def _parse_k_grid(text: str) -> tuple[float, ...]:
    try:
        if ":" not in text:
            return tuple(float(part) for part in text.split(","))
        start, stop, step = (float(part) for part in text.split(":"))
        if step <= 0 or stop < start:
            raise ValueError
        # the tolerance keeps an exact grid's last value despite float error
        count = math.floor((stop - start) / step + 1e-9) + 1
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"bad K grid {text!r} (use 'a,b,c' or 'start:stop:step')") from exc
    _check_rows(count, f"at least one per value of the K grid {text!r}")
    return tuple(round(start + i * step, 10) for i in range(count))


def _resolve_threads(value: int | None) -> int:
    """``--threads``, else ``$INFODYN_THREADS``, else 1, checked to be >= 1."""
    env = os.environ.get("INFODYN_THREADS") or "1"
    try:
        threads = value if value is not None else int(env)
    except ValueError as exc:
        raise ValueError(f"bad INFODYN_THREADS value: {env!r}") from exc
    return _check_count("threads", threads, 1)


# bytes (raw) or characters (ascii01, csv) read at a time: 2^20 raw bits
_BLOCK = 1 << 17


def _bit_blocks(fh, fmt: str):
    """The bits of an open input, one block per read of ``_BLOCK`` bytes or
    characters: raw bytes unpack MSB first, and ascii01 and csv text decode
    through :func:`_text_bits`, which is exact because a text read never
    splits a character; whether a read ends inside a token is carried to the
    next.  An empty input is an error once the last block has been read."""
    empty, in_token = True, False
    while chunk := fh.read(_BLOCK):
        if fmt == "raw":
            bits = np.unpackbits(np.frombuffer(chunk, dtype=np.uint8))
        else:
            bits, in_token = _text_bits(chunk, fmt == "csv", in_token)
        empty = empty and bits.size == 0
        yield bits
    if empty:
        raise ValueError("empty input sequence")


def _emit_report(rows: list[dict], args) -> None:
    text = json_text(rows) if args.format == "json" else csv_text(tuple(rows[0]), rows)
    if args.output:
        write_text(args.output, text)
    else:
        sys.stdout.write(text)


_FIELDS = {"I_b": "emergence", **MEASURE_FIELDS}


def _measure_rows(scales, measured, columns, unit) -> list[dict]:
    """One report row per scale, from a ``{scale: MeasureSet | None}`` dict;
    a scale the data is too short for (``None``) is null."""
    rows = []
    for b in scales:
        ms = measured[b]
        if ms is None:
            print(f"warning: scale {b}: {unit} too short, reported as null", file=sys.stderr)
        row = {"scale": b}
        for c in columns:
            row[c] = None if ms is None else getattr(ms, _FIELDS[c])
        rows.append(row)
    return rows


def cmd_measure(args) -> int:
    scales = _parse_ints(args.scales, "scales", check_scale)
    _resolve_threads(args.threads)  # checked only: one stream is read by one thread
    binary = args.input_format == "raw"
    if args.input == "-":
        source = contextlib.nullcontext(sys.stdin.buffer if binary else sys.stdin)
    else:
        source = open(args.input, "rb" if binary else "r")
    with source as fh:
        measured = streamed_measures(_bit_blocks(fh, args.input_format), scales)
    _emit_report(_measure_rows(scales, measured, ("I_b", "E", "S", "C"), "sequence"), args)
    return 0


def _config(cls, args):
    """A run config from the flags that were given; the config defaults the rest."""
    fields = (f.name for f in dataclasses.fields(cls))
    return cls(**{name: getattr(args, name) for name in fields if getattr(args, name) is not None})


def _report_run(args, scales, traj, series, unit: str) -> int:
    """The tail of a single run: dump its trajectory, then measure ``series``."""
    if args.dump_trajectory:
        write_text(args.dump_trajectory, trajectory_csv(traj))
    measured = series_matrix_measures(series, scales, average_h=args.average_h)
    _emit_report(_measure_rows(scales, measured, ("E", "S", "C", "H"), unit), args)
    return 0


def cmd_rbn(args) -> int:
    scales = _parse_ints(args.scales, "scales", check_scale)
    config = _config(RbnConfig, args)
    traj = run_rbn(config)
    if args.dump_network:
        # regenerate from the same seed: identical to the simulated network
        net = generate_rbn(config, np.random.default_rng(config.seed))
        write_text(args.dump_network, serialize_network(net))
    return _report_run(args, scales, traj, traj.series, "window")


def cmd_eca(args) -> int:
    scales = _parse_ints(args.scales, "scales", check_scale)
    config = _config(EcaConfig, args)
    traj = run_eca(config)
    if args.dump_bitmap:
        write_text(args.dump_bitmap, trajectory_pbm(traj))
    unit = f"{config.n}-cell row" if args.orientation == "horizontal" else "window"
    return _report_run(args, scales, traj, oriented_series(traj, args.orientation), unit)


# sweep -> (library sweep, experiment name, desk sizes): the paper preset is
# the library's defaults, and the desk preset overrides only these of them
SWEEPS = {
    "rbn": (rbn_sweep, "rbn_sweep", dict(instances=100, transient=512, window=512)),
    "eca": (eca_class_survey, "eca_survey", dict(transient=1024, window=1024)),
    "profile": (multiscale_profiles, "eca_profiles", dict(transient=1024, window=1024)),
}


def cmd_sweep(args) -> int:
    sweep, experiment, desk = SWEEPS[args.what]
    params = dict(desk) if args.preset == "desk" else {}
    given = dict(n=args.n, instances=args.instances, transient=args.transient,
                 window=args.window, master_seed=args.seed)
    params.update((name, value) for name, value in given.items() if value is not None)
    if args.scales is not None:
        params["scales"] = _parse_ints(args.scales, "scales", check_scale)
    if args.rules is not None:
        if args.what == "rbn":
            raise ValueError("--rules applies only to sweep eca and sweep profile")
        params["rules"] = _parse_ints(args.rules, "rules", rule_table)
    if args.k_grid is not None:
        if args.what != "rbn":
            raise ValueError("--k-grid applies only to sweep rbn")
        params["k_grid"] = _parse_k_grid(args.k_grid)
    if args.h_baseline is not None:
        if args.what != "profile":
            raise ValueError("--h-baseline applies only to sweep profile")
        params["baseline_form"] = args.h_baseline

    results = sweep(threads=_resolve_threads(args.threads), **params)
    baseline = None
    if isinstance(results, ProfileResult):
        results, baseline = results.sweeps, results.h_baseline
    written = write_sweep_files(results, Path(args.output_dir), experiment, h_baseline=baseline)
    for path in written:
        print(path)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infodyn",
        description="Information-theoretic measures of discrete dynamical systems",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    # a size or seed flag that is not given keeps the library's default
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--seed", type=int, help="RNG seed (a sweep's master seed); default 0")
    run_flags.add_argument("--n", type=int, help="node or cell count")
    run_flags.add_argument("--transient", type=int, help="steps discarded before recording")
    run_flags.add_argument("--window", type=int, help="recorded steps")

    thread_flags = argparse.ArgumentParser(add_help=False)
    thread_flags.add_argument("--threads", type=int,
                              help="sweep worker threads, at least 1 (default: "
                                   "$INFODYN_THREADS or 1); they never change results; "
                                   "measure reads a single stream, which the flag does not "
                                   "change")

    report_flags = argparse.ArgumentParser(add_help=False)
    report_flags.add_argument("--format", choices=("csv", "json"), default="csv",
                              help="report format (default csv)")
    report_flags.add_argument("--output", metavar="PATH",
                              help="write the report to a file instead of stdout")
    report_flags.add_argument("--scales", default="1,2,4,8", help="comma list of scales")

    single_flags = argparse.ArgumentParser(add_help=False)
    single_flags.add_argument("--average-h", action="store_true",
                              help="average H over all successive macro-state pairs "
                                   "(noise-reduced alternative to the final-pair definition)")
    single_flags.add_argument("--dump-trajectory", metavar="PATH",
                              help="write the trajectory as CSV")

    p = sub.add_parser("measure", parents=[thread_flags, report_flags],
                       help="multiscale information report of a bit sequence")
    p.add_argument("input", nargs="?", default="-",
                   help="input file, or '-' for stdin (default)")
    p.add_argument("--input-format", choices=("ascii01", "raw", "csv"), default="ascii01",
                   help="ascii01: '0'/'1' text; raw: bytes, MSB first; "
                        "csv: tokens separated by commas or whitespace, "
                        "each the single character 0 or 1")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("rbn", parents=[run_flags, report_flags, single_flags],
                       help="run one random Boolean network and measure it")
    p.add_argument("--k", type=float, help="mean in-degree (may be fractional)")
    p.add_argument("--dump-network", metavar="PATH", help="write the generated network")
    p.set_defaults(func=cmd_rbn)

    p = sub.add_parser("eca", parents=[run_flags, report_flags, single_flags],
                       help="run one elementary cellular automaton and measure it")
    p.add_argument("--rule", type=int, required=True, help="rule number 0..255")
    p.add_argument("--init", choices=INITS)
    p.add_argument("--orientation", choices=ORIENTATIONS,
                   default="vertical", help="series read-out direction")
    p.add_argument("--dump-bitmap", metavar="PATH", help="write the trajectory as a PBM bitmap")
    p.set_defaults(func=cmd_eca)

    p = sub.add_parser("sweep", parents=[run_flags, thread_flags],
                       help="batch experiments writing CSV/JSON result files")
    p.add_argument("what", choices=tuple(SWEEPS))
    p.add_argument("--preset", choices=("paper", "desk"), default="desk",
                   help="paper: full-scale runs; desk: reduced scale (default)")
    p.add_argument("--output-dir", default="infodyn_results", metavar="DIR")
    p.add_argument("--instances", type=int)
    p.add_argument("--scales", help="comma list of scales")
    p.add_argument("--rules", help="comma list of rules (eca/profile)")
    p.add_argument("--k-grid", help="K values: 'a,b,c' or 'start:stop:step' (rbn)")
    p.add_argument("--h-baseline", choices=("exact", "inv2b"),
                   help="uncorrelated-H reference (profile): 2^-b (exact, the default) "
                        "or 1/(2b) (inv2b)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
