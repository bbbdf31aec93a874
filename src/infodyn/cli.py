"""Command-line interface.

Commands: ``measure`` (multiscale report of a bit sequence), ``rbn`` and
``eca`` (single simulator runs), ``sweep`` (batch experiments writing CSV/JSON
result files).  Exit codes: 0 success, 1 internal failure, 2 usage or input
error.  Numeric CSV output uses 9 significant digits so repeated runs can be
compared byte for byte.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

import numpy as np

from .eca import ORIENTATIONS, EcaConfig, eca_measures, rule_table, run_eca
from .experiments import (
    DEFAULT_K_GRID,
    DEFAULT_RULES,
    MEASURE_FIELDS,
    PROFILE_RULES,
    csv_text,
    eca_class_survey,
    json_text,
    multiscale_profiles,
    rbn_sweep,
    write_sweep_files,
    write_text,
)
from .measures import SymbolSequence, check_scale, rescale, simplified_measures
from .plots import plot_script
from .rbn import RbnConfig, generate_rbn, network_measures, run_rbn, serialize_network
from .trajectory import trajectory_csv, trajectory_pbm

__all__ = ["main"]


class CliInputError(Exception):
    """Bad user input: reported with exit code 2."""


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return value


def _parse_ints(text: str, what: str, check) -> tuple[int, ...]:
    """A comma list of ints, each passed through its one validator."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliInputError(f"bad {what} list: {text!r}") from exc
    for value in values:
        check(value)
    return values


def _parse_k_grid(text: str) -> tuple[float, ...]:
    try:
        if ":" in text:
            start, stop, step = (float(part) for part in text.split(":"))
            if step <= 0 or stop < start:
                raise ValueError
            count = int(round((stop - start) / step)) + 1
            return tuple(round(start + i * step, 10) for i in range(count))
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise CliInputError(f"bad K grid {text!r} (use 'a,b,c' or 'start:stop:step')") from exc


def _resolve_threads(value: int | None) -> int:
    if value is not None:
        return max(1, value)
    env = os.environ.get("INFODYN_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise CliInputError(f"bad INFODYN_THREADS value: {env!r}") from exc
    return 1


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    return Path(source).read_text()


def _read_bytes(source: str) -> bytes:
    if source == "-":
        return sys.stdin.buffer.read()
    return Path(source).read_bytes()


def _read_input(source: str, fmt: str) -> SymbolSequence:
    """Parse a binary sequence from a file or stdin ('-')."""
    if fmt == "ascii01":
        text = _read_text(source)
        try:
            seq = SymbolSequence.from_bits(text)
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
    elif fmt == "raw":
        data = _read_bytes(source)
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))  # MSB first
        seq = SymbolSequence(bits.astype(np.int64), 1)
    elif fmt == "csv":
        tokens = [t for t in re.split(r"[,\s]+", _read_text(source).strip()) if t]
        try:
            values = [int(t) for t in tokens]
        except ValueError as exc:
            raise CliInputError("symbol CSV must contain integers") from exc
        if any(v not in (0, 1) for v in values):
            raise CliInputError("symbol CSV must contain only bits (0 or 1)")
        seq = SymbolSequence(np.array(values, dtype=np.int64), 1)
    else:  # pragma: no cover - argparse restricts choices
        raise CliInputError(f"unknown input format: {fmt}")
    if len(seq) == 0:
        raise CliInputError("empty input sequence")
    return seq


def _emit_report(rows: list[dict], args) -> None:
    text = json_text(rows) if args.format == "json" else csv_text(tuple(rows[0]), rows)
    if args.output:
        write_text(args.output, text)
    else:
        sys.stdout.write(text)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


_FIELDS = {"I_b": "emergence", **MEASURE_FIELDS}


def _measure_rows(scales, measure, columns, unit) -> list[dict]:
    """One report row per scale; a scale the data is too short for is null."""
    rows = []
    for b in scales:
        try:
            ms = measure(b)
        except ValueError:
            _warn(f"scale {b}: {unit} too short, reported as null")
            ms = None
        row = {"scale": b}
        for c in columns:
            row[c] = None if ms is None else getattr(ms, _FIELDS[c])
        rows.append(row)
    return rows


def cmd_measure(args) -> int:
    scales = _parse_ints(args.scales, "scales", check_scale)
    seq = _read_input(args.input, args.input_format)

    def measure(b):
        return simplified_measures(rescale(seq, b))

    _emit_report(_measure_rows(scales, measure, ("I_b", "E", "S", "C"), "sequence"), args)
    return 0


def cmd_rbn(args) -> int:
    scales = _parse_ints(args.scales, "scales", check_scale)
    config = RbnConfig(
        n=args.n, k=args.k, transient=args.transient, window=args.window, seed=args.seed
    )
    traj = run_rbn(config)
    if args.dump_network:
        # regenerate from the same seed: identical to the simulated network
        net = generate_rbn(config, np.random.default_rng(config.seed))
        write_text(args.dump_network, serialize_network(net))
    if args.dump_trajectory:
        write_text(args.dump_trajectory, trajectory_csv(traj))

    def measure(b):
        return network_measures(traj, b, average_h=args.average_h)

    _emit_report(_measure_rows(scales, measure, ("E", "S", "C", "H"), "window"), args)
    return 0


def cmd_eca(args) -> int:
    scales = _parse_ints(args.scales, "scales", check_scale)
    config = EcaConfig(
        rule=args.rule,
        n=args.n,
        init=args.init,
        transient=args.transient,
        window=args.window,
        seed=args.seed,
    )
    traj = run_eca(config)
    if args.dump_bitmap:
        write_text(args.dump_bitmap, trajectory_pbm(traj))
    if args.dump_trajectory:
        write_text(args.dump_trajectory, trajectory_csv(traj))

    def measure(b):
        return eca_measures(traj, b, args.orientation, average_h=args.average_h)

    _emit_report(_measure_rows(scales, measure, ("E", "S", "C", "H"), "window"), args)
    return 0


SWEEP_PRESETS = {
    "rbn": {
        "paper": dict(n=100, instances=1000, transient=1000, window=1000,
                      scales=(1, 2, 4, 8), k_grid=DEFAULT_K_GRID),
        "desk": dict(n=100, instances=100, transient=512, window=512,
                     scales=(1, 2, 4, 8), k_grid=DEFAULT_K_GRID),
    },
    "eca": {
        "paper": dict(n=256, instances=50, transient=4096, window=4096,
                      scales=(1, 2, 4, 8), rules=DEFAULT_RULES),
        "desk": dict(n=256, instances=50, transient=1024, window=1024,
                     scales=(1, 2, 4, 8), rules=DEFAULT_RULES),
    },
    "profile": {
        "paper": dict(n=256, instances=50, transient=4096, window=4096,
                      scales=(1, 2, 4, 8), rules=PROFILE_RULES),
        "desk": dict(n=256, instances=50, transient=1024, window=1024,
                     scales=(1, 2, 4, 8), rules=PROFILE_RULES),
    },
}


def cmd_sweep(args) -> int:
    params = dict(SWEEP_PRESETS[args.what][args.preset])
    for name in ("n", "instances", "transient", "window"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if args.scales is not None:
        params["scales"] = _parse_ints(args.scales, "scales", check_scale)
    if args.rules is not None and "rules" in params:
        params["rules"] = _parse_ints(args.rules, "rules", rule_table)
    if args.k_grid is not None and "k_grid" in params:
        params["k_grid"] = _parse_k_grid(args.k_grid)

    threads = _resolve_threads(args.threads)
    outdir = Path(args.output_dir)

    if args.what == "rbn":
        results = rbn_sweep(master_seed=args.seed, threads=threads, **params)
        experiment, baseline = "rbn_sweep", None
    elif args.what == "eca":
        results = eca_class_survey(master_seed=args.seed, threads=threads, **params)
        experiment, baseline = "eca_survey", None
    else:
        profile = multiscale_profiles(
            master_seed=args.seed,
            threads=threads,
            baseline_form=args.h_baseline,
            **params,
        )
        results, baseline = profile.sweeps, profile.h_baseline
        experiment = "eca_profiles"

    script = plot_script(experiment) if args.plot_script else None
    written = write_sweep_files(
        results, outdir, experiment, h_baseline=baseline, plot_script=script
    )
    for path in written:
        print(path)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infodyn",
        description="Information-theoretic measures of discrete dynamical systems",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--seed", type=_u64, default=0,
                           help="RNG seed (master seed for sweeps)")
    run_flags.add_argument("--threads", type=int, default=None,
                           help="worker threads (default: $INFODYN_THREADS or 1); "
                                "affects wall-clock only, never results")

    report_flags = argparse.ArgumentParser(add_help=False)
    report_flags.add_argument("--format", choices=("csv", "json"), default="csv",
                              help="report format (default csv)")
    report_flags.add_argument("--output", metavar="PATH",
                              help="write the report to a file instead of stdout")

    p = sub.add_parser("measure", parents=[run_flags, report_flags],
                       help="multiscale information report of a bit sequence")
    p.add_argument("input", nargs="?", default="-",
                   help="input file, or '-' for stdin (default)")
    p.add_argument("--input-format", choices=("ascii01", "raw", "csv"),
                   default="ascii01",
                   help="ascii01: '0'/'1' text; raw: bytes, MSB first; "
                        "csv: comma/whitespace separated bits")
    p.add_argument("--scales", default="1,2,4,8", help="comma list of scales")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("rbn", parents=[run_flags, report_flags],
                       help="run one random Boolean network and measure it")
    p.add_argument("--n", type=int, default=100, help="node count")
    p.add_argument("--k", type=float, default=2.0, help="mean in-degree (may be fractional)")
    p.add_argument("--transient", type=int, default=1000, help="steps discarded before recording")
    p.add_argument("--window", type=int, default=1000, help="recorded steps")
    p.add_argument("--scales", default="1,2,4,8", help="comma list of scales")
    p.add_argument("--average-h", action="store_true",
                   help="average H over all successive macro-state pairs "
                        "(noise-reduced alternative to the final-pair definition)")
    p.add_argument("--dump-network", metavar="PATH", help="write the generated network")
    p.add_argument("--dump-trajectory", metavar="PATH", help="write the trajectory as CSV")
    p.set_defaults(func=cmd_rbn)

    p = sub.add_parser("eca", parents=[run_flags, report_flags],
                       help="run one elementary cellular automaton and measure it")
    p.add_argument("--rule", type=int, required=True, help="rule number 0..255")
    p.add_argument("--n", type=int, default=256, help="cell count")
    p.add_argument("--init", choices=("random", "single_cell"), default="random")
    p.add_argument("--transient", type=int, default=1024)
    p.add_argument("--window", type=int, default=1024)
    p.add_argument("--scales", default="1,2,4,8", help="comma list of scales")
    p.add_argument("--orientation", choices=ORIENTATIONS,
                   default="vertical", help="series read-out direction")
    p.add_argument("--average-h", action="store_true",
                   help="average H over all successive macro-state pairs")
    p.add_argument("--dump-bitmap", metavar="PATH", help="write the trajectory as a PBM bitmap")
    p.add_argument("--dump-trajectory", metavar="PATH", help="write the trajectory as CSV")
    p.set_defaults(func=cmd_eca)

    p = sub.add_parser("sweep", parents=[run_flags],
                       help="batch experiments writing CSV/JSON result files")
    p.add_argument("what", choices=("rbn", "eca", "profile"))
    p.add_argument("--preset", choices=("paper", "desk"), default="desk",
                   help="paper: full-scale runs; desk: reduced scale (default)")
    p.add_argument("--output-dir", default="infodyn_results", metavar="DIR")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--transient", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--scales", default=None, help="comma list of scales")
    p.add_argument("--rules", default=None, help="comma list of rules (eca/profile)")
    p.add_argument("--k-grid", default=None,
                   help="K values: 'a,b,c' or 'start:stop:step' (rbn)")
    p.add_argument("--h-baseline", choices=("exact", "inv2b"), default="exact",
                   help="uncorrelated-H reference: 2^-b (exact) or 1/(2b) (inv2b)")
    p.add_argument("--plot-script", action="store_true",
                   help="also emit a matplotlib script next to the data")
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
    except (CliInputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
