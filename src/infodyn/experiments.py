"""Batch experiment harness: parameter sweeps with reproducible seeding.

Instance seeds are derived from a master seed by stable hashing, so results
are bit-identical regardless of execution order or worker count.  Each sweep
returns one :class:`SweepResult` per (parameter, scale) cell, carrying the
per-instance measures alongside the aggregate statistics so the aggregates
can always be recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .eca import EcaConfig, _eca_stacks
from .measures import MeasureSet, _stack_measures, check_scale, uncorrelated_homeostasis
from .rbn import RbnConfig, _rbn_stacks
from .trajectory import _check_count, _check_seed

__all__ = [
    "DEFAULT_RULES",
    "PROFILE_RULES",
    "DEFAULT_K_GRID",
    "SeedSchedule",
    "aggregate",
    "SweepResult",
    "ProfileResult",
    "rbn_sweep",
    "eca_class_survey",
    "multiscale_profiles",
    "instance_rows",
    "aggregate_rows",
    "csv_text",
    "json_text",
    "write_text",
    "write_sweep_files",
]

# One rule per surveyed equivalence class: five each from classes I-III and
# the four class-IV classes.
DEFAULT_RULES = (0, 8, 32, 40, 128, 1, 2, 3, 4, 5, 18, 22, 30, 45, 161, 41, 54, 106, 110)
PROFILE_RULES = (0, 1, 110, 30)
DEFAULT_K_GRID = tuple(round(1.0 + 0.2 * i, 1) for i in range(21))

STAT_NAMES = ("mean", "median", "q25", "q75", "whisker_lo", "whisker_hi")
# column name -> MeasureSet attribute, in column order
MEASURE_FIELDS = {"E": "emergence", "S": "self_organization", "C": "complexity",
                  "H": "homeostasis"}
# instance rows one sweep may hold until it writes them: a desk sweep and its
# write peak at about 1,536 bytes per row in tracemalloc, so a sweep at the
# limit fits in about 1 GiB
_ROW_LIMIT = (1 << 30) // 1536


@dataclass(frozen=True)
class SeedSchedule:
    """Derives per-instance seeds from (master seed, experiment id, index)."""

    master_seed: int

    def __post_init__(self):
        _check_seed(self.master_seed)

    def seed_for(self, experiment_id: str, index: int) -> int:
        key = f"{self.master_seed}|{experiment_id}|{index}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "little")


def aggregate(measures: Sequence[MeasureSet]) -> dict[str, dict[str, float]]:
    """Mean, median, quartiles, and Tukey whiskers per measure.

    Quartiles use linear interpolation; whiskers are the extreme values
    within 1.5 IQR of the quartiles (the usual boxplot convention).
    """
    if not measures:
        raise ValueError("empty list")
    rows = [[getattr(ms, field) for ms in measures] for field in MEASURE_FIELDS.values()]
    for key, row in zip(MEASURE_FIELDS, rows):
        if None in row:
            raise ValueError(f"measure {key} missing from an instance")
    # one C-order row per measure: the row mean keeps the pairwise sum of a 1-D mean
    values = np.array(rows, dtype=float)
    q25, median, q75 = np.percentile(values, [25, 50, 75], axis=1, method="linear")
    iqr = (q75 - q25)[:, None]
    stats = {
        "mean": values.mean(axis=1),
        "median": median,
        "q25": q25,
        "q75": q75,
        "whisker_lo": np.where(values >= q25[:, None] - 1.5 * iqr, values, np.inf).min(axis=1),
        "whisker_hi": np.where(values <= q75[:, None] + 1.5 * iqr, values, -np.inf).max(axis=1),
    }
    return {name: dict(zip(MEASURE_FIELDS, stats[name].tolist())) for name in STAT_NAMES}


@dataclass
class SweepResult:
    """Per-instance measures and aggregates for one (parameter, scale) cell."""

    experiment: str
    parameter: float | int
    scale: int
    seeds: list[int]
    instances: list[MeasureSet]
    aggregate: dict[str, dict[str, float]]


def _ordered_map(fn: Callable, items: Sequence, threads: int) -> list:
    """Deterministic parallel map, results in input order, on at most one
    worker per item and per CPU this process may use: each item in flight
    holds its own working set."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(items), cpus or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _check_rows(rows: int, detail: str) -> None:
    """The one bound on a sweep's size, checked before its grid or seeds exist."""
    if rows > _ROW_LIMIT:
        raise ValueError(f"{rows:,} instance rows ({detail}), over the {_ROW_LIMIT:,}-row limit")


def _repeat(values: Sequence):
    """The first of ``values`` that an earlier one equals, or None."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


def _sweep(
    experiment: str, key: str, grid: Sequence, make_config: Callable, stacks: Callable,
    instances: int, scales: Sequence[int], master_seed: int, threads: int,
) -> list[SweepResult]:
    """The one cell runner: per grid value, build its config (whose ``key``
    attribute is the cell's parameter), seed and run ``instances`` systems one
    stack of series at a time (``stacks(config, seeds)`` yields ``(series,
    cycles)`` pairs), measure each stack at every scale in one call, which reads
    each series that cycles from one period (its entry of ``cycles``), and keep
    only the measures, then aggregate each scale.  The sweep's size, its threads, the
    master seed and every config are checked, the window against the scales,
    that at least one scale is listed, and that no scale and no cell (named by
    its parameter as the CSV prints it) repeats, before any cell runs."""
    _check_count("instances", instances, 1)
    _check_count("threads", threads, 1)
    scales = [check_scale(scale) for scale in scales]
    if not scales:
        raise ValueError("no scales listed")
    if (twice := _repeat(scales)) is not None:
        raise ValueError(f"scale {twice} is listed twice")
    _check_rows(len(grid) * len(scales) * instances,
                f"{len(grid):,} cells x {len(scales)} scales x {instances:,} instances")
    schedule = SeedSchedule(master_seed)
    configs = [make_config(value) for value in grid]
    ids = [f"{experiment}/{key}={_fmt(getattr(config, key))}" for config in configs]
    if (twice := _repeat(ids)) is not None:
        raise ValueError(f"two grid values give the one cell {twice}")
    top = max(scales)
    if any(config.window < 2 * top for config in configs):
        raise ValueError(f"window too short for scale {top}")

    def cell(job: tuple[RbnConfig | EcaConfig, str]) -> list[SweepResult]:
        config, experiment_id = job
        parameter = getattr(config, key)
        seeds = [schedule.seed_for(experiment_id, i) for i in range(instances)]

        per_scale = {b: [] for b in scales}
        for series, cycles in stacks(config, seeds):
            for b, measured in _stack_measures(series, cycles, scales).items():
                per_scale[b] += measured
        return [SweepResult(experiment, parameter, b, seeds, per_scale[b], aggregate(per_scale[b]))
                for b in scales]

    nested = _ordered_map(cell, list(zip(configs, ids)), threads)
    return [result for cell_results in nested for result in cell_results]


def rbn_sweep(
    n: int = 100,
    k_grid: Sequence[float] = DEFAULT_K_GRID,
    instances: int = 1000,
    transient: int = 1000,
    window: int = 1000,
    scales: Sequence[int] = (1, 2, 4, 8),
    master_seed: int = 0,
    threads: int = 1,
) -> list[SweepResult]:
    """Connectivity sweep: `instances` independent networks per K value."""
    return _sweep("rbn_sweep", "k", k_grid,
                  lambda k: RbnConfig(n=n, k=k, transient=transient, window=window),
                  _rbn_stacks, instances, scales, master_seed, threads)


def _rule_survey(experiment, rules, n, instances, transient, window, scales, master_seed, threads):
    return _sweep(experiment, "rule", rules,
                  lambda rule: EcaConfig(rule=rule, n=n, transient=transient, window=window),
                  _eca_stacks, instances, scales, master_seed, threads)


def eca_class_survey(
    rules: Sequence[int] = DEFAULT_RULES,
    n: int = 256,
    instances: int = 50,
    transient: int = 4096,
    window: int = 4096,
    scales: Sequence[int] = (1, 2, 4, 8),
    master_seed: int = 0,
    threads: int = 1,
) -> list[SweepResult]:
    """Rule survey with random initial states, averaged over instances."""
    return _rule_survey(
        "eca_survey", rules, n, instances, transient, window, scales, master_seed, threads
    )


@dataclass
class ProfileResult:
    """Per-rule measure trajectories across scales, plus the H reference line."""

    sweeps: list[SweepResult]
    h_baseline: dict[int, float]


def multiscale_profiles(
    rules: Sequence[int] = PROFILE_RULES,
    scales: Sequence[int] = (1, 2, 4, 8),
    n: int = 256,
    instances: int = 50,
    transient: int = 4096,
    window: int = 4096,
    master_seed: int = 0,
    threads: int = 1,
    baseline_form: str = "exact",
) -> ProfileResult:
    """Measure trajectories across scales for a few rules, with the
    uncorrelated-H reference value per scale."""
    scales = [check_scale(b) for b in scales]  # read once, so an iterator serves both
    # first, so an unknown form is refused before any cell runs
    baseline = {b: uncorrelated_homeostasis(b, baseline_form) for b in scales}
    sweeps = _rule_survey(
        "eca_profiles", rules, n, instances, transient, window, scales, master_seed, threads
    )
    return ProfileResult(sweeps, baseline)


INSTANCE_COLUMNS = ("experiment", "rule_or_k", "scale", "instance", "seed", "E", "S", "C", "H")
AGGREGATE_COLUMNS = ("experiment", "rule_or_k", "scale", "stat", "E", "S", "C", "H")


def instance_rows(results: Sequence[SweepResult]) -> list[dict]:
    rows = []
    for result in results:
        for index, (seed, ms) in enumerate(zip(result.seeds, result.instances)):
            rows.append(
                {
                    "experiment": result.experiment,
                    "rule_or_k": result.parameter,
                    "scale": result.scale,
                    "instance": index,
                    "seed": seed,
                    **{key: getattr(ms, field) for key, field in MEASURE_FIELDS.items()},
                }
            )
    return rows


def aggregate_rows(results: Sequence[SweepResult]) -> list[dict]:
    rows = []
    for result in results:
        for stat in STAT_NAMES:
            entry = result.aggregate[stat]
            rows.append(
                {
                    "experiment": result.experiment,
                    "rule_or_k": result.parameter,
                    "scale": result.scale,
                    "stat": stat,
                    **{key: entry[key] for key in MEASURE_FIELDS},
                }
            )
    return rows


def _fmt(value) -> str:
    """One CSV field: text as is, ints in full, floats at 9 significant
    digits (byte-comparable across runs), ``None`` as an empty field."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def csv_text(columns: Sequence[str], rows: Sequence[dict]) -> str:
    """The one CSV writer: a header line, then one line per row."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(rows: Sequence[dict]) -> str:
    """The one JSON writer, an exact mirror of :func:`csv_text`: each float
    carries the value its CSV field prints; ints, text and ``None`` are as is.

    The layout is that of ``json.dumps(rows, indent=2)`` for rows of flat
    values.  Each row is encoded by the C encoder (which ``indent`` would
    turn off), its items split by the separator that ``indent`` puts between
    them, so no encoder chunk list for the whole file is held."""
    encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode

    def item(row: dict) -> str:
        if not row:
            return "  {}"
        text = encode({k: float(_fmt(v)) if isinstance(v, float) else v for k, v in row.items()})
        return "  {\n    " + text[1:-1] + "\n  }"

    items = ",\n".join(map(item, rows))
    return f"[\n{items}\n]\n" if items else "[]\n"


# paths that name a descriptor this process already holds open
_OPEN_FD = re.compile(r"/dev/std(out|err)|/dev/fd/(\d+)|/proc/(self|\d+)/fd/(\d+)")


def _open_fd(path: Path) -> int | None:
    """The descriptor ``path`` names in this process, if it names one."""
    m = _OPEN_FD.fullmatch(str(path))
    if m is None:
        return None
    if m[1]:
        return 1 if m[1] == "out" else 2
    if m[2]:
        return int(m[2])
    return int(m[4]) if m[3] == "self" or int(m[3]) == os.getpid() else None


def write_text(path: str | Path, text: str) -> None:
    """The one text-file writer: Unix line endings on every platform.

    ``/dev/stdout``, ``/dev/stderr``, ``/dev/fd/N`` and this process's
    ``/proc/<pid>/fd/N`` are written through the descriptor already open, at
    its current offset, so a shell's ``> log`` or ``>> log`` keeps what came
    before and after.  A regular file is written to a temporary file in its
    directory, which then replaces it in one step (through a symlink, the
    file it points to), keeping its permission bits, so a failed write leaves
    the old file intact and no partial file behind.  Anything else that
    exists at ``path``, such as a device or a pipe, is written in place,
    never replaced.
    """
    path = Path(path)
    fd = _open_fd(path)
    if fd is not None:
        sys.stdout.flush()
        sys.stderr.flush()
        with open(fd, "w", newline="\n", closefd=False) as fh:
            fh.write(text)
        return
    if path.exists() and not path.is_file():
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        return
    real = path.resolve()
    tmp = real.with_name(f".{real.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", newline="\n") as fh:
            fh.write(text)
        if real.exists():
            os.chmod(tmp, real.stat().st_mode & 0o7777)
        os.replace(tmp, real)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            exc.filename = str(path)  # name the file the caller asked for
        raise


def write_sweep_files(
    results: Sequence[SweepResult],
    outdir: str | Path,
    experiment: str,
    *,
    h_baseline: dict[int, float] | None = None,
) -> list[Path]:
    """Write per-instance and aggregate CSVs plus their JSON mirrors.

    Optionally writes the per-scale uncorrelated-H reference line.  Returns
    the written paths.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, text: str) -> None:
        path = outdir / name
        write_text(path, text)
        written.append(path)

    inst = instance_rows(results)
    agg = aggregate_rows(results)
    emit(f"{experiment}_instances.csv", csv_text(INSTANCE_COLUMNS, inst))
    emit(f"{experiment}_aggregate.csv", csv_text(AGGREGATE_COLUMNS, agg))
    emit(f"{experiment}_instances.json", json_text(inst))
    emit(f"{experiment}_aggregate.json", json_text(agg))
    if h_baseline is not None:
        rows = [{"scale": b, "h_baseline": h} for b, h in sorted(h_baseline.items())]
        emit(f"{experiment}_h_baseline.csv", csv_text(("scale", "h_baseline"), rows))
    return written
