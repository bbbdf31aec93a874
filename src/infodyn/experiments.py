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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .eca import EcaConfig, eca_measures, run_eca_many
from .measures import MeasureSet, uncorrelated_homeostasis
from .rbn import RbnConfig, network_measures, run_rbn_many

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


@dataclass(frozen=True)
class SeedSchedule:
    """Derives per-instance seeds from (master seed, experiment id, index)."""

    master_seed: int

    def seed_for(self, experiment_id: str, index: int) -> int:
        key = f"{self.master_seed}|{experiment_id}|{index}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "little")


def _measure_values(measures: Sequence[MeasureSet], key: str) -> np.ndarray:
    values = [getattr(ms, MEASURE_FIELDS[key]) for ms in measures]
    if any(v is None for v in values):
        raise ValueError(f"measure {key} missing from an instance")
    return np.asarray(values, dtype=float)


def aggregate(measures: Sequence[MeasureSet]) -> dict[str, dict[str, float]]:
    """Mean, median, quartiles, and Tukey whiskers per measure.

    Quartiles use linear interpolation; whiskers are the extreme values
    within 1.5 IQR of the quartiles (the usual boxplot convention).
    """
    if not measures:
        raise ValueError("empty list")
    stats: dict[str, dict[str, float]] = {name: {} for name in STAT_NAMES}
    for key in MEASURE_FIELDS:
        values = _measure_values(measures, key)
        q25, median, q75 = np.percentile(values, [25, 50, 75], method="linear")
        iqr = q75 - q25
        lo = values[values >= q25 - 1.5 * iqr].min()
        hi = values[values <= q75 + 1.5 * iqr].max()
        stats["mean"][key] = float(values.mean())
        stats["median"][key] = float(median)
        stats["q25"][key] = float(q25)
        stats["q75"][key] = float(q75)
        stats["whisker_lo"][key] = float(lo)
        stats["whisker_hi"][key] = float(hi)
    return stats


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
    """Deterministic parallel map: results always in input order."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _sweep(
    experiment: str,
    key: str,
    parameters: Sequence[float | int],
    make_config: Callable,
    run_many: Callable,
    measure: Callable,
    instances: int,
    scales: Sequence[int],
    master_seed: int,
    threads: int,
) -> list[SweepResult]:
    """The one cell runner: per parameter, seed and run ``instances`` systems,
    then measure and aggregate them at every scale.

    Every parameter's config is built, and so validated, before any cell runs.
    """
    if instances < 1:
        raise ValueError("instances must be >= 1")
    schedule = SeedSchedule(master_seed)
    configs = {parameter: make_config(parameter) for parameter in parameters}

    def cell(parameter: float | int) -> list[SweepResult]:
        experiment_id = f"{experiment}/{key}={_fmt(parameter)}"
        seeds = [schedule.seed_for(experiment_id, i) for i in range(instances)]
        trajectories = run_many(configs[parameter], seeds)
        results = []
        for scale in scales:
            measured = [measure(t, scale) for t in trajectories]
            results.append(
                SweepResult(experiment, parameter, int(scale), seeds, measured, aggregate(measured))
            )
        return results

    nested = _ordered_map(cell, list(parameters), threads)
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

    def make_config(k: float) -> RbnConfig:
        return RbnConfig(n=n, k=k, transient=transient, window=window)

    return _sweep(
        "rbn_sweep", "k", [float(k) for k in k_grid], make_config, run_rbn_many,
        network_measures, instances, scales, master_seed, threads,
    )


def _rule_survey(
    experiment: str,
    rules: Sequence[int],
    n: int,
    instances: int,
    transient: int,
    window: int,
    scales: Sequence[int],
    master_seed: int,
    threads: int,
) -> list[SweepResult]:
    def make_config(rule: int) -> EcaConfig:
        return EcaConfig(rule=rule, n=n, transient=transient, window=window)

    return _sweep(
        experiment, "rule", [int(r) for r in rules], make_config, run_eca_many,
        eca_measures, instances, scales, master_seed, threads,
    )


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
    baseline_form: str

    def mean(self, rule: int, scale: int) -> dict[str, float]:
        for result in self.sweeps:
            if result.parameter == rule and result.scale == scale:
                return dict(result.aggregate["mean"])
        raise KeyError((rule, scale))


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
    sweeps = _rule_survey(
        "eca_profiles", rules, n, instances, transient, window, scales, master_seed, threads
    )
    baseline = {int(b): uncorrelated_homeostasis(int(b), form=baseline_form) for b in scales}
    return ProfileResult(sweeps, baseline, baseline_form)


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
                    "E": ms.emergence,
                    "S": ms.self_organization,
                    "C": ms.complexity,
                    "H": ms.homeostasis,
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

    The layout is that of ``json.dumps(rows, indent=2)``; the text is built
    one row at a time, so no encoder chunk list for the whole file is held."""
    encode = json.JSONEncoder(indent=2).encode
    items = ",\n".join(
        "  " + encode({k: float(_fmt(v)) if isinstance(v, float) else v
                      for k, v in row.items()}).replace("\n", "\n  ")
        for row in rows
    )
    return f"[\n{items}\n]\n" if items else "[]\n"


def write_text(path: str | Path, text: str) -> None:
    """The one text-file writer: Unix line endings on every platform."""
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_sweep_files(
    results: Sequence[SweepResult],
    outdir: str | Path,
    experiment: str,
    *,
    h_baseline: dict[int, float] | None = None,
    plot_script: str | None = None,
) -> list[Path]:
    """Write per-instance and aggregate CSVs plus their JSON mirrors.

    Optionally writes the per-scale uncorrelated-H reference line and a plot
    script.  Returns the written paths.
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
    if plot_script is not None:
        emit(f"plot_{experiment}.py", plot_script)
    return written
