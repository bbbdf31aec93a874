"""Workload and metric definitions shared by the runner, the worker and the checks.

Every size is spelled out here and passed to the program as explicit command
flags, so the measured work does not move if a CLI preset changes.  The
sweep sizes equal the CLI's ``desk`` preset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

K_GRID = tuple(round(1.0 + 0.2 * i, 1) for i in range(21))
SURVEY_RULES = (0, 8, 32, 40, 128, 1, 2, 3, 4, 5, 18, 22, 30, 45, 161, 41, 54, 106, 110)
PROFILE_RULES = (0, 1, 110, 30)

# Worker threads of every command: the CLI default, passed explicitly.
THREADS = 1


@dataclass(frozen=True)
class Sweep:
    """One ``infodyn sweep`` command with its resolved sizes."""

    what: str  # rbn | eca | profile
    experiment: str  # file-name prefix and seed-schedule experiment id
    grid: tuple  # K values (rbn) or rule numbers
    n: int
    instances: int
    transient: int
    window: int
    scales: tuple[int, ...]
    checked_per_cell: int  # instances per cell recomputed by the independent path

    def argv(self, master_seed: int, outdir: str) -> list[str]:
        """The user's desk-preset command, every size spelled out."""
        grid_flag = "--k-grid" if self.what == "rbn" else "--rules"
        return [
            "sweep", self.what, "--preset", "desk",
            "--n", str(self.n),
            "--instances", str(self.instances),
            "--transient", str(self.transient),
            "--window", str(self.window),
            "--scales", ",".join(map(str, self.scales)),
            grid_flag, ",".join(format(p, "g") for p in self.grid),
            "--seed", str(master_seed),
            "--threads", str(THREADS),
            "--output-dir", outdir,
        ]

    def experiment_id(self, parameter) -> str:
        if self.what == "rbn":
            return f"{self.experiment}/k={float(parameter):.9g}"
        return f"{self.experiment}/rule={int(parameter)}"

    def output_names(self) -> list[str]:
        names = [f"{self.experiment}_{kind}" for kind in
                 ("instances.csv", "aggregate.csv", "instances.json", "aggregate.json")]
        if self.what == "profile":
            names.append(f"{self.experiment}_h_baseline.csv")
        return names


@dataclass(frozen=True)
class Stream:
    """One ``infodyn measure`` command on a generated raw bit file."""

    nbytes: int
    flip_probability: float
    scales: tuple[int, ...]
    report: str = "measure_report.csv"

    def argv(self, input_path: str, outdir: str) -> list[str]:
        return [
            "measure", input_path,
            "--input-format", "raw",
            "--scales", ",".join(map(str, self.scales)),
            "--threads", str(THREADS),
            "--output", f"{outdir}/{self.report}",
        ]

    def output_names(self) -> list[str]:
        return [self.report]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    job: Sweep | Stream


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rbn_desk",
            "RBN K-sweep, desk size: the only workload with network generation; "
            "small-n stepping is per-step Python overhead",
            Sweep("rbn", "rbn_sweep", K_GRID, n=100, instances=100, transient=512,
                  window=512, scales=(1, 2, 4, 8), checked_per_cell=1),
        ),
        Workload(
            "eca_desk",
            "ECA rule survey, desk size: no generation; ring stepping plus "
            "small-alphabet measuring (b<=8); RBN changes should not move it",
            Sweep("eca", "eca_survey", SURVEY_RULES, n=256, instances=50, transient=1024,
                  window=1024, scales=(1, 2, 4, 8), checked_per_cell=1),
        ),
        Workload(
            "eca_widescale",
            "ECA profile up to b=16: 65,536-symbol alphabet over 64 groups, so the "
            "dense count table dominates time and sets peak memory",
            Sweep("profile", "eca_profiles", PROFILE_RULES, n=256, instances=10,
                  transient=1024, window=1024, scales=(1, 2, 4, 8, 16), checked_per_cell=2),
        ),
        Workload(
            "measure_stream",
            "infodyn measure on a 4 MiB raw Markov bit file: the only workload on the "
            "single-sequence SymbolSequence/rescale/np.unique path",
            Stream(nbytes=4 << 20, flip_probability=0.1, scales=(1, 2, 4, 8, 12, 16)),
        ),
    )
}

# The seed at which output digests are pinned in digests.json.
DIGEST_SEED = 0

# (name, unit, better, bound); error_rate is reported through the result
# line's attempted/failed counts, because it is 0 whenever outputs are right.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

PER_LAYER = (
    ("rbn.generate_s", "s", "lower"),
    ("rbn.generate_calls", "count", "lower"),
    ("rbn.table_entries", "count", "lower"),
    ("rbn.run_many_s", "s", "lower"),
    ("rbn.step_s", "s", "lower"),
    ("rbn.node_updates", "count", "lower"),
    ("rbn.node_updates_per_s", "1/s", "higher"),
    ("eca.run_many_s", "s", "lower"),
    ("eca.cell_updates", "count", "lower"),
    ("eca.cell_updates_per_s", "1/s", "higher"),
    ("eca.recorded_bytes", "B", "lower"),
    ("trajectory.measure_s", "s", "lower"),
    ("trajectory.measure_s.b1", "s", "lower"),
    ("trajectory.measure_s.b2", "s", "lower"),
    ("trajectory.measure_s.b4", "s", "lower"),
    ("trajectory.measure_s.b8", "s", "lower"),
    ("trajectory.measure_s.b16", "s", "lower"),
    ("trajectory.measure_calls", "count", "lower"),
    ("trajectory.symbols", "count", "lower"),
    ("trajectory.count_table_bytes_max", "B", "lower"),
    ("trajectory.table_fill_max", "ratio", "higher"),
    ("measures.build_s", "s", "lower"),
    ("measures.rescale_s", "s", "lower"),
    ("measures.information_s", "s", "lower"),
    ("measures.bits", "count", "lower"),
    ("experiments.seed_s", "s", "lower"),
    ("experiments.aggregate_s", "s", "lower"),
    ("experiments.aggregate_cells", "count", "lower"),
    ("experiments.write_s", "s", "lower"),
    ("experiments.csv_bytes", "B", "lower"),
    ("experiments.json_bytes", "B", "lower"),
    ("experiments.files_written", "count", "lower"),
    ("cli.read_input_s", "s", "lower"),
    ("trace.total_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("digest_changed", "count", "lower"),
)


def derive_seed(seed: int, workload: str) -> int:
    """The program's seed for one workload (the sweep master seed, or the seed
    of the generated input file), from the benchmark seed alone."""
    key = f"perfbench|{workload}|{seed}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little") >> 1


def markov_bits(stream: Stream, seed: int) -> bytes:
    """Raw bytes (MSB first) of a two-state Markov source that flips with the
    stream's probability; generated in chunks to keep memory small."""
    rng = np.random.default_rng(seed)
    state = bool(rng.integers(0, 2))
    chunk_bits = 1 << 22
    parts = []
    for _ in range(stream.nbytes * 8 // chunk_bits):
        flips = rng.random(chunk_bits, dtype=np.float32) < stream.flip_probability
        bits = np.logical_xor.accumulate(flips) ^ state
        state = bool(bits[-1])
        parts.append(np.packbits(bits).tobytes())
    return b"".join(parts)
