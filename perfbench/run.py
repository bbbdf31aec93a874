"""Benchmark of the infodyn CLI: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the sources are imported from ``src/``):

    python3 perfbench/run.py --workload rbn_desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json
    python3 perfbench/run.py --pin-digests     # re-pin digests.json (seed 0)

``--trace 0`` measures end to end: the median set-up time of fresh
interpreters importing ``infodyn.cli``, then the workload's CLI command in a
fresh process, repeated while another run fits in ``--seconds``, reporting the
median wall time (set-up excluded) and peak RSS.  ``--trace 1`` runs the command once
untraced and once as a traced replica that calls each module's public
functions in the CLI's order, and reports per-layer times and counts.  Both
modes check the outputs (``check.py``).  Workloads run one at a time, each
in a single process with one worker thread.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The error rate is failed / attempted; a command that exits non-zero counts as
a failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import (
    DIGEST_SEED, END_TO_END, PER_LAYER, THREADS, WORKLOADS, Stream, derive_seed, markov_bits,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"

RUN_SECONDS = 30
SETUP_PROBES = 9
DEADLINE_S = 170  # every run ends well inside the 180 s a run may take

STRUCTURAL = {"cell", "scale"}
TRAJECTORY_SPANS = {"rbn.network_measures", "eca.eca_measures"}


def layer_of(span_name: str) -> str:
    return "trajectory" if span_name in TRAJECTORY_SPANS else span_name.split(".")[0]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def digests(outdir: Path, names: list[str]) -> dict[str, str]:
    return {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in names if (outdir / name).is_file()
    }


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q = statistics.quantiles(values, n=4)
    return f", q1 {q[0]:.4g}, q3 {q[2]:.4g}"


class Run:
    """One workload's inputs, run directory and worker processes; workers run
    one at a time, each bounded by the run's deadline."""

    def __init__(self, name: str, seed: int, deadline: float, tally):
        self.name, self.seed, self.deadline, self.tally = name, seed, deadline, tally
        self.env = child_env()
        self.job = WORKLOADS[name].job
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.inputs: dict[int, tuple[str, object]] = {}

    def inputs_for(self, seed: int):
        """(path of the generated input file or "", its bits) for a seed."""
        if seed not in self.inputs:
            if isinstance(self.job, Stream):
                data = markov_bits(self.job, self.program_seed(seed))
                path = self.dir / f"input_{seed}.bin"
                path.write_bytes(data)
                self.inputs[seed] = (str(path), np.unpackbits(np.frombuffer(data, np.uint8)))
            else:
                self.inputs[seed] = ("", None)
        return self.inputs[seed]

    def spawn(self, *args: str) -> tuple[dict | None, float, str]:
        """(last-line JSON or None, launch wall-clock time, stderr tail)."""
        launched = time.time()
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *args], env=self.env, cwd=ROOT,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, launched, f"worker {args[0]} timed out after {timeout:.0f} s"
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        return result, launched, proc.stderr.strip()[-2000:]

    def program_seed(self, seed: int) -> int:
        return derive_seed(seed, self.name)

    def argv(self, seed: int, outdir: Path) -> list[str]:
        if isinstance(self.job, Stream):
            return self.job.argv(self.inputs_for(seed)[0], str(outdir))
        return self.job.argv(self.program_seed(seed), str(outdir))

    def run_plain(self, seed: int, outdir: Path) -> dict | None:
        outdir.mkdir(parents=True, exist_ok=True)
        argv = self.argv(seed, outdir)
        result, launched, err = self.spawn("plain", "--", *argv)
        ok = result is not None and result.get("exit") == 0
        self.tally.check(ok, f"infodyn {' '.join(argv[:2])} failed: {err or result}")
        if result is not None:
            result["setup_s"] = result["ready"] - launched
        return result if ok else None

    def check(self, outdir: Path, seed: int) -> None:
        from check import check_outputs, self_check  # imports infodyn from SRC

        reference = check_outputs(self.tally, self.job, outdir, self.program_seed(seed), seed,
                                  self.inputs_for(seed)[1])
        if self.tally.failures:  # the self-check corrupts valid outputs only
            return
        self_check(self.tally, self.job, outdir, self.program_seed(seed), reference,
                   np.random.default_rng(seed))

    def names(self) -> list[str]:
        return self.job.output_names()


def end_to_end(w: Run, seconds: float) -> tuple[dict, list[str], dict]:
    setups = []
    for _ in range(SETUP_PROBES):
        result, launched, err = w.spawn("setup")
        if result is not None:
            setups.append(result["ready"] - launched)
    samples = []
    w.inputs_for(w.seed)  # generate the input file before the clock starts
    start = time.monotonic()
    # Start another command only if it should end within the measuring time,
    # so that a run lasts about --seconds whatever the workload's speed.
    while not samples or (time.monotonic() - start + statistics.median(
            s["wall_s"] + s["setup_s"] for s in samples) <= seconds):
        result = w.run_plain(w.seed, w.dir / f"rep{len(samples)}")
        if result is None:
            break
        samples.append(result)
        setups.append(result["setup_s"])
    if not samples:
        raise SystemExit(f"perfbench: {w.name}: no successful run to measure")
    first = digests(w.dir / "rep0", w.names())
    for i in range(1, len(samples)):
        w.tally.check(digests(w.dir / f"rep{i}", w.names()) == first,
                      f"repetition {i} wrote different bytes than repetition 0")
        shutil.rmtree(w.dir / f"rep{i}")
    w.check(w.dir / "rep0", w.seed)

    walls = [s["wall_s"] for s in samples]
    rss = [s["maxrss_kb"] / 1024 for s in samples]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = [
        f"wall_s: median of {len(walls)} runs{quartiles(walls)}; set-up excluded",
        f"setup_s: median of {len(setups)} fresh interpreters importing infodyn.cli"
        f"{quartiles(setups)}",
        f"peak_rss_mb: median of {len(rss)} runs' peak RSS (max {max(rss):.1f} MB)",
    ]
    return metrics, notes, first


def span_metrics(spans: list[list], plain_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics and self time per layer from the traced run's spans."""
    m = {name: 0 if unit in ("count", "B") else 0.0 for name, unit, _ in PER_LAYER}
    duration = {s[0]: s[4] - s[3] for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + duration[s[0]]
    self_time: dict[str, float] = {}
    root = next(s for s in spans if s[2] == "workload")
    in_workload = {root[0]}  # spans are recorded parents first
    tables = []
    for sid, parent, name, _, _, attrs in spans:
        if parent in in_workload:
            in_workload.add(sid)
            own = duration[sid] - child_time.get(sid, 0.0)
            if name in STRUCTURAL:
                m["trace.unattributed_s"] += own
            else:
                self_time[layer_of(name)] = self_time.get(layer_of(name), 0.0) + own
        d = duration[sid]
        if name == "rbn.run_rbn_many":
            m["rbn.run_many_s"] += d
            m["rbn.node_updates"] += attrs["instances"] * attrs["n"] * attrs["steps"]
        elif name == "rbn.generate_rbn":
            m["rbn.generate_s"] += d
            m["rbn.generate_calls"] += 1
            m["rbn.table_entries"] += attrs["table_entries"]
        elif name == "eca.run_eca_many":
            m["eca.run_many_s"] += d
            m["eca.cell_updates"] += attrs["instances"] * attrs["n"] * attrs["steps"]
            m["eca.recorded_bytes"] += attrs["instances"] * attrs["n"] * attrs["window"]
        elif name in TRAJECTORY_SPANS:
            b = attrs["scale"]
            m["trajectory.measure_s"] += d
            if f"trajectory.measure_s.b{b}" in m:
                m[f"trajectory.measure_s.b{b}"] += d
            m["trajectory.measure_calls"] += 1
            m["trajectory.symbols"] += attrs["units"] * attrs["groups"]
            tables.append((attrs["units"] * (1 << b) * 8, min(attrs["groups"], 1 << b) / (1 << b)))
        elif name == "measures.SymbolSequence":
            m["measures.build_s"] += d
            m["measures.bits"] += attrs["bits"]
        elif name == "measures.rescale":
            m["measures.rescale_s"] += d
        elif name == "measures.normalized_information":
            m["measures.information_s"] += d
        elif name == "experiments.seed_for":
            m["experiments.seed_s"] += d
        elif name == "experiments.aggregate":
            m["experiments.aggregate_s"] += d
            m["experiments.aggregate_cells"] += 1
        elif name == "experiments.write_sweep_files":
            m["experiments.write_s"] += d
            files = attrs["files"]
            m["experiments.files_written"] += len(files)
            m["experiments.csv_bytes"] += sum(v for k, v in files.items() if k.endswith(".csv"))
            m["experiments.json_bytes"] += sum(v for k, v in files.items() if k.endswith(".json"))
        elif name == "cli.read_input":
            m["cli.read_input_s"] += d
    if tables:
        m["trajectory.count_table_bytes_max"], m["trajectory.table_fill_max"] = max(tables)
    if m["rbn.run_many_s"]:
        m["rbn.step_s"] = m["rbn.run_many_s"] - m["rbn.generate_s"]
        m["rbn.node_updates_per_s"] = m["rbn.node_updates"] / m["rbn.step_s"]
    if m["eca.run_many_s"]:
        m["eca.cell_updates_per_s"] = m["eca.cell_updates"] / m["eca.run_many_s"]
    m["trace.total_s"] = duration[root[0]]
    m["trace.unattributed_s"] += duration[root[0]] - child_time.get(root[0], 0.0)
    m["trace.overhead_s"] = m["trace.total_s"] - plain_wall
    return m, self_time


def traced(w: Run) -> tuple[dict, list[str], dict]:
    plain_dir, traced_dir = w.dir / "plain", w.dir / "traced"
    plain = w.run_plain(w.seed, plain_dir)
    if plain is None:
        raise SystemExit(f"perfbench: {w.name}: the untraced run failed")
    traced_dir.mkdir(parents=True)
    spans_path = w.dir / "spans.json"
    result, _, err = w.spawn(
        "traced", w.name, str(w.program_seed(w.seed)), str(traced_dir),
        w.inputs_for(w.seed)[0] or "-", str(spans_path),
    )
    if result is None:
        raise SystemExit(f"perfbench: {w.name}: the traced run failed: {err}")
    # A second untraced run after the traced one, so that the overhead is not
    # skewed by whichever process runs first.
    after = w.run_plain(w.seed, w.dir / "plain_after")
    untraced_wall = statistics.mean([plain["wall_s"]] + ([after["wall_s"]] if after else []))
    plain_digests = digests(plain_dir, w.names())
    w.tally.check(digests(w.dir / "plain_after", w.names()) == plain_digests,
                  "a repeated untraced run wrote different bytes")
    traced_digests = digests(traced_dir, w.names())
    for name in w.names():
        w.tally.check(name in plain_digests and traced_digests.get(name) == plain_digests[name],
                      f"traced run wrote different bytes to {name}")
    w.check(plain_dir, w.seed)

    pinned = json.loads(DIGESTS.read_text()).get(w.name, {}) if DIGESTS.is_file() else {}
    if w.seed == DIGEST_SEED:
        at_pin = plain_digests
    else:
        ref_dir = w.dir / "digest_seed"
        ok = w.run_plain(DIGEST_SEED, ref_dir) is not None
        at_pin = digests(ref_dir, w.names()) if ok else {}
    changed = sum(1 for name in w.names() if pinned.get(name) != at_pin.get(name))

    spans = json.loads(spans_path.read_text())
    metrics, self_time = span_metrics(spans, untraced_wall)
    metrics["digest_changed"] = changed
    layers = ", ".join(f"{k} {v:.4f} s" for k, v in sorted(self_time.items()))
    notes = [
        f"self time per layer: {layers}",
        f"untraced wall_s {untraced_wall:.4f} s (mean of the runs before and after the "
        f"traced one); {len(spans)} spans in {spans_path}",
        f"digest_changed: {changed} of {len(w.names())} output files differ from digests.json "
        f"at seed {DIGEST_SEED}",
    ]
    if metrics["rbn.generate_calls"]:
        notes.append("rbn.generate_s is a separate generate_rbn pass over the sweep's seeds; "
                     "rbn.run_many_s includes the same generation, and rbn.step_s is "
                     "run_many_s minus generate_s")
    return metrics, notes, plain_digests


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "threads": THREADS}


def run_one(name: str, args, deadline: float) -> tuple[dict, object]:
    from check import Tally

    tally = Tally()
    w = Run(name, args.seed, deadline, tally)
    if args.trace:
        metrics, notes, outputs = traced(w)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics, notes, outputs = end_to_end(w, args.seconds)
        units = {n: u for n, u, _, _ in END_TO_END}
    facts = machine_facts()
    print(f"workload {name}  seed {args.seed}  program seed {w.program_seed(args.seed)}  "
          + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for metric, value in metrics.items():
        print(f"  {metric:36s} {value!r:>24} {units[metric]}")
    rate = len(tally.failures) / tally.attempted
    print(f"  {'error_rate':36s} {rate!r:>24} ratio ({len(tally.failures)} failed of "
          f"{tally.attempted} checks)")
    for note in notes:
        print(f"  # {note}")
    for file, digest in outputs.items():
        print(f"  # sha256 {digest}  {file}")
    for failure in tally.failures[:20]:
        print(f"  FAILED: {failure}")
    record = {"workload": name, "seed": args.seed, "trace": args.trace, "machine": facts,
              "metrics": metrics, "outputs": outputs, "attempted": tally.attempted,
              "failures": tally.failures}
    (w.dir / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, tally


def write_spec() -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def pin_digests(names: list[str]) -> None:
    from check import Tally

    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name in names:
        tally = Tally()
        w = Run(name, DIGEST_SEED, time.monotonic() + 900, tally)
        if w.run_plain(DIGEST_SEED, w.dir / "pin") is None:
            raise SystemExit(f"perfbench: {name}: run failed: {tally.failures}")
        pinned[name] = digests(w.dir / "pin", w.names())
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    parser.add_argument("--pin-digests", action="store_true",
                        help=f"record output digests at seed {DIGEST_SEED} in digests.json")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if not (SRC / "infodyn" / "__init__.py").is_file():
        print(f"perfbench: no infodyn sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.pin_digests:
        pin_digests(names)
        return 0

    metrics, attempted, failed = {}, 0, 0
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        found, tally = run_one(name, args, deadline)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in found.items()})
        attempted += tally.attempted
        failed += len(tally.failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
