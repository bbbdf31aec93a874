"""Child process of the benchmark: one fresh interpreter per measured run.

    python3 worker.py setup
    python3 worker.py plain -- <infodyn CLI arguments>
    python3 worker.py traced <workload> <program seed> <outdir> <input file> <spans.json>

Every mode first imports ``infodyn.cli`` (the set-up a user pays on each
command) and stamps the wall clock, so the parent can time set-up from its
own clock.  ``plain`` then times ``infodyn.cli.main`` on the given arguments.
``traced`` runs the same work by calling each module's public functions in
the order the CLI makes them, with a span around every call, and writes the
spans once at the end.  The last stdout line is a JSON result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import infodyn.cli  # the set-up: everything a command imports

READY = time.time()

import numpy as np  # noqa: E402
from infodyn import eca, experiments, measures, rbn  # noqa: E402

from workloads import WORKLOADS, Stream  # noqa: E402


class Tracer:
    """In-memory spans: [id, parent id, name, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        record = [sid, self._stack[-1] if self._stack else None, name, 0.0, 0.0, attrs]
        self.spans.append(record)
        self._stack.append(sid)
        record[3] = time.perf_counter()
        try:
            yield attrs
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()


def traced_sweep(tracer: Tracer, job, master_seed: int, outdir: str) -> dict[str, list[int]]:
    """Replica of ``infodyn sweep``; returns each cell's instance seeds."""
    schedule = experiments.SeedSchedule(master_seed)
    if job.what == "rbn":
        run_many, run_name = rbn.run_rbn_many, "rbn.run_rbn_many"
        measure, measure_name = rbn.network_measures, "rbn.network_measures"
    else:
        run_many, run_name = eca.run_eca_many, "eca.run_eca_many"
        measure, measure_name = eca.eca_measures, "eca.eca_measures"
    cell_seeds = {}
    results = []
    with tracer.span("workload"):
        for parameter in job.grid:
            with tracer.span("cell", parameter=parameter):
                with tracer.span("experiments.seed_for"):
                    experiment_id = job.experiment_id(parameter)
                    seeds = [schedule.seed_for(experiment_id, i) for i in range(job.instances)]
                cell_seeds[experiment_id] = seeds
                if job.what == "rbn":
                    parameter = float(parameter)
                    config = rbn.RbnConfig(n=job.n, k=parameter, transient=job.transient,
                                           window=job.window)
                else:
                    parameter = int(parameter)
                    config = eca.EcaConfig(rule=parameter, n=job.n, transient=job.transient,
                                           window=job.window)
                with tracer.span(run_name, instances=len(seeds), n=job.n,
                                 steps=job.transient + job.window, window=job.window):
                    trajectories = run_many(config, seeds)
                for scale in job.scales:
                    with tracer.span("scale", scale=scale):
                        measured = []
                        for traj in trajectories:
                            with tracer.span(measure_name, scale=scale, units=traj.n,
                                             groups=traj.window // scale):
                                measured.append(measure(traj, scale))
                        with tracer.span("experiments.aggregate"):
                            stats = experiments.aggregate(measured)
                    results.append(experiments.SweepResult(
                        job.experiment, parameter, int(scale), seeds, measured, stats))
        baseline = None
        if job.what == "profile":
            baseline = {int(b): measures.uncorrelated_homeostasis(int(b), form="exact")
                        for b in job.scales}
        with tracer.span("experiments.write_sweep_files") as attrs:
            written = experiments.write_sweep_files(
                results, outdir, job.experiment, h_baseline=baseline)
        attrs["files"] = {p.name: p.stat().st_size for p in written}
    return cell_seeds


def generate_pass(tracer: Tracer, job, cell_seeds: dict[str, list[int]]) -> None:
    """Time ``generate_rbn`` alone over the sweep's seeds (a second pass: the
    sweep's ``run_rbn_many`` spans already include this work)."""
    with tracer.span("generate_pass"):
        for parameter in job.grid:
            config = rbn.RbnConfig(n=job.n, k=float(parameter), transient=job.transient,
                                   window=job.window)
            for seed in cell_seeds[job.experiment_id(parameter)]:
                with tracer.span("rbn.generate_rbn") as attrs:
                    net = rbn.generate_rbn(config, np.random.default_rng(seed))
                attrs["table_entries"] = sum(int(t.size) for t in net.tables)


def _fmt(value) -> str:
    return format(float(value), ".9g")


def traced_measure(tracer: Tracer, job: Stream, input_path: str, outdir: str) -> None:
    """Replica of ``infodyn measure <file> --input-format raw``: the CLI's
    input decoding, then the single-sequence measure path, then its report."""
    with tracer.span("workload"):
        with tracer.span("cli.read_input") as attrs:
            data = Path(input_path).read_bytes()
            bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).astype(np.int64)
            attrs["bytes"] = len(data)
        with tracer.span("measures.SymbolSequence", bits=int(bits.size)):
            seq = measures.SymbolSequence(bits, 1)
        del bits
        lines = ["scale,I_b,E,S,C"]
        for b in job.scales:
            with tracer.span("scale", scale=b):
                with tracer.span("measures.rescale", scale=b):
                    seq_b = measures.rescale(seq, b)
                with tracer.span("measures.normalized_information", scale=b):
                    i_b = measures.normalized_information(seq_b)
            lines.append(",".join([str(b), _fmt(i_b), _fmt(i_b), _fmt(1.0 - i_b),
                                   _fmt(measures.NORM_CONSTANT * i_b * (1.0 - i_b))]))
        with open(Path(outdir) / job.report, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def main(argv: list[str]) -> int:
    mode, result = argv[0], {"ready": READY}
    if mode == "plain":
        cli_args = argv[argv.index("--") + 1:]
        start = time.perf_counter()
        result["exit"] = infodyn.cli.main(cli_args)
        result["wall_s"] = time.perf_counter() - start
    elif mode == "traced":
        name, master_seed, outdir, input_path, spans_path = argv[1:6]
        job = WORKLOADS[name].job
        tracer = Tracer()
        if isinstance(job, Stream):
            traced_measure(tracer, job, input_path, outdir)
        else:
            Path(outdir).mkdir(parents=True, exist_ok=True)
            cell_seeds = traced_sweep(tracer, job, int(master_seed), outdir)
            if job.what == "rbn":
                generate_pass(tracer, job, cell_seeds)
        Path(spans_path).write_text(json.dumps(tracer.spans))
        result["exit"] = 0
    elif mode != "setup":
        raise SystemExit(f"unknown mode: {mode}")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
