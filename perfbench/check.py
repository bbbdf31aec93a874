"""Correctness checks on the files a workload wrote.

Every check adds one to ``Tally.attempted``; a failed one records a message.
Sweep outputs are checked four ways:

* every instance row: S = 1 - E and C = 4E(1 - E) to the 9 significant
  digits the CSV carries, every value in [0, 1], and the seed column equal to
  the seed schedule (recomputed here with its own hash);
* every aggregate row, recomputed from the instance CSV;
* the JSON mirrors, formatted to 9 digits, equal to the CSVs;
* a seeded sample of instances per cell, recomputed by an independent path:
  ``generate_rbn`` plus repeated ``rbn_step``, or the random initial row plus
  repeated ``eca_step``, then per-series ``rescale`` and
  ``normalized_information``.  The RBN path draws its networks through
  ``generate_rbn``, so it keeps passing across a declared change of the
  generator's RNG stream.

``measure`` reports are checked against a reference I_b that counts symbols
with ``bincount`` instead of the program's ``np.unique``.  ``self_check``
corrupts one instance row and one aggregate row (or one report row) and
confirms that the checks above catch each.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from infodyn import eca, measures, rbn
from workloads import Stream, Sweep

MEASURES = ("E", "S", "C", "H")
STATS = ("mean", "median", "q25", "q75", "whisker_lo", "whisker_hi")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def half_digit(x: float) -> float:
    """Half a unit in the 9th significant digit of x: the CSV rounding error."""
    if x == 0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def near(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * 1.01 + 1e-15


def schedule_seed(master_seed: int, experiment_id: str, index: int) -> int:
    key = f"{master_seed}|{experiment_id}|{index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


# -- sweeps -----------------------------------------------------------------

def _cell_key(job: Sweep, text: str):
    return float(text) if job.what == "rbn" else int(text)


def check_instance_rows(tally: Tally, job: Sweep, rows: list[dict], master_seed: int) -> None:
    expected = [(p, b, i) for p in job.grid for b in job.scales for i in range(job.instances)]
    got = [(_cell_key(job, r["rule_or_k"]), int(r["scale"]), int(r["instance"])) for r in rows]
    tally.check(got == expected and all(r["experiment"] == job.experiment for r in rows),
                "instance CSV rows do not cover the workload's cells in order")
    seeds_ok = all(
        int(r["seed"]) == schedule_seed(master_seed, job.experiment_id(p), i)
        for r, (p, _, i) in zip(rows, expected)
    )
    tally.check(seeds_ok, "instance seeds differ from the seed schedule")
    for r in rows:
        e, s, c, h = (float(r[k]) for k in MEASURES)
        where = f"instance row {r['rule_or_k']}/b={r['scale']}/#{r['instance']}"
        tally.check(
            all(0.0 <= v <= 1.0 for v in (e, s, c, h))
            and near(s, 1.0 - e, half_digit(e) + half_digit(s))
            and near(c, 4.0 * e * (1.0 - e), 4 * half_digit(e) + half_digit(c)),
            f"{where}: S != 1-E, C != 4E(1-E) or a value outside [0, 1]",
        )


def _whisker_ok(value: float, values: np.ndarray, threshold: float, low: bool, tol: float) -> bool:
    """A whisker is the extreme instance value inside a threshold that is only
    known to within ``tol``: accept any instance value the rounding allows."""
    if low:
        loose, strict = values[values >= threshold - tol], values[values >= threshold + tol]
        allowed = loose[loose <= (strict.min() if strict.size else loose.max())]
    else:
        loose, strict = values[values <= threshold + tol], values[values <= threshold - tol]
        allowed = loose[loose >= (strict.max() if strict.size else loose.min())]
    return bool(np.any(np.abs(allowed - value) <= tol))


def check_aggregate_rows(tally: Tally, job: Sweep, inst: list[dict], agg: list[dict]) -> None:
    cells: dict[tuple, list[dict]] = {}
    for r in inst:
        cells.setdefault((r["rule_or_k"], r["scale"]), []).append(r)
    expected_keys = [(p, b, s) for (p, b) in cells for s in STATS]
    got_keys = [(r["rule_or_k"], r["scale"], r["stat"]) for r in agg]
    tally.check(got_keys == expected_keys, "aggregate CSV rows do not match the instance cells")
    rows = {(r["rule_or_k"], r["scale"], r["stat"]): r for r in agg}
    for (p, b), members in cells.items():
        for key in MEASURES:
            values = np.array([float(r[key]) for r in members])
            tol = 2 * half_digit(float(np.abs(values).max()))
            q25, median, q75 = np.percentile(values, [25, 50, 75], method="linear")
            iqr = q75 - q25
            for stat, want in (("mean", values.mean()), ("median", median),
                               ("q25", q25), ("q75", q75)):
                row = rows.get((p, b, stat))
                got = float(row[key]) if row else math.nan
                tally.check(near(got, want, tol + half_digit(got)),
                            f"aggregate {p}/b={b} {stat} {key}: {got!r} != {want!r}")
            for stat, threshold, low in (("whisker_lo", q25 - 1.5 * iqr, True),
                                         ("whisker_hi", q75 + 1.5 * iqr, False)):
                row = rows.get((p, b, stat))
                got = float(row[key]) if row else math.nan
                tally.check(_whisker_ok(got, values, threshold, low, 5 * tol),
                            f"aggregate {p}/b={b} {stat} {key}: {got!r} is not the whisker")


def check_json_mirror(tally: Tally, csv_rows: list[dict], json_path: Path) -> None:
    def cell(value) -> str:
        if isinstance(value, float):
            return format(value, ".9g")
        return str(value)

    mirror = json.loads(json_path.read_text())
    ok = len(mirror) == len(csv_rows) and all(
        all(cell(m.get(k)) == r[k] for k in r) for m, r in zip(mirror, csv_rows)
    )
    tally.check(ok, f"{json_path.name} does not mirror its CSV")


def recorded_states(job: Sweep, parameter, seed: int) -> np.ndarray:
    """window x units states from the single-step public API."""
    states = np.empty((job.window, job.n), dtype=np.uint8)
    if job.what == "rbn":
        config = rbn.RbnConfig(n=job.n, k=float(parameter), transient=job.transient,
                               window=job.window)
        net = rbn.generate_rbn(config, np.random.default_rng(seed))
        state, step = net.state, (lambda s: rbn.rbn_step(net, s))
    else:
        rule = eca.rule_table(int(parameter))
        state = np.random.default_rng(seed).integers(0, 2, size=job.n, dtype=np.uint8)
        step = (lambda s: eca.eca_step(s, rule))
    for _ in range(job.transient):
        state = step(state)
    for t in range(job.window):
        states[t] = state
        if t + 1 < job.window:
            state = step(state)
    return states


def independent_measures(states: np.ndarray, scale: int) -> tuple[float, float]:
    """(E, H) with one SymbolSequence per series."""
    infos, last, prev = [], [], []
    for unit in states.T:
        seq = measures.rescale(measures.SymbolSequence(unit.astype(np.int64), 1), scale)
        infos.append(min(max(measures.normalized_information(seq), 0.0), 1.0))
        last.append(seq.symbols[-1])
        prev.append(seq.symbols[-2])
    e = float(np.mean(infos))
    h = 1.0 - float(np.mean(np.array(last) != np.array(prev)))
    return e, h


def check_independent(tally: Tally, job: Sweep, rows: list[dict], rng: np.random.Generator) -> None:
    by_key = {(_cell_key(job, r["rule_or_k"]), int(r["scale"]), int(r["instance"])): r
              for r in rows}
    for parameter in job.grid:
        picks = rng.choice(job.instances, size=job.checked_per_cell, replace=False)
        for index in sorted(int(i) for i in picks):
            label = f"{parameter}/#{index}"
            if any((parameter, b, index) not in by_key for b in job.scales):
                tally.check(False, f"independent recompute {label}: rows missing")
                continue
            seed = int(by_key[(parameter, job.scales[0], index)]["seed"])
            states = recorded_states(job, parameter, seed)
            for b in job.scales:
                row = by_key[(parameter, b, index)]
                e, h = independent_measures(states, b)
                e_csv, h_csv = float(row["E"]), float(row["H"])
                tally.check(
                    near(e_csv, e, 2 * half_digit(e) + 1e-12) and near(h_csv, h, half_digit(h)),
                    f"independent recompute {label} b={b}: "
                    f"E {e_csv!r} vs {e!r}, H {h_csv!r} vs {h!r}",
                )


def check_h_baseline(tally: Tally, job: Sweep, path: Path) -> None:
    rows = read_csv(path)
    tally.check([int(r["scale"]) for r in rows] == sorted(job.scales),
                f"{path.name} scales differ from the workload's")
    for r in rows:
        want = 2.0 ** -int(r["scale"])
        tally.check(near(float(r["h_baseline"]), want, half_digit(want)),
                    f"{path.name}: b={r['scale']} baseline is not 2^-b")


def check_sweep_rows(tally: Tally, job: Sweep, inst: list[dict], agg: list[dict],
                     master_seed: int) -> None:
    check_instance_rows(tally, job, inst, master_seed)
    check_aggregate_rows(tally, job, inst, agg)


# -- measure reports --------------------------------------------------------

def reference_information(bits: np.ndarray, scale: int) -> float:
    """I_b of MSB-first ``scale``-bit groups, counted with bincount in chunks."""
    groups = bits.size // scale
    weights = np.int64(1) << np.arange(scale - 1, -1, -1, dtype=np.int64)
    counts = np.zeros(1 << scale, dtype=np.int64)
    chunk = 1 << 18
    for start in range(0, groups, chunk):
        stop = min(groups, start + chunk)
        block = bits[start * scale: stop * scale].reshape(stop - start, scale)
        counts += np.bincount(block.astype(np.int64) @ weights, minlength=1 << scale)
    p = counts[counts > 0] / groups
    return float(-(p * np.log2(p)).sum()) / scale


def check_report(tally: Tally, job: Stream, rows: list[dict], reference: dict[int, float]) -> None:
    tally.check([int(r["scale"]) for r in rows] == list(job.scales),
                "measure report scales differ from the requested ones")
    for r in rows:
        b = int(r["scale"])
        i_b, e, s, c = (float(r[k]) for k in ("I_b", "E", "S", "C"))
        want = reference.get(b, math.nan)
        tally.check(
            near(i_b, want, 2 * half_digit(want) + 1e-12) and e == i_b
            and all(0.0 <= v <= 1.0 for v in (i_b, s, c))
            and near(s, 1.0 - e, half_digit(e) + half_digit(s))
            and near(c, 4.0 * e * (1.0 - e), 4 * half_digit(e) + half_digit(c)),
            f"measure report b={b}: I_b {i_b!r} vs reference {want!r}, or S/C inconsistent",
        )


# -- entry points -----------------------------------------------------------

def check_outputs(tally: Tally, job, outdir: Path, master_seed: int, seed: int,
                  input_bits: np.ndarray | None = None) -> dict[int, float] | None:
    """All checks on one run's files; returns the measure reference, if any.
    Files too malformed to parse count as one failed check."""
    try:
        return _check_outputs(tally, job, outdir, master_seed, seed, input_bits)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        tally.check(False, f"malformed output in {outdir}: {exc!r}")
        return None


def _check_outputs(tally, job, outdir, master_seed, seed, input_bits):
    names = job.output_names()
    present = all((outdir / name).is_file() for name in names)
    tally.check(present, f"missing output files in {outdir}")
    if not present:
        return None
    if isinstance(job, Stream):
        reference = {b: reference_information(input_bits, b) for b in job.scales}
        check_report(tally, job, read_csv(outdir / job.report), reference)
        return reference
    inst = read_csv(outdir / names[0])
    agg = read_csv(outdir / names[1])
    check_sweep_rows(tally, job, inst, agg, master_seed)
    check_json_mirror(tally, inst, outdir / names[2])
    check_json_mirror(tally, agg, outdir / names[3])
    if job.what == "profile":
        check_h_baseline(tally, job, outdir / names[4])
    check_independent(tally, job, inst, np.random.default_rng(seed))
    return None


def _nudge(text: str, delta: float) -> str:
    value = float(text)
    return format(value - delta if value + delta > 1.0 else value + delta, ".9g")


def self_check(tally: Tally, job, outdir: Path, master_seed: int,
               reference: dict[int, float] | None, rng: np.random.Generator) -> None:
    """Corrupt one row of each output table and confirm the checks fail."""
    if isinstance(job, Stream):
        rows = read_csv(outdir / job.report)
        pick = int(rng.integers(len(rows)))
        rows[pick]["I_b"] = _nudge(rows[pick]["I_b"], 1e-6)
        probe = Tally()
        check_report(probe, job, rows, reference or {})
        tally.check(bool(probe.failures), "self-check: a corrupted report row passed")
        return
    names = job.output_names()
    inst = read_csv(outdir / names[0])
    agg = read_csv(outdir / names[1])
    for table, label in ((inst, "instance"), (agg, "aggregate")):
        rows = [dict(r) for r in table]
        pick = int(rng.integers(len(rows)))
        rows[pick]["E"] = _nudge(rows[pick]["E"], 1e-3)
        probe = Tally()
        if label == "instance":
            check_sweep_rows(probe, job, rows, agg, master_seed)
        else:
            check_sweep_rows(probe, job, inst, rows, master_seed)
        tally.check(bool(probe.failures), f"self-check: a corrupted {label} row passed")
