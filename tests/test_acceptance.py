"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavier criteria
share module-scoped fixtures so each simulation runs once.
"""

import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from infodyn.eca import as_boolean_network, eca_step, rule_table
from infodyn.experiments import DEFAULT_RULES, eca_class_survey, rbn_sweep
from infodyn.measures import (
    SymbolSequence,
    normalized_information,
    rescale,
    simplified_measures,
)
from infodyn.rbn import rbn_step

REF_BITS = "00001000101000011100100011001000"
REF_ROWS = {
    2: [0, 0, 2, 0, 2, 2, 0, 1, 3, 0, 2, 0, 3, 0, 2, 0],
    4: [0, 8, 10, 1, 12, 8, 12, 8],
    8: [8, 161, 200, 200],
}
REF_INFO = {1: 0.89603821, 2: 0.8246987, 4: 0.5389098, 8: 0.1875}


@contextmanager
def criterion(number: int, name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({name}): PASS  [{time.time() - start:.1f}s]")


@pytest.fixture(scope="module")
def chaotic_and_complex_survey():
    """Rules 110, 30, 54 at the full window length.

    The b=8 bound of criterion 6 needs long node strings: with a 2^10 window
    the 128 symbols per node cap normalized information at log2(128)/8 =
    0.875 < 0.9, so this survey uses the full-scale 2^12 window.
    """
    results = eca_class_survey(
        rules=(110, 30, 54),
        n=256,
        instances=50,
        transient=4096,
        window=4096,
        scales=(1, 2, 4, 8),
        master_seed=0,
    )
    return {(r.parameter, r.scale): r for r in results}


def test_criterion_1_reference_string_exactness():
    with criterion(1, "reference string exactness"):
        bits = SymbolSequence.from_bits(REF_BITS)
        for b, expected in REF_INFO.items():
            assert normalized_information(rescale(bits, b)) == pytest.approx(
                expected, abs=1e-6
            )
        for b, symbols in REF_ROWS.items():
            assert list(rescale(bits, b).symbols) == symbols


def test_criterion_2_long_random_string():
    with criterion(2, "long random string stays near maximal information"):
        rng = np.random.default_rng(2024)
        bits = SymbolSequence(rng.integers(0, 2, size=2**20), 1)
        for b in (1, 2, 4, 8):
            assert normalized_information(rescale(bits, b)) >= 0.999


def test_criterion_3_algebraic_identities():
    with criterion(3, "algebraic identities over random sequences"):
        rng = np.random.default_rng(33)
        infos, complexities = [], []
        for _ in range(1000):
            scale = int(rng.integers(1, 9))
            length = int(rng.integers(scale, 4097))
            p = rng.uniform(0.02, 0.98)
            bits = SymbolSequence((rng.random(length) < p).astype(np.int64), 1)
            ms = simplified_measures(rescale(bits, scale))
            e, s, c = ms.emergence, ms.self_organization, ms.complexity
            assert abs(s - (1.0 - e)) <= 1e-12
            assert abs(c - 4.0 * e * (1.0 - e)) <= 1e-12
            infos.append(e)
            complexities.append(c)
        infos = np.array(infos)
        complexities = np.array(complexities)
        closest_to_half = int(np.argmin(np.abs(infos - 0.5)))
        assert complexities[closest_to_half] == complexities.max()


def test_criterion_4_class_one_rules_desk_preset():
    with criterion(4, "class I rules are flat at every scale"):
        results = eca_class_survey(
            rules=(0, 8, 32, 40, 128),
            n=256,
            instances=50,
            transient=1024,
            window=1024,
            scales=(1, 2, 4, 8),
            master_seed=0,
        )
        assert len(results) == 5 * 4
        for result in results:
            for ms in result.instances:
                assert ms.emergence == 0.0
                assert ms.complexity == 0.0
                assert ms.self_organization == 1.0
                assert ms.homeostasis == 1.0
            # zero variance across the 50 instances
            assert result.aggregate["whisker_lo"] == result.aggregate["whisker_hi"]


def test_criterion_5_rule_1_scale_transition():
    with criterion(5, "rule 1 becomes flat above the bit scale"):
        results = eca_class_survey(
            rules=(1,),
            n=256,
            instances=50,
            transient=1024,
            window=1024,
            scales=(1, 2, 4, 8),
            master_seed=0,
        )
        by_scale = {r.scale: r.aggregate["mean"] for r in results}
        assert by_scale[1]["E"] > 0.5
        for b in (2, 4, 8):
            assert by_scale[b]["E"] == 0.0
            assert by_scale[b]["S"] == 1.0
            assert by_scale[b]["H"] == 1.0


def test_criterion_6_multiscale_trends(chaotic_and_complex_survey):
    with criterion(6, "rule 110 trends / rule 30 bounds across scales"):
        scales = (1, 2, 4, 8)
        e110 = [chaotic_and_complex_survey[(110, b)].aggregate["mean"]["E"] for b in scales]
        s110 = [chaotic_and_complex_survey[(110, b)].aggregate["mean"]["S"] for b in scales]
        c110 = [chaotic_and_complex_survey[(110, b)].aggregate["mean"]["C"] for b in scales]
        assert all(a > b for a, b in zip(e110, e110[1:])), e110
        assert all(a < b for a, b in zip(s110, s110[1:])), s110
        assert all(a < b for a, b in zip(c110, c110[1:])), c110
        for b in scales:
            mean30 = chaotic_and_complex_survey[(30, b)].aggregate["mean"]
            assert mean30["E"] >= 0.9
            assert mean30["C"] <= 0.3


def test_criterion_7_rule_54_anticorrelated_h(chaotic_and_complex_survey):
    with criterion(7, "rule 54 homeostasis below the uncorrelated baseline"):
        assert chaotic_and_complex_survey[(54, 1)].aggregate["mean"]["H"] < 0.45


def test_criterion_8_rbn_regime_ordering():
    with criterion(8, "RBN regime ordering across connectivity"):
        results = rbn_sweep(
            n=100,
            k_grid=(1.0, 2.0, 3.0, 4.0, 5.0),
            instances=100,
            transient=512,
            window=512,
            scales=(1,),
            master_seed=0,
        )
        mean = {r.parameter: r.aggregate["mean"] for r in results}
        assert mean[1.0]["E"] < mean[3.0]["E"] < mean[5.0]["E"]
        assert mean[1.0]["S"] > mean[3.0]["S"] > mean[5.0]["S"]
        assert mean[2.0]["C"] > mean[1.0]["C"]
        assert mean[2.0]["C"] > mean[5.0]["C"]
        assert mean[1.0]["H"] > 0.9
        assert abs(mean[5.0]["H"] - 0.5) < 0.1


def test_criterion_9_engine_equivalence():
    with criterion(9, "automaton and equivalent-network engines agree"):
        rng = np.random.default_rng(9)
        for rule_number in DEFAULT_RULES:
            rule = rule_table(rule_number)
            for n in (3, 8, 12):
                state = rng.integers(0, 2, size=n, dtype=np.uint8)
                net = as_boolean_network(rule_number, n, state)
                eca_state = state.copy()
                rbn_state = state.copy()
                for _ in range(100):
                    eca_state = eca_step(eca_state, rule)
                    rbn_state = rbn_step(net, rbn_state)
                    assert np.array_equal(eca_state, rbn_state), (rule_number, n)


@pytest.fixture(scope="module")
def desk_sweep_runs(tmp_path_factory, worker_env):
    """Two full desk-preset sweep executions with different thread counts."""
    base = tmp_path_factory.mktemp("desk_sweeps")
    outputs = []
    for label, threads in (("one", "1"), ("four", "4")):
        outdir = base / label
        proc = subprocess.run(
            [
                sys.executable, "-m", "infodyn",
                "sweep", "rbn", "--preset", "desk", "--seed", "42",
                "--threads", threads, "--output-dir", str(outdir),
            ],
            capture_output=True,
            env=worker_env,
            timeout=1800,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(outdir)
    return outputs


@pytest.fixture(scope="module")
def worker_env():
    import os
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) if not existing else f"{src}{os.pathsep}{existing}"
    return env


def test_criterion_10_sweep_determinism_across_threads(desk_sweep_runs):
    with criterion(10, "sweep output is byte-identical across thread counts"):
        first, second = desk_sweep_runs
        names = [
            "rbn_sweep_instances.csv",
            "rbn_sweep_aggregate.csv",
            "rbn_sweep_instances.json",
            "rbn_sweep_aggregate.json",
        ]
        for name in names:
            a = (first / name).read_bytes()
            b = (second / name).read_bytes()
            assert a == b, f"{name} differs between runs"
            assert len(a) > 0


def test_desk_grid_invariants_from_sweep_output(desk_sweep_runs):
    """Supplementary invariants on the full default K grid, read from the
    criterion-10 sweep files: complexity peaks strictly inside [2, 3] and
    the chaotic end sits at the uncorrelated-H level."""
    import csv

    with open(desk_sweep_runs[0] / "rbn_sweep_aggregate.csv") as fh:
        rows = [r for r in csv.DictReader(fh)]
    mean_b1 = {
        float(r["rule_or_k"]): r
        for r in rows
        if r["stat"] == "mean" and r["scale"] == "1"
    }
    assert len(mean_b1) == 21
    k_peak = max(mean_b1, key=lambda k: float(mean_b1[k]["C"]))
    assert 2.0 < k_peak < 3.0, k_peak
    assert float(mean_b1[2.0]["C"]) > float(mean_b1[5.0]["C"])
    assert float(mean_b1[1.0]["E"]) < float(mean_b1[2.0]["E"]) < float(mean_b1[5.0]["E"])
    assert float(mean_b1[1.0]["S"]) > float(mean_b1[2.0]["S"]) > float(mean_b1[5.0]["S"])
    assert abs(float(mean_b1[5.0]["H"]) - 0.5) <= 0.05
