import json

import numpy as np
import pytest

from infodyn import experiments
from infodyn.eca import EcaConfig, eca_measures, run_eca
from infodyn.experiments import (
    DEFAULT_K_GRID,
    DEFAULT_RULES,
    PROFILE_RULES,
    SeedSchedule,
    aggregate,
    aggregate_rows,
    eca_class_survey,
    instance_rows,
    json_text,
    multiscale_profiles,
    rbn_sweep,
    write_sweep_files,
)
from infodyn.measures import MeasureSet
from infodyn.rbn import RbnConfig, network_measures, run_rbn


def printed(rows):
    """Rows with every float replaced by the value its CSV field prints."""
    return [
        {k: float(format(v, ".9g")) if isinstance(v, float) else v for k, v in row.items()}
        for row in rows
    ]


def ms(e, s=None, c=None, h=0.5, scale=1):
    s = 1.0 - e if s is None else s
    c = 4.0 * e * (1.0 - e) if c is None else c
    return MeasureSet(e, s, c, h, scale)


class TestSeedSchedule:
    def test_stable(self):
        schedule = SeedSchedule(42)
        assert schedule.seed_for("exp/a", 3) == SeedSchedule(42).seed_for("exp/a", 3)

    def test_distinct_inputs_distinct_seeds(self):
        # collision scan over a million (experiment id, index) pairs
        schedule = SeedSchedule(42)
        seen = set()
        for exp in ("exp/a", "exp/b"):
            for index in range(500_000):
                seen.add(schedule.seed_for(exp, index))
        assert len(seen) == 1_000_000

    def test_master_seed_matters(self):
        assert SeedSchedule(1).seed_for("x", 0) != SeedSchedule(2).seed_for("x", 0)

    def test_range(self):
        seed = SeedSchedule(7).seed_for("exp", 123)
        assert 0 <= seed < 2**64


class TestAggregate:
    def test_single_element(self):
        stats = aggregate([ms(0.4)])
        for name in ("mean", "median", "q25", "q75", "whisker_lo", "whisker_hi"):
            assert stats[name]["E"] == pytest.approx(0.4)

    def test_two_elements_mean_is_midpoint(self):
        stats = aggregate([ms(0.2), ms(0.6)])
        assert stats["mean"]["E"] == pytest.approx(0.4)
        assert stats["median"]["E"] == pytest.approx(0.4)

    def test_symmetric_median(self):
        stats = aggregate([ms(0.2), ms(0.5), ms(0.8)])
        assert stats["median"]["E"] == pytest.approx(0.5)

    def test_quartiles_linear_interpolation(self):
        values = [0.0, 0.25, 0.5, 0.75, 1.0]
        stats = aggregate([ms(v, h=v) for v in values])
        assert stats["q25"]["E"] == pytest.approx(0.25)
        assert stats["q75"]["E"] == pytest.approx(0.75)
        assert stats["whisker_lo"]["E"] == 0.0
        assert stats["whisker_hi"]["E"] == 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate([])


class TestRbnSweep:
    def test_single_instance_equals_direct_run(self):
        results = rbn_sweep(
            n=20, k_grid=[2.0], instances=1, transient=16, window=64,
            scales=(1,), master_seed=9,
        )
        assert len(results) == 1
        result = results[0]
        seed = SeedSchedule(9).seed_for("rbn_sweep/k=2", 0)
        direct = network_measures(
            run_rbn(RbnConfig(n=20, k=2.0, transient=16, window=64, seed=seed)), 1
        )
        assert result.instances[0] == direct
        assert result.aggregate["mean"]["E"] == pytest.approx(direct.emergence)

    def test_structure_and_counts(self):
        results = rbn_sweep(
            n=10, k_grid=[1.0, 2.0], instances=4, transient=8, window=32,
            scales=(1, 2), master_seed=0,
        )
        assert len(results) == 4  # 2 K values x 2 scales
        assert [(r.parameter, r.scale) for r in results] == [
            (1.0, 1), (1.0, 2), (2.0, 1), (2.0, 2)
        ]
        for r in results:
            assert len(r.instances) == 4
            assert len(r.seeds) == 4

    def test_every_config_is_validated_before_any_cell_runs(self, monkeypatch):
        def never(config, seeds):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "run_rbn_many", never)
        with pytest.raises(ValueError, match="lookup tables"):
            rbn_sweep(n=100, k_grid=[1.0, 35.0], instances=1, transient=1, window=8)

    def test_threads_do_not_change_results(self):
        kwargs = dict(
            n=15, k_grid=[1.0, 3.0, 5.0], instances=5, transient=8, window=64,
            scales=(1, 2), master_seed=3,
        )
        serial = rbn_sweep(threads=1, **kwargs)
        threaded = rbn_sweep(threads=4, **kwargs)
        assert serial == threaded


class TestEcaSurvey:
    def test_rule_zero_row_zero_variance(self):
        results = eca_class_survey(
            rules=[0], n=32, instances=10, transient=16, window=64,
            scales=(1, 2, 4, 8), master_seed=1,
        )
        for result in results:
            for instance in result.instances:
                assert instance.emergence == 0.0
                assert instance.self_organization == 1.0
                assert instance.complexity == 0.0
                assert instance.homeostasis == 1.0
            assert result.aggregate["whisker_lo"] == result.aggregate["whisker_hi"]

    def test_matches_direct_runs(self):
        results = eca_class_survey(
            rules=[30], n=32, instances=3, transient=8, window=32,
            scales=(1,), master_seed=4,
        )
        result = results[0]
        for index, seed in enumerate(result.seeds):
            traj = run_eca(EcaConfig(rule=30, n=32, transient=8, window=32, seed=seed))
            assert result.instances[index] == eca_measures(traj, 1)

    def test_rule_out_of_range(self):
        with pytest.raises(ValueError, match="rule out of range"):
            eca_class_survey(rules=[999], n=16, instances=1, transient=1, window=8)

    def test_rule_18_more_complex_than_rule_30_at_higher_scales(self):
        # rule 18 accumulates zeros in triangles, reducing E and raising
        # S, C, and H relative to the more balanced chaotic rules
        results = eca_class_survey(
            rules=(18, 30), n=256, instances=20, transient=1024, window=1024,
            scales=(2, 4, 8), master_seed=0,
        )
        cells = {(r.parameter, r.scale): r.aggregate["mean"] for r in results}
        for b in (2, 4, 8):
            assert cells[(18, b)]["C"] > cells[(30, b)]["C"]
            assert cells[(18, b)]["E"] < cells[(30, b)]["E"]


class TestProfiles:
    def test_profile_baseline_and_lookup(self):
        profile = multiscale_profiles(
            rules=(0, 30), scales=(1, 2, 4), n=32, instances=2,
            transient=8, window=64, master_seed=2,
        )
        assert profile.h_baseline == {1: 0.5, 2: 0.25, 4: 0.0625}
        assert profile.mean(0, 1)["E"] == 0.0
        assert profile.mean(0, 1)["S"] == 1.0
        with pytest.raises(KeyError):
            profile.mean(99, 1)

    def test_alternative_baseline(self):
        profile = multiscale_profiles(
            rules=(0,), scales=(1, 4), n=32, instances=1,
            transient=4, window=32, master_seed=0, baseline_form="inv2b",
        )
        assert profile.h_baseline == {1: 0.5, 4: 0.125}


class TestOutputFiles:
    def test_csv_schema_and_json_mirror(self, tmp_path):
        results = eca_class_survey(
            rules=[0, 4], n=16, instances=2, transient=4, window=16,
            scales=(1, 2), master_seed=6,
        )
        written = write_sweep_files(results, tmp_path, "eca_survey")
        names = {p.name for p in written}
        assert names == {
            "eca_survey_instances.csv",
            "eca_survey_aggregate.csv",
            "eca_survey_instances.json",
            "eca_survey_aggregate.json",
        }
        inst_lines = (tmp_path / "eca_survey_instances.csv").read_text().splitlines()
        assert inst_lines[0] == "experiment,rule_or_k,scale,instance,seed,E,S,C,H"
        assert len(inst_lines) == 1 + 2 * 2 * 2  # rules x scales x instances
        agg_lines = (tmp_path / "eca_survey_aggregate.csv").read_text().splitlines()
        assert agg_lines[0] == "experiment,rule_or_k,scale,stat,E,S,C,H"
        assert len(agg_lines) == 1 + 2 * 2 * 6  # rules x scales x stats

        mirrored = json.loads((tmp_path / "eca_survey_instances.json").read_text())
        assert mirrored == printed(instance_rows(results))
        mirrored_agg = json.loads((tmp_path / "eca_survey_aggregate.json").read_text())
        assert mirrored_agg == printed(aggregate_rows(results))

    def test_json_mirror_carries_the_csv_value(self):
        rows = [
            {"name": "a\nb", "k": 1.2, "n": 7, "E": 2.0 / 3.0, "H": None, "x": 1e-12},
            {"name": "c", "k": 2.0, "n": 2**63, "E": 0.1 + 0.2, "H": -0.0, "x": 1.0},
        ]
        text = json_text(rows)
        assert text == json.dumps(printed(rows), indent=2) + "\n"
        assert json.loads(text)[0]["E"] == 0.666666667
        assert json.loads(text)[1]["E"] == 0.3
        assert json_text([]) == "[]\n"

    def test_aggregates_recomputable_from_instance_rows(self):
        results = rbn_sweep(
            n=10, k_grid=[2.0], instances=7, transient=8, window=32,
            scales=(1,), master_seed=5,
        )
        result = results[0]
        rows = [r for r in instance_rows(results) if r["scale"] == 1]
        recomputed = aggregate(
            [MeasureSet(r["E"], r["S"], r["C"], r["H"], 1) for r in rows]
        )
        assert recomputed == result.aggregate

    def test_baseline_file(self, tmp_path):
        profile = multiscale_profiles(
            rules=(0,), scales=(1, 2), n=16, instances=1,
            transient=4, window=16, master_seed=0,
        )
        write_sweep_files(
            profile.sweeps, tmp_path, "eca_profiles", h_baseline=profile.h_baseline
        )
        text = (tmp_path / "eca_profiles_h_baseline.csv").read_text()
        assert text == "scale,h_baseline\n1,0.5\n2,0.25\n"


class TestDefaults:
    def test_default_rule_list(self):
        assert len(DEFAULT_RULES) == 19
        assert set(PROFILE_RULES) <= set(DEFAULT_RULES)

    def test_default_k_grid(self):
        assert DEFAULT_K_GRID[0] == 1.0
        assert DEFAULT_K_GRID[-1] == 5.0
        assert len(DEFAULT_K_GRID) == 21
        steps = np.diff(DEFAULT_K_GRID)
        assert np.allclose(steps, 0.2)
