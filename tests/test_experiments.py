import json
import os
import re
import stat
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from infodyn import eca, experiments, measures, rbn
from infodyn.eca import EcaConfig, oriented_series, run_eca
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
    write_text,
)
from infodyn.measures import MeasureSet, series_matrix_measures
from infodyn.rbn import RbnConfig, run_rbn, run_rbn_many
from infodyn.trajectory import Trajectory


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

    def test_a_missing_h_is_an_error(self):
        with pytest.raises(ValueError, match="measure H missing from an instance"):
            aggregate([ms(0.4), ms(0.5, h=None)])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_each_measure_computed_alone(self, seed):
        # the one-pass statistics equal, bit for bit, each measure's 1-D ones
        rng = np.random.default_rng(seed)
        shape = (4, int(rng.integers(1, 120)))
        values = rng.random(shape) ** 3 if seed % 2 else rng.integers(0, 8, shape) / 7
        stats = aggregate([MeasureSet(*column.tolist(), 1) for column in values.T])
        for key, row in zip("ESCH", values):
            q25, median, q75 = np.percentile(row, [25, 50, 75], method="linear")
            iqr = q75 - q25
            assert [stats[name][key] for name in experiments.STAT_NAMES] == [
                row.mean(), median, q25, q75,
                row[row >= q25 - 1.5 * iqr].min(), row[row <= q75 + 1.5 * iqr].max()]


class TestRbnSweep:
    def test_single_instance_equals_direct_run(self):
        results = rbn_sweep(
            n=20, k_grid=[2.0], instances=1, transient=16, window=64,
            scales=(1,), master_seed=9,
        )
        assert len(results) == 1
        result = results[0]
        seed = SeedSchedule(9).seed_for("rbn_sweep/k=2", 0)
        traj = run_rbn(RbnConfig(n=20, k=2.0, transient=16, window=64, seed=seed))
        direct = series_matrix_measures(traj.series, [1])[1]
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

        monkeypatch.setattr(experiments, "_rbn_stacks", never)
        with pytest.raises(ValueError, match="lookup tables"):
            rbn_sweep(n=100, k_grid=[1.0, 35.0], instances=1, transient=1, window=8)

    @pytest.mark.parametrize("sweep", [rbn_sweep, eca_class_survey])
    def test_window_and_scales_are_checked_before_any_cell_runs(self, monkeypatch, sweep):
        def never(config, seeds):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_rbn_stacks", never)
        monkeypatch.setattr(experiments, "_eca_stacks", never)
        with pytest.raises(ValueError, match="window too short for scale 4"):
            sweep(n=10, instances=1, transient=1, window=4, scales=(1, 4))
        with pytest.raises(ValueError, match="scale must be in 1..62"):
            sweep(n=10, instances=1, transient=1, window=4, scales=(1, 0))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2.5])
    @pytest.mark.parametrize("sweep", [rbn_sweep, eca_class_survey, multiscale_profiles])
    def test_a_bad_master_seed_is_refused_before_any_cell_runs(self, monkeypatch, sweep, seed):
        def never(config, seeds):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_rbn_stacks", never)
        monkeypatch.setattr(experiments, "_eca_stacks", never)
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            sweep(n=10, instances=1, transient=1, window=4, scales=(1,), master_seed=seed)

    @pytest.mark.parametrize("sweep", [rbn_sweep, eca_class_survey, multiscale_profiles])
    def test_an_empty_scale_list_is_refused_before_any_cell_runs(self, monkeypatch, sweep):
        monkeypatch.setattr(experiments, "_rbn_stacks", lambda *a: pytest.fail("a cell ran"))
        monkeypatch.setattr(experiments, "_eca_stacks", lambda *a: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match="^no scales listed$"):
            sweep(n=10, instances=1, transient=1, window=4, scales=())

    def test_a_profile_takes_its_scales_from_an_iterator(self):
        kwargs = dict(rules=[30], n=8, instances=1, transient=1, window=16)
        expected = multiscale_profiles(scales=[1, 2], **kwargs)
        assert multiscale_profiles(scales=iter([1, 2]), **kwargs) == expected

    def test_an_unknown_baseline_form_is_refused_before_any_cell_runs(self, monkeypatch):
        monkeypatch.setattr(experiments, "_eca_stacks", lambda *a: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match="^unknown baseline form: 'bogus'$"):
            multiscale_profiles(n=10, instances=1, transient=1, window=4, scales=(1,),
                                baseline_form="bogus")

    def test_a_sweep_over_the_row_limit_is_refused_before_its_grid_is_built(self, monkeypatch):
        def never(config, seeds):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_rbn_stacks", never)
        monkeypatch.setattr(experiments, "_eca_stacks", never)
        # a range grid of 10^15 K values is never turned into configs
        with pytest.raises(ValueError, match=r"^4,000,000,000,000,000 instance rows .*-row limit"):
            rbn_sweep(k_grid=range(10**15), instances=1)
        with pytest.raises(ValueError, match=r"\(1 cells x 4 scales x 1,000,000,000,000,000 inst"):
            eca_class_survey(rules=[0], instances=10**15)

    def test_the_paper_rbn_sweep_fits_the_row_limit(self, monkeypatch):
        class CellRan(Exception):
            pass

        def first_cell(config, seeds):
            assert (config.n, config.window, len(seeds)) == (100, 1000, 1000)
            raise CellRan

        monkeypatch.setattr(experiments, "_rbn_stacks", first_cell)
        assert 21 * 4 * 1000 <= experiments._ROW_LIMIT
        with pytest.raises(CellRan):
            rbn_sweep()  # the library defaults are the paper's sizes

    def test_cells_measure_the_recorded_series(self, monkeypatch):
        # one kernel pass per band of whole rows, for every scale: at 32 bits
        # a band holds 4 rows of 8 columns, so the 3 series of 6 rows are read
        # in 5 passes, bands cut inside a series and across two
        stacked, passes = [], []
        stack_measures, kernel = experiments._stack_measures, measures._measure_blocks

        def stack(series, cycles, scales):  # the fold off: every band reads whole rows
            stacked.append(list(series))
            return stack_measures(stacked[-1], None, scales)

        def band(blocks, scales, h):
            passes.append(list(blocks))
            return kernel(passes[-1], scales, h)

        monkeypatch.setattr(experiments, "_stack_measures", stack)
        monkeypatch.setattr(measures, "_measure_blocks", band)
        monkeypatch.setattr(measures, "_BLOCK_BITS", 32)
        results = rbn_sweep(n=6, k_grid=[2.0], instances=3, transient=2, window=8,
                            scales=(1, 2))
        assert [len(series) for series in stacked] == [3]  # one call per stack
        # only a recorded series is contiguous and read-only
        assert all(s.flags.c_contiguous and not s.flags.writeable for s in stacked[0])
        assert [[block.shape for block in blocks] for blocks in passes] == (
            [[(4, 8)]] * 4 + [[(2, 8)]])
        config = RbnConfig(n=6, k=2.0, transient=2, window=8)
        recorded = [traj.series for traj in run_rbn_many(config, results[0].seeds)]
        assert np.array_equal(np.concatenate([blocks[0] for blocks in passes]),
                              np.concatenate(recorded))

    def test_threads_do_not_change_results(self):
        kwargs = dict(
            n=15, k_grid=[1.0, 3.0, 5.0], instances=5, transient=8, window=64,
            scales=(1, 2), master_seed=3,
        )
        serial = rbn_sweep(threads=1, **kwargs)
        threaded = rbn_sweep(threads=4, **kwargs)
        assert serial == threaded

    @pytest.mark.parametrize("threads, cells, cpus, workers", [
        (19, 3, 2, 2), (2, 5, 8, 2), (8, 3, 8, 3), (4, 1, 8, None), (4, 3, 1, None),
        (1, 3, 8, None),
    ])
    def test_workers_are_capped_by_cells_and_cpus(self, monkeypatch, threads, cells, cpus,
                                                  workers):
        # a stub pool records its size and maps on this thread: no thread starts
        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        kwargs = dict(n=6, k_grid=[1.0, 2.0, 3.0, 4.0, 5.0][:cells], instances=2, transient=2,
                      window=8, scales=(1, 2), master_seed=1)
        assert rbn_sweep(threads=threads, **kwargs) == rbn_sweep(threads=1, **kwargs)
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_1_are_refused_before_any_cell_runs(self, monkeypatch, threads):
        monkeypatch.setattr(experiments, "_rbn_stacks", lambda *a: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match=rf"threads must be >= 1 \(got {threads}\)"):
            rbn_sweep(n=6, k_grid=[1.0], instances=1, transient=2, window=8, threads=threads)

    @pytest.mark.parametrize("threads", [2.5, "2"])
    def test_a_non_integer_thread_count_is_refused_before_any_cell_runs(self, monkeypatch,
                                                                        threads):
        # in its own type, as every count is: 2.5 is refused, not truncated
        monkeypatch.setattr(experiments, "_rbn_stacks", lambda *a: pytest.fail("a cell ran"))
        message = f"threads must be an integer (got {threads!r})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rbn_sweep(n=6, k_grid=[1.0], instances=1, transient=2, window=8, threads=threads)

    def test_a_numpy_integer_thread_count_runs(self):
        kwargs = dict(n=6, k_grid=[1.0, 2.0], instances=2, transient=2, window=8, scales=(1,),
                      master_seed=2)
        assert rbn_sweep(threads=np.int64(2), **kwargs) == rbn_sweep(threads=1, **kwargs)

    @pytest.mark.parametrize("sweep, grid, message", [
        # both K values print as 1, so they would share one CSV key and one seed list
        (rbn_sweep, dict(k_grid=[1, 1.0000000001]), "two grid values give the one cell "
                                                    "rbn_sweep/k=1"),
        (rbn_sweep, dict(k_grid=[2, 3, 2.0]), "two grid values give the one cell rbn_sweep/k=2"),
        (eca_class_survey, dict(rules=[30, 30]), "two grid values give the one cell "
                                                 "eca_survey/rule=30"),
        (multiscale_profiles, dict(rules=[110, np.int64(30), 30]),
         "two grid values give the one cell eca_profiles/rule=30"),
        (rbn_sweep, dict(scales=(1, 1)), "scale 1 is listed twice"),
        (eca_class_survey, dict(scales=(2, 1, 2)), "scale 2 is listed twice"),
        (multiscale_profiles, dict(scales=(4, 4)), "scale 4 is listed twice"),
        # -0.0 is stored as 0.0, so it is the cell k=0 and its seeds, not a cell k=-0
        (rbn_sweep, dict(k_grid=[0, -0.0]), "two grid values give the one cell rbn_sweep/k=0"),
    ])
    def test_a_repeated_cell_or_scale_is_refused_before_any_cell_runs(self, monkeypatch, sweep,
                                                                      grid, message):
        monkeypatch.setattr(experiments, "_rbn_stacks", lambda *a: pytest.fail("a cell ran"))
        monkeypatch.setattr(experiments, "_eca_stacks", lambda *a: pytest.fail("a cell ran"))
        kwargs = dict(n=6, instances=1, transient=2, window=16, scales=(1,))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(**{**kwargs, **grid})


class TestCycleFold:
    @pytest.mark.parametrize("sweep, grid, stacks, config", [
        # rule 18 on 16 cells cycles from window column 32 with period 14,
        # not at a multiple of its 56-column block; 20 networks of K = 1
        # cycle together from column 8
        (eca_class_survey, dict(rules=[18], n=16), eca._eca_stacks,
         EcaConfig(rule=18, n=16, transient=0, window=256)),
        (rbn_sweep, dict(k_grid=[1.0], n=8), rbn._rbn_stacks,
         RbnConfig(n=8, k=1.0, transient=0, window=256)),
    ], ids=["eca", "rbn"])
    def test_a_folded_sweep_writes_the_bytes_of_a_full_read(self, tmp_path, monkeypatch, sweep,
                                                             grid, stacks, config):
        kwargs = dict(grid, instances=20, transient=0, window=256, scales=(1, 2, 4, 8),
                      master_seed=4)
        kernel, repeats = measures._measure_blocks, []

        def spy(blocks, scales, h):
            blocks = list(blocks)
            repeats.extend(block[1] for block in blocks if isinstance(block, tuple))
            return kernel(blocks, scales, h)

        monkeypatch.setattr(measures, "_measure_blocks", spy)
        results = sweep(**kwargs)
        write_sweep_files(results, tmp_path / "folded", "fold")
        (cycles,) = [cycles for _, cycles in stacks(config, results[0].seeds)]
        assert None not in cycles and (sweep is rbn_sweep or cycles == [cycles[0]] * 20)
        assert sweep is rbn_sweep or cycles[0][0] > 0
        assert repeats and min(repeats) >= 2  # every band folded its cycle block

        # the fold off: each stack is measured without its cycle
        stack_measures = experiments._stack_measures
        monkeypatch.setattr(experiments, "_stack_measures",
                            lambda series, cycles, scales: stack_measures(series, None, scales))
        repeats.clear()
        write_sweep_files(sweep(**kwargs), tmp_path / "full", "fold")
        assert not repeats
        for name in ("fold_instances.csv", "fold_aggregate.csv"):
            assert (tmp_path / "folded" / name).read_bytes() == (
                tmp_path / "full" / name).read_bytes()


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
            assert result.instances[index] == series_matrix_measures(traj.series, [1])[1]

    def test_a_cell_holds_one_stack_at_a_time(self):
        # 64 instances a stack: 1, 4 and 16 stacks, so a cell that held all
        # its trajectories until it measured them would peak about 4x higher,
        # and one that held a measured stack while recording the next, 2x.
        # What is still held at return is bounded apart: the measures a cell
        # returns take about 250 bytes an instance, where a series kept past
        # its turn (in a cache, say) takes 128 kB.  A first call keeps one-off
        # allocations out of the trace
        eca_class_survey(rules=[30], n=8, instances=1, transient=0, window=8, scales=(1,))
        working, kept = {}, {}
        for instances in (64, 256, 1024):
            tracemalloc.start()
            try:
                results = eca_class_survey(rules=[30], n=256, instances=instances, transient=0,
                                           window=512, scales=(1,))
                kept[instances], peak = tracemalloc.get_traced_memory()
                working[instances] = peak - kept[instances]
            finally:
                tracemalloc.stop()
            del results
        assert max(working.values()) <= 1.1 * working[64], working
        assert kept[1024] - kept[64] <= 512 * (1024 - 64), kept

    def test_a_stack_unstacks_one_series_at_a_time(self):
        # a stack of 64 records 8-byte words, 8 blocks, against 1 for a stack
        # of 8; besides them it holds one byte plane and the series being
        # measured, so 10 blocks against 3.  Unstacking a whole stack at
        # once held all its series: 72 blocks against 9
        peaks = {}
        for instances in (8, 64):
            tracemalloc.start()
            try:
                eca_class_survey(rules=[30], n=256, instances=instances, transient=0,
                                 window=2**16, scales=(1,))
                peaks[instances] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 3.5 * peaks[8], peaks

    @pytest.mark.parametrize("run, config", [
        (run_eca, EcaConfig(rule=30, n=256, transient=0, window=2**15)),
        (run_rbn, RbnConfig(n=256, transient=0, window=2**15)),
    ])
    def test_one_run_holds_its_block_and_its_series(self, run, config):
        # the recorded block and the one copy unstacked from it, which is the
        # series: no block-sized scratch array besides
        run(replace(config, window=2))  # first-call imports stay out of the trace
        block = config.n * config.window
        tracemalloc.start()
        try:
            run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * block, peak / block

    def test_the_diagonal_read_out_adds_about_one_block(self):
        # the read-out itself plus one gather block's index, never an index
        # the size of the whole window
        n, window = 256, 2**18
        series = np.random.default_rng(0).integers(0, 2, (n, window), dtype=np.uint8)
        traj = Trajectory(series.T)
        tracemalloc.start()
        try:
            oriented_series(traj, "diagonal")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * n * window, peak / (n * window)

    def test_rule_out_of_range(self):
        with pytest.raises(ValueError, match="rule must be in 0..255"):
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
        means = {(r.parameter, r.scale): r.aggregate["mean"] for r in profile.sweeps}
        assert sorted(means) == [(0, 1), (0, 2), (0, 4), (30, 1), (30, 2), (30, 4)]
        assert means[(0, 1)]["E"] == 0.0
        assert means[(0, 1)]["S"] == 1.0

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

    def test_json_layout_is_that_of_indented_dumps(self):
        # flat rows of every value kind, unicode and escapes in text, and an
        # empty row, as json.dumps(rows, indent=2) lays them out
        rows = [
            {"name": "\u00e9t\u00e9 \u2603 \U0001d11e", "quote": '"\\\t', "n": -3, "E": 0.25,
             "H": None, "ok": True},
            {},
            {"sep": ",\n    ", "E": 1 / 3, "x": 1e300},
        ]
        for case in ([], [{}], rows[:1], rows):
            assert json_text(case) == json.dumps(printed(case), indent=2) + "\n"

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

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "report.csv"
        write_text(path, "scale,E\n1,0.5\n")
        # a lone surrogate cannot be encoded, so the write fails part-way
        with pytest.raises(UnicodeEncodeError):
            write_text(path, "scale,E\n" * 10_000 + "\udcff")
        assert path.read_bytes() == b"scale,E\n1,0.5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
        write_text(path, "scale\r\n2\n")
        assert path.read_bytes() == b"scale\r\n2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_open_descriptor_is_written_at_its_offset(self, tmp_path):
        path = tmp_path / "log"
        with open(path, "w") as fh:
            fh.write("keep\n")
            fh.flush()
            write_text(f"/proc/{os.getpid()}/fd/{fh.fileno()}", "report\n")
            write_text(f"/dev/fd/{fh.fileno()}", "again\n")
            fh.write("after\n")
        assert path.read_text() == "keep\nreport\nagain\nafter\n"
        assert [p.name for p in tmp_path.iterdir()] == ["log"]

    def test_missing_directory_error_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "report.csv"
        with pytest.raises(FileNotFoundError) as info:
            write_text(path, "scale,E\n")
        assert info.value.filename == str(path)

    def test_replaced_file_keeps_its_link_and_mode(self, tmp_path):
        target = tmp_path / "report.csv"
        target.write_text("old\n")
        target.chmod(0o600)
        link = tmp_path / "latest.csv"
        link.symlink_to(target)
        write_text(link, "new\n")
        assert link.is_symlink() and target.read_text() == "new\n"
        assert target.stat().st_mode & 0o777 == 0o600
        assert sorted(p.name for p in tmp_path.iterdir()) == ["latest.csv", "report.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        write_text(fifo, "scale,E\n")
        reader.join(timeout=10)
        assert not reader.is_alive() and received == ["scale,E\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)


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
