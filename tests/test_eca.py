import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infodyn import eca
from infodyn.eca import (
    EcaConfig,
    oriented_series,
    as_boolean_network,
    eca_step,
    rule_table,
    run_eca,
    run_eca_many,
)
from infodyn.measures import series_matrix_measures
from infodyn.rbn import rbn_step
from infodyn.trajectory import Trajectory


def naive_step(state, rule_number):
    """Independent reference: dict lookup per cell, periodic ring."""
    outputs = {k: (rule_number >> k) & 1 for k in range(8)}
    n = len(state)
    nxt = []
    for i in range(n):
        key = 4 * state[(i - 1) % n] + 2 * state[i] + state[(i + 1) % n]
        nxt.append(outputs[key])
    return np.array(nxt, dtype=np.uint8)


class TestRuleTable:
    def test_rule_zero(self):
        assert not rule_table(0).any()

    def test_rule_204_is_identity(self):
        rule = rule_table(204)
        for k in range(8):
            center = (k >> 1) & 1
            assert rule[k] == center

    def test_rule_110_table(self):
        expected = {7: 0, 6: 1, 5: 1, 4: 0, 3: 1, 2: 1, 1: 1, 0: 0}
        table = rule_table(110)
        assert {k: int(table[k]) for k in range(8)} == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rule_table(256)
        with pytest.raises(ValueError):
            rule_table(-1)

    def test_table_must_match_number(self):
        # the table is derived from the number: its bits read back the rule
        for number in range(256):
            table = rule_table(number)
            assert table.dtype == np.uint8 and table.shape == (8,)
            assert sum(int(bit) << k for k, bit in enumerate(table)) == number


class TestStep:
    def test_rule_110_hand_case(self):
        state = np.array([0, 0, 1, 0, 0], dtype=np.uint8)
        assert list(eca_step(state, rule_table(110))) == [0, 1, 1, 0, 0]

    def test_rule_204_fixes_any_state(self):
        rng = np.random.default_rng(3)
        state = rng.integers(0, 2, size=33, dtype=np.uint8)
        assert np.array_equal(eca_step(state, rule_table(204)), state)

    def test_rule_0_kills_any_state_in_one_step(self):
        rng = np.random.default_rng(5)
        state = rng.integers(0, 2, size=40, dtype=np.uint8)
        assert not eca_step(state, rule_table(0)).any()

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            rule = int(rng.integers(0, 256))
            n = int(rng.integers(3, 40))
            state = rng.integers(0, 2, size=n, dtype=np.uint8)
            assert np.array_equal(
                eca_step(state, rule_table(rule)), naive_step(state, rule)
            )

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(11)
        rule = rule_table(110)
        state = rng.integers(0, 2, size=50, dtype=np.uint8)
        for r in (1, 7, 25):
            rotated = np.roll(state, r)
            a, b = state.copy(), rotated.copy()
            for _ in range(20):
                a = eca_step(a, rule)
                b = eca_step(b, rule)
                assert np.array_equal(np.roll(a, r), b)


    @pytest.mark.parametrize("bad", [256, 2, -1, 0.5])
    def test_non_bit_state_rejected_before_the_uint8_cast(self, bad):
        # a cast first would step 256 as 0 and 0.5 as 0
        with pytest.raises(ValueError, match="state must be binary"):
            eca_step(np.array([bad, 1, 0]), rule_table(30))


class TestRun:
    def test_deterministic_in_seed(self):
        config = EcaConfig(rule=30, n=64, transient=16, window=32, seed=9)
        assert np.array_equal(run_eca(config).states, run_eca(config).states)

    def test_single_cell_init_is_centered(self):
        config = EcaConfig(
            rule=110, n=31, init="single_cell", transient=0, window=4, seed=0
        )
        first = run_eca(config).states[0]
        assert first.sum() == 1
        assert first[31 // 2] == 1

    def test_rule_zero_records_all_zero(self):
        config = EcaConfig(rule=0, n=16, transient=1, window=8, seed=4)
        assert not run_eca(config).states.any()

    def test_recording_follows_dynamics(self):
        config = EcaConfig(rule=110, n=24, transient=3, window=16, seed=21)
        traj = run_eca(config)
        for t in range(traj.window - 1):
            assert np.array_equal(
                eca_step(traj.states[t], rule_table(config.rule)), traj.states[t + 1]
            )

    def test_run_many_equals_individual_runs(self, monkeypatch):
        # batches of two, so the seeds span three batches, the last one short
        monkeypatch.setattr(eca, "_BATCH", 2)
        config = EcaConfig(rule=30, n=32, transient=8, window=16, seed=0)
        seeds = [5, 6, 7, 8, 9]
        batched = run_eca_many(config, seeds)
        for seed, traj in zip(seeds, batched):
            single = run_eca(EcaConfig(rule=30, n=32, transient=8, window=16, seed=seed))
            assert np.array_equal(traj.states, single.states)

    @settings(max_examples=60, deadline=None)
    @given(
        rule=st.integers(0, 255),
        n=st.integers(3, 70),
        first_seed=st.integers(0, 2**32),
        count=st.integers(1, 130),
        transient=st.integers(0, 4),
        window=st.integers(2, 6),
        init=st.sampled_from(["random", "single_cell"]),
    )
    def test_run_many_equals_iterated_eca_step(
        self, rule, n, first_seed, count, transient, window, init
    ):
        # up to 130 seeds cross the 64-instance word; odd and tiny rings included
        config = EcaConfig(rule=rule, n=n, init=init, transient=transient, window=window)
        seeds = range(first_seed, first_seed + count)
        table = rule_table(rule)
        for seed, traj in zip(seeds, run_eca_many(config, seeds), strict=True):
            if init == "random":
                state = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
            else:
                state = np.zeros(n, dtype=np.uint8)
                state[n // 2] = 1
            for _ in range(transient):
                state = eca_step(state, table)
            expected = []
            for _ in range(window):
                expected.append(state)
                state = eca_step(state, table)
            assert traj.transient_length == transient
            assert np.array_equal(traj.states, np.array(expected))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EcaConfig(rule=30, n=2)
        with pytest.raises(ValueError):
            EcaConfig(rule=30, init="bogus")
        with pytest.raises(ValueError, match="rule must be in 0..255"):
            EcaConfig(rule=300)
        assert EcaConfig(rule=np.uint8(30)).rule == 30

    def test_record_budget_rejected_with_estimate(self):
        # a stack of up to 8 instances records one byte per cell per step
        with pytest.raises(ValueError, match=r"needs 1,024,000,000,000,000 bytes, over the"):
            EcaConfig(rule=30, n=10**12)
        with pytest.raises(ValueError, match=r"3,000,000,000 steps of 256 bytes"):
            EcaConfig(rule=30, transient=0, window=3 * 10**9)

    def test_a_one_byte_block_at_the_budget_is_accepted(self):
        # 256 cells x 2^20 steps is the 256 MiB limit exactly
        EcaConfig(rule=30, n=256, window=2**20)

    @pytest.mark.parametrize("count, dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16),
                                              (16, np.uint16), (17, np.uint32), (33, np.uint64),
                                              (64, np.uint64)])
    def test_a_stack_packs_into_the_narrowest_word(self, count, dtype):
        states = np.random.default_rng(count).integers(0, 2, (count, 11), dtype=np.uint8)
        words = eca._pack(states)
        assert words.dtype == dtype
        bits = (words[None, :] >> np.arange(count, dtype=dtype)[:, None]) & 1
        assert np.array_equal(bits, states)

    def test_stacks_fit_the_record_budget(self, monkeypatch):
        # 30 cells * 40 steps = 1,200 bytes a word byte: 2-byte words fit in
        # 2,500, so stacks of 16 instances
        monkeypatch.setattr(eca, "_RECORD_BUDGET", 2500)
        record, blocks = eca._record_runs, []

        def spy(seeds, batch, start, transient, window):
            def sized_start(chunk):
                words, step, unstack = start(chunk)
                blocks.append((len(chunk), words.nbytes * window))
                return words, step, unstack
            return record(seeds, batch, sized_start, transient, window)

        monkeypatch.setattr(eca, "_record_runs", spy)
        config = EcaConfig(rule=110, n=30, transient=20, window=40, seed=0)
        seeds = range(100, 140)
        batched = run_eca_many(config, seeds)
        assert blocks == [(16, 2400), (16, 2400), (8, 1200)]
        for seed, traj in zip(seeds, batched):
            assert np.array_equal(traj.states, run_eca(EcaConfig(rule=110, n=30, transient=20,
                                                                 window=40, seed=seed)).states)


class TestStackStep:
    def test_the_normal_form_step_equals_eca_step_on_every_rule(self):
        # 64 instances in uint64 words, and 5 in one byte whose high bits
        # step as instances of their own
        rng = np.random.default_rng(20)
        for rule in range(256):
            table = rule_table(rule)
            for count in (64, 5):
                states = rng.integers(0, 2, (count, 11), dtype=np.uint8)
                words = eca._pack(states)
                step = eca._sliced_step(rule, words)
                for _ in range(2):
                    words = step(words)
                    states = np.array([eca_step(state, table) for state in states])
                    bits = (words[None, :] >> np.arange(count, dtype=words.dtype)[:, None]) & 1
                    assert np.array_equal(bits, states), rule

    @pytest.mark.parametrize("transient, window", [(0, 2), (0, 40), (3, 9), (25, 30), (60, 7)])
    def test_a_stack_that_cycles_records_what_naive_stepping_does(self, transient, window):
        # every rule on rings of 3..9 cells: a stack cycles in the transient,
        # at the window's edges, mid-window or not at all.  The reference
        # steps every rule's instances at once by a table lookup, with no
        # cycle check
        tables = np.array([rule_table(rule) for rule in range(256)])[:, None, :, None]
        for n in range(3, 10):
            seeds = list(range(n * 1000, n * 1000 + 5))
            state = np.array([np.random.default_rng(s).integers(0, 2, n, dtype=np.uint8)
                              for s in seeds])
            state = np.broadcast_to(state, (256, 5, n))
            expected = np.empty((256, 5, n, window), dtype=np.uint8)
            for t in range(transient + window):
                if t >= transient:
                    expected[..., t - transient] = state
                index = (np.roll(state, 1, axis=2) << 2) | (state << 1) | np.roll(state, -1, axis=2)
                state = np.take_along_axis(tables, index[:, :, None, :], axis=2)[:, :, 0, :]
            for rule in range(256):
                config = EcaConfig(rule=rule, n=n, transient=transient, window=window)
                for one, traj in zip(expected[rule], run_eca_many(config, seeds), strict=True):
                    assert np.array_equal(traj.series, one), (rule, n)

    def test_a_stack_that_settles_stops_stepping(self, monkeypatch):
        # rule 0 empties the ring at step 1, and step 2 repeats step 1
        sliced, calls = eca._sliced_step, []

        def counted(rule, words):
            step = sliced(rule, words)
            return lambda state: calls.append(None) or step(state)

        monkeypatch.setattr(eca, "_sliced_step", counted)
        config = EcaConfig(rule=0, n=256, transient=1024, window=1024)
        (traj,) = run_eca_many(config, [7])
        assert len(calls) <= 8
        assert not traj.series.any() and traj.window == 1024


class TestSeries:
    def test_vertical_series_length(self):
        traj = run_eca(EcaConfig(rule=30, n=16, transient=0, window=24, seed=1))
        series = oriented_series(traj, "vertical")
        assert series.shape == (16, 24)
        assert np.array_equal(series[5], traj.states[:, 5])

    def test_vertical_series_is_the_recorded_series(self):
        # unstacking emits each instance series-major, so the vertical
        # read-out is the stored matrix itself, not a transposed copy
        trajs = run_eca_many(EcaConfig(rule=110, n=9, transient=3, window=20), range(10))
        for traj in trajs:
            assert oriented_series(traj, "vertical") is traj.series
            assert traj.series.flags.c_contiguous

    def test_horizontal_series_is_a_row(self):
        traj = run_eca(EcaConfig(rule=30, n=16, transient=0, window=24, seed=1))
        series = oriented_series(traj, "horizontal")
        assert series.shape == (24, 16)
        assert np.array_equal(series[3], traj.states[3, :])

    def test_diagonal_tracks_drifting_pattern(self):
        # rule 2 shifts a lone cell one position left per step
        config = EcaConfig(
            rule=2, n=21, init="single_cell", transient=0, window=21, seed=0
        )
        traj = run_eca(config)
        center = 21 // 2
        diagonal = oriented_series(traj, "diagonal")[center]
        assert diagonal.all()  # constant 1 along the drift
        vertical = oriented_series(traj, "vertical")[center]
        assert not vertical.all()

    @pytest.mark.parametrize("n, window, block", [
        (257, 3 * (2**20 // 257) + 17, 2**20),  # 4 column blocks, the last 17 wide
        (7, 40, 64),  # 9-column blocks, the last 4 wide
        (67, 5, 64),  # one-column blocks of 64 cells, then of 3
    ])
    def test_diagonal_matches_its_definition_across_blocks(self, monkeypatch, n, window, block):
        monkeypatch.setattr(eca, "_BLOCK_BITS", block)
        series = np.random.default_rng(n).integers(0, 2, (n, window), dtype=np.uint8)
        expected = np.fromfunction(lambda u, t: series[(u - t) % n, t], (n, window), dtype=int)
        assert np.array_equal(oriented_series(Trajectory(series.T), "diagonal"), expected)


class TestMeasures:
    def test_rule_zero_fixed_point_measures(self):
        traj = run_eca(EcaConfig(rule=0, n=32, transient=4, window=64, seed=13))
        for scale in (1, 2, 4, 8):
            ms = series_matrix_measures(traj.series, [scale])[scale]
            assert (ms.emergence, ms.complexity) == (0.0, 0.0)
            assert (ms.self_organization, ms.homeostasis) == (1.0, 1.0)

    def test_rule_51_complements_every_step(self):
        traj = run_eca(EcaConfig(rule=51, n=32, transient=4, window=64, seed=13))
        assert np.array_equal(traj.states[1], 1 - traj.states[0])
        assert series_matrix_measures(traj.series, [1])[1].homeostasis == 0.0

    def test_rule_204_freezes(self):
        traj = run_eca(EcaConfig(rule=204, n=32, transient=0, window=16, seed=2))
        assert series_matrix_measures(traj.series, [1])[1].homeostasis == 1.0

    def test_rule_1_scale_transition_small(self):
        traj = run_eca(EcaConfig(rule=1, n=64, transient=256, window=256, seed=3))
        assert series_matrix_measures(traj.series, [1])[1].emergence > 0.5
        for scale in (2, 4, 8):
            ms = series_matrix_measures(traj.series, [scale])[scale]
            assert ms.emergence == 0.0
            assert ms.self_organization == 1.0
            assert ms.homeostasis == 1.0

    def test_rule_30_high_emergence(self):
        traj = run_eca(EcaConfig(rule=30, n=64, transient=256, window=1024, seed=8))
        assert series_matrix_measures(traj.series, [1])[1].emergence >= 0.95

    def test_window_too_short(self):
        traj = run_eca(EcaConfig(rule=30, n=16, transient=0, window=8, seed=1))
        assert series_matrix_measures(traj.series, [8])[8] is None


class TestRbnEquivalence:
    @pytest.mark.parametrize("rule", [0, 1, 30, 110, 204])
    def test_engines_agree(self, rule):
        rng = np.random.default_rng(rule + 1)
        for n in (3, 7, 12):
            state = rng.integers(0, 2, size=n, dtype=np.uint8)
            net = as_boolean_network(rule, n, state)
            eca_state = state.copy()
            rbn_state = state.copy()
            table = rule_table(rule)
            for _ in range(50):
                eca_state = eca_step(eca_state, table)
                rbn_state = rbn_step(net, rbn_state)
                assert np.array_equal(eca_state, rbn_state)
