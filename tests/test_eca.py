import numpy as np
import pytest

from infodyn import eca
from infodyn.eca import (
    EcaConfig,
    _oriented_series,
    as_boolean_network,
    eca_measures,
    eca_step,
    rule_table,
    run_eca,
    run_eca_many,
)
from infodyn.rbn import rbn_step


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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EcaConfig(rule=30, n=2)
        with pytest.raises(ValueError):
            EcaConfig(rule=30, init="bogus")
        with pytest.raises(ValueError, match="rule out of range"):
            EcaConfig(rule=300)
        assert EcaConfig(rule=np.uint8(30)).rule == 30


class TestSeries:
    def test_vertical_series_length(self):
        traj = run_eca(EcaConfig(rule=30, n=16, transient=0, window=24, seed=1))
        series = _oriented_series(traj, "vertical")
        assert series.shape == (16, 24)
        assert np.array_equal(series[5], traj.states[:, 5])

    def test_horizontal_series_is_a_row(self):
        traj = run_eca(EcaConfig(rule=30, n=16, transient=0, window=24, seed=1))
        series = _oriented_series(traj, "horizontal")
        assert series.shape == (24, 16)
        assert np.array_equal(series[3], traj.states[3, :])

    def test_diagonal_tracks_drifting_pattern(self):
        # rule 2 shifts a lone cell one position left per step
        config = EcaConfig(
            rule=2, n=21, init="single_cell", transient=0, window=21, seed=0
        )
        traj = run_eca(config)
        center = 21 // 2
        diagonal = _oriented_series(traj, "diagonal")[center]
        assert diagonal.all()  # constant 1 along the drift
        vertical = _oriented_series(traj, "vertical")[center]
        assert not vertical.all()


class TestMeasures:
    def test_rule_zero_fixed_point_measures(self):
        traj = run_eca(EcaConfig(rule=0, n=32, transient=4, window=64, seed=13))
        for scale in (1, 2, 4, 8):
            ms = eca_measures(traj, scale)
            assert (ms.emergence, ms.complexity) == (0.0, 0.0)
            assert (ms.self_organization, ms.homeostasis) == (1.0, 1.0)

    def test_rule_51_complements_every_step(self):
        traj = run_eca(EcaConfig(rule=51, n=32, transient=4, window=64, seed=13))
        assert np.array_equal(traj.states[1], 1 - traj.states[0])
        assert eca_measures(traj, 1).homeostasis == 0.0

    def test_rule_204_freezes(self):
        traj = run_eca(EcaConfig(rule=204, n=32, transient=0, window=16, seed=2))
        assert eca_measures(traj, 1).homeostasis == 1.0

    def test_rule_1_scale_transition_small(self):
        traj = run_eca(EcaConfig(rule=1, n=64, transient=256, window=256, seed=3))
        assert eca_measures(traj, 1).emergence > 0.5
        for scale in (2, 4, 8):
            ms = eca_measures(traj, scale)
            assert ms.emergence == 0.0
            assert ms.self_organization == 1.0
            assert ms.homeostasis == 1.0

    def test_rule_30_high_emergence(self):
        traj = run_eca(EcaConfig(rule=30, n=64, transient=256, window=1024, seed=8))
        assert eca_measures(traj, 1).emergence >= 0.95

    def test_window_too_short(self):
        traj = run_eca(EcaConfig(rule=30, n=16, transient=0, window=8, seed=1))
        with pytest.raises(ValueError, match="window too short"):
            eca_measures(traj, 8)


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
