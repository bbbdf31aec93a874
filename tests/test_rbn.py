from dataclasses import replace

import numpy as np
import pytest

from infodyn import rbn
from infodyn.measures import shannon_information
from infodyn.rbn import (
    BooleanNetwork,
    RbnConfig,
    generate_rbn,
    network_measures,
    parse_network,
    rbn_step,
    run_rbn,
    run_rbn_many,
    serialize_network,
)
from infodyn.trajectory import Trajectory, node_series


def naive_step(net, state):
    """Independent reference: per-node lookup, first input = MSB."""
    nxt = np.zeros(net.n, dtype=np.uint8)
    for i in range(net.n):
        idx = 0
        for src in net.inputs[i]:
            idx = (idx << 1) | int(state[src])
        nxt[i] = net.tables[i][idx]
    return nxt


def swap_network():
    """Two nodes that copy each other's bit."""
    return BooleanNetwork(
        2,
        inputs=[np.array([1]), np.array([0])],
        tables=[np.array([0, 1], dtype=np.uint8)] * 2,
        state=np.array([0, 1], dtype=np.uint8),
    )


class TestGeneration:
    def test_same_seed_same_network(self):
        config = RbnConfig(n=100, k=2, transient=10, window=10, seed=7)
        a = generate_rbn(config, np.random.default_rng(7))
        b = generate_rbn(config, np.random.default_rng(7))
        assert np.array_equal(a.state, b.state)
        for i in range(config.n):
            assert np.array_equal(a.inputs[i], b.inputs[i])
            assert np.array_equal(a.tables[i], b.tables[i])

    def test_zero_k_gives_single_entry_tables(self):
        config = RbnConfig(n=10, k=0, transient=1, window=4, seed=1)
        net = generate_rbn(config, np.random.default_rng(1))
        assert all(src.size == 0 for src in net.inputs)
        assert all(tab.size == 1 for tab in net.tables)

    def test_fractional_k_mean_in_degree(self):
        rng = np.random.default_rng(123)
        config = RbnConfig(n=100, k=2.5, transient=1, window=2, seed=0)
        degrees = []
        for _ in range(1000):
            net = generate_rbn(config, rng)
            degrees.extend(src.size for src in net.inputs)
        assert np.mean(degrees) == pytest.approx(2.5, abs=0.05)

    def test_no_duplicate_inputs(self):
        rng = np.random.default_rng(3)
        config = RbnConfig(n=20, k=5, transient=1, window=2, seed=0)
        for _ in range(50):
            net = generate_rbn(config, rng)
            for src in net.inputs:
                assert np.unique(src).size == src.size

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError, match="k must not exceed n"):
            RbnConfig(n=5, k=6, transient=1, window=2, seed=0)

    def test_table_budget_rejected_with_estimate(self):
        # 100 nodes with 2^35 table entries each: refused before any table exists
        with pytest.raises(ValueError, match=r"= 3,435,973,836,800 bytes"):
            RbnConfig(n=100, k=35)
        with pytest.raises(ValueError, match="lookup tables"):
            RbnConfig(n=100, k=34.5)
        RbnConfig(n=100, k=21)  # 210 MB fits the 256 MiB limit

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RbnConfig(n=0, k=1)
        with pytest.raises(ValueError):
            RbnConfig(n=5, k=-1)
        with pytest.raises(ValueError):
            RbnConfig(n=5, k=1, window=1)


class TestStep:
    def test_two_node_swap(self):
        net = swap_network()
        assert list(rbn_step(net)) == [1, 0]

    def test_swap_is_synchronous_forever(self):
        # a sequential update would collapse the two bits to equal values
        net = swap_network()
        state = net.state.copy()
        for _ in range(10):
            state = rbn_step(net, state)
            assert state[0] != state[1]

    def test_constant_zero_tables(self):
        net = BooleanNetwork(
            3,
            inputs=[np.array([0, 1]), np.array([1, 2]), np.array([2, 0])],
            tables=[np.zeros(4, dtype=np.uint8)] * 3,
            state=np.array([1, 1, 0], dtype=np.uint8),
        )
        assert list(rbn_step(net)) == [0, 0, 0]

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            k = float(rng.uniform(0, min(n, 5)))
            net = generate_rbn(
                RbnConfig(n=n, k=k, transient=1, window=2, seed=0), rng
            )
            state = rng.integers(0, 2, size=n, dtype=np.uint8)
            assert np.array_equal(rbn_step(net, state), naive_step(net, state))

    def test_state_space_revisit_by_pigeonhole(self):
        rng = np.random.default_rng(29)
        net = generate_rbn(RbnConfig(n=8, k=3, transient=1, window=2, seed=0), rng)
        state = net.state.copy()
        seen = {tuple(state)}
        revisited = False
        for _ in range(2**8 + 1):
            state = rbn_step(net, state)
            if tuple(state) in seen:
                revisited = True
                break
            seen.add(tuple(state))
        assert revisited


class TestRun:
    def test_frozen_after_transient_with_zero_k(self):
        traj = run_rbn(RbnConfig(n=10, k=0, transient=1, window=50, seed=5))
        assert np.all(traj.states == traj.states[0])

    def test_same_seed_same_trajectory(self):
        config = RbnConfig(n=50, k=2, transient=100, window=100, seed=11)
        assert np.array_equal(run_rbn(config).states, run_rbn(config).states)

    def test_shape_matches_config(self):
        traj = run_rbn(RbnConfig(n=100, k=2, transient=10, window=1000, seed=1))
        assert traj.states.shape == (1000, 100)

    def test_recording_follows_dynamics(self):
        config = RbnConfig(n=12, k=2, transient=5, window=20, seed=13)
        traj = run_rbn(config)
        net = generate_rbn(config, np.random.default_rng(config.seed))
        for t in range(traj.window - 1):
            assert np.array_equal(
                rbn_step(net, traj.states[t]), traj.states[t + 1]
            )

    def test_run_many_equals_individual_runs(self, monkeypatch):
        # stacks of two, so the seeds span three stacks, the last one short
        monkeypatch.setattr(rbn, "_BATCH", 2)
        config = RbnConfig(n=30, k=2.5, transient=20, window=40, seed=0)
        seeds = [101, 202, 303, 404, 505]
        batched = run_rbn_many(config, seeds)
        for seed, traj in zip(seeds, batched):
            single = run_rbn(
                RbnConfig(n=30, k=2.5, transient=20, window=40, seed=seed)
            )
            assert np.array_equal(traj.states, single.states)

    def test_stacks_fit_the_table_budget(self, monkeypatch):
        # 30 nodes * 2^3 entries = 240 bytes per network: two fit in 500
        monkeypatch.setattr(rbn, "_TABLE_BUDGET", 500)
        lookup, stacks = rbn._lookup, []
        monkeypatch.setattr(rbn, "_lookup", lambda nets: stacks.append(len(nets)) or lookup(nets))
        config = RbnConfig(n=30, k=2.5, transient=20, window=40, seed=0)
        seeds = [101, 202, 303, 404, 505]
        batched = run_rbn_many(config, seeds)
        assert stacks == [2, 2, 1]
        for seed, traj in zip(seeds, batched):
            assert np.array_equal(traj.states, run_rbn(replace(config, seed=seed)).states)


class TestNodeSeries:
    def test_frozen_node_constant(self):
        traj = run_rbn(RbnConfig(n=10, k=0, transient=1, window=32, seed=2))
        series = node_series(traj, 3)
        assert len(series) == 32
        assert shannon_information(series) == 0.0

    def test_oscillator_information_by_scale(self):
        # one node negating itself: period-2 series
        net = BooleanNetwork(
            1,
            inputs=[np.array([0])],
            tables=[np.array([1, 0], dtype=np.uint8)],
            state=np.array([0], dtype=np.uint8),
        )
        state = net.state.copy()
        rows = []
        for _ in range(64):
            rows.append(state.copy())
            state = rbn_step(net, state)
        traj = Trajectory(np.array(rows))
        series = node_series(traj, 0)
        from infodyn.measures import rescale

        assert shannon_information(series) == 1.0
        assert shannon_information(rescale(series, 2)) == 0.0


class TestNetworkMeasures:
    def test_frozen_network_measures(self):
        traj = run_rbn(RbnConfig(n=20, k=0, transient=1, window=64, seed=9))
        for scale in (1, 2, 4, 8):
            ms = network_measures(traj, scale)
            assert ms.emergence == 0.0
            assert ms.self_organization == 1.0
            assert ms.complexity == 0.0
            assert ms.homeostasis == 1.0

    def test_independent_fair_coin_nodes(self):
        # stochastic stand-in: a trajectory of i.i.d. fair bits per node
        rng = np.random.default_rng(41)
        traj = Trajectory(rng.integers(0, 2, size=(1000, 100), dtype=np.uint8))
        # E ~ 1 where the series is long relative to the alphabet; at b=8 the
        # 125 symbols per node undersample the 256-symbol alphabet
        for scale in (1, 2, 4):
            ms = network_measures(traj, scale)
            assert ms.emergence > 0.9
            assert ms.self_organization < 0.1
            assert ms.complexity < 0.3
        for scale, h_tol in ((1, 0.15), (2, 0.12), (4, 0.08), (8, 0.03)):
            ms = network_measures(traj, scale)
            assert abs(ms.homeostasis - 2.0**-scale) < h_tol

    def test_window_too_short(self):
        traj = Trajectory(np.zeros((10, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="window too short"):
            network_measures(traj, 8)


class TestAttractors:
    def test_exhaustive_enumeration_agrees_with_trajectory(self):
        # brute-force successor map via the naive reference stepper
        rng = np.random.default_rng(99)
        config = RbnConfig(n=8, k=2, transient=0, window=2, seed=99)
        net = generate_rbn(config, np.random.default_rng(config.seed))

        def as_int(bits):
            return int("".join(str(int(b)) for b in bits), 2)

        def as_bits(value):
            return np.array([(value >> (7 - j)) & 1 for j in range(8)], dtype=np.uint8)

        successor = {s: as_int(naive_step(net, as_bits(s))) for s in range(256)}

        start = as_int(net.state)
        seen_at = {}
        path = [start]
        while path[-1] not in seen_at:
            seen_at[path[-1]] = len(path) - 1
            path.append(successor[path[-1]])
        cycle = set(path[seen_at[path[-1]] :])

        state = net.state.copy()
        for _ in range(256 + 1):
            state = rbn_step(net, state)
        for _ in range(2 * len(cycle)):
            assert as_int(state) in cycle
            state = rbn_step(net, state)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(55)
        net = generate_rbn(RbnConfig(n=15, k=2.4, transient=1, window=2, seed=0), rng)
        text = serialize_network(net)
        parsed = parse_network(text)
        assert parsed.n == net.n
        for i in range(net.n):
            assert np.array_equal(parsed.inputs[i], net.inputs[i])
            assert np.array_equal(parsed.tables[i], net.tables[i])
        assert not parsed.state.any()  # state is not serialized
        # dynamics agree from a shared state
        probe = rng.integers(0, 2, size=net.n, dtype=np.uint8)
        assert np.array_equal(rbn_step(parsed, probe), rbn_step(net, probe))

    def test_format_shape(self):
        net = BooleanNetwork(
            2,
            inputs=[np.array([1]), np.array([], dtype=np.int64)],
            tables=[np.array([0, 1], dtype=np.uint8), np.array([1], dtype=np.uint8)],
            state=np.zeros(2, dtype=np.uint8),
        )
        text = serialize_network(net)
        assert text.splitlines() == ["rbn n=2", "0: inputs=1 table=01", "1: inputs= table=1"]

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="header"):
            parse_network("bogus")
        with pytest.raises(ValueError, match="malformed"):
            parse_network("rbn n=1\n0: nope")
        with pytest.raises(ValueError, match="cover"):
            parse_network("rbn n=2\n0: inputs= table=1")


class TestNetworkValidation:
    def test_duplicate_input_rejected(self):
        with pytest.raises(ValueError, match="duplicate input"):
            BooleanNetwork(
                2,
                inputs=[np.array([1, 1]), np.array([0])],
                tables=[np.zeros(4, dtype=np.uint8), np.zeros(2, dtype=np.uint8)],
                state=np.zeros(2, dtype=np.uint8),
            )

    def test_table_size_must_match_degree(self):
        with pytest.raises(ValueError, match="table"):
            BooleanNetwork(
                1,
                inputs=[np.array([0])],
                tables=[np.zeros(3, dtype=np.uint8)],
                state=np.zeros(1, dtype=np.uint8),
            )
