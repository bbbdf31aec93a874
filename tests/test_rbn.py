import inspect
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from infodyn import eca, rbn
from infodyn.experiments import rbn_sweep
from infodyn.measures import (
    SymbolSequence,
    rescale,
    series_matrix_measures,
    shannon_information,
)
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
from infodyn.trajectory import Trajectory, _first_nonbit


def per_node(net):
    """Each node's (inputs, table), split out of the flat arrays."""
    inputs = np.split(net.inputs, np.cumsum(net.degrees)[:-1])
    tables = np.split(net.tables, np.cumsum(1 << net.degrees)[:-1])
    return list(zip(inputs, tables))


def parts(net):
    """A network's arrays, as a stack takes them."""
    return net.degrees, net.inputs, net.tables, net.state


def stacked(nets):
    """One network of the given ones side by side, each one's inputs offset by
    the nodes before it."""
    first = np.cumsum([0] + [net.n for net in nets[:-1]])
    return BooleanNetwork(np.concatenate([net.degrees for net in nets]),
                          np.concatenate([net.inputs + f for net, f in zip(nets, first)]),
                          np.concatenate([net.tables for net in nets]),
                          np.concatenate([net.state for net in nets]))


def draws(monkeypatch):
    """The number of generators of each rbn._draw call, as it is made."""
    draw, counts = rbn._draw, []
    monkeypatch.setattr(rbn, "_draw",
                        lambda config, rngs: counts.append(len(rngs)) or draw(config, rngs))
    return counts


def network(inputs, tables, state):
    """A network from per-node input lists and tables."""
    return BooleanNetwork(
        [len(src) for src in inputs],
        np.concatenate([np.asarray(src, dtype=np.int64) for src in inputs]),
        np.concatenate([np.asarray(tab, dtype=np.uint8) for tab in tables]),
        state,
    )


def naive_step(net, state):
    """Independent reference: per-node lookup, first input = MSB."""
    nxt = np.zeros(net.n, dtype=np.uint8)
    for i, (srcs, table) in enumerate(per_node(net)):
        idx = 0
        for src in srcs:
            idx = (idx << 1) | int(state[src])
        nxt[i] = table[idx]
    return nxt


def swap_network():
    """Two nodes that copy each other's bit."""
    return network(
        inputs=[[1], [0]],
        tables=[[0, 1]] * 2,
        state=np.array([0, 1], dtype=np.uint8),
    )


class TestGeneration:
    def test_same_seed_same_network(self):
        config = RbnConfig(n=100, k=2, transient=10, window=10, seed=7)
        a = generate_rbn(config, np.random.default_rng(7))
        b = generate_rbn(config, np.random.default_rng(7))
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.degrees, b.degrees)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.tables, b.tables)

    def test_zero_k_gives_single_entry_tables(self):
        config = RbnConfig(n=10, k=0, transient=1, window=4, seed=1)
        net = generate_rbn(config, np.random.default_rng(1))
        assert not net.degrees.any() and net.inputs.size == 0
        assert net.tables.size == 10

    def test_fractional_k_mean_in_degree(self):
        rng = np.random.default_rng(123)
        config = RbnConfig(n=100, k=2.5, transient=1, window=2, seed=0)
        degrees = []
        for _ in range(1000):
            net = generate_rbn(config, rng)
            degrees.extend(src.size for src, _ in per_node(net))
        assert np.mean(degrees) == pytest.approx(2.5, abs=0.05)
        assert set(degrees) == {2, 3}

    def test_no_duplicate_inputs(self):
        rng = np.random.default_rng(3)
        for n, k in ((20, 5), (5, 5), (6, 4.5), (1, 1)):
            config = RbnConfig(n=n, k=k, transient=1, window=2, seed=0)
            for _ in range(50):
                for src, _ in per_node(generate_rbn(config, rng)):
                    assert np.unique(src).size == src.size
                    assert src.min(initial=0) >= 0 and src.max(initial=0) < n

    def test_inputs_are_uniform_over_nodes(self):
        # each of the n nodes is an input of the same expected number of nodes
        rng = np.random.default_rng(8)
        config = RbnConfig(n=10, k=2.6, transient=1, window=2, seed=0)
        counts = np.zeros(10, dtype=np.int64)
        for _ in range(2000):
            counts += np.bincount(generate_rbn(config, rng).inputs, minlength=10)
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_input_subsets_are_uniform(self):
        # at n=4, k=2 each node's inputs are one of the C(4,2) = 6 subsets
        rng = np.random.default_rng(9)
        config = RbnConfig(n=4, k=2, transient=1, window=2, seed=0)
        pairs = np.concatenate(
            [generate_rbn(config, rng).inputs.reshape(4, 2) for _ in range(3000)]
        )
        pairs.sort(axis=1)
        codes = pairs[:, 0] * 4 + pairs[:, 1]
        counts = np.array([np.sum(codes == a * 4 + b) for a in range(4) for b in range(a + 1, 4)])
        assert counts.sum() == codes.size
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_table_entries_are_fair(self):
        rng = np.random.default_rng(10)
        config = RbnConfig(n=50, k=3.5, transient=1, window=2, seed=0)
        tables = np.concatenate([generate_rbn(config, rng).tables for _ in range(200)])
        ones = int(tables.sum())
        assert stats.binomtest(ones, tables.size).pvalue > 1e-3
        # each position of a table is fair too, not only the total
        table = np.concatenate(
            [t for _ in range(200) for _, t in per_node(generate_rbn(config, rng))
             if t.size == 16]
        ).reshape(-1, 16)
        assert stats.chisquare(table.sum(axis=0)).pvalue > 1e-3

    def test_memory_grows_linearly_with_n(self):
        # Floyd's sampling needs O(n * ceil(k)); a quadratic draw would give 16x
        def peak(n):
            config = RbnConfig(n=n, k=3, transient=1, window=2, seed=0)
            tracemalloc.start()
            try:
                generate_rbn(config, np.random.default_rng(0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-call allocations are not the generator's
        small, large = peak(1000), peak(4000)
        assert large < 6 * small

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError, match="k must not exceed n"):
            RbnConfig(n=5, k=6, transient=1, window=2, seed=0)

    def test_nan_k_rejected_before_the_table_estimate(self):
        with pytest.raises(ValueError, match=r"k must be >= 0 \(got nan\)"):
            RbnConfig(n=5, k=float("nan"))

    def test_table_budget_rejected_with_estimate(self):
        # 100 nodes with 2^35 table entries each: refused before any table exists
        with pytest.raises(ValueError, match=r"= 3,435,973,836,800 bytes"):
            RbnConfig(n=100, k=35)
        with pytest.raises(ValueError, match="lookup tables"):
            RbnConfig(n=100, k=34.5)
        RbnConfig(n=100, k=21)  # 210 MB fits the 256 MiB limit

    def test_record_budget_rejected_with_estimate(self):
        # n * window bytes recorded per network: refused before anything runs
        with pytest.raises(ValueError, match=r"needs 100,000,000,000,000,000 bytes, over the"):
            RbnConfig(n=100, k=2, window=10**15)
        RbnConfig(n=100, k=2, window=(1 << 28) // 100)  # one network fits the 256 MiB limit

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RbnConfig(n=0, k=1)
        with pytest.raises(ValueError):
            RbnConfig(n=5, k=-1)
        with pytest.raises(ValueError):
            RbnConfig(n=5, k=1, window=1)

    @pytest.mark.parametrize("k", ["2", None, 2 + 0j, b"2"])
    def test_k_must_be_a_real_number(self, k):
        with pytest.raises(ValueError, match=re.escape(f"k must be a number (got {k!r})")):
            RbnConfig(k=k)
        with pytest.raises(ValueError, match=re.escape(f"k must be a number (got {k!r})")):
            rbn_sweep(k_grid=[k], instances=1, transient=0, window=8, scales=(1,))

    @pytest.mark.parametrize("k", [2, True, np.int64(2), np.float32(2.5), Fraction(5, 2)])
    def test_k_is_stored_as_a_float(self, k):
        config = RbnConfig(n=5, k=k)
        assert type(config.k) is float and config.k == float(k)

    def test_negative_zero_k_is_stored_as_zero(self):
        # a -0.0 would be a cell of its own, printed and seeded as k=-0
        k = RbnConfig(n=5, k=-0.0).k
        assert k == 0.0 and math.copysign(1.0, k) == 1.0

    def test_node_arrays_are_refused_with_their_estimate(self):
        # 2^27 nodes of in-degree 1 fit the table and record budgets, but
        # drawing, checking and looking them up would take about 11 GB
        with pytest.raises(ValueError, match=r"134,217,728 nodes of in-degree up to 1 need about"
                                             r" 10,737,418,240 bytes to draw, check and look up"):
            RbnConfig(n=1 << 27, k=1, transient=0, window=2)
        # 2^25 nodes at k = 3, the table budget's limit, also fail it
        with pytest.raises(ValueError, match="to draw, check and look up"):
            RbnConfig(n=1 << 25, k=3, transient=0, window=2)
        RbnConfig(n=100, k=21)  # 839 MB: the table budget's largest network fits

    @pytest.mark.parametrize("k", [0, 1, 2.5, 3, 5, 8])
    def test_node_arrays_peak_within_their_estimate(self, k):
        # the slope of the traced peak between two small runs, per node
        def peak(n):
            tracemalloc.start()
            try:
                run_rbn(RbnConfig(n=n, k=k, transient=0, window=2))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(300)  # first-call allocations are not the run's
        slope = (peak(8000) - peak(2000)) / 6000
        assert rbn._node_bytes(1, k) / 3 < slope <= rbn._node_bytes(1, k)


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

    def test_the_built_update_never_goes_stale(self):
        # the network keeps read-only copies: the caller's arrays may change,
        # the network's may not, so the update it built once stays right
        tables, state = np.array([0, 1, 0, 1], dtype=np.uint8), np.array([0, 1], dtype=np.uint8)
        net = BooleanNetwork([1, 1], [1, 0], tables, state)
        assert list(rbn_step(net)) == [1, 0]
        tables[:], state[:] = 1 - tables, 1 - state
        assert list(rbn_step(net)) == [1, 0]
        for array in (net.degrees, net.inputs, net.tables, net.state):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(AttributeError):
            net.tables = tables

    def test_a_step_does_not_copy_the_kept_input_matrix(self):
        # the matrix is read-only, and take() would copy such an index array on every call
        net = BooleanNetwork(*rbn._draw(RbnConfig(n=100, k=3),
                                        [np.random.default_rng(s) for s in range(128)]))
        step = rbn._lookup(net, 128)()
        state = step(net.state)
        tracemalloc.start()
        try:
            step(state)
            assert tracemalloc.get_traced_memory()[1] < net._columns.nbytes
        finally:
            tracemalloc.stop()

    def test_constant_zero_tables(self):
        net = network(
            inputs=[[0, 1], [1, 2], [2, 0]],
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

    def test_non_binary_state_rejected(self):
        # unchecked, a 2 or -1 either steps wrongly or indexes past the tables
        net = generate_rbn(RbnConfig(n=6, k=2), np.random.default_rng(1))
        for bad in ([2, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 2], [0, 0, -1, 0, 0, 0]):
            with pytest.raises(ValueError, match="state must be binary"):
                rbn_step(net, np.array(bad))

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


@st.composite
def hand_networks(draw):
    """A hand-built network: in-degrees 0..8, self-inputs allowed, any table."""
    n = draw(st.integers(1, 12))
    inputs, tables = [], []
    for _ in range(n):
        d = draw(st.integers(0, min(n, 8)))
        inputs.append(draw(st.permutations(range(n)))[:d])
        bits = draw(st.integers(0, (1 << (1 << d)) - 1))
        tables.append([(bits >> e) & 1 for e in range(1 << d)])
    state = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return network(inputs, tables, np.array(state, dtype=np.uint8))


@st.composite
def wide_networks(draw, n):
    """A hand-built ``n``-node network of in-degrees 0..12, so its index may
    need intp; the tables come from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    inputs = [draw(st.permutations(range(n)))[: draw(st.integers(0, min(n, 12)))]
              for _ in range(n)]
    tables = [rng.integers(0, 2, 1 << len(src), dtype=np.uint8) for src in inputs]
    return network(inputs, tables, rng.integers(0, 2, n, dtype=np.uint8))


class TestLookupOracle:
    """The stacked lookup behind rbn_step and run_rbn_many against naive_step."""

    @settings(max_examples=150, deadline=None)
    @given(nets=st.lists(hand_networks(), min_size=1, max_size=4), steps=st.integers(1, 6))
    def test_stacked_lookup_equals_naive_step(self, nets, steps):
        stack = stacked(nets)
        state = stack.state
        states = [net.state for net in nets]
        for _ in range(steps):
            state = rbn_step(stack, state)
            states = [naive_step(net, s) for net, s in zip(nets, states)]
            assert np.array_equal(state, np.concatenate(states))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_stack_narrowed_by_update_equals_naive_steps(self, data):
        # in-degrees 0..12; the stack is cut to a drawn subset after each round
        n = data.draw(st.integers(1, 14))
        nets = data.draw(st.lists(wide_networks(n), min_size=1, max_size=5))
        for net in nets:
            assert np.array_equal(rbn_step(net), naive_step(net, net.state))
        stack = stacked(nets)
        update, live, state = rbn._lookup(stack, len(nets)), np.arange(len(nets)), stack.state
        states, keep = [net.state for net in nets], None
        for _ in range(data.draw(st.integers(1, 3))):
            if keep is not None:
                live, state = live[keep], state.reshape(-1, n)[keep].ravel()
            step = update(keep)
            for _ in range(data.draw(st.integers(1, 3))):
                state = step(state)
                states = [naive_step(nets[i], states[i]) if i in live else s
                          for i, s in enumerate(states)]
                assert np.array_equal(state, np.concatenate([states[i] for i in live]))
            keep = np.array(sorted(data.draw(st.sets(st.sampled_from(range(live.size)),
                                                     min_size=1))))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 12),
        k=st.floats(0, 6),
        count=st.integers(1, 8),
        transient=st.integers(0, 3),
    )
    def test_run_many_across_stacks_equals_naive_steps(self, n, k, count, transient):
        config = RbnConfig(n=n, k=min(k, n), transient=transient, window=4)
        seeds = list(range(100, 100 + count))
        with mock.patch.object(rbn, "_BATCH", 3):
            trajs = run_rbn_many(config, seeds)
        for seed, traj in zip(seeds, trajs):
            net = generate_rbn(config, np.random.default_rng(seed))
            state = net.state
            for _ in range(transient):
                state = naive_step(net, state)
            for recorded in traj.states:
                assert np.array_equal(recorded, state)
                state = naive_step(net, state)

    @pytest.mark.parametrize("k", [1, 3])
    def test_a_stack_that_cycles_records_what_naive_stepping_does(self, k):
        # small K=1 networks settle within the transient or the window, as a
        # stack of 12; K=3 ones mostly do not
        for n, transient, window in ((4, 0, 40), (6, 5, 30), (9, 40, 12), (12, 3, 64)):
            config = RbnConfig(n=n, k=k, transient=transient, window=window)
            seeds = list(range(n, n + 12))
            for seed, traj in zip(seeds, run_rbn_many(config, seeds), strict=True):
                net = generate_rbn(config, np.random.default_rng(seed))
                state = net.state
                for _ in range(transient):
                    state = rbn_step(net, state)
                for recorded in traj.states:
                    assert np.array_equal(recorded, state)
                    state = rbn_step(net, state)


    def test_each_network_of_a_stack_stops_on_its_own_as_naive_stepping_agrees(self,
                                                                                monkeypatch):
        # K = 1, 2 and 3 stacks of 24 networks whose first repeat lies in the
        # transient, across its edge into the window, inside the window, or
        # past the run; the step is narrowed to the networks still stepped,
        # and some found periods are multiples of the least one
        lookup, narrowed = rbn._lookup, []

        def counted(net, members=1):
            update = lookup(net, members)
            return lambda keep=None: narrowed.append(keep is not None) or update(keep)

        monkeypatch.setattr(rbn, "_lookup", counted)
        kinds, multiples = set(), 0
        for k in (1, 2, 3):
            for n, transient, window in ((5, 0, 40), (8, 6, 30), (10, 20, 24), (12, 3, 64),
                                         (30, 10, 40)):
                config = RbnConfig(n=n, k=k, transient=transient, window=window)
                seeds = list(range(100 * n + k, 100 * n + k + 24))
                ((stack, cycles),) = rbn._rbn_stacks(config, seeds)
                for seed, series, cycle in zip(seeds, stack, cycles, strict=True):
                    net = generate_rbn(config, np.random.default_rng(seed))
                    states = [net.state]
                    for _ in range(transient + window - 1):
                        states.append(rbn_step(net, states[-1]))
                    assert np.array_equal(series, np.array(states[transient:]).T)
                    seen, first = {}, None  # the first repeat: step `first` repeats step `tail`
                    for t, state in enumerate(states):
                        if state.tobytes() in seen:
                            tail, first = seen[state.tobytes()], t
                            break
                        seen[state.tobytes()] = t
                    if first is None:
                        kinds.add("never")
                        assert cycle is None
                        continue
                    least = first - tail
                    kinds.add("transient" if first <= transient else
                              "edge" if tail < transient else "window")
                    if cycle is not None:
                        begin, period = cycle
                        assert period % least == 0 and begin >= tail - transient
                        assert np.array_equal(series[:, begin + period :],
                                              series[:, begin : window - period])
                        multiples += period > least
        assert kinds == {"transient", "edge", "window", "never"}
        assert multiples and any(narrowed)


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
        stacks = draws(monkeypatch)
        config = RbnConfig(n=30, k=2.5, transient=20, window=40, seed=0)
        seeds = [101, 202, 303, 404, 505]
        batched = run_rbn_many(config, seeds)
        assert stacks == [2, 2, 1]
        for seed, traj in zip(seeds, batched):
            assert np.array_equal(traj.states, run_rbn(replace(config, seed=seed)).states)


    @pytest.mark.parametrize("window, stacks", [(512, [128, 2]), (1000, [128, 2])])
    def test_desk_and_paper_networks_stack_128(self, monkeypatch, window, stacks):
        seen = draws(monkeypatch)
        run_rbn_many(RbnConfig(n=100, k=2.6, transient=0, window=window), range(130))
        assert seen == stacks

    def test_stacks_fit_the_record_budget(self, monkeypatch):
        # 30 nodes * 40 steps = 1,200 bytes recorded per network: two fit in 2,500
        monkeypatch.setattr(rbn, "_RECORD_BUDGET", 2500)
        stacks = draws(monkeypatch)
        config = RbnConfig(n=30, k=2.5, transient=20, window=40, seed=0)
        seeds = [101, 202, 303, 404, 505]
        batched = run_rbn_many(config, seeds)
        assert stacks == [2, 2, 1]
        for seed, traj in zip(seeds, batched):
            assert np.array_equal(traj.states, run_rbn(replace(config, seed=seed)).states)

    def test_stacks_fit_the_node_budget(self, monkeypatch):
        # 30 nodes at k = 2.5 are estimated at 30 * (48 + 72 + 32) = 4,560 bytes
        monkeypatch.setattr(rbn, "_NODE_BUDGET", 3 * 4560 - 1)
        stacks = draws(monkeypatch)
        config = RbnConfig(n=30, k=2.5, transient=20, window=40, seed=0)
        seeds = [101, 202, 303, 404, 505]
        batched = run_rbn_many(config, seeds)
        assert stacks == [2, 2, 1]
        for seed, traj in zip(seeds, batched):
            assert np.array_equal(traj.states, run_rbn(replace(config, seed=seed)).states)

    def test_a_wide_node_steps_from_its_own_table(self):
        # one degree-20 node among 4,999 of degree 1: tables padded to its
        # width would take 5,000 * 2^20 bytes (5.2 GB)
        n, rng = 5000, np.random.default_rng(20)
        inputs = [np.arange(20)] + [np.array([i]) for i in range(1, n)]
        tables = [rng.integers(0, 2, 1 << 20, dtype=np.uint8)] + [np.array([1, 0])] * (n - 1)
        net = network(inputs, tables, rng.integers(0, 2, n, dtype=np.uint8))
        tracemalloc.start()
        try:
            state = rbn_step(net)  # builds the lookup, then steps
            assert tracemalloc.get_traced_memory()[1] < 2 << 20
        finally:
            tracemalloc.stop()
        assert np.array_equal(state, naive_step(net, net.state))


class TestStack:
    """A stack of networks is one checked block-diagonal network."""

    def test_a_sweep_builds_one_network_per_stack(self, monkeypatch):
        built, check = [], BooleanNetwork.__post_init__
        monkeypatch.setattr(BooleanNetwork, "__post_init__",
                            lambda net: built.append(np.size(net.degrees)) or check(net))
        rbn_sweep(n=6, k_grid=[2.0], instances=130, transient=2, window=8, scales=(1,))
        assert built == [128 * 6, 2 * 6]

    @pytest.mark.parametrize("n, k", [
        (n, k) for n in (1, 2, 100) for k in (0, 0.5, 1, 2.6, 5) if k <= n
    ])
    def test_block_j_of_a_stack_is_network_j(self, monkeypatch, n, k):
        # k = 0.5 draws tables as rows of one entry, a node of in-degree 1 taking two
        draw, stacks = rbn._draw, []
        monkeypatch.setattr(rbn, "_draw",
                            lambda config, rngs: stacks.append(draw(config, rngs)) or stacks[-1])
        config = RbnConfig(n=n, k=k, transient=0, window=2)
        seeds = [7, 0, 2**64 - 1, 7, 12345]
        run_rbn_many(config, seeds)
        (drawn,) = stacks
        net = BooleanNetwork(*drawn)
        at_input = np.concatenate([[0], np.cumsum(net.degrees)])
        at_table = np.concatenate([[0], np.cumsum(np.int64(1) << net.degrees)])
        for j, seed in enumerate(seeds):
            one = generate_rbn(config, np.random.default_rng(seed))
            first, end = j * n, (j + 1) * n
            inputs = net.inputs[at_input[first] : at_input[end]]
            assert ((first <= inputs) & (inputs < end)).all()
            block = (net.degrees[first:end], inputs - first,
                     net.tables[at_table[first] : at_table[end]], net.state[first:end])
            for got, want in zip(block, parts(one), strict=True):
                assert got.dtype == want.dtype and np.array_equal(got, want)


class TestNodeSeries:
    def test_frozen_node_constant(self):
        traj = run_rbn(RbnConfig(n=10, k=0, transient=1, window=32, seed=2))
        series = SymbolSequence(traj.states[:, 3], 1)
        assert len(series) == 32
        assert shannon_information(series) == 0.0

    def test_oscillator_information_by_scale(self):
        # one node negating itself: period-2 series
        net = network(inputs=[[0]], tables=[[1, 0]], state=np.array([0], dtype=np.uint8))
        state = net.state.copy()
        rows = []
        for _ in range(64):
            rows.append(state.copy())
            state = rbn_step(net, state)
        traj = Trajectory(np.array(rows))
        series = SymbolSequence(traj.states[:, 0], 1)
        assert shannon_information(series) == 1.0
        assert shannon_information(rescale(series, 2)) == 0.0


class TestNetworkMeasures:
    def test_frozen_network_measures(self):
        traj = run_rbn(RbnConfig(n=20, k=0, transient=1, window=64, seed=9))
        for scale in (1, 2, 4, 8):
            ms = series_matrix_measures(traj.series, [scale])[scale]
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
            ms = series_matrix_measures(traj.series, [scale])[scale]
            assert ms.emergence > 0.9
            assert ms.self_organization < 0.1
            assert ms.complexity < 0.3
        for scale, h_tol in ((1, 0.15), (2, 0.12), (4, 0.08), (8, 0.03)):
            ms = series_matrix_measures(traj.series, [scale])[scale]
            assert abs(ms.homeostasis - 2.0**-scale) < h_tol

    def test_window_too_short(self):
        traj = Trajectory(np.zeros((10, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="window too short"):
            network_measures(traj, 8)

    def test_measures_read_the_recorded_series_in_place(self, monkeypatch):
        trajs = run_rbn_many(RbnConfig(n=8, k=2, transient=4, window=32), [1, 2, 3])
        seen = []
        measure = rbn.series_matrix_measures
        monkeypatch.setattr(rbn, "series_matrix_measures",
                            lambda s, scales, **kw: seen.append(s) or measure(s, scales, **kw))
        for traj in trajs:
            assert traj.series.flags.c_contiguous
            network_measures(traj, 2)
        assert all(s is traj.series for s, traj in zip(seen, trajs))

    def test_the_replica_adapter_is_one_function_of_traj_and_scale(self):
        assert eca.eca_measures is network_measures
        assert list(inspect.signature(network_measures).parameters) == ["traj", "scale"]
        assert "network_measures" not in rbn.__all__ and "eca_measures" not in eca.__all__


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
        assert np.array_equal(parsed.degrees, net.degrees)
        assert np.array_equal(parsed.inputs, net.inputs)
        assert np.array_equal(parsed.tables, net.tables)
        assert serialize_network(parsed) == text
        assert not parsed.state.any()  # state is not serialized
        # dynamics agree from a shared state
        probe = rng.integers(0, 2, size=net.n, dtype=np.uint8)
        assert np.array_equal(rbn_step(parsed, probe), rbn_step(net, probe))

    def test_format_shape(self):
        net = network(inputs=[[1], []], tables=[[0, 1], [1]], state=np.zeros(2, dtype=np.uint8))
        text = serialize_network(net)
        assert text.splitlines() == ["rbn n=2", "0: inputs=1 table=01", "1: inputs= table=1"]
        wide = network(
            inputs=[[], [11, 0, 3]] + [[i] for i in range(2, 12)],
            tables=[[0], [1, 0, 0, 1, 1, 1, 0, 1]] + [[1, 0]] * 10,
            state=np.zeros(12, dtype=np.uint8),
        )
        assert serialize_network(wide).splitlines()[:4] == [
            "rbn n=12", "0: inputs= table=0", "1: inputs=11,0,3 table=10011101",
            "2: inputs=2 table=10",
        ]

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="header"):
            parse_network("bogus")
        with pytest.raises(ValueError, match="malformed"):
            parse_network("rbn n=1\n0: nope")
        for inputs in ("1,", "1,,0", ",1"):  # an empty entry is no input index
            with pytest.raises(ValueError, match="malformed node line"):
                parse_network(f"rbn n=2\n0: inputs={inputs} table=0110\n1: inputs= table=1")
        with pytest.raises(ValueError, match="cover"):
            parse_network("rbn n=2\n0: inputs= table=1")
        with pytest.raises(ValueError, match="node 1: table must have 2"):
            parse_network("rbn n=2\n0: inputs= table=1\n1: inputs=0 table=1")

    @pytest.mark.parametrize("header", ["rbn n=abc", "rbn n=", "rbn n=1.5", "rbn n=" + "9" * 5000])
    def test_a_header_without_a_count_is_missing(self, header):
        with pytest.raises(ValueError, match=re.escape("missing 'rbn n=<N>' header")):
            parse_network(f"{header}\n0: inputs= table=0\n")

    def test_node_lines_are_counted_before_n_is_believed(self):
        # a one-line text claiming 10^6 nodes is refused in constant memory,
        # not after building a 36 MB list of them
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cover 0..n-1 exactly once"):
                parse_network("rbn n=1000000\n0: inputs= table=0\n")
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()


TABLES = "tables must have 2^in-degree entries per node"


def flat_check(degrees, inputs, tables, state):
    """The flat check the padded one replaced, as a reference: one owner per
    input and one lexsort of (owner, input).  The first refusal's message, or None."""
    degrees, inputs = np.asarray(degrees).ravel(), np.asarray(inputs).ravel()
    for name, values in (("in-degrees", degrees), ("input indices", inputs)):
        if values.size and values.dtype.kind not in "biu":
            return f"{name} must be integers"
    degrees, inputs = degrees.astype(np.int64), inputs.astype(np.int64)
    tables = np.asarray(tables).ravel()
    n = degrees.size
    if n < 1:
        return "n must be >= 1"
    if degrees.min() < 0:
        return "in-degrees must be >= 0"
    if inputs.size != degrees.sum():
        return "inputs must hold one entry per input of every node"
    owner = np.repeat(np.arange(n), degrees)
    bad = (inputs < 0) | (inputs >= n)
    if bad.any():
        return f"node {owner[bad.argmax()]}: input indices out of range"
    order = np.lexsort((inputs, owner))
    owners, srcs = owner[order], inputs[order]
    same = (owners[1:] == owners[:-1]) & (srcs[1:] == srcs[:-1])
    if same.any():
        return f"node {owners[1:][same.argmax()]}: duplicate input"
    if np.ldexp(1.0, degrees).sum() != tables.size:
        return TABLES
    bad = _first_nonbit(tables)
    if bad is not None:
        node = np.repeat(np.arange(n), np.int64(1) << degrees)[bad]
        return f"node {node}: table entries must be bits"
    state = np.asarray(state).ravel()
    if state.size != n or _first_nonbit(state) is not None:
        return "state must be an n-bit vector"
    return None


@st.composite
def checked_arrays(draw):
    """Constructor arrays with in-degrees 0..5 and self-inputs, and one or two
    of: duplicate inputs (adjacent or not), inputs out of range (negative, >= n,
    or a uint64 near 2^64), a table entry that is not a bit, tables of the
    wrong length, a state that is not n bits.  A fault may draw no change."""
    n = draw(st.integers(1, 8))
    faults = draw(st.sets(st.sampled_from(["duplicate", "range", "bit", "length", "state"]),
                          min_size=1, max_size=2))
    top = 5 if "duplicate" in faults else min(n, 5)
    degrees = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    inputs = []
    for d in degrees:  # distinct where d <= n, so a node may read itself
        row = draw(st.permutations(range(n)))[:d]
        inputs.append(row + draw(st.lists(st.integers(0, n - 1), min_size=d - len(row),
                                          max_size=d - len(row))))
    if "duplicate" in faults:
        for i in draw(st.sets(st.sampled_from(range(n)), min_size=1)):
            if degrees[i] >= 2:
                a, b = draw(st.lists(st.integers(0, degrees[i] - 1), min_size=2, max_size=2,
                                     unique=True))
                inputs[i][b] = inputs[i][a]
    unsigned = draw(st.booleans())
    if "range" in faults:
        bad = [2**64 - 1, 2**64 - n, 2**63] if unsigned else [-1, -n, n, n + 7]
        for i in draw(st.sets(st.sampled_from(range(n)), min_size=1)):
            if degrees[i]:
                inputs[i][draw(st.integers(0, degrees[i] - 1))] = draw(st.sampled_from(bad))
    flat = np.array([x for row in inputs for x in row], dtype=np.uint64 if unsigned else np.int64)
    tables = draw(st.lists(st.integers(0, 1), min_size=sum(1 << d for d in degrees),
                           max_size=sum(1 << d for d in degrees)))
    if "bit" in faults:
        tables[draw(st.integers(0, len(tables) - 1))] = draw(st.sampled_from([2, 255, -1]))
    if "length" in faults:  # a short one may leave the widest node no 2^width entries
        size = draw(st.integers(0, len(tables) + 3).filter(lambda size: size != len(tables)))
        tables = (tables + [0] * 3)[:size]
    state = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if "state" in faults:
        state = draw(st.lists(st.integers(0, 2), min_size=n - 1, max_size=n + 1))
    return np.array(degrees, dtype=np.int64), flat, np.array(tables, dtype=np.int64), state


class TestNetworkValidation:
    def test_duplicate_input_rejected(self):
        with pytest.raises(ValueError, match="node 0: duplicate input"):
            network(
                inputs=[[1, 1], [0]],
                tables=[np.zeros(4, dtype=np.uint8), np.zeros(2, dtype=np.uint8)],
                state=np.zeros(2, dtype=np.uint8),
            )
        # the duplicate of node 2 is not adjacent, and node 1 reads the same nodes
        with pytest.raises(ValueError, match="node 2: duplicate input"):
            network(
                inputs=[[0], [2, 0], [0, 2, 0]],
                tables=[[0, 1], [0] * 4, [0] * 8],
                state=np.zeros(3, dtype=np.uint8),
            )

    def test_table_size_must_match_degree(self):
        with pytest.raises(ValueError, match="table"):
            network(
                inputs=[[0]],
                tables=[np.zeros(3, dtype=np.uint8)],
                state=np.zeros(1, dtype=np.uint8),
            )
        # a degree no table could have is refused, not overflowed
        with pytest.raises(ValueError, match="table"):
            BooleanNetwork([64] + [0] * 63, np.arange(64), np.zeros(63), np.zeros(64))

    @pytest.mark.parametrize("bad", [256, 2, -1, 0.5])
    def test_tables_and_state_checked_before_the_uint8_cast(self, bad):
        # a cast first would store a 257 entry as 1 and a 256 bit as 0
        with pytest.raises(ValueError, match="node 1: table entries must be bits"):
            BooleanNetwork([1, 1, 1], [0, 1, 2], [0, 1, 0, bad, 1, 0], [0, 0, 1])
        with pytest.raises(ValueError, match="state must be an n-bit vector"):
            BooleanNetwork([1, 1, 1], [0, 1, 2], [0, 1, 0, 1, 1, 0], [bad, 0, 1])

    def test_fractional_degrees_and_inputs_checked_before_the_int64_cast(self):
        # a cast first would store degrees [1 1 1] and inputs [0 1 2]
        with pytest.raises(ValueError, match="in-degrees must be integers"):
            BooleanNetwork([1.9, 1, 1], [0.7, 1, 2], [0, 1, 0, 1, 1, 0], [0, 0, 1])
        with pytest.raises(ValueError, match="input indices must be integers"):
            BooleanNetwork([1, 1, 1], [0.7, 1, 2], [0, 1, 0, 1, 1, 0], [0, 0, 1])

    def test_inputs_tables_and_state_are_checked(self):
        zeros = np.zeros(2, dtype=np.uint8)
        with pytest.raises(ValueError, match="node 1: input indices out of range"):
            network(inputs=[[0], [2]], tables=[[0, 1], [0, 1]], state=zeros)
        with pytest.raises(ValueError, match="node 1: table entries must be bits"):
            network(inputs=[[0], [1]], tables=[[0, 1], [0, 2]], state=zeros)
        with pytest.raises(ValueError, match="state must be an n-bit vector"):
            network(inputs=[[0], [1]], tables=[[0, 1], [0, 1]], state=[0, 2])
        with pytest.raises(ValueError, match="one entry per input"):
            BooleanNetwork([1, 1], [0], [0, 1, 0, 1], zeros)
        with pytest.raises(ValueError, match="in-degrees must be >= 0"):
            BooleanNetwork([-1, 1], [0], [0, 1, 0, 1], zeros)
        with pytest.raises(ValueError, match="n must be >= 1"):
            BooleanNetwork([], [], [], [])

    @settings(max_examples=400, deadline=None)
    @given(arrays=st.one_of(checked_arrays(), hand_networks().map(parts)))
    def test_the_padded_check_decides_as_the_flat_one(self, arrays):
        want = flat_check(*arrays)
        try:
            net = BooleanNetwork(*arrays)
        except ValueError as error:
            got = str(error)
        else:
            got = None
            # the kept matrix: read-only intp, each node's inputs in order, then itself
            width = int(net.degrees.max())
            padded = np.array([[*src, *[i] * (width - src.size)]
                               for i, (src, _) in enumerate(per_node(net))], dtype=np.intp)
            assert net._columns.dtype == np.intp and not net._columns.flags.writeable
            assert np.array_equal(net._columns, padded.reshape(net.n, width).T)
        assert (got is None) == (want is None)
        degrees, tables = arrays[0], np.asarray(arrays[2])
        if degrees.max() < tables.size.bit_length():
            assert got == want
        else:  # refused before anything is padded, so before any duplicate is looked for
            assert got == (TABLES if "duplicate input" in want else want)

    def test_a_node_wider_than_the_tables_is_refused_before_anything_is_padded(self):
        # one node reads the other 4,999 with a 2-entry table: padding every
        # node to that width would take 200 MB, and 2^4,999 overflows a float
        n = 5000
        degrees, inputs = np.array([n - 1] + [0] * (n - 1)), np.arange(1, n)
        tables, state = np.zeros(2, dtype=np.uint8), np.zeros(n, dtype=np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=re.escape(TABLES)):
                    BooleanNetwork(degrees, inputs, tables, state)
                assert tracemalloc.get_traced_memory()[1] < 1 << 20
            finally:
                tracemalloc.stop()

    def test_a_duplicate_in_a_node_wider_than_the_tables_gets_the_tables_message(self):
        # node 0 reads node 1 twice, and needs 4 of the 3 table entries
        with pytest.raises(ValueError, match=re.escape(TABLES)):
            BooleanNetwork([2, 0], [1, 1], [0, 1, 0], [0, 0])
        with pytest.raises(ValueError, match="node 0: duplicate input"):
            BooleanNetwork([2, 0], [1, 1], [0, 1, 0, 1, 0], [0, 0])

    @pytest.mark.parametrize("k", range(9))
    def test_a_stack_is_built_within_a_quarter_over_what_it_keeps(self, k):
        # drawn in place and kept without a copy: slopes between two sizes of a
        # stack of 128, per node; what it keeps includes the padded matrix
        def traced(n):
            rngs = [np.random.default_rng(s) for s in range(128)]
            tracemalloc.start()
            try:
                net = BooleanNetwork(*rbn._draw(RbnConfig(n=n, k=k), rngs))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            arrays = (net.degrees, net.inputs, net.tables, net.state, net._columns)
            return peak, sum(a.nbytes for a in arrays)

        traced(10)  # first-call allocations are not the build's
        (small, kept_small), (large, kept_large) = traced(20), traced(80)
        assert large - small <= 1.25 * (kept_large - kept_small) + 8 * 128 * (80 - 20)

    def test_only_a_read_only_array_that_owns_its_memory_is_kept(self):
        degrees, inputs = np.array([1, 1]), np.array([1, 0])
        state = np.array([0, 1], dtype=np.uint8)
        owned = np.array([0, 1, 0, 1], dtype=np.uint8)
        owned.flags.writeable = False
        net = BooleanNetwork(degrees, inputs, owned, state)
        assert np.shares_memory(net.tables, owned)
        for array in (degrees, inputs, state):  # writeable: copied
            assert not any(np.shares_memory(array, kept) for kept in parts(net))
        base = np.array([0, 1, 0, 1], dtype=np.uint8)
        view = base[:]
        view.flags.writeable = False
        net = BooleanNetwork(degrees, inputs, view, state)
        assert not np.shares_memory(net.tables, base)
        assert list(rbn_step(net)) == [1, 0]
        base[:] = 1 - base
        assert list(rbn_step(net)) == [1, 0]
        assert list(rbn_step(net, np.array([1, 0], dtype=np.uint8))) == [0, 1]
