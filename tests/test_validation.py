"""Library refusals: the one integer validator, and each ValueError branch
that no other test reaches."""

import re

import numpy as np
import pytest

from infodyn.eca import EcaConfig, as_boolean_network, eca_step, oriented_series, rule_table
from infodyn.experiments import eca_class_survey, multiscale_profiles, rbn_sweep
from infodyn.measures import (
    MeasureSet,
    SymbolSequence,
    check_scale,
    rescale,
    series_matrix_measures,
    uncorrelated_homeostasis,
)
from infodyn.rbn import RbnConfig, parse_network, rbn_step, run_rbn
from infodyn.trajectory import Trajectory

SMALL = dict(n=8, transient=2, window=8)
WIDE = dict(SMALL, window=16)  # room for two groups at scale 8

# (what, build): each integer goes through _check_count, by the name it reports
COUNTS = [
    ("n", lambda v: RbnConfig(**{**SMALL, "n": v, "k": 1.0})),
    ("n", lambda v: EcaConfig(rule=30, **{**SMALL, "n": v})),
    ("transient", lambda v: RbnConfig(**{**SMALL, "transient": v})),
    ("transient", lambda v: EcaConfig(rule=30, **{**SMALL, "transient": v})),
    ("window", lambda v: RbnConfig(**{**SMALL, "window": v})),
    ("window", lambda v: EcaConfig(rule=30, **{**SMALL, "window": v})),
    ("instances", lambda v: rbn_sweep(k_grid=[1.0], instances=v, scales=(1,), **SMALL)),
    ("instances", lambda v: eca_class_survey(rules=[30], instances=v, scales=(1,), **SMALL)),
    ("scale", check_scale),
    ("scale", lambda v: SymbolSequence([0, 1], v)),
    ("scale", lambda v: rescale(SymbolSequence.from_bits("01" * 8), v)),
    ("scale", lambda v: MeasureSet(0.5, 0.5, 1.0, None, v)),
    ("scale", uncorrelated_homeostasis),
    ("scale", lambda v: series_matrix_measures(np.zeros((2, 16), np.uint8), [v])),
    ("scale", lambda v: rbn_sweep(k_grid=[1.0], instances=1, scales=(v,), **WIDE)),
    ("scale", lambda v: multiscale_profiles(rules=[30], instances=1, scales=(v,), **WIDE)),
    ("rule", rule_table),
    ("rule", lambda v: EcaConfig(rule=v, **SMALL)),
    ("rule", lambda v: as_boolean_network(v, 3, [0, 1, 0])),
    ("rule", lambda v: eca_class_survey(rules=[v], instances=1, scales=(1,), **SMALL)),
    ("threads", lambda v: rbn_sweep(k_grid=[1.0], instances=1, scales=(1,), threads=v, **SMALL)),
    ("threads", lambda v: eca_class_survey(rules=[30], instances=1, scales=(1,), threads=v,
                                           **SMALL)),
    ("transient_length", lambda v: Trajectory(np.zeros((2, 2), np.uint8), v)),
]


@pytest.mark.parametrize("name, build", COUNTS)
@pytest.mark.parametrize("value", [2.5, 8.0, "8", None])
def test_a_count_that_is_no_integer_is_refused(name, build, value):
    # checked in the value's own type: 2.5 is not truncated to 2, and 8.0 is
    # refused here rather than by a TypeError deep inside a run
    with pytest.raises(ValueError, match=rf"^{name} must be an integer \(got {value!r}\)$"):
        build(value)


@pytest.mark.parametrize("name, build", COUNTS)
def test_a_numpy_integer_count_is_accepted(name, build):
    assert build(np.int64(8)) is not None


@pytest.mark.parametrize("build, value, message", [
    (check_scale, 0, "scale must be in 1..62 (got 0)"),
    (check_scale, 63, "scale must be in 1..62 (got 63)"),
    (rule_table, -1, "rule must be in 0..255 (got -1)"),
    (lambda v: EcaConfig(rule=v), 256, "rule must be in 0..255 (got 256)"),
])
def test_an_integer_outside_its_range_is_refused(build, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(value)


def test_a_measure_set_keeps_its_scale_as_an_int():
    assert type(MeasureSet(0.5, 0.5, 1.0, None, np.int64(8)).scale) is int


def test_a_run_of_numpy_integer_sizes_records_its_window():
    config = RbnConfig(n=np.int64(6), k=2.0, transient=np.int64(3), window=np.int64(5))
    assert run_rbn(config).series.shape == (6, 5)


@pytest.mark.parametrize("build, message", [
    (lambda: RbnConfig(n=0), "n must be >= 1 (got 0)"),
    (lambda: EcaConfig(rule=30, n=2), "n must be >= 3 (got 2)"),
    (lambda: RbnConfig(transient=-1), "transient must be >= 0 (got -1)"),
    (lambda: EcaConfig(rule=30, window=1), "window must be >= 2 (got 1)"),
    (lambda: rbn_sweep(instances=0), "instances must be >= 1 (got 0)"),
], ids=lambda value: value.partition(" (got")[0] if isinstance(value, str) else None)
def test_a_count_below_its_minimum_is_refused(build, message):
    # the ids leave out the refused value, which each message names
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("state", [[0, 1], [[0, 1, 0]], np.zeros((2, 3), dtype=np.uint8)])
def test_eca_step_refuses_a_state_that_is_no_ring(state):
    with pytest.raises(ValueError, match="state must be a ring of at least 3 bits"):
        eca_step(state, rule_table(30))


def test_an_unknown_orientation_is_refused():
    traj = Trajectory(np.zeros((4, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="orientation must be one of"):
        oriented_series(traj, "sideways")


def test_a_boolean_network_ring_needs_3_cells():
    with pytest.raises(ValueError, match="n must be >= 3"):
        as_boolean_network(30, 2, [0, 1])


def test_a_symbol_sequence_is_one_dimensional():
    with pytest.raises(ValueError, match="symbols must be one-dimensional"):
        SymbolSequence(np.zeros((2, 2), dtype=np.uint8), 1)


def test_from_bits_takes_any_iterable_of_bits():
    assert SymbolSequence.from_bits(iter([1, 0, 1])).to_bitstring() == "101"
    assert SymbolSequence.from_bits((b for b in [0, 0])).symbols.tolist() == [0, 0]
    with pytest.raises(ValueError, match=r"symbols must lie in \[0, 2\^1\)"):
        SymbolSequence.from_bits([1, 2])


def test_to_bitstring_needs_a_binary_sequence():
    with pytest.raises(ValueError, match="to_bitstring requires a binary sequence"):
        SymbolSequence([1, 2, 3], 2).to_bitstring()


@pytest.mark.parametrize("series", [np.zeros(8, dtype=np.uint8), np.zeros((0, 8), np.uint8)])
def test_series_must_be_a_matrix_of_at_least_one_unit(series):
    with pytest.raises(ValueError, match="series must be a 2-D .* at least one unit"):
        series_matrix_measures(series, [1])


def test_rbn_step_refuses_a_state_of_another_length():
    net = parse_network("rbn n=2\n0: inputs=1 table=01\n1: inputs=0 table=01\n")
    with pytest.raises(ValueError, match="state length must equal n"):
        rbn_step(net, np.zeros(3, dtype=np.uint8))


def test_a_network_text_with_a_node_line_twice_is_refused():
    with pytest.raises(ValueError, match="duplicate node line for node 0"):
        parse_network("rbn n=1\n0: inputs= table=0\n0: inputs= table=1\n")


def test_a_negative_transient_length_is_refused():
    with pytest.raises(ValueError, match="transient_length must be >= 0"):
        Trajectory(np.zeros((2, 2), dtype=np.uint8), transient_length=-1)
