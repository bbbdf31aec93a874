import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from infodyn.measures import (
    SymbolSequence,
    _group_symbols,
    _row_counts,
    estimate_distribution,
    normalized_information,
    rescale,
    shannon_information,
    simplified_measures,
)
from infodyn.trajectory import (
    Trajectory,
    node_series,
    series_matrix_measures,
    trajectory_csv,
    trajectory_pbm,
)


@st.composite
def bit_matrices(draw, max_b=12, max_units=6, max_len=300):
    """(bits, b): a units x length bit matrix long enough for two b-bit groups."""
    b = draw(st.integers(1, max_b))
    units = draw(st.integers(1, max_units))
    length = draw(st.integers(2 * b, max_len))
    bits = draw(arrays(np.uint8, (units, length), elements=st.integers(0, 1)))
    return bits, b


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.zeros(4, dtype=np.uint8))  # not 2-D
    with pytest.raises(ValueError):
        Trajectory(np.full((2, 2), 3, dtype=np.uint8))  # not binary
    traj = Trajectory(np.zeros((5, 3), dtype=np.uint8), transient_length=7)
    assert traj.window == 5 and traj.n == 3 and len(traj) == 5


def test_node_series_extracts_columns():
    states = np.array([[0, 1], [1, 1], [0, 1]], dtype=np.uint8)
    traj = Trajectory(states)
    assert list(node_series(traj, 0).symbols) == [0, 1, 0]
    assert list(node_series(traj, 1).symbols) == [1, 1, 1]
    with pytest.raises(IndexError):
        node_series(traj, 2)


def test_single_row_matches_sequence_measures():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=256, dtype=np.uint8)
    for scale in (1, 2, 4, 8):
        ms = series_matrix_measures(bits[None, :], scale)
        seq = SymbolSequence(bits.astype(np.int64), 1)
        expected = simplified_measures(rescale(seq, scale))
        assert ms.emergence == pytest.approx(expected.emergence, abs=1e-12)
        assert ms.self_organization == pytest.approx(expected.self_organization, abs=1e-12)
        assert ms.complexity == pytest.approx(expected.complexity, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(bit_matrices())
def test_sorted_counts_match_per_row_bincount(case):
    bits, b = case
    symbols = _group_symbols(bits, b)
    rows, values, counts = _row_counts(symbols)
    ref_rows, ref_values, ref_counts = [], [], []
    for unit, row in enumerate(symbols):
        per_symbol = np.bincount(row)
        present = per_symbol[per_symbol > 0]
        ref_rows += [unit] * present.size
        ref_values += np.unique(row).tolist()
        ref_counts += present.tolist()
        # the single-sequence measures read the same counter
        seq = SymbolSequence(row, b)
        p = present / row.size
        assert shannon_information(seq) == pytest.approx(-(p * np.log2(p)).sum(), abs=1e-12)
        assert estimate_distribution(seq) == dict(
            zip(np.flatnonzero(per_symbol).tolist(), p.tolist())
        )
    assert rows.tolist() == ref_rows
    assert values.tolist() == ref_values
    assert counts.tolist() == ref_counts


@settings(max_examples=200, deadline=None)
@given(bit_matrices())
def test_emergence_is_mean_of_per_series_information(case):
    bits, b = case
    per_series = [
        normalized_information(rescale(SymbolSequence(row.astype(np.int64), 1), b))
        for row in bits
    ]
    ms = series_matrix_measures(bits, b)
    assert abs(ms.emergence - float(np.mean(per_series))) <= 1e-12


def test_wide_scales_stay_at_the_plug_in_ceiling():
    # up to 2**62 symbols over 66..102 groups: counted with no alphabet-sized
    # table; random bits never repeat a symbol, so E sits at log2(groups) / b
    rng = np.random.default_rng(9)
    series = rng.integers(0, 2, size=(8, 4096), dtype=np.uint8)
    for scale in (40, 62):
        groups = 4096 // scale
        ms = series_matrix_measures(series, scale)
        assert ms.emergence <= np.log2(groups) / scale + 1e-12
        assert ms.emergence == pytest.approx(np.log2(groups) / scale)


def test_measures_average_information_over_units():
    # one frozen unit and one alternating unit: the system-level information
    # is their mean, and complexity follows the system-level parabola
    frozen = np.zeros(64, dtype=np.uint8)
    blinker = np.tile([0, 1], 32).astype(np.uint8)
    ms = series_matrix_measures(np.vstack([frozen, blinker]), 1)
    assert ms.emergence == pytest.approx(0.5)
    assert ms.self_organization == pytest.approx(0.5)
    assert ms.complexity == pytest.approx(1.0)


def test_simplified_identities_hold_on_system_measures():
    rng = np.random.default_rng(23)
    series = rng.integers(0, 2, size=(17, 128), dtype=np.uint8)
    for scale in (1, 2, 4):
        ms = series_matrix_measures(series, scale)
        assert abs(ms.emergence + ms.self_organization - 1.0) <= 1e-12
        assert abs(ms.complexity - 4.0 * ms.emergence * ms.self_organization) <= 1e-12


def test_homeostasis_from_last_macro_states():
    states = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.uint8)
    ms = series_matrix_measures(states.T, 1)
    # final two states differ in the first node only
    assert ms.homeostasis == pytest.approx(0.5)


def test_average_h_spans_all_pairs():
    states = np.array([[0, 0], [1, 1], [1, 1]], dtype=np.uint8)
    last_only = series_matrix_measures(states.T, 1)
    averaged = series_matrix_measures(states.T, 1, average_h=True)
    assert last_only.homeostasis == 1.0
    assert averaged.homeostasis == pytest.approx(0.5)


def test_window_too_short_for_scale():
    series = np.zeros((2, 7), dtype=np.uint8)
    with pytest.raises(ValueError, match="window too short"):
        series_matrix_measures(series, 4)
    series_matrix_measures(series, 3)  # 7 >= 2*3 is fine


def test_scale_out_of_range():
    # 63-bit symbols would overflow the int64 packing
    series = np.zeros((2, 256), dtype=np.uint8)
    for scale in (0, 63):
        with pytest.raises(ValueError, match="scale must be in 1..62"):
            series_matrix_measures(series, scale)


def test_csv_layout():
    states = np.array([[0, 1, 0], [1, 0, 1]], dtype=np.uint8)
    assert trajectory_csv(Trajectory(states)) == "0,1,0\n1,0,1\n"


def test_pbm_layout():
    states = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    text = trajectory_pbm(Trajectory(states))
    lines = text.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "2 2"
    assert lines[2:] == ["0 1", "1 1"]
