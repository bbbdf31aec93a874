import numpy as np
import pytest

from infodyn.measures import SymbolSequence, simplified_measures
from infodyn.trajectory import (
    Trajectory,
    node_series,
    series_matrix_measures,
    trajectory_csv,
    trajectory_pbm,
)


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
        from infodyn.measures import rescale

        expected = simplified_measures(rescale(seq, scale))
        assert ms.emergence == pytest.approx(expected.emergence, abs=1e-12)
        assert ms.self_organization == pytest.approx(expected.self_organization, abs=1e-12)
        assert ms.complexity == pytest.approx(expected.complexity, abs=1e-12)


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
    # 63-bit symbols would overflow the int64 packing and the count table
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
