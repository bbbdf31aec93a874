import math
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from infodyn import measures
from infodyn.measures import (
    MeasureSet,
    SymbolSequence,
    _count_information,
    _group_symbols,
    _measure_blocks,
    _row_counts,
    _row_information,
    _stack_measures,
    estimate_distribution,
    homeostasis,
    normalized_information,
    rescale,
    series_matrix_measures,
    shannon_information,
    simplified_measures,
)
from infodyn.eca import EcaConfig, _eca_stacks, oriented_series, run_eca, run_eca_many
from infodyn.experiments import SeedSchedule
from infodyn.rbn import RbnConfig, _rbn_stacks, run_rbn, run_rbn_many
from infodyn.trajectory import (
    Trajectory,
    _record_runs,
    _text_bits,
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


@pytest.mark.parametrize("bad", [256, 2, -1, 0.5])
def test_trajectory_checks_bits_before_the_uint8_cast(bad):
    # a cast first would store 256 as 0 and 0.5 as 0
    with pytest.raises(ValueError, match="states must be binary"):
        Trajectory(np.array([[bad, 1], [0, 1]]))


def test_series_is_the_stored_layout_and_states_its_view():
    states = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    traj = Trajectory(states)
    assert np.array_equal(traj.states, states)  # the constructor takes time x n
    assert np.array_equal(traj.series, states.T)
    assert traj.series.flags.c_contiguous
    assert np.shares_memory(traj.states, traj.series)
    assert not traj.series.flags.writeable and not traj.states.flags.writeable
    # the transpose of a contiguous series is stored without a copy, and the
    # caller's array stays writeable
    series = np.ascontiguousarray(states.T)
    assert np.shares_memory(Trajectory(series.T).series, series)
    assert series.flags.writeable


def test_single_row_matches_sequence_measures():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=256, dtype=np.uint8)
    measured = series_matrix_measures(bits[None, :], (1, 2, 4, 8))
    for scale, ms in measured.items():
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


@pytest.mark.parametrize("series, scale", [
    (np.full((2, 8), 2), 1),
    (np.array([[0, 3] * 4]), 2),
], ids=["twos", "threes"])
def test_series_must_be_bits(series, scale):
    # a uint8 cast of a non-bit series used to measure as E=0, H=1
    with pytest.raises(ValueError, match="series must be binary"):
        series_matrix_measures(series, [scale])


@settings(max_examples=200, deadline=None)
@given(bit_matrices())
def test_emergence_is_mean_of_per_series_information(case):
    bits, b = case
    per_series = [
        normalized_information(rescale(SymbolSequence(row.astype(np.int64), 1), b))
        for row in bits
    ]
    ms = series_matrix_measures(bits, [b])[b]
    assert abs(ms.emergence - float(np.mean(per_series))) <= 1e-12


def test_wide_scales_stay_at_the_plug_in_ceiling():
    # up to 2**62 symbols over 66..102 groups: counted with no alphabet-sized
    # table; random bits never repeat a symbol, so E sits at log2(groups) / b
    rng = np.random.default_rng(9)
    series = rng.integers(0, 2, size=(8, 4096), dtype=np.uint8)
    for scale, ms in series_matrix_measures(series, (40, 62)).items():
        groups = 4096 // scale
        assert ms.emergence <= np.log2(groups) / scale + 1e-12
        assert ms.emergence == pytest.approx(np.log2(groups) / scale)


def test_measures_average_information_over_units():
    # one frozen unit and one alternating unit: the system-level information
    # is their mean, and complexity follows the system-level parabola
    frozen = np.zeros(64, dtype=np.uint8)
    blinker = np.tile([0, 1], 32).astype(np.uint8)
    ms = series_matrix_measures(np.vstack([frozen, blinker]), [1])[1]
    assert ms.emergence == pytest.approx(0.5)
    assert ms.self_organization == pytest.approx(0.5)
    assert ms.complexity == pytest.approx(1.0)


def test_simplified_identities_hold_on_system_measures():
    rng = np.random.default_rng(23)
    series = rng.integers(0, 2, size=(17, 128), dtype=np.uint8)
    for ms in series_matrix_measures(series, (1, 2, 4)).values():
        assert abs(ms.emergence + ms.self_organization - 1.0) <= 1e-12
        assert abs(ms.complexity - 4.0 * ms.emergence * ms.self_organization) <= 1e-12


def test_homeostasis_from_last_macro_states():
    states = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.uint8)
    ms = series_matrix_measures(states.T, [1])[1]
    # final two states differ in the first node only
    assert ms.homeostasis == pytest.approx(0.5)


@pytest.mark.parametrize("scale", [1, 2, 4, 8])
def test_h_goes_through_homeostasis(scale):
    series = np.random.default_rng(41).integers(0, 2, size=(9, 96), dtype=np.uint8)
    symbols = _group_symbols(series, scale)
    final_pair = series_matrix_measures(series, [scale])[scale].homeostasis
    assert final_pair == homeostasis(symbols[:, -1], symbols[:, -2])
    averaged = series_matrix_measures(series, [scale], average_h=True)[scale].homeostasis
    assert averaged == homeostasis(symbols[:, 1:], symbols[:, :-1])


def test_average_h_spans_all_pairs():
    states = np.array([[0, 0], [1, 1], [1, 1]], dtype=np.uint8)
    (last_only,) = series_matrix_measures(states.T, [1]).values()
    (averaged,) = series_matrix_measures(states.T, [1], average_h=True).values()
    assert last_only.homeostasis == 1.0
    assert averaged.homeostasis == pytest.approx(0.5)


def test_window_too_short_for_scale():
    series = np.zeros((2, 7), dtype=np.uint8)
    measured = series_matrix_measures(series, [4, 3])
    assert measured[4] is None
    assert measured[3] is not None  # 7 >= 2*3 is fine


def per_scale_reference(bits, scale, average_h):
    """One scale measured from the bits directly: int64 symbols by an integer
    matmul, then the kernel's own entropy sum and H function; None when the
    series are shorter than two groups."""
    units, length = bits.shape
    if length < 2 * scale:
        return None
    groups = length // scale
    weights = np.int64(1) << np.arange(scale - 1, -1, -1, dtype=np.int64)
    symbols = bits[:, : groups * scale].reshape(units, groups, scale).astype(np.int64) @ weights
    info = _row_information(symbols) / scale
    if average_h:
        h = homeostasis(symbols[:, :-1], symbols[:, 1:])
    else:
        h = homeostasis(symbols[:, -2], symbols[:, -1])
    e = float(np.clip(info, 0.0, 1.0).mean())
    return MeasureSet(e, 1.0 - e, 4.0 * e * (1.0 - e), h, scale)


@settings(max_examples=200, deadline=None)
@given(
    bits=arrays(np.uint8, st.tuples(st.integers(1, 5), st.integers(1, 160)),
                elements=st.integers(0, 1)),
    scales=st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 62]) | st.integers(1, 62),
                    min_size=1, max_size=8),
    average_h=st.booleans(),
)
def test_every_scale_matches_its_own_regrouping(bits, scales, average_h):
    # unsorted, duplicated and non-divisor scales, some longer than half the
    # series: each is grouped from its largest listed divisor, exactly
    measured = series_matrix_measures(bits, scales, average_h=average_h)
    assert list(measured) == list(dict.fromkeys(scales))
    for scale, ms in measured.items():
        assert ms == per_scale_reference(bits, scale, average_h)


@st.composite
def column_cuts(draw, fold=0):
    """(bits, blocks): a 1..9-row bit series, and the same series cut into
    column blocks at random columns, empty blocks included.  With ``fold``,
    some cuts are moved down to a multiple of ``fold``, and a block that
    starts and ends on one may come as ``(block, m)``, read ``m`` times."""
    units = draw(st.integers(1, 9))
    length = draw(st.integers(0, 400))
    bits = draw(arrays(np.uint8, (units, length), elements=st.integers(0, 1)))
    cuts = draw(st.lists(st.integers(0, length), max_size=12))
    if fold:
        cuts = [cut - cut % fold if draw(st.booleans()) else cut for cut in cuts]
    cuts = sorted(cuts)
    blocks = np.split(bits, cuts, axis=1)
    if fold:
        blocks = [(block, draw(st.integers(1, 3)))
                  if start % fold == 0 and block.shape[1] % fold == 0 else block
                  for start, block in zip([0] + cuts, blocks)]
    return bits, blocks


@settings(max_examples=200, deadline=None)
@given(
    case=column_cuts(),
    scales=st.sampled_from([(1, 2, 4, 8), (3, 6, 12, 24), (2, 31, 62), (62, 1, 31, 5, 10),
                            (40, 5, 10, 20), (1, 2, 4, 8, 12, 16)]),
    h=st.sampled_from([None, "final", "all"]),
)
def test_block_cuts_do_not_change_the_measures(case, scales, h):
    # every scale's tail, last two symbols, change count and (row, symbol,
    # count) runs carry across each cut; at b=62 on 5 or more rows a
    # (row << b) | symbol key would not fit 64 bits, and the merge builds none
    bits, blocks = case

    def per_row(measured):  # each row's information and H data, as lists
        return {b: None if result is None else [None if a is None else a.tolist() for a in result]
                for b, result in measured.items()}

    assert per_row(_measure_blocks(blocks, scales, h)) == per_row(_measure_blocks([bits], scales, h))


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    scales=st.sampled_from([(1, 2), (1, 2, 4, 8), (2, 4, 8, 16), (1, 2, 3, 4, 8, 16),
                            (1, 2, 4, 8, 12, 16)]),
    h=st.sampled_from([None, "final", "all"]),
)
def test_a_scale_counts_alike_from_its_double_and_alone(data, scales, h):
    # listed with its double, b <= 4 is counted from the double's counts
    # (b = 1 then sums no ones); alone it is sorted, or its ones summed.  Odd
    # widths leave a last b-symbol that is no half of a 2b-symbol, and folds
    # start and end on a multiple of every listed scale, as the kernel asks
    _, blocks = data.draw(column_cuts(fold=math.lcm(*scales)))
    together = _measure_blocks(blocks, scales, h)
    for b in scales:
        alone = _measure_blocks(blocks, [b], h)[b]
        if alone is None:
            assert together[b] is None
            continue
        (info, data_h), (expected, expected_h) = together[b], alone
        assert info.dtype == expected.dtype and info.tobytes() == expected.tobytes()
        assert np.array_equal(np.signbit(info), np.signbit(expected))
        if expected_h is None:
            assert data_h is None
        else:
            assert data_h.dtype == expected_h.dtype and np.array_equal(data_h, expected_h)


@pytest.mark.parametrize("length, sorted_peak", [(8, 5919), (64, 2699), (1024, 1405)])
def test_counting_from_the_double_costs_at_most_its_table(length, sorted_peak):
    # sorted_peak: the kernel's peak, in KiB, when every scale was sorted (b = 1
    # summed); counting 1, 2 and 4 from their doubles may add one b = 4 table
    # of units x 16 float64 cells, never a second table or a key per cell
    rows = np.random.default_rng(0).integers(0, 2, size=((1 << 18) // length, length),
                                             dtype=np.uint8)
    table = rows.shape[0] * 16 * 8
    tracemalloc.start()
    try:
        measured = _measure_blocks([rows], (1, 2, 4, 8), "final")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert measured[4] is not None
    assert peak <= sorted_peak * 1024 + table


@st.composite
def equal_series(draw):
    """(series, scales): 0..5 equal-shape bit series of 1..6 rows and 0..60
    columns, and 1..4 scales in 1..12."""
    units = draw(st.integers(1, 6))
    length = draw(st.integers(0, 60))
    count = draw(st.integers(0, 5))
    series = [draw(arrays(np.uint8, (units, length), elements=st.integers(0, 1)))
              for _ in range(count)]
    return series, draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(case=equal_series(), block_bits=st.integers(1, 400), average_h=st.booleans())
def test_a_stack_measures_as_its_series_one_by_one(case, block_bits, average_h):
    # small blocks cut bands between series, inside a series, and a row
    # longer than a block into column blocks; none of it moves a value
    series, scales = case
    alone = [series_matrix_measures(s, scales, average_h=average_h) for s in series]
    per_scale = {b: [one[b] for one in alone] for b in scales}
    expected = {b: None if None in sets else sets for b, sets in per_scale.items()}
    with mock.patch.object(measures, "_BLOCK_BITS", block_bits):
        assert _stack_measures(iter(series), None, scales, average_h=average_h) == expected


@st.composite
def cycling_stacks(draw):
    """(series, cycle, scales, span, repeats): 1..3 equal-shape bit series of
    1..4 rows whose columns from ``begin`` on repeat with ``period``; the
    window holds ``repeats`` whole cycle blocks of ``span = lcm(period,
    *scales)`` columns after the first multiple of ``span`` at or after ``begin``."""
    scales = draw(st.sampled_from([(1, 2, 4, 8), (1, 2, 4, 8, 16), (3, 6), tuple(range(1, 17))]))
    period = draw(st.integers(1, 24))  # below and above the largest scale
    begin = draw(st.integers(0, 40))
    span = math.lcm(period, *scales)
    first = -(-begin // span) * span
    # lcm(1..16) = 720,720 columns: no window here holds such a block
    repeats = draw(st.integers(0, 3 if span < 1000 else 0))
    if repeats:
        window = first + repeats * span + draw(st.integers(0, span - 1))
    else:
        window = draw(st.integers(2, first + min(span, 400) - 1))
    units, count = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    series = []
    for _ in range(count):
        head = draw(arrays(np.uint8, (units, begin + period), elements=st.integers(0, 1)))
        cycle = head[:, begin + (np.arange(max(window - begin, 0)) % period)]
        whole = np.concatenate((head[:, :begin], cycle), axis=1)[:, :window]
        series.append(np.ascontiguousarray(whole))
    return series, (begin, period), scales, span, repeats


@settings(max_examples=200, deadline=None)
@given(case=cycling_stacks(), average_h=st.booleans(), band_rows=st.integers(1, 5),
       narrow=st.booleans())
def test_a_cycling_stack_measures_as_its_full_read(case, average_h, band_rows, narrow):
    # bands of ``band_rows`` whole rows of the columns read, cut between and
    # inside series; or a block narrower than the cycle block, which is then
    # read in full, in column blocks
    series, cycle, scales, span, repeats = case
    full = _stack_measures(iter(series), None, scales, average_h=average_h)
    window, first = series[0].shape[1], -(-cycle[0] // span) * span
    read = first + span if repeats else window
    block_bits = span - 1 if narrow and span > 1 else band_rows * read
    kernel, given = measures._measure_blocks, []

    def spy(blocks, scales, h):
        blocks = list(blocks)
        given.append(blocks)
        return kernel(blocks, scales, h)

    with mock.patch.object(measures, "_BLOCK_BITS", block_bits), \
            mock.patch.object(measures, "_measure_blocks", spy):
        folded = _stack_measures(iter(series), [cycle] * len(series), scales,
                                 average_h=average_h)
    assert folded == full
    fold = repeats >= 1 and span <= block_bits
    for blocks in given:
        cut = [block if isinstance(block, np.ndarray) else block[0] for block in blocks]
        assert sum(block.shape[1] for block in cut) == (
            read + (window - first) % span if fold else window)
        assert any(isinstance(block, tuple) for block in blocks) == (fold and repeats >= 2)


@st.composite
def mixed_cycles(draw):
    """(series, cycles, scales): 1..8 equal-shape bit series of 1..3 rows, each
    repeating from its own ``begin`` with its own ``period``, its cycle given
    as ``(begin, period)`` or, at random, as ``None``; begins and periods come
    from short lists, so that some series share a fold plan."""
    scales = draw(st.sampled_from([(1, 2, 4, 8), (1, 3), (2, 5, 6)]))
    window, units = draw(st.integers(2, 160)), draw(st.integers(1, 3))
    series, cycles = [], []
    for _ in range(draw(st.integers(1, 8))):
        begin, period = draw(st.sampled_from([0, 3, 24])), draw(st.sampled_from([1, 2, 3, 8, 12]))
        head = draw(arrays(np.uint8, (units, begin + period), elements=st.integers(0, 1)))
        columns = np.arange(window)
        columns = np.where(columns < begin, columns, begin + (columns - begin) % period)
        series.append(np.ascontiguousarray(head[:, columns]))
        cycles.append(draw(st.sampled_from([(begin, period), None])))
    return series, cycles, scales


@settings(max_examples=200, deadline=None)
@given(case=mixed_cycles(), average_h=st.booleans(), fold_series=st.integers(1, 4),
       block_bits=st.sampled_from([24, 100, 1 << 18]))
def test_per_series_cycles_measure_as_a_full_read(case, average_h, fold_series, block_bits):
    # series of several plans and none share one stack; each plan gets bands
    # of its own (or joins the full reads when too few series share it), the
    # bands are cut inside and between series, and results keep series order
    series, cycles, scales = case
    full = _stack_measures(iter(series), None, scales, average_h=average_h)
    with mock.patch.object(measures, "_FOLD_SERIES", fold_series), \
            mock.patch.object(measures, "_BLOCK_BITS", block_bits):
        assert _stack_measures(iter(series), cycles, scales, average_h=average_h) == full


def test_a_stack_needs_one_cycle_per_series():
    series = [np.zeros((2, 8), np.uint8)] * 3
    for cycles in ([None, None], [None] * 4):
        with pytest.raises(ValueError, match=f"{len(cycles)} cycles for 3 series"):
            _stack_measures(iter(series), cycles, [1])


def test_a_band_is_measured_once_the_series_that_filled_it_is_let_go():
    # rule 2 shifts a ring of 16 cells: every instance of the stack cycles,
    # each series fills a band of its own, and by the time the band is
    # measured nothing holds the series, neither the measuring loop nor the
    # stack's unstacking generator
    ((stack, cycles),) = _eca_stacks(EcaConfig(rule=2, n=16, transient=64, window=64),
                                     range(12))
    assert None not in cycles
    taken, kernel, passes = [], measures._measure_blocks, []

    def spy(blocks, scales, h):
        passes.append([ref() is None for ref in taken])
        return kernel(blocks, scales, h)

    watched = map(lambda one: taken.append(weakref.ref(one)) or one, stack)
    read = sum(_stack_measures_plan(cycles[0], 64, (1, 2, 4, 8)))
    with mock.patch.object(measures, "_measure_blocks", spy), \
            mock.patch.object(measures, "_BLOCK_BITS", 16 * read):
        _stack_measures(watched, cycles, (1, 2, 4, 8))
    assert len(passes) == 12 and all(all(gone) for gone in passes)


def _stack_measures_plan(cycle, window, scales):
    """The ``(c0, L)`` fold plan of a series' cycle, as :func:`_stack_measures` makes it."""
    span = math.lcm(cycle[1], *scales)
    first = -(-cycle[0] // span) * span
    assert window - first >= 2 * span
    return first, span


def test_a_settled_desk_stack_is_read_from_one_cycle_block():
    # rule 0 clears every cell at its first step, so a desk stack (50
    # instances of 256 cells, 1,024 + 1,024 steps) cycles with period 1 from
    # its first recorded column: one band of 8 columns a row, not 50 bands of
    # 1,024
    ((stack, cycles),) = _eca_stacks(EcaConfig(rule=0, n=256, transient=1024, window=1024),
                                     range(50))
    assert cycles == [(0, 1)] * 50
    kernel, given = measures._measure_blocks, []

    def spy(blocks, scales, h):
        blocks = list(blocks)
        given.append([(block if isinstance(block, np.ndarray) else block[0]).shape
                      for block in blocks])
        return kernel(blocks, scales, h)

    scales = (1, 2, 4, 8)
    with mock.patch.object(measures, "_measure_blocks", spy):
        folded = _stack_measures(stack, cycles, scales)
    assert len(given) == 1
    assert all(rows == 50 * 256 for rows, _ in given[0])
    assert sum(columns for _, columns in given[0]) <= 8 + 8
    assert folded == _stack_measures([np.zeros((256, 1024), dtype=np.uint8)] * 50, None, scales)


def test_a_stack_of_unequal_series_is_refused():
    with pytest.raises(ValueError, match="must share a shape"):
        _stack_measures([np.zeros((2, 8), np.uint8), np.zeros((3, 8), np.uint8)], None, [1])


@settings(max_examples=100, deadline=None)
@given(case=column_cuts(), h=st.sampled_from([None, "final", "all"]))
def test_bits_are_counted_as_the_sorted_count_counts_them(case, h):
    # b=1 counts each row's ones and takes its zeros as the rest; the
    # (row, count) pairs must reach the entropy sum in _row_counts order
    bits, blocks = case
    measured = _measure_blocks(blocks, [1], h)[1]
    if bits.shape[1] < (1 if h is None else 2):
        assert measured is None
        return
    rows, _, counts = _row_counts(bits.astype(np.uint16))
    reference = _count_information(rows, counts, bits.shape)
    assert measured[0].tolist() == reference.tolist()
    assert np.signbit(measured[0]).tolist() == np.signbit(reference).tolist()


def msb_first(bits, count):
    """Independent reference grouping: each row's whole groups of ``count``
    bits, MSB first, by an integer dot product."""
    units, length = bits.shape
    groups = bits[:, : length // count * count].reshape(units, -1, count).astype(np.int64)
    return groups @ (1 << np.arange(count - 1, -1, -1))


@settings(max_examples=300, deadline=None)
@given(
    bits=arrays(np.uint8, st.tuples(st.integers(1, 5), st.integers(0, 90)),
                elements=st.integers(0, 1)),
    count=st.sampled_from([2, 4, 8]),
    offset=st.integers(0, 7),
    pad=st.integers(0, 9),
)
def test_the_word_multiply_groups_as_shift_or_does(bits, count, offset, pad):
    # odd lengths and column tails, rows read out of a wider array at any
    # byte offset (strided, unaligned words), and rescale's uint16 bits
    reference = msb_first(bits, count)
    wide = np.zeros((bits.shape[0], offset + bits.shape[1] + pad), dtype=np.uint8)
    wide[:, offset : offset + bits.shape[1]] = bits
    strided = wide[:, offset : offset + bits.shape[1]]
    for symbols in (bits, strided, bits.T.copy().T):
        grouped = _group_symbols(symbols, count)
        assert grouped.dtype == np.uint16 and grouped.flags.c_contiguous
        assert np.array_equal(grouped, reference)
    if bits.shape[1] >= count:
        row = SymbolSequence(bits[0], 1)
        assert row.symbols.dtype == np.uint16
        assert np.array_equal(rescale(row, count).symbols, reference[0])


def orbit(tail, period):
    """A record-loop ``start`` whose one-element state runs 0, 1, ..., then
    cycles with ``period`` after ``tail`` steps, counting its steps."""
    steps = []

    def start(chunk):
        def step(state):
            steps.append(None)
            value = int(state[0]) + 1
            return np.array([value if value < tail + period else tail])

        unstack = lambda recorded: iter([recorded[:, 0].T.astype(np.uint8)])  # noqa: E731
        return np.array([[0]]), lambda keep: step, unstack

    return start, steps


@pytest.mark.parametrize("tail", [0, 1, 2, 5, 9])
@pytest.mark.parametrize("period", [1, 2, 3, 7, 16])
def test_the_record_loop_copies_a_cycle_exactly(tail, period):
    # the stack cycles in the transient, at the window's edges, mid-window
    # or never, and each recorded state is the one naive stepping reaches
    for transient in (0, 1, 3, 8, 30):
        for window in (2, 3, 5, 17, 40):
            start, steps = orbit(tail, period)
            ((stack, _),) = _record_runs([0], 1, start, transient, window)
            (recorded,) = stack
            s = np.arange(transient, transient + window)
            expected = np.where(s < tail, s, tail + (s - tail) % period)
            assert recorded[0].tolist() == expected.tolist()
            assert len(steps) <= transient + window - 1


def test_the_horizontal_read_out_is_exact_across_row_blocks():
    # 8,229 rows of 64 cells: 2^18-bit bands of 4,096 rows, the last partial
    traj = run_eca(EcaConfig(rule=30, n=64, transient=0, window=8192 + 37, seed=5))
    rows = oriented_series(traj, "horizontal")
    assert len(rows) > 2 * measures._BLOCK_BITS // 64
    scales = (1, 2, 3, 4, 6, 8, 32)
    for average_h in (False, True):
        measured = series_matrix_measures(rows, scales, average_h=average_h)
        for b in scales:
            assert measured[b] == per_scale_reference(np.asarray(rows), b, average_h)


def test_series_peak_memory_does_not_grow_with_length():
    # the series is read in column blocks, so the kernel's own peak (net of
    # the series, which exists before tracing starts) is the same at 4x the
    # length; it measured the whole series at once and peaked 4x higher
    rng = np.random.default_rng(7)
    peaks = {}
    for length in (1 << 17, 1 << 19):
        series = rng.integers(0, 2, size=(100, length), dtype=np.uint8)
        tracemalloc.start()
        try:
            series_matrix_measures(series, (1, 2, 4, 8))
            peaks[length] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del series
    assert abs(peaks[1 << 19] - peaks[1 << 17]) <= 0.1 * peaks[1 << 17], peaks


def test_scale_out_of_range():
    # 63-bit symbols would overflow the int64 packing
    series = np.zeros((2, 256), dtype=np.uint8)
    for scale in (0, 63):
        with pytest.raises(ValueError, match="scale must be in 1..62"):
            series_matrix_measures(series, [scale])


@pytest.mark.parametrize("seed", [-1, 2**64, 2.5])
@pytest.mark.parametrize("config, run_many", [
    (RbnConfig(n=8, k=2, transient=1, window=4), run_rbn_many),
    (EcaConfig(rule=30, n=8, transient=1, window=4), run_eca_many),
])
def test_every_seed_of_a_run_is_checked(config, run_many, seed):
    # in its own type: 2.5 is refused, not truncated to 2
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        run_many(config, [0, seed])
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        replace(config, seed=seed)
    assert len(run_many(config, [0, 2**64 - 1])) == 2


@pytest.mark.parametrize("config, stacks, run", [
    (RbnConfig(n=7, k=2, transient=3, window=20), _rbn_stacks, run_rbn),
    (EcaConfig(rule=110, n=9, transient=3, window=20), _eca_stacks, run_eca),
])
def test_stacks_yield_read_only_series_in_seed_order(config, stacks, run):
    # 130 seeds: RBN stacks of 128 and 2, ECA stacks of 64, 64 and 2
    seeds = list(range(130))
    yielded = list(stacks(config, seeds))
    assert len(yielded) == (2 if run is run_rbn else 3)
    # each stack is an iterator: its series are unstacked as they are taken
    assert all(iter(stack) is stack for stack, _ in yielded)
    series = [s for stack, _ in yielded for s in stack]
    assert len(series) == len(seeds)
    for s in series:
        assert (s.dtype, s.shape) == (np.uint8, (config.n, config.window))
        assert s.flags.c_contiguous and not s.flags.writeable
    for seed in (0, 63, 64, 127, 128, 129):
        assert np.array_equal(series[seed], run(replace(config, seed=seed)).series)


def test_a_network_records_and_measures_alike_alone_and_in_a_desk_stack():
    # a desk K = 2 stack of 100 networks, most of which settle at their own
    # step and are dropped from the step while the rest go on: a network's
    # series, cycle and measures do not depend on the 99 others
    config, scales = RbnConfig(n=100, k=2.0, transient=512, window=512), (1, 2, 4, 8)
    seeds = [SeedSchedule(0).seed_for("rbn_sweep/k=2", i) for i in range(100)]
    ((stack, cycles),) = _rbn_stacks(config, seeds)
    stack = list(stack)
    together = _stack_measures(stack, cycles, scales)
    plans = {}  # a network that never repeats, and one of each distinct cycle
    for i, cycle in enumerate(cycles):
        plans.setdefault(cycle, i)
    assert None in plans and len(plans) >= 5
    for i in plans.values():
        ((alone, cycle),) = _rbn_stacks(config, [seeds[i]])
        (alone,) = alone
        assert np.array_equal(alone, stack[i]) and cycle == [cycles[i]]
        assert _stack_measures([alone], cycle, scales) == {
            b: [sets[i]] for b, sets in together.items()}


def test_csv_layout():
    states = np.array([[0, 1, 0], [1, 0, 1]], dtype=np.uint8)
    assert trajectory_csv(Trajectory(states)) == "0,1,0\n1,0,1\n"


def test_dumps_match_the_per_element_rendering():
    states = np.random.default_rng(3).integers(0, 2, size=(37, 11), dtype=np.uint8)
    traj = Trajectory(states)
    rows = [[str(int(b)) for b in row] for row in states]
    assert trajectory_csv(traj) == "".join(",".join(r) + "\n" for r in rows)
    assert trajectory_pbm(traj) == "P1\n11 37\n" + "".join(" ".join(r) + "\n" for r in rows)


def test_pbm_layout():
    states = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    text = trajectory_pbm(Trajectory(states))
    lines = text.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "2 2"
    assert lines[2:] == ["0 1", "1 1"]


def int64_reference_measures(series, scale, average_h):
    """The int64 kernel the narrow one replaced: symbols by an integer
    matmul, counted by sorting int64 rows."""
    units, length = series.shape
    groups = length // scale
    weights = np.int64(1) << np.arange(scale - 1, -1, -1, dtype=np.int64)
    symbols = series[:, : groups * scale].reshape(units, groups, scale) @ weights
    ordered = np.sort(symbols, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=ordered.size)
    p = counts / groups
    info = -np.bincount(first // groups, weights=p * np.log2(p), minlength=units) / scale
    if average_h:
        d = float(np.mean(symbols[:, 1:] != symbols[:, :-1]))
    else:
        d = float(np.mean(symbols[:, -1] != symbols[:, -2]))
    e = float(np.clip(info, 0.0, 1.0).mean())
    return MeasureSet(e, 1.0 - e, 4.0 * e * (1.0 - e), 1.0 - d, scale)


@pytest.mark.parametrize("scale", [15, 16, 17, 31, 32, 33, 61, 62])
@pytest.mark.parametrize("kind", ["random", "constant", "alternating"])
@pytest.mark.parametrize("average_h", [False, True])
def test_symbol_dtype_boundaries_match_int64_reference(scale, kind, average_h):
    # either side of the uint16 / uint32 / uint64 switch, with a remainder
    shape = (5, 4 * scale + 3)
    if kind == "random":
        series = np.random.default_rng(scale).integers(0, 2, shape, dtype=np.uint8)
    elif kind == "constant":
        series = np.ones(shape, dtype=np.uint8)
    else:
        series = np.broadcast_to(np.arange(shape[1]) % 2, shape).astype(np.uint8)
    measured = series_matrix_measures(series, [scale], average_h=average_h)[scale]
    assert measured == int64_reference_measures(series, scale, average_h)
    symbols = _group_symbols(series, scale)
    assert symbols.dtype.itemsize * 8 == (16 if scale <= 16 else 32 if scale <= 32 else 64)


# token characters, separators of either grammar, Unicode whitespace that
# str.split() also splits on, other characters and lone surrogates
TEXT_CHARS = st.sampled_from(
    list("01,") + [" ", "\t", "\n", "\r", "\x0b", "\x0c"]
    + ["\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
    + ["2", "a", "/", "\x00", "\xff", "\u0661", "\u200b", "\ud800", "\udfff", "\U0001d7ce"]
)
texts = st.lists(TEXT_CHARS, max_size=40).map("".join)


def reference_text_bits(text, csv, in_token=False):
    """Character by character: ``(bits, in_token)``, or None where the text is refused."""
    bits = []
    for c in text:
        if c.isspace() or csv and c == ",":
            in_token = False
        elif c in "01" and not (csv and in_token):
            bits.append(int(c))
            in_token = True
        else:
            return None
    return bits, in_token


MESSAGES = {False: "bit string may only contain '0', '1', and whitespace",
            True: "symbol CSV must contain only bits (0 or 1)"}


@settings(max_examples=300, deadline=None)
@given(text=texts, csv=st.booleans(), in_token=st.booleans())
def test_text_bits_match_a_per_character_reference(text, csv, in_token):
    want = reference_text_bits(text, csv, in_token)
    if want is None:
        with pytest.raises(ValueError) as refused:
            _text_bits(text, csv, in_token)
        assert str(refused.value) == MESSAGES[csv]
        return
    bits, ends_in_token = _text_bits(text, csv, in_token)
    assert bits.dtype == np.uint8
    assert (bits.tolist(), ends_in_token) == want
    if not csv:  # ascii01 text decodes as str.split() and a join would
        assert bits.tolist() == [int(c) for c in "".join(text.split())]


@settings(max_examples=300, deadline=None)
@given(text=texts, csv=st.booleans(), data=st.data())
def test_text_bits_of_chunks_carry_only_in_token(text, csv, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=6)))
    chunks = [text[a:b] for a, b in zip([0] + cuts, cuts + [len(text)])]
    want = reference_text_bits(text, csv)
    decoded, in_token = [], False
    try:
        for chunk in chunks:
            bits, in_token = _text_bits(chunk, csv, in_token)
            decoded += bits.tolist()
    except ValueError as exc:
        assert want is None and str(exc) == MESSAGES[csv]
    else:
        assert (decoded, in_token) == want
