import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infodyn.cli import main
from infodyn.measures import (
    MeasureSet,
    SymbolSequence,
    check_scale,
    complexity,
    emergence,
    estimate_distribution,
    homeostasis,
    normalized_information,
    rescale,
    self_organization,
    shannon_information,
    simplified_measures,
    streamed_measures,
    uncorrelated_homeostasis,
)
from infodyn.measures import _group_sources, _symbol_dtype

# A fixed 32-bit reference string (10 ones, 22 zeros) whose regrouped forms
# and per-scale information values are frozen below.
REF_BITS = "0 0 0 0 1 0 0 0 1 0 1 0 0 0 0 1 1 1 0 0 1 0 0 0 1 1 0 0 1 0 0 0"
REF_SYMBOLS = {
    2: [0, 0, 2, 0, 2, 2, 0, 1, 3, 0, 2, 0, 3, 0, 2, 0],
    4: [0, 8, 10, 1, 12, 8, 12, 8],
    8: [8, 161, 200, 200],
}
REF_INFO = {1: 0.89603821, 2: 0.8246987, 4: 0.5389098, 8: 0.1875}


def entropy_oracle(symbols, base_bits):
    """Independent plug-in entropy: Counter + math.log2, normalized by b."""
    counts = Counter(int(s) for s in symbols)
    n = sum(counts.values())
    info = -sum((c / n) * math.log2(c / n) for c in counts.values())
    return info / base_bits


def ref_seq():
    return SymbolSequence.from_bits(REF_BITS)


def expand_to_bits(seq):
    """Oracle inverse of ``rescale`` on the retained prefix: each symbol's
    ``bits_per_symbol`` bits, MSB first."""
    shifts = np.arange(seq.bits_per_symbol - 1, -1, -1)
    return ((seq.symbols.astype(np.int64)[:, None] >> shifts) & 1).ravel()


class TestSymbolSequence:
    def test_from_bits_ignores_whitespace(self):
        seq = SymbolSequence.from_bits("01 0\n1")
        assert list(seq.symbols) == [0, 1, 0, 1]
        assert seq.bits_per_symbol == 1

    def test_from_bits_rejects_other_characters(self):
        with pytest.raises(ValueError):
            SymbolSequence.from_bits("0102")

    def test_symbols_must_fit_alphabet(self):
        with pytest.raises(ValueError):
            SymbolSequence([0, 4], bits_per_symbol=2)
        with pytest.raises(ValueError):
            SymbolSequence([-1], bits_per_symbol=1)
        # checked before the narrowing cast, which would wrap -1 to 65535
        with pytest.raises(ValueError, match=r"\[0, 2\^16\)"):
            SymbolSequence(np.array([0, -1]), bits_per_symbol=16)

    def test_non_integer_symbols_raise(self):
        # an integer cast would silently truncate these to [1, 0]
        with pytest.raises(ValueError, match="symbols must be integers"):
            SymbolSequence([1.9, 0.2], 1)

    def test_symbols_are_stored_narrow(self):
        for b in (1, 16, 17, 32, 33, 62):
            top = (1 << b) - 1
            seq = SymbolSequence(np.array([0, top], dtype=np.int64), b)
            assert seq.symbols.dtype == _symbol_dtype(b)
            assert seq.symbols.tolist() == [0, top]

    def test_unpacked_bytes_take_under_three_bytes_per_bit(self):
        data = np.random.default_rng(3).integers(0, 256, size=1 << 20, dtype=np.uint8)
        bits = np.unpackbits(data)
        tracemalloc.start()
        try:
            seq = SymbolSequence(bits, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(seq) == bits.size
        assert peak < 3 * bits.size

    def test_to_bitstring_round_trip(self):
        assert SymbolSequence.from_bits("0101").to_bitstring() == "0101"

    def test_to_bitstring_matches_the_per_symbol_rendering(self):
        bits = np.random.default_rng(2).integers(0, 2, size=1000)
        expected = "".join("1" if b else "0" for b in bits)
        assert SymbolSequence(bits, 1).to_bitstring() == expected

    def test_equality(self):
        assert SymbolSequence([1, 2, 3], 2) == SymbolSequence([1, 2, 3], 2)
        assert SymbolSequence([1], 1) != SymbolSequence([1], 2)

    def test_scale_limits(self):
        SymbolSequence([0], 62)
        for b in (0, 63):
            with pytest.raises(ValueError, match="scale must be in 1..62"):
                SymbolSequence([0], b)


class TestCheckScale:
    def test_accepts_1_to_62(self):
        assert [check_scale(b) for b in (1, 8, 62)] == [1, 8, 62]

    def test_rejects_outside(self):
        for b in (-1, 0, 63, 64, 1000):
            with pytest.raises(ValueError, match="scale must be in 1..62"):
                check_scale(b)


class TestDistribution:
    def test_symmetric_counts(self):
        assert estimate_distribution(SymbolSequence.from_bits("0101")) == {0: 0.5, 1: 0.5}

    def test_single_symbol(self):
        assert estimate_distribution(SymbolSequence.from_bits("1111")) == {1: 1.0}

    def test_reference_string_counts(self):
        # 22 zeros and 10 ones out of 32
        assert estimate_distribution(ref_seq()) == {0: 0.6875, 1: 0.3125}

    def test_empty_sequence_errors(self):
        with pytest.raises(ValueError, match="empty sequence"):
            estimate_distribution(SymbolSequence([], 1))

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        seq = SymbolSequence(rng.integers(0, 16, size=500), 4)
        dist = estimate_distribution(seq)
        assert all(p >= 0 for p in dist.values())
        assert abs(sum(dist.values()) - 1.0) < 1e-12


class TestShannonInformation:
    def test_balanced_is_maximal(self):
        assert shannon_information(SymbolSequence.from_bits("01" * 16)) == 1.0

    def test_constant_is_minimal(self):
        assert shannon_information(SymbolSequence.from_bits("1" * 16)) == 0.0

    def test_reference_string(self):
        assert shannon_information(ref_seq()) == pytest.approx(REF_INFO[1], abs=1e-6)

    def test_matches_oracle_on_random_sequences(self):
        rng = np.random.default_rng(11)
        for b in (1, 2, 4, 8):
            symbols = rng.integers(0, 1 << b, size=int(rng.integers(1, 400)))
            seq = SymbolSequence(symbols, b)
            expected = entropy_oracle(symbols, 1)
            assert shannon_information(seq) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_scale(self):
        rng = np.random.default_rng(13)
        for b in (1, 3, 6):
            seq = SymbolSequence(rng.integers(0, 1 << b, size=200), b)
            assert 0.0 <= shannon_information(seq) <= b

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        symbols = rng.integers(0, 4, size=101)
        seq = SymbolSequence(symbols, 2)
        shuffled = SymbolSequence(rng.permutation(symbols), 2)
        assert shannon_information(seq) == shannon_information(shuffled)


class TestRescale:
    def test_reference_rows(self):
        bits = ref_seq()
        for b, expected in REF_SYMBOLS.items():
            scaled = rescale(bits, b)
            assert list(scaled.symbols) == expected
            assert scaled.bits_per_symbol == b

    def test_alternating_pattern_collapses_at_two_bits(self):
        scaled = rescale(SymbolSequence.from_bits("1010101010"), 2)
        assert list(scaled.symbols) == [2, 2, 2, 2, 2]

    def test_remainder_discarded(self):
        scaled = rescale(SymbolSequence.from_bits("1111100"), 3)
        assert list(scaled.symbols) == [7, 6]

    def test_too_short_errors(self):
        with pytest.raises(ValueError, match="sequence too short for scale"):
            rescale(SymbolSequence.from_bits("101"), 4)

    def test_scale_out_of_range_errors(self):
        bits = SymbolSequence.from_bits("01" * 64)
        for b in (0, 63):
            with pytest.raises(ValueError, match="scale must be in 1..62"):
                rescale(bits, b)

    def test_requires_binary_input(self):
        with pytest.raises(ValueError):
            rescale(SymbolSequence([1, 2], 2), 2)

    def test_round_trip_on_retained_prefix(self):
        rng = np.random.default_rng(19)
        for b in (1, 2, 3, 5, 8):
            n = int(rng.integers(b, 200))
            bits = SymbolSequence(rng.integers(0, 2, size=n), 1)
            recovered = expand_to_bits(rescale(bits, b))
            keep = (n // b) * b
            assert np.array_equal(recovered, bits.symbols[:keep])


class TestNormalizedInformation:
    def test_reference_string_scales(self):
        bits = ref_seq()
        assert normalized_information(rescale(bits, 4)) == pytest.approx(REF_INFO[4], abs=1e-6)
        assert normalized_information(rescale(bits, 8)) == pytest.approx(REF_INFO[8], abs=1e-9)

    def test_constant_sequence_is_zero(self):
        for b in (1, 2, 8):
            seq = SymbolSequence([3 % (1 << b)] * 10, b)
            assert normalized_information(seq) == 0.0

    def test_finite_size_effect_on_short_random_strings(self):
        # With 1024 random bits, larger alphabets are undersampled, so the
        # mean normalized information decreases as the scale grows.
        rng = np.random.default_rng(23)
        trials = 100
        means = {}
        for b in (1, 2, 4, 8):
            values = []
            for _ in range(trials):
                bits = SymbolSequence(rng.integers(0, 2, size=1024), 1)
                values.append(normalized_information(rescale(bits, b)))
            means[b] = np.mean(values)
        assert means[8] < means[4] < means[2] <= means[1]


class TestMeasures:
    def test_emergence_ratio(self):
        assert emergence(1.0, 0.5) == 0.5

    def test_emergence_zero_input_errors(self):
        with pytest.raises(ValueError, match="undefined emergence"):
            emergence(0.0, 0.5)

    def test_simplified_emergence(self):
        assert simplified_measures(SymbolSequence.from_bits("1" * 20)).emergence == 0.0
        assert simplified_measures(ref_seq()).emergence == pytest.approx(REF_INFO[1], abs=1e-6)

    def test_self_organization_general(self):
        assert self_organization(1.0, 0.25) == 0.75
        assert self_organization(0.2, 0.9) == pytest.approx(-0.7)

    def test_simplified_self_organization(self):
        assert simplified_measures(ref_seq()).self_organization == pytest.approx(
            1.0 - REF_INFO[1], abs=1e-6
        )
        rng = np.random.default_rng(29)
        fair = SymbolSequence(rng.integers(0, 2, size=100_000), 1)
        assert simplified_measures(fair).self_organization == pytest.approx(0.0, abs=1e-3)

    def test_complexity_parabola(self):
        assert complexity(0.5, 0.5) == 0.25
        # two equiprobable symbols at scale 2 give I_b = 0.5, the peak
        half = SymbolSequence([0, 3] * 50, 2)
        assert simplified_measures(half).complexity == 1.0
        assert simplified_measures(SymbolSequence.from_bits("1" * 100)).complexity == 0.0
        assert simplified_measures(ref_seq()).complexity == pytest.approx(0.3726145, abs=1e-5)

    def test_simplified_identities(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            b = int(rng.integers(1, 9))
            n = int(rng.integers(b, 500))
            bits = SymbolSequence(rng.integers(0, 2, size=n), 1)
            ms = simplified_measures(rescale(bits, b))
            e = ms.emergence
            assert e == normalized_information(rescale(bits, b))
            assert abs(ms.self_organization - (1.0 - e)) <= 1e-12
            assert abs(ms.complexity - 4.0 * e * (1.0 - e)) <= 1e-12


class TestHammingAndHomeostasis:
    """``homeostasis`` is the one H function; ``1 - homeostasis`` is the
    normalized Hamming distance."""

    def test_identity(self):
        a = np.array([0, 1, 1, 0])
        assert homeostasis(a, a) == 1.0

    def test_complement(self):
        assert homeostasis([0, 1, 1, 0], [1, 0, 0, 1]) == 0.0

    def test_half_different(self):
        assert 1.0 - homeostasis([0, 0, 0, 0], [0, 1, 0, 1]) == 0.5

    def test_uncorrelated_states_near_half(self):
        rng = np.random.default_rng(37)
        a = rng.integers(0, 2, size=10_000)
        b = rng.integers(0, 2, size=10_000)
        assert homeostasis(a, b) == pytest.approx(0.5, abs=0.02)

    def test_mismatch_errors(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            homeostasis([0, 1], [0, 1, 1])
        with pytest.raises(ValueError, match="shape mismatch"):
            homeostasis(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="non-empty arrays"):
            homeostasis([], [])
        with pytest.raises(ValueError, match="non-empty arrays"):
            homeostasis(np.zeros((3, 0)), np.zeros((3, 0)))
        # a sequence object is not an array of symbols: refused, not compared
        seq = SymbolSequence.from_bits("0110")
        with pytest.raises(ValueError, match="non-empty arrays"):
            homeostasis(seq, seq)


def measure_report(tmp_path, capsys, bits, scales):
    """``infodyn measure`` on a bit string, through the CLI's one per-scale
    loop: ``({scale: row}, stderr)``, a row being ``None`` for a too-short
    scale."""
    path = tmp_path / "bits.txt"
    path.write_text(bits)
    assert main(["measure", str(path), "--format", "json",
                 "--scales", ",".join(map(str, scales))]) == 0
    out, err = capsys.readouterr()
    rows = json.loads(out)
    return {row["scale"]: None if row["E"] is None else row for row in rows}, err


class TestMultiscaleProfile:
    def test_alternating_string(self, tmp_path, capsys):
        profile, _ = measure_report(tmp_path, capsys, "10" * 16, [1, 2])
        assert profile[1]["E"] == 1.0
        assert profile[2]["E"] == 0.0

    def test_all_zero_string(self, tmp_path, capsys):
        profile, _ = measure_report(tmp_path, capsys, "0" * 64, [1, 2, 4, 8])
        for row in profile.values():
            assert (row["I_b"], row["E"], row["S"], row["C"]) == (0.0, 0.0, 1.0, 0.0)
            assert "H" not in row

    def test_reference_string_profile(self, tmp_path, capsys):
        profile, _ = measure_report(tmp_path, capsys, REF_BITS, [1, 2, 4, 8])
        bits = ref_seq()
        for b, expected in REF_INFO.items():
            assert profile[b]["E"] == pytest.approx(expected, abs=1e-6)
            assert profile[b]["E"] == float(
                format(simplified_measures(rescale(bits, b)).emergence, ".9g")
            )

    def test_scale_too_large_errors(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="sequence too short for scale"):
            rescale(SymbolSequence.from_bits("0101"), 8)
        # the report keeps the scale as a null row, with a warning
        profile, err = measure_report(tmp_path, capsys, "0101", [1, 8])
        assert profile[1] is not None and profile[8] is None
        assert "scale 8" in err


@st.composite
def split_bit_strings(draw):
    """(bits, blocks): a bit string and the same bits cut at random points,
    empty blocks included."""
    bits = np.array(draw(st.lists(st.integers(0, 1), max_size=400)), dtype=np.uint8)
    cuts = sorted(draw(st.lists(st.integers(0, bits.size), max_size=12)))
    return bits, np.split(bits, cuts)


class TestGroupSources:
    @pytest.mark.parametrize("scales, sources", [
        # 2, 4 and 8 group from the bits by one word multiply
        ((1, 2, 4, 8, 12, 16), {1: 1, 2: 1, 4: 1, 8: 1, 12: 4, 16: 8}),
        ((24, 3, 12, 6, 3), {3: 1, 6: 3, 12: 6, 24: 12}),
        ((5, 40, 10), {5: 1, 10: 5, 40: 10}),
        ((7, 9, 21), {7: 1, 9: 1, 21: 7}),
        ((), {}),
        ((16, 8, 4), {4: 1, 8: 1, 16: 8}),
    ])
    def test_each_scale_groups_from_its_largest_listed_divisor(self, scales, sources):
        result = _group_sources(scales)
        assert result == sources
        assert list(result) == sorted(sources)  # a source is grouped before its users


class TestStreamedMeasures:
    @settings(max_examples=200, deadline=None)
    @given(split_bit_strings())
    def test_equals_the_in_memory_measure_at_every_cut(self, case):
        bits, blocks = case
        # with and without 1, chains three deep, and shuffled with duplicates
        for scales in [(1, 2, 3, 4, 8, 12, 16, 17, 33), (3, 6, 12, 24), (5, 10, 40),
                       (16, 4, 12, 2, 4, 33, 8, 16, 1, 3), (1, 2, 4, 8, 12, 16)]:
            measured = streamed_measures(blocks, scales)
            assert list(measured) == list(dict.fromkeys(scales))
            for b in scales:
                if bits.size < b:
                    assert measured[b] is None
                else:
                    # exact: the same counts, in the same order, through one sum
                    assert measured[b] == simplified_measures(
                        rescale(SymbolSequence(bits, 1), b))

    def test_mostly_distinct_symbols_merge_in_order(self):
        # at b=40 nearly every group is a new symbol, so each block inserts
        # into the running counts rather than adding to them
        bits = np.random.default_rng(11).integers(0, 2, size=40 * 3001, dtype=np.uint8)
        measured = streamed_measures(np.array_split(bits, 37), [5, 40])
        for b in (5, 40):
            assert measured[b] == simplified_measures(rescale(SymbolSequence(bits, 1), b))

    @pytest.mark.parametrize("block", [np.array([0, 2]), np.array([256, 1]),
                                       np.array([0.5, 1.0]), np.zeros((2, 2), dtype=np.uint8)],
                             ids=["2", "256", "0.5", "2-D"])
    def test_blocks_must_be_1d_bits(self, block):
        with pytest.raises(ValueError, match="blocks must be 1-D arrays of bits"):
            streamed_measures([np.array([0, 1]), block], [1])

    def test_scales_are_checked(self):
        with pytest.raises(ValueError, match="scale must be in 1..62"):
            streamed_measures([np.array([0, 1])], [63])


class TestMeasureSet:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MeasureSet(1.5, 0.0, 0.0, None, 1)
        with pytest.raises(ValueError):
            MeasureSet(0.5, 0.5, 1.0, -0.2, 1)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            MeasureSet(0.0, 1.0, 0.0, 1.0, 0)


class TestUncorrelatedHomeostasis:
    def test_exact_form(self):
        assert uncorrelated_homeostasis(1) == 0.5
        assert uncorrelated_homeostasis(4) == 0.0625

    def test_alternative_form(self):
        assert uncorrelated_homeostasis(4, form="inv2b") == 0.125
        # the two conventions agree at scales 1 and 2
        for b in (1, 2):
            assert uncorrelated_homeostasis(b) == uncorrelated_homeostasis(b, form="inv2b")

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            uncorrelated_homeostasis(2, form="bogus")
