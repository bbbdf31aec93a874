import math
from collections import Counter

import numpy as np
import pytest

from infodyn.measures import (
    MeasureSet,
    SymbolSequence,
    check_scale,
    complexity,
    emergence,
    estimate_distribution,
    expand_to_bits,
    hamming_distance,
    homeostasis,
    multiscale_profile,
    normalized_information,
    rescale,
    self_organization,
    shannon_information,
    simplified_measures,
    uncorrelated_homeostasis,
)

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

    def test_to_bitstring_round_trip(self):
        assert SymbolSequence.from_bits("0101").to_bitstring() == "0101"

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
            assert np.array_equal(recovered.symbols, bits.symbols[:keep])


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
    def test_identity(self):
        a = SymbolSequence.from_bits("0110")
        assert hamming_distance(a, a) == 0.0
        assert homeostasis(a, a) == 1.0

    def test_complement(self):
        a = SymbolSequence.from_bits("0110")
        b = SymbolSequence.from_bits("1001")
        assert hamming_distance(a, b) == 1.0
        assert homeostasis(a, b) == 0.0

    def test_half_different(self):
        assert hamming_distance(
            SymbolSequence.from_bits("0000"), SymbolSequence.from_bits("0101")
        ) == 0.5

    def test_uncorrelated_states_near_half(self):
        rng = np.random.default_rng(37)
        a = SymbolSequence(rng.integers(0, 2, size=10_000), 1)
        b = SymbolSequence(rng.integers(0, 2, size=10_000), 1)
        assert homeostasis(a, b) == pytest.approx(0.5, abs=0.02)

    def test_mismatch_errors(self):
        with pytest.raises(ValueError, match="length mismatch"):
            hamming_distance(SymbolSequence.from_bits("01"), SymbolSequence.from_bits("011"))
        with pytest.raises(ValueError, match="scale mismatch"):
            hamming_distance(SymbolSequence([1, 0], 1), SymbolSequence([1, 0], 2))


class TestMultiscaleProfile:
    def test_alternating_string(self):
        profile = multiscale_profile(SymbolSequence.from_bits("10" * 16), [1, 2])
        assert profile[1].emergence == 1.0
        assert profile[2].emergence == 0.0

    def test_all_zero_string(self):
        profile = multiscale_profile(SymbolSequence.from_bits("0" * 64), [1, 2, 4, 8])
        for ms in profile.values():
            assert (ms.emergence, ms.self_organization, ms.complexity) == (0.0, 1.0, 0.0)
            assert ms.homeostasis is None

    def test_reference_string_profile(self):
        profile = multiscale_profile(ref_seq(), [1, 2, 4, 8])
        for b, expected in REF_INFO.items():
            assert profile[b].emergence == pytest.approx(expected, abs=1e-6)
            assert profile[b].scale == b

    def test_scale_too_large_errors(self):
        with pytest.raises(ValueError, match="scale 8"):
            multiscale_profile(SymbolSequence.from_bits("0101"), [1, 8])


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
