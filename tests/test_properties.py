"""Property-based tests of the sequence-level invariants."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from infodyn.measures import (
    SymbolSequence,
    complexity,
    estimate_distribution,
    homeostasis,
    normalized_information,
    rescale,
    shannon_information,
    simplified_measures,
)
from test_measures import expand_to_bits

bits_lists = st.lists(st.integers(0, 1), min_size=1, max_size=400)


def seq_of(symbols, b):
    return SymbolSequence(np.asarray(symbols, dtype=np.int64), b)


@st.composite
def symbol_sequences(draw, max_b=8, max_len=200):
    b = draw(st.integers(1, max_b))
    symbols = draw(st.lists(st.integers(0, 2**b - 1), min_size=1, max_size=max_len))
    return seq_of(symbols, b)


@st.composite
def equal_length_triples(draw, max_b=4, max_len=60):
    b = draw(st.integers(1, max_b))
    length = draw(st.integers(1, max_len))
    element = st.integers(0, 2**b - 1)
    rows = [draw(st.lists(element, min_size=length, max_size=length)) for _ in range(3)]
    return tuple(np.asarray(row) for row in rows)


@settings(deadline=None)
@given(seq=symbol_sequences())
def test_information_bounded_by_scale(seq):
    info = shannon_information(seq)
    assert 0.0 <= info <= seq.bits_per_symbol + 1e-12
    assert 0.0 <= normalized_information(seq) <= 1.0 + 1e-12


@settings(deadline=None)
@given(seq=symbol_sequences())
def test_simplified_identity_chain(seq):
    ms = simplified_measures(seq)
    e = ms.emergence
    assert e == min(normalized_information(seq), 1.0)
    assert abs(ms.self_organization - (1.0 - e)) <= 1e-12
    assert abs(ms.complexity - 4.0 * e * (1.0 - e)) <= 1e-12


@settings(deadline=None)
@given(x=st.floats(0.0, 1.0))
def test_complexity_symmetric_about_half(x):
    assert complexity(x, 1.0 - x) == complexity(1.0 - x, x)


@settings(deadline=None)
@given(seq=symbol_sequences(max_len=80), data=st.data())
def test_entropy_is_permutation_invariant(seq, data):
    shuffled = data.draw(st.permutations(list(seq.symbols)))
    assert shannon_information(seq) == shannon_information(
        seq_of(shuffled, seq.bits_per_symbol)
    )


@settings(deadline=None)
@given(seq=symbol_sequences())
def test_distribution_is_normalized(seq):
    dist = estimate_distribution(seq)
    assert abs(sum(dist.values()) - 1.0) <= 1e-12
    assert all(p > 0 for p in dist.values())
    assert set(dist) == set(int(s) for s in seq.symbols)


@settings(deadline=None)
@given(bits=bits_lists, scale=st.integers(1, 16))
def test_rescale_round_trip(bits, scale):
    assume(len(bits) >= scale)
    seq = seq_of(bits, 1)
    recovered = expand_to_bits(rescale(seq, scale))
    keep = (len(bits) // scale) * scale
    assert np.array_equal(recovered, seq.symbols[:keep])


@settings(deadline=None)
@given(triple=equal_length_triples())
def test_hamming_is_a_metric(triple):
    # the normalized Hamming distance behind H is 1 - homeostasis
    def hamming_distance(x, y):
        return 1.0 - homeostasis(x, y)

    a, b, c = triple
    assert hamming_distance(a, a) == 0.0
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert (
        hamming_distance(a, c)
        <= hamming_distance(a, b) + hamming_distance(b, c) + 1e-12
    )
    assert 0.0 <= hamming_distance(a, b) <= 1.0
