"""Information measures on discrete symbol sequences and series matrices.

Everything here is a pure function of its arguments.  The central object is a
:class:`SymbolSequence`: a finite string of symbols drawn from the alphabet
``{0 .. 2**b - 1}``, where ``b`` is the number of bits per symbol.  Binary
sequences (``b=1``) can be regrouped to coarser scales with :func:`rescale`,
and the four headline measures -- emergence, self-organization, complexity,
homeostasis -- are derived from plug-in Shannon information on the regrouped
string.

One kernel, :func:`_measure_blocks`, groups, counts and computes H for every
series: it reads a band of rows as column blocks and carries, per scale, a
tail of source symbols, each row's last two symbols (or a count of changes)
and the running ``(row, symbol, count)`` runs, and returns each row's
information and H data; scales 2, 4 and 8 are grouped from the bits by one
word multiply, 1, 2 and 4 are split from a listed double's counts (a larger
row table costs more than a sort), and a block may stand for ``m`` copies of
itself, so a cycling stack is read from one period.  Its entries check their
input and tile it: :func:`_stack_measures` reads a stack of equal-shape series
in bands of whole rows of at most ``_BLOCK_BITS`` bits (a longer row in column
blocks) and averages each series' rows, :func:`series_matrix_measures` is its
one-series case, and :func:`streamed_measures` hands over one bit string, read
block by block, as a single row.  No other module knows the symbol dtype or
the grouping order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .trajectory import _bit_text, _check_count, _first_nonbit, _text_bits

__all__ = [
    "SymbolSequence",
    "MeasureSet",
    "NORM_CONSTANT",
    "estimate_distribution",
    "shannon_information",
    "normalized_information",
    "check_scale",
    "rescale",
    "emergence",
    "self_organization",
    "complexity",
    "homeostasis",
    "simplified_measures",
    "series_matrix_measures",
    "streamed_measures",
    "uncorrelated_homeostasis",
]

# Normalizing constant ``a`` of the simplified complexity parabola
# ``C = a E (1 - E)``; 4 maps normalized information onto [0, 1].
NORM_CONSTANT = 4.0

# Grouped symbols and ``2**b`` must fit a signed 64-bit integer, so scales
# cannot exceed 62 bits.
_MAX_SCALE = 62

_RANGE_TOL = 1e-9

# a block's counts merge into the run before them while that run holds at most
# this many times their entries: a merge sorts both runs, so a larger ratio
# only re-sorts the running counts more often
_MERGE_RATIO = 2

# bits of one block of rows: the kernel's temporaries are a few bytes per bit
# of a block.  At 2^20 bits four desk ECA series share a block, and the
# kernel's peak was 3.5 times this one's for at most a fifth less time
_BLOCK_BITS = 1 << 18

# a fold plan fewer series than this share, in a larger stack, is read in full: its own
# kernel pass and merge of column-block counts cost about three 100 x 512 full reads
_FOLD_SERIES = 4


def check_scale(scale: int) -> int:
    """The one scale validator: ``scale``, an integer in ``1..62``, as an int."""
    return _check_count("scale", scale, 1, _MAX_SCALE)


@dataclass(frozen=True)
class SymbolSequence:
    """A finite sequence of symbols over the alphabet ``{0 .. 2**b - 1}``.

    Parameters
    ----------
    symbols : array-like of int
        The symbol values, in order; stored in the narrowest unsigned dtype
        of at least 16 bits that holds ``b`` bits.
    bits_per_symbol : int
        The scale ``b``; the alphabet size is ``2**b``.
    """

    symbols: np.ndarray
    bits_per_symbol: int = 1

    def __post_init__(self):
        b = check_scale(self.bits_per_symbol)
        symbols = np.asarray(self.symbols)
        if symbols.ndim != 1:
            raise ValueError("symbols must be one-dimensional")
        # checked in the input's own dtype: a cast would truncate or wrap
        if symbols.size and symbols.dtype.kind not in "biu":
            raise ValueError("symbols must be integers")
        if symbols.size and (symbols.min() < 0 or int(symbols.max()) >= (1 << b)):
            raise ValueError(f"symbols must lie in [0, 2^{b})")
        object.__setattr__(self, "symbols", symbols.astype(_symbol_dtype(b), copy=False))
        object.__setattr__(self, "bits_per_symbol", b)

    def __len__(self) -> int:
        return int(self.symbols.size)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymbolSequence)
            and self.bits_per_symbol == other.bits_per_symbol
            and np.array_equal(self.symbols, other.symbols)
        )

    @classmethod
    def from_bits(cls, bits: str | Iterable[int]) -> "SymbolSequence":
        """Build a binary (``b=1``) sequence.

        Accepts a string of ``'0'``/``'1'`` characters (whitespace ignored)
        or any iterable of 0/1 integers.
        """
        return cls(_text_bits(bits)[0] if isinstance(bits, str) else list(bits), 1)

    def to_bitstring(self) -> str:
        """Canonical '0'/'1' text form; only defined for ``b=1`` sequences."""
        if self.bits_per_symbol != 1:
            raise ValueError("to_bitstring requires a binary sequence")
        return _bit_text(self.symbols)


@dataclass(frozen=True)
class MeasureSet:
    """The measure tuple (E, S, C, H) at one scale.

    ``homeostasis`` is ``None`` when the producing pipeline has no paired
    states to compare (e.g. a profile of a single sequence).
    """

    emergence: float
    self_organization: float
    complexity: float
    homeostasis: float | None
    scale: int

    def __post_init__(self):
        object.__setattr__(self, "scale", check_scale(self.scale))
        for name in ("emergence", "self_organization", "complexity", "homeostasis"):
            value = getattr(self, name)
            if value is None:
                continue
            if not (-_RANGE_TOL <= value <= 1.0 + _RANGE_TOL):
                raise ValueError(f"{name} out of range [0, 1]: {value!r}")


def _require_nonempty(seq: SymbolSequence) -> None:
    if len(seq) == 0:
        raise ValueError("empty sequence")


def estimate_distribution(seq: SymbolSequence) -> dict[int, float]:
    """Plug-in (empirical frequency) distribution of the symbols.

    Symbols absent from the sequence are omitted from the result.
    """
    _require_nonempty(seq)
    _, values, counts = _row_counts(seq.symbols[None, :])
    n = seq.symbols.size
    return {int(v): int(c) / n for v, c in zip(values, counts)}


def shannon_information(seq: SymbolSequence) -> float:
    """Shannon information of the plug-in distribution, in bits.

    ``I = -sum(P(x) * log2(P(x)))`` with the convention ``0*log(0) = 0``;
    the result lies in ``[0, bits_per_symbol]``.
    """
    _require_nonempty(seq)
    # + 0.0 turns the -0.0 of a constant sequence into 0.0
    return float(_row_information(seq.symbols[None, :])[0]) + 0.0


def normalized_information(seq: SymbolSequence) -> float:
    """Shannon information divided by the scale ``b``, in ``[0, 1]``."""
    return shannon_information(seq) / seq.bits_per_symbol


def rescale(bits: SymbolSequence, target_b: int) -> SymbolSequence:
    """Group a binary sequence into ``target_b``-bit symbols, MSB first.

    Non-overlapping groups of ``target_b`` consecutive bits become one symbol
    each; a trailing remainder of fewer than ``target_b`` bits is discarded.
    At ``target_b=1`` the sequence is its own regrouping and is returned as is.
    """
    if bits.bits_per_symbol != 1:
        raise ValueError("rescale requires a binary (b=1) sequence")
    target_b = check_scale(target_b)
    if len(bits) < target_b:
        raise ValueError("sequence too short for scale")
    if target_b == 1:
        return bits
    # as uint8, which the word multiply groups
    bits_u8 = bits.symbols.astype(np.uint8)[None, :]
    return SymbolSequence(_group_symbols(bits_u8, target_b)[0], target_b)


def _symbol_dtype(scale: int) -> np.dtype:
    """The narrowest unsigned dtype of at least 16 bits that holds ``scale``
    bits; numpy sorts 16-bit integers with SIMD, but not 8-bit ones."""
    return np.dtype(np.uint16 if scale <= 16 else np.uint32 if scale <= 32 else np.uint64)


# sum of 2^(9i), i < count: a multiply moves the bit of byte count-1-i of a
# little-endian word to bit i of its top byte, and no two shifted bits meet
_WORD_MULTIPLIERS = {2: 0x0201, 4: 0x08040201, 8: 0x8040201008040201}


def _group_symbols(symbols: np.ndarray, count: int, width: int = 1) -> np.ndarray:
    """Regroup rows of a (units x length) matrix of ``width``-bit symbols (bits
    are ``width=1``) into MSB-first ``count * width``-bit symbols of
    :func:`_symbol_dtype`: uint8 bits laid out along the row 2, 4 or 8 at a
    time by one multiply and shift of them read as words, else by shift-or
    over ``count`` planes read in the input's own memory order; only the
    result is laid out row by row."""
    units, length = symbols.shape
    groups = length // count
    dtype = _symbol_dtype(count * width)
    if (width == 1 and count in _WORD_MULTIPLIERS and symbols.dtype == np.uint8
            and symbols.strides[1] == 1):
        words = symbols[:, : groups * count].view(f"<u{count}")
        words = words * words.dtype.type(_WORD_MULTIPLIERS[count])
        words >>= words.dtype.type(8 * count - 8)
        return words.astype(dtype, copy=False)
    planes = symbols[:, : groups * count].reshape(units, groups, count)
    grouped = planes[:, :, 0].astype(dtype)
    for k in range(1, count):
        grouped <<= width
        grouped |= planes[:, :, k]
    return np.ascontiguousarray(grouped)


def _group_sources(scales: Iterable[int]) -> dict[int, int]:
    """The one regrouping rule: each scale ``b``, ascending, mapped to the
    largest other listed scale ``d`` that divides it, or to 1 (the bits) when
    none does or when ``b`` is 2, 4 or 8 (one word multiply).  Scale ``b`` is
    grouped ``b // d`` symbols of ``d`` bits at a time, which is exact
    because ``floor(floor(L / d) / (b / d)) = floor(L / b)``."""
    listed = sorted(set(scales))
    return {b: 1 if b in _WORD_MULTIPLIERS else
            max((d for d in listed if d < b and b % d == 0), default=1) for b in listed}


def _row_counts(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one symbol counter: ``(row, symbol, count)`` of each distinct symbol
    of each row of a 2-D array, rows in order and symbols ascending; rows in
    the narrowest unsigned dtype that holds them.

    These are the run lengths of the sorted rows, so memory grows with the
    array, never with the alphabet.
    """
    ordered = np.sort(symbols, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.flatnonzero(starts)
    counts = np.empty_like(first)  # np.diff(first, append=...) takes about 12x as long
    np.subtract(first[1:], first[:-1], out=counts[:-1])
    counts[-1:] = ordered.size - first[-1:]
    rows = (first // ordered.shape[1]).astype(np.min_scalar_type(max(len(ordered) - 1, 0)))
    return rows, ordered.ravel()[first], counts


def _row_information(symbols: np.ndarray) -> np.ndarray:
    """The plug-in Shannon information, in bits, of each row of a 2-D symbol
    array, over the symbols that row actually shows."""
    rows, _, counts = _row_counts(symbols)
    return _count_information(rows, counts, symbols.shape)


def _count_information(
    rows: np.ndarray, counts: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """The one entropy sum: the plug-in Shannon information, in bits, of each
    of ``shape[0]`` rows of ``shape[1]`` symbols, from the ``(row, count)``
    pairs of the symbols that occur, in :func:`_row_counts` order."""
    p = counts / shape[1]
    # counts of symbols that occur are always positive, so log2 is safe here
    return -np.bincount(rows, weights=p * np.log2(p), minlength=shape[0])


def _merge_counts(runs: list) -> None:
    """Replace the last two ``(row, symbol, count)`` runs of ``runs``, each
    ascending by ``(row, symbol)``, by their merge: a stable sort of their
    concatenation by ``(row, symbol)`` (``np.lexsort``, which finds the two
    presorted runs), then the count of each equal pair of neighbours summed.
    It builds no composite key, so it holds at every number of rows and every
    scale.  The two runs are freed once concatenated, and the columns are
    reordered one at a time, so a merge peaks near its concatenation."""
    rows, symbols, counts = (np.concatenate(pair) for pair in zip(runs.pop(-2), runs.pop()))
    order = np.lexsort((symbols, rows))
    rows = rows[order]
    symbols = symbols[order]
    counts = counts[order]
    del order
    # a run holds each (row, symbol) once, so an equal pair is one from each
    same = np.flatnonzero((rows[1:] == rows[:-1]) & (symbols[1:] == symbols[:-1]))
    counts[same] += counts[same + 1]
    keep = np.ones(rows.size, dtype=bool)
    keep[same + 1] = False
    rows = rows[keep]
    symbols = symbols[keep]
    runs.append((rows, symbols, counts[keep]))


def _merge_runs(runs: list, ratio: float) -> None:
    """Merge the newest of a list of ``(row, symbol, count)`` runs into the
    one before it while that one holds at most ``ratio`` times as many
    entries (all of them, for an infinite ratio).

    With few distinct symbols every block's run merges into one running
    count at once.  When most symbols are distinct (large ``b``), runs merge
    like the digits of a binary counter instead, so a symbol is copied
    O(log blocks) times, not once per later block as a single running count
    would copy it.
    """
    while len(runs) > 1 and runs[-2][0].size <= ratio * runs[-1][0].size:
        _merge_counts(runs)


def emergence(i_in: float, i_out: float) -> float:
    """General-form emergence: the ratio of produced to supplied information."""
    if i_in == 0:
        raise ValueError("undefined emergence: zero input information")
    return i_out / i_in


def self_organization(i_in: float, i_out: float) -> float:
    """General-form self-organization: the information reduction ``i_in - i_out``.

    Negative values signal net information production.
    """
    return i_in - i_out


def complexity(e: float, s: float) -> float:
    """General-form complexity: the product of emergence and self-organization."""
    return e * s


def homeostasis(before: np.ndarray, after: np.ndarray) -> float:
    """One minus the normalized Hamming distance between two symbol arrays of
    equal shape, such as successive macro-states: 1 means no change."""
    before, after = np.asarray(before), np.asarray(after)
    if before.shape != after.shape:
        raise ValueError(f"shape mismatch: {before.shape} != {after.shape}")
    if before.ndim == 0 or before.size == 0:
        raise ValueError("states must be non-empty arrays")
    return 1.0 - float(np.mean(before != after))


def simplified_measures(seq: SymbolSequence) -> MeasureSet:
    """Simplified (E, S, C) of one sequence at its own scale; H is None.

    With random input assumed, E is the normalized information ``I_b``,
    ``S = 1 - E`` and ``C = 4 E (1 - E)``, which spans ``[0, 1]`` and peaks
    at ``E = 0.5``.
    """
    b = seq.bits_per_symbol
    return _measure_set(min(max(shannon_information(seq) / b, 0.0), 1.0), None, b)


def _measure_set(e: float, h: float | None, scale: int) -> MeasureSet:
    """The one E/S/C builder: ``S = 1 - E`` and ``C = 4 E (1 - E)`` from a
    clipped emergence ``e``, with homeostasis ``h`` (or ``None``)."""
    return MeasureSet(
        emergence=e,
        self_organization=1.0 - e,
        complexity=NORM_CONSTANT * e * (1.0 - e),
        homeostasis=h,
        scale=scale,
    )


def _group_sets(
    info: np.ndarray, h: np.ndarray | None, scale: int
) -> list[MeasureSet]:
    """The one E rule: a :class:`MeasureSet` per row of ``info`` (groups x
    units of normalized information), whose E is the mean of that group's
    clipped information, with the group's H from ``h`` (or ``None``)."""
    e = np.clip(info, 0.0, 1.0).mean(axis=1).tolist()
    return [_measure_set(e_i, h_i, scale)
            for e_i, h_i in zip(e, [None] * len(e) if h is None else h.tolist())]


def _measure_blocks(
    blocks: Iterable[np.ndarray], scales: Iterable[int], h: str | None
) -> dict[int, tuple[np.ndarray, np.ndarray | None] | None]:
    """The one measurement kernel: at each scale, per row of a band of rows
    read as column blocks (uint8 bits, one row per unit), the row's
    normalized information and its H data.

    Each block's fresh symbols of the source scale ``d`` of ``b`` (see
    :func:`_group_sources`), behind the fewer than ``b / d`` per row left
    over by the block before, become its ``b``-symbols, whose ``(row, symbol,
    count)`` runs merge into the running counts (:func:`_merge_runs`); one
    block is counted once and never merged.  A scale ``b <= 4`` listed with
    ``2b`` is never counted per block: a ``b``-symbol is the high or the low
    half of a ``2b``-symbol, so its counts are the ``2b`` counts split by those
    halves, plus each row's last ``b``-symbol when its count of them is odd, in
    one ``units x 2^b`` table built at the end, larger scales first (above 4, a
    row's table costs more than sorting its symbols).  Any other ``b = 1`` is a
    table of each row's zeros and ones.  A table's nonzero cells, row-major,
    are in :func:`_row_counts` order, so every value keeps its bytes.  ``h`` is
    ``None`` (no H data; a scale needs one group), ``"final"`` (whether each
    row's last two macro-states differ, from its last two symbols) or
    ``"all"`` (each row's count of changes between successive macro-states);
    with H a scale needs two groups.  A scale with too few groups is ``None``.

    A block may come as a pair ``(block, m)``: the block read ``m >= 1``
    times in a row.  Its counts, ones and groups count ``m`` times, and under
    ``"all"`` its inner changes count ``m`` times, its left edge once and its
    wrap (its last group, then its first) ``m - 1`` times.  Every listed scale
    must divide the columns before it and its own width, so that no group
    or tail crosses its edges.
    """
    measured = dict.fromkeys(map(check_scale, scales))
    sources = _group_sources(measured)
    halved = {b for b in (1, 2, 4) if b in sources and 2 * b in sources}
    runs = {b: [] for b in sources}
    groups = dict.fromkeys(sources, 0)
    changes = dict.fromkeys(sources, 0)
    tails, last = {}, {}
    ones = units = 0
    for block in blocks:
        block, m = block if isinstance(block, tuple) else (block, 1)
        units = block.shape[0]
        fresh = {1: block}
        for b, d in sources.items():
            if b == 1:
                grouped = block
                if 1 not in halved:  # a uint32 sum is 3x faster than count_nonzero by row
                    wide = np.uint32 if block.shape[1] < 1 << 32 else np.uint64
                    ones += m * block.sum(axis=1, dtype=wide).astype(np.int64)
            else:
                symbols = fresh[d]
                if b in tails:
                    symbols = np.concatenate((tails.pop(b), symbols), axis=1)
                used = symbols.shape[1] - symbols.shape[1] % (b // d)
                if used < symbols.shape[1]:
                    tails[b] = symbols[:, used:].copy()
                grouped = fresh[b] = _group_symbols(symbols, b // d, d)
                if used and b not in halved:
                    rows, values, counts = _row_counts(grouped)
                    counts *= m
                    runs[b].append((rows, values, counts))
                    _merge_runs(runs[b], _MERGE_RATIO)
            if not grouped.shape[1]:
                continue
            groups[b] += m * grouped.shape[1]
            before = last.get(b, grouped[:, :0])
            if h == "all":  # the pairs inside the block and across its left edge
                changes[b] += m * np.count_nonzero(grouped[:, 1:] != grouped[:, :-1], axis=1)
                changes[b] += np.count_nonzero(grouped[:, :1] != before[:, -1:], axis=1)
                if m > 1:
                    wrap = np.count_nonzero(grouped[:, :1] != grouped[:, -1:], axis=1)
                    changes[b] += (m - 1) * wrap
            ends = (before,) + (grouped[:, -2:],) * min(m, 2)
            last[b] = np.concatenate(ends, axis=1)[:, -2:]
    fresh = grouped = symbols = None  # the last block's symbols, before any table
    tables = {}  # dense counts, units x 2^b cells: halved scales, and b = 1
    for b in sorted(sources, reverse=True):
        keys = rows = counts = None  # the scale before's, ahead of this one's table
        if b in halved:  # each 2b-symbol counts once by its high and once by its low b bits
            if 2 * b in halved:
                tables[b] = tables[2 * b].reshape(units, 1 << b, 1 << b).sum(axis=2)
                tables[b] += tables.pop(2 * b).reshape(units, 1 << b, 1 << b).sum(axis=1)
            else:
                _merge_runs(runs[2 * b], np.inf)
                rows, values, counts = (runs[2 * b] or [(np.zeros(0, np.int64),) * 3])[0]
                keys, counts = rows.astype(np.int64) << b, counts.astype(float)
                tables[b] = np.zeros((units, 1 << b))
                for half in (values >> b, values & (1 << b) - 1):  # float: add.at's fast path
                    np.add.at(tables[b].ravel(), keys | half, counts)
            if groups[b] > 2 * groups[2 * b]:  # an odd count: the last b-symbol is no half
                tables[b][np.arange(units), last[b][:, -1]] += 1
        if groups[b] < (1 if h is None else 2):
            continue
        if b == 1 and b not in halved:  # zeros and ones
            tables[1] = np.stack((groups[1] - ones, ones), axis=1)
        if b in tables:  # nonzero cells by (row, symbol): _row_counts order
            rows = np.flatnonzero(tables[b])
            counts = tables[b].ravel()[rows]
            rows >>= b
        else:
            _merge_runs(runs[b], np.inf)
            rows, _, counts = runs[b][0]
        info = _count_information(rows, counts, (units, groups[b])) / b
        if h == "final":
            measured[b] = info, last[b][:, 0] != last[b][:, 1]
        else:
            measured[b] = info, (changes[b] if h == "all" else None)
    return measured


def _stack_measures(
    series: Iterable[np.ndarray], cycles: Sequence[tuple[int, int] | None] | None,
    scales: Iterable[int], *, average_h: bool = False,
) -> dict[int, list[MeasureSet] | None]:
    """:func:`series_matrix_measures` of a stack of equal-shape series, per
    scale a :class:`MeasureSet` per series in order (``None`` if too short),
    from one kernel pass (:func:`_measure_blocks`) per band of whole rows.

    ``cycles`` holds each series' ``(begin, period)`` in window columns from
    the record loop (:func:`infodyn.trajectory._record_runs`), or is ``None``
    (no cycles).  With ``L = lcm(period, *scales)`` and ``c0`` the first
    multiple of ``L`` at or after ``begin``, a window of ``m = (window - c0)
    // L >= 2`` such blocks has the plan ``(c0, L)``: columns ``[0, c0)``,
    then ``[c0, c0 + L)`` as a block repeated ``m`` times, then its first
    ``(window - c0) % L`` columns give the counts and H data of a full read.
    A plan whose ``L`` exceeds ``_BLOCK_BITS``, or that fewer than
    ``_FOLD_SERIES`` series of a larger stack share, is read in full.

    Series of one plan share bands: as many whole rows of the columns read
    as fit ``_BLOCK_BITS`` bits; a longer row is a band of its own, read in
    column blocks.  A series is taken once the bands before it are measured,
    and a band it fills is measured once it is let go.  The held rows of
    whole series, once a few thousand, become their sets: E is the mean of a
    series' rows' clipped information and H follows from their integer
    counts, so each value is what one pass over that series gives.
    """
    h = "all" if average_h else "final"
    measured = dict.fromkeys(map(check_scale, scales))
    bands, shape, index = {}, None, -1  # plan (or None) -> its band

    def measure(key: tuple[int, int] | None, band: dict) -> None:
        rows = band["pieces"][0] if len(band["pieces"]) == 1 else np.concatenate(band["pieces"])
        band["pieces"], band["rows"] = [], 0  # before the kernel's temporaries
        plain, folded = shape[1], []
        if key is not None:
            plain, span = key
            folded = [(plain, plain + span, (shape[1] - plain) // span),
                      (plain, plain + (shape[1] - plain) % span, 1)]
        width = max(_BLOCK_BITS // len(rows), 1)
        cuts = [(at, min(at + width, plain), 1) for at in range(0, plain, width)] + folded

        def blocks():
            for start, stop, m in cuts:
                block = rows[:, start:stop].astype(np.uint8, copy=False)
                yield block if m == 1 else (block, m)

        for b, result in _measure_blocks(blocks(), measured, h).items():
            if result is not None:
                band["held"].setdefault(b, []).append(result)
        band["unset"] += len(rows)
        settle(band)

    def settle(band: dict, last: bool = False) -> None:
        if not last and band["unset"] < _BLOCK_BITS // 128:
            return
        units, length = shape
        whole, band["unset"] = band["unset"] - band["unset"] % units, band["unset"] % units
        for b, held in band["held"].items():
            info, differ = (np.concatenate(p) for p in zip(*held))
            held[:] = [(info[whole:], differ[whole:])]
            changed = differ[:whole].reshape(-1, units).sum(axis=1)
            h_b = 1.0 - changed / (units * (length // b - 1) if average_h else units)
            band["sets"].setdefault(b, []).extend(
                _group_sets(info[:whole].reshape(-1, units), h_b, b))

    for one in series:
        one = np.asarray(one)
        if one.ndim != 2 or not one.shape[0]:
            raise ValueError("series must be a 2-D (units x length) matrix of at least one unit")
        if _first_nonbit(one) is not None:
            raise ValueError("series must be binary")
        if shape is None:
            shape = one.shape
            plans = []
            for cycle in cycles or ():
                span = math.lcm(cycle[1], *measured) if cycle else _BLOCK_BITS + 1
                first = -(-cycle[0] // span) * span if cycle else 0
                fold = span <= _BLOCK_BITS and shape[1] - first >= 2 * span
                plans.append((first, span) if fold else None)
            shared = Counter(plans)
            folds = {i: key for i, key in enumerate(plans)
                     if key is not None and shared[key] >= min(_FOLD_SERIES, len(plans))}
        elif one.shape != shape:
            raise ValueError(f"the series of a stack must share a shape: {one.shape} != {shape}")
        index += 1
        key = folds.get(index)
        band = bands.setdefault(key, dict(series=[], pieces=[], rows=0, unset=0, held={}, sets={}))
        band["series"].append(index)
        read = shape[1] if key is None else sum(key)
        size = max(_BLOCK_BITS // max(read, 1), 1)  # rows a band holds
        at = 0
        while at < shape[0]:
            if band["rows"] == size:  # filled by this series, whose next rows need a band
                measure(key, band)
            take = min(size - band["rows"], shape[0] - at)
            # a copy of fewer columns than the row's: a view would keep the series
            band["pieces"].append(np.ascontiguousarray(one[at : at + take, :read]))
            band["rows"], at = band["rows"] + take, at + take
        del one  # before a band it filled is measured
        if band["rows"] == size:
            measure(key, band)
    if cycles is not None and len(cycles) != index + 1:
        raise ValueError(f"{len(cycles)} cycles for {index + 1} series")
    for key, band in bands.items():
        if band["pieces"]:
            measure(key, band)
        settle(band, last=True)
    order = np.argsort([i for band in bands.values() for i in band["series"]])
    for b in measured:
        sets = [one for band in bands.values() for one in band["sets"].get(b, [])]
        if sets or not bands:  # no sets from a series: too short for b
            measured[b] = [sets[i] for i in order]
    return measured


def series_matrix_measures(
    series: np.ndarray, scales: Iterable[int], *, average_h: bool = False
) -> dict[int, MeasureSet | None]:
    """Measure a stack of parallel binary series at each scale; ``None`` for
    a scale ``b`` the series are too short for (fewer than ``2 b`` columns).

    ``series`` has one row per unit (node, cell, row, or diagonal) and one
    column per observation.  The per-unit normalized information values are
    averaged into one system-level information, from which E, S, and C follow;
    H compares the final two macro-states, or, with ``average_h``, averages
    the comparison over all successive macro-state pairs (a smoother,
    non-default estimate).  This is the one-series case of
    :func:`_stack_measures`, so the kernel's memory grows with neither the
    series' length nor its number of rows.
    """
    return {b: None if sets is None else sets[0]
            for b, sets in _stack_measures([series], None, scales, average_h=average_h).items()}


def streamed_measures(
    blocks: Iterable[np.ndarray], scales: Iterable[int]
) -> dict[int, MeasureSet | None]:
    """Simplified (E, S, C) of one bit string, read block by block, at each
    scale; ``None`` for a scale longer than the string.  H is None.

    The string is the concatenation of ``blocks``, 1-D arrays of bits; each
    is checked and handed to the one kernel (:func:`_measure_blocks`) as a
    one-row column block.  Memory is therefore O(block + distinct symbols)
    per scale, not O(string), and each value is exactly
    ``simplified_measures(rescale(SymbolSequence(bits, 1), b))``.
    """
    def checked():
        for block in blocks:
            block = np.asarray(block)
            # checked in the block's own dtype: a uint8 cast would wrap 256 to 0
            if block.ndim != 1 or _first_nonbit(block) is not None:
                raise ValueError("blocks must be 1-D arrays of bits")
            yield block.astype(np.uint8, copy=False)[None, :]

    return {b: None if result is None else _group_sets(result[0][None, :], None, b)[0]
            for b, result in _measure_blocks(checked(), scales, None).items()}


def uncorrelated_homeostasis(scale: int, form: str = "exact") -> float:
    """Reference H between uncorrelated uniform random states at a scale.

    ``form="exact"`` gives ``2**-scale``, the probability that two independent
    uniform symbols match.  ``form="inv2b"`` gives the alternative ``1/(2*scale)``
    convention sometimes used for this reference line; the two coincide at
    scales 1 and 2.
    """
    scale = check_scale(scale)
    if form == "exact":
        return 2.0 ** -scale
    if form == "inv2b":
        return 1.0 / (2.0 * scale)
    raise ValueError(f"unknown baseline form: {form!r}")
