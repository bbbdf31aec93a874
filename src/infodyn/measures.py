"""Information measures on discrete symbol sequences.

Everything here is a pure function of its arguments.  The central object is a
:class:`SymbolSequence`: a finite string of symbols drawn from the alphabet
``{0 .. 2**b - 1}``, where ``b`` is the number of bits per symbol.  Binary
sequences (``b=1``) can be regrouped to coarser scales with :func:`rescale`,
and the four headline measures -- emergence, self-organization, complexity,
homeostasis -- are derived from plug-in Shannon information on the regrouped
string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SymbolSequence",
    "MeasureSet",
    "NORM_CONSTANT",
    "estimate_distribution",
    "shannon_information",
    "normalized_information",
    "check_scale",
    "rescale",
    "expand_to_bits",
    "emergence",
    "self_organization",
    "complexity",
    "hamming_distance",
    "homeostasis",
    "simplified_measures",
    "multiscale_profile",
    "uncorrelated_homeostasis",
]

# Normalizing constant ``a`` of the simplified complexity parabola
# ``C = a E (1 - E)``; 4 maps normalized information onto [0, 1].
NORM_CONSTANT = 4.0

# Symbols are packed into int64, so grouped scales cannot exceed 62 bits.
_MAX_SCALE = 62

_RANGE_TOL = 1e-9


def check_scale(scale: int) -> int:
    """The one scale validator: ``scale`` as an int in ``1..62``."""
    scale = int(scale)
    if not 1 <= scale <= _MAX_SCALE:
        raise ValueError(f"scale must be in 1..{_MAX_SCALE} (got {scale})")
    return scale


@dataclass(frozen=True)
class SymbolSequence:
    """A finite sequence of symbols over the alphabet ``{0 .. 2**b - 1}``.

    Parameters
    ----------
    symbols : array-like of int
        The symbol values, in order.
    bits_per_symbol : int
        The scale ``b``; the alphabet size is ``2**b``.
    """

    symbols: np.ndarray
    bits_per_symbol: int = 1

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.int64)
        if symbols.ndim != 1:
            raise ValueError("symbols must be one-dimensional")
        b = check_scale(self.bits_per_symbol)
        if symbols.size and (symbols.min() < 0 or int(symbols.max()) >= (1 << b)):
            raise ValueError(f"symbols must lie in [0, 2^{b})")
        object.__setattr__(self, "symbols", symbols)
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
        if isinstance(bits, str):
            cleaned = bits.split()
            joined = "".join(cleaned)
            if set(joined) - {"0", "1"}:
                raise ValueError("bit string may only contain '0', '1', and whitespace")
            values = np.frombuffer(joined.encode("ascii"), dtype=np.uint8) - ord("0")
        else:
            values = np.asarray(list(bits), dtype=np.int64)
        return cls(values.astype(np.int64), 1)

    def to_bitstring(self) -> str:
        """Canonical '0'/'1' text form; only defined for ``b=1`` sequences."""
        if self.bits_per_symbol != 1:
            raise ValueError("to_bitstring requires a binary sequence")
        return "".join("1" if s else "0" for s in self.symbols)


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
        check_scale(self.scale)
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
    _, _, counts = _row_counts(seq.symbols[None, :])
    p = counts / seq.symbols.size
    # counts of symbols that occur are always positive, so log2 is safe here
    return float(-(p * np.log2(p)).sum()) + 0.0


def normalized_information(seq: SymbolSequence) -> float:
    """Shannon information divided by the scale ``b``, in ``[0, 1]``."""
    return shannon_information(seq) / seq.bits_per_symbol


def rescale(bits: SymbolSequence, target_b: int) -> SymbolSequence:
    """Group a binary sequence into ``target_b``-bit symbols, MSB first.

    Non-overlapping groups of ``target_b`` consecutive bits become one symbol
    each; a trailing remainder of fewer than ``target_b`` bits is discarded.
    """
    if bits.bits_per_symbol != 1:
        raise ValueError("rescale requires a binary (b=1) sequence")
    target_b = check_scale(target_b)
    if len(bits) < target_b:
        raise ValueError("sequence too short for scale")
    return SymbolSequence(_group_symbols(bits.symbols[None, :], target_b)[0], target_b)


def _group_symbols(series: np.ndarray, scale: int) -> np.ndarray:
    """Regroup rows of a (units x length) bit matrix into MSB-first symbols."""
    if scale == 1:  # bits are their own 1-bit symbols: no matmul
        return np.ascontiguousarray(series, dtype=np.int64)
    units, length = series.shape
    groups = length // scale
    weights = np.int64(1) << np.arange(scale - 1, -1, -1, dtype=np.int64)
    blocks = series[:, : groups * scale].reshape(units, groups, scale)
    return blocks @ weights


def _row_counts(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one symbol counter: ``(row, symbol, count)`` of each distinct symbol
    of each row of a 2-D array, rows in order and symbols ascending.

    These are the run lengths of the sorted rows, so memory grows with the
    array, never with the alphabet.
    """
    ordered = np.sort(symbols, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=ordered.size)
    return first // ordered.shape[1], ordered.ravel()[first], counts


def expand_to_bits(seq: SymbolSequence) -> SymbolSequence:
    """Unpack each symbol into its ``bits_per_symbol`` bits, MSB first.

    Inverse of :func:`rescale` on the retained prefix.
    """
    _require_nonempty(seq)
    b = seq.bits_per_symbol
    shifts = np.arange(b - 1, -1, -1, dtype=np.int64)
    bits = (seq.symbols[:, None] >> shifts) & 1
    return SymbolSequence(bits.ravel(), 1)


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


def _check_comparable(a: SymbolSequence, b: SymbolSequence) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    if a.bits_per_symbol != b.bits_per_symbol:
        raise ValueError(
            f"scale mismatch: {a.bits_per_symbol} != {b.bits_per_symbol}"
        )
    if len(a) == 0:
        raise ValueError("empty sequence")


def hamming_distance(a: SymbolSequence, b: SymbolSequence) -> float:
    """Fraction of positions at which two equal-length sequences differ."""
    _check_comparable(a, b)
    return float(np.mean(a.symbols != b.symbols))


def homeostasis(a: SymbolSequence, b: SymbolSequence) -> float:
    """One minus the normalized Hamming distance: 1 means no change."""
    return 1.0 - hamming_distance(a, b)


def simplified_measures(seq: SymbolSequence) -> MeasureSet:
    """Simplified (E, S, C) of one sequence at its own scale; H is None.

    With random input assumed, E is the normalized information ``I_b``,
    ``S = 1 - E`` and ``C = 4 E (1 - E)``, which spans ``[0, 1]`` and peaks
    at ``E = 0.5``.
    """
    e = min(max(normalized_information(seq), 0.0), 1.0)
    return _measure_set(e, None, seq.bits_per_symbol)


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


def multiscale_profile(bits: SymbolSequence, scales: Sequence[int]) -> dict[int, MeasureSet]:
    """Simplified E, S, C of a binary sequence regrouped at each scale.

    Raises for any scale larger than the sequence; H requires paired states
    and is left to the simulator pipelines.
    """
    profile: dict[int, MeasureSet] = {}
    for b in scales:
        try:
            seq_b = rescale(bits, b)
        except ValueError as exc:
            raise ValueError(f"scale {b}: {exc}") from exc
        profile[int(b)] = simplified_measures(seq_b)
    return profile


def uncorrelated_homeostasis(scale: int, form: str = "exact") -> float:
    """Reference H between uncorrelated uniform random states at a scale.

    ``form="exact"`` gives ``2**-scale``, the probability that two independent
    uniform symbols match.  ``form="inv2b"`` gives the alternative ``1/(2*scale)``
    convention sometimes used for this reference line; the two coincide at
    scales 1 and 2.
    """
    check_scale(scale)
    if form == "exact":
        return 2.0 ** -scale
    if form == "inv2b":
        return 1.0 / (2.0 * scale)
    raise ValueError(f"unknown baseline form: {form!r}")
