"""Recorded state trajectories, the one record loop, and the dumps.

A :class:`Trajectory` is stored series-major: row ``i`` of ``series`` is the
time series of node/cell ``i``, the layout every measure reads, and
``states`` is its time-major view.  A simulator may step and record a stack
of instances in its own layout (RBN networks side by side, ECA instances
bit-sliced into 8- to 64-bit words); the record loop hands the recorded block back
to the simulator, which unstacks it into each instance's bare series.  The
loop stops stepping a stack whose state recurs, copies the cycle into the
rest of the window and hands the cycle's ``(begin, period)`` on with the
stack, so the sweep measures one period of it.  The one binary-array check,
the one seed validator, the one integer validator (of every size, scale,
rule and thread count), the one bits-to-text encoder and the one
text-to-bits decoder live here too.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Trajectory",
    "trajectory_csv",
    "trajectory_pbm",
]


def _first_nonbit(values: np.ndarray) -> int | None:
    """The one binary-array check: the flat index of the first entry of
    ``values`` that is neither 0 nor 1, or None.  It runs in the input's own
    dtype, since a uint8 cast would wrap 256 to 0 and truncate 0.5 to 0."""
    # an unsigned or bool array, as every trajectory is, needs no temporary mask
    if values.dtype.kind in "bu" and values.max(initial=0) <= 1:
        return None
    bad = (values != 0) & (values != 1)
    return int(bad.argmax()) if bad.any() else None


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of a run; transient steps are not stored.

    ``states[t, i]``, as passed in, is the bit of node/cell ``i`` at step
    ``t``.  It is stored once, as the read-only contiguous ``n x window``
    uint8 matrix ``series``, and ``states`` becomes the view ``series.T``.
    """

    states: np.ndarray
    transient_length: int = 0
    series: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        states = np.asarray(self.states)
        if states.ndim != 2:
            raise ValueError("states must be a 2-D (time x nodes) matrix")
        if _first_nonbit(states) is not None:
            raise ValueError("states must be binary")
        _check_count("transient_length", self.transient_length, 0)
        # no copy when ``states`` is already the transpose of a contiguous
        # series; the read-only flag is set on a view, never on a caller's array
        series = np.ascontiguousarray(states.T, dtype=np.uint8).view()
        series.flags.writeable = False
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "states", series.T)

    @property
    def window(self) -> int:
        return int(self.series.shape[1])

    @property
    def n(self) -> int:
        return int(self.series.shape[0])

    def __len__(self) -> int:
        return self.window


# bytes one stack may record (its window x state block); a run whose block
# alone is larger is refused.  A run holds its block and its series, one copy,
# so it peaks at about two blocks plus 30 MB in RSS: `rbn --n 100 --transient 0
# --window 524288` (52 MB) at 136 MB, `eca --rule 30 --n 256 --transient 0
# --window 262144` (67 MB) at 164 MB, so about 0.57 GB at this limit.  An ECA
# stack unstacks its series one at a time, so a sweep's stack holds its words,
# one byte plane and the series being measured: at most three blocks
_RECORD_BUDGET = 1 << 28


def _check_seed(seed: int) -> int:
    """The one seed validator, in the seed's own type: 2.5 is refused, not truncated."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return int(seed)


def _check_count(name: str, value: int, minimum: int, maximum: int | None = None) -> int:
    """The one integer validator (sizes, scales, rules, threads), in the
    value's own type: 2.5 is refused, not truncated.  Returns ``int(value)``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer (got {value!r})")
    if maximum is not None and not minimum <= value <= maximum:
        raise ValueError(f"{name} must be in {minimum}..{maximum} (got {value})")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum} (got {value})")
    return int(value)


def _check_run(transient: int, window: int, seed: int, step_bytes: int) -> None:
    """The one validator of the run parameters every simulator config has;
    ``step_bytes`` is what one stack records per step."""
    _check_count("transient", transient, 0)
    _check_count("window", window, 2)
    _check_seed(seed)
    if step_bytes * window > _RECORD_BUDGET:
        raise ValueError(f"recording {window:,} steps of {step_bytes:,} bytes needs"
                         f" {step_bytes * window:,} bytes, over the {_RECORD_BUDGET:,}-byte limit")


def _record_runs(
    seeds: Sequence[int], batch: int, start: Callable, transient: int, window: int
) -> Iterator[tuple[Iterator[np.ndarray], tuple[int, int] | None]]:
    """The one record loop of both simulators: one series per seed, in seed
    order, recorded and yielded one stack of at most ``batch`` at a time, as
    the pair ``(series, cycle)``.

    ``start(chunk)`` returns the initial state of a stack, its update, and
    ``unstack``, which yields each instance's C-contiguous uint8 ``n x window``
    series, in chunk order, from the recorded ``window x state`` block.  The
    stack runs ``transient`` steps, then ``window`` states are recorded.
    Every seed is checked before this returns, so before any stack runs.  A
    stack is recorded only when the one before it has been taken, and the
    loop keeps nothing of a stack it has yielded.

    The state is a 1-D array, and the update must be a pure function of the
    whole stack state that returns a new array, so a state that recurs starts
    a cycle.  Each state is compared with a mark, the state at step 0, 1, 2,
    4, ... (Brent, *BIT* 20, 1980).  Once the stack cycles with period ``p``,
    what is left of the transient shrinks to fewer than ``p`` steps, and the
    window's cycling states after its first ``p`` are copies of them, so a
    stack that settles is stepped a few times, not ``transient + window``.

    This is one contract for both simulators: ``series`` is a generator of
    the stack's series, each made read-only as it is taken, and ``cycle`` is
    ``(begin, p)``, ``begin`` the first window column of the cycle, or
    ``None`` when no state recurred.  A whole stack cycles together, so ``p``
    is a period (not always the least one) of each of its series.  The sweep
    hands it to the measure kernel, which then reads one period instead of
    the window (:func:`infodyn.measures._stack_measures`); every other
    caller ignores it.
    """
    seeds = [_check_seed(seed) for seed in seeds]

    def read_only(series: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
        for one in series:
            one.flags.writeable = False
            yield one
            del one  # before the next one is made

    def record(chunk: list[int]) -> tuple[Iterator[np.ndarray], tuple[int, int] | None]:
        state, step, unstack = start(chunk)
        recorded = np.empty((window,) + state.shape, dtype=state.dtype)
        recorded[0] = state
        end = transient + window - 1  # the step of the last recorded state
        mark, marked, period, t = state, 0, 0, 0  # `state` is the state at step t
        while t < end and not period:
            state, t = step(state), t + 1
            if t >= transient:
                recorded[t - transient] = state
            # one element first, so a stack that does not repeat seldom compares arrays
            if state[0] == mark[0] and np.array_equal(state, mark):
                period = t - marked  # every state from step `marked` on repeats
            elif t & (t - 1) == 0:
                mark, marked = state, t
        if period:
            if t < transient:  # the state at step `transient` is one a whole period on
                for _ in range((transient - t) % period):
                    state = step(state)
                recorded[0], t = state, transient
            begin = max(marked - transient, 0)  # the first recorded state of the cycle
            filled = min(begin + period, window)
            while t - transient < filled - 1:
                state, t = step(state), t + 1
                recorded[t - transient] = state
            while filled < window:  # each copy doubles the whole periods recorded
                size = min(filled - begin, window - filled)
                recorded[filled : filled + size] = recorded[begin : begin + size]
                filled += size
        return read_only(unstack(recorded)), (begin, period) if period else None

    return (record(seeds[first : first + batch]) for first in range(0, len(seeds), batch))


def _bit_text(bits: np.ndarray, sep: str = "") -> str:
    """The one bits-to-text encoder, whole-array: '0' or '1' per entry; with a
    one-character ``sep``, a 2-D array gives one line per row, joined by it."""
    text = np.asarray(bits, dtype=np.uint8) + ord("0")
    if sep:
        text = np.stack([text, np.full_like(text, ord(sep))], axis=-1)
        text[:, -1:, 1] = ord("\n")
    return text.tobytes().decode()


# code points below 256 that end a token: str.isspace(), and in CSV (row 1) a comma
_SEPARATORS = np.array([[c.isspace() or csv and c == "," for c in map(chr, range(256))]
                        for csv in (False, True)], dtype=bool)


def _text_bits(text: str, csv: bool = False, in_token: bool = False) -> tuple[np.ndarray, bool]:
    """The one text-to-bits decoder: the uint8 bits of the ``0``/``1`` tokens
    of ``text`` between separators, and whether it ends inside a token.  A CSV
    token is one character, so a token character needs a separator next to
    it; the character before ``text`` is one unless ``in_token``, the one flag
    a chunked reader carries.  One array check reads the text."""
    wide = not text.isascii()  # O(1); an ASCII text is read one byte a character
    codes = np.frombuffer(text.encode("utf-32-le" if wide else "ascii", "surrogatepass"),
                          dtype=np.uint32 if wide else np.uint8)
    sep = _SEPARATORS[int(csv)][np.minimum(codes, 255) if wide else codes]
    above = np.flatnonzero(codes > 255).tolist() if wide else []
    sep[above] = [text[i].isspace() for i in above]
    bits = codes[~sep] - ord("0")  # unsigned: a character below "0" wraps past 1 too
    if (bits > 1).any() or csv and not (sep | np.append(not in_token, sep[:-1])).all():
        raise ValueError("symbol CSV must contain only bits (0 or 1)" if csv else
                         "bit string may only contain '0', '1', and whitespace")
    return bits.astype(np.uint8, copy=False), (not sep[-1]) if sep.size else in_token


def trajectory_csv(traj: Trajectory) -> str:
    """CSV rendering: one row per time step, one column per node."""
    return _bit_text(traj.states, ",")


def trajectory_pbm(traj: Trajectory) -> str:
    """Plain PBM (P1) bitmap: rows are time steps, set bits are black."""
    return f"P1\n{traj.n} {traj.window}\n" + _bit_text(traj.states, " ")
