"""Recorded state trajectories, the one record loop, and the dumps.

A :class:`Trajectory` is stored series-major: row ``i`` of ``series`` is the
time series of node/cell ``i``, the layout every measure reads, and
``states`` is its time-major view.  A simulator may step and record a stack
of instances in its own layout (RBN networks side by side, ECA instances
bit-sliced into 8- to 64-bit words); the record loop hands the recorded
block back to the simulator, which unstacks it into each instance's bare
series.  The loop stops stepping each member of a stack (an RBN network)
once its state recurs, copies its cycle through its window and hands each
series' ``(begin, period)`` on, so the sweep measures one period of it.  The
one binary-array check, the one seed validator, the one integer validator
(of every size, scale, rule and thread count), the one bits-to-text encoder
and the one text-to-bits decoder live here too.
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
) -> Iterator[tuple[Iterator[np.ndarray], list[tuple[int, int] | None]]]:
    """The one record loop of both simulators: one series per seed, in seed
    order, recorded and yielded one stack of at most ``batch`` at a time, as
    the pair ``(series, cycles)``.

    ``start(chunk)`` returns the stack's initial ``members x width`` state,
    ``update`` and ``unstack``.  ``update(keep)`` returns the step of the flat
    state of the members at positions ``keep`` of those it last stepped (all
    for ``None``); a member's next state is a pure function of its own, in a
    new array.  ``unstack`` yields each instance's C-contiguous uint8 ``n x
    window`` series, in chunk order, from the recorded ``window x members x
    width`` block.  An RBN network is a member; an ECA stack is one.  After
    ``transient`` steps, ``window`` states are recorded.  Every seed is checked
    first, and a stack is recorded only when the one before it is taken.

    At steps t < 8 and t % 8 == 0, each member is compared with its part of
    one mark, the stack state at step 0, 1, 2, 4, ... (Brent, *BIT* 20,
    1980); a member equal to it repeats with period ``t - marked``.  From the
    first repeat or the window on, step t is recorded in column ``(t -
    transient) mod window``, so a member is done once its last period is.
    When at least half the members stepped are done, the step is narrowed to
    the rest, and each member dropped has its last period moved into its
    cycle's columns and copied through its window.

    ``series`` yields the stack's series, each made read-only, and ``cycles``
    holds each series' ``(begin, p)``, ``begin`` the first window column of
    its cycle and ``p`` a period (not always the least), or ``None``.  The
    sweep's measure kernel reads each series from its own period
    (:func:`infodyn.measures._stack_measures`); other callers ignore cycles.
    """
    seeds = [_check_seed(seed) for seed in seeds]

    def record(chunk: list[int]) -> tuple[Iterator[np.ndarray], list]:
        state, update, unstack = start(chunk)
        members, width = state.shape
        recorded = np.empty((window, members, width), dtype=state.dtype)
        rows = recorded.reshape(window, -1)
        state, step, row = state.ravel(), update(None), np.dtype((np.void, width * state.itemsize))
        end = transient + window - 1  # the step of the last recorded state
        live = np.arange(members)  # the members still stepped, in stack order
        ready = np.full(members, end + 2)  # by when its last period is recorded (end + 2: unseen)
        cycles, stopped, found = [None] * members, [], 0
        mark, marked, t, since = state, 0, 0, transient  # every step from `since` on is recorded
        rows[-transient % window] = state  # with a transient, a later step overwrites it first
        while t < end and live.size:
            state, t = step(state), t + 1
            if t >= since:
                if live.size == members:
                    rows[(t - transient) % window] = state
                else:
                    recorded[(t - transient) % window, live] = state.reshape(-1, width)
            if t < 8 or not t % 8:
                same = state.view(row) == mark.view(row)  # each member's row as one value
                if same.any() and (same := same & (ready > end + 1)).any():
                    since, period = min(since, t + 1), t - marked
                    ready[same] = max(since, marked) + period - 1 if period <= window else end + 1
                    found += np.count_nonzero(same)
                    for member in live[same].tolist():
                        cycles[member] = (max(marked - transient, 0), period)
                if not t & (t - 1):
                    mark, marked = state, t
                done = ready <= t if 2 * found >= live.size else None
                if done is not None and 2 * np.count_nonzero(done) >= live.size:
                    stopped += [(member, t) for member in live[done].tolist()]
                    keep = np.flatnonzero(~done)
                    found -= live.size - keep.size
                    live, ready = live[keep], ready[keep]
                    state, mark = (a.reshape(-1, width)[keep].ravel() for a in (state, mark))
                    step = update(keep) if keep.size else step
        moves, fills = {}, {}  # the stopped members by cycle and last step, and by cycle
        for member, last in stopped:
            moves.setdefault((*cycles[member], last), []).append(member)
            fills.setdefault(cycles[member], []).append(member)
        for (begin, period, last), group in moves.items():  # last period into the cycle's columns
            steps = np.arange(last - period + 1, last + 1) - transient
            cycle, written = begin + (steps - begin) % period, steps % window
            recorded[np.ix_(cycle, group)] = recorded[np.ix_(written, group)]
        for (begin, period), group in fills.items():  # then copied through the window
            group = group if len(group) < members else slice(None)  # a slice copies faster
            copies, rest = divmod(window - begin, period)
            tiled = recorded[begin : begin + copies * period].reshape(copies, period, members, -1)
            tiled[1:, :, group] = recorded[begin : begin + period, group]
            recorded[window - rest :, group] = recorded[begin : begin + rest, group]
        read_only = map(lambda one: one.setflags(write=False) or one, unstack(recorded))
        return read_only, [c for c in cycles for _ in chunk[::members]]

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
