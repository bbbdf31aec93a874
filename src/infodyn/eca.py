"""Elementary cellular automata on a ring, with standard rule numbering.

Cell ``i`` updates from the neighborhood ``(left, center, right)`` read as a
3-bit number; rule ``r`` maps neighborhood ``k`` to bit ``k`` of ``r``.
Boundaries are periodic.  Series can be read out of a trajectory vertically
(one cell over time, the default), horizontally (one time slice), or along
down-left diagonals (tracking patterns that drift one cell per step).

:func:`eca_step` is the plain per-cell table lookup.  :func:`run_eca_many`
steps up to 64 instances at once by multi-spin coding (Jacobs & Rebbi,
*J. Comput. Phys.* 41, 1981): cell ``i`` of the whole stack is one word of
the narrowest 8-, 16-, 32- or 64-bit dtype that holds the stack, bit ``j``
being instance ``j``, and a step is the rule's algebraic normal form over
the left, center and right words: the XOR of its linear terms and its AND
products, inverted when its constant term is set.  Only bitwise operations
touch a word, so instances never mix, and a stack that cycles stops
stepping (see the record loop).  Unstacking copies each byte of the words,
8 instances, out once, gathered in memory order and then transposed, and
shifts each out of it as it is taken, so a stack holds its words, one byte
plane and the series being read.  ``series`` holds the cells' series, which
the vertical read-out uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .measures import _BLOCK_BITS
from .rbn import BooleanNetwork, network_measures
from .trajectory import _RECORD_BUDGET, Trajectory, _check_count, _check_run, _first_nonbit
from .trajectory import _record_runs

__all__ = [
    "EcaConfig",
    "rule_table",
    "eca_step",
    "run_eca",
    "run_eca_many",
    "oriented_series",
    "as_boolean_network",
    "ORIENTATIONS",
]

ORIENTATIONS = ("vertical", "horizontal", "diagonal")
INITS = ("random", "single_cell")

_BATCH = 64  # instances stepped together, one bit of a word each; never a result


def rule_table(number: int) -> np.ndarray:
    """The 8-entry uint8 output table of a rule (0..255), ``table[4l + 2c + r]``.

    Every rule number is validated here, by the one integer validator.
    """
    number = _check_count("rule", number, 0, 255)
    return ((number >> np.arange(8)) & 1).astype(np.uint8)


@dataclass(frozen=True)
class EcaConfig:
    """Parameters of one automaton run; ``seed`` only affects a random init."""

    rule: int
    n: int = 256
    init: str = "random"
    transient: int = 1024
    window: int = 1024
    seed: int = 0

    def __post_init__(self):
        rule_table(self.rule)
        object.__setattr__(self, "rule", int(self.rule))
        _check_count("n", self.n, 3)
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}")
        # a stack of up to 8 instances records one byte per cell per step
        _check_run(self.transient, self.window, self.seed, self.n)


def eca_step(state: np.ndarray | Sequence[int], table: np.ndarray) -> np.ndarray:
    """One synchronous update of an n-bit ring state under a :func:`rule_table`."""
    state = np.asarray(state)
    if state.ndim != 1 or state.size < 3:
        raise ValueError("state must be a ring of at least 3 bits")
    if _first_nonbit(state) is not None:
        raise ValueError("state must be binary")
    state = state.astype(np.uint8, copy=False)
    left = np.roll(state, 1)
    right = np.roll(state, -1)
    return np.asarray(table, dtype=np.uint8)[(left << 2) | (state << 1) | right]


def run_eca(config: EcaConfig) -> Trajectory:
    """Record a window of states; the first recorded state is the one reached
    after ``transient`` steps (the initial state itself when transient=0)."""
    return run_eca_many(config, [config.seed])[0]


def _pack(states: np.ndarray) -> np.ndarray:
    """Bit-slice an (instances x n) stack of at most 64 rows into n little-endian
    words of the narrowest unsigned dtype that holds one bit per row."""
    dtype = np.dtype(f"<u{1 << ((len(states) - 1) >> 3).bit_length()}")
    shifts = np.arange(len(states), dtype=dtype)[:, None]
    return np.bitwise_or.reduce(states.astype(dtype) << shifts, axis=0)


def _sliced_step(rule: int, words: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The update of bit-sliced words of the size and dtype of ``words``, by
    the rule's algebraic normal form: the XOR of the linear terms and the
    products of left, center and right whose coefficient is set, inverted
    when the constant term is.  It returns a new array each step."""
    # coefficient m is the XOR of the table's entries k whose bits lie in m
    anf = [sum(rule >> k & 1 for k in range(8) if k & m == k) & 1 for m in range(8)]
    n, dtype = words.size, words.dtype
    ring = np.empty(n + 2, dtype=dtype)  # word n-1, the n words, word 0
    center = ring[1:-1]
    views = {4: ring[:-2], 2: center, 1: ring[2:]}  # left, center, right
    linear = [views[m] for m in (4, 2, 1) if anf[m]]
    products = [[views[bit] for bit in (4, 2, 1) if m & bit] for m in (6, 5, 3, 7) if anf[m]]

    def step(words: np.ndarray) -> np.ndarray:
        center[:] = words
        ring[0], ring[-1] = words[-1], words[0]
        out = linear[0].copy() if linear else np.zeros(n, dtype=dtype)
        for view in linear[1:]:
            out ^= view
        for first, second, *rest in products:
            product = first & second
            for view in rest:
                product &= view
            out ^= product
        if anf[0]:
            np.invert(out, out=out)
        return out

    return step


def run_eca_many(config: EcaConfig, seeds: Sequence[int]) -> list[Trajectory]:
    """Run one instance per seed (``config.seed`` is ignored), stepping up to
    64 rows at once as bit-sliced words; rows evolve independently, so a
    result does not depend on the batch it shares.  A stack holds as many rows
    as the widest word whose block fits the record budget; its series become trajectories."""
    return [Trajectory(series.T, config.transient)
            for stack, _ in _eca_stacks(config, seeds) for series in stack]


def _eca_stacks(config: EcaConfig, seeds: Sequence[int]) -> Iterator[tuple]:
    """The read-only ``n x window`` series of :func:`run_eca_many` as the record
    loop's ``(series, cycles)`` pairs, a stack at a time; each has the stack's cycle."""

    def start(chunk):
        if config.init == "random":
            states = np.array([
                np.random.default_rng(s).integers(0, 2, config.n, dtype=np.uint8) for s in chunk
            ])
        else:
            states = np.zeros((len(chunk), config.n), dtype=np.uint8)
            states[:, config.n // 2] = 1  # single cell, centered

        def unstack(recorded):
            # byte k of the words holds instances 8k..8k+7: copy it out once,
            # as n x window, and shift each of them out of that one copy as
            # it is taken.  No name here holds a series it has yielded
            planes = recorded.view(np.uint8).reshape(config.window, config.n, -1)
            for first in range(0, len(chunk), 8):
                # gathered in memory order, then transposed: a transpose of
                # the 8-byte-strided byte reads each cache line once per cell
                plane = [np.ascontiguousarray(planes[:, :, first // 8]).T.copy()]
                last = min(8, len(chunk) - first) - 1
                for j in range(last):
                    yield (plane[0] >> j) & 1
                plane[0] >>= last  # in place: the copy becomes the last instance
                yield np.bitwise_and(plane[0], 1, out=plane.pop())

        words = _pack(states)  # one member: the stack cycles whole, so it is never narrowed
        step = _sliced_step(config.rule, words)
        return words[None], lambda keep: step, unstack

    # the widest word (in bytes) whose block fits, so no stack's rounded-up word
    # outgrows the budget; EcaConfig has checked that one byte fits
    width = max(w for w in (1, 2, 4, 8) if w * config.n * config.window <= _RECORD_BUDGET)
    return _record_runs(seeds, min(_BATCH, 8 * width), start, config.transient, config.window)


def oriented_series(traj: Trajectory, orientation: str) -> np.ndarray:
    """Units x length bit matrix for the requested read-out direction."""
    if orientation == "vertical":
        return traj.series
    if orientation == "horizontal":
        return traj.states
    if orientation == "diagonal":
        # element t of diagonal u is series[(u - t) mod n, t]: a pattern
        # drifting one cell left per step reads as a constant series.  It is
        # gathered a block of at most _BLOCK_BITS entries at a time, so the
        # index stays small next to the series
        n, window = traj.n, traj.window
        diagonal = np.empty((n, window), dtype=np.uint8)
        rows = min(n, _BLOCK_BITS)
        cols = _BLOCK_BITS // rows
        for u in range(0, n, rows):
            for c in range(0, window, cols):
                t = np.arange(c, min(c + cols, window))
                index = np.subtract.outer(np.arange(u, min(u + rows, n)), t)
                index %= n
                diagonal[u : u + rows, c : c + cols] = traj.series[index, t]
                del index  # before the next block's index is built
        return diagonal
    raise ValueError(f"orientation must be one of {ORIENTATIONS}")


eca_measures = network_measures  # the traced replica's name for it; not exported


def as_boolean_network(
    rule: int, n: int, state: np.ndarray | Sequence[int]
) -> BooleanNetwork:
    """The equivalent Boolean network: ring topology, one shared rule table.

    Node inputs are ``(i-1, i, i+1) mod n`` in that order, so the lookup index
    matches the automaton's ``(left, center, right)`` reading.
    """
    table = rule_table(rule)
    _check_count("n", n, 3)
    idx = np.arange(n, dtype=np.int64)
    inputs = np.stack([(idx - 1) % n, idx, (idx + 1) % n], axis=1).ravel()
    return BooleanNetwork(np.full(n, 3), inputs, np.tile(table, n), state)
