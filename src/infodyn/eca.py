"""Elementary cellular automata on a ring, with standard rule numbering.

Cell ``i`` updates from the neighborhood ``(left, center, right)`` read as a
3-bit number; rule ``r`` maps neighborhood ``k`` to bit ``k`` of ``r``.
Boundaries are periodic.  Series can be read out of a trajectory vertically
(one cell over time, the default), horizontally (one time slice), or along
down-left diagonals (tracking patterns that drift one cell per step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import MeasureSet
from .rbn import BooleanNetwork
from .trajectory import Trajectory, _check_run, _record_runs, series_matrix_measures

__all__ = [
    "EcaConfig",
    "rule_table",
    "eca_step",
    "run_eca",
    "run_eca_many",
    "eca_measures",
    "as_boolean_network",
    "ORIENTATIONS",
]

ORIENTATIONS = ("vertical", "horizontal", "diagonal")
INITS = ("random", "single_cell")

_BATCH = 64  # instances stepped together; bounds memory, never a result


def rule_table(number: int) -> np.ndarray:
    """The 8-entry uint8 output table of a rule (0..255), ``table[4l + 2c + r]``.

    This is the one place a rule number is validated.
    """
    number = int(number)
    if not 0 <= number <= 255:
        raise ValueError(f"rule out of range: {number} (must be in 0..255)")
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
        if self.n < 3:
            raise ValueError("n must be >= 3")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}")
        _check_run(self.transient, self.window, self.seed)


def _step_matrix(states: np.ndarray, table: np.ndarray) -> np.ndarray:
    # rows evolve independently; axis -1 is the ring
    left = np.roll(states, 1, axis=-1)
    right = np.roll(states, -1, axis=-1)
    return table[(left << 2) | (states << 1) | right]


def eca_step(state: np.ndarray | Sequence[int], table: np.ndarray) -> np.ndarray:
    """One synchronous update of an n-bit ring state under a :func:`rule_table`."""
    state = np.asarray(state, dtype=np.uint8)
    if state.ndim != 1 or state.size < 3:
        raise ValueError("state must be a ring of at least 3 bits")
    if state.max(initial=0) > 1:
        raise ValueError("state must be binary")
    return _step_matrix(state, np.asarray(table, dtype=np.uint8))


def run_eca(config: EcaConfig) -> Trajectory:
    """Record a window of states; the first recorded state is the one reached
    after ``transient`` steps (the initial state itself when transient=0)."""
    return run_eca_many(config, [config.seed])[0]


def run_eca_many(config: EcaConfig, seeds: Sequence[int]) -> list[Trajectory]:
    """Run one instance per seed (``config.seed`` is ignored), batching the
    rows through the update kernel; rows evolve independently, so a result
    does not depend on the batch it shares."""
    table = rule_table(config.rule)

    def start(chunk):
        if config.init == "random":
            states = np.array([
                np.random.default_rng(s).integers(0, 2, config.n, dtype=np.uint8) for s in chunk
            ])
        else:
            states = np.zeros((len(chunk), config.n), dtype=np.uint8)
            states[:, config.n // 2] = 1  # single cell, centered
        return states, lambda rows: _step_matrix(rows, table)

    return _record_runs(seeds, _BATCH, start, config.transient, config.window)


def _oriented_series(traj: Trajectory, orientation: str) -> np.ndarray:
    """Units x length bit matrix for the requested read-out direction."""
    states = traj.states
    if orientation == "vertical":
        return states.T
    if orientation == "horizontal":
        return states
    if orientation == "diagonal":
        # element t of diagonal u is states[t, (u - t) mod n]: a pattern
        # drifting one cell left per step reads as a constant series
        t = np.arange(traj.window)
        cols = (np.arange(traj.n)[:, None] - t[None, :]) % traj.n
        return states[t[None, :], cols]
    raise ValueError(f"orientation must be one of {ORIENTATIONS}")


def eca_measures(
    traj: Trajectory,
    scale: int,
    orientation: str = "vertical",
    *,
    average_h: bool = False,
) -> MeasureSet:
    """Automaton-level measures over series in the chosen orientation.

    Same pipeline as RBN network measures: per-series normalized information
    averaged into the system-level information behind E/S/C, H from the final
    two macro-states along the series axis.
    """
    return series_matrix_measures(
        _oriented_series(traj, orientation), scale, average_h=average_h
    )


def as_boolean_network(
    rule: int, n: int, state: np.ndarray | Sequence[int]
) -> BooleanNetwork:
    """The equivalent Boolean network: ring topology, one shared rule table.

    Node inputs are ``(i-1, i, i+1) mod n`` in that order, so the lookup index
    matches the automaton's ``(left, center, right)`` reading.
    """
    table = rule_table(rule)
    if n < 3:
        raise ValueError("n must be >= 3")
    idx = np.arange(n, dtype=np.int64)
    inputs = [np.array([(i - 1) % n, i, (i + 1) % n], dtype=np.int64) for i in idx]
    tables = [table.copy() for _ in idx]
    return BooleanNetwork(n, inputs, tables, np.asarray(state, dtype=np.uint8))
