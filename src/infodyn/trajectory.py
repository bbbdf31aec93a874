"""Recorded state trajectories, the one record loop, and the per-series
measurement pipeline.

A :class:`Trajectory` is the observation window of a simulator run: a
``window x n`` binary matrix, rows in time order.  The measurement pipeline
regroups every series of the trajectory to a scale ``b``, averages the
per-series normalized information into one system-level value behind E, S,
and C, and derives H from the last two macro-states (the vectors of
per-series ``b``-bit symbols).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measures import MeasureSet, SymbolSequence, check_scale
from .measures import _group_symbols, _measure_set, _row_counts

__all__ = [
    "Trajectory",
    "node_series",
    "series_matrix_measures",
    "trajectory_csv",
    "trajectory_pbm",
]


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered recorded states of a run; transient steps are not stored.

    ``states[t, i]`` is the bit of node/cell ``i`` at observation step ``t``.
    """

    states: np.ndarray
    transient_length: int = 0

    def __post_init__(self):
        states = np.ascontiguousarray(self.states, dtype=np.uint8)
        if states.ndim != 2:
            raise ValueError("states must be a 2-D (time x nodes) matrix")
        if states.size and states.max() > 1:
            raise ValueError("states must be binary")
        if self.transient_length < 0:
            raise ValueError("transient_length must be >= 0")
        object.__setattr__(self, "states", states)

    @property
    def window(self) -> int:
        return int(self.states.shape[0])

    @property
    def n(self) -> int:
        return int(self.states.shape[1])

    def __len__(self) -> int:
        return self.window


def node_series(traj: Trajectory, node: int) -> SymbolSequence:
    """The binary time series of one node, in time order."""
    if not 0 <= node < traj.n:
        raise IndexError(f"node index out of range: {node}")
    return SymbolSequence(traj.states[:, node].astype(np.int64), 1)


def _check_run(transient: int, window: int, seed: int) -> None:
    """The one validator of the run parameters every simulator config has."""
    if transient < 0:
        raise ValueError("transient must be >= 0")
    if window < 2:
        raise ValueError("window must be >= 2")
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")


def _record_runs(
    seeds: Sequence[int], batch: int, start: Callable, transient: int, window: int
) -> list[Trajectory]:
    """The one record loop of both simulators: one trajectory per seed.

    ``start(chunk)`` returns the initial state of a stack of at most ``batch``
    instances (their states side by side once flattened) and its update; the
    stack runs ``transient`` steps, then ``window`` states are recorded.
    """
    seeds = list(seeds)
    trajectories: list[Trajectory] = []
    for first in range(0, len(seeds), batch):
        chunk = seeds[first : first + batch]
        state, step = start(chunk)
        for _ in range(transient):
            state = step(state)
        recorded = np.empty((window,) + state.shape, dtype=np.uint8)
        for t in range(window):
            recorded[t] = state
            state = step(state)
        blocks = recorded.reshape(window, len(chunk), -1)
        trajectories += [Trajectory(blocks[:, j].copy(), transient) for j in range(len(chunk))]
    return trajectories


def series_matrix_measures(
    series: np.ndarray, scale: int, *, average_h: bool = False
) -> MeasureSet:
    """Measure a stack of parallel binary series at one scale.

    ``series`` has one row per unit (node, cell, row, or diagonal) and one
    column per observation.  The per-unit normalized information values are
    averaged into one system-level information, from which E, S, and C follow;
    H compares the final two macro-states, or, with ``average_h``, averages
    the comparison over all successive macro-state pairs (a smoother,
    non-default estimate).  Symbols are counted by sorting each row, so
    memory is O(units x groups) at any scale in 1..62.
    """
    series = np.asarray(series)
    if series.ndim != 2:
        raise ValueError("series must be a 2-D (units x length) matrix")
    scale = check_scale(scale)
    units, length = series.shape
    if length < 2 * scale:
        raise ValueError(f"window too short for scale {scale}")

    symbols = _group_symbols(series, scale)
    groups = symbols.shape[1]

    # per-unit plug-in entropy over the symbols each unit actually shows
    rows, _, counts = _row_counts(symbols)
    p = counts / groups
    info = -np.bincount(rows, weights=p * np.log2(p), minlength=units) / scale

    if average_h:
        d = float(np.mean(symbols[:, 1:] != symbols[:, :-1]))
    else:
        d = float(np.mean(symbols[:, -1] != symbols[:, -2]))
    return _measure_set(float(np.clip(info, 0.0, 1.0).mean()), 1.0 - d, scale)


def trajectory_csv(traj: Trajectory) -> str:
    """CSV rendering: one row per time step, one column per node."""
    lines = [",".join(str(int(b)) for b in row) for row in traj.states]
    return "\n".join(lines) + "\n"


def trajectory_pbm(traj: Trajectory) -> str:
    """Plain PBM (P1) bitmap: rows are time steps, set bits are black."""
    header = f"P1\n{traj.n} {traj.window}\n"
    body = "\n".join(" ".join(str(int(b)) for b in row) for row in traj.states)
    return header + body + "\n"
