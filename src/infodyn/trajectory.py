"""Recorded state trajectories and the per-series measurement pipeline.

A :class:`Trajectory` is the observation window of a simulator run: a
``window x n`` binary matrix, rows in time order.  The measurement pipeline
regroups every series of the trajectory to a scale ``b``, averages the
per-series normalized information into one system-level value behind E, S,
and C, and derives H from the last two macro-states (the vectors of
per-series ``b``-bit symbols).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import NORM_CONSTANT, MeasureSet, SymbolSequence, _group_symbols, check_scale

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


def _row_counts(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, count)`` of each distinct symbol of each row, rows in order and
    symbols ascending: run lengths of the sorted rows, with no alphabet table."""
    ordered = np.sort(symbols, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.flatnonzero(starts)
    return first // ordered.shape[1], np.diff(first, append=ordered.size)


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
    rows, counts = _row_counts(symbols)
    p = counts / groups
    info = -np.bincount(rows, weights=p * np.log2(p), minlength=units) / scale

    e = float(np.clip(info, 0.0, 1.0).mean())
    c = NORM_CONSTANT * e * (1.0 - e)

    if average_h:
        d = float(np.mean(symbols[:, 1:] != symbols[:, :-1]))
    else:
        d = float(np.mean(symbols[:, -1] != symbols[:, -2]))

    return MeasureSet(
        emergence=e,
        self_organization=1.0 - e,
        complexity=c,
        homeostasis=1.0 - d,
        scale=scale,
    )


def trajectory_csv(traj: Trajectory) -> str:
    """CSV rendering: one row per time step, one column per node."""
    lines = [",".join(str(int(b)) for b in row) for row in traj.states]
    return "\n".join(lines) + "\n"


def trajectory_pbm(traj: Trajectory) -> str:
    """Plain PBM (P1) bitmap: rows are time steps, set bits are black."""
    header = f"P1\n{traj.n} {traj.window}\n"
    body = "\n".join(" ".join(str(int(b)) for b in row) for row in traj.states)
    return header + body + "\n"
