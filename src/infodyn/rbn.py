"""Random Boolean networks: generation, synchronous simulation, measurement.

Each node reads an ordered list of input nodes (first input = most significant
bit of the lookup index) and a private lookup table.  All nodes update
simultaneously.  Everything is deterministic given an explicit RNG or seed;
independent runs never share state, so they can execute concurrently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measures import MeasureSet
from .trajectory import Trajectory, _check_run, _record_runs, series_matrix_measures

__all__ = [
    "RbnConfig",
    "BooleanNetwork",
    "generate_rbn",
    "rbn_step",
    "run_rbn",
    "run_rbn_many",
    "network_measures",
    "serialize_network",
    "parse_network",
]

_BATCH = 128  # networks stepped together at most; never changes a result
# bytes of lookup table a stack of networks may take; RbnConfig rejects a
# network that alone needs more (n * 2^ceil(k) bytes)
_TABLE_BUDGET = 1 << 28


def _table_bytes(n: int, k: float) -> int:
    return n << math.ceil(k)


@dataclass(frozen=True)
class RbnConfig:
    """Parameters of one network run.

    ``k`` is the mean in-degree and may be fractional; ``transient`` steps are
    discarded before ``window`` states are recorded.
    """

    n: int
    k: float
    transient: int = 1000
    window: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.k > self.n:
            raise ValueError("k must not exceed n")
        if _table_bytes(self.n, self.k) > _TABLE_BUDGET:
            raise ValueError(
                f"k={self.k} needs n * 2^ceil(k) = {_table_bytes(self.n, self.k):,} bytes"
                f" of lookup tables per network, over the {_TABLE_BUDGET:,}-byte limit"
            )
        _check_run(self.transient, self.window, self.seed)


@dataclass
class BooleanNetwork:
    """Topology, lookup tables, and current state of one network."""

    n: int
    inputs: list[np.ndarray]
    tables: list[np.ndarray]
    state: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.inputs) != self.n or len(self.tables) != self.n:
            raise ValueError("inputs and tables must have one entry per node")
        self.inputs = [np.asarray(src, dtype=np.int64).ravel() for src in self.inputs]
        self.tables = [np.asarray(tab, dtype=np.uint8).ravel() for tab in self.tables]
        for i, (src, tab) in enumerate(zip(self.inputs, self.tables)):
            if src.size and (src.min() < 0 or src.max() >= self.n):
                raise ValueError(f"node {i}: input indices out of range")
            if np.unique(src).size != src.size:
                raise ValueError(f"node {i}: duplicate input")
            if tab.size != (1 << src.size):
                raise ValueError(f"node {i}: table must have 2^in-degree entries")
            if tab.size and tab.max() > 1:
                raise ValueError(f"node {i}: table entries must be bits")
        state = np.asarray(self.state, dtype=np.uint8).ravel()
        if state.size != self.n or (state.size and state.max() > 1):
            raise ValueError("state must be an n-bit vector")
        self.state = state


def generate_rbn(config: RbnConfig, rng: np.random.Generator) -> BooleanNetwork:
    """Draw a random network: topology, tables, and initial state.

    Each node gets in-degree ``floor(k)``, raised to ``ceil(k)`` with
    probability ``frac(k)``.  Inputs are drawn uniformly without replacement
    (self-inputs allowed, duplicates not); table entries are fair coins.
    """
    base = int(math.floor(config.k))
    frac = config.k - base
    degrees = base + (rng.random(config.n) < frac).astype(np.int64)
    inputs, tables = [], []
    for i in range(config.n):
        d = int(degrees[i])
        inputs.append(rng.choice(config.n, size=d, replace=False).astype(np.int64))
        tables.append(rng.integers(0, 2, size=1 << d, dtype=np.uint8))
    state = rng.integers(0, 2, size=config.n, dtype=np.uint8)
    return BooleanNetwork(config.n, inputs, tables, state)


def _lookup(nets: Sequence[BooleanNetwork]) -> Callable[[np.ndarray], np.ndarray]:
    """The synchronous update of a stack of networks as one padded lookup.

    Every node reads the stack's largest in-degree ``width``: a node of
    in-degree ``d`` reads its own inputs in the high ``d`` bits of its index
    and dummy ones in the low ``width - d`` bits, which its table ignores
    because each entry is repeated ``2^(width - d)`` times.
    """
    sizes = [net.n for net in nets]
    degrees = np.fromiter((src.size for net in nets for src in net.inputs), dtype=np.int64)
    width = int(degrees.max())
    offsets = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    inputs = np.zeros((degrees.size, width), dtype=np.int64)
    inputs[np.arange(width) < degrees[:, None]] = (
        np.concatenate([src for net in nets for src in net.inputs])
        + np.repeat(offsets, degrees)
    )
    tables = np.repeat(
        np.concatenate([tab for net in nets for tab in net.tables]),
        np.repeat(np.int64(1) << (width - degrees), np.int64(1) << degrees),
    )
    weights = np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64)
    base = np.arange(degrees.size, dtype=np.int64) << width

    def step(state: np.ndarray) -> np.ndarray:
        return tables[base + state[inputs].astype(np.int64) @ weights]

    return step


def rbn_step(net: BooleanNetwork, state: np.ndarray | None = None) -> np.ndarray:
    """One synchronous update; returns the next state without mutating the net.

    Every node reads the *current* bits of its inputs, first input as the most
    significant bit of its table index.
    """
    cur = np.asarray(net.state if state is None else state, dtype=np.uint8)
    if cur.size != net.n:
        raise ValueError("state length must equal n")
    return _lookup([net])(cur)


def run_rbn(config: RbnConfig) -> Trajectory:
    """Generate a network from ``config.seed`` and record its window.

    The first recorded state is the state reached after ``transient`` steps.
    """
    return run_rbn_many(config, [config.seed])[0]


def run_rbn_many(config: RbnConfig, seeds: Sequence[int]) -> list[Trajectory]:
    """Run one independent network per seed; ``config.seed`` is ignored.

    Networks are stacked as many at a time as fit the table budget and
    stepped as one block-diagonal system; a network's trajectory does not
    depend on the stack it shares.
    """

    def start(chunk):
        nets = [generate_rbn(config, np.random.default_rng(s)) for s in chunk]
        return np.concatenate([net.state for net in nets]), _lookup(nets)

    # RbnConfig has checked that one network fits the budget
    batch = min(_BATCH, _TABLE_BUDGET // _table_bytes(config.n, config.k))
    return _record_runs(seeds, batch, start, config.transient, config.window)


def network_measures(
    traj: Trajectory, scale: int, *, average_h: bool = False
) -> MeasureSet:
    """Network-level measures: per-node normalized information averaged over
    nodes gives the network information behind E/S/C; H comes from the final
    two macro-states (vectors of per-node ``scale``-bit symbols)."""
    return series_matrix_measures(traj.states.T, scale, average_h=average_h)


def serialize_network(net: BooleanNetwork) -> str:
    """Text form: ``rbn n=<N>`` then per node ``i: inputs=<list> table=<bits>``.

    The current state is not part of the format.
    """
    lines = [f"rbn n={net.n}"]
    for i in range(net.n):
        srcs = ",".join(str(int(s)) for s in net.inputs[i])
        table = "".join(str(int(b)) for b in net.tables[i])
        lines.append(f"{i}: inputs={srcs} table={table}")
    return "\n".join(lines) + "\n"


_NODE_LINE = re.compile(r"^(\d+):\s*inputs=([\d,]*)\s+table=([01]+)$")


def parse_network(text: str) -> BooleanNetwork:
    """Parse :func:`serialize_network` output; the state loads as all zeros."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("rbn n="):
        raise ValueError("missing 'rbn n=<N>' header")
    n = int(lines[0].removeprefix("rbn n="))
    inputs: dict[int, np.ndarray] = {}
    tables: dict[int, np.ndarray] = {}
    for line in lines[1:]:
        m = _NODE_LINE.match(line)
        if not m:
            raise ValueError(f"malformed node line: {line!r}")
        i = int(m.group(1))
        if i in inputs:
            raise ValueError(f"duplicate node line for node {i}")
        srcs = m.group(2)
        inputs[i] = np.array(
            [int(s) for s in srcs.split(",")] if srcs else [], dtype=np.int64
        )
        tables[i] = np.array([int(b) for b in m.group(3)], dtype=np.uint8)
    if sorted(inputs) != list(range(n)):
        raise ValueError("node lines must cover 0..n-1 exactly once")
    return BooleanNetwork(
        n,
        [inputs[i] for i in range(n)],
        [tables[i] for i in range(n)],
        np.zeros(n, dtype=np.uint8),
    )
