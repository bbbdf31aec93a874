"""Random Boolean networks: generation, synchronous simulation, measurement.

Each node reads an ordered list of input nodes (first input = most significant
bit of the lookup index) and a private lookup table.  All nodes update
simultaneously.  Everything is deterministic given an explicit RNG or seed;
independent runs never share state, so they can execute concurrently.

A :class:`BooleanNetwork` is flat: one array of in-degrees, every node's
inputs concatenated in node order, and every node's table concatenated the
same way, so validation, stacking and stepping are whole-array operations.
:func:`generate_rbn` draws Kauffman's ensemble (*J. Theor. Biol.* 22, 1969)
from one generator per network, without a per-node loop: the in-degrees from
one uniform draw, the inputs by Floyd's sampling run across all nodes at once
(one draw per input position, so memory is O(n * ceil(k))), then the tables
from one block of fair bits and the state.  A stack is one block-diagonal
network, drawn in place, checked once, kept without a copy and stepped by one
gather of every input bit, each raised to its place and summed, in the
narrowest word that holds the widest index, into its node's index in its own
table; its recorded block is transposed once, into each network's series.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .measures import MeasureSet, series_matrix_measures
from .trajectory import _RECORD_BUDGET, Trajectory, _bit_text, _check_count, _check_run
from .trajectory import _first_nonbit, _record_runs, _text_bits

__all__ = [
    "RbnConfig",
    "BooleanNetwork",
    "generate_rbn",
    "rbn_step",
    "run_rbn",
    "run_rbn_many",
    "serialize_network",
    "parse_network",
]

_BATCH = 128  # networks stepped together at most; never changes a result
# bytes of lookup table a stack of networks may take; RbnConfig rejects a
# network that alone needs more (n * 2^ceil(k) bytes)
_TABLE_BUDGET = 1 << 28
# bytes that drawing, checking and looking up a stack of networks may peak at
# (:func:`_node_bytes`); RbnConfig rejects a network that alone needs more
_NODE_BUDGET = 1 << 30


def _table_bytes(n: int, k: float) -> int:
    return n << math.ceil(k)


def _node_bytes(n: int, k: float) -> int:
    """An upper bound on the bytes that drawing, checking and looking up ``n``
    nodes of mean in-degree ``k`` peak at: 48 + 24 t + 4 * 2^t a node, with
    ``t = ceil(k)``.  A lone network peaks highest, while its drawn bits are
    selected into its tables; a stack, drawn in place and kept without a copy,
    peaks within 30 bytes a node of what it keeps, 9 + 16 t + 2^t.  Peak RSS
    grows by under 0.8 times this bound."""
    top = math.ceil(k)
    return n * (48 + 24 * top + (4 << top))


@dataclass(frozen=True)
class RbnConfig:
    """Parameters of one network run.

    ``k`` is the mean in-degree, any real number (stored as a float), and may
    be fractional; ``transient`` steps are discarded before ``window`` states
    are recorded.
    """

    n: int = 100
    k: float = 2.0
    transient: int = 1000
    window: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_count("n", self.n, 1)
        if not isinstance(self.k, numbers.Real):
            raise ValueError(f"k must be a number (got {self.k!r})")
        if not self.k >= 0:  # also false for nan
            raise ValueError(f"k must be >= 0 (got {self.k})")
        if self.k > self.n:
            raise ValueError("k must not exceed n")
        top = math.ceil(self.k)  # checked first: a shift by a huge k builds a huge integer
        if top > _TABLE_BUDGET.bit_length() or _table_bytes(self.n, self.k) > _TABLE_BUDGET:
            size = f"{self.n << top:,}" if top <= 64 else f"{self.n:,} * 2^{top:,}"
            raise ValueError(f"k={self.k} needs n * 2^ceil(k) = {size} bytes of lookup tables"
                             f" per network, over the {_TABLE_BUDGET:,}-byte limit")
        if _node_bytes(self.n, self.k) > _NODE_BUDGET:
            raise ValueError(f"{self.n:,} nodes of in-degree up to {math.ceil(self.k)} need about"
                             f" {_node_bytes(self.n, self.k):,} bytes to draw, check and look up,"
                             f" over the {_NODE_BUDGET:,}-byte limit")
        _check_run(self.transient, self.window, self.seed, self.n)
        object.__setattr__(self, "k", float(self.k) + 0.0)  # -0.0 is the cell k=0


@dataclass(frozen=True)
class BooleanNetwork:
    """Topology, lookup tables, and initial state of one network.

    ``degrees[i]`` is node ``i``'s in-degree.  ``inputs`` holds every node's
    input indices and ``tables`` every node's ``2^degrees[i]``-entry table,
    each concatenated in node order and stored read-only, so the update built
    from them once can never go stale: an array passed read-only that owns its
    memory (as :func:`_draw` returns it) is kept, any other copied.  The inputs
    are checked in the one layout :func:`_lookup` steps, kept read-only as
    ``_columns``: row ``c`` holds each node's input at position ``c``, or the
    node past its inputs.
    """

    degrees: np.ndarray
    inputs: np.ndarray
    tables: np.ndarray
    state: np.ndarray

    def __post_init__(self):
        # the step is built from what is stored: a caller may change any array but one
        # passed read-only that owns its memory, so that is kept and any other copied
        kept = {name for name, array in vars(self).items() if isinstance(array, np.ndarray)
                and array.flags.owndata and not array.flags.writeable}
        degrees, inputs = np.asarray(self.degrees).ravel(), np.asarray(self.inputs).ravel()
        # checked in the input's own dtype: an int64 cast would truncate 1.9 to 1
        for name, values in (("in-degrees", degrees), ("input indices", inputs)):
            if values.size and values.dtype.kind not in "biu":
                raise ValueError(f"{name} must be integers")
        degrees = degrees.astype(np.int64, copy=False)
        tables = np.asarray(self.tables).ravel()
        n = degrees.size
        if n < 1:
            raise ValueError("n must be >= 1")
        if degrees.min() < 0:
            raise ValueError("in-degrees must be >= 0")
        if inputs.size != degrees.sum():
            raise ValueError("inputs must hold one entry per input of every node")
        if inputs.size and (inputs.min() < 0 or inputs.max() >= n):
            node = np.repeat(np.arange(n), degrees)[((inputs < 0) | (inputs >= n)).argmax()]
            raise ValueError(f"node {node}: input indices out of range")
        width = int(degrees.max())
        if width >= tables.size.bit_length():  # no 2^width entries: refused before padding
            raise ValueError("tables must have 2^in-degree entries per node")
        # row c holds every node's input at position c (first input = MSB); a
        # pad is the node itself, so it stays in its network when a stack is cut
        columns = np.tile(np.arange(n, dtype=np.intp), (width, 1))
        columns.T[np.arange(width) < degrees[:, None]] = inputs
        same = np.zeros(n, dtype=bool)  # an input equal to one before it; rows past d are pads
        for c in range(1, width):
            same |= (columns[:c] == columns[c]).any(axis=0) & (degrees > c)
        if same.any():
            raise ValueError(f"node {same.argmax()}: duplicate input")
        if sum(int(count) << d for d, count in enumerate(np.bincount(degrees))) != tables.size:
            raise ValueError("tables must have 2^in-degree entries per node")
        bad = _first_nonbit(tables)
        if bad is not None:
            node = np.repeat(np.arange(n), np.int64(1) << degrees)[bad]
            raise ValueError(f"node {node}: table entries must be bits")
        state = np.asarray(self.state).ravel()
        if state.size != n or _first_nonbit(state) is not None:
            raise ValueError("state must be an n-bit vector")
        for name, values, dtype in (("degrees", degrees, np.int64), ("inputs", inputs, np.int64),
                                    ("tables", tables, np.uint8), ("state", state, np.uint8)):
            values = values.astype(dtype, copy=name not in kept)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        columns.flags.writeable = False
        object.__setattr__(self, "_columns", columns)  # not a field: what _lookup reads

    @property
    def n(self) -> int:
        return int(self.degrees.size)

    @cached_property
    def _step(self) -> Callable[[np.ndarray], np.ndarray]:
        return _lookup(self)()


def generate_rbn(config: RbnConfig, rng: np.random.Generator) -> BooleanNetwork:
    """Draw a random network: topology, tables, and initial state.

    Each node gets in-degree ``floor(k)``, raised to ``ceil(k)`` with
    probability ``frac(k)``.  Inputs are drawn uniformly without replacement
    (self-inputs allowed, duplicates not); table entries are fair coins.
    """
    return BooleanNetwork(*_draw(config, [rng]))


def _draw(config: RbnConfig, rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, ...]:
    """The one draw, and the only code that stacks networks: network ``j`` from
    ``rngs[j]``, in place in one unchecked read-only ``(degrees, inputs, tables,
    state)``, its inputs offset by the nodes before it.  The in-degrees size the
    arrays, so each phase runs over every generator, in a lone network's order."""
    n, base, top = config.n, math.floor(config.k), math.ceil(config.k)
    degrees = np.concatenate([base + (rng.random(n) < config.k - base) for rng in rngs])
    wide = np.count_nonzero(degrees.reshape(-1, n) > base, axis=1)  # nodes of in-degree top
    at_input, at_table = np.cumsum([0, *(n * base + wide)]), np.cumsum([0, *((n + wide) << base)])
    inputs, tables = np.empty(at_input[-1], dtype=np.int64), np.empty(at_table[-1], dtype=np.uint8)
    for j, (rng, own) in enumerate(zip(rngs, degrees.reshape(-1, n))):
        # Floyd's sampling for every node at once: position c of a degree-d node
        # draws from 0..i with i = n - d + c and takes i if the draw repeats one
        # of its earlier positions, which leaves a uniform d-subset of 0..n-1
        chosen = np.empty((n, top), dtype=np.int64)
        for c in range(top):
            i = n - own + c
            draw = rng.integers(0, i + 1)
            chosen[:, c] = np.where((chosen[:, :c] == draw[:, None]).any(axis=1), i, draw)
        into = inputs[at_input[j] : at_input[j + 1]]
        np.add(chosen[np.arange(top) < own[:, None]], j * n, out=into)
        # a node's 2^top drawn bits as one or two rows of 2^base; in-degree top takes both
        rows = rng.integers(0, 2, size=(n, 1 << top), dtype=np.uint8).reshape(-1, 1 << base)
        pick = np.arange(top - base + 1) <= (own - base)[:, None]
        tables[at_table[j] : at_table[j + 1]] = rows[pick.ravel()].ravel()
    state = np.concatenate([rng.integers(0, 2, size=n, dtype=np.uint8) for rng in rngs])
    for array in (degrees, inputs, tables, state):
        array.flags.writeable = False
    return degrees, inputs, tables, state


def _lookup(net: BooleanNetwork, members: int = 1) -> Callable:
    """The synchronous update of one network, such as a stack of ``members``
    networks of equal size (:func:`_draw`): each row of the input
    matrix has a weight per node, ``2^(d-1-c)`` for input ``c`` of a node of
    in-degree ``d`` and 0 for a pad, so a node's weighted input bits sum to
    its index in its own table of the flat ``tables``.  Returns the record
    loop's ``update(keep)``, which cuts the networks kept out of the input
    rows, weights and table offsets, not out of the tables."""
    columns, tables, width = net._columns, net.tables, len(net._columns)
    # the index in the narrowest word that holds width bits, each bit raised to its
    # place by a multiply (numpy vectorizes a uint8 multiply, not a uint8 shift)
    dtype = np.uint8 if width <= 8 else np.intp
    weights = np.zeros(columns.shape, dtype=dtype)
    for d in range(1, width + 1):  # a degree at a time: no width x n word temporary
        weights[:d, net.degrees == d] = (1 << np.arange(d - 1, -1, -1)).astype(dtype)[:, None]
    starts = np.cumsum(np.int64(1) << net.degrees) - (np.int64(1) << net.degrees)
    size = net.n // members

    def update(keep: np.ndarray | None = None) -> Callable[[np.ndarray], np.ndarray]:
        nonlocal columns, weights, starts
        if keep is not None:  # network keep[i] becomes network i
            shift = np.repeat((keep - np.arange(keep.size)) * size, size)
            columns, weights = (rows.reshape(width, rows.shape[1] // size, size)[:, keep]
                                .reshape(width, shift.size) for rows in (columns, weights))
            columns -= shift
            starts = starts.reshape(-1, size)[keep].ravel()
        inputs, places, offsets = columns, weights, starts

        def step(state: np.ndarray) -> np.ndarray:
            # indexed, not take(): take copies a read-only index array every call
            bits = state.astype(dtype, copy=False)[inputs]
            bits *= places
            return tables.take(offsets + bits.sum(axis=0, dtype=dtype))

        return step

    return update


def rbn_step(net: BooleanNetwork, state: np.ndarray | None = None) -> np.ndarray:
    """One synchronous update; returns the next state without mutating the net.

    Every node reads the *current* bits of its inputs, first input as the most
    significant bit of its table index.
    """
    cur = np.asarray(net.state if state is None else state)
    if cur.size != net.n:
        raise ValueError("state length must equal n")
    if _first_nonbit(cur) is not None:
        raise ValueError("state must be binary")
    return net._step(cur.astype(np.uint8, copy=False))


def run_rbn(config: RbnConfig) -> Trajectory:
    """Generate a network from ``config.seed`` and record its window.

    The first recorded state is the state reached after ``transient`` steps.
    """
    return run_rbn_many(config, [config.seed])[0]


def run_rbn_many(config: RbnConfig, seeds: Sequence[int]) -> list[Trajectory]:
    """Run one independent network per seed; ``config.seed`` is ignored.

    Networks are stacked as many at a time as fit the table and record
    budgets, each stack stepped as one block-diagonal network; a network's
    trajectory does not depend on the stack it shares; its series become trajectories.
    """
    return [Trajectory(series.T, config.transient)
            for stack, _ in _rbn_stacks(config, seeds) for series in stack]


def _rbn_stacks(config: RbnConfig, seeds: Sequence[int]) -> Iterator[tuple]:
    """The read-only ``n x window`` series of :func:`run_rbn_many`, one stack at
    a time, as the record loop's ``(series, cycles)`` pairs: each network is a
    member, stepped until it repeats, and its cycle is its own."""

    def unstack(recorded):
        # one transpose per stack: block j is network j's n x window series
        return iter(np.ascontiguousarray(recorded.transpose(1, 2, 0)))

    def start(chunk):
        stack = BooleanNetwork(*_draw(config, [np.random.default_rng(s) for s in chunk]))
        return stack.state.reshape(len(chunk), -1), _lookup(stack, len(chunk)), unstack

    # RbnConfig has checked that one network fits every budget
    batch = min(_BATCH, _TABLE_BUDGET // _table_bytes(config.n, config.k),
                _NODE_BUDGET // _node_bytes(config.n, config.k),
                _RECORD_BUDGET // (config.n * config.window))
    return _record_runs(seeds, batch, start, config.transient, config.window)


def network_measures(traj: Trajectory, scale: int) -> MeasureSet:
    """One scale of :func:`series_matrix_measures` over ``traj.series``; a
    too-short window raises ValueError.  Not exported: it exists only for the
    traced sweep replica in ``perfbench/worker.py`` (also as
    ``eca.eca_measures``), until ROADMAP item 2b retires the replica."""
    measured = series_matrix_measures(traj.series, [scale])[scale]
    if measured is None:
        raise ValueError(f"window too short for scale {scale}")
    return measured


def serialize_network(net: BooleanNetwork) -> str:
    """Text form: ``rbn n=<N>`` then per node ``i: inputs=<list> table=<bits>``.

    The current state is not part of the format.
    """
    inputs = net.inputs.tolist()
    bits = _bit_text(net.tables)
    at_input = np.concatenate([[0], np.cumsum(net.degrees)]).tolist()
    at_table = np.concatenate([[0], np.cumsum(np.int64(1) << net.degrees)]).tolist()
    lines = [f"rbn n={net.n}"]
    for i in range(net.n):
        srcs = ",".join(map(str, inputs[at_input[i] : at_input[i + 1]]))
        lines.append(f"{i}: inputs={srcs} table={bits[at_table[i] : at_table[i + 1]]}")
    return "\n".join(lines) + "\n"


_NODE_LINE = re.compile(r"^(\d+):\s*inputs=((?:\d+(?:,\d+)*)?)\s+table=([01]+)$")


def parse_network(text: str) -> BooleanNetwork:
    """Parse :func:`serialize_network` output; the state loads as all zeros."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    try:
        if not lines[0].startswith("rbn n="):
            raise ValueError
        n = int(lines[0].removeprefix("rbn n="))
    except (IndexError, ValueError):
        raise ValueError("missing 'rbn n=<N>' header") from None
    nodes: dict[int, tuple[list[int], str]] = {}
    for line in lines[1:]:
        m = _NODE_LINE.match(line)
        if not m:
            raise ValueError(f"malformed node line: {line!r}")
        i = int(m.group(1))
        if i in nodes:
            raise ValueError(f"duplicate node line for node {i}")
        srcs = [int(s) for s in m.group(2).split(",")] if m.group(2) else []
        if len(m.group(3)) != 1 << len(srcs):
            raise ValueError(f"node {i}: table must have 2^in-degree entries")
        nodes[i] = srcs, m.group(3)
    # counted first, so a header claiming more nodes than there are lines builds nothing
    if len(nodes) != len(range(n)) or sorted(nodes) != list(range(n)):
        raise ValueError("node lines must cover 0..n-1 exactly once")
    srcs = [nodes[i][0] for i in range(n)]
    return BooleanNetwork(np.array([len(s) for s in srcs], dtype=np.int64),
                          np.array([x for s in srcs for x in s], dtype=np.int64),
                          _text_bits("".join(nodes[i][1] for i in range(n)))[0],
                          np.zeros(n, dtype=np.uint8))
