"""Enumeration of cuts, alignment patterns and raw beam states.

Alignment patterns are exactly the partial matchings of the bipartite
graph (transmitters [0 : N]) x (receivers [1 : N+1]) restricted to
nonzero links; pattern enumeration is the workhorse behind every LP in
this package.  Raw-state enumeration is a deliberately dumb oracle over
the full Cartesian product of per-node beam choices, kept around to
cross-check the pattern route on tiny networks.

``StateSpace`` also carries the instance's nonzero links and their two
incidence matrices: which links a pattern aligns and which links cross
a cut.  Every value table, LP row and cut block reads its crossing
links from ``crossing_matrix``.

Everything here is exponential in N, so enumeration is gated by caps.
The environment variable ``OTO_CAP_MAX_RELAYS`` overrides both caps at
once for users who accept the blow-up.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .model import (
    AlignmentPattern,
    Cut,
    InvalidPatternError,
    NetworkInstance,
    NodeState,
)

__all__ = [
    "EnumerationCaps",
    "EnumerationCapError",
    "StateSpace",
    "crossing_matrix",
    "default_caps",
    "enumerate_cuts",
    "enumerate_alignment_patterns",
    "enumerate_raw_states",
    "pattern_of_state",
    "build_state_space",
]

CAP_ENV_VAR = "OTO_CAP_MAX_RELAYS"
RAW_STATE_MAX_RELAYS = 2


class EnumerationCapError(RuntimeError):
    """Instance exceeds a configured enumeration cap."""


@dataclass(frozen=True)
class EnumerationCaps:
    max_pattern_relays: int = 5
    max_cut_relays: int = 8


def default_caps() -> EnumerationCaps:
    """Built-in caps, both overridden by OTO_CAP_MAX_RELAYS if set."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return EnumerationCaps()
    try:
        limit = int(raw)
    except ValueError as exc:
        raise EnumerationCapError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    return EnumerationCaps(max_pattern_relays=limit, max_cut_relays=limit)


def enumerate_cuts(inst: NetworkInstance) -> list[Cut]:
    """All 2^N source-side cuts, in bitmask-ascending relay membership.

    Bit r-1 of the mask decides whether relay r sits on the source side,
    so the first cut is {0} and the last is {0, 1, .., N}.
    """
    caps = default_caps()
    n = inst.num_relays
    if n > caps.max_cut_relays:
        raise EnumerationCapError(
            f"cut enumeration capped at {caps.max_cut_relays} relays, got {n} "
            f"(override with {CAP_ENV_VAR})"
        )
    cuts = []
    for mask in range(1 << n):
        omega = (0,) + tuple(r for r in range(1, n + 1) if mask >> (r - 1) & 1)
        cuts.append(Cut(omega, n))
    return cuts


def enumerate_alignment_patterns(inst: NetworkInstance) -> list[AlignmentPattern]:
    """All partial matchings over the nonzero links, empty pattern first.

    Patterns are returned sorted by their transmitter-sorted pair lists,
    which makes the order reproducible and puts the empty pattern at
    index 0.
    """
    caps = default_caps()
    n = inst.num_relays
    if n > caps.max_pattern_relays:
        raise EnumerationCapError(
            f"pattern enumeration capped at {caps.max_pattern_relays} relays, got {n} "
            f"(override with {CAP_ENV_VAR})"
        )
    # adjacency: receivers available to each transmitter
    targets = {i: [] for i in range(n + 1)}
    for i, j in inst.links():
        targets[i].append(j)
    for i in targets:
        targets[i].sort()

    found: list[tuple[tuple[int, int], ...]] = []

    def extend(tx: int, used_rx: set[int], chosen: list[tuple[int, int]]):
        if tx > n:
            found.append(tuple(chosen))
            return
        extend(tx + 1, used_rx, chosen)  # leave this transmitter idle
        for j in targets[tx]:
            if j not in used_rx:
                used_rx.add(j)
                chosen.append((tx, j))
                extend(tx + 1, used_rx, chosen)
                chosen.pop()
                used_rx.remove(j)

    extend(0, set(), [])
    found.sort()
    return [AlignmentPattern(pairs) for pairs in found]


def enumerate_raw_states(
    inst: NetworkInstance, cap: int = RAW_STATE_MAX_RELAYS
) -> list[NodeState]:
    """Cartesian product of per-node beam choices (oracle scale only).

    Beam targets are unrestricted to nonzero links: a node may point at
    anything it is allowed to point at, useful or not.  This blows up as
    roughly 12^N and is capped accordingly.
    """
    n = inst.num_relays
    if n > cap:
        raise EnumerationCapError(
            f"raw-state enumeration is an oracle for <= {cap} relays, got {n}"
        )
    dest = inst.destination
    tx_choices = []
    rx_choices = []
    for v in range(inst.n_nodes):
        if v == dest:
            tx_choices.append([None])
        else:
            tx_choices.append([None] + [j for j in range(1, dest + 1) if j != v])
        if v == 0:
            rx_choices.append([None])
        else:
            rx_choices.append([None] + [i for i in range(n + 1) if i != v])
    states = []
    for txs in product(*tx_choices):
        for rxs in product(*rx_choices):
            states.append(NodeState(tuple(txs), tuple(rxs)))
    return states


def pattern_of_state(state: NodeState, inst: NetworkInstance) -> AlignmentPattern:
    """Collapse a raw state to the alignment pattern it realises.

    A link i -> j makes it into the pattern only when both ends agree
    (i transmits toward j, j listens to i) and the link is nonzero.
    """
    pairs = []
    for i, target in enumerate(state.tx_target):
        if target is None:
            continue
        j = target
        if state.rx_source[j] == i and inst.has_link(i, j):
            pairs.append((i, j))
    return AlignmentPattern(tuple(pairs))


def crossing_matrix(
    cuts: Sequence[Cut], links: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Boolean cut x link matrix: link (i, j) leaves Omega (i in it, j not)."""
    n_nodes = max((cut.num_relays for cut in cuts), default=0) + 2
    source_side = np.zeros((len(cuts), n_nodes), dtype=bool)
    for c, cut in enumerate(cuts):
        source_side[c, list(cut.omega)] = True
    tx, rx = np.array(links, dtype=np.intp).reshape(-1, 2).T
    return source_side[:, tx] & ~source_side[:, rx]


@dataclass(frozen=True)
class StateSpace:
    """Canonical pattern, cut and link universe for one instance.

    ``links`` are the instance's nonzero links in ``inst.links()`` order;
    the columns of ``incidence`` and ``crossing`` follow it.
    """

    patterns: tuple[AlignmentPattern, ...]
    cuts: tuple[Cut, ...]
    links: tuple[tuple[int, int], ...]

    @cached_property
    def incidence(self) -> np.ndarray:
        """Read-only boolean pattern x link matrix: pattern p aligns link l.

        Raises InvalidPatternError when a pattern pairs two nodes that
        share no nonzero link.
        """
        link_pos = {e: k for k, e in enumerate(self.links)}
        pairs = [pair for pattern in self.patterns for pair in pattern]
        cols = [link_pos.get(pair, -1) for pair in pairs]
        if -1 in cols:
            raise InvalidPatternError(f"pair {pairs[cols.index(-1)]} is not a nonzero link")
        rows = np.repeat(np.arange(len(self.patterns)), [len(p) for p in self.patterns])
        incidence = np.zeros((len(self.patterns), len(self.links)), dtype=bool)
        incidence[rows, np.array(cols, dtype=np.intp)] = True
        incidence.flags.writeable = False
        return incidence

    @cached_property
    def crossing(self) -> np.ndarray:
        """Read-only boolean cut x link matrix; see ``crossing_matrix``."""
        crossing = crossing_matrix(self.cuts, self.links)
        crossing.flags.writeable = False
        return crossing


def build_state_space(inst: NetworkInstance) -> StateSpace:
    return StateSpace(
        patterns=tuple(enumerate_alignment_patterns(inst)),
        cuts=tuple(enumerate_cuts(inst)),
        links=tuple(inst.links()),
    )
