"""Enumeration of cuts and alignment patterns: the state space.

Alignment patterns are exactly the partial matchings of the bipartite
graph (transmitters [0 : N]) x (receivers [1 : N+1]) restricted to
nonzero links; cuts are the 2^N source sides Omega, node 0 plus any set
of relays.  ``build_state_space`` enumerates both once, in canonical
order, as the rows of two boolean matrices: a pattern x link
``incidence`` and a cut x node ``source_side`` (one LP row per row).
Every value table, LP and cut block reads them and
``StateSpace.crossing``, the one statement of which links cross a cut;
``StateSpace.maximal`` marks the maximal matchings, the only columns
the linear models' LPs need.  ``patterns`` and ``cuts`` name a row as
an object only when indexed.

Everything here is exponential in N, so enumeration is refused above a
relay cap, which the environment variable ``OTO_CAP_MAX_RELAYS``
overrides for users who accept the blow-up.
"""

from __future__ import annotations

import operator
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import AlignmentPattern, Cut, NetworkInstance

__all__ = [
    "EnumerationCapError",
    "StateSpace",
    "build_state_space",
]

CAP_ENV_VAR = "OTO_CAP_MAX_RELAYS"


class EnumerationCapError(RuntimeError):
    """Instance exceeds a configured enumeration cap."""


# relay count above which the state space is not enumerated, unless
# CAP_ENV_VAR overrides it
_MAX_RELAYS = 5


def _check_cap(n: int) -> None:
    raw = os.environ.get(CAP_ENV_VAR, str(_MAX_RELAYS))
    try:
        cap = int(raw)
    except ValueError as exc:
        raise EnumerationCapError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if n > cap:
        raise EnumerationCapError(
            f"pattern enumeration capped at {cap} relays, got {n} (override with {CAP_ENV_VAR})"
        )


@dataclass(frozen=True, eq=False)
class _RowView(Sequence):
    """Read-only sequence of a boolean matrix's rows, each named on access.

    Indices must be integers: a slice raises TypeError.
    """

    rows: np.ndarray
    name: Callable[[np.ndarray], object]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        return self.name(self.rows[operator.index(k)])


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Canonical pattern, cut and link universe for one instance.

    ``links`` are the instance's nonzero links in ``inst.links()`` order;
    the columns of ``incidence`` and ``crossing`` follow it.  Row p of the
    read-only boolean ``incidence`` marks the links pattern p aligns, and
    row c of the read-only boolean ``source_side`` (nodes 0..N+1) marks
    the Omega of cut c; ``patterns[p]`` and ``cuts[c]`` name those rows.
    ``crossing`` and ``maximal`` are derived from them on first access.
    """

    incidence: np.ndarray
    source_side: np.ndarray
    links: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for name in ("incidence", "source_side"):
            rows = np.array(getattr(self, name), dtype=bool)
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)

    @cached_property
    def patterns(self) -> Sequence[AlignmentPattern]:
        return _RowView(self.incidence, lambda row: AlignmentPattern(
            tuple(self.links[c] for c in np.flatnonzero(row))))

    @cached_property
    def cuts(self) -> Sequence[Cut]:
        num_relays = self.source_side.shape[1] - 2
        return _RowView(self.source_side,
                        lambda row: Cut(tuple(np.flatnonzero(row).tolist()), num_relays))

    @cached_property
    def crossing(self) -> np.ndarray:
        """Read-only boolean cut x link matrix: link (i, j) leaves Omega
        (i in it, j not)."""
        tx, rx = np.array(self.links, dtype=np.intp).reshape(-1, 2).T
        crossing = self.source_side[:, tx] & ~self.source_side[:, rx]
        crossing.flags.writeable = False
        return crossing

    @cached_property
    def maximal(self) -> np.ndarray:
        """Read-only boolean per ``incidence`` row: the pattern is a maximal
        matching, that is no link has both its transmitter and its receiver
        free."""
        tx, rx = np.array(self.links, dtype=np.intp).reshape(-1, 2).T
        rows, nodes = len(self.incidence), self.source_side.shape[1]
        p, k = np.nonzero(self.incidence)
        busy_tx = np.zeros((rows, nodes), dtype=bool)
        busy_rx = np.zeros((rows, nodes), dtype=bool)
        busy_tx[p, tx[k]] = True
        busy_rx[p, rx[k]] = True
        maximal = (busy_tx[:, tx] | busy_rx[:, rx]).all(axis=1)
        maximal.flags.writeable = False
        return maximal


def _matching_incidence(n: int, links: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Boolean pattern x link matrix of every matching, in canonical order.

    Canonical order sorts patterns by their transmitter-sorted pair
    lists, empty pattern first.  Transmitters are added from N down to
    0.  The rows over transmitters >= i are: the empty pattern; then, for
    each of i's links (i, j) in ascending j, that link added to every
    later row that leaves receiver j free; then the later non-empty
    rows.  ``links`` are receiver-major, so i's come in ascending j.
    """
    tx, rx = np.array(links, dtype=np.intp).reshape(-1, 2).T
    rows = np.zeros((1, len(links)), dtype=bool)
    for i in range(n, -1, -1):
        blocks = [rows[:1]]
        for c in np.flatnonzero(tx == i):
            block = rows[~rows[:, rx == rx[c]].any(axis=1)]
            block[:, c] = True
            blocks.append(block)
        rows = np.concatenate(blocks + [rows[1:]])
    return rows


def build_state_space(inst: NetworkInstance) -> StateSpace:
    """Every alignment pattern, cut and nonzero link of an instance, under the cap.

    Relay r is in the Omega of cut c when bit r-1 of c is set, so the
    first cut is {0} and the last {0, 1, .., N}.
    """
    n = inst.num_relays
    _check_cap(n)
    links = tuple(inst.links())
    source_side = np.zeros((1 << n, n + 2), dtype=bool)
    source_side[:, 0] = True
    source_side[:, 1:-1] = np.arange(1 << n)[:, None] >> np.arange(n) & 1
    return StateSpace(
        incidence=_matching_incidence(n, links),
        source_side=source_side,
        links=links,
    )
