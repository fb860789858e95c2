"""Enumeration of cuts and alignment patterns: the state space.

Alignment patterns are exactly the partial matchings of the bipartite
graph (transmitters [0 : N]) x (receivers [1 : N+1]) restricted to
nonzero links.  ``build_state_space`` enumerates them once, as the rows
of a boolean pattern x link incidence matrix in canonical order, and
every LP in this package has one column per row.

``StateSpace`` carries that incidence with the instance's cuts, its
nonzero links and the cut x link crossing matrix.  Every value table,
LP row and cut block reads its aligned links from ``incidence`` and its
crossing links from ``crossing``, the one statement of which links
cross a cut; ``StateSpace.patterns`` names a row as an
``AlignmentPattern`` only when it is indexed.

Everything here is exponential in N, so enumeration is gated by caps.
The environment variable ``OTO_CAP_MAX_RELAYS`` overrides both caps at
once for users who accept the blow-up.
"""

from __future__ import annotations

import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import AlignmentPattern, Cut, NetworkInstance

__all__ = [
    "EnumerationCapError",
    "StateSpace",
    "enumerate_cuts",
    "build_state_space",
]

CAP_ENV_VAR = "OTO_CAP_MAX_RELAYS"


class EnumerationCapError(RuntimeError):
    """Instance exceeds a configured enumeration cap."""


# relay counts above which patterns and cuts are not enumerated, unless
# CAP_ENV_VAR overrides both
_MAX_PATTERN_RELAYS = 5
_MAX_CUT_RELAYS = 8


def _check_cap(what: str, cap: int, n: int) -> None:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise EnumerationCapError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if n > cap:
        raise EnumerationCapError(
            f"{what} enumeration capped at {cap} relays, got {n} (override with {CAP_ENV_VAR})"
        )


def enumerate_cuts(inst: NetworkInstance) -> list[Cut]:
    """All 2^N source-side cuts, in bitmask-ascending relay membership.

    Bit r-1 of the mask decides whether relay r sits on the source side,
    so the first cut is {0} and the last is {0, 1, .., N}.
    """
    n = inst.num_relays
    _check_cap("cut", _MAX_CUT_RELAYS, n)
    cuts = []
    for mask in range(1 << n):
        omega = (0,) + tuple(r for r in range(1, n + 1) if mask >> (r - 1) & 1)
        cuts.append(Cut(omega, n))
    return cuts


class _PatternView(Sequence):
    """Read-only sequence of a state space's patterns, built on access.

    Pattern k aligns the links of incidence row k.  Indices must be
    integers: a slice raises TypeError.
    """

    def __init__(self, space: StateSpace):
        self._space = space

    def __len__(self) -> int:
        return len(self._space.incidence)

    def __getitem__(self, k) -> AlignmentPattern:
        row = self._space.incidence[operator.index(k)]
        return AlignmentPattern(tuple(self._space.links[c] for c in np.flatnonzero(row)))


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Canonical pattern, cut and link universe for one instance.

    ``links`` are the instance's nonzero links in ``inst.links()`` order;
    the columns of ``incidence`` and ``crossing`` follow it.  Row p of the
    read-only boolean ``incidence`` marks the links pattern p aligns, and
    ``patterns[p]`` is that row as an ``AlignmentPattern``.
    """

    incidence: np.ndarray
    cuts: tuple[Cut, ...]
    links: tuple[tuple[int, int], ...]

    def __post_init__(self):
        incidence = np.array(self.incidence, dtype=bool)
        incidence.flags.writeable = False
        object.__setattr__(self, "incidence", incidence)

    @cached_property
    def patterns(self) -> Sequence[AlignmentPattern]:
        return _PatternView(self)

    @cached_property
    def crossing(self) -> np.ndarray:
        """Read-only boolean cut x link matrix: link (i, j) leaves Omega
        (i in it, j not)."""
        source_side = np.zeros((len(self.cuts), self.cuts[0].num_relays + 2), dtype=bool)
        for c, cut in enumerate(self.cuts):
            source_side[c, list(cut.omega)] = True
        tx, rx = np.array(self.links, dtype=np.intp).reshape(-1, 2).T
        crossing = source_side[:, tx] & ~source_side[:, rx]
        crossing.flags.writeable = False
        return crossing


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
    """Every alignment pattern, cut and nonzero link of an instance, under the caps."""
    _check_cap("pattern", _MAX_PATTERN_RELAYS, inst.num_relays)
    links = tuple(inst.links())
    return StateSpace(
        incidence=_matching_incidence(inst.num_relays, links),
        cuts=tuple(enumerate_cuts(inst)),
        links=links,
    )
