"""Network model for full-duplex 1-2-1 relay networks.

A 1-2-1 network has a source (node 0), ``num_relays`` relays (nodes
1..N) and a destination (node N+1).  Every node steers a single transmit
beam and a single receive beam; a directed link i -> j carries the
main-lobe gain ``alpha`` only when node i points its transmit beam at j
*and* node j points its receive beam at i.  Every other link operates at
the side-lobe gain ``beta`` (``beta = 0`` is the ideal model).

The channel matrix is stored as a dense complex array indexed by node id
as ``channel[j, i]`` = coefficient of the link i -> j.  Only the block
with receivers in [1 : N+1] and transmitters in [0 : N] is meaningful;
everything outside it is identically zero (the source never receives,
the destination never transmits, no node has a self-channel).
``admissible_links`` is that block as a mask; links, degrees and the
``NetworkInstance`` constructor read it, so an instance that breaks the
model cannot be built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_RELAYS",
    "NetworkInstance",
    "AlignmentPattern",
    "Cut",
    "InvalidPatternError",
    "validate_pattern",
    "admissible_links",
    "max_degree",
    "effective_channel",
]


# Largest relay count an instance may have, checked before the dense
# (N+2) x (N+2) complex channel (16 MB at this limit) is allocated.
MAX_RELAYS = 1000


def _check_relay_count(num_relays) -> int:
    """``num_relays`` as an int, or ValueError unless it is an integer in
    [0, MAX_RELAYS]; numpy integers pass, floats do not."""
    try:
        n = operator.index(num_relays)
        if 0 <= n <= MAX_RELAYS:
            return n
    except TypeError:
        pass
    raise ValueError(f"num_relays must be in [0, {MAX_RELAYS}], got {num_relays}")


def admissible_links(num_relays: int) -> np.ndarray:
    """Boolean [j, i] mask of the links i -> j the 1-2-1 model admits.

    Transmitters are [0 : N], receivers [1 : N+1], and no node links to
    itself.
    """
    mask = ~np.eye(num_relays + 2, dtype=bool)
    mask[0, :] = False  # the source never receives
    mask[:, -1] = False  # the destination never transmits
    return mask


class InvalidPatternError(ValueError):
    """An alignment pattern does not fit the instance it is used with."""


@dataclass(frozen=True)
class AlignmentPattern:
    """A set of simultaneously aligned links, i.e. a partial matching.

    ``pairs`` holds directed links (transmitter, receiver).  Each node
    appears at most once as a transmitter and at most once as a receiver
    (full duplex: the same node may do both).  Pairs are normalised to
    ascending transmitter order, which doubles as the canonical sort key
    for pattern enumeration.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted((int(i), int(j)) for i, j in self.pairs))
        txs = [i for i, _ in pairs]
        rxs = [j for _, j in pairs]
        if len(set(txs)) != len(txs):
            raise InvalidPatternError(f"repeated transmitter in pattern {pairs}")
        if len(set(rxs)) != len(rxs):
            raise InvalidPatternError(f"repeated receiver in pattern {pairs}")
        for i, j in pairs:
            if i == j:
                raise InvalidPatternError(f"self-link {i}->{j} in pattern")
        object.__setattr__(self, "pairs", pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __contains__(self, pair):
        return tuple(pair) in self.pairs


EMPTY_PATTERN = AlignmentPattern(())


@dataclass(frozen=True)
class Cut:
    """A source-side cut: the set of nodes Omega with 0 in Omega.

    ``omega`` is a sorted tuple of node ids drawn from [0 : N]; the
    destination can never sit on the source side.  ``complement`` is the
    receiving side [0 : N+1] \\ Omega and always contains node N+1.
    """

    omega: tuple[int, ...]
    num_relays: int

    def __post_init__(self):
        omega = tuple(sorted(int(v) for v in self.omega))
        if len(set(omega)) != len(omega):
            raise ValueError(f"repeated node in cut {omega}")
        if 0 not in omega:
            raise ValueError("cut must contain the source (node 0)")
        if omega and not all(0 <= v <= self.num_relays for v in omega):
            raise ValueError(
                f"cut {omega} has nodes outside [0:{self.num_relays}]"
            )
        object.__setattr__(self, "omega", omega)

    @property
    def complement(self) -> tuple[int, ...]:
        inside = set(self.omega)
        return tuple(v for v in range(self.num_relays + 2) if v not in inside)


@dataclass(frozen=True)
class NetworkInstance:
    """Immutable problem instance: topology, gains and transmit power.

    Construction (``from_links`` and ``dataclasses.replace`` included)
    raises ValueError when ``num_relays`` is not an integer in
    [0, MAX_RELAYS] or ``channel`` is not (N+2) x (N+2).  It then raises
    ValueError naming every other violation, joined by "; ": a
    non-finite channel entry, a power or ``alpha`` that is not positive
    and finite, a ``beta`` that is not nonnegative and finite, and a
    coefficient off the 1-2-1 link set.  When none of these is found,
    an instance whose P * max(alpha, beta)^2 * sum |h|^2 overflows is
    rejected too.  An unreachable destination is valid: the instance
    has zero capacity.
    """

    num_relays: int
    channel: np.ndarray
    power: float
    alpha: float
    beta: float
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        n = _check_relay_count(self.num_relays)
        h = np.array(self.channel, dtype=np.complex128)
        if h.shape != (n + 2, n + 2):
            raise ValueError(
                f"channel must be ({n + 2}, {n + 2}) for {n} relays, got {h.shape}"
            )
        h.flags.writeable = False
        object.__setattr__(self, "num_relays", n)
        object.__setattr__(self, "channel", h)
        object.__setattr__(self, "power", float(self.power))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))

        violations = []
        if not np.all(np.isfinite(h.view(np.float64))):
            violations.append("channel contains non-finite entries")
        if self.power <= 0 or not np.isfinite(self.power):
            violations.append(f"power must be positive, got {self.power}")
        if self.alpha <= 0 or not np.isfinite(self.alpha):
            violations.append(f"alpha must be positive, got {self.alpha}")
        if self.beta < 0 or not np.isfinite(self.beta):
            violations.append(f"beta must be nonnegative, got {self.beta}")

        misplaced = (h != 0) & ~admissible_links(n)
        for v in np.flatnonzero(np.diag(misplaced)).tolist():
            violations.append(f"self-channel at node {v}")
        np.fill_diagonal(misplaced, False)
        for j, i in np.argwhere(misplaced).tolist():
            violations.append(f"coefficient outside receiver/transmitter range at ({j}, {i})")

        # bounds every signal, noise sum and P sigma^2; Python floats overflow silently
        lobe = max(self.alpha, self.beta)
        scale = self.power * lobe * lobe * float(np.vdot(h, h).real)
        if not violations and not np.isfinite(scale):
            with np.errstate(over="ignore"):
                gain = np.abs(h)
            j, i = np.unravel_index(np.argmax(gain), gain.shape)
            violations.append(
                f"power * max(alpha, beta)^2 * sum |h|^2 overflows: power={self.power}, alpha="
                f"{self.alpha}, beta={self.beta}, strongest link ({i}, {j}) has |h|={gain[j, i]}"
            )
        if violations:
            raise ValueError("; ".join(violations))

    # -- basic topology helpers -------------------------------------------

    @property
    def destination(self) -> int:
        return self.num_relays + 1

    def link_mask(self) -> np.ndarray:
        """Boolean [j, i] mask of the nonzero admissible links i -> j."""
        return admissible_links(self.num_relays) & (self.channel != 0)

    def links(self) -> list[tuple[int, int]]:
        """All nonzero directed links (i, j), receiver-major order."""
        return [(i, j) for j, i in np.argwhere(self.link_mask()).tolist()]

    @classmethod
    def from_links(
        cls,
        num_relays: int,
        links: dict[tuple[int, int], complex],
        power: float,
        alpha: float,
        beta: float,
        metadata: dict | None = None,
    ) -> "NetworkInstance":
        """Build an instance from a sparse {(i, j): h_ji} link map."""
        n = _check_relay_count(num_relays)
        h = np.zeros((n + 2, n + 2), dtype=np.complex128)
        admissible = admissible_links(n)
        for (i, j), gain in links.items():
            # range first: a negative index would wrap around the mask
            if not (0 <= i <= n + 1 and 0 <= j <= n + 1 and admissible[j, i]):
                raise ValueError(f"link ({i}, {j}) outside valid index ranges")
            h[j, i] = gain
        return cls(n, h, power, alpha, beta, metadata or {})


def max_degree(inst: NetworkInstance) -> int:
    """Maximum node degree over the nonzero-link topology.

    Counts distinct neighbors in either direction, so a node with links
    both to and from the same peer counts that peer once.
    """
    links = inst.link_mask()
    return int((links | links.T).sum(axis=0).max())


def validate_pattern(inst: NetworkInstance, pattern: AlignmentPattern) -> None:
    """Raise InvalidPatternError unless every pair is a nonzero link."""
    for i, j in pattern:
        if not (0 <= i <= inst.num_relays and 1 <= j <= inst.destination):
            raise InvalidPatternError(
                f"pair ({i}, {j}) outside transmitter/receiver ranges"
            )
        if inst.channel[j, i] == 0:
            raise InvalidPatternError(f"pair ({i}, {j}) references a zero link")


def effective_channel(
    inst: NetworkInstance, pattern: AlignmentPattern
) -> np.ndarray:
    """Channel matrix seen under a fixed alignment pattern.

    Aligned pairs carry ``alpha`` times the raw coefficient, every other
    link the side-lobe factor ``beta``.  Shape and indexing match
    ``inst.channel``.
    """
    validate_pattern(inst, pattern)
    h = inst.beta * inst.channel
    for i, j in pattern:
        h[j, i] = inst.alpha * inst.channel[j, i]
    return h
