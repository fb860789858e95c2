"""Cut blocks, log-det capacities and diagonal-dominance ratios.

For a cut Omega and an alignment pattern the relevant channel block M
has rows indexed by the receiving side Omega^c and columns by the source
side Omega.  Its entries are the side-lobe coefficients ``beta * h``,
except for the pattern's aligned pairs that cross the cut, which carry
``alpha * h``.  The cut is worth log2 det(I + P M M^H) bits, and the gap
analysis needs the Gram matrix I + P M M^H, over the smaller of the two
dimensions, to be diagonally dominant.

A block depends on its pattern only through the aligned pairs that cross
the cut.  ``cut_block_tables`` therefore groups, cut by cut, the patterns
by that restriction (the rows of the state space's pattern x link
incidence, restricted to the links that cross the cut) and builds each
distinct block once, in its wide orientation (rows <= columns) and
ascending node order.  All distinct blocks are zero-padded to one
shape -- a zero row adds a zero singular value and an identity row to
the Gram matrix, a zero column nothing -- and evaluated in one batch:

* the capacity as the sum of log2(1 + P sigma^2) over the singular
  values of M, which stays accurate for rank-deficient blocks at high
  power, where a factorization of the Gram matrix loses digits;
* the dominance ratio from the batched Gram matrices.

``gram_matrix`` and ``dominance_ratio`` work on any stack of blocks or
Gram matrices, batched over leading axes.  ``cut_state_matrix`` is the
per-pair route: one block sliced from the full effective channel, which
``log_det_capacity`` and ``cut_dominance_ratio`` evaluate with the same
helpers as the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .enumeration import EnumerationCapError, StateSpace
from .model import AlignmentPattern, Cut, NetworkInstance, effective_channel

__all__ = [
    "CutBlockTables",
    "cut_block_tables",
    "cut_state_matrix",
    "gram_matrix",
    "log_det_capacity",
    "dominance_ratio",
    "cut_dominance_ratio",
]

_LN2 = math.log(2.0)
MAX_CROSSING_LINKS = 62


def gram_matrix(blocks: np.ndarray, power: float) -> np.ndarray:
    """Gram matrices I + P M M^H of a stack of blocks (..., r, s)."""
    eye = np.eye(blocks.shape[-2])
    return eye + power * (blocks @ np.swapaxes(blocks.conj(), -1, -2))


def _log_dets(blocks: np.ndarray, power: float) -> np.ndarray:
    """log2 det(I + P M M^H) of a stack of blocks, from singular values."""
    sigma = np.linalg.svd(blocks, compute_uv=False)
    return np.log1p(power * sigma**2).sum(axis=-1) / _LN2


def dominance_ratio(grams: np.ndarray) -> np.ndarray:
    """Worst row ratio of off-diagonal mass to the diagonal, per matrix.

    A ratio <= 1 means every row of that matrix is (weakly) diagonally
    dominant.  Zero for 1x1 and diagonal matrices.
    """
    abs_g = np.abs(grams)
    diag = np.diagonal(abs_g, axis1=-2, axis2=-1)
    return np.max((abs_g.sum(axis=-1) - diag) / diag, axis=-1)


@dataclass(frozen=True)
class CutBlockTables:
    """Capacity and dominance ratio of every (cut, pattern) block.

    ``values[c, p]`` is log2 det(I + P M M^H) in bits and ``rho[c, p]``
    the dominance ratio of that Gram matrix, for ``space.cuts[c]`` and
    ``space.patterns[p]``.  ``distinct_blocks`` counts the blocks built.
    """

    values: np.ndarray
    rho: np.ndarray
    distinct_blocks: int


def _group_rows(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a boolean matrix, and the group of every row.

    Each row is packed into one int64 key, which sorts several times
    faster than ``np.unique(bits, axis=0)``; rows wider than
    MAX_CROSSING_LINKS bits do not fit and are rejected.
    """
    if bits.shape[1] > MAX_CROSSING_LINKS:
        raise EnumerationCapError(
            f"a cut is crossed by {bits.shape[1]} nonzero links; "
            f"the cut-block kernel handles at most {MAX_CROSSING_LINKS}"
        )
    codes = bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return bits[first], inverse.reshape(-1)


def cut_block_tables(inst: NetworkInstance, space: StateSpace) -> CutBlockTables:
    """Values and dominance ratios of all (cut, pattern) blocks at once.

    Each distinct (cut, crossing aligned pairs) block is built once; see
    the module docstring for why that and the padding are exact.  Raises
    EnumerationCapError when a cut is crossed by more than
    MAX_CROSSING_LINKS nonzero links.
    """
    tx, rx = np.array(space.links, dtype=np.intp).reshape(-1, 2).T
    index = np.empty((len(space.cuts), len(space.patterns)), dtype=np.intp)
    chunks = []
    built = 0
    for c, omega in enumerate(space.source_side):
        rows, cols = np.flatnonzero(~omega), np.flatnonzero(omega)
        crossing = np.flatnonzero(space.crossing[c])
        keys, inverse = _group_rows(space.incidence[:, crossing])
        index[c] = built + inverse
        built += len(keys)

        base = inst.beta * inst.channel[np.ix_(rows, cols)]
        m = np.repeat(base[None], len(keys), axis=0)
        block, k = np.nonzero(keys)
        i, j = tx[crossing[k]], rx[crossing[k]]
        m[block, np.searchsorted(rows, j), np.searchsorted(cols, i)] = (
            inst.alpha * inst.channel[j, i]
        )
        if len(rows) > len(cols):
            m = np.swapaxes(m.conj(), 1, 2)
        chunks.append(m)

    height = max(chunk.shape[1] for chunk in chunks)
    width = max(chunk.shape[2] for chunk in chunks)
    blocks = np.zeros((built, height, width), dtype=np.complex128)
    start = 0
    for chunk in chunks:
        blocks[start : start + len(chunk), : chunk.shape[1], : chunk.shape[2]] = chunk
        start += len(chunk)

    values = _log_dets(blocks, inst.power)
    rho = dominance_ratio(gram_matrix(blocks, inst.power))
    return CutBlockTables(values=values[index], rho=rho[index], distinct_blocks=built)


def cut_state_matrix(
    inst: NetworkInstance, pattern: AlignmentPattern, cut: Cut
) -> np.ndarray:
    """Effective channel at rows Omega^c x columns Omega, both ascending.

    A tall block is conjugate-transposed, which changes neither its
    log-det nor its Gram matrix's dominance ratio.
    """
    m = effective_channel(inst, pattern)[np.ix_(cut.complement, cut.omega)]
    return m if m.shape[0] <= m.shape[1] else m.conj().T


def log_det_capacity(block: np.ndarray, power: float) -> float:
    """log2 det(I + P M M^H) in bits; exactly 0 for an all-zero block."""
    return float(_log_dets(block, power))


def cut_dominance_ratio(block: np.ndarray, power: float) -> float:
    """Dominance ratio of the Gram matrix I + P M M^H."""
    return float(dominance_ratio(gram_matrix(block, power)))
