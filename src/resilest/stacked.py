"""Sensor index sets and block-structured coding matrices.

A measurement is a ``(p, n)`` array whose row ``i`` is sensor ``i``'s block,
as the observer bank holds it.  An ``(n*p) x n`` coding matrix is read as
``p`` stacked ``n x n`` row slabs.  Sensor index sets are 1-based on the
public surface and 0-based only at the numpy boundary.

All operations here are pure; none mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from ._linalg import gram_rounding


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing set of sensor indices drawn from ``1..p``."""

    indices: tuple[int, ...]
    p: int

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError("ambient sensor count p must be nonnegative")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("indices must be strictly increasing without duplicates")
        if self.indices and not (1 <= self.indices[0] and self.indices[-1] <= self.p):
            raise ValueError(f"indices must lie in 1..{self.p}, got {self.indices}")

    @classmethod
    def of(cls, indices: Iterable[int], p: int) -> "IndexSet":
        return cls(tuple(sorted({int(i) for i in indices})), p)

    @classmethod
    def full(cls, p: int) -> "IndexSet":
        return cls(tuple(range(1, p + 1)), p)

    def complement(self) -> "IndexSet":
        members = set(self.indices)
        return IndexSet(tuple(i for i in range(1, self.p + 1) if i not in members), self.p)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, i: object) -> bool:
        return i in self.indices


@dataclass(frozen=True)
class CodingMatrix:
    """Finite real ``(block_len*block_count) x block_len`` matrix with row slabs."""

    entries: np.ndarray
    block_len: int
    block_count: int

    def __post_init__(self) -> None:
        entries = np.atleast_2d(np.asarray(self.entries, dtype=float))
        object.__setattr__(self, "entries", entries)
        if self.block_len < 1 or self.block_count < 0:
            raise ValueError("need block_len >= 1 and block_count >= 0")
        expected = (self.block_len * self.block_count, self.block_len)
        if entries.shape != expected:
            raise ValueError(f"entries shape {entries.shape} != {expected}")
        if np.count_nonzero(np.isfinite(entries)) < entries.size:
            raise ValueError("coding matrix entries must be finite")

    @classmethod
    def from_blocks(cls, blocks: Iterable[np.ndarray]) -> "CodingMatrix":
        parts = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
        if not parts:
            raise ValueError("at least one block required")
        n = parts[0].shape[1]
        if any(b.shape != (n, n) for b in parts):
            raise ValueError("every block must be n x n")
        return cls(np.vstack(parts), n, len(parts))

    @property
    def blocks(self) -> np.ndarray:
        """The row slabs as a ``(block_count, n, n)`` view."""
        return self.entries.reshape(self.block_count, self.block_len, self.block_len)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # finite entries near 1e200 overflow
    def grams(self) -> np.ndarray:
        """Gram table ``B_i'B_i`` of the row slabs, ``(block_count, n, n)``, formed once."""
        blocks = self.blocks
        return blocks.transpose(0, 2, 1) @ blocks

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # an overflowed G_i groups with no block
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """0-based blocks sharing a sensor subspace, ordered by their first block.

        Block i joins the first group whose first Gram matrix ``G_f`` lies within ``tau = b
        |G_f|_F`` of ``G_i`` in Frobenius norm, with ``b`` the Gram rounding band of all ``p n``
        rows (``_linalg.gram_rounding``); otherwise it opens a group.  A ``G_f`` whose norm
        overflows has no finite ``tau`` and is joined by no block.  On orthonormal blocks
        ``G_i`` is the projector onto sensor i's observable subspace, so a group is one
        subspace seen by several sensors.
        """
        p, n = self.block_count, self.block_len
        flat = self.grams.reshape(p, n * n)
        tau = gram_rounding(p * n, n) * np.linalg.norm(flat, axis=1)
        tau[~np.isfinite(tau)] = -1.0  # inf <= inf would group every block with it
        firsts: list[int] = []
        groups: list[list[int]] = []
        for i in range(p):
            near = np.flatnonzero(np.linalg.norm(flat[firsts] - flat[i], axis=1) <= tau[firsts])
            if len(near):
                groups[near[0]].append(i)
            else:
                firsts.append(i)
                groups.append([i])
        return tuple(map(tuple, groups))

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # NaN gaps for an overflowed G_i
    def group_spread(self) -> float:
        """The largest Frobenius distance of a block's ``G_i`` from its group's first (0 when
        every group is a singleton): no more than ``tau``."""
        firsts = [group[0] for group in self.groups for _ in group]
        order = [i for group in self.groups for i in group]
        gaps = np.linalg.norm(self.grams[order] - self.grams[firsts], axis=(1, 2))
        return float(gaps.max(initial=0.0))

    def selection_stack(self, members: np.ndarray) -> np.ndarray:
        """Row slabs of each row of 0-based ``members`` (c, size), compacted: ``(c, size*n, n)``."""
        return self.blocks[members].reshape(len(members), -1, self.block_len)
