"""Block-structured index sets, vectors, and coding matrices.

A length ``n*p`` vector is read as ``p`` contiguous blocks of length ``n``,
one block per sensor.  An ``(n*p) x n`` matrix is read as ``p`` stacked
``n x n`` row slabs.  Sensor index sets are 1-based on the public surface
and converted to 0-based row ranges only at the numpy boundary.

All operations here are pure; none mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


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

    @classmethod
    def empty(cls, p: int) -> "IndexSet":
        return cls((), p)

    def complement(self) -> "IndexSet":
        members = set(self.indices)
        return IndexSet(tuple(i for i in range(1, self.p + 1) if i not in members), self.p)

    def union(self, other: "IndexSet") -> "IndexSet":
        if other.p != self.p:
            raise ValueError("index sets over different ambient counts")
        return IndexSet.of(set(self.indices) | set(other.indices), self.p)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, i: object) -> bool:
        return i in self.indices

    def row_indices(self, block_len: int) -> np.ndarray:
        """0-based row positions covered by the member blocks of length n."""
        if not self.indices:
            return np.zeros(0, dtype=int)
        return np.concatenate(
            [np.arange((i - 1) * block_len, i * block_len) for i in self.indices]
        )


@dataclass(frozen=True)
class StackedVector:
    """Real vector of length ``block_len * block_count`` viewed blockwise."""

    data: np.ndarray
    block_len: int
    block_count: int

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float).reshape(-1)
        object.__setattr__(self, "data", data)
        if self.block_len < 1 or self.block_count < 0:
            raise ValueError("need block_len >= 1 and block_count >= 0")
        if data.size != self.block_len * self.block_count:
            raise ValueError(
                f"data length {data.size} != block_len*block_count "
                f"{self.block_len * self.block_count}"
            )

    @classmethod
    def from_blocks(cls, blocks: Iterable[np.ndarray]) -> "StackedVector":
        parts = [np.asarray(b, dtype=float).reshape(-1) for b in blocks]
        if not parts:
            raise ValueError("at least one block required")
        n = parts[0].size
        if any(b.size != n for b in parts):
            raise ValueError("all blocks must share one length")
        return cls(np.concatenate(parts), n, len(parts))

    def block(self, i: int) -> np.ndarray:
        """Block ``i`` (1-based), a copy of length ``block_len``."""
        if not 1 <= i <= self.block_count:
            raise IndexError(f"block index {i} outside 1..{self.block_count}")
        n = self.block_len
        return self.data[n * (i - 1): n * i].copy()

    def block_norms(self) -> np.ndarray:
        """2-norm of every block, in index order."""
        return np.linalg.norm(
            self.data.reshape(self.block_count, self.block_len), axis=1
        )

    def zeroed(self, lam: IndexSet) -> "StackedVector":
        """Copy with the blocks outside ``lam`` set to zero."""
        self._check(lam)
        out = np.zeros_like(self.data)
        rows = lam.row_indices(self.block_len)
        out[rows] = self.data[rows]
        return StackedVector(out, self.block_len, self.block_count)

    def compacted(self, lam: IndexSet) -> np.ndarray:
        """Concatenation of the member blocks only (plain vector)."""
        self._check(lam)
        return self.data[lam.row_indices(self.block_len)].copy()

    def _check(self, lam: IndexSet) -> None:
        if lam.p != self.block_count:
            raise ValueError(
                f"index set over {lam.p} sensors applied to {self.block_count} blocks"
            )


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

    def selection_stack(self, members: np.ndarray) -> np.ndarray:
        """Row slabs of each row of 0-based ``members`` (c, size), compacted: ``(c, size*n, n)``."""
        return self.blocks[members].reshape(len(members), -1, self.block_len)

    def block(self, i: int) -> np.ndarray:
        """Row slab ``i`` (1-based), an ``n x n`` copy."""
        if not 1 <= i <= self.block_count:
            raise IndexError(f"block index {i} outside 1..{self.block_count}")
        n = self.block_len
        return self.entries[n * (i - 1): n * i, :].copy()

    def zeroed(self, lam: IndexSet) -> "CodingMatrix":
        """Copy with the row slabs outside ``lam`` set to zero."""
        self._check(lam)
        out = np.zeros_like(self.entries)
        rows = lam.row_indices(self.block_len)
        out[rows, :] = self.entries[rows, :]
        return CodingMatrix(out, self.block_len, self.block_count)

    def compacted(self, lam: IndexSet) -> np.ndarray:
        """Member row slabs stacked in index order (plain 2-d array)."""
        self._check(lam)
        return self.entries[lam.row_indices(self.block_len), :].copy()

    def _check(self, lam: IndexSet) -> None:
        if lam.p != self.block_count:
            raise ValueError(
                f"index set over {lam.p} sensors applied to {self.block_count} blocks"
            )


def stacked_support(z: StackedVector, tol: float = 0.0) -> IndexSet:
    """Indices of blocks whose 2-norm exceeds ``tol``.

    The default tolerance is exact zero; callers working with
    floating-point residuals pass an explicit tolerance.
    """
    norms = z.block_norms()
    return IndexSet.of((i + 1 for i in range(z.block_count) if norms[i] > tol), z.block_count)
