"""Shared numerical-rank and pseudoinverse conventions.

Every rank decision in the package uses the same policy: singular values
below ``max(rows, cols) * sigma_max * eps_rel`` count as zero.  The default
``eps_rel`` is deliberately tight so that near-identity state matrices
(fast-sampled plants) keep their structurally observable directions.
"""

from __future__ import annotations

import numpy as np

DEFAULT_EPS_REL = 1e-14

_eps_rel = DEFAULT_EPS_REL


def set_eps_rel(value: float) -> None:
    """Override the package-wide relative rank tolerance."""
    global _eps_rel
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"eps_rel must lie in (0, 1), got {value}")
    _eps_rel = value


def get_eps_rel() -> float:
    return _eps_rel


def matrix_rank(matrix: np.ndarray, eps_rel: float | None = None) -> int:
    """Numerical rank: count of singular values above the shared floor."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    eps = _eps_rel if eps_rel is None else eps_rel
    return int(np.count_nonzero(s > max(matrix.shape) * s[0] * eps))


def pinv(matrix: np.ndarray, eps_rel: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the shared singular-value floor."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0:
        return matrix.T.copy()
    eps = _eps_rel if eps_rel is None else eps_rel
    return np.linalg.pinv(matrix, rcond=max(matrix.shape) * eps)


def sigma_min(matrix: np.ndarray) -> float:
    """Smallest of the full set of singular values (0 for empty input)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0:
        return 0.0
    return float(np.linalg.svd(matrix, compute_uv=False)[-1])
