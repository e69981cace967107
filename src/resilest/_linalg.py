"""Shared numerical-rank and pseudoinverse conventions.

Every singular-value rank decision uses the same policy: singular values
below ``max(rows, cols) * sigma_max * eps_rel`` count as zero.  The default
``eps_rel`` is deliberately tight so that the observability matrices of
fast-sampled plants keep their structurally observable directions.  The
helpers also take stacks of matrices (leading axes), one result per matrix.
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


def _relative_floor(matrix: np.ndarray, eps_rel: float | None) -> float:
    """Singular values at or below ``sigma_max`` times this count as zero."""
    return max(matrix.shape[-2:]) * (_eps_rel if eps_rel is None else eps_rel)


def _svd_rank(matrix: np.ndarray, eps_rel: float | None):
    s = np.linalg.svd(matrix, compute_uv=False)
    return s, np.count_nonzero(s > _relative_floor(matrix, eps_rel) * s[..., :1], axis=-1)


def matrix_rank(matrix: np.ndarray, eps_rel: float | None = None):
    """Numerical rank: count of singular values above the shared floor."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    ranks = _svd_rank(matrix, eps_rel)[1]
    return int(ranks) if matrix.ndim == 2 else ranks


def pinv(matrix: np.ndarray, eps_rel: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the shared singular-value floor."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    return np.linalg.pinv(matrix, rcond=_relative_floor(matrix, eps_rel))


def sigma_min(matrix: np.ndarray, eps_rel: float | None = None):
    """Smallest singular value, or 0 where the column rank is below full (one SVD for both)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    s, ranks = _svd_rank(matrix, eps_rel)
    last = s[..., -1] if s.shape[-1] else 0.0  # a matrix without rows has no singular values
    smallest = np.where(ranks == matrix.shape[-1], last, 0.0)
    return float(smallest) if matrix.ndim == 2 else smallest


def spectral_norm(matrix: np.ndarray) -> np.ndarray:
    """2-norm: the largest singular value."""
    return np.linalg.svd(matrix, compute_uv=False).max(axis=-1)
