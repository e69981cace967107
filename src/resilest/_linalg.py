"""Shared numerical-rank and pseudoinverse conventions.

Every singular-value rank decision uses the same policy: singular values
below ``max(rows, cols) * sigma_max * eps_rel`` count as zero.  The default
``eps_rel`` is deliberately tight so that the observability matrices of
fast-sampled plants keep their structurally observable directions.  The
helpers also take stacks of matrices (leading axes), one result per matrix.

Gram floor.  The selection scans also read ranks from Gram matrices
``G = B'B`` (n x n), whose eigenvalues are the squared singular values of
``B``.  They are decided in floating point only up to a rounding bound
(Golub & Van Loan, *Matrix Computations*, 4th ed., sections 5.3 and 8.1):
forming ``G`` from ``rows`` rows errs by at most ``gamma_rows * n * |B|_2^2``
in the 2-norm, ``eigvalsh`` is backward stable, and by Weyl's theorem every
computed eigenvalue then lies within ``b * lambda_max`` of the exact one, with
``b = 2 * (rows + 2n) * n * eps``: four times the first-order term of
forming ``G`` (``rows * n * u``, ``u = eps/2``), plus ``8 n^2 u`` for
``eigvalsh``.  :func:`gram_floor` is ``4 f^2 + sqrt(b)``, where ``f`` is this
module's singular-value floor for a ``rows x n`` matrix.  A Gram matrix with
``lambda_min`` above ``gram_floor * lambda_max`` certifies full column rank:
its ``sigma_min`` is then at least twice the floor ``f * sigma_max`` and far
above the SVD's own rounding, so the SVD decides full rank as well.  Its
eigenvalues are then accurate to ``b * kappa <= sqrt(b)`` relative, which
bounds the error of any value ranked by them.  Every other Gram matrix is
undecided and goes to the SVD.  The gap is wide on orthonormal blocks such
as the padded staircase bases: there ``G_S`` is a sum of projectors, whose
full-rank selections read ``lambda_min/lambda_max >= 0.125`` on the 1 ms
inertia chains N = 3..8 (1 on dense models), against a floor of at most
1.4e-6, and whose deficient ones read round-off (``<= 5e-16``).
On a monomial observability matrix ``lambda`` itself falls to round-off
(``rho_2q^2`` is 6.7e-14 on the demo plant), so there the SVD decides.
"""

from __future__ import annotations

import math

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


def gram_floor(rows: int, cols: int, eps_rel: float | None = None) -> float:
    """``lambda_min/lambda_max`` a ``cols x cols`` Gram matrix of ``rows`` rows must exceed to
    certify full column rank (see the module docstring)."""
    b = 2.0 * (rows + 2 * cols) * cols * np.finfo(float).eps
    f = max(rows, cols) * (_eps_rel if eps_rel is None else eps_rel)
    return 4.0 * f * f + math.sqrt(b)


def spectral_norm(matrix: np.ndarray) -> np.ndarray:
    """2-norm: the largest singular value."""
    return np.linalg.svd(matrix, compute_uv=False).max(axis=-1)
