"""Shared numerical-rank and pseudoinverse conventions.

Every singular-value rank decision uses the same policy: singular values
below ``max(rows, cols) * sigma_max * eps_rel`` count as zero.  ``eps_rel`` is
an explicit argument of every helper here and of every analysis and decoding
routine that calls one; no module holds a settable value.  Its default
``DEFAULT_EPS_REL`` is deliberately tight so that the observability matrices of
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
undecided, and the scans send its whole chunk to the SVD.  The gap is wide
on orthonormal blocks such as the padded staircase bases: there ``G_S`` is a
sum of projectors, whose full-rank selections read ``lambda_min/lambda_max
>= 0.125`` on the 1 ms inertia chains N = 3..8 (1 on dense models), against
a floor of at most 1.4e-6, and whose deficient ones read round-off
(``<= 5e-16``).
On a monomial observability matrix ``lambda`` itself falls to round-off
(``rho_2q^2`` is 6.7e-14 on the demo plant), so there the SVD decides.

Cholesky certificate.  Where only the rank is wanted, one Cholesky stands in for the
eigenvalues.  A floating-point Cholesky of a symmetric ``H`` that completes gives ``H + E =
R'R`` with ``|E|_2 <= gamma_{n+1} tr H / (1 - gamma_{n+1})`` (Rump, *Verification of positive
definiteness*, BIT 46, 2006), so ``lambda_min(H) >= -(n + 1) u tr H`` to first order.
:func:`certified_above` factors ``H = fl(G - s I)`` with the shift ``s = gram_floor * tr G +
delta * tr G``, ``delta = (8 n^2 + 2 n + 2) eps = (16 n^2 + 4 n + 4) u``.  A factorization
can complete only when ``s <= tr G / n`` to first order, so the floor term is at most ``tr
G``, and ``delta`` covers four error sources, each a multiple of ``u tr G``:

* Rump's term and the diagonal subtraction, ``(n + 2) u tr G``: a completed
  factorization proves ``lambda_min(G) >= s - (n + 2) u tr G``;
* rounding the shift (``tr G`` sums ``n`` entries, then a product and a sum),
  ``(n + 2) u tr G``;
* the errors of the eigenvalues: ``eigvalsh`` reads ``lambda_min`` at most ``8 n^2 u
  tr G`` low and ``lambda_max`` at most ``(1 + 8 n^2 u) tr G`` (the bound above);
* the comparison: the floor's product ``floor * lambda_max`` rounds by ``u tr G``.

A certified ``G`` then clears ``gram_floor * lambda_max`` by its eigenvalues, which
takes ``(16 n^2 + 2 n + 5) u``; ``delta`` covers it for every ``n >= 1`` and any floor
below 1.  (A floor of 1 or more gives ``s >= tr G``, and the first pivot fails.)  So the
certificate decides nothing the eigenvalues would have left to the SVD.  It is stricter
than the eigenvalues by up to ``tr G / lambda_max <= n``, nothing against the gap on
``Z'``.  A ``G`` with ``tr G <= n s`` has ``lambda_min <= tr G / n <= s`` and is not
factored.  The rest factor in slices, and one failed matrix fails its whole slice.

Margin.  A certificate can speak for Gram matrices it never forms: a ``margin`` ``m``
adds ``2 m`` to the shift, and then every ``H`` with ``|H - G|_2 <= m`` clears the floor as
``G`` would, since ``lambda_min(H) >= lambda_min(G) - m`` and ``floor * lambda_max(H) <=
floor * lambda_max(G) + m`` (Weyl; the floor is below 1).  The error terms of ``H`` grow
with ``tr H <= tr G + n m``, which the slack ``(1 - floor) m`` covers to first order.  The
selection scans of ``analysis`` pass ``m = 2 |S| tau`` for the selections that share a
representative's sensor subspaces.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_EPS_REL = 1e-14


def _relative_floor(matrix: np.ndarray, eps_rel: float) -> float:
    """Singular values at or below ``sigma_max`` times this count as zero."""
    return max(matrix.shape[-2:]) * eps_rel


def _svd_rank(matrix: np.ndarray, eps_rel: float):
    s = np.linalg.svd(matrix, compute_uv=False)
    return s, np.count_nonzero(s > _relative_floor(matrix, eps_rel) * s[..., :1], axis=-1)


def pinv(matrix: np.ndarray, eps_rel: float = DEFAULT_EPS_REL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the shared singular-value floor."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    return np.linalg.pinv(matrix, rcond=_relative_floor(matrix, eps_rel))


def sigma_min(matrix: np.ndarray, eps_rel: float = DEFAULT_EPS_REL):
    """Smallest singular value, or 0 where the column rank is below full (one SVD for both)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    s, ranks = _svd_rank(matrix, eps_rel)
    last = s[..., -1] if s.shape[-1] else 0.0  # a matrix without rows has no singular values
    smallest = np.where(ranks == matrix.shape[-1], last, 0.0)
    return float(smallest) if matrix.ndim == 2 else smallest


def gram_rounding(rows: int, cols: int) -> float:
    """The rounding band ``b``: each eigenvalue of a computed ``cols x cols`` Gram matrix of
    ``rows`` rows lies within ``b * lambda_max`` of the exact one (see the module docstring)."""
    return 2.0 * (rows + 2 * cols) * cols * np.finfo(float).eps


def gram_floor(rows: int, cols: int, eps_rel: float = DEFAULT_EPS_REL) -> float:
    """``lambda_min/lambda_max`` a ``cols x cols`` Gram matrix of ``rows`` rows must exceed to
    certify full column rank (see the module docstring)."""
    f = max(rows, cols) * eps_rel
    return 4.0 * f * f + math.sqrt(gram_rounding(rows, cols))


def certified_above(grams: np.ndarray, rows: int, eps_rel: float = DEFAULT_EPS_REL,
                    per_slice: int | None = None, margin: float = 0.0) -> np.ndarray:
    """Which matrices of the Gram stack ``(c, n, n)`` a Cholesky of ``G - s I`` certifies full
    column rank, ``s = gram_floor * tr G + delta * tr G + 2 margin``: each certified ``G`` clears
    :func:`gram_floor` by its eigenvalues (see the module docstring).  So does every Gram matrix
    within ``margin`` of ``G`` in the 2-norm: its ``lambda_min`` is at least ``lambda_min(G) -
    margin`` and its ``lambda_max`` at most ``lambda_max(G) + margin``, and the floor is below 1.

    A ``G`` with ``tr G <= n s`` has ``lambda_min <= s`` and is not factored.  The others
    factor ``per_slice`` at a time (all together by default), and a slice whose factorization
    completes certifies each of its matrices.  A stack with a non-finite entry certifies none.
    """
    n = grams.shape[-1]
    certified = np.zeros(len(grams), dtype=bool)
    # numpy's Cholesky runs through NaN pivots; a sum that overflows also certifies none
    if not math.isfinite(grams.sum()):
        return certified
    trace = np.trace(grams, axis1=1, axis2=2)
    delta = (8 * n * n + 2 * n + 2) * np.finfo(float).eps
    shift = gram_floor(rows, n, eps_rel) * trace + delta * trace + 2 * margin
    tried = np.flatnonzero(trace > n * shift)
    step = per_slice or max(1, len(tried))
    for start in range(0, len(tried), step):
        part = tried[start:start + step]
        shifted = grams[part]  # a copy of the slice, shifted on its diagonal in place
        shifted.reshape(len(part), n * n)[:, ::n + 1] -= shift[part, None]
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        certified[part] = True
    return certified


def cholesky_certified(grams: np.ndarray, rows: int, eps_rel: float = DEFAULT_EPS_REL,
                       margin: float = 0.0) -> bool:
    """True when one Cholesky of every shifted ``G - s I`` in the stack ``(c, n, n)`` completes,
    which certifies each ``G``, and each Gram matrix within ``margin`` of it, as
    :func:`gram_floor` would from its eigenvalues (see :func:`certified_above`)."""
    return bool(certified_above(grams, rows, eps_rel, margin=margin).all())


def spectral_norm(matrix: np.ndarray) -> np.ndarray:
    """2-norm: the largest singular value."""
    return np.linalg.svd(matrix, compute_uv=False).max(axis=-1)
