"""Detectability, correctability, and security-index analysis of coding matrices.

The central objects are an LTI plant ``x(k+1) = A x(k) + B u(k) + d(k)``,
``y(k) = C x(k) + noise + attack`` and its coding matrix ``Z'``: one block per
sensor, the orthonormal staircase basis of that sensor's observable quotient
padded with zero rows (:func:`coding_matrix`), the same matrix the estimator
decodes with.  A coding matrix tolerates q corrupted sensor blocks exactly
when every selection of ``p - q`` blocks retains full column rank; the
security index is the smallest number of blocks an undetectable input can be
confined to, i.e. the smallest q for which the plant is not q-redundant
observable.  One rank scan per selection size (exhaustive and batched: the
intended envelope is small p, not large sensor networks) serves both views.
The robustness constants' rho and rho_2q, the smallest ``sigma_min`` over the
sizes ``p - q`` and ``p - 2q``, take a second scan of those sizes only.

The scans work on one Gram table ``G_i = B_i'B_i`` per coding matrix: a 0/1
membership product gives each selection's ``G_S = sum_{i in S} G_i``, a chunk
at a time, and each chunk takes one route as a whole.  A scan that only
decides rank (the security index and its witness, detectability, redundant
observability, and which chunks the constants' gains may read from the Gram
inverse) certifies a chunk full rank by one batched shifted Cholesky
(``_linalg.cholesky_certified``).  The scan for rho and rho_2q takes one
batched ``eigvalsh`` per chunk, which gives ``sigma_min^2 = lambda_min``, and
certifies the chunk when every ``lambda_min`` clears ``_linalg.gram_floor``
times ``lambda_max``: the squared SVD floor plus the rounding bound ``sqrt(b)``
(the Cholesky shift is wider still, so it certifies nothing the eigenvalues
would not).  The outside gains ``|B_i pinv(Phi_S)|^2 = lambda_max(B_i G_S^-1
B_i')`` of a certified chunk come from one batched Gram inverse.  Any other
chunk goes to the SVD route whole, and so does the one winning selection that
sets each reported ``rho``, ``rho_2q``, ``eta`` and ``eta_prime``.  So the rank
decisions are the SVD route's on any coding matrix, and every constant is an
SVD value of a real selection; where two selections tie to within the Gram
rounding band (``sqrt(b)`` relative), the reported one may be the other's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import eigvalsh, inv

from ._linalg import (DEFAULT_EPS_REL, cholesky_certified, gram_floor, pinv, sigma_min,
                      spectral_norm)
from .stacked import CodingMatrix, IndexSet

__all__ = [
    "AnalysisReport",
    "CorrectabilityError",
    "RobustnessConstants",
    "SystemModel",
    "UnsupportedInputError",
    "analyze",
    "coding_matrix",
    "is_q_error_correctable",
    "is_q_error_detectable",
    "is_q_redundant_observable",
    "observability_matrix",
    "quotient_basis",
    "robustness_constants",
    "security_index",
    "security_index_eigenvector",
    "sensor_observability_matrix",
    "sensor_selections",
    "stacked_cospark",
]


class CorrectabilityError(ValueError):
    """Raised when a computation requires more error correctability than the
    coding matrix provides."""


class UnsupportedInputError(ValueError):
    """Raised for inputs outside a routine's supported class (for example a
    repeated-eigenvalue state matrix given to the eigenvector security-index
    route)."""


@dataclass(frozen=True)
class SystemModel:
    """Discrete-time LTI plant with disturbance and per-sensor noise bounds."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    d_max: float = 0.0
    n_max: float = 0.0

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape}")
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {C.shape}")
        for name, matrix in (("A", A), ("B", B), ("C", C)):
            # count_nonzero: about half the cost of .all() on these small arrays
            if np.count_nonzero(np.isfinite(matrix)) < matrix.size:
                raise ValueError(f"{name} must be finite")
        if not (0 <= self.d_max < math.inf and 0 <= self.n_max < math.inf):
            raise ValueError(f"d_max and n_max must be finite and nonnegative, "
                             f"got d_max={self.d_max}, n_max={self.n_max}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class RobustnessConstants:
    """Worst-case gains used by the detection and decoding error bounds.

    ``rho`` is the smallest minimum singular value over all (p-q)-block
    selections; ``rho_2q`` the same over (p-2q)-block selections.  ``eta``
    and ``eta_prime`` bound how strongly an excluded block can react to a
    selection's least-squares solve.  ``theta`` scales the measurement noise
    bound into the decoder's per-block violation threshold, and ``kappa_d``,
    ``kappa_e``, ``kappa_c``, ``kappa_c_prime`` convert noise bounds into
    state/error-magnitude bounds.
    """

    q: int
    r: int
    rho: float
    eta: float
    kappa_d: float
    kappa_e: float
    eta_prime: float
    theta: float
    kappa_c: float
    kappa_c_prime: float
    rho_2q: float


@dataclass(frozen=True)
class AnalysisReport:
    """Summary of a model's resilience against sparse sensor corruption."""

    security_index: int
    max_detectable_q: int
    max_correctable_q: int
    redundancy_degree: int
    witness: IndexSet
    per_q_constants: dict[int, RobustnessConstants] = field(default_factory=dict)


def sensor_observability_matrix(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """n x n observability matrix of a single sensor row ``c``."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    c = np.asarray(c, dtype=float).reshape(-1)
    rows = [c]
    for _ in range(A.shape[0] - 1):
        rows.append(rows[-1] @ A)
    return np.vstack(rows)


def observability_matrix(model: SystemModel) -> CodingMatrix:
    """Stacked monomial observability matrix: one n x n sensor block per row slab.

    It is the input-output map of the first n samples (initial-state recovery
    decodes with it); the analysis runs on :func:`coding_matrix`, which has the
    same selection ranks in exact arithmetic and no powers of ``A``.
    """
    blocks = [sensor_observability_matrix(model.A, model.C[i]) for i in range(model.p)]
    return CodingMatrix.from_blocks(blocks)


# The staircase stops when the new direction is below this fraction of
# ||A||_2; nu is the same for every value from 1e-6 to 1e-13 on the inertia
# chains (N = 3..8, T_s = 0.1 ms..0.1 s) and first changes at 1e-14.
_STAIRCASE_TOL = 1e-10


def quotient_basis(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Orthonormal rows ``Z'`` (nu x n) spanning the observable quotient of ``(A, c)``.

    The orthogonal staircase (Paige, IEEE TAC 1981; Van Dooren, IEEE TAC
    1981) is Arnoldi with full reorthogonalization on the rows ``c, cA, ...``:
    ``q_1 = c/|c|`` and ``q_{j+1}`` is the normalized part of ``q_j A``
    orthogonal to ``q_1..q_j``, until that part falls below
    ``_STAIRCASE_TOL * |A|_2``.  A zero row ``c`` observes nothing: no rows.
    """
    norm_c = float(np.linalg.norm(c))
    if norm_c == 0.0:
        return np.zeros((0, len(c)))
    floor = _STAIRCASE_TOL * float(np.linalg.norm(A, 2))
    Q = c[None] / norm_c  # the rows q_1, q_2, ... of Z'
    while len(Q) < len(c):
        v = Q[-1] @ A
        for _ in range(2):  # a second Gram-Schmidt pass restores orthogonality to round-off
            v = v - (Q @ v) @ Q
        h = float(np.linalg.norm(v))
        if h <= floor:
            break
        Q = np.vstack([Q, v / h])
    return Q


def coding_matrix(model: SystemModel) -> CodingMatrix:
    """The padded staircase bases ``Z'``: block i is ``quotient_basis(A, c_i)`` over
    ``n - nu_i`` zero rows (a zero block for a zero output row).

    This is the estimator's coding matrix (``ObserverBank.phi``), bit for bit.
    """
    n = model.n
    blocks = np.zeros((model.p, n, n))
    for i, c in enumerate(model.C):
        Q = quotient_basis(model.A, c)
        blocks[i, : len(Q)] = Q
    return CodingMatrix(blocks.reshape(model.p * n, n), n, model.p)


_STACK_FLOATS = 1 << 15  # per chunk of selections: 256 kB of intermediates


def sensor_selections(p: int, size: int) -> np.ndarray:
    """Every ``size``-subset of ``range(p)``, lexicographic: the order of every selection scan."""
    count = math.comb(p, size)
    members = itertools.chain.from_iterable(itertools.combinations(range(p), size))
    return np.fromiter(members, dtype=np.intp, count=count * size).reshape(count, size)


def _selection_grams(phi: CodingMatrix, size: int, floats_per_selection: int):
    """Lexicographic chunks of (0-based members, their ``(c, n, n)`` Gram sums ``G_S``).

    Each chunk's members are drawn from ``combinations`` as it is reached, and its ``G_S``
    is one product of its 0/1 membership rows with the Gram table.
    """
    p, n = phi.block_count, phi.block_len
    table = phi.grams.reshape(p, n * n)
    step = max(1, _STACK_FLOATS // max(1, floats_per_selection))
    total, selections = math.comb(p, size), itertools.combinations(range(p), size)
    for start in range(0, total, step):
        count = min(step, total - start)
        flat = itertools.chain.from_iterable(itertools.islice(selections, count))
        chunk = np.fromiter(flat, dtype=np.intp, count=count * size).reshape(count, size)
        inside = np.zeros((count, p))
        np.put_along_axis(inside, chunk, 1.0, axis=1)
        yield chunk, (inside @ table).reshape(count, n, n)


def _first_deficient(phi: CodingMatrix, size: int, eps_rel: float) -> tuple[int, ...] | None:
    """0-based members of the lexicographically first rank-deficient ``size``-selection,
    or None when every one has full column rank.

    The rank-only scan: detectability and the security index share it.  A chunk whose
    shifted Cholesky completes is full rank; any other chunk takes the SVD as a whole,
    which decides its ranks, and the scan stops at the first chunk holding a deficient
    selection.
    """
    n = phi.block_len
    # three n x n per selection: G_S, the certificate's shifted copy and its factor
    for members, grams in _selection_grams(phi, size, 3 * n * n):
        if not cholesky_certified(grams, size * n, eps_rel):
            svd = sigma_min(phi.selection_stack(members), eps_rel)
            first = int(np.argmin(svd))
            if svd[first] == 0.0:  # sigma_min is 0 exactly at a rank-deficient selection
                # a tuple, not a view that would keep every size-selection alive
                return tuple(members[first].tolist())
    return None


def _selection_sigma_min(phi: CodingMatrix, size: int, eps_rel: float) -> float:
    """Smallest ``sigma_min`` over the ``size``-selections: 0.0 when one is rank deficient.

    The scan that reads values, for rho and rho_2q: one batched ``eigvalsh`` per chunk.  A
    chunk whose every ``lambda_min`` clears ``_linalg.gram_floor`` reads ``sigma_min^2 =
    lambda_min``; any other chunk takes the SVD whole, which decides its ranks and gives
    its ``sigma_min``.  A minimum a certified chunk holds is confirmed by its SVD value.
    """
    n = phi.block_len
    floor = gram_floor(size * n, n, eps_rel)
    rho, winner = math.inf, None  # winner: a certified selection to confirm by SVD
    for members, grams in _selection_grams(phi, size, n * n):
        lam = eigvalsh(grams)
        if (lam[:, 0] > floor * lam[:, -1]).all():  # False for NaN too
            best = int(np.argmin(lam[:, 0]))
            if math.sqrt(lam[best, 0]) < rho:
                rho, winner = math.sqrt(lam[best, 0]), members[best]
        else:
            svd = sigma_min(phi.selection_stack(members), eps_rel)
            first = int(np.argmin(svd))
            if svd[first] == 0.0:  # sigma_min is 0 exactly at a rank-deficient selection
                return 0.0
            if svd[first] < rho:
                rho, winner = float(svd[first]), None
    if winner is not None:
        rho = float(sigma_min(phi.selection_stack(winner[None]), eps_rel)[0])
    return rho


def _svd_gains(phi: CodingMatrix, members: np.ndarray, others: np.ndarray,
               eps_rel: float) -> np.ndarray:
    """The SVD route's ``|block_i @ pinv(selection)|``: a row per selection, one per ``others``."""
    excluded = phi.blocks[others]
    return spectral_norm(excluded @ pinv(phi.selection_stack(members), eps_rel)[:, None])


def is_q_error_detectable(phi: CodingMatrix, q: int, eps_rel: float = DEFAULT_EPS_REL) -> bool:
    """True when every selection of ``p - q`` blocks has full column rank.

    Checking only selections of exactly ``p - q`` blocks suffices: adding
    blocks never lowers rank.
    """
    p = phi.block_count
    if not 0 <= q <= p:
        raise ValueError(f"q must lie in 0..{p}, got {q}")
    return _first_deficient(phi, p - q, eps_rel) is None


def is_q_error_correctable(phi: CodingMatrix, q: int, eps_rel: float = DEFAULT_EPS_REL) -> bool:
    """True when any two q-block corruptions remain distinguishable.

    Equivalent to 2q-error detectability; for ``2q > p`` this is never
    satisfiable (an empty selection cannot have full column rank).
    """
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    if 2 * q > phi.block_count:
        return False
    return is_q_error_detectable(phi, 2 * q, eps_rel)


def _index_scan(phi: CodingMatrix, eps_rel: float):
    """Selection sizes p, p - 1, ... down to the first with a rank-deficient selection.

    Returns the cospark and the 0-based members of the stopping size's first deficient
    selection.  The scan always stops, because the empty selection has rank 0 < n.
    """
    p = phi.block_count
    for size in range(p, -1, -1):
        deficient = _first_deficient(phi, size, eps_rel)
        if deficient is not None:
            return p - size, deficient
    raise AssertionError("unreachable: the empty selection is rank deficient")


def stacked_cospark(phi: CodingMatrix, eps_rel: float = DEFAULT_EPS_REL) -> int:
    """Minimum number of nonzero blocks of ``phi @ x`` over nonzero ``x``.

    Equals the smallest ``q`` for which ``phi`` is not q-error detectable:
    the scan runs q = 0, 1, ..., p (selection sizes p down to 0).
    """
    return _index_scan(phi, eps_rel)[0]


def security_index(model: SystemModel, eps_rel: float = DEFAULT_EPS_REL) -> int:
    """Minimum number of corrupted sensors that can stay undetectable."""
    return stacked_cospark(coding_matrix(model), eps_rel)


def security_index_eigenvector(
    model: SystemModel,
    tol: float | None = None,
    gap_tol: float = 1e-8,
) -> int:
    """Security index via the eigenvector route: min over normalized
    eigenvectors v of the number of nonzero entries of ``C v``.

    Only supports state matrices with n distinct eigenvalues; repeated
    spectra make the minimization over an eigenspace itself combinatorial,
    and callers should use :func:`security_index` instead.  Entry moduli at
    or below ``tol`` count as zero (default: scaled by ``norm(C v)``).
    """
    eigvals, eigvecs = np.linalg.eig(model.A)
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    for a, b in itertools.combinations(eigvals, 2):
        if abs(a - b) <= gap_tol * scale:
            raise UnsupportedInputError(
                "repeated eigenvalues: the eigenvector security-index route "
                "requires a distinct spectrum; use security_index() instead"
            )
    best = model.p
    for j in range(model.n):
        v = eigvecs[:, j]
        v = v / np.linalg.norm(v)
        cv = model.C @ v
        cut = tol if tol is not None else 1e-9 * max(1.0, float(np.linalg.norm(cv)))
        best = min(best, int(np.count_nonzero(np.abs(cv) > cut)))
    return best


def is_q_redundant_observable(model: SystemModel, q: int,
                              eps_rel: float = DEFAULT_EPS_REL) -> bool:
    """True when (A, C) stays observable after removing any q sensor rows."""
    return is_q_error_detectable(coding_matrix(model), q, eps_rel)


def robustness_constants(
    phi: CodingMatrix,
    q: int,
    r: int,
    eps_rel: float = DEFAULT_EPS_REL,
) -> RobustnessConstants:
    """Evaluate every worst-case constant by exhaustive subset enumeration.

    Requires ``q <= r <= 2q`` and ``p >= 2q + 1``.  A chunk of selections no Gram
    certificate decides takes the SVD whole; a maximum over an empty collection is 0.

    Raises :class:`CorrectabilityError` when ``p < 2q + 1`` or the
    (p-2q)-selections are not all full rank (the constants are undefined
    without q-error correctability), read from the same SVDs that give
    ``rho_2q``.
    """
    return _constants(phi, q, r, eps_rel, {})


def _constants(phi: CodingMatrix, q: int, r: int, eps_rel: float,
               rhos: dict[int, float]) -> RobustnessConstants:
    """:func:`robustness_constants`, reading rho of a selection size from ``rhos`` when
    an earlier call recorded it, and recording every size it scans itself."""
    p, n = phi.block_count, phi.block_len
    if not q <= r <= 2 * q:
        raise ValueError(f"need q <= r <= 2q, got q={q}, r={r}")
    if p < 2 * q + 1:
        raise CorrectabilityError(f"constants undefined: q={q} needs p >= 2q+1 sensors, "
                                  f"got p={p}")

    def rho_of(size: int) -> float:
        if size not in rhos:
            rhos[size] = _selection_sigma_min(phi, size, eps_rel)
        if rhos[size] == 0.0:
            raise CorrectabilityError("constants undefined: correctability violated "
                                      f"(a {size}-block selection is rank deficient)")
        return rhos[size]

    rho_2q, rho = rho_of(p - 2 * q), rho_of(p - q)  # the first scan decides correctability

    def outside_gains(size: int) -> np.ndarray:
        """``|block_i @ pinv(selection)|``: a row per selection, -inf at its members.

        A chunk the shifted Cholesky certifies reads ``sqrt(lambda_max(B_i G_S^-1 B_i'))``
        from one batched Gram inverse; any other chunk takes the SVD route as a whole."""
        tables = []
        for members, grams in _selection_grams(phi, size, (3 * (p - size) + 4) * n * n):
            others = np.nonzero((np.arange(p) != members[:, :, None]).all(axis=1))[1]
            others = others.reshape(len(members), p - size)
            if cholesky_certified(grams, size * n, eps_rel):
                excluded = phi.blocks[others]
                squared = eigvalsh(excluded @ inv(grams)[:, None] @ excluded.swapaxes(2, 3))
                outside = np.sqrt(squared[..., -1])
            else:
                outside = _svd_gains(phi, members, others, eps_rel)
            gains = np.full((len(members), p), -math.inf)
            np.put_along_axis(gains, others, outside, axis=1)
            tables.append(gains)
        return np.concatenate(tables)

    def confirmed(size: int, row: int, i: int) -> float:
        """The SVD route's gain of block ``i`` on the ``row``-th ``size``-selection."""
        members = sensor_selections(p, size)[row]
        return float(_svd_gains(phi, members[None], np.array([[i]]), eps_rel)[0, 0])

    # each distinct selection is inverted once, for eta and eta_prime alike
    tables = {size: outside_gains(size) for size in {p - q, p - r}}
    eta = 0.0
    if q > 0:
        eta = confirmed(p - q, *np.unravel_index(np.argmax(tables[p - q]), tables[p - q].shape))

    # eta_prime: max over lam of the min over its subselections bar of lam's largest gain,
    # read at the winning (bar, block) pair; at r == q lam is its own only subselection and
    # excludes none of lam's blocks
    eta_prime = 0.0
    if r > q:
        outer = sensor_selections(p, p - q)
        subs = outer[:, sensor_selections(p - q, p - r)]  # each lam's subselections
        # every (p - r)-selection is one; unique() sorts them into the table's lexicographic rows
        index = np.unique(subs.reshape(-1, p - r), axis=0, return_inverse=True)[1]
        index = index.reshape(subs.shape[:2])
        worst = np.take_along_axis(tables[p - r][index], outer[:, None], axis=2)
        largest = worst.max(axis=2)
        lam = int(np.argmax(largest.min(axis=1)))
        bar = int(np.argmin(largest[lam]))
        eta_prime = confirmed(p - r, index[lam, bar], outer[lam, np.argmax(worst[lam, bar])])

    sqrt_p = math.sqrt(p)
    kappa_d = (sqrt_p + 1.0) * math.sqrt(p - q) / rho
    kappa_e = (eta * math.sqrt(p - q) + 1.0) * (sqrt_p + 1.0)
    theta = max(eta_prime * math.sqrt(p - r) + 1.0, math.sqrt(p - r))
    kappa_c = (theta + 1.0) * math.sqrt(p - 2 * q) / rho_2q
    block_norm_max = float(spectral_norm(phi.blocks).max())
    kappa_c_prime = (theta - 1.0) / block_norm_max

    return RobustnessConstants(
        q=q,
        r=r,
        rho=rho,
        eta=eta,
        kappa_d=kappa_d,
        kappa_e=kappa_e,
        eta_prime=eta_prime,
        theta=theta,
        kappa_c=kappa_c,
        kappa_c_prime=kappa_c_prime,
        rho_2q=rho_2q,
    )


def analyze(
    model: SystemModel,
    constants_q: int | None = None,
    r: int | None = None,
    eps_rel: float = DEFAULT_EPS_REL,
) -> AnalysisReport:
    """Full resilience report for a model, taken on its coding matrix ``Z'``.

    The index, the witness and the constants are those of :func:`coding_matrix`,
    the matrix the estimator decodes with, so the constants equal the
    estimator's own ``robustness_constants(bank.phi, q, r)``.

    ``max_detectable_q`` is ``security_index - 1`` (a value of -1 marks an
    unobservable pair), ``max_correctable_q`` is its floor half, and the
    redundancy degree coincides with ``max_detectable_q``.  Robustness
    constants are attached for ``constants_q`` (default: every q from 1 up
    to the correctable maximum) with search size ``r`` (default ``q``).  An
    explicit ``constants_q`` below 1 raises ``ValueError``; one the model
    cannot correct (``p < 2q + 1`` or a rank-deficient ``(p - 2q)``-selection)
    raises :class:`CorrectabilityError`.
    ``witness`` names ``security_index`` sensors whose corruption can stay
    undetectable: the complement of the lexicographically first rank-deficient
    selection where the index scan stops (empty for an unobservable pair).
    """
    z = coding_matrix(model)
    alpha, deficient = _index_scan(z, eps_rel)
    max_detectable = alpha - 1
    max_correctable = max_detectable // 2 if max_detectable >= 0 else -1

    qs = range(1, max_correctable + 1)  # each has p >= alpha >= 2q + 1
    if constants_q is not None:
        if constants_q < 1:
            raise ValueError(f"constants_q must be at least 1, got {constants_q}")
        qs = [constants_q]

    # the index scan only certified ranks; the constants scan the sizes whose rho they
    # read, each once across every q (q's rho_2q size is 2q's rho size)
    rhos: dict[int, float] = {}
    per_q: dict[int, RobustnessConstants] = {}
    for q in qs:
        rr = r if r is not None else q
        per_q[q] = _constants(z, q, rr, eps_rel, rhos)

    return AnalysisReport(
        security_index=alpha,
        max_detectable_q=max_detectable,
        max_correctable_q=max_correctable,
        redundancy_degree=max_detectable,
        witness=IndexSet(tuple(i + 1 for i in deficient), model.p).complement(),
        per_q_constants=per_q,
    )
