"""Detectability, correctability, and security-index analysis of coding matrices.

The central objects are an LTI plant ``x(k+1) = A x(k) + B u(k) + d(k)``,
``y(k) = C x(k) + noise + attack`` and the stacked observability matrix built
from the per-sensor observability blocks.  A coding matrix tolerates q
corrupted sensor blocks exactly when every selection of ``p - q`` blocks
retains full column rank; the security index is the smallest number of
blocks an undetectable input can be confined to, i.e. the smallest q for
which the plant is not q-redundant observable.  One stacked detectability
check (an exhaustive batched scan over the selections: the intended
envelope is small p, not large sensor networks) serves both views.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import matrix_rank, pinv, sigma_min, spectral_norm
from .stacked import CodingMatrix

__all__ = [
    "AnalysisReport",
    "CorrectabilityError",
    "RobustnessConstants",
    "SystemModel",
    "UnsupportedInputError",
    "analyze",
    "is_q_error_correctable",
    "is_q_error_detectable",
    "is_q_redundant_observable",
    "observability_matrix",
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
    """Stacked observability matrix: one n x n sensor block per row slab."""
    blocks = [sensor_observability_matrix(model.A, model.C[i]) for i in range(model.p)]
    return CodingMatrix.from_blocks(blocks)


_STACK_FLOATS = 1 << 15  # per chunk of stacked selections: 256 kB of intermediates


def sensor_selections(p: int, size: int) -> np.ndarray:
    """Every ``size``-subset of ``range(p)``, lexicographic: the order of every selection scan."""
    members = np.array(list(itertools.combinations(range(p), size)), dtype=np.intp)
    return members.reshape(math.comb(p, size), size)


def _selection_stacks(phi: CodingMatrix, size: int, floats_per_selection: int):
    """Lexicographic chunks of (0-based members, ``(c, size * n, n)`` compacted stack)."""
    members = sensor_selections(phi.block_count, size)
    step = max(1, _STACK_FLOATS // max(1, floats_per_selection))
    for start in range(0, len(members), step):
        chunk = members[start:start + step]
        yield chunk, phi.selection_stack(chunk)


def is_q_error_detectable(phi: CodingMatrix, q: int, eps_rel: float | None = None) -> bool:
    """True when every selection of ``p - q`` blocks has full column rank.

    Checking only selections of exactly ``p - q`` blocks suffices: adding
    blocks never lowers rank.
    """
    p, n = phi.block_count, phi.block_len
    if not 0 <= q <= p:
        raise ValueError(f"q must lie in 0..{p}, got {q}")
    for _, stack in _selection_stacks(phi, p - q, (p - q) * n * n):
        if np.any(matrix_rank(stack, eps_rel) < n):
            return False
    return True


def is_q_error_correctable(phi: CodingMatrix, q: int, eps_rel: float | None = None) -> bool:
    """True when any two q-block corruptions remain distinguishable.

    Equivalent to 2q-error detectability; for ``2q > p`` this is never
    satisfiable (an empty selection cannot have full column rank).
    """
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    if 2 * q > phi.block_count:
        return False
    return is_q_error_detectable(phi, 2 * q, eps_rel)


def stacked_cospark(phi: CodingMatrix, eps_rel: float | None = None) -> int:
    """Minimum number of nonzero blocks of ``phi @ x`` over nonzero ``x``.

    Equals the smallest ``q`` for which ``phi`` is not q-error detectable.
    The scan runs q = 0, 1, ..., p (selection sizes p down to 0) and always
    stops, because the empty selection (q = p) has rank 0 < n.
    """
    return next(q for q in range(phi.block_count + 1)
                if not is_q_error_detectable(phi, q, eps_rel))


def security_index(model: SystemModel, eps_rel: float | None = None) -> int:
    """Minimum number of corrupted sensors that can stay undetectable."""
    return stacked_cospark(observability_matrix(model), eps_rel)


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


def is_q_redundant_observable(model: SystemModel, q: int, eps_rel: float | None = None) -> bool:
    """True when (A, C) stays observable after removing any q sensor rows."""
    return is_q_error_detectable(observability_matrix(model), q, eps_rel)


def robustness_constants(
    phi: CodingMatrix,
    q: int,
    r: int,
    eps_rel: float | None = None,
) -> RobustnessConstants:
    """Evaluate every worst-case constant by exhaustive subset enumeration.

    Requires ``q <= r <= 2q`` and ``p >= 2q + 1``.  Pseudoinverses are taken
    on compacted selections; a maximum over an empty index collection is 0.

    Raises :class:`CorrectabilityError` when the (p-2q)-selections are not
    all full rank (the constants are undefined without q-error
    correctability), read from the same SVDs that give ``rho_2q``.
    """
    p, n = phi.block_count, phi.block_len
    if not q <= r <= 2 * q:
        raise ValueError(f"need q <= r <= 2q, got q={q}, r={r}")
    if p < 2 * q + 1:
        raise ValueError(f"need p >= 2q+1 for the correction constants, got p={p}, q={q}")

    def rho_of(size: int) -> float:
        rho = min(float(sigma_min(stack, eps_rel).min())
                  for _, stack in _selection_stacks(phi, size, size * n * n))
        if rho == 0.0:  # sigma_min is 0 exactly at a rank-deficient selection
            raise CorrectabilityError("constants undefined: correctability violated "
                                      f"(a {size}-block selection is rank deficient)")
        return rho

    rho_2q, rho = rho_of(p - 2 * q), rho_of(p - q)  # the first scan decides correctability

    def outside_gains(size: int) -> np.ndarray:
        """Norms of ``block_i @ pinv(selection)``: a row per selection, 0 for its members."""
        tables = []
        for members, stack in _selection_stacks(phi, size, (p - size + 3) * size * n * n):
            outside = (np.arange(p) != members[:, :, None]).all(axis=1)
            excluded = phi.blocks[np.nonzero(outside)[1]].reshape(len(members), p - size, n, n)
            gains = np.zeros(outside.shape)
            gains[outside] = spectral_norm(excluded @ pinv(stack, eps_rel)[:, None]).ravel()
            tables.append(gains)
        return np.concatenate(tables)

    # each distinct selection is inverted once, for eta and eta_prime alike
    tables = {size: outside_gains(size) for size in {p - q, p - r}}
    eta = float(tables[p - q].max(initial=0.0))

    # eta_prime: max over lam of the min over its subselections bar of lam's largest gain;
    # at r == q lam is its own only subselection and excludes none of lam's blocks
    eta_prime = 0.0
    if r > q:
        outer = sensor_selections(p, p - q)
        subs = outer[:, sensor_selections(p - q, p - r)]  # each lam's subselections
        # every (p - r)-selection is one; unique() sorts them into the table's lexicographic rows
        index = np.unique(subs.reshape(-1, p - r), axis=0, return_inverse=True)[1]
        gains = tables[p - r][index.reshape(subs.shape[:2])]
        worst = np.take_along_axis(gains, outer[:, None], axis=2)
        eta_prime = float(worst.max(axis=2).min(axis=1).max(initial=0.0))

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
    eps_rel: float | None = None,
) -> AnalysisReport:
    """Full resilience report for a model.

    ``max_detectable_q`` is ``security_index - 1`` (a value of -1 marks an
    unobservable pair), ``max_correctable_q`` is its floor half, and the
    redundancy degree coincides with ``max_detectable_q``.  Robustness
    constants are attached for ``constants_q`` (default: every feasible q up
    to the correctable maximum) with search size ``r`` (default ``q``).
    """
    g = observability_matrix(model)
    alpha = stacked_cospark(g, eps_rel)
    max_detectable = alpha - 1
    max_correctable = max_detectable // 2 if max_detectable >= 0 else -1

    qs: list[int]
    if constants_q is not None:
        qs = [constants_q]
    else:
        qs = [q for q in range(1, max_correctable + 1)]

    per_q: dict[int, RobustnessConstants] = {}
    for q in qs:
        if q < 1 or model.p < 2 * q + 1:
            continue
        rr = r if r is not None else q
        per_q[q] = robustness_constants(g, q, rr, eps_rel)

    return AnalysisReport(
        security_index=alpha,
        max_detectable_q=max_detectable,
        max_correctable_q=max_correctable,
        redundancy_degree=max_detectable,
        per_q_constants=per_q,
    )
