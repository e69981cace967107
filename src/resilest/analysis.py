"""Detectability, correctability, and security-index analysis of coding matrices.

The central objects are an LTI plant ``x(k+1) = A x(k) + B u(k) + d(k)``,
``y(k) = C x(k) + noise + attack`` and its coding matrix ``Z'``: one block per
sensor, the orthonormal staircase basis of that sensor's observable quotient
padded with zero rows (:func:`coding_matrix`), the same matrix the estimator
decodes with.  A coding matrix tolerates q corrupted sensor blocks exactly
when every selection of ``p - q`` blocks retains full column rank; the
security index is the smallest number of blocks an undetectable input can be
confined to, i.e. the smallest q for which the plant is not q-redundant
observable.  Detectability of one q takes one selection scan of the size ``p - q``.
The security index moves two frontiers, whichever's next level holds fewer
selections: that scan on the sizes p, p - 1, ... downward, and an Apriori
frontier upward from the empty selection that tests only the selections whose
subsets all failed to certify their supersets full rank (:func:`_index_scan`).
The robustness constants' rho and rho_2q, the smallest ``sigma_min`` over the
sizes ``p - q`` and ``p - 2q``, take the same scan of those sizes only.

The scans work on one Gram table ``G_i = B_i'B_i`` per coding matrix: a 0/1
membership product gives each selection's ``G_S = sum_{i in S} G_i``, a chunk
at a time, and each chunk takes one route as a whole.  One selection scan
(:func:`_selection_scan`) serves detectability, redundant observability, the
security index's downward frontier and the constants' rho and rho_2q.  It reads
``sigma_min^2 = lambda_min`` from one batched ``eigvalsh`` per chunk, and certifies
the chunk when every ``lambda_min`` clears ``_linalg.gram_floor`` times
``lambda_max`` (:func:`_floor_test`): the squared SVD floor plus the rounding bound
``sqrt(b)``.  The outside gains ``|B_i pinv(Phi_S)|^2 = lambda_max(B_i G_S^-1 B_i')``
of a chunk that passes the same floor test come from one batched Gram inverse.
The upward frontier, whose levels nearly always hold a deficient selection,
takes the SVD alone.  Any other chunk goes to the SVD route, and so does the
one winning selection that sets each reported ``rho``, ``rho_2q``, ``eta`` and
``eta_prime``.  So the rank decisions are the SVD route's on any coding matrix,
and every constant is an SVD value of a real selection; where two selections
tie to within the Gram rounding band (``sqrt(b)`` relative), the reported one
may be the other's.

The selection scan and the constants' outside gains enumerate sensor subspaces,
not sensor subsets.  Blocks whose ``G_i`` lie within ``tau`` of their group's
first form a group (``CodingMatrix.groups``).  On ``Z'`` each ``G_i`` is the
projector onto sensor i's observable subspace, so a group is one subspace seen
by several sensors: the parallel elements of the polymatroid rank of a sum of
subspaces (Edmonds, "Submodular functions, matroids and certain polyhedra", 1970).
A selection's
count vector holds its members per group, and the scans read one representative
per count vector, the first ``c_j`` blocks of each group j (:func:`_representatives`).
It is the lexicographically first selection with its count vector: a smaller one
would miss one of those first blocks at the first place the two differ.  The
representatives come in lexicographic order, so "first deficient", the witness
and "first minimum" keep their meaning.  Every member differs from its
representative in at most ``|S|`` blocks, each by at most ``2 tau`` in Frobenius
norm, so by Weyl's inequality its ``G_S`` and every eigenvalue lie within the
margin ``m = 2 |S| tau`` of the representative's (``tau`` is
``CodingMatrix.group_spread``, the largest distance actually grouped).  The
floor test reads ``lambda_min - m > floor (lambda_max + m)``, so a representative
that clears it speaks for every member of its count vector.  A representative
below the floor expands to its members on the SVD route (:func:`_svd_route`), so
every rank decision, the security index and the witness stay the SVD's.  rho and rho_2q
are the minimum over the representatives, and the gains one per count vector and
group: ``B_i G_S^-1 B_i'`` has the eigenvalues of ``G_S^-1/2 G_i G_S^-1/2``, which
depend on i only through its group.  A member's value can thus differ from its
representative's by the margin alone.  eta_prime, a maximum over the (p - q)-selections
of a minimum over their (p - r)-subselections, reads the (p - q)-representatives and,
of their subselections, the (p - r)-representatives.  On ``Z'`` the grouped ``G_i`` agree to
1.7e-12 or better (the inertia chains N = 3..12 at 1 ms and 10 ms; 7e-16 on dense
models), against at least 1.41 between groups.  On the 1 ms chain N = 8 (7.4e-13)
the margin is 2.1e-11 beside ``lambda_min = rho^2 >= 2``: about 1e-11 relative,
far inside the ``sqrt(b)`` tie band (1.3e-6 there).  When every group is a singleton, the
margin is 0 and the representatives are every subset, so the scans are the
subset scans.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import eigvalsh, inv

from ._linalg import DEFAULT_EPS_REL, gram_floor, pinv, sigma_min, spectral_norm
from .stacked import CodingMatrix, IndexSet

__all__ = [
    "AnalysisReport",
    "CorrectabilityError",
    "RobustnessConstants",
    "SystemModel",
    "UnsupportedInputError",
    "analyze",
    "coding_matrix",
    "decoder_budget",
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
    """Raised when a computation requires more error correctability than the coding matrix
    provides; when known, the pair is not ``redundancy``-redundant observable."""

    def __init__(self, message: str, redundancy: int | None = None):
        super().__init__(message)
        self.redundancy = redundancy


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

    The only padding of the ``Z_i'``: the decoder's coding matrix, the one
    ``Scenario.validate`` certifies and ``simulate`` decodes with.
    """
    n = model.n
    blocks = np.zeros((model.p, n, n))
    for i, c in enumerate(model.C):
        Q = quotient_basis(model.A, c)
        blocks[i, : len(Q)] = Q
    return CodingMatrix(blocks.reshape(model.p * n, n), n, model.p)


_STACK_FLOATS = 1 << 15  # per chunk of selections: 256 kB of intermediates


def _per_chunk(floats_per_selection: int) -> int:
    """Selections per chunk: as many as ``_STACK_FLOATS`` floats hold, at least one."""
    return max(1, _STACK_FLOATS // max(1, floats_per_selection))


def sensor_selections(p: int, size: int) -> np.ndarray:
    """Every ``size``-subset of ``range(p)``, lexicographic: the order of every enumeration of
    selections (the scans read one representative of each count vector in this order)."""
    count = math.comb(p, size)
    members = itertools.chain.from_iterable(itertools.combinations(range(p), size))
    return np.fromiter(members, dtype=np.intp, count=count * size).reshape(count, size)


def _lex_rank(members: np.ndarray, p: int) -> np.ndarray:
    """The row of each 0-based selection (last axis, ``k`` sorted members) in
    ``sensor_selections(p, k)``: ``C(p, k) - 1 - sum_i C(p - 1 - c_i, k - i)``, the
    combinatorial number system (Knuth, TAOCP 4A, section 7.2.1.3)."""
    k = members.shape[-1]
    binomial = np.array([[math.comb(a, b) for b in range(k + 1)] for a in range(p)],
                        dtype=np.int64).reshape(p, k + 1)
    return math.comb(p, k) - 1 - binomial[p - 1 - members, np.arange(k, 0, -1)].sum(axis=-1)


def _places(phi: CodingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Each block's group in ``phi.groups`` and its place in that group."""
    labels, rank = np.empty((2, phi.block_count), dtype=np.intp)
    for j, group in enumerate(phi.groups):
        labels[list(group)], rank[list(group)] = j, np.arange(len(group))
    return labels, rank


def _counts(phi: CodingMatrix, members: np.ndarray) -> np.ndarray:
    """The count vector of each selection row of ``members``: its members per group, ``(c, m)``."""
    counts = np.zeros((len(members), len(phi.groups)), dtype=np.intp)
    np.add.at(counts, (np.arange(len(members))[:, None], _places(phi)[0][members]), 1)
    return counts


def _margin(phi: CodingMatrix, size: int) -> float:
    """``2 size tau``, ``tau = phi.group_spread``: the 2-norm within which every
    ``size``-selection's ``G_S`` lies of its count vector's representative's (Weyl)."""
    return 2.0 * size * phi.group_spread


def _representatives(phi: CodingMatrix, size: int):
    """Each count vector's representative, the first ``c_j`` blocks of each group j, as a tuple
    of 0-based members: the lexicographically first selection with that count vector.

    They come in lexicographic order from a depth-first search that takes a block only when
    the blocks of its group before it are taken: it fills the selection with the first blocks
    it may take, then drops its last block and resumes after it.  Past the last block of a
    group with several, every block is a group of its own and may be taken freely, so there
    the search completes the selection with ``combinations``, and with singleton groups alone
    its representatives are ``combinations`` of every block."""
    p = phi.block_count
    labels, rank = (part.tolist() for part in _places(phi))
    free = p  # the blocks from here on are singleton groups
    while free and len(phi.groups[labels[free - 1]]) == 1:
        free -= 1
    counts, chosen, e = [0] * len(phi.groups), [], 0
    while True:
        while len(chosen) < size and free > e <= p - (size - len(chosen)):
            if counts[labels[e]] == rank[e]:  # the blocks of e's group before it are taken
                chosen.append(e)
                counts[labels[e]] += 1
            e += 1
        yield from map(tuple(chosen).__add__,
                       itertools.combinations(range(e, p), size - len(chosen)))
        if not chosen:
            return
        e = chosen.pop()
        counts[labels[e]] -= 1
        e += 1


def _selection_grams(phi: CodingMatrix, size: int, floats_per_selection: int):
    """Lexicographic chunks of (0-based members of count-vector representatives, their
    ``(c, n, n)`` Gram sums ``G_S``).

    Each chunk's representatives are drawn from :func:`_representatives` as it is reached, and
    its ``G_S`` is one product of its 0/1 membership rows with the Gram table.  When every
    group is a singleton these are the chunks of every ``size``-selection.
    """
    p, n = phi.block_count, phi.block_len
    table = phi.grams.reshape(p, n * n)
    step, selections = _per_chunk(floats_per_selection), _representatives(phi, size)
    while part := list(itertools.islice(selections, step)):
        count = len(part)
        flat = itertools.chain.from_iterable(part)
        chunk = np.fromiter(flat, dtype=np.intp, count=count * size).reshape(count, size)
        inside = np.zeros((count, p))
        np.put_along_axis(inside, chunk, 1.0, axis=1)
        yield chunk, (inside @ table).reshape(count, n, n)


def _members(phi: CodingMatrix, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The members of each row's count vector other than the row itself (the first of its
    count vector), and the row each came from: ``(k, size)`` members and ``(k,)`` rows."""
    found, owner = [], []
    for row, counts in enumerate(_counts(phi, reps).tolist()):
        picks = itertools.product(*map(itertools.combinations, phi.groups, counts))
        next(picks)  # the representative
        for pick in picks:
            found.append(sorted(itertools.chain.from_iterable(pick)))
            owner.append(row)
    return (np.array(found, dtype=np.intp).reshape(len(found), reps.shape[1]),
            np.array(owner, dtype=np.intp))


def _svd_route(phi: CodingMatrix, members: np.ndarray, undecided: np.ndarray, eps_rel: float):
    """The SVD route of a chunk of representatives that failed the floor test as a whole: the
    ``sigma_min`` of every representative, from one values-only SVD stack, then the members
    and ``sigma_min`` of every other member of each count vector whose representative is full
    rank and flagged ``undecided`` (it read below the floor, so it spoke for no member).  A
    deficient representative is its count vector's first deficient selection, and needs no
    other."""
    svd = _svd_sigma_min(phi, members, eps_rel)
    others = _members(phi, members[undecided & (svd > 0.0)])[0]
    return svd, others, _svd_sigma_min(phi, others, eps_rel) if len(others) else np.zeros(0)


def _floor_test(grams: np.ndarray, floor: float, margin: float):
    """The one Gram certificate: the eigenvalues ``(c, n)`` of each ``G_S`` of the stack
    ``(c, n, n)``, from one batched ``eigvalsh``, and whether each clears the floor by the
    margin, ``lambda_min - m > floor (lambda_max + m)``.  A Gram sum with a non-finite entry
    (one that overflowed) never clears it, and its eigenvalues are NaN, not computed."""
    finite = np.isfinite(grams).all(axis=(1, 2))
    lam = np.full(grams.shape[:2], math.nan)
    lam[finite] = eigvalsh(grams[finite])
    return lam, lam[:, 0] - margin > floor * (lam[:, -1] + margin)  # False for NaN


def _selection_scan(phi: CodingMatrix, size: int,
                    eps_rel: float) -> tuple[float, tuple[int, ...] | None]:
    """The smallest ``sigma_min`` over the ``size``-selections and the 0-based members of the
    lexicographically first rank-deficient one: ``(0.0, members)`` when one is deficient,
    ``(sigma_min, None)`` otherwise.

    Detectability, the security index's downward frontier and rho and rho_2q share it.  A chunk
    of representatives whose every ``G_S`` passes the floor test (:func:`_floor_test`) is full
    rank, every member of its count vectors with it, and gives ``sigma_min^2 = lambda_min``;
    any other chunk takes the SVD route (:func:`_svd_route`), each representative below the
    floor expanded to its members.  Representatives come in lexicographic order and each is its
    count vector's first member, so the scan stops at a chunk holding a deficient
    representative, or at one whose first representative follows the first deficient member
    already found.  A minimum read from eigenvalues is confirmed by its winner's SVD value.
    """
    n = phi.block_len
    floor, margin = gram_floor(size * n, n, eps_rel), _margin(phi, size)
    rho, winner, found = math.inf, None, None  # winner: a certified representative to confirm
    for members, grams in _selection_grams(phi, size, n * n):
        if found is not None and tuple(members[0].tolist()) > found:
            break
        lam, clear = _floor_test(grams, floor, margin)
        if clear.all():
            best = int(np.argmin(lam[:, 0]))
            if math.sqrt(lam[best, 0]) < rho:
                rho, winner = math.sqrt(lam[best, 0]), members[best]
            continue
        svd, others, others_svd = _svd_route(phi, members, ~clear, eps_rel)
        smallest = float(np.concatenate([svd, others_svd]).min())
        if smallest < rho:
            rho, winner = smallest, None
        # sigma_min is 0 exactly at a rank-deficient selection; tuples, not views that would
        # keep every selection of the chunk alive
        deficient = [tuple(s) for s in members[svd == 0.0].tolist()
                     + others[others_svd == 0.0].tolist()] + ([] if found is None else [found])
        found = min(deficient, default=None)
        if (svd == 0.0).any():
            break
    if found is not None:
        return 0.0, found
    if winner is not None:
        rho = float(sigma_min(phi.selection_stack(winner[None]), eps_rel)[0])
    return rho, None


def _svd_sigma_min(phi: CodingMatrix, members: np.ndarray, eps_rel: float) -> np.ndarray:
    """The SVD route's ``sigma_min`` of each selection row of ``members``, stacked
    ``_STACK_FLOATS`` floats at a time, not a Gram-sized chunk (``size`` times that) at once.
    Each matrix's SVD does not depend on its batch, so the values are those of one stack."""
    step = _per_chunk(members.shape[1] * phi.block_len ** 2)
    return np.concatenate([sigma_min(phi.selection_stack(members[start:start + step]), eps_rel)
                           for start in range(0, len(members), step)])


def _svd_gains(phi: CodingMatrix, members: np.ndarray, others: np.ndarray,
               eps_rel: float) -> np.ndarray:
    """The SVD route's ``|block_i @ pinv(selection)|``: a row per selection, one per ``others``.
    Sliced like :func:`_svd_sigma_min`, counting per selection its ``p - size`` products and
    five copies of its stack inside ``pinv``."""
    step = _per_chunk((others.shape[1] + 5) * members.shape[1] * phi.block_len ** 2)
    return np.concatenate([
        spectral_norm(phi.blocks[others[start:start + step]]
                      @ pinv(phi.selection_stack(members[start:start + step]), eps_rel)[:, None])
        for start in range(0, len(members), step)])


def is_q_error_detectable(phi: CodingMatrix, q: int, eps_rel: float = DEFAULT_EPS_REL) -> bool:
    """True when every selection of ``p - q`` blocks has full column rank.

    Checking only selections of exactly ``p - q`` blocks suffices: adding
    blocks never lowers rank.
    """
    p = phi.block_count
    if not 0 <= q <= p:
        raise ValueError(f"q must lie in 0..{p}, got {q}")
    return _selection_scan(phi, p - q, eps_rel)[1] is None


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


def _upward_levels(phi: CodingMatrix, eps_rel: float):
    """The upward frontier: yields ``(k, first, ahead)`` for the sizes k = 0, 1, ..., with
    ``first`` the 0-based members of the lexicographically first rank-deficient k-selection
    (None when no k-selection is) and ``ahead`` a bound on the number of selections level
    k + 1 tests.  It ends after a level with ``ahead == 0``: then no larger selection is
    deficient.

    The frontier holds the k-selections found deficient or only weakly full rank, and level
    k + 1 tests the selections whose k-subsets all lie in it (the Apriori candidates; Agrawal
    & Srikant, VLDB 1994): the joins of two frontier selections that differ in their last
    member only, less those with another k-subset outside the frontier.  ``ahead`` counts
    the joins, and the candidates are built only when the level runs.  Level 0 is the empty
    selection, of rank 0, and level 1 tests the p single sensors.  Each level takes the SVD
    alone: the frontier only reaches selections whose subsets are deficient or weak, so on
    ``Z'`` nearly every level holds a deficient one, which would fail the floor test.

    Why weak selections stay.  The SVD rule is not down-closed: a selection's floor
    ``max(rows, n) * eps_rel * sigma_max`` grows with its rows and its ``sigma_max``, so a
    full-rank selection can have a deficient superset (on ``[1e-10 I; diag(1e4, 0)]``,
    ``{1}`` is full rank and ``{1, 2}`` deficient).  In exact arithmetic adding blocks never
    lowers ``sigma_min``, and no selection's floor exceeds ``f |Phi|_2`` with
    ``f = max(pn, n) * eps_rel``.  So a selection is strong, and prunes its supersets, only
    when its SVD ``sigma_min^2`` clears ``gram_floor(pn, n)`` times ``tr(Phi'Phi) =
    |Phi|_F^2 >= |Phi|_2^2``.  Then its exact ``sigma_min``, and every superset's, exceeds
    ``2 f |Phi|_2`` by a margin (the ``sqrt(b)`` of ``_linalg.gram_floor``) far above the
    SVD's rounding, and the SVD decides every superset full rank.  A full-rank selection
    below that is weak.  Every subset of a deficient selection is thus deficient or weak, so
    by induction on its size it is a candidate and stays in the frontier: each level tests
    every deficient selection of its size, and a level without candidates has no deficient
    superset left.  A level of weak selections alone can still lead to a deficient one (two
    blocks ``diag(1, 3e-14)``: each is full rank, the pair deficient), so the frontier runs
    until its candidates run out.
    """
    p, n = phi.block_count, phi.block_len
    floor = gram_floor(p * n, n, eps_rel) * float(np.trace(phi.grams, axis1=1, axis2=2).sum())
    level, first, frontier, groups, ahead = 0, (), [()], [], p
    while True:
        yield level, first, ahead
        if not ahead:
            return
        if level == 0:
            candidates = [(e,) for e in range(p)]
        else:
            kept = set(frontier)
            candidates = [prefix + (a, b) for prefix, lasts in groups
                          for i, a in enumerate(lasts) for b in lasts[i + 1:]
                          if all(prefix[:j] + prefix[j + 1:] + (a, b) in kept
                                 for j in range(level - 1))]
        level, first, frontier = level + 1, None, []
        if candidates:
            svd = _svd_sigma_min(phi, np.array(candidates, dtype=np.intp), eps_rel)
            if svd.min() == 0.0:  # sigma_min is 0 exactly at a rank-deficient selection
                first = candidates[int(np.argmin(svd))]
            frontier = [candidates[i] for i in np.flatnonzero(~(svd * svd > floor))]
        # the frontier is lexicographic, so selections sharing all but their last member
        # are adjacent
        groups = [(prefix, [s[-1] for s in group])
                  for prefix, group in itertools.groupby(frontier, key=lambda s: s[:-1])]
        ahead = sum(math.comb(len(lasts), 2) for _, lasts in groups)


def _index_scan(phi: CodingMatrix, eps_rel: float):
    """The cospark and the 0-based members of the lexicographically first rank-deficient
    selection of the largest size that holds one (the empty selection, of rank 0 < n, at
    the least).

    Two frontiers close in on that size.  The downward one runs :func:`_selection_scan` on
    the sizes p, p - 1, ... and ends at the first size holding a deficient selection; the
    upward one is :func:`_upward_levels`.  Each round advances the frontier whose next level
    holds fewer selections (the upward one's counted by its joins; the upward on a tie), and
    the scan ends when either one ends or they meet, every size then decided.  Alone, the
    downward frontier decides every selection above the index (all ``2^p`` at index p) and
    the upward one every subset of a deficient selection (``2^(p - 1)`` when one sensor
    alone sees a mode); together each round spends only the smaller of the two next levels.
    """
    p = phi.block_count
    upward = _upward_levels(phi, eps_rel)
    level, first, ahead = next(upward)
    found, top = (level, first), p  # the sizes above top hold no deficient selection
    while ahead and level < top:
        if math.comb(p, top) < ahead:
            deficient = _selection_scan(phi, top, eps_rel)[1]
            if deficient is not None:
                return p - top, deficient
            top -= 1
        else:
            level, first, ahead = next(upward)
            if first is not None:
                found = (level, first)
    return p - found[0], found[1]


def stacked_cospark(phi: CodingMatrix, eps_rel: float = DEFAULT_EPS_REL) -> int:
    """Minimum number of nonzero blocks of ``phi @ x`` over nonzero ``x``.

    Equals the smallest ``q`` for which ``phi`` is not q-error detectable, found by
    two frontiers of selection sizes, one from p down and one from 0 up.
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


def decoder_budget(q: int, r: int | None = None,
                   constants: RobustnessConstants | None = None) -> int:
    """The search size ``r`` of the decoder budget ``(q, r)``, ``q`` when None.  The budget
    needs ``q <= r <= 2q``, and supplied ``constants`` must have been made for it (their
    ``theta`` and ``kappa_c`` certify that budget alone); otherwise ``ValueError``."""
    r = q if r is None else r
    if not q <= r <= 2 * q:
        raise ValueError(f"need q <= r <= 2q, got q={q}, r={r}")
    if constants is not None and (constants.q, constants.r) != (q, r):
        raise ValueError("supplied constants were computed for different (q, r)")
    return r


def robustness_constants(
    phi: CodingMatrix,
    q: int,
    r: int,
    eps_rel: float = DEFAULT_EPS_REL,
) -> RobustnessConstants:
    """Evaluate every worst-case constant over the selections, one count-vector
    representative at a time (see the module docstring).

    Requires ``q <= r <= 2q`` and ``p >= 2q + 1``.  A chunk of selections that fails the
    floor test takes the SVD whole; a maximum over an empty collection is 0.

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
    decoder_budget(q, r)
    if p < 2 * q + 1:
        raise CorrectabilityError(f"constants undefined: q={q} needs p >= 2q+1 sensors, "
                                  f"got p={p}", redundancy=2 * q)

    def rho_of(size: int) -> float:
        if size not in rhos:
            rhos[size] = _selection_scan(phi, size, eps_rel)[0]
        if rhos[size] == 0.0:
            raise CorrectabilityError("constants undefined: correctability violated "
                                      f"(a {size}-block selection is rank deficient)",
                                      redundancy=p - size)
        return rhos[size]

    rho_2q, rho = rho_of(p - 2 * q), rho_of(p - q)  # the first scan decides correctability

    groups, labels = phi.groups, _places(phi)[0]
    # each group's blocks, padded with -1: row j, column c is the block after its first c
    padded = np.full((len(groups), p + 1), -1, dtype=np.intp)
    for j, group in enumerate(groups):
        padded[j, :len(group)] = group
    starts = np.cumsum([0] + [len(group) for group in groups[:-1]])  # of each group's columns

    def outside_gains(size: int):
        """Per count vector: its representative's members, the largest ``|block_i @
        pinv(selection)|`` of each group over the group's blocks outside the selection (-inf
        where none is), and whether that row comes from the SVD route.

        A chunk that passes the floor test with the margin reads, for each group, the
        representative's gain on the group's first outside block, ``sqrt(lambda_max(B_i
        G_S^-1 B_i'))``, from one batched Gram inverse: every member of the count vector reads
        the same to within the margin, on every block of that group (``B_i G^-1 B_i'`` has the
        eigenvalues of ``G^-1/2 G_i G^-1/2``).  Any other chunk takes the SVD route for every
        member of its count vectors, and keeps each group's largest gain: a value of a real
        selection and block, and no smaller than any member's."""
        slots = min(len(groups), p - size)  # groups with a block outside, at most
        reps, tables, svd_rows = [], [], []
        floor, margin = gram_floor(size * n, n, eps_rel), _margin(phi, size)
        for members, grams in _selection_grams(phi, size, (3 * slots + 4) * n * n):
            gains = np.full((len(members), len(groups)), -math.inf)
            certified = _floor_test(grams, floor, margin)[1].all()
            if certified:
                first = padded[np.arange(len(groups)), _counts(phi, members)]
                order = np.argsort(first < 0, axis=1, kind="stable")[:, :slots]
                blocks = np.take_along_axis(first, order, axis=1)
                excluded = phi.blocks[np.maximum(blocks, 0)]
                squared = eigvalsh(excluded @ inv(grams)[:, None] @ excluded.swapaxes(2, 3))
                np.put_along_axis(gains, order, np.where(blocks >= 0, np.sqrt(squared[..., -1]),
                                                         -math.inf), axis=1)
            else:
                others, owner = _members(phi, members)
                every = np.concatenate([members, others])
                outside = np.nonzero((np.arange(p) != every[:, :, None]).all(axis=1))[1]
                outside = outside.reshape(len(every), p - size)
                per_block = np.full((len(every), p), -math.inf)
                np.put_along_axis(per_block, outside, _svd_gains(phi, every, outside, eps_rel),
                                  axis=1)
                per_group = np.maximum.reduceat(per_block[:, np.concatenate(groups)], starts,
                                                axis=1)
                np.maximum.at(gains, np.concatenate([np.arange(len(members)), owner]), per_group)
            reps.append(members)
            tables.append(gains)
            svd_rows.append(np.full(len(members), not certified))
        return np.concatenate(reps), np.concatenate(tables), np.concatenate(svd_rows)

    def confirmed(members: np.ndarray, i: int) -> float:
        """The SVD route's gain of block ``i`` on the selection ``members``."""
        return float(_svd_gains(phi, members[None], np.array([[i]]), eps_rel)[0, 0])

    # each count vector is inverted once, for eta and eta_prime alike
    tables = {size: outside_gains(size) for size in {p - q, p - r}}
    eta = 0.0
    if q > 0:
        reps, gains, svd_rows = tables[p - q]
        row, j = np.unravel_index(np.argmax(gains), gains.shape)
        # the group's first block outside the representative
        block = groups[j][np.count_nonzero(labels[reps[row]] == j)]
        eta = float(gains[row, j]) if svd_rows[row] else confirmed(reps[row], block)

    # eta_prime: max over lam of the min over its subselections bar of lam's largest gain
    # outside bar, read at the winning (bar, block) pair; at r == q lam is its own only
    # subselection and excludes none of lam's blocks.  Both values depend on count vectors
    # alone, so lam runs over the (p - q)-representatives, and bar over the subselections
    # that are (p - r)-representatives: a representative's other subselections have their
    # count vector's representative among its subselections, earlier.  So the first maximizer
    # and minimizer are those over every selection
    eta_prime = 0.0
    if r > q:
        reps, gains, svd_rows = tables[p - r]
        outer = np.array(list(_representatives(phi, p - q)), dtype=np.intp).reshape(-1, p - q)
        picks = sensor_selections(p - q, p - r)
        subs = outer[:, picks]  # each lam's subselections
        ranks, sub_ranks = _lex_rank(reps, p), _lex_rank(subs, p)
        index = np.minimum(np.searchsorted(ranks, sub_ranks), len(reps) - 1)  # gains rows
        # each group's gain on each block of lam (from the SVD route, the group's largest
        # over the count vector: eta_prime, a max of mins of maxes, can then only read high)
        worst = gains[index[:, :, None], labels[outer][:, None]]
        worst[:, (picks[:, :, None] == np.arange(p - q)).any(axis=1)] = -math.inf  # bar's own
        largest = np.where(ranks[index] == sub_ranks, worst.max(axis=2), math.inf)
        lam = int(np.argmax(largest.min(axis=1)))
        bar = int(np.argmin(largest[lam]))
        block = outer[lam, np.argmax(worst[lam, bar])]
        row = index[lam, bar]
        eta_prime = (float(gains[row, labels[block]]) if svd_rows[row]
                     else confirmed(subs[lam, bar], block))

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
    the matrix the estimator decodes with, so the constants equal the ones
    ``Scenario.validate`` certifies the decoder with.

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
    selection of the largest size that holds one (empty for an unobservable pair).
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
