"""Residual-based corruption detection and finite-search block-sparse decoding.

Measurements take the form ``z = Phi x + v + e``: ``v`` is bounded noise,
``e`` is a block-sparse corruption of unbounded magnitude.  ``z`` is a
``(p, n)`` array, one row per sensor block, as the observer bank holds it.
Detection projects ``z`` onto the range of ``Phi`` and inspects the residual
per block.  Decoding searches the finite candidate set obtained by least-squares
solves on all (p - r)-block selections and picks the candidate violating the
fewest per-block thresholds; ties break on the lexicographically smallest
selection for reproducibility.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_EPS_REL, _relative_floor, pinv
from .analysis import (
    CorrectabilityError,
    RobustnessConstants,
    SystemModel,
    decoder_budget,
    is_q_error_correctable,
    observability_matrix,
    robustness_constants,
    sensor_selections,
)
from .stacked import CodingMatrix, IndexSet


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one residual test."""

    residual: np.ndarray  # (p, n), one row per block
    attacked: bool
    estimate: np.ndarray
    per_block_residual_norms: np.ndarray
    threshold: float


@dataclass(frozen=True)
class DecodeResult:
    estimate: np.ndarray
    support_estimate: IndexSet
    objective: int
    certified: bool
    error_bound: float


def _shaped(values: np.ndarray, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``values`` as a float array of ``shape``; any other shape raises, naming both."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{name} shape {values.shape} != {shape}")
    return values


def _projection_residual(phi: CodingMatrix, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares estimate and residual from one SVD, used for both the rank check
    and the pseudoinverse (formed as ``np.linalg.pinv`` forms it)."""
    u, s, vt = np.linalg.svd(phi.entries, full_matrices=False)
    large = s > _relative_floor(phi.entries, DEFAULT_EPS_REL) * s[:1]
    if np.count_nonzero(large) < phi.block_len:
        raise ValueError("coding matrix must have full column rank")
    inverse = np.divide(1, s, where=large, out=np.zeros_like(s))
    data = z.reshape(-1)
    x_hat = (vt.T @ (inverse[:, None] * u.T)) @ data
    return x_hat, (data - phi.entries @ x_hat).reshape(z.shape)


def residual_detect_noiseless(
    phi: CodingMatrix, z: np.ndarray, tol: float | None = None
) -> DetectionResult:
    """Noise-free detection: any residual above round-off flags a corruption.

    Requires ``phi`` to have full column rank.  With a detectable coding
    matrix and no corruption present, the least-squares estimate recovers
    the true vector, so ``attacked`` holds unless ``norm(residual)`` is
    finite and within ``tol``.  The default tolerance only absorbs the
    round-off of the projection itself; pass an explicit value to override.
    """
    z = _shaped(z, phi.blocks.shape[:2], "measurement (p, n)")
    if tol is None:
        tol = default_support_tol(z)
    x_hat, residual = _projection_residual(phi, z)
    return DetectionResult(
        residual=residual,
        attacked=bool(violations(np.linalg.norm(residual), tol)),
        estimate=x_hat,
        per_block_residual_norms=np.linalg.norm(residual, axis=1),
        threshold=tol,
    )


def residual_detect_noisy(
    phi: CodingMatrix, z: np.ndarray, v_max: float
) -> DetectionResult:
    """Thresholded detection under per-block noise bounded by ``v_max``.

    A corruption is declared unless every block residual is finite and within
    ``sqrt(p) * v_max``; under the noise model this can never be a false
    alarm.  A quiet residual does not certify the absence of corruption,
    only that any corruption is small enough for the least-squares estimate
    to remain accurate.
    """
    z = _shaped(z, phi.blocks.shape[:2], "measurement (p, n)")
    _check_v_max(v_max)
    x_hat, residual = _projection_residual(phi, z)
    norms = np.linalg.norm(residual, axis=1)
    threshold = math.sqrt(phi.block_count) * v_max
    return DetectionResult(
        residual=residual,
        attacked=bool(np.any(violations(norms, threshold))),
        estimate=x_hat,
        per_block_residual_norms=norms,
        threshold=threshold,
    )


def _check_v_max(v_max: float) -> None:
    if not 0.0 <= v_max < math.inf:
        raise ValueError(f"v_max must be finite and nonnegative, got {v_max}")


def block_misfits(phi: CodingMatrix, z: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """Block norms of ``z - Phi x`` for each row ``x`` of ``estimates``: shape (rows, p).

    ``z`` must already be a ``(p, n)`` array: this runs every online step, so its shape is
    compared, not converted."""
    if z.shape != (phi.block_count, phi.block_len):
        raise ValueError(f"measurement (p, n) shape {z.shape} != "
                         f"{(phi.block_count, phi.block_len)}")
    resid = z.reshape(-1, 1) - phi.entries @ estimates.T
    return np.linalg.norm(resid.reshape(phi.block_count, phi.block_len, -1), axis=1).T


def violations(misfits: np.ndarray, threshold: float) -> np.ndarray:
    """Blocks whose misfit is not both finite and within ``threshold``."""
    return ~(misfits <= min(threshold, sys.float_info.max))


@dataclass(frozen=True)
class CandidateStack:
    """Least-squares operators of every selection of ``p - r`` blocks of one ``phi``.

    Selection ``c`` has the 0-based sensors ``members[c]`` and the pseudoinverse ``pinvs[c]``
    of their row slabs, of full rank under the correctability every caller requires first.
    Selections follow the lexicographic order of ``sensor_selections``, so the first minimum
    of a per-candidate score is the smallest selection.  It holds ``C(p, p-r) (p-r) n**2`` floats.
    """

    phi: CodingMatrix
    r: int
    members: np.ndarray
    pinvs: np.ndarray

    @classmethod
    def build(cls, phi: CodingMatrix, r: int, eps_rel: float = DEFAULT_EPS_REL) -> "CandidateStack":
        p = phi.block_count
        if not 0 <= r <= p:
            raise ValueError(f"r must lie in 0..{p}, got {r}")
        members = sensor_selections(p, p - r)
        return cls(phi, r, members, pinv(phi.selection_stack(members), eps_rel))

    def estimates(self, z: np.ndarray) -> np.ndarray:
        """Every candidate's least-squares estimate from the ``(p, n)`` blocks ``z``, one row
        per selection."""
        z = _shaped(z, self.phi.blocks.shape[:2], "measurement (p, n)")
        data = z[self.members].reshape(len(self.members), -1, 1)
        return (self.pinvs @ data)[:, :, 0]

    def search(self, z: np.ndarray, threshold: float) -> tuple[np.ndarray, int, IndexSet]:
        """Candidate with the fewest violating blocks: (estimate, count, violating set)."""
        z = _shaped(z, self.phi.blocks.shape[:2], "measurement (p, n)")
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite misfits violate by design
            estimates = self.estimates(z)
            violating = violations(block_misfits(self.phi, z, estimates), threshold)
        counts = np.count_nonzero(violating, axis=1)
        best = int(np.argmin(counts))
        support = tuple(int(i) + 1 for i in np.flatnonzero(violating[best]))
        return estimates[best], int(counts[best]), IndexSet(support, self.phi.block_count)


def default_support_tol(z: np.ndarray) -> float:
    """Round-off tolerance for residual blocks, scaled by the finite entries of ``z`` only."""
    finite = z[np.isfinite(z)]
    with np.errstate(over="ignore"):  # an overflowing norm gives an infinite tolerance
        return math.sqrt(np.finfo(float).eps) * (1.0 + float(np.linalg.norm(finite)))


def _decoded(phi: CodingMatrix, z: np.ndarray, q: int, r: int, threshold: float,
             error_bound: float, eps_rel: float) -> DecodeResult:
    """The search over every ``(p - r)``-selection, certified when at most q blocks violate
    ``threshold``."""
    estimate, objective, support = CandidateStack.build(phi, r, eps_rel).search(z, threshold)
    return DecodeResult(estimate, support, objective, objective <= q, error_bound)


def decode_noiseless(
    phi: CodingMatrix,
    z: np.ndarray,
    q: int,
    r: int | None = None,
    support_tol: float | None = None,
    eps_rel: float = DEFAULT_EPS_REL,
) -> DecodeResult:
    """Recover ``x`` from ``z = Phi x + e`` with at most q corrupted blocks.

    Searches the candidate set with ``q <= r <= 2q`` (default ``r = q``,
    the cheapest choice for small q) and minimizes the number of nonzero
    residual blocks.  With q-error correctability the minimizer is exact,
    and an objective value of at most q certifies it.  ``eps_rel`` is the
    relative rank tolerance of the correctability check and the candidates.
    """
    z = _shaped(z, phi.blocks.shape[:2], "measurement (p, n)")
    r = decoder_budget(q, r)
    if not is_q_error_correctable(phi, q, eps_rel):
        raise CorrectabilityError(
            f"coding matrix is not {q}-error correctable; decoding is ill-posed"
        )
    tol = default_support_tol(z) if support_tol is None else support_tol
    return _decoded(phi, z, q, r, tol, 0.0, eps_rel)


def decode_noisy(
    phi: CodingMatrix,
    z: np.ndarray,
    q: int,
    r: int | None = None,
    v_max: float = 0.0,
    constants: RobustnessConstants | None = None,
    eps_rel: float = DEFAULT_EPS_REL,
) -> DecodeResult:
    """Recover ``x`` from ``z = Phi x + e + v`` with bounded per-block noise.

    The violation threshold is ``theta * v_max``; any minimizer of the
    violation count lies within ``kappa_c * v_max`` of the true vector.
    Passing precomputed ``constants`` skips the subset enumerations (their
    existence certifies correctability).  ``eps_rel`` is the relative rank
    tolerance of the constants and the candidates.
    """
    z = _shaped(z, phi.blocks.shape[:2], "measurement (p, n)")
    _check_v_max(v_max)
    r = decoder_budget(q, r, constants)
    if constants is None:
        constants = robustness_constants(phi, q, r, eps_rel)
    return _decoded(phi, z, q, r, constants.theta * v_max, constants.kappa_c * v_max, eps_rel)


def certify_estimate(
    phi: CodingMatrix,
    z: np.ndarray,
    x_hat: np.ndarray,
    q: int,
    r: int | None = None,
    v_max: float = 0.0,
    constants: RobustnessConstants | None = None,
) -> tuple[bool, int]:
    """Check a given estimate against the per-block violation threshold.

    Returns ``(certified, violation_count)``: at most q violating blocks
    certify that the estimate is within ``kappa_c * v_max`` of the truth;
    more than q violating blocks place it farther than
    ``kappa_c_prime * v_max`` away.
    """
    z = _shaped(z, phi.blocks.shape[:2], "measurement (p, n)")
    x_hat = _shaped(x_hat, (phi.block_len,), "estimate (n,)")
    _check_v_max(v_max)
    r = decoder_budget(q, r, constants)
    if constants is None:
        constants = robustness_constants(phi, q, r)
    misfits = block_misfits(phi, z, x_hat[None, :])
    count = int(np.count_nonzero(violations(misfits, constants.theta * v_max)))
    return count <= q, count


def recover_initial_state(
    model: SystemModel,
    outputs: np.ndarray,
    inputs: np.ndarray | None,
    q: int,
    r: int | None = None,
    support_tol: float | None = None,
) -> DecodeResult:
    """Recover x(0) from n output samples despite q corrupted sensors.

    Stacks each sensor's first n samples, subtracts the known input-driven
    response, and decodes against the stacked observability matrix.  The
    model must be 2q-redundant observable for the decode to be well posed.
    """
    n, m, p = model.n, model.m, model.p
    outputs = np.atleast_2d(np.asarray(outputs, dtype=float))
    if outputs.shape[0] < n or outputs.shape[1] != p:
        raise ValueError(
            f"need at least n={n} output samples of width p={p}, got {outputs.shape}"
        )
    if inputs is None:
        inputs = np.zeros((max(n - 1, 0), m))
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if n > 1 and (inputs.shape[0] < n - 1 or inputs.shape[1] != m):
        raise ValueError(
            f"need at least n-1={n - 1} input samples of width m={m}, got {inputs.shape}"
        )

    # forced response: s(0) = 0, s(k+1) = A s(k) + B u(k); y_forced(k) = C s(k)
    forced = np.zeros((n, p))
    state = np.zeros(n)
    for k in range(1, n):
        state = model.A @ state + model.B @ inputs[k - 1]
        forced[k] = model.C @ state

    free = outputs[:n] - forced  # column i is sensor i's block
    return decode_noiseless(observability_matrix(model), free.T, q, r, support_tol)
