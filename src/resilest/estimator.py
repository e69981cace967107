"""Switching decoder over a bank of partial observers.

The padded observer states satisfy a static coding relation against the
full plant state, so the online estimator is one LTI system (the observer
bank on the padded state) followed by cached least-squares operators.
During normal operation one product with the pseudoinverse of the trusted
rows (the calculator) suffices; only when more than q sensors disagree does
the decoder fall back to the combinatorial search (the minimizer) and
re-select the trusted set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import pinv
from .analysis import RobustnessConstants, robustness_constants
from .decoding import CandidateStack, block_misfits, decode_noisy, violations
from .observers import ErrorBoundParams, PartialObserver, v_max_at
from .stacked import CodingMatrix, IndexSet, StackedVector

BRANCH_CALCULATOR = "calculator"
BRANCH_MINIMIZER = "minimizer"


class EstimatorAssumptionError(ValueError):
    """A standing model assumption of the estimator failed while it ran."""


@dataclass
class ObserverBank:
    """The observer bank as one LTI system on the padded state ``z`` (p x n).

    Block i advances as ``F_i z_i + B_i u + L_i y_i`` with sensor i's matrices
    zero-padded to n rows, so ``z`` is the decoder input as it stands.  A
    batched per-block product, unlike a block-diagonal matvec, keeps a
    non-finite reading in its own block instead of spreading it via ``0 * nan``.
    ``phi`` pads each quotient basis ``Z_i'`` the same way: the decoder's coding
    matrix, whose selections keep the ranks of the stacked observability matrix.
    """

    F: np.ndarray
    B: np.ndarray
    L: np.ndarray
    phi: CodingMatrix
    z: np.ndarray

    @classmethod
    def stack(cls, observers: list[PartialObserver]) -> "ObserverBank":
        """Pad and stack designed observers; every state starts at zero."""
        if not observers:
            raise ValueError("observer bank is empty")
        n, m, p = observers[0].Z.shape[0], observers[0].Bz.shape[1], len(observers)
        if sum(obs.nu for obs in observers) > n * p:
            raise EstimatorAssumptionError("observer state exceeds the padded size n*p")
        F, B, L, Z = np.zeros((p, n, n)), np.zeros((p, n, m)), np.zeros((p, n)), np.zeros((p, n, n))
        for i, obs in enumerate(observers):
            if not obs.gain_designed:
                raise ValueError(f"sensor {obs.sensor_index}: observer gain not designed")
            F[i, : obs.nu, : obs.nu] = obs.F
            B[i, : obs.nu] = obs.Bz
            L[i, : obs.nu] = obs.L.reshape(-1)
            Z[i, : obs.nu] = obs.Z.T
        return cls(F, B, L, CodingMatrix(Z.reshape(p * n, n), n, p), np.zeros((p, n)))

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite reading stays in its block
    def step(self, u: np.ndarray, y: np.ndarray) -> None:
        """Absorb the input ``u`` (m,) and the measurements ``y`` (p,)."""
        self.z = (self.F @ self.z[:, :, None])[:, :, 0] + self.B @ u + self.L * y[:, None]

    def output(self) -> StackedVector:
        p, n = self.z.shape
        return StackedVector(self.z.reshape(-1), n, p)


@dataclass
class DecoderState:
    """Mutable single-owner state of the switching decoder.

    ``operators`` caches the calculator's (gather rows, pinv) per trusted set;
    ``candidates`` holds the minimizer's operators from the first search on.
    """

    lam: IndexSet
    q: int
    r: int
    phi: CodingMatrix
    constants: RobustnessConstants
    recert_every: int | None = None
    operators: dict[IndexSet, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    candidates: CandidateStack | None = None

    @classmethod
    def fresh(
        cls,
        phi: CodingMatrix,
        q: int,
        r: int | None = None,
        constants: RobustnessConstants | None = None,
        recert_every: int | None = None,
    ) -> "DecoderState":
        """Start trusting every sensor; constants are computed once here."""
        r = q if r is None else r
        if constants is None:
            constants = robustness_constants(phi, q, r)
        return cls(
            lam=IndexSet.full(phi.block_count),
            q=q,
            r=r,
            phi=phi,
            constants=constants,
            recert_every=recert_every,
        )


@dataclass(frozen=True)
class EstimateRecord:
    """One decoder output row."""

    k: int
    x_hat: np.ndarray
    f: int
    lam: IndexSet
    branch: str
    bound: float


@np.errstate(over="ignore", invalid="ignore")  # non-finite misfits violate by design
def decoder_step(
    state: DecoderState,
    z: StackedVector,
    k: int,
    bounds: ErrorBoundParams,
) -> EstimateRecord:
    """One monitor-then-decode pass on the padded observer vector.

    The calculator solves least squares on the trusted set, reading only the
    trusted blocks, and counts sensors whose block misfit is not within
    ``theta * v_max(k)``; at most q violations keep its estimate.  Otherwise
    the minimizer searches the candidate set and the trusted set becomes the
    sensors consistent with its estimate (non-strict threshold,
    lexicographic tie-break inherited from the search).
    """
    p = state.phi.block_count
    v_max_k = v_max_at(bounds, k)

    if state.lam not in state.operators:
        rows = state.lam.row_indices(state.phi.block_len)
        state.operators[state.lam] = (rows, pinv(state.phi.entries[rows]))
    rows, lsq = state.operators[state.lam]
    x_prime = lsq @ z.data[rows]
    misfits = block_misfits(state.phi, z, x_prime[None, :])
    f = int(np.count_nonzero(violations(misfits, state.constants.theta * v_max_k)))

    if f <= state.q:
        branch = BRANCH_CALCULATOR
        x_hat = x_prime
    else:
        branch = BRANCH_MINIMIZER
        if state.candidates is None:
            state.candidates = CandidateStack.build(state.phi, state.r)
        result = decode_noisy(
            state.phi, z, state.q, state.r, v_max_k,
            constants=state.constants, candidates=state.candidates,
        )
        x_hat = result.estimate
        state.lam = result.support_estimate.complement()
        if len(state.lam) < p - state.q:
            raise EstimatorAssumptionError(
                f"trusted set {tuple(state.lam)} shrank below p - q; more than q sensors attacked"
            )

    if state.recert_every and k > 0 and k % state.recert_every == 0:
        state.lam = IndexSet.full(p)

    return EstimateRecord(
        k=k,
        x_hat=x_hat,
        f=f,
        lam=state.lam,
        branch=branch,
        bound=state.constants.kappa_c * v_max_k,
    )


def estimator_step(
    bank: ObserverBank,
    state: DecoderState,
    u: np.ndarray,
    y_bar: np.ndarray,
    k: int,
    bounds: ErrorBoundParams,
) -> EstimateRecord:
    """Advance the bank with (u(k), y(k)), then decode.

    The returned record carries index ``k + 1``: observer states after
    absorbing the step-k measurement estimate the step-k+1 plant state.
    """
    y_bar = np.asarray(y_bar, dtype=float).reshape(-1)
    if y_bar.size != bank.z.shape[0]:
        raise ValueError(f"measurement width {y_bar.size} != bank size {bank.z.shape[0]}")
    bank.step(np.asarray(u, dtype=float).reshape(-1), y_bar)
    return decoder_step(state, bank.output(), k + 1, bounds)
