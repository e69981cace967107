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
from .decoding import CandidateStack, block_misfits, violations
from .observers import PartialObserver
from .stacked import CodingMatrix, IndexSet


class EstimatorAssumptionError(ValueError):
    """A standing model assumption of the estimator failed while it ran."""


@dataclass
class ObserverBank:
    """The observer bank as one LTI system on the ``(p, n)`` padded state ``z``, a row per sensor.

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
        u, y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
        if u.shape != self.B.shape[2:] or y.shape != self.z.shape[:1]:
            raise ValueError(f"input shape {u.shape} and measurement shape {y.shape} "
                             f"!= bank shapes {self.B.shape[2:]} and {self.z.shape[:1]}")
        self.z = (self.F @ self.z[:, :, None])[:, :, 0] + self.B @ u + self.L * y[:, None]


@dataclass
class DecoderState:
    """Mutable single-owner state of the switching decoder.

    ``operators`` caches the calculator's (0-based members, pinv) per trusted set;
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
        return cls(lam=IndexSet.full(phi.block_count), q=q, r=r, phi=phi,
                   constants=constants, recert_every=recert_every)


@np.errstate(over="ignore", invalid="ignore")  # non-finite misfits violate by design
def decoder_step(
    state: DecoderState, z: np.ndarray, k: int, v_max: float
) -> tuple[np.ndarray, int]:
    """One monitor-then-decode pass on the ``(p, n)`` padded observer state: ``(x_hat, f)``.

    ``v_max`` is the error envelope ``v_max(k)``.  The calculator solves least
    squares on the trusted set ``state.lam``, reading only the trusted blocks,
    and counts as ``f`` the sensors whose block misfit is not within
    ``theta * v_max``; ``f <= q`` keeps its estimate.  Otherwise the minimizer
    searches the candidate set and the trusted set becomes the sensors
    consistent with its estimate (non-strict threshold, lexicographic
    tie-break inherited from the search).
    """
    p = state.phi.block_count
    if state.lam not in state.operators:
        members = np.array(state.lam.indices, dtype=np.intp) - 1
        state.operators[state.lam] = (members, pinv(state.phi.selection_stack(members[None])[0]))
    members, lsq = state.operators[state.lam]
    x_hat = lsq @ z[members].reshape(-1)
    threshold = state.constants.theta * v_max
    f = int(np.count_nonzero(violations(block_misfits(state.phi, z, x_hat[None, :]), threshold)))

    if f > state.q:
        if state.candidates is None:
            state.candidates = CandidateStack.build(state.phi, state.r)
        x_hat, _, attacked = state.candidates.search(z, threshold)
        state.lam = attacked.complement()
        if len(state.lam) < p - state.q:
            raise EstimatorAssumptionError(
                f"trusted set {tuple(state.lam)} shrank below p - q; more than q sensors attacked"
            )

    if state.recert_every and k > 0 and k % state.recert_every == 0:
        state.lam = IndexSet.full(p)
    return x_hat, f


def estimator_step(
    bank: ObserverBank, state: DecoderState, u: np.ndarray, y_bar: np.ndarray, k: int, v_max: float
) -> tuple[np.ndarray, int]:
    """Advance the bank with (u(k), y(k)), then decode the step-k+1 estimate.

    Observer states after absorbing the step-k measurement estimate the
    step-k+1 plant state, so ``v_max`` is the envelope ``v_max(k + 1)``.
    """
    bank.step(u, y_bar)
    return decoder_step(state, bank.z, k + 1, v_max)
