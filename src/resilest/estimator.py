"""Switching decoder over a bank of partial observers.

The padded observer states satisfy a static coding relation against the
full plant state, so the online estimator is one LTI system (the observer
bank on the padded state) followed by cached least-squares operators.
During normal operation one product with the pseudoinverse of the trusted
rows (the calculator) suffices; only when more than q sensors disagree does
the decoder fall back to the combinatorial search (the minimizer) and
re-select the trusted set.  The search stops at the first candidate it can
certify, so it solves the few selections it tries, not all ``C(p, p - r)``;
the exhaustive minimum stays in the offline decoders of ``decoding``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import pinv
from .analysis import RobustnessConstants, decoder_budget, robustness_constants
from .decoding import _candidates, _first_minimum, block_misfits, violations
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
    Block i of ``z`` tracks ``Z_i' x``; :func:`resilest.analysis.coding_matrix` pads each
    ``Z_i'`` the same way into the decoder's coding matrix.
    """

    F: np.ndarray
    B: np.ndarray
    L: np.ndarray
    z: np.ndarray

    @classmethod
    def stack(cls, observers: list[PartialObserver]) -> "ObserverBank":
        """Pad and stack designed observers; every state starts at zero."""
        if not observers:
            raise ValueError("observer bank is empty")
        n, m, p = observers[0].Z.shape[0], observers[0].Bz.shape[1], len(observers)
        if sum(obs.nu for obs in observers) > n * p:
            raise EstimatorAssumptionError("observer state exceeds the padded size n*p")
        F, B, L = np.zeros((p, n, n)), np.zeros((p, n, m)), np.zeros((p, n))
        for i, obs in enumerate(observers):
            if not obs.gain_designed:
                raise ValueError(f"sensor {obs.sensor_index}: observer gain not designed")
            F[i, : obs.nu, : obs.nu] = obs.F
            B[i, : obs.nu] = obs.Bz
            L[i, : obs.nu] = obs.L.reshape(-1)
        return cls(F, B, L, np.zeros((p, n)))

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

    The budget ``(q, r)`` is the one ``constants`` certify.  ``operators`` caches (0-based
    members, pinv) per block selection, solved when first needed: the calculator's trusted
    sets and the candidates that won a minimizer search.
    """

    lam: IndexSet
    phi: CodingMatrix
    constants: RobustnessConstants
    recert_every: int | None = None
    operators: dict[IndexSet, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @classmethod
    def fresh(
        cls,
        phi: CodingMatrix,
        q: int,
        r: int | None = None,
        recert_every: int | None = None,
    ) -> "DecoderState":
        """Start trusting every sensor; the constants of the budget ``(q, r)`` are computed
        once here."""
        constants = robustness_constants(phi, q, decoder_budget(q, r))
        return cls(lam=IndexSet.full(phi.block_count), phi=phi, constants=constants,
                   recert_every=recert_every)

    def operator(self, lam: IndexSet) -> tuple[np.ndarray, np.ndarray]:
        """(0-based members, pinv of their row slabs) of ``lam``: cached, or solved and not
        stored (the caller stores what it reuses)."""
        if (cached := self.operators.get(lam)) is None:
            members = np.array(lam.indices, dtype=np.intp) - 1
            cached = members, pinv(self.phi.selection_stack(members[None])[0])
        return cached


@np.errstate(over="ignore", invalid="ignore")  # non-finite misfits violate by design
def decoder_step(
    state: DecoderState, z: np.ndarray, k: int, v_max: float
) -> tuple[np.ndarray, int]:
    """One monitor-then-decode pass on the ``(p, n)`` padded observer state: ``(x_hat, f)``.

    ``v_max`` is the error envelope ``v_max(k)``.  The calculator solves least
    squares on the trusted set ``state.lam``, reading only the trusted blocks,
    and counts as ``f`` the sensors whose block misfit is not within
    ``theta * v_max``; ``f <= q`` keeps its estimate.  Otherwise the minimizer
    (:func:`_first_fit`) re-selects the trusted set.
    """
    p = state.phi.block_count
    members, lsq = state.operators.setdefault(state.lam, state.operator(state.lam))
    x_hat = lsq @ z[members].reshape(-1)
    threshold = state.constants.theta * v_max
    misfits = block_misfits(state.phi, z, x_hat[None, :])[0]
    f = int(np.count_nonzero(violations(misfits, threshold)))

    if f > state.constants.q:
        x_hat, state.lam = _first_fit(state, z, misfits, threshold)

    if state.recert_every and k > 0 and k % state.recert_every == 0:
        state.lam = IndexSet.full(p)
    return x_hat, f


def _first_fit(
    state: DecoderState, z: np.ndarray, misfits: np.ndarray, threshold: float
) -> tuple[np.ndarray, IndexSet]:
    """The first candidate estimate with at most q violating blocks: (estimate, the sensors
    it does not violate).

    Any such candidate is certified.  At most q blocks are attacked and at most q violate,
    so at least ``p - 2q`` blocks are neither: each lies within ``v`` of ``Phi_i x`` and
    within ``theta * v`` of ``Phi_i x_hat``, so ``|Phi_i (x - x_hat)| <= (theta + 1) v``.
    On ``p - 2q`` of them ``|x - x_hat| <= (theta + 1) sqrt(p - 2q) v / rho_2q``, which is
    ``kappa_c * v``: the bound ``decoding.certify_estimate`` states.  So the search need
    not find the fewest violations; it tries the ``(p - r)``-selections in ascending order
    of the largest calculator ``misfits`` among their members (a non-finite misfit ranks
    last; ties keep the lexicographic order) and solves each one's operator only when it
    is tried: the candidate walk of the offline decoders (``decoding._first_minimum``),
    stopping at q.  Of the operators it solves, only the winner's is cached.  When none
    qualifies, the exhaustive minimum would violate more than q blocks too and leave fewer
    than ``p - q`` sensors trusted, so the step raises.
    """
    p, q = state.phi.block_count, state.constants.q
    tried = _candidates(np.where(np.isfinite(misfits), misfits, np.inf), p - state.constants.r, 1)
    last = None

    def solve(members: np.ndarray) -> np.ndarray:
        nonlocal last
        lam = IndexSet(tuple(int(i) + 1 for i in members[0]), p)
        last = lam, state.operator(lam)
        return last[1][1][None]

    x_hat, bad = _first_minimum(state.phi, z, tried, solve, threshold, q)
    if np.count_nonzero(bad) > q:
        raise EstimatorAssumptionError(
            "no candidate violates at most q blocks, so the trusted set would shrink below "
            "p - q; more than q sensors attacked"
        )
    state.operators.setdefault(*last)  # the walk stopped at its last candidate, the winner
    return x_hat, IndexSet(tuple(int(i) + 1 for i in np.flatnonzero(~bad)), p)


def estimator_step(
    bank: ObserverBank, state: DecoderState, u: np.ndarray, y_bar: np.ndarray, k: int, v_max: float
) -> tuple[np.ndarray, int]:
    """Advance the bank with (u(k), y(k)), then decode the step-k+1 estimate.

    Observer states after absorbing the step-k measurement estimate the
    step-k+1 plant state, so ``v_max`` is the envelope ``v_max(k + 1)``.
    """
    bank.step(u, y_bar)
    return decoder_step(state, bank.z, k + 1, v_max)
