"""Per-sensor observability decomposition and Luenberger partial observers.

Each sensor gets an observer for the part of the state it can actually see:
the orthogonal staircase builds an orthonormal basis ``Z`` of the sensor's
observable quotient in Hessenberg observer form, and a single-output
Luenberger observer with placed poles runs on the quotient.  The bank's
error envelope ``mu_F * x0_max * beta**k + w_max`` is certified by explicit
powering of each closed-loop matrix.  Each chunk of powers is bracketed by
norm bounds first; only the powers the bounds cannot decide take the SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import spectral_norm
from .analysis import SystemModel, quotient_basis

POLE_MATCH_TOL = 1e-6

_POWER_CAP = 2_000_000
_POWER_CHUNK = 256  # powers generated, then normed together


@dataclass
class PartialObserver:
    """Decomposition data and observer gain of one sensor.

    ``Z`` (n x nu) is an orthonormal basis of the observable quotient;
    ``S = Z' A Z`` and ``t = c Z`` form the observable pair; after gain
    design, ``F = S - L t`` is Schur stable.  The running states of a whole
    bank live in :class:`resilest.estimator.ObserverBank`.
    """

    sensor_index: int
    nu: int
    Z: np.ndarray
    S: np.ndarray
    t: np.ndarray
    Bz: np.ndarray
    L: np.ndarray | None = None
    F: np.ndarray | None = None

    @property
    def gain_designed(self) -> bool:
        return self.F is not None


def kalman_decompose(model: SystemModel, i: int) -> PartialObserver:
    """Observability decomposition for sensor ``i`` (1-based), gain unset.

    The quotient basis is :func:`resilest.analysis.quotient_basis`, the orthogonal
    staircase on the rows ``c, cA, ...``, so ``Z' A = S Z'`` with ``S`` lower
    Hessenberg and ``t = |c| e_1'``.  A zero output row raises ``ValueError``.
    """
    if not 1 <= i <= model.p:
        raise ValueError(f"sensor index {i} outside 1..{model.p}")
    c = model.C[i - 1]
    Q = quotient_basis(model.A, c)
    if not len(Q):
        raise ValueError(f"sensor {i} observes nothing (zero output row)")
    return PartialObserver(sensor_index=i, nu=len(Q), Z=Q.T, S=Q @ model.A @ Q.T,
                           t=float(np.linalg.norm(c)) * np.eye(1, len(Q)), Bz=Q @ model.B)


def default_poles(nu: int, radius: float = 0.5) -> np.ndarray:
    """Conjugate-closed pole set at one radius with evenly spaced angles.

    For an odd count the real pole ``+radius`` is included; the remaining
    poles form conjugate pairs at angles ``pi * j / (npairs + 1)``.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if not 0 <= radius < 1:
        raise ValueError("radius must lie in [0, 1)")
    poles: list[complex] = []
    if nu % 2 == 1:
        poles.append(complex(radius))
    npairs = nu // 2
    for j in range(1, npairs + 1):
        ang = math.pi * j / (npairs + 1)
        poles.append(radius * complex(math.cos(ang), math.sin(ang)))
        poles.append(radius * complex(math.cos(ang), -math.sin(ang)))
    return np.array(poles[:nu])


def contracted_poles(obs: PartialObserver, factor: float) -> np.ndarray:
    """Open-loop spectrum of the observable quotient scaled toward zero."""
    if not 0 < factor < 1:
        raise ValueError("contraction factor must lie in (0, 1)")
    return factor * np.linalg.eigvals(obs.S)


def _check_conjugate_closed(poles: np.ndarray, tol: float = 1e-9) -> None:
    remaining = list(poles)
    while remaining:
        z = remaining.pop()
        if abs(z.imag) <= tol:
            continue
        match = min(range(len(remaining)), key=lambda j: abs(remaining[j] - z.conjugate()),
                    default=None)
        if match is None or abs(remaining[match] - z.conjugate()) > tol * max(1.0, abs(z)):
            raise ValueError("desired pole set is not closed under conjugation")
        remaining.pop(match)


def _acker_gain(S: np.ndarray, t: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Ackermann observer gain, computed on the shifted pair ((S - I)/tau, t).

    The shift is exact algebra (one affine map of the pair and the poles)
    that spreads the observability rows of the near-identity pairs of
    fast-sampled plants.  Raises ``LinAlgError`` for an unobservable pair.
    """
    nu = S.shape[0]
    tau = float(np.linalg.norm(S - np.eye(nu), 2)) or 1.0
    base = (S - np.eye(nu)) / tau
    obs_mat = np.vstack([t @ np.linalg.matrix_power(base, k) for k in range(nu)])
    poly_of_base = np.zeros_like(S)
    for c in np.poly((poles - 1.0) / tau):
        poly_of_base = poly_of_base @ base + np.real(c) * np.eye(nu)
    last_col = np.linalg.solve(obs_mat, np.eye(nu)[:, -1:])
    return tau * (poly_of_base @ last_col)


def _pole_error(F: np.ndarray, desired: np.ndarray) -> float:
    achieved = list(np.linalg.eigvals(F))
    worst = 0.0
    for z in desired:
        j = min(range(len(achieved)), key=lambda k: abs(achieved[k] - z))
        worst = max(worst, abs(achieved[j] - z))
        achieved.pop(j)
    return worst


def design_gain(obs: PartialObserver, desired_poles) -> PartialObserver:
    """Place the observer poles of the observable pair (S, t).

    The desired pole multiset must be conjugate-closed with moduli < 1 and
    length nu.  One shifted Ackermann solve gives the gain (with one output
    it is unique).  A singular solve, a non-finite gain or eigenvalues
    farther than ``POLE_MATCH_TOL`` from the request raise.
    """
    poles = np.asarray(desired_poles, dtype=complex).reshape(-1)
    if poles.size != obs.nu:
        raise ValueError(f"need {obs.nu} poles, got {poles.size}")
    if np.any(np.abs(poles) >= 1.0):
        raise ValueError("desired poles must have moduli < 1")
    _check_conjugate_closed(poles)
    try:
        L = _acker_gain(obs.S, obs.t, poles)
        F = obs.S - L @ obs.t
        err = _pole_error(F, poles)
    except np.linalg.LinAlgError:  # a singular solve, or a non-finite F that eigvals rejects
        err = math.inf
    if err > POLE_MATCH_TOL:
        raise ValueError(
            f"pole placement failed for sensor {obs.sensor_index}: "
            f"worst eigenvalue mismatch {err:.3e} exceeds {POLE_MATCH_TOL:.0e}"
        )
    return replace(obs, L=L, F=F)


@dataclass(frozen=True)
class ErrorBoundParams:
    """Certified envelope of the attack-free observer error.

    ``norm(F_i^k) <= mu_f * beta**k`` holds for every sensor and every k, likewise
    ``mu_l`` for ``F^k L``; ``w_max`` is the steady-state error level and ``x0_max``
    the caller's bound on the initial state norm.
    """

    mu_f: float
    beta: float
    mu_l: float
    w_max: float
    x0_max: float


class EnvelopeError(RuntimeError):
    """The powering of an observer reached ``_POWER_CAP`` without its norm ratio settling."""


def _ratio_bounds(mats: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``lo <= norm(mats[k]) / scales[k] <= hi`` on the SVD 2-norm of each matrix of a
    ``(c, nu, m)`` stack, from the Frobenius norms and, for ``m > 1``, the top right singular
    vector of the matrix with the largest Frobenius ratio (see :func:`compute_error_bounds`).
    A non-finite norm anywhere gives every matrix the bounds ``-inf`` and ``inf``."""
    nu, cols = mats.shape[-2:]
    fro = np.sqrt(np.einsum("kij,kij->k", mats, mats))
    if not np.isfinite(fro).all():
        return np.full_like(fro, -np.inf), np.full_like(fro, np.inf)
    lower = fro / math.sqrt(cols)
    if cols > 1:
        v = np.linalg.svd(mats[np.argmax(fro / scales)])[2][0]
        lower = np.maximum(lower, np.linalg.norm(mats @ v, axis=-1))
    slack, margin = 16 * nu * nu * np.finfo(float).eps, nu * 2.0**-536
    return (lower - margin) * (1.0 - slack) / scales, (fro + margin) * (1.0 + slack) / scales


def _svd_ratios(mats: np.ndarray, scales: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                idx: np.ndarray) -> None:
    """Replace both bounds at ``idx`` by the SVD ratio itself."""
    if idx.size:
        lo[idx] = hi[idx] = spectral_norm(mats[idx]) / scales[idx]


def _max_ratio(mats: np.ndarray, scales: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               running: float) -> float:
    """``max(running, norm(mats[k]) / scales[k] over all k)``: only the ratios whose ``hi`` reaches
    the larger of ``running`` and every ``lo`` take the SVD (``lo == hi`` marks one taken)."""
    _svd_ratios(mats, scales, lo, hi, np.flatnonzero((hi >= max(running, lo.max())) & (lo < hi)))
    return max(running, float(hi.max()))


def _norm_chunk(powers: np.ndarray, scales: np.ndarray, L: np.ndarray,
                mu_f: float, mu_l: float) -> tuple[bool, float, float]:
    """Whether a chunk of powers ``F^k`` (``scales`` holds ``beta**k``) holds one whose ratio
    settles below 1, and ``mu_f`` and ``mu_l`` raised over the powers up to the first that does."""
    lo, hi = _ratio_bounds(powers, scales)
    ahead = np.flatnonzero(hi < 1.0)  # powers that surely settle
    end = int(ahead[0]) if ahead.size else len(powers)
    _svd_ratios(powers, scales, lo, hi, np.flatnonzero(lo[:end] < 1.0))
    below = np.flatnonzero(hi < 1.0)  # never k = 0, where the ratio is norm(I) = 1
    last = int(below[0]) + 1 if below.size else len(powers)
    mu_f = _max_ratio(powers[:last], scales[:last], lo[:last], hi[:last], mu_f)
    vectors = powers[:last] @ L
    mu_l = _max_ratio(vectors, scales[:last], *_ratio_bounds(vectors, scales[:last]), mu_l)
    return below.size > 0, mu_f, mu_l


def compute_error_bounds(
    bank: list[PartialObserver],
    d_max: float,
    n_max: float,
    x0_max: float,
) -> ErrorBoundParams:
    """Certify (mu_f, beta, mu_l, w_max) for a designed bank.

    ``beta`` is the midpoint between the largest spectral radius and one.  With
    ``r_k = norm(F^k) / beta**k`` and ``l_k = norm(F^k L) / beta**k``, powering
    stops at the first ``K >= 1`` with ``r_K < 1``: then ``r_(K+j) <= r_K r_j < r_j``
    and ``l_(K+j) <= r_K l_j < l_j``, so by induction the maxima over ``0..K`` cover
    every k.  The disturbance term uses ``norm(F^k Z') = norm(F^k)``, so ``Z'Z``
    farther than 1e-10 from ``I`` raises ``ValueError`` (the staircase gives 1e-15).
    Powering that reaches ``_POWER_CAP`` raises :class:`EnvelopeError`.

    Norm bounds.  Every ratio is first bracketed without an SVD.  For ``M`` with ``m``
    columns and a unit ``v``, ``|M v| <= |M|_2 <= |M|_F`` and ``|M|_2 >= |M|_F / sqrt(m)``
    (Golub & Van Loan, *Matrix Computations*, 4th ed., section 2.3).  Here ``v`` is the top
    right singular vector of the chunk's power with the largest Frobenius ratio; for the
    vectors ``F^k L`` (``m = 1``) the Frobenius norm is the 2-norm.  With ``s = 16 nu^2 eps``
    and ``d = nu 2^-536``, ``hi = (|M|_F + d)(1 + s)`` and ``lo = (max(|M v|, |M|_F /
    sqrt(m)) - d)(1 - s)`` bracket the SVD's own ``norm(M)`` in floating point.  The argument
    takes the SVD's error model from the Gram floor of :mod:`resilest._linalg`: backward
    stable, its ``sigma_max`` is within ``8 nu^2 u |M|_2`` of the exact value (``u = eps/2``),
    and its ``V`` is orthonormal to the same order.  Against that, the sum of squares behind
    ``|M|_F`` errs by ``(nu^2 + 3) u`` relative, ``M v`` and its norm by ``(nu^(3/2) + nu/2 + 1)
    u``, and the division by ``sqrt(m)`` and the margins by ``4 u``.  The bound ``hi`` then needs
    ``s >= (9 nu^2 + 5) u``, ``lo`` at most ``(16 nu^2 + nu^(3/2) + nu/2 + 3) u <= 20.5 nu^2 u``;
    ``s = 32 nu^2 u`` leaves the rest for second-order terms.  Gradual underflow adds at most
    ``2^-1075`` to an operation, so it moves each norm by less than ``nu 2^-537``, which ``d``
    covers.  Division by ``beta**k`` rounds monotonically, so ``lo / beta**k <= r_k <=
    hi / beta**k`` holds for the computed ratio ``r_k``.  A power with ``hi`` below one
    settles, one with ``lo`` at least one does not, and only the undecided powers before the
    first that surely settles take the SVD.  A ratio whose ``hi`` falls below the running
    maximum or below some ``lo`` cannot raise the maximum; the rest take the SVD, so every
    maximum is the maximum of SVD values, the same floats a full SVD of the chunk would give.
    A chunk with a non-finite norm takes the SVD whole.
    """
    if not bank:
        raise ValueError("observer bank is empty")
    radii = []
    for obs in bank:
        if not obs.gain_designed:
            raise ValueError(f"sensor {obs.sensor_index}: gain not designed")
        if spectral_norm(obs.Z.T @ obs.Z - np.eye(obs.nu)) > 1e-10:
            raise ValueError(f"sensor {obs.sensor_index}: quotient basis Z is not orthonormal")
        radii.append(float(np.max(np.abs(np.linalg.eigvals(obs.F)))))
    sr = max(radii)
    beta = (sr + 1.0) / 2.0
    if not beta < 1.0:  # also catches a radius so close to 1 that the midpoint rounds to it
        raise ValueError(f"bank contains an unstable observer (spectral radius {sr:.6f})")

    mu_f = mu_l = 0.0
    for obs in bank:
        powers, scales = np.empty((_POWER_CHUNK, obs.nu, obs.nu)), np.empty(_POWER_CHUNK)
        Fk, bk = np.eye(obs.nu), 1.0
        for k in range(0, _POWER_CAP + 1, _POWER_CHUNK):
            count = min(_POWER_CHUNK, _POWER_CAP + 1 - k)
            for j in range(count):
                powers[j], scales[j] = Fk, bk
                Fk, bk = Fk @ obs.F, bk * beta
            settled, mu_f, mu_l = _norm_chunk(powers[:count], scales[:count], obs.L, mu_f, mu_l)
            if settled:
                break
        else:
            raise EnvelopeError(f"sensor {obs.sensor_index}: observer powering did not settle "
                                f"within {_POWER_CAP} powers; beta too close to 1")

    w_max = (mu_l * n_max + mu_f * d_max) / (1.0 - beta)
    return ErrorBoundParams(mu_f=mu_f, beta=beta, mu_l=mu_l, w_max=w_max, x0_max=x0_max)


def v_max_at(params: ErrorBoundParams, k: int) -> float:
    """Attack-free error bound at step k: ``mu_f * x0_max * beta**k + w_max``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return params.mu_f * params.x0_max * params.beta**k + params.w_max
