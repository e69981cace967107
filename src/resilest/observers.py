"""Per-sensor observability decomposition and Luenberger partial observers.

Each sensor gets an observer for the part of the state it can actually see:
an SVD of the sensor's observability matrix splits the state space into the
observable quotient (spanned by ``Z``) and its unobservable complement
(spanned by ``W``), and a single-output Luenberger observer with placed
poles runs on the quotient.  The bank's worst-case error envelope
``mu_F * x0_max * beta**k + w_max`` is certified by explicit powering of
each closed-loop matrix, in chunks of powers normed by batched SVDs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import matrix_rank, rank_above_floor, spectral_norm
from .analysis import SystemModel, sensor_observability_matrix

POLE_MATCH_TOL = 1e-6

# Powering stops once ||F^k|| falls below this floor (with the ratio to
# beta^k also below one, which makes the tail maximum provably covered).
_POWER_FLOOR = 1e-12
_POWER_CAP = 2_000_000
_POWER_CHUNK = 256  # powers generated, then normed by one batched SVD


@dataclass
class PartialObserver:
    """Decomposition data and observer gain of one sensor.

    ``Z`` (n x nu) and ``W`` (n x (n - nu)) are orthonormal bases of the
    observable quotient and the unobservable subspace.  ``S = Z' A Z`` and
    ``t = c Z`` form the observable pair; after gain design, ``F = S - L t``
    is Schur stable.  The running states of a whole bank live in
    :class:`resilest.estimator.ObserverBank`.
    """

    sensor_index: int
    nu: int
    Z: np.ndarray
    W: np.ndarray
    S: np.ndarray
    t: np.ndarray
    Bz: np.ndarray
    L: np.ndarray | None = None
    F: np.ndarray | None = None

    @property
    def gain_designed(self) -> bool:
        return self.F is not None


def kalman_decompose(model: SystemModel, i: int, eps_rel: float | None = None) -> PartialObserver:
    """Observability decomposition for sensor ``i`` (1-based), gain unset.

    The right singular vectors of the sensor's observability matrix with
    singular value above the shared rank floor span the observable quotient;
    the remaining ones span the unobservable subspace, which is invariant
    under ``A``.
    """
    if not 1 <= i <= model.p:
        raise ValueError(f"sensor index {i} outside 1..{model.p}")
    c = model.C[i - 1]
    g = sensor_observability_matrix(model.A, c)
    _, s, vt = np.linalg.svd(g)
    nu = int(rank_above_floor(s, g.shape, eps_rel))
    if nu == 0:
        raise ValueError(f"sensor {i} observes nothing (zero output row)")
    Z = vt[:nu].T
    W = vt[nu:].T
    S = Z.T @ model.A @ Z
    t = (c @ Z).reshape(1, nu)
    return PartialObserver(sensor_index=i, nu=nu, Z=Z, W=W, S=S, t=t, Bz=Z.T @ model.B)


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


def _acker_gain(S: np.ndarray, t: np.ndarray, poles: np.ndarray, shift: bool) -> np.ndarray:
    """Ackermann observer gain, optionally on the shifted pair (S - I)/tau.

    The shift is exact algebra (an affine spectral map) but spreads the
    rows of the observability matrix of near-identity pairs, which is what
    fast-sampled plants produce.
    """
    nu = S.shape[0]
    if shift:
        tau = max(float(np.linalg.norm(S - np.eye(nu), 2)), np.finfo(float).tiny)
        base = (S - np.eye(nu)) / tau
        targets = (poles - 1.0) / tau
        scale = tau
    else:
        base = S
        targets = poles
        scale = 1.0
    obs_mat = np.vstack([t @ np.linalg.matrix_power(base, k) for k in range(nu)])
    coeffs = np.poly(targets)
    poly_of_base = np.zeros_like(S)
    for c in coeffs:
        poly_of_base = poly_of_base @ base + np.real(c) * np.eye(nu)
    last_col = np.linalg.solve(obs_mat, np.eye(nu)[:, -1:])
    return scale * (poly_of_base @ last_col)


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
    length nu.  Both the plain and the shifted Ackermann formulations are
    evaluated and the more accurate one kept; the achieved eigenvalues must
    match the request within 1e-6.
    """
    poles = np.asarray(desired_poles, dtype=complex).reshape(-1)
    if poles.size != obs.nu:
        raise ValueError(f"need {obs.nu} poles, got {poles.size}")
    if np.any(np.abs(poles) >= 1.0):
        raise ValueError("desired poles must have moduli < 1")
    _check_conjugate_closed(poles)
    obs_mat = np.vstack([obs.t @ np.linalg.matrix_power(obs.S, k) for k in range(obs.nu)])
    if matrix_rank(obs_mat) < obs.nu:
        raise ValueError(
            f"(S, t) pair of sensor {obs.sensor_index} is not observable"
        )

    shift_scale = float(np.linalg.norm(obs.S - np.eye(obs.nu), 2))
    variants = [False] if shift_scale < 1e-12 * (1.0 + np.linalg.norm(obs.S, 2)) else [True, False]
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for shift in variants:
        try:
            L = _acker_gain(obs.S, obs.t, poles, shift)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(L)):
            continue
        F = obs.S - L @ obs.t
        err = _pole_error(F, poles)
        if best is None or err < best[0]:
            best = (err, L, F)
    if best is None or best[0] > POLE_MATCH_TOL:
        achieved = "none" if best is None else f"{best[0]:.3e}"
        raise ValueError(
            f"pole placement failed for sensor {obs.sensor_index}: "
            f"worst eigenvalue mismatch {achieved} exceeds {POLE_MATCH_TOL:.0e}"
        )
    _, L, F = best
    return replace(obs, L=L, F=F)


@dataclass(frozen=True)
class ErrorBoundParams:
    """Certified envelope of the attack-free observer error.

    ``norm(F_i^k) <= mu_f * beta**k`` holds for every sensor and every k,
    likewise ``mu_l`` for ``F^k L`` and ``mu_z`` for ``F^k Z'``; ``w_max``
    is the steady-state error level and ``x0_max`` the caller's bound on
    the initial state norm.
    """

    mu_f: float
    beta: float
    mu_l: float
    mu_z: float
    w_max: float
    x0_max: float


def compute_error_bounds(
    bank: list[PartialObserver],
    d_max: float,
    n_max: float,
    x0_max: float,
    beta: float | None = None,
) -> ErrorBoundParams:
    """Certify (mu_f, beta, mu_l, mu_z, w_max) for a designed bank.

    ``beta`` defaults to the midpoint between the bank's largest spectral
    radius and one.  The mu's are maxima of the norm ratios over explicit
    powers; powering stops once ``norm(F^k)`` is below 1e-12 with the ratio
    below one, after which submultiplicativity covers the tail.
    """
    if not bank:
        raise ValueError("observer bank is empty")
    radii = []
    for obs in bank:
        if not obs.gain_designed:
            raise ValueError(f"sensor {obs.sensor_index}: gain not designed")
        radii.append(float(np.max(np.abs(np.linalg.eigvals(obs.F)))))
    sr = max(radii)
    if sr >= 1.0:
        raise ValueError(f"bank contains an unstable observer (spectral radius {sr:.6f})")
    if beta is None:
        beta = (sr + 1.0) / 2.0
    if not sr < beta < 1.0:
        raise ValueError(f"beta must lie in (spectral radius, 1), got {beta}")

    mu_f = mu_l = mu_z = 0.0
    for obs in bank:
        powers, scales = np.empty((_POWER_CHUNK, obs.nu, obs.nu)), np.empty(_POWER_CHUNK)
        Fk, bk = np.eye(obs.nu), 1.0
        for k in range(0, _POWER_CAP + 1, _POWER_CHUNK):
            count = min(_POWER_CHUNK, _POWER_CAP + 1 - k)
            for j in range(count):
                powers[j], scales[j] = Fk, bk
                Fk, bk = Fk @ obs.F, bk * beta
            norm_f = spectral_norm(powers[:count])
            settled = np.flatnonzero((norm_f < _POWER_FLOOR) & (norm_f / scales[:count] < 1.0))
            last = int(settled[0]) + 1 if settled.size else count
            mu_f = max(mu_f, float((norm_f[:last] / scales[:last]).max()))
            mu_l = max(mu_l, float((spectral_norm(powers[:last] @ obs.L) / scales[:last]).max()))
            mu_z = max(mu_z, float((spectral_norm(powers[:last] @ obs.Z.T) / scales[:last]).max()))
            if settled.size:
                break
        else:
            raise RuntimeError("observer powering did not settle; beta too close to 1")

    w_max = (mu_l * n_max + mu_z * d_max) / (1.0 - beta)
    return ErrorBoundParams(mu_f=mu_f, beta=beta, mu_l=mu_l, mu_z=mu_z,
                            w_max=w_max, x0_max=x0_max)


def v_max_at(params: ErrorBoundParams, k: int) -> float:
    """Attack-free error bound at step k: ``mu_f * x0_max * beta**k + w_max``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return params.mu_f * params.x0_max * params.beta**k + params.w_max
