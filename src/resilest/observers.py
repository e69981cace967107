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

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import spectral_norm
from .analysis import SystemModel, coding_matrix

POLE_MATCH_TOL = 1e-6

_POWER_CAP = 2_000_000
_POWER_CHUNK = 256  # powers per chunk; each of g sensors of one order gets _POWER_CHUNK // g


@dataclass
class PartialObserver:
    """Decomposition data and observer gain of one sensor.

    ``Z`` (n x nu) is an orthonormal basis of the observable quotient.  ``(S, t)`` is the
    staircase pair: ``S`` is ``Z' A Z`` made exactly lower Hessenberg and ``t = c Z = |c| e_1'``.
    After gain design, ``F = S - L t`` is Schur stable.  The running states of a whole bank
    live in :class:`resilest.estimator.ObserverBank`.
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

    The quotient basis is sensor i's block of :func:`resilest.analysis.coding_matrix`, the
    orthogonal staircase on the rows ``c, cA, ...`` of sensor i's row alone.  ``S`` is ``Z' A Z``
    made exactly lower Hessenberg and ``t = |c| e_1'``: the staircase pair :func:`design_gain`
    requires.  A zero output row raises ``ValueError``.
    """
    if not 1 <= i <= model.p:
        raise ValueError(f"sensor index {i} outside 1..{model.p}")
    return _quotient_observer(model, i, coding_matrix(replace(model, C=model.C[i - 1:i])).blocks[0])


def _quotient_observer(model: SystemModel, i: int, block: np.ndarray) -> PartialObserver:
    """Sensor ``i``'s decomposition from its block of ``Z'``: the staircase fills the block's
    first ``nu`` rows with unit rows and leaves the rest zero."""
    Q = block[:np.count_nonzero(block.any(axis=1))]
    if not len(Q):
        raise ValueError(f"sensor {i} observes nothing (zero output row)")
    return PartialObserver(sensor_index=i, nu=len(Q), Z=Q.T, S=np.tril(Q @ model.A @ Q.T, 1),
                           t=float(np.linalg.norm(model.C[i - 1])) * np.eye(1, len(Q)),
                           Bz=Q @ model.B)


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


def _check_conjugate_closed(poles: np.ndarray) -> None:
    tol, remaining = 1e-9, list(poles)
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
    """Ackermann's gain on a staircase pair (Datta, IEEE TAC 1987): the observability matrix is
    lower triangular, so ``L = Re(prod_i (S - poles_i I) e_nu) / (t_1 prod_j S[j, j+1])``.
    Raises ``LinAlgError`` for an unobservable pair or a product outside the float range."""
    with np.errstate(all="ignore"):  # a non-finite gain is refused below, not warned about
        scale = t[0, 0] * np.prod(np.diag(S, 1))
        v = np.eye(len(S), 1, 1 - len(S), dtype=complex)
        for z in poles:
            v = S @ v - z * v
        L = v.real / scale
    if not (0.0 < abs(scale) < math.inf and np.isfinite(L).all()):
        raise np.linalg.LinAlgError("unobservable pair or gain outside the float range")
    return L


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

    The pair must be a staircase pair (``S`` exactly lower Hessenberg, ``t`` a multiple of
    ``e_1'``) and the nu poles conjugate-closed with moduli < 1, or ``ValueError`` is raised.
    Ackermann's formula gives the gain (with one output it is unique).  An unobservable pair,
    a non-finite gain or eigenvalues farther than ``POLE_MATCH_TOL`` from the request raise.
    """
    if np.triu(obs.S, 2).any() or obs.t[:, 1:].any():
        raise ValueError(f"sensor {obs.sensor_index}: pair (S, t) is not in staircase form")
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
    except np.linalg.LinAlgError:  # an unobservable pair or a gain outside the float range
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


def _ratio_bounds(mats: np.ndarray, scales: np.ndarray,
                  running: float = -np.inf) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``lo <= norm(mats[k, s]) / scales[k] <= hi`` on the SVD 2-norm of each matrix of a
    ``(c, g, nu, m)`` grid, from the Frobenius norms and, for ``m > 1``, the top eigenvector of
    ``M'M`` for a column's matrix ``M`` with the largest Frobenius ratio, from one batched
    ``eigh`` over the columns whose Frobenius bounds leave a ratio undecided about 1 or able to
    reach ``max(running, every lo)`` (see :func:`compute_error_bounds`).  A non-finite norm in a
    column gives every matrix of that column the bounds ``-inf`` and ``inf``."""
    nu, cols = mats.shape[-2:]
    fro = np.sqrt(np.einsum("...ij,...ij->...", mats, mats))
    finite = np.isfinite(fro).all(axis=0)
    if not finite.all():
        lo, hi = np.full_like(fro, -np.inf), np.full_like(fro, np.inf)
        if finite.any():
            lo[:, finite], hi[:, finite] = _ratio_bounds(mats[:, finite], scales, running)
        return lo, hi
    slack, margin = 16 * nu * nu * np.finfo(float).eps, nu * 2.0**-536
    lo = (fro / math.sqrt(cols) - margin) * (1.0 - slack) / scales[:, None]
    hi = (fro + margin) * (1.0 + slack) / scales[:, None]
    if cols > 1:
        need = (((lo < 1.0) & (hi >= 1.0)) | (hi >= max(running, lo.max()))).any(axis=0)
        if need.any():
            top = mats[np.argmax(fro / scales[:, None], axis=0), np.arange(mats.shape[1])]
            v = np.zeros(top.shape[:2] + (1,))  # (g, m, 1); M 0 = 0 leaves lo as it is
            v[need] = np.linalg.eigh(top[need].swapaxes(1, 2) @ top[need])[1][:, :, -1:]
            lower = np.linalg.norm((mats @ v)[..., 0], axis=-1)
            lo = np.maximum(lo, (lower - margin) * (1.0 - slack) / scales[:, None])
    return lo, hi


def _svd_ratios(mats: np.ndarray, scales: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                cells: np.ndarray) -> None:
    """Replace both bounds on the ``cells`` mask by the SVD ratio itself."""
    k, s = np.nonzero(cells)
    if k.size:
        lo[k, s] = hi[k, s] = spectral_norm(mats[k, s]) / scales[k]


def _max_ratio(mats: np.ndarray, scales: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               cells: np.ndarray, running: float) -> float:
    """``max(running, norm(mats[k, s]) / scales[k] over the cells)``: only the cells whose ``hi``
    reaches the larger of ``running`` and every cell's ``lo`` take the SVD (``lo == hi`` marks one
    taken)."""
    floor = max(running, float(lo.max(where=cells, initial=-np.inf)))
    _svd_ratios(mats, scales, lo, hi, cells & (hi >= floor) & (lo < hi))
    return max(running, float(hi.max(where=cells, initial=-np.inf)))


def _first(mask: np.ndarray) -> np.ndarray:
    """Per column, the index of the first true row, or the row count if there is none."""
    return np.where(mask.any(axis=0), mask.argmax(axis=0), len(mask))


def _bracket_chunk(powers: np.ndarray, scales: np.ndarray, L: np.ndarray,
                   mu_f: float, mu_l: float) -> tuple[np.ndarray, float, float]:
    """For a ``(c, g, nu, nu)`` chunk of powers ``F_s^k`` (``scales`` holds ``beta**k``): per
    sensor, whether the chunk holds a power whose ratio settles below 1, and ``mu_f`` and
    ``mu_l`` raised over each sensor's powers up to its first that does."""
    lo, hi = _ratio_bounds(powers, scales, mu_f)
    ks = np.arange(len(powers))[:, None]
    undecided = (lo < 1.0) & (ks < _first(hi < 1.0))  # before the first that surely settles
    _svd_ratios(powers, scales, lo, hi, undecided)
    first = _first(hi < 1.0)  # never k = 0, where the ratio is norm(I) = 1
    stops = np.minimum(first + 1, len(powers))
    mu_f = _max_ratio(powers, scales, lo, hi, ks < stops, mu_f)
    vectors, scales = powers[:stops.max()] @ L, scales[:stops.max()]
    mu_l = _max_ratio(vectors, scales, *_ratio_bounds(vectors, scales), ks[:len(scales)] < stops,
                      mu_l)
    return first < len(powers), mu_f, mu_l


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
    Powering that reaches ``_POWER_CAP`` raises :class:`EnvelopeError`, naming the first
    sensor of its order that has not settled.

    Lockstep.  The sensors of one order ``nu`` are powered together, ``_POWER_CHUNK // g``
    powers of all ``g`` of them per chunk (so a chunk holds no more than ``_POWER_CHUNK``
    powers), by one stacked matmul per power; a stacked matmul runs one product per matrix,
    so every power is the per-sensor ``F^k @ F`` bit for bit, and ``np.cumprod`` is the
    running product ``beta**k``.  A sensor that settles drops out of the later chunks.

    Norm bounds.  Every ratio is first bracketed without an SVD.  For ``M`` with ``m``
    columns and a unit ``v``, ``|M v| <= |M|_2 <= |M|_F`` and ``|M|_2 >= |M|_F / sqrt(m)``
    (Golub & Van Loan, *Matrix Computations*, 4th ed., section 2.3).  Here ``v`` is the top
    eigenvector of ``M'M``, for the sensor's power ``M`` with the largest Frobenius ratio in the
    chunk: ``M``'s top right singular vector up to rounding (the entries of ``M'M`` are at most
    ``|M|_F^2``, finite here).  It is taken only when the sensor's Frobenius bounds
    (``v = 0``) leave a power undecided about 1 or able to reach the running maximum: ``v``
    only raises ``lo``, and every decision below holds for any valid ``lo``, so ``v`` only
    saves SVDs.  For the vectors ``F^k L`` (``m = 1``) the Frobenius norm is the 2-norm.  With
    ``s = 16 nu^2 eps`` and ``d = nu 2^-536``, ``hi = (|M|_F + d)(1 + s)`` and ``lo =
    (max(|M v|, |M|_F / sqrt(m)) - d)(1 - s)`` bracket the SVD's own ``norm(M)`` in floating
    point.  The argument takes the SVD's error model from the Gram floor of
    :mod:`resilest._linalg`: backward stable, its ``sigma_max`` is within ``8 nu^2 u |M|_2`` of
    the exact value (``u = eps/2``).  Only ``|v|`` enters ``lo`` (``|M v| <= |M|_2 |v|`` for any
    ``v``; how near ``v`` comes to the singular vector decides how tight ``lo`` is, not whether
    it holds), and ``eigh``'s eigenvectors are orthonormal to a small multiple of ``nu u``
    (Demmel, *Applied Numerical Linear Algebra*, 1997, section 5.3), within ``8 nu^2 u``.
    Against that, the sum of squares behind ``|M|_F`` errs by ``(nu^2 + 3) u`` relative,
    ``M v`` and its norm by ``(nu^(3/2) + nu/2 + 1) u``, and the division by ``sqrt(m)`` and the
    margins by ``4 u``.  The bound ``hi`` then needs ``s >= (9 nu^2 + 5) u``, ``lo`` at most
    ``(16 nu^2 + nu^(3/2) + nu/2 + 3) u <= 20.5 nu^2 u``; ``s = 32 nu^2 u`` leaves the rest for
    second-order terms.  Gradual underflow adds at most ``2^-1075`` to an operation, so it
    moves each norm by less than ``nu 2^-537``, which ``d`` covers.  Division by ``beta**k``
    rounds monotonically, so ``lo / beta**k <= r_k <= hi / beta**k`` holds for the computed
    ratio ``r_k``.  A power with ``hi`` below one
    settles, one with ``lo`` at least one does not; the undecided powers before the first
    that surely settles take the SVD in one batch.  A ratio whose ``hi`` falls below the
    running maximum or below some ``lo`` cannot raise the maximum; the rest take the SVD, so
    every maximum is the maximum of SVD values, the same floats a full SVD of the chunk would
    give.  A sensor with a non-finite norm in a chunk takes the SVD of that chunk whole.
    """
    if not bank:
        raise ValueError("observer bank is empty")
    radii, orders = [], {}
    for obs in bank:
        if not obs.gain_designed:
            raise ValueError(f"sensor {obs.sensor_index}: gain not designed")
        if spectral_norm(obs.Z.T @ obs.Z - np.eye(obs.nu)) > 1e-10:
            raise ValueError(f"sensor {obs.sensor_index}: quotient basis Z is not orthonormal")
        radii.append(float(np.max(np.abs(np.linalg.eigvals(obs.F)))))
        orders.setdefault(obs.nu, []).append(obs)
    sr = max(radii)
    beta = (sr + 1.0) / 2.0
    if not beta < 1.0:  # also catches a radius so close to 1 that the midpoint rounds to it
        raise ValueError(f"bank contains an unstable observer (spectral radius {sr:.6f})")

    mu_f = mu_l = 0.0
    for nu, group in orders.items():
        F, L = np.stack([obs.F for obs in group]), np.stack([obs.L for obs in group])
        sensors = np.array([obs.sensor_index for obs in group])
        chunk = max(1, _POWER_CHUNK // len(group))
        powers, steps = np.empty((chunk, len(group), nu, nu)), np.full(chunk, beta)
        powers[0], steps[0] = np.eye(nu), 1.0
        for k in range(0, _POWER_CAP + 1, chunk):
            count = min(chunk, _POWER_CAP + 1 - k)
            block = powers[:count, :len(sensors)]
            for power, following in itertools.pairwise(block):
                np.matmul(power, F, out=following)
            scales = np.cumprod(steps[:count])
            settled, mu_f, mu_l = _bracket_chunk(block, scales, L, mu_f, mu_l)
            if settled.all():
                break
            F, L, sensors, last = F[~settled], L[~settled], sensors[~settled], block[-1, ~settled]
            np.matmul(last, F, out=powers[0, :len(sensors)])
            steps[0] = scales[-1] * beta
        else:
            raise EnvelopeError(f"sensor {sensors[0]}: observer powering did not settle "
                                f"within {_POWER_CAP} powers; beta too close to 1")

    w_max = (mu_l * n_max + mu_f * d_max) / (1.0 - beta)
    return ErrorBoundParams(mu_f=mu_f, beta=beta, mu_l=mu_l, w_max=w_max, x0_max=x0_max)


def v_max_at(params: ErrorBoundParams, k: int) -> float:
    """Attack-free error bound at step k: ``mu_f * x0_max * beta**k + w_max``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return params.mu_f * params.x0_max * params.beta**k + params.w_max
