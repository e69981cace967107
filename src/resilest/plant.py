"""Discrete-time plant simulation with sensor-attack injection.

Includes zero-order-hold discretization of continuous models, a built-in
three-inertia benchmark plant (three rotating masses coupled by two
torsional springs, torque input on the first mass, five angle/difference
sensors), an integral-action state-feedback controller, and the closed-loop
simulation driver that wires plant, attacks, noise, observer bank, and the
switching decoder together.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .analysis import CorrectabilityError, SystemModel, coding_matrix
from .estimator import DecoderState, ObserverBank, decoder_step, estimator_step
from .observers import (
    PartialObserver,
    _quotient_observer,
    compute_error_bounds,
    contracted_poles,
    default_poles,
    design_gain,
    v_max_at,
)


class ScenarioValidationError(ValueError):
    """Scenario rejected before any simulation stepping."""


def _check_integer(name: str, value, least: Optional[int] = None) -> None:
    """Reject ``value`` unless it is an integral number, not a bool, and at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ScenarioValidationError(f"{name} must be an integer{bound}, got {value!r}")


@dataclass(frozen=True)
class ContinuousModel:
    """Continuous-time LTI triple, optionally with named physical parameters."""

    A_c: np.ndarray
    B_c: np.ndarray
    C_c: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "A_c", np.atleast_2d(np.asarray(self.A_c, dtype=float)))
        object.__setattr__(self, "B_c", np.atleast_2d(np.asarray(self.B_c, dtype=float)))
        object.__setattr__(self, "C_c", np.atleast_2d(np.asarray(self.C_c, dtype=float)))


def zoh_discretize(
    cm: ContinuousModel, T_s: float, d_max: float = 0.0, n_max: float = 0.0
) -> SystemModel:
    """Zero-order-hold equivalent of a continuous model at period ``T_s``.

    Both the state transition matrix and the held-input matrix come from one
    matrix exponential of the augmented block matrix [[A_c, B_c], [0, 0]]
    scaled by ``T_s``.
    """
    if not 0.0 < T_s < math.inf:  # False for NaN too
        raise ValueError(f"sampling period must be positive and finite, got {T_s}")
    n = cm.A_c.shape[0]
    m = cm.B_c.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = cm.A_c
    aug[:n, n:] = cm.B_c
    phi = expm(aug * T_s)
    return SystemModel(A=phi[:n, :n], B=phi[:n, n:], C=cm.C_c, d_max=d_max, n_max=n_max)


def three_inertia_model(
    J1: float = 0.01,
    J2: float = 0.01,
    J3: float = 0.01,
    b1: float = 0.007,
    b2: float = 0.007,
    b3: float = 0.007,
    k1: float = 1.37,
    k2: float = 1.37,
) -> ContinuousModel:
    """Three-inertia benchmark: inertias J (kg m^2), viscous friction
    b (N m s/rad), torsional springs k (N m/rad).

    State is [angle1, rate1, angle2, rate2, angle3, rate3]; the input is a
    torque on the first inertia.  Five sensors measure the three absolute
    angles and the two adjacent angle differences.
    """
    for name, J in (("J1", J1), ("J2", J2), ("J3", J3)):
        if J <= 0:
            raise ValueError(f"{name} must be positive, got {J}")
    A_c = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [-k1 / J1, -b1 / J1, k1 / J1, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [k1 / J2, 0.0, -(k1 + k2) / J2, -b2 / J2, k2 / J2, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, k2 / J3, 0.0, -k2 / J3, -b3 / J3],
    ])
    B_c = np.array([[0.0], [1.0 / J1], [0.0], [0.0], [0.0], [0.0]])
    C_c = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, -1.0, 0.0],
    ])
    return ContinuousModel(
        A_c=A_c, B_c=B_c, C_c=C_c,
        params={"J1": J1, "J2": J2, "J3": J3, "b1": b1, "b2": b2, "b3": b3,
                "k1": k1, "k2": k2},
    )


@dataclass(frozen=True)
class AttackSpec:
    """Additive injection on one sensor over a half-open step interval.

    ``waveform`` kinds: ``constant`` (value), ``ramp`` (slope per step),
    ``sinusoid`` (amplitude, freq_hz, phase; evaluated against step*dt), and
    ``random`` (seeded uniform draws in finite [lo, hi]; other values may be
    non-finite).  ``end_step=None`` means the attack lasts to the end of the run.
    """

    sensor: int
    start_step: int
    end_step: Optional[int]
    waveform: dict

    _KINDS = {"constant": ("value",), "ramp": ("slope",),
              "sinusoid": ("amplitude", "freq_hz"), "random": ("lo", "hi")}

    def __post_init__(self) -> None:
        _check_integer("attack sensor", self.sensor, 1)
        _check_integer("attack start_step", self.start_step, 0)
        if self.end_step is not None:
            _check_integer("attack end_step", self.end_step, self.start_step + 1)
        kind = self.waveform.get("kind")
        if kind not in self._KINDS:
            raise ValueError(f"unknown waveform kind {kind!r}; expected one of {list(self._KINDS)}")
        keys = self._KINDS[kind] + ("phase",) * ("phase" in self.waveform)
        try:
            params = [float(self.waveform[key]) for key in keys]
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{kind} waveform needs numeric {', '.join(keys)}") from None
        if kind == "random" and not (np.all(np.isfinite(params)) and params[0] <= params[1]):
            raise ValueError("random waveform needs finite lo <= hi")

    def active(self, k: int) -> bool:
        return k >= self.start_step and (self.end_step is None or k < self.end_step)

    def value(self, k: int, dt: float, rng: np.random.Generator) -> float:
        """Injection value at step k; ``rng`` is a dedicated per-spec stream."""
        if not self.active(k):
            return 0.0
        w = self.waveform
        kind = w["kind"]
        rel = k - self.start_step
        if kind == "constant":
            return float(w["value"])
        if kind == "ramp":
            return float(w["slope"]) * rel
        if kind == "sinusoid":
            return float(w["amplitude"]) * math.sin(
                2.0 * math.pi * float(w["freq_hz"]) * rel * dt + float(w.get("phase", 0.0))
            )
        return float(rng.uniform(float(w["lo"]), float(w["hi"])))


@dataclass(frozen=True)
class ControllerConfig:
    """Integral-action state feedback: u = K x_hat + K_I * integral of
    (reference - tracked output), with the tracked output taken from the
    estimate through the selected sensor row."""

    K: np.ndarray
    K_I: np.ndarray
    reference: float
    reference_onset: int = 0
    output_index: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", np.atleast_2d(np.asarray(self.K, dtype=float)))
        object.__setattr__(self, "K_I", np.asarray(self.K_I, dtype=float).reshape(-1))
        if self.K.shape[0] != self.K_I.size:
            raise ValueError("K and K_I disagree on the number of inputs")
        _check_integer("controller reference_onset", self.reference_onset)
        _check_integer("controller output_index", self.output_index, 1)

    def reference_at(self, k: int) -> float:
        return self.reference if k >= self.reference_onset else 0.0


class IntegralController:
    """Running integral state for a :class:`ControllerConfig`."""

    def __init__(self, config: ControllerConfig, C: np.ndarray):
        self.config = config
        self._c_row = np.asarray(C, dtype=float)[config.output_index - 1]
        self.xi = 0.0

    def step(self, x_hat: np.ndarray, k: int) -> np.ndarray:
        """Control value for step k; accumulates the tracking error after."""
        u = self.config.K @ x_hat + self.config.K_I * self.xi
        tracked = float(self._c_row @ x_hat)
        self.xi += self.config.reference_at(k) - tracked
        return u


@dataclass(frozen=True)
class ObserverConfig:
    """Pole policy for the bank plus the initial-state norm bound.

    ``mode`` is one of ``radius`` (all poles on one circle, evenly spaced
    angles), ``contract`` (open-loop quotient spectrum scaled by
    ``factor``), or ``explicit`` (per-sensor pole lists as [re, im] pairs).
    """

    mode: str = "radius"
    radius: float = 0.5
    factor: float = 0.98
    pole_sets: Optional[tuple] = None
    x0_max: float = 10.0

    def poles_for(self, obs: PartialObserver) -> np.ndarray:
        if self.mode == "radius":
            return default_poles(obs.nu, self.radius)
        if self.mode == "contract":
            return contracted_poles(obs, self.factor)
        if self.mode == "explicit":
            if self.pole_sets is None or len(self.pole_sets) < obs.sensor_index:
                raise ValueError("explicit pole mode requires one pole list per sensor")
            pairs = self.pole_sets[obs.sensor_index - 1]
            return np.array([complex(re, im) for re, im in pairs])
        raise ValueError(f"unknown observer pole mode {self.mode!r}")


@dataclass(frozen=True)
class Scenario:
    """Complete closed-loop experiment description."""

    model: SystemModel
    horizon: int
    q: int
    r: int
    attacks: tuple[AttackSpec, ...] = ()
    seed: int = 0
    controller: Optional[ControllerConfig] = None
    observer: ObserverConfig = field(default_factory=ObserverConfig)
    x0: Optional[np.ndarray] = None
    dt: float = 1.0
    recert_every: Optional[int] = None
    # Realized noise amplitude as a fraction of the declared bounds; the
    # declared d_max/n_max still size the decoder thresholds (they are upper
    # bounds, which zero realized noise satisfies).
    noise_scale: float = 1.0

    def __post_init__(self) -> None:
        for name, least in (("horizon", 1), ("q", None), ("r", None), ("seed", 0)):
            _check_integer(name, getattr(self, name), least)
        if self.recert_every is not None:
            _check_integer("recert_every", self.recert_every, 1)
        if not 0.0 < self.dt < math.inf:  # False for NaN too
            raise ScenarioValidationError(
                f"sampling period dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.noise_scale <= 1.0:
            raise ScenarioValidationError("noise_scale must lie in [0, 1]")
        if not self.q <= self.r <= 2 * self.q:
            raise ScenarioValidationError(f"need q <= r <= 2q, got q={self.q}, r={self.r}")
        c, (n, m, p) = self.controller, (self.model.n, self.model.m, self.model.p)
        if c is not None and c.K.shape != (m, n):
            raise ScenarioValidationError(f"controller K must be m x n = {(m, n)}, got {c.K.shape}")
        if c is not None and c.output_index > p:
            raise ScenarioValidationError(f"controller output_index {c.output_index} exceeds p={p}")
        if not 0.0 <= self.observer.x0_max < math.inf:
            raise ScenarioValidationError(
                f"observer x0_max must be finite and nonnegative, got {self.observer.x0_max}"
            )
        x0 = np.zeros(self.model.n) if self.x0 is None else np.asarray(self.x0, dtype=float)
        if x0.size != self.model.n:
            raise ScenarioValidationError(f"x0 must have length {self.model.n}")
        if not np.isfinite(x0).all():
            raise ScenarioValidationError("x0 must be finite")
        object.__setattr__(self, "x0", x0)

    def attacked_sensors(self) -> set[int]:
        return {a.sensor for a in self.attacks}

    def validate(self) -> DecoderState:
        """Check the standing model assumptions before any stepping; return the decoder state.

        Sensor indices, the sparsity budget (at most q sensors ever attacked) and the x0
        bound come first.  Then the robustness constants of the coding matrix certify the
        fresh decoder state; a failure names the redundancy order whose selection is deficient.
        """
        p = self.model.p
        for a in self.attacks:
            if a.sensor > p:
                raise ScenarioValidationError(
                    f"attack targets sensor {a.sensor} but the model has p={p}"
                )
        attacked = self.attacked_sensors()
        if len(attacked) > self.q:
            raise ScenarioValidationError(
                f"sparsity assumption violated: {len(attacked)} sensors attacked "
                f"({sorted(attacked)}) exceeds the budget q={self.q}"
            )
        if float(np.linalg.norm(self.x0)) > self.observer.x0_max + 1e-12:
            raise ScenarioValidationError(
                f"norm(x0)={np.linalg.norm(self.x0):.6g} exceeds the declared "
                f"x0_max={self.observer.x0_max}"
            )
        try:
            return DecoderState.fresh(coding_matrix(self.model), self.q, self.r,
                                      recert_every=self.recert_every)
        except CorrectabilityError as exc:
            raise ScenarioValidationError("redundancy assumption violated: the pair (A, C) is "
                                          f"not {exc.redundancy}-redundant observable") from exc


@dataclass
class Trace:
    """Per-step log of a simulation run.

    Arrays are indexed by step; ``ybar`` holds the measurements, the attack
    ``a`` included.  ``lam_mask`` is the trusted set, sensor ``i`` as bit ``i - 1``:
    int64 through 63 sensors, Python ints (an object array) past that.  ``branch`` is 1
    where the minimizer searched (``f > q``), else 0; ``bound`` is the certified error
    bound ``kappa_c * v_max(k)``.
    """

    k: np.ndarray
    t: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    u: np.ndarray
    ybar: np.ndarray
    a: np.ndarray
    f: np.ndarray
    lam_mask: np.ndarray
    branch: np.ndarray
    bound: np.ndarray

    @property
    def horizon(self) -> int:
        return self.k.size

    def estimation_errors(self) -> np.ndarray:
        return np.linalg.norm(self.x_hat - self.x, axis=1)


def build_observer_bank(model: SystemModel, observer: ObserverConfig) -> list[PartialObserver]:
    """Decompose every sensor from its block of ``Z'`` and design gains per the pole policy."""
    bank = []
    for i, block in enumerate(coding_matrix(model).blocks, start=1):
        obs = _quotient_observer(model, i, block)
        bank.append(design_gain(obs, observer.poles_for(obs)))
    return bank


def simulate(sc: Scenario) -> Trace:
    """Run the closed loop and log one row per step.

    Attack values are exogenous: each spec draws from its own stream, and only on its
    active steps, so they are all drawn into ``Trace.a`` before the loop.  Per step: the
    decoder reads the current observer states (estimates the current plant state), the
    controller acts on that estimate, noise is drawn, observers absorb the measurement,
    and the plant advances.  Deterministic for a fixed scenario and seed.  The decoder
    state is the one :meth:`Scenario.validate` certifies.
    """
    state = sc.validate()
    model = sc.model
    n, m, p = model.n, model.m, model.p

    observers = build_observer_bank(model, sc.observer)
    bank = ObserverBank.stack(observers)
    bounds = compute_error_bounds(observers, model.d_max, model.n_max, sc.observer.x0_max)

    controller = IntegralController(sc.controller, model.C) if sc.controller else None

    rng = np.random.default_rng(sc.seed)
    attack_rngs = [np.random.default_rng((sc.seed, 986243, idx)) for idx in range(len(sc.attacks))]

    H = sc.horizon
    tr = Trace(
        k=np.arange(H),
        t=np.arange(H) * sc.dt,
        x=np.zeros((H, n)),
        x_hat=np.zeros((H, n)),
        u=np.zeros((H, m)),
        ybar=np.zeros((H, p)),
        a=np.zeros((H, p)),
        f=np.zeros(H, dtype=int),
        lam_mask=np.zeros(H, dtype=int if p < 64 else object),
        branch=np.zeros(H, dtype=int),
        bound=np.zeros(H),
    )

    for spec, spec_rng in zip(sc.attacks, attack_rngs):
        for k in range(H):
            tr.a[k, spec.sensor - 1] += spec.value(k, sc.dt, spec_rng)

    x = sc.x0.copy()
    v_max = v_max_at(bounds, 0)
    lam = None
    x_hat, f = decoder_step(state, bank.z, 0, v_max)

    for k in range(H):
        u = controller.step(x_hat, k) if controller else np.zeros(m)

        noise = sc.noise_scale * rng.uniform(-model.n_max, model.n_max, size=p)
        direction = rng.standard_normal(n)
        norm = math.sqrt(direction.dot(direction))
        radius = sc.noise_scale * model.d_max * rng.uniform() ** (1.0 / n)
        d = direction * (radius / norm) if norm > 0 else np.zeros(n)
        ybar = model.C @ x + noise + tr.a[k]

        tr.x[k] = x
        tr.x_hat[k] = x_hat
        tr.u[k] = u
        tr.ybar[k] = ybar
        tr.f[k] = f
        if state.lam is not lam:
            lam, mask = state.lam, sum(1 << (i - 1) for i in state.lam)
        tr.lam_mask[k] = mask
        tr.branch[k] = f > sc.q
        tr.bound[k] = state.constants.kappa_c * v_max

        if k < H - 1:
            v_max = v_max_at(bounds, k + 1)
            x_hat, f = estimator_step(bank, state, u, ybar, k, v_max)
            x = model.A @ x + model.B @ u + d

    return tr
