import copy
import dataclasses
import math

import numpy as np
import pytest

from test_analysis import repeated_subspace_matrix
from resilest import analysis, plant
from resilest.analysis import CorrectabilityError, SystemModel, coding_matrix, robustness_constants
from resilest.cli import DEMO_SCENARIO
from resilest.estimator import DecoderState
from resilest.files import scenario_from_dict
from resilest.observers import compute_error_bounds, v_max_at
from resilest.plant import (
    AttackSpec,
    ContinuousModel,
    ControllerConfig,
    IntegralController,
    ObserverConfig,
    Scenario,
    ScenarioValidationError,
    build_observer_bank,
    simulate,
    three_inertia_model,
    zoh_discretize,
)


def taylor_zoh_oracle(A_c, B_c, T_s, terms=40):
    """Independent discretization: scaled-and-squared Taylor series of the
    augmented block matrix, summed term by term."""
    A_c = np.atleast_2d(np.asarray(A_c, dtype=float))
    B_c = np.atleast_2d(np.asarray(B_c, dtype=float))
    n, m = A_c.shape[0], B_c.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A_c
    aug[:n, n:] = B_c
    scale = 0
    norm = np.linalg.norm(aug * T_s, 1)
    while norm / (2 ** scale) > 0.25:
        scale += 1
    M = aug * (T_s / 2 ** scale)
    out = np.eye(n + m)
    term = np.eye(n + m)
    for k in range(1, terms + 1):
        term = term @ M / k
        out = out + term
    for _ in range(scale):
        out = out @ out
    return out[:n, :n], out[:n, n:]


# ---------------------------------------------------------------------------
# discretization


def test_zoh_integrator():
    cm = ContinuousModel(A_c=[[0.0]], B_c=[[1.0]], C_c=[[1.0]])
    m = zoh_discretize(cm, 0.001)
    assert float(m.A[0, 0]) == pytest.approx(1.0, abs=1e-15)
    assert float(m.B[0, 0]) == pytest.approx(0.001, rel=1e-14)


def test_zoh_first_order_closed_form():
    cm = ContinuousModel(A_c=[[-1.0]], B_c=[[1.0]], C_c=[[1.0]])
    m = zoh_discretize(cm, 1.0)
    assert float(m.A[0, 0]) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert float(m.B[0, 0]) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_zoh_three_inertia_matches_taylor_oracle():
    cm = three_inertia_model()
    m = zoh_discretize(cm, 0.001)
    A_ref, B_ref = taylor_zoh_oracle(cm.A_c, cm.B_c, 0.001)
    assert np.abs(m.A - A_ref).max() < 1e-12
    assert np.abs(m.B - B_ref).max() < 1e-12


def test_zoh_random_systems_match_taylor_oracle():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m_in = int(rng.integers(1, 3))
        A_c = rng.normal(size=(n, n)) * 2
        B_c = rng.normal(size=(n, m_in))
        cm = ContinuousModel(A_c=A_c, B_c=B_c, C_c=np.eye(n))
        dm = zoh_discretize(cm, 0.05)
        A_ref, B_ref = taylor_zoh_oracle(A_c, B_c, 0.05)
        assert np.abs(dm.A - A_ref).max() < 1e-12
        assert np.abs(dm.B - B_ref).max() < 1e-12


def test_zoh_rejects_bad_period():
    cm = ContinuousModel(A_c=[[0.0]], B_c=[[1.0]], C_c=[[1.0]])
    with pytest.raises(ValueError):
        zoh_discretize(cm, 0.0)


# ---------------------------------------------------------------------------
# three-inertia model data


def test_three_inertia_matrix_entries():
    cm = three_inertia_model()
    assert cm.A_c[1, 0] == pytest.approx(-137.0)   # -k1/J1
    assert cm.A_c[1, 1] == pytest.approx(-0.7)     # -b1/J1
    assert cm.B_c[1, 0] == pytest.approx(100.0)    # 1/J1
    assert np.array_equal(cm.C_c[3], [1.0, 0.0, -1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(cm.C_c[4], [0.0, 0.0, 1.0, 0.0, -1.0, 0.0])
    assert cm.A_c.shape == (6, 6) and cm.B_c.shape == (6, 1) and cm.C_c.shape == (5, 6)


def test_three_inertia_rejects_nonpositive_inertia():
    with pytest.raises(ValueError):
        three_inertia_model(J2=0.0)


# ---------------------------------------------------------------------------
# controller


def test_controller_zero_fixed_point():
    cfg = ControllerConfig(K=np.zeros((1, 2)), K_I=[0.0], reference=0.0, output_index=1)
    ctrl = IntegralController(cfg, np.array([[1.0, 0.0]]))
    assert ctrl.step(np.zeros(2), 0) == pytest.approx([0.0])


def test_controller_pure_integrator_ramps():
    cfg = ControllerConfig(K=np.zeros((1, 2)), K_I=[1.0], reference=1.0, output_index=1)
    ctrl = IntegralController(cfg, np.array([[1.0, 0.0]]))
    outs = [float(ctrl.step(np.zeros(2), k)[0]) for k in range(4)]
    assert outs == pytest.approx([0.0, 1.0, 2.0, 3.0])


def test_controller_reference_onset():
    cfg = ControllerConfig(K=np.zeros((1, 1)), K_I=[1.0], reference=2.0,
                           reference_onset=2, output_index=1)
    ctrl = IntegralController(cfg, np.array([[1.0]]))
    vals = [float(ctrl.step(np.zeros(1), k)[0]) for k in range(4)]
    assert vals == pytest.approx([0.0, 0.0, 0.0, 2.0])


# ---------------------------------------------------------------------------
# attacks


def test_attack_waveforms():
    rng = np.random.default_rng(0)
    const = AttackSpec(1, 5, 8, {"kind": "constant", "value": 2.5})
    assert const.value(4, 0.1, rng) == 0.0
    assert const.value(5, 0.1, rng) == 2.5
    assert const.value(7, 0.1, rng) == 2.5
    assert const.value(8, 0.1, rng) == 0.0

    ramp = AttackSpec(1, 2, None, {"kind": "ramp", "slope": 0.5})
    assert ramp.value(6, 0.1, rng) == pytest.approx(2.0)

    sine = AttackSpec(1, 0, None, {"kind": "sinusoid", "amplitude": 2.0, "freq_hz": 1.0})
    assert sine.value(0, 0.25, rng) == pytest.approx(0.0)
    assert sine.value(1, 0.25, rng) == pytest.approx(2.0)

    rand = AttackSpec(1, 0, None, {"kind": "random", "lo": -1.0, "hi": 1.0})
    vals = [rand.value(k, 0.1, np.random.default_rng(3)) for k in range(5)]
    assert all(-1 <= v <= 1 for v in vals)


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(0, 0, None, {"kind": "constant", "value": 1.0})
    with pytest.raises(ValueError):
        AttackSpec(1, 5, 5, {"kind": "constant", "value": 1.0})
    with pytest.raises(ValueError):
        AttackSpec(1, 0, None, {"kind": "sawtooth"})


@pytest.mark.parametrize("waveform", [
    {"kind": "constant"},
    {"kind": "constant", "value": "big"},
    {"kind": "ramp"},
    {"kind": "sinusoid", "amplitude": 1.0},
    {"kind": "sinusoid", "freq_hz": 1.0},
    {"kind": "sinusoid", "amplitude": 1.0, "freq_hz": 1.0, "phase": None},
    {"kind": "random", "lo": -1.0},
    {"kind": "random", "lo": 1.0, "hi": -1.0},
    {"kind": "random", "lo": -math.inf, "hi": 1.0},
    {"kind": "random", "lo": 0.0, "hi": math.nan},
])
def test_attack_spec_rejects_missing_or_bad_waveform_parameters(waveform):
    with pytest.raises(ValueError):
        AttackSpec(1, 0, None, waveform)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308])
def test_attack_spec_keeps_nonfinite_injections(value):
    spec = AttackSpec(1, 0, None, {"kind": "constant", "value": value})
    np.testing.assert_equal(spec.value(0, 0.1, np.random.default_rng(0)), value)


# ---------------------------------------------------------------------------
# simulate


def scalar_scenario(**overrides):
    model = SystemModel(A=[[0.95]], B=[[0.0]], C=[[1.0], [1.0], [1.0]],
                        d_max=0.001, n_max=0.001)
    base = dict(
        model=model, horizon=120, q=1, r=1, seed=3,
        observer=ObserverConfig(mode="radius", radius=0.5, x0_max=1.0),
        x0=np.array([0.8]),
    )
    base.update(overrides)
    return Scenario(**base)


def test_simulate_records_the_per_step_sum_of_the_attack_values():
    # each spec draws from its own stream, on its active steps only; values on one sensor add
    # in spec order.  The random spec runs past the horizon and the last starts after it
    specs = (AttackSpec(2, 10, 500, {"kind": "random", "lo": -1.0, "hi": 1.0}),
             AttackSpec(2, 30, 90, {"kind": "constant", "value": 0.1}),
             AttackSpec(2, 50, 70, {"kind": "constant", "value": 0.2}),
             AttackSpec(2, 200, None, {"kind": "constant", "value": 5.0}))
    sc = scalar_scenario(attacks=specs)
    rngs = [np.random.default_rng((sc.seed, 986243, idx)) for idx in range(len(specs))]
    want = np.zeros((sc.horizon, sc.model.p))
    for k in range(sc.horizon):
        a = np.zeros(sc.model.p)
        for spec, rng in zip(specs, rngs):
            a[spec.sensor - 1] += spec.value(k, sc.dt, rng)
        want[k] = a
    draws = np.random.default_rng((sc.seed, 986243, 0))
    rand = [specs[0].value(k, sc.dt, draws) for k in range(sc.horizon)]
    assert np.any(want[50:70, 1] != np.add(rand[50:70], 0.1 + 0.2))  # the order shows
    tr = simulate(sc)
    assert tr.a.tobytes() == want.tobytes()
    assert np.count_nonzero(tr.a[:, [0, 2]]) == 0 and np.count_nonzero(tr.a[:, 1]) == 110


def test_simulate_zero_scenario_all_zero():
    model = SystemModel(A=[[0.9]], B=[[1.0]], C=[[1.0], [1.0], [1.0]],
                        d_max=0.0, n_max=0.0)
    sc = Scenario(model=model, horizon=50, q=1, r=1,
                  observer=ObserverConfig(mode="radius", radius=0.5, x0_max=1.0))
    tr = simulate(sc)
    assert not np.any(tr.x)
    assert not np.any(tr.x_hat)
    assert not np.any(tr.ybar)
    assert np.all(tr.branch == 0)


def test_simulate_deterministic():
    sc = scalar_scenario(attacks=(
        AttackSpec(3, 10, None, {"kind": "constant", "value": 1.0}),))
    a = simulate(sc)
    b = simulate(sc)
    assert np.array_equal(a.x_hat, b.x_hat)
    assert np.array_equal(a.ybar, b.ybar)
    assert np.array_equal(a.bound, b.bound)


def test_simulate_seed_changes_noise_not_conformance():
    sc = scalar_scenario()
    a = simulate(sc)
    b = simulate(dataclasses.replace(sc, seed=99))
    assert not np.array_equal(a.ybar, b.ybar)
    for tr in (a, b):
        assert np.all(tr.estimation_errors() <= tr.bound)


def test_simulate_rejects_sparsity_violation():
    sc_kwargs = dict(attacks=(
        AttackSpec(2, 10, None, {"kind": "constant", "value": 1.0}),
        AttackSpec(3, 30, None, {"kind": "constant", "value": 1.0}),
    ))
    with pytest.raises(ScenarioValidationError, match="sparsity"):
        simulate(scalar_scenario(**sc_kwargs))


def test_simulate_rejects_insufficient_redundancy():
    model = SystemModel(A=[[0.95]], B=[[0.0]], C=[[1.0], [1.0], [0.0]],
                        d_max=0.001, n_max=0.001)
    sc = Scenario(model=model, horizon=10, q=1, r=1,
                  observer=ObserverConfig(mode="radius", radius=0.5, x0_max=1.0))
    with pytest.raises(ScenarioValidationError, match="redundan"):
        sc.validate()


def test_over_budget_scenario_violates_the_redundancy_assumption():
    # q = r = 3 on the five-sensor three-inertia plant: 2q > p leaves no selection to
    # observe the state, a violated redundancy assumption, not a bad argument downstream
    sc = Scenario(model=zoh_discretize(three_inertia_model(), 0.001), horizon=3, q=3, r=3)
    with pytest.raises(ScenarioValidationError,
                       match="^redundancy assumption violated: .* not 6-redundant observable$"):
        sc.validate()


def test_simulate_rejects_attack_on_missing_sensor():
    with pytest.raises(ScenarioValidationError, match="sensor 7"):
        simulate(scalar_scenario(attacks=(
            AttackSpec(7, 0, None, {"kind": "constant", "value": 1.0}),)))


def test_simulate_rejects_x0_beyond_declared_bound():
    with pytest.raises(ScenarioValidationError, match="x0_max"):
        simulate(scalar_scenario(x0=np.array([5.0])))


def test_simulate_certifies_the_decoder_once(monkeypatch, inertia_chain):
    # a chain_search set-up (p = 9, q = 2, r = 4): validate computes the constants once, and
    # their rho scans at sizes p - 2q and p - q decide the redundancy assumption; no index
    # scan runs, and each sensor's staircase is built once for Z' and once for its observer
    calls = {"fresh": 0, "scan": [], "quotient_basis": 0}
    fresh, scan = DecoderState.fresh.__func__, analysis._selection_scan
    quotient_basis = analysis.quotient_basis

    def spy_fresh(cls, *args, **kwargs):
        calls["fresh"] += 1
        return fresh(cls, *args, **kwargs)

    def spy_scan(phi, size, eps_rel):
        calls["scan"].append(size)
        return scan(phi, size, eps_rel)

    def spy_quotient_basis(A, c):
        calls["quotient_basis"] += 1
        return quotient_basis(A, c)

    monkeypatch.setattr(DecoderState, "fresh", classmethod(spy_fresh))
    monkeypatch.setattr(analysis, "_selection_scan", spy_scan)
    monkeypatch.setattr(analysis, "quotient_basis", spy_quotient_basis)
    monkeypatch.setattr("resilest.observers.quotient_basis", spy_quotient_basis)
    model = inertia_chain(5, 0.01)
    x0 = np.zeros(model.n)
    x0[0] = 0.5
    simulate(Scenario(model=model, horizon=3, q=2, r=4, x0=x0, dt=0.01, recert_every=10,
                      observer=ObserverConfig(mode="contract", factor=0.98, x0_max=1.0)))
    assert calls == {"fresh": 1, "scan": [5, 7], "quotient_basis": 2 * model.p}


def test_validate_names_the_redundancy_order_that_fails(monkeypatch):
    # every 2-selection of this coding matrix is full rank, so the pair is 4-redundant
    # observable, yet a 4-selection is deficient: the constants fail at size p - q, so the
    # pair is not 2-redundant observable
    phi = repeated_subspace_matrix(1494, 2, 6, "near")
    monkeypatch.setattr(plant, "coding_matrix", lambda model: phi)
    model = SystemModel(A=0.5 * np.eye(2), B=np.ones((2, 1)), C=np.ones((6, 2)),
                        d_max=0.001, n_max=0.001)
    sc = Scenario(model=model, horizon=1, q=2, r=2)
    with pytest.raises(ScenarioValidationError,
                       match="^redundancy assumption violated: .* not 2-redundant observable$"
                       ) as info:
        sc.validate()
    assert info.value.__cause__.redundancy == 2


def test_simulate_rejects_a_blind_sensor_as_insufficient_redundancy():
    # the zero output row fails the redundancy assumption before any observer is designed,
    # not in kalman_decompose as a sensor that observes nothing
    model = SystemModel(A=[[0.95]], B=[[0.0]], C=[[1.0], [1.0], [0.0]],
                        d_max=0.001, n_max=0.001)
    sc = Scenario(model=model, horizon=10, q=1, r=1,
                  observer=ObserverConfig(mode="radius", radius=0.5, x0_max=1.0))
    with pytest.raises(ScenarioValidationError,
                       match="^redundancy assumption violated: .* not 2-redundant observable$"
                       ) as info:
        simulate(sc)
    assert isinstance(info.value.__cause__, CorrectabilityError)


def test_x0_beyond_its_bound_is_rejected_before_the_constants(monkeypatch):
    # on a model the constants would reject too: the cheap check comes first
    calls = []
    monkeypatch.setattr("resilest.estimator.robustness_constants",
                        lambda *args: calls.append(args))
    sc = scalar_scenario(model=SystemModel(A=[[0.95]], B=[[0.0]], C=[[1.0], [1.0], [0.0]]),
                         x0=np.array([5.0]))
    with pytest.raises(ScenarioValidationError, match="x0_max"):
        sc.validate()
    assert calls == []


def dense_sensor_model(p):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    return SystemModel(A=A, B=rng.standard_normal((4, 1)), C=rng.standard_normal((p, 4)),
                       d_max=0.001, n_max=0.001)


def test_scenario_takes_at_most_the_sensors_the_trusted_set_mask_holds():
    # the trusted set is recorded as an int64 bit mask: 63 sensors fill it, and a 64th would
    # overflow it only after the whole set-up, so the scenario refuses it up front
    trace = simulate(Scenario(model=dense_sensor_model(63), horizon=3, q=1, r=1))
    assert trace.lam_mask.tolist() == [2**63 - 1] * 3
    with pytest.raises(ScenarioValidationError, match="at most 63 sensors, got p=64"):
        Scenario(model=dense_sensor_model(64), horizon=3, q=1, r=1)


def test_simulate_bound_conformance_and_trace_consistency():
    sc = scalar_scenario(attacks=(
        AttackSpec(3, 10, None, {"kind": "constant", "value": 1.0}),))
    tr = simulate(sc)
    assert tr.horizon == sc.horizon
    assert np.all(tr.estimation_errors() <= tr.bound)
    # less the attack, each measurement lies within the noise bound of the plant output
    assert np.all(np.abs(tr.ybar - tr.a - tr.x @ sc.model.C.T) <= sc.model.n_max + 1e-12)
    fires = np.flatnonzero(tr.branch == 1)
    assert fires.size >= 1
    assert fires.min() >= 10
    # after the exclusion settles, sensor 3 is out of the trusted set
    assert tr.lam_mask[-1] == 0b011


def test_simulate_records_certified_bound_per_step():
    sc = scalar_scenario(attacks=(
        AttackSpec(3, 10, None, {"kind": "constant", "value": 1.0}),))
    tr = simulate(sc)
    observers = build_observer_bank(sc.model, sc.observer)
    kappa_c = robustness_constants(coding_matrix(sc.model), sc.q, sc.r).kappa_c
    bounds = compute_error_bounds(observers, sc.model.d_max, sc.model.n_max, sc.observer.x0_max)
    assert tr.bound.tolist() == [kappa_c * v_max_at(bounds, k) for k in range(sc.horizon)]


def test_trace_branch_is_f_above_q_on_demo(demo_run):
    tr = demo_run["trace"]
    assert np.array_equal(tr.branch, tr.f > demo_run["scenario"].q)
    assert np.any(tr.branch == 1)


def test_trace_branch_is_f_above_q_on_chain_search(inertia_chain):
    # the 5-inertia chain at 10 ms with q = 2, r = 4 and re-certification
    # every 10 steps, so the minimizer search runs again and again
    model = inertia_chain(5, 0.01)
    x0 = np.zeros(model.n)
    x0[0] = 0.5
    sc = Scenario(
        model=model, horizon=600, q=2, r=4, seed=1,
        attacks=(AttackSpec(1, 200, None, {"kind": "random", "lo": -50.0, "hi": 50.0}),
                 AttackSpec(6, 300, None, {"kind": "constant", "value": 50.0})),
        observer=ObserverConfig(mode="contract", factor=0.98, x0_max=1.0),
        x0=x0, dt=0.01, recert_every=10,
    )
    tr = simulate(sc)
    assert np.array_equal(tr.branch, tr.f > sc.q)
    assert np.count_nonzero(tr.branch) > 10


def test_simulate_attack_free_stays_calculator():
    tr = simulate(scalar_scenario())
    assert np.all(tr.branch == 0)
    assert np.all(tr.f <= 1)


def test_simulate_attacked_1ms_six_inertia_chain_within_bound(inertia_chain):
    model = inertia_chain(6, 0.001)
    x0 = np.zeros(model.n)
    x0[0] = 0.5
    sc = Scenario(
        model=model, horizon=1000, q=2, r=2,
        attacks=(AttackSpec(1, 100, None, {"kind": "random", "lo": -50.0, "hi": 50.0}),
                 AttackSpec(6, 200, None, {"kind": "constant", "value": 50.0})),
        observer=ObserverConfig(mode="contract", factor=0.98, x0_max=1.0),
        x0=x0, dt=0.001, recert_every=10,
    )
    tr = simulate(sc)
    assert np.any(tr.branch == 1)
    assert np.count_nonzero(tr.estimation_errors() > tr.bound) == 0


@pytest.mark.parametrize("value", [math.nan, math.inf, 1e308])
def test_simulate_isolates_nonfinite_attack(value):
    spec = copy.deepcopy(DEMO_SCENARIO)
    spec["attacks"][0]["waveform"]["value"] = value
    tr = simulate(scenario_from_dict(spec))
    errors = tr.estimation_errors()
    assert np.all(np.isfinite(errors))
    assert np.count_nonzero(errors > tr.bound) == 0
    assert not tr.lam_mask[-1] & 1  # sensor 1 untrusted at the last step


def test_validate_accepts_q3_on_the_1ms_eight_inertia_chain(inertia_chain):
    # 6-redundant observable (security index 8): the monomial route read index 6 and
    # rejected this scenario as "not 6-redundant observable"
    Scenario(model=inertia_chain(8, 0.001), horizon=1, q=3, r=3).validate()
