import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compacted
from resilest.analysis import (SystemModel, coding_matrix, is_q_error_correctable,
                               robustness_constants)
from resilest.decoding import CandidateStack, certify_estimate
from resilest.estimator import (
    DecoderState,
    EstimatorAssumptionError,
    ObserverBank,
    decoder_step,
    estimator_step,
)
from resilest.observers import (
    compute_error_bounds,
    default_poles,
    design_gain,
    kalman_decompose,
    v_max_at,
)
from resilest.plant import AttackSpec, ObserverConfig, Scenario, build_observer_bank, simulate
from resilest.stacked import CodingMatrix, IndexSet


def scalar_bank(model):
    return [design_gain(kalman_decompose(model, i), [0.5]) for i in (1, 2, 3)]


# ---------------------------------------------------------------------------
# phi assembly and padding


def test_build_phi_scalar_signs(scalar_triple):
    phi = coding_matrix(scalar_triple)
    assert phi.entries.shape == (3, 1)
    assert np.abs(phi.entries) == pytest.approx(np.ones((3, 1)))


def test_build_phi_pads_unobservable_rows():
    m = SystemModel(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)),
                    C=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    phi = coding_matrix(m)
    assert np.allclose(np.abs(phi.blocks[0]), [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert np.all(phi.blocks[1][1] == 0.0)


def test_build_phi_three_inertia_shape_and_correctability(three_inertia):
    bank = build_observer_bank(three_inertia, ObserverConfig(mode="contract", factor=0.98))
    phi = coding_matrix(three_inertia)
    assert phi.entries.shape == (30, 6)
    assert sum(o.nu for o in bank) <= 30
    assert is_q_error_correctable(phi, 1)


def test_phi_selections_span_observability_rows(three_inertia):
    # selecting any sensor subset, the padded basis rows span the same space
    # as the corresponding observability rows
    from resilest.analysis import observability_matrix

    phi = coding_matrix(three_inertia)
    g = observability_matrix(three_inertia)
    rng = np.random.default_rng(4)
    for _ in range(8):
        size = int(rng.integers(1, 6))
        lam = IndexSet.of(rng.choice(5, size=size, replace=False) + 1, 5)
        rows_phi = compacted(phi, lam)
        rows_g = compacted(g, lam)
        rank_phi = np.linalg.matrix_rank(rows_phi, tol=1e-8)
        rank_g = np.linalg.matrix_rank(rows_g, tol=1e-8)
        stacked = np.linalg.matrix_rank(np.vstack([rows_phi, rows_g]), tol=1e-8)
        assert rank_phi == rank_g == stacked


def test_pad_observer_outputs(scalar_triple):
    observers = scalar_bank(scalar_triple)
    bank = ObserverBank.stack(observers)
    y = np.array([5.0, 5.0, 12.0])
    bank.step(np.zeros(1), y)
    assert bank.z.shape == (3, 1)
    assert np.array_equal(bank.z[:, 0], [obs.L[0, 0] * v for obs, v in zip(observers, y)])


def test_pad_inserts_zeros():
    m = SystemModel(A=np.diag([1.0, 2.0]), B=[[1.0], [0.5]],
                    C=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    observers = [design_gain(kalman_decompose(m, 1), [0.5]),
                 design_gain(kalman_decompose(m, 2), [0.5]),
                 design_gain(kalman_decompose(m, 3), default_poles(2, 0.5))]
    bank = ObserverBank.stack(observers)
    rng = np.random.default_rng(5)
    first, ref = observers[0], np.zeros(1)
    for _ in range(5):
        u, y = rng.normal(size=1), rng.normal(size=3)
        bank.step(u, y)
        ref = first.F @ ref + first.Bz @ u + first.L[:, 0] * y[0]
    blocks = bank.z
    assert blocks.shape == (3, 2)
    assert blocks[0, 1] == 0.0 and blocks[1, 1] == 0.0
    assert blocks[0, 0] == pytest.approx(ref[0], rel=1e-14)


def test_stack_rejects_observer_state_beyond_padding(scalar_triple):
    observers = scalar_bank(scalar_triple)
    observers[0] = dataclasses.replace(observers[0], nu=2)
    with pytest.raises(EstimatorAssumptionError, match="padded size"):
        ObserverBank.stack(observers)


# ---------------------------------------------------------------------------
# decoder stepping


def fresh_state_and_bounds(model, bank, q=1, r=1, x0_max=1.0):
    phi = coding_matrix(model)
    state = DecoderState.fresh(phi, q, r)
    bounds = compute_error_bounds(bank, model.d_max, model.n_max, x0_max)
    return state, bounds


def test_decoder_calculator_on_clean_data(scalar_triple):
    bank = scalar_bank(scalar_triple)
    state, bounds = fresh_state_and_bounds(scalar_triple, bank)
    x_true = 4.2
    z = (state.phi.entries @ [x_true]).reshape(3, 1)
    x_hat, f = decoder_step(state, z, 5, v_max_at(bounds, 5))
    assert f == 0
    assert x_hat == pytest.approx([x_true])
    assert tuple(state.lam) == (1, 2, 3)


def test_decoder_minimizer_excludes_corrupted_sensor(scalar_triple):
    bank = scalar_bank(scalar_triple)
    state, bounds = fresh_state_and_bounds(scalar_triple, bank)
    x_true = 4.2
    z = (state.phi.entries @ [x_true] + [0.0, 0.0, 500.0]).reshape(3, 1)
    x_hat, f = decoder_step(state, z, 400, v_max_at(bounds, 400))  # observer 3 corrupted
    assert f > state.constants.q
    assert tuple(state.lam) == (1, 2)
    assert x_hat == pytest.approx([x_true], abs=1e-6)
    # next step: calculator again, corrupted sensor still excluded
    _, f2 = decoder_step(state, z, 401, v_max_at(bounds, 401))
    assert f2 == 1
    assert tuple(state.lam) == (1, 2)


def test_decoder_boundary_misfit_counts_as_trusted(scalar_triple):
    bank = scalar_bank(scalar_triple)
    state, bounds = fresh_state_and_bounds(scalar_triple, bank)
    z = np.zeros((3, 1))
    # zero data, zero misfits, threshold > 0: membership uses <=, so all stay
    _, f = decoder_step(state, z, 0, v_max_at(bounds, 0))
    assert f == 0
    assert tuple(state.lam) == (1, 2, 3)
    # and with the threshold exactly zero (v_max = 0), misfit 0 still counts
    # as trusted because the violation comparison is strict
    state2 = DecoderState.fresh(state.phi, 1, 1, constants=state.constants)
    _, f2 = decoder_step(state2, z, 0, 0.0)
    assert f2 == 0
    assert tuple(state2.lam) == (1, 2, 3)


def test_estimator_step_equals_manual_composition(scalar_triple):
    observers = scalar_bank(scalar_triple)
    state_a, bounds = fresh_state_and_bounds(scalar_triple, observers)
    state_b, _ = fresh_state_and_bounds(scalar_triple, observers)

    rng = np.random.default_rng(2)
    u = rng.normal(size=1)
    y = rng.normal(size=3)

    x_a, f_a = estimator_step(ObserverBank.stack(observers), state_a, u, y, 7, v_max_at(bounds, 8))

    # per-sensor recursion F z + Bz u + L y from the zero state
    z = [obs.Bz @ u + obs.L[:, 0] * y[i] for i, obs in enumerate(observers)]
    x_b, f_b = decoder_step(state_b, np.array(z), 8, v_max_at(bounds, 8))

    assert x_a == pytest.approx(x_b)
    assert f_a == f_b
    assert state_a.lam == state_b.lam


def test_estimator_step_zero_everything(scalar_triple):
    observers = scalar_bank(scalar_triple)
    state, bounds = fresh_state_and_bounds(scalar_triple, observers)
    bank = ObserverBank.stack(observers)
    for k in range(5):
        x_hat, f = estimator_step(bank, state, np.zeros(1), np.zeros(3), k, v_max_at(bounds, k + 1))
        assert x_hat == pytest.approx([0.0])
        assert f <= state.constants.q


@pytest.mark.parametrize(("u", "y"), [
    (np.zeros(1), np.array([5.0])),
    (np.zeros(1), np.zeros(4)),
    (np.zeros(1), np.zeros((3, 1))),
    (np.zeros((1, 1)), np.zeros(3)),
    (np.zeros(2), np.zeros(3)),
])
def test_bank_step_rejects_input_or_measurement_of_wrong_shape(scalar_triple, u, y):
    bank = ObserverBank.stack(scalar_bank(scalar_triple))
    with pytest.raises(ValueError, match="shape"):
        bank.step(u, y)
    assert not np.any(bank.z)


def test_recertification_readmits_sensors(scalar_triple):
    bank = scalar_bank(scalar_triple)
    phi = coding_matrix(scalar_triple)
    state = DecoderState.fresh(phi, 1, 1, recert_every=10)
    bounds = compute_error_bounds(bank, 0.001, 0.001, 1.0)
    state.lam = IndexSet.of([1, 2], 3)
    decoder_step(state, np.zeros((3, 1)), 10, v_max_at(bounds, 10))
    assert tuple(state.lam) == (1, 2, 3)
    # estimator_step at k decodes step k + 1, so k = 9 is the step that readmits
    state.lam = IndexSet.of([1, 2], 3)
    estimator_step(ObserverBank.stack(bank), state, np.zeros(1), np.zeros(3), 8, v_max_at(bounds, 9))
    assert tuple(state.lam) == (1, 2)
    estimator_step(ObserverBank.stack(bank), state, np.zeros(1), np.zeros(3), 9, v_max_at(bounds, 10))
    assert tuple(state.lam) == (1, 2, 3)


# ---------------------------------------------------------------------------
# fused bank against the per-sensor recursion


def random_mixed_bank(seed):
    """Designed observers of a random model whose sensors see 1..n modes."""
    rng = np.random.default_rng(seed)
    n, p, m = int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 3))
    eig = 0.3 + 0.15 * np.arange(n) + rng.uniform(0, 0.05, size=n)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    M = np.sign(rng.normal(size=(p, n))) * rng.uniform(0.5, 1.5, size=(p, n))
    for row in M:
        row[rng.choice(n, size=int(rng.integers(0, n)), replace=False)] = 0.0
    model = SystemModel(A=Q @ np.diag(eig) @ Q.T, B=rng.normal(size=(n, m)), C=M @ Q.T)
    observers = [kalman_decompose(model, i) for i in range(1, p + 1)]
    return rng, [design_gain(obs, default_poles(obs.nu, 0.5)) for obs in observers]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       bad=st.sampled_from([np.nan, np.inf, -np.inf, 1e308]))
def test_fused_bank_matches_per_sensor_recursion(seed, bad):
    rng, observers = random_mixed_bank(seed)
    p, m = len(observers), observers[0].Bz.shape[1]
    bank = ObserverBank.stack(observers)
    ref = [np.zeros(obs.nu) for obs in observers]
    hit = int(rng.integers(0, p))
    for k in range(12):
        u, y = rng.normal(size=m), rng.normal(size=p)
        if k >= 6:
            y[hit] = bad
        bank.step(u, y)
        with np.errstate(over="ignore", invalid="ignore"):  # the per-sensor oracle's own bad block
            ref = [obs.F @ z + obs.Bz @ u + obs.L[:, 0] * y[i]
                   for i, (obs, z) in enumerate(zip(observers, ref))]
        for i, obs in enumerate(observers):
            if k >= 6 and i == hit:
                continue
            assert np.all(np.isfinite(bank.z[i]))
            assert np.all(bank.z[i, obs.nu:] == 0.0)
            np.testing.assert_allclose(bank.z[i, : obs.nu], ref[i], rtol=1e-12, atol=1e-12)


def test_two_attacked_sensors_raise_typed_error(monkeypatch):
    model = SystemModel(A=[[0.95]], B=[[0.0]], C=[[1.0], [1.0], [1.0]],
                        d_max=0.001, n_max=0.001)
    sc = Scenario(model=model, horizon=120, q=1, r=1, seed=3,
                  observer=ObserverConfig(mode="radius", radius=0.5, x0_max=1.0),
                  attacks=(AttackSpec(2, 10, None, {"kind": "constant", "value": 5.0}),
                           AttackSpec(3, 10, None, {"kind": "constant", "value": -7.0})))
    # the sparsity check reads no attack, so both attacks reach the estimator
    monkeypatch.setattr(Scenario, "attacked_sensors", lambda self: set())
    assert isinstance(sc.validate(), DecoderState)
    with pytest.raises(EstimatorAssumptionError, match="p - q"):
        simulate(sc)


# ---------------------------------------------------------------------------
# the minimizer's first-fit search


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       bad=st.sampled_from([np.nan, np.inf, -np.inf, 1e300, 1e6]))
def test_first_fit_estimate_is_certified(seed, bad):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 3))
    n, p = int(rng.integers(1, 4)), int(rng.integers(2 * q + 1, 2 * q + 5))
    r = int(rng.integers(q, 2 * q + 1))
    phi = CodingMatrix(rng.normal(size=(n * p, n)), n, p)  # correctable almost surely
    state = DecoderState.fresh(phi, q, r, constants=robustness_constants(phi, q, r))
    x, v_max = rng.normal(size=n), 1e-3
    v = rng.normal(size=(p, n))
    v *= v_max * rng.uniform(0, 1, size=(p, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    z = phi.blocks @ x + v
    attacked = rng.choice(p, size=int(rng.integers(1, q + 1)), replace=False)
    z[attacked] = bad * rng.choice([-1.0, 1.0], size=(len(attacked), n))
    # every sensor starts trusted, so the calculator reads the corrupted blocks, and on
    # these draws more than q of its misfits violate: the search runs
    x_hat, f = decoder_step(state, z, 1, v_max)
    assert f > q
    with np.errstate(over="ignore", invalid="ignore"):  # the corrupted blocks' misfits
        certified, count = certify_estimate(phi, z, x_hat, q, r, v_max, state.constants)
    assert certified and count <= q
    assert len(state.lam) >= p - q
    assert np.linalg.norm(x_hat - x) <= state.constants.kappa_c * v_max


def test_fifteen_sensor_chain_searches_without_the_candidate_stack(monkeypatch, inertia_chain):
    # the 10 ms eight-inertia chain: C(15, 11) = 1365 candidates, whose stacked operators
    # alone take 30.75 MB; the first-fit search solves only the few it tries
    builds, states = [], []
    monkeypatch.setattr(CandidateStack, "build", classmethod(lambda cls, *a: builds.append(a)))
    fresh = DecoderState.fresh
    monkeypatch.setattr(DecoderState, "fresh", lambda *a, **kw: states.append(fresh(*a, **kw))
                        or states[-1])
    model = inertia_chain(8, 0.01)
    x0 = np.random.default_rng(8).standard_normal(model.n)
    sc = Scenario(model=model, horizon=600, q=2, r=4, seed=8, dt=0.01, recert_every=10,
                  x0=x0 * 0.5 / np.linalg.norm(x0),
                  observer=ObserverConfig(mode="contract", factor=0.98, x0_max=1.0),
                  attacks=(AttackSpec(1, 200, None, {"kind": "random", "lo": -50.0, "hi": 50.0}),
                           AttackSpec(6, 500, None, {"kind": "constant", "value": 50.0})))
    tracemalloc.start()
    try:
        trace = simulate(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(trace.estimation_errors() > trace.bound) == 0
    assert np.any(trace.branch == 1)
    assert peak < 8e6  # 121 MB with every candidate solved at the first search
    (state,) = states
    assert sum(members.nbytes + lsq.nbytes for members, lsq in state.operators.values()) < 3e6
    assert builds == []
