import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from resilest import observers
from resilest._linalg import get_eps_rel
from resilest.analysis import SystemModel, sensor_observability_matrix
from resilest.estimator import ObserverBank
from resilest.observers import (
    ErrorBoundParams,
    PartialObserver,
    compute_error_bounds,
    contracted_poles,
    default_poles,
    design_gain,
    kalman_decompose,
    v_max_at,
)


def diag_model():
    return SystemModel(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)), C=[[1.0, 0.0]])


def partially_observable_model(rng, n, n_obs, p=1):
    """Random plant whose sensors see exactly an n_obs-dimensional quotient."""
    basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A11 = rng.normal(size=(n_obs, n_obs)) * 0.4
    A22 = rng.normal(size=(n - n_obs, n - n_obs)) * 0.4
    A21 = rng.normal(size=(n - n_obs, n_obs)) * 0.4
    A_block = np.zeros((n, n))
    A_block[:n_obs, :n_obs] = A11
    A_block[n_obs:, :n_obs] = A21
    A_block[n_obs:, n_obs:] = A22
    A = basis @ A_block @ basis.T
    C = np.zeros((p, n))
    for i in range(p):
        C[i, :n_obs] = rng.normal(size=n_obs)
    C = C @ basis.T
    return SystemModel(A=A, B=rng.normal(size=(n, 1)), C=C)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_diag_example():
    obs = kalman_decompose(diag_model(), 1)
    assert obs.nu == 1
    assert np.abs(obs.Z[:, 0]) == pytest.approx([1.0, 0.0], abs=1e-12)
    assert np.abs(null_space(obs.Z.T)[:, 0]) == pytest.approx([0.0, 1.0], abs=1e-12)
    assert float(obs.S[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(float(obs.t[0, 0])) == pytest.approx(1.0, abs=1e-12)


def test_decompose_fully_observable_has_empty_w():
    m = SystemModel(A=[[0.0, 1.0], [-0.5, 0.3]], B=np.zeros((2, 1)), C=[[1.0, 0.0]])
    obs = kalman_decompose(m, 1)
    assert obs.nu == 2
    assert null_space(obs.Z.T).shape == (2, 0)


def test_decompose_rejects_zero_row():
    m = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=[[0.0, 0.0]])
    with pytest.raises(ValueError):
        kalman_decompose(m, 1)


def test_decompose_three_inertia_difference_sensor(three_inertia):
    obs = kalman_decompose(three_inertia, 4)
    assert obs.nu == 4
    A = three_inertia.A
    W = null_space(obs.Z.T)
    assert np.abs(three_inertia.C[3] @ W).max() < 1e-10
    assert np.abs(obs.Z.T @ A @ W).max() < 1e-10


def test_decompose_structural_invariants_randomized():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        n_obs = int(rng.integers(1, n))
        m = partially_observable_model(rng, n, n_obs)
        obs = kalman_decompose(m, 1)
        assert obs.nu == n_obs
        W = null_space(obs.Z.T)
        assert np.abs(obs.Z.T @ obs.Z - np.eye(obs.nu)).max() < 1e-10
        assert np.abs(W.T @ W - np.eye(n - obs.nu)).max() < 1e-10
        assert np.abs(obs.Z.T @ W).max() < 1e-10
        assert np.abs(m.C[0] @ W).max() < 1e-10
        assert np.abs(obs.Z.T @ m.A @ W).max() < 1e-10


def test_quotient_dynamics_track_projected_state():
    rng = np.random.default_rng(14)
    m = partially_observable_model(rng, 5, 3)
    obs = kalman_decompose(m, 1)
    x = rng.normal(size=5)
    for _ in range(30):
        u = rng.normal(size=1)
        d = rng.normal(size=5) * 0.1
        z_now = obs.Z.T @ x
        x_next = m.A @ x + m.B @ u + d
        z_pred = obs.S @ z_now + obs.Z.T @ m.B @ u + obs.Z.T @ d
        assert np.abs(obs.Z.T @ x_next - z_pred).max() < 1e-10
        x = x_next


CHAIN_GRID = [(N, T_s) for T_s in (1e-4, 1e-3, 1e-2, 1e-1) for N in range(3, 9)]


@pytest.mark.parametrize("N, T_s", CHAIN_GRID)
def test_staircase_nu_equals_pbh_count_on_chains(inertia_chain, N, T_s):
    """nu is the number of modes the sensor sees: unit eigenvectors v with |c v| > 1e-8 |c|."""
    m = inertia_chain(N, T_s)
    V = np.linalg.eig(m.A)[1]
    V = V / np.linalg.norm(V, axis=0)
    for i in range(1, m.p + 1):
        c = m.C[i - 1]
        seen = int(np.count_nonzero(np.abs(c @ V) > 1e-8 * np.linalg.norm(c)))
        assert kalman_decompose(m, i).nu == seen, f"sensor {i}"


def reference_decompose(model, i):
    """The SVD route: right singular vectors of [c; cA; ...; cA^(n-1)] above the rank floor.

    Returns nu, the basis Z and the singular values.
    """
    g = sensor_observability_matrix(model.A, model.C[i - 1])
    _, s, vt = np.linalg.svd(g)
    nu = int(np.count_nonzero(s > max(g.shape) * s[0] * get_eps_rel()))
    return nu, vt[:nu].T, s


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7))
def test_staircase_matches_svd_route_on_well_conditioned_models(seed, n):
    rng = np.random.default_rng(seed)
    n_obs = int(rng.integers(1, n + 1))
    m = partially_observable_model(rng, n, n_obs)
    nu, Z, s = reference_decompose(m, 1)
    assume(s[n_obs - 1] > 1e-6 * s[0])  # the SVD route is only trusted when well conditioned
    obs = kalman_decompose(m, 1)
    assert obs.nu == nu == n_obs
    assert np.abs(obs.Z @ obs.Z.T - Z @ Z.T).max() < 1e-8


# ---------------------------------------------------------------------------
# gain design


def test_design_gain_scalar():
    m = SystemModel(A=[[1.0]], B=[[0.0]], C=[[1.0]])
    obs = kalman_decompose(m, 1)
    designed = design_gain(obs, [0.5])
    sign = float(designed.t[0, 0])  # +-1 from the SVD basis
    assert designed.L[0, 0] * sign == pytest.approx(0.5, abs=1e-12)
    assert designed.F[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_design_gain_deadbeat():
    m = SystemModel(A=[[1.0]], B=[[0.0]], C=[[1.0]])
    obs = kalman_decompose(m, 1)
    designed = design_gain(obs, [0.0])
    assert designed.F[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert abs(designed.L[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_design_gain_repeated_deadbeat_poles():
    m = SystemModel(A=[[0.0, 1.0], [-0.5, 0.3]], B=np.zeros((2, 1)), C=[[1.0, 0.0]])
    obs = kalman_decompose(m, 1)
    designed = design_gain(obs, [0.0, 0.0])
    assert np.abs(designed.F @ designed.F).max() < 1e-12


def test_design_gain_every_sensor_of_the_10ms_eight_inertia_chain(inertia_chain):
    from resilest.plant import ObserverConfig, build_observer_bank

    m = inertia_chain(8, 0.01)
    bank = build_observer_bank(m, ObserverConfig(mode="contract", factor=0.98))
    assert len(bank) == 15
    for obs in bank:
        W = null_space(obs.Z.T)
        if W.size:
            assert np.abs(m.C[obs.sensor_index - 1] @ W).max() <= 1e-10
            assert np.abs(obs.Z.T @ m.A @ W).max() <= 1e-10


def test_design_gain_random_third_order():
    rng = np.random.default_rng(15)
    poles = np.array([0.2, 0.3 + 0.1j, 0.3 - 0.1j])
    for _ in range(10):
        A = rng.normal(size=(3, 3))
        C = rng.normal(size=(1, 3))
        m = SystemModel(A=A, B=np.zeros((3, 1)), C=C)
        obs = kalman_decompose(m, 1)
        if obs.nu != 3:
            continue
        designed = design_gain(obs, poles)
        achieved = np.sort_complex(np.linalg.eigvals(designed.F))
        assert np.abs(achieved - np.sort_complex(poles)).max() < 1e-6


def test_design_gain_validates_pole_set():
    m = SystemModel(A=np.diag([0.5, 0.6]), B=np.zeros((2, 1)), C=[[1.0, 1.0]])
    obs = kalman_decompose(m, 1)
    with pytest.raises(ValueError):
        design_gain(obs, [0.5])  # wrong count
    with pytest.raises(ValueError):
        design_gain(obs, [1.2, 0.1])  # outside unit circle
    with pytest.raises(ValueError):
        design_gain(obs, [0.1 + 0.2j, 0.3])  # not conjugate-closed


def test_default_poles_structure():
    poles = default_poles(5, 0.5)
    assert poles.size == 5
    assert np.abs(np.abs(poles) - 0.5).max() < 1e-12
    assert np.abs(np.sort_complex(poles) - np.sort_complex(poles.conj())).max() < 1e-12


def test_contracted_poles_shrink_spectrum():
    m = diag_model()
    obs = kalman_decompose(m, 1)
    poles = contracted_poles(obs, 0.9)
    assert poles == pytest.approx([0.9])


# ---------------------------------------------------------------------------
# stepping and error bounds


def designed_scalar_observer():
    m = SystemModel(A=[[1.0]], B=[[0.002]], C=[[2.0]])
    obs = kalman_decompose(m, 1)
    return design_gain(obs, [0.5])


def test_observer_step_zero_fixed_point():
    bank = ObserverBank.stack([designed_scalar_observer()])
    bank.step(np.zeros(1), np.zeros(1))
    assert bank.z[0] == pytest.approx([0.0])


def test_observer_step_arithmetic():
    obs = designed_scalar_observer()
    obs.F = np.array([[0.5]])
    obs.Bz = np.array([[0.001]])
    obs.L = np.array([[0.5]])
    bank = ObserverBank.stack([obs])
    bank.z = np.array([[2.0]])
    bank.step(np.array([1.0]), np.array([3.0]))
    assert bank.z[0] == pytest.approx([2.501])


def test_error_bounds_scalar_halving():
    obs = designed_scalar_observer()
    obs.F = np.array([[0.5]])
    obs.L = np.array([[0.5]])
    obs.Z = np.array([[1.0]])
    params = compute_error_bounds([obs], d_max=0.002, n_max=0.004, x0_max=1.0)
    assert params.beta == pytest.approx(0.75)
    assert params.mu_f == pytest.approx(1.0)
    assert params.mu_l == pytest.approx(0.5)
    assert params.mu_z == pytest.approx(1.0)
    assert params.w_max == pytest.approx((0.5 * 0.004 + 1.0 * 0.002) / 0.25)


def test_error_bounds_deadbeat():
    m = SystemModel(A=[[1.0]], B=[[0.0]], C=[[1.0]])
    obs = design_gain(kalman_decompose(m, 1), [0.0])
    params = compute_error_bounds([obs], 0.0, 0.001, 1.0)
    assert params.mu_f == pytest.approx(1.0)
    assert params.beta == pytest.approx(0.5)


def test_error_bounds_reject_unstable():
    obs = designed_scalar_observer()
    obs.F = np.array([[1.01]])
    with pytest.raises(ValueError):
        compute_error_bounds([obs], 0.0, 0.0, 1.0)


def test_norm_envelope_holds_up_to_200_powers(three_inertia):
    from resilest.plant import ObserverConfig, build_observer_bank

    bank = build_observer_bank(three_inertia, ObserverConfig(mode="contract", factor=0.98))
    params = compute_error_bounds(bank, 0.001, 0.001, 1.0)
    for obs in bank:
        Fk = np.eye(obs.nu)
        for k in range(201):
            assert np.linalg.norm(Fk, 2) <= params.mu_f * params.beta**k * (1 + 1e-12)
            assert np.linalg.norm(Fk @ obs.L, 2) <= params.mu_l * params.beta**k * (1 + 1e-12)
            assert np.linalg.norm(Fk @ obs.Z.T, 2) <= params.mu_z * params.beta**k * (1 + 1e-12)
            Fk = Fk @ obs.F


def reference_error_bounds(bank, d_max, n_max, x0_max):
    """Power-at-a-time loop: one 2-norm call each for F^k, F^k L and F^k Z'.

    Returns the envelope and, per sensor, the number of powers visited.
    """
    sr = max(float(np.max(np.abs(np.linalg.eigvals(obs.F)))) for obs in bank)
    beta = (sr + 1.0) / 2.0
    mu_f = mu_l = mu_z = 0.0
    visited = []
    for obs in bank:
        Fk = np.eye(obs.nu)
        bk = 1.0
        k = 0
        while True:
            norm_fk = float(np.linalg.norm(Fk, 2))
            mu_f = max(mu_f, norm_fk / bk)
            mu_l = max(mu_l, float(np.linalg.norm(Fk @ obs.L, 2)) / bk)
            mu_z = max(mu_z, float(np.linalg.norm(Fk @ obs.Z.T, 2)) / bk)
            if norm_fk < observers._POWER_FLOOR and norm_fk / bk < 1.0:
                break
            if k >= observers._POWER_CAP:
                raise RuntimeError("observer powering did not settle; beta too close to 1")
            Fk = Fk @ obs.F
            bk *= beta
            k += 1
        visited.append(k + 1)
    w_max = (mu_l * n_max + mu_z * d_max) / (1.0 - beta)
    params = ErrorBoundParams(mu_f=mu_f, beta=beta, mu_l=mu_l, mu_z=mu_z,
                              w_max=w_max, x0_max=x0_max)
    return params, visited


def stable_observer(rng, nu, radius, n):
    """Designed-looking observer with a random F of the given spectral radius."""
    F = rng.normal(size=(nu, nu))
    sr = float(np.max(np.abs(np.linalg.eigvals(F))))
    F = F * (radius / sr) if sr > 0 else F * 0.0
    Z = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :nu]
    return PartialObserver(sensor_index=1, nu=nu, Z=Z,
                           S=F.copy(), t=np.ones((1, nu)), Bz=np.zeros((nu, 1)),
                           L=rng.normal(size=(nu, 1)), F=F)


def scalar_observer(f):
    return PartialObserver(sensor_index=1, nu=1, Z=np.eye(1),
                           S=np.array([[f]]), t=np.ones((1, 1)), Bz=np.zeros((1, 1)),
                           L=np.array([[0.5]]), F=np.array([[f]]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), sensors=st.integers(1, 3))
def test_batched_envelope_equals_power_loop(seed, sensors):
    rng = np.random.default_rng(seed)
    bank = [stable_observer(rng, int(rng.integers(1, 9)), float(rng.uniform(0.0, 0.99)),
                            n=int(rng.integers(8, 11)))
            for _ in range(sensors)]
    want, _ = reference_error_bounds(bank, 0.003, 0.002, 1.5)
    assert compute_error_bounds(bank, 0.003, 0.002, 1.5) == want


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_batched_envelope_stop_on_chunk_boundary(offset):
    # F = f on a scalar quotient stops at the first k with f**k < 1e-12
    target = observers._POWER_CHUNK + offset
    f = 10.0 ** (-12.0 / (target - 0.5))
    want, visited = reference_error_bounds([scalar_observer(f)], 0.001, 0.001, 1.0)
    assert visited == [target + 1]
    assert compute_error_bounds([scalar_observer(f)], 0.001, 0.001, 1.0) == want


# the second F settles exactly at k = 2 * _POWER_CHUNK, so the cap lands on a chunk boundary
@pytest.mark.parametrize("f", [0.95, 10.0 ** (-12.0 / (2 * observers._POWER_CHUNK - 0.5))])
def test_batched_envelope_power_cap_raises_at_same_k(monkeypatch, f):
    obs = scalar_observer(f)
    _, (visited,) = reference_error_bounds([obs], 0.0, 0.0, 1.0)
    monkeypatch.setattr(observers, "_POWER_CAP", visited - 1)  # the last power checked
    want, _ = reference_error_bounds([obs], 0.0, 0.0, 1.0)
    assert compute_error_bounds([obs], 0.0, 0.0, 1.0) == want
    monkeypatch.setattr(observers, "_POWER_CAP", visited - 2)
    with pytest.raises(RuntimeError):
        reference_error_bounds([obs], 0.0, 0.0, 1.0)
    with pytest.raises(RuntimeError):
        compute_error_bounds([obs], 0.0, 0.0, 1.0)


def test_envelope_takes_one_svd_per_chunk_per_norm(three_inertia, monkeypatch):
    from resilest.plant import ObserverConfig, build_observer_bank

    bank = build_observer_bank(three_inertia, ObserverConfig(mode="contract", factor=0.98))
    want, visited = reference_error_bounds(bank, 0.001, 0.001, 1.0)
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(observers.np.linalg, "svd", spy)
    assert compute_error_bounds(bank, 0.001, 0.001, 1.0) == want
    chunks = sum(math.ceil(v / observers._POWER_CHUNK) for v in visited)
    assert sum(visited) > 10 * len(calls)
    assert 0 < len(calls) <= 3 * chunks


def test_three_inertia_bounds_regression(three_inertia):
    from resilest.plant import ObserverConfig, build_observer_bank

    bank = build_observer_bank(three_inertia, ObserverConfig(mode="contract", factor=0.98))
    params = compute_error_bounds(bank, 0.001, 0.001, 1.0)
    assert params.beta == pytest.approx(0.9900000000026655, rel=1e-9)
    assert params.mu_f == pytest.approx(239.3445989889731, rel=1e-6)
    assert params.mu_l == pytest.approx(12.024521068456961, rel=1e-6)
    assert params.mu_z == pytest.approx(239.34459898897305, rel=1e-6)
    assert params.w_max == pytest.approx(25.136912012443307, rel=1e-6)


def test_v_max_profile():
    params = ErrorBoundParams(mu_f=1.0, beta=0.75, mu_l=0.5, mu_z=1.0,
                              w_max=0.01, x0_max=1.0)
    assert v_max_at(params, 0) == pytest.approx(1.01)
    assert v_max_at(params, 2) == pytest.approx(0.5725)
    assert v_max_at(params, 4000) == pytest.approx(params.w_max)
    vals = [v_max_at(params, k) for k in range(50)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_attack_free_observer_error_within_envelope():
    rng = np.random.default_rng(16)
    m = SystemModel(A=[[0.98, 0.05], [0.0, 0.9]], B=[[0.1], [0.05]],
                    C=[[1.0, 0.0]], d_max=5e-4, n_max=5e-4)
    obs = design_gain(kalman_decompose(m, 1), default_poles(2, 0.6))
    x0_max = 2.0
    params = compute_error_bounds([obs], m.d_max, m.n_max, x0_max)
    x = rng.normal(size=2)
    x *= min(1.0, x0_max / np.linalg.norm(x))
    bank = ObserverBank.stack([obs])
    for k in range(300):
        err = np.linalg.norm(bank.z[0] - obs.Z.T @ x)
        assert err <= v_max_at(params, k) + 1e-12
        u = rng.normal(size=1) * 0.1
        noise = rng.uniform(-m.n_max, m.n_max)
        d = rng.normal(size=2)
        d *= rng.uniform(0, m.d_max) / max(np.linalg.norm(d), 1e-300)
        y = float(m.C[0] @ x) + noise
        bank.step(u, np.array([y]))
        x = m.A @ x + m.B @ u + d


def test_attack_free_convergence_geometric():
    m = SystemModel(A=[[0.99, 0.08], [0.0, 0.95]], B=np.zeros((2, 1)), C=[[1.0, 0.5]])
    obs = design_gain(kalman_decompose(m, 1), default_poles(2, 0.4))
    params = compute_error_bounds([obs], 0.0, 0.0, 10.0)
    x = np.array([3.0, -2.0])
    bank = ObserverBank.stack([obs])
    errs = []
    for k in range(60):
        errs.append(np.linalg.norm(bank.z[0] - obs.Z.T @ x))
        bank.step(np.zeros(1), m.C[:1] @ x)
        x = m.A @ x
    assert errs[-1] < 1e-9
    # certified geometric envelope at rate beta
    for k in range(60):
        assert errs[k] <= params.mu_f * params.beta**k * errs[0] + 1e-12
