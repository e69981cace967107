import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from resilest import observers
from resilest._linalg import DEFAULT_EPS_REL
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
    nu = int(np.count_nonzero(s > max(g.shape) * s[0] * DEFAULT_EPS_REL))
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


@pytest.mark.parametrize("plant", ["demo", "chain5", "chain8"])
def test_design_gain_matches_place_poles_on_distinct_poles(plant, three_inertia, inertia_chain):
    from scipy.signal import place_poles

    from resilest.plant import ObserverConfig, build_observer_bank

    m = three_inertia if plant == "demo" else inertia_chain(int(plant[5:]), 0.01)
    config = ObserverConfig(mode="contract", factor=0.98)
    for obs in build_observer_bank(m, config):
        reference = place_poles(obs.S.T, obs.t.T, config.poles_for(obs)).gain_matrix.T
        assert np.linalg.norm(obs.L - reference) <= 1e-9 * np.linalg.norm(reference)


@pytest.mark.parametrize("N", [14, 16])
def test_design_gain_every_sensor_of_the_10ms_long_chains(N, inertia_chain):
    from resilest.plant import ObserverConfig, build_observer_bank

    # design_gain refuses any sensor whose eigenvalues miss POLE_MATCH_TOL
    bank = build_observer_bank(inertia_chain(N, 0.01), ObserverConfig(mode="contract", factor=0.98))
    assert len(bank) == 2 * N - 1


def test_design_gain_rejects_a_pair_outside_staircase_form():
    staircase = PartialObserver(sensor_index=1, nu=3, Z=np.eye(3), S=np.tril(np.ones((3, 3)), 1),
                                t=np.eye(1, 3), Bz=np.zeros((3, 1)))
    assert design_gain(staircase, [0.1, 0.2, 0.3]).gain_designed
    for pair in (replace(staircase, S=np.ones((3, 3))), replace(staircase, t=np.ones((1, 3)))):
        with pytest.raises(ValueError, match="sensor 1: pair .* not in staircase form"):
            design_gain(pair, [0.1, 0.2, 0.3])


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


def test_design_gain_turns_a_singular_solve_into_the_placement_error():
    # S = I / 2 with t = e_1' is unobservable: the superdiagonal of S is zero, so the
    # Hessenberg gain has no finite value
    obs = PartialObserver(sensor_index=3, nu=2, Z=np.eye(2), S=0.5 * np.eye(2),
                          t=np.array([[1.0, 0.0]]), Bz=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="pole placement failed for sensor 3: .* inf"):
        design_gain(obs, default_poles(2))


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_design_gain_turns_a_product_outside_the_float_range_into_the_placement_error(scale):
    # t_1 S[0, 1] over- or underflows, with no numpy warning on the way
    obs = PartialObserver(sensor_index=2, nu=2, Z=np.eye(2), S=np.array([[0.5, scale], [0.1, 0.5]]),
                          t=np.array([[scale, 0.0]]), Bz=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="pole placement failed for sensor 2: .* inf"):
        design_gain(obs, default_poles(2))


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
            assert np.linalg.norm(Fk @ obs.Z.T, 2) <= params.mu_f * params.beta**k * (1 + 1e-12)
            Fk = Fk @ obs.F


def reference_error_bounds(bank, d_max, n_max, x0_max):
    """Power-at-a-time loop: one 2-norm call each for F^k, F^k L and F^k Z'.

    Stops at the first k >= 1 with norm(F^k) < beta^k.  Returns the envelope,
    per sensor the number of powers visited, and the maximum of
    ``norm(F^k Z') / beta^k``, an independent check of ``mu_f``.
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
            if k >= 1 and norm_fk / bk < 1.0:
                break
            if k >= observers._POWER_CAP:
                raise RuntimeError("observer powering did not settle; beta too close to 1")
            Fk = Fk @ obs.F
            bk *= beta
            k += 1
        visited.append(k + 1)
    w_max = (mu_l * n_max + mu_f * d_max) / (1.0 - beta)
    params = ErrorBoundParams(mu_f=mu_f, beta=beta, mu_l=mu_l, w_max=w_max, x0_max=x0_max)
    return params, visited, mu_z


def stable_observer(rng, nu, radius, n):
    """Designed-looking observer with a random F of the given spectral radius."""
    F = rng.normal(size=(nu, nu))
    sr = float(np.max(np.abs(np.linalg.eigvals(F))))
    F = F * (radius / sr) if sr > 0 else F * 0.0
    Z = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :nu]
    return PartialObserver(sensor_index=1, nu=nu, Z=Z,
                           S=F.copy(), t=np.ones((1, nu)), Bz=np.zeros((nu, 1)),
                           L=rng.normal(size=(nu, 1)), F=F)


def jordan_observer(a, stop):
    """2x2 observer ``F = [[a, c], [0, a]]`` whose ratio ``norm(F^k) / beta^k`` first
    drops below one at ``k = stop``.

    ``norm(F^k) = a^k g(k c / a)`` with ``g(x) = exp(asinh(x / 2))`` and ``beta = (a + 1) / 2``;
    the log-ratio is concave in k, so c puts its one downward crossing at ``stop - 1/2``.
    """
    beta = (a + 1.0) / 2.0
    half = stop - 0.5
    c = a * 2.0 * math.sinh(-half * math.log(a / beta)) / half
    F = np.array([[a, c], [0.0, a]])
    return PartialObserver(sensor_index=1, nu=2, Z=np.eye(3)[:, :2],
                           S=F.copy(), t=np.ones((1, 2)), Bz=np.zeros((2, 1)),
                           L=np.array([[0.5], [-0.25]]), F=F)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), sensors=st.integers(1, 6))
def test_batched_envelope_equals_power_loop(seed, sensors):
    # up to six sensors drawn from at most three orders, so most banks power a group in lockstep
    rng = np.random.default_rng(seed)
    orders = rng.integers(1, 9, size=3)
    bank = [replace(stable_observer(rng, int(rng.choice(orders)), float(rng.uniform(0.0, 0.99)),
                                    n=int(rng.integers(8, 11))), sensor_index=i)
            for i in range(1, sensors + 1)]
    want, _, mu_z = reference_error_bounds(bank, 0.003, 0.002, 1.5)
    assert compute_error_bounds(bank, 0.003, 0.002, 1.5) == want
    assert mu_z == pytest.approx(want.mu_f, rel=1e-12)


def rotated(obs, rng):
    """The observer in another orthonormal basis: the same norms of every ``F^k`` and
    ``F^k L`` in exact arithmetic, rounded differently."""
    Q = np.linalg.qr(rng.normal(size=(obs.nu, obs.nu)))[0]
    F = Q @ obs.F @ Q.T
    return replace(obs, sensor_index=2, Z=obs.Z @ Q.T, S=F.copy(), L=Q @ obs.L, F=F)


def hard_bank(case, rng, inertia_chain):
    if case == "scaled_orthogonal":  # every singular value a^k: the Frobenius bound is sqrt(nu) loose
        F = 0.999 * np.linalg.qr(rng.normal(size=(8, 8)))[0]
        obs = stable_observer(rng, 8, 0.5, 10)
        return [replace(obs, S=F.copy(), F=F)]
    if case == "nilpotent":  # F^k = 0 from k = nu on
        F = np.triu(rng.normal(size=(6, 6)) * 5.0, 1)
        obs = stable_observer(rng, 6, 0.5, 10)
        return [replace(obs, S=F.copy(), F=F)]
    if case == "nu_1":
        return [stable_observer(rng, 1, 0.999, 4), stable_observer(rng, 1, 0.3, 4)]
    if case == "frobenius_overflow":  # finite powers whose squares overflow for ~1,150 powers
        obs = jordan_observer(0.5, 10)
        F = np.array([[0.5, 1e200], [0.0, 0.5]])
        return [replace(obs, S=F.copy(), F=F)]
    if case == "overflow_beside_finite":  # one order group: one sensor's squares overflow
        F = np.array([[0.5, 1e200], [0.0, 0.5]])
        obs = jordan_observer(0.99, 300)
        return [replace(obs, S=F.copy(), F=F), replace(obs, sensor_index=2)]
    if case == "tied_maxima":  # the same observer twice, and once rotated
        obs = jordan_observer(0.99, 300)
        return [obs, replace(obs, sensor_index=2), rotated(obs, rng)]
    if case == "staggered_stops":  # one order, stops five lockstep chunks apart, distinct gains
        late = jordan_observer(0.99, 700)
        return [jordan_observer(0.99, 100), replace(late, sensor_index=2, L=4.0 * late.L)]
    from resilest.plant import ObserverConfig, build_observer_bank

    return build_observer_bank(inertia_chain(5, 0.01), ObserverConfig(mode="contract", factor=0.98))


@pytest.mark.parametrize("case", ["scaled_orthogonal", "nilpotent", "nu_1", "frobenius_overflow",
                                  "overflow_beside_finite", "tied_maxima", "staggered_stops",
                                  "chain_search"])
def test_norm_bounds_equal_power_loop_on_hard_inputs(case, inertia_chain):
    bank = hard_bank(case, np.random.default_rng(7), inertia_chain)
    want, _, _ = reference_error_bounds(bank, 0.003, 0.002, 1.5)
    assert compute_error_bounds(bank, 0.003, 0.002, 1.5) == want


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(2, 8))
def test_ratio_stop_covers_later_powers_of_non_normal_F(seed, nu):
    # a strongly non-normal F: its norm ratio grows far above one before it decays
    rng = np.random.default_rng(seed)
    F = np.diag(rng.uniform(-1.0, 1.0, nu)) + np.triu(rng.normal(size=(nu, nu)) * 5.0, 1)
    F *= float(rng.uniform(0.3, 0.95)) / float(np.max(np.abs(np.diag(F))))
    obs = PartialObserver(sensor_index=1, nu=nu, Z=np.linalg.qr(rng.normal(size=(9, 9)))[0][:, :nu],
                          S=F.copy(), t=np.ones((1, nu)), Bz=np.zeros((nu, 1)),
                          L=rng.normal(size=(nu, 1)), F=F)
    params = compute_error_bounds([obs], 0.0, 0.0, 1.0)
    _, (visited,), _ = reference_error_bounds([obs], 0.0, 0.0, 1.0)
    Fk = np.eye(nu)
    for k in range(3 * (visited - 1) + 1):
        scale = params.beta**k * (1 + 1e-12)
        assert np.linalg.norm(Fk, 2) <= params.mu_f * scale
        assert np.linalg.norm(Fk @ obs.L, 2) <= params.mu_l * scale
        Fk = Fk @ F


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_batched_envelope_stop_on_chunk_boundary(offset):
    target = observers._POWER_CHUNK + offset
    obs = jordan_observer(0.99, target)
    want, visited, _ = reference_error_bounds([obs], 0.001, 0.001, 1.0)
    assert visited == [target + 1]
    assert compute_error_bounds([obs], 0.001, 0.001, 1.0) == want


# the second observer stops exactly at k = 2 * _POWER_CHUNK, so the cap lands on a chunk boundary
@pytest.mark.parametrize("stop", [10, 2 * observers._POWER_CHUNK])
def test_batched_envelope_power_cap_raises_at_same_stop(monkeypatch, stop):
    obs = jordan_observer(0.99, stop)
    _, (visited,), _ = reference_error_bounds([obs], 0.0, 0.0, 1.0)
    assert visited == stop + 1
    monkeypatch.setattr(observers, "_POWER_CAP", visited - 1)  # the last power checked
    want, _, _ = reference_error_bounds([obs], 0.0, 0.0, 1.0)
    assert compute_error_bounds([obs], 0.0, 0.0, 1.0) == want
    monkeypatch.setattr(observers, "_POWER_CAP", visited - 2)
    with pytest.raises(RuntimeError):
        reference_error_bounds([obs], 0.0, 0.0, 1.0)
    with pytest.raises(RuntimeError):
        compute_error_bounds([obs], 0.0, 0.0, 1.0)


def test_envelope_power_cap_names_the_unsettled_member_of_a_group(monkeypatch):
    # one order group of two: sensor 1 settles at k = 10, sensor 2 needs k = 300
    bank = [jordan_observer(0.99, 10), replace(jordan_observer(0.99, 300), sensor_index=2)]
    monkeypatch.setattr(observers, "_POWER_CAP", 300)  # the last power sensor 2 checks
    want, visited, _ = reference_error_bounds(bank, 0.0, 0.0, 1.0)
    assert visited == [11, 301]
    assert compute_error_bounds(bank, 0.0, 0.0, 1.0) == want
    monkeypatch.setattr(observers, "_POWER_CAP", 299)
    with pytest.raises(RuntimeError):
        reference_error_bounds(bank, 0.0, 0.0, 1.0)
    with pytest.raises(observers.EnvelopeError, match="^sensor 2: .* within 299 powers"):
        compute_error_bounds(bank, 0.0, 0.0, 1.0)


def test_twelve_inertia_chain_envelope_equals_power_loop_in_little_memory(inertia_chain):
    from resilest.plant import ObserverConfig, build_observer_bank

    # the 10 ms twelve-inertia chain: 23 sensors in six order groups, nu = 12 to 24
    model = inertia_chain(12, 0.01)
    bank = build_observer_bank(model, ObserverConfig(mode="contract", factor=0.98))
    assert sorted({obs.nu for obs in bank}) == [12, 16, 18, 20, 22, 24]
    want, _, _ = reference_error_bounds(bank, 0.001, 0.001, 1.0)
    tracemalloc.start()
    try:
        got = compute_error_bounds(bank, 0.001, 0.001, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 3e6  # 256 powers of each of the eight nu = 24 sensors per chunk: 17.5 MB


def test_error_bounds_reject_non_orthonormal_basis():
    obs = designed_scalar_observer()
    obs.Z = 2.0 * np.eye(1)
    with pytest.raises(ValueError, match="sensor 1: quotient basis Z is not orthonormal"):
        compute_error_bounds([obs], 0.001, 0.001, 1.0)


def test_envelope_takes_the_svd_of_few_powers(three_inertia, monkeypatch):
    from resilest.plant import ObserverConfig, build_observer_bank

    bank = build_observer_bank(three_inertia, ObserverConfig(mode="contract", factor=0.98))
    want, visited, _ = reference_error_bounds(bank, 0.001, 0.001, 1.0)
    matrices = []

    def spy(decomposition):
        def counted(*args, **kwargs):
            matrices.append(math.prod(args[0].shape[:-2]))
            return decomposition(*args, **kwargs)
        return counted

    monkeypatch.setattr(observers.np.linalg, "svd", spy(np.linalg.svd))
    monkeypatch.setattr(observers.np.linalg, "eigh", spy(np.linalg.eigh))
    assert compute_error_bounds(bank, 0.001, 0.001, 1.0) == want
    # a batched SVD of every power of every chunk, of every F^k L up to the stop, and of
    # each basis check would norm 8,824 matrices on this bank; the SVDs and the eigh calls
    # for the bounds' singular vectors count alike
    chunks = sum(math.ceil(v / observers._POWER_CHUNK) for v in visited)
    every = chunks * observers._POWER_CHUNK + sum(visited) + len(bank)
    assert every == 8824
    assert sum(matrices) <= 0.05 * every


@pytest.mark.parametrize("size", [1.0, 1e150])
def test_ratio_bounds_read_the_top_singular_vector(size):
    # the top eigenvector of M'M gives the top matrix of each column a lower bound as tight as
    # the SVD's own vector, also at 1e150, where M'M holds entries near 1e300
    mats = size * np.random.default_rng(3).standard_normal((2, 3, 4, 4))
    lo, hi = observers._ratio_bounds(mats, np.ones(2))
    exact = np.linalg.norm(mats, 2, axis=(2, 3))
    assert np.isfinite(lo).all() and (lo <= exact).all() and (exact <= hi).all()
    top = np.argmax(np.linalg.norm(mats, axis=(2, 3)), axis=0)
    assert lo[top, range(3)] == pytest.approx(exact[top, range(3)], rel=1e-12, abs=0.0)


def test_three_inertia_bounds_regression(three_inertia):
    from resilest.plant import ObserverConfig, build_observer_bank

    bank = build_observer_bank(three_inertia, ObserverConfig(mode="contract", factor=0.98))
    params = compute_error_bounds(bank, 0.001, 0.001, 1.0)
    assert params.beta == pytest.approx(0.9900000000026655, rel=1e-9)
    assert params.mu_f == pytest.approx(239.3445989889731, rel=1e-6)
    assert params.mu_l == pytest.approx(12.024521068456961, rel=1e-6)
    assert params.w_max == pytest.approx(25.136912012443307, rel=1e-6)


def test_v_max_profile():
    params = ErrorBoundParams(mu_f=1.0, beta=0.75, mu_l=0.5, w_max=0.01, x0_max=1.0)
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
