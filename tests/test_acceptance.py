"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS line (visible with ``pytest -s``) when it holds.

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest
from scipy.linalg import null_space

from resilest.analysis import (
    SystemModel,
    analyze,
    is_q_error_correctable,
    is_q_error_detectable,
    is_q_redundant_observable,
    security_index,
    security_index_eigenvector,
    stacked_cospark,
)
from resilest.decoding import (
    decode_noiseless,
    residual_detect_noiseless,
    residual_detect_noisy,
)
from resilest.plant import (
    AttackSpec,
    ObserverConfig,
    Scenario,
    build_observer_bank,
    simulate,
    three_inertia_model,
    zoh_discretize,
)
from resilest.stacked import CodingMatrix


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS - {criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. benchmark-plant analysis values


def test_criterion_1_benchmark_analysis():
    start = time.perf_counter()
    model = zoh_discretize(three_inertia_model(), 0.001, d_max=0.001, n_max=0.001)
    rep = analyze(model)
    redundant_2 = is_q_redundant_observable(model, 2)
    redundant_3 = is_q_redundant_observable(model, 3)
    elapsed = time.perf_counter() - start

    assert redundant_2 is True
    assert redundant_3 is False
    assert rep.security_index == 3
    assert rep.max_correctable_q == 1
    assert elapsed < 5.0, f"analysis took {elapsed:.2f}s"
    report("criterion 1",
           f"security_index=3, 2-redundant=yes, 3-redundant=no, "
           f"max_correctable_q=1 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. exact recovery over 200 random instances


def test_criterion_2_exact_recovery_200_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(220)
    instances = 0
    while instances < 200:
        n = int(rng.integers(1, 4))
        p = int(rng.integers(3, 7))
        phi_entries = rng.normal(size=(n * p, n))
        phi = CodingMatrix(phi_entries, n, p)
        q_max = (stacked_cospark(phi) - 1) // 2
        if q_max < 1:
            continue
        q = int(rng.integers(1, min(q_max, 2) + 1))
        assert is_q_error_correctable(phi, q)
        x = rng.normal(size=n) * float(rng.uniform(0.5, 10))
        bad = rng.choice(p, size=q, replace=False) + 1
        e = np.zeros(n * p)
        for b in bad:
            blk = rng.normal(size=n)
            blk *= rng.uniform(0.5, 20) / max(np.linalg.norm(blk), 1e-300)
            e[(b - 1) * n: b * n] = blk
        z = (phi.entries @ x + e).reshape(p, n)
        for r in range(q, 2 * q + 1):
            res = decode_noiseless(phi, z, q=q, r=r)
            rel = np.linalg.norm(res.estimate - x) / (1 + np.linalg.norm(x))
            assert rel <= 1e-9, (n, p, q, r, rel)
            assert tuple(res.support_estimate) == tuple(sorted(int(b) for b in bad))
        instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"recovery battery took {elapsed:.2f}s"
    report("criterion 2", f"200 instances recovered exactly (rel err <= 1e-9) "
                          f"with supports identified, in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. oracle equivalences


def _random_structured_phi(rng):
    n = int(rng.integers(1, 4))
    p = int(rng.integers(max(2, n), 7))
    entries = rng.normal(size=(n * p, n))
    style = rng.integers(0, 3)
    if style == 1:
        for i in range(p):
            if rng.random() < 0.35:
                entries[i * n:(i + 1) * n] = 0.0
    elif style == 2 and n > 1:
        entries = rng.normal(size=(n * p, n - 1)) @ rng.normal(size=(n - 1, n))
    return CodingMatrix(entries, n, p)


def test_criterion_3a_detectability_vs_cospark():
    rng = np.random.default_rng(301)
    disagreements = 0
    for _ in range(100):
        phi = _random_structured_phi(rng)
        cs = stacked_cospark(phi)
        for q in range(phi.block_count + 1):
            if is_q_error_detectable(phi, q) != (cs > q):
                disagreements += 1
    assert disagreements == 0
    report("criterion 3a", "rank detectability == (cospark > q) on 100 matrices, all q")


def test_criterion_3b_correctability_vs_double_detectability():
    rng = np.random.default_rng(302)
    disagreements = 0
    for _ in range(100):
        phi = _random_structured_phi(rng)
        cs = stacked_cospark(phi)
        for q in range(phi.block_count // 2 + 1):
            if is_q_error_correctable(phi, q) != (cs > 2 * q):
                disagreements += 1
    assert disagreements == 0
    report("criterion 3b", "correctable(q) == (cospark > 2q) on 100 matrices, all q "
                           "(independent route for detectable(2q))")


def test_criterion_3c_security_index_routes_agree():
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 4))
        p = int(rng.integers(n + 1, 7))
        eigvals = np.sort(rng.uniform(0.2, 0.95, size=n))
        if np.min(np.diff(eigvals)) < 0.05:
            continue
        basis = np.linalg.qr(rng.normal(size=(n, n)))[0] + 0.1 * rng.normal(size=(n, n))
        A = basis @ np.diag(eigvals) @ np.linalg.inv(basis)
        M = rng.normal(size=(p, n))
        M[np.abs(M) < 0.3] += 0.5
        for j in range(n):
            kill = rng.choice(p, size=rng.integers(0, p - 1), replace=False)
            M[kill, j] = 0.0
        C = M @ np.linalg.inv(basis)
        model = SystemModel(A=A, B=np.zeros((n, 1)), C=C)
        by_cospark = security_index(model, eps_rel=1e-8)
        by_eigvec = security_index_eigenvector(model, tol=1e-6)
        assert by_cospark == by_eigvec, (by_cospark, by_eigvec)
        checked += 1
    report("criterion 3c", "cospark and eigenvector security indices agree on "
                           "50 distinct-spectrum systems")


# ---------------------------------------------------------------------------
# 4. estimation error bound conformance


def _scalar_scenario(rng, seed):
    model = SystemModel(A=[[0.95]], B=[[0.0]], C=[[1.0], [1.0], [1.0]],
                        d_max=0.001, n_max=0.001)
    sensor = int(rng.integers(1, 4))
    onset = int(rng.integers(5, 60))
    magnitude = float(rng.uniform(0.05, 1.0))  # up to 1e3 * n_max
    kind = rng.choice(["constant", "sinusoid", "ramp"])
    if kind == "constant":
        wave = {"kind": "constant", "value": magnitude}
    elif kind == "sinusoid":
        wave = {"kind": "sinusoid", "amplitude": magnitude, "freq_hz": 1.5}
    else:
        wave = {"kind": "ramp", "slope": magnitude / 50}
    x0 = rng.normal(size=1)
    x0 *= min(1.0, 0.9 / abs(float(x0[0])))
    return Scenario(
        model=model, horizon=250, q=1, r=1, seed=seed,
        attacks=(AttackSpec(sensor, onset, None, wave),),
        observer=ObserverConfig(mode="radius", radius=0.5, x0_max=1.0),
        x0=x0, dt=1.0,
    )


def _three_inertia_scenario(model, rng, seed):
    sensor = int(rng.integers(1, 6))
    onset = int(rng.integers(20, 120))
    magnitude = float(rng.uniform(0.05, 1.0))
    x0 = rng.normal(size=6)
    x0 *= min(1.0, 0.9 / np.linalg.norm(x0))
    return Scenario(
        model=model, horizon=300, q=1, r=1, seed=seed,
        attacks=(AttackSpec(sensor, onset, None,
                            {"kind": "constant", "value": magnitude}),),
        observer=ObserverConfig(mode="contract", factor=0.98, x0_max=1.0),
        x0=x0, dt=0.001,
    )


def test_criterion_4_bound_conformance_50_runs():
    rng = np.random.default_rng(404)
    model_ti = zoh_discretize(three_inertia_model(), 0.001, d_max=0.001, n_max=0.001)
    violations = 0
    for run in range(50):
        if run < 35:
            sc = _scalar_scenario(rng, seed=9000 + run)
        else:
            sc = _three_inertia_scenario(model_ti, rng, seed=9000 + run)
        tr = simulate(sc)
        errs = tr.estimation_errors()
        violations += int(np.count_nonzero(errs > tr.bound))
    assert violations == 0
    report("criterion 4", "error <= kappa_c * v_max(k) at every step of all "
                          "50 noisy attacked runs (35 scalar + 15 benchmark)")


# ---------------------------------------------------------------------------
# 5. detection soundness


def test_criterion_5_detection_soundness():
    rng = np.random.default_rng(505)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(n, 7))
        entries = rng.normal(size=(n * p, n))
        if np.linalg.matrix_rank(entries) < n:
            continue
        phi = CodingMatrix(entries, n, p)
        v_max = float(rng.uniform(1e-4, 0.05))
        x = rng.normal(size=n) * 3
        v = rng.normal(size=(p, n))
        v *= (v_max * rng.uniform(0, 1, size=(p, 1))) / np.maximum(
            np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
        z = (phi.entries @ x).reshape(p, n) + v
        assert not residual_detect_noisy(phi, z, v_max).attacked

    # noiseless scalar plant: the alarm fires exactly at the first corrupted sample
    g = CodingMatrix(np.array([[1.0], [1.0], [1.0]]), 1, 3)
    onset = 7
    x = 5.0
    first_alarm = None
    for k in range(15):
        y = np.array([x, x, x])
        if k >= onset:
            y[2] += 7.0
        res = residual_detect_noiseless(g, y[:, None])
        if res.attacked and first_alarm is None:
            first_alarm = k
    assert first_alarm == onset
    report("criterion 5", "0 false alarms in 100 attack-free noisy runs; "
                          "noiseless +7 injection alarms at the first corrupted sample")


# ---------------------------------------------------------------------------
# 6. decoder economy on the benchmark demo


def test_criterion_6_minimizer_economy(demo_run):
    tr = demo_run["trace"]
    onset = 2000
    fires = np.flatnonzero(tr.branch == 1)
    assert fires.size >= 1, "the demo attack must trigger the search branch"
    assert fires.min() >= onset
    assert fires.max() <= onset + 100, f"fires spread too far: {fires}"
    assert np.all(tr.branch[:onset] == 0)
    # the sensors dropped by the update are exactly the attacked ones
    excluded = {i for i in range(1, 6) if not tr.lam_mask[-1] >> (i - 1) & 1}
    assert excluded == {1}
    report("criterion 6",
           f"search branch fired only at steps {list(fires)} (window after onset "
           f"{onset}); every pre-attack step used exactly 1 pseudoinverse solve")


def test_demo_decisions_match_pinned_sequence(demo_run):
    # pinned decisions: the one search runs at step 2001 and drops sensor 1
    # (lambda_mask 0b11111 -> 0b11110) for the rest of the run
    tr = demo_run["trace"]
    assert np.flatnonzero(tr.branch == 1).tolist() == [2001]
    changes = np.flatnonzero(np.diff(tr.lam_mask)) + 1
    assert [(int(k), int(tr.lam_mask[k])) for k in changes] == [(2001, 0b11110)]
    assert tr.lam_mask[0] == 0b11111


def decision_digest(trace):
    """sha256 over the int64 f, lam_mask and branch columns, in that order: 16 hex digits."""
    h = hashlib.sha256()
    for column in (trace.f, trace.lam_mask, trace.branch):
        h.update(np.ascontiguousarray(column, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def test_demo_decision_digest_is_pinned(demo_run):
    assert decision_digest(demo_run["trace"]) == "9c1a13a22b3c615a"


@pytest.mark.parametrize(("seed", "digest"), [
    (1, "c7747a57960f6744"), (4242, "d54e17af03439b59"), (2027, "cb8a53c6b6126e57")])
def test_chain_search_decision_digests_are_pinned(inertia_chain, seed, digest):
    # the 5-inertia chain at 10 ms, q = 2, r = 4, re-certified every 10 steps, with a random
    # attack on sensor 1 from step 200 and a constant one on sensor 6 from step 500
    model = inertia_chain(5, 0.01)
    x0 = np.random.default_rng((seed, 5)).standard_normal(model.n)
    sc = Scenario(
        model=model, horizon=2000, q=2, r=4, seed=seed,
        attacks=(AttackSpec(1, 200, None, {"kind": "random", "lo": -50.0, "hi": 50.0}),
                 AttackSpec(6, 500, None, {"kind": "constant", "value": 50.0})),
        observer=ObserverConfig(mode="contract", factor=0.98, x0_max=1.0),
        x0=x0 * (0.5 / np.linalg.norm(x0)), dt=0.01, recert_every=10,
    )
    assert decision_digest(simulate(sc)) == digest


def test_repeated_search_decisions_match_pinned_sequence(demo_run):
    # the demo plant with r = 2, so each search scores C(5, 3) = 10 candidates,
    # every sensor readmitted each 50 steps and a random attack on sensor 2:
    # the search drops sensor 2 (mask 0b11101) after each readmission (0b11111);
    # values read before the decoder and the analysis shared one selection order
    sc = dataclasses.replace(
        demo_run["scenario"], horizon=1500, r=2, recert_every=50,
        attacks=(AttackSpec(2, 300, None, {"kind": "random", "lo": -200.0, "hi": 200.0}),))
    tr = simulate(sc)
    fires = [303, 353, 401, 451, 501, 551, 601, 651, 702, 753, 801, 851,
             901, 951, 1001, 1051, 1101, 1151, 1201, 1251, 1301, 1351, 1401, 1453]
    assert np.flatnonzero(tr.branch == 1).tolist() == fires
    changes = np.flatnonzero(np.diff(tr.lam_mask)) + 1
    expected = sorted([(k, 0b11101) for k in fires] + [(k, 0b11111) for k in range(350, 1500, 50)])
    assert [(int(k), int(tr.lam_mask[k])) for k in changes] == expected
    assert tr.lam_mask[0] == 0b11111
    assert np.count_nonzero(tr.estimation_errors() > tr.bound) == 0


# ---------------------------------------------------------------------------
# 7. observer bank structure


def test_criterion_7_observer_bank_structure(three_inertia):
    bank = build_observer_bank(three_inertia,
                               ObserverConfig(mode="contract", factor=0.98))
    A = three_inertia.A
    for obs in bank:
        nu = obs.nu
        assert np.abs(obs.Z.T @ obs.Z - np.eye(nu)).max() <= 1e-10
        W = null_space(obs.Z.T)
        if W.size:
            c = three_inertia.C[obs.sensor_index - 1]
            assert np.abs(c @ W).max() <= 1e-10
            assert np.abs(obs.Z.T @ A @ W).max() <= 1e-10
    total = sum(o.nu for o in bank)
    assert total <= three_inertia.n * three_inertia.p
    report("criterion 7",
           f"Z'Z=I, cW=0, Z'AW=0 within 1e-10 for all sensors; "
           f"total observer dimension {total} <= {three_inertia.n * three_inertia.p}")


# ---------------------------------------------------------------------------
# 8. discretization correctness


def test_criterion_8_zoh_against_series_oracle():
    from tests.test_plant import taylor_zoh_oracle

    cm = three_inertia_model()
    m = zoh_discretize(cm, 0.001)
    A_ref, B_ref = taylor_zoh_oracle(cm.A_c, cm.B_c, 0.001)
    a_err = np.abs(m.A - A_ref).max()
    b_err = np.abs(m.B - B_ref).max()
    assert a_err < 1e-12 and b_err < 1e-12

    from resilest.plant import ContinuousModel

    integ = zoh_discretize(ContinuousModel([[0.0]], [[1.0]], [[1.0]]), 0.5)
    assert float(integ.A[0, 0]) == 1.0
    assert float(integ.B[0, 0]) == pytest.approx(0.5, rel=1e-15)
    first = zoh_discretize(ContinuousModel([[-1.0]], [[1.0]], [[1.0]]), 1.0)
    assert float(first.A[0, 0]) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert float(first.B[0, 0]) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    report("criterion 8",
           f"benchmark ZOH matches the series oracle to {max(a_err, b_err):.2e} "
           f"(<= 1e-12); scalar closed forms exact to machine precision")


# ---------------------------------------------------------------------------
# steady-state tracking regression (stand-in for the unreproducible waveforms)


def test_tracking_regression_one_percent(demo_run):
    sc = demo_run["scenario"]
    quiet = dataclasses.replace(sc, attacks=(), noise_scale=0.0)
    tr = simulate(quiet)
    ref = sc.controller.reference
    final_err = abs(float(tr.x[-1, 4]) - ref)
    assert final_err <= 0.01 * abs(ref)
    report("tracking regression",
           f"no-attack no-noise demo tracks the step reference to "
           f"{final_err:.2e} (<= 1% of {ref})")
