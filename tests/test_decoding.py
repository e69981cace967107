import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compacted
from resilest._linalg import pinv
from resilest.analysis import (
    CorrectabilityError,
    SystemModel,
    observability_matrix,
    robustness_constants,
)
from resilest.decoding import (
    CandidateStack,
    block_misfits,
    certify_estimate,
    decode_noiseless,
    decode_noisy,
    default_support_tol,
    recover_initial_state,
    residual_detect_noiseless,
    residual_detect_noisy,
)
from resilest.estimator import DecoderState
from resilest.plant import Scenario, three_inertia_model, zoh_discretize
from resilest.stacked import CodingMatrix, IndexSet

ONES3 = CodingMatrix(np.array([[1.0], [1.0], [1.0]]), 1, 3)


def sv(data, n, p):
    """The length ``n*p`` values as ``(p, n)`` sensor blocks."""
    return np.asarray(data, dtype=float).reshape(p, n)


# ---------------------------------------------------------------------------
# residual detection


def test_detect_noiseless_clean():
    res = residual_detect_noiseless(ONES3, sv([5, 5, 5], 1, 3))
    assert not res.attacked
    assert res.estimate == pytest.approx([5.0])


def test_detect_noiseless_corrupted():
    res = residual_detect_noiseless(ONES3, sv([5, 5, 12], 1, 3))
    assert res.attacked
    assert res.estimate == pytest.approx([22.0 / 3.0])
    assert res.residual.shape == (3, 1)
    assert res.residual[:, 0] == pytest.approx([-7 / 3, -7 / 3, 14 / 3])


def test_detect_noiseless_zero_vector():
    res = residual_detect_noiseless(ONES3, sv([0, 0, 0], 1, 3))
    assert not res.attacked
    assert res.estimate == pytest.approx([0.0])


def test_detect_rejects_rank_deficient():
    phi = CodingMatrix(np.zeros((3, 1)), 1, 3)
    with pytest.raises(ValueError):
        residual_detect_noiseless(phi, sv([1, 2, 3], 1, 3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_detect_flags_nonfinite_and_overflowing_blocks(bad):
    z = sv([5, 5, bad], 1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        assert residual_detect_noiseless(ONES3, z).attacked
        assert residual_detect_noisy(ONES3, z, v_max=1.0).attacked
        assert residual_detect_noiseless(ONES3, z, tol=1e-6).attacked


def test_detect_noisy_never_alarms_without_attack():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(n, 7))
        phi_entries = rng.normal(size=(n * p, n))
        if np.linalg.matrix_rank(phi_entries) < n:
            continue
        phi = CodingMatrix(phi_entries, n, p)
        x = rng.normal(size=n)
        v_max = float(rng.uniform(1e-4, 1e-1))
        v = rng.normal(size=n * p).reshape(p, n)
        v *= (v_max * rng.uniform(0, 1, size=(p, 1))) / np.maximum(
            np.linalg.norm(v, axis=1, keepdims=True), 1e-300
        )
        z = sv(phi.entries @ x + v.reshape(-1), n, p)
        assert not residual_detect_noisy(phi, z, v_max).attacked


def test_detect_noisy_flags_large_injection():
    res = residual_detect_noisy(ONES3, sv([5, 5, 12], 1, 3), v_max=0.01)
    assert res.attacked
    assert res.per_block_residual_norms[2] == pytest.approx(14 / 3)


def test_detect_noisy_quiet_case_bounds_hold():
    # when no alarm is raised, the least-squares estimate stays within
    # kappa_d * v_max of the truth and the hidden injection blocks within
    # kappa_e * v_max
    rng = np.random.default_rng(93)
    kept = 0
    while kept < 30:
        n, p, q = 1, 4, 1
        phi = CodingMatrix(rng.normal(size=(p, n)) + 0.7, n, p)
        try:
            consts = robustness_constants(phi, q, q)
        except Exception:
            continue
        x = rng.normal(size=n) * 2
        v_max = 0.01
        v = rng.uniform(-v_max, v_max, size=p)
        e = np.zeros(p)
        e[int(rng.integers(0, p))] = rng.uniform(-3 * v_max, 3 * v_max)
        z = sv(phi.entries @ x + v + e, n, p)
        res = residual_detect_noisy(phi, z, v_max)
        if res.attacked:
            continue
        kept += 1
        assert np.linalg.norm(res.estimate - x) <= consts.kappa_d * v_max
        assert np.abs(e).max() <= consts.kappa_e * v_max


def test_detect_noisy_threshold_is_strict():
    # exact boundary: all-zero residual against a zero threshold (0 > 0 is
    # false), plus a sandwich around the nonzero crossing point
    res = residual_detect_noisy(ONES3, sv([0, 0, 0], 1, 3), v_max=0.0)
    assert res.threshold == 0.0
    assert not res.attacked

    z = sv([6.5, 6, 5.5], 1, 3)
    probe = residual_detect_noisy(ONES3, z, v_max=1.0)
    crossing = probe.per_block_residual_norms.max() / math.sqrt(3)
    assert residual_detect_noisy(ONES3, z, crossing * 0.999).attacked
    assert not residual_detect_noisy(ONES3, z, crossing * 1.001).attacked


def test_residual_detection_takes_one_svd_per_call(monkeypatch):
    rng = np.random.default_rng(6)
    phi = CodingMatrix(rng.normal(size=(8, 2)), 2, 4)
    z = sv(rng.normal(size=8), 2, 4)
    want = pinv(phi.entries) @ z.reshape(-1)
    calls = []
    svd, np_pinv = np.linalg.svd, np.linalg.pinv

    def svd_spy(*args, **kwargs):
        calls.append("svd")
        return svd(*args, **kwargs)

    def pinv_spy(*args, **kwargs):  # np.linalg.pinv takes an SVD of its own
        calls.append("pinv")
        return np_pinv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(np.linalg, "pinv", pinv_spy)
    res = residual_detect_noisy(phi, z, v_max=0.1)
    assert calls == ["svd"]
    # the rank check and the estimate come from that one decomposition, bit for bit
    assert np.array_equal(res.estimate, want)
    deficient = CodingMatrix(np.outer(rng.normal(size=8), [1.0, 1.0]), 2, 4)
    with pytest.raises(ValueError, match="full column rank"):
        residual_detect_noisy(deficient, z, v_max=0.1)
    assert calls == ["svd", "svd"]


# ---------------------------------------------------------------------------
# candidate enumeration


def test_candidate_set_scalar_example():
    stack = CandidateStack.build(ONES3, 1)
    assert stack.members.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert stack.estimates(sv([5, 5, 12], 1, 3))[:, 0] == pytest.approx([5.0, 8.5, 8.5])


def test_candidate_set_r0_single():
    stack = CandidateStack.build(ONES3, 0)
    assert stack.members.tolist() == [[0, 1, 2]]
    assert stack.estimates(sv([5, 5, 12], 1, 3))[:, 0] == pytest.approx([22.0 / 3.0])


def test_candidate_set_degenerate_r_equals_p():
    # a single candidate from the empty selection: the minimum-norm solve of
    # an empty system, i.e. the zero vector
    stack = CandidateStack.build(ONES3, 3)
    assert stack.members.shape == (1, 0)
    assert stack.estimates(sv([5, 5, 12], 1, 3))[:, 0] == pytest.approx([0.0])


def test_candidate_set_cardinality():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        p = int(rng.integers(2, 7))
        r = int(rng.integers(0, p + 1))
        phi = CodingMatrix(rng.normal(size=(n * p, n)), n, p)
        z = sv(rng.normal(size=n * p), n, p)
        stack = CandidateStack.build(phi, r)
        assert stack.members.shape == (math.comb(p, p - r), p - r)
        assert stack.estimates(z).shape == (math.comb(p, p - r), n)


def reference_search(phi, z, r, threshold):
    """Per-candidate loop: one pinv per selection, first minimum of the
    violation count."""
    p, n = phi.block_count, phi.block_len
    best = None
    for lam_t in itertools.combinations(range(1, p + 1), p - r):
        lam = IndexSet(lam_t, p)
        x = pinv(compacted(phi, lam)) @ compacted(z, lam)
        norms = np.linalg.norm(z - (phi.entries @ x).reshape(p, n), axis=1)
        violating = tuple(i + 1 for i in range(p) if not norms[i] <= threshold)
        if best is None or len(violating) < len(best[2]):
            best = (x, len(violating), violating)
    return best


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), integer=st.booleans())
def test_stacked_search_matches_per_candidate_loop(seed, integer):
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(1, 4)), int(rng.integers(2, 7))
    r = int(rng.integers(0, p + 1))
    if integer:  # small integer data: many tied counts
        entries = rng.integers(-1, 2, size=(n * p, n)).astype(float)
        data = rng.integers(-3, 4, size=n * p).astype(float)
    else:
        entries = rng.normal(size=(n * p, n))
        for blk in rng.choice(p, size=int(rng.integers(0, p)), replace=False):
            entries[blk * n:(blk + 1) * n] = np.outer(rng.normal(size=n), rng.normal(size=n))
        data = entries @ rng.normal(size=n) + rng.normal(size=n * p) * (rng.random(n * p) < 0.3)
    phi, z = CodingMatrix(entries, n, p), sv(data, n, p)
    threshold = float(rng.uniform(0.05, 1.5))
    x_ref, count_ref, support_ref = reference_search(phi, z, r, threshold)
    x, count, support = CandidateStack.build(phi, r).search(z, threshold)
    assert (count, tuple(support)) == (count_ref, support_ref)
    np.testing.assert_allclose(x, x_ref, rtol=1e-10, atol=1e-12)


def test_search_tie_breaks_on_smallest_selection():
    # selections (1,2) and (3,4) both leave two blocks violating
    phi = CodingMatrix(np.ones((4, 1)), 1, 4)
    x, count, support = CandidateStack.build(phi, 2).search(sv([0, 0, 10, 10], 1, 4), 1.0)
    assert (float(x[0]), count, tuple(support)) == (0.0, 2, (3, 4))


def test_search_counts_nonfinite_blocks_as_violating():
    z = sv([5.0, 5.0, np.nan], 1, 3)
    x, count, support = CandidateStack.build(ONES3, 1).search(z, 0.1)
    assert (x[0], count, tuple(support)) == (pytest.approx(5.0), 1, (3,))
    assert certify_estimate(ONES3, z, [5.0], q=1, v_max=1.0) == (True, 1)


# ---------------------------------------------------------------------------
# noiseless decoding


def test_decode_noiseless_scalar_example():
    res = decode_noiseless(ONES3, sv([5, 5, 12], 1, 3), q=1, r=1)
    assert res.estimate == pytest.approx([5.0])
    assert tuple(res.support_estimate) == (3,)
    assert res.objective == 1
    assert res.certified


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_decode_noiseless_tolerance_ignores_nonfinite_blocks(bad):
    z = sv([5, 5, bad], 1, 3)
    assert default_support_tol(z) == default_support_tol(sv([5, 5], 1, 2))
    with np.errstate(invalid="ignore"):
        res = decode_noiseless(ONES3, z, q=1)
    assert res.estimate == pytest.approx([5.0])
    assert (tuple(res.support_estimate), res.objective, res.certified) == ((3,), 1, True)


def test_decode_noiseless_clean_input():
    rng = np.random.default_rng(1)
    phi = CodingMatrix(rng.normal(size=(8, 2)), 2, 4)
    x = rng.normal(size=2)
    res = decode_noiseless(phi, sv(phi.entries @ x, 2, 4), q=1, r=1)
    assert res.estimate == pytest.approx(x)
    assert res.objective == 0


def test_decode_noiseless_refuses_non_correctable():
    phi = CodingMatrix(np.array([[1.0], [1.0], [0.0]]), 1, 3)
    with pytest.raises(CorrectabilityError):
        decode_noiseless(phi, sv([1, 1, 0], 1, 3), q=1)


def brute_force_support_search(phi, z, q):
    """Oracle: for every possible corrupted-block set of size <= q, solve the
    healthy-rows least squares and keep solutions whose healthy residual
    vanishes.  Returns the list of consistent states."""
    p, n = phi.block_count, phi.block_len
    from resilest.stacked import IndexSet

    hits = []
    for size in range(q + 1):
        for bad in itertools.combinations(range(1, p + 1), size):
            healthy = IndexSet.of(set(range(1, p + 1)) - set(bad), p)
            sub = compacted(phi, healthy)
            rhs = compacted(z, healthy)
            x, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
            if np.linalg.norm(sub @ x - rhs) < 1e-8 * (1 + np.linalg.norm(rhs)):
                hits.append(x)
    return hits


def test_decode_noiseless_matches_brute_force():
    rng = np.random.default_rng(77)
    for trial in range(40):
        n, p, q = 2, 5, 1
        phi_entries = rng.normal(size=(n * p, n))
        phi = CodingMatrix(phi_entries, n, p)
        x = rng.normal(size=n)
        bad = int(rng.integers(1, p + 1))
        e = np.zeros(n * p)
        blk = rng.normal(size=n)
        e[(bad - 1) * n: bad * n] = blk / max(np.linalg.norm(blk), 1e-3) * rng.uniform(0.5, 3.0)
        z = sv(phi.entries @ x + e, n, p)
        for r in (1, 2):
            res = decode_noiseless(phi, z, q=q, r=r)
            assert np.linalg.norm(res.estimate - x) <= 1e-9 * (1 + np.linalg.norm(x))
            assert tuple(res.support_estimate) == (bad,)
        hits = brute_force_support_search(phi, z, q)
        assert any(np.allclose(h, x, atol=1e-8) for h in hits)
        for h in hits:
            assert np.allclose(h, x, atol=1e-7)  # correctability => unique


def test_lemma_style_certificate_biconditional():
    rng = np.random.default_rng(55)
    for _ in range(25):
        n, p, q = 2, 5, 1
        phi = CodingMatrix(rng.normal(size=(n * p, n)), n, p)
        x = rng.normal(size=n)
        e = np.zeros(n * p)
        bad = int(rng.integers(1, p + 1))
        e[(bad - 1) * n: bad * n] = rng.normal(size=n) + 0.5
        z = sv(phi.entries @ x + e, n, p)
        res = decode_noiseless(phi, z, q=q, r=q)
        # forward: the true state is certified
        assert res.certified and np.allclose(res.estimate, x, atol=1e-8)
        # converse: a wrong state cannot have objective <= q
        wrong = x + rng.normal(size=n) * 0.7 + 0.1
        norms = np.linalg.norm(z - (phi.entries @ wrong).reshape(p, n), axis=1)
        assert int(np.count_nonzero(norms > 1e-8)) > q


# ---------------------------------------------------------------------------
# noisy decoding


def test_decode_noisy_vanishing_noise_matches_noiseless():
    z = sv([5, 5, 12], 1, 3)
    res = decode_noisy(ONES3, z, q=1, r=2, v_max=1e-12)
    assert res.estimate == pytest.approx([5.0])
    assert tuple(res.support_estimate) == (3,)


def test_decode_noisy_no_attack_bound():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n, p, q = 2, 5, 1
        phi = CodingMatrix(rng.normal(size=(n * p, n)), n, p)
        consts = robustness_constants(phi, q, q)
        x = rng.normal(size=n)
        v_max = 1e-3
        v = rng.uniform(-1, 1, size=(p, n))
        v *= v_max / np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
        z = sv(phi.entries @ x + v.reshape(-1), n, p)
        res = decode_noisy(phi, z, q=q, r=q, v_max=v_max, constants=consts)
        assert res.objective == 0
        assert np.linalg.norm(res.estimate - x) <= consts.kappa_c * v_max


def test_decode_noisy_bound_monte_carlo():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n, p, q = 2, 5, 1
        phi = CodingMatrix(rng.normal(size=(n * p, n)), n, p)
        consts = robustness_constants(phi, q, q)
        x = rng.normal(size=n)
        v_max = 1e-3
        v = rng.uniform(-1, 1, size=(p, n))
        v *= v_max * rng.uniform(0, 1, size=(p, 1)) / np.maximum(
            np.linalg.norm(v, axis=1, keepdims=True), 1e-300
        )
        e = np.zeros(n * p)
        bad = int(rng.integers(1, p + 1))
        e[(bad - 1) * n: bad * n] = rng.normal(size=n) * rng.uniform(0.1, 50)
        z = sv(phi.entries @ x + e + v.reshape(-1), n, p)
        for r in (1, 2):
            res = decode_noisy(phi, z, q=q, r=r, v_max=v_max)
            assert np.linalg.norm(res.estimate - x) <= res.error_bound + 1e-12


def test_decode_noisy_relaxation_equivalence():
    # build the explicit slack vector from the minimizer and check it is
    # feasible for the constrained form with matching objective value
    rng = np.random.default_rng(41)
    for _ in range(20):
        n, p, q = 1, 4, 1
        phi = CodingMatrix(rng.normal(size=(n * p, n)) + 0.5, n, p)
        try:
            consts = robustness_constants(phi, q, q)
        except CorrectabilityError:
            continue
        x = rng.normal(size=n)
        v_max = 1e-2
        v = rng.uniform(-v_max, v_max, size=n * p)
        e = np.zeros(n * p)
        e[0] = rng.uniform(1, 5)
        z = sv(phi.entries @ x + e + v, n, p)
        res = decode_noisy(phi, z, q=q, r=q, v_max=v_max, constants=consts)
        v_prime = consts.theta * v_max
        resid = z - (phi.entries @ res.estimate).reshape(p, n)
        norms = np.linalg.norm(resid, axis=1)
        slack = np.where((norms > v_prime)[:, None], resid, 0.0)
        leftover = np.linalg.norm(resid - slack, axis=1)
        assert np.all(leftover <= v_prime + 1e-12)
        assert int(np.count_nonzero(np.linalg.norm(slack, axis=1))) == res.objective


def test_decoders_take_the_rank_tolerance(three_inertia):
    # the three-inertia monomial matrix is 1-error correctable at the default
    # tolerance and not at 1e-6
    g = observability_matrix(three_inertia)
    data = g.entries @ np.ones(6)
    data[:6] += 20.0
    z = data.reshape(5, 6)
    res = decode_noiseless(g, z, 1)
    assert res.certified and tuple(res.support_estimate) == (1,)
    with pytest.raises(CorrectabilityError):
        decode_noiseless(g, z, 1, eps_rel=1e-6)
    with pytest.raises(CorrectabilityError):
        decode_noisy(g, z, 1, v_max=1e-3, eps_rel=1e-6)
    # the candidates' pinv cuts a 1e-9 direction at 1e-6, not at the default
    phi = CodingMatrix(np.vstack([np.diag([1.0, 1e-9])] * 3), 2, 3)
    assert np.abs(CandidateStack.build(phi, 1).pinvs[:, 1]).max() == pytest.approx(5e8)
    assert not CandidateStack.build(phi, 1, eps_rel=1e-6).pinvs[:, 1].any()


def test_decode_noisy_constants_mismatch_rejected():
    consts = robustness_constants(ONES3, 1, 2)
    with pytest.raises(ValueError):
        decode_noisy(ONES3, sv([1, 1, 1], 1, 3), q=1, r=1, v_max=0.1, constants=consts)


# ---------------------------------------------------------------------------
# certification


@pytest.mark.parametrize("v_max", [math.nan, math.inf, -1.0])
def test_noise_bound_must_be_finite_and_nonnegative(v_max):
    # a NaN bound would certify nothing and an infinite one everything
    z = sv([5, 5, 12], 1, 3)
    message = "v_max must be finite and nonnegative"
    with pytest.raises(ValueError, match=message):
        decode_noisy(ONES3, z, q=1, v_max=v_max)
    with pytest.raises(ValueError, match=message):
        residual_detect_noisy(ONES3, z, v_max)
    with pytest.raises(ValueError, match=message):
        certify_estimate(ONES3, z, [5.0], q=1, v_max=v_max)


def test_certify_estimate_cases():
    z = sv([5, 5, 12], 1, 3)
    consts = robustness_constants(ONES3, 1, 2)
    ok, count = certify_estimate(ONES3, z, np.array([5.0]), q=1, r=2, v_max=0.01,
                                 constants=consts)
    assert ok and count == 1
    ok, count = certify_estimate(ONES3, z, np.array([20.0]), q=1, r=2, v_max=0.01,
                                 constants=consts)
    assert not ok and count == 3


def test_certify_estimate_constants_mismatch_rejected():
    # constants of (2, 2) carry another theta, so they cannot certify for q = r = 1
    rng = np.random.default_rng(61)
    phi = CodingMatrix(rng.normal(size=(14, 2)), 2, 7)
    x = rng.normal(size=2)
    z = sv(phi.entries @ x, 2, 7)
    consts = robustness_constants(phi, 2, 2)
    assert certify_estimate(phi, z, x, q=2, v_max=1e-6, constants=consts) == (True, 0)
    message = r"^supplied constants were computed for different \(q, r\)$"
    for q, r in ((1, None), (1, 1), (2, 3)):
        with pytest.raises(ValueError, match=message):
            certify_estimate(phi, z, x, q=q, r=r, v_max=1e-6, constants=consts)
        with pytest.raises(ValueError, match=message):
            decode_noisy(phi, z, q=q, r=r, v_max=1e-6, constants=consts)


BUDGET_PHI = CodingMatrix(np.random.default_rng(61).normal(size=(14, 2)), 2, 7)
BUDGET_Z = np.ones((7, 2))
# every entry point that takes a decoder budget (q, r), called with it and any constants
BUDGET_ENTRY_POINTS = {
    "decode_noiseless": lambda q, r: decode_noiseless(BUDGET_PHI, BUDGET_Z, q, r),
    "robustness_constants": lambda q, r: robustness_constants(BUDGET_PHI, q, r),
    "Scenario": lambda q, r: Scenario(model=zoh_discretize(three_inertia_model(), 0.001),
                                      horizon=1, q=q, r=r),
    "decode_noisy": lambda q, r, constants=None: decode_noisy(
        BUDGET_PHI, BUDGET_Z, q, r, v_max=1e-6, constants=constants),
    "certify_estimate": lambda q, r, constants=None: certify_estimate(
        BUDGET_PHI, BUDGET_Z, np.zeros(2), q, r, v_max=1e-6, constants=constants),
    "DecoderState.fresh": lambda q, r, constants=None: DecoderState.fresh(
        BUDGET_PHI, q, r, constants=constants),
}
TAKES_CONSTANTS = ("decode_noisy", "certify_estimate", "DecoderState.fresh")
# (q, r, the budget the supplied constants were made for): q < 0, r < q, r > 2q, and
# constants of another budget, both ways round
BUDGET_CASES = [(-1, -1, None), (1, 0, None), (1, 3, None), (2, 2, (1, 1)), (1, 1, (2, 2))]


@pytest.mark.parametrize(("entry", "q", "r", "made_for"), [
    (entry, q, r, made_for) for entry in BUDGET_ENTRY_POINTS for q, r, made_for in BUDGET_CASES
    if made_for is None or entry in TAKES_CONSTANTS], ids=str)
def test_every_entry_point_rejects_a_budget_outside_the_rule(entry, q, r, made_for):
    # the budget needs q <= r <= 2q, and supplied constants certify their own budget alone:
    # theta and kappa_c of another (q, r) would threshold and bound this one's search
    kwargs = {} if made_for is None else {"constants": robustness_constants(BUDGET_PHI, *made_for)}
    message = (r"^supplied constants were computed for different \(q, r\)$" if made_for
               else rf"^need q <= r <= 2q, got q={q}, r={r}$")
    with pytest.raises(ValueError, match=message):
        BUDGET_ENTRY_POINTS[entry](q, r, **kwargs)


def test_certify_true_state_clean():
    rng = np.random.default_rng(61)
    phi = CodingMatrix(rng.normal(size=(10, 2)), 2, 5)
    x = rng.normal(size=2)
    z = sv(phi.entries @ x, 2, 5)
    ok, count = certify_estimate(phi, z, x, q=1, v_max=1e-6)
    assert ok and count == 0


# ---------------------------------------------------------------------------
# initial-state recovery


def test_recover_initial_state_scalar():
    m = SystemModel(A=[[1.0]], B=[[0.0]], C=[[1.0], [1.0], [1.0]])
    outputs = np.tile([5.0, 5.0, 5.0], (1, 1))
    res = recover_initial_state(m, outputs, None, q=1)
    assert res.estimate == pytest.approx([5.0])
    assert tuple(res.support_estimate) == ()


def test_recover_initial_state_scalar_attacked():
    m = SystemModel(A=[[1.0]], B=[[0.0]], C=[[1.0], [1.0], [1.0]])
    outputs = np.array([[5.0, 5.0, 12.0]])
    res = recover_initial_state(m, outputs, None, q=1)
    assert res.estimate == pytest.approx([5.0])
    assert tuple(res.support_estimate) == (3,)


def test_recover_initial_state_with_inputs():
    rng = np.random.default_rng(71)
    A = np.array([[0.9, 0.1], [0.0, 0.8]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    m = SystemModel(A=A, B=B, C=C)
    x0 = rng.normal(size=2)
    u = rng.normal(size=(1, 1))
    x = x0.copy()
    ys = [C @ x]
    x = A @ x + B @ u[0]
    ys.append(C @ x)
    outputs = np.array(ys)
    outputs[:, 2] += 4.0  # sensor 3 corrupted at every step
    res = recover_initial_state(m, outputs, u, q=1)
    assert res.estimate == pytest.approx(x0, abs=1e-9)
    assert tuple(res.support_estimate) == (3,)


def test_recover_initial_state_three_inertia():
    model = zoh_discretize(three_inertia_model(), 0.001)
    rng = np.random.default_rng(81)
    x0 = rng.normal(size=6) * 0.5
    bad = int(rng.integers(1, 6))
    x = x0.copy()
    rows = []
    for k in range(6):
        y = model.C @ x
        y[bad - 1] += 3.0 + 0.5 * k
        rows.append(y)
        x = model.A @ x
    res = recover_initial_state(model, np.array(rows), None, q=1,
                                support_tol=1e-6)
    assert np.linalg.norm(res.estimate - x0) <= 1e-5 * (1 + np.linalg.norm(x0))
    assert tuple(res.support_estimate) == (bad,)


def test_recover_initial_state_needs_n_samples():
    m = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2))
    with pytest.raises(ValueError):
        recover_initial_state(m, np.zeros((1, 2)), None, q=0)


# ---------------------------------------------------------------------------
# input shapes

EYE3 = CodingMatrix(np.vstack([np.eye(2)] * 3), 2, 3)  # p = 3 blocks of n = 2

ENTRY_POINTS = {
    "detect-noiseless": lambda z: residual_detect_noiseless(EYE3, z),
    "detect-noisy": lambda z: residual_detect_noisy(EYE3, z, v_max=0.1),
    "decode-noiseless": lambda z: decode_noiseless(EYE3, z, q=1),
    "decode-noisy": lambda z: decode_noisy(EYE3, z, q=1, v_max=0.1),
    "certify": lambda z: certify_estimate(EYE3, z, np.ones(2), q=1, v_max=0.1),
    "estimates": lambda z: CandidateStack.build(EYE3, 1).estimates(z),
    "search": lambda z: CandidateStack.build(EYE3, 1).search(z, 0.1),
    "block-misfits": lambda z: block_misfits(EYE3, z, np.ones((1, 2))),
}


@pytest.mark.parametrize("shape", [(6, 1), (2, 3), (6,), (3, 1), (5,), (4, 2)])
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_entry_points_reject_a_measurement_not_blocked_like_phi(entry, shape):
    # the six values of three 2-blocks read as six 1-blocks would give six block
    # norms against the sqrt(3) threshold of three blocks.  Unchecked, the search
    # steps fail inside numpy on (6, 1) and (4, 2), search fails on (2, 3) with an
    # IndexError, and block_misfits reads (2, 3) in the wrong layout without complaint
    entry(np.ones((3, 2)))
    with pytest.raises(ValueError, match=re.escape(f"shape {shape} != (3, 2)")):
        entry(np.ones(shape))


@pytest.mark.parametrize("shape", [(1,), (3,), (1, 2)])
def test_certify_estimate_rejects_an_estimate_not_of_length_n(shape):
    with pytest.raises(ValueError, match=re.escape(f"estimate (n,) shape {shape} != (2,)")):
        certify_estimate(EYE3, np.ones((3, 2)), np.ones(shape), q=1, v_max=0.1)
