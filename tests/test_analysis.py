import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilest import analysis
from resilest._linalg import matrix_rank, pinv, sigma_min
from resilest.analysis import (
    CorrectabilityError,
    RobustnessConstants,
    SystemModel,
    UnsupportedInputError,
    analyze,
    is_q_error_correctable,
    is_q_error_detectable,
    is_q_redundant_observable,
    observability_matrix,
    robustness_constants,
    security_index,
    security_index_eigenvector,
    sensor_selections,
    stacked_cospark,
)
from resilest.stacked import CodingMatrix, IndexSet, StackedVector, stacked_support

ONES3 = CodingMatrix(np.array([[1.0], [1.0], [1.0]]), 1, 3)


# ---------------------------------------------------------------------------
# observability matrix


def test_observability_matrix_n1():
    m = SystemModel(A=[[1.0]], B=[[0.0]], C=[[1.0], [1.0], [1.0]])
    g = observability_matrix(m)
    assert np.array_equal(g.entries, [[1.0], [1.0], [1.0]])


def test_observability_matrix_diag():
    m = SystemModel(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)), C=[[1.0, 0.0]])
    g = observability_matrix(m)
    assert np.array_equal(g.block(1), [[1.0, 0.0], [1.0, 0.0]])


def test_observability_matrix_nilpotent():
    m = SystemModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=[[1.0, 1.0]])
    g = observability_matrix(m)
    assert np.array_equal(g.block(1), [[1.0, 1.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# detectability / correctability / cospark


def test_detectable_examples():
    assert is_q_error_detectable(ONES3, 2)
    assert not is_q_error_detectable(ONES3, 3)  # empty selection has rank 0
    phi = CodingMatrix(np.array([[1.0], [1.0], [0.0]]), 1, 3)
    assert not is_q_error_detectable(phi, 2)


def test_detectable_rejects_bad_q():
    with pytest.raises(ValueError):
        is_q_error_detectable(ONES3, 4)
    with pytest.raises(ValueError):
        is_q_error_detectable(ONES3, -1)


def test_correctable_examples():
    assert is_q_error_correctable(ONES3, 1)
    assert not is_q_error_correctable(ONES3, 2)  # 2q = 4 > p
    assert is_q_error_correctable(ONES3, 0)


def test_cospark_examples():
    assert stacked_cospark(ONES3) == 3
    rank_deficient = CodingMatrix(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), 2, 2)
    assert stacked_cospark(rank_deficient) == 0


def cospark_null_vector_oracle(phi, tol=1e-8):
    """Independent route: try a null vector of every selection and measure the
    stacked support of phi @ x directly; also sample generic vectors."""
    p, n = phi.block_count, phi.block_len
    best = p
    rng = np.random.default_rng(0)
    candidates = [rng.normal(size=n) for _ in range(5)]
    for size in range(p + 1):
        for lam in itertools.combinations(range(1, p + 1), size):
            sub = phi.compacted(IndexSet(lam, p))
            if sub.size == 0:
                continue
            _, s, vt = np.linalg.svd(sub)
            if s.size < n or s[-1] < tol * max(1.0, s[0]):
                candidates.append(vt[-1])
    for x in candidates:
        if np.linalg.norm(x) < 1e-12:
            continue
        x = x / np.linalg.norm(x)
        prod = StackedVector(phi.entries @ x, n, p)
        best = min(best, len(stacked_support(prod, tol=tol)))
    return best


def test_cospark_structured_example_against_oracle():
    m = SystemModel(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)),
                    C=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    g = observability_matrix(m)
    assert stacked_cospark(g) == 2
    assert cospark_null_vector_oracle(g) == 2


def test_cospark_matches_null_vector_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(max(2, n), 6))
        entries = rng.normal(size=(n * p, n))
        # plant structure: zero out some whole blocks, occasionally repeat one
        for i in range(p):
            if rng.random() < 0.25:
                entries[i * n:(i + 1) * n] = 0.0
        phi = CodingMatrix(entries, n, p)
        assert stacked_cospark(phi) == cospark_null_vector_oracle(phi)


def reference_first_deficient(phi, eps_rel=None):
    """Per-selection loop: one compacted copy and one rank check per selection,
    sizes p down to 0, returning the first rank-deficient selection (1-based)."""
    p, n = phi.block_count, phi.block_len
    for size in range(p, -1, -1):
        for lam in itertools.combinations(range(1, p + 1), size):
            if matrix_rank(phi.compacted(IndexSet(lam, p)), eps_rel) < n:
                return IndexSet(lam, p)
    raise AssertionError("unreachable: empty selection is always rank deficient")


def reference_cospark(phi, eps_rel=None):
    return phi.block_count - len(reference_first_deficient(phi, eps_rel))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), p=st.integers(0, 7),
       style=st.sampled_from(["dense", "zero", "repeat", "near"]),
       eps_rel=st.sampled_from([None, 1e-8]))
def test_stacked_cospark_equals_selection_loop(seed, n, p, style, eps_rel):
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(n * p, n))
    for blk in range(1, p):
        if style == "zero" and rng.random() < 0.3:
            entries[blk * n:(blk + 1) * n] = 0.0
        elif style == "repeat" and rng.random() < 0.4:
            entries[blk * n:(blk + 1) * n] = entries[:n]
    if style == "near" and n > 1:  # rank n - 1 plus a perturbation near either floor
        entries = rng.normal(size=(n * p, n - 1)) @ rng.normal(size=(n - 1, n))
        entries += 10.0 ** rng.integers(-16, -6) * rng.normal(size=entries.shape)
    phi = CodingMatrix(entries, n, p)
    assert stacked_cospark(phi, eps_rel) == reference_cospark(phi, eps_rel)


@pytest.mark.parametrize(("stack_floats", "calls"), [(analysis._STACK_FLOATS, 10), (64, 164)])
def test_stacked_cospark_checks_ranks_per_chunk(monkeypatch, stack_floats, calls):
    phi = CodingMatrix(np.random.default_rng(3).normal(size=(18, 2)), 2, 9)
    want = reference_cospark(phi)
    shapes = []

    def spy(matrix, eps_rel=None):
        shapes.append(np.shape(matrix))
        return sigma_min(matrix, eps_rel)

    monkeypatch.setattr(analysis, "sigma_min", spy)
    monkeypatch.setattr(analysis, "_STACK_FLOATS", stack_floats)
    assert stacked_cospark(phi) == want == 9
    # one stacked SVD per chunk of each size 9, 8, ..., 0: not one per selection (2^9)
    chunks = []
    for size in range(9, -1, -1):
        step = max(1, stack_floats // max(1, size * 4))
        count = math.comb(9, size)
        chunks += [(min(step, count - start), 2 * size, 2) for start in range(0, count, step)]
    assert shapes == chunks
    assert len(shapes) == calls


# ---------------------------------------------------------------------------
# security index


def test_security_index_three_inertia(three_inertia):
    assert security_index(three_inertia) == 3


def test_security_index_structured():
    m = SystemModel(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)),
                    C=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert security_index(m) == 2
    assert security_index_eigenvector(m) == 2


def test_security_index_unobservable():
    m = SystemModel(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)),
                    C=[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    assert security_index(m) == 0


def test_eigenvector_route_rejects_repeated_spectrum():
    m = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=[[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(UnsupportedInputError):
        security_index_eigenvector(m)


def test_eigenvector_route_three_inertia(three_inertia):
    assert security_index_eigenvector(three_inertia) == 3


# ---------------------------------------------------------------------------
# redundant observability


def test_redundant_observability_three_inertia(three_inertia):
    assert is_q_redundant_observable(three_inertia, 2)
    assert not is_q_redundant_observable(three_inertia, 3)


def test_redundant_observability_q0():
    m = SystemModel(A=[[0.5]], B=[[1.0]], C=[[2.0]])
    assert is_q_redundant_observable(m, 0)


# ---------------------------------------------------------------------------
# robustness constants


def constants_oracle(phi, q, r):
    """Direct transcription of the defining formulas, written independently
    of the implementation (plain loops over numpy lstsq/svd calls)."""
    p, n = phi.block_count, phi.block_len
    E = phi.entries

    def comp(idx):
        rows = [j for i in idx for j in range(n * (i - 1), n * i)]
        return E[rows, :]

    def blk(i):
        return E[n * (i - 1): n * i, :]

    rho = min(np.linalg.svd(comp(c), compute_uv=False)[-1]
              for c in itertools.combinations(range(1, p + 1), p - q))
    rho2 = min(np.linalg.svd(comp(c), compute_uv=False)[-1]
               for c in itertools.combinations(range(1, p + 1), p - 2 * q))
    eta = 0.0
    for lam in itertools.combinations(range(1, p + 1), p - q):
        pin = np.linalg.pinv(comp(lam))
        for i in set(range(1, p + 1)) - set(lam):
            eta = max(eta, np.linalg.norm(blk(i) @ pin, 2))
    etap = 0.0
    for lam in itertools.combinations(range(1, p + 1), p - q):
        inner = math.inf
        for bar in itertools.combinations(lam, p - r):
            pin = np.linalg.pinv(comp(bar))
            worst = max((np.linalg.norm(blk(i) @ pin, 2)
                         for i in set(lam) - set(bar)), default=0.0)
            inner = min(inner, worst)
        etap = max(etap, inner)
    theta = max(etap * math.sqrt(p - r) + 1, math.sqrt(p - r))
    return {
        "rho": rho,
        "eta": eta,
        "kappa_d": (math.sqrt(p) + 1) * math.sqrt(p - q) / rho,
        "kappa_e": (eta * math.sqrt(p - q) + 1) * (math.sqrt(p) + 1),
        "eta_prime": etap,
        "theta": theta,
        "kappa_c": (theta + 1) * math.sqrt(p - 2 * q) / rho2,
        "kappa_c_prime": (theta - 1) / max(np.linalg.norm(blk(i), 2) for i in range(1, p + 1)),
    }


def test_constants_ones3_hand_values():
    c = robustness_constants(ONES3, q=1, r=2)
    assert c.rho == pytest.approx(math.sqrt(2), abs=1e-12)
    assert c.eta == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert c.kappa_d == pytest.approx(math.sqrt(3) + 1, abs=1e-12)
    assert c.kappa_e == pytest.approx(2 * (math.sqrt(3) + 1), abs=1e-12)
    assert c.eta_prime == pytest.approx(1.0, abs=1e-12)
    assert c.theta == pytest.approx(2.0, abs=1e-12)
    assert c.kappa_c == pytest.approx(3.0, abs=1e-12)
    assert c.kappa_c_prime == pytest.approx(1.0, abs=1e-12)


def test_constants_ones3_q0():
    c = robustness_constants(ONES3, q=0, r=0)
    assert c.rho == pytest.approx(math.sqrt(3), abs=1e-12)
    assert c.eta == 0.0  # empty outer index set
    assert c.eta_prime == 0.0
    # theta = max(eta' * sqrt(p-r) + 1, sqrt(p-r)) with p-r = 3
    assert c.theta == pytest.approx(math.sqrt(3), abs=1e-12)


def test_constants_match_direct_formula_oracle():
    rng = np.random.default_rng(99)
    for _ in range(12):
        n = int(rng.integers(1, 3))
        p = int(rng.integers(3, 6))
        phi = CodingMatrix(rng.normal(size=(n * p, n)), n, p)
        q_max = (stacked_cospark(phi) - 1) // 2
        if q_max < 1 or p < 3:
            continue
        q = 1
        for r in range(q, 2 * q + 1):
            got = robustness_constants(phi, q, r)
            want = constants_oracle(phi, q, r)
            for name, val in want.items():
                assert getattr(got, name) == pytest.approx(val, rel=1e-9), (name, q, r)


def test_sensor_selections_follow_itertools_order():
    for p in range(9):
        for size in range(p + 1):
            members = sensor_selections(p, size)
            assert members.dtype == np.intp and members.shape == (math.comb(p, size), size)
            assert list(map(tuple, members.tolist())) == list(itertools.combinations(range(p), size))


def test_constants_three_inertia_phi_regression(three_inertia):
    # frozen values for the padded observer-bank coding matrix, q = r = 1
    from resilest.estimator import ObserverBank
    from resilest.plant import ObserverConfig, build_observer_bank

    bank = build_observer_bank(three_inertia, ObserverConfig(mode="contract", factor=0.98))
    phi = ObserverBank.stack(bank).phi
    c = robustness_constants(phi, 1, 1)
    assert c.theta == pytest.approx(2.0, rel=1e-9)
    assert c.rho == pytest.approx(1.414213562373095, rel=1e-9)
    assert c.eta == pytest.approx(0.707106781186548, rel=1e-9)
    assert c.rho_2q == pytest.approx(1.0, rel=1e-9)
    assert c.kappa_c == pytest.approx(5.196152422706633, rel=1e-9)
    assert c.eta_prime == 0.0
    assert c.kappa_c_prime == pytest.approx(1.0, rel=1e-9)
    assert c.kappa_d == pytest.approx(4.576491222541475, rel=1e-9)
    assert c.kappa_e == pytest.approx(7.8125592000412665, rel=1e-9)


def test_constants_undefined_when_not_correctable():
    phi = CodingMatrix(np.array([[1.0], [1.0], [0.0]]), 1, 3)
    with pytest.raises(CorrectabilityError):
        robustness_constants(phi, 1, 1)


def test_constants_parameter_validation():
    with pytest.raises(ValueError):
        robustness_constants(ONES3, q=1, r=3)
    with pytest.raises(ValueError):
        robustness_constants(ONES3, q=2, r=2)  # p < 2q+1


def reference_constants(phi, q, r):
    """Per-selection loop: one rank check, sigma_min or pinv per selection and
    one 2-norm per excluded block, with the inner pinvs of eta_prime redone
    for every outer selection."""
    p, n = phi.block_count, phi.block_len

    def comp(lam):
        return phi.compacted(IndexSet(lam, p))

    def sels(size):
        return itertools.combinations(range(1, p + 1), size)

    if any(matrix_rank(comp(lam)) < n for lam in sels(p - 2 * q)):
        raise CorrectabilityError("a (p-2q)-block selection is rank deficient")
    rho = min(sigma_min(comp(lam)) for lam in sels(p - q))
    rho_2q = min(sigma_min(comp(lam)) for lam in sels(p - 2 * q))
    blocks = [phi.block(i) for i in range(1, p + 1)]
    eta = 0.0
    for lam in sels(p - q):
        pin = pinv(comp(lam))
        for i in range(1, p + 1):
            if i not in lam:
                eta = max(eta, float(np.linalg.norm(blocks[i - 1] @ pin, 2)))
    eta_prime = 0.0
    for lam in sels(p - q):
        best_inner = math.inf
        for bar in itertools.combinations(lam, p - r):
            pin = pinv(comp(bar))
            worst = 0.0
            for i in lam:
                if i not in bar:
                    worst = max(worst, float(np.linalg.norm(blocks[i - 1] @ pin, 2)))
            best_inner = min(best_inner, worst)
        eta_prime = max(eta_prime, best_inner)
    sqrt_p = math.sqrt(p)
    theta = max(eta_prime * math.sqrt(p - r) + 1.0, math.sqrt(p - r))
    return RobustnessConstants(
        q=q, r=r, rho=rho, eta=eta,
        kappa_d=(sqrt_p + 1.0) * math.sqrt(p - q) / rho,
        kappa_e=(eta * math.sqrt(p - q) + 1.0) * (sqrt_p + 1.0),
        eta_prime=eta_prime, theta=theta,
        kappa_c=(theta + 1.0) * math.sqrt(p - 2 * q) / rho_2q,
        kappa_c_prime=(theta - 1.0) / max(float(np.linalg.norm(b, 2)) for b in blocks),
        rho_2q=rho_2q,
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(0, 2))
def test_batched_constants_equal_selection_loop(seed, q):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    p = int(rng.integers(2 * q + 1, 2 * q + 5))
    r = int(rng.integers(q, 2 * q + 1))
    entries = rng.normal(size=(n * p, n))
    if rng.random() < 0.2:  # a dead sensor breaks correctability for q >= 1
        blk = int(rng.integers(0, p))
        entries[blk * n:(blk + 1) * n] = 0.0
    phi = CodingMatrix(entries, n, p)
    try:
        want = reference_constants(phi, q, r)
    except CorrectabilityError:
        with pytest.raises(CorrectabilityError):
            robustness_constants(phi, q, r)
        return
    assert robustness_constants(phi, q, r) == want


def test_batched_constants_still_raise_when_not_correctable():
    entries = np.random.default_rng(5).normal(size=(10, 2))
    entries[4:6] = 0.0  # sensor 3 sees nothing, so a one-block selection is deficient
    phi = CodingMatrix(entries, 2, 5)
    with pytest.raises(CorrectabilityError):
        reference_constants(phi, 2, 3)
    with pytest.raises(CorrectabilityError):
        robustness_constants(phi, 2, 3)


def scanned_sizes(monkeypatch):
    """Selection sizes passed to the selection scan, in call order."""
    sizes = []
    scan = analysis._selection_sigma_min

    def spy(phi, size, eps_rel):
        sizes.append(size)
        return scan(phi, size, eps_rel)

    monkeypatch.setattr(analysis, "_selection_sigma_min", spy)
    return sizes


def test_constants_decide_correctability_from_the_rho_2q_pass(monkeypatch):
    phi = CodingMatrix(np.random.default_rng(9).normal(size=(18, 2)), 2, 9)
    want = reference_constants(phi, 2, 4)
    sizes = scanned_sizes(monkeypatch)
    assert robustness_constants(phi, 2, 4) == want
    assert sizes == [5, 7]  # rho_2q, then rho: no separate 2q-detectability scan
    entries = np.random.default_rng(5).normal(size=(10, 2))
    entries[4:6] = 0.0
    message = r"^constants undefined: correctability violated \(a 1-block selection is rank deficient\)$"
    sizes.clear()
    with pytest.raises(CorrectabilityError, match=message):
        robustness_constants(CodingMatrix(entries, 2, 5), 2, 3)
    assert sizes == [1]


def test_sigma_min_reads_zero_below_full_column_rank():
    rng = np.random.default_rng(11)
    full = rng.normal(size=(6, 3))
    deficient = full @ np.diag([1.0, 1.0, 0.0])
    assert sigma_min(full) == np.linalg.svd(full, compute_uv=False)[-1] > 0.0
    assert sigma_min(deficient) == 0.0
    assert sigma_min(rng.normal(size=(2, 3))) == 0.0  # wide: rank 2 < 3 columns
    assert sigma_min(np.stack([full, deficient])).tolist() == [sigma_min(full), 0.0]
    # the floor is the shared one: a direction at 1e-12 of sigma_max survives 1e-14 only
    tiny = full @ np.diag([1.0, 1.0, 1e-12])
    assert sigma_min(tiny) > 0.0
    assert sigma_min(tiny, eps_rel=1e-8) == 0.0


def test_constants_take_one_stacked_pinv_per_selection_size(monkeypatch):
    phi = CodingMatrix(np.random.default_rng(9).normal(size=(18, 2)), 2, 9)
    want = reference_constants(phi, 2, 4)
    shapes = []

    def spy(matrix, eps_rel=None):
        shapes.append(np.shape(matrix))
        return pinv(matrix, eps_rel)

    monkeypatch.setattr(analysis, "pinv", spy)
    assert robustness_constants(phi, 2, 4) == want
    # every 7-block and every 5-block selection once: 36 + 126, not 36 + 36 * 21
    assert sorted(shapes) == [(36, 14, 2), (126, 10, 2)]


# ---------------------------------------------------------------------------
# proposition-style equivalences on random matrices


def random_phi(rng):
    n = int(rng.integers(1, 4))
    p = int(rng.integers(max(2, n), 7))
    style = rng.integers(0, 3)
    entries = rng.normal(size=(n * p, n))
    if style == 1:
        for i in range(p):
            if rng.random() < 0.35:
                entries[i * n:(i + 1) * n] = 0.0
    elif style == 2 and n > 1:
        entries = rng.normal(size=(n * p, n - 1)) @ rng.normal(size=(n - 1, n))
    return CodingMatrix(entries, n, p)


def test_detectability_iff_cospark_exceeds_q():
    rng = np.random.default_rng(7)
    for _ in range(100):
        phi = random_phi(rng)
        cs = stacked_cospark(phi)
        for q in range(phi.block_count + 1):
            assert is_q_error_detectable(phi, q) == (cs > q)


def test_correctability_iff_cospark_exceeds_2q():
    rng = np.random.default_rng(8)
    for _ in range(60):
        phi = random_phi(rng)
        cs = stacked_cospark(phi)
        for q in range(phi.block_count // 2 + 1):
            assert is_q_error_correctable(phi, q) == (cs > 2 * q)


def test_detectability_monotone_in_q():
    rng = np.random.default_rng(9)
    for _ in range(30):
        phi = random_phi(rng)
        flags = [is_q_error_detectable(phi, q) for q in range(phi.block_count + 1)]
        for lo, hi in zip(flags, flags[1:]):
            assert lo or not hi  # detectable at q+1 implies detectable at q


def test_exact_size_selection_equivalent_to_all_larger():
    # deciding on |lam| = p-q alone agrees with checking every |lam| >= p-q
    def rank_of(mat):
        return 0 if mat.size == 0 else np.linalg.matrix_rank(mat)

    rng = np.random.default_rng(10)
    for _ in range(20):
        phi = random_phi(rng)
        p, n = phi.block_count, phi.block_len
        for q in range(p + 1):
            full_scan = all(
                rank_of(phi.compacted(IndexSet(lam, p))) == n
                for size in range(p - q, p + 1)
                for lam in itertools.combinations(range(1, p + 1), size)
            )
            assert is_q_error_detectable(phi, q, eps_rel=1e-10) == full_scan


def test_rho_nonincreasing_in_q():
    rng = np.random.default_rng(12)
    phi = CodingMatrix(rng.normal(size=(10, 2)), 2, 5)
    rhos = []
    for q in (0, 1, 2):
        c = robustness_constants(phi, q, q) if q else None
        if c:
            rhos.append(c.rho)
    assert rhos == sorted(rhos, reverse=True)


def planted_spectrum_system(rng, n, p):
    """Distinct-eigenvalue A with known eigenvectors and a C whose action on
    the j-th eigenvector is the j-th column of a sparsity-planted matrix."""
    eigvals = np.sort(rng.uniform(0.2, 0.95, size=n))
    while np.min(np.diff(eigvals)) < 0.05:
        eigvals = np.sort(rng.uniform(0.2, 0.95, size=n))
    basis = np.linalg.qr(rng.normal(size=(n, n)))[0] + 0.1 * rng.normal(size=(n, n))
    A = basis @ np.diag(eigvals) @ np.linalg.inv(basis)
    M = rng.normal(size=(p, n))
    M[np.abs(M) < 0.3] = 0.3 * np.sign(M[np.abs(M) < 0.3] + 0.5)
    for j in range(n):
        kill = rng.choice(p, size=rng.integers(0, p - 1), replace=False)
        M[kill, j] = 0.0
    C = M @ np.linalg.inv(basis)
    planted = min(int(np.count_nonzero(np.abs(M[:, j]) > 1e-9)) for j in range(n))
    return SystemModel(A=A, B=np.zeros((n, 1)), C=C), planted


def test_security_index_routes_agree_on_planted_systems():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        p = int(rng.integers(n + 1, 7))
        model, planted = planted_spectrum_system(rng, n, p)
        by_cospark = security_index(model, eps_rel=1e-8)
        by_eigvec = security_index_eigenvector(model, tol=1e-6)
        assert by_cospark == by_eigvec == planted


# ---------------------------------------------------------------------------
# analyze report


def test_analyze_three_inertia(three_inertia):
    rep = analyze(three_inertia)
    assert rep.security_index == 3
    assert rep.max_detectable_q == 2
    assert rep.max_correctable_q == 1
    assert rep.redundancy_degree == 2
    assert set(rep.per_q_constants) == {1}


def test_analyze_unobservable_pair():
    m = SystemModel(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)),
                    C=[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    rep = analyze(m)
    assert rep.security_index == 0
    assert rep.max_detectable_q == -1
    assert rep.max_correctable_q == -1
    # every sensor together is rank deficient: no corruption at all is needed
    assert rep.witness == IndexSet.empty(3)


def test_analyze_witness_three_inertia(three_inertia):
    # the three absolute angles: sensors 4 and 5 (angle differences) alone miss a
    # common rotation, so corrupting sensors 1-3 can hide it
    assert analyze(three_inertia).witness == IndexSet((1, 2, 3), 5)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), p=st.integers(1, 7),
       style=st.sampled_from(["dense", "sparse", "modal"]))
def test_analyze_equals_its_public_pieces(seed, n, p, style):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    C = rng.normal(size=(p, n))
    if style != "dense":
        C[rng.random(size=C.shape) < 0.5] = 0.0
    if style == "modal":  # each sensor sees a subset of decoupled modes: many tied selections
        A = np.diag(np.arange(1.0, n + 1.0) / (n + 1))
        C = (C != 0.0).astype(float)
    model = SystemModel(A=A, B=np.zeros((n, 1)), C=C)
    g = observability_matrix(model)
    rep = analyze(model)
    assert rep.security_index == reference_cospark(g)
    assert set(rep.per_q_constants) == set(range(1, rep.max_correctable_q + 1))
    for q, constants in rep.per_q_constants.items():
        assert constants == robustness_constants(g, q, q)
    deficient = reference_first_deficient(g)
    assert rep.witness == deficient.complement()
    assert len(rep.witness) == rep.security_index
    assert matrix_rank(g.compacted(deficient)) < n


def test_analyze_witness_is_the_first_deficient_selections_complement():
    # sensors 1, 2 see mode 1 and sensors 3, 4 see mode 2: at the stopping size 2,
    # {1,2} and {3,4} are both deficient, and the first of them names the witness
    m = SystemModel(A=np.diag([0.5, 0.8]), B=np.zeros((2, 1)),
                    C=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    rep = analyze(m)
    assert rep.security_index == 2
    assert rep.witness == IndexSet((3, 4), 4)


def test_analyze_scans_each_selection_size_once(monkeypatch, three_inertia):
    dense = SystemModel(A=np.random.default_rng(4).normal(size=(2, 2)), B=np.zeros((2, 1)),
                        C=np.random.default_rng(5).normal(size=(7, 2)))
    sizes = scanned_sizes(monkeypatch)
    rep = analyze(dense)
    assert (rep.security_index, sorted(rep.per_q_constants)) == (7, [1, 2, 3])
    assert sizes == list(range(7, -1, -1))  # the constants of q = 1, 2, 3 scan nothing new
    sizes.clear()
    with pytest.raises(CorrectabilityError):  # q = 2 needs 1-block selections: one new scan
        analyze(three_inertia, constants_q=2)
    assert sizes == [5, 4, 3, 2, 1]
