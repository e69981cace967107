import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilest import analysis
from conftest import compacted, dense_model, matrix_rank
from resilest._linalg import DEFAULT_EPS_REL, gram_floor, gram_rounding, pinv, sigma_min
from resilest.analysis import (
    CorrectabilityError,
    RobustnessConstants,
    SystemModel,
    UnsupportedInputError,
    analyze,
    coding_matrix,
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
from resilest.stacked import CodingMatrix, IndexSet

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
    assert np.array_equal(g.blocks[0], [[1.0, 0.0], [1.0, 0.0]])


def test_observability_matrix_nilpotent():
    m = SystemModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=[[1.0, 1.0]])
    g = observability_matrix(m)
    assert np.array_equal(g.blocks[0], [[1.0, 1.0], [0.0, 0.0]])


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
            sub = compacted(phi, IndexSet(lam, p))
            if sub.size == 0:
                continue
            _, s, vt = np.linalg.svd(sub)
            if s.size < n or s[-1] < tol * max(1.0, s[0]):
                candidates.append(vt[-1])
    for x in candidates:
        if np.linalg.norm(x) < 1e-12:
            continue
        x = x / np.linalg.norm(x)
        block_norms = np.linalg.norm((phi.entries @ x).reshape(p, n), axis=1)
        best = min(best, int(np.count_nonzero(block_norms > tol)))
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


def reference_first_deficient(phi, eps_rel=DEFAULT_EPS_REL):
    """Per-selection loop: one compacted copy and one rank check per selection,
    sizes p down to 0, returning the first rank-deficient selection (1-based)."""
    p, n = phi.block_count, phi.block_len
    for size in range(p, -1, -1):
        for lam in itertools.combinations(range(1, p + 1), size):
            if matrix_rank(compacted(phi, IndexSet(lam, p)), eps_rel) < n:
                return IndexSet(lam, p)
    raise AssertionError("unreachable: empty selection is always rank deficient")


def reference_cospark(phi, eps_rel=DEFAULT_EPS_REL):
    return phi.block_count - len(reference_first_deficient(phi, eps_rel))


def random_coding_entries(seed, n, p, style):
    """``(n p, n)`` entries: dense Gaussian, some zero or repeated blocks, or rank n - 1
    plus a perturbation near either floor."""
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
    return entries


CODING_STYLES = st.sampled_from(["dense", "zero", "repeat", "near"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), p=st.integers(0, 7),
       style=CODING_STYLES, eps_rel=st.sampled_from([DEFAULT_EPS_REL, 1e-8]))
def test_stacked_cospark_equals_selection_loop(seed, n, p, style, eps_rel):
    phi = CodingMatrix(random_coding_entries(seed, n, p, style), n, p)
    assert stacked_cospark(phi, eps_rel) == reference_cospark(phi, eps_rel)


def index_scan(phi, eps_rel=DEFAULT_EPS_REL):
    """The cospark and the deficient selection (1-based) of the group-set index scan."""
    cospark, deficient = analysis._index_scan(phi, eps_rel)
    return cospark, IndexSet(tuple(i + 1 for i in deficient), phi.block_count)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), p=st.integers(0, 7),
       style=CODING_STYLES, eps_rel=st.sampled_from([DEFAULT_EPS_REL, 1e-8]))
def test_index_scan_finds_the_reference_selection(seed, n, p, style, eps_rel):
    # the group-set scan gives the cospark and the first deficient selection of the
    # per-selection loop ("near" gives many weakly full-rank ones)
    phi = CodingMatrix(random_coding_entries(seed, n, p, style), n, p)
    want = reference_first_deficient(phi, eps_rel)
    assert index_scan(phi, eps_rel) == (p - len(want), want)


@pytest.mark.parametrize("blocks", [
    [1e-10 * np.eye(2), np.diag([1e4, 0.0])],
    [np.diag([1.0, 3e-14]), np.diag([1.0, 3e-14])],
], ids=["full-rank-beside-deficient", "full-rank-level"])
@pytest.mark.parametrize("stack_floats", [analysis._STACK_FLOATS, 1])
def test_upward_frontier_keeps_weakly_full_rank_selections(monkeypatch, blocks, stack_floats):
    # the SVD rule is not down-closed: {1, 2} is deficient under its floor 4 eps_rel sigma_max
    # while {1} is full rank under 2 eps_rel sigma_max (in the second case {2} as well, and
    # the two blocks form one group, whose first block alone is full rank).  A frontier of
    # deficient group sets alone would never test {1, 2}, and read index 1; a scan of first
    # blocks alone would read 2.  With one selection per SVD slice, the level's first
    # deficient selection is read across the slices
    monkeypatch.setattr(analysis, "_STACK_FLOATS", stack_floats)
    phi = CodingMatrix.from_blocks(blocks)
    want = reference_first_deficient(phi)
    assert want == IndexSet((1, 2), 2)
    assert index_scan(phi) == (0, want)


def test_a_weak_group_set_heavier_than_the_answer_sends_the_index_to_the_selection_scan(
        monkeypatch):
    # eight blocks within about 1e-12 of rank 3, so every SVD reads near its floor.  The
    # heaviest deficient selection of whole groups is {1, 2, 3, 4, 7} (the groups {1, 3},
    # {2, 4} and {7}), but the 6-selection {1, 2, 3, 4, 5, 7} is deficient too: a member of
    # the full-rank {1, 2, 3, 4, 5, 7, 8}, whose first blocks do not clear its floor.  The
    # downward frontier clears the sizes 8 and 7 between the upward levels; when the upward
    # one ends, it resumes below that weak set, at 6 blocks, and finds the per-selection
    # loop's
    phi = source_matrix(2752653453, 4, 8, ("subspaces", "near"))
    assert phi.groups == ((0, 2), (1, 3), (4, 7), (5,), (6,))
    assert analysis._selection_scan(phi, 5, DEFAULT_EPS_REL)[1] == (0, 1, 2, 3, 6)
    sizes = scanned_sizes(monkeypatch)
    want = reference_first_deficient(phi)
    assert want == IndexSet((1, 2, 3, 4, 5, 7), 8)
    assert index_scan(phi) == (2, want)
    assert sizes == [8, 7, 6]


def test_the_downward_frontier_resumes_below_the_heaviest_weak_group_set(monkeypatch):
    # three blocks with singular values 3.8 and 1.2e-10, one subspace to within 6e-15, form
    # one group: the upward frontier reads its one set first (a tie with the one 3-selection),
    # full rank but too close to its floor to certify its members.  A member has fewer than
    # the three blocks, so the downward frontier starts at size 2; only the empty selection
    # is deficient
    phi = source_matrix(3780837793, 2, 3, ("subspaces", "near"))
    assert phi.groups == ((0, 1, 2),)
    sizes = scanned_sizes(monkeypatch)
    assert reference_first_deficient(phi) == IndexSet((), 3)
    assert index_scan(phi) == (3, IndexSet((), 3))
    assert sizes == [2, 1, 0]


def decided_selections(monkeypatch):
    """Returns a callable giving the number of selections the rank scans decided since its
    last call, each counted once: the selection scan's chunks go to ``_floor_test`` and those
    it fails on to ``_svd_sigma_min``, the index scan's group sets to ``_svd_sigma_min`` alone.
    So each is decided by a floor test that passes or by one SVD (a scan's SVD confirmation of
    its winner decides nothing, and is not counted)."""
    certified, failed, svd = [], [], []
    floor_test, svd_sigma_min = analysis._floor_test, analysis._svd_sigma_min

    def spy_floor(grams, floor, margin):
        lam, clear = floor_test(grams, floor, margin)
        (certified if clear.all() else failed).append(len(grams))
        return lam, clear

    def spy_svd(phi, members, eps_rel):
        svd.append(len(members))
        return svd_sigma_min(phi, members, eps_rel)

    monkeypatch.setattr(analysis, "_floor_test", spy_floor)
    monkeypatch.setattr(analysis, "_svd_sigma_min", spy_svd)

    def count():
        assert sum(svd) >= sum(failed)
        total = sum(certified) + sum(svd)
        for calls in (certified, failed, svd):
            calls.clear()
        return total

    return count


def test_index_scan_decides_few_selections(monkeypatch, inertia_chain):
    count = decided_selections(monkeypatch)
    rng = np.random.default_rng(20)
    # every sensor of a dense model sees every mode: the downward frontier alone would decide
    # all 2^20 selections.  Its 20 blocks form one group, so the upward frontier's one group
    # set comes first (a tie with the one 20-selection), read through the full selection and
    # the first block, which is strong
    dense = coding_matrix(SystemModel(A=rng.normal(size=(4, 4)), B=np.zeros((4, 1)),
                                      C=rng.normal(size=(20, 4))))
    assert stacked_cospark(dense) == 20
    assert count() == 1 + 1
    # sensor 1 alone sees the fourth mode, and the other 13 share one subspace.  The
    # selection scan reads size 14 as one count vector and size 13 as two, {1} with 12 of
    # the rest and the 13 alone, which is deficient.  The index scan certifies size 14
    # downward, then reads upward the group {1} (one selection), the group of the other 13
    # (the 13 and its first block) and both groups (the 14 and the two first blocks)
    C = np.zeros((14, 4))
    C[0, 3] = 1.0
    C[1:, :3] = rng.normal(size=(13, 3))
    lone = coding_matrix(SystemModel(A=np.diag([0.2, 0.4, 0.6, 0.8]), B=np.zeros((4, 1)), C=C))
    assert lone.groups == ((0,), tuple(range(1, 14)))
    assert [is_q_error_detectable(lone, q) for q in (0, 1)] == [True, False]
    downward = count()
    assert downward == 1 + 2
    assert stacked_cospark(lone) == 1
    assert count() == 1 + 3 + 2
    # the 1 ms eight-inertia chain (p = 15, index 8; 22,819 selections by size alone): groups
    # of 8, 4, 2 and 1 blocks.  The downward frontier certifies the full selection; upward,
    # the eight angles' group is strong, and each of the 7 sets of the other three groups
    # takes the SVD of its full selection, and of its first blocks when those differ (all
    # but {12})
    chain = coding_matrix(inertia_chain(8, 0.001))
    assert [len(group) for group in chain.groups] == [8, 4, 2, 1]
    assert stacked_cospark(chain) == 8
    assert count() == 1 + 2 + 7 + 6


def test_index_scan_stops_downward_on_distinct_subspaces(monkeypatch):
    # block 1 sees e3 alone, and blocks 2..20 each a distinct direction in span(e1, e2): 20
    # singleton groups, every one deficient, and index 1.  The upward frontier alone would
    # take the SVD of every set of blocks 2..20 (2^19 - 1), each deficient.  The downward one
    # certifies the 20-selection, the upward one reads the 20 single groups, and then the
    # 190 pairs outnumber the 20 selections of size 19, which the downward frontier reads by
    # the SVD and finds {2, ..., 20} deficient
    count = decided_selections(monkeypatch)
    angles = np.linspace(0.0, np.pi, 19, endpoint=False)
    blocks = [np.diag([0.0, 0.0, 1.0])] + [
        np.array([[np.cos(a), np.sin(a), 0.0], [0.0] * 3, [0.0] * 3]) for a in angles]
    phi = CodingMatrix.from_blocks(blocks)
    assert len(phi.groups) == 20
    assert index_scan(phi) == (1, IndexSet(tuple(range(2, 21)), 20))
    assert count() == 1 + 20 + 20


def test_floor_test_refuses_nonfinite_grams(monkeypatch):
    # a Gram sum with a non-finite entry (one that overflowed) never clears the floor, and
    # eigvalsh never sees it: only the finite sums of the stack are passed on
    spectra = []

    def spy_eigvalsh(matrix):
        spectra.append(np.shape(matrix))
        return np.linalg.eigvalsh(matrix)

    monkeypatch.setattr(analysis, "eigvalsh", spy_eigvalsh)
    floor = gram_floor(3, 3)
    for bad in (np.nan, np.inf):
        grams = np.stack([np.eye(3), np.eye(3)])
        grams[1, 2, 0] = grams[1, 0, 2] = bad
        assert analysis._floor_test(grams[:1], floor, 0.0)[1].tolist() == [True]
        lam, clear = analysis._floor_test(grams, floor, 0.0)
        assert clear.tolist() == [True, False]
        assert np.isnan(lam[1]).all()
        grams[1] = np.diag([1.0, bad, 1.0])
        assert analysis._floor_test(grams, floor, 0.0)[1].tolist() == [True, False]
    assert spectra == [(1, 3, 3)] * 6


def test_a_chunk_holding_a_deficient_selection_falls_back_to_the_svd(monkeypatch):
    # sensors 4 and 6 see one direction between them: {4, 6} is the one deficient
    # 2-selection, number 16 of 21, in the last chunk of 2-selections when a chunk holds 8
    rng = np.random.default_rng(21)
    entries = rng.normal(size=(14, 2))
    entries[6:8] = np.outer(rng.normal(size=2), [1.0, 2.0])
    entries[10:12] = np.outer(rng.normal(size=2), [1.0, 2.0])
    phi = CodingMatrix(entries, 2, 7)
    want = reference_first_deficient(phi)
    assert want == IndexSet((4, 6), 7)
    assert stacked_cospark(phi) == reference_cospark(phi) == 5
    floors, spectra, stacks = [], [], []
    floor_test = analysis._floor_test

    def spy_floor(grams, floor, margin):
        lam, clear = floor_test(grams, floor, margin)
        floors.append((len(grams), bool(clear.all())))
        return lam, clear

    def spy_eigvalsh(matrix):
        spectra.append(np.shape(matrix))
        return np.linalg.eigvalsh(matrix)

    def spy_sigma_min(matrix, eps_rel=DEFAULT_EPS_REL):
        stacks.append(np.shape(matrix))
        return sigma_min(matrix, eps_rel)

    monkeypatch.setattr(analysis, "_floor_test", spy_floor)
    monkeypatch.setattr(analysis, "eigvalsh", spy_eigvalsh)
    monkeypatch.setattr(analysis, "sigma_min", spy_sigma_min)
    # 8 selections per chunk: the selection scan budgets one 2 x 2 array per selection
    monkeypatch.setattr(analysis, "_STACK_FLOATS", 32)
    assert [is_q_error_detectable(phi, q) for q in range(6)] == [True] * 5 + [False]
    # sizes 7..3 pass the floor test chunk by chunk, each chunk on one eigvalsh, and take no
    # SVD (detectability reads no sigma_min); at size 2 the first two chunks pass, and the
    # last, which holds {4, 6}, fails, takes the SVD of all five of its selections as a whole
    # (four 4 x 2 matrices per SVD stack) and stops the scan
    chunks = [(size, min(8, math.comb(7, size) - start))
              for size in range(7, 1, -1) for start in range(0, math.comb(7, size), 8)]
    assert floors == [(count, (size, count) != (2, 5)) for size, count in chunks]
    assert spectra == [(count, 2, 2) for _, count in chunks]
    assert stacks == [(4, 4, 2), (1, 4, 2)]
    sigma, deficient, _ = analysis._selection_scan(phi, 2, DEFAULT_EPS_REL)
    assert sigma == 0.0
    assert IndexSet(tuple(i + 1 for i in deficient), 7) == want


@pytest.mark.parametrize(("stack_floats", "calls"), [(analysis._STACK_FLOATS, 10), (64, 38)])
def test_detectability_checks_ranks_per_chunk(monkeypatch, stack_floats, calls):
    phi = CodingMatrix(np.random.default_rng(3).normal(size=(18, 2)), 2, 9)
    assert stacked_cospark(phi) == reference_cospark(phi) == 9
    floors, grams, stacks = [], [], []
    floor_test = analysis._floor_test

    def spy_floor(matrix, floor, margin):
        lam, clear = floor_test(matrix, floor, margin)
        floors.append(bool(clear.all()))
        return lam, clear

    def spy_eigvalsh(matrix):
        grams.append(np.shape(matrix))
        return np.linalg.eigvalsh(matrix)

    def spy_sigma_min(matrix, eps_rel=DEFAULT_EPS_REL):
        stacks.append(np.shape(matrix))
        return sigma_min(matrix, eps_rel)

    monkeypatch.setattr(analysis, "_floor_test", spy_floor)
    monkeypatch.setattr(analysis, "eigvalsh", spy_eigvalsh)
    monkeypatch.setattr(analysis, "sigma_min", spy_sigma_min)
    monkeypatch.setattr(analysis, "_STACK_FLOATS", stack_floats)
    assert [is_q_error_detectable(phi, q) for q in range(10)] == [True] * 9 + [False]
    # one batched eigvalsh of the Gram sums per chunk of each size 9, 8, ..., 0, not one per
    # selection (2^9); a chunk budgets one 2 x 2 array per selection
    chunks = []
    for size in range(9, -1, -1):
        step = max(1, stack_floats // 4)
        count = math.comb(9, size)
        chunks += [(min(step, count - start), 2, 2) for start in range(0, count, step)]
    assert grams == chunks
    assert len(grams) == calls
    # only the empty selection's zero Gram matrix fails the floor test: its chunk goes
    # straight to the SVD, which decides it.  No other size takes an SVD: detectability reads
    # no sigma_min, so no eigenvalue minimum is confirmed
    assert floors == [True] * (calls - 1) + [False]
    assert stacks == [(1, 0, 2)]


# bit-for-bit reports of the 1 ms inertia chains: (security index, max correctable q,
# {q: (rho, rho_2q, eta, kappa_c)}); the witness is each chain's N absolute angles
CHAIN_1MS_REPORTS = {
    3: (3, 1, {
        1: ("0x1.6a09e667f3bccp+0", "0x1.fffffffffffffp-1",
            "0x1.6a09e667f3bccp-1", "0x1.4c8dc2e423981p+2"),
    }),
    4: (4, 1, {
        1: ("0x1.bb67ae8584cacp+0", "0x1.6a09e667f3bcdp+0",
            "0x1.279a74590331bp-1", "0x1.5d105675e3e41p+2"),
    }),
    5: (5, 2, {
        1: ("0x1.ffffffffffffep+0", "0x1.bb67ae8584ca6p+0",
            "0x1.0000000000001p-1", "0x1.7645f19cb1674p+2"),
        2: ("0x1.bb67ae8584ca6p+0", "0x1.fffffffffffffp-1",
            "0x1.279a74590331dp-1", "0x1.04de64fafde42p+3"),
    }),
    6: (6, 2, {
        1: ("0x1.1e3779b97f4a7p+1", "0x1.0000000000000p+1",
            "0x1.c9f25c5bfedd6p-2", "0x1.8f9422c23c47fp+2"),
        2: ("0x1.0000000000000p+1", "0x1.6a09e667f3bc9p+0",
            "0x1.0000000000002p-1", "0x1.deeea11683f4ep+2"),
    }),
    7: (7, 3, {
        1: ("0x1.3988e1409212dp+1", "0x1.1e3779b97f4a8p+1",
            "0x1.a20bd700c2c3ep-2", "0x1.a7c3ea599fc36p+2"),
        2: ("0x1.1e3779b97f4a8p+1", "0x1.bb67ae8584ca6p+0",
            "0x1.c9f25c5bfeddcp-2", "0x1.de80d5b78e41fp+2"),
        3: ("0x1.fffffffffffffp+0", "0x1.0000000000000p+0",
            "0x1.0000000000003p-1", "0x1.60652f2216e17p+3"),
    }),
    8: (8, 3, {
        1: ("0x1.52a7fa9d2f8e7p+1", "0x1.3988e14092130p+1",
            "0x1.83091e6a7f7e9p-2", "0x1.beb0a17f8ac73p+2"),
        2: ("0x1.3988e14092130p+1", "0x1.0000000000001p+1",
            "0x1.a20bd700c2c3fp-2", "0x1.e8cbdcbf0ae4fp+2"),
        3: ("0x1.1e3779b97f4a7p+1", "0x1.6a09e667f3bcbp+0",
            "0x1.c9f25c5bfede4p-2", "0x1.2f088423eb41bp+3"),
    }),
}


@pytest.mark.parametrize("N", range(3, 9))
def test_analyze_1ms_chains_bit_for_bit(inertia_chain, N):
    rep = analyze(inertia_chain(N, 0.001))
    index, correctable, constants = CHAIN_1MS_REPORTS[N]
    assert (rep.security_index, rep.max_correctable_q) == (index, correctable)
    assert rep.witness == IndexSet(tuple(range(1, N + 1)), 2 * N - 1)
    got = {q: tuple(float(v).hex() for v in (c.rho, c.rho_2q, c.eta, c.kappa_c))
           for q, c in rep.per_q_constants.items()}
    assert got == constants


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


@pytest.mark.parametrize("N", range(3, 9))
def test_security_index_equals_eigenvector_oracle_on_1ms_chains(inertia_chain, N):
    # the monomial matrix read index 6 for N = 7 and 8: at 1 ms its selections fall to
    # round-off; the staircase bases keep every rank
    model = inertia_chain(N, 0.001)
    assert security_index(model) == security_index_eigenvector(model) == N


@pytest.mark.parametrize(("N", "groups"), [(12, 7), (16, 5), (20, 7)])
def test_security_index_reads_few_group_sets_on_10ms_chains(monkeypatch, inertia_chain, N,
                                                             groups):
    # p = 23, 31 and 39 sensors in 7, 5 and 7 subspaces.  Each group set the frontier reaches
    # takes at most two SVD'd selections, its full selection and its first blocks, so the
    # index reads at most 2 2^g selections.  The witness is the N absolute angles, the
    # complement of the N - 1 angle differences
    model = inertia_chain(N, 0.01)
    z = coding_matrix(model)
    assert len(z.groups) == groups
    decided = []
    svd_sigma_min = analysis._svd_sigma_min

    def spy_svd(phi, members, eps_rel):
        decided.append(len(members))
        return svd_sigma_min(phi, members, eps_rel)

    monkeypatch.setattr(analysis, "_svd_sigma_min", spy_svd)
    assert security_index(model) == security_index_eigenvector(model) == N
    assert sum(decided) <= 2 * 2 ** groups
    index, deficient = analysis._index_scan(z, DEFAULT_EPS_REL)
    witness = IndexSet(tuple(i + 1 for i in deficient), z.block_count).complement()
    assert (index, witness) == (N, IndexSet(tuple(range(1, N + 1)), z.block_count))


def test_coding_matrix_is_the_estimators_phi_bit_for_bit(three_inertia, inertia_chain):
    # the coding relation the bank and the decoder share: block i of the coding matrix is
    # observer i's Z_i', whose coordinates the bank's block i tracks, over zero padding rows
    from resilest.plant import ObserverConfig, build_observer_bank

    for model in (three_inertia, inertia_chain(5, 0.01)):
        observers = build_observer_bank(model, ObserverConfig(mode="contract", factor=0.98))
        z = coding_matrix(model)
        assert (z.block_len, z.block_count) == (model.n, model.p) == (model.n, len(observers))
        for i, obs in enumerate(observers):
            assert z.blocks[i, :obs.nu].tobytes() == obs.Z.T.tobytes()
            assert z.blocks[i, obs.nu:].tobytes() == bytes(8 * (model.n - obs.nu) * model.n)


def test_coding_matrix_takes_one_two_norm_of_a(monkeypatch, inertia_chain):
    # the staircase floor _STAIRCASE_TOL |A|_2 is one SVD of A per model, not one per sensor
    orders, norm = [], np.linalg.norm

    def spy_norm(x, ord=None, *args, **kwargs):
        orders.append(ord)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy_norm)
    model = inertia_chain(5, 0.01)
    coding_matrix(model)
    assert orders.count(2) == 1 and len(orders) > model.p


def test_analyze_constants_are_the_estimators(three_inertia):
    from resilest.plant import Scenario

    want = robustness_constants(coding_matrix(three_inertia), 1, 1)
    assert analyze(three_inertia).per_q_constants[1] == want
    assert Scenario(model=three_inertia, horizon=1, q=1, r=1).validate().constants == want
    assert want.kappa_c == pytest.approx(5.196152422706633, rel=1e-12)


def test_zero_output_row_reads_as_a_blind_sensor():
    # sensor 2 observes nothing: a zero block, not a ValueError
    A = np.array([[0.9, 0.2, 0.0], [0.0, 0.8, 0.1], [0.0, 0.0, 0.7]])
    C = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    model = SystemModel(A=A, B=np.zeros((3, 1)), C=C)
    z = coding_matrix(model)
    assert not z.blocks[1].any()
    g = observability_matrix(model)
    rep = analyze(model)
    assert rep.security_index == security_index(model) == reference_cospark(g)
    assert rep.witness == reference_first_deficient(g).complement()


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
    phi = coding_matrix(three_inertia)
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
    with pytest.raises(CorrectabilityError, match="needs p >= 2q"):
        robustness_constants(ONES3, q=2, r=2)  # p < 2q+1


def reference_constants(phi, q, r):
    """Per-selection loop: one rank check, sigma_min or pinv per selection and
    one 2-norm per excluded block, with the inner pinvs of eta_prime redone
    for every outer selection."""
    p, n = phi.block_count, phi.block_len

    def comp(lam):
        return compacted(phi, IndexSet(lam, p))

    def sels(size):
        return itertools.combinations(range(1, p + 1), size)

    if any(matrix_rank(comp(lam)) < n for lam in sels(p - 2 * q)):
        raise CorrectabilityError("a (p-2q)-block selection is rank deficient")
    rho = min(sigma_min(comp(lam)) for lam in sels(p - q))
    rho_2q = min(sigma_min(comp(lam)) for lam in sels(p - 2 * q))
    blocks = list(phi.blocks)
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


# the selections whose gains read a Gram inverse, per chunk, on the 1 ms monomial chains
MONOMIAL_INVERTED = {(4, 1, 1): [7], (4, 1, 2): [7], (5, 1, 1): [9], (5, 1, 2): [9],
                     (6, 1, 1): [11], (6, 1, 2): [22, 11], (7, 1, 1): [13],
                     (7, 1, 2): [16, 16, 13], (8, 1, 1): [15], (8, 1, 2): [12] * 6 + [15],
                     (5, 2, 3): [], (6, 2, 3): [22]}


@pytest.mark.parametrize(("N", "q", "r"), list(MONOMIAL_INVERTED))
def test_monomial_chain_constants_equal_the_per_selection_references(monkeypatch, inertia_chain,
                                                                     N, q, r):
    # at 1 ms the monomial (p - 2q)-selections fall to round-off: the rho_2q scan's chunks
    # fail the floor test and go to the SVD as a whole.  At q = 1 the p (p - 1)-selections,
    # one chunk, clear it, and their gains read one Gram inverse; of the smaller sizes whose
    # gains the constants read, only some chunks clear it.  Every constant is the
    # per-selection loop's to 1e-12
    phi = observability_matrix(inertia_chain(N, 0.001))
    n = phi.block_len
    want = reference_constants(phi, q, r)
    inverses = []

    def spy_inv(matrix):
        inverses.append(np.shape(matrix))
        return np.linalg.inv(matrix)

    monkeypatch.setattr(analysis, "inv", spy_inv)
    got = robustness_constants(phi, q, r)
    assert inverses == [(count, n, n) for count in MONOMIAL_INVERTED[N, q, r]]
    for name, value in vars(want).items():
        assert getattr(got, name) == pytest.approx(value, rel=1e-12, abs=0.0), name


def test_batched_constants_still_raise_when_not_correctable():
    entries = np.random.default_rng(5).normal(size=(10, 2))
    entries[4:6] = 0.0  # sensor 3 sees nothing, so a one-block selection is deficient
    phi = CodingMatrix(entries, 2, 5)
    with pytest.raises(CorrectabilityError):
        reference_constants(phi, 2, 3)
    with pytest.raises(CorrectabilityError):
        robustness_constants(phi, 2, 3)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), p=st.integers(3, 7))
def test_constants_of_overflowing_gram_sums_equal_the_per_selection_references(seed, n, p):
    # finite entries, half of them scaled by 10^150..10^300: many G_i and G_S overflow to inf
    # or NaN.  Such a Gram sum never clears the floor and never reaches eigvalsh, so its chunk
    # takes the SVD route, and the constants are the per-selection loop's, or refused exactly
    # when that loop finds a deficient (p - 2q)- or (p - q)-selection
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((n * p, n))
    big = rng.random(entries.shape) < 0.5
    entries[big] *= 10.0 ** rng.uniform(150, 300, size=np.count_nonzero(big))
    with np.errstate(over="ignore", invalid="ignore"):
        phi = CodingMatrix(entries, n, p)
        for q in range(1, (p - 1) // 2 + 1):
            for r in range(q, 2 * q + 1):
                try:
                    want = reference_constants(phi, q, r)
                except CorrectabilityError:
                    want = None
                if want is None or want.rho == 0.0:
                    with pytest.raises(CorrectabilityError):
                        robustness_constants(phi, q, r)
                else:
                    assert robustness_constants(phi, q, r) == want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), p=st.integers(1, 7))
def test_index_of_overflowing_gram_sums_equals_the_per_selection_reference(seed, n, p):
    # the same entries: the index scan's Gram traces and squared sigma_min overflow, so no
    # group set is strong or certifies its members, and the index is still the per-selection
    # loop's; no overflow warning escapes (warnings fail the suite)
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((n * p, n))
    big = rng.random(entries.shape) < 0.5
    entries[big] *= 10.0 ** rng.uniform(150, 300, size=np.count_nonzero(big))
    phi = CodingMatrix(entries, n, p)
    want = reference_first_deficient(phi)
    assert index_scan(phi) == (p - len(want), want)


def scanned_sizes(monkeypatch):
    """Selection sizes passed to the selection scan, in call order."""
    sizes = []
    scan = analysis._selection_scan

    def spy(phi, size, eps_rel):
        sizes.append(size)
        return scan(phi, size, eps_rel)

    monkeypatch.setattr(analysis, "_selection_scan", spy)
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


def tie_heavy_entries(seed, n, p, style):
    """``(n p, n)`` entries whose selections of one size tie: random square orthonormal
    blocks (each ``G_S`` is ``|S| I`` to round-off), or one Gaussian block repeated."""
    rng = np.random.default_rng(seed)
    if style == "orthonormal":
        return np.concatenate([np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(p)])
    return np.tile(rng.normal(size=(n, n)), (p, 1))


def repeated_subspace_matrix(seed, n, p, style):
    """A coding matrix whose blocks repeat sensor subspaces: the staircase bases of a model
    whose output rows repeat earlier ones as they are ("duplicated") or scaled ("scaled"), the
    tie-heavy entries, or rank-deficient entries near either floor whose later blocks repeat
    earlier ones turned by a random orthogonal matrix ("near", equal Gram matrices to
    round-off, many weakly full-rank selections)."""
    rng = np.random.default_rng(seed)
    if style in ("orthonormal", "repeated"):
        return CodingMatrix(tie_heavy_entries(seed, n, p, style), n, p)
    if style == "near":
        blocks = random_coding_entries(seed, n, p, "near").reshape(p, n, n)
        for i in range(1, p):
            if rng.random() < 0.6:
                turn = np.linalg.qr(rng.normal(size=(n, n)))[0]
                blocks[i] = turn @ blocks[int(rng.integers(0, i))]
        return CodingMatrix(blocks.reshape(p * n, n), n, p)
    A = rng.normal(size=(n, n))
    if rng.random() < 0.5:  # decoupled modes: each sensor sees a subset of them
        A = np.diag(rng.uniform(0.1, 0.9, size=n))
    C = rng.normal(size=(p, n))
    C[rng.random(size=C.shape) < 0.3] = 0.0
    for i in range(1, p):
        if rng.random() < 0.6:
            scale = rng.choice([-3.0, -1.0, 0.5, 7.0]) if style == "scaled" else 1.0
            C[i] = scale * C[int(rng.integers(0, i))]
    return coding_matrix(SystemModel(A=A, B=np.zeros((n, 1)), C=C))


MATRIX_SOURCES = st.sampled_from(
    [("entries", style) for style in ("dense", "zero", "repeat", "near")]
    + [("subspaces", style) for style in ("duplicated", "scaled", "orthonormal", "repeated",
                                          "near")])


def source_matrix(seed, n, p, source):
    """A coding matrix of a ``MATRIX_SOURCES`` entry: :func:`random_coding_entries` or
    :func:`repeated_subspace_matrix` of that style."""
    kind, style = source
    if kind == "entries":
        return CodingMatrix(random_coding_entries(seed, n, p, style), n, p)
    return repeated_subspace_matrix(seed, n, p, style)


def svd_minimum(phi, size, eps_rel=DEFAULT_EPS_REL):
    """The smallest per-selection SVD ``sigma_min`` over the ``size``-selections."""
    return float(sigma_min(phi.selection_stack(sensor_selections(phi.block_count, size)),
                           eps_rel).min())


def confirmed_scan(phi, size, eps_rel=DEFAULT_EPS_REL):
    """The selection scan's ``(sigma_min, first deficient)``, an eigenvalue minimum confirmed
    by its winner's SVD as rho reads it."""
    rho, first, winner = analysis._selection_scan(phi, size, eps_rel)
    if winner is not None:
        rho = sigma_min(phi.selection_stack(winner[None]), eps_rel)[0]
    return rho, first


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), p=st.integers(1, 7),
       source=MATRIX_SOURCES, eps_rel=st.sampled_from([DEFAULT_EPS_REL, 1e-8]),
       chunk=st.integers(1, 18))
def test_count_vector_scans_equal_the_per_selection_references(seed, n, p, source, eps_rel,
                                                               chunk):
    phi = source_matrix(seed, n, p, source)
    p = phi.block_count
    labels = np.zeros(p, dtype=int)
    for j, group in enumerate(phi.groups):
        labels[list(group)] = j
    band = math.sqrt(gram_rounding(p * n, n))
    with pytest.MonkeyPatch.context() as patch:
        # chunk representatives per chunk of the selection scan, which budgets n^2 floats each
        patch.setattr(analysis, "_STACK_FLOATS", chunk * n * n)
        for size in range(p + 1):
            selections = list(itertools.combinations(range(p), size))
            # each count vector's representative is its lexicographically first member, and
            # the representatives come in lexicographic order
            firsts = {}
            for sel in selections:
                firsts.setdefault(tuple(np.bincount(labels[list(sel)], minlength=p)), sel)
            reps = [tuple(row) for members, _ in analysis._selection_grams(phi, size, 3 * n * n)
                    for row in members.tolist()]
            assert reps == sorted(firsts.values())
            # the selection scan names the first deficient selection of the per-selection loop,
            # and the smallest sigma_min, to within the Gram rounding band: 0.0 exactly when
            # it names a deficient selection
            ranks = [matrix_rank(compacted(phi, IndexSet(tuple(i + 1 for i in sel), p)), eps_rel)
                     for sel in selections]
            want = next((sel for sel, rank in zip(selections, ranks) if rank < n), None)
            got, first, _ = analysis._selection_scan(phi, size, eps_rel)
            assert first == want
            assert (got == 0.0) == (first is not None)
            assert got == pytest.approx(svd_minimum(phi, size, eps_rel), rel=band, abs=0.0)
    # the index and its witness
    want = reference_first_deficient(phi, eps_rel)
    cospark, deficient = analysis._index_scan(phi, eps_rel)
    assert (cospark, IndexSet(tuple(i + 1 for i in deficient), p)) == (p - len(want), want)
    # the constants the per-selection loop reads at the default tolerance, to within the band
    rng = np.random.default_rng(seed)
    for q in range(1, (p - 1) // 2 + 1):
        r = int(rng.integers(q, 2 * q + 1))
        try:
            exhaustive = reference_constants(phi, q, r)
        except CorrectabilityError:
            with pytest.raises(CorrectabilityError):
                robustness_constants(phi, q, r)
            continue
        got = robustness_constants(phi, q, r)
        for name in ("rho", "rho_2q", "eta"):
            assert getattr(got, name) == pytest.approx(getattr(exhaustive, name), rel=band,
                                                       abs=0.0), name
        # a gain from the SVD route is its group's largest over the count vector, so
        # eta_prime, a max of mins of maxes, can only read high
        assert got.eta_prime >= exhaustive.eta_prime * (1.0 - band)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), p=st.integers(2, 7),
       source=MATRIX_SOURCES, eps_rel=st.sampled_from([DEFAULT_EPS_REL, 1e-8]))
def test_constants_exist_only_on_correctable_matrices(seed, n, p, source, eps_rel):
    # Scenario.validate decides 2q-redundant observability by computing the constants: they
    # never accept a matrix the correctability scan rejects.  The converse fails only near
    # the floor, where the SVD rank rule is not monotone, and only at the (p - q)-selections
    phi = source_matrix(seed, n, p, source)
    p = phi.block_count
    for q in range(1, p // 2 + 1):
        correctable = is_q_error_correctable(phi, q, eps_rel)
        try:
            robustness_constants(phi, q, q, eps_rel)
        except CorrectabilityError as exc:
            if correctable:
                assert f"(a {p - q}-block selection is rank deficient)" in str(exc)
                assert not is_q_error_detectable(phi, q, eps_rel)
        else:
            assert correctable


def test_constants_refuse_a_correctable_matrix_near_the_floor():
    # every 2-selection is full rank, so the matrix is 2-error correctable, yet a 4-selection
    # is deficient: its floor grows with its rows, and the constants need rho > 0
    phi = repeated_subspace_matrix(1494, 2, 6, "near")
    assert is_q_error_correctable(phi, 2)
    assert not is_q_error_detectable(phi, 2)
    with pytest.raises(CorrectabilityError, match=r"\(a 4-block selection is rank deficient\)"):
        robustness_constants(phi, 2, 2)


def test_a_full_rank_representative_expands_to_its_deficient_member(monkeypatch):
    # two subspaces, each seen by a pair of blocks whose Gram matrices agree to within tau:
    # {1, 4} see diag(1, s^2) and {2, 3} diag(s^2, 1), with s = 2.0001e-8 for blocks 1 and 2
    # and 1.9999e-8 for blocks 3 and 4.  Under eps_rel = 1e-8 the SVD floor of one block is
    # 2e-8, so blocks 1 and 2 are full rank and blocks 3 and 4 deficient.  Size 1 holds two
    # count vectors, represented by {1} and {2}; neither representative is deficient, and
    # neither clears the floor, so each expands to its count vector's other member.  With one
    # representative per chunk, {1} finds {4} deficient; the scan must still read {2}, which
    # precedes {4}, and its member {3} is the first deficient selection
    eps_rel = 1e-8
    phi = CodingMatrix.from_blocks([np.diag([1.0, 2.0001e-8]), np.diag([2.0001e-8, 1.0]),
                                    np.diag([1.9999e-8, 1.0]), np.diag([1.0, 1.9999e-8])])
    assert phi.groups == ((0, 3), (1, 2))
    monkeypatch.setattr(analysis, "_STACK_FLOATS", 4)  # one representative per chunk
    expanded = []
    members = analysis._members

    def spy_members(phi, reps):
        expanded.append(reps.tolist())
        return members(phi, reps)

    monkeypatch.setattr(analysis, "_members", spy_members)
    assert reference_first_deficient(phi, eps_rel) == IndexSet((1, 4), 4)
    assert analysis._selection_scan(phi, 1, eps_rel) == (0.0, (2,), None)
    assert expanded == [[[0]], [[1]]]
    # size 2: {1, 2} clears the floor for its count vector; {1, 4}, the next representative,
    # is deficient
    assert analysis._selection_scan(phi, 2, eps_rel) == (0.0, (0, 3), None)
    assert analysis._index_scan(phi, eps_rel) == (2, (0, 3))
    expanded.clear()
    # with both representatives in one chunk, the chunk expands them together
    monkeypatch.setattr(analysis, "_STACK_FLOATS", 2 * 4)
    assert analysis._selection_scan(phi, 1, eps_rel) == (0.0, (2,), None)
    assert expanded == [[[0], [1]]]


def test_the_selection_scan_stops_at_a_representative_after_a_deficient_member(monkeypatch):
    # the matrix above with a fifth block, the identity, in a group of its own.  Size 1 then
    # holds three count vectors, represented by {1}, {2} and {5}; with one representative per
    # chunk, {2} expands to the deficient {3}, and the chunk of {5}, which follows it, ends
    # the scan before its floor test
    eps_rel = 1e-8
    phi = CodingMatrix.from_blocks([np.diag([1.0, 2.0001e-8]), np.diag([2.0001e-8, 1.0]),
                                    np.diag([1.9999e-8, 1.0]), np.diag([1.0, 1.9999e-8]),
                                    np.eye(2)])
    assert phi.groups == ((0, 3), (1, 2), (4,))
    monkeypatch.setattr(analysis, "_STACK_FLOATS", 4)  # one representative per chunk
    chunks, tested = [], []
    grams, floor_test = analysis._selection_grams, analysis._floor_test

    def spy_grams(*args):
        for chunk in grams(*args):
            chunks.append(chunk[0].tolist())
            yield chunk

    def spy_floor_test(*args):
        tested.append(chunks[-1])
        return floor_test(*args)

    monkeypatch.setattr(analysis, "_selection_grams", spy_grams)
    monkeypatch.setattr(analysis, "_floor_test", spy_floor_test)
    first = next(sel for sel in itertools.combinations(range(5), 1)
                 if matrix_rank(compacted(phi, IndexSet(tuple(i + 1 for i in sel), 5)),
                                eps_rel) < 2)
    assert analysis._selection_scan(phi, 1, eps_rel) == (0.0, first, None) == (0.0, (2,), None)
    assert chunks == [[[0]], [[1]], [[4]]]
    assert tested == [[[0]], [[1]]]
    want = reference_first_deficient(phi, eps_rel)
    assert want == IndexSet((1, 4), 5)
    assert index_scan(phi, eps_rel) == (3, want)


def test_distinct_subspaces_scan_every_subset_bit_for_bit(three_inertia):
    # the three-inertia plant's monomial observability matrix: its five G_i are all distinct,
    # so every group is a singleton, the margin is 0, and the scans read every subset in the
    # chunks of the subset enumeration, with the results of that scan, bit for bit
    phi = observability_matrix(three_inertia)
    p, n = phi.block_count, phi.block_len
    assert phi.groups == tuple((i,) for i in range(p))
    assert phi.group_spread == 0.0 and analysis._margin(phi, p) == 0.0
    table = phi.grams.reshape(p, n * n)
    for size in range(p + 1):
        for floats in (n * n, 3 * n * n, analysis._STACK_FLOATS // 4):
            step = analysis._per_chunk(floats)
            subsets = sensor_selections(p, size)
            chunks = list(analysis._selection_grams(phi, size, floats))
            assert len(chunks) == max(1, math.ceil(len(subsets) / step))
            for k, (members, grams) in enumerate(chunks):
                want = subsets[k * step:(k + 1) * step]
                inside = np.zeros((len(want), p))
                np.put_along_axis(inside, want, 1.0, axis=1)
                assert np.array_equal(members, want)
                assert np.array_equal(grams, (inside @ table).reshape(len(want), n, n))
    scans = [confirmed_scan(phi, size) for size in range(p + 1)]
    assert [first for _, first in scans] == [(), (1,), (3, 4), None, None, None]
    assert [float(sigma).hex() for sigma, _ in scans] == [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.16c3b57deba03p-22", "0x1.766ece92f3820p-9",
        "0x1.11ad3c19aafabp-8"]
    got = {r: {k: float(v).hex() for k, v in vars(robustness_constants(phi, 1, r)).items()}
           for r in (1, 2)}
    assert got[1]["rho"] == got[2]["rho"] == "0x1.766ece92f3820p-9"
    assert got[1]["rho_2q"] == got[2]["rho_2q"] == "0x1.16c3b57deba03p-22"
    assert got[1]["eta"] == got[2]["eta"] == "0x1.4a7e9caf802fap+0"
    assert (got[1]["eta_prime"], got[2]["eta_prime"]) == ("0x0.0p+0", "0x1.bb67ae58d1da8p+0")
    assert (got[1]["kappa_c"], got[2]["kappa_c"]) == ("0x1.31658fabe77ecp+24",
                                                      "0x1.fcfe99ffb8764p+24")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), p=st.integers(1, 8),
       power=st.integers(-3, 3))
def test_blocks_farther_apart_than_tau_are_never_grouped(seed, n, p, power):
    # blocks near copies of earlier ones, moved by 10^power times the grouping tolerance:
    # every block lies within tau of its group's first, a block joins the first group that
    # close, and each group's first lies farther than tau from every earlier group's first
    rng = np.random.default_rng(seed)
    blocks = rng.normal(size=(p, n, n))
    b = gram_rounding(p * n, n)
    for i in range(1, p):
        if rng.random() < 0.7:
            source = blocks[int(rng.integers(0, i))]
            gram = source.T @ source
            step = rng.normal(size=(n, n))
            step = (step + step.T) / np.linalg.norm(step + step.T)
            w, v = np.linalg.eigh(gram + 10.0 ** power * b * np.linalg.norm(gram) * step)
            blocks[i] = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T  # a block of that Gram matrix
    phi = CodingMatrix(blocks.reshape(p * n, n), n, p)
    grams = phi.grams
    tau = b * np.linalg.norm(grams, axis=(1, 2))
    firsts = [group[0] for group in phi.groups]
    assert sorted(itertools.chain.from_iterable(phi.groups)) == list(range(p))
    for j, group in enumerate(phi.groups):
        assert list(group) == sorted(group) and group[0] == min(group)
        for i in group:
            near = [k for k in firsts if k <= i and np.linalg.norm(grams[i] - grams[k]) <= tau[k]]
            assert near[0] == group[0]
        assert all(np.linalg.norm(grams[group[0]] - grams[k]) > tau[k] for k in firsts[:j])
    assert phi.group_spread <= max(tau[firsts], default=0.0)


def test_gram_gap_just_above_tau_opens_a_group():
    # two identity blocks and one whose Gram matrix is (1 + d) I: grouped at d = tau / 2,
    # apart at d = 2 tau (the Frobenius gap is d sqrt(2), against tau |I|_F = tau sqrt(2))
    tau = gram_rounding(3 * 2, 2)
    for d, groups in ((tau / 2, ((0, 1, 2),)), (2 * tau, ((0, 1), (2,)))):
        phi = CodingMatrix.from_blocks([np.eye(2), np.eye(2), math.sqrt(1 + d) * np.eye(2)])
        assert phi.groups == groups


@pytest.mark.parametrize(("p", "q", "r"), [(9, 2, 4), (15, 3, 6), (20, 3, 6)])
def test_lexicographic_ranks_equal_the_sorted_rows(p, q, r):
    # the ranks by which eta_prime finds each (p - r)-subselection's gains row: the
    # combinatorial number system gives the rows a sort of them would.  Every (p - r)-subset
    # is some row's subselection, so that sort is sensor_selections(p, p - r) itself: each
    # row's rank is its position there, found by its bit mask
    outer = sensor_selections(p, p - q)
    subs = outer[:, sensor_selections(p - q, p - r)]
    masks, table = (1 << subs).sum(-1), (1 << sensor_selections(p, p - r)).sum(-1)
    order = np.argsort(table)
    want = order[np.searchsorted(table, masks, sorter=order)]
    assert np.array_equal(table[want], masks)
    assert np.array_equal(analysis._lex_rank(subs, p), want)


def test_rho_scan_keeps_a_selection_the_floor_sends_to_the_svd(monkeypatch):
    # {1} sets rho = 1e-7 from its eigenvalues.  {2} = diag(1, 1e-6) has lambda_min = 1e-12
    # above rho^2, yet below the Gram floor (7.3e-8 of lambda_max), and its SVD reads it rank
    # deficient under eps_rel = 1e-6: the scan must send it to the SVD, not read it as rho^2
    monkeypatch.setattr(analysis, "_STACK_FLOATS", 4)  # one selection per chunk
    phi = CodingMatrix.from_blocks([1e-7 * np.eye(2), np.diag([1.0, 1e-6])])
    assert analysis._selection_scan(phi, 1, 1e-6) == (0.0, (1,), None)
    assert svd_minimum(phi, 1, 1e-6) == 0.0


def count_vectors(phi, size):
    """The number of distinct count vectors (members per group of ``phi.groups``) among the
    ``size``-selections, counted over every selection."""
    labels = np.zeros(phi.block_count, dtype=int)
    for j, group in enumerate(phi.groups):
        labels[list(group)] = j
    return len({tuple(np.bincount(labels[list(s)], minlength=len(phi.groups)))
                for s in itertools.combinations(range(phi.block_count), size)})


@pytest.mark.parametrize(("N", "read"), [(7, 37), (8, 78)])
def test_rho_scans_read_few_eigenvalues_on_1ms_chains(monkeypatch, inertia_chain, N, read):
    # analyze reads rho at five sizes: 2,808 selections on N = 7 (sizes 12, 11, 10, 9, 7) and
    # 6,945 on N = 8 (14, 13, 12, 11, 9).  They hold 37 and 78 count vectors (on N = 8, 4 + 9 +
    # 15 + 21 + 29), and each size's representatives fit one chunk, so the scans read the
    # eigenvalues of each representative once.  Besides them, the index scan's downward
    # frontier reads the size p (its groups' sets take the SVD), and the gains' floor test
    # the sizes p - q
    phi = coding_matrix(inertia_chain(N, 0.001))
    p = phi.block_count
    assert sum(count_vectors(phi, size) for size in (p - 1, p - 2, p - 3, p - 4, p - 6)) == read
    counts = []

    def spy_eigvalsh(matrix):
        if np.ndim(matrix) == 3:  # a chunk of Gram sums, not the gains' (c, p - size, n, n)
            counts.append(len(matrix))
        return np.linalg.eigvalsh(matrix)

    monkeypatch.setattr(analysis, "eigvalsh", spy_eigvalsh)
    rep = analyze(inertia_chain(N, 0.001))
    index, correctable, constants = CHAIN_1MS_REPORTS[N]
    assert (rep.security_index, rep.max_correctable_q) == (index, correctable)
    downward = count_vectors(phi, p)
    gains = sum(count_vectors(phi, p - q) for q in range(1, correctable + 1))
    assert (downward, gains) == {7: (1, 3 + 5 + 7), 8: (1, 4 + 9 + 15)}[N]
    assert sum(counts) == read + downward + gains


@pytest.mark.parametrize(("N", "T_s", "q", "r"), [(3, 0.001, 1, 1), (5, 0.01, 2, 4)],
                         ids=["demo", "chain_search"])
def test_rho_scans_of_one_chunk_take_no_svd_route(monkeypatch, inertia_chain, N, T_s, q, r):
    # the demo's three-inertia plant (p = 5) and the simulated five-inertia chain (p = 9):
    # each rho scan reads its representatives in one eigvalsh, every one clears the floor, and
    # it takes no SVD.  Its minimum, and its winner's SVD (which rho reads), are the
    # per-selection SVD minimum to within the Gram rounding band
    phi = coding_matrix(inertia_chain(N, T_s))
    p, n = phi.block_count, phi.block_len
    spectra, routes, stacks = [], [], []
    svd_sigma_min = analysis._svd_sigma_min

    def spy_eigvalsh(matrix):
        spectra.append(len(matrix))
        return np.linalg.eigvalsh(matrix)

    def spy_svd(phi, members, eps_rel):
        routes.append(len(members))
        return svd_sigma_min(phi, members, eps_rel)

    def spy_sigma_min(matrix, eps_rel=DEFAULT_EPS_REL):
        stacks.append(np.shape(matrix))
        return sigma_min(matrix, eps_rel)

    monkeypatch.setattr(analysis, "eigvalsh", spy_eigvalsh)
    monkeypatch.setattr(analysis, "_svd_sigma_min", spy_svd)
    monkeypatch.setattr(analysis, "sigma_min", spy_sigma_min)
    sizes = (p - q, p - 2 * q)
    for size in sizes:
        got, first, winner = analysis._selection_scan(phi, size, DEFAULT_EPS_REL)
        assert first is None
        for value in (got, sigma_min(phi.selection_stack(winner[None]))[0]):
            assert value == pytest.approx(svd_minimum(phi, size),
                                          rel=math.sqrt(gram_rounding(p * n, n)), abs=0.0)
    assert spectra == [count_vectors(phi, size) for size in sizes]
    assert routes == []
    assert stacks == []


def test_tied_selections_read_one_representative_per_size(monkeypatch):
    # a dense p = 16 model: its constants read rho at eleven sizes, and the sixteen blocks
    # share one subspace, so each size is one count vector, read by one eigvalsh that clears
    # the floor, and no SVD route
    model = dense_model(16, 16)
    z = coding_matrix(model)
    sizes = [15, 14, 13, 12, 11, 10, 9, 8, 6, 4, 2]
    spectra, routes = [], []
    svd_sigma_min = analysis._svd_sigma_min

    def spy_eigvalsh(matrix):
        spectra.append(len(matrix))
        return np.linalg.eigvalsh(matrix)

    def spy_svd(phi, members, eps_rel):
        routes.append(len(members))
        return svd_sigma_min(phi, members, eps_rel)

    monkeypatch.setattr(analysis, "eigvalsh", spy_eigvalsh)
    monkeypatch.setattr(analysis, "_svd_sigma_min", spy_svd)
    scans = {size: confirmed_scan(z, size) for size in sizes}
    assert all(first is None for _, first in scans.values())
    got = {size: sigma for size, (sigma, _) in scans.items()}
    assert routes == []
    assert z.groups == (tuple(range(16)),)
    assert spectra == [1] * len(sizes)
    band = math.sqrt(gram_rounding(16 * 4, 4))
    for size in sizes:
        assert got[size] == pytest.approx(svd_minimum(z, size), rel=band, abs=0.0)
    rep = analyze(model)
    assert (rep.security_index, sorted(rep.per_q_constants)) == (16, list(range(1, 8)))
    for q, c in rep.per_q_constants.items():
        assert (c.rho, c.rho_2q) == (got[16 - q], got[16 - 2 * q])


@pytest.mark.parametrize(("p", "q", "r", "peak_mb"),
                         [(26, 3, 6, 8), (26, 3, 4, 8), (26, 1, 2, 8), (40, 3, 6, 32),
                          (63, 3, 6, 20), (68, 3, 6, 20), (100, 3, 6, 40)])
def test_dense_constants_read_one_count_vector_per_size(p, q, r, peak_mb):
    # a dense model at r > q: eta_prime's maximum over the (p - q)-selections of a minimum
    # over their (p - r)-subselections reads one (p - q)-representative and one of its
    # subselections.  G_S = (p - r) I on every (p - r)-selection, so eta_prime = 1/sqrt(p - r)
    # and theta = sqrt(p - r); a per-selection table would hold C(p, q) C(p - q, r - q)
    # subselections: 4.6 million at p = 26, q = 3, r = 6, and 77 million at p = 40.  Each
    # subselection is held by the r - q blocks it drops, C(p - q, r - q) (r - q) of them, and
    # ranked by its r-block complement, so the binomials stay below C(p, r) past p = 67, where
    # ranking the (p - r)-subselections themselves overflowed int64
    z = coding_matrix(dense_model(p, p))
    assert z.groups == (tuple(range(p)),)
    tracemalloc.start()
    try:
        got = robustness_constants(z, q, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.eta_prime == pytest.approx((p - r) ** -0.5, rel=1e-12, abs=0.0)
    assert got.theta == pytest.approx((p - r) ** 0.5, rel=1e-12, abs=0.0)
    assert peak < peak_mb * 2 ** 20


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
    inverses, pinvs = [], []

    def spy_inv(matrix):
        inverses.append(np.shape(matrix))
        return np.linalg.inv(matrix)

    def spy_pinv(matrix, eps_rel=DEFAULT_EPS_REL):
        pinvs.append(np.shape(matrix))
        return pinv(matrix, eps_rel)

    monkeypatch.setattr(analysis, "inv", spy_inv)
    monkeypatch.setattr(analysis, "pinv", spy_pinv)
    assert robustness_constants(phi, 2, 4) == want
    # one Gram inverse per chunk: every 7-block and every 5-block selection once,
    # 36 + 126, not 36 + 36 * 21
    assert sorted(inverses) == [(36, 2, 2), (126, 2, 2)]
    # and one SVD pinv for each winner: eta's 7-selection and eta_prime's 5-selection
    assert sorted(pinvs) == [(1, 10, 2), (1, 14, 2)]
    # nine sensors of one subspace: one count vector per size, one Gram inverse each
    rng = np.random.default_rng(9)
    dense = coding_matrix(SystemModel(A=rng.normal(size=(2, 2)), B=np.zeros((2, 1)),
                                      C=rng.normal(size=(9, 2))))
    assert dense.groups == (tuple(range(9)),)
    inverses.clear()
    pinvs.clear()
    got = robustness_constants(dense, 2, 4)
    assert sorted(inverses) == [(1, 2, 2), (1, 2, 2)]
    assert sorted(pinvs) == [(1, 10, 2), (1, 14, 2)]
    # G_S = |S| I: rho = sqrt(7), rho_2q = sqrt(5), eta = 1/sqrt(7), eta_prime = 1/sqrt(5)
    for value, exact in ((got.rho, 7 ** 0.5), (got.rho_2q, 5 ** 0.5), (got.eta, 7 ** -0.5),
                         (got.eta_prime, 5 ** -0.5)):
        assert value == pytest.approx(exact, rel=1e-14, abs=0.0)


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
                rank_of(compacted(phi, IndexSet(lam, p))) == n
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
    assert rep.witness == IndexSet((), 3)


def test_analyze_refuses_a_requested_q_it_cannot_serve(three_inertia):
    # p = 5: q = 2 leaves 1-sensor selections, which are rank deficient, and q = 3
    # has no 2q + 1 sensors; q below 1 is no attack budget
    with pytest.raises(CorrectabilityError, match="correctability violated"):
        analyze(three_inertia, constants_q=2)
    with pytest.raises(CorrectabilityError, match="needs p >= 2q"):
        analyze(three_inertia, constants_q=3)
    for q in (0, -1):
        with pytest.raises(ValueError, match="constants_q must be at least 1"):
            analyze(three_inertia, constants_q=q)
    assert set(analyze(three_inertia, constants_q=1).per_q_constants) == {1}


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
    z = coding_matrix(model)
    rep = analyze(model)
    assert rep.security_index == reference_cospark(z)
    # the staircase bases and the monomial matrix share every selection's rank
    assert rep.security_index == reference_cospark(observability_matrix(model))
    assert set(rep.per_q_constants) == set(range(1, rep.max_correctable_q + 1))
    for q, constants in rep.per_q_constants.items():
        assert constants == robustness_constants(z, q, q)
    deficient = reference_first_deficient(z)
    assert rep.witness == deficient.complement()
    assert len(rep.witness) == rep.security_index
    assert matrix_rank(compacted(z, deficient)) < n


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
    routes, spectra = [], []
    selection_grams, floor_test = analysis._selection_grams, analysis._floor_test
    svd_sigma_min = analysis._svd_sigma_min

    def spy_grams(phi, size, floats):
        for members, grams in selection_grams(phi, size, floats):
            routes.append(("gram", size, len(members)))
            yield members, grams

    def spy_floor(grams, floor, margin):
        lam, clear = floor_test(grams, floor, margin)
        routes.append(("clear" if clear.all() else "below", len(grams)))
        return lam, clear

    def spy_svd(phi, members, eps_rel):
        routes.append(("svd", members.shape[1], len(members)))
        return svd_sigma_min(phi, members, eps_rel)

    def spy_eigvalsh(matrix):
        if np.ndim(matrix) == 3:  # a chunk of Gram sums, not the gains' (c, p - size, n, n)
            spectra.append(len(matrix))
        return np.linalg.eigvalsh(matrix)

    monkeypatch.setattr(analysis, "_selection_grams", spy_grams)
    monkeypatch.setattr(analysis, "_floor_test", spy_floor)
    monkeypatch.setattr(analysis, "_svd_sigma_min", spy_svd)
    monkeypatch.setattr(analysis, "eigvalsh", spy_eigvalsh)
    rep = analyze(dense)
    assert (rep.security_index, sorted(rep.per_q_constants)) == (7, [1, 2, 3])
    # (route, selection size, selections) per call.  Every sensor of a dense model sees the
    # whole state, so the seven blocks form one group and each size one count vector.  The
    # index scan's upward frontier comes first (its one group set ties with the one
    # 7-selection) and takes the SVD of the group's full selection and of its first block,
    # which is strong.  The constants scan the sizes whose rho they read (rho_2q, then rho of
    # q = 1, 2, 3; q = 2's rho is q = 1's rho_2q), each once, and the gains of q = 1, 2, 3
    # read the one representative of sizes 6, 5, 4; every chunk clears the floor
    assert analysis.coding_matrix(dense).groups == (tuple(range(7)),)
    assert routes == [("svd", 7, 1), ("svd", 1, 1)] + [
        step for size in (5, 6, 6, 3, 5, 1, 4, 4) for step in (("gram", size, 1), ("clear", 1))]
    assert sizes == [5, 6, 3, 1, 4]
    assert spectra == [1] * 8
    sizes.clear()
    routes.clear()
    with pytest.raises(CorrectabilityError):  # q = 2 needs 1-block selections: one new scan
        analyze(three_inertia, constants_q=2)
    # the index scan's downward frontier clears the one 5-selection; then upward the single
    # groups: {2} by one SVD, {1, 3} and {4, 5} by their pairs and then their first blocks,
    # of which {1} is strong; then {2} with {4, 5}, by the three and then {2, 4}, after which
    # no set of three groups is a candidate.  Last, rho_2q's scan of the single sensors: one
    # representative of each group, whose eigenvalues do not clear the floor, and whose SVD
    # reads each deficient
    assert analysis.coding_matrix(three_inertia).groups == ((0, 2), (1,), (3, 4))
    assert routes == [("gram", 5, 1), ("clear", 1), ("svd", 1, 1), ("svd", 2, 2), ("svd", 1, 2),
                      ("svd", 3, 1), ("svd", 2, 1), ("gram", 1, 3), ("below", 3), ("svd", 1, 3)]
    assert sizes == [5, 1]
