import numpy as np
import pytest

from resilest.stacked import (
    CodingMatrix,
    IndexSet,
    StackedVector,
    stacked_support,
)


def vec(data, n, p):
    return StackedVector(np.asarray(data, dtype=float), n, p)


def test_support_block_inspection():
    z = vec([0, 0, 1, 0, 2, 0], 2, 3)
    assert tuple(stacked_support(z)) == (2, 3)


def test_support_zero_vector():
    assert tuple(stacked_support(vec([0] * 8, 2, 4))) == ()


def test_support_all_nonzero():
    assert tuple(stacked_support(vec([5, 5, 12], 1, 3))) == (1, 2, 3)


def test_support_tolerance_cuts_small_blocks():
    z = vec([1e-12, 0, 3, 0], 2, 2)
    assert tuple(stacked_support(z)) == (1, 2)
    assert tuple(stacked_support(z, tol=1e-9)) == (2,)


def test_l0_examples():
    assert len(stacked_support(vec([0, 0, 1, 0, 2, 0], 2, 3))) == 2
    assert len(stacked_support(vec([0, 0, 0], 1, 3))) == 0
    assert len(stacked_support(vec([5, 5, 12], 1, 3))) == 3


def test_expand_index_set():
    assert IndexSet.of([1, 3], 3).row_indices(2).tolist() == [0, 1, 4, 5]
    assert IndexSet.empty(4).row_indices(3).tolist() == []
    assert IndexSet.of([2], 2).row_indices(3).tolist() == [3, 4, 5]


def test_expand_distributes_over_union():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = int(rng.integers(1, 8))
        n = int(rng.integers(1, 4))
        a = IndexSet.of(rng.choice(p, size=rng.integers(0, p + 1), replace=False) + 1, p)
        b = IndexSet.of(rng.choice(p, size=rng.integers(0, p + 1), replace=False) + 1, p)
        lhs = a.union(b).row_indices(n).tolist()
        rhs = sorted(set(a.row_indices(n)) | set(b.row_indices(n)))
        assert lhs == rhs


def test_select_zeroed_vector():
    z = vec([5, 5, 12], 1, 3)
    assert np.array_equal(z.zeroed(IndexSet.of([1, 2], 3)).data, [5, 5, 0])
    assert np.array_equal(z.zeroed(IndexSet.full(3)).data, z.data)


def test_select_zeroed_matrix():
    m = CodingMatrix(np.array([[1.0], [1.0], [1.0]]), 1, 3)
    out = m.zeroed(IndexSet.of([3], 3))
    assert np.array_equal(out.entries, [[0.0], [0.0], [1.0]])


def test_select_compacted():
    z = vec([5, 5, 12], 1, 3)
    assert np.array_equal(z.compacted(IndexSet.of([1, 3], 3)), [5, 12])
    assert np.array_equal(z.compacted(IndexSet.full(3)), [5, 5, 12])
    m = CodingMatrix(np.array([[1.0], [2.0], [3.0]]), 1, 3)
    assert np.array_equal(m.compacted(IndexSet.of([2, 3], 3)), [[2.0], [3.0]])


def test_zeroed_l0_upper_bounds():
    rng = np.random.default_rng(5)
    for _ in range(60):
        p = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        data = rng.normal(size=n * p)
        data[rng.random(n * p) < 0.3] = 0.0
        z = vec(data, n, p)
        lam = IndexSet.of(rng.choice(p, size=rng.integers(0, p + 1), replace=False) + 1, p)
        assert len(stacked_support(z.zeroed(lam))) <= min(len(lam), len(stacked_support(z)))


def test_zeroed_and_compacted_share_singular_values():
    rng = np.random.default_rng(17)
    for _ in range(30):
        p = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        m = CodingMatrix(rng.normal(size=(n * p, n)), n, p)
        lam = IndexSet.of(rng.choice(p, size=rng.integers(1, p + 1), replace=False) + 1, p)
        s_zero = np.linalg.svd(m.zeroed(lam).entries, compute_uv=False)
        s_comp = np.linalg.svd(m.compacted(lam), compute_uv=False)
        s_zero = np.sort(s_zero[s_zero > 1e-12])
        s_comp = np.sort(s_comp[s_comp > 1e-12])
        assert np.allclose(s_zero, s_comp, atol=1e-10)


def test_select_idempotent_nesting():
    # selecting lam then a subset of it equals selecting the subset directly
    rng = np.random.default_rng(23)
    m = CodingMatrix(rng.normal(size=(8, 2)), 2, 4)
    lam = IndexSet.of([1, 2, 4], 4)
    sub = IndexSet.of([2, 4], 4)
    via_nested = m.zeroed(lam).zeroed(sub)
    direct = m.zeroed(sub)
    assert np.array_equal(via_nested.entries, direct.entries)


def test_complement_involution():
    lam = IndexSet.of([2, 5], 6)
    assert lam.complement().complement() == lam
    assert tuple(IndexSet.empty(3).complement()) == (1, 2, 3)


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet((2, 1), 3)
    with pytest.raises(ValueError):
        IndexSet((0,), 3)
    with pytest.raises(ValueError):
        IndexSet((4,), 3)
    with pytest.raises(ValueError):
        IndexSet((1, 1), 3)


def test_vector_shape_validation():
    with pytest.raises(ValueError):
        StackedVector(np.zeros(5), 2, 3)
    with pytest.raises(ValueError):
        CodingMatrix(np.zeros((5, 2)), 2, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coding_matrix_rejects_nonfinite_entries(bad):
    with pytest.raises(ValueError, match="coding matrix entries must be finite"):
        CodingMatrix(np.array([[1.0], [bad], [1.0]]), 1, 3)
    StackedVector(np.array([1.0, bad, 1.0]), 1, 3)  # measurements may be attacked


def test_block_accessors():
    z = vec([1, 2, 3, 4], 2, 2)
    assert np.array_equal(z.block(2), [3, 4])
    m = CodingMatrix(np.arange(8, dtype=float).reshape(4, 2), 2, 2)
    assert np.array_equal(m.block(1), [[0, 1], [2, 3]])
    with pytest.raises(IndexError):
        z.block(3)


def test_mismatched_index_set_rejected():
    z = vec([1, 2, 3], 1, 3)
    with pytest.raises(ValueError):
        z.zeroed(IndexSet.of([1], 4))
