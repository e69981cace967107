import numpy as np
import pytest

from resilest.decoding import violations
from resilest.stacked import CodingMatrix, IndexSet


def vec(data, n, p):
    return np.asarray(data, dtype=float).reshape(p, n)


def stacked_support(z, tol=0.0):
    """1-based blocks whose 2-norm exceeds ``tol``: the decoder's violation test on the
    row norms of ``(p, n)`` blocks."""
    return tuple(int(i) + 1 for i in np.flatnonzero(violations(np.linalg.norm(z, axis=1), tol)))


def test_support_block_inspection():
    z = vec([0, 0, 1, 0, 2, 0], 2, 3)
    assert stacked_support(z) == (2, 3)


def test_support_zero_vector():
    assert stacked_support(vec([0] * 8, 2, 4)) == ()


def test_support_all_nonzero():
    assert stacked_support(vec([5, 5, 12], 1, 3)) == (1, 2, 3)


def test_support_tolerance_cuts_small_blocks():
    z = vec([1e-12, 0, 3, 0], 2, 2)
    assert stacked_support(z) == (1, 2)
    assert stacked_support(z, tol=1e-9) == (2,)


def test_l0_examples():
    assert len(stacked_support(vec([0, 0, 1, 0, 2, 0], 2, 3))) == 2
    assert len(stacked_support(vec([0, 0, 0], 1, 3))) == 0
    assert len(stacked_support(vec([5, 5, 12], 1, 3))) == 3


def test_select_compacted():
    # selection_stack gathers each selection's member slabs, in index order
    m = CodingMatrix(np.arange(12, dtype=float).reshape(6, 2), 2, 3)
    stack = m.selection_stack(np.array([[0, 2], [1, 2]]))
    assert stack.shape == (2, 4, 2)
    assert np.array_equal(stack[0], m.entries[[0, 1, 4, 5]])
    assert np.array_equal(stack[1], m.entries[2:])
    assert np.array_equal(m.selection_stack(np.array([[0, 1, 2]]))[0], m.entries)


def test_zeroed_and_compacted_share_singular_values():
    rng = np.random.default_rng(17)
    for _ in range(30):
        p = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        m = CodingMatrix(rng.normal(size=(n * p, n)), n, p)
        members = np.sort(rng.choice(p, size=rng.integers(1, p + 1), replace=False))
        zeroed = np.zeros_like(m.blocks)
        zeroed[members] = m.blocks[members]
        s_zero = np.linalg.svd(zeroed.reshape(n * p, n), compute_uv=False)
        s_comp = np.linalg.svd(m.selection_stack(members[None])[0], compute_uv=False)
        s_zero = np.sort(s_zero[s_zero > 1e-12])
        s_comp = np.sort(s_comp[s_comp > 1e-12])
        assert np.allclose(s_zero, s_comp, atol=1e-10)


def test_complement_involution():
    lam = IndexSet.of([2, 5], 6)
    assert lam.complement().complement() == lam
    assert tuple(IndexSet((), 3).complement()) == (1, 2, 3)


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
        CodingMatrix(np.zeros((5, 2)), 2, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coding_matrix_rejects_nonfinite_entries(bad):
    with pytest.raises(ValueError, match="coding matrix entries must be finite"):
        CodingMatrix(np.array([[1.0], [bad], [1.0]]), 1, 3)
