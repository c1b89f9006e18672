import numpy as np
import pytest

from grouplab.errors import ValidationError
from grouplab.linalg import inv_gfp, nullspace_gfp, rref_gfp
from oracles import rref_by_row_loop


def _matrices(p: int) -> dict[str, np.ndarray]:
    """Seeded matrices mod p: zero, rank-deficient, wide and tall, with entries past p and below 0."""
    rng = np.random.default_rng(p)
    low = rng.integers(-2 * p, 2 * p, size=(7, 2))
    return {
        "zero": np.zeros((4, 6), dtype=np.int64),
        "rank-deficient": low @ rng.integers(0, p, size=(2, 7)),  # rank at most 2
        "repeated rows": np.repeat(rng.integers(0, p, size=(3, 5)), 2, axis=0),
        "wide": rng.integers(-p, 3 * p, size=(4, 9)),
        "tall": rng.integers(0, p, size=(9, 4)),
        "square": rng.integers(0, p, size=(6, 6)),
    }


_CASES = [(p, name) for p in (2, 3, 5, 7) for name in _matrices(p)]


@pytest.mark.parametrize("p, name", _CASES)
def test_rref_matches_the_row_loop_oracle(p, name):
    mat = _matrices(p)[name]
    rref, pivots = rref_gfp(mat, p)
    want, want_pivots = rref_by_row_loop(mat, p)
    assert pivots == want_pivots and np.array_equal(rref, want)
    assert rref.min() >= 0 and rref.max() < p
    assert np.array_equal(rref[:len(pivots), pivots], np.eye(len(pivots), dtype=np.int64))
    assert not rref[len(pivots):].any()


@pytest.mark.parametrize("p, name", _CASES)
def test_nullspace_rows_annihilate_the_matrix(p, name):
    mat = _matrices(p)[name]
    kernel = nullspace_gfp(mat, p)
    rank = len(rref_gfp(mat, p)[1])
    assert kernel.shape == (mat.shape[1] - rank, mat.shape[1])
    assert not (kernel @ mat.T % p).any()
    assert len(rref_gfp(kernel, p)[1]) == len(kernel)  # a basis: independent rows


@pytest.mark.parametrize("p, name", _CASES)
def test_inverse_times_the_matrix_is_the_identity(p, name):
    mat = _matrices(p)[name]
    square = mat[:min(mat.shape), :min(mat.shape)]
    if len(rref_gfp(square, p)[1]) < len(square):
        with pytest.raises(ValidationError, match="singular"):
            inv_gfp(square, p)
    else:
        inv = inv_gfp(square, p)
        assert np.array_equal(inv @ square % p, np.eye(len(square), dtype=np.int64))
        assert np.array_equal(square @ inv % p, np.eye(len(square), dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_singular_matrices_raise(p):
    mat = _matrices(p)["rank-deficient"]
    for square in (np.zeros((3, 3), dtype=np.int64), mat[:5, :5], np.eye(4, dtype=np.int64) * p):
        with pytest.raises(ValidationError, match="singular"):
            inv_gfp(square, p)
