from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from u3kit.lattice import (
    TaggedLattice,
    exact_det_abs,
    hermite_reduce,
    lll_reduce,
    product_bound_certified,
    rref_rational,
    short_vectors_certify,
)


def _lat(rows, tags=None):
    rows = np.array(rows, dtype=object)
    if tags is None:
        tags = np.zeros((rows.shape[0], 1), dtype=object)
    return TaggedLattice(rows, np.array(tags, dtype=object))


def test_hermite_drops_dependent_rows():
    lat = _lat([[2, 0], [0, 3], [2, 3]])
    red = hermite_reduce(lat)
    assert red.mat.shape[0] == 2
    assert abs(exact_det_abs(red.mat)) == 6


def test_hermite_preserves_lattice_membership():
    lat = _lat([[5, 0], [0, 5], [1, 3]])
    red = hermite_reduce(lat)
    # determinant of Z^2 + (1,3)Z: index of the sublattice
    assert exact_det_abs(red.mat) == 5


def test_lll_reduces_skewed_basis():
    lat = _lat([[1, 0], [10**6, 1]], tags=[[1, 0], [0, 1]])
    red = lll_reduce(hermite_reduce(lat))
    norms = [sum(int(x) ** 2 for x in row) for row in red.mat]
    assert max(norms) <= 2  # the skewed generator is fully reduced
    assert product_bound_certified(red.mat)


def test_lll_tags_track_row_operations():
    # tags must express each reduced row as the same combination of inputs
    rows = [[7, 2], [3, 9]]
    lat = _lat(rows, tags=[[1, 0], [0, 1]])
    red = lll_reduce(hermite_reduce(lat))
    A = np.array(rows)
    for row, tag in zip(red.mat, red.tags):
        combo = np.array([int(t) for t in tag]) @ A
        assert np.array_equal(combo, np.array([int(v) for v in row]))


def test_product_bound_on_random_lattices(rng=np.random.default_rng(7)):
    import math

    for _ in range(20):
        d = int(rng.integers(2, 4))
        mat = rng.integers(-20, 20, size=(d, d))
        if abs(np.linalg.det(mat.astype(float))) < 0.5:
            continue
        red = lll_reduce(hermite_reduce(_lat(mat.tolist(), np.eye(d, dtype=int).tolist())))
        assert product_bound_certified(red.mat)
        det = float(exact_det_abs(red.mat))
        prod = 1.0
        for row in red.mat:
            prod *= math.sqrt(sum(int(v) ** 2 for v in row))
        assert prod <= 2 * math.factorial(d) * det * (1 + 1e-9)


def test_short_vector_certification():
    lat = _lat([[3, 1], [1, 3]], tags=[[1, 0], [0, 1]])
    red = lll_reduce(lat)
    coeffs = short_vectors_certify(red, coeff_bound=3)
    # the shortest enumerated vector should not beat the first basis vector
    # by more than the LLL guarantee allows
    first = min(sum(int(v) ** 2 for v in row) for row in red.mat)
    best = min(
        sum(int(sum(c * red.mat[i][j] for i, c in enumerate(coef))) ** 2 for j in range(2))
        for coef in coeffs[:20]
    )
    assert best >= first / 2


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_rational_rank_and_inverse(rows):
    M = np.array(rows, dtype=np.int64)
    R, pivots = rref_rational(M)
    assert len(pivots) == R.shape[0] == np.linalg.matrix_rank(M.astype(float))
    assert all(isinstance(v, Fraction) for v in R.ravel())
    for i, c in enumerate(pivots):
        assert R[i, c] == 1 and sum(R[:, c] != 0) == 1
    if M.shape[0] == 3 and len(pivots) == 3:
        aug, piv = rref_rational(np.hstack([M, np.eye(3, dtype=np.int64)]))
        assert piv == [0, 1, 2]
        assert (M.astype(object) @ aug[:, 3:] == np.eye(3, dtype=object)).all()
