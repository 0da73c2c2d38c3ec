"""Property tests of the index layer in u3kit.groups: digit-wise index
arithmetic, coset points and the batched shift, checked against coordinate
arithmetic on GroupElement over random group specs."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from u3kit.groups import GroupFunction, GroupSpec, derivative_rows, mult_derivative, shift
from u3kit.modlinalg import BoxSubgroup, PrimeSubspace

# rank 1-4, factor orders 1-13
specs = st.lists(st.integers(1, 13), min_size=1, max_size=4).map(lambda o: GroupSpec(tuple(o)))
checked = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def index_lists(spec: GroupSpec, max_size: int):
    return st.lists(st.integers(0, spec.order - 1), min_size=1, max_size=max_size)


def lex_points(H, y_index: int) -> list[int]:
    """y + embed(t) for t in local lexicographic order, by coordinate arithmetic."""
    spec = H.spec
    y = spec.element_by_index(y_index)
    ts = itertools.product(*[range(o) for o in H.local_orders])
    return [(spec.element(H.embed_coords(t)) + y).index for t in ts]


@checked
@given(st.data())
def test_index_arithmetic_matches_elements(data):
    spec = data.draw(specs)
    a = data.draw(index_lists(spec, 5))
    b = data.draw(index_lists(spec, 5))
    ks = data.draw(st.lists(st.integers(-40, 40), min_size=1, max_size=4))
    A, B = np.array(a)[:, None], np.array(b)[None, :]
    sums = spec.add_indices(A, B)
    negs = spec.neg_indices(A)
    scaled = spec.scale_indices(np.array(ks)[:, None], B)
    assert sums.shape == (len(a), len(b)) and negs.shape == (len(a), 1)
    assert scaled.shape == (len(ks), len(b))
    for i, x in enumerate(a):
        X = spec.element_by_index(x)
        assert negs[i, 0] == (-X).index
        for j, y in enumerate(b):
            assert sums[i, j] == (X + spec.element_by_index(y)).index
    for i, k in enumerate(ks):
        for j, y in enumerate(b):
            Y = spec.element_by_index(y)
            assert scaled[i, j] == (k * Y).index
            assert spec.scale_indices(k, np.int64(y)) == (k * Y).index
    assert spec.add_indices(np.int64(a[0]), np.int64(b[0])) == sums[0, 0]


@checked
@given(st.data())
def test_coset_points_prime_subspace(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = data.draw(st.integers(1, 4 if p <= 5 else 3))
    spec = GroupSpec((p,) * n)
    gens = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=n))
    H = PrimeSubspace.from_generators(spec, gens) if gens else PrimeSubspace(spec, ())
    y = data.draw(st.integers(0, spec.order - 1))
    pts = spec.coset_points(y, H.generators, H.local_orders)
    assert pts.tolist() == lex_points(H, y)
    assert H.element_indices().tolist() == sorted(lex_points(H, 0))


@checked
@given(st.data())
def test_coset_points_box_subgroup(data):
    spec = data.draw(specs)
    divisors = tuple(
        data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0])) for n in spec.orders
    )
    H = BoxSubgroup(spec, divisors)
    y = data.draw(st.integers(0, spec.order - 1))
    pts = spec.coset_points(y, H.generators, H.local_orders)
    assert pts.tolist() == lex_points(H, y)
    assert H.element_indices().tolist() == sorted(lex_points(H, 0))


@checked
@given(st.data())
def test_batched_shift_matches_shift(data):
    spec = data.draw(specs.filter(lambda s: s.order <= 3000))
    hs = data.draw(index_lists(spec, 3))
    rng = np.random.default_rng(len(hs) * 7919 + spec.order)
    f = GroupFunction(spec, rng.normal(size=spec.order) + 1j * rng.normal(size=spec.order))
    rows = spec.translates(hs)
    drows = derivative_rows(f, hs)
    assert rows.shape == drows.shape == (len(hs), spec.order)
    for r, h in enumerate(hs):
        H = spec.element_by_index(h)
        assert rows[r].tolist() == [(x + H).index for x in spec.elements()]
        assert np.array_equal(f.values[rows[r]], shift(f, H).values)
        assert np.array_equal(drows[r], mult_derivative(f, H).values)
