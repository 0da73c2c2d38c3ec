"""Property tests of the index layer in u3kit.groups: index arithmetic on
run tables, coset points and the batched shift, checked against coordinate
arithmetic through coords_of / index_of over random group specs and against
the digit-by-digit loop that the run tables replaced."""

import itertools
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from conftest import coord_add, coord_scale, embed_coords
from u3kit import groups, norms
from u3kit.groups import GroupFunction, GroupSpec
from u3kit.modlinalg import BoxSubgroup, PrimeSubspace

# rank 1-4, factor orders 1-13
specs = st.lists(st.integers(1, 13), min_size=1, max_size=4).map(lambda o: GroupSpec(tuple(o)))


def index_lists(spec: GroupSpec, max_size: int):
    return st.lists(st.integers(0, spec.order - 1), min_size=1, max_size=max_size)


def lex_points(H, y_index: int) -> list[int]:
    """y + embed(t) for t in local lexicographic order, by coordinate
    arithmetic, with embed_coords checked against each family's own
    embedding: d_i t_i in factor i of a box, sum_i t_i b_i of a subspace."""
    spec = H.spec
    out = []
    for t in itertools.product(*[range(o) for o in H.local_orders]):
        if isinstance(H, BoxSubgroup):
            x = spec.index_of([d * ti for d, ti in zip(H.divisors, t)])
        else:
            x = 0
            for ti, row in zip(t, H.basis):
                x = coord_add(spec, x, coord_scale(spec, ti, spec.index_of(row)))
        assert embed_coords(H, t) == spec.coords_of(x)
        out.append(coord_add(spec, x, y_index))
    return out


def check_coset(H, y: int) -> None:
    pts = H.coset(y)
    assert pts.dtype == np.int64 and pts.tolist() == lex_points(H, y)
    assert H.element_indices().tolist() == sorted(lex_points(H, 0))
    assert H.order == len(pts) == len(set(pts.tolist()))
    units = np.eye(len(H.local_orders), dtype=np.int64)
    assert H.generators.tolist() == [H.spec.index_of(embed_coords(H, e)) for e in units]


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
        assert negs[i, 0] == coord_scale(spec, -1, x)
        for j, y in enumerate(b):
            assert sums[i, j] == coord_add(spec, x, y)
    for i, k in enumerate(ks):
        for j, y in enumerate(b):
            assert scaled[i, j] == coord_scale(spec, k, y)
            assert spec.scale_indices(k, np.int64(y)) == coord_scale(spec, k, y)
    assert spec.add_indices(np.int64(a[0]), np.int64(b[0])) == sums[0, 0]


@given(st.data())
def test_coset_points_prime_subspace(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = data.draw(st.integers(1, 4 if p <= 5 else 3))
    spec = GroupSpec((p,) * n)
    gens = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=n))
    H = PrimeSubspace.from_generators(spec, gens) if gens else PrimeSubspace(spec, ())
    check_coset(H, data.draw(st.integers(0, spec.order - 1)))


@given(st.data())
def test_coset_points_box_subgroup(data):
    spec = data.draw(specs)
    divisors = tuple(
        data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0])) for n in spec.orders
    )
    check_coset(BoxSubgroup(spec, divisors), data.draw(st.integers(0, spec.order - 1)))


@pytest.mark.parametrize("group", ["Z/1", "Z/7", "Z/12", "Z/4xZ/6", "F3^3", "F5^2"])
def test_coset_of_the_trivial_and_the_whole_subgroup(group):
    spec = groups.parse_group(group)
    subgroups = [BoxSubgroup(spec, spec.orders), BoxSubgroup.whole(spec)]
    if group in ("Z/7", "F3^3", "F5^2"):  # F_p^k
        subgroups += [PrimeSubspace(spec, ()), PrimeSubspace.whole(spec)]
    for H in subgroups:
        for y in {0, 1 % spec.order, spec.order - 1}:
            check_coset(H, y)
    for H in subgroups[1::2]:  # the whole group, in index order from 0
        assert H.coset(0).tolist() == list(range(spec.order))


@given(st.data())
def test_batched_shift_matches_shift(data):
    # the rows add_indices(x, h) and the derivative rows f(x + h) conj f(x)
    # of the Gowers kernel's translator, against coordinate arithmetic
    spec = data.draw(specs.filter(lambda s: s.order <= 3000))
    hs = data.draw(index_lists(spec, 3))
    rng = np.random.default_rng(len(hs) * 7919 + spec.order)
    f = GroupFunction(spec, rng.normal(size=spec.order) + 1j * rng.normal(size=spec.order))
    xs = np.arange(spec.order)
    rows = spec.add_indices(xs[None, :], np.array(hs)[:, None])
    shifts = norms._translator(spec, f.values, xs)(np.array(hs))
    assert rows.shape == shifts.shape == (len(hs), spec.order)
    for r, h in enumerate(hs):
        at = [coord_add(spec, x, h) for x in range(spec.order)]
        assert rows[r].tolist() == at
        assert np.array_equal(shifts[r], f.values[at])
    # one product over the whole batch, as the kernel forms it
    assert np.array_equal(shifts * np.conj(f.values), f.values[rows] * np.conj(f.values))


def digit_loop_add(spec: GroupSpec, a, b) -> np.ndarray:
    """The digit-by-digit add_indices, kept as the reference: the sum of the
    reduced indices, less n_i w_i at every digit i whose digit sum reaches
    n_i (in int64, wrapping past 2^63 and back)."""
    w = [prod(spec.orders[i + 1:]) for i in range(spec.rank)]
    a = np.asarray(a, dtype=np.int64) % spec.order
    b = np.asarray(b, dtype=np.int64) % spec.order
    with np.errstate(over="ignore"):
        out = np.asarray(a + b)
        for n, wi in zip(spec.orders, w):
            np.subtract(out, n * wi, out=out, where=a // wi % n >= n - b // wi % n)
    return out


def digit_loop_neg(spec: GroupSpec, a) -> np.ndarray:
    """The digit-by-digit neg_indices, kept as the reference, on inputs
    reduced mod N first (the loop alone negates -2^63 wrongly in int64)."""
    w = [prod(spec.orders[i + 1:]) for i in range(spec.rank)]
    a = np.asarray(a, dtype=np.int64) % spec.order
    return np.asarray(sum(-(a // wi) % n * wi for n, wi in zip(spec.orders, w)), dtype=np.int64)


# Runs of short factors whose order product reaches or crosses the table-run
# limit of 128, and single factors longer than it.
run_specs = st.lists(
    st.sampled_from([1, 2, 3, 4, 5, 7, 8, 11, 12, 16, 25, 127, 128, 129, 211, 4001]), min_size=1, max_size=5
).filter(lambda o: prod(o) < 2**40).map(lambda o: GroupSpec(tuple(o)))
# Orders near 2^63, where a + b overflows int64.
big_specs = st.sampled_from([(2**63 - 25,), (2, 2**62 - 13), (3, 5, 2**59 + 7), (2**31 + 11, 2**31 - 1),
                             (2**40 + 15, 128)]).map(GroupSpec)
all_specs = st.one_of(specs, run_specs, big_specs)

# (K, 1) with (1, M), either way round, with optional leading axes; K past
# 128 so that both table routes of the outer sum run.
outer_shapes = st.tuples(st.integers(0, 300), st.integers(0, 40), st.integers(0, 2), st.booleans()).map(
    lambda t: ((1,) * t[2] + (t[0], 1), (t[1],)) if t[3] else ((t[1],), (1,) * t[2] + (t[0], 1)))
shape_pairs = st.one_of(
    mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=5).map(lambda s: s.input_shapes),
    outer_shapes,
)


@st.composite
def index_arrays(draw, spec: GroupSpec, shape):
    """Indices in [0, N), just below N, in [-3N, 3N] or anywhere in int64."""
    N = spec.order
    lo, hi = draw(st.sampled_from([(0, N - 1), (N - 40, N - 1), (-3 * N, 3 * N), (-(2**63), 2**63 - 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.asarray(rng.integers(max(lo, -(2**63)), min(hi, 2**63 - 1), size=shape, endpoint=True, dtype=np.int64))


@settings(max_examples=300)
@given(st.data())
def test_add_and_neg_match_digit_loop(data):
    spec = data.draw(all_specs)
    sa, sb = data.draw(shape_pairs)
    a, b = data.draw(index_arrays(spec, sa)), data.draw(index_arrays(spec, sb))
    got = spec.add_indices(a, b)
    assert isinstance(got, np.ndarray) and got.dtype == np.int64 and got.flags.writeable
    assert got.shape == np.broadcast_shapes(sa, sb)
    assert np.array_equal(got, digit_loop_add(spec, a, b))
    neg = spec.neg_indices(a)
    assert isinstance(neg, np.ndarray) and neg.dtype == np.int64 and neg.shape == sa
    assert np.array_equal(neg, digit_loop_neg(spec, a))
    assert np.all(spec.add_indices(a, neg) == 0)


@given(st.data())
def test_add_indices_on_python_and_numpy_scalars(data):
    spec = data.draw(all_specs)
    x = data.draw(st.integers(-(2**63), 2**63 - 1))
    y = data.draw(st.integers(-(2**63), 2**63 - 1))
    ref = digit_loop_add(spec, x, y)
    for a, b in ((x, y), (np.int64(x), np.int64(y)), (x, np.array([y]))):
        got = spec.add_indices(a, b)
        assert got.dtype == np.int64 and got.shape == np.shape(b) and np.array_equal(got, ref.reshape(np.shape(b)))
    assert spec.neg_indices(x) == digit_loop_neg(spec, x)


def test_runs_and_their_tables():
    # runs are taken from the last factor while their orders multiply to at
    # most 128; a longer factor is a run of its own
    assert GroupSpec((5, 5, 5, 5))._runs == (((5, 5, 5), 1), ((5,), 125))
    assert GroupSpec((2,) * 8)._runs == (((2,) * 7, 1), ((2,), 128))
    assert GroupSpec((11, 12))._runs == (((12,), 1), ((11,), 12))
    assert GroupSpec((3, 211, 4))._runs == (((4,), 1), ((211,), 4), ((3,), 844))
    add, neg = groups._run_tables((5, 5, 5), 1)
    assert add.shape == (125, 125) and not add.flags.writeable and not neg.flags.writeable
    assert groups._run_tables.cache_info().maxsize == 64


def test_scale_indices_exact_past_int64():
    # c * x passes 2^63 here; the digit is scaled on Python integers
    spec = GroupSpec((2**40 + 15,))
    assert spec.scale_indices(2**30, np.array([2**39])).tolist() == [2**69 % (2**40 + 15)] == [1091458564111]


@given(st.data())
def test_scale_indices_matches_coordinates(data):
    spec = data.draw(st.one_of(specs, big_specs))
    x = data.draw(st.integers(0, spec.order - 1))
    cs = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=4))
    got = spec.scale_indices(np.array(cs, dtype=np.int64), np.int64(x))
    assert got.dtype == np.int64 and got.tolist() == [coord_scale(spec, c, x) for c in cs]
    assert spec.scale_indices(cs[0], x) == coord_scale(spec, cs[0], x)
