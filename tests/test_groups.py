import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import constant, pair
from u3kit import norms
from u3kit.errors import ParseError
from u3kit.groups import (
    GroupFunction,
    GroupSpec,
    function_from_json,
    function_to_json,
    mod1,
    parse_group,
)

# cyclic Z/1-Z/60, F_p^n for p <= 7 and n <= 3, and mixed products of two or three factors
group_specs = st.one_of(
    st.integers(1, 60).map(lambda n: GroupSpec((n,))),
    st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3)).map(lambda t: GroupSpec((t[0],) * t[1])),
    st.lists(st.integers(1, 12), min_size=2, max_size=3).map(lambda o: GroupSpec(tuple(o))),
)


def shifted(f: GroupFunction, h) -> np.ndarray:
    """x -> f(x + h) for an element index h, read through index addition."""
    return f.values[f.owner.add_indices(np.arange(f.owner.order), h)]


def test_parse_group_grammar():
    assert parse_group("Z/101").orders == (101,)
    assert parse_group("F5^3").orders == (5, 5, 5)
    assert parse_group("Z/4xZ/9").orders == (4, 9)
    with pytest.raises(ParseError):
        parse_group("Q/7")
    for bad in ("Z/0", "Z/4xZ/0", "F5^40"):
        with pytest.raises(ParseError):
            parse_group(bad)
    with pytest.raises(ValueError):
        GroupSpec((0,))
    with pytest.raises(ValueError):
        GroupSpec((5,) * 40)


def test_pair_examples():
    # pairings gives D (xi.x mod 1), D the exponent
    Z12 = parse_group("Z/12")
    assert Z12.pairings(5, 7) == 11 and pair(Z12, 5, 7) == Fraction(11, 12)
    assert Z12.pairings(0, 9) == 0
    F53 = parse_group("F5^3")
    assert F53.pairings(F53.index_of([1, 2, 0]), F53.index_of([3, 1, 4])) == 0
    Z4Z9 = parse_group("Z/4xZ/9")  # 3/4 + 8/9 = 59/36
    assert Z4Z9.pairings(Z4Z9.index_of([1, 2]), Z4Z9.index_of([3, 4])) == 23


@given(st.data())
def test_pair_bilinearity_exact(data):
    spec = data.draw(group_specs)
    xi, xj, x, y = (data.draw(st.integers(0, spec.order - 1)) for _ in range(4))
    pr, D = spec.pairings, spec.exponent
    assert (pr(spec.add_indices(xi, xj), x) - pr(xi, x) - pr(xj, x)) % D == 0
    assert (pr(xi, spec.add_indices(x, y)) - pr(xi, x) - pr(xi, y)) % D == 0
    assert pr(spec.neg_indices(xi), x) == (-pr(xi, x)) % D == pr(xi, spec.neg_indices(x))
    assert Fraction(int(pr(xi, x)), D) == pair(spec, xi, x)


@given(st.data())
def test_index_of_and_coords_of_round_trip(data):
    spec = data.draw(group_specs)
    x = data.draw(st.integers(0, spec.order - 1))
    coords = spec.coords_of(x)
    assert all(0 <= c < n for c, n in zip(coords, spec.orders, strict=True))
    assert spec.index_of(coords) == x
    assert spec.decode(np.int64(x)).tolist() == list(coords)
    assert spec.encode(np.array(coords)) == x
    raw = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=spec.rank, max_size=spec.rank))
    assert spec.index_of(raw) == spec.encode(np.array(raw))  # both reduce each coordinate mod n_i


def test_shift_examples(rng):
    Z5 = parse_group("Z/5")
    f = GroupFunction.indicator(Z5, [0])
    g = shifted(f, 2)
    assert g[3] == 1.0 and np.sum(np.abs(g)) == 1.0
    # shift by zero is the identity; shift group law holds exactly
    assert np.array_equal(shifted(f, 0), f.values)
    spec = parse_group("Z/4xZ/9")
    g = GroupFunction(spec, rng.normal(size=36) + 1j * rng.normal(size=36))
    h1 = int(rng.integers(36))
    h2 = int(rng.integers(36))
    g_h1 = GroupFunction(spec, shifted(g, h1))
    assert np.array_equal(shifted(g, spec.add_indices(h1, h2)), shifted(g_h1, h2))
    assert np.array_equal(shifted(g_h1, spec.neg_indices(h1)), g.values)


def test_mult_derivative():
    # Delta_h f(x) = f(x + h) conj f(x), rows read by the Gowers kernel's translator
    Z5 = parse_group("Z/5")
    x = np.arange(5)
    ones = constant(Z5, 1.0)
    assert np.allclose(norms._translator(Z5, ones.values, x)(np.array([3]))[0] * np.conj(ones.values), 1.0)
    f = GroupFunction(Z5, np.exp(2j * np.pi * x**2 / 5))
    d = norms._translator(Z5, f.values, x)(np.array([1]))[0] * np.conj(f.values)
    expect = np.exp(2j * np.pi * (2 * x + 1) / 5)
    assert np.max(np.abs(d - expect)) < 1e-12
    assert np.max(np.abs(np.abs(d) - 1)) < 1e-12


def test_mod1_stays_below_one():
    # t - floor(t) rounds up to 1.0 for a tiny negative float
    for t in (-3.1e-100, np.float64(-1e-300), -5e-324):
        r = mod1(t)
        assert r == 0.0 and type(r) is np.float64
    assert mod1(-0.25) == 0.75 and mod1(2.5) == 0.5
    assert mod1(Fraction(-1, 3)) == Fraction(2, 3)


def test_enumeration_bijection():
    spec = parse_group("Z/4xZ/9")
    seen = {spec.coords_of(i) for i in range(spec.order)}
    assert seen == set(itertools.product(range(4), range(9)))
    for i in range(36):
        assert spec.index_of(spec.coords_of(i)) == i


def test_row_major_convention():
    spec = parse_group("Z/4xZ/9")
    # index = c0 * 9 + c1
    assert spec.index_of((2, 5)) == 2 * 9 + 5


def test_function_json_roundtrip(rng):
    spec = parse_group("Z/4xZ/9")
    f = GroupFunction(spec, rng.normal(size=36) + 1j * rng.normal(size=36))
    g = function_from_json(function_to_json(f))
    assert g.owner.orders == spec.orders
    assert np.array_equal(g.values, f.values)
