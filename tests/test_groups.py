from fractions import Fraction

import numpy as np
import pytest

from u3kit.errors import BudgetExceeded, ParseError, SpecMismatch
from u3kit.groups import (
    GroupFunction,
    GroupSpec,
    cubes,
    function_from_json,
    function_to_json,
    mult_derivative,
    pair,
    parse_group,
    phase_difference,
    shift,
)


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
    Z12 = parse_group("Z/12")
    assert pair(Z12.dual([5]), Z12.element([7])) == Fraction(11, 12)
    assert pair(Z12.dual([0]), Z12.element([9])) == 0
    F53 = parse_group("F5^3")
    assert pair(F53.dual([1, 2, 0]), F53.element([3, 1, 4])) == 0


def test_pair_bilinearity_exact(rng):
    spec = parse_group("Z/4xZ/9")
    for _ in range(100):
        xi = spec.dual_by_index(int(rng.integers(spec.order)))
        xj = spec.dual_by_index(int(rng.integers(spec.order)))
        x = spec.element_by_index(int(rng.integers(spec.order)))
        y = spec.element_by_index(int(rng.integers(spec.order)))
        assert (pair(xi + xj, x) - pair(xi, x) - pair(xj, x)) % 1 == 0
        assert (pair(xi, x + y) - pair(xi, x) - pair(xi, y)) % 1 == 0


def test_pair_owner_mismatch():
    with pytest.raises(SpecMismatch):
        pair(parse_group("Z/5").dual([1]), parse_group("Z/7").element([1]))


def test_shift_examples(rng):
    Z5 = parse_group("Z/5")
    f = GroupFunction.indicator(Z5, [0])
    h = Z5.element([2])
    shifted = shift(f, h)
    assert shifted.values[3] == 1.0 and np.sum(np.abs(shifted.values)) == 1.0
    # shift by zero is the identity; shift group law holds exactly
    assert np.array_equal(shift(f, Z5.zero()).values, f.values)
    spec = parse_group("Z/4xZ/9")
    g = GroupFunction(spec, rng.normal(size=36) + 1j * rng.normal(size=36))
    h1 = spec.element_by_index(int(rng.integers(36)))
    h2 = spec.element_by_index(int(rng.integers(36)))
    assert np.array_equal(shift(g, h1 + h2).values, shift(shift(g, h1), h2).values)
    assert np.array_equal(shift(shift(g, h1), -h1).values, g.values)


def test_mult_derivative():
    Z5 = parse_group("Z/5")
    ones = GroupFunction.constant(Z5, 1.0)
    assert np.allclose(mult_derivative(ones, Z5.element([3])).values, 1.0)
    f = GroupFunction(Z5, np.exp(2j * np.pi * np.arange(5) ** 2 / 5))
    d = mult_derivative(f, Z5.element([1]))
    expect = np.exp(2j * np.pi * (2 * np.arange(5) + 1) / 5)
    assert np.max(np.abs(d.values - expect)) < 1e-12
    assert np.max(np.abs(np.abs(d.values) - 1)) < 1e-12


def test_phase_difference():
    Z5 = parse_group("Z/5")
    const = [Fraction(1, 3)] * 5
    assert all(v == 0 for v in phase_difference(const, Z5.element([2])))
    linear = [Fraction(x, 5) for x in range(5)]
    assert all(v == Fraction(2, 5) for v in phase_difference(linear, Z5.element([2])))
    quad = [Fraction(x * x, 5) % 1 for x in range(5)]
    out = phase_difference(quad, Z5.element([2]))
    assert out == [Fraction(4 * x + 4, 5) % 1 for x in range(5)]


def test_cubes_counts():
    assert len(list(cubes(parse_group("Z/2"), 1))) == 4
    assert len(list(cubes(parse_group("Z/3"), 2))) == 27
    assert len(list(cubes(parse_group("Z/5"), 3))) == 625
    with pytest.raises(BudgetExceeded):
        list(cubes(parse_group("Z/101"), 4, budget=1000))


def test_enumeration_bijection():
    spec = parse_group("Z/4xZ/9")
    seen = {x.index for x in spec.elements()}
    assert seen == set(range(36))
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
