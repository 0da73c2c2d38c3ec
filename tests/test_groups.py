from fractions import Fraction

import numpy as np
import pytest

from conftest import constant, elements
from u3kit import norms
from u3kit.errors import ParseError, SpecMismatch
from u3kit.groups import (
    GroupFunction,
    GroupSpec,
    function_from_json,
    function_to_json,
    mod1,
    pair,
    parse_group,
)


def shifted(f: GroupFunction, h) -> np.ndarray:
    """x -> f(x + h), read through index addition."""
    return f.values[f.owner.add_indices(np.arange(f.owner.order), h.index)]


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
    g = shifted(f, h)
    assert g[3] == 1.0 and np.sum(np.abs(g)) == 1.0
    # shift by zero is the identity; shift group law holds exactly
    assert np.array_equal(shifted(f, Z5.zero()), f.values)
    spec = parse_group("Z/4xZ/9")
    g = GroupFunction(spec, rng.normal(size=36) + 1j * rng.normal(size=36))
    h1 = spec.element_by_index(int(rng.integers(36)))
    h2 = spec.element_by_index(int(rng.integers(36)))
    g_h1 = GroupFunction(spec, shifted(g, h1))
    assert np.array_equal(shifted(g, h1 + h2), shifted(g_h1, h2))
    assert np.array_equal(shifted(g_h1, -h1), g.values)


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
    seen = {x.index for x in elements(spec)}
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
