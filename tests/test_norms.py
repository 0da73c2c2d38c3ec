from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_bounded, random_unimodular
from u3kit.errors import DegreeUnsupported, EvenOrder, NotBounded, NotPrime
from u3kit.fourier import dft
from u3kit.groups import GroupFunction, GroupSpec, parse_group
from u3kit.modlinalg import BoxSubgroup, PrimeSubspace
from u3kit.norms import gowers_norm, u2_bias, u3_oracle_bracket, u3_oracle_coset
from u3kit.quadratic import BracketQuadratic


def test_constant_function_norms():
    spec = parse_group("Z/4xZ/9")
    ones = GroupFunction.constant(spec, 1.0)
    for d in (1, 2, 3, 4):
        assert abs(gowers_norm(ones, d).value - 1.0) < 1e-12


def test_indicator_derived_values():
    Z5 = parse_group("Z/5")
    f = GroupFunction.indicator(Z5, [0])
    # frozen from the exhaustive cube-enumeration oracle
    assert abs(gowers_norm(f, 2).value - 5 ** (-3 / 4)) < 1e-12
    assert abs(gowers_norm(f, 3).value - 5 ** (-1 / 2)) < 1e-12
    assert abs(gowers_norm(f, 2, method="direct").value - 5 ** (-3 / 4)) < 1e-12
    assert abs(gowers_norm(f, 3, method="direct").value - 5 ** (-1 / 2)) < 1e-12


def test_degree_bounds():
    f = GroupFunction.constant(parse_group("Z/5"), 1.0)
    with pytest.raises(DegreeUnsupported):
        gowers_norm(f, 5)
    with pytest.raises(DegreeUnsupported):
        gowers_norm(f, 0)


def test_bounded_enforcement():
    spec = parse_group("Z/5")
    f = GroupFunction(spec, np.full(5, 2.0, dtype=complex))
    with pytest.raises(NotBounded):
        gowers_norm(f, 2)
    assert gowers_norm(f, 2, unchecked=True).value > 1.0


def test_quadratic_phase_invariance():
    Z5 = parse_group("Z/5")
    f = GroupFunction(Z5, np.exp(2j * np.pi * np.arange(5) ** 2 / 5))
    assert abs(gowers_norm(f, 3).value - 1.0) < 1e-9


def test_phase_invariance_random(rng):
    # ||f e(phi)||_{U^d} = ||f||_{U^d} for phi polynomial of degree <= d-1
    Z31 = parse_group("Z/31")
    f = random_bounded(Z31, rng)
    xs = np.arange(31)
    for d, phase in ((2, xs * 7), (3, 3 * xs * xs + xs)):
        tw = GroupFunction(Z31, f.values * np.exp(2j * np.pi * phase / 31))
        assert abs(gowers_norm(tw, d).value - gowers_norm(f, d).value) < 1e-9


def test_monotonicity(rng):
    for gs in ("Z/31", "Z/4xZ/9", "F5^2", "Z/64"):
        spec = parse_group(gs)
        f = random_bounded(spec, rng)
        vals = [gowers_norm(f, d).value for d in (1, 2, 3, 4)]
        for a, b in zip(vals, vals[1:]):
            assert a <= b + 1e-9


def test_direct_recursive_agreement(rng):
    for gs in ("Z/11", "Z/17", "Z/4xZ/4", "F5^1"):
        spec = parse_group(gs)
        f = random_bounded(spec, rng)
        for d in (2, 3):
            a = gowers_norm(f, d, method="direct").value
            b = gowers_norm(f, d, method="recursive").value
            assert abs(a - b) / max(a, 1e-6) < 1e-8


def test_u2_fourth_moment_identity(rng):
    for gs in ("Z/31", "Z/4xZ/9"):
        spec = parse_group(gs)
        f = random_bounded(spec, rng)
        u2 = gowers_norm(f, 2, method="direct").value
        fourth = float(np.sum(np.abs(dft(f).values) ** 4))
        assert abs(u2**4 - fourth) < 1e-10


def test_triangle_inequality(rng):
    spec = parse_group("Z/31")
    for d in (2, 3):
        for _ in range(5):
            f, g = random_bounded(spec, rng), random_bounded(spec, rng)
            s = GroupFunction(spec, f.values + g.values)
            assert (
                gowers_norm(s, d, unchecked=True).value
                <= gowers_norm(f, d).value + gowers_norm(g, d).value + 1e-9
            )


def test_u2_bias_examples(rng):
    Z7 = parse_group("Z/7")
    f = GroupFunction(Z7, np.exp(2j * np.pi * 3 * np.arange(7) / 7))
    rep = u2_bias(f)
    assert abs(rep.value - 1.0) < 1e-12 and rep.witness.coords == (3,)
    ZN = parse_group("Z/11")
    rep = u2_bias(GroupFunction.indicator(ZN, [0]))
    assert abs(rep.value - 1 / 11) < 1e-12
    # sandwich u2 <= U2 <= u2^(1/2)
    Z31 = parse_group("Z/31")
    for _ in range(20):
        f = random_bounded(Z31, rng)
        u2 = gowers_norm(f, 2).value
        bias = u2_bias(f).value
        assert bias <= u2 + 1e-9 <= bias**0.5 + 2e-9


def test_u_le_U(rng):
    spec = parse_group("F5^2")
    for _ in range(5):
        f = random_bounded(spec, rng)
        oracle = u3_oracle_coset(f, (spec.zero(), PrimeSubspace.whole(spec)))
        assert oracle.value <= gowers_norm(f, 3).value + 1e-9


def test_coset_oracle_planted_subspace():
    spec = parse_group("F5^2")
    coords = spec.decode(np.arange(25))
    A = np.array([[2, 1], [1, 3]])
    q = (np.einsum("ni,ij,nj->n", coords, A, coords) + coords @ np.array([1, 0])) % 5
    f = GroupFunction(spec, np.exp(2j * np.pi * q / 5))
    rep = u3_oracle_coset(f, (spec.zero(), PrimeSubspace.whole(spec)))
    assert abs(rep.value - 1.0) < 1e-9
    # witness reproducible
    assert abs(rep.witness.bias_against(f) - rep.value) < 1e-10


def test_coset_oracle_zero_and_flat():
    Z5 = parse_group("Z/5")
    zero = GroupFunction.constant(Z5, 0.0)
    H = BoxSubgroup.whole(Z5)
    assert u3_oracle_coset(zero, (Z5.zero(), H)).value == 0.0
    ind = GroupFunction.indicator(Z5, [0])
    rep = u3_oracle_coset(ind, (Z5.zero(), H))
    assert abs(rep.value - 1 / 5) < 1e-12


def test_coset_oracle_planted_cyclic():
    Z9 = parse_group("Z/9")
    x = np.arange(9)
    f = GroupFunction(Z9, np.exp(2j * np.pi * (4 * x * x + 2 * x) / 9))
    rep = u3_oracle_coset(f, (Z9.zero(), BoxSubgroup.whole(Z9)))
    assert abs(rep.value - 1.0) < 1e-9
    assert rep.witness.A == ((4,),) and rep.witness.b == (2,)


def test_coset_oracle_even_order_rejected():
    Z12 = parse_group("Z/12")
    f = GroupFunction.constant(Z12, 1.0)
    with pytest.raises(EvenOrder):
        u3_oracle_coset(f, (Z12.zero(), BoxSubgroup(Z12, (3,))))


def test_coset_oracle_on_proper_coset():
    # phase planted on a coset of a 1-dimensional subspace of F5^2
    spec = parse_group("F5^2")
    H = PrimeSubspace.from_generators(spec, [[1, 2]])
    y = spec.element([0, 1])
    vals = np.zeros(25, complex)
    for t in range(5):
        amb = spec.add_indices(np.int64(spec.encode(np.array([t, 2 * t]) % 5)), np.int64(y.index))
        vals[int(amb)] = np.exp(2j * np.pi * (3 * t * t + t) / 5)
    f = GroupFunction(spec, vals)
    rep = u3_oracle_coset(f, (y, H))
    assert abs(rep.value - 1.0) < 1e-9
    assert rep.witness.A == ((3,),) and rep.witness.b == (1,)


def test_localization_chain(rng):
    # U3(f) >= u3(G) >= 5^-n |W| u3(y+W) on F5^2 for all codimension-1 W
    spec = parse_group("F5^2")
    hyperplanes = [[1, 0], [0, 1], [1, 1], [1, 2], [1, 3], [1, 4]]
    for _ in range(3):
        f = random_bounded(spec, rng)
        u3 = gowers_norm(f, 3).value
        u3G = u3_oracle_coset(f, (spec.zero(), PrimeSubspace.whole(spec))).value
        assert u3G <= u3 + 1e-9
        for w in hyperplanes:
            W = PrimeSubspace.from_generators(spec, [w])
            for yidx in (0, 7, 13):
                local = u3_oracle_coset(f, (spec.element_by_index(yidx), W)).value
                assert 5 ** (-2) * W.order * local <= u3G + 1e-9


def test_bracket_oracle_planted():
    N = 101
    spec = parse_group("Z/101")
    bq = BracketQuadratic(N, (1,), ((Fraction(5, 4),),), (Fraction(1, 2),))
    f = GroupFunction(spec, bq.exp_values(sign=1.0))
    rep = u3_oracle_bracket(f, np.arange(N), [1], grid=4)
    assert rep.value > 0.999
    wq = rep.witness
    assert wq.quad[0][0] == Fraction(5, 4) and wq.lin[0] == Fraction(1, 2)


def test_bracket_oracle_constant_and_prime_check(rng):
    spec = parse_group("Z/101")
    ones = GroupFunction.constant(spec, 1.0)
    rep = u3_oracle_bracket(ones, np.arange(101), [1], grid=2)
    assert rep.value > 0.999
    with pytest.raises(NotPrime):
        u3_oracle_bracket(GroupFunction.constant(parse_group("Z/100"), 1.0),
                          np.arange(100), [1], grid=2)


def test_bracket_oracle_planted_with_off_region_noise(rng):
    N = 101
    spec = parse_group("Z/101")
    bq = BracketQuadratic(N, (1, 2), ((0, Fraction(3, 2)), (Fraction(3, 2), 0)), (0, 0))
    vals = bq.exp_values(sign=1.0)
    region = np.array([n % N for n in range(-20, 21)], dtype=np.int64)
    outside = np.setdiff1d(np.arange(N), region)
    vals[outside] = rng.uniform(-1, 1, size=len(outside))
    f = GroupFunction(spec, vals)
    rep = u3_oracle_bracket(f, region, [1, 2], grid=2)
    assert rep.value >= 0.95


def test_u4_direct_recursive_agreement(rng):
    for gs in ("Z/7", "Z/9", "Z/2xZ/5"):
        spec = parse_group(gs)
        f = random_bounded(spec, rng)
        a = gowers_norm(f, 4, method="direct").value
        b = gowers_norm(f, 4, method="recursive").value
        assert abs(a - b) / max(a, 1e-6) < 1e-8


def test_recursive_norm_chunk_independent(rng):
    # the h-chunked reduction must not depend on the chunk size
    import u3kit.norms as norms

    spec = parse_group("Z/101")
    f = random_bounded(spec, rng)
    old = norms._H_CHUNK
    try:
        norms._H_CHUNK = 7
        a = gowers_norm(f, 3).value
        norms._H_CHUNK = 128
        b = gowers_norm(f, 3).value
    finally:
        norms._H_CHUNK = old
    assert abs(a - b) < 1e-12


def test_coset_oracle_vs_brute_force(rng):
    # dim-1 subspace of F5^2: compare the FFT scan against a python loop
    spec = parse_group("F5^2")
    H = PrimeSubspace.from_generators(spec, [[1, 3]])
    y = spec.element([2, 0])
    f = random_bounded(spec, rng)
    rep = u3_oracle_coset(f, (y, H))
    best = -1.0
    for m in range(5):
        for b in range(5):
            tot = 0j
            for t in range(5):
                amb = spec.element(tuple((y.coords[i] + t * H.basis[0][i]) % 5 for i in range(2)))
                tot += f.values[amb.index] * np.exp(-2j * np.pi * (m * t * t + b * t) / 5)
            best = max(best, abs(tot) / 5)
    assert abs(rep.value - best) < 1e-10


def test_coset_oracle_dim2_vs_brute_force(rng):
    spec = parse_group("F5^2")
    W = PrimeSubspace.whole(spec)
    f = random_bounded(spec, rng)
    rep = u3_oracle_coset(f, (spec.zero(), W))
    best = -1.0
    coords = spec.decode(np.arange(25))
    for a11 in range(5):
        for a12 in range(5):
            for a22 in range(5):
                q = (a11 * coords[:, 0] ** 2 + 2 * a12 * coords[:, 0] * coords[:, 1]
                     + a22 * coords[:, 1] ** 2) % 5
                for b1 in range(5):
                    for b2 in range(5):
                        phase = (q + b1 * coords[:, 0] + b2 * coords[:, 1]) % 5
                        val = abs(np.mean(f.values * np.exp(-2j * np.pi * phase / 5)))
                        best = max(best, val)
    assert abs(rep.value - best) < 1e-10


# --- property tests of the recursive kernels ----------------------------------

# groups with elements h = -h other than 0, where a class {h, -h} has one element
TWO_TORSION = ["Z/2", "Z/8", "Z/2xZ/4", "Z/12", "Z/2xZ/2xZ/3"]
KINDS = ["dense", "real", "one-point", "two-point", "zero"]


def specs(max_order: int):
    """The 2-torsion groups above, or rank 1-3 with factor orders 1-13."""
    random_specs = (st.lists(st.integers(1, 13), min_size=1, max_size=3)
                    .filter(lambda o: prod(o) <= max_order)
                    .map(lambda o: GroupSpec(tuple(o))))
    listed = [parse_group(g) for g in TWO_TORSION if parse_group(g).order <= max_order]
    return st.one_of(st.sampled_from(listed), random_specs)


@st.composite
def functions(draw, spec: GroupSpec) -> GroupFunction:
    """Bounded functions: dense complex, real, supported on one or two points, or 0."""
    N = spec.order
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = np.zeros(N, dtype=complex)
    if kind == "dense":
        vals = rng.uniform(0, 1, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
    elif kind == "real":
        vals = rng.uniform(-1, 1, N) + 0j
    elif kind != "zero":
        size = min(N, 1 if kind == "one-point" else 2)
        pts = draw(st.lists(st.integers(0, N - 1), min_size=size, max_size=size, unique=True))
        vals[pts] = np.exp(2j * np.pi * rng.uniform(0, 1, size))
    return GroupFunction(spec, vals)


@pytest.mark.parametrize("d", [2, 3, 4])
@given(data=st.data())
def test_recursive_matches_direct_property(d, data):
    # |G|^(d+1) <= 2^20 keeps the direct method's cube arrays small
    spec = data.draw(specs(int(round((1 << 20) ** (1 / (d + 1))))))
    f = data.draw(functions(spec))
    a = gowers_norm(f, d, method="direct").value
    b = gowers_norm(f, d, method="recursive").value
    assert abs(a - b) < 1e-9


def _character(spec: GroupSpec, xi: int) -> np.ndarray:
    x = spec.decode(np.arange(spec.order))
    phase = sum(c * x[:, i] / n for i, (c, n) in enumerate(zip(spec.coords_of(xi), spec.orders)))
    return np.exp(2j * np.pi * phase)


@given(data=st.data())
def test_norm_invariances_property(data):
    # U^d is invariant under shift and conjugation, and for d >= 2 under
    # multiplication by a character
    spec = data.draw(specs(64))
    f = data.draw(functions(spec))
    y = data.draw(st.integers(0, spec.order - 1))
    xi = data.draw(st.integers(0, spec.order - 1))
    shifted = GroupFunction(spec, f.values[spec.translates([y])[0]])
    modulated = GroupFunction(spec, f.values * _character(spec, xi))
    for d in (1, 2, 3, 4):
        v = gowers_norm(f, d).value
        assert abs(gowers_norm(shifted, d).value - v) < 1e-9
        assert abs(gowers_norm(f.conj(), d).value - v) < 1e-9
        if d >= 2:
            assert abs(gowers_norm(modulated, d).value - v) < 1e-9


@given(data=st.data())
def test_norm_monotonicity_property(data):
    spec = data.draw(specs(64))
    f = data.draw(functions(spec))
    vals = [gowers_norm(f, d).value for d in (1, 2, 3, 4)]
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:])), vals
    assert vals[-1] <= 1 + 1e-9
