from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_bounded, random_unimodular, reference_cyclic_scan
from u3kit.errors import BudgetExceeded, DegreeUnsupported, EvenOrder, NotBounded, NotPrime
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
    # |G|^(d+1) <= 2^20 keeps the direct method quick
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


# --- the exact coset oracle on F_p-subspaces ----------------------------------


def _reference_coset_scan(fvals: np.ndarray, p: int, k: int):
    """The scan the separable kernel replaced: |sum_t g(t) w^(t.Ct + xi.t)| / m
    for every (C, xi), by one fftn per coefficient vector; rows are the vectors
    (c_00, c_01, ..., c_kk) in lex order, columns xi in lex order."""
    m = p**k
    t = GroupSpec((p,) * k).decode(np.arange(m))
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    P = np.array([(t[:, i] * t[:, j] * (1 if i == j else 2)) % p for i, j in pairs])
    digits = GroupSpec((p,) * len(pairs)).decode(np.arange(p ** len(pairs)))
    omega = np.exp(-2j * np.pi * np.arange(p) / p)
    mags, step = [], max(1, 2_000_000 // m)
    for start in range(0, len(digits), step):
        U = fvals[None, :] * omega[(digits[start : start + step] @ P) % p]
        corr = np.fft.fftn(U.reshape((-1,) + (p,) * k), axes=range(1, k + 1))
        mags.append(np.abs(corr.reshape(len(U), m)) / m)
    return np.concatenate(mags), digits


def _reference_witness(digits: np.ndarray, p: int, k: int, flat: int):
    """(A, b) of entry `flat` of the reference scan."""
    row, col = divmod(flat, p**k)
    A = [[0] * k for _ in range(k)]
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    for (i, j), c in zip(pairs, digits[row].tolist()):
        A[i][j] = A[j][i] = c
    return tuple(map(tuple, A)), GroupSpec((p,) * k).coords_of(col)


def _planted(spec: GroupSpec, A, b, noise: float, rng) -> GroupFunction:
    x = spec.decode(np.arange(spec.order))
    q = (np.einsum("ni,ij,nj->n", x, np.array(A), x) + x @ np.array(b)) % spec.orders[0]
    vals = np.exp(2j * np.pi * q / spec.orders[0])
    vals += noise * rng.uniform(-1, 1, spec.order) * np.exp(2j * np.pi * rng.uniform(0, 1, spec.order))
    return GroupFunction(spec, vals / np.abs(vals).max())


ORACLE_SPACES = ["F5^3", "F7^2", "F3^4", "F5^2", "F3^3", "F3^2"]  # drawn most often first


@given(data=st.data())
def test_coset_oracle_matches_reference_property(data):
    import u3kit.norms as norms

    spec = parse_group(data.draw(st.sampled_from(ORACLE_SPACES)))
    p, n = spec.orders[0], spec.rank
    n_gens = n - data.draw(st.integers(0, n - 1))  # W may have a smaller dimension
    gens = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(0, p, (n_gens, n))
    W = PrimeSubspace.from_generators(spec, gens)
    y = spec.element_by_index(data.draw(st.integers(0, spec.order - 1)))
    kind = data.draw(st.sampled_from(["dense", "real", "planted", "one-point", "zero"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "planted":
        A = rng.integers(0, p, (n, n))
        f = _planted(spec, (A + A.T) % p, rng.integers(0, p, n), 0.3, rng)
    else:
        f = data.draw(functions(spec)) if kind != "dense" else random_bounded(spec, rng)
        if kind == "real":
            f = GroupFunction(spec, f.values.real + 0j)
    chunk = data.draw(st.sampled_from([norms._ORACLE_CHUNK, 1, 30, 700]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_ORACLE_CHUNK", chunk)
        rep = u3_oracle_coset(f, (y, W))
    k = W.dim
    if k == 0:
        assert rep.value == abs(f.values[y.index])
        return
    fvals = f.values[spec.coset_points(y.index, W.generators, W.local_orders)]
    mags, digits = _reference_coset_scan(fvals, p, k)
    assert abs(rep.value - mags.max()) < 1e-12
    assert abs(rep.witness.bias_against(f) - rep.value) < 1e-10
    top, second = np.sort(mags.ravel())[-1:-3:-1]
    if top - second > 1e-9:
        A, b = _reference_witness(digits, p, k, int(np.argmax(mags)))
        assert (rep.witness.A, rep.witness.b) == (A, b)


@pytest.mark.parametrize("group", ["F3^3", "F5^2", "F7^2"])
@pytest.mark.parametrize("chunk", [1, 40, 2_000_000])
def test_coset_oracle_tie_rule_against_reference(group, chunk, monkeypatch):
    # with a wide tie band many entries tie; the witness is the lex-first of
    # them even when a chunk's own maximum sits below the overall maximum
    import u3kit.norms as norms

    spec = parse_group(group)
    p, k = spec.orders[0], spec.rank
    rtol = 0.3
    monkeypatch.setattr(norms, "_ORACLE_CHUNK", chunk)
    monkeypatch.setattr(norms, "_TIE_RTOL", rtol)
    rng = np.random.default_rng(7)
    for _ in range(3):
        f = random_bounded(spec, rng)
        rep = u3_oracle_coset(f, (spec.zero(), PrimeSubspace.whole(spec)))
        mags, digits = _reference_coset_scan(f.values, p, k)
        sq = mags**2
        first = int(np.argmax(sq.ravel() >= sq.max() * (1 - rtol)))
        assert (rep.witness.A, rep.witness.b) == _reference_witness(digits, p, k, first)


@pytest.mark.parametrize("group", ["F127^1", "F131^2"])
def test_coset_oracle_large_p_line_matches_reference(group, rng):
    # a line has k = 1, so the axis goes through the chirp and the FFT
    # instead of the dense matrix D
    import u3kit.norms as norms

    spec = parse_group(group)
    p, n = spec.orders[0], spec.rank
    assert p**3 > norms._ORACLE_CHUNK
    W = PrimeSubspace.from_generators(spec, rng.integers(1, p, (1, n)))
    y = spec.element_by_index(int(rng.integers(spec.order)))
    A = rng.integers(0, p, (n, n))
    f = _planted(spec, (A + A.T) % p, rng.integers(0, p, n), 0.3, rng)
    rep = u3_oracle_coset(f, (y, W))
    fvals = f.values[spec.coset_points(y.index, W.generators, W.local_orders)]
    mags, digits = _reference_coset_scan(fvals, p, 1)
    assert abs(rep.value - mags.max()) < 1e-12
    assert abs(rep.witness.bias_against(f) - rep.value) < 1e-10
    top, second = np.sort(mags.ravel())[-1:-3:-1]
    assert top - second > 1e-9
    assert (rep.witness.A, rep.witness.b) == _reference_witness(digits, p, 1, int(np.argmax(mags)))


@pytest.mark.parametrize("group", ["F5^2", "F5^3", "F7^2", "Z/25", "Z/45", "Z/121"])
def test_coset_oracle_exact_ties_give_zero_phase(group):
    # every (A, b) ties exactly on a point mass; the witness must not depend
    # on rounding
    spec = parse_group(group)
    W = PrimeSubspace.whole(spec) if group.startswith("F") else BoxSubgroup.whole(spec)
    k = spec.rank
    zero_A, zero_b = ((0,) * k,) * k, (0,) * k
    cases = [(GroupFunction.constant(spec, 0.0), 0.0), (GroupFunction.constant(spec, 1.0), 1.0),
             (GroupFunction.indicator(spec, [spec.order - 1]), 1 / spec.order)]
    for f, value in cases:
        rep = u3_oracle_coset(f, (spec.zero(), W))
        assert abs(rep.value - value) < 1e-12
        assert (rep.witness.A, rep.witness.b) == (zero_A, zero_b)


@pytest.mark.parametrize("group", ["F5^2", "F5^3", "F7^2", "F3^4"])
def test_coset_oracle_finds_noisy_plant(group, rng):
    spec = parse_group(group)
    p, k = spec.orders[0], spec.rank
    for _ in range(2):
        A = rng.integers(0, p, (k, k))
        A = (A + A.T) % p
        b = rng.integers(0, p, k)
        f = _planted(spec, A, b, 0.2, rng)
        rep = u3_oracle_coset(f, (spec.zero(), PrimeSubspace.whole(spec)))
        assert rep.witness.A == tuple(map(tuple, A.tolist())) and rep.witness.b == tuple(b.tolist())
        assert abs(rep.witness.bias_against(f) - rep.value) < 1e-10


def test_coset_oracle_budget_on_f5_4():
    spec = parse_group("F5^4")
    f = GroupFunction.constant(spec, 1.0)
    with pytest.raises(BudgetExceeded, match="symmetric-matrix scan exceeds budget"):
        u3_oracle_coset(f, (spec.zero(), PrimeSubspace.whole(spec)))


# --- the exact coset oracle on cyclic subgroups -------------------------------


@given(data=st.data())
def test_cyclic_coset_oracle_matches_reference_property(data):
    # a coset y + H of the subgroup H of odd order h in Z/(c h)
    h = data.draw(st.integers(1, 128).map(lambda i: 2 * i + 1))  # odd, 3..257
    c = data.draw(st.integers(1, 3))
    spec = parse_group(f"Z/{c * h}")
    H = BoxSubgroup(spec, (c,))
    y = spec.element_by_index(data.draw(st.integers(0, spec.order - 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = random_bounded(spec, rng).values
    pts = spec.coset_points(y.index, H.generators, H.local_orders)
    t = np.arange(h)
    kind = data.draw(st.sampled_from(["dense", "planted", "zero", "constant"]))
    if kind == "planted":
        a, b = rng.integers(0, h, 2)
        noise = 0.3 * rng.uniform(-1, 1, h) * np.exp(2j * np.pi * rng.uniform(0, 1, h))
        vals[pts] = (np.exp(2j * np.pi * ((a * t * t + b * t) % h) / h) + noise) / 1.3
    elif kind != "dense":
        vals[pts] = 0.0 if kind == "zero" else 1.0
    f = GroupFunction(spec, vals)
    rep = u3_oracle_coset(f, (y, H))
    value, (a, b), table = reference_cyclic_scan(vals[pts], h)
    assert abs(rep.value - value) < 1e-12
    assert abs(rep.witness.bias_against(f) - rep.value) < 1e-10
    top, second = np.sort(table.ravel())[-1:-3:-1]
    if top - second > 1e-9:
        assert (rep.witness.A, rep.witness.b) == (((a,),), (b,))


def test_coset_oracle_budget_on_cyclic():
    # 1263^3 exceeds ORACLE_BUDGET, 1259^3 does not
    spec = parse_group("Z/1263")
    f = GroupFunction.constant(spec, 1.0)
    with pytest.raises(BudgetExceeded, match="cyclic quadratic scan exceeds budget"):
        u3_oracle_coset(f, (spec.zero(), BoxSubgroup.whole(spec)))
