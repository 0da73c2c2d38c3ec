"""The exact-phase steps of ``u3kit.quadratic`` on numerator tables against
the per-point Fraction loops they replaced: ``QuadraticPhase.values``,
``is_locally_quadratic``, ``classify_global_quadratic`` and
``orthogonal_complement`` (no longer in the library: a reference in
test_quadratic).  Each reference below is the replaced code, kept here.
Both sides must return equal results, or raise the same exception type with
the same message.

The inputs are random quadratic phases on the whole group, also with one
point moved: on F5^2-F5^4 with subspaces of every dimension, and on Z/9,
Z/45, Z/63, Z/75, Z/135, Z/225 and Z/9xZ/15 with box subgroups."""

from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coord_add, evaluate
from test_quadratic import orthogonal_complement
from u3kit.errors import BudgetExceeded, NotQuadratic
from u3kit.groups import GroupSpec, mod1, parse_group
from u3kit.modlinalg import BoxSubgroup, PrimeSubspace
from u3kit.quadratic import (
    QuadraticPhase,
    _half_mod,
    _numerators,
    _require_odd,
    classify_global_quadratic,
    is_locally_quadratic,
)

# --- the replaced code ----------------------------------------------------------------


def reference_values(Q: QuadraticPhase) -> list:
    return [evaluate(Q, x) for x in range(Q.spec.order)]


def reference_is_locally_quadratic(phi, spec: GroupSpec, budget: int = 400_000_000) -> bool:
    """The whole-group test as it was: an lcm-and-scale table on Python
    integers, then the generator third differences."""
    N, k = spec.order, spec.rank
    if k**3 * N > budget:
        raise BudgetExceeded(f"rank^3*N = {k}^3*{N} generator third-difference scan exceeds budget {budget}")
    fracs = [Fraction(phi[i]) for i in range(N)]
    D = lcm(1, *(f.denominator for f in fracs))
    num = np.array([(f.numerator * (D // f.denominator)) % D for f in fracs], dtype=object)
    idx = np.arange(N, dtype=np.int64)
    gens = [spec.index_of([int(t == a) for t in range(k)]) for a in range(k)]
    shifted = [spec.add_indices(idx, np.int64(g)) for g in gens]
    for a in range(k):
        d1 = (num[shifted[a]] - num) % D
        for b in range(a, k):
            d2 = (d1[shifted[b]] - d1) % D
            if any(np.any(d2[shifted[c]] != d2) for c in range(b, k)):
                return False
    return True


def reference_classify(phi, spec: GroupSpec) -> QuadraticPhase:
    _require_odd(spec)
    if not reference_is_locally_quadratic(list(phi), spec):
        raise NotQuadratic("third differences do not vanish")
    fr = [Fraction(v) for v in phi]
    k = spec.rank
    e = [spec.index_of([int(t == i) for t in range(k)]) for i in range(k)]
    B = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            chi = mod1(fr[coord_add(spec, e[i], e[j])] - fr[e[i]] - fr[e[j]] + fr[0])
            g = gcd(spec.orders[i], spec.orders[j])
            if g % chi.denominator:
                raise NotQuadratic("second difference has incompatible denominator")
            B[i][j] = _half_mod(chi, g)
    xi = []
    for j in range(k):
        numer = mod1(fr[e[j]] - B[j][j] - fr[0]) * spec.orders[j]
        if numer.denominator != 1:
            raise NotQuadratic("linear residual is not a character")
        xi.append(int(numer) % spec.orders[j])
    Q = QuadraticPhase(spec, tuple(tuple(row) for row in B), tuple(xi), mod1(fr[0]))
    if reference_values(Q) != [mod1(v) for v in fr]:
        raise NotQuadratic("reconstruction mismatch")
    return Q


def reference_orthogonal_complement(bilinear, K, spec: GroupSpec) -> np.ndarray:
    B = [[Fraction(v) for v in row] for row in bilinear]
    if isinstance(K, PrimeSubspace):
        gens = [tuple(int(v) for v in row) for row in K.basis_matrix()]
    else:
        gens = []
        for t in range(spec.rank):
            if K.divisors[t] != spec.orders[t]:
                coords = [0] * spec.rank
                coords[t] = K.divisors[t]
                gens.append(tuple(coords))
    out = []
    for idx in range(spec.order):
        y = spec.coords_of(idx)
        good = True
        for g in gens:
            total = sum(B[i][j] * g[i] * y[j] for i in range(spec.rank) for j in range(spec.rank))
            if mod1(Fraction(total)) != 0:
                good = False
                break
        if good:
            out.append(idx)
    return np.array(sorted(out), dtype=np.int64)


# --- random inputs ------------------------------------------------------------------

F5 = ["F5^2", "F5^3", "F5^4"]
BOX = ["Z/9", "Z/45", "Z/63", "Z/75", "Z/135", "Z/225", "Z/9xZ/15"]


def outcome(f, *args):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def _form(draw, spec: GroupSpec) -> QuadraticPhase:
    """A random quadratic phase on spec: symmetric B with entries in
    (1/gcd(n_i, n_j))Z, xi, and c with a small denominator or one past 2^40."""
    k, orders = spec.rank, spec.orders
    B = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g = gcd(orders[i], orders[j])
            B[i][j] = B[j][i] = Fraction(draw(st.integers(0, g - 1)), g)
    xi = tuple(draw(st.integers(0, n - 1)) for n in orders)
    q = draw(st.sampled_from([1, 7, 3 * spec.exponent, 2**40 + 1]))
    return QuadraticPhase(spec, tuple(map(tuple, B)), xi, Fraction(draw(st.integers(0, q - 1)), q))


def _subgroup(draw, spec: GroupSpec):
    """A random subspace (F_p^n) of any dimension, or a random box subgroup."""
    if len(set(spec.orders)) == 1 and spec.rank > 1:
        rows = draw(st.lists(st.lists(st.integers(0, 4), min_size=spec.rank, max_size=spec.rank),
                             max_size=spec.rank))
        return PrimeSubspace.from_generators(spec, rows) if rows else PrimeSubspace(spec, ())
    return BoxSubgroup(spec, tuple(draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
                                   for n in spec.orders))


@given(st.sampled_from(F5 + BOX + ["Z/9xZ/15xZ/7"]), st.data())
def test_orthogonal_complement_matches_reference(group, data):
    spec = parse_group(group)
    B = _form(data.draw, spec).bilinear
    K = _subgroup(data.draw, spec)
    got, want = orthogonal_complement(B, K, spec), reference_orthogonal_complement(B, K, spec)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@st.composite
def _tables(draw):
    spec = parse_group(draw(st.sampled_from(F5 + BOX + ["Z/9xZ/15xZ/7"])))
    return spec, _form(draw, spec)


@settings(max_examples=40)
@given(_tables(), st.data())
def test_values_and_classify_match_reference(case, data):
    spec, Q = case
    vals = Q.values()
    want = reference_values(Q)
    assert vals == want and all(type(v) is Fraction for v in vals)
    if data.draw(st.booleans()):
        x = data.draw(st.integers(0, spec.order - 1))
        vals[x] = mod1(vals[x] + Fraction(1, 3))
    assert outcome(classify_global_quadratic, vals, spec) == outcome(reference_classify, vals, spec)


# --- what the numerator tables change ---------------------------------------------------


@pytest.mark.parametrize("q, a", [(45 * (2**62 // 45), 1769400412573943449), (45 * (2**62 // 45 + 1), 1)])
def test_partial_domain_with_a_denominator_near_2_62(q, a):
    # denominators either side of 2^62, where the table switches from int64
    # to Python integers: below it a difference of two numerators must not
    # wrap, so the planted quadratic passes and one point moved by 1/q fails
    spec = parse_group("Z/9xZ/5")
    Q = QuadraticPhase(spec, ((Fraction(2, 9), Fraction(0)), (Fraction(0), Fraction(3, 5))), (4, 1), Fraction(a, q))
    phi = Q.values()
    num, D = _numerators(phi)
    assert (num.dtype == object) == (D >= 2**62)
    assert reference_is_locally_quadratic(phi, spec)
    assert is_locally_quadratic(num, D, spec)
    phi[3] = mod1(phi[3] + Fraction(1, q))
    assert not reference_is_locally_quadratic(phi, spec)
    assert not is_locally_quadratic(*_numerators(phi), spec)
