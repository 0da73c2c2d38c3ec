"""The exact-phase steps of ``u3kit.quadratic`` on numerator tables against
the per-point Fraction loops they replaced: ``QuadraticPhase.values``, the
local branch of ``is_locally_quadratic``, ``classify_global_quadratic`` and
``orthogonal_complement`` (no longer in the library: a reference in
test_quadratic).  Each reference below is the replaced code, kept here.
Both sides must return equal results, or raise the same exception type with
the same message.

The inputs are random quadratic phases, also with one point moved, on the
whole group or on a random subset, a subgroup coset or an arithmetic
progression of it, and cubic phases: on F5^2-F5^4 with subspaces of every
dimension, and on Z/9, Z/45, Z/63, Z/75, Z/135, Z/225 and Z/9xZ/15 with box
subgroups."""

from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import elements, evaluate, traced_peak
from test_quadratic import orthogonal_complement
from u3kit import quadratic
from u3kit.errors import BudgetExceeded, NotQuadratic
from u3kit.groups import GroupSpec, mod1, parse_group
from u3kit.modlinalg import BoxSubgroup, PrimeSubspace
from u3kit.quadratic import (
    QuadraticPhase,
    _half_mod,
    _require_odd,
    classify_global_quadratic,
    is_locally_quadratic,
)

# --- the replaced code ----------------------------------------------------------------


def reference_values(Q: QuadraticPhase) -> list:
    return [evaluate(Q, x) for x in elements(Q.spec)]


def reference_is_locally_quadratic(phi, domain, spec: GroupSpec, budget: int = 400_000_000) -> bool:
    """Both branches as they were: the full group through an lcm-and-scale
    table, a proper domain through its own numerator loop."""
    dom = np.array(sorted(set(int(i) for i in domain)), dtype=np.int64)
    m = len(dom)
    N = spec.order
    if m == N:
        k = spec.rank
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

    if isinstance(phi, dict):
        vals = {int(k): Fraction(v) for k, v in phi.items()}
    else:
        vals = {i: Fraction(phi[i]) for i in dom}
    D = lcm(1, *(v.denominator for v in vals.values())) if vals else 1
    num = np.zeros(N, dtype=np.int64)
    member = np.zeros(N, dtype=bool)
    for i in dom:
        f = vals[int(i)]
        num[i] = (f.numerator * (D // f.denominator)) % D
        member[i] = True
    if m**4 > budget:
        raise BudgetExceeded(f"|B|^4 = {m**4} cube scan exceeds budget")
    if m == 0:
        return True
    neg = spec.neg_indices(dom)
    for xi in range(m):
        x = dom[xi]
        nx = neg[xi]
        p1 = dom.reshape(-1, 1, 1)
        p2 = dom.reshape(1, -1, 1)
        p3 = dom.reshape(1, 1, -1)
        s12 = spec.add_indices(spec.add_indices(p1, p2), np.int64(nx))
        s13 = spec.add_indices(spec.add_indices(p1, p3), np.int64(nx))
        s23 = spec.add_indices(spec.add_indices(p2, p3), np.int64(nx))
        s123 = spec.add_indices(spec.add_indices(s12, p3), np.int64(nx))
        ok = member[s12] & member[s13] & member[s23] & member[s123]
        if not np.any(ok):
            continue
        total = (
            -np.int64(num[x]) + (num[p1] + num[p2] + num[p3]) - (num[s12] + num[s13] + num[s23]) + num[s123]
        ) % D
        if np.any(total[ok] != 0):
            return False
    return True


def reference_classify(phi, spec: GroupSpec) -> QuadraticPhase:
    _require_odd(spec)
    if not reference_is_locally_quadratic(list(phi), range(spec.order), spec):
        raise NotQuadratic("third differences do not vanish")
    fr = [Fraction(v) for v in phi]
    k = spec.rank
    e = [spec.index_of([int(t == i) for t in range(k)]) for i in range(k)]
    B = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            ei, ej = spec.element_by_index(e[i]), spec.element_by_index(e[j])
            chi = mod1(fr[(ei + ej).index] - fr[e[i]] - fr[e[j]] + fr[0])
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


def _move_one(draw, phi: dict) -> dict:
    phi = dict(phi)
    x = draw(st.sampled_from(sorted(phi)))
    phi[x] = mod1(phi[x] + Fraction(draw(st.integers(1, 6)), 7))
    return phi


@given(st.sampled_from(F5 + BOX + ["Z/9xZ/15xZ/7"]), st.data())
def test_orthogonal_complement_matches_reference(group, data):
    spec = parse_group(group)
    B = _form(data.draw, spec).bilinear
    K = _subgroup(data.draw, spec)
    got, want = orthogonal_complement(B, K, spec), reference_orthogonal_complement(B, K, spec)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@st.composite
def _partial_domain_cases(draw):
    """(phi, domain, spec): a random subset of at most 30 points, a coset of
    at most 45 points or the points of a progression, with phi a global
    quadratic (also with one domain point moved) or a cubic, given as a
    Mapping on the domain or as a Sequence over the group."""
    spec = parse_group(draw(st.sampled_from(F5 + BOX)))
    N = spec.order
    where = draw(st.sampled_from(["subset", "coset", "progression"]))
    if where == "subset":
        dom = draw(st.lists(st.integers(0, N - 1), min_size=0, max_size=30, unique=True))
    elif where == "coset":
        H = _subgroup(draw, spec)
        assume(H.order <= 45)
        dom = H.coset(draw(st.integers(0, N - 1))).tolist()
    else:
        v = draw(st.integers(1, N - 1))
        dom = spec.scale_indices(np.arange(draw(st.integers(1, 12))), v).tolist()
    assume(len(dom) < N)
    vals = _form(draw, spec).values()
    kind = draw(st.sampled_from(["quadratic", "moved", "cubic"]))
    if kind == "cubic":
        coords = spec.decode(np.arange(N))
        n0 = spec.orders[0]
        vals = [mod1(v + Fraction(int(x[0]) ** 3, n0)) for v, x in zip(vals, coords)]
    phi = {i: vals[i] for i in dom}
    if kind == "moved" and dom:
        phi = _move_one(draw, phi)
        vals = [phi.get(i, v) for i, v in enumerate(vals)]
    return (phi if draw(st.booleans()) else vals), dom, spec


@settings(max_examples=80)
@given(_partial_domain_cases())
def test_partial_domain_locality_matches_reference(case):
    phi, dom, spec = case
    assert outcome(is_locally_quadratic, phi, dom, spec) == outcome(reference_is_locally_quadratic, phi, dom, spec)


@settings(max_examples=80)
@given(_partial_domain_cases(), st.sampled_from([1, 20, 300]))
def test_blocked_domain_scan_matches_reference(case, block):
    # one first point a block, or a few: the blocks of a run of first points
    # see the same cubes as the reference's |B|^3 per x, True or False
    phi, dom, spec = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadratic, "_CUBE_BLOCK", block)
        assert outcome(is_locally_quadratic, phi, dom, spec) == outcome(reference_is_locally_quadratic, phi, dom, spec)


def test_domain_scan_memory_within_block_bound():
    # a 60-point progression of Z/20011 with a planted quadratic scans every
    # cube; |B|^3 cubes per x peaked at 8.8 MiB under tracemalloc.  One
    # value moved off the quadratic makes a cube fail
    N = 20011
    spec = GroupSpec((N,))
    dom = [(7 + 13 * t) % N for t in range(60)]
    phi = {i: Fraction((3 * i * i + 5 * i) % N, N) for i in dom}
    moved = dict(phi)
    moved[dom[-1]] += Fraction(1, N)
    for table, want in ((phi, True), (moved, False)):
        got, peak = traced_peak(lambda: is_locally_quadratic(table, dom, spec))
        assert got is want
        assert peak <= 64 * quadratic._CUBE_BLOCK


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
    # the old int64 loop summed eight numerators below D, so it wrapped when
    # the sum reached 3D >= 2^63, and called these planted quadratics
    # non-quadratic; D < 2^62 stays int64 (cast for the sum), D >= 2^62 is
    # held as Python integers
    spec = parse_group("Z/9xZ/5")
    Q = QuadraticPhase(spec, ((Fraction(2, 9), Fraction(0)), (Fraction(0), Fraction(3, 5))), (4, 1), Fraction(a, q))
    phi = Q.values()
    dom = list(range(15))
    assert reference_is_locally_quadratic({i: phi[i] for i in dom}, dom, spec) is False
    assert is_locally_quadratic({i: phi[i] for i in dom}, dom, spec)
    phi[3] = mod1(phi[3] + Fraction(1, q))
    assert not is_locally_quadratic({i: phi[i] for i in dom}, dom, spec)
