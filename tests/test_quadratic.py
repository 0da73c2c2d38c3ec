import itertools
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import elements
from u3kit.bohr import bohr_set, coset_progression_in_bohr
from u3kit.errors import EvenOrder, ExtensionObstructed, NotFound, NotQuadratic
from u3kit.groups import GroupSpec, parse_group
from u3kit.modlinalg import (
    BoxSubgroup,
    PrimeSubspace,
    Subgroup,
    complete_basis,
    isotropic_vector_in,
    kernel_basis_mod_p,
    rank_mod_p,
    rref_mod_p,
)
from u3kit.quadratic import (
    BracketQuadratic,
    QuadraticPhase,
    bracket_from_progression,
    classify_global_quadratic,
    degenerate_subspace,
    extend_from_coset,
    frac_part,
    is_locally_quadratic,
    quadratic_on_coset_progression,
)


# Quadratic-form sublemmas of the source paper that nothing in u3kit calls,
# kept here as references: an isotropic vector of a form over F_p, and the
# complement of a subgroup under a bilinear form.


def isotropic_vector(
    M: Sequence[Sequence[int]], W: PrimeSubspace, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Nonzero x in W with x.Mx = 0 mod p; exhaustive for dim <= 3, random
    3-dimensional restriction otherwise.  Guaranteed to exist for dim >= 3."""
    p = W.p
    if p % 2 == 0:
        raise EvenOrder("odd characteristic required")
    A = np.array(M, dtype=np.int64) % p
    V = W.basis_matrix()
    AW = (V @ A @ V.T) % p
    k = W.dim
    if k == 0:
        raise NotFound("zero subspace has no nonzero vectors")
    if k <= 3:
        t = isotropic_vector_in(AW, p)
        if t is None:
            raise NotFound("no nonzero isotropic vector (possible only for dim <= 2)")
        x = (t @ V) % p
        return x
    ker = kernel_basis_mod_p(AW, p)
    if ker.shape[0]:
        return (ker[0] @ V) % p
    rng = rng or np.random.default_rng(0)
    for _ in range(200):
        T = rng.integers(0, p, size=(3, k))
        if rank_mod_p(T, p) < 3:
            continue
        AT = (T @ AW @ T.T) % p
        t = isotropic_vector_in(AT, p)
        if t is not None and np.any((t @ T) % p):
            return ((t @ T) % p @ V) % p
    raise NotFound("random restriction failed to locate an isotropic vector")




def orthogonal_complement(
    bilinear: Sequence[Sequence[Fraction]], K: Subgroup, spec: GroupSpec
) -> np.ndarray:
    """K-perp = {y : Mx.y = 0 for all x in K} for a self-adjoint form on the
    whole group; returns sorted element indices.

    One integer pass over the group: for each generator x of K the linear
    form y -> Mx.y has numerators a_j = D·(sum_i B[i][j] x_i) mod D over the
    common denominator D of B, and y is kept when sum_j a_j y_j = 0 mod D for
    every generator."""
    B = [[Fraction(v) for v in row] for row in bilinear]
    if isinstance(K, PrimeSubspace):
        gens = K.basis_matrix().tolist()
    else:
        gens = [[K.divisors[t] * (s == t) for s in range(spec.rank)]
                for t in range(spec.rank) if K.divisors[t] != spec.orders[t]]
    D = lcm(1, *(b.denominator for row in B for b in row))
    y = spec.decode(np.arange(spec.order)).astype(object)
    keep = np.ones(spec.order, dtype=bool)
    for x in gens:
        acc = np.zeros(spec.order, dtype=object)
        for j in range(spec.rank):
            a = sum(B[i][j] * x[i] for i in range(spec.rank)) * D % D
            acc = (acc + int(a) * y[:, j]) % D
        keep &= acc == 0
    return np.flatnonzero(keep)


def test_eval_quadratic_examples():
    Z5 = parse_group("Z/5")
    Q = QuadraticPhase.cyclic(Z5, 2, 3, 0)
    assert Q.evaluate(Z5.element([1])) == 0  # (2+3)/5
    Qc = QuadraticPhase.cyclic(Z5, 0, 0, Fraction(1, 3))
    assert all(Qc.evaluate(x) == Fraction(1, 3) for x in elements(Z5))
    F52 = parse_group("F5^2")
    QI = QuadraticPhase.from_integer_matrix(F52, [[1, 0], [0, 1]], [0, 0])
    assert QI.evaluate(F52.element([1, 2])) == 0  # (1+4)/5


def test_is_locally_quadratic():
    Z7 = parse_group("Z/7")
    cubic = [Fraction(x**3, 7) for x in range(7)]
    assert not is_locally_quadratic(cubic, range(7), Z7)
    quad = [Fraction(3 * x * x + x, 7) for x in range(7)]
    assert is_locally_quadratic(quad, range(7), Z7)
    # vacuous on a domain with no full 3-cube
    assert is_locally_quadratic({0: Fraction(1, 3), 1: Fraction(1, 7)}, [0, 1], Z7)
    # any planted quadratic phase restricted to any subset stays quadratic
    dom = [0, 1, 2, 3]
    assert is_locally_quadratic({i: quad[i] for i in dom}, dom, Z7)


def test_classify_examples():
    Z5 = parse_group("Z/5")
    phi = [Fraction(2 * x * x + 3 * x, 5) % 1 for x in range(5)]
    Q = classify_global_quadratic(phi, Z5)
    assert (Q.m, Q.xi, Q.c) == (2, (3,), 0)
    const = [Fraction(2, 7)] * 5
    Qc = classify_global_quadratic(const, Z5)
    assert Qc.m == 0 and Qc.xi == (0,) and Qc.c == Fraction(2, 7)
    lin = [Fraction(4 * x, 5) % 1 for x in range(5)]
    Ql = classify_global_quadratic(lin, Z5)
    assert Ql.m == 0 and Ql.xi == (4,) and Ql.c == 0


def test_classify_roundtrip_exhaustive():
    for gs in ("Z/5", "Z/7", "Z/9"):
        spec = parse_group(gs)
        n = spec.order
        for m in range(n):
            for xi in range(n):
                Q = QuadraticPhase.cyclic(spec, m, xi, Fraction(1, 3))
                phi = Q.values()
                R = classify_global_quadratic(phi, spec)
                assert R.values() == phi


def test_classify_roundtrip_random_matrices(rng=np.random.default_rng(11)):
    for gs in ("F5^2", "F5^3"):
        spec = parse_group(gs)
        k = spec.rank
        for _ in range(20):
            A = rng.integers(0, 5, size=(k, k))
            A = (A + A.T) % 5
            xi = rng.integers(0, 5, size=k)
            Q = QuadraticPhase.from_integer_matrix(spec, A, xi, Fraction(2, 5))
            phi = Q.values()
            R = classify_global_quadratic(phi, spec)
            assert R.values() == phi


def test_classify_rejects_cubic():
    Z7 = parse_group("Z/7")
    with pytest.raises(NotQuadratic):
        classify_global_quadratic([Fraction(x**3, 7) for x in range(7)], Z7)


def test_classify_even_order():
    Z4 = parse_group("Z/4")
    with pytest.raises(EvenOrder):
        classify_global_quadratic([Fraction(0)] * 4, Z4)


def test_self_adjoint_decomposition(rng=np.random.default_rng(2)):
    # 2Mh.x = M(x+h).(x+h) - Mx.x - Mh.h exactly
    spec = parse_group("Z/4xZ/9")  # even order factor: skip; use odd group
    spec = parse_group("Z/3xZ/9")
    B = ((Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 9)))
    Q = QuadraticPhase(spec, B, (0, 0), Fraction(0))
    for _ in range(60):
        x = spec.element_by_index(int(rng.integers(spec.order)))
        h = spec.element_by_index(int(rng.integers(spec.order)))
        lhs = (2 * Q.bilinear_value(h, x)) % 1
        rhs = (
            Q.bilinear_value(x + h, x + h) - Q.bilinear_value(x, x) - Q.bilinear_value(h, h)
        ) % 1
        assert lhs == rhs


@given(st.sampled_from(["Z/9", "F5^3", "Z/25xZ/5", "Z/15xZ/21", "Z/9xZ/15xZ/7"]), st.data())
def test_translate_is_the_shifted_phase(group, data):
    # Q.translate(y) at x is Q at x - y, for a random self-adjoint form
    # (B[i][j] in (1/gcd(n_i, n_j))Z), a random character and constant
    spec = parse_group(group)
    k, orders = spec.rank, spec.orders
    B = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g = np.gcd(orders[i], orders[j])
            B[i][j] = B[j][i] = Fraction(data.draw(st.integers(0, g - 1)), int(g))
    xi = tuple(data.draw(st.integers(0, n - 1)) for n in orders)
    Q = QuadraticPhase(spec, tuple(map(tuple, B)), xi, Fraction(data.draw(st.integers(0, 10)), 11))
    y = spec.element_by_index(data.draw(st.integers(0, spec.order - 1)))
    T = Q.translate(y)
    values = Q.values()
    shifted = spec.add_indices(np.arange(spec.order), spec.neg_indices(y.index))
    assert T.values() == [values[i] for i in shifted.tolist()]
    x = spec.element_by_index(data.draw(st.integers(0, spec.order - 1)))
    assert T.evaluate(x) == Q.evaluate(x - y)


def test_extension_from_subspace_coset():
    spec = parse_group("F5^2")
    H = PrimeSubspace.from_generators(spec, [[1, 2]])
    y = spec.element([0, 2])
    # plant a quadratic on y+H in local coordinates
    phi = {}
    for t in range(5):
        amb = spec.element(tuple((y.coords[i] + t * H.basis[0][i]) % 5 for i in range(2)))
        phi[amb.index] = Fraction(3 * t * t + 2 * t, 5) % 1
    Q = extend_from_coset(phi, y, H)
    for idx, v in phi.items():
        assert Q.evaluate(spec.element_by_index(idx)) == v


def test_extension_identity_and_degenerate():
    Z9 = parse_group("Z/9")
    whole = BoxSubgroup.whole(Z9)
    phi = {x: Fraction(2 * x * x + x, 9) % 1 for x in range(9)}
    Q = extend_from_coset(phi, Z9.zero(), whole)
    assert all(Q.evaluate(Z9.element_by_index(i)) == phi[i] for i in range(9))
    trivial = BoxSubgroup(Z9, Z9.orders)
    Q0 = extend_from_coset({4: Fraction(1, 3)}, Z9.element([4]), trivial)
    assert Q0.evaluate(Z9.element([4])) == Fraction(1, 3)


def test_extension_even_order_rejected():
    Z12 = parse_group("Z/12")
    H = BoxSubgroup(Z12, (3,))
    phi = {i: Fraction(0) for i in [0, 3, 6, 9]}
    with pytest.raises(EvenOrder):
        extend_from_coset(phi, Z12.zero(), H)


def test_extension_obstruction_on_nonsquarefree():
    # t^2/3 on 3Z/9 is locally quadratic but admits no global quadratic
    # extension: the restriction map on self-adjoint homs is not onto
    Z9 = parse_group("Z/9")
    H = BoxSubgroup(Z9, (3,))
    phi = {(3 * t) % 9: Fraction(t * t, 3) % 1 for t in range(3)}
    assert is_locally_quadratic(phi, [0, 3, 6], Z9)
    with pytest.raises(ExtensionObstructed):
        extend_from_coset(phi, Z9.zero(), H)


def test_bracket_eval_examples():
    bq = BracketQuadratic(5, (1, 2), ((0, Fraction(5, 4)), (Fraction(5, 4), 0)), (0, 0))
    # 2.5 {n/5}{2n/5} at n=1: 2.5 * 0.2 * 0.4 = 0.2
    assert bq.eval(1) == Fraction(1, 5)
    assert bq.eval(0) == 0
    lin = BracketQuadratic(5, (1,), ((0,),), (1,))
    # {3/5} = -2/5 convention
    assert lin.eval(3) == Fraction(3, 5)
    assert frac_part(Fraction(3, 5)) == Fraction(-2, 5)


def test_bracket_json_roundtrip():
    bq = BracketQuadratic(
        101, (1, 17), ((0, Fraction(5, 2)), (Fraction(5, 2), 0)), (Fraction(1, 4), 0)
    )
    other = BracketQuadratic.from_json(bq.to_json())
    assert other.freqs == bq.freqs and other.quad == bq.quad and other.lin == bq.lin


def test_bracket_local_linearity_exact():
    # {xi(x+h)/N} = {xi x/N} + {xi h/N} exactly in the interior window
    N = 101
    rho = Fraction(1, 20)
    for xi in (1, 7):
        for x in range(N):
            vx = frac_part(Fraction(xi * x, N))
            if abs(vx) > Fraction(1, 2) - 9 * rho:
                continue
            for h in range(N):
                vh = frac_part(Fraction(xi * h, N))
                if abs(vh) > 2 * rho:
                    continue
                assert frac_part(Fraction(xi * (x + h), N)) == vx + vh


def test_bracket_from_progression_planted():
    # restriction of a global quadratic agrees with the recovered bracket
    N = 101
    spec = parse_group("Z/101")
    S = [spec.dual([1])]
    ext = coset_progression_in_bohr(spec, S, Fraction(1, 5))
    P = ext.progression
    phi = {x: Fraction(3 * x * x + 2 * x, N) % 1 for x in range(N)}
    bq = bracket_from_progression(phi, P, S, Fraction(1, 5))
    for l in range(-(P.half_lengths[0] - 1), P.half_lengths[0]):
        x = P.point([l], spec.zero())
        assert bq.eval(x.coords[0]) == phi[x.index]


def test_bracket_from_progression_zero():
    N = 101
    spec = parse_group("Z/101")
    S = [spec.dual([3])]
    ext = coset_progression_in_bohr(spec, S, Fraction(1, 5))
    phi = {x: Fraction(0) for x in range(N)}
    bq = bracket_from_progression(phi, ext.progression, S, Fraction(1, 5))
    assert all(v == 0 for v in bq.lin) and all(v == 0 for row in bq.quad for v in row)


def test_bracket_from_progression_rank2():
    N = 97
    spec = parse_group("Z/97")
    S = [spec.dual([1]), spec.dual([22])]
    ext = coset_progression_in_bohr(spec, S, Fraction(1, 5))
    P = ext.progression
    phi = {x: Fraction(5 * x * x + x, N) % 1 for x in range(N)}
    bq = bracket_from_progression(phi, P, S, Fraction(1, 5))
    import itertools as it

    for l in it.product(*[range(-(L - 1), L) for L in P.half_lengths]):
        x = P.point(l, spec.zero())
        assert bq.eval(x.coords[0]) == phi[x.index]


def test_quadratic_on_coset_progression():
    # planted representation data on a rank-1 progression with H = {0}
    spec = parse_group("Z/101")
    S = [spec.dual([1])]
    ext = coset_progression_in_bohr(spec, S, Fraction(1, 5))
    P = ext.progression
    phi = {x: Fraction(7 * x * x + 3 * x + 55, 101) % 1 for x in range(101)}
    rep = quadratic_on_coset_progression(phi, P)
    for l in range(-(P.half_lengths[0] - 1), P.half_lengths[0]):
        x = P.point([l], spec.zero())
        assert rep.reconstruct(P, [l], ()) == phi[x.index]


def test_isotropic_examples():
    F53 = parse_group("F5^3")
    W = PrimeSubspace.whole(F53)
    x = isotropic_vector(np.eye(3, dtype=int), W)
    assert (x @ np.eye(3, dtype=int) @ x) % 5 == 0 and np.any(x)
    assert x.tolist() == [0, 1, 2]  # first hit in lexicographic scan order
    # M = 0: any nonzero vector works
    z = isotropic_vector(np.zeros((3, 3), int), W)
    assert np.any(z)
    # dimension 1 with definite form: no solution
    F51 = parse_group("F5^1")
    with pytest.raises(NotFound):
        isotropic_vector([[1]], PrimeSubspace.whole(F51))


def test_isotropic_randomized(rng=np.random.default_rng(3)):
    for p in (5, 7):
        spec = parse_group(f"F{p}^3")
        W = PrimeSubspace.whole(spec)
        for _ in range(100):
            A = rng.integers(0, p, size=(3, 3))
            A = (A + A.T) % p
            x = isotropic_vector(A, W, rng)
            assert np.any(x % p) and (x @ A @ x) % p == 0


def test_isotropic_high_dimension(rng=np.random.default_rng(4)):
    spec = parse_group("F5^5")
    W = PrimeSubspace.whole(spec)
    for _ in range(10):
        A = rng.integers(0, 5, size=(5, 5))
        A = (A + A.T) % 5
        x = isotropic_vector(A, W, rng)
        assert np.any(x % 5) and (x @ A @ x) % 5 == 0


def test_degenerate_subspace_examples():
    F52 = parse_group("F5^2")
    W = PrimeSubspace.whole(F52)
    U = degenerate_subspace(np.eye(2, dtype=int), W)
    assert U.dim == 1 and U.basis == ((1, 2),)
    U0 = degenerate_subspace(np.zeros((2, 2), int), W)
    assert U0.dim == 2  # M = 0 gives U = W
    F53 = parse_group("F5^3")
    U3 = degenerate_subspace(np.eye(3, dtype=int), PrimeSubspace.whole(F53))
    assert U3.dim >= 1
    B = U3.basis_matrix()
    assert not np.any((B @ np.eye(3, dtype=int) @ B.T) % 5)


def test_complete_basis_matches_greedy_loop(rng):
    # the loop that PrimeSubspace.complement_basis, degenerate_subspace and the
    # density increment each ran before they shared complete_basis
    for _ in range(60):
        p = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(1, 5))
        rows = [list(r) for r in rref_mod_p(rng.integers(0, p, (int(rng.integers(0, n + 1)), n)), p)[0]]
        cands = rng.integers(0, p, (int(rng.integers(0, 6)), n))
        if rng.uniform() < 0.5:
            cands = np.eye(n, dtype=np.int64)
        want = []
        for c in cands:
            if rank_mod_p(np.array(rows + want + [list(c)]), p) > len(rows) + len(want):
                want.append(list(c))
        got = complete_basis(rows, cands, p)
        assert got.shape == (len(want), n) and got.tolist() == want


def test_degenerate_subspace_dimension_guarantee(rng=np.random.default_rng(5)):
    spec = parse_group("F5^4")
    W = PrimeSubspace.whole(spec)
    for _ in range(20):
        A = rng.integers(0, 5, size=(4, 4))
        A = (A + A.T) % 5
        U = degenerate_subspace(A, W)
        assert U.dim >= W.dim / 2 - 1
        B = U.basis_matrix()
        if U.dim:
            assert not np.any((B @ A @ B.T) % 5)


def test_orthogonal_complement():
    Z9 = parse_group("Z/9")
    B = ((Fraction(3, 9),),)  # multiplication by 3
    K = BoxSubgroup(Z9, (3,))  # {0, 3, 6}
    perp = orthogonal_complement(B, K, Z9)
    assert perp.tolist() == list(range(9))  # 3*3*x*y/9 is an integer
    whole = BoxSubgroup.whole(Z9)
    Binj = ((Fraction(1, 9),),)
    perp2 = orthogonal_complement(Binj, whole, Z9)
    assert perp2.tolist() == [0]
    assert len(perp2) >= 9 / whole.order  # |K-perp| >= |H| / |K|
    K0 = BoxSubgroup(Z9, Z9.orders)  # the trivial subgroup
    assert len(orthogonal_complement(Binj, K0, Z9)) == 9


def test_gauss_sum_lemma_general_groups(rng=np.random.default_rng(6)):
    # groups of odd order <= 200, coprime to 3: record isotropic existence;
    # assert only when |K| >= 100 t^4 (never at this scale: recorded only)
    for orders in [(5,), (25,), (35,), (5, 5), (7, 7), (175,), (11, 11)]:
        spec = parse_group("x".join(f"Z/{n}" for n in orders))
        t = max(orders)
        n = len(orders)
        found_all = True
        for _ in range(5):
            # random self-adjoint bilinear form with denominators dividing orders
            B = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g = np.gcd(orders[i], orders[j])
                    v = Fraction(int(rng.integers(0, g)), int(g))
                    B[i][j] = B[j][i] = v
            found = False
            for x in elements(spec):
                if x.index == 0:
                    continue
                val = sum(
                    B[i][j] * x.coords[i] * x.coords[j] for i in range(n) for j in range(n)
                )
                if val % 1 == 0:
                    found = True
                    break
            found_all &= found
            if spec.order >= 100 * t**4:
                assert found
        # recorded outcome; no assertion below the size hypothesis
