from unittest import mock
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np
import pytest

from conftest import bilinear_value, coord_add, frac_part
from u3kit import modlinalg
from u3kit.errors import EvenOrder, NotFound, NotQuadratic
from u3kit.groups import GroupSpec, parse_group
from u3kit.modlinalg import (
    BoxSubgroup,
    PrimeSubspace,
    Subgroup,
    complete_basis,
    isotropic_vector_in,
    kernel_basis_mod_p,
    rref_mod_p,
)
from u3kit.quadratic import (
    BracketQuadratic,
    QuadraticPhase,
    _numerators,
    classify_global_quadratic,
    degenerate_subspace,
    is_locally_quadratic,
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
        if rref_mod_p(T, p)[0].shape[0] < 3:
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
    assert Q.values()[1] == 0  # (2+3)/5
    Qc = QuadraticPhase.cyclic(Z5, 0, 0, Fraction(1, 3))
    assert Qc.values() == [Fraction(1, 3)] * 5
    F52 = parse_group("F5^2")
    QI = QuadraticPhase.from_integer_matrix(F52, [[1, 0], [0, 1]], [0, 0])
    assert QI.values()[F52.index_of([1, 2])] == 0  # (1+4)/5


def test_is_locally_quadratic():
    Z7 = parse_group("Z/7")
    cubic = [Fraction(x**3, 7) for x in range(7)]
    assert not is_locally_quadratic(*_numerators(cubic), Z7)
    quad = [Fraction(3 * x * x + x, 7) for x in range(7)]
    assert is_locally_quadratic(*_numerators(quad), Z7)


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
    # 2Mh.x = M(x+h).(x+h) - Mx.x - Mh.h exactly: the reference form against
    # the second differences of the values, Mx.x with xi = 0 and c = 0
    spec = parse_group("Z/3xZ/9")
    B = ((Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 9)))
    Q = QuadraticPhase(spec, B, (0, 0), Fraction(0))
    vals = Q.values()
    for _ in range(60):
        x = int(rng.integers(spec.order))
        h = int(rng.integers(spec.order))
        lhs = (2 * bilinear_value(Q, h, x)) % 1
        assert lhs == (vals[coord_add(spec, x, h)] - vals[x] - vals[h]) % 1
        assert vals[x] == bilinear_value(Q, x, x)


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
    # density increment each ran before they shared complete_basis, one rank
    # per candidate
    def rank(mat, p):
        return rref_mod_p(np.atleast_2d(mat), p)[0].shape[0]

    for trial in range(80):
        p = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(1, 5))
        nrows = 0 if trial % 4 == 0 else int(rng.integers(0, n + 1))
        rows = [list(r) for r in rref_mod_p(rng.integers(0, p, (nrows, n)), p)[0]]
        cands = rng.integers(0, p, (int(rng.integers(0, 6)), n))
        if trial % 4 == 1 and rows:  # every candidate a combination of the rows
            cands = rng.integers(0, p, (int(rng.integers(1, 6)), len(rows))) @ np.array(rows)
        elif rng.uniform() < 0.5:
            cands = np.eye(n, dtype=np.int64)
        want = []
        for c in cands:
            if rank(np.array(rows + want + [list(c)]), p) > len(rows) + len(want):
                want.append(list(c))
        got = complete_basis(rows, cands, p)
        assert got.shape == (len(want), n) and got.tolist() == want
        if trial % 4 == 1 and rows:
            assert want == []


def test_basis_questions_take_one_elimination_each():
    W = PrimeSubspace.from_generators(parse_group("F5^4"), [[1, 2, 0, 3], [0, 1, 4, 4]])
    with mock.patch.object(modlinalg, "rref_mod_p", wraps=modlinalg.rref_mod_p) as counted:
        complete_basis(W.basis, np.eye(4, dtype=np.int64), 5)
        assert counted.call_count == 1
        W.complement_basis()
        assert counted.call_count == 2


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
            for x in range(1, spec.order):
                c = spec.coords_of(x)
                val = sum(B[i][j] * c[i] * c[j] for i in range(n) for j in range(n))
                if val % 1 == 0:
                    found = True
                    break
            found_all &= found
            if spec.order >= 100 * t**4:
                assert found
        # recorded outcome; no assertion below the size hypothesis
