"""The exact-phase steps of ``u3kit.quadratic`` on numerator tables against
the per-point Fraction loops they replaced: ``QuadraticPhase.values``, the
local branch of ``is_locally_quadratic``, ``classify_global_quadratic``,
``extend_from_coset``, ``quadratic_on_coset_progression``,
``bracket_from_progression`` and ``orthogonal_complement`` (no longer in
the library: a reference in test_quadratic).  Each reference
below is the replaced code, kept here.  Both sides must return equal results,
or raise the same exception type with the same message.

The inputs are random planted phases (global quadratics, phases quadratic
only on a coset or a progression, bracket quadratics), also with one point
moved, on F5^2-F5^4 with subspace cosets of every dimension, on Z/9, Z/45,
Z/63, Z/75, Z/135, Z/225 and Z/9xZ/15 with box subgroups, and on progressions
in Z/97, Z/101 and Z/1009."""

import itertools
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import elements, traced_peak
from test_quadratic import orthogonal_complement
from u3kit import quadratic
from u3kit.bohr import CosetProgression, coset_progression_in_bohr
from u3kit.errors import BudgetExceeded, DependentGenerators, ExtensionObstructed, NotProper, NotQuadratic, SpecMismatch
from u3kit.groups import GroupSpec, mod1, parse_group
from u3kit.lattice import rref_rational
from u3kit.modlinalg import BoxSubgroup, PrimeSubspace, solve_congruence
from u3kit.quadratic import (
    BracketQuadratic,
    ProgressionQuadratic,
    QuadraticPhase,
    _half_mod,
    _local_spec,
    _require_odd,
    bracket_from_progression,
    classify_global_quadratic,
    extend_from_coset,
    frac_part,
    is_locally_quadratic,
    quadratic_on_coset_progression,
)

# --- the replaced code ----------------------------------------------------------------


def reference_values(Q: QuadraticPhase) -> list:
    return [Q.evaluate(x) for x in elements(Q.spec)]


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


def reference_extend_from_coset(phi, y, H) -> QuadraticPhase:
    spec = H.spec
    _require_odd(spec)
    loc = _local_spec(H)
    table = []
    for idx in H.coset(y.index).tolist():
        if idx not in phi:
            raise SpecMismatch("phase not defined on the whole coset")
        table.append(Fraction(phi[idx]))
    QH = reference_classify(table, loc)
    if isinstance(H, PrimeSubspace):
        p, kk, n = H.p, H.dim, spec.rank
        if kk == 0:
            Q0 = QuadraticPhase.from_integer_matrix(spec, np.zeros((n, n), int), [0] * n, QH.c)
        else:
            A_H = np.array([[int(QH.bilinear[i][j] * p) % p for j in range(kk)] for i in range(kk)], dtype=np.int64)
            R = H.coordinate_map()
            Q0 = QuadraticPhase.from_integer_matrix(spec, (R.T @ A_H @ R) % p, (np.array(QH.xi) @ R) % p, QH.c)
    else:
        k = spec.rank
        B = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                target = QH.bilinear[i][j]
                if target == 0:
                    continue
                u, mden = target.numerator, target.denominator
                g = gcd(spec.orders[i], spec.orders[j])
                v = solve_congruence(H.divisors[i] * H.divisors[j] * mden, u * g, g * mden)
                if v is None:
                    raise ExtensionObstructed("no global self-adjoint lift of the coset bilinear form")
                B[i][j] = mod1(Fraction(v, g))
        for i in range(k):
            for j in range(i + 1, k):
                B[j][i] = B[i][j]
        Q0 = QuadraticPhase(spec, tuple(tuple(r) for r in B), tuple(int(x) for x in QH.xi), QH.c)
    Q = Q0.translate(y)
    for idx, v in phi.items():
        if Q.evaluate(spec.element_by_index(int(idx))) != mod1(Fraction(v)):
            raise ExtensionObstructed("constructed extension disagrees on the coset")
    return Q


def reference_fit_pure_progression(g: dict, d: int, ls_range):
    c = g[(0,) * d]
    second = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        ei = tuple(1 if t == i else 0 for t in range(d))
        mi = tuple(-1 if t == i else 0 for t in range(d))
        second[i][i] = mod1(g[ei] + g[mi] - 2 * c)
    for i in range(d):
        for j in range(i + 1, d):
            eij = tuple(1 if t in (i, j) else 0 for t in range(d))
            ei = tuple(1 if t == i else 0 for t in range(d))
            ej = tuple(1 if t == j else 0 for t in range(d))
            second[i][j] = second[j][i] = mod1(g[eij] - g[ei] - g[ej] + c)
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    for branch in itertools.product([0, 1], repeat=len(pairs)):
        lam = [[Fraction(0)] * d for _ in range(d)]
        for (i, j), b in zip(pairs, branch):
            lam[i][j] = lam[j][i] = mod1(Fraction(mod1(second[i][j]), 2) + Fraction(b, 2))
        eta = [mod1(g[tuple(1 if t == i else 0 for t in range(d))] - lam[i][i] - c) for i in range(d)]
        ok = True
        for l in itertools.product(*ls_range):
            val = c
            for i in range(d):
                val += l[i] * eta[i]
                for j in range(d):
                    val += l[i] * l[j] * lam[i][j]
            if mod1(val) != g[tuple(l)]:
                ok = False
                break
        if ok:
            return lam, eta, c
    raise NotQuadratic("no exact quadratic fit of the progression table")


def reference_quadratic_on_coset_progression(phi, P) -> ProgressionQuadratic:
    H = P.subgroup
    spec = H.spec
    _require_odd(spec)
    if not P.proper:
        raise NotProper("progression is not proper")
    coset = spec.add_indices(H.element_indices(), np.int64(P.base.index)).tolist()
    base_Q = reference_extend_from_coset({i: Fraction(phi[i]) for i in coset}, P.base, H)
    d = len(P.generators)
    loc = _local_spec(H)

    def phival(l, h_amb):
        return Fraction(phi[P.point(l, h_amb).index])

    zero_amb = spec.zero()
    rng = [range(-(L - 1), L) for L in P.half_lengths]
    resid = {}
    for l in itertools.product(*rng):
        x = P.point(l, zero_amb)
        resid[tuple(l)] = mod1(Fraction(phi[x.index]) - base_Q.evaluate(x))
    lam, eta, c0 = reference_fit_pure_progression(resid, d, rng)
    if c0 != 0:
        raise NotQuadratic("residual must vanish on the base coset")
    xi_cross = []
    for i in range(d):
        ei = tuple(1 if t == i else 0 for t in range(d))
        coords = []
        for t in range(loc.rank if H.local_orders else 0):
            amb = spec.element(H.embed_coords(tuple(1 if s == t else 0 for s in range(loc.rank))))
            chi = mod1(phival(ei, amb) - phival(ei, zero_amb) - base_Q.evaluate(P.point(ei, amb))
                       + base_Q.evaluate(P.point(ei, zero_amb)))
            numer = _half_mod(chi, loc.orders[t]) * loc.orders[t]
            if numer.denominator != 1:
                raise NotQuadratic("cross term is not a character of H")
            coords.append(int(numer) % loc.orders[t])
        xi_cross.append(tuple(coords))
    out = ProgressionQuadratic(base_Q, xi_cross, lam, eta)
    for l in itertools.product(*rng):
        for h in (elements(loc) if H.local_orders else [loc.zero()]):
            hc = h.coords if H.local_orders else ()
            amb = spec.element(H.embed_coords(hc)) if H.local_orders else zero_amb
            if out.reconstruct(P, l, hc) != mod1(Fraction(phi[P.point(l, amb).index])):
                raise NotQuadratic("progression reconstruction mismatch")
    return out


def reference_bracket_from_progression(phi, P, S, rho) -> BracketQuadratic:
    spec = P.subgroup.spec
    N = spec.order
    if spec.rank != 1:
        raise SpecMismatch("bracket quadratics live on Z/N")
    if P.subgroup.order != 1:
        raise SpecMismatch("expected trivial subgroup component for prime N")
    d = len(P.generators)
    freqs = tuple(int(xi.coords[0]) for xi in S)
    s = len(freqs)
    if d == 0:
        zero_q = tuple(tuple(Fraction(0) for _ in range(s)) for _ in range(s))
        return BracketQuadratic(N, freqs, zero_q, (Fraction(0),) * s, mod1(Fraction(phi[0])))
    resid = {}
    rng = [range(-(L - 1), L) for L in P.half_lengths]
    for l in itertools.product(*rng):
        resid[tuple(l)] = Fraction(phi[P.point(l, spec.zero()).index])
    lam, eta, c = reference_fit_pure_progression(resid, d, rng)
    V = [[frac_part(Fraction(xi * g.coords[0], N)) for xi in freqs] for g in P.generators]
    Vm = np.array([[Fraction(v) for v in row] for row in V], dtype=object).reshape(d, s).T
    if len(rref_rational(Vm)[1]) < d:
        raise DependentGenerators("generator images are linearly dependent")
    G = Vm.T @ Vm
    inv, pivots = rref_rational(np.hstack([G, np.eye(d, dtype=np.int64)]))
    if pivots != list(range(d)):
        raise DependentGenerators("singular Gram matrix")
    U = Vm @ inv[:, d:]
    quad = [[Fraction(0)] * s for _ in range(s)]
    lin = [Fraction(0)] * s
    for i in range(d):
        for j in range(d):
            for a in range(s):
                for b in range(s):
                    quad[a][b] += lam[i][j] * U[a, i] * U[b, j]
    for a in range(s):
        for b in range(a + 1, s):
            quad[a][b] = quad[b][a] = (quad[a][b] + quad[b][a]) / 2
    for i in range(d):
        for a in range(s):
            lin[a] += eta[i] * U[a, i]
    bq = BracketQuadratic(N, freqs, tuple(tuple(r) for r in quad), tuple(lin), mod1(c))
    for l in itertools.product(*rng):
        x = P.point(l, spec.zero())
        if mod1(bq.eval(x.coords[0])) != mod1(Fraction(phi[x.index])):
            raise NotQuadratic("bracket quadratic disagrees on the progression")
    return bq


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
PRIMES = [97, 101, 1009]


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


@st.composite
def _coset_cases(draw):
    """(phi, y, H): a global quadratic on all of G or on y+H only, or a
    quadratic in the local coordinates of y+H (which need not extend), with
    one point moved or not."""
    spec = parse_group(draw(st.sampled_from(F5 + BOX)))
    H = _subgroup(draw, spec)
    y = spec.element_by_index(draw(st.integers(0, spec.order - 1)))
    coset = H.coset(y.index).tolist()
    kind = draw(st.sampled_from(["global", "restricted", "local"]))
    if kind == "local":
        local = _form(draw, _local_spec(H)).values()
        phi = {i: local[t] for t, i in enumerate(coset)}
    else:
        vals = _form(draw, spec).values()
        phi = dict(enumerate(vals)) if kind == "global" else {i: vals[i] for i in coset}
    return (_move_one(draw, phi) if draw(st.booleans()) else phi), y, H


_Z9 = parse_group("Z/9")


@settings(max_examples=80)
@given(_coset_cases())
@example(({0: Fraction(0), 3: Fraction(1, 3), 6: Fraction(1, 3)}, _Z9.zero(), BoxSubgroup(_Z9, (3,))))  # no lift
def test_extend_from_coset_matches_reference(case):
    phi, y, H = case
    assert outcome(extend_from_coset, phi, y, H) == outcome(reference_extend_from_coset, phi, y, H)


def _progression(draw):
    """A coset progression (properness is checked, not assumed) with a
    random base: from the Bohr extraction on a cyclic group (rank 2 on
    Z/135 and Z/1009), or built on F5^n and Z/9xZ/15 from a subgroup, up to
    two generators (on F5^n independent of the subspace) and half-lengths
    2-3."""
    gs = draw(st.sampled_from(F5 + BOX + [f"Z/{p}" for p in PRIMES]))
    spec = parse_group(gs)
    if spec.rank == 1:
        s = 2 if gs in ("Z/135", "Z/1009") and draw(st.booleans()) else 1
        S = [spec.dual([draw(st.integers(1, spec.order - 1))]) for _ in range(s)]
        try:
            P = coset_progression_in_bohr(spec, S, Fraction(1, 5)).progression
        except NotProper:
            assume(False)
    else:
        if spec.orders[0] == 5:  # a proper subspace, and multiples of vectors completing its basis
            rows = draw(st.lists(st.lists(st.integers(0, 4), min_size=spec.rank, max_size=spec.rank),
                                 min_size=1, max_size=spec.rank - 1))
            H = PrimeSubspace.from_generators(spec, rows)
            comp = H.complement_basis()[: draw(st.integers(1, 2))]
            gens = tuple(spec.element(draw(st.integers(1, 4)) * row) for row in comp)
        else:
            H = _subgroup(draw, spec)
            gens = tuple(spec.element_by_index(draw(st.integers(1, spec.order - 1)))
                         for _ in range(draw(st.integers(1, 2))))
        P = CosetProgression(spec, spec.zero(), gens, tuple(draw(st.integers(2, 3)) for _ in gens), H)
        P.proper = P.check_proper()
    base = spec.element_by_index(draw(st.integers(0, spec.order - 1)))
    return CosetProgression(spec, base, P.generators, P.half_lengths, P.subgroup, P.proper)


@st.composite
def _progression_cases(draw):
    """(phi, P): a global quadratic, or a phase of the representation form
    on P only (arbitrary rational lam and eta, so not a global quadratic),
    with one point moved or not."""
    P = _progression(draw)
    spec = P.spec
    base_Q = _form(draw, spec)
    if draw(st.booleans()):
        phi = dict(enumerate(base_Q.values()))
    else:
        H, d = P.subgroup, len(P.generators)
        k = len(H.local_orders)
        frac = st.builds(Fraction, st.integers(0, 20), st.sampled_from([1, 2, 3, 5, 7, 11]))
        lam = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                lam[i][j] = lam[j][i] = draw(frac)
        xi_cross = [tuple(draw(st.integers(0, n - 1)) for n in H.local_orders) for _ in range(d)]
        rep = ProgressionQuadratic(base_Q, xi_cross, lam, [draw(frac) for _ in range(d)])
        loc = _local_spec(H)
        phi = {}
        for l in itertools.product(*[range(-(L - 1), L) for L in P.half_lengths]):
            for h in elements(loc):
                hc = h.coords[:k]
                amb = spec.element(H.embed_coords(hc)) if k else spec.zero()
                phi[P.point(l, amb).index] = rep.reconstruct(P, l, hc)
    return (_move_one(draw, phi) if draw(st.booleans()) else phi), P


@settings(max_examples=150)
@given(_progression_cases())
def test_quadratic_on_coset_progression_matches_reference(case):
    phi, P = case
    got = outcome(quadratic_on_coset_progression, phi, P)
    assert got == outcome(reference_quadratic_on_coset_progression, phi, P)


@st.composite
def _bracket_cases(draw):
    """(phi, P, S): the Bohr progression of one or two frequencies on Z/p,
    and phi a cyclic quadratic or an on-grid bracket quadratic, with one
    point moved or not."""
    N = draw(st.sampled_from(PRIMES))
    spec = GroupSpec((N,))
    S = [spec.dual([f]) for f in draw(st.lists(st.integers(1, N - 1), min_size=1, max_size=2, unique=True))]
    P = coset_progression_in_bohr(spec, S, Fraction(1, 5)).progression
    if draw(st.booleans()):
        vals = QuadraticPhase.cyclic(spec, draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1)),
                                     Fraction(draw(st.integers(0, 6)), 7)).values()
    else:
        s = len(S)
        coef = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4]))
        quad = [[Fraction(0)] * s for _ in range(s)]
        for a in range(s):
            for b in range(a, s):
                quad[a][b] = quad[b][a] = draw(coef)
        bq = BracketQuadratic(N, tuple(int(xi.coords[0]) for xi in S), tuple(map(tuple, quad)),
                              tuple(draw(coef) for _ in range(s)), draw(coef))
        vals = [bq.eval(n) for n in range(N)]
    phi = dict(enumerate(vals))
    return (_move_one(draw, phi) if draw(st.booleans()) else phi), P, S


@settings(max_examples=40)
@given(_bracket_cases())
def test_bracket_from_progression_matches_reference(case):
    phi, P, S = case
    rho = Fraction(1, 5)
    assert outcome(bracket_from_progression, phi, P, S, rho) == outcome(
        reference_bracket_from_progression, phi, P, S, rho)


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


def test_bracket_from_progression_reads_values_mod_1():
    # a torus value need not be reduced: phi + 1 is the same phase, and the
    # numerator table reduces it where the old dict compared it unreduced
    N = 101
    spec = GroupSpec((N,))
    S = [spec.dual([1])]
    P = coset_progression_in_bohr(spec, S, Fraction(1, 5)).progression
    phi = {x: Fraction(3 * x * x + 2 * x, N) % 1 for x in range(N)}
    shifted = {x: v + 1 for x, v in phi.items()}
    assert bracket_from_progression(shifted, P, S, Fraction(1, 5)) == bracket_from_progression(phi, P, S, Fraction(1, 5))
    with pytest.raises(NotQuadratic, match="no exact quadratic fit"):
        reference_bracket_from_progression(shifted, P, S, Fraction(1, 5))


def test_numerators_at_an_index_array():
    spec = parse_group("Z/9xZ/15")
    Q = QuadraticPhase(spec, ((Fraction(2, 9), Fraction(1, 3)), (Fraction(1, 3), Fraction(4, 15))), (1, 2),
                       Fraction(1, 5))
    full, D = Q.numerators()
    idx = np.array([[7, 0], [134, 64]])
    num, D2 = Q.numerators(idx)
    assert D2 == D and num.shape == (2, 2) and num.tolist() == full[idx].tolist()
