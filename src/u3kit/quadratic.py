"""Quadratic phase functions on finite abelian groups of odd order.

A global quadratic phase is phi(x) = Mx.x + xi.x + c where M: G -> dual(G)
is a self-adjoint homomorphism.  We store the associated symmetric bilinear
form Mx.y as a matrix of exact Fractions B with B[i][j] = M e_i . e_j, so
self-adjointness is structural and all evaluation is exact.

The module also covers local quadraticity testing (vanishing third
differences), classification and coset extension, the representation of
locally quadratic functions on coset progressions, bracket quadratics on
Z/N, and the quadratic-form sublemmas (isotropic vectors, degenerate
subspaces, orthogonal complements).

Every exact phase table is held one way: integer numerators in [0, D) over
one common denominator D, addressed by group index.  ``_numerators`` turns
exact torus values into that form (``PhaseTable`` wraps it for a whole
group), ``QuadraticPhase.numerators`` evaluates a quadratic at an index
array in it, and ``_agree`` compares two such tables mod 1.  Points are
found through index arithmetic (``GroupSpec.add_indices``, the coset lister
``H.coset(y)`` of a subgroup, ``CosetProgression.progression_indices``),
never one ``GroupElement`` at a time.  The scalar APIs that remain are
``QuadraticPhase.evaluate`` (with ``bilinear_value`` and ``translate``),
``ProgressionQuadratic.reconstruct`` and ``BracketQuadratic.eval``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm, prod
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DependentGenerators,
    EvenOrder,
    ExtensionObstructed,
    NotFound,
    NotProper,
    NotQuadratic,
    SpecMismatch,
)
from .groups import DualElement, GroupElement, GroupSpec, TorusValue, mod1
from .lattice import rref_rational
from .modlinalg import (
    BoxSubgroup,
    PrimeSubspace,
    Subgroup,
    complete_basis,
    isotropic_vector_in,
    kernel_basis_mod_p,
    rank_mod_p,
    solve_congruence,
)

DEFAULT_CUBE_BUDGET = 400_000_000


def frac_part(t: TorusValue) -> TorusValue:
    """Fractional part in the fundamental domain (-1/2, 1/2]."""
    t = mod1(t)
    if isinstance(t, Fraction):
        return t if 2 * t <= 1 else t - 1
    return t if t <= 0.5 else t - 1.0


def round_half_up(t: TorusValue):
    """Nearest integer with half-integers rounded up (nilmanifold lifts)."""
    if type(t) is float:  # the nil orbits' common case, before the ABC check
        return floor(t + 0.5)
    if isinstance(t, Fraction):
        return (2 * t.numerator + t.denominator) // (2 * t.denominator)
    return floor(float(t) + 0.5)


def _require_odd(spec: GroupSpec) -> None:
    if spec.order % 2 == 0:
        raise EvenOrder(f"group {spec} has even order")


# --- exact phase tables -----------------------------------------------------


def _numerators(values: Iterable[TorusValue]) -> tuple[np.ndarray, int]:
    """Exact torus values as (numerators in [0, D), D) over their common
    denominator D: int64 while D < 2^62, so a difference of two stays in
    range, and Python integers (object dtype) past that."""
    fracs = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    D = lcm(1, *(f.denominator for f in fracs))
    num = [(f.numerator * (D // f.denominator)) % D for f in fracs]
    return np.array(num, dtype=np.int64 if D < 2**62 else object), D


def _agree(a: np.ndarray, Da: int, b: np.ndarray, Db: int) -> bool:
    """Whether the tables a/Da and b/Db (numerators in [0, D), broadcasting)
    agree mod 1 entry by entry, compared over lcm(Da, Db) on Python
    integers."""
    L = lcm(Da, Db)
    return bool(np.all(np.asarray(a, object) * (L // Da) == np.asarray(b, object) * (L // Db)))


class PhaseTable:
    """Exact torus-valued table over group indices: numerators over a common
    denominator, enabling vectorized integer arithmetic mod D (see
    ``_numerators`` for the dtype)."""

    def __init__(self, spec: GroupSpec, values: Sequence[TorusValue]):
        if len(values) != spec.order:
            raise SpecMismatch("phase table must have one value per element")
        self.spec = spec
        self.numerators, self.denominator = _numerators(values)


def is_locally_quadratic(
    phi: Mapping[int, TorusValue] | Sequence[TorusValue] | PhaseTable,
    domain: Iterable[int],
    spec: GroupSpec,
) -> bool:
    """Exact check that all third differences of phi vanish on cubes in the
    domain.

    ``phi`` maps ambient group indices to exact rationals (a Mapping, a
    Sequence, or a ``PhaseTable`` already converted); ``domain`` is the set
    of indices where phi is defined.  Both branches read phi's numerators
    over their common denominator D.

    On the full group only the generators e_1, ..., e_k of the factors are
    tried: Δ_{e_a}Δ_{e_b}Δ_{e_c}φ(x) = 0 for every a <= b <= c and every x,
    read off the numerators mod D, in rank^3·N steps.  That is exact.  A
    function F with Δ_{e_c}F = 0 for every generator is constant, and
    Δ_{h+k}F = T^kΔ_hF + Δ_kF extends "Δ_hF is constant" from generators h
    to every h.  So vanishing along generator triples makes each
    Δ_{e_a}Δ_{e_b}φ constant, then (with F = Δ_{e_b}φ) each Δ_hΔ_{e_b}φ =
    Δ_{e_b}Δ_hφ, then (with F = Δ_hφ) each Δ_kΔ_hφ, which is the statement
    that every third difference vanishes.
    Third differences commute, so a <= b <= c covers every ordered triple.
    On a proper domain every cube of |B|^4 base points and shifts is scanned.
    Either count above DEFAULT_CUBE_BUDGET raises BudgetExceeded.
    """
    dom = np.array(sorted(set(int(i) for i in domain)), dtype=np.int64)
    m = len(dom)
    N = spec.order
    if m == N:
        dom = np.arange(N, dtype=np.int64)
        k = spec.rank
        if k**3 * N > DEFAULT_CUBE_BUDGET:
            raise BudgetExceeded(
                f"rank^3*N = {k}^3*{N} generator third-difference scan exceeds budget "
                f"{DEFAULT_CUBE_BUDGET}"
            )
    if isinstance(phi, PhaseTable):
        num, D = phi.numerators, phi.denominator
    else:
        vals, D = _numerators([phi[int(i)] for i in dom])
        num = np.zeros(N, dtype=vals.dtype)
        num[dom] = vals
    if m == N:
        idx = dom
        gens = [spec.index_of([int(t == a) for t in range(k)]) for a in range(k)]
        shifted = [spec.add_indices(idx, np.int64(g)) for g in gens]  # x + e_a
        for a in range(k):
            d1 = (num[shifted[a]] - num) % D
            for b in range(a, k):
                d2 = (d1[shifted[b]] - d1) % D
                # both sides lie in [0, D): Δ_{e_c} d2 vanishes mod D iff equal
                if any(np.any(d2[shifted[c]] != d2) for c in range(b, k)):
                    return False
        return True

    member = np.zeros(N, dtype=bool)
    member[dom] = True
    if m**4 > DEFAULT_CUBE_BUDGET:
        raise BudgetExceeded(f"|B|^4 = {m**4} cube scan exceeds budget")
    if m == 0:
        return True
    if D >= 2**61:  # the eight-term sum below lies in (-4D, 4D)
        num = num.astype(object)
    neg = spec.neg_indices(dom)
    for xi in range(m):
        x = dom[xi]
        nx = neg[xi]
        # h_i = dom[j] - x; cube corners from sums of the chosen points
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
            -num[x]
            + (num[p1] + num[p2] + num[p3])
            - (num[s12] + num[s13] + num[s23])
            + num[s123]
        ) % D
        if np.any(total[ok] != 0):
            return False
    return True


# --- global quadratic phases -------------------------------------------------


@dataclass(frozen=True)
class QuadraticPhase:
    """phi(x) = Mx.x + xi.x + c with exact symmetric bilinear form Mx.y."""

    spec: GroupSpec
    bilinear: tuple[tuple[Fraction, ...], ...]  # B[i][j] = M e_i . e_j, symmetric
    xi: tuple[int, ...]  # dual coordinates
    c: Fraction

    def __post_init__(self):
        k = self.spec.rank
        B = self.bilinear
        if len(B) != k or any(len(r) != k for r in B):
            raise SpecMismatch("bilinear matrix shape mismatch")
        for i in range(k):
            for j in range(k):
                if B[i][j] != B[j][i]:
                    raise NotQuadratic("bilinear form must be symmetric")
                d = B[i][j].denominator
                if self.spec.orders[i] % d or self.spec.orders[j] % d:
                    raise NotQuadratic("bilinear denominator incompatible with orders")

    @staticmethod
    def from_integer_matrix(
        spec: GroupSpec, mat: Sequence[Sequence[int]], xi: Sequence[int], c: TorusValue = 0
    ) -> "QuadraticPhase":
        """Homogeneous groups (all factor orders equal n): B = mat/n."""
        n = spec.orders[0]
        if any(m != n for m in spec.orders):
            raise SpecMismatch("integer-matrix constructor requires equal factor orders")
        B = tuple(
            tuple(Fraction(int(mat[i][j]) % n, n) for j in range(spec.rank))
            for i in range(spec.rank)
        )
        return QuadraticPhase(spec, B, tuple(int(v) % n for v in xi), Fraction(mod1(Fraction(c))))

    @staticmethod
    def cyclic(spec: GroupSpec, m: int, b: int, c: TorusValue = 0) -> "QuadraticPhase":
        """Z/N: phi(x) = (m x^2 + b x)/N + c."""
        if spec.rank != 1:
            raise SpecMismatch("cyclic constructor requires a single factor")
        return QuadraticPhase.from_integer_matrix(spec, [[m]], [b], c)

    @property
    def m(self) -> int:
        """The integer m with Mx.x = m x^2 / N (cyclic groups only)."""
        if self.spec.rank != 1:
            raise SpecMismatch("m is defined for cyclic groups only")
        n = self.spec.orders[0]
        return int(self.bilinear[0][0] * n) % n

    def bilinear_value(self, x: GroupElement, y: GroupElement) -> Fraction:
        total = Fraction(0)
        for i, a in enumerate(x.coords):
            for j, b in enumerate(y.coords):
                total += self.bilinear[i][j] * a * b
        return mod1(total)

    def evaluate(self, x: GroupElement) -> Fraction:
        total = self.bilinear_value(x, x)
        for j, v in enumerate(x.coords):
            total += Fraction(self.xi[j] * v, self.spec.orders[j])
        return mod1(total + self.c)

    def values(self) -> list[Fraction]:
        """The value at every index, in index order."""
        num, D = self.numerators()
        return [Fraction(v, D) for v in num.tolist()]

    def numerators(self, idx=None) -> tuple[np.ndarray, int]:
        """(numerators at the indices ``idx``, every index by default, common
        denominator), vectorized on Python integers (object dtype), so no
        denominator overflows."""
        spec = self.spec
        D = lcm(
            1,
            *(b.denominator for row in self.bilinear for b in row),
            *spec.orders,
            self.c.denominator,
        )
        coords = spec.decode(np.arange(spec.order) if idx is None else idx).astype(object)
        acc = np.full(coords.shape[:-1], (self.c.numerator * (D // self.c.denominator)) % D, object)
        for i in range(spec.rank):
            for j in range(spec.rank):
                b = self.bilinear[i][j]
                acc = (acc + (b.numerator * (D // b.denominator)) % D * coords[..., i] * coords[..., j]) % D
        for j in range(spec.rank):
            acc = (acc + (self.xi[j] * (D // spec.orders[j])) % D * coords[..., j]) % D
        return acc % D, D

    def translate(self, y: GroupElement) -> "QuadraticPhase":
        """The phase x -> phi(x - y) in standard form."""
        spec = self.spec
        k = spec.rank
        xi_new = []
        for j in range(k):
            shift = Fraction(0)
            for i in range(k):
                shift += self.bilinear[i][j] * y.coords[i]
            # xi_new . e_j = xi . e_j - 2 M y . e_j
            val = mod1(Fraction(self.xi[j], spec.orders[j]) - 2 * shift)
            num = val * spec.orders[j]
            if num.denominator != 1:
                raise NotQuadratic("translate produced a non-character linear part")
            xi_new.append(int(num) % spec.orders[j])
        byy = self.bilinear_value(y, y)
        xiy = sum(Fraction(self.xi[j] * y.coords[j], spec.orders[j]) for j in range(k))
        c_new = mod1(byy - xiy + self.c)
        return QuadraticPhase(spec, self.bilinear, tuple(xi_new), Fraction(c_new))

    def to_json(self) -> dict:
        return {
            "group": str(self.spec),
            "bilinear": [[f"{b.numerator}/{b.denominator}" for b in row] for row in self.bilinear],
            "xi": list(self.xi),
            "c": f"{self.c.numerator}/{self.c.denominator}",
        }


def _half_mod(value: Fraction, modulus_hint: int) -> Fraction:
    """Divide by 2 inside the cyclic subgroup of R/Z generated by 1/den."""
    value = mod1(value)
    den = value.denominator
    if den % 2 == 0 or modulus_hint % den:
        raise NotQuadratic("value not in the expected odd cyclic subgroup")
    inv2 = pow(2, -1, den) if den > 1 else 0
    return mod1(Fraction(value.numerator * inv2, den))


def classify_global_quadratic(phi: Sequence[TorusValue], spec: GroupSpec) -> QuadraticPhase:
    """Recover (M, xi, c) from a globally quadratic phase table, exactly.

    The bilinear form is read off the symmetric second difference
    phi(x+h) - phi(x) - phi(h) + phi(0) = 2 Mh.x, halving each entry using
    that the group order is odd; the linear part is the residual at the
    basis vectors and c = phi(0).  phi is converted to numerators once, and
    the reconstruction is compared with it at every index.
    """
    _require_odd(spec)
    table = PhaseTable(spec, phi)
    if not is_locally_quadratic(table, range(spec.order), spec):
        raise NotQuadratic("third differences do not vanish")
    num, D = table.numerators, table.denominator
    k = spec.rank

    def at(i) -> Fraction:
        return Fraction(int(num[i]), D)

    e = [spec.index_of([int(t == i) for t in range(k)]) for i in range(k)]
    B: list[list[Fraction]] = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            chi = mod1(at(spec.add_indices(e[i], e[j])) - at(e[i]) - at(e[j]) + at(0))
            g = gcd(spec.orders[i], spec.orders[j])
            if g % chi.denominator:
                raise NotQuadratic("second difference has incompatible denominator")
            B[i][j] = _half_mod(chi, g)
    xi = []
    for j in range(k):
        r = mod1(at(e[j]) - B[j][j] - at(0))
        numer = r * spec.orders[j]
        if numer.denominator != 1:
            raise NotQuadratic("linear residual is not a character")
        xi.append(int(numer) % spec.orders[j])
    Q = QuadraticPhase(spec, tuple(tuple(row) for row in B), tuple(xi), at(0))
    if not _agree(*Q.numerators(), num, D):
        raise NotQuadratic("reconstruction mismatch")
    return Q


# --- extension from cosets ---------------------------------------------------


def _local_spec(H: Subgroup) -> GroupSpec:
    orders = tuple(H.local_orders)
    return GroupSpec(orders if orders else (1,))


def extend_from_coset(
    phi: Mapping[int, TorusValue], y: GroupElement, H: Subgroup
) -> QuadraticPhase:
    """Extend a quadratic phase on y+H to a global quadratic phase.

    The extension is non-unique; undetermined coefficients take the zero
    lift.  Prime subspaces lift through a complement; box subgroups lift
    coefficient congruences factor by factor.  For subgroups of
    non-squarefree cyclic factors the congruence may be unsolvable, in which
    case no global quadratic extension exists and ExtensionObstructed is
    raised.  The extension is checked against phi at every index of phi,
    on the coset and off it.
    """
    spec = H.spec
    _require_odd(spec)
    loc = _local_spec(H)
    coset = H.coset(y.index).tolist()
    if not all(i in phi for i in coset):
        raise SpecMismatch("phase not defined on the whole coset")
    QH = classify_global_quadratic([phi[i] for i in coset], loc)

    if isinstance(H, PrimeSubspace):
        p = H.p
        kk = H.dim
        n = spec.rank
        if kk == 0:
            Q0 = QuadraticPhase.from_integer_matrix(
                spec, np.zeros((n, n), int), [0] * n, QH.c
            )
        else:
            A_H = np.array(
                [[int(QH.bilinear[i][j] * p) % p for j in range(kk)] for i in range(kk)],
                dtype=np.int64,
            )
            R = H.coordinate_map()  # local coords of the projection onto H
            A_G = (R.T @ A_H @ R) % p
            xi_G = (np.array(QH.xi, dtype=np.int64) @ R) % p
            Q0 = QuadraticPhase.from_integer_matrix(spec, A_G, xi_G, QH.c)
    elif isinstance(H, BoxSubgroup):
        k = spec.rank
        B = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                target = QH.bilinear[i][j]
                if target == 0:
                    continue
                u, mden = target.numerator, target.denominator
                g = gcd(spec.orders[i], spec.orders[j])
                di, dj = H.divisors[i], H.divisors[j]
                v = solve_congruence(di * dj * mden, u * g, g * mden)
                if v is None:
                    raise ExtensionObstructed(
                        "no global self-adjoint lift of the coset bilinear form"
                    )
                B[i][j] = mod1(Fraction(v, g))
        # symmetrize exactly (targets are symmetric; congruence picks one rep)
        for i in range(k):
            for j in range(i + 1, k):
                B[j][i] = B[i][j]
        xi_G = tuple(int(x) for x in QH.xi)
        Q0 = QuadraticPhase(spec, tuple(tuple(r) for r in B), xi_G, QH.c)
    else:  # pragma: no cover
        raise SpecMismatch("unsupported subgroup representation")

    Q = Q0.translate(y)
    num, D = _numerators(phi.values())
    if not _agree(*Q.numerators(np.fromiter(phi, np.int64, len(phi))), num, D):
        raise ExtensionObstructed("constructed extension disagrees on the coset")
    return Q


# --- coset progressions: representation of locally quadratic phases ---------


@dataclass
class ProgressionQuadratic:
    """Data of phi(a + sum l_i v_i + h) = Mh.h + 2 sum l_i xi_i.h
    + sum l_i l_j lambda_ij + xi_0.h + sum l_i eta_i + c on a proper
    symmetric coset progression."""

    base_quadratic: QuadraticPhase  # global quadratic matching phi on a+H
    xi_cross: list[tuple[int, ...]]  # xi_i in local dual coords of H
    lam: list[list[Fraction]]  # symmetric
    eta: list[Fraction]

    def reconstruct(self, P, l: Sequence[int], h_local: Sequence[int]) -> Fraction:
        H = P.subgroup
        spec = H.spec
        h_local = tuple(h_local) + (0,) * (len(H.local_orders) - len(h_local))
        amb = H.embed_coords(h_local) if H.local_orders else (0,) * spec.rank
        x = P.point(l, spec.element(amb))
        val = self.base_quadratic.evaluate(x)  # covers Mh.h + xi0.h + c + base shift
        d = len(l)
        loc = _local_spec(H)
        for i in range(d):
            cross = sum(
                Fraction(self.xi_cross[i][t] * h_local[t], loc.orders[t])
                for t in range(len(h_local))
            ) if h_local else Fraction(0)
            val += 2 * l[i] * cross + l[i] * self.eta[i]
            for j in range(d):
                val += l[i] * l[j] * self.lam[i][j]
        return mod1(val)


def _grid(half_lengths: Sequence[int]) -> np.ndarray:
    """The l-grid prod range(-(L_i - 1), L_i) as a (d, n) array of Python
    integers, lexicographic with l_1 slowest: the order of
    ``CosetProgression.progression_indices``."""
    sizes = [2 * L - 1 for L in half_lengths]
    ls = np.indices(sizes, dtype=np.int64).reshape(len(sizes), prod(sizes))
    return (ls - np.array(half_lengths, dtype=np.int64).reshape(-1, 1) + 1).astype(object)


def _grid_position(l: Sequence[int], half_lengths: Sequence[int]) -> int:
    """Position of the point l in ``_grid`` (a KeyError off the grid)."""
    pos = 0
    for li, L in zip(l, half_lengths, strict=True):
        if not -L < li < L:
            raise KeyError(tuple(l))
        pos = pos * (2 * L - 1) + li + L - 1
    return pos


def _pure_numerators(ls: np.ndarray, lam, eta, c, E: int) -> np.ndarray:
    """E·(c + sum_i l_i eta_i + sum_{i,j} l_i l_j lam_ij) at every grid
    point l (columns of ``ls``), for coefficients with denominators dividing
    E; not reduced mod E."""
    d = len(eta)
    acc = np.full(ls.shape[1], int(c * E), dtype=object)
    for i in range(d):
        acc = acc + ls[i] * int(eta[i] * E)
        for j in range(d):
            acc = acc + ls[i] * ls[j] * int(lam[i][j] * E)
    return acc


def _fit_pure_progression(g: np.ndarray, D: int, half_lengths: Sequence[int]):
    """Fit g(l)/D = sum_{i,j} l_i l_j lam_ij + sum_i l_i eta_i + c exactly,
    mod 1, for numerators g in [0, D) on the l-grid of ``_grid``.

    lam is half the second differences.  Halving in R/Z is two-valued, but
    the halves differ by 1/2, and l_i^2 = l_i, 2 l_i l_j = 0 mod 2, so every
    choice gives the same function mod 1 once eta is read off: the lower
    half is taken, and the fit is validated against the whole table in one
    comparison over the common denominator 2D of the coefficients.
    """
    d = len(half_lengths)

    def at(*steps: tuple[int, int]) -> Fraction:
        """g/D at the sum of the unit steps (axis, ±1)."""
        l = [0] * d
        for i, s in steps:
            l[i] += s
        return Fraction(int(g[_grid_position(l, half_lengths)]), D)

    c = at()
    lam: list[list[Fraction]] = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        lam[i][i] = mod1(at((i, 1)) + at((i, -1)) - 2 * c) / 2
    for i in range(d):
        for j in range(i + 1, d):
            lam[i][j] = lam[j][i] = mod1(at((i, 1), (j, 1)) - at((i, 1)) - at((j, 1)) + c) / 2
    eta = [mod1(at((i, 1)) - lam[i][i] - c) for i in range(d)]
    if not _agree(_pure_numerators(_grid(half_lengths), lam, eta, c, 2 * D) % (2 * D), 2 * D, g, D):
        raise NotQuadratic("no exact quadratic fit of the progression table")
    return lam, eta, c


def quadratic_on_coset_progression(phi: Mapping[int, TorusValue], P) -> ProgressionQuadratic:
    """Represent a locally quadratic phase on a proper coset progression.

    Returns reconstruction-verified coefficients; coefficient-level
    uniqueness is not claimed (halving in R/Z is two-valued).  Everything is
    read off one table: the numerators of phi - base_Q at the points
    base + sum l_i v_i + h of P, one row per l (in the order of
    ``P.progression_indices``) and one column per h (H in its local
    coordinates, lexicographic).
    """
    H = P.subgroup
    spec = H.spec
    _require_odd(spec)
    if not P.proper:
        raise NotProper("progression is not proper")
    base_Q = extend_from_coset({i: phi[i] for i in H.coset(P.base.index).tolist()}, P.base, H)
    d = len(P.generators)
    loc = _local_spec(H)
    k = len(H.local_orders)

    pts = spec.add_indices(P.progression_indices()[:, None], H.coset(0)[None, :])
    pnum, pD = _numerators([phi[i] for i in pts.ravel().tolist()])
    qnum, qD = base_Q.numerators(pts)
    L = lcm(pD, qD)
    resid = (pnum.reshape(pts.shape).astype(object) * (L // pD) - qnum * (L // qD)) % L
    lam, eta, c0 = _fit_pure_progression(resid[:, 0], L, P.half_lengths)
    if c0 != 0:
        raise NotQuadratic("residual must vanish on the base coset")

    xi_cross: list[tuple[int, ...]] = []
    for i in range(d):
        row = resid[_grid_position([int(t == i) for t in range(d)], P.half_lengths)]
        coords = []
        for t in range(k):
            chi = mod1(Fraction(int(row[loc.index_of([int(s == t) for s in range(k)])] - row[0]), L))
            half = _half_mod(chi, loc.orders[t])
            numer = half * loc.orders[t]
            if numer.denominator != 1:
                raise NotQuadratic("cross term is not a character of H")
            coords.append(int(numer) % loc.orders[t])
        xi_cross.append(tuple(coords))

    # phi - base_Q = sum_i 2 l_i xi_i.h + (the pure part) at every (l, h)
    E = lcm(2 * L, *H.local_orders)
    h = loc.decode(np.arange(loc.order))[:, :k].astype(object)
    ls = _grid(P.half_lengths)
    pred = _pure_numerators(ls, lam, eta, 0, E)[:, None]
    for i in range(d):
        cross = h @ np.array([x * (E // n) for x, n in zip(xi_cross[i], H.local_orders)], dtype=object)
        pred = pred + 2 * ls[i][:, None] * cross[None, :]
    if not _agree(pred % E, E, resid, L):
        raise NotQuadratic("progression reconstruction mismatch")
    return ProgressionQuadratic(base_Q, xi_cross, lam, eta)


# --- bracket quadratics on Z/N ----------------------------------------------


def bracket_table(N: int, freqs: Sequence[int], ns) -> np.ndarray:
    """brk[i, t] = {freqs[i]·ns[t]/N}, the fractional part centred in
    (-1/2, 1/2], as float64 of shape (len(freqs), len(ns))."""
    ns = np.asarray(ns, dtype=np.int64) % N
    brk = np.empty((len(freqs), len(ns)))
    for i, xi in enumerate(freqs):
        t = (xi * ns % N) / N
        brk[i] = np.where(t <= 0.5, t, t - 1.0)
    return brk


@dataclass(frozen=True)
class BracketQuadratic:
    """Sum over ordered frequency pairs of a[i][j] {xi_i x/N}{xi_j x/N} plus
    linear terms a[i] {xi_i x/N} plus a constant, fractional parts in
    (-1/2, 1/2]."""

    N: int
    freqs: tuple[int, ...]
    quad: tuple[tuple[TorusValue, ...], ...]  # symmetric
    lin: tuple[TorusValue, ...]
    const: TorusValue = 0

    def __post_init__(self):
        s = len(self.freqs)
        if len(self.quad) != s or any(len(r) != s for r in self.quad):
            raise SpecMismatch("quad matrix shape mismatch")
        if len(self.lin) != s:
            raise SpecMismatch("lin vector shape mismatch")
        for i in range(s):
            for j in range(s):
                if self.quad[i][j] != self.quad[j][i]:
                    raise SpecMismatch("quad matrix must be symmetric")

    @cached_property
    def _terms(self) -> tuple[int, tuple, list[tuple]]:
        """(den, const, terms) for ``eval``, read once per instance.
        den = L·N^2 with L the lcm of the rational coefficients'
        denominators.  A rational coefficient a/b is kept as the integer
        a·L/b, so its term is an integer over den; a float coefficient is
        kept as it is.  ``terms`` lists (coefficient, exact, i, j) in the
        order of the sum: for each i the linear term (j None), then
        quad[i][0..s-1]."""
        s = len(self.freqs)
        pos = [(i, j) for i in range(s) for j in (None, *range(s))]
        coefs = [self.const] + [self.lin[i] if j is None else self.quad[i][j] for i, j in pos]
        exact = [isinstance(v, numbers.Rational) for v in coefs]
        L = lcm(1, *(Fraction(v).denominator for v, ok in zip(coefs, exact) if ok))
        weights = [Fraction(v).numerator * (L // Fraction(v).denominator) if ok else v
                   for v, ok in zip(coefs, exact)]
        N2 = self.N * self.N
        const = (weights[0] * N2 if exact[0] else weights[0], exact[0])
        terms = [(w, ok, i, j) for w, ok, (i, j) in zip(weights[1:], exact[1:], pos)]
        return L * N2, const, terms

    def eval(self, n: int) -> TorusValue:
        """The value at n, mod 1.

        With r_i = xi_i n mod N centred in (-N/2, N/2], a rational term
        (a/b)·r_i·r_j/N^2 is one integer over the common denominator, so an
        all-rational bracket quadratic gives the exact Fraction.  A float
        coefficient makes the sum float from its term on, added left to
        right with each exact term rounded to float first, which is what
        Fraction/float arithmetic gives term by term; the result is the same
        value and type (Fraction, or numpy float64 after ``mod1``).
        """
        if not self.freqs:
            return mod1(self.const)
        N = self.N
        r = [t if 2 * t <= N else t - N for t in (xi * int(n) % N for xi in self.freqs)]
        den, (c, c_exact), terms = self._terms
        num = c if c_exact else 0
        total = None if c_exact else c  # the float sum, once a float has entered it
        for w, exact, i, j in terms:
            if exact:
                t = w * r[i] * (N if j is None else r[j])
                if total is None:
                    num += t
                else:
                    total = total + t / den
            else:
                t = w * (r[i] / N) if j is None else w * (r[i] / N) * (r[j] / N)
                total = (num / den if total is None else total) + t
        if total is None:
            return Fraction(num % den, den)
        return mod1(total)

    def eval_terms_float(self, ns: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation over residues ns (mod 1 values)."""
        brk = bracket_table(self.N, self.freqs, ns)
        total = np.full(brk.shape[1], float(self.const))
        for i in range(len(self.freqs)):
            total += float(self.lin[i]) * brk[i]
            for j in range(len(self.freqs)):
                total += float(self.quad[i][j]) * brk[i] * brk[j]
        total %= 1.0
        total[total == 1.0] = 0.0  # a tiny negative total rounds up to 1.0
        return total

    def exp_values(self, sign: float = 1.0) -> np.ndarray:
        return np.exp(sign * 2j * np.pi * self.eval_terms_float(np.arange(self.N)))

    def to_json(self) -> dict:
        def enc(v):
            return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else float(v)

        return {
            "N": self.N,
            "S": list(self.freqs),
            "quad": [[enc(v) for v in row] for row in self.quad],
            "lin": [enc(v) for v in self.lin],
            "const": enc(self.const),
        }

    @staticmethod
    def from_json(obj: dict) -> "BracketQuadratic":
        def dec(v):
            if isinstance(v, str):
                num, den = v.split("/")
                return Fraction(int(num), int(den))
            return float(v)

        return BracketQuadratic(
            int(obj["N"]),
            tuple(int(x) for x in obj["S"]),
            tuple(tuple(dec(v) for v in row) for row in obj["quad"]),
            tuple(dec(v) for v in obj["lin"]),
            dec(obj.get("const", 0)),
        )


def bracket_from_progression(
    phi: Mapping[int, TorusValue], P, S: Sequence[DualElement], rho
) -> BracketQuadratic:
    """Convert a locally quadratic phase on a Bohr set into a bracket
    quadratic agreeing with it on the extracted progression P.

    Requires prime N, the progression produced by the Bohr-set extraction
    (independent fractional-part images of the generators), and exact
    rational phi; agreement on every point of P is verified exactly.
    """
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

    # exact coefficients on the progression grid
    pts = P.progression_indices().tolist()
    g, D = _numerators([phi[x] for x in pts])
    lam, eta, c = _fit_pure_progression(g, D, P.half_lengths)

    # dual vectors: Phi(x) . u_i = l_i where Phi(x) = ({xi x / N})_{xi in S}
    V = [[frac_part(Fraction(xi * g.coords[0], N)) for xi in freqs] for g in P.generators]
    Vm = np.array(
        [[Fraction(v) for v in row] for row in V], dtype=object
    ).reshape(d, s).T  # s x d
    if len(rref_rational(Vm)[1]) < d:
        raise DependentGenerators("generator images are linearly dependent")
    G = Vm.T @ Vm  # d x d Gram, exact
    inv, pivots = rref_rational(np.hstack([G, np.eye(d, dtype=np.int64)]))  # [I | G^-1]
    if pivots != list(range(d)):
        raise DependentGenerators("singular Gram matrix")
    U = Vm @ inv[:, d:]  # |S| x d; columns u_i with Phi(v_j).u_i = delta_ij

    s = len(freqs)
    quad = [[Fraction(0)] * s for _ in range(s)]
    lin = [Fraction(0)] * s
    for i in range(d):
        for j in range(d):
            for a in range(s):
                for b in range(s):
                    quad[a][b] += lam[i][j] * U[a, i] * U[b, j]
    # symmetrize exactly (lam is symmetric so this only reorders terms)
    for a in range(s):
        for b in range(a + 1, s):
            v = (quad[a][b] + quad[b][a]) / 2
            quad[a][b] = quad[b][a] = v
    for i in range(d):
        for a in range(s):
            lin[a] += eta[i] * U[a, i]
    bq = BracketQuadratic(N, freqs, tuple(tuple(r) for r in quad), tuple(lin), mod1(c))

    for x, v in zip(pts, g.tolist()):
        if mod1(bq.eval(x)) != Fraction(v, D):
            raise NotQuadratic("bracket quadratic disagrees on the progression")
    return bq


# --- quadratic form sublemmas over F_p ---------------------------------------


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


def degenerate_subspace(M: Sequence[Sequence[int]], W: PrimeSubspace) -> PrimeSubspace:
    """Maximal-by-construction subspace U of W with x.My = 0 for all x,y in U.

    Greedy tower: adjoin isotropic vectors of the induced form on U-perp/U
    until at most two dimensions remain, then sweep the leftover quotient for
    directly adjoinable isotropic vectors.  Guarantees dim(U) >= dim(W)/2 - 1
    and exhaustively verified bilinear vanishing.
    """
    p = W.p
    A = np.array(M, dtype=np.int64) % p
    V = W.basis_matrix()
    AW = (V @ A @ V.T) % p
    k = W.dim
    U_rows: list[np.ndarray] = []

    def perp_basis() -> np.ndarray:
        if not U_rows:
            return np.eye(k, dtype=np.int64)
        return kernel_basis_mod_p((np.array(U_rows) @ AW) % p, p)

    while True:
        comp = complete_basis(U_rows, perp_basis(), p)  # U-perp / U
        q = comp.shape[0]
        if q == 0:
            break
        AC = (comp @ AW @ comp.T) % p
        if q > 2:
            t = isotropic_vector_in(AC, p)
            assert t is not None  # dim >= 3 guarantees existence
            U_rows.append((t @ comp) % p)
            continue
        # opportunistic sweep of the small leftover quotient
        t = isotropic_vector_in(AC, p)
        if t is None:
            break
        U_rows.append((t @ comp) % p)

    Uamb = [(r @ V) % p for r in U_rows]
    U = PrimeSubspace.from_generators(W.spec, Uamb) if Uamb else PrimeSubspace(W.spec, ())
    # exhaustive vanishing check on the stored basis
    Ub = U.basis_matrix()
    if Ub.size and np.any((Ub @ A @ Ub.T) % p):
        raise AssertionError("degenerate subspace construction failed")
    return U


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
