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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, lcm
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
    if isinstance(t, Fraction):
        return (2 * t.numerator + t.denominator) // (2 * t.denominator)
    return floor(float(t) + 0.5)


def _require_odd(spec: GroupSpec) -> None:
    if spec.order % 2 == 0:
        raise EvenOrder(f"group {spec} has even order")


# --- exact phase tables -----------------------------------------------------


class PhaseTable:
    """Exact torus-valued table over group indices: numerators over a common
    denominator, enabling vectorized integer arithmetic mod D."""

    def __init__(self, spec: GroupSpec, values: Sequence[TorusValue]):
        if len(values) != spec.order:
            raise SpecMismatch("phase table must have one value per element")
        fracs = [Fraction(v) if not isinstance(v, Fraction) else v for v in values]
        self.spec = spec
        self.denominator = lcm(1, *(f.denominator for f in fracs)) if fracs else 1
        D = self.denominator
        self.numerators = np.array(
            [(f.numerator * (D // f.denominator)) % D for f in fracs], dtype=np.int64
        )

    def value(self, index: int) -> Fraction:
        return Fraction(int(self.numerators[index]), self.denominator)


def is_locally_quadratic(
    phi: Mapping[int, TorusValue] | Sequence[TorusValue],
    domain: Iterable[int],
    spec: GroupSpec,
    budget: int = DEFAULT_CUBE_BUDGET,
) -> bool:
    """Exact check that all third differences of phi vanish on cubes in the
    domain.

    ``phi`` maps ambient group indices to exact rationals; ``domain`` is the
    set of indices where phi is defined.  For the full group the equivalent
    N^3 test (second differences constant in the base point) is used.
    """
    dom = np.array(sorted(set(int(i) for i in domain)), dtype=np.int64)
    m = len(dom)
    N = spec.order
    if isinstance(phi, Mapping):
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

    if m == N:
        if N**3 > budget:
            raise BudgetExceeded(f"{N}^3 second-difference scan exceeds budget")
        rows = spec.translates(np.arange(N))  # rows[h, x] = x + h
        for h1 in range(N):
            base = (num[rows[h1]] - num) % D  # (h1.grad) phi
            # second differences must not depend on x, for every h2
            d2 = (base[rows] - base) % D
            if np.any(d2 != d2[:, :1]):
                return False
        return True

    if m**4 > budget:
        raise BudgetExceeded(f"|B|^4 = {m**4} cube scan exceeds budget")
    if m == 0:
        return True
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
            -np.int64(num[x])
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
        return [self.evaluate(x) for x in self.spec.elements()]

    def numerators(self) -> tuple[np.ndarray, int]:
        """(numerator array over all indices, common denominator), vectorized."""
        spec = self.spec
        D = lcm(
            1,
            *(b.denominator for row in self.bilinear for b in row),
            *spec.orders,
            self.c.denominator,
        )
        coords = spec.decode(np.arange(spec.order))
        acc = np.full(spec.order, (self.c.numerator * (D // self.c.denominator)) % D, np.int64)
        for i in range(spec.rank):
            for j in range(spec.rank):
                b = self.bilinear[i][j]
                acc = (acc + (b.numerator * (D // b.denominator)) * coords[..., i] * coords[..., j]) % D
        for j in range(spec.rank):
            acc = (acc + (self.xi[j] * (D // spec.orders[j])) * coords[..., j]) % D
        return acc % D, D

    def exp_values(self, sign: float = 1.0) -> np.ndarray:
        num, D = self.numerators()
        return np.exp(sign * 2j * np.pi * num / D)

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


def eval_quadratic(Q: QuadraticPhase, x: GroupElement) -> Fraction:
    return Q.evaluate(x)


def _half_mod(value: Fraction, modulus_hint: int) -> Fraction:
    """Divide by 2 inside the cyclic subgroup of R/Z generated by 1/den."""
    value = mod1(value)
    den = value.denominator
    if den % 2 == 0 or modulus_hint % den:
        raise NotQuadratic("value not in the expected odd cyclic subgroup")
    inv2 = pow(2, -1, den) if den > 1 else 0
    return mod1(Fraction(value.numerator * inv2, den))


def classify_global_quadratic(
    phi: Sequence[TorusValue], spec: GroupSpec, check: bool = True
) -> QuadraticPhase:
    """Recover (M, xi, c) from a globally quadratic phase table, exactly.

    The bilinear form is read off the symmetric second difference
    phi(x+h) - phi(x) - phi(h) + phi(0) = 2 Mh.x, halving each entry using
    that the group order is odd; the linear part is the residual at the
    basis vectors and c = phi(0).  The reconstruction is verified pointwise.
    """
    _require_odd(spec)
    if check and not is_locally_quadratic(list(phi), range(spec.order), spec):
        raise NotQuadratic("third differences do not vanish")
    fr = [Fraction(v) if not isinstance(v, Fraction) else v for v in phi]
    k = spec.rank

    def basis_index(i: int) -> int:
        coords = [0] * k
        coords[i] = 1 % spec.orders[i]
        return spec.index_of(coords)

    e = [basis_index(i) for i in range(k)]
    zero = 0
    B: list[list[Fraction]] = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            ei, ej = spec.element_by_index(e[i]), spec.element_by_index(e[j])
            chi = mod1(fr[(ei + ej).index] - fr[e[i]] - fr[e[j]] + fr[zero])
            g = gcd(spec.orders[i], spec.orders[j])
            if g % chi.denominator:
                raise NotQuadratic("second difference has incompatible denominator")
            B[i][j] = _half_mod(chi, g)
    xi = []
    for j in range(k):
        r = mod1(fr[e[j]] - B[j][j] - fr[zero])
        numer = r * spec.orders[j]
        if numer.denominator != 1:
            raise NotQuadratic("linear residual is not a character")
        xi.append(int(numer) % spec.orders[j])
    Q = QuadraticPhase(spec, tuple(tuple(row) for row in B), tuple(xi), mod1(fr[zero]))
    qnum, qD = Q.numerators()
    pt = PhaseTable(spec, fr)
    scale = lcm(qD, pt.denominator)
    if np.any(
        (qnum.astype(object) * (scale // qD)) % scale
        != (pt.numerators.astype(object) * (scale // pt.denominator)) % scale
    ):
        raise NotQuadratic("reconstruction mismatch")
    return Q


# --- extension from cosets ---------------------------------------------------


def _local_spec(H: Subgroup) -> GroupSpec:
    orders = tuple(H.local_orders)
    return GroupSpec(orders if orders else (1,))


def _coset_local_table(
    phi: Mapping[int, TorusValue], y_index: int, H: Subgroup
) -> list[Fraction]:
    out = []
    for idx in H.spec.coset_points(y_index, H.generators, H.local_orders).tolist():
        if idx not in phi:
            raise SpecMismatch("phase not defined on the whole coset")
        out.append(Fraction(phi[idx]))
    return out


def extend_from_coset(
    phi: Mapping[int, TorusValue], y: GroupElement, H: Subgroup
) -> QuadraticPhase:
    """Extend a quadratic phase on y+H to a global quadratic phase.

    The extension is non-unique; undetermined coefficients take the zero
    lift.  Prime subspaces lift through a complement; box subgroups lift
    coefficient congruences factor by factor.  For subgroups of
    non-squarefree cyclic factors the congruence may be unsolvable, in which
    case no global quadratic extension exists and ExtensionObstructed is
    raised.
    """
    spec = H.spec
    _require_odd(spec)
    loc = _local_spec(H)
    table = _coset_local_table(phi, y.index, H)
    QH = classify_global_quadratic(table, loc)

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
    for idx, v in phi.items():
        if Q.evaluate(spec.element_by_index(int(idx))) != mod1(Fraction(v)):
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


def _fit_pure_progression(
    g: Mapping[tuple[int, ...], Fraction], d: int, ls_range: Sequence[range]
):
    """Fit g(l) = sum_{i,j} l_i l_j lam_ij + sum_i l_i eta_i + c exactly.

    Halving second differences is two-valued in R/Z; every branch combination
    is tried and validated against the full table.
    """
    c = g[(0,) * d]
    second: list[list[Fraction]] = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        ei = tuple(1 if t == i else 0 for t in range(d))
        mi = tuple(-1 if t == i else 0 for t in range(d))
        second[i][i] = mod1(g[ei] + g[mi] - 2 * c)  # = 2 lam_ii
    for i in range(d):
        for j in range(i + 1, d):
            eij = tuple(1 if t in (i, j) else 0 for t in range(d))
            ei = tuple(1 if t == i else 0 for t in range(d))
            ej = tuple(1 if t == j else 0 for t in range(d))
            second[i][j] = second[j][i] = mod1(g[eij] - g[ei] - g[ej] + c)  # = 2 lam_ij

    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    for branch in itertools.product([0, 1], repeat=len(pairs)):
        lam = [[Fraction(0)] * d for _ in range(d)]
        ok = True
        for (i, j), b in zip(pairs, branch):
            v = mod1(second[i][j])
            lam[i][j] = lam[j][i] = mod1(Fraction(v, 2) + Fraction(b, 2))
        eta = []
        for i in range(d):
            ei = tuple(1 if t == i else 0 for t in range(d))
            eta.append(mod1(g[ei] - lam[i][i] - c))
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


def quadratic_on_coset_progression(phi: Mapping[int, TorusValue], P) -> ProgressionQuadratic:
    """Represent a locally quadratic phase on a proper coset progression.

    Returns reconstruction-verified coefficients; coefficient-level
    uniqueness is not claimed (halving in R/Z is two-valued).
    """
    H = P.subgroup
    spec = H.spec
    _require_odd(spec)
    if not P.proper:
        raise NotProper("progression is not proper")
    base_Q = extend_from_coset(
        {int(i): Fraction(phi[int(i)]) for i in (spec.add_indices(H.element_indices(), np.int64(P.base.index))).tolist()},
        P.base,
        H,
    )
    d = len(P.generators)
    loc = _local_spec(H)

    def phival(l: Sequence[int], h_amb: GroupElement) -> Fraction:
        x = P.point(l, h_amb)
        return Fraction(phi[x.index])

    resid: dict[tuple[int, ...], Fraction] = {}
    zero_amb = spec.zero()
    rng = [range(-(L - 1), L) for L in P.half_lengths]
    for l in itertools.product(*rng):
        x = P.point(l, zero_amb)
        resid[tuple(l)] = mod1(Fraction(phi[x.index]) - base_Q.evaluate(x))
    lam, eta, c0 = _fit_pure_progression(resid, d, rng)
    if c0 != 0:
        raise NotQuadratic("residual must vanish on the base coset")

    xi_cross: list[tuple[int, ...]] = []
    for i in range(d):
        ei = tuple(1 if t == i else 0 for t in range(d))
        coords = []
        for t in range(loc.rank if H.local_orders else 0):
            ht = tuple(1 if s == t else 0 for s in range(loc.rank))
            amb = spec.element(H.embed_coords(ht))
            chi = mod1(
                phival(ei, amb) - phival(ei, zero_amb) - base_Q.evaluate(P.point(ei, amb))
                + base_Q.evaluate(P.point(ei, zero_amb))
            )
            half = _half_mod(chi, loc.orders[t])
            numer = half * loc.orders[t]
            if numer.denominator != 1:
                raise NotQuadratic("cross term is not a character of H")
            coords.append(int(numer) % loc.orders[t])
        xi_cross.append(tuple(coords))

    out = ProgressionQuadratic(base_Q, xi_cross, lam, eta)
    for l in itertools.product(*rng):
        for h in (loc.elements() if H.local_orders else [loc.zero()]):
            hc = h.coords if H.local_orders else ()
            amb = spec.element(H.embed_coords(hc)) if H.local_orders else zero_amb
            if out.reconstruct(P, l, hc) != mod1(Fraction(phi[P.point(l, amb).index])):
                raise NotQuadratic("progression reconstruction mismatch")
    return out


# --- bracket quadratics on Z/N ----------------------------------------------


@dataclass
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

    def eval(self, n: int) -> TorusValue:
        brk = [frac_part(Fraction(xi * n, self.N)) for xi in self.freqs]
        total = self.const if isinstance(self.const, Fraction) else self.const
        for i in range(len(self.freqs)):
            total = total + self.lin[i] * brk[i]
            for j in range(len(self.freqs)):
                total = total + self.quad[i][j] * brk[i] * brk[j]
        return mod1(total)

    def eval_terms_float(self, ns: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation over residues ns (mod 1 values)."""
        ns = np.asarray(ns, dtype=np.int64) % self.N
        brk = np.empty((len(self.freqs), len(ns)))
        for i, xi in enumerate(self.freqs):
            t = (xi * ns % self.N) / self.N
            brk[i] = np.where(t <= 0.5, t, t - 1.0)
        total = np.full(len(ns), float(self.const))
        for i in range(len(self.freqs)):
            total += float(self.lin[i]) * brk[i]
            for j in range(len(self.freqs)):
                total += float(self.quad[i][j]) * brk[i] * brk[j]
        return total % 1.0

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
    resid: dict[tuple[int, ...], Fraction] = {}
    rng = [range(-(L - 1), L) for L in P.half_lengths]
    for l in itertools.product(*rng):
        x = P.point(l, spec.zero())
        resid[tuple(l)] = Fraction(phi[x.index])
    lam, eta, c = _fit_pure_progression(resid, d, rng)

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

    for l in itertools.product(*rng):
        x = P.point(l, spec.zero())
        if mod1(bq.eval(x.coords[0])) != mod1(Fraction(phi[x.index])):
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
    whole group, by direct scan; returns sorted element indices."""
    B = [[Fraction(v) for v in row] for row in bilinear]
    gens: list[tuple[int, ...]] = []
    if isinstance(K, PrimeSubspace):
        gens = [tuple(int(v) for v in row) for row in K.basis_matrix()]
    else:
        for t in range(spec.rank):
            if K.divisors[t] != spec.orders[t]:
                coords = [0] * spec.rank
                coords[t] = K.divisors[t]
                gens.append(tuple(coords))
    out = []
    for idx in range(spec.order):
        y = spec.coords_of(idx)
        good = True
        for gcoords in gens:
            total = Fraction(0)
            for i in range(spec.rank):
                for j in range(spec.rank):
                    total += B[i][j] * gcoords[i] * y[j]
            if mod1(total) != 0:
                good = False
                break
        if good:
            out.append(idx)
    return np.array(sorted(out), dtype=np.int64)
