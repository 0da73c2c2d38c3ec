"""Quadratic phase functions on finite abelian groups of odd order.

A global quadratic phase is phi(x) = Mx.x + xi.x + c where M: G -> dual(G)
is a self-adjoint homomorphism.  We store the associated symmetric bilinear
form Mx.y as a matrix of exact Fractions B with B[i][j] = M e_i . e_j, so
self-adjointness is structural and all evaluation is exact.

The module also covers the test that a phase table is quadratic
(vanishing third differences on the whole group), classification, bracket
quadratics on Z/N, and the degenerate subspace of a quadratic form over F_p.

Every exact phase table is held one way: integer numerators in [0, D) over
one common denominator D, addressed by group index.  ``_numerators`` turns
exact torus values into that form, ``is_locally_quadratic`` reads it,
``QuadraticPhase.numerators`` evaluates a quadratic at every index in it,
and ``_agree`` compares two such tables mod 1.  Points are found
through index arithmetic (``GroupSpec.add_indices``) on whole index
arrays.  The one scalar API that remains is ``BracketQuadratic.eval``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceeded, EvenOrder, NotQuadratic, SpecMismatch
from .groups import GroupSpec, TorusValue, mod1
from .modlinalg import PrimeSubspace, complete_basis, isotropic_vector_in, kernel_basis_mod_p

DEFAULT_CUBE_BUDGET = 400_000_000


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


def is_locally_quadratic(num: np.ndarray, D: int, spec: GroupSpec) -> bool:
    """Exact check that all third differences of the phase num/D vanish on
    the whole group, from its numerators in [0, D) by group index (as
    ``_numerators`` makes them).

    Only the generators e_1, ..., e_k of the factors are tried:
    Δ_{e_a}Δ_{e_b}Δ_{e_c}φ(x) = 0 for every a <= b <= c and every x, read
    off the numerators mod D, in rank^3·N steps.  That is exact.  A
    function F with Δ_{e_c}F = 0 for every generator is constant, and
    Δ_{h+k}F = T^kΔ_hF + Δ_kF extends "Δ_hF is constant" from generators h
    to every h.  So vanishing along generator triples makes each
    Δ_{e_a}Δ_{e_b}φ constant, then (with F = Δ_{e_b}φ) each Δ_hΔ_{e_b}φ =
    Δ_{e_b}Δ_hφ, then (with F = Δ_hφ) each Δ_kΔ_hφ, which is the statement
    that every third difference vanishes.
    Third differences commute, so a <= b <= c covers every ordered triple.
    A count rank^3·N above DEFAULT_CUBE_BUDGET raises BudgetExceeded.
    """
    N, k = spec.order, spec.rank
    if k**3 * N > DEFAULT_CUBE_BUDGET:
        raise BudgetExceeded(
            f"rank^3*N = {k}^3*{N} generator third-difference scan exceeds budget "
            f"{DEFAULT_CUBE_BUDGET} (DEFAULT_CUBE_BUDGET)"
        )
    idx = np.arange(N, dtype=np.int64)
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

    def values(self) -> list[Fraction]:
        """The value at every index, in index order."""
        num, D = self.numerators()
        return [Fraction(v, D) for v in num.tolist()]

    def numerators(self) -> tuple[np.ndarray, int]:
        """(numerators at every index, common denominator), vectorized on
        Python integers (object dtype), so no denominator overflows."""
        spec = self.spec
        D = lcm(
            1,
            *(b.denominator for row in self.bilinear for b in row),
            *spec.orders,
            self.c.denominator,
        )
        coords = spec.decode(np.arange(spec.order)).astype(object)
        acc = np.full(spec.order, (self.c.numerator * (D // self.c.denominator)) % D, object)
        for i in range(spec.rank):
            for j in range(spec.rank):
                b = self.bilinear[i][j]
                acc = (acc + (b.numerator * (D // b.denominator)) % D * coords[:, i] * coords[:, j]) % D
        for j in range(spec.rank):
            acc = (acc + (self.xi[j] * (D // spec.orders[j])) % D * coords[:, j]) % D
        return acc % D, D

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
    if len(phi) != spec.order:
        raise SpecMismatch("phase table must have one value per element")
    num, D = _numerators(phi)
    if not is_locally_quadratic(num, D, spec):
        raise NotQuadratic("third differences do not vanish")
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


# --- degenerate subspaces over F_p --------------------------------------------


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
        # dim >= 3 guarantees an isotropic vector; a quotient of dim <= 2 is
        # swept opportunistically
        t = isotropic_vector_in((comp @ AW @ comp.T) % p, p)
        if t is None:
            assert q <= 2
            break
        U_rows.append((t @ comp) % p)

    Uamb = [(r @ V) % p for r in U_rows]
    U = PrimeSubspace.from_generators(W.spec, Uamb) if Uamb else PrimeSubspace(W.spec, ())
    # exhaustive vanishing check on the stored basis
    Ub = U.basis_matrix()
    if Ub.size and np.any((Ub @ A @ Ub.T) % p):
        raise AssertionError("degenerate subspace construction failed")
    return U
