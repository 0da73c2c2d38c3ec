"""Linear algebra mod small primes, plus subgroup representations.

Two concrete subgroup families cover everything the toolkit needs:

* ``BoxSubgroup`` -- products of cyclic subgroups of the cyclic factors,
  H = d1 Z/n1 x ... x dk Z/nk (this includes {0}, the whole group, and every
  subgroup of a cyclic group);
* ``PrimeSubspace`` -- F_p-linear subspaces of a homogeneous group Z/p x ...
  x Z/p given by a row-reduced basis.

Both are a ``Subgroup``: coordinate rows (``basis_matrix``) and local cyclic
orders, from which the shared base derives the order, the generators, the
embedding t -> t @ rows of local coordinates, and the points of a coset,
``H.coset(y)``, y + H in local lexicographic order.  ``span_points`` is the
one lister of the coordinates t @ rows over F_p^k, for rows that are not a
subgroup's own (a complement, or the identity for plain F_p^k coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from typing import Iterable, Sequence

import numpy as np

from .errors import SpecMismatch
from .groups import GroupSpec


def is_prime(n: int) -> bool:
    """Trial division."""
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# --- dense linear algebra over Z/p ----------------------------------------


def rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form over F_p; returns (matrix, pivot columns)."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c] % p:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def kernel_basis_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : mat @ x = 0 mod p} as rows; shape (dim, ncols)."""
    mat = np.atleast_2d(np.array(mat, dtype=np.int64) % p)
    rows, cols = mat.shape
    r, pivots = rref_mod_p(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(cols, dtype=np.int64)
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-r[i, fc]) % p
        basis.append(v)
    return np.array(basis, dtype=np.int64).reshape(len(basis), cols)


def solve_mod_p(mat: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of mat @ x = b mod p, or None."""
    mat = np.atleast_2d(np.array(mat, dtype=np.int64) % p)
    b = np.array(b, dtype=np.int64) % p
    rows, cols = mat.shape
    aug = np.hstack([mat, b.reshape(-1, 1)])
    r, pivots = rref_mod_p(aug, p)
    x = np.zeros(cols, dtype=np.int64)
    for i, pc in enumerate(pivots):
        if pc == cols:
            return None
        x[pc] = r[i, cols] % p
    return x


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    return rref_mod_p(np.atleast_2d(mat), p)[0].shape[0]


def complete_basis(rows, candidates, p: int) -> np.ndarray:
    """The candidates, in order, that each raise the rank mod p of the
    independent ``rows`` together with the candidates kept before them."""
    kept = [list(r) for r in rows]
    candidates = np.asarray(candidates, dtype=np.int64)
    comp: list[np.ndarray] = []
    for cand in candidates:
        if rank_mod_p(np.array(kept + comp + [cand]), p) > len(kept) + len(comp):
            comp.append(cand)
    return np.array(comp, dtype=np.int64).reshape(len(comp), candidates.shape[1])


def span_points(rows: np.ndarray, p: int) -> np.ndarray:
    """Coordinates of t @ rows mod p for t in F_p^k, k = len(rows), in
    lexicographic order of t (t_1 slowest): one zero row when k = 0."""
    k = len(rows)
    t = np.indices((p,) * k, dtype=np.int64).reshape(k, p**k).T
    return (t @ rows) % p


def solve_congruence(a: int, b: int, m: int) -> int | None:
    """Smallest nonnegative x with a*x = b (mod m), or None if unsolvable."""
    if m == 1:
        return 0
    a, b = a % m, b % m
    g = gcd(a, m)
    if b % g:
        return None
    a, b, m2 = a // g, b // g, m // g
    return (b * pow(a, -1, m2)) % m2


# --- subgroup representations ----------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup H of ``spec`` given by coordinate rows: the points of H are
    t @ basis_matrix() reduced mod the factor orders, for t in the product of
    range(local_orders), each point once.  A family supplies basis_matrix()
    and local_orders."""

    spec: GroupSpec

    @property
    def order(self) -> int:
        return prod(self.local_orders)

    @property
    def generators(self) -> np.ndarray:
        """Indices of the coordinate rows."""
        return self.spec.encode(self.basis_matrix())

    def embed_coords(self, t: Sequence[int]) -> tuple[int, ...]:
        v = (np.array(t, dtype=np.int64) @ self.basis_matrix()) % np.array(self.spec.orders)
        return tuple(int(c) for c in v)

    @cached_property
    def _span(self) -> np.ndarray:
        """The points of H in local lex order, listed once per subgroup."""
        return self.spec.coset_points(0, self.generators, self.local_orders)

    def coset(self, y: int) -> np.ndarray:
        """Indices of y + H, lexicographic in the local coordinates t (a new array)."""
        return self.spec.add_indices(y, self._span)

    def element_indices(self) -> np.ndarray:
        return np.sort(self.coset(0))


@dataclass(frozen=True)
class BoxSubgroup(Subgroup):
    """H = d1 Z/n1 x ... x dk Z/nk, with each d_i dividing n_i."""

    divisors: tuple[int, ...]

    def __post_init__(self):
        for d, n in zip(self.divisors, self.spec.orders, strict=True):
            if d < 1 or n % d:
                raise ValueError(f"divisor {d} does not divide order {n}")

    @staticmethod
    def whole(spec: GroupSpec) -> "BoxSubgroup":
        return BoxSubgroup(spec, (1,) * spec.rank)

    @property
    def local_orders(self) -> tuple[int, ...]:
        return tuple(n // d for n, d in zip(self.spec.orders, self.divisors))

    def basis_matrix(self) -> np.ndarray:
        """d_i e_i, one row per factor."""
        return np.diag(np.array(self.divisors, dtype=np.int64))


@dataclass(frozen=True)
class PrimeSubspace(Subgroup):
    """F_p-subspace of Z/p x ... x Z/p, basis rows in row-reduced form."""

    basis: tuple[tuple[int, ...], ...]  # shape (dim, rank), row-reduced

    def __post_init__(self):
        ps = set(self.spec.orders)
        if len(ps) != 1:
            raise SpecMismatch("PrimeSubspace requires a homogeneous group")

    @staticmethod
    def from_generators(spec: GroupSpec, gens: Iterable[Sequence[int]]) -> "PrimeSubspace":
        p = spec.orders[0]
        mat = np.array([list(g) for g in gens], dtype=np.int64).reshape(-1, spec.rank)
        r, _ = rref_mod_p(mat, p)
        return PrimeSubspace(spec, tuple(tuple(int(v) for v in row) for row in r))

    @staticmethod
    def whole(spec: GroupSpec) -> "PrimeSubspace":
        return PrimeSubspace.from_generators(spec, np.eye(spec.rank, dtype=np.int64))

    @property
    def p(self) -> int:
        return self.spec.orders[0]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def local_orders(self) -> tuple[int, ...]:
        return (self.p,) * self.dim

    def basis_matrix(self) -> np.ndarray:
        return np.array(self.basis, dtype=np.int64).reshape(self.dim, self.spec.rank)

    def complement_basis(self) -> np.ndarray:
        """Unit vectors e_1, e_2, ... that complete the subspace basis to a
        basis of the whole space, each kept when it raises the rank."""
        return complete_basis(self.basis, np.eye(self.spec.rank, dtype=np.int64), self.p)

    def coordinate_map(self) -> np.ndarray:
        """Matrix R (dim x rank) with R @ basis.T = I and R @ complement.T = 0.

        Gives local coordinates t(x) = R @ x of the projection onto the
        subspace along the chosen complement.
        """
        p = self.p
        full = np.vstack([self.basis_matrix(), self.complement_basis()])  # invertible
        n = self.spec.rank
        inv = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            e = np.zeros(n, dtype=np.int64)
            e[i] = 1
            sol = solve_mod_p(full.T, e, p)
            assert sol is not None
            inv[:, i] = sol
        return inv[: self.dim, :] % p



def enumerate_subspaces(spec: GroupSpec, k: int):
    """All k-dimensional subspaces of F_p^n as PrimeSubspace, via canonical
    reduced-echelon bases (each subspace exactly once), lexicographic order."""
    import itertools

    p = spec.orders[0]
    n = spec.rank
    if k == 0:
        yield PrimeSubspace(spec, ())
        return
    for pivots in itertools.combinations(range(n), k):
        free_cols = [
            c
            for c in range(n)
            if c not in pivots and any(c > piv for piv in pivots)
        ]
        free_positions = [
            (r, c) for r in range(k) for c in free_cols if c > pivots[r]
        ]
        for vals in itertools.product(range(p), repeat=len(free_positions)):
            mat = np.zeros((k, n), dtype=np.int64)
            for r, piv in enumerate(pivots):
                mat[r, piv] = 1
            for (r, c), v in zip(free_positions, vals):
                mat[r, c] = v
            yield PrimeSubspace(spec, tuple(tuple(int(x) for x in row) for row in mat))


def largest_subspace_inside(spec: GroupSpec, members: Iterable[int]) -> PrimeSubspace:
    """The first (lexicographically) subspace of maximal dimension whose
    elements all lie in the given index set.

    Membership is read off a boolean mask over G: a dimension with more
    points than members is skipped, and a subspace is listed point by point
    only once its basis vectors are members."""
    mask = np.zeros(spec.order, dtype=bool)
    mask[np.fromiter(members, dtype=np.int64)] = True
    size = int(mask.sum())
    for k in range(spec.rank, -1, -1):
        if spec.orders[0] ** k > size:
            continue
        for W in enumerate_subspaces(spec, k):
            if mask[W.generators].all() and mask[W.coset(0)].all():
                return W
    return PrimeSubspace(spec, ())


def isotropic_vector_in(mat: np.ndarray, p: int) -> np.ndarray | None:
    """Nonzero x over F_p with x.mat.x = 0, by exhaustive scan (dim <= 3)."""
    mat = np.atleast_2d(np.array(mat, dtype=np.int64) % p)
    k = mat.shape[0]
    if k == 0:
        return None
    xs = span_points(np.eye(k, dtype=np.int64), p)[1:]  # lexicographic, zero skipped
    vals = np.einsum("ni,ij,nj->n", xs, mat, xs) % p
    hits = np.nonzero(vals == 0)[0]
    if hits.size == 0:
        return None
    return xs[hits[0]]
