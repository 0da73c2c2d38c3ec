"""Linear algebra mod small primes, plus subgroup representations.

Two concrete subgroup families cover everything the toolkit needs:

* ``BoxSubgroup`` -- products of cyclic subgroups of the cyclic factors,
  H = d1 Z/n1 x ... x dk Z/nk (this includes {0}, the whole group, and every
  subgroup of a cyclic group);
* ``PrimeSubspace`` -- F_p-linear subspaces of a homogeneous group Z/p x ...
  x Z/p given by a row-reduced basis.

Both expose the same small surface: local cyclic orders, the generators
whose local-coordinate combinations embed into the ambient group, and ambient
element enumeration.  The points of a coset y+H in local lexicographic order
are ``H.spec.coset_points(y, H.generators, H.local_orders)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Iterable, Sequence

import numpy as np

from .errors import SpecMismatch
from .groups import GroupElement, GroupSpec


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
class BoxSubgroup:
    """H = d1 Z/n1 x ... x dk Z/nk, with each d_i dividing n_i."""

    spec: GroupSpec
    divisors: tuple[int, ...]

    def __post_init__(self):
        for d, n in zip(self.divisors, self.spec.orders, strict=True):
            if d < 1 or n % d:
                raise ValueError(f"divisor {d} does not divide order {n}")

    @staticmethod
    def whole(spec: GroupSpec) -> "BoxSubgroup":
        return BoxSubgroup(spec, (1,) * spec.rank)

    @staticmethod
    def trivial(spec: GroupSpec) -> "BoxSubgroup":
        return BoxSubgroup(spec, spec.orders)

    @property
    def local_orders(self) -> tuple[int, ...]:
        return tuple(n // d for n, d in zip(self.spec.orders, self.divisors))

    @property
    def order(self) -> int:
        return prod(self.local_orders)

    def embed_coords(self, t: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            (d * (ti % h)) % n
            for ti, d, h, n in zip(t, self.divisors, self.local_orders, self.spec.orders)
        )

    @property
    def generators(self) -> np.ndarray:
        """Indices of d_i e_i, one per factor."""
        return self.spec.encode(np.diag(np.array(self.divisors, dtype=np.int64)))

    def element_indices(self) -> np.ndarray:
        return np.sort(self.spec.coset_points(0, self.generators, self.local_orders))

    def contains(self, x: GroupElement) -> bool:
        return all(c % d == 0 for c, d in zip(x.coords, self.divisors))


@dataclass(frozen=True)
class PrimeSubspace:
    """F_p-subspace of Z/p x ... x Z/p, basis rows in row-reduced form."""

    spec: GroupSpec
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
    def order(self) -> int:
        return self.p**self.dim

    @property
    def local_orders(self) -> tuple[int, ...]:
        return (self.p,) * self.dim

    def basis_matrix(self) -> np.ndarray:
        return np.array(self.basis, dtype=np.int64).reshape(self.dim, self.spec.rank)

    def embed_coords(self, t: Sequence[int]) -> tuple[int, ...]:
        v = (np.array(t, dtype=np.int64) @ self.basis_matrix()) % self.p
        return tuple(int(c) for c in v)

    @property
    def generators(self) -> np.ndarray:
        """Indices of the basis rows."""
        return self.spec.encode(self.basis_matrix())

    def element_indices(self) -> np.ndarray:
        return np.sort(self.spec.coset_points(0, self.generators, self.local_orders))

    def contains(self, x: GroupElement) -> bool:
        if self.dim == 0:
            return x.is_zero()
        mat = np.vstack([self.basis_matrix(), np.array(x.coords, dtype=np.int64)])
        return rank_mod_p(mat, self.p) == self.dim

    def annihilator(self) -> "PrimeSubspace":
        """Characters vanishing on the subspace (as a subspace of the dual)."""
        if self.dim == 0:
            return PrimeSubspace.whole(self.spec)
        ker = kernel_basis_mod_p(self.basis_matrix(), self.p)
        return PrimeSubspace.from_generators(self.spec, ker)

    def complement_basis(self) -> np.ndarray:
        """Rows completing the subspace basis to a basis of the whole space."""
        p, n = self.p, self.spec.rank
        rows = [list(r) for r in self.basis]
        comp = []
        for i in range(n):
            cand = [0] * n
            cand[i] = 1
            if rank_mod_p(np.array(rows + comp + [cand]), p) > len(rows) + len(comp):
                comp.append(cand)
        return np.array(comp, dtype=np.int64).reshape(len(comp), n)

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


Subgroup = BoxSubgroup | PrimeSubspace


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
    elements all lie in the given index set."""
    mem = set(int(i) for i in members)
    for k in range(spec.rank, -1, -1):
        for W in enumerate_subspaces(spec, k):
            if all(int(i) in mem for i in W.element_indices().tolist()):
                return W
    return PrimeSubspace(spec, ())


def isotropic_vector_in(mat: np.ndarray, p: int) -> np.ndarray | None:
    """Nonzero x over F_p with x.mat.x = 0, by exhaustive scan (dim <= 3)."""
    mat = np.atleast_2d(np.array(mat, dtype=np.int64) % p)
    k = mat.shape[0]
    if k == 0:
        return None
    xs = GroupSpec((p,) * k).decode(np.arange(1, p**k))  # lexicographic, zero skipped
    vals = np.einsum("ni,ij,nj->n", xs, mat, xs) % p
    hits = np.nonzero(vals == 0)[0]
    if hits.size == 0:
        return None
    return xs[hits[0]]
