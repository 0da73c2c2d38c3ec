"""Linear algebra mod small primes, plus subgroup representations.

Two concrete subgroup families cover everything the toolkit needs:

* ``BoxSubgroup`` -- products of cyclic subgroups of the cyclic factors,
  H = d1 Z/n1 x ... x dk Z/nk (this includes {0}, the whole group, and every
  subgroup of a cyclic group);
* ``PrimeSubspace`` -- F_p-linear subspaces of a homogeneous group Z/p x ...
  x Z/p given by a row-reduced basis.

Both are a ``Subgroup``: coordinate rows (``basis_matrix``) and local cyclic
orders, from which the shared base derives the order, the generators and
the points of a coset, ``H.coset(y)``, y + H in local lexicographic order
of the coordinates t of the points t @ rows, from the span of H listed
once.  ``span_points`` is the one lister of the points of an
F_p-subspace: the coordinates t @ rows over F_p^k in lexicographic order of
t, for a ``PrimeSubspace``'s own rows (its span) and for any other rows (a
complement, or the identity for plain F_p^k coordinates), encoded where
indices are needed.  ``GroupSpec.coset_points`` serves only boxes (the span
of a ``BoxSubgroup``) and progressions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import SpecMismatch
from .groups import _ADD_BLOCK, GroupSpec


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 12 prime bases, 2 to 37: exact for every n
    below 318665857834031151167461 (about 3.2 * 10^23, the least composite
    that is a strong probable prime to all 12 bases; exactness up to
    3.3 * 10^24 needs the 13th base, 41), a probable-prime test above."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    cols = mat.shape[1]
    r, pivots = rref_mod_p(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[:, free].T) % p
    return basis


def complete_basis(rows, candidates, p: int) -> np.ndarray:
    """The candidates, in order, that each raise the rank mod p of the
    independent ``rows`` together with the candidates kept before them.

    One elimination: a column of [rows; candidates]^T is a pivot exactly when
    it lies outside the span of the columns before it, and the span of the
    rows and all earlier candidates is that of the rows and the earlier kept
    ones; so the kept candidates are the pivot columns past the rows."""
    candidates = np.asarray(candidates, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, candidates.shape[1])
    _, pivots = rref_mod_p(np.vstack([rows, candidates]).T, p)
    return candidates[[c - len(rows) for c in pivots if c >= len(rows)]]


def span_points(rows: np.ndarray, p: int) -> np.ndarray:
    """Coordinates of t @ rows mod p for t in F_p^k, k = len(rows), in
    lexicographic order of t (t_1 slowest): one zero row when k = 0."""
    k = len(rows)
    t = np.indices((p,) * k, dtype=np.int64).reshape(k, p**k).T
    return (t @ rows) % p


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

    @cached_property
    def generators(self) -> np.ndarray:
        """Indices of the coordinate rows, computed once per subgroup (read-only)."""
        g = self.spec.encode(self.basis_matrix())
        g.flags.writeable = False
        return g

    @cached_property
    def _span(self) -> np.ndarray:
        """The points of H in local lex order, listed once per subgroup."""
        return self.spec.coset_points(0, self.generators, self.local_orders)

    def coset(self, y) -> np.ndarray:
        """Indices of y + H, lexicographic in the local coordinates t (a new
        array); for an (n, 1) array of y, one such row per y."""
        return self.spec.add_indices(y, self._span)


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

    @cached_property
    def _span(self) -> np.ndarray:
        """The points of the subspace in local lex order, by `span_points`."""
        return self.spec.encode(span_points(self.basis_matrix(), self.p))

    def complement_basis(self) -> np.ndarray:
        """Unit vectors e_1, e_2, ... that complete the subspace basis to a
        basis of the whole space, each kept when it raises the rank."""
        return complete_basis(self.basis, np.eye(self.spec.rank, dtype=np.int64), self.p)


def subspace_bases(p: int, n: int, k: int, block: int):
    """The canonical bases of the k-dimensional subspaces of F_p^n, each
    subspace once, as int64 arrays of shape (b, k, n) with 1 <= b <= block.

    A basis is row-reduced: by its pivot columns, in lexicographic order,
    then by its free entries (right of a row's pivot and off the pivot
    columns, row by row) in lexicographic order, the first entry slowest."""
    for pivots in itertools.combinations(range(n), k):
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots]
        rows, cols = np.array(free, dtype=np.int64).reshape(-1, 2).T
        places = p ** np.arange(len(free) - 1, -1, -1, dtype=np.int64)
        for start in range(0, p ** len(free), block):
            vals = np.arange(start, min(start + block, p ** len(free)), dtype=np.int64)
            mats = np.zeros((len(vals), k, n), dtype=np.int64)
            mats[:, np.arange(k), list(pivots)] = 1
            mats[:, rows, cols] = vals[:, None] // places % p
            yield mats


def largest_subspace_inside(spec: GroupSpec, members: Iterable[int]) -> PrimeSubspace:
    """The first subspace, in `subspace_bases` order, of the largest
    dimension whose points all lie in the given index set.

    One masked pass per dimension on a boolean mask over G, skipping a
    dimension with more points than members: per block of bases, with at
    most _ADD_BLOCK span points (one basis at least), the bases whose rows
    are all members are kept, and then those whose span points are all
    members."""
    p, n = spec.orders[0], spec.rank
    mask = np.zeros(spec.order, dtype=bool)
    mask[np.fromiter(members, dtype=np.int64)] = True
    size = int(mask.sum()) if mask[0] else 0  # every subspace holds 0
    for k in range(n, 0, -1):
        if p**k > size:
            continue
        t = span_points(np.eye(k, dtype=np.int64), p)
        for mats in subspace_bases(p, n, k, max(1, _ADD_BLOCK // p**k)):
            mats = mats[mask[spec.encode(mats)].all(axis=1)]
            hit = mask[spec.encode(t @ mats)].all(axis=1)  # t @ mats: (b, p^k, n)
            if hit.any():
                return PrimeSubspace(spec, tuple(map(tuple, mats[np.argmax(hit)].tolist())))
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
