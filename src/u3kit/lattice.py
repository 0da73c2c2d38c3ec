"""Exact lattice tools: Hermite form, LLL reduction, short-vector certification.

Lattices here are full-rank sublattices of Q^d given by integer generator
matrices after clearing denominators.  Generators carry "tags" (group
elements of the originating finite group) so that reduced basis vectors can
be pulled back through the quotient map; all row operations update the tags
in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

LLL_DELTA = Fraction(99, 100)  # the Lovasz condition constant of lll_reduce


@dataclass
class TaggedLattice:
    """Rows of ``mat`` (ints) generate the lattice; ``tags`` are integer
    vectors transforming covariantly under row operations."""

    mat: np.ndarray  # (g, d) int64 generators (possibly redundant)
    tags: np.ndarray  # (g, t)

    def copy(self) -> "TaggedLattice":
        return TaggedLattice(self.mat.copy(), self.tags.copy())


def hermite_reduce(lat: TaggedLattice) -> TaggedLattice:
    """Row-style Hermite normal form via integer Gaussian elimination,
    dropping zero rows; keeps tags aligned."""
    a = [[int(v) for v in row] for row in lat.mat]
    t = [[int(v) for v in row] for row in lat.tags]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        t[r], t[piv] = t[piv], t[r]
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, rows):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    t[i] = [x - q * y for x, y in zip(t[i], t[r])]
                    if a[i][c]:
                        a[r], a[i] = a[i], a[r]
                        t[r], t[i] = t[i], t[r]
                        changed = True
        r += 1
        if r == rows:
            break
    mat = np.array(a[:r], dtype=object)
    tags = np.array(t[:r], dtype=object)
    return TaggedLattice(mat, tags)


def lll_reduce(lat: TaggedLattice) -> TaggedLattice:
    """LLL with exact rational Gram-Schmidt; rows must be independent."""
    b = [[Fraction(int(v)) for v in row] for row in lat.mat]
    tg = [[int(v) for v in row] for row in lat.tags]
    n = len(b)

    def gram_schmidt():
        bstar = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = list(b[i])
            for j in range(i):
                denom = sum(x * x for x in bstar[j])
                mu[i][j] = sum(x * y for x, y in zip(b[i], bstar[j])) / denom
                v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
            bstar.append(v)
        return bstar, mu

    bstar, mu = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                tg[k] = [x - q * y for x, y in zip(tg[k], tg[j])]
                bstar, mu = gram_schmidt()
        nk = sum(x * x for x in bstar[k])
        nk1 = sum(x * x for x in bstar[k - 1])
        if nk >= (LLL_DELTA - mu[k][k - 1] ** 2) * nk1:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            tg[k], tg[k - 1] = tg[k - 1], tg[k]
            bstar, mu = gram_schmidt()
            k = max(k - 1, 1)
    mat = np.array([[int(x) for x in row] for row in b], dtype=object)
    tags = np.array(tg, dtype=object)
    return TaggedLattice(mat, tags)


def rref_rational(mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Q, by Gauss-Jordan elimination on exact
    Fractions; returns (nonzero rows, pivot columns) as
    ``modlinalg.rref_mod_p`` does over F_p."""
    a = np.frompyfunc(Fraction, 1, 1)(np.array(mat, dtype=object))
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i, c] != 0), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] / a[r, c]
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def exact_det_abs(mat: np.ndarray) -> Fraction:
    """|det| of a square integer/Fraction matrix by fraction-free elimination."""
    a = [[Fraction(int(v)) if not isinstance(v, Fraction) else v for v in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return abs(det)


def row_norms(mat: np.ndarray) -> list[float]:
    return [float(np.sqrt(float(sum(int(x) * int(x) for x in row)))) for row in mat]


def product_bound_certified(mat: np.ndarray) -> bool:
    """Check prod |w_i| <= 2 d! |det| for the basis rows (reduced-basis
    quality bound used by the discrete John construction)."""
    import math

    d = mat.shape[0]
    det = float(exact_det_abs(mat))
    prod = 1.0
    for nv in row_norms(mat):
        prod *= nv
    return prod <= 2.0 * math.factorial(d) * det * (1.0 + 1e-9)


def short_vectors_certify(lat: TaggedLattice, coeff_bound: int = 6) -> list[np.ndarray]:
    """Enumerate small integer combinations of the basis (exhaustive box
    search) and return them sorted by length; desk-scale certification that
    the reduced basis has no dramatically shorter lattice vectors."""
    import itertools

    d = lat.mat.shape[0]
    out = []
    for coef in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=d):
        if all(c == 0 for c in coef):
            continue
        v = np.zeros(lat.mat.shape[1], dtype=object)
        for c, row in zip(coef, lat.mat):
            v = v + c * row
        out.append((sum(int(x) * int(x) for x in v), np.array(coef)))
    out.sort(key=lambda t: t[0])
    return [c for _, c in out]
