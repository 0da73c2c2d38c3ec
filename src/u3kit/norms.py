"""Gowers uniformity norms U^d and local quadratic-bias oracles u^d.

The direct method averages the conjugation-twisted product of f over all
combinatorial cubes; the recursive method peels one derivative at a time,
with U^2 evaluated through the fourth-moment identity on the Fourier side,
U^2(f)^4 = sum_xi |fhat(xi)|^4.  Both agree to high precision and the direct
method serves as the oracle at small N.

The u^3 oracles search explicit families of quadratic phases: an exact scan
over M x.x + xi.x on cosets of odd subgroups (the complete family there),
and a grid scan over bracket quadratics on regions of Z/N (a certified lower
bound; bracket quadratics on Bohr sets admit no complete parametrization).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DegreeUnsupported,
    EvenOrder,
    NotBounded,
    NotPrime,
)
from .fourier import dft, dft_values
from .groups import DualElement, GroupElement, GroupFunction, GroupSpec, derivative_rows
from .modlinalg import BoxSubgroup, PrimeSubspace, Subgroup, is_prime
from .quadratic import BracketQuadratic

DIRECT_BUDGET = 30_000_000
ORACLE_BUDGET = 2_000_000_000
_H_CHUNK = 128


@dataclass
class NormReport:
    value: float
    d: int
    method: str
    witness: object | None = None

    def to_json(self) -> dict:
        out = {"value": self.value, "d": self.d, "method": self.method}
        if self.witness is not None:
            w = self.witness
            out["witness"] = w.to_json() if hasattr(w, "to_json") else str(w)
        return out


def _check_bounded(f: GroupFunction, unchecked: bool) -> None:
    if not unchecked and not f.is_bounded():
        raise NotBounded("function exceeds the unit disk; pass unchecked=True to override")


def _u2_pow4_batch(spec: GroupSpec, rows: np.ndarray) -> np.ndarray:
    """U^2(g)^4 = sum_xi |ghat(xi)|^4 for a batch of value rows."""
    F = dft_values(spec, rows)
    mag2 = np.abs(F) ** 2
    return np.sum(mag2 * mag2, axis=-1)


def _u3_pow8(f: GroupFunction) -> float:
    spec = f.owner
    N = spec.order
    total = 0.0
    for start in range(0, N, _H_CHUNK):
        hs = np.arange(start, min(start + _H_CHUNK, N))
        rows = derivative_rows(f, hs)
        total += float(np.sum(_u2_pow4_batch(spec, rows)))
    return total / N


def _u4_pow16(f: GroupFunction) -> float:
    spec = f.owner
    N = spec.order
    total = 0.0
    for h in range(N):
        g = GroupFunction(spec, derivative_rows(f, [h])[0])
        total += _u3_pow8(g)
    return total / N


def _gowers_recursive(f: GroupFunction, d: int) -> float:
    spec = f.owner
    if d == 1:
        return abs(complex(np.mean(f.values)))
    if d == 2:
        p4 = float(_u2_pow4_batch(spec, f.values[None, :])[0])
        return max(p4, 0.0) ** 0.25
    if d == 3:
        return max(_u3_pow8(f), 0.0) ** 0.125
    return max(_u4_pow16(f), 0.0) ** 0.0625


def _gowers_direct(f: GroupFunction, d: int, budget: int) -> float:
    spec = f.owner
    N = spec.order
    if N ** (d + 1) > budget:
        raise BudgetExceeded(f"direct method needs N^{d + 1} = {N ** (d + 1)} > budget {budget}")
    add = spec.translates(np.arange(N))  # add[h, x] = x + h, symmetric
    vals = f.values

    def corner(idx_arrays: list[np.ndarray], omega: tuple[int, ...]) -> np.ndarray:
        idx = idx_arrays[0]
        for t, w in enumerate(omega):
            if w:
                idx = add[idx, idx_arrays[t + 1]]
        v = vals[idx]
        return np.conj(v) if sum(omega) % 2 else v

    shapes = []
    for t in range(d + 1):
        sh = [1] * (d + 1)
        sh[t] = N
        shapes.append(np.arange(N).reshape(sh))
    acc = None
    for omega in itertools.product((0, 1), repeat=d):
        term = corner(shapes, omega)
        acc = term if acc is None else acc * term
    mean = complex(np.mean(acc))
    return max(mean.real, 0.0) ** (1.0 / 2**d)


def gowers_norm(
    f: GroupFunction,
    d: int,
    method: str = "auto",
    budget: int = DIRECT_BUDGET,
    unchecked: bool = False,
) -> NormReport:
    """The U^d norm of f for d = 1..4.

    method "direct" enumerates all cubes (N^(d+1) work, budget-guarded);
    "recursive" averages lower-degree norms of multiplicative derivatives
    with the Fourier identity at degree 2; "auto" picks recursive.
    """
    if d not in (1, 2, 3, 4):
        raise DegreeUnsupported(f"U^{d} not supported (d must be 1..4)")
    _check_bounded(f, unchecked)
    if method == "auto":
        method = "recursive"
    if method == "direct":
        return NormReport(_gowers_direct(f, d, budget), d, "direct")
    if method == "recursive":
        return NormReport(_gowers_recursive(f, d), d, "recursive")
    raise ValueError(f"unknown method {method!r}")


def u2_bias(f: GroupFunction) -> NormReport:
    """u^2 bias = max_xi |fhat(xi)|, witness the maximizing linear phase
    (ties broken by smallest dual index)."""
    F = dft(f)
    mags = np.abs(F.values)
    k = int(np.argmax(mags))
    return NormReport(float(mags[k]), 2, "fourier", witness=f.owner.dual_by_index(k))


# --- exact u^3 oracle on cosets ----------------------------------------------


@dataclass
class CosetQuadraticWitness:
    """A quadratic phase on a coset y+H in local coordinates: for x = y +
    embed(t), phi(x) = (t.A t)/o + (b.t)/o with o the (common) local order.

    Only the modulus of the correlation is reported, so the constant term is
    dropped.
    """

    y: GroupElement
    subgroup: Subgroup
    A: tuple[tuple[int, ...], ...]  # symmetric, local coords
    b: tuple[int, ...]

    def phase_at_local(self, t: Sequence[int]) -> Fraction:
        loc = self.subgroup.local_orders
        total = Fraction(0)
        for i, oi in enumerate(loc):
            total += Fraction(self.b[i] * t[i], oi)
            for j, oj in enumerate(loc):
                # homogeneous local orders in all supported cases
                total += Fraction(self.A[i][j] * t[i] * t[j], oj)
        return total % 1

    def bias_against(self, f: GroupFunction) -> float:
        H = self.subgroup
        pts = H.spec.coset_points(self.y.index, H.generators, H.local_orders)
        ts = itertools.product(*[range(o) for o in H.local_orders])
        total = 0j
        for x, t in zip(pts.tolist(), ts, strict=True):
            total += f.values[x] * np.exp(-2j * np.pi * float(self.phase_at_local(t)))
        return abs(total) / len(pts)

    def to_json(self) -> dict:
        return {"y": list(self.y.coords), "A": [list(r) for r in self.A], "b": list(self.b)}


def _coset_values(f: GroupFunction, y_index: int, H: Subgroup) -> tuple[np.ndarray, tuple[int, ...]]:
    """Values of f on y+H in local lexicographic order, plus local orders."""
    orders = tuple(H.local_orders)
    return f.values[f.owner.coset_points(y_index, H.generators, orders)], orders


def u3_oracle_coset(
    f: GroupFunction,
    coset: tuple[GroupElement, Subgroup],
    budget: int = ORACLE_BUDGET,
) -> NormReport:
    """Exact u^3 bias on a coset y+H of odd order: the maximum over all
    quadratic phases M t.t + xi.t (constant dropped) of |E_{x in y+H} f(x)
    e(-phi(x))|, with the witness phase.

    Supported families: F_p-subspaces (dimension-limited by budget) and
    cyclic subgroups of Z/N.  Argmax ties break toward the lexicographically
    smallest parameter vector.
    """
    y, H = coset
    if H.order % 2 == 0:
        raise EvenOrder("coset oracle requires odd |H|")
    fvals, orders = _coset_values(f, y.index, H)
    m = len(fvals)
    if m == 1:
        return NormReport(abs(complex(fvals[0])), 3, "coset-exact",
                          CosetQuadraticWitness(y, H, (), ()))

    if isinstance(H, PrimeSubspace):
        p, k = H.p, H.dim
        n_M = p ** (k * (k + 1) // 2)
        if n_M * m * p**k > budget:
            raise BudgetExceeded("symmetric-matrix scan exceeds budget")
        t = GroupSpec((p,) * k).decode(np.arange(m))  # (m, k), lex order
        monos = []
        pairs = [(i, j) for i in range(k) for j in range(i, k)]
        for (i, j) in pairs:
            monos.append((t[:, i] * t[:, j] * (1 if i == j else 2)) % p)
        P = np.array(monos, dtype=np.int64)  # (npairs, m)
        # coefficient vectors in lex order
        digits = GroupSpec((p,) * len(pairs)).decode(np.arange(n_M))
        best_val, best = -1.0, None
        chunk = max(1, int(2_000_000 // max(m, 1)))
        omega = np.exp(-2j * np.pi * np.arange(p) / p)
        for start in range(0, n_M, chunk):
            Dg = digits[start : start + chunk]
            Q = (Dg @ P) % p  # (c, m)
            U = fvals[None, :] * omega[Q]
            Ugrid = U.reshape((-1,) + (p,) * k)
            corr = np.fft.fftn(Ugrid, axes=range(1, k + 1)).reshape(len(Dg), -1)
            mags = np.abs(corr) / m
            flat = int(np.argmax(mags))
            v = float(mags.reshape(-1)[flat])
            if v > best_val + 1e-15:
                mi, xi_i = divmod(flat, p**k)
                best_val = v
                best = (start + mi, xi_i)
        Mi, xi_i = best
        coefs = digits[Mi]
        A = [[0] * k for _ in range(k)]
        for (i, j), cval in zip(pairs, coefs):
            A[i][j] = A[j][i] = int(cval)
        loc = GroupSpec((p,) * k) if k else GroupSpec((1,))
        xi_t = loc.coords_of(xi_i) if k else ()
        witness = CosetQuadraticWitness(y, H, tuple(tuple(r) for r in A), tuple(xi_t))
        return NormReport(best_val, 3, "coset-exact", witness)

    if isinstance(H, BoxSubgroup) and f.owner.rank == 1:
        h = H.local_orders[0]
        if h * h * h > budget:
            raise BudgetExceeded("cyclic quadratic scan exceeds budget")
        ts = np.arange(h, dtype=np.int64)
        omega = np.exp(-2j * np.pi * np.arange(h) / h)
        best_val, best = -1.0, (0, 0)
        for mcoef in range(h):
            g = fvals * omega[(mcoef * ts * ts) % h]
            corr = np.fft.fft(g)  # index b: sum_t g(t) e(-2 pi i b t / h)
            mags = np.abs(corr) / h
            b = int(np.argmax(mags))
            if float(mags[b]) > best_val + 1e-15:
                best_val = float(mags[b])
                best = (mcoef, b)
        witness = CosetQuadraticWitness(y, H, ((best[0],),), (best[1],))
        return NormReport(best_val, 3, "coset-exact", witness)

    raise BudgetExceeded("coset oracle supports F_p subspaces and cyclic subgroups")


# --- grid bracket-quadratic oracle on regions of Z/N -------------------------


def _region_indices(region) -> np.ndarray:
    if isinstance(region, np.ndarray):
        return region.astype(np.int64)
    if hasattr(region, "element_indices"):
        return np.asarray(region.element_indices(), dtype=np.int64)
    if hasattr(region, "members"):
        return np.asarray(region.members, dtype=np.int64)
    return np.array(sorted(int(i) for i in region), dtype=np.int64)


def u3_oracle_bracket(
    f: GroupFunction,
    region,
    S: Sequence[DualElement] | Sequence[int],
    grid: int,
    budget: int = ORACLE_BUDGET,
) -> NormReport:
    """Grid search over bracket quadratics with frequencies in S.

    Coefficients range over {k + j/grid : -grid <= k <= grid, 0 <= j < grid}.
    The result is a certified lower bound for the quadratic bias u^3 on the
    region (the family is a grid, not the full supremum); the witness bracket
    quadratic has exact rational coefficients.
    """
    spec = f.owner
    if spec.rank != 1 or not is_prime(spec.order):
        raise NotPrime("bracket oracle requires prime N")
    if grid < 1 or grid > 64:
        raise BudgetExceeded("grid must be between 1 and 64")
    freqs = tuple(int(x.coords[0]) if isinstance(x, DualElement) else int(x) for x in S)
    s = len(freqs)
    if s > 4:
        raise BudgetExceeded("at most 4 frequencies supported")
    N = spec.order
    idx = _region_indices(region)
    m = len(idx)

    pairs = [(i, j) for i in range(s) for j in range(i, s)]
    ncoef = len(pairs) + s
    coef_values = [Fraction(k) + Fraction(j, grid) for k in range(-grid, grid + 1) for j in range(grid)]
    coef_values.sort()
    nv = len(coef_values)
    combos = nv**ncoef
    if combos * m > budget:
        raise BudgetExceeded(f"{combos} coefficient tuples x {m} points exceed budget")

    brk = np.empty((s, m))
    for i, xi in enumerate(freqs):
        tvals = (xi * idx % N) / N
        brk[i] = np.where(tvals <= 0.5, tvals, tvals - 1.0)
    monos = []
    for (i, j) in pairs:
        monos.append(brk[i] * brk[j] * (1 if i == j else 2))
    for i in range(s):
        monos.append(brk[i])
    MONO = np.array(monos)  # (ncoef, m)
    cv = np.array([float(v) for v in coef_values])

    fvals = f.values[idx]
    best_val, best_combo = -1.0, None
    chunk = max(1, int(4_000_000 // max(m, 1)))
    for start in range(0, combos, chunk):
        count = min(chunk, combos - start)
        flat = start + np.arange(count)
        dig = np.empty((count, ncoef), dtype=np.int64)
        rem = flat.copy()
        for c in range(ncoef - 1, -1, -1):
            dig[:, c] = rem % nv
            rem //= nv
        E = cv[dig] @ MONO  # (count, m)
        vals = np.abs(np.exp(-2j * np.pi * E) @ fvals) / m
        loc = int(np.argmax(vals))
        if float(vals[loc]) > best_val + 1e-15:
            best_val = float(vals[loc])
            best_combo = dig[loc].copy()
    quad = [[Fraction(0)] * s for _ in range(s)]
    lin = [Fraction(0)] * s
    for t, (i, j) in enumerate(pairs):
        quad[i][j] = quad[j][i] = coef_values[int(best_combo[t])]
    for i in range(s):
        lin[i] = coef_values[int(best_combo[len(pairs) + i])]
    bq = BracketQuadratic(N, freqs, tuple(tuple(r) for r in quad), tuple(lin))
    return NormReport(best_val, 3, "bracket-grid", bq)
