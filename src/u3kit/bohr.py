"""Bohr sets and coset progressions.

B(S, rho) = {x : ||xi.x||_{R/Z} < rho for all xi in S}.  All membership
decisions run on exact rational norms ||x||_S, so regularity -- a universally
quantified statement over dilation factors -- is decided exactly by scanning
the finitely many thresholds where the dilated set changes.

The extraction of a proper coset progression from a Bohr set goes through
the lattice phi(G) + Z^S with exact rational arithmetic: Hermite reduction,
LLL, a reduced-basis quality certificate, and discrete-John length choices,
with both inclusions and properness verified by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DensityTooLow,
    NotFound,
    NoZero,
    NotProper,
    NotRegular,
    RhoTooLarge,
    SpecMismatch,
)
from .fourier import dft
from .groups import DualElement, GroupElement, GroupFunction, GroupSpec, pair
from .lattice import TaggedLattice, hermite_reduce, lll_reduce, product_bound_certified
from .modlinalg import BoxSubgroup, PrimeSubspace, is_prime
from .quadratic import frac_part, _frac_rank


def bohr_norm_exact(x: GroupElement, S: Sequence[DualElement]) -> Fraction:
    """||x||_S = sup_{xi in S} distance of xi.x to the nearest integer."""
    best = Fraction(0)
    for xi in S:
        v = pair(xi, x)
        best = max(best, min(v, 1 - v))
    return best


def bohr_norm(x: GroupElement, S: Sequence[DualElement]) -> float:
    return float(bohr_norm_exact(x, S))


def _norm_table(spec: GroupSpec, S: Sequence[DualElement]) -> list[Fraction]:
    return [bohr_norm_exact(x, S) for x in spec.elements()]


@dataclass
class BohrSet:
    spec: GroupSpec
    S: tuple[DualElement, ...]
    rho: Fraction
    _norms: list[Fraction] = field(repr=False, default_factory=list)

    def __post_init__(self):
        if not self._norms:
            self._norms = _norm_table(self.spec, self.S)

    @property
    def d(self) -> int:
        return len(self.S)

    @property
    def members(self) -> np.ndarray:
        return np.array(
            [i for i, v in enumerate(self._norms) if v < self.rho], dtype=np.int64
        )

    def element_indices(self) -> np.ndarray:
        return self.members

    def size_at(self, r: Fraction) -> int:
        return sum(1 for v in self._norms if v < r)

    def __len__(self) -> int:
        return self.size_at(self.rho)

    def with_rho(self, r) -> "BohrSet":
        return BohrSet(self.spec, self.S, Fraction(r), self._norms)


def bohr_set(spec: GroupSpec, S: Sequence[DualElement], rho) -> BohrSet:
    rho = Fraction(rho)
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    return BohrSet(spec, tuple(S), rho)


def is_regular(B: BohrSet) -> bool:
    """Exact regularity check: size stays within factor 1 +- 100 d |kappa| of
    |B| under dilation by 1 + kappa for every |kappa| <= 1/(100 d)."""
    d = B.d
    if d == 0:
        return True
    T = Fraction(1, 100 * d)
    rho = Fraction(B.rho)
    base = B.size_at(rho)
    values = sorted(set(B._norms))
    lo, hi = (1 - T) * rho, (1 + T) * rho
    for v in values:
        if lo < v <= rho:
            # tightest point of the lower bound on the piece ending at v
            if B.size_at(v) < (1 - 100 * d * (1 - Fraction(v, 1) / rho)) * base:
                return False
        if rho <= v < hi:
            kappa = Fraction(v) / rho - 1
            count_le = sum(1 for w in B._norms if w <= v)
            if count_le > (1 + 100 * d * kappa) * base:
                return False
    return True


def find_regular_rho(spec: GroupSpec, S: Sequence[DualElement], eps) -> Fraction:
    """A radius rho in [eps, 2 eps] whose Bohr set is regular, found by
    scanning the exact thresholds of ||.||_S (plus midpoints and endpoints)."""
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("eps must lie in (0, 1/2)")
    if len(S) == 0:
        return 2 * eps
    probe = BohrSet(spec, tuple(S), eps)
    lo, hi = eps, 2 * eps
    vals = sorted(set(v for v in probe._norms if lo <= v <= hi))
    candidates: list[Fraction] = []
    grid = [lo] + vals + [hi]
    for a, b in zip(grid, grid[1:]):
        candidates.append(a)
        if b > a:
            candidates.append((a + b) / 2)
    candidates.append(hi)
    seen = set()
    for r in candidates:
        if r in seen or not lo <= r <= hi:
            continue
        seen.add(r)
        if is_regular(probe.with_rho(r)):
            return r
    for k in range(1, 64):  # fine sweep fallback
        r = lo + (hi - lo) * Fraction(k, 64)
        if r not in seen and is_regular(probe.with_rho(r)):
            return r
    raise NotFound("no regular radius found in [eps, 2eps]")


# --- separation --------------------------------------------------------------


def separating_bohr(spec: GroupSpec, A: Iterable[int]) -> list[DualElement]:
    """Characters S with |S| <= 1 + ceil(log2 |A|) and A cap B(S,1/4) = {0}.

    Derandomized halving: each step keeps the first character that traps at
    most floor((|A|-1)/2) of the surviving nonzero points inside B(xi, 1/4).
    """
    A_set = set(int(a) for a in A)
    if 0 not in A_set:
        raise NoZero("separation requires 0 in A")
    S: list[DualElement] = []
    current = set(A_set)
    quarter = Fraction(1, 4)
    while len(current) > 1:
        target = (len(current) - 1) // 2
        chosen = None
        for xi in spec.duals():
            cnt = 0
            kept = set()
            for a in current:
                if a == 0:
                    continue
                v = pair(xi, spec.element_by_index(a))
                if min(v, 1 - v) < quarter:
                    cnt += 1
                    kept.add(a)
            if cnt <= target:
                chosen = (xi, kept)
                break
        if chosen is None:  # cannot happen; averaging guarantees existence
            raise NotFound("no halving character found")
        xi, kept = chosen
        S.append(xi)
        current = {0} | kept
    # verification
    for a in A_set:
        if a != 0 and bohr_norm_exact(spec.element_by_index(a), S) < quarter:
            raise AssertionError("separation verification failed")
    return S


# --- Bogolyubov --------------------------------------------------------------


def bogolyubov(spec: GroupSpec, A: Iterable[int], delta_floor: float = 0.0) -> list[DualElement]:
    """Large spectrum S of A at threshold delta^{3/2}/sqrt(2); then
    B(S, 1/4) is contained in 2A - 2A and |S| <= 2 delta^{-2}."""
    A_idx = sorted(set(int(a) for a in A))
    if not A_idx:
        raise DensityTooLow("empty set")
    delta = len(A_idx) / spec.order
    if delta < delta_floor:
        raise DensityTooLow(f"density {delta} below floor {delta_floor}")
    ind = GroupFunction.indicator(spec, A_idx)
    coeffs = np.abs(dft(ind).values)
    alpha = delta**1.5 / np.sqrt(2.0)
    S = [spec.dual_by_index(int(i)) for i in np.nonzero(coeffs >= alpha)[0]]
    return S


def sumset(spec: GroupSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    s = spec.add_indices(np.asarray(A, dtype=np.int64)[:, None], np.asarray(B, dtype=np.int64)[None, :])
    return np.unique(s)


def iterated_sumset(spec: GroupSpec, A: Iterable[int], plus: int, minus: int) -> np.ndarray:
    """plus*A - minus*A as a sorted index array."""
    A = np.array(sorted(set(int(a) for a in A)), dtype=np.int64)
    negA = np.unique(spec.neg_indices(A))
    acc = np.array([0], dtype=np.int64)
    for _ in range(plus):
        acc = sumset(spec, acc, A)
    for _ in range(minus):
        acc = sumset(spec, acc, negA)
    return acc


@dataclass
class LocalBogolyubovReport:
    S_prime: list[DualElement]
    k_bound: float
    guaranteed_radius: float
    guaranteed_bohr_size: int
    guaranteed_inclusion_ok: bool
    empirical_radius: float
    empirical_bohr_size: int
    base_point: int
    inner_rho: Fraction


def local_bogolyubov(
    spec: GroupSpec, A: Iterable[int], B: BohrSet, delta_floor: float = 0.0
) -> LocalBogolyubovReport:
    """Relative Bogolyubov on a regular Bohr set.

    Follows the density-increment-free proof: pass to a regular sub-Bohr
    set, intersect A with its densest translate, take the large spectrum of
    the piece, and thin it with the dual local Bessel covering.  The
    guaranteed radius 2^-33 delta^6 rho / d is used as stated even when the
    resulting Bohr set collapses to {0} (reported), and the largest radius
    at which the inclusion into 2A-2A holds is found by scanning the exact
    norm thresholds.
    """
    A_idx = sorted(set(int(a) for a in A))
    members = set(B.members.tolist())
    if not set(A_idx) <= members:
        raise SpecMismatch("A must be a subset of the Bohr set")
    if not is_regular(B):
        raise NotRegular("local Bogolyubov requires a regular Bohr set")
    if not A_idx:
        raise DensityTooLow("empty set")
    delta = len(A_idx) / len(B)
    if delta < delta_floor:
        raise DensityTooLow(f"relative density {delta} below floor {delta_floor}")
    d = B.d
    if d == 0:
        S2 = bogolyubov(spec, A_idx)
        two = iterated_sumset(spec, A_idx, 2, 2)
        quarter_set = BohrSet(spec, tuple(S2), Fraction(1, 4))
        ok = set(quarter_set.members.tolist()) <= set(two.tolist())
        return LocalBogolyubovReport(
            S2, 2 * delta**-2, 0.25, len(quarter_set), ok, 0.25, len(quarter_set), 0, Fraction(1, 4)
        )

    eps = Fraction(delta).limit_denominator(10**6) / (400 * d)
    rho_inner = find_regular_rho(spec, B.S, eps * B.rho)
    B_inner = B.with_rho(rho_inner)
    inner_members = B_inner.members
    A_arr = np.array(A_idx, dtype=np.int64)
    in_A = np.zeros(spec.order, dtype=bool)
    in_A[A_arr] = True
    # densest translate x + B' with x in B
    best_x, best_cnt = 0, -1
    for x in B.members.tolist():
        cnt = int(np.sum(in_A[spec.add_indices(inner_members, np.int64(x))]))
        if cnt > best_cnt:
            best_x, best_cnt = x, cnt
    A_prime = [
        int(i)
        for i in spec.add_indices(inner_members, np.int64(best_x)).tolist()
        if in_A[int(i)]
    ]
    if not A_prime:
        raise DensityTooLow("no dense translate found")
    indA = GroupFunction.indicator(spec, A_prime)
    coeffs = np.abs(dft(indA).values)
    thresh = (delta**1.5 / 8.0) * (len(B_inner) / spec.order)
    R = [int(i) for i in np.nonzero(coeffs >= thresh)[0]]

    theta = Fraction(2) ** -33 * Fraction(delta).limit_denominator(10**6) ** 6 / d
    sep_bohr = B.with_rho(theta * B.rho)
    sep_members = sep_bohr.members
    delta_sep = 2**28 * float(delta) ** -6 * theta * d

    def bohr_dual_norm(xi_idx: int) -> float:
        xi = spec.dual_by_index(xi_idx)
        worst = Fraction(0)
        for y in sep_members.tolist():
            v = pair(xi, spec.element_by_index(int(y)))
            worst = max(worst, min(v, 1 - v))
        return float(worst)

    S_prime_idx: list[int] = []
    for xi_idx in R:
        separated = True
        for kept in S_prime_idx:
            diff = int(spec.add_indices(np.int64(xi_idx), spec.neg_indices(np.int64(kept))))
            if bohr_dual_norm(diff) < delta_sep:
                separated = False
                break
        if separated:
            S_prime_idx.append(xi_idx)
    S_prime = [spec.dual_by_index(i) for i in S_prime_idx]

    two = set(iterated_sumset(spec, A_idx, 2, 2).tolist())
    S_union = tuple(B.S) + tuple(S_prime)
    union_bohr = BohrSet(spec, S_union, max(theta * B.rho, Fraction(1, 10**9)))
    thm_members = union_bohr.members
    thm_ok = set(thm_members.tolist()) <= two

    # largest radius whose Bohr set still sits inside 2A-2A
    values = sorted(set(union_bohr._norms))
    best_r, best_sz = 0.0, 1
    for i, v in enumerate(values):
        mem = {j for j, w in enumerate(union_bohr._norms) if w <= v}
        if mem <= two:
            upper = values[i + 1] if i + 1 < len(values) else Fraction(1, 2)
            best_r, best_sz = float((Fraction(v) + upper) / 2), len(mem)
        else:
            break
    return LocalBogolyubovReport(
        S_prime,
        2**7 * float(delta) ** -3,
        float(theta * B.rho),
        len(thm_members),
        thm_ok,
        best_r,
        best_sz,
        best_x,
        rho_inner,
    )


# --- subgroup kernel of a character set --------------------------------------


@dataclass(frozen=True)
class EnumeratedSubgroup:
    """Fallback subgroup representation: just its sorted element indices."""

    spec: GroupSpec
    indices: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def local_orders(self) -> tuple[int, ...]:
        raise SpecMismatch("enumerated subgroup has no canonical coordinates")

    def element_indices(self) -> np.ndarray:
        return np.array(self.indices, dtype=np.int64)

    def contains(self, x: GroupElement) -> bool:
        return x.index in set(self.indices)


def character_kernel(spec: GroupSpec, S: Sequence[DualElement]):
    """H = {x : xi.x = 0 for all xi in S} in the most structured
    representation available."""
    if not S:
        return BoxSubgroup.whole(spec)
    if spec.rank == 1:
        N = spec.order
        m = 1
        for xi in S:
            g = gcd(int(xi.coords[0]), N)
            m = lcm(m, N // g)
        return BoxSubgroup(spec, (m,))
    if len(set(spec.orders)) == 1 and is_prime(spec.orders[0]):
        from .modlinalg import kernel_basis_mod_p

        mat = np.array([list(xi.coords) for xi in S], dtype=np.int64)
        ker = kernel_basis_mod_p(mat, spec.orders[0])
        return PrimeSubspace.from_generators(spec, ker)
    idx = [
        x.index
        for x in spec.elements()
        if all(pair(xi, x) == 0 for xi in S)
    ]
    return EnumeratedSubgroup(spec, tuple(sorted(idx)))


# --- coset progressions -------------------------------------------------------


@dataclass
class CosetProgression:
    """Symmetric coset progression base + (-L, L).v + H."""

    spec: GroupSpec
    base: GroupElement
    generators: tuple[GroupElement, ...]
    half_lengths: tuple[int, ...]
    subgroup: object
    proper: bool = False

    def point(self, l: Sequence[int], h: GroupElement) -> GroupElement:
        x = self.base
        for li, v in zip(l, self.generators):
            x = x + int(li) * v
        return x + h

    def progression_indices(self) -> np.ndarray:
        """All l-combinations (with multiplicity, for the properness check)."""
        idx = np.array([self.base.index], dtype=np.int64)
        for v, L in zip(self.generators, self.half_lengths):
            ls = np.arange(-(L - 1), L, dtype=np.int64)
            shifts = self.spec.scale_indices(ls, v.index)
            idx = self.spec.add_indices(idx[:, None], shifts[None, :]).reshape(-1)
        return idx

    def element_indices(self) -> np.ndarray:
        prog = self.progression_indices()
        sub = self.subgroup.element_indices()
        return np.unique(self.spec.add_indices(prog[:, None], sub[None, :]).reshape(-1))

    @property
    def expected_size(self) -> int:
        sz = int(self.subgroup.order)
        for L in self.half_lengths:
            sz *= 2 * L - 1
        return sz

    def check_proper(self) -> bool:
        prog = self.progression_indices()
        total = self.spec.add_indices(
            prog[:, None], self.subgroup.element_indices()[None, :]
        ).reshape(-1)
        return len(np.unique(total)) == self.expected_size

    def to_json(self) -> dict:
        return {
            "base": list(self.base.coords),
            "generators": [list(v.coords) for v in self.generators],
            "half_lengths": list(self.half_lengths),
            "subgroup_order": int(self.subgroup.order),
            "proper": self.proper,
        }


@dataclass
class ProgressionExtraction:
    progression: CosetProgression
    rank: int
    left_radius: float
    left_inclusion_ok: bool
    right_inclusion_ok: bool
    independent_images: bool
    basis_product_certified: bool


def coset_progression_in_bohr(
    spec: GroupSpec, S: Sequence[DualElement], rho
) -> ProgressionExtraction:
    """Extract a proper coset progression with
    B(S, d^-2d rho) <= P + H <= B(S, rho) and H the kernel of S.

    The lattice phi(G) + Z^S is generated exactly over a common denominator;
    the basis is Hermite- then LLL-reduced (quality certified against
    2 d! covolume) and lengths follow the discrete John choice L_j = least
    integer above 1/(d |w_j|) after scaling the cube to the unit ball.
    """
    rho = Fraction(rho)
    if not rho < Fraction(1, 4):
        raise RhoTooLarge("progression extraction requires rho < 1/4")
    S = tuple(S)
    d = len(S)
    H = character_kernel(spec, S)
    if d == 0:
        prog = CosetProgression(spec, spec.zero(), (), (), H, True)
        prog.proper = prog.check_proper()
        return ProgressionExtraction(prog, 0, float(rho), True, True, True, True)

    D = lcm(*spec.orders, 1)
    rows, tags = [], []
    for j in range(d):  # integer lattice Z^S
        r = [0] * d
        r[j] = D
        rows.append(r)
        tags.append([0] * spec.rank)
    for i in range(spec.rank):  # images of the group basis vectors
        e = [0] * spec.rank
        e[i] = 1
        x = spec.element(e)
        rows.append([int(pair(xi, x) * D) for xi in S])
        tags.append(e)
    lat = TaggedLattice(np.array(rows, dtype=object), np.array(tags, dtype=object))
    lat = hermite_reduce(lat)
    lat = lll_reduce(lat)
    certified = product_bound_certified(lat.mat)

    half_lengths, gens = [], []
    for row, tag in zip(lat.mat, lat.tags):
        # largest L with (L-1)|w| < 1/d strictly, |w| = |row|/(D rho);
        # exact comparison: k^2 row_sq d^2 rho_den^2 < D^2 rho_num^2
        row_sq = sum(int(v) * int(v) for v in row)
        lhs_unit = row_sq * d * d * rho.denominator**2
        rhs = D * D * rho.numerator**2
        from math import isqrt

        k = isqrt(rhs // lhs_unit) + 1
        while k > 0 and k * k * lhs_unit >= rhs:
            k -= 1
        half_lengths.append(k + 1)
        gens.append(spec.element([int(t) for t in tag]))

    order = sorted(range(d), key=lambda j: (-half_lengths[j], gens[j].index))
    gens = [gens[j] for j in order]
    half_lengths = [half_lengths[j] for j in order]
    keep = [j for j in range(d) if half_lengths[j] >= 2]
    rank = len(keep)
    prog = CosetProgression(
        spec,
        spec.zero(),
        tuple(gens[j] for j in keep),
        tuple(half_lengths[j] for j in keep),
        H,
    )
    prog.proper = prog.check_proper()
    if not prog.proper:
        raise NotProper("extracted progression failed the properness check")

    norms = _norm_table(spec, S)
    left_radius = Fraction(d) ** (-2 * d) * rho
    members_left = {i for i, v in enumerate(norms) if v < left_radius}
    members_right = {i for i, v in enumerate(norms) if v < rho}
    ph = set(prog.element_indices().tolist())
    left_ok = members_left <= ph
    right_ok = ph <= members_right

    # independence of the fractional-part images of the kept generators
    if rank:
        img = np.array(
            [[frac_part(pair(xi, v)) for xi in S] for v in prog.generators], dtype=object
        ).T
        independent = _frac_rank(img) == rank
    else:
        independent = True
    return ProgressionExtraction(
        prog, rank, float(left_radius), left_ok, right_ok, independent, certified
    )
