"""Bohr sets and coset progressions.

B(S, rho) = {x : ||xi.x||_{R/Z} < rho for all xi in S}.  Every pairing xi.x
is an integer over the exponent D of the group (``GroupSpec.pairings``), so a
Bohr set keeps the exact norms D ||x||_S in one int64 array and x lies in
B(S, r) exactly when D ||x||_S < ceil(r D).  Regularity -- a universally
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
from math import ceil, floor, gcd, isqrt, lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
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
from .lattice import TaggedLattice, hermite_reduce, lll_reduce, product_bound_certified, rref_rational
from .modlinalg import BoxSubgroup, PrimeSubspace, is_prime
from .quadratic import frac_part

SUMSET_BUDGET = 40_000_000
_THIN_CHUNK = 1 << 20  # (candidate, member) pairs per block of the spectrum thinning
_SUMSET_CHUNK = 1 << 18  # sums a + b marked per block of rows of A in sumset


def bohr_norm_exact(x: GroupElement, S: Sequence[DualElement]) -> Fraction:
    """||x||_S = sup_{xi in S} distance of xi.x to the nearest integer."""
    best = Fraction(0)
    for xi in S:
        v = pair(xi, x)
        best = max(best, min(v, 1 - v))
    return best


def _distances(spec: GroupSpec, xis, idx) -> np.ndarray:
    """D times the distance of xi.x to the nearest integer, broadcasting."""
    v = spec.pairings(xis, idx)
    return np.minimum(v, spec.exponent - v)


def _scaled_norms(spec: GroupSpec, S: Sequence[DualElement]) -> np.ndarray:
    """D ||x||_S for every x in G, in index order (0 when S is empty)."""
    xis = np.array([xi.index for xi in S], dtype=np.int64)
    return _distances(spec, xis[:, None], np.arange(spec.order)[None, :]).max(axis=0, initial=0)


@dataclass
class BohrSet:
    spec: GroupSpec
    S: tuple[DualElement, ...]
    rho: Fraction
    _norms: np.ndarray | None = field(repr=False, default=None)  # D ||x||_S over G

    def __post_init__(self):
        if self._norms is None:
            self._norms = _scaled_norms(self.spec, self.S)

    @property
    def d(self) -> int:
        return len(self.S)

    def _inside(self, r) -> np.ndarray:
        """Mask of ||x||_S < r, read as D ||x||_S < ceil(r D) in integers."""
        return self._norms < ceil(Fraction(r) * self.spec.exponent)

    @property
    def members(self) -> np.ndarray:
        return np.flatnonzero(self._inside(self.rho))

    def element_indices(self) -> np.ndarray:
        return self.members

    def size_at(self, r: Fraction) -> int:
        return int(np.count_nonzero(self._inside(r)))

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
    lo, hi = (1 - T) * rho, (1 + T) * rho
    D, norms = B.spec.exponent, B._norms
    # only the thresholds v = n / D with lo < v < hi can break regularity
    window = np.unique(norms[(norms > floor(lo * D)) & (norms < ceil(hi * D))])
    for n in window.tolist():
        v = Fraction(n, D)
        if lo < v <= rho:
            # tightest point of the lower bound on the piece ending at v
            if B.size_at(v) < (1 - 100 * d * (1 - v / rho)) * base:
                return False
        if rho <= v < hi:
            kappa = v / rho - 1
            count_le = int(np.count_nonzero(norms <= n))
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
    D, norms = spec.exponent, probe._norms
    inside = norms[(norms >= ceil(lo * D)) & (norms <= floor(hi * D))]
    vals = [Fraction(n, D) for n in np.unique(inside).tolist()]
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

    Derandomized halving: each step keeps the first character (in index
    order) that traps at most floor(m/2) of the m surviving nonzero points
    inside B(xi, 1/4).
    """
    A_set = set(int(a) for a in A)
    if 0 not in A_set:
        raise NoZero("separation requires 0 in A")
    S: list[DualElement] = []
    pts = np.array(sorted(A_set - {0}), dtype=np.int64)
    quarter = ceil(Fraction(spec.exponent, 4))
    while pts.size:
        for xi in range(spec.order):
            trapped = _distances(spec, xi, pts) < quarter
            if np.count_nonzero(trapped) <= pts.size // 2:
                break
        else:  # cannot happen; averaging guarantees existence
            raise NotFound("no halving character found")
        S.append(spec.dual_by_index(xi))
        pts = pts[trapped]
    # verification
    for a in A_set:
        if a != 0 and bohr_norm_exact(spec.element_by_index(a), S) < Fraction(1, 4):
            raise AssertionError("separation verification failed")
    return S


# --- Bogolyubov --------------------------------------------------------------


def bogolyubov(spec: GroupSpec, A: Iterable[int]) -> list[DualElement]:
    """Large spectrum S of A at threshold delta^{3/2}/sqrt(2); then
    B(S, 1/4) is contained in 2A - 2A and |S| <= 2 delta^{-2}."""
    A_idx = sorted(set(int(a) for a in A))
    if not A_idx:
        raise DensityTooLow("empty set")
    delta = len(A_idx) / spec.order
    ind = GroupFunction.indicator(spec, A_idx)
    coeffs = np.abs(dft(ind).values)
    alpha = delta**1.5 / np.sqrt(2.0)
    S = [spec.dual_by_index(int(i)) for i in np.nonzero(coeffs >= alpha)[0]]
    return S


def sumset(spec: GroupSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A + B as a sorted index array: every sum is marked on a mask over the
    group, which is read back in index order.  The sums are built for a block
    of rows of A at a time, about _SUMSET_CHUNK of them, so memory stays
    O(_SUMSET_CHUNK + |B| + |G|) whatever |A| * |B|."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    mark = np.zeros(spec.order, dtype=bool)
    rows = max(1, _SUMSET_CHUNK // max(len(B), 1))
    for lo in range(0, len(A), rows):
        mark[spec.add_indices(A[lo : lo + rows, None], B[None, :])] = True
    return np.flatnonzero(mark)


def iterated_sumset(spec: GroupSpec, A: Iterable[int], plus: int, minus: int) -> np.ndarray:
    """plus*A - minus*A as a sorted index array, one fold acc -> acc + K at a
    time (K = A, then K = -A).

    Once acc + K = acc (for nonempty A, in particular once acc is all of G),
    the remaining folds are not computed: then acc + a = acc for every a in
    A, so acc - A = acc as well and every later fold of either sign returns
    acc.  A fold that is computed is refused with BudgetExceeded when
    |acc| * |K| exceeds SUMSET_BUDGET; the message names the fold (its sign
    and number) and the sizes.
    """
    A = np.array(sorted(set(int(a) for a in A)), dtype=np.int64)
    acc = np.zeros(1, dtype=np.int64)
    fixed = False
    for sign, K, folds in (("plus", A, plus), ("minus", np.unique(spec.neg_indices(A)), minus)):
        for fold in range(1, folds + 1):
            if fixed or (len(acc) == spec.order and len(K) > 0):
                break
            if len(acc) * len(K) > SUMSET_BUDGET:
                raise BudgetExceeded(
                    f"pair sumset budget exceeded at {sign} fold {fold} of {folds}: |acc| * |K| = "
                    f"{len(acc)} * {len(K)} = {len(acc) * len(K)} > SUMSET_BUDGET = {SUMSET_BUDGET}"
                )
            nxt = sumset(spec, acc, K)
            fixed = np.array_equal(nxt, acc)
            acc = nxt
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


def _thin_spectrum(spec: GroupSpec, R: Sequence[int], members: np.ndarray, delta_sep: float) -> list[int]:
    """Greedy thinning of the frequencies R, in order: xi is kept unless
    ||xi - xi'|| < delta_sep for a kept xi', in the dual norm
    max_{x in members} ||(xi - xi').x|| as a correctly rounded float.
    Keeping xi' computes that norm for every later candidate at once, one
    row of the table of D·||xi - xi'|| that the greedy loop reads, and marks
    the candidates it rules out."""
    D = spec.exponent
    R = np.asarray(R, dtype=np.int64)
    ruled_out = np.zeros(len(R), dtype=bool)
    kept: list[int] = []
    rows = max(1, _THIN_CHUNK // max(1, len(members)))
    for a, xi in enumerate(R.tolist()):
        if ruled_out[a]:
            continue
        kept.append(xi)
        neg = spec.neg_indices(np.int64(xi))
        for lo in range(a + 1, len(R), rows):
            diffs = spec.add_indices(R[lo : lo + rows], neg)
            worst = _distances(spec, diffs[:, None], members[None, :]).max(axis=1, initial=0)
            # int / int: correctly rounded, as float(Fraction) is
            ruled_out[lo : lo + rows] |= np.array([w / D < delta_sep for w in worst.tolist()], dtype=bool)
    return kept


def local_bogolyubov(spec: GroupSpec, A: Iterable[int], B: BohrSet) -> LocalBogolyubovReport:
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

    S_prime = [spec.dual_by_index(i) for i in _thin_spectrum(spec, R, sep_members, delta_sep)]

    in_two = np.zeros(spec.order, dtype=bool)
    in_two[iterated_sumset(spec, A_idx, 2, 2)] = True
    S_union = tuple(B.S) + tuple(S_prime)
    union_bohr = BohrSet(spec, S_union, max(theta * B.rho, Fraction(1, 10**9)))
    thm_members = union_bohr.members
    thm_ok = bool(in_two[thm_members].all())

    # largest radius whose Bohr set still sits inside 2A-2A: the closed sets
    # {||x||_S <= v} stay inside up to the last threshold v below the
    # smallest norm outside 2A-2A
    D, norms = spec.exponent, union_bohr._norms
    values = np.unique(norms)
    outside = norms[~in_two]
    k = int(np.count_nonzero(values < outside.min())) if outside.size else len(values)
    best_r, best_sz = 0.0, 1
    if k:
        v = Fraction(int(values[k - 1]), D)
        upper = Fraction(int(values[k]), D) if k < len(values) else Fraction(1, 2)
        best_r, best_sz = float((v + upper) / 2), int(np.count_nonzero(norms <= values[k - 1]))
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
    idx = np.flatnonzero(_scaled_norms(spec, S) == 0)
    return EnumeratedSubgroup(spec, tuple(idx.tolist()))


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
        """All l-combinations (with multiplicity, for the properness check),
        l lexicographic with l_1 slowest: the points corner + t.v for
        0 <= t_i <= 2 L_i - 2, from the corner l = (1 - L_1, ..., 1 - L_d)."""
        corner = self.point([1 - L for L in self.half_lengths], self.spec.zero())
        return self.spec.coset_points(corner.index, [v.index for v in self.generators],
                                      [2 * L - 1 for L in self.half_lengths])

    def element_indices(self) -> np.ndarray:
        return sumset(self.spec, self.progression_indices(), self.subgroup.element_indices())

    @property
    def expected_size(self) -> int:
        sz = int(self.subgroup.order)
        for L in self.half_lengths:
            sz *= 2 * L - 1
        return sz

    def check_proper(self) -> bool:
        return len(self.element_indices()) == self.expected_size

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

    D = spec.exponent
    rows, tags = [], []
    for j in range(d):  # integer lattice Z^S
        r = [0] * d
        r[j] = D
        rows.append(r)
        tags.append([0] * spec.rank)
    # images D (xi.e_i) of the group basis vectors
    basis = np.eye(spec.rank, dtype=np.int64)
    xis = np.array([xi.index for xi in S], dtype=np.int64)
    rows += spec.pairings(xis[None, :], spec.encode(basis)[:, None]).tolist()
    tags += basis.tolist()
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

    B = BohrSet(spec, S, rho)
    left_radius = Fraction(d) ** (-2 * d) * rho
    in_ph = np.zeros(spec.order, dtype=bool)
    in_ph[prog.element_indices()] = True
    left_ok = bool(in_ph[B.with_rho(left_radius).members].all())
    right_ok = bool(B._inside(rho)[in_ph].all())

    # independence of the fractional-part images of the kept generators
    if rank:
        img = np.array(
            [[frac_part(pair(xi, v)) for xi in S] for v in prog.generators], dtype=object
        ).T
        independent = len(rref_rational(img)[1]) == rank
    else:
        independent = True
    return ProgressionExtraction(
        prog, rank, float(left_radius), left_ok, right_ok, independent, certified
    )
