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
from math import ceil, floor, isqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DensityTooLow,
    NotFound,
    NotProper,
    RhoTooLarge,
)
from .fourier import convolve_values, dft_values
from .groups import GroupFunction, GroupSpec
from .lattice import TaggedLattice, hermite_reduce, lll_reduce, product_bound_certified, rref_rational

SUMSET_BUDGET = 40_000_000
_SUMSET_CHUNK = 1 << 18  # sums a + b marked per block of rows of A in _pair_sumset
# The cost of one group point of _conv_sumset, in pair sums of _pair_sumset:
# sumset convolves once |A| * |B| > _CONV_COST * |G|, and iterated_sumset
# prices a fold at min(|acc| * |K|, _CONV_COST * |G|).  Sweep: |K| ~ |G|^(1/2)
# and |A| |K| ~ 16 |G|, median of 7 rounds of the best of 2-5 calls, one
# thread, 2-core Xeon; c is (conv ns per point) / (pair ns per sum):
#   group      |G|      pair ns/sum  conv ns/point    c
#   F5^4          625     9.7          184           19.0
#   F5^6        15625     5.6           81           14.3
#   F5^6 fold   15625     5.3           83           15.6   (5811 x 125, f5_driver's)
#   F5^8       390625     8.8          209           23.7
#   F3^10       59049     4.8           89           18.7
#   F7^6       117649     6.6          113           17.1
#   F2^16       65536     6.8          117           17.2
#   Z/60xZ/60    3600     5.4           91           16.7
#   Z/211         211    15.9          657           41.4   (one Bluestein FFT axis)
#   Z/4001       4001     6.0          440           73.5   (one Bluestein FFT axis)
# F_p^n and smooth axes cost 14-24 sums a point, and 16 is F5^6's, the pair
# group of the F5^3 pipeline.  A prime cyclic axis above fourier._DENSE_BLOCK runs
# Bluestein's FFT at 40-75 sums a point, so there a convolution of
# 16 |G| < |A| |B| < 75 |G| is up to 4.6 times slower than pair sums.
_CONV_COST = 16


def _distances(spec: GroupSpec, xis, idx) -> np.ndarray:
    """D times the distance of xi.x to the nearest integer, broadcasting."""
    v = spec.pairings(xis, idx)
    return np.minimum(v, spec.exponent - v)


def _scaled_norms(spec: GroupSpec, S: Sequence[int]) -> np.ndarray:
    """D ||x||_S for every x in G, in index order (0 when S is empty)."""
    xis = np.array(S, dtype=np.int64)
    return _distances(spec, xis[:, None], np.arange(spec.order)[None, :]).max(axis=0, initial=0)


@dataclass
class BohrSet:
    spec: GroupSpec
    S: tuple[int, ...]  # dual indices
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

    def size_at(self, r: Fraction) -> int:
        return int(np.count_nonzero(self._inside(r)))

    def __len__(self) -> int:
        return self.size_at(self.rho)

    def with_rho(self, r) -> "BohrSet":
        return BohrSet(self.spec, self.S, Fraction(r), self._norms)


def bohr_set(spec: GroupSpec, S: Sequence[int], rho) -> BohrSet:
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


def find_regular_rho(spec: GroupSpec, S: Sequence[int], eps) -> Fraction:
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


# --- Bogolyubov --------------------------------------------------------------


def bogolyubov(spec: GroupSpec, A: Iterable[int]) -> list[int]:
    """Large spectrum S of A at threshold delta^{3/2}/sqrt(2), as ascending
    dual indices; then B(S, 1/4) is contained in 2A - 2A and |S| <= 2
    delta^{-2}."""
    A_idx = sorted(set(int(a) for a in A))
    if not A_idx:
        raise DensityTooLow("empty set")
    delta = len(A_idx) / spec.order
    coeffs = np.abs(dft_values(spec, GroupFunction.indicator(spec, A_idx).values))
    alpha = delta**1.5 / np.sqrt(2.0)
    return np.flatnonzero(coeffs >= alpha).tolist()


def _pair_sumset(spec: GroupSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A + B by pair sums: every sum is marked on a mask over the group,
    which is read back in index order.  The sums are built for a block of
    rows of A at a time, about _SUMSET_CHUNK of them, so memory stays
    O(_SUMSET_CHUNK + |B| + |G|) whatever |A| * |B|."""
    mark = np.zeros(spec.order, dtype=bool)
    rows = max(1, _SUMSET_CHUNK // max(len(B), 1))
    for lo in range(0, len(A), rows):
        mark[spec.add_indices(A[lo : lo + rows, None], B[None, :])] = True
    return np.flatnonzero(mark)


def _conv_sumset(spec: GroupSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A + B as the support of the count 1_A * 1_B(x) = #{(a, b) : a + b = x},
    read off `fourier.convolve_values` of N 1_A and 1_B, thresholded at 1/2.
    A call holds what that convolution holds: 48 |G| bytes, and a few KB
    more, when every block of the transform is dense (F_p^n with p <= 32);
    the fresh arrays of FFT blocks add up to 32 |G| bytes (81 |G| in all on
    Z/60 x Z/60, by tracemalloc).

    Float error, to first order: in the unitary normalization a transform
    computed with relative 2-norm error delta gives counts off by at most
    3 delta sqrt(|A| |B| max(|A|, |B|)) <= 3 delta |G|^{3/2} in each entry,
    since |1_A^| <= |A| / N pointwise and by Parseval.  delta is about the
    unit roundoff u = 1.1e-16 times the sum over the blocks of `dft_values`
    of m (a dense block of order m <= 32) or log2 m (an FFT block), which is
    at most 6.4 log2 |G|.  For |G| <= 10^7 the counts are thus off by less
    than 3 * 150 u * |G|^{3/2} < 2e-3, and the threshold decides them; every
    count is checked to lie within 1/4 of an integer, and an AssertionError
    names the worst one otherwise."""
    N = spec.order
    a = GroupFunction.indicator(spec, A).values
    a *= N
    counts = convolve_values(spec, a, GroupFunction.indicator(spec, B).values).real
    off = np.rint(counts)
    off -= counts
    worst = float(np.max(np.abs(off, out=off), initial=0.0))
    del off
    if worst >= 0.25:
        raise AssertionError(f"convolution sumset: a count lies {worst:.3g} from an integer (|G| = {N}, "
                             f"|A| = {len(A)}, |B| = {len(B)})")
    return np.flatnonzero(counts > 0.5)


def sumset(spec: GroupSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A + B as a sorted int64 index array, by the kernel of lower predicted
    cost in pair sums: pair sums while |A| * |B| <= _CONV_COST * |G|, else
    the support of the convolution 1_A * 1_B (see _CONV_COST)."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if len(A) * len(B) <= _CONV_COST * spec.order:
        return _pair_sumset(spec, A, B)
    return _conv_sumset(spec, A, B)


def iterated_sumset(spec: GroupSpec, A: Iterable[int], plus: int, minus: int) -> np.ndarray:
    """plus*A - minus*A as a sorted index array, one fold acc -> acc + K at a
    time (K = A, then K = -A).

    Once acc + K = acc (for nonempty A, in particular once acc is all of G),
    the remaining folds are not computed: then acc + a = acc for every a in
    A, so acc - A = acc as well and every later fold of either sign returns
    acc.  A fold that is computed is priced by the kernel `sumset` runs for
    it, min(|acc| * |K|, _CONV_COST * |G|) pair sums, and refused with
    BudgetExceeded when that exceeds SUMSET_BUDGET; the message names the
    fold (its sign and number), both quantities and the sizes.  So a fold
    convolves only on |G| <= SUMSET_BUDGET / _CONV_COST = 2.5 * 10^6, where
    it holds at most 48 |G| <= 120 MB when the transform blocks are dense.
    """
    A = np.array(sorted(set(int(a) for a in A)), dtype=np.int64)
    acc = np.zeros(1, dtype=np.int64)
    fixed = False
    for sign, K, folds in (("plus", A, plus), ("minus", np.unique(spec.neg_indices(A)), minus)):
        for fold in range(1, folds + 1):
            if fixed or (len(acc) == spec.order and len(K) > 0):
                break
            cost = min(len(acc) * len(K), _CONV_COST * spec.order)
            if cost > SUMSET_BUDGET:
                raise BudgetExceeded(
                    f"pair sumset budget exceeded at {sign} fold {fold} of {folds}: "
                    f"min(|acc| * |K|, {_CONV_COST} * |G|) = min({len(acc)} * {len(K)}, "
                    f"{_CONV_COST} * {spec.order}) = {cost} > SUMSET_BUDGET = {SUMSET_BUDGET}"
                )
            nxt = sumset(spec, acc, K)
            fixed = np.array_equal(nxt, acc)
            acc = nxt
    return acc


# --- subgroup kernel of a character set --------------------------------------


def character_kernel(B: BohrSet) -> np.ndarray:
    """H = {x : xi.x = 0 for all xi in B.S}, as the sorted indices where B's
    norms D ||x||_S vanish (all of G when S is empty)."""
    return np.flatnonzero(B._norms == 0)


# --- coset progressions -------------------------------------------------------


@dataclass
class CosetProgression:
    """Symmetric coset progression base + (-L, L).v + H, with H given by its
    sorted element indices."""

    spec: GroupSpec
    base: int  # element indices
    generators: tuple[int, ...]
    half_lengths: tuple[int, ...]
    subgroup: np.ndarray
    proper: bool = False

    def progression_indices(self) -> np.ndarray:
        """All l-combinations (with multiplicity, for the properness check),
        l lexicographic with l_1 slowest: the points corner + t.v for
        0 <= t_i <= 2 L_i - 2, from the corner l = (1 - L_1, ..., 1 - L_d)."""
        spec = self.spec
        corner = self.base
        for g, L in zip(self.generators, self.half_lengths):
            corner = spec.add_indices(corner, spec.scale_indices(1 - L, g))
        return spec.coset_points(corner, self.generators, [2 * L - 1 for L in self.half_lengths])

    def element_indices(self) -> np.ndarray:
        return sumset(self.spec, self.progression_indices(), self.subgroup)

    @property
    def expected_size(self) -> int:
        sz = len(self.subgroup)
        for L in self.half_lengths:
            sz *= 2 * L - 1
        return sz

    def check_proper(self) -> bool:
        return len(self.element_indices()) == self.expected_size

    def to_json(self) -> dict:
        return {
            "base": list(self.spec.coords_of(self.base)),
            "generators": [list(self.spec.coords_of(v)) for v in self.generators],
            "half_lengths": list(self.half_lengths),
            "subgroup_order": len(self.subgroup),
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
    spec: GroupSpec, S: Sequence[int], rho
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
    B = BohrSet(spec, S, rho)
    H = character_kernel(B)
    if d == 0:
        prog = CosetProgression(spec, 0, (), (), H, True)
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
    xis = np.array(S, dtype=np.int64)
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
        gens.append(spec.index_of([int(t) for t in tag]))

    order = sorted(range(d), key=lambda j: (-half_lengths[j], gens[j]))
    gens = [gens[j] for j in order]
    half_lengths = [half_lengths[j] for j in order]
    keep = [j for j in range(d) if half_lengths[j] >= 2]
    rank = len(keep)
    prog = CosetProgression(
        spec,
        0,
        tuple(gens[j] for j in keep),
        tuple(half_lengths[j] for j in keep),
        H,
    )
    prog.proper = prog.check_proper()
    if not prog.proper:
        raise NotProper("extracted progression failed the properness check")

    left_radius = Fraction(d) ** (-2 * d) * rho
    in_ph = np.zeros(spec.order, dtype=bool)
    in_ph[prog.element_indices()] = True
    left_ok = bool(in_ph[B.with_rho(left_radius).members].all())
    right_ok = bool(B._inside(rho)[in_ph].all())

    # independence of the fractional-part images of the kept generators
    if rank:
        pv = spec.pairings(xis[:, None], prog.generators)
        centred = np.where(2 * pv <= D, pv, pv - D).tolist()  # D times the fractional part in (-1/2, 1/2]
        img = np.array([[Fraction(n, D) for n in row] for row in centred], dtype=object)
        independent = len(rref_rational(img)[1]) == rank
    else:
        independent = True
    return ProgressionExtraction(
        prog, rank, float(left_radius), left_ok, right_ok, independent, certified
    )
