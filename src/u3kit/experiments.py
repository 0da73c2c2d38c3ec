"""End-to-end experiment drivers.

* the two-scale counterexample on Z/N (a locally bilinear phase on a grid
  {yM+z}, M ~ sqrt(N)) whose U^3 norm stays bounded below while every global
  quadratic phase correlation decays;
* exhaustive / sampled scans of global quadratic phase correlations;
* the density-increment step on F_5^n driven by the obstruction pipeline,
  and its iteration;
* 4-AP-free set search used as a fixture generator.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from math import isqrt
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DensityTooLow,
    EmptyGraph,
    EmptyV,
    Has4Ap,
    NotPrime,
    ParseError,
    PipelineEmpty,
    SpecMismatch,
    TooSmall,
)
from .forms import count_aps
from .groups import GroupFunction, GroupSpec, order_refusal
from .inverse_f5 import ObstructionReport, quadratic_obstruction
from .modlinalg import PrimeSubspace, is_prime, kernel_basis_mod_p, span_points
from .norms import _cyclic_scan, quadratic_scan
from .quadratic import degenerate_subspace

SCAN_SAMPLES = 100_000  # seeded random (a, b) pairs of a sampled quadratic_correlation_scan
EXHAUSTIVE_SEARCH_LIMIT = 20  # largest N of an exhaustive ap_free_search
MIN_WITNESS_BIAS = 1e-6  # least best-coset bias for the level-set branch of the increment
DRIVER_MAX_DEPTH = 8  # density-increment steps of szemeredi_driver


# --- the two-scale counterexample --------------------------------------------


def smooth_cutoff(t: float) -> float:
    """Cubic plateau cutoff: 1 on |t| <= 1/20, 0 outside |t| >= 1/10."""
    a = abs(float(t))
    if a <= 0.05:
        return 1.0
    if a >= 0.10:
        return 0.0
    u = (a - 0.05) / 0.05
    return 1.0 - (3 * u * u - 2 * u ** 3)


@dataclass
class FwSpec:
    N: int
    M: int  # largest integer strictly below sqrt(N)

    @staticmethod
    def for_modulus(N: int) -> "FwSpec":
        why = order_refusal(N)
        if why:  # before the primality test, as parse_group bounds the order
            raise ParseError(f"bad N {N}: {why}")
        if not is_prime(N):
            raise NotPrime(f"{N} is not prime")
        if N < 401:
            raise TooSmall("need N >= 401 for a nontrivial support")
        return FwSpec(N, isqrt(N - 1))


def fw_counterexample(N: int) -> GroupFunction:
    """f(yM + z) = e(yz/M) psi(y/M) psi(z/M) on |y|,|z| <= M/10, 0 elsewhere.

    The phase is locally bilinear on the grid but does not extend to a
    global quadratic; deterministic given N.
    """
    spec_fw = FwSpec.for_modulus(N)
    M = spec_fw.M
    spec = GroupSpec((N,))
    vals = np.zeros(N, dtype=np.complex128)
    lim = M // 10 + 1
    for y in range(-lim, lim + 1):
        wy = smooth_cutoff(y / M)
        if wy == 0.0:
            continue
        for z in range(-lim, lim + 1):
            wz = smooth_cutoff(z / M)
            if wz == 0.0:
                continue
            vals[(y * M + z) % N] = np.exp(2j * np.pi * y * z / M) * wy * wz
    return GroupFunction(spec, vals)


# --- quadratic correlation scans ------------------------------------------------


@dataclass
class ScanResult:
    """The best (a, b) found and its correlation |E f(x) e(-(a x^2 + b x)/N)|,
    exact (exhaustive) or a lower bound (sampled): the lex-first pair examined
    in the relative 1e-12 tie band of the best (a point mass gives (0, 0))."""

    value: float
    a: int
    b: int
    mode: str
    pairs_examined: int

    def to_json(self) -> dict:
        return asdict(self)


def quadratic_correlation_scan(
    f: GroupFunction,
    mode: str = "exhaustive",
    seed: int = 0,
) -> ScanResult:
    """max over (a, b) of |E f(x) e(-(a x^2 + b x)/N)| by the k = 1 scan of
    `norms.quadratic_scan`: over all N^2 pairs, which that scan prices
    against `norms.ORACLE_BUDGET` (N <= 11547), or (sampled, not budgeted)
    SCAN_SAMPLES seeded pairs plus a = 0, all b.  A sample that touches
    every a often enough (100,000 pairs on Z/4001) costs the same as the
    exact scan; a sparse one costs about N operations a pair.
    pairs_examined counts the distinct pairs scanned, at most N^2."""
    spec = f.owner
    if spec.rank != 1:
        raise SpecMismatch("scan requires a cyclic group")
    N = spec.order
    if mode == "exhaustive":
        [(best_sq, (a, b))] = quadratic_scan(f.values[None], N, 1)
        return ScanResult(float(np.sqrt(best_sq)) / N, a, b, mode, N * N)
    if mode != "sampled":
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    pairs = np.random.default_rng(seed).integers(0, N, size=(SCAN_SAMPLES, 2))
    best_sq, (a, b) = _cyclic_scan(f.values, pairs)
    examined = N + len(np.unique(pairs[pairs[:, 0] > 0], axis=0))  # the row a = 0 and the rest
    return ScanResult(float(np.sqrt(best_sq)) / N, a, b, mode, examined)


# --- density increment on F_5^n ---------------------------------------------------


@dataclass
class IncrementThresholds:
    eta: float | None = None  # None: max(0.8 * U^3(1_A - alpha), 1e-3), picked by the graph
    seed: int = 0
    force: bool = False  # run even if A has a proper 4-AP


@dataclass
class IncrementReport:
    coset_base: tuple[int, ...]
    coset_basis: tuple[tuple[int, ...], ...]
    old_density: float
    new_density: float
    increment: float
    u3_value: float
    eta_used: float
    chosen_t: int | None
    degenerate_dim: int | None
    obstruction: ObstructionReport
    # always "ok": a step whose pipeline finds nothing raises PipelineEmpty
    # instead; kept so that the `increment` result keeps its bytes
    outcome: str

    def to_json(self) -> dict:
        return {
            "coset_base": list(self.coset_base),
            "coset_basis": [list(r) for r in self.coset_basis],
            "old_density": self.old_density,
            "new_density": self.new_density,
            "increment": self.increment,
            "u3_value": self.u3_value,
            "eta_used": self.eta_used,
            "chosen_t": self.chosen_t,
            "degenerate_dim": self.degenerate_dim,
            "outcome": self.outcome,
        }


def _increment_candidates(
    spec: GroupSpec, in_A: np.ndarray, W: PrimeSubspace, witnesses: dict
) -> tuple[list[tuple[float, int, np.ndarray, int | None, int | None]], int | None]:
    """The increment's candidates (density, base index, basis, level t,
    dim U), and dim U.  First the witness cosets y + W, from one gather;
    then, if the best witness clears MIN_WITNESS_BIAS and dim W > 0, the
    level sets of its phase on each coset z + U of U, a degenerate subspace
    of its form inside y + W.  The point z + v.UB (v on U's lex grid) has
    level (base_val + lin.v) mod p, so each coset is listed once and its
    level densities are two bincounts (sums of 0/1 floats: exact means).
    For lin != 0, j its first nonzero entry, level t is z + ((t - base_val)
    / lin_j) UB_j + ker(lin).UB; for lin = 0 (or dim U = 0), z + U at t = base_val."""
    p = spec.orders[0]
    WB = W.basis_matrix()
    ys = np.fromiter(witnesses, dtype=np.int64, count=len(witnesses))
    dens = in_A[spec.add_indices(ys[:, None], W.coset(0)[None, :])].mean(axis=1)
    candidates = [(d, y, WB, None, None) for d, y in zip(dens.tolist(), ys.tolist())]
    best_y, (wit, bias) = max(witnesses.items(), key=lambda kv: kv[1][1])
    if bias < MIN_WITNESS_BIAS or W.dim == 0:
        return candidates, None
    A_loc = np.array(wit.A, dtype=np.int64).reshape(W.dim, W.dim)
    b_loc = np.array(wit.b, dtype=np.int64)
    U = degenerate_subspace(A_loc, PrimeSubspace.whole(GroupSpec((p,) * W.dim)))
    UB_loc = U.basis_matrix()  # in W-local coordinates
    UB = (UB_loc @ WB) % p
    # the cosets z + U inside best_y + W: z = best_y + rep, rep in the complement of U in W
    reps = span_points(U.complement_basis(), p)
    zs = spec.add_indices(best_y, spec.encode(reps @ WB))
    base_vals = (np.einsum("ci,ij,cj->c", reps, A_loc, reps) + reps @ b_loc) % p
    lins = ((2 * reps @ A_loc + b_loc) @ UB_loc.T) % p  # lin.v = (2 rep.A + b).(v UB_loc)
    grid = span_points(np.eye(U.dim, dtype=np.int64), p)
    hits = in_A[spec.add_indices(zs[:, None], spec.encode(grid @ UB)[None, :])]
    levels = (base_vals[:, None] + lins @ grid.T) % p
    for z, hit, level, lin, base_val in zip(zs.tolist(), hits, levels, lins, base_vals.tolist()):
        if not lin.any():
            candidates.append((float(np.mean(hit)), z, UB, base_val, U.dim))
            continue
        level_dens = np.bincount(level, weights=hit, minlength=p) / np.bincount(level, minlength=p)
        j = int(np.flatnonzero(lin)[0])
        steps = (np.arange(p) - base_val) * pow(int(lin[j]), -1, p) % p
        bases = spec.add_indices(z, spec.encode(np.outer(steps, UB[j]))).tolist()
        basis = (kernel_basis_mod_p(lin, p) @ UB) % p
        candidates += [(d, zz, basis, t, U.dim) for t, (d, zz) in enumerate(zip(level_dens.tolist(), bases))]
    return candidates, U.dim


def density_increment_f5(
    spec: GroupSpec, A: Sequence[int], thresholds: IncrementThresholds | None = None
) -> IncrementReport:
    """One step of the quadratic density increment.

    Runs the obstruction pipeline on 1_A - alpha, slices the best witness
    coset by the level sets of its quadratic phase, passes to a maximal
    degenerate subspace on which the phase is affine-linear, and returns the
    densest of the `_increment_candidates`, the one of least base index among
    equals.  The asymptotic increment constant is astronomically small and
    never asserted; reported increments may be nonpositive at desk scale.
    """
    th = thresholds or IncrementThresholds()
    A_idx = sorted(set(int(a) for a in A))
    if not A_idx:
        raise DensityTooLow("empty set")
    if not th.force:
        if count_aps(spec, A_idx, 4).proper > 0:
            raise Has4Ap("A contains a proper 4-AP")
    alpha = len(A_idx) / spec.order
    in_A = np.zeros(spec.order, dtype=np.float64)
    in_A[np.array(A_idx, dtype=np.int64)] = 1.0
    f = GroupFunction(spec, in_A - alpha)

    try:
        obstruction = quadratic_obstruction(f, th.eta, seed=th.seed, oracle_crosscheck=False)
    except (EmptyGraph, EmptyV) as exc:
        raise PipelineEmpty(f"pipeline-empty: {type(exc).__name__}") from exc
    candidates, degen_dim = _increment_candidates(spec, in_A, obstruction.W, obstruction.witnesses)
    candidates.sort(key=lambda c: (-c[0], c[1]))
    best = candidates[0]
    return IncrementReport(
        coset_base=tuple(int(v) for v in spec.coords_of(best[1])),
        coset_basis=tuple(tuple(int(x) for x in r) for r in best[2]),
        old_density=alpha,
        new_density=best[0],
        increment=best[0] - alpha,
        u3_value=obstruction.u3_value,
        eta_used=obstruction.eta,
        chosen_t=best[3],
        degenerate_dim=degen_dim,
        obstruction=obstruction,
        outcome="ok",
    )


@dataclass
class DriverStep:
    depth: int
    dimension: int
    density: float
    outcome: str
    increment: float = 0.0


def szemeredi_driver(
    spec: GroupSpec, A: Sequence[int], thresholds: IncrementThresholds | None = None
) -> list[DriverStep]:
    """Iterate the density increment, re-coordinatizing the returned coset as
    F_5^dim(V); halts on a 4-AP in the restriction, density 1, dimension
    floor, or an empty pipeline, and after DRIVER_MAX_DEPTH steps.  Returns
    the full trace."""
    p = spec.orders[0]
    cur_spec = spec
    cur_A = sorted(set(int(a) for a in A))
    th = replace(thresholds or IncrementThresholds(), force=True)  # each step checks for 4-APs first
    trace: list[DriverStep] = []
    for depth in range(DRIVER_MAX_DEPTH):
        dens = len(cur_A) / cur_spec.order
        if not cur_A:
            trace.append(DriverStep(depth, cur_spec.rank, 0.0, "empty"))
            break
        if count_aps(cur_spec, cur_A, 4).proper > 0:
            trace.append(DriverStep(depth, cur_spec.rank, dens, "has-4ap"))
            break
        if dens >= 1.0:
            trace.append(DriverStep(depth, cur_spec.rank, dens, "full-density"))
            break
        if cur_spec.rank < 1 or cur_spec.order <= p:
            trace.append(DriverStep(depth, cur_spec.rank, dens, "dimension-floor"))
            break
        try:
            rep = density_increment_f5(cur_spec, cur_A, th)
        except PipelineEmpty:
            trace.append(DriverStep(depth, cur_spec.rank, dens, "pipeline-empty"))
            break
        trace.append(
            DriverStep(depth, cur_spec.rank, dens, "increment", rep.increment)
        )
        basis = np.array(rep.coset_basis, dtype=np.int64).reshape(-1, cur_spec.rank)
        k = basis.shape[0]
        if k == 0:
            trace.append(DriverStep(depth + 1, 0, rep.new_density, "dimension-floor"))
            break
        base_idx = cur_spec.index_of(list(rep.coset_base))
        in_A = np.zeros(cur_spec.order, dtype=bool)
        in_A[np.array(cur_A, dtype=np.int64)] = True
        # point t of the new F_p^k is base + t @ basis, in lex order = index order
        amb = cur_spec.add_indices(base_idx, cur_spec.encode(span_points(basis, p)))
        cur_spec, cur_A = GroupSpec((p,) * k), np.flatnonzero(in_A[amb]).tolist()
    return trace


# --- AP-free fixtures ------------------------------------------------------------


def _kap_offsets(spec: GroupSpec, k: int) -> np.ndarray:
    """The k points (i - j) r, i < k, of the progression through 0 as its
    point j, one row per r != 0 and j < k whose k points are distinct.  A
    translate x + row is then a proper k-AP through x, and every one of
    them is such a translate, so the rows do not depend on x."""
    steps = np.arange(k)[None, :] - np.arange(k)[:, None]  # [j, i] = i - j
    rs = np.arange(1, spec.order, dtype=np.int64)[:, None, None]
    offsets = spec.scale_indices(steps, rs).reshape((spec.order - 1) * k, k)
    srt = np.sort(offsets, axis=-1)
    return offsets[np.all(srt[:, 1:] > srt[:, :-1], axis=-1)]


def _creates_proper_kap(spec: GroupSpec, member: np.ndarray, x: int, offsets: np.ndarray) -> bool:
    """Does adjoining x create a proper k-AP?  ``member`` marks the set with
    x already adjoined; ``offsets`` is ``_kap_offsets(spec, k)``.
    Incremental: only the progressions through x are tested, all at once."""
    return bool(np.any(np.all(member[spec.add_indices(x, offsets)], axis=-1)))


def ap_free_search(spec: GroupSpec, k: int = 4, strategy: str = "greedy", seed: int = 0) -> list[int]:
    """A k-AP-free subset, verified by exhaustive counting.

    greedy: seeded-deterministic insertion order, each element kept only if
    it creates no proper k-AP (the result is inclusion-maximal).  ``closes``
    marks the points that would complete a proper k-AP whose other k - 1
    points are members, so a candidate is decided by one lookup; a kept x
    makes one gather of the progressions through it, and each of them that
    then has k - 1 members marks its remaining point.  A proper k-AP that
    lacks only y is a progression through its last member to be kept, whose
    gather marked y, so no mark is missed.  With no members only k = 1
    closes: a lone point is a proper 1-AP (when G has a step r != 0).
    exhaustive: depth-first maximum search, N <= EXHAUSTIVE_SEARCH_LIMIT.
    """
    N = spec.order
    if strategy == "greedy":
        rng = np.random.default_rng(seed)
        offsets = _kap_offsets(spec, k)
        member = np.zeros(N, dtype=bool)
        closes = np.full(N, k == 1 and len(offsets) > 0)
        for x in rng.permutation(N).tolist():
            if closes[x]:
                continue
            member[x] = True
            aps = spec.add_indices(x, offsets)
            one_short = aps[member[aps].sum(axis=1) == k - 1]
            closes[one_short[~member[one_short]]] = True
        chosen = np.flatnonzero(member).tolist()
        assert count_aps(spec, chosen, k).proper == 0
        return chosen
    if strategy != "exhaustive":
        raise ValueError("strategy must be 'greedy' or 'exhaustive'")
    if N > EXHAUSTIVE_SEARCH_LIMIT:
        raise BudgetExceeded(f"exhaustive search limited to N <= {EXHAUSTIVE_SEARCH_LIMIT}")
    best: list[int] = []
    offsets = _kap_offsets(spec, k)
    member = np.zeros(N, dtype=bool)  # marks `current` during the search

    def extend(current: list[int], start: int) -> None:
        nonlocal best
        if len(current) + (N - start) <= len(best):
            return
        if len(current) > len(best):
            best = list(current)
        for x in range(start, N):
            member[x] = True
            if not _creates_proper_kap(spec, member, x, offsets):
                extend(current + [x], x + 1)
            member[x] = False

    extend([], 0)
    assert count_aps(spec, best, k).proper == 0
    return sorted(best)
