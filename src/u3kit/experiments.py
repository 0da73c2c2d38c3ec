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

from dataclasses import dataclass
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
    PipelineEmpty,
    SpecMismatch,
    TooSmall,
)
from .forms import count_aps
from .groups import GroupFunction, GroupSpec
from .inverse_f5 import ObstructionReport, quadratic_obstruction
from .modlinalg import PrimeSubspace, is_prime, kernel_basis_mod_p, solve_mod_p
from .norms import gowers_norm, quadratic_scan
from .quadratic import degenerate_subspace

EXHAUSTIVE_SCAN_LIMIT = 512  # largest N of an exhaustive quadratic_correlation_scan
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
    """The best (a, b) found and its correlation |E f(x) e(-(a x^2 + b x)/N)|:
    in exhaustive mode the exact maximum, with ties broken toward the
    lex-smallest (a, b) (so a function with exact ties, such as a point mass,
    gives (0, 0)); in sampled mode a lower bound over the pairs examined."""

    value: float
    a: int
    b: int
    mode: str
    pairs_examined: int

    def to_json(self) -> dict:
        return {"value": self.value, "a": self.a, "b": self.b, "mode": self.mode,
                "pairs_examined": self.pairs_examined}


def quadratic_correlation_scan(
    f: GroupFunction,
    mode: str = "exhaustive",
    seed: int = 0,
    samples: int = 100_000,
) -> ScanResult:
    """max over (a, b) of |E f(x) e(-(a x^2 + b x)/N)| (constants only rotate
    the modulus).  Exhaustive mode is `norms.quadratic_scan` on Z/N (k = 1,
    any N <= EXHAUSTIVE_SCAN_LIMIT): the exact maximum over all N^2 pairs and
    the lex-first (a, b) attaining it; sampled mode draws a seeded uniform
    sample plus the transform-informed candidates a = 0, all b."""
    spec = f.owner
    if spec.rank != 1:
        raise SpecMismatch("scan requires a cyclic group")
    N = spec.order
    xs = np.arange(N, dtype=np.int64)
    if mode == "exhaustive":
        if N > EXHAUSTIVE_SCAN_LIMIT:
            raise BudgetExceeded(f"exhaustive scan limited to N <= {EXHAUSTIVE_SCAN_LIMIT}")
        best_sq, (a, b) = quadratic_scan(f.values, N, 1)
        return ScanResult(float(np.sqrt(best_sq)) / N, a, b, "exhaustive", N * N)
    if mode != "sampled":
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    rng = np.random.default_rng(seed)
    omega = np.exp(-2j * np.pi * np.arange(N) / N)
    # transform-informed candidates: a = 0, all b (one FFT)
    corr0 = np.abs(np.fft.fft(f.values)) / N
    b0 = int(np.argmax(corr0))
    best = (float(corr0[b0]), 0, b0)
    pairs = rng.integers(0, N, size=(samples, 2))
    chunk = max(1, 4_000_000 // N)
    x2 = (xs * xs) % N
    for start in range(0, samples, chunk):
        blk = pairs[start : start + chunk]
        expo = (blk[:, 0][:, None] * x2[None, :] + blk[:, 1][:, None] * xs[None, :]) % N
        vals = np.abs(omega[expo] @ f.values) / N
        i = int(np.argmax(vals))
        if float(vals[i]) > best[0] + 1e-15:
            best = (float(vals[i]), int(blk[i, 0]), int(blk[i, 1]))
    return ScanResult(best[0], best[1], best[2], "sampled", samples + N)


# --- density increment on F_5^n ---------------------------------------------------


@dataclass
class IncrementThresholds:
    eta: float | None = None  # None: 0.8 * U^3(1_A - alpha)
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
    obstruction: ObstructionReport | None
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


def _affine_subspace_density(
    spec: GroupSpec, in_A: np.ndarray, base: int, basis: np.ndarray
) -> float:
    pts = spec.coset_points(base, spec.encode(basis), (spec.orders[0],) * len(basis))
    return float(np.mean(in_A[pts]))


def density_increment_f5(
    spec: GroupSpec, A: Sequence[int], thresholds: IncrementThresholds | None = None
) -> IncrementReport:
    """One step of the quadratic density increment.

    Runs the obstruction pipeline on 1_A - alpha, slices the best witness
    coset by the level sets of its quadratic phase, passes to a maximal
    degenerate subspace on which the phase is affine-linear, and returns the
    densest coset among all pigeonhole branches.  The asymptotic increment
    constant is astronomically small and never asserted; reported increments
    may be nonpositive at desk scale.
    """
    th = thresholds or IncrementThresholds()
    A_idx = sorted(set(int(a) for a in A))
    if not A_idx:
        raise DensityTooLow("empty set")
    p = spec.orders[0]
    n = spec.rank
    if not th.force:
        if count_aps(spec, A_idx, 4).proper > 0:
            raise Has4Ap("A contains a proper 4-AP")
    alpha = len(A_idx) / spec.order
    in_A = np.zeros(spec.order, dtype=np.float64)
    in_A[np.array(A_idx, dtype=np.int64)] = 1.0
    f = GroupFunction(spec, in_A - alpha)
    u3 = gowers_norm(f, 3, unchecked=True).value
    eta = th.eta if th.eta is not None else max(0.8 * u3, 1e-3)

    candidates: list[tuple[float, int, np.ndarray, int | None, int | None]] = []
    # pigeonhole branch 0: plain cosets of the whole space decompositions are
    # deferred to the witness subspace below; always include the trivial one.
    obstruction = None
    outcome = "ok"
    try:
        obstruction = quadratic_obstruction(f, eta, seed=th.seed, oracle_crosscheck=False)
    except (EmptyGraph, EmptyV) as exc:
        outcome = f"pipeline-empty: {type(exc).__name__}"
    chosen_t = None
    degen_dim = None
    if obstruction is not None:
        W = obstruction.W
        WB = W.basis_matrix()
        # branch 1: densities of the plain cosets of W
        for y, (_, bias) in obstruction.witnesses.items():
            d = _affine_subspace_density(spec, in_A, y, WB)
            candidates.append((d, y, WB, None, None))
        # branch 2: level-set slices inside the best-bias coset
        best_y, (wit, bias) = max(
            obstruction.witnesses.items(), key=lambda kv: kv[1][1]
        )
        if bias >= MIN_WITNESS_BIAS and W.dim >= 1:
            A_loc = np.array(wit.A, dtype=np.int64).reshape(W.dim, W.dim)
            U = degenerate_subspace(A_loc, PrimeSubspace.whole(GroupSpec((p,) * W.dim)))
            degen_dim = U.dim
            UB_loc = U.basis_matrix()  # in W-local coordinates
            UB = (UB_loc @ WB) % p if U.dim else np.zeros((0, n), dtype=np.int64)
            # cosets of U inside best_y + W: reps = best_y + (complement of U in W)
            comp_loc = U.complement_basis()
            reps_loc = _span_points(comp_loc, p)
            zs = spec.coset_points(best_y, spec.encode(comp_loc @ WB), (p,) * len(comp_loc))
            b_loc = np.array(wit.b, dtype=np.int64)
            for rep, z in zip(reps_loc, zs.tolist()):
                # on z + U the witness phase is affine: value and direction
                base_val = int((rep @ A_loc @ rep + b_loc @ rep) % p)
                # linear form on U-local coords: l(u) = (2 rep.A + b) . (u UB_loc)
                lin = ((2 * (rep @ A_loc) + b_loc) @ UB_loc.T) % p if U.dim else np.zeros(0, np.int64)
                for t in range(p):
                    sol = _affine_slice(UB, lin, (t - base_val) % p, p, spec)
                    if sol is None:
                        continue
                    off, Vbasis = sol
                    zz = int(spec.add_indices(np.int64(z), np.int64(off)))
                    dd = _affine_subspace_density(spec, in_A, zz, Vbasis)
                    candidates.append((dd, zz, Vbasis, t, U.dim))
    if not candidates:
        raise PipelineEmpty(outcome)
    candidates.sort(key=lambda c: (-c[0], c[1]))
    best = candidates[0]
    if best[3] is not None:
        chosen_t = best[3]
    return IncrementReport(
        coset_base=tuple(int(v) for v in spec.coords_of(best[1])),
        coset_basis=tuple(tuple(int(x) for x in r) for r in best[2]),
        old_density=alpha,
        new_density=best[0],
        increment=best[0] - alpha,
        u3_value=u3,
        eta_used=eta,
        chosen_t=chosen_t,
        degenerate_dim=degen_dim,
        obstruction=obstruction,
        outcome=outcome,
    )


def _span_points(rows: np.ndarray, p: int) -> np.ndarray:
    """Coordinates of t @ rows for t in F_p^k, lexicographic order."""
    k = rows.shape[0]
    if k == 0:
        return np.zeros((1, rows.shape[1]), dtype=np.int64)
    return (GroupSpec((p,) * k).decode(np.arange(p**k)) @ rows) % p


def _affine_slice(UB: np.ndarray, lin: np.ndarray, target: int, p: int, spec: GroupSpec):
    """Solve lin.u = target over U-local coords; return (ambient offset of a
    particular solution, ambient basis of the solution subspace), or None."""
    k = UB.shape[0]
    if k == 0:
        return (0, UB) if target == 0 else None
    if np.all(lin % p == 0):
        if target != 0:
            return None
        return (0, UB)
    sol = solve_mod_p(lin.reshape(1, -1), np.array([target]), p)
    if sol is None:
        return None
    ker = kernel_basis_mod_p(lin.reshape(1, -1), p)
    off = int(spec.encode((sol @ UB) % p))
    Vbasis = (ker @ UB) % p if ker.shape[0] else np.zeros((0, UB.shape[1]), dtype=np.int64)
    return (off, Vbasis)


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
            rep = density_increment_f5(cur_spec, cur_A, thresholds)
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
        amb = cur_spec.coset_points(base_idx, cur_spec.encode(basis), (p,) * k)
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
    it creates no proper k-AP (the result is inclusion-maximal).
    exhaustive: depth-first maximum search, N <= EXHAUSTIVE_SEARCH_LIMIT.
    """
    N = spec.order
    if strategy == "greedy":
        rng = np.random.default_rng(seed)
        offsets = _kap_offsets(spec, k)
        member = np.zeros(N, dtype=bool)
        for x in rng.permutation(N).tolist():
            member[x] = True  # kept unless it closes a proper k-AP
            member[x] = not _creates_proper_kap(spec, member, x, offsets)
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
