"""Constructive inverse-U^3 pipeline on F_p^n (p = 5 by default).

The chain: a phase-derivative graph (shifts h whose multiplicative
derivative correlates with a linear character), a random slice making the
iterated difference sets of the graph single-valued, a Bogolyubov subspace
inside the doubled shift set, a linear fit of the derivative frequency map,
the symmetry subspace on which the fitted map is self-adjoint, and per-coset
quadratic witnesses assembled from the self-adjoint part.  Every reported
bias is reproducible by direct evaluation and cross-checked against the
exact coset oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bohr
from .bohr import bogolyubov, iterated_sumset
from .errors import EmptyGraph, EmptyV, SliceFailed, SpecMismatch
from .fourier import dft_values
from .groups import GroupElement, GroupFunction, GroupSpec, derivative_rows
from .modlinalg import (
    PrimeSubspace,
    is_prime,
    kernel_basis_mod_p,
    largest_subspace_inside,
    solve_mod_p,
    span_points,
)
from .norms import CosetQuadraticWitness, _first_in_band, u3_oracle_coset

# (x0, h) pairs, and (x0, xi0) counters, per block of the affine vote; a block
# peaks at about 90 bytes per cell (tracemalloc), so near 24 MB at most
_VOTE_CELLS = 1 << 18


def _homogeneous_prime(spec: GroupSpec) -> int:
    ps = set(spec.orders)
    if len(ps) != 1:
        raise SpecMismatch("pipeline requires a homogeneous prime-power-free group F_p^n")
    p = ps.pop()
    if not is_prime(p):
        raise SpecMismatch("factor order must be prime")
    return p


@dataclass
class PhaseGraph:
    """h -> (frequency of the best linear correlation of the derivative,
    correlation magnitude), for shifts above the threshold."""

    spec: GroupSpec
    threshold: float  # the eta used to build the graph
    entries: dict[int, tuple[int, float]]  # h index -> (xi index, |corr|)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def pair_group(self) -> GroupSpec:
        """G x dual(G), whose row-major indices are the pair keys h * N + xi."""
        return GroupSpec(self.spec.orders * 2)

    def pair_keys(self) -> np.ndarray:
        N = self.spec.order
        return np.array([h * N + xi for h, (xi, _) in sorted(self.entries.items())], dtype=np.int64)


def phase_derivative_graph(f: GroupFunction, eta: float) -> PhaseGraph:
    """Keep shifts h with squared derivative bias >= eta^8 / 2; the witness
    frequency is the smallest dual index whose squared Fourier coefficient is
    within a relative _TIE_RTOL of the row maximum, so exact ties such as
    |F(xi)| = |F(-xi)| on real rows do not depend on rounding.

    When U^3(f) >= eta, the shift set is guaranteed to have density at least
    eta^8 / 2; a smaller shift set therefore certifies U^3(f) < eta and is
    reported as EmptyGraph.  (The bare "no shift qualifies" reading would be
    vacuous: h = 0 qualifies for every unimodular f.)
    """
    spec = f.owner
    _homogeneous_prime(spec)
    N = spec.order
    cut = eta**8 / 2.0
    entries: dict[int, tuple[int, float]] = {}
    chunk = max(1, 2_000_000 // N)
    for start in range(0, N, chunk):
        hs = np.arange(start, min(start + chunk, N), dtype=np.int64)
        F = np.abs(dft_values(spec, derivative_rows(f, hs)))
        best = _first_in_band(F * F)
        mags = F[np.arange(len(hs)), best]
        for h, xi, m in zip(hs.tolist(), best.tolist(), mags.tolist()):
            if m * m >= cut:
                entries[h] = (int(xi), float(m))
    if len(entries) < max(1.0, cut * N):
        raise EmptyGraph(
            f"shift set of size {len(entries)} below the density floor "
            f"{cut:.3g} * {N}; certifies U^3 < {eta}"
        )
    return PhaseGraph(spec, eta, entries)


def additive_quadruples(gamma: PhaseGraph) -> int:
    """Exact count of (z1,z2,z3,z4) in the graph with z1+z2 = z3+z4."""
    keys = gamma.pair_keys()
    _, counts = np.unique(gamma.pair_group.add_indices(keys[:, None], keys[None, :]),
                          return_counts=True)
    return int(np.sum(counts.astype(object) ** 2))


@dataclass
class SliceResult:
    graph: PhaseGraph
    ambiguity_set_size: int  # |A| = frequencies over 0 in the 8-fold difference set
    m: int  # compression dimension
    used_surrogate: bool  # 4-fold difference set used instead of 8-fold
    verified: bool  # 4G''-4G'' is a graph (checked through the 8-fold set)
    seed: int


def random_slice(gamma: PhaseGraph, seed: int) -> SliceResult:
    """Slice the graph along a random fiber so that 4G''-4G'' is a graph.

    A = {xi : (0,xi) in 8G-8G} is compressed by a random linear map
    nonvanishing on A \\ {0}; the densest fiber is kept (lexicographically
    smallest on ties) and the graph property is re-verified on the sliced
    difference set.  When |graph| |G|^2 exceeds bohr.SUMSET_BUDGET, the
    4-fold difference set stands in for the 8-fold (used_surrogate).
    """
    spec = gamma.spec
    p = _homogeneous_prime(spec)
    N = spec.order
    keys = gamma.pair_keys()
    if len(keys) == 0:
        return SliceResult(gamma, 0, 0, False, True, seed)
    surrogate = len(keys) * (N * N) > bohr.SUMSET_BUDGET
    folds = 4 if surrogate else 8
    diff = iterated_sumset(gamma.pair_group, keys, folds, folds)
    zero_fiber = diff[diff // N == 0] % N
    A = np.unique(zero_fiber)
    A_nonzero = A[A != 0]
    if len(A_nonzero) == 0:
        result_graph = gamma
        m = 0
    else:
        m = int(np.ceil(np.log(len(A)) / np.log(p)))
        rng = np.random.default_rng(seed)
        coords = spec.decode(A_nonzero)
        psi = None
        for _ in range(100):
            cand = rng.integers(0, p, size=(m, spec.rank))
            image = coords @ cand.T % p
            if np.all(np.any(image != 0, axis=1)):
                psi = cand
                break
        if psi is None:
            raise SliceFailed("no nonvanishing compression found in 100 tries")
        hs = np.array(sorted(gamma.entries), dtype=np.int64)
        xis = np.array([gamma.entries[h][0] for h in hs.tolist()], dtype=np.int64)
        fibers = spec.decode(xis) @ psi.T % p
        fiber_key = np.zeros(len(hs), dtype=np.int64)
        for c in range(m):
            fiber_key = fiber_key * p + fibers[:, c]
        vals, counts = np.unique(fiber_key, return_counts=True)
        best = vals[np.argmax(counts)]  # np.argmax: first max = smallest key
        keep = fiber_key == best
        entries = {int(h): gamma.entries[int(h)] for h in hs[keep]}
        result_graph = PhaseGraph(spec, gamma.threshold, entries)
    # verify: (0, xi) in the sliced iterated difference set forces xi = 0
    keys2 = result_graph.pair_keys()
    diff2 = iterated_sumset(gamma.pair_group, keys2, folds, folds)
    zf = np.unique(diff2[diff2 // N == 0] % N)
    verified = bool(np.all(zf == 0)) if len(zf) else True
    return SliceResult(result_graph, int(len(A)), m, surrogate, verified, seed)


@dataclass
class LinearComponentFit:
    V: PrimeSubspace
    x0: GroupElement
    M_rows: np.ndarray  # (dim V, n): dual coords of M(b_i) for the V basis
    xi0: tuple[int, ...]
    agreement: float


def _affine_vote(spec: GroupSpec, xi_at: np.ndarray, v_idx: np.ndarray,
                 neg_two_mh: np.ndarray) -> tuple[int, int, int]:
    """Exhaustive affine fit: each x0 and each h of V with x0 + h in the graph
    (xi_at[x0 + h] >= 0) vote for xi0 = xi_{x0+h} - 2Mh.  Returns (votes, x0,
    xi0) for the most votes, then the smallest x0, then the smallest xi0.

    The votes of a block of x0 are counted by one bincount over the keys
    (x0 - start) N + xi0, whose flat argmax is that order within the block; a
    later block takes over only with strictly more votes.  A block has at most
    _VOTE_CELLS // N rows (|V| <= N), so the gather and the count hold
    O(_VOTE_CELLS) entries whatever the size of G."""
    N = spec.order
    rows = max(1, _VOTE_CELLS // N)
    best = (0, 0, 0)
    for start in range(0, N, rows):
        x0s = np.arange(start, min(start + rows, N), dtype=np.int64)
        xis = xi_at[spec.add_indices(x0s[:, None], v_idx[None, :])]
        r, c = np.nonzero(xis >= 0)
        if len(r) == 0:
            continue
        counts = np.bincount(r * N + spec.add_indices(xis[r, c], neg_two_mh[c]))
        i = int(np.argmax(counts))
        if counts[i] > best[0]:
            best = (int(counts[i]), start + i // N, i % N)
    if best[0] == 0:
        raise EmptyV("no agreement found on any translate")
    return best


def linear_component_fit(sliced: SliceResult) -> LinearComponentFit:
    """Read a linear map off the doubled sliced graph, on the subspace
    annihilating the Bogolyubov spectrum of the shift set, then pick the
    affine translate (x0, xi0) with maximal agreement by exhaustive
    pigeonhole."""
    gamma = sliced.graph
    spec = gamma.spec
    p = _homogeneous_prime(spec)
    N = spec.order
    if len(gamma) == 0:
        raise EmptyV("empty graph")
    d2 = iterated_sumset(gamma.pair_group, gamma.pair_keys(), 2, 2)  # 2G - 2G

    H2 = np.array(sorted(gamma.entries), dtype=np.int64)
    spectrum = bogolyubov(spec, H2.tolist())
    V_ann = PrimeSubspace.from_generators(spec, kernel_basis_mod_p(
        np.array([list(xi.coords) for xi in spectrum], dtype=np.int64).reshape(-1, spec.rank), p
    ))
    # The spectrum annihilator sits inside B(spectrum, 1/4) and hence inside
    # 2H''-2H''.  At desk scale the sliced set can be so sparse that the
    # annihilator is trivial, so also search for the largest subspace lying
    # directly inside the doubled shift set (a strictly stronger certificate
    # of the only property used downstream) and keep the better of the two.
    doubled_support = np.unique(d2 // N)
    V_direct = largest_subspace_inside(spec, doubled_support.tolist())
    Vsub = V_ann if V_ann.dim >= V_direct.dim else V_direct
    if Vsub.dim == 0:
        raise EmptyV("no nontrivial subspace inside the doubled shift set")
    lookup: dict[int, int] = {}
    ambiguous = set()
    for kk in d2.tolist():
        h, xi = kk // N, kk % N
        if h in lookup and lookup[h] != xi:
            ambiguous.add(h)
        lookup[h] = xi
    inv2 = pow(2, -1, p)
    rows = []
    for hb in Vsub.generators.tolist():
        if hb not in lookup or hb in ambiguous:
            raise EmptyV("doubled graph does not cover the subspace")
        xi = spec.decode(np.int64(lookup[hb]))
        rows.append((inv2 * xi) % p)
    M_rows = np.array(rows, dtype=np.int64).reshape(Vsub.dim, spec.rank)
    # the doubled graph must agree with the linear model on all of V: the
    # points h of V and the predictions 2Mh, both in V-local lex order
    v_idx = Vsub.coset(0)
    two_mh = spec.coset_points(0, spec.encode(2 * M_rows), Vsub.local_orders)
    for hv, pv in zip(v_idx.tolist(), two_mh.tolist()):
        if hv in ambiguous or lookup.get(hv, pv) != pv:
            raise EmptyV("doubled graph is not linear on the subspace")

    xi_at = np.full(N, -1, dtype=np.int64)
    for h, (xi, _) in gamma.entries.items():
        xi_at[h] = xi
    cnt, x0, xi0 = _affine_vote(spec, xi_at, v_idx, spec.neg_indices(two_mh))
    return LinearComponentFit(
        Vsub,
        spec.element_by_index(x0),
        M_rows,
        tuple(int(v) for v in spec.coords_of(xi0)),
        cnt / Vsub.order,
    )


def symmetry_subspace(fit: LinearComponentFit) -> PrimeSubspace:
    """W = {h in V : Mx.h = Mh.x for all x in V}, by exact linear algebra;
    self-adjointness on W is verified exhaustively on basis pairs."""
    V = fit.V
    p = V.p
    B = V.basis_matrix()
    # antisymmetric form on V-local coordinates: C_ij = M(b_i).b_j - M(b_j).b_i
    MB = fit.M_rows  # (dim, n) dual coords
    pairing = (MB @ B.T) % p  # pairing[i][j] = M(b_i).b_j (as F_p value)
    C = (pairing - pairing.T) % p
    ker = kernel_basis_mod_p(C, p)
    if ker.shape[0] == 0:
        return PrimeSubspace(V.spec, ())
    W = PrimeSubspace.from_generators(V.spec, (ker @ B) % p)
    sym = _restricted_form(fit, W)
    if np.any((sym - sym.T) % p):
        raise AssertionError("symmetry subspace failed self-adjointness check")
    return W


def _restricted_form(fit: LinearComponentFit, W: PrimeSubspace) -> np.ndarray:
    """A[i][j] = M(w_i).w_j on the basis of W, a subspace of V: each w_i is
    solved in V's basis and M applied to its coordinates (0 x 0 when W is
    trivial)."""
    p, B, WB = W.p, fit.V.basis_matrix(), W.basis_matrix()
    tloc = np.zeros((W.dim, fit.V.dim), dtype=np.int64)
    for i, w in enumerate(WB):
        sol = solve_mod_p(B.T, w, p)
        if sol is None:
            raise AssertionError("vector outside subspace")
        tloc[i] = sol
    MW = (tloc @ fit.M_rows) % p  # dual coords of M on the W basis
    return (MW @ WB.T) % p


@dataclass
class ObstructionReport:
    W: PrimeSubspace
    witnesses: dict[int, tuple[CosetQuadraticWitness, float]]  # coset rep -> (phase, bias)
    average_bias: float
    best_bias: float
    graph_size: int
    sliced_size: int
    quadruples: int
    doubling_K: float
    agreement: float
    eta: float
    seed: int
    oracle_check: dict[int, float] = field(default_factory=dict)
    u3_value: float | None = None

    def to_json(self) -> dict:
        return {
            "W_basis": [list(map(int, r)) for r in self.W.basis_matrix()],
            "witnesses": {
                str(y): {"A": [list(r) for r in w.A], "b": list(w.b), "bias": b}
                for y, (w, b) in self.witnesses.items()
            },
            "average_bias": self.average_bias,
            "best_bias": self.best_bias,
            "graph_size": self.graph_size,
            "sliced_size": self.sliced_size,
            "quadruples": self.quadruples,
            "doubling_K": self.doubling_K,
            "agreement": self.agreement,
            "eta": self.eta,
            "seed": self.seed,
            "oracle_check": {str(k): v for k, v in self.oracle_check.items()},
            "u3_value": self.u3_value,
        }


def coset_reps(W: PrimeSubspace) -> np.ndarray:
    """One representative per coset of W, via a complement basis."""
    comp = W.complement_basis()
    return np.sort(W.spec.coset_points(0, W.spec.encode(comp), (W.p,) * len(comp)))


def _witness_scan(
    f: GroupFunction, W: PrimeSubspace, A_local: np.ndarray, reps: np.ndarray
) -> tuple[list[CosetQuadraticWitness], np.ndarray]:
    """Best linear completion of the quadratic t.At on each coset y+W, y in
    reps: one row of f(y + t.w) e(-t.At) per coset, t in local lex order, and
    one transform over the local axes of all rows (the identity when W = 0).
    The witness b is the lex-first t whose squared entry is within a relative
    _TIE_RTOL of its row's maximum.

    When W = 0 the bias is |f(y)| by hypot, as a scalar abs takes it; the
    vectorized np.abs of complex arrays can differ from it in the last bit."""
    spec = f.owner
    p, k = W.p, W.dim
    t = span_points(np.eye(k, dtype=np.int64), p)  # lex order, as W.coset lists the points
    qvals = np.einsum("ni,ij,nj->n", t, A_local, t) % p
    pts = spec.add_indices(reps[:, None], W.coset(0)[None, :])
    g = f.values[pts] * np.exp(-2j * np.pi * np.arange(p) / p)[qvals]
    corr = np.abs(dft_values(GroupSpec(W.local_orders), g)) if k else np.hypot(g.real, g.imag)
    bs = _first_in_band(corr * corr)
    A = tuple(tuple(int(v) for v in row) for row in A_local)
    witnesses = [
        CosetQuadraticWitness(spec.element_by_index(y), W, A, tuple(int(v) for v in t[b]))
        for y, b in zip(reps.tolist(), bs.tolist())
    ]
    return witnesses, corr[np.arange(len(reps)), bs]


def quadratic_obstruction(
    f: GroupFunction,
    eta: float,
    seed: int = 0,
    oracle_crosscheck: bool = True,
    u3_value: float | None = None,
) -> ObstructionReport:
    """End-to-end assembly of a quadratic obstruction for a function with
    large U^3 norm.  Never fabricates a witness: every bias is the directly
    evaluated correlation of f with the constructed coset phase.

    Any finite f is accepted, 1-bounded or not: a planted phase plus noise
    eps·e(u) reaches modulus 1 + eps.  A bias is a correlation
    |E_{x in y+W} f(x) e(-q(x))| with the witness phase q, so each reported
    bias, and their average, is at most max |f|, and at most 1 only for
    1-bounded f."""
    gamma = phase_derivative_graph(f, eta)  # checks that G is F_p^n
    quad = additive_quadruples(gamma)
    K = len(gamma) ** 3 / quad if quad else float("inf")
    sliced = random_slice(gamma, seed)
    fit = linear_component_fit(sliced)
    W = symmetry_subspace(fit)
    A_local = _restricted_form(fit, W)  # symmetric by the symmetry-subspace check

    reps = coset_reps(W)
    found, biases = _witness_scan(f, W, A_local, reps)
    witnesses = {y: (w, b) for y, w, b in zip(reps.tolist(), found, biases.tolist())}
    oracle: dict[int, float] = {}
    if oracle_crosscheck and W.dim <= 3:
        for w in found:
            oracle[w.y.index] = u3_oracle_coset(f, (w.y, W)).value
    avg = float(np.mean(biases))
    return ObstructionReport(
        W=W,
        witnesses=witnesses,
        average_bias=avg,
        best_bias=float(np.max(biases)),
        graph_size=len(gamma),
        sliced_size=len(sliced.graph),
        quadruples=quad,
        doubling_K=K,
        agreement=fit.agreement,
        eta=eta,
        seed=seed,
        oracle_check=oracle,
        u3_value=u3_value,
    )
