"""Constructive inverse-U^3 pipeline on F_p^n, p odd (p = 5 by default).

The chain: a phase-derivative graph (shifts h whose multiplicative
derivative correlates with a linear character), a random slice making the
iterated difference sets of the graph single-valued, the largest subspace
inside the doubled shift set, a linear fit of the derivative frequency map,
the symmetry subspace on which the fitted map is self-adjoint, and per-coset
quadratic witnesses assembled from the self-adjoint part.  Every reported
bias is reproducible by direct evaluation and cross-checked against the
exact coset oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bohr import iterated_sumset
from .errors import BudgetExceeded, EmptyGraph, EmptyV, SliceFailed, SpecMismatch
from .fourier import dft_values
from .groups import GroupFunction, GroupSpec
from .modlinalg import (
    PrimeSubspace,
    is_prime,
    kernel_basis_mod_p,
    largest_subspace_inside,
    span_points,
)
from .norms import (
    CosetQuadraticWitness,
    _first_in_band,
    _neg_classes,
    _run_row_batches,
    _translator,
    u3_oracle_cosets,
)


def _homogeneous_prime(spec: GroupSpec) -> int:
    ps = set(spec.orders)
    if len(ps) != 1:
        raise SpecMismatch("pipeline requires a homogeneous prime-power-free group F_p^n")
    p = ps.pop()
    if not is_prime(p):
        raise SpecMismatch("factor order must be prime")
    if p == 2:
        raise SpecMismatch("the linear fit halves 2M, so the pipeline needs an odd p, not F_2^n")
    return p


@dataclass
class PhaseGraph:
    """The graph {(h, xi(h))} in G x dual(G): each kept shift h with the
    frequency of the best linear correlation of its derivative, as the
    ascending pair keys h * N + xi, the row-major indices of `pair_group`."""

    spec: GroupSpec
    keys: np.ndarray  # ascending int64 pair keys h * N + xi
    u3: float | None = None  # ||f||_{U^3} from the transforms that built the graph; None by hand
    eta: float | None = None  # the eta of the cut eta^8 / 2; None by hand

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def pair_group(self) -> GroupSpec:
        """G x dual(G), whose row-major indices are the pair keys h * N + xi."""
        return GroupSpec(self.spec.orders * 2)


def phase_derivative_graph(f: GroupFunction, eta: float | None = None) -> PhaseGraph:
    """Keep shifts h with squared derivative bias >= eta^8 / 2; the witness
    frequency is the smallest dual index whose squared Fourier coefficient is
    within a relative _TIE_RTOL of the row maximum, so exact ties such as
    |F(xi)| = |F(-xi)| on real rows do not depend on rounding.

    The rows Delta_h f(x) = f(x + h) conj f(x) are the U^3 kernel's, one per
    class {h, -h}.  As |F_{-h}(xi)| = |F_h(-xi)|, the witness of -h is the
    pick of row h read at -xi (not always -xi(h), which can tie with another
    entry), and ||f||_{U^3}^8 = E_h sum_xi |F_h(xi)|^4 comes with the rows.
    So eta = None can resolve to max(0.8 U^3(f), 1e-3) from those same
    transforms: the cut is read only after the last row.  The rows run in
    the kernel's batches on its workers (`norms._run_row_batches`), and
    their picks are read in batch order, so the graph, u3 and eta are the
    same for every worker count.

    When U^3(f) >= eta and |f| <= 1, the shift set is guaranteed to have
    density at least eta^8 / 2; a smaller shift set therefore certifies
    U^3(f) < eta and is reported as EmptyGraph.  (The bare "no shift
    qualifies" reading would be vacuous: h = 0 qualifies for every
    unimodular f.)  For M = max|f| > 1 the same count certifies only
    U^3(f) < eta (M^4 (1 + M^4) / 2)^(1/8), the bound the message states:
    with s_h = max_xi |F_h(xi)|^2 <= M^4, U^3(f)^8 <= M^4 E_h s_h, and
    fewer than N eta^8 / 2 kept shifts and the rest, each below the cut,
    give E_h s_h < (eta^8 / 2)(M^4 + 1).
    """
    spec = f.owner
    _homogeneous_prime(spec)
    N = spec.order
    shifted, conj_f = _translator(spec, f.values, np.arange(N, dtype=np.int64)), np.conj(f.values)
    reps, weights, neg = _neg_classes(spec)

    # a batch's part of N ||f||_{U^3}^8, and its picks (shifts, frequencies,
    # squared magnitudes), h then -h
    def batch(r0: int, r1: int, work: np.ndarray):
        hs = reps[r0:r1]
        g = shifted(hs)
        g *= conj_f  # Delta_h f
        sq = np.square(np.abs(dft_values(spec, g, work)))
        best = _first_in_band(sq)
        two = np.flatnonzero(neg[hs] != hs)  # the rows whose class also holds -h
        xi_neg = _first_in_band(sq[two[:, None], neg])  # xi(-h), read at -xi in row h
        return (float(weights[r0:r1] @ np.einsum("ij,ij->i", sq, sq)),
                [(hs, best, sq[np.arange(len(hs)), best]), (neg[hs[two]], xi_neg, sq[two, neg[xi_neg]])])

    pow8, picks = 0.0, []
    # live = 2: a batch of rows and its transform
    for part, pick in _run_row_batches(len(reps), N, 2, batch):
        pow8 += part
        picks += pick
    u3 = max(pow8 / N, 0.0) ** 0.125
    if eta is None:
        eta = max(0.8 * u3, 1e-3)
    cut = eta**8 / 2.0
    hs, xis, sqs = (np.concatenate(a) for a in zip(*picks))
    keys = np.sort((hs * N + xis)[sqs >= cut])
    if len(keys) < max(1.0, cut * N):
        M = float(np.max(np.abs(f.values)))
        bound = eta if M <= 1 else eta * (M**4 * (1 + M**4) / 2) ** 0.125
        raise EmptyGraph(
            f"shift set of size {len(keys)} below the density floor "
            f"{cut:.3g} * {N}; certifies U^3 < {bound}"
        )
    return PhaseGraph(spec, keys, u3, eta)


def additive_quadruples(gamma: PhaseGraph) -> int:
    """Exact count of (z1,z2,z3,z4) in the graph with z1+z2 = z3+z4."""
    keys = gamma.keys
    _, counts = np.unique(gamma.pair_group.add_indices(keys[:, None], keys[None, :]),
                          return_counts=True)
    return int(np.sum(counts.astype(object) ** 2))


def random_slice(gamma: PhaseGraph, seed: int) -> PhaseGraph:
    """The graph cut to one fiber of a random linear map, so that its
    iterated difference sets are graphs.

    A = {xi : (0, xi) in 8G - 8G} is compressed by a random linear map psi
    from dual(G) to F_p^m, m the least with p^m >= |A|, that vanishes on no
    point of A \\ {0}; the densest fiber {h : psi(xi(h)) = c} is kept (the
    smallest c, as an index, on ties).

    The sliced graph G' needs no check.  A (0, xi) in 8G' - 8G' lies in A,
    as G' is part of G, and psi(xi) = 8c - 8c = 0 by linearity; psi vanishes
    on no point of A \\ {0}, so xi = 0.  Then (h, xi) and (h, xi') in
    4G' - 4G' give (0, xi - xi') in 8G' - 8G', so xi = xi' and 4G' - 4G' is
    a graph.
    """
    spec = gamma.spec
    p = _homogeneous_prime(spec)
    N = spec.order
    diff = iterated_sumset(gamma.pair_group, gamma.keys, 8, 8)
    A = np.unique(diff[diff // N == 0] % N)
    A_nonzero = A[A != 0]
    if len(A_nonzero) == 0:
        return gamma
    m = 1  # the least m with p^m >= |A| >= 2, in integers
    while p**m < len(A):
        m += 1
    rng = np.random.default_rng(seed)
    coords = spec.decode(A_nonzero)
    for _ in range(100):
        psi = rng.integers(0, p, size=(m, spec.rank))
        if np.all(np.any(coords @ psi.T % p, axis=1)):
            break
    else:
        raise SliceFailed(f"random slice: no compression in 100 tries (|graph| = {len(gamma)}, |A| = {len(A)})")
    fiber = GroupSpec((p,) * m).encode(spec.decode(gamma.keys % N) @ psi.T)  # psi(xi) as an index
    vals, counts = np.unique(fiber, return_counts=True)
    # np.argmax: the first maximum, the smallest fiber index
    return PhaseGraph(spec, gamma.keys[fiber == vals[np.argmax(counts)]], gamma.u3, gamma.eta)


@dataclass
class LinearComponentFit:
    V: PrimeSubspace
    x0: int  # element index
    M_rows: np.ndarray  # (dim V, n): dual coords of M(b_i) for the V basis
    xi0: tuple[int, ...]
    agreement: float


def _affine_vote(xi_at: np.ndarray, V: PrimeSubspace, neg_two_mh: np.ndarray) -> tuple[int, int, int]:
    """Exhaustive affine fit: each x0 and each h of V with x0 + h in the graph
    (xi_at[x0 + h] >= 0) vote for xi0 = xi_{x0+h} - 2Mh, where neg_two_mh
    lists -2Mh for a linear M over h in V.coset(0).  Returns (votes, x0, xi0)
    for the most votes, then the smallest x0, then the smallest xi0.

    For v in V, vote(x0 + v, xi0) = vote(x0, xi0 - 2Mv) (put h' = v + h), so
    the most votes of an x0 are those of every point of its coset, and the
    winner lies at a coset's least point.  V's basis is row-reduced, so the
    least point of a coset is its one point that is zero at V's pivot
    columns: a nonzero v of V leads at a pivot column.  Those points r, in
    ascending order, are the span of the other unit vectors; r + V is
    gathered once, so each point of G is read once, and the keys
    (rank of r) N + xi0 are counted by np.unique, whose first maximum is
    the tie order, in O(N) memory."""
    spec, N = V.spec, V.spec.order
    pivots = np.argmax(V.basis_matrix() != 0, axis=1)
    reps = spec.encode(span_points(np.delete(np.eye(spec.rank, dtype=np.int64), pivots, axis=0), V.p))
    xis = xi_at[spec.add_indices(reps[:, None], V.coset(0)[None, :])]
    r, c = np.nonzero(xis >= 0)
    if len(r) == 0:
        raise EmptyV(f"affine vote: no translate x0 + V meets the graph "
                     f"(|sliced graph| = {int(np.sum(xi_at >= 0))}, |V| = {V.order})")
    keys, counts = np.unique(r * N + spec.add_indices(xis[r, c], neg_two_mh[c]), return_counts=True)
    i = int(np.argmax(counts))
    return int(counts[i]), int(reps[keys[i] // N]), int(keys[i] % N)


def linear_component_fit(gamma: PhaseGraph) -> LinearComponentFit:
    """Read a linear map off the doubled graph 2G - 2G of the sliced graph G,
    on V, the lex-first subspace of largest dimension inside the doubled
    shift set 2H - 2H (H = keys // N), then pick the affine translate
    (x0, xi0) with maximal agreement by exhaustive pigeonhole over the map
    h -> xi (keys % N).

    V is the paper's Bogolyubov subspace at its best: the annihilator of the
    spectrum S = bogolyubov(spec, H) lies in 2H - 2H, so it is never larger.
    S holds xi = 0, as |1_H^(0)| = delta >= delta^{3/2} / sqrt 2.  For x in
    the annihilator, 1_H * 1_H * 1_{-H} * 1_{-H}(x) = sum_xi |1_H^(xi)|^4
    e(xi.x) has terms over S summing to at least delta^4, and the others to
    at most max_{xi not in S} |1_H^(xi)|^2 sum_xi |1_H^(xi)|^2 < delta^4 / 2;
    so x is in 2H - 2H, which is the shift projection of 2G - 2G."""
    spec = gamma.spec
    p = _homogeneous_prime(spec)
    N = spec.order
    if len(gamma) == 0:
        raise EmptyV("linear fit: the sliced graph is empty (|sliced graph| = 0)")
    hs, xis = np.divmod(gamma.keys, N)
    d2 = iterated_sumset(gamma.pair_group, gamma.keys, 2, 2)  # 2G - 2G

    doubled_support, mult = np.unique(d2 // N, return_counts=True)
    Vsub = largest_subspace_inside(spec, doubled_support)
    if Vsub.dim == 0:
        raise EmptyV(f"linear fit: no nontrivial subspace inside the doubled shift set "
                     f"(|sliced graph| = {len(gamma)}, |2H''-2H''| = {len(doubled_support)}, dim V = 0)")
    # the doubled graph as a map h -> xi: -1 off its domain, -2 where d2 has two
    xi_of = np.full(N, -1, dtype=np.int64)
    xi_of[d2 // N] = d2 % N
    xi_of[doubled_support[mult > 1]] = -2
    if np.any(xi_of[Vsub.generators] < 0):
        raise EmptyV(f"linear fit: the doubled graph does not cover V "
                     f"(|sliced graph| = {len(gamma)}, dim V = {Vsub.dim})")
    M_rows = pow(2, -1, p) * spec.decode(xi_of[Vsub.generators]) % p
    # the doubled graph is defined on all of V and must agree with the linear
    # model there: the points h of V and the predictions 2Mh, in V-local lex order
    two_mh = spec.encode(span_points(2 * M_rows, p))
    if np.any(xi_of[Vsub.coset(0)] != two_mh):
        raise EmptyV(f"linear fit: the doubled graph is not linear on V "
                     f"(|sliced graph| = {len(gamma)}, dim V = {Vsub.dim})")

    xi_at = np.full(N, -1, dtype=np.int64)
    xi_at[hs] = xis
    cnt, x0, xi0 = _affine_vote(xi_at, Vsub, spec.neg_indices(two_mh))
    return LinearComponentFit(
        Vsub,
        x0,
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
    """A[i][j] = M(w_i).w_j on the basis of W, a subspace of V: V's basis is
    row-reduced, so the coordinates of w_i in it are w_i at V's pivot
    columns, and M is applied to them (0 x 0 when W is trivial)."""
    p, B, WB = W.p, fit.V.basis_matrix(), W.basis_matrix()
    tloc = WB[:, np.argmax(B != 0, axis=1)]
    if np.any((tloc @ B - WB) % p):
        raise AssertionError("vector outside subspace")
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
    oracle_check: dict[int, float]
    u3_value: float  # ||f||_{U^3}, from the graph's transforms

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
    return np.sort(W.spec.encode(span_points(W.complement_basis(), W.p)))


def _witness_scan(
    f: GroupFunction, W: PrimeSubspace, A_local: np.ndarray, reps: np.ndarray
) -> tuple[list[CosetQuadraticWitness], np.ndarray]:
    """Best linear completion of the quadratic t.At on each coset y+W, y in
    reps: one row of f(y + t.w) e(-t.At) per coset, t in local lex order, and
    one transform over the local axes of all rows (the identity when W = 0).
    The witness b is the lex-first t whose squared entry is within a relative
    _TIE_RTOL of its row's maximum.

    When W = 0 the bias is |f(y)| by hypot.  The coset oracle takes |f(y)|
    on a one-point coset as the root of re^2 + im^2, as its k = 1 scan does,
    so its oracle_check can differ from this bias in the last bit."""
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
        CosetQuadraticWitness(y, W, A, tuple(int(v) for v in t[b]))
        for y, b in zip(reps.tolist(), bs.tolist())
    ]
    return witnesses, corr[np.arange(len(reps)), bs]


def quadratic_obstruction(
    f: GroupFunction,
    eta: float | None = None,
    seed: int = 0,
    oracle_crosscheck: bool = True,
) -> ObstructionReport:
    """End-to-end assembly of a quadratic obstruction for a function with
    large U^3 norm.  Never fabricates a witness: every bias is the directly
    evaluated correlation of f with the constructed coset phase.

    Any finite f is accepted, 1-bounded or not: a planted phase plus noise
    eps·e(u) reaches modulus 1 + eps.  A bias is a correlation
    |E_{x in y+W} f(x) e(-q(x))| with the witness phase q, so each reported
    bias, and their average, is at most max |f|, and at most 1 only for
    1-bounded f.  With eta = None the graph picks eta from U^3(f), as
    `phase_derivative_graph` does; the report gives the eta used.

    With oracle_crosscheck, the exact bias on each coset of W is asked of
    `u3_oracle_cosets`, one batched call for all of them, and reported as
    oracle_check.  Where that oracle refuses W as over its budget (W = F11^3,
    or F5^4), oracle_check is empty and the witnesses are reported all the
    same."""
    gamma = phase_derivative_graph(f, eta)  # checks that G is F_p^n, p odd, before it computes
    sliced = random_slice(gamma, seed)  # before the quadruples: it refuses far sooner
    quad = additive_quadruples(gamma)
    K = len(gamma) ** 3 / quad if quad else float("inf")
    fit = linear_component_fit(sliced)
    W = symmetry_subspace(fit)
    A_local = _restricted_form(fit, W)  # symmetric by the symmetry-subspace check

    reps = coset_reps(W)
    found, biases = _witness_scan(f, W, A_local, reps)
    witnesses = {y: (w, b) for y, w, b in zip(reps.tolist(), found, biases.tolist())}
    oracle: dict[int, float] = {}
    if oracle_crosscheck:  # one batched scan for all the cosets of W
        try:
            reports = u3_oracle_cosets(f, [w.y for w in found], W)
        except BudgetExceeded:  # the oracle's refusal must not cost the witnesses
            reports = []
        oracle = {w.y: rep.value for w, rep in zip(found, reports)}
    return ObstructionReport(
        W=W,
        witnesses=witnesses,
        average_bias=float(np.mean(biases)),
        best_bias=float(np.max(biases)),
        graph_size=len(gamma),
        sliced_size=len(sliced),
        quadruples=quad,
        doubling_K=K,
        agreement=fit.agreement,
        eta=gamma.eta,
        seed=seed,
        oracle_check=oracle,
        u3_value=gamma.u3,
    )
