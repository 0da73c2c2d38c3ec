import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bias_against, constant, random_pm1
from u3kit.errors import EmptyGraph, EmptyV, U3KitError
from u3kit.fourier import dft_values
from u3kit.groups import GroupFunction, GroupSpec, parse_group
from u3kit.inverse_f5 import (
    _witness_scan,
    additive_quadruples,
    coset_reps,
    linear_component_fit,
    phase_derivative_graph,
    quadratic_obstruction,
    random_slice,
    symmetry_subspace,
)
from u3kit.modlinalg import PrimeSubspace
from u3kit.norms import _TIE_RTOL, CosetQuadraticWitness, _first_in_band, gowers_norm, u2_bias, u3_oracle_coset


def _planted_quadratic(spec, A, b):
    p = spec.orders[0]
    coords = spec.decode(np.arange(spec.order))
    q = (np.einsum("ni,ij,nj->n", coords, np.asarray(A), coords) + coords @ np.asarray(b)) % p
    return GroupFunction(spec, np.exp(2j * np.pi * q / p)), q


def test_graph_planted_global_quadratic():
    spec = parse_group("F5^2")
    A = np.array([[2, 1], [1, 3]])
    f, _ = _planted_quadratic(spec, A, [0, 0])
    g = phase_derivative_graph(f, 0.5)
    assert len(g) == 25
    # every correlation is 1 and the frequency matches 2 A h
    for h, (xi, corr) in g.entries.items():
        hc = np.array(spec.coords_of(h))
        expect = spec.encode((2 * (hc @ A)) % 5)
        assert xi == int(expect)
        assert corr > 1 - 1e-9


def test_graph_constant_function():
    spec = parse_group("F5^2")
    ones = constant(spec, 1.0)
    g = phase_derivative_graph(ones, 0.5)
    assert len(g) == 25 and all(xi == 0 for xi, _ in g.entries.values())


def test_graph_empty_on_random_signs(rng):
    spec = parse_group("F5^3")
    f = random_pm1(spec, rng)
    with pytest.raises(EmptyGraph):
        phase_derivative_graph(f, 0.9)


def test_witness_bound(rng):
    # every stored entry satisfies |corr| >= eta^4 / sqrt(2)
    spec = parse_group("F5^2")
    mags = rng.uniform(0.6, 1.0, 25)
    f = GroupFunction(spec, mags * np.exp(2j * np.pi * rng.uniform(size=25)))
    eta = 0.45
    try:
        g = phase_derivative_graph(f, eta)
    except EmptyGraph:
        return
    for _, (_, corr) in g.entries.items():
        assert corr >= eta**4 / np.sqrt(2) - 1e-9


def test_quadruples_counts():
    spec = parse_group("F5^1")
    A = np.array([[2]])
    f, _ = _planted_quadratic(spec, A, [1])
    g = phase_derivative_graph(f, 0.5)
    assert additive_quadruples(g) == 125  # graph of a linear map: N^3
    # single entry: only the diagonal quadruple
    from u3kit.inverse_f5 import PhaseGraph

    g1 = PhaseGraph(spec, 0.5, {2: (3, 1.0)})
    assert additive_quadruples(g1) == 1
    # diagonal lower bound m^2
    g2 = PhaseGraph(spec, 0.5, {0: (1, 1.0), 1: (3, 1.0), 2: (2, 1.0)})
    assert additive_quadruples(g2) >= 9


def test_random_slice_noop_on_linear_graph():
    spec = parse_group("F5^2")
    f, _ = _planted_quadratic(spec, [[1, 0], [0, 2]], [0, 1])
    g = phase_derivative_graph(f, 0.5)
    sl = random_slice(g, seed=3)
    assert len(sl.graph) == len(g)  # A = {0}: nothing to slice
    assert sl.m == 0 and sl.verified


def test_random_slice_removes_corruption():
    spec = parse_group("F5^2")
    f, _ = _planted_quadratic(spec, [[1, 0], [0, 2]], [0, 0])
    g = phase_derivative_graph(f, 0.5)
    # corrupt one entry's frequency
    h0 = sorted(g.entries)[7]
    xi0, c0 = g.entries[h0]
    g.entries[h0] = ((xi0 + 11) % 25, c0)
    sl = random_slice(g, seed=5)
    assert sl.verified
    hs = sorted(sl.graph.entries)
    # the sliced graph is linear again: differences single-valued
    assert len(sl.graph) >= 1


def test_slice_empty_graph():
    spec = parse_group("F5^1")
    from u3kit.inverse_f5 import PhaseGraph

    g = PhaseGraph(spec, 0.5, {})
    sl = random_slice(g, seed=0)
    assert len(sl.graph) == 0 and sl.verified


def test_linear_fit_planted():
    spec = parse_group("F5^2")
    A = np.array([[2, 1], [1, 3]])
    f, _ = _planted_quadratic(spec, A, [4, 2])
    sl = random_slice(phase_derivative_graph(f, 0.5), seed=0)
    fit = linear_component_fit(sl)
    assert fit.V.dim == 2 and abs(fit.agreement - 1.0) < 1e-12
    # M matches the planted matrix on the basis
    for i, b in enumerate(fit.V.basis_matrix()):
        assert np.array_equal(fit.M_rows[i], (b @ A) % 5)


def _reference_vote(gamma, fit):
    """The affine-fit vote as a plain loop over x0 and t in V-local lex order:
    most votes, then smallest x0, then smallest xi0."""
    spec, V = gamma.spec, fit.V
    best = (-1, 0, 0)
    for x0 in range(spec.order):
        votes = {}
        for t in itertools.product(range(V.p), repeat=V.dim):
            pt = (spec.element_by_index(x0) + spec.element(V.embed_coords(t))).index
            if pt in gamma.entries:
                two_mh = spec.dual((2 * (np.array(t) @ fit.M_rows)) % V.p)
                xi0 = (spec.dual_by_index(gamma.entries[pt][0]) - two_mh).index
                votes[xi0] = votes.get(xi0, 0) + 1
        if votes:
            xi0, cnt = min(votes.items(), key=lambda kv: (-kv[1], kv[0]))
            if cnt > best[0]:
                best = (cnt, x0, xi0)
    return best


# symmetric plants per group: (A, b)
_VOTE_PLANTS = {
    "F5^3": ([[1, 2, 0], [2, 0, 3], [0, 3, 4]], [1, 0, 2]),
    "F5^2": ([[2, 1], [1, 3]], [4, 1]),
    "F3^4": ([[1, 2, 0, 1], [2, 0, 1, 0], [0, 1, 2, 2], [1, 0, 2, 1]], [1, 0, 2, 2]),
}


def _vote_rows(monkeypatch, spec, rows):
    """Force blocks of `rows` x0 (None: the default block)."""
    import u3kit.inverse_f5 as inverse_f5

    if rows is not None:
        monkeypatch.setattr(inverse_f5, "_VOTE_CELLS", rows * spec.order)


def test_linear_fit_vote_matches_reference_loop(monkeypatch):
    # noisy plants on three groups, each fit at the default block and at
    # blocks of 1 and 7 rows of x0; at the heavier noise the sliced graph is
    # small, so the agreement is partial and the best x0 is often not 0
    for group, (A, b) in _VOTE_PLANTS.items():
        spec = parse_group(group)
        checked = 0
        for seed in range(8):
            noise, eta = ((0.15, 0.6), (0.6, 0.4))[seed % 2]
            rng = np.random.default_rng(seed)
            f, _ = _planted_quadratic(spec, A, b)
            noisy = rng.uniform(size=spec.order) < noise
            vals = np.where(noisy, np.exp(2j * np.pi * rng.uniform(size=spec.order)), f.values)
            try:
                sl = random_slice(phase_derivative_graph(GroupFunction(spec, vals), eta), seed=seed)
                fit = linear_component_fit(sl)
            except (EmptyGraph, EmptyV):
                continue
            cnt, x0, xi0 = _reference_vote(sl.graph, fit)
            for rows in (None, 1, 7):
                with monkeypatch.context() as mp:
                    _vote_rows(mp, spec, rows)
                    fit = linear_component_fit(sl)
                assert fit.x0.index == x0 and fit.xi0 == spec.coords_of(xi0)
                assert fit.agreement == cnt / fit.V.order
            checked += 1
        assert checked >= 3, group


@pytest.mark.parametrize("rows", [None, 1, 7])
@pytest.mark.parametrize("group", sorted(_VOTE_PLANTS))
def test_linear_fit_vote_tie_across_blocks(group, rows, monkeypatch):
    # an exactly quadratic plant has the linear derivative map h -> 2Ah, so
    # every x0 gets |V| votes (for xi0 = 2A x0 + b'); the tie spans every
    # block and must resolve to x0 = 0
    spec = parse_group(group)
    _vote_rows(monkeypatch, spec, rows)
    f, _ = _planted_quadratic(spec, *_VOTE_PLANTS[group])
    sl = random_slice(phase_derivative_graph(f, 0.9), seed=0)
    fit = linear_component_fit(sl)
    assert fit.V.order == spec.order and fit.agreement == 1.0
    assert fit.x0.index == 0
    cnt, x0, xi0 = _reference_vote(sl.graph, fit)
    assert (fit.x0.index, fit.xi0) == (x0, spec.coords_of(xi0)) and cnt == spec.order


def _reference_affine_vote(spec, xi_at, v_idx, neg_two_mh):
    """The vote over x0 and h as plain loops with group-element arithmetic."""
    best = (0, 0, 0)
    for x0 in range(spec.order):
        votes = {}
        for h, neg in zip(v_idx.tolist(), neg_two_mh.tolist()):
            xi = int(xi_at[(spec.element_by_index(x0) + spec.element_by_index(h)).index])
            if xi >= 0:
                key = (spec.dual_by_index(xi) + spec.dual_by_index(neg)).index
                votes[key] = votes.get(key, 0) + 1
        if votes:
            xi0, cnt = min(votes.items(), key=lambda kv: (-kv[1], kv[0]))
            if cnt > best[0]:
                best = (cnt, x0, xi0)
    return best


@pytest.mark.parametrize("rows", [None, 1, 7])
@pytest.mark.parametrize("group", ["F3^3", "F5^2"])
def test_affine_vote_matches_reference_on_random_votes(group, rows, monkeypatch):
    # few distinct frequencies and a sparse graph, so counts tie often
    from u3kit.inverse_f5 import _affine_vote
    from u3kit.modlinalg import PrimeSubspace

    spec = parse_group(group)
    _vote_rows(monkeypatch, spec, rows)
    p, n, N = spec.orders[0], spec.rank, spec.order
    rng = np.random.default_rng(5)
    for trial in range(6):
        V = PrimeSubspace.from_generators(spec, rng.integers(0, p, (int(rng.integers(1, n + 1)), n)))
        v_idx = V.coset(0)
        neg_two_mh = rng.integers(0, 3, len(v_idx))
        xi_at = np.where(rng.uniform(size=N) < 0.4, rng.integers(0, 4, N), -1)
        if trial == 0:
            xi_at[:] = -1
            with pytest.raises(EmptyV):
                _affine_vote(spec, xi_at, v_idx, neg_two_mh)
            continue
        assert _affine_vote(spec, xi_at, v_idx, neg_two_mh) == _reference_affine_vote(
            spec, xi_at, v_idx, neg_two_mh)


@pytest.mark.parametrize("rows", [None, 7])
def test_affine_vote_memory_within_block_bound(rows, monkeypatch):
    # the worst case on F5^4: V = G and every point in the graph; the vote
    # holds a few int64 arrays of one block (rows x N), never an N x N count
    import tracemalloc

    import u3kit.inverse_f5 as inverse_f5

    spec = parse_group("F5^4")
    N = spec.order
    _vote_rows(monkeypatch, spec, rows)
    block = min(N, max(1, inverse_f5._VOTE_CELLS // N))
    rng = np.random.default_rng(0)
    xi_at = rng.integers(0, N, N)
    neg_two_mh = rng.integers(0, N, N)
    tracemalloc.start()
    try:
        inverse_f5._affine_vote(spec, xi_at, np.arange(N), neg_two_mh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * block * N + 65536


def test_symmetry_subspace_cases():
    spec = parse_group("F5^2")
    from u3kit.inverse_f5 import LinearComponentFit
    from u3kit.modlinalg import PrimeSubspace

    V = PrimeSubspace.whole(spec)
    sym = LinearComponentFit(V, spec.zero(), np.array([[1, 2], [2, 4]]) % 5, (0, 0), 1.0)
    W = symmetry_subspace(sym)
    assert W.dim == 2  # symmetric M keeps all of V
    anti = LinearComponentFit(V, spec.zero(), np.array([[0, 1], [4, 0]]) % 5, (0, 0), 1.0)
    W2 = symmetry_subspace(anti)
    assert W2.dim == 0  # antisymmetric invertible form kills V


def test_obstruction_planted_global(rng):
    spec = parse_group("F5^2")
    A = np.array([[2, 1], [1, 3]])
    f, q = _planted_quadratic(spec, A, [1, 4])
    rep = quadratic_obstruction(f, 0.5, seed=1)
    assert rep.W.dim == 2
    assert abs(rep.average_bias - 1.0) < 1e-9
    # soundness: each witness bias is reproducible by direct evaluation
    for y, (w, b) in rep.witnesses.items():
        assert abs(bias_against(w, f) - b) < 1e-10
    # oracle dominates the witness
    for y, val in rep.oracle_check.items():
        assert rep.witnesses[y][1] <= val + 1e-9


def test_obstruction_u3_chain(rng):
    # U3(f) >= 5^-n |W| (best coset witness bias) - 1e-9
    spec = parse_group("F5^2")
    for _ in range(3):
        mags = rng.uniform(0.7, 1.0, 25)
        f = GroupFunction(spec, mags * np.exp(2j * np.pi * rng.integers(0, 5, 25) / 5))
        try:
            rep = quadratic_obstruction(f, 0.35, seed=2)
        except EmptyGraph:
            continue
        u3 = gowers_norm(f, 3, unchecked=True).value
        assert u3 >= 5 ** (-2) * rep.W.order * rep.best_bias - 1e-9


def test_obstruction_planted_coset_with_noise(rng):
    spec = parse_group("F5^3")
    A = np.array([[1, 2, 0], [2, 4, 1], [0, 1, 3]]) % 5
    coords = spec.decode(np.arange(125))
    q = (np.einsum("ni,ij,nj->n", coords, A, coords) + coords @ np.array([2, 0, 1])) % 5
    base = np.where(coords[:, 0] == 2, np.exp(2j * np.pi * q / 5), 0)
    eps = 0.1
    successes = 0
    for trial in range(10):
        noise = eps * np.exp(2j * np.pi * rng.uniform(size=125))
        f = GroupFunction(spec, base + noise)
        rep = quadratic_obstruction(f, 0.5, seed=trial, oracle_crosscheck=False)
        # planted bias: the coset structure recovered by the report's own W
        if rep.W.dim == 2 and rep.best_bias >= 1 - 3 * eps:
            successes += 1
    assert successes >= 9


_ODD_FP = [f"F{p}^{n}" for p in (3, 5, 7, 11) for n in range(1, 6) if p**n <= 300]


@given(group=st.sampled_from(_ODD_FP), noise=st.sampled_from([0.0, 0.1, 0.3]),
       eta=st.sampled_from([0.3, 0.5]), seed=st.integers(0, 2**16))
def test_obstruction_invariants_on_random_odd_fp(group, noise, eta, seed):
    # a planted x.Mx + xi.x phase with noise on any odd F_p^n: a report or a
    # U3KitError, every bias the correlation with its witness phase, and the
    # oracle on each cross-checked coset at least that bias
    spec = parse_group(group)
    p, n = spec.orders[0], spec.rank
    rng = np.random.default_rng(seed)
    M = rng.integers(0, p, (n, n))
    f, _ = _planted_quadratic(spec, (M + M.T) % p, rng.integers(0, p, n))
    f = GroupFunction(spec, f.values + noise * np.exp(2j * np.pi * rng.uniform(size=spec.order)))
    try:
        rep = quadratic_obstruction(f, eta, seed=seed)
    except U3KitError:
        return
    for w, b in rep.witnesses.values():
        assert abs(bias_against(w, f) - b) < 1e-10
    for y, val in rep.oracle_check.items():
        assert rep.witnesses[y][1] <= val + 1e-9


def test_quadruple_statistic_planted():
    # at threshold eta with a planted pure quadratic the quadruple-count
    # floor 2^-8 eta^64 N^3 is nonvacuous and holds
    spec = parse_group("F5^2")
    f, _ = _planted_quadratic(spec, [[1, 1], [1, 2]], [0, 0])
    eta = 0.9
    g = phase_derivative_graph(f, eta)
    quads = additive_quadruples(g)
    assert quads >= 2**-8 * eta**64 * 25**3


def _reference_largest_subspace(spec, members):
    """The subspace search over a Python set, point by point."""
    from u3kit.modlinalg import PrimeSubspace, enumerate_subspaces

    mem = set(int(i) for i in members)
    for k in range(spec.rank, -1, -1):
        for W in enumerate_subspaces(spec, k):
            if all(int(i) in mem for i in W.element_indices().tolist()):
                return W
    return PrimeSubspace(spec, ())


@pytest.mark.parametrize("group", ["F3^3", "F5^2"])
def test_largest_subspace_inside_matches_set_search(group):
    # member sets: a random subspace (or two) plus random extra points, some
    # without 0, and plain random sets of every density
    from u3kit.modlinalg import PrimeSubspace, largest_subspace_inside

    spec = parse_group(group)
    p, n, N = spec.orders[0], spec.rank, spec.order
    rng = np.random.default_rng(11)
    for trial in range(40):
        mask = rng.uniform(size=N) < rng.uniform(0, 0.6)
        for _ in range(trial % 3):
            W = PrimeSubspace.from_generators(spec, rng.integers(0, p, (int(rng.integers(1, n)), n)))
            mask[W.element_indices()] = True
        if trial % 5 == 4:
            mask[0] = False
        members = np.flatnonzero(mask).tolist()
        assert largest_subspace_inside(spec, members) == _reference_largest_subspace(spec, members)
    assert largest_subspace_inside(spec, []) == PrimeSubspace(spec, ())
    assert largest_subspace_inside(spec, range(N)) == PrimeSubspace.whole(spec)


# --- all cosets of W in one witness scan ---------------------------------------


def reference_witness_scan(f, W, A_local, reps):
    """The per-coset scan that quadratic_obstruction ran before it took every
    coset of W through one gather: the row of each coset y from its own
    W.coset(y), and the lex-first pick in the tie band of its transform.
    The rows share one dft_values call, as in the batched scan: a dense block
    is one BLAS product, whose last bits depend on where a row sits in it."""
    spec = f.owner
    p = W.p
    k = W.dim
    if k:
        local = GroupSpec((p,) * k)
        t = local.decode(np.arange(W.order))  # lex order, as the points
        qvals = np.einsum("ni,ij,nj->n", t, A_local, t) % p
        omega = np.exp(-2j * np.pi * np.arange(p) / p)
        rows = np.array([f.values[W.coset(y)] * omega[qvals] for y in reps.tolist()])
        corr = np.abs(dft_values(local, rows))
        bs = [int(_first_in_band(c * c)) for c in corr]
        found = [(local.coords_of(b), float(c[b])) for b, c in zip(bs, corr)]
    else:
        found = [((), float(abs(f.values[y]))) for y in reps.tolist()]
    A = tuple(tuple(int(v) for v in row) for row in A_local) if k else ()
    return [
        (CosetQuadraticWitness(spec.element_by_index(y), W, A, tuple(int(v) for v in bc)), bias)
        for y, (bc, bias) in zip(reps.tolist(), found)
    ]


@pytest.mark.parametrize("group", ["F5^2", "F5^3", "F3^4"])
@pytest.mark.parametrize("kind", ["planted", "zero", "real", "constant", "point"])
def test_batched_witness_scan_matches_per_coset_scan(group, kind):
    # real, constant and point-mass f with A = 0 have exact ties |F(xi)| =
    # |F(-xi)| (or all-equal rows); the batched transform must pick the same
    # entry as each coset's own, and give the same bias to the bit
    spec = parse_group(group)
    p, n, N = spec.orders[0], spec.rank, spec.order
    rng = np.random.default_rng(sum(map(ord, group + kind)))
    for dim in range(n + 1):
        W = PrimeSubspace.from_generators(spec, rng.integers(0, p, (dim, n))) if dim else PrimeSubspace(spec, ())
        A = rng.integers(0, p, (W.dim, W.dim))
        A = (A + A.T) % p if kind in ("planted", "zero") else np.zeros_like(A)
        if kind == "planted":
            B = rng.integers(0, p, (n, n))
            f, _ = _planted_quadratic(spec, (B + B.T) % p, rng.integers(0, p, n))
            f = GroupFunction(spec, f.values + 0.3 * np.exp(2j * np.pi * rng.uniform(0, 1, N)))
        elif kind == "real":
            f = GroupFunction(spec, rng.uniform(-1, 1, N))
        elif kind == "point":
            f = GroupFunction.indicator(spec, [int(rng.integers(N))])
        else:
            f = constant(spec, 0.0 if kind == "zero" else 1.0)
        reps = coset_reps(W)
        witnesses, biases = _witness_scan(f, W, A, reps)
        assert len(witnesses) == len(biases) == len(reps) == N // W.order
        for w, b, (w_ref, b_ref) in zip(witnesses, biases.tolist(), reference_witness_scan(f, W, A, reps)):
            assert w == w_ref
            assert np.float64(b).tobytes() == np.float64(b_ref).tobytes()


def lex_first_in_band(spec, rows):
    """Per row, the smallest dual index whose squared direct character sum
    E_x row(x) e(-xi.x), built from exact pairings, is within a relative
    _TIE_RTOL of the row's maximum."""
    idx = np.arange(spec.order)
    table = np.exp(-2j * np.pi / spec.exponent * spec.pairings(idx[:, None], idx[None, :]))
    sq = np.abs(rows @ table / spec.order) ** 2
    return np.argmax(sq >= sq.max(axis=-1, keepdims=True) * (1 - _TIE_RTOL), axis=-1)


@st.composite
def odd_fp_cases(draw):
    """(f, W, A) on F_p^n, p in {3, 5, 7}, |G| <= 125: f complex noise, real
    noise (exact ties |F(xi)| = |F(-xi)|) or a point mass (every |F| ties);
    W a random subspace, A a random symmetric form on it or zero."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, {3: 4, 5: 3, 7: 2}[p]))
    spec = GroupSpec((p,) * n)
    N = spec.order
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["complex", "real", "point"]))
    if kind == "complex":
        f = GroupFunction(spec, rng.uniform(0, 1, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N)))
    elif kind == "real":
        f = GroupFunction(spec, rng.uniform(-1, 1, N))
    else:
        f = GroupFunction.indicator(spec, [int(rng.integers(N))])
    dim = draw(st.integers(0, n))
    W = PrimeSubspace.from_generators(spec, rng.integers(0, p, (dim, n))) if dim else PrimeSubspace(spec, ())
    A = rng.integers(0, p, (W.dim, W.dim)) if draw(st.booleans()) else np.zeros((W.dim, W.dim), dtype=np.int64)
    return f, W, (A + A.T) % p


@given(case=odd_fp_cases())
def test_float_witnesses_are_lex_first_in_band(case):
    # the graph's frequencies, u2_bias's witness and the witness scan's b
    # against a direct character sum under the one tie rule
    f, W, A = case
    spec = f.owner
    gamma = phase_derivative_graph(f, 0.3)
    hs = np.array(sorted(gamma.entries))
    rows = f.values[spec.add_indices(np.arange(spec.order)[None, :], hs[:, None])] * np.conj(f.values)
    assert [gamma.entries[h][0] for h in hs.tolist()] == lex_first_in_band(spec, rows).tolist()

    assert u2_bias(f).witness == spec.dual_by_index(int(lex_first_in_band(spec, f.values)))

    reps = coset_reps(W)
    found, _ = _witness_scan(f, W, A, reps)
    want = [()] * len(reps)
    if W.dim:
        p, local = W.p, GroupSpec((W.p,) * W.dim)
        t = local.decode(np.arange(W.order))
        phase = np.exp(-2j * np.pi * (np.einsum("ni,ij,nj->n", t, A, t) % p) / p)
        rows = np.array([f.values[W.coset(y)] for y in reps.tolist()]) * phase
        want = [local.coords_of(int(b)) for b in lex_first_in_band(local, rows)]
    assert [w.b for w in found] == want
