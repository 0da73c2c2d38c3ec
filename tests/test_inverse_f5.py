import itertools
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    bias_against,
    constant,
    coord_add,
    coord_scale,
    embed_coords,
    random_pm1,
    solve_mod_p,
    traced_peak,
)
from u3kit import bohr, inverse_f5, norms
from u3kit.bohr import iterated_sumset
from u3kit.errors import EmptyGraph, EmptyV, SliceFailed, U3KitError
from u3kit.fourier import dft_values
from u3kit.groups import GroupFunction, GroupSpec, parse_group
from u3kit.inverse_f5 import (
    LinearComponentFit,
    PhaseGraph,
    _restricted_form,
    _witness_scan,
    additive_quadruples,
    coset_reps,
    linear_component_fit,
    phase_derivative_graph,
    quadratic_obstruction,
    random_slice,
    symmetry_subspace,
)
from u3kit.modlinalg import PrimeSubspace, kernel_basis_mod_p, largest_subspace_inside
from u3kit.norms import _TIE_RTOL, CosetQuadraticWitness, _first_in_band, gowers_norm, u2_bias, u3_oracle_coset


def _planted_quadratic(spec, A, b):
    p = spec.orders[0]
    coords = spec.decode(np.arange(spec.order))
    q = (np.einsum("ni,ij,nj->n", coords, np.asarray(A), coords) + coords @ np.asarray(b)) % p
    return GroupFunction(spec, np.exp(2j * np.pi * q / p)), q


def _derivative_sq(f):
    """|E_x f(x + h) conj f(x) e(-xi.x)|^2 for every (h, xi), from element
    arithmetic and exact pairings, with no transform."""
    spec = f.owner
    idx = np.arange(spec.order)
    rows = f.values[spec.add_indices(idx[None, :], idx[:, None])] * np.conj(f.values)
    table = np.exp(-2j * np.pi / spec.exponent * spec.pairings(idx[:, None], idx[None, :]))
    return np.abs(rows @ table / spec.order) ** 2


def _assert_cut_from_definition(f, g, eta):
    """Every kept pair (h, xi) has |Delta_h f^(xi)|^2 >= eta^8 / 2, and every
    shift left out has all of its coefficients below that cut."""
    N, cut = f.owner.order, eta**8 / 2
    sq = _derivative_sq(f)
    hs, xis = np.divmod(g.keys, N)
    assert np.all(np.diff(hs) > 0)  # ascending, one pair per shift
    assert np.all(sq[hs, xis] >= cut * (1 - 1e-12))
    out = np.setdiff1d(np.arange(N), hs)
    assert np.all(sq[out].max(axis=1, initial=0.0) < cut * (1 + 1e-12))


def test_graph_planted_global_quadratic():
    spec = parse_group("F5^2")
    A = np.array([[2, 1], [1, 3]])
    f, _ = _planted_quadratic(spec, A, [0, 0])
    g = phase_derivative_graph(f, 0.5)
    assert len(g) == 25
    # every frequency is 2 A h, and every pair passes the cut by definition
    hs = g.keys // 25
    assert np.array_equal(g.keys % 25, spec.encode(2 * spec.decode(hs) @ A % 5))
    _assert_cut_from_definition(f, g, 0.5)
    assert np.allclose(_derivative_sq(f)[hs, g.keys % 25], 1.0)


def test_graph_constant_function():
    spec = parse_group("F5^2")
    ones = constant(spec, 1.0)
    g = phase_derivative_graph(ones, 0.5)
    assert len(g) == 25 and np.all(g.keys % 25 == 0)


def test_graph_empty_on_random_signs(rng):
    spec = parse_group("F5^3")
    f = random_pm1(spec, rng)
    with pytest.raises(EmptyGraph):
        phase_derivative_graph(f, 0.9)


def test_empty_graph_of_an_unbounded_f_states_its_true_bound():
    # f = 20 delta_0 on F5^3 has U^3 = 1.789; the density argument needs
    # |f| <= 1, so "certifies U^3 < 1.0" was false, and the bound for
    # M = max|f| is eta (M^4 (1 + M^4) / 2)^(1/8)
    spec = parse_group("F5^3")
    f = GroupFunction(spec, 20.0 * (np.arange(spec.order) == 0))
    with pytest.raises(EmptyGraph) as exc:
        phase_derivative_graph(f, 1.0)
    assert str(exc.value) == ("shift set of size 1 below the density floor 0.5 * 125; "
                              "certifies U^3 < 18.340095192242423")
    assert 18.3 < (20.0**4 * (1 + 20.0**4) / 2) ** 0.125 < 18.4
    assert gowers_norm(f, 3, unchecked=True).value == pytest.approx(1.7888543819998317, rel=1e-12)


@given(group=st.sampled_from(["F3^3", "F5^2", "F5^3", "F7^2"]), points=st.integers(1, 6),
       scale=st.floats(0.5, 50), eta=st.floats(0.3, 1.0), seed=st.integers(0, 2**32 - 1))
def test_the_stated_empty_graph_bound_exceeds_u3(group, points, scale, eta, seed):
    # sparse f of any size: where the graph refuses, the U^3 bound in its
    # message holds, for max|f| above 1 as below it
    spec = parse_group(group)
    rng = np.random.default_rng(seed)
    vals = np.zeros(spec.order, dtype=np.complex128)
    at = rng.choice(spec.order, size=points, replace=False)
    vals[at] = scale * rng.uniform(0.2, 1.0, points) * np.exp(2j * np.pi * rng.uniform(size=points))
    f = GroupFunction(spec, vals)
    try:
        phase_derivative_graph(f, eta)
    except EmptyGraph as exc:
        bound = float(str(exc).rsplit("certifies U^3 < ", 1)[1])
        assert gowers_norm(f, 3, unchecked=True).value < bound
        if np.max(np.abs(vals)) <= 1:
            assert bound == eta


def test_witness_bound(rng):
    # every kept pair has |corr|^2 >= eta^8 / 2 and every other shift fails
    # it, both recomputed from the definition; at eta = 0.8 the cut drops
    # about half of the shifts
    spec = parse_group("F5^2")
    mags = rng.uniform(0.6, 1.0, 25)
    f = GroupFunction(spec, mags * np.exp(2j * np.pi * rng.uniform(size=25)))
    sizes = []
    for eta in (0.45, 0.8):
        try:
            g = phase_derivative_graph(f, eta)
        except EmptyGraph:
            continue
        _assert_cut_from_definition(f, g, eta)
        sizes.append(len(g))
    assert any(0 < n < 25 for n in sizes)


@given(p_n=st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 2)]),
       kind=st.sampled_from(["planted", "complex", "real"]), seed=st.integers(0, 2**32 - 1))
def test_graph_does_not_depend_on_the_worker_count(p_n, kind, seed):
    # the graph's rows run as the U^3 kernel's, batch b on worker b mod W:
    # with one row a batch (2 to 63 batches here), the keys, u3 and eta (or
    # the EmptyGraph message) are the same for W = 1, 2 and 3, bit for bit,
    # and no worker thread outlives its call
    p, n = p_n
    spec = GroupSpec((p,) * n)
    N = spec.order
    rng = np.random.default_rng(seed)
    if kind == "planted":
        M = rng.integers(0, p, (n, n))
        f, _ = _planted_quadratic(spec, (M + M.T) % p, rng.integers(0, p, n))
        f = GroupFunction(spec, f.values + 0.2 * np.exp(2j * np.pi * rng.uniform(size=N)))
    elif kind == "complex":
        f = GroupFunction(spec, rng.uniform(0, 1, N) * np.exp(2j * np.pi * rng.uniform(size=N)))
    else:
        f = GroupFunction(spec, rng.uniform(-1, 1, N))
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_BATCH_ENTRIES", 1)
        for workers in (1, 2, 3):
            mp.setattr(norms, "_cpus", lambda w=workers: w)
            threads = threading.active_count()
            try:
                g = phase_derivative_graph(f)
                outcomes.append((g.keys.tolist(), g.u3, g.eta))
            except EmptyGraph as exc:
                outcomes.append(str(exc))
            assert threading.active_count() == threads
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_quadruples_counts():
    spec = parse_group("F5^1")
    A = np.array([[2]])
    f, _ = _planted_quadratic(spec, A, [1])
    g = phase_derivative_graph(f, 0.5)
    assert additive_quadruples(g) == 125  # graph of a linear map: N^3
    # single entry (2, 3): only the diagonal quadruple
    g1 = PhaseGraph(spec, np.array([2 * 5 + 3]))
    assert additive_quadruples(g1) == 1
    # diagonal lower bound m^2 for (0, 1), (1, 3), (2, 2)
    g2 = PhaseGraph(spec, np.array([0 * 5 + 1, 1 * 5 + 3, 2 * 5 + 2]))
    assert additive_quadruples(g2) >= 9


def test_random_slice_noop_on_linear_graph():
    spec = parse_group("F5^2")
    f, _ = _planted_quadratic(spec, [[1, 0], [0, 2]], [0, 1])
    g = phase_derivative_graph(f, 0.5)
    sl = random_slice(g, seed=3)
    assert np.array_equal(sl.keys, g.keys)  # A = {0}: nothing to slice


def test_random_slice_removes_corruption():
    spec = parse_group("F5^2")
    f, _ = _planted_quadratic(spec, [[1, 0], [0, 2]], [0, 0])
    g = phase_derivative_graph(f, 0.5)
    # corrupt one entry's frequency
    keys = g.keys.copy()
    h0, xi0 = divmod(int(keys[7]), 25)
    keys[7] = h0 * 25 + (xi0 + 11) % 25
    sl = random_slice(PhaseGraph(spec, keys), seed=5)
    # the sliced graph is linear again: differences single-valued
    assert len(sl) >= 1 and np.all(np.isin(sl.keys, keys))
    diff = iterated_sumset(sl.pair_group, sl.keys, 8, 8)
    assert np.all(diff[diff // 25 == 0] == 0)


@st.composite
def slice_graphs(draw):
    """A graph on F3^2, F5^2 or F3^3: a random linear map on a random set of
    shifts (never empty), with none, some or all of its frequencies replaced
    at random, so that A ranges from {0} to all of dual(G)."""
    spec = parse_group(draw(st.sampled_from(["F3^2", "F5^2", "F3^3"])))
    p, n, N = spec.orders[0], spec.rank, spec.order
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.uniform(size=N) < draw(st.sampled_from([0.2, 0.6, 1.0]))
    mask[rng.integers(N)] = True
    hs = np.flatnonzero(mask)
    xis = spec.encode(spec.decode(hs) @ rng.integers(0, p, (n, n)) % p)
    flip = rng.uniform(size=len(hs)) < draw(st.sampled_from([0.0, 0.05, 0.15, 1.0]))
    xis[flip] = rng.integers(0, N, int(flip.sum()))
    return PhaseGraph(spec, hs * N + xis)


@given(gamma=slice_graphs(), seed=st.integers(0, 2**16))
def test_slice_leaves_a_graph(gamma, seed):
    # the invariant the slice's docstring proves: over h = 0 the sliced
    # graph's 8-fold difference set holds only xi = 0, and the slice keeps
    # a subset of the pairs
    N = gamma.spec.order
    folds = []
    real = inverse_f5.iterated_sumset
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inverse_f5, "iterated_sumset", lambda *a: folds.append(a[2]) or real(*a))
        sliced = random_slice(gamma, seed)
    assert folds == [8]
    assert len(sliced) and np.all(np.isin(sliced.keys, gamma.keys))
    diff = iterated_sumset(gamma.pair_group, sliced.keys, 8, 8)
    assert diff[diff // N == 0].tolist() == [0]


def test_slice_empty_graph():
    spec = parse_group("F5^1")
    g = PhaseGraph(spec, np.zeros(0, dtype=np.int64))
    sl = random_slice(g, seed=0)
    assert len(sl) == 0


def test_pipeline_failures_name_their_stage_and_sizes(monkeypatch):
    # (1, 1) + (2, 0) - (3, 0) = (0, 1), so A = {xi : (0, xi) in 8G - 8G} is
    # all of F5; a compression that is always 0 finds no slice
    spec = parse_group("F5^1")
    g = PhaseGraph(spec, np.array([1 * 5 + 1, 2 * 5 + 0, 3 * 5 + 0]))

    class ZeroRng:
        def integers(self, low, high, size):
            return np.zeros(size, dtype=np.int64)

    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda seed: ZeroRng())
        with pytest.raises(SliceFailed, match=r"^random slice: .*\(\|graph\| = 3, \|A\| = 5\)$"):
            random_slice(g, seed=0)
    empty = PhaseGraph(spec, np.zeros(0, dtype=np.int64))
    with pytest.raises(EmptyV, match=r"^linear fit: .*\(\|sliced graph\| = 0\)$"):
        linear_component_fit(empty)
    point = PhaseGraph(parse_group("F5^2"), np.array([2 * 25 + 3]))
    with pytest.raises(EmptyV, match=r"^linear fit: .*\(\|sliced graph\| = 1, \|2H''-2H''\| = 1, dim V = 0\)$"):
        linear_component_fit(point)


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
    xi_of = {k // spec.order: k % spec.order for k in gamma.keys.tolist()}
    best = (-1, 0, 0)
    for x0 in range(spec.order):
        votes = {}
        for t in itertools.product(range(V.p), repeat=V.dim):
            pt = coord_add(spec, x0, spec.index_of(embed_coords(V, t)))
            if pt in xi_of:
                two_mh = spec.index_of(((2 * (np.array(t) @ fit.M_rows)) % V.p).tolist())
                xi0 = coord_add(spec, xi_of[pt], coord_scale(spec, -1, two_mh))
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


def _subspace_block(monkeypatch, block):
    """Force blocks of at most `block` span points in the subspace pass of
    the fit (None: the default); 1 and 7 make one basis a block, or two on
    F3 at dim 1."""
    from u3kit import modlinalg

    if block is not None:
        monkeypatch.setattr(modlinalg, "_ADD_BLOCK", block)


def test_linear_fit_vote_matches_reference_loop(monkeypatch):
    # noisy plants on three groups, each fit at the default block of the
    # subspace pass and at blocks of 1 and 7 points; at the heavier noise the
    # sliced graph is small, so V is often smaller than G, the agreement is
    # partial and the best x0 is often not 0
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
            cnt, x0, xi0 = _reference_vote(sl, fit)
            for block in (None, 1, 7):
                with monkeypatch.context() as mp:
                    _subspace_block(mp, block)
                    fit = linear_component_fit(sl)
                assert fit.x0 == x0 and fit.xi0 == spec.coords_of(xi0)
                assert fit.agreement == cnt / fit.V.order
            checked += 1
        assert checked >= 3, group


def _reference_fit_checks(gamma):
    """The checks of linear_component_fit on the doubled graph 2G-2G, as the
    loops over a dict and a set that its array map h -> xi replaced:
    "subspace", "cover", "linear", or the rows of M."""
    from u3kit.bohr import bogolyubov
    from u3kit.modlinalg import kernel_basis_mod_p, largest_subspace_inside

    spec, p, N = gamma.spec, gamma.spec.orders[0], gamma.spec.order
    d2 = iterated_sumset(gamma.pair_group, gamma.keys, 2, 2)
    shifts = (gamma.keys // N).tolist()
    spectrum = np.array([spec.coords_of(xi) for xi in bogolyubov(spec, shifts)]).reshape(-1, spec.rank)
    V_ann = PrimeSubspace.from_generators(spec, kernel_basis_mod_p(spectrum, p))
    V_direct = largest_subspace_inside(spec, np.unique(d2 // N).tolist())
    V = V_ann if V_ann.dim >= V_direct.dim else V_direct
    if V.dim == 0:
        return "subspace"
    lookup, ambiguous = {}, set()
    for kk in d2.tolist():
        h, xi = kk // N, kk % N
        if h in lookup and lookup[h] != xi:
            ambiguous.add(h)
        lookup[h] = xi
    rows = []
    for hb in V.generators.tolist():
        if hb not in lookup or hb in ambiguous:
            return "cover"
        rows.append(pow(2, -1, p) * spec.decode(np.int64(lookup[hb])) % p)
    M_rows = np.array(rows).reshape(V.dim, spec.rank)
    two_mh = spec.coset_points(0, spec.encode(2 * M_rows), V.local_orders)
    for hv, pv in zip(V.coset(0).tolist(), two_mh.tolist()):
        if hv in ambiguous or lookup.get(hv, pv) != pv:
            return "linear"
    return M_rows


@pytest.mark.parametrize("group", sorted(_VOTE_PLANTS))
def test_linear_fit_checks_match_reference_loops(group):
    # graphs of h -> 2Ah on random domains, some frequencies replaced at
    # random: the doubled graph then holds two frequencies at many h, and the
    # fit refuses V or reads M off it as the loops do
    spec = parse_group(group)
    p, N = spec.orders[0], spec.order
    A = 2 * np.array(_VOTE_PLANTS[group][0])
    outcomes = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        density, flips = [(0.95, 0.0), (0.6, 0.0), (0.9, 0.01), (0.5, 0.05), (0.97, 0.003)][seed % 5]
        hs = np.flatnonzero(rng.uniform(size=N) < density)
        xis = spec.encode(spec.decode(hs) @ A % p)
        flip = rng.uniform(size=len(hs)) < flips
        xis[flip] = rng.integers(0, N, int(flip.sum()))
        graph = PhaseGraph(spec, hs * N + xis)
        want = _reference_fit_checks(graph)
        try:
            got = linear_component_fit(graph).M_rows
        except EmptyV as exc:
            got = next(k for k, text in (("subspace", "no nontrivial subspace"), ("cover", "does not cover V"),
                                         ("linear", "not linear on V"), ("vote", "affine vote")) if text in str(exc))
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str) and np.array_equal(got, want)
        outcomes.add(want if isinstance(want, str) else "M")
    assert outcomes == {"cover", "M"}


@st.composite
def fit_graphs(draw):
    """A graph h -> Lh, L a random linear map, on a random shift set H of
    F3^2, F5^2, F3^3 or F5^3 (its doubled graph is then linear on 2H - 2H,
    so the fit reaches V whenever dim V > 0), or a random slice of a
    slice_graphs() graph, as the pipeline fits it."""
    if draw(st.booleans()):
        return random_slice(draw(slice_graphs()), draw(st.integers(0, 2**16)))
    spec = parse_group(draw(st.sampled_from(["F3^2", "F5^2", "F3^3", "F5^3"])))
    p, n, N = spec.orders[0], spec.rank, spec.order
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.uniform(size=N) < draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
    mask[rng.integers(N)] = True
    hs = np.flatnonzero(mask)
    return PhaseGraph(spec, hs * N + spec.encode(spec.decode(hs) @ rng.integers(0, p, (n, n)) % p))


@given(gamma=fit_graphs())
def test_bogolyubov_annihilator_never_beats_the_direct_search(gamma):
    # the argument of linear_component_fit's docstring: the annihilator of
    # the Bogolyubov spectrum of the shift set H lies in 2H - 2H, so the
    # largest subspace inside 2H - 2H, the fit's V, is never smaller
    spec, N = gamma.spec, gamma.spec.order
    H = gamma.keys // N
    two = iterated_sumset(spec, H, 2, 2)
    spectrum = np.array([spec.coords_of(xi) for xi in bohr.bogolyubov(spec, H)]).reshape(-1, spec.rank)
    ann = PrimeSubspace.from_generators(spec, kernel_basis_mod_p(spectrum, spec.orders[0]))
    assert np.all(np.isin(ann.coset(0), two))
    largest = largest_subspace_inside(spec, two.tolist())
    assert ann.dim <= largest.dim
    try:
        V = linear_component_fit(gamma).V
    except EmptyV as exc:
        if "no nontrivial subspace" in str(exc):
            assert largest.dim == 0
        return
    assert V == largest


def _reference_restricted_form(fit, W):
    """_restricted_form by one solve_mod_p elimination per basis vector of W,
    the loop that reading coordinates at V's pivot columns replaced."""
    p, B, WB = W.p, fit.V.basis_matrix(), W.basis_matrix()
    tloc = np.zeros((W.dim, fit.V.dim), dtype=np.int64)
    for i, w in enumerate(WB):
        sol = solve_mod_p(B.T, w, p)
        if sol is None:
            raise AssertionError("vector outside subspace")
        tloc[i] = sol
    MW = (tloc @ fit.M_rows) % p
    return (MW @ WB.T) % p


@given(group=st.sampled_from(["F3^2", "F5^2", "F3^3", "F5^3", "F3^4"]), seed=st.integers(0, 2**32 - 1))
def test_restricted_form_matches_solve_loop(group, seed):
    # random V from random generators (any dimension, row-reduced by
    # from_generators) and a random M on it; W = 0, a random W inside V, and
    # W = V agree with the loop, and a W that leaves V is refused by both
    spec = parse_group(group)
    p, n = spec.orders[0], spec.rank
    rng = np.random.default_rng(seed)
    V = PrimeSubspace.from_generators(spec, rng.integers(0, p, (rng.integers(0, n + 1), n)))
    B = V.basis_matrix()
    fit = LinearComponentFit(V, 0, rng.integers(0, p, (V.dim, n)), (0,) * n, 1.0)
    inside = PrimeSubspace.from_generators(spec, rng.integers(0, p, (rng.integers(0, V.dim + 1), V.dim)) @ B % p)
    for W in (PrimeSubspace(spec, ()), inside, V):
        got = _restricted_form(fit, W)
        assert got.shape == (W.dim, W.dim) and np.array_equal(got, _reference_restricted_form(fit, W))
    if V.dim < n:
        outside = PrimeSubspace.from_generators(spec, np.vstack([B, V.complement_basis()[:1]]))
        for form in (_restricted_form, _reference_restricted_form):
            with pytest.raises(AssertionError, match="^vector outside subspace$"):
                form(fit, outside)


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("group", sorted(_VOTE_PLANTS))
def test_linear_fit_vote_tie_across_blocks(group, block, monkeypatch):
    # an exactly quadratic plant has the linear derivative map h -> 2Ah, so
    # every x0 gets |V| votes (for xi0 = 2A x0 + b'); the tie spans every
    # x0 and must resolve to x0 = 0, at every block of the subspace pass
    spec = parse_group(group)
    _subspace_block(monkeypatch, block)
    f, _ = _planted_quadratic(spec, *_VOTE_PLANTS[group])
    sl = random_slice(phase_derivative_graph(f, 0.9), seed=0)
    fit = linear_component_fit(sl)
    assert fit.V.order == spec.order and fit.agreement == 1.0
    assert fit.x0 == 0
    cnt, x0, xi0 = _reference_vote(sl, fit)
    assert (fit.x0, fit.xi0) == (x0, spec.coords_of(xi0)) and cnt == spec.order


def _reference_affine_vote(spec, xi_at, v_idx, neg_two_mh):
    """The vote over x0 and h as plain loops with coordinate arithmetic."""
    best = (0, 0, 0)
    for x0 in range(spec.order):
        votes = {}
        for h, neg in zip(v_idx.tolist(), neg_two_mh.tolist()):
            xi = int(xi_at[coord_add(spec, x0, h)])
            if xi >= 0:
                key = coord_add(spec, xi, neg)
                votes[key] = votes.get(key, 0) + 1
        if votes:
            xi0, cnt = min(votes.items(), key=lambda kv: (-kv[1], kv[0]))
            if cnt > best[0]:
                best = (cnt, x0, xi0)
    return best


def _linear_vote_input(V, M, freqs, density, rng):
    """-2Mh over V.coset(0) for the rows M of a linear map on V's basis, and
    a random partial map xi_at of about that density, defined at one point at
    least, valued in `freqs` random frequencies (None: any of dual(G))."""
    spec, N = V.spec, V.spec.order
    neg_two_mh = spec.neg_indices(spec.coset_points(0, spec.encode(2 * M), V.local_orders))
    domain = rng.uniform(size=N) < density
    domain[rng.integers(0, N)] = True
    values = rng.integers(0, N, N if freqs is None else freqs)
    return np.where(domain, rng.choice(values, N), -1), neg_two_mh


@pytest.mark.parametrize("freqs", [None, 1, 7])
@pytest.mark.parametrize("group", ["F3^2", "F3^3", "F5^2", "F5^3", "F7^2"])
def test_affine_vote_matches_reference_on_random_votes(group, freqs):
    # a random linear M on a random V, and a partial map with `freqs` distinct
    # frequencies (None: any), so that at 1 and 7 the counts tie often
    from u3kit.inverse_f5 import _affine_vote
    from u3kit.modlinalg import PrimeSubspace

    spec = parse_group(group)
    p, n = spec.orders[0], spec.rank
    rng = np.random.default_rng(5)
    for trial in range(6):
        V = PrimeSubspace.from_generators(spec, rng.integers(0, p, (int(rng.integers(1, n + 1)), n)))
        M = rng.integers(0, p, (V.dim, n))
        xi_at, neg_two_mh = _linear_vote_input(V, M, freqs, rng.uniform(0.1, 0.7), rng)
        if trial == 0:
            xi_at[:] = -1
            with pytest.raises(EmptyV, match=rf"^affine vote: .*\(\|sliced graph\| = 0, \|V\| = {V.order}\)$"):
                _affine_vote(xi_at, V, neg_two_mh)
            continue
        assert _affine_vote(xi_at, V, neg_two_mh) == _reference_affine_vote(
            spec, xi_at, V.coset(0), neg_two_mh)


@given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_affine_vote_shear_identity(p, n, seed):
    # vote(x0 + v, xi0) = vote(x0, xi0 - 2Mv) for v in V: each table of votes
    # over xi0 is the table at the coset's least point, shifted by 2Mv
    from u3kit.modlinalg import PrimeSubspace

    spec, N = GroupSpec((p,) * n), p**n
    rng = np.random.default_rng(seed)
    V = PrimeSubspace.from_generators(spec, rng.integers(0, p, (int(rng.integers(1, n + 1)), n)))
    M = rng.integers(0, p, (V.dim, n))
    xi_at, neg_two_mh = _linear_vote_input(V, M, int(rng.integers(1, 8)), rng.uniform(0.1, 0.9), rng)
    v_idx = V.coset(0)

    def table(x0):
        xi = xi_at[spec.add_indices(x0, v_idx)]
        return np.bincount(spec.add_indices(xi, neg_two_mh)[xi >= 0], minlength=N)

    B = V.basis_matrix()
    pivots = np.argmax(B != 0, axis=1)
    for x0 in rng.integers(0, N, 4).tolist():
        base = table(x0)
        for j in rng.integers(0, len(v_idx), 3).tolist():
            shifted = spec.add_indices(np.arange(N), neg_two_mh[j])  # xi0 - 2Mv
            assert np.array_equal(table(spec.add_indices(x0, v_idx[j])), base[shifted])
        # the least point of x0 + V is its one point that is zero at V's pivots
        x = spec.decode(x0)
        assert spec.encode((x - x[pivots] @ B) % p) == V.coset(x0).min()


@pytest.mark.parametrize("freqs", [None, 7])
def test_affine_vote_memory_within_block_bound(freqs):
    # F5^4 with every point in the graph, at V = G and at dim V = 1: the vote
    # gathers each point of G once and counts at most N keys, so it holds a
    # few int64 arrays of length N, never an N x N or (N / |V|) x N count
    from u3kit.inverse_f5 import _affine_vote
    from u3kit.modlinalg import PrimeSubspace

    spec = parse_group("F5^4")
    N = spec.order
    rng = np.random.default_rng(0)
    for V in (PrimeSubspace.whole(spec), PrimeSubspace.from_generators(spec, [[0, 1, 2, 3]])):
        xi_at, neg_two_mh = _linear_vote_input(V, rng.integers(0, 5, (V.dim, 4)), freqs, 1.0, rng)
        peak = traced_peak(lambda: _affine_vote(xi_at, V, neg_two_mh))[1]
        assert peak <= 128 * N + 65536, V.dim


def test_symmetry_subspace_cases():
    spec = parse_group("F5^2")
    from u3kit.inverse_f5 import LinearComponentFit
    from u3kit.modlinalg import PrimeSubspace

    V = PrimeSubspace.whole(spec)
    sym = LinearComponentFit(V, 0, np.array([[1, 2], [2, 4]]) % 5, (0, 0), 1.0)
    W = symmetry_subspace(sym)
    assert W.dim == 2  # symmetric M keeps all of V
    anti = LinearComponentFit(V, 0, np.array([[0, 1], [4, 0]]) % 5, (0, 0), 1.0)
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


def test_obstruction_scans_each_subspace_once(monkeypatch):
    # the oracle cross-check scans all the cosets of W in one batch: one
    # quadratic_scan call, with a row per coset, for the plant on a coset of
    # a hyperplane (W a plane with 5 cosets) as for the global plant (W = G)
    from u3kit import norms

    spec = parse_group("F5^3")
    x = spec.decode(np.arange(spec.order))
    rng = np.random.default_rng(5)
    calls, scan = [], norms.quadratic_scan
    monkeypatch.setattr(norms, "quadratic_scan", lambda fvals, p, k: calls.append(fvals.shape) or scan(fvals, p, k))
    for on_coset in (True, False):
        A = rng.integers(0, 5, (3, 3))
        q = (np.einsum("ni,ij,nj->n", x, (A + A.T) % 5, x) + x @ rng.integers(0, 5, 3)) % 5
        vals = np.exp(2j * np.pi * q / 5) * (x[:, 0] == 2 if on_coset else 1)
        f = GroupFunction(spec, vals + 0.05 * np.exp(2j * np.pi * rng.uniform(size=spec.order)))
        calls.clear()
        rep = quadratic_obstruction(f, 0.5, seed=1)
        assert rep.W.dim == (2 if on_coset else 3)
        assert calls == [(len(rep.witnesses), rep.W.order)]
        assert sorted(rep.oracle_check) == sorted(rep.witnesses)


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
       eta=st.sampled_from([0.3, 0.5]), seed=st.integers(0, 2**16), on_coset=st.booleans())
def test_obstruction_invariants_on_random_odd_fp(group, noise, eta, seed, on_coset):
    # a planted x.Mx + xi.x phase with noise on any odd F_p^n, whole or cut to
    # one coset of a hyperplane (the shape of half the planted bench inputs,
    # whose U^3 gowers_norm takes on a support window): a report or a
    # U3KitError, the U^3 read off the graph's transforms equal to
    # gowers_norm's, every bias the correlation with its witness phase, and
    # the oracle on each cross-checked coset at least that bias
    spec = parse_group(group)
    p, n = spec.orders[0], spec.rank
    rng = np.random.default_rng(seed)
    M = rng.integers(0, p, (n, n))
    f, _ = _planted_quadratic(spec, (M + M.T) % p, rng.integers(0, p, n))
    f = GroupFunction(spec, f.values + noise * np.exp(2j * np.pi * rng.uniform(size=spec.order)))
    if on_coset:
        normal = rng.integers(0, p, n)
        normal[rng.integers(n)] = rng.integers(1, p)  # nonzero: a hyperplane
        f = GroupFunction(spec, np.where(spec.decode(np.arange(spec.order)) @ normal % p == rng.integers(p),
                                         f.values, 0))
    try:
        rep = quadratic_obstruction(f, eta, seed=seed)
    except U3KitError:
        return
    assert abs(rep.u3_value - gowers_norm(f, 3, unchecked=True).value) <= 1e-12
    for w, b in rep.witnesses.values():
        assert abs(bias_against(w, f) - b) < 1e-10
    for y, val in rep.oracle_check.items():
        assert rep.witnesses[y][1] <= val + 1e-9


def test_obstruction_refuses_at_the_slice_before_the_quadruples(monkeypatch):
    # the quadruple count does not feed the slice, so the slice runs first:
    # when it refuses, additive_quadruples is never called
    from u3kit.errors import BudgetExceeded

    spec = parse_group("F5^3")
    f, _ = _planted_quadratic(spec, *_VOTE_PLANTS["F5^3"])
    rng = np.random.default_rng(0)
    noisy = rng.uniform(size=spec.order) < 0.2
    f = GroupFunction(spec, np.where(noisy, np.exp(2j * np.pi * rng.uniform(size=spec.order)), f.values))

    def uncalled(gamma):
        raise AssertionError("additive_quadruples ran before the slice refused")

    monkeypatch.setattr(inverse_f5, "additive_quadruples", uncalled)
    monkeypatch.setattr(bohr, "SUMSET_BUDGET", 1000)
    with pytest.raises(BudgetExceeded, match=r"^pair sumset budget exceeded at plus fold 2 of 8: "):
        quadratic_obstruction(f, 0.5, seed=0)


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
    """The subspace search over a Python set, point by point, one canonical
    basis at a time."""
    from u3kit.modlinalg import PrimeSubspace, subspace_bases

    mem = set(int(i) for i in members)
    for k in range(spec.rank, -1, -1):
        for mats in subspace_bases(spec.orders[0], spec.rank, k, 1):
            W = PrimeSubspace(spec, tuple(tuple(int(v) for v in row) for row in mats[0]))
            if all(int(i) in mem for i in W.coset(0).tolist()):
                return W
    return PrimeSubspace(spec, ())


def test_subspace_bases_list_each_subspace_once():
    # the canonical bases of F3^3, F5^2 and F2^4, in any block: row-reduced, in
    # lexicographic order of (pivot columns, entries), and as many as the
    # Gaussian binomial counts
    from u3kit.modlinalg import rref_mod_p, subspace_bases

    for p, n in ((3, 3), (5, 2), (2, 4)):
        for k in range(n + 1):
            blocks = [list(subspace_bases(p, n, k, b)) for b in (1, 4, 10**6)]
            assert all(1 <= len(m) <= b for ms, b in zip(blocks, (1, 4, 10**6)) for m in ms)
            flat = [np.concatenate(ms) for ms in blocks]
            assert all(np.array_equal(flat[0], f) for f in flat)
            count = np.prod([(p ** (n - i) - 1) / (p ** (k - i) - 1) for i in range(k)])
            assert len(flat[0]) == round(count)
            pivots = [tuple(np.argmax(m != 0, axis=1)) for m in flat[0]]
            order = [(piv, tuple(m.ravel())) for piv, m in zip(pivots, flat[0])]
            assert order == sorted(order) and len(set(order)) == len(order)
            for m in flat[0]:
                assert np.array_equal(rref_mod_p(m, p)[0], m)


@pytest.mark.parametrize("group", ["F3^3", "F5^2", "F3^4"])
def test_largest_subspace_inside_matches_set_search(group, monkeypatch):
    # member sets: a random subspace (or two) plus random extra points, some
    # without 0, and plain random sets of every density; each at the default
    # block of the subspace pass and at blocks of 1 and 7 points
    from u3kit.modlinalg import PrimeSubspace, largest_subspace_inside

    spec = parse_group(group)
    p, n, N = spec.orders[0], spec.rank, spec.order
    rng = np.random.default_rng(11)
    for trial in range(40):
        mask = rng.uniform(size=N) < rng.uniform(0, 0.6)
        for _ in range(trial % 3):
            W = PrimeSubspace.from_generators(spec, rng.integers(0, p, (int(rng.integers(1, n)), n)))
            mask[W.coset(0)] = True
        if trial % 5 == 4:
            mask[0] = False
        members = np.flatnonzero(mask).tolist()
        want = _reference_largest_subspace(spec, members)
        for block in (None, 1, 7):
            with monkeypatch.context() as mp:
                _subspace_block(mp, block)
                assert largest_subspace_inside(spec, members) == want
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
        (CosetQuadraticWitness(y, W, A, tuple(int(v) for v in bc)), bias)
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
    hs = gamma.keys // spec.order
    rows = f.values[spec.add_indices(np.arange(spec.order)[None, :], hs[:, None])] * np.conj(f.values)
    assert (gamma.keys % spec.order).tolist() == lex_first_in_band(spec, rows).tolist()

    assert u2_bias(f).witness == int(lex_first_in_band(spec, f.values))

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
