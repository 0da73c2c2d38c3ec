import itertools

import numpy as np
import pytest

from conftest import random_pm1
from u3kit.errors import EmptyGraph, EmptyV
from u3kit.groups import GroupFunction, parse_group
from u3kit.inverse_f5 import (
    additive_quadruples,
    linear_component_fit,
    phase_derivative_graph,
    quadratic_obstruction,
    random_slice,
    symmetry_subspace,
)
from u3kit.norms import gowers_norm, u3_oracle_coset


def _planted_quadratic(spec, A, b):
    coords = spec.decode(np.arange(spec.order))
    q = (np.einsum("ni,ij,nj->n", coords, np.asarray(A), coords) + coords @ np.asarray(b)) % 5
    return GroupFunction(spec, np.exp(2j * np.pi * q / 5)), q


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
    ones = GroupFunction.constant(spec, 1.0)
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
    most votes, then smallest xi0, then smallest x0."""
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


def test_linear_fit_vote_matches_reference_loop():
    spec = parse_group("F5^3")
    A = np.array([[1, 2, 0], [2, 0, 3], [0, 3, 4]])
    checked = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        f, _ = _planted_quadratic(spec, A, [1, 0, 2])
        noisy = rng.uniform(size=spec.order) < 0.15
        vals = np.where(noisy, np.exp(2j * np.pi * rng.uniform(size=spec.order)), f.values)
        try:
            sl = random_slice(phase_derivative_graph(GroupFunction(spec, vals), 0.6), seed=seed)
            fit = linear_component_fit(sl)
        except (EmptyGraph, EmptyV):
            continue
        cnt, x0, xi0 = _reference_vote(sl.graph, fit)
        assert fit.x0.index == x0 and fit.xi0 == spec.coords_of(xi0)
        assert fit.agreement == cnt / fit.V.order
        checked += 1
    assert checked >= 3


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
        assert abs(w.bias_against(f) - b) < 1e-10
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


def test_quadruple_statistic_planted():
    # at threshold eta with a planted pure quadratic the quadruple-count
    # floor 2^-8 eta^64 N^3 is nonvacuous and holds
    spec = parse_group("F5^2")
    f, _ = _planted_quadratic(spec, [[1, 1], [1, 2]], [0, 0])
    eta = 0.9
    g = phase_derivative_graph(f, eta)
    quads = additive_quadruples(g)
    assert quads >= 2**-8 * eta**64 * 25**3
