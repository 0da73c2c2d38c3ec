from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import constant, random_bounded, reference_cyclic_scan, reference_sampled_scan, solve_mod_p
from u3kit import experiments, norms
from u3kit.errors import BudgetExceeded, Has4Ap, NotPrime, TooSmall
from u3kit.experiments import (
    FwSpec,
    IncrementThresholds,
    _creates_proper_kap,
    _increment_candidates,
    _kap_offsets,
    ap_free_search,
    density_increment_f5,
    fw_counterexample,
    quadratic_correlation_scan,
    smooth_cutoff,
    szemeredi_driver,
)
from u3kit.forms import count_aps
from u3kit.groups import GroupFunction, GroupSpec, parse_group
from u3kit.inverse_f5 import coset_reps
from u3kit.modlinalg import BoxSubgroup, PrimeSubspace, is_prime, kernel_basis_mod_p, span_points
from u3kit.norms import CosetQuadraticWitness, u3_oracle_coset
from u3kit.quadratic import degenerate_subspace


def test_fw_spec():
    assert FwSpec.for_modulus(1009).M == 31
    with pytest.raises(NotPrime):
        FwSpec.for_modulus(1000)
    with pytest.raises(TooSmall):
        FwSpec.for_modulus(101)


def test_is_prime_matches_a_sieve():
    n = 10**5
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for i in range(2, 317):  # 317^2 > n
        if sieve[i]:
            sieve[i * i :: i] = False
    assert [is_prime(k) for k in range(n)] == sieve.tolist()
    assert not any(is_prime(k) for k in (-7, -2, -1))
    # a Carmichael number, and the least strong pseudoprimes to the bases 2-7
    # and to the bases 2-23 (= 149491 * 747451 * 34233211)
    for composite in (561, 3215031751, 3825123056546413051):
        assert not is_prime(composite)
    assert is_prime(2**63 - 25) and is_prime(2**64 + 13)


def test_fw_center_and_cutoff_boundary():
    f = fw_counterexample(401)
    assert abs(f.values[0] - 1.0) < 1e-12  # f(0) = psi(0)^2 = 1
    # support shape: indices y M + z with both cutoffs nonzero
    M = FwSpec.for_modulus(401).M  # 20
    assert abs(f.values[1]) == smooth_cutoff(0) * smooth_cutoff(1 / M)
    assert np.max(np.abs(f.values)) <= 1.0 + 1e-12
    # exact support check
    expected = set()
    for y in range(-M // 10 - 1, M // 10 + 2):
        for z in range(-M // 10 - 1, M // 10 + 2):
            if smooth_cutoff(y / M) > 0 and smooth_cutoff(z / M) > 0:
                expected.add((y * M + z) % 401)
    got = {i for i, v in enumerate(f.values) if abs(v) > 0}
    assert got == expected


def test_fw_boundary_value_vanishes():
    # at N = 401 with M = 20, psi(2/20) = psi(0.1) = 0
    f = fw_counterexample(401)
    assert f.values[2] == 0


def test_scan_planted_quadratic(monkeypatch):
    spec = parse_group("Z/101")
    x = np.arange(101)
    f = GroupFunction(spec, np.exp(2j * np.pi * (3 * x * x + x) / 101))
    res = quadratic_correlation_scan(f, "exhaustive")
    assert res.value > 1 - 1e-9 and (res.a, res.b) == (3, 1)
    monkeypatch.setattr(experiments, "SCAN_SAMPLES", 20000)
    res2 = quadratic_correlation_scan(f, "sampled", seed=4)
    assert res2.value > 1 - 1e-9 or (res2.a, res2.b) == (3, 1) or res2.value >= res.value - 0.2


def test_scan_zero_and_budget():
    spec = parse_group("Z/101")
    zero = constant(spec, 0.0)
    assert quadratic_correlation_scan(zero, "exhaustive").value == 0.0
    # the scan is priced at N^2 (1 + ceil(log2 N)) multiply-adds against
    # ORACLE_BUDGET: Z/11547 is the largest group it admits
    assert norms._scan_price(11547, 1) <= norms.ORACLE_BUDGET < norms._scan_price(11548, 1)
    big = constant(parse_group("Z/11548"), 0.0)
    with pytest.raises(BudgetExceeded, match=f"> ORACLE_BUDGET = {norms.ORACLE_BUDGET}"):
        quadratic_correlation_scan(big, "exhaustive")


@settings(max_examples=20)
@given(N=st.integers(0, 700).map(lambda i: 2 * i + 1), kind=st.sampled_from(["random", "planted", "zero", "constant"]),
       seed=st.integers(0, 2**32 - 1))
@example(N=1301, kind="planted", seed=0)  # the old price of h^3 refused the oracle on it, the scan admitted it
@example(N=1, kind="random", seed=0)  # the one-point oracle took hypot, 1 ulp above the scan here
def test_coset_oracle_and_exhaustive_scan_agree(N, kind, seed):
    # one kernel, one price: on a whole cyclic group both give the same
    # value and the same (a, b); on one point the oracle reads |f(0)| off f,
    # with the zero phase that the scan's tie rule gives
    spec = parse_group(f"Z/{N}")
    rng = np.random.default_rng(seed)
    if kind == "random":
        f = random_bounded(spec, rng)
    elif kind == "planted":
        x = np.arange(N)
        a, b = rng.integers(0, N, 2)
        f = GroupFunction(spec, (np.exp(2j * np.pi * ((a * x * x + b * x) % N) / N) + 0.3 * random_bounded(spec, rng).values) / 1.3)
    else:
        f = constant(spec, 0.0 if kind == "zero" else 1.0)
    rep = u3_oracle_coset(f, (0, BoxSubgroup.whole(spec)))
    res = quadratic_correlation_scan(f, "exhaustive")
    assert rep.value == res.value
    assert (rep.witness.A, rep.witness.b) == (((res.a,),), (res.b,))


def test_scan_consistency_planted(rng):
    # exhaustive and sampled agree on the argmax for planted pure quadratics
    spec = parse_group("Z/101")
    x = np.arange(101)
    for _ in range(3):
        a, b = int(rng.integers(101)), int(rng.integers(101))
        f = GroupFunction(spec, np.exp(2j * np.pi * (a * x * x + b * x) / 101))
        ex = quadratic_correlation_scan(f, "exhaustive")
        assert (ex.a, ex.b) == (a, b)


@pytest.mark.parametrize("N", [25, 45, 121, 128])
def test_scan_exact_ties_give_zero_phase(N):
    # every (a, b) ties exactly on a point mass; the witness must not depend
    # on rounding
    spec = parse_group(f"Z/{N}")
    cases = [(constant(spec, 0.0), 0.0), (constant(spec, 1.0), 1.0),
             (GroupFunction.indicator(spec, [1]), 1 / N), (GroupFunction.indicator(spec, [N - 1]), 1 / N)]
    for f, value in cases:
        res = quadratic_correlation_scan(f, "exhaustive")
        assert abs(res.value - value) < 1e-12
        assert (res.a, res.b) == (0, 0)


@given(data=st.data())
def test_scan_matches_reference_property(data):
    # any modulus up to the limit, even and composite ones included
    N = data.draw(st.integers(1, 512))
    spec = parse_group(f"Z/{N}")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["dense", "planted", "zero", "constant"]))
    x = np.arange(N)
    if kind == "dense":
        f = random_bounded(spec, rng)
    elif kind == "planted":
        a, b = rng.integers(0, N, 2)
        noise = 0.3 * rng.uniform(-1, 1, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
        f = GroupFunction(spec, (np.exp(2j * np.pi * ((a * x * x + b * x) % N) / N) + noise) / 1.3)
    else:
        f = constant(spec, 0.0 if kind == "zero" else 1.0)
    res = quadratic_correlation_scan(f, "exhaustive")
    value, (a, b), table = reference_cyclic_scan(f.values, N)
    assert abs(res.value - value) < 1e-12
    assert res.pairs_examined == N * N
    top, second = np.sort(table.ravel())[-1:-3:-1] if N > 1 else (value, -1.0)
    if top - second > 1e-9:
        assert (res.a, res.b) == (a, b)


@settings(max_examples=150)
@given(data=st.data())
def test_sampled_scan_matches_reference_property(data):
    # FFT rows read at the sampled pairs, and the pairs of sparse rows summed
    # one by one, give the gather loop's value; the pair differs only among
    # sampled pairs that tie, and is then the lex-first of them
    N = data.draw(st.integers(1, 600))
    spec = parse_group(f"Z/{N}")
    seed = data.draw(st.integers(0, 2**32 - 1))
    samples = data.draw(st.integers(0, 300))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["dense", "real", "planted", "zero", "constant", "point"]))
    x = np.arange(N)
    if kind == "dense":
        f = random_bounded(spec, rng)
    elif kind == "real":  # |corr(a, b)| = |corr(-a, -b)|: ties across rows
        f = GroupFunction(spec, rng.uniform(-1, 1, N))
    elif kind == "planted":
        a, b = rng.integers(0, N, 2)
        noise = 0.3 * rng.uniform(-1, 1, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
        f = GroupFunction(spec, (np.exp(2j * np.pi * ((a * x * x + b * x) % N) / N) + noise) / 1.3)
    elif kind == "point":
        f = GroupFunction.indicator(spec, [int(rng.integers(N))])
    else:
        f = constant(spec, 0.0 if kind == "zero" else 1.0)
    with mock.patch.object(experiments, "SCAN_SAMPLES", samples):
        res = quadratic_correlation_scan(f, "sampled", seed=seed)
    value, (a, b), pairs, values = reference_sampled_scan(f.values, N, seed, samples)
    assert abs(res.value - value) < 1e-12
    assert res.pairs_examined == len({(int(p), int(q)) for p, q in pairs}) <= N * N
    sq = values**2
    tied = sorted({(int(p), int(q)) for p, q in pairs[sq >= sq.max() * (1 - norms._TIE_RTOL)]})
    assert (res.a, res.b) == ((a, b) if len(tied) == 1 else tied[0])


def test_sampled_scan_counts_distinct_pairs():
    # Z/2 has 4 pairs (a, b), and the SCAN_SAMPLES seeded pairs hit all of
    # them: the count is of pairs scanned, not of draws
    f = GroupFunction(parse_group("Z/2"), np.array([1.0, 0.0]))
    res = quadratic_correlation_scan(f, "sampled")
    assert res.pairs_examined == 4 and (res.value, res.a, res.b) == (0.5, 0, 0)


def test_ap_free_search():
    Z13 = parse_group("Z/13")
    best = ap_free_search(Z13, 4, "exhaustive")
    assert count_aps(Z13, best, 4).proper == 0
    assert len(best) >= 4  # {0,1,2,4} is 4-AP-free
    Z5 = parse_group("Z/5")
    s = ap_free_search(Z5, 4, "greedy", seed=1)
    assert count_aps(Z5, s, 4).proper == 0
    Z1 = parse_group("Z/1")
    assert ap_free_search(Z1, 4, "exhaustive") in ([], [0])
    with pytest.raises(BudgetExceeded):
        ap_free_search(parse_group("Z/101"), 4, "exhaustive")


def reference_creates_proper_kap(spec: GroupSpec, members: set[int], x: int, k: int) -> bool:
    """The scalar loop over r and j that the batched test replaced."""
    N = spec.order
    full = members | {x}
    if spec.rank == 1:
        for r in range(1, N):
            for j in range(k):
                base = (x - j * r) % N
                pts = [(base + i * r) % N for i in range(k)]
                if len(set(pts)) == k and all(p in full for p in pts):
                    return True
        return False
    xc = np.array(spec.coords_of(x), dtype=np.int64)
    orders = np.array(spec.orders, dtype=np.int64)
    for r in range(1, N):
        rc = np.array(spec.coords_of(r), dtype=np.int64)
        for j in range(k):
            pts = [int(spec.encode((xc + (i - j) * rc) % orders)) for i in range(k)]
            if len(set(pts)) == k and all(p in full for p in pts):
                return True
    return False


# Z/12 and Z/4 x Z/6 have steps r of order 2 and 3, below k: those progressions
# repeat a point and are not proper
@pytest.mark.parametrize("group", ["Z/13", "Z/12", "Z/4xZ/6", "F5^2", "Z/2xZ/2xZ/3", "F3^3", "Z/7xZ/2", "Z/1"])
@given(data=st.data())
def test_creates_proper_kap_matches_loop(group, data):
    spec = parse_group(group)
    k = data.draw(st.sampled_from([3, 4]))
    members = data.draw(st.sets(st.integers(0, spec.order - 1)))
    x = data.draw(st.integers(0, spec.order - 1))
    member = np.zeros(spec.order, dtype=bool)
    member[list(members | {x})] = True
    got = _creates_proper_kap(spec, member, x, _kap_offsets(spec, k))
    assert got == reference_creates_proper_kap(spec, members, x, k)


def reference_ap_free_greedy(spec: GroupSpec, k: int, seed: int) -> list[int]:
    """The greedy search as it was: a set of members, rebuilt into a mask
    and tested by the scalar loop for every candidate."""
    chosen: set[int] = set()
    for x in np.random.default_rng(seed).permutation(spec.order).tolist():
        if not reference_creates_proper_kap(spec, chosen, int(x), k):
            chosen.add(int(x))
    return sorted(chosen)


@pytest.mark.parametrize("group", ["Z/13", "Z/12", "Z/4xZ/6", "F5^2", "F3^3", "Z/1"])
@given(seed=st.integers(0, 2**31 - 1), k=st.sampled_from([3, 4]))
@settings(max_examples=10)
def test_ap_free_greedy_matches_reference(group, seed, k):
    spec = parse_group(group)
    assert ap_free_search(spec, k, "greedy", seed=seed) == reference_ap_free_greedy(spec, k, seed)


def reference_ap_free_mask_loop(spec: GroupSpec, k: int, seed: int) -> list[int]:
    """The greedy search as it was before the `closes` marks: one gather of
    the progressions through every candidate, on a mask of the members."""
    offsets = _kap_offsets(spec, k)
    member = np.zeros(spec.order, dtype=bool)
    for x in np.random.default_rng(seed).permutation(spec.order).tolist():
        member[x] = True  # kept unless it closes a proper k-AP
        member[x] = not _creates_proper_kap(spec, member, x, offsets)
    return np.flatnonzero(member).tolist()


# F3^4 has p < k = 4, so its 4-term progressions repeat a point and none is
# proper; Z/8 has steps of order 2 and 4
@pytest.mark.parametrize("group", ["F5^2", "F5^3", "F7^2", "F3^4", "Z/101", "Z/8"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ap_free_greedy_matches_mask_loop(group, k):
    spec = parse_group(group)
    for seed in range(3):
        assert ap_free_search(spec, k, "greedy", seed=seed) == reference_ap_free_mask_loop(spec, k, seed)


def test_density_increment_planted_quadric(rng):
    spec = parse_group("F5^3")
    coords = spec.decode(np.arange(125))
    M = np.array([[1, 2, 0], [2, 0, 1], [0, 1, 4]])
    q = (np.einsum("ni,ij,nj->n", coords, M, coords) + coords @ np.array([1, 0, 2])) % 5
    A = [int(i) for i in np.nonzero(q == 0)[0]]
    rep = density_increment_f5(spec, A, IncrementThresholds(force=True))
    assert rep.new_density > rep.old_density
    # densities re-derivable from A and the coset by direct counting
    basis = np.array(rep.coset_basis, dtype=np.int64).reshape(-1, 3)
    base = spec.index_of(list(rep.coset_base))
    in_A = np.zeros(125)
    in_A[A] = 1
    k = basis.shape[0]
    if k:
        grids = np.meshgrid(*[np.arange(5)] * k, indexing="ij")
        t = np.stack([g.reshape(-1) for g in grids], axis=-1)
        pts = spec.add_indices(spec.encode((t @ basis) % 5), np.int64(base))
        assert abs(float(np.mean(in_A[pts])) - rep.new_density) < 1e-12


def _reference_increment_candidates(spec, in_A, W, witnesses):
    """The increment's candidates by the first loop: per coset z + U and
    level t, one solve_mod_p and one kernel_basis_mod_p elimination, and
    each candidate listed again through coset_points for its density."""
    p, n = spec.orders[0], spec.rank

    def density(base, basis):
        return float(np.mean(in_A[spec.coset_points(base, spec.encode(basis), (p,) * len(basis))]))

    WB = W.basis_matrix()
    candidates = [(density(y, WB), y, WB, None, None) for y in witnesses]
    best_y, (wit, bias) = max(witnesses.items(), key=lambda kv: kv[1][1])
    if bias < experiments.MIN_WITNESS_BIAS or W.dim == 0:
        return candidates, None
    A_loc = np.array(wit.A, dtype=np.int64).reshape(W.dim, W.dim)
    U = degenerate_subspace(A_loc, PrimeSubspace.whole(GroupSpec((p,) * W.dim)))
    UB_loc = U.basis_matrix()
    UB = (UB_loc @ WB) % p if U.dim else np.zeros((0, n), dtype=np.int64)
    reps_loc = span_points(U.complement_basis(), p)
    zs = spec.add_indices(best_y, spec.encode(reps_loc @ WB))
    b_loc = np.array(wit.b, dtype=np.int64)
    for rep, z in zip(reps_loc, zs.tolist()):
        base_val = int((rep @ A_loc @ rep + b_loc @ rep) % p)
        lin = ((2 * (rep @ A_loc) + b_loc) @ UB_loc.T) % p if U.dim else np.zeros(0, np.int64)
        for t in range(p):
            target = (t - base_val) % p
            if np.all(lin % p == 0):
                if target:
                    continue
                off, basis = 0, UB
            else:
                sol = solve_mod_p(lin.reshape(1, -1), np.array([target]), p)
                if sol is None:
                    continue
                ker = kernel_basis_mod_p(lin.reshape(1, -1), p)
                off = int(spec.encode((sol @ UB) % p))
                basis = (ker @ UB) % p if ker.shape[0] else np.zeros((0, n), dtype=np.int64)
            zz = int(spec.add_indices(np.int64(z), np.int64(off)))
            candidates.append((density(zz, basis), zz, basis, t, U.dim))
    return candidates, U.dim


def _witnesses(spec, W, A_loc, bs, biases):
    """One witness per coset of W, the form A_loc on all, as the obstruction
    pipeline reports them."""
    return {
        y: (CosetQuadraticWitness(y, W, tuple(map(tuple, A_loc.tolist())), tuple(b)), bias)
        for y, b, bias in zip(coset_reps(W).tolist(), bs.tolist(), biases)
    }


def _assert_candidates_match(spec, in_A, W, witnesses):
    got, dim_u = _increment_candidates(spec, in_A, W, witnesses)
    ref, ref_dim_u = _reference_increment_candidates(spec, in_A, W, witnesses)
    assert dim_u == ref_dim_u
    assert [(d, y, B.tolist(), t, k) for d, y, B, t, k in got] == \
        [(d, y, B.tolist(), t, k) for d, y, B, t, k in ref]
    return dim_u


@st.composite
def increment_inputs(draw):
    """A random set (possibly empty, full or sparse, so densities tie), a
    random W (possibly trivial), one symmetric form (possibly zero, so lin
    can vanish) and random b and biases (possibly all below the cut)."""
    p, n = draw(st.sampled_from([(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4), (7, 2)]))
    spec = GroupSpec((p,) * n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    in_A = (rng.random(spec.order) < draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))).astype(np.float64)
    W = PrimeSubspace.from_generators(spec, rng.integers(0, p, size=(draw(st.integers(0, n)), n)))
    A_loc = rng.integers(0, p, size=(W.dim, W.dim)) * draw(st.sampled_from([0, 1]))
    A_loc = (A_loc + A_loc.T) % p
    bs = rng.integers(0, p, size=(p ** (n - W.dim), W.dim)) * draw(st.sampled_from([0, 1]))
    biases = rng.choice([0.0, 0.25, 0.5], size=len(bs)).tolist()
    return spec, in_A, W, _witnesses(spec, W, A_loc, bs, biases)


@given(increment_inputs())
def test_increment_candidates_match_reference_loop(case):
    _assert_candidates_match(*case)


@pytest.mark.parametrize("p, form, b, dim_u", [
    (5, [[1]], [0], 0),  # x^2 is anisotropic: dim U = 0, and lin is empty
    (3, [[1, 0], [0, 1]], [1, 2], 0),  # x^2 + y^2 over F_3: no isotropic vector
    (5, [[0, 0], [0, 0]], [0, 0], 2),  # zero phase: lin = 0 on every coset of U = W
    (5, [[0, 1], [1, 0]], [2, 0], 1),  # 2xy + 2x: U a line, lin != 0 on some cosets
])
def test_increment_candidates_built_cases(p, form, b, dim_u):
    # degenerate subspaces that random forms reach rarely or not at all; the
    # half-dense set gives each coset its own density, the empty set ties all
    spec = GroupSpec((p,) * 3)
    W = PrimeSubspace.from_generators(spec, np.eye(3, dtype=np.int64)[: len(form)])
    bs = np.array([b] * p ** (3 - W.dim))
    for in_A in (np.arange(spec.order) % 2.0, np.zeros(spec.order)):
        witnesses = _witnesses(spec, W, np.array(form), bs, [0.5] * len(bs))
        assert _assert_candidates_match(spec, in_A, W, witnesses) == dim_u
    trivial = PrimeSubspace(spec, ())  # dim W = 0: the plain points only
    witnesses = _witnesses(spec, trivial, np.zeros((0, 0), dtype=np.int64), np.zeros((spec.order, 0), int),
                           [0.5] * spec.order)
    assert _assert_candidates_match(spec, np.arange(spec.order) % 2.0, trivial, witnesses) is None


def test_density_increment_guards():
    spec = parse_group("F5^2")
    with pytest.raises(Has4Ap):
        density_increment_f5(spec, range(25))
    from u3kit.errors import DensityTooLow

    with pytest.raises(DensityTooLow):
        density_increment_f5(spec, [])


def test_driver_terminal_states(rng):
    spec = parse_group("F5^3")
    # random dense set: has a 4-AP immediately
    A = [int(i) for i in np.nonzero(rng.uniform(size=125) < 0.9)[0]]
    trace = szemeredi_driver(spec, A)
    assert trace[-1].outcome == "has-4ap" and trace[-1].depth == 0
    # planted quadric level set: strictly increasing densities until terminal
    coords = spec.decode(np.arange(125))
    M = np.array([[1, 2, 0], [2, 0, 1], [0, 1, 4]])
    q = (np.einsum("ni,ij,nj->n", coords, M, coords)) % 5
    A2 = [int(i) for i in np.nonzero(q == 0)[0]]
    # remove the 4-APs greedily to satisfy the driver precondition
    A2free = []
    for x in A2:
        if count_aps(spec, A2free + [x], 4).proper == 0:
            A2free.append(x)
    trace = szemeredi_driver(spec, A2free)
    densities = [s.density for s in trace]
    assert all(b >= a - 1e-12 for a, b in zip(densities, densities[1:]))
    assert trace[-1].outcome in ("has-4ap", "full-density", "dimension-floor", "pipeline-empty")


def test_driver_counts_aps_once_per_step():
    # the driver checks each step's set for a 4-AP itself, so the increment
    # it calls must not count the same set again
    spec = parse_group("F5^3")
    A = ap_free_search(spec, 4, seed=0)
    with mock.patch.object(experiments, "count_aps", wraps=count_aps) as counted:
        trace = szemeredi_driver(spec, A)
    assert [s.outcome for s in trace] == ["increment", "dimension-floor"]
    assert counted.call_count == len(trace)

    def unforced(spec, A, th):  # the increment with its own 4-AP check
        return density_increment_f5(spec, A, replace(th, force=False))

    with mock.patch.object(experiments, "density_increment_f5", unforced):
        assert szemeredi_driver(spec, A) == trace


@pytest.mark.parametrize("eta", [None, 0.2])
def test_increment_makes_one_derivative_pass(eta):
    # the graph's transforms give U^3 and, with eta None, the eta of its cut,
    # so the step runs no separate Gowers-norm pass
    spec = parse_group("F5^3")
    A = ap_free_search(spec, 4, seed=0)
    with mock.patch.object(norms, "dft_values", wraps=norms.dft_values) as counted:
        rep = density_increment_f5(spec, A, IncrementThresholds(eta=eta))
    assert counted.call_count == 0
    alpha = len(A) / spec.order
    f = GroupFunction(spec, np.isin(np.arange(spec.order), A) - alpha)
    assert rep.u3_value == rep.obstruction.u3_value
    assert abs(rep.u3_value - norms.gowers_norm(f, 3).value) <= 1e-12
    want = max(0.8 * rep.u3_value, 1e-3) if eta is None else eta
    assert rep.eta_used == rep.obstruction.eta == want
