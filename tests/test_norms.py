import os
import sys
import threading
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bias_against, constant, random_bounded, random_unimodular, reference_cyclic_scan, traced_peak
from u3kit import norms
from u3kit.errors import BudgetExceeded, DegreeUnsupported, EvenOrder, NotBounded, NotPrime, TooSmall
from u3kit.experiments import quadratic_correlation_scan
from u3kit.fourier import dft_values
from u3kit.groups import GroupFunction, GroupSpec, parse_group
from u3kit.modlinalg import BoxSubgroup, PrimeSubspace
from u3kit.norms import gowers_norm, u2_bias, u3_oracle_bracket, u3_oracle_coset
from u3kit.quadratic import BracketQuadratic


def test_constant_function_norms():
    spec = parse_group("Z/4xZ/9")
    ones = constant(spec, 1.0)
    for d in (1, 2, 3, 4):
        assert abs(gowers_norm(ones, d).value - 1.0) < 1e-12


def test_indicator_derived_values():
    Z5 = parse_group("Z/5")
    f = GroupFunction.indicator(Z5, [0])
    # frozen from the exhaustive cube-enumeration oracle
    assert abs(gowers_norm(f, 2).value - 5 ** (-3 / 4)) < 1e-12
    assert abs(gowers_norm(f, 3).value - 5 ** (-1 / 2)) < 1e-12
    assert abs(gowers_norm(f, 2, method="direct").value - 5 ** (-3 / 4)) < 1e-12
    assert abs(gowers_norm(f, 3, method="direct").value - 5 ** (-1 / 2)) < 1e-12


def test_degree_bounds():
    f = constant(parse_group("Z/5"), 1.0)
    with pytest.raises(DegreeUnsupported):
        gowers_norm(f, 5)
    with pytest.raises(DegreeUnsupported):
        gowers_norm(f, 0)


def test_bounded_enforcement():
    spec = parse_group("Z/5")
    f = GroupFunction(spec, np.full(5, 2.0, dtype=complex))
    with pytest.raises(NotBounded):
        gowers_norm(f, 2)
    assert gowers_norm(f, 2, unchecked=True).value > 1.0


def test_quadratic_phase_invariance():
    Z5 = parse_group("Z/5")
    f = GroupFunction(Z5, np.exp(2j * np.pi * np.arange(5) ** 2 / 5))
    assert abs(gowers_norm(f, 3).value - 1.0) < 1e-9


def test_phase_invariance_random(rng):
    # ||f e(phi)||_{U^d} = ||f||_{U^d} for phi polynomial of degree <= d-1
    Z31 = parse_group("Z/31")
    f = random_bounded(Z31, rng)
    xs = np.arange(31)
    for d, phase in ((2, xs * 7), (3, 3 * xs * xs + xs)):
        tw = GroupFunction(Z31, f.values * np.exp(2j * np.pi * phase / 31))
        assert abs(gowers_norm(tw, d).value - gowers_norm(f, d).value) < 1e-9


def test_monotonicity(rng):
    for gs in ("Z/31", "Z/4xZ/9", "F5^2", "Z/64"):
        spec = parse_group(gs)
        f = random_bounded(spec, rng)
        vals = [gowers_norm(f, d).value for d in (1, 2, 3, 4)]
        for a, b in zip(vals, vals[1:]):
            assert a <= b + 1e-9


def test_direct_recursive_agreement(rng):
    # F3^3 and Z/2^4 put several axes into one dense block of the transform
    for gs in ("Z/11", "Z/17", "Z/4xZ/4", "F5^1", "F3^3", "Z/2xZ/2xZ/2xZ/2"):
        spec = parse_group(gs)
        f = random_bounded(spec, rng)
        for d in (2, 3):
            a = gowers_norm(f, d, method="direct").value
            b = gowers_norm(f, d, method="recursive").value
            assert abs(a - b) / max(a, 1e-6) < 1e-8


def test_u2_fourth_moment_identity(rng):
    for gs in ("Z/31", "Z/4xZ/9"):
        spec = parse_group(gs)
        f = random_bounded(spec, rng)
        u2 = gowers_norm(f, 2, method="direct").value
        fourth = float(np.sum(np.abs(dft_values(f.owner, f.values)) ** 4))
        assert abs(u2**4 - fourth) < 1e-10


def test_triangle_inequality(rng):
    spec = parse_group("Z/31")
    for d in (2, 3):
        for _ in range(5):
            f, g = random_bounded(spec, rng), random_bounded(spec, rng)
            s = GroupFunction(spec, f.values + g.values)
            assert (
                gowers_norm(s, d, unchecked=True).value
                <= gowers_norm(f, d).value + gowers_norm(g, d).value + 1e-9
            )


def test_u2_bias_examples(rng):
    Z7 = parse_group("Z/7")
    f = GroupFunction(Z7, np.exp(2j * np.pi * 3 * np.arange(7) / 7))
    rep = u2_bias(f)
    assert abs(rep.value - 1.0) < 1e-12 and rep.witness == 3
    assert rep.to_json() == {"value": rep.value, "d": 2, "method": "fourier", "witness": 3}
    ZN = parse_group("Z/11")
    rep = u2_bias(GroupFunction.indicator(ZN, [0]))
    assert abs(rep.value - 1 / 11) < 1e-12
    # sandwich u2 <= U2 <= u2^(1/2)
    Z31 = parse_group("Z/31")
    for _ in range(20):
        f = random_bounded(Z31, rng)
        u2 = gowers_norm(f, 2).value
        bias = u2_bias(f).value
        assert bias <= u2 + 1e-9 <= bias**0.5 + 2e-9


def test_u_le_U(rng):
    spec = parse_group("F5^2")
    for _ in range(5):
        f = random_bounded(spec, rng)
        oracle = u3_oracle_coset(f, (0, PrimeSubspace.whole(spec)))
        assert oracle.value <= gowers_norm(f, 3).value + 1e-9


def test_coset_oracle_planted_subspace():
    spec = parse_group("F5^2")
    coords = spec.decode(np.arange(25))
    A = np.array([[2, 1], [1, 3]])
    q = (np.einsum("ni,ij,nj->n", coords, A, coords) + coords @ np.array([1, 0])) % 5
    f = GroupFunction(spec, np.exp(2j * np.pi * q / 5))
    rep = u3_oracle_coset(f, (0, PrimeSubspace.whole(spec)))
    assert abs(rep.value - 1.0) < 1e-9
    # witness reproducible
    assert abs(bias_against(rep.witness, f) - rep.value) < 1e-10


def test_coset_oracle_zero_and_flat():
    Z5 = parse_group("Z/5")
    zero = constant(Z5, 0.0)
    H = BoxSubgroup.whole(Z5)
    assert u3_oracle_coset(zero, (0, H)).value == 0.0
    ind = GroupFunction.indicator(Z5, [0])
    rep = u3_oracle_coset(ind, (0, H))
    assert abs(rep.value - 1 / 5) < 1e-12


def test_coset_oracle_planted_cyclic():
    Z9 = parse_group("Z/9")
    x = np.arange(9)
    f = GroupFunction(Z9, np.exp(2j * np.pi * (4 * x * x + 2 * x) / 9))
    rep = u3_oracle_coset(f, (0, BoxSubgroup.whole(Z9)))
    assert abs(rep.value - 1.0) < 1e-9
    assert rep.witness.A == ((4,),) and rep.witness.b == (2,)


@pytest.mark.parametrize("group, H, k", [
    ("Z/9", lambda s: BoxSubgroup(s, (9,)), 1),
    ("Z/9xZ/15", lambda s: BoxSubgroup(s, (9, 15)), 2),
    ("F5^2", lambda s: PrimeSubspace(s, ()), 0),
])
def test_coset_oracle_one_point_witness_is_the_zero_phase(group, H, k):
    # |f(y)| with no scan, and the k x k zero phase on H's local coordinates
    spec = parse_group(group)
    f = GroupFunction.indicator(spec, [1])
    reps = norms.u3_oracle_cosets(f, [1, 0], H(spec))
    assert [r.value for r in reps] == [1.0, 0.0]
    assert all((r.witness.A, r.witness.b) == (((0,) * k,) * k, (0,) * k) for r in reps)


def test_coset_oracle_even_order_rejected():
    Z12 = parse_group("Z/12")
    f = constant(Z12, 1.0)
    with pytest.raises(EvenOrder):
        u3_oracle_coset(f, (0, BoxSubgroup(Z12, (3,))))


def test_coset_oracle_on_proper_coset():
    # phase planted on a coset of a 1-dimensional subspace of F5^2
    spec = parse_group("F5^2")
    H = PrimeSubspace.from_generators(spec, [[1, 2]])
    y = spec.index_of([0, 1])
    vals = np.zeros(25, complex)
    for t in range(5):
        amb = spec.add_indices(np.int64(spec.encode(np.array([t, 2 * t]) % 5)), np.int64(y))
        vals[int(amb)] = np.exp(2j * np.pi * (3 * t * t + t) / 5)
    f = GroupFunction(spec, vals)
    rep = u3_oracle_coset(f, (y, H))
    assert abs(rep.value - 1.0) < 1e-9
    assert rep.witness.A == ((3,),) and rep.witness.b == (1,)


def test_localization_chain(rng):
    # U3(f) >= u3(G) >= 5^-n |W| u3(y+W) on F5^2 for all codimension-1 W
    spec = parse_group("F5^2")
    hyperplanes = [[1, 0], [0, 1], [1, 1], [1, 2], [1, 3], [1, 4]]
    for _ in range(3):
        f = random_bounded(spec, rng)
        u3 = gowers_norm(f, 3).value
        u3G = u3_oracle_coset(f, (0, PrimeSubspace.whole(spec))).value
        assert u3G <= u3 + 1e-9
        for w in hyperplanes:
            W = PrimeSubspace.from_generators(spec, [w])
            for yidx in (0, 7, 13):
                local = u3_oracle_coset(f, (yidx, W)).value
                assert 5 ** (-2) * W.order * local <= u3G + 1e-9


def test_bracket_oracle_planted():
    N = 101
    spec = parse_group("Z/101")
    bq = BracketQuadratic(N, (1,), ((Fraction(5, 4),),), (Fraction(1, 2),))
    f = GroupFunction(spec, bq.exp_values(sign=1.0))
    rep = u3_oracle_bracket(f, np.arange(N), [1], grid=4)
    assert rep.value > 0.999
    wq = rep.witness
    assert wq.quad[0][0] == Fraction(5, 4) and wq.lin[0] == Fraction(1, 2)


def test_bracket_oracle_constant_and_prime_check(rng):
    spec = parse_group("Z/101")
    ones = constant(spec, 1.0)
    rep = u3_oracle_bracket(ones, np.arange(101), [1], grid=2)
    assert rep.value > 0.999
    with pytest.raises(NotPrime):
        u3_oracle_bracket(constant(parse_group("Z/100"), 1.0),
                          np.arange(100), [1], grid=2)


def test_bracket_oracle_planted_with_off_region_noise(rng):
    N = 101
    spec = parse_group("Z/101")
    bq = BracketQuadratic(N, (1, 2), ((0, Fraction(3, 2)), (Fraction(3, 2), 0)), (0, 0))
    vals = bq.exp_values(sign=1.0)
    region = np.array([n % N for n in range(-20, 21)], dtype=np.int64)
    outside = np.setdiff1d(np.arange(N), region)
    vals[outside] = rng.uniform(-1, 1, size=len(outside))
    f = GroupFunction(spec, vals)
    rep = u3_oracle_bracket(f, region, [1, 2], grid=2)
    assert rep.value >= 0.95


def test_u4_direct_recursive_agreement(rng):
    for gs in ("Z/7", "Z/9", "Z/2xZ/5"):
        spec = parse_group(gs)
        f = random_bounded(spec, rng)
        a = gowers_norm(f, 4, method="direct").value
        b = gowers_norm(f, 4, method="recursive").value
        assert abs(a - b) / max(a, 1e-6) < 1e-8


def test_recursive_norm_chunk_independent(monkeypatch, rng):
    # the batched reduction must not depend on the batch size: one row per
    # batch, and batches of a few rows, against the default, for U^3 and U^4
    # on a full support and on an arc of Z/101 with holes, whose window is
    # proper and whose zero rows are dropped batch by batch
    spec = parse_group("Z/101")
    full = random_bounded(spec, rng).values
    arc = np.zeros(spec.order, dtype=complex)
    arc[80:] = full[80:] * (rng.uniform(size=21) < 0.7)
    window = norms._support_window(spec, np.flatnonzero(arc))[0]
    assert window.order < spec.order
    for vals in (full, arc):
        f = GroupFunction(spec, vals)
        want = {d: gowers_norm(f, d).value for d in (3, 4)}
        for entries in (1, 6 * window.order):
            monkeypatch.setattr(norms, "_BATCH_ENTRIES", entries)
            for d in (3, 4):
                assert abs(gowers_norm(f, d).value - want[d]) < 1e-12
        monkeypatch.undo()


def test_gowers_batches_fit_the_entry_budget(monkeypatch, rng):
    # every batch the U^3 and U^4 kernels transform holds at least one row,
    # and its live arrays at most max(live |W|, 2^16) entries (1 MiB of
    # complex128), live being the (rows x |W|) arrays the kernel's row
    # function keeps: 1 for U^3, 2 for U^4 (310 rows of Z/211 fail for U^4)
    from u3kit.experiments import fw_counterexample

    budget = 1 << 16
    shapes = []
    real = norms._u2_pow4_sum

    def spy(window, rows, w, work):
        shapes.append((len(rows), window.order))
        return real(window, rows, w, work)

    monkeypatch.setattr(norms, "_u2_pow4_sum", spy)
    cases = [(random_unimodular(parse_group("F5^5"), rng), 3, 1, 3125),
             (random_unimodular(parse_group("Z/211"), rng), 4, 2, 211),
             (fw_counterexample(4001), 3, 1, 1600)]
    for f, d, live, width in cases:
        shapes.clear()
        gowers_norm(f, d)
        assert shapes and all(w == width for _, w in shapes)
        assert all(1 <= r and live * r * w <= max(live * w, budget) for r, w in shapes)


def test_u3_on_f5_5_stays_within_a_few_batches_of_memory(monkeypatch, rng):
    # one U^3 call on F5^5 peaks at W times (one batch, one work array and
    # the temporaries of its gather), W the workers, plus the extension of f:
    # about 4.5 MiB of numpy arrays with one worker and 7.8 MiB with two
    # (tracemalloc counts every thread, so W is pinned); batches of 128 rows
    # of 3125 entries, 6.4 MB each, peaked at 19.4 MiB on one thread
    f = random_unimodular(parse_group("F5^5"), rng)
    gowers_norm(f, 3)  # character tables are cached on the first call
    for workers in (2, 1):
        monkeypatch.setattr(norms, "_cpus", lambda w=workers: w)
        peak = traced_peak(lambda: gowers_norm(f, 3))[1]
        assert peak < 8 * 2**20


# groups small enough for the direct method at d = 3, and all but Z/n, n > 20,
# at d = 4 (0.3 s on F5^2)
worker_specs = st.one_of(
    st.integers(2, 24).map(lambda n: parse_group(f"Z/{n}")),
    st.sampled_from(["F3^1", "F3^2", "F3^3", "F5^1", "F5^2", "F5^3", "Z/4xZ/6"]).map(parse_group),
)


@st.composite
def supported_values(draw, spec):
    """Values in the unit disk on a support of one of four kinds: G; an arc
    of the first axis, whose window is proper when it is short; the subgroup
    of x_0 divisible by d, whose zero rows (h_0 not divisible by d) fill whole
    batches when the group has a second axis; a few points, whose zero rows
    are scattered.  A few values of the support may be zero too."""
    N, n0 = spec.order, spec.orders[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(0, 1, N) * np.exp(2j * np.pi * rng.uniform(size=N))
    x0 = spec.decode(np.arange(N))[:, 0]
    kind = draw(st.sampled_from(["full", "arc", "subgroup", "points"]))
    if kind == "arc":
        vals[(x0 - draw(st.integers(0, n0 - 1))) % n0 >= draw(st.integers(1, n0))] = 0
    elif kind == "subgroup":
        vals[x0 % draw(st.sampled_from([d for d in range(2, n0 + 1) if n0 % d == 0])) != 0] = 0
    elif kind == "points":
        keep = rng.choice(N, size=min(N, draw(st.integers(1, 4))), replace=False)
        vals[np.setdiff1d(np.arange(N), keep)] = 0
    if draw(st.booleans()):
        vals[rng.uniform(size=N) < 0.2] = 0
    return vals


@given(st.data())
def test_gowers_norm_does_not_depend_on_the_worker_count(data):
    # batch b goes to worker b mod W, and the batch sums are added in batch
    # order, so U^2, U^3 and U^4 are the same floats for W = 1, 2 and 3; a
    # small entry budget gives small groups many batches, and no worker
    # thread outlives its call
    spec = data.draw(worker_specs)
    f = GroupFunction(spec, data.draw(supported_values(spec)))
    values = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_BATCH_ENTRIES", data.draw(st.sampled_from([1, 8, 64, 1 << 16])))
        for workers in (1, 2, 3):
            mp.setattr(norms, "_cpus", lambda w=workers: w)
            for d in (2, 3, 4):
                threads = threading.active_count()
                values[workers, d] = gowers_norm(f, d).value
                assert threading.active_count() == threads
    for d in (2, 3, 4):
        assert values[1, d] == values[2, d] == values[3, d]
        if spec.order ** (d + 1) <= norms.DIRECT_BUDGET:
            direct = gowers_norm(f, d, method="direct").value
            assert abs(values[1, d] - direct) <= 1e-12 * direct


def test_gowers_batches_run_on_the_workers(monkeypatch, rng):
    # batch b runs on worker b mod W, worker 0 being the caller's thread: the
    # batches of one residue share a thread, residue 0 that of the caller and
    # no other residue it, and all 8 batches of U^3 run.  Which pool thread
    # takes which residue is the pool's choice (one idle pool thread may take
    # two), so distinct threads are not asserted
    f = random_unimodular(parse_group("F5^3"), rng)
    monkeypatch.setattr(norms, "_BATCH_ENTRIES", 8 * 125)  # 8 rows a batch: 8 batches of U^3
    ran = {}  # batch -> the thread that ran it
    real = norms._run_row_batches

    def spy(n, width, live, task):
        size = norms._batch_rows(width, live)

        def recorded(r0, r1, work):
            ran[r0 // size] = threading.current_thread()
            return task(r0, r1, work)

        return real(n, width, live, recorded)

    monkeypatch.setattr(norms, "_run_row_batches", spy)
    for workers in (3, 2, 1):
        monkeypatch.setattr(norms, "_cpus", lambda w=workers: w)
        ran.clear()
        gowers_norm(f, 3)
        assert sorted(ran) == list(range(8))
        for b, thread in ran.items():
            assert thread is ran[b % workers]
            assert (thread is threading.current_thread()) == (b % workers == 0)


def test_a_pool_worker_exception_reaches_the_caller(monkeypatch, rng):
    # a batch that raises on a pool thread fails the call as it would on the
    # caller's thread, and the pool's threads end with the call
    f = random_unimodular(parse_group("F5^3"), rng)
    monkeypatch.setattr(norms, "_BATCH_ENTRIES", 8 * 125)  # 8 batches of U^3, odd ones on the pool
    monkeypatch.setattr(norms, "_cpus", lambda: 2)
    caller, real = threading.current_thread(), norms._u2_pow4_sum

    def pool_fails(window, rows, w, work):
        if threading.current_thread() is not caller:
            raise MemoryError("a batch on a pool thread")
        return real(window, rows, w, work)

    monkeypatch.setattr(norms, "_u2_pow4_sum", pool_fails)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="a batch on a pool thread"):
        gowers_norm(f, 3)
    assert threading.active_count() == threads


def test_gowers_slots_survive_fast_thread_switches(monkeypatch, rng):
    # more workers than CPUs, one row a batch (2,016 batches of U^4 on F5^3)
    # and a thread switch every microsecond: a lost or misplaced slot write
    # would change the value
    f = random_bounded(parse_group("F5^3"), rng)
    monkeypatch.setattr(norms, "_BATCH_ENTRIES", 1)
    monkeypatch.setattr(norms, "_cpus", lambda: 1)
    want = gowers_norm(f, 4).value
    monkeypatch.setattr(norms, "_cpus", lambda: (os.cpu_count() or 1) + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = gowers_norm(f, 4).value
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_coset_oracle_vs_brute_force(rng):
    # dim-1 subspace of F5^2: compare the FFT scan against a python loop
    spec = parse_group("F5^2")
    H = PrimeSubspace.from_generators(spec, [[1, 3]])
    y = spec.index_of([2, 0])
    f = random_bounded(spec, rng)
    rep = u3_oracle_coset(f, (y, H))
    best = -1.0
    for m in range(5):
        for b in range(5):
            tot = 0j
            for t in range(5):
                amb = spec.index_of([spec.coords_of(y)[i] + t * H.basis[0][i] for i in range(2)])
                tot += f.values[amb] * np.exp(-2j * np.pi * (m * t * t + b * t) / 5)
            best = max(best, abs(tot) / 5)
    assert abs(rep.value - best) < 1e-10


def test_coset_oracle_dim2_vs_brute_force(rng):
    spec = parse_group("F5^2")
    W = PrimeSubspace.whole(spec)
    f = random_bounded(spec, rng)
    rep = u3_oracle_coset(f, (0, W))
    best = -1.0
    coords = spec.decode(np.arange(25))
    for a11 in range(5):
        for a12 in range(5):
            for a22 in range(5):
                q = (a11 * coords[:, 0] ** 2 + 2 * a12 * coords[:, 0] * coords[:, 1]
                     + a22 * coords[:, 1] ** 2) % 5
                for b1 in range(5):
                    for b2 in range(5):
                        phase = (q + b1 * coords[:, 0] + b2 * coords[:, 1]) % 5
                        val = abs(np.mean(f.values * np.exp(-2j * np.pi * phase / 5)))
                        best = max(best, val)
    assert abs(rep.value - best) < 1e-10


# --- property tests of the recursive kernels ----------------------------------

# groups with elements h = -h other than 0, where a class {h, -h} has one element
TWO_TORSION = ["Z/2", "Z/8", "Z/2xZ/4", "Z/12", "Z/2xZ/2xZ/3"]
KINDS = ["dense", "real", "one-point", "two-point", "zero"]


def specs(max_order: int):
    """The 2-torsion groups above, or rank 1-3 with factor orders 1-13."""
    random_specs = (st.lists(st.integers(1, 13), min_size=1, max_size=3)
                    .filter(lambda o: prod(o) <= max_order)
                    .map(lambda o: GroupSpec(tuple(o))))
    listed = [parse_group(g) for g in TWO_TORSION if parse_group(g).order <= max_order]
    return st.one_of(st.sampled_from(listed), random_specs)


@st.composite
def functions(draw, spec: GroupSpec) -> GroupFunction:
    """Bounded functions: dense complex, real, supported on one or two points, or 0."""
    N = spec.order
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = np.zeros(N, dtype=complex)
    if kind == "dense":
        vals = rng.uniform(0, 1, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
    elif kind == "real":
        vals = rng.uniform(-1, 1, N) + 0j
    elif kind != "zero":
        size = min(N, 1 if kind == "one-point" else 2)
        pts = draw(st.lists(st.integers(0, N - 1), min_size=size, max_size=size, unique=True))
        vals[pts] = np.exp(2j * np.pi * rng.uniform(0, 1, size))
    return GroupFunction(spec, vals)


@pytest.mark.parametrize("d", [2, 3, 4])
@given(data=st.data())
def test_recursive_matches_direct_property(d, data):
    # |G|^(d+1) <= 2^20 keeps the direct method quick
    spec = data.draw(specs(int(round((1 << 20) ** (1 / (d + 1))))))
    f = data.draw(functions(spec))
    a = gowers_norm(f, d, method="direct").value
    b = gowers_norm(f, d, method="recursive").value
    assert abs(a - b) < 1e-9


def _character(spec: GroupSpec, xi: int) -> np.ndarray:
    x = spec.decode(np.arange(spec.order))
    phase = sum(c * x[:, i] / n for i, (c, n) in enumerate(zip(spec.coords_of(xi), spec.orders)))
    return np.exp(2j * np.pi * phase)


@given(data=st.data())
def test_norm_invariances_property(data):
    # U^d is invariant under shift and conjugation, and for d >= 2 under
    # multiplication by a character
    spec = data.draw(specs(64))
    f = data.draw(functions(spec))
    y = data.draw(st.integers(0, spec.order - 1))
    xi = data.draw(st.integers(0, spec.order - 1))
    shifted = GroupFunction(spec, f.values[spec.add_indices(np.arange(spec.order), y)])
    modulated = GroupFunction(spec, f.values * _character(spec, xi))
    for d in (1, 2, 3, 4):
        v = gowers_norm(f, d).value
        assert abs(gowers_norm(shifted, d).value - v) < 1e-9
        assert abs(gowers_norm(GroupFunction(spec, np.conj(f.values)), d).value - v) < 1e-9
        if d >= 2:
            assert abs(gowers_norm(modulated, d).value - v) < 1e-9


@given(data=st.data())
def test_norm_monotonicity_property(data):
    spec = data.draw(specs(64))
    f = data.draw(functions(spec))
    vals = [gowers_norm(f, d).value for d in (1, 2, 3, 4)]
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:])), vals
    assert vals[-1] <= 1 + 1e-9


# --- the exact coset oracle on F_p-subspaces ----------------------------------


def _reference_coset_scan(fvals: np.ndarray, p: int, k: int):
    """The scan the separable kernel replaced: |sum_t g(t) w^(t.Ct + xi.t)| / m
    for every (C, xi), by one fftn per coefficient vector; rows are the vectors
    (c_00, c_01, ..., c_kk) in lex order, columns xi in lex order."""
    m = p**k
    t = GroupSpec((p,) * k).decode(np.arange(m))
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    P = np.array([(t[:, i] * t[:, j] * (1 if i == j else 2)) % p for i, j in pairs])
    digits = GroupSpec((p,) * len(pairs)).decode(np.arange(p ** len(pairs)))
    omega = np.exp(-2j * np.pi * np.arange(p) / p)
    mags, step = [], max(1, 2_000_000 // m)
    for start in range(0, len(digits), step):
        U = fvals[None, :] * omega[(digits[start : start + step] @ P) % p]
        corr = np.fft.fftn(U.reshape((-1,) + (p,) * k), axes=range(1, k + 1))
        mags.append(np.abs(corr.reshape(len(U), m)) / m)
    return np.concatenate(mags), digits


def _reference_witness(digits: np.ndarray, p: int, k: int, flat: int):
    """(A, b) of entry `flat` of the reference scan."""
    row, col = divmod(flat, p**k)
    A = [[0] * k for _ in range(k)]
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    for (i, j), c in zip(pairs, digits[row].tolist()):
        A[i][j] = A[j][i] = c
    return tuple(map(tuple, A)), GroupSpec((p,) * k).coords_of(col)


def _planted(spec: GroupSpec, A, b, noise: float, rng) -> GroupFunction:
    x = spec.decode(np.arange(spec.order))
    q = (np.einsum("ni,ij,nj->n", x, np.array(A), x) + x @ np.array(b)) % spec.orders[0]
    vals = np.exp(2j * np.pi * q / spec.orders[0])
    vals += noise * rng.uniform(-1, 1, spec.order) * np.exp(2j * np.pi * rng.uniform(0, 1, spec.order))
    return GroupFunction(spec, vals / np.abs(vals).max())


ORACLE_SPACES = ["F5^3", "F7^2", "F3^4", "F5^2", "F3^3", "F3^2"]  # drawn most often first


@given(data=st.data())
def test_coset_oracle_matches_reference_property(data):
    import u3kit.norms as norms

    spec = parse_group(data.draw(st.sampled_from(ORACLE_SPACES)))
    p, n = spec.orders[0], spec.rank
    n_gens = n - data.draw(st.integers(0, n - 1))  # W may have a smaller dimension
    gens = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(0, p, (n_gens, n))
    W = PrimeSubspace.from_generators(spec, gens)
    y = data.draw(st.integers(0, spec.order - 1))
    kind = data.draw(st.sampled_from(["dense", "real", "planted", "one-point", "zero"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "planted":
        A = rng.integers(0, p, (n, n))
        f = _planted(spec, (A + A.T) % p, rng.integers(0, p, n), 0.3, rng)
    else:
        f = data.draw(functions(spec)) if kind != "dense" else random_bounded(spec, rng)
        if kind == "real":
            f = GroupFunction(spec, f.values.real + 0j)
    chunk = data.draw(st.sampled_from([norms._ORACLE_CHUNK, 1, 30, 700]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_ORACLE_CHUNK", chunk)
        rep = u3_oracle_coset(f, (y, W))
    k = W.dim
    if k == 0:
        assert rep.value == abs(f.values[y])
        return
    fvals = f.values[W.coset(y)]
    mags, digits = _reference_coset_scan(fvals, p, k)
    assert abs(rep.value - mags.max()) < 1e-12
    assert abs(bias_against(rep.witness, f) - rep.value) < 1e-10
    top, second = np.sort(mags.ravel())[-1:-3:-1]
    if top - second > 1e-9:
        A, b = _reference_witness(digits, p, k, int(np.argmax(mags)))
        assert (rep.witness.A, rep.witness.b) == (A, b)


@pytest.mark.parametrize("group", ["F3^3", "F5^2", "F7^2"])
@pytest.mark.parametrize("chunk", [1, 40, 2_000_000])
def test_coset_oracle_tie_rule_against_reference(group, chunk, monkeypatch):
    # with a wide tie band many entries tie; the witness is the lex-first of
    # them even when a chunk's own maximum sits below the overall maximum
    import u3kit.norms as norms

    spec = parse_group(group)
    p, k = spec.orders[0], spec.rank
    rtol = 0.3
    monkeypatch.setattr(norms, "_ORACLE_CHUNK", chunk)
    monkeypatch.setattr(norms, "_TIE_RTOL", rtol)
    rng = np.random.default_rng(7)
    for _ in range(3):
        f = random_bounded(spec, rng)
        rep = u3_oracle_coset(f, (0, PrimeSubspace.whole(spec)))
        mags, digits = _reference_coset_scan(f.values, p, k)
        sq = mags**2
        first = int(np.argmax(sq.ravel() >= sq.max() * (1 - rtol)))
        assert (rep.witness.A, rep.witness.b) == _reference_witness(digits, p, k, first)


def _reference_lex_first_max(blocks, block_sq, key_of):
    """`norms._lex_first_max` as it was before it skipped the candidate search
    in blocks below the running maximum: every block gets its candidate."""
    import u3kit.norms as norms

    def first(b, sq, thr):
        at = int(np.argmax(sq >= thr))
        return key_of(b, at), float(sq.flat[at])

    records = []
    for b in blocks:
        sq = block_sq(b)
        top = float(sq.max())
        records.append((top, b) + first(b, sq, top * (1 - norms._TIE_RTOL)))
    best = max(r[0] for r in records)
    thr = best * (1 - norms._TIE_RTOL)
    key = min(
        cand if val >= thr else first(b, block_sq(b), thr)[0]
        for top, b, cand, val in records
        if top >= thr
    )
    return best, key


@pytest.mark.parametrize("group", ["F5^3", "F3^4", "Z/9"])
@pytest.mark.parametrize("chunk", [1, 40, 1 << 17])
@pytest.mark.parametrize("rtol", [1e-12, 0.3])
def test_lex_first_max_matches_reference(group, chunk, rtol, monkeypatch):
    # skipping the candidate search in blocks below the running maximum
    # changes neither the value nor the witness, ties included; on F_p^k as
    # on Z/h the scan's pick goes through _lex_first_max, so the reference
    # makes the pick of every call and sees at least one block of it
    import u3kit.norms as norms

    spec = parse_group(group)
    W = BoxSubgroup.whole(spec) if group.startswith("Z") else PrimeSubspace.whole(spec)
    monkeypatch.setattr(norms, "_ORACLE_CHUNK", chunk)
    monkeypatch.setattr(norms, "_TIE_RTOL", rtol)
    rng = np.random.default_rng(11)
    k = spec.rank
    A = rng.integers(0, spec.orders[0], (k, k))
    fs = [constant(spec, 0.0), constant(spec, 1.0),
          GroupFunction.indicator(spec, [spec.order - 1]), random_bounded(spec, rng),
          _planted(spec, (A + A.T) % spec.orders[0], rng.integers(0, spec.orders[0], k), 0.3, rng)]
    for f in fs:
        rep = u3_oracle_coset(f, (0, W))
        seen = []

        def reference(blocks, block_sq, key_of):
            return _reference_lex_first_max((seen.append(b) or b for b in blocks), block_sq, key_of)

        with monkeypatch.context() as m:
            m.setattr(norms, "_lex_first_max", reference)
            ref = u3_oracle_coset(f, (0, W))
        assert seen
        assert rep.value == ref.value
        assert (rep.witness.A, rep.witness.b) == (ref.witness.A, ref.witness.b)


@pytest.mark.parametrize("group", ["F5^3", "F3^4"])
def test_quadratic_scan_memory_within_chunk_bound(group, rng):
    # a chunk goes through a few complex temporaries of its own size, so the
    # whole scan peaks at a small multiple of _ORACLE_CHUNK; the old chunk of
    # 2,000,000 outputs took all of F5^3 at once and peaked at 62 MB.  The
    # bound holds where the cut leaves little (random f, and a phase on one
    # coset of a hyperplane plus 0.05 noise, as in the cut plants of the
    # f5_planted benchmark) and where it leaves everything (zero, a point);
    # and for a batch of 64 random rows, whose bounds go through the bound
    # pass a group of rows at a time
    spec = parse_group(group)
    p, k, m = spec.orders[0], spec.rank, spec.order
    A = rng.integers(0, p, (k, k))
    phase = _planted(spec, (A + A.T) % p, rng.integers(0, p, k), 0.0, rng).values
    on_coset = np.where(spec.decode(np.arange(m))[:, 0] == 1, phase, 0)
    inputs = {"random": random_bounded(spec, rng).values, "zero": np.zeros(m, dtype=complex),
              "point": np.eye(1, m, m - 1)[0].astype(complex),
              "coset": on_coset + 0.05 * random_unimodular(spec, rng).values,
              "batch": np.array([random_bounded(spec, rng).values for _ in range(64)])}
    for kind, fvals in inputs.items():
        peak = traced_peak(lambda: norms.quadratic_scan(np.atleast_2d(fvals), p, k))[1]
        assert peak <= 64 * norms._ORACLE_CHUNK, kind


def test_cyclic_scan_memory_within_chunk_bound():
    # the k = 1 rows go through the transform in blocks of a of at most
    # _ORACLE_CHUNK entries; one (h, h) block at h = 4001 would peak at 513 MB
    from u3kit.experiments import fw_counterexample

    f = fw_counterexample(4001)
    peak = traced_peak(lambda: norms.quadratic_scan(f.values[None], 4001, 1))[1]
    assert peak <= 64 * norms._ORACLE_CHUNK


def test_cyclic_coset_oracle_memory_within_chunk_bound(rng):
    # Z/11547 is the largest cyclic group under ORACLE_BUDGET (11547^2 (1 +
    # 14) multiply-adds); as one block of 11547^2 entries its scan would
    # peak at 2 GiB
    spec = parse_group("Z/11547")
    assert norms._scan_price(11547, 1) <= norms.ORACLE_BUDGET < norms._scan_price(11548, 1)
    f = random_bounded(spec, rng)
    rep, peak = traced_peak(lambda: u3_oracle_coset(f, (0, BoxSubgroup.whole(spec))))
    assert abs(bias_against(rep.witness, f) - rep.value) < 1e-10
    assert peak <= 64 * norms._ORACLE_CHUNK


def test_cyclic_scan_sums_sparse_rows_pair_by_pair(monkeypatch, rng):
    # a sampled row with at most log2(h) / 2 distinct pairs (4.99 at h =
    # 1009) is summed pair by pair; the rows with more, and a = 0, are FFT
    # rows.  The maximum is planted at (3, 2), in a row summed pair by pair.
    h = 1009
    t = np.arange(h)
    fvals = np.exp(2j * np.pi * (3 * t * t + 2 * t) / h) + 0.3 * random_bounded(parse_group(f"Z/{h}"), rng).values
    table = reference_cyclic_scan(fvals, h)[2] ** 2
    pairs = np.array([(3, 1), (3, 2)] * 3 + [(5, 7)] + [(8, b) for b in range(6)])
    cands = [(0, b) for b in range(h)] + sorted({tuple(q) for q in pairs.tolist()})
    best = max(table[q] for q in cands)
    rows, fft = [], np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda x, axis: rows.append(len(x)) or fft(x, axis=axis))
    best_sq, key = norms._cyclic_scan(fvals, pairs)
    assert rows == [2]  # a = 0 and a = 8, one block
    assert abs(best_sq / (h * h) - best) <= 1e-12 * best and key == (3, 2)


def _plant_pair(p: int, k: int, rng, ratio: float) -> np.ndarray:
    """e(q1/p) + ratio e(q2/p) on (Z/p)^k in lex order, for two random
    quadratic phases whose leading off-diagonal coefficients differ, so their
    peaks lie in different states and, unless the whole scan is one chunk, in
    different chunks.  With ratio 1 the two peaks tie exactly."""
    t = GroupSpec((p,) * k).decode(np.arange(p**k))
    A1 = rng.integers(0, p, (k, k))
    A1 = (A1 + A1.T) % p
    A2 = A1.copy()
    A2[0, 1] = A2[1, 0] = (A1[0, 1] + rng.integers(1, p)) % p
    phase = [np.einsum("ni,ij,nj->n", t, A, t) + t @ rng.integers(0, p, k) for A in (A1, A2)]
    vals = np.exp(2j * np.pi * phase[0] / p) + ratio * np.exp(2j * np.pi * phase[1] / p)
    return vals / np.abs(vals).max()


CUT_SPACES = ["F3^2", "F3^3", "F3^4", "F5^2", "F5^3", "F7^2"]
CUT_INPUTS = ["tie", "near-tie", "zero", "constant", "point", "real", "planted"]


@given(data=st.data())
def test_quadratic_scan_cut_matches_reference(data):
    # skipping states whose bound is below the tie band changes neither the
    # value nor the lex-first witness: exact ties across chunks, a 1e-10 gap,
    # and the inputs where every state survives (zero, a point mass)
    spec = parse_group(data.draw(st.sampled_from(CUT_SPACES)))
    p, k, m = spec.orders[0], spec.rank, spec.order
    kind = data.draw(st.sampled_from(CUT_INPUTS))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind in ("tie", "near-tie"):
        fvals = _plant_pair(p, k, rng, 1.0 if kind == "tie" else 1 - 1e-10)
    elif kind == "planted":
        A = rng.integers(0, p, (k, k))
        fvals = _planted(spec, (A + A.T) % p, rng.integers(0, p, k), 0.3, rng).values
    else:
        fvals = {"zero": np.zeros(m, dtype=complex), "constant": np.ones(m, dtype=complex),
                 "point": np.eye(1, m, int(rng.integers(m)))[0].astype(complex),
                 "real": rng.uniform(-1, 1, m) + 0j}[kind]
    chunk = data.draw(st.sampled_from([norms._ORACLE_CHUNK, 1, 30, 700]))
    rtol = data.draw(st.sampled_from([1e-12, 0.3]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_ORACLE_CHUNK", chunk)
        mp.setattr(norms, "_TIE_RTOL", rtol)
        [(best_sq, key)] = norms.quadratic_scan(fvals[None], p, k)
    mags, digits = _reference_coset_scan(fvals, p, k)
    sq = (mags * m) ** 2
    assert abs(best_sq - sq.max()) <= 1e-12 * max(sq.max(), 1.0)
    row, col = divmod(int(np.argmax(sq.ravel() >= sq.max() * (1 - rtol))), m)
    assert key == tuple(digits[row].tolist()) + GroupSpec((p,) * k).coords_of(col)


def test_quadratic_scan_evaluates_few_states_on_a_plant(monkeypatch):
    # the cut acts after every axis: on a planted F5^3 phase the middle axis
    # runs on at most 1% of the 3,125 states after the first (an off-diagonal
    # vector with (c_22, xi_2)), and the last axis on a handful of the 78,125
    # after the second (with (c_ii, xi_i) for i >= 1)
    spec = parse_group("F5^3")
    rng = np.random.default_rng(3)
    counted, last_axis = [], norms._last_axis
    monkeypatch.setattr(norms, "_last_axis", lambda h, *a: counted.append(prod(h.shape[:-2]) * h.shape[-1])
                        or last_axis(h, *a))
    entering, along_axis = {}, norms._along_axis

    def along(h, *a):  # h is (..., rows, p^(k - axes done), columns), a state per row and column
        if h.shape[-2] < spec.order:  # an axis after the first
            entering[h.shape[-2]] = entering.get(h.shape[-2], 0) + prod(h.shape[:-2]) * h.shape[-1]
        return along_axis(h, *a)

    monkeypatch.setattr(norms, "_along_axis", along)
    for _ in range(3):
        A = rng.integers(0, 5, (3, 3))
        f = _planted(spec, (A + A.T) % 5, rng.integers(0, 5, 3), 0.3, rng)
        counted.clear()
        entering.clear()
        [(best_sq, key)] = norms.quadratic_scan(f.values[None], 5, 3)
        assert 1 <= entering[25] <= 0.01 * 5**3 * 25
        assert 1 <= sum(counted) <= 2 * norms._SEEDS
        assert entering[5] == sum(counted)
        mags, digits = _reference_coset_scan(f.values, 5, 3)
        row, col = divmod(int(np.argmax(mags)), spec.order)
        assert key == tuple(digits[row].tolist()) + spec.coords_of(col)


BATCH_SPACES = ["F3^1", "F3^2", "F3^3", "F5^1", "F5^2", "F5^3", "F7^2"]
BATCH_ROWS = ["zero", "point", "constant", "noise", "real", "planted"]


@given(data=st.data())
def test_batched_scan_matches_row_scans(data):
    # every row of a batch gets the value and witness of a batch of its own,
    # bit for bit: rows whose entries tie exactly (zero, a point mass, a
    # constant) share a batch with rows whose cuts are far apart
    spec = parse_group(data.draw(st.sampled_from(BATCH_SPACES)))
    p, k, m = spec.orders[0], spec.rank, spec.order
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in data.draw(st.lists(st.sampled_from(BATCH_ROWS), min_size=1, max_size=7)):
        if kind == "planted":
            A = rng.integers(0, p, (k, k))
            rows.append(_planted(spec, (A + A.T) % p, rng.integers(0, p, k), 0.3, rng).values)
        else:
            rows.append({"zero": np.zeros(m, dtype=complex), "constant": np.full(m, 0.6 + 0.3j),
                         "point": np.eye(1, m, int(rng.integers(m)))[0].astype(complex),
                         "noise": random_bounded(spec, rng).values,
                         "real": rng.uniform(-1, 1, m) + 0j}[kind])
    fvals = np.array(rows)
    chunk = data.draw(st.sampled_from([norms._ORACLE_CHUNK, 1, 30, 700]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_ORACLE_CHUNK", chunk)
        batched = norms.quadratic_scan(fvals, p, k)
        alone = [norms.quadratic_scan(row[None], p, k)[0] for row in fvals]
    assert batched == alone


@pytest.mark.parametrize("group", ["F3^2", "F3^3", "F5^2", "F5^3", "F7^2"])
def test_scan_price_counts_the_axis_products(group, monkeypatch):
    # on the zero function no state is cut, and the first axis and the
    # chunks' axes run p multiply-adds per output entry; the seeds' products
    # (stacked over the rows, so with a leading axis, after the first axis)
    # are not part of the price
    spec = parse_group(group)
    p, k = spec.orders[0], spec.rank
    madds, along_axis = [], norms._along_axis

    def along(h, D):
        out = along_axis(h, D)
        if h.ndim == 3 or h.shape[-2] == p**k:
            madds.append(out.size * p)
        return out

    monkeypatch.setattr(norms, "_along_axis", along)
    norms.quadratic_scan(np.zeros((1, spec.order), dtype=complex), p, k)
    assert sum(madds) == norms._scan_price(p, k)


def test_coset_oracle_price_edges():
    # the scan is priced by the axis products it runs, about p^(k(k-1)/2 +
    # 2k + 1): F7^3 and F31^2 are within ORACLE_BUDGET, F11^3 and F37^2 are not
    assert norms._scan_price(7, 3) <= norms.ORACLE_BUDGET < norms._scan_price(11, 3)
    assert norms._scan_price(31, 2) <= norms.ORACLE_BUDGET < norms._scan_price(37, 2)
    spec = parse_group("F11^3")
    message = (f"symmetric-matrix scan exceeds budget: {norms._scan_price(11, 3)} multiply-adds .* "
               f"> ORACLE_BUDGET = {norms.ORACLE_BUDGET}")
    with pytest.raises(BudgetExceeded, match=message):
        u3_oracle_coset(constant(spec, 1.0), (0, PrimeSubspace.whole(spec)))


def test_coset_oracle_batch_of_cosets(rng):
    # one call for all the cosets of W gives the report of each coset alone
    spec = parse_group("F5^3")
    f = random_bounded(spec, rng)
    for W in (PrimeSubspace.from_generators(spec, [[1, 2, 0], [0, 1, 3]]),
              PrimeSubspace.from_generators(spec, [[0, 1, 4]]), PrimeSubspace.from_generators(spec, [])):
        ys = [int(y) for y in rng.integers(0, spec.order, 6)]
        together = norms.u3_oracle_cosets(f, ys, W)
        assert [r.to_json() for r in together] == [u3_oracle_coset(f, (y, W)).to_json() for y in ys]
    assert norms.u3_oracle_cosets(f, [], W) == []


@pytest.mark.parametrize("group", ["F127^1", "F131^2"])
def test_coset_oracle_large_p_line_matches_reference(group, rng):
    # a line has k = 1, so the scan is `_cyclic_scan`: a chirp and one
    # length-p FFT per row, with no dense matrix D
    import u3kit.norms as norms

    spec = parse_group(group)
    p, n = spec.orders[0], spec.rank
    assert p**3 > norms._ORACLE_CHUNK
    W = PrimeSubspace.from_generators(spec, rng.integers(1, p, (1, n)))
    y = int(rng.integers(spec.order))
    A = rng.integers(0, p, (n, n))
    f = _planted(spec, (A + A.T) % p, rng.integers(0, p, n), 0.3, rng)
    rep = u3_oracle_coset(f, (y, W))
    fvals = f.values[W.coset(y)]
    mags, digits = _reference_coset_scan(fvals, p, 1)
    assert abs(rep.value - mags.max()) < 1e-12
    assert abs(bias_against(rep.witness, f) - rep.value) < 1e-10
    top, second = np.sort(mags.ravel())[-1:-3:-1]
    assert top - second > 1e-9
    assert (rep.witness.A, rep.witness.b) == _reference_witness(digits, p, 1, int(np.argmax(mags)))


@pytest.mark.parametrize("group", ["F5^2", "F5^3", "F7^2", "Z/25", "Z/45", "Z/121"])
def test_coset_oracle_exact_ties_give_zero_phase(group):
    # every (A, b) ties exactly on a point mass; the witness must not depend
    # on rounding
    spec = parse_group(group)
    W = PrimeSubspace.whole(spec) if group.startswith("F") else BoxSubgroup.whole(spec)
    k = spec.rank
    zero_A, zero_b = ((0,) * k,) * k, (0,) * k
    cases = [(constant(spec, 0.0), 0.0), (constant(spec, 1.0), 1.0),
             (GroupFunction.indicator(spec, [spec.order - 1]), 1 / spec.order)]
    for f, value in cases:
        rep = u3_oracle_coset(f, (0, W))
        assert abs(rep.value - value) < 1e-12
        assert (rep.witness.A, rep.witness.b) == (zero_A, zero_b)


@pytest.mark.parametrize("group", ["F5^2", "F5^3", "F7^2", "F3^4"])
def test_coset_oracle_finds_noisy_plant(group, rng):
    spec = parse_group(group)
    p, k = spec.orders[0], spec.rank
    for _ in range(2):
        A = rng.integers(0, p, (k, k))
        A = (A + A.T) % p
        b = rng.integers(0, p, k)
        f = _planted(spec, A, b, 0.2, rng)
        rep = u3_oracle_coset(f, (0, PrimeSubspace.whole(spec)))
        assert rep.witness.A == tuple(map(tuple, A.tolist())) and rep.witness.b == tuple(b.tolist())
        assert abs(bias_against(rep.witness, f) - rep.value) < 1e-10


def test_coset_oracle_budget_on_f5_4():
    spec = parse_group("F5^4")
    f = constant(spec, 1.0)
    with pytest.raises(BudgetExceeded, match="symmetric-matrix scan exceeds budget"):
        u3_oracle_coset(f, (0, PrimeSubspace.whole(spec)))


@pytest.mark.parametrize("name, call", [
    ("DIRECT_BUDGET", lambda f: gowers_norm(f, 2, method="direct")),
    ("ORACLE_BUDGET", lambda f: u3_oracle_coset(f, (0, BoxSubgroup.whole(f.owner)))),
    ("ORACLE_BUDGET", lambda f: u3_oracle_bracket(f, np.arange(f.owner.order), [1], grid=1)),
], ids=["direct", "coset_oracle", "bracket_oracle"])
def test_budgets_are_read_when_called(name, call, monkeypatch):
    # N^3 = 1331 cubes, 11^2 (1 + 4) coset-scan multiply-adds, 3^2 tuples x 11 points
    f = constant(parse_group("Z/11"), 1.0)
    call(f)
    monkeypatch.setattr(norms, name, 10)
    with pytest.raises(BudgetExceeded):
        call(f)


# --- the exact coset oracle on cyclic subgroups -------------------------------


@given(data=st.data())
def test_cyclic_coset_oracle_matches_reference_property(data):
    # a coset y + H of the subgroup H of odd order h in Z/(c h)
    h = data.draw(st.integers(1, 128).map(lambda i: 2 * i + 1))  # odd, 3..257
    c = data.draw(st.integers(1, 3))
    spec = parse_group(f"Z/{c * h}")
    H = BoxSubgroup(spec, (c,))
    y = data.draw(st.integers(0, spec.order - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = random_bounded(spec, rng).values
    pts = H.coset(y)
    t = np.arange(h)
    kind = data.draw(st.sampled_from(["dense", "planted", "zero", "constant"]))
    if kind == "planted":
        a, b = rng.integers(0, h, 2)
        noise = 0.3 * rng.uniform(-1, 1, h) * np.exp(2j * np.pi * rng.uniform(0, 1, h))
        vals[pts] = (np.exp(2j * np.pi * ((a * t * t + b * t) % h) / h) + noise) / 1.3
    elif kind != "dense":
        vals[pts] = 0.0 if kind == "zero" else 1.0
    f = GroupFunction(spec, vals)
    rep = u3_oracle_coset(f, (y, H))
    value, (a, b), table = reference_cyclic_scan(vals[pts], h)
    assert abs(rep.value - value) < 1e-12
    assert abs(bias_against(rep.witness, f) - rep.value) < 1e-10
    top, second = np.sort(table.ravel())[-1:-3:-1]
    if top - second > 1e-9:
        assert (rep.witness.A, rep.witness.b) == (((a,),), (b,))


def test_coset_oracle_budget_on_cyclic():
    # a cyclic scan is priced at the work `_cyclic_scan` does, h^2 (1 +
    # ceil(log2 h)): Z/11549 exceeds ORACLE_BUDGET, and Z/1263, which the
    # old price of h^3 refused, is admitted
    spec = parse_group("Z/11549")
    message = (f"symmetric-matrix scan exceeds budget: {norms._scan_price(11549, 1)} multiply-adds .* "
               f"\\(Z/11549\\)\\^1 > ORACLE_BUDGET = {norms.ORACLE_BUDGET}")
    with pytest.raises(BudgetExceeded, match=message):
        u3_oracle_coset(constant(spec, 1.0), (0, BoxSubgroup.whole(spec)))
    spec = parse_group("Z/1263")
    rep = u3_oracle_coset(constant(spec, 1.0), (0, BoxSubgroup.whole(spec)))
    assert abs(rep.value - 1.0) < 1e-12 and (rep.witness.A, rep.witness.b) == (((0,),), (0,))


@pytest.mark.parametrize("group, call", [
    ("Z/11549", lambda f: u3_oracle_coset(f, (0, BoxSubgroup.whole(f.owner)))),
    ("Z/11549", lambda f: quadratic_correlation_scan(f, "exhaustive")),
    ("F37^2", lambda f: u3_oracle_coset(f, (0, PrimeSubspace.whole(f.owner)))),
    ("F11^3", lambda f: u3_oracle_coset(f, (0, PrimeSubspace.whole(f.owner)))),
    ("F5^4", lambda f: norms.u3_oracle_cosets(f, [0] * 3, PrimeSubspace.whole(f.owner))),
    ("Z/101", lambda f: u3_oracle_bracket(f, np.arange(101), [1, 2], grid=4)),
    ("Z/101", lambda f: u3_oracle_bracket(f, np.zeros(1, dtype=np.int64), [1], grid=10**9)),
], ids=["cyclic", "scan", "k2", "k3", "k4", "bracket", "bracket_huge_grid"])
def test_over_budget_oracles_refuse_before_any_work(group, call, monkeypatch):
    # every kernel step of the oracles fails if it is called
    def work(*args, **kwargs):
        raise AssertionError("an over-budget call did work")

    for name in ("_cyclic_scan", "_along_axis", "_scan_plan", "bracket_table"):
        monkeypatch.setattr(norms, name, work)
    f = constant(parse_group(group), 1.0)
    with pytest.raises(BudgetExceeded, match=f"> ORACLE_BUDGET = {norms.ORACLE_BUDGET}$"):
        call(f)


# --- the bracket-grid oracle ----------------------------------------------------


def _reference_bracket_scan(f: GroupFunction, region: np.ndarray, freqs, grid: int):
    """The per-tuple loop the separable oracle replaced: one exponential per
    coefficient tuple and point.  Returns |E_region f e(-phase)| for every
    tuple, in lex order of (quadratic coefficients in pair order, linear
    ones), and the sorted coefficient values."""
    N, s, m = f.owner.order, len(freqs), len(region)
    pairs = [(i, j) for i in range(s) for j in range(i, s)]
    ncoef = len(pairs) + s
    coef_values = sorted(Fraction(k) + Fraction(j, grid) for k in range(-grid, grid + 1) for j in range(grid))
    nv = len(coef_values)
    brk = np.empty((s, m))
    for i, xi in enumerate(freqs):
        t = (xi * region % N) / N
        brk[i] = np.where(t <= 0.5, t, t - 1.0)
    MONO = np.array([brk[i] * brk[j] * (1 if i == j else 2) for i, j in pairs] + list(brk))
    cv = np.array([float(v) for v in coef_values])
    vals, chunk = [], max(1, 200_000 // m)
    for start in range(0, nv**ncoef, chunk):
        flat = start + np.arange(min(chunk, nv**ncoef - start))
        dig = np.empty((len(flat), ncoef), dtype=np.int64)
        for c in range(ncoef - 1, -1, -1):
            dig[:, c], flat = flat % nv, flat // nv
        vals.append(np.abs(np.exp(-2j * np.pi * (cv[dig] @ MONO)) @ f.values[region]) / m)
    return np.concatenate(vals), coef_values


def _reference_lex_first(vals: np.ndarray, coef_values, width: int, rtol: float = 1e-12) -> tuple:
    """The coefficient tuple of the first reference entry whose square is
    within a relative rtol of the largest."""
    first, nv = int(np.argmax(vals**2 >= vals.max() ** 2 * (1 - rtol))), len(coef_values)
    return tuple(coef_values[(first // nv**e) % nv] for e in range(width - 1, -1, -1))


def _bracket_key(bq: BracketQuadratic) -> tuple:
    s = len(bq.freqs)
    return tuple(bq.quad[i][j] for i in range(s) for j in range(i, s)) + tuple(bq.lin)


BRACKET_PRIMES = [p for p in range(2, 212) if all(p % d for d in range(2, int(p**0.5) + 1))]


@given(data=st.data())
def test_bracket_oracle_matches_reference_property(data):
    import u3kit.norms as norms

    N = data.draw(st.sampled_from(BRACKET_PRIMES))
    spec = GroupSpec((N,))
    s = data.draw(st.integers(1, min(3, N - 1)))
    grid = 1 if s == 3 else data.draw(st.integers(1, 3))
    freqs = data.draw(st.lists(st.integers(1, N - 1), min_size=s, max_size=s, unique=True))
    combos = (grid * (2 * grid + 1)) ** (s * (s + 3) // 2)
    m = data.draw(st.integers(1, max(1, min(N, 2_000_000 // combos))))  # keeps the reference quick
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    region = np.sort(rng.choice(N, size=m, replace=False))
    kind = data.draw(st.sampled_from(["dense", "constant", "point-mass", "real"]))
    if kind == "dense":
        f = random_bounded(spec, rng)
    elif kind == "constant":
        f = constant(spec, 1.0)
    elif kind == "point-mass":
        f = GroupFunction.indicator(spec, [int(rng.choice(region))])
    else:
        f = GroupFunction(spec, rng.uniform(-1, 1, N) + 0j)
    # about 1, 3 or 40 blocks; with several, EL may be split as well
    block = max(1, combos * m // data.draw(st.sampled_from([1, 3, 40])))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_BRACKET_BLOCK", block)
        rep = u3_oracle_bracket(f, region, freqs, grid)
    vals, coef_values = _reference_bracket_scan(f, region, freqs, grid)
    assert abs(rep.value - vals.max()) < 1e-12
    assert _bracket_key(rep.witness) == _reference_lex_first(vals, coef_values, s * (s + 3) // 2)


@pytest.mark.parametrize("block", [1, 40, 700, 2**20])
def test_bracket_oracle_tie_rule_against_reference(block, monkeypatch):
    # with a wide tie band many entries tie; the witness is the lex-first of
    # them even when a block's own maximum sits below the overall maximum
    import u3kit.norms as norms

    rtol = 0.3
    monkeypatch.setattr(norms, "_BRACKET_BLOCK", block)
    monkeypatch.setattr(norms, "_TIE_RTOL", rtol)
    rng = np.random.default_rng(7)
    spec = parse_group("Z/31")
    for freqs, grid in [((3, 11), 1), ((5,), 2)]:
        f = random_bounded(spec, rng)
        region = np.sort(rng.choice(31, size=20, replace=False))
        rep = u3_oracle_bracket(f, region, freqs, grid)
        vals, coef_values = _reference_bracket_scan(f, region, freqs, grid)
        width = len(freqs) * (len(freqs) + 3) // 2
        assert _bracket_key(rep.witness) == _reference_lex_first(vals, coef_values, width, rtol)


def test_bracket_oracle_point_mass_tie_is_lex_first():
    # every tuple ties exactly on a point mass, so the witness is the first
    # tuple: every coefficient at the smallest grid value
    spec = parse_group("Z/11")
    rep = u3_oracle_bracket(GroupFunction.indicator(spec, [3]), np.arange(11), [1], grid=3)
    assert abs(rep.value - 1 / 11) < 1e-15
    assert rep.witness.quad == ((Fraction(-3),),) and rep.witness.lin == (Fraction(-3),)


def test_bracket_oracle_empty_region():
    f = constant(parse_group("Z/11"), 1.0)
    with pytest.raises(TooSmall, match="bracket oracle needs a nonempty region"):
        u3_oracle_bracket(f, np.array([], dtype=int), [1], 2)


def test_bracket_oracle_memory_is_bounded():
    # 36^3 quadratic x 36^2 linear tuples (6.0e7) on 33 points is inside the
    # budget; the whole correlation matrix would take about 1 GB
    N, freqs, grid = 101, (1, 30), 4
    region = np.array([n % N for n in range(-16, 17)], dtype=np.int64)
    assert 36**5 >= 5e7 and 36**5 * len(region) <= norms.ORACLE_BUDGET
    quad = ((Fraction(5, 4), Fraction(-3, 2)), (Fraction(-3, 2), Fraction(1, 4)))
    bq = BracketQuadratic(N, freqs, quad, (Fraction(-2), Fraction(7, 4)))
    f = GroupFunction(parse_group("Z/101"), bq.exp_values(sign=1.0))
    rep, peak = traced_peak(lambda: u3_oracle_bracket(f, region, freqs, grid))
    assert peak < 64 * 2**20, peak
    assert rep.value > 1 - 1e-9
    assert (rep.witness.quad, rep.witness.lin) == (quad, bq.lin)


# --- the support window of the fourth moments ----------------------------------


def test_fast_length_matches_brute_force():
    smooth = sorted(2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(6))
    for n in range(1, 5001):
        assert norms._fast_length(n) == next(s for s in smooth if s >= n)


@st.composite
def arc_planted(draw):
    """(spec, supp): rank 1-3, factor orders 1-60 with |G| <= 4000, and supp a
    random part of a box of arcs, one per axis: an arc that wraps past 0, one
    point, about half the axis, or any arc; or the empty support."""
    orders = draw(st.lists(st.integers(1, 60), min_size=1, max_size=3).filter(lambda o: prod(o) <= 4000))
    spec = GroupSpec(tuple(orders))
    if draw(st.integers(0, 9)) == 9:
        return spec, np.zeros(0, dtype=np.int64)
    axes = []
    for n in orders:
        kind = draw(st.sampled_from(["wrap", "point", "half", "any"]))
        if kind == "point":
            L = 1
        elif kind == "half":
            L = draw(st.integers(max(1, n // 2 - 1), max(1, (n + 1) // 2)))
        else:
            L = draw(st.integers(1, n))
        s = n - draw(st.integers(1, L)) if kind == "wrap" else draw(st.integers(0, n - 1))
        axes.append((s + np.arange(L)) % n)
    box = spec.encode(np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1))
    keep = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(size=box.size) < 0.7
    return spec, np.unique(box[keep])


@given(planted=arc_planted(), seed=st.integers(0, 2**32 - 1))
def test_windowed_fourth_moment_matches_full_length(planted, seed):
    # rows that vanish off supp: the windowed sum against sum_xi |ghat(xi)|^4
    # over the whole group by the multidimensional FFT
    spec, supp = planted
    rng = np.random.default_rng(seed)
    on_supp = rng.uniform(0, 1, (5, len(supp))) * np.exp(2j * np.pi * rng.uniform(0, 1, (5, len(supp))))
    on_supp[1] = 0  # an identically zero row
    w = rng.uniform(0.5, 2.0, 5)
    got = norms._weighted_u2_pow4(spec, supp, 5, lambda r0, r1: (on_supp[r0:r1].copy(), w[r0:r1]), live=1)

    full = np.zeros((5, spec.order), dtype=complex)
    full[:, supp] = on_supp
    F = np.fft.fftn(full.reshape((5,) + spec.orders), axes=range(1, spec.rank + 1)) / spec.order
    want = float(w @ np.sum(np.abs(F.reshape(5, -1)) ** 4, axis=1))
    assert abs(got - want) <= 1e-12 * want

    window, at = norms._support_window(spec, supp)
    assert window.rank == spec.rank and all(p <= n for p, n in zip(window.orders, spec.orders))
    assert len(np.unique(at)) == len(supp)


@pytest.mark.parametrize("N, arc", [(61, range(-5, 7)), (37, range(3, 10)), (50, range(0, 1))])
def test_recursive_matches_direct_on_a_local_support(N, arc, rng):
    # supp f in a short arc of Z/N, wrapping past 0 in the first case, so the
    # recursive norms run on a window shorter than N
    spec = GroupSpec((N,))
    vals = np.zeros(N, dtype=complex)
    vals[np.array(arc) % N] = rng.uniform(0.2, 1, len(arc)) * np.exp(2j * np.pi * rng.uniform(0, 1, len(arc)))
    f = GroupFunction(spec, vals)
    assert norms._support_window(spec, np.flatnonzero(vals))[0].order < N
    for d in (2, 3):
        a = gowers_norm(f, d, method="direct").value
        b = gowers_norm(f, d, method="recursive").value
        assert abs(a - b) <= 1e-12 * a


def test_rows_are_transformed_on_the_support_window(monkeypatch, rng):
    # fw(4001) lives in an arc of 769 points: its rows go through Z/1600,
    # 1600 = 2^6 5^2 the least such length >= 2 * 769 - 1; a full-support
    # F5^3 function keeps its rows of length 125
    from u3kit.experiments import fw_counterexample

    lengths = []
    real = norms.dft_values

    def counting(spec, values, work=None):
        assert values.shape[-1] == spec.order
        lengths.append(spec.order)
        return real(spec, values, work)

    monkeypatch.setattr(norms, "dft_values", counting)
    for d in (2, 3):
        lengths.clear()
        gowers_norm(fw_counterexample(4001), d)
        assert lengths and set(lengths) == {1600}
    lengths.clear()
    gowers_norm(random_unimodular(parse_group("F5^3"), rng), 3)
    assert lengths and set(lengths) == {125}


@st.composite
def small_supported(draw, max_order: int) -> GroupFunction:
    """A function on a group of rank 1-3 (1-point axes allowed) of order at
    most max_order, supported on the whole group, nothing, one point, a box
    of arcs one of which wraps past 0, or a random subset."""
    orders = draw(st.lists(st.integers(1, max_order), min_size=1, max_size=3).filter(lambda o: prod(o) <= max_order))
    spec = GroupSpec(tuple(orders))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["full", "empty", "point", "wrap", "random"]))
    if kind == "full":
        supp = np.arange(spec.order)
    elif kind == "empty":
        supp = np.zeros(0, dtype=np.int64)
    elif kind == "point":
        supp = rng.integers(0, spec.order, 1)
    elif kind == "wrap":  # the first arc runs past 0 when it is longer than 1
        arcs = []
        for n in orders:
            L = draw(st.integers(1, n))
            s = draw(st.integers(0, n - 1)) if arcs else n - draw(st.integers(1, L))
            arcs.append((s + np.arange(L)) % n)
        supp = spec.encode(np.stack([a.ravel() for a in np.meshgrid(*arcs, indexing="ij")], axis=-1))
    else:
        supp = np.flatnonzero(rng.uniform(size=spec.order) < 0.6)
    vals = np.zeros(spec.order, dtype=complex)
    vals[supp] = rng.uniform(0.2, 1, len(supp)) * np.exp(2j * np.pi * rng.uniform(0, 1, len(supp)))
    return GroupFunction(spec, vals)


@given(data=st.data(), d=st.sampled_from([2, 3, 4]))
def test_recursive_matches_direct_on_every_support_kind(data, d):
    # the extension rows, the window and the skipped zero tests against the
    # cube sum, on groups small enough for the direct method
    f = data.draw(small_supported({2: 60, 3: 30, 4: 12}[d]))
    a = gowers_norm(f, d, method="direct").value
    b = gowers_norm(f, d, method="recursive").value
    assert abs(a - b) <= 1e-12 * a


@pytest.mark.parametrize("orders", [(211,), (5, 5, 5), (4, 1, 9), (2,) * 8])
@pytest.mark.parametrize("full", [True, False])
def test_extension_rows_equal_the_gathered_rows(orders, full, rng):
    # f(x + h) read from the periodic extension (a sliding window on a full
    # cyclic group) is the same float as f at add_indices(x, h)
    spec = GroupSpec(orders)
    vals = random_unimodular(spec, rng).values
    supp = np.arange(spec.order) if full else np.flatnonzero(rng.uniform(size=spec.order) < 0.5)
    hs = rng.integers(0, spec.order, 40)
    want = vals[spec.add_indices(supp[None, :], hs[:, None])] * np.conj(vals[supp])
    got = norms._translator(spec, vals, supp)(hs) * np.conj(vals[supp])
    assert np.array_equal(got, want)


def test_norms_through_add_indices_when_the_extension_is_large(monkeypatch, rng):
    # F2^8 has an extension of 3^8 = 6561 entries: more than 16 per element
    # of the 256, so with _EXTENSION_PER_ELEMENT = 16 the rows are gathered
    # through add_indices
    spec = parse_group("F2^8")
    f = random_bounded(spec, rng)
    want = {d: gowers_norm(f, d).value for d in (3, 4)}
    calls = []
    real = GroupSpec.add_indices

    def counting(self, a, b):
        calls.append(np.size(a) * np.size(b))
        return real(self, a, b)

    monkeypatch.setattr(GroupSpec, "add_indices", counting)
    gowers_norm(f, 3)
    assert calls == []  # the extension serves every U^3 row
    monkeypatch.setattr(norms, "_EXTENSION_PER_ELEMENT", 16)
    for d in (3, 4):
        assert abs(gowers_norm(f, d).value - want[d]) <= 1e-12 * want[d]
    assert calls and max(calls) >= 16 * spec.order


@pytest.mark.parametrize("c", [1e-20, 1e-45, 1e-200])
@pytest.mark.parametrize("method", ["direct", "recursive"])
def test_tiny_functions_do_not_underflow(c, method):
    # g = c e(n^2/7) on Z/7: U^1 = c/sqrt 7, U^2 = c 7^(-1/4), U^3 = U^4 = c;
    # the 2^d-th powers of c alone underflow, so the norm is scaled
    spec = GroupSpec((7,))
    n = np.arange(7)
    g = GroupFunction(spec, c * np.exp(2j * np.pi * n**2 / 7))
    for d, want in zip((1, 2, 3, 4), (7**-0.5, 7**-0.25, 1.0, 1.0)):
        got = gowers_norm(g, d, method=method).value
        assert abs(got - c * want) <= 1e-12 * c * want, (d, got)


# --- the direct method's blocks ----------------------------------------------------


@given(data=st.data(), d=st.integers(1, 4))
def test_direct_value_does_not_depend_on_the_block(data, d):
    # a block of one cube fixes every coordinate but the last; seven lets a
    # short axis run whole and a long one in parts; the default takes small
    # groups in one block.  Only the order of the sum changes
    spec = data.draw(specs(int(1024 ** (1 / (d + 1)))))
    f = data.draw(functions(spec))
    want = gowers_norm(f, d, method="direct").value
    with pytest.MonkeyPatch.context() as mp:
        for block in (1, 7):
            mp.setattr(norms, "_DIRECT_BLOCK", block)
            assert abs(gowers_norm(f, d, method="direct").value - want) <= 1e-12 * want, block


@pytest.mark.parametrize("d", [3, 4])
def test_direct_method_memory_within_block_bound(d, rng):
    # U^3 on Z/31 held all 31^4 cubes at once (12.7 MiB under tracemalloc) and
    # U^4 31 blocks of 31^4 (49.3 MiB); a block of _DIRECT_BLOCK cubes keeps
    # a few arrays of that length, each built from a smaller corner
    f = random_bounded(parse_group("Z/31"), rng)
    got, peak = traced_peak(lambda: gowers_norm(f, d, method="direct").value)
    want = gowers_norm(f, d).value
    assert abs(got - want) <= 1e-12 * want
    assert peak <= 64 * norms._DIRECT_BLOCK
