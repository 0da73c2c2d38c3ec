"""Property tests of the sumset kernels, bohr.sumset / bohr.iterated_sumset
and the pair-sum and convolution kernels behind sumset, against the plain
fold-by-fold np.unique construction with no early exit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import traced_peak
from u3kit import bohr, fourier, inverse_f5
from u3kit.errors import BudgetExceeded
from u3kit.groups import GroupFunction, GroupSpec
from u3kit.inverse_f5 import PhaseGraph, phase_derivative_graph, random_slice


def reference_iterated_sumset(spec, A, plus, minus, budget=bohr.SUMSET_BUDGET, products=None):
    """plus*A - minus*A: np.unique over all |acc| x |K| sums at every fold,
    each fold refused when its price min(|acc| * |K|, _CONV_COST * |G|)
    exceeds the budget, unless it is idle: acc is all of G (and K is not
    empty), or the fold before it left acc unchanged."""
    A = np.unique(np.asarray(list(A), dtype=np.int64))
    acc = np.zeros(1, dtype=np.int64)
    idle = False
    for K, folds in ((A, plus), (np.unique(spec.neg_indices(A)), minus)):
        for _ in range(folds):
            idle = idle or (len(acc) == spec.order and len(K) > 0)
            if not idle:
                cost = min(len(acc) * len(K), bohr._CONV_COST * spec.order)
                if products is not None:
                    products.append(cost)
                if cost > budget:
                    raise BudgetExceeded("pair sumset budget exceeded")
            nxt = np.unique(spec.add_indices(acc[:, None], K[None, :]))
            idle, acc = np.array_equal(nxt, acc), nxt
    return acc


# largest factor order per rank, keeping |G| <= 4096
MAX_FACTOR = {1: 60, 2: 13, 3: 9, 4: 8, 5: 5, 6: 4}
mixed_specs = st.integers(1, 6).flatmap(
    lambda r: st.lists(st.integers(1, MAX_FACTOR[r]), min_size=r, max_size=r)
).map(lambda o: GroupSpec(tuple(o)))
# F_p^n x dual(F_p^n), the pair groups of the F_p^n pipeline
pair_specs = st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 3)).map(
    lambda pn: GroupSpec((pn[0],) * (2 * pn[1]))
)
specs = st.one_of(mixed_specs, pair_specs)


@st.composite
def sets_in(draw, spec: GroupSpec):
    N = spec.order
    kind = draw(st.sampled_from(["sparse", "dense", "subgroup", "coset"]))
    if kind == "sparse":
        return draw(st.lists(st.integers(0, N - 1), max_size=6))
    if kind == "dense":  # about half the group: 2A is usually all of G
        return draw(st.lists(st.integers(0, N - 1), min_size=N // 2, max_size=N // 2 + 1))
    gens = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=3))
    H = np.array([0], dtype=np.int64)
    for g in gens:  # the subgroup generated by gens: H + <g>
        H = np.unique(spec.add_indices(H[:, None], spec.scale_indices(np.arange(N), g)[None, :]))
    y = draw(st.integers(0, N - 1)) if kind == "coset" else 0
    return spec.add_indices(H, y).tolist()


def outcome(fn):
    try:
        return fn().tolist()
    except BudgetExceeded:
        return "BudgetExceeded"


@given(st.data())
def test_iterated_sumset_matches_reference(data):
    spec = data.draw(specs)
    A = data.draw(sets_in(spec))
    plus, minus = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    budget = data.draw(st.one_of(st.just(bohr.SUMSET_BUDGET), st.integers(0, 300)))
    with mock.patch.object(bohr, "SUMSET_BUDGET", budget):
        got = outcome(lambda: bohr.iterated_sumset(spec, A, plus, minus))
    assert got == outcome(lambda: reference_iterated_sumset(spec, A, plus, minus, budget))


@given(st.data())
def test_sumset_matches_unique(data):
    spec = data.draw(specs)
    A = np.array(data.draw(sets_in(spec)), dtype=np.int64)
    B = np.array(data.draw(sets_in(spec)), dtype=np.int64)
    chunk = data.draw(st.sampled_from([1, 7, 100, bohr._SUMSET_CHUNK]))  # rows of A per block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bohr, "_SUMSET_CHUNK", chunk)
        got = bohr.sumset(spec, A, B)
    ref = np.unique(spec.add_indices(A[:, None], B[None, :]))
    assert got.dtype == np.int64 and got.tolist() == ref.tolist()


def test_sumset_memory_within_chunk_bound():
    # 10^7 sums on F5^6: all of them at once peaked at 86 MB under
    # tracemalloc; blocks of _SUMSET_CHUNK sums keep a few int64 arrays of
    # that length at a time (about 4 MB).  sumset itself convolves at this
    # size (see test_conv_fold_memory_bound), so the pair kernel is called
    spec = GroupSpec((5,) * 6)
    rng = np.random.default_rng(0)
    A = rng.choice(spec.order, 3200, replace=False)
    B = rng.choice(spec.order, 3125, replace=False)
    got, peak = traced_peak(lambda: bohr._pair_sumset(spec, A, B))
    assert got.tolist() == list(range(spec.order))
    assert peak <= 5 * 8 * bohr._SUMSET_CHUNK


# F_p^n, whose transform blocks are all dense; cyclic groups with one long
# FFT axis; mixed groups, some with an FFT axis
kernel_specs = st.one_of(
    st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4)).map(lambda pn: GroupSpec((pn[0],) * pn[1])),
    st.sampled_from([(211,), (101,), (64,), (97,)]).map(GroupSpec),
    st.sampled_from([(4, 6), (12, 35), (2, 3, 5), (6, 10, 2), (4, 45)]).map(GroupSpec),
)


@st.composite
def kernel_cases(draw):
    """(spec, A, B): A empty, A = G, or random sets with |A| |B| at most
    (below) or above _CONV_COST |G|, the crossover of sumset."""
    spec = draw(kernel_specs)
    N, cap = spec.order, bohr._CONV_COST * spec.order
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sides = ["empty", "whole", "below"] + (["above"] if N * N > cap else [])
    side = draw(st.sampled_from(sides))
    a = {"empty": 0, "whole": N}.get(side, int(rng.integers(1, N + 1)))
    if side == "above":
        a = max(a, cap // N + 1)
        b = int(rng.integers(cap // a + 1, N + 1))
    else:
        b = int(rng.integers(0, min(N, cap // max(a, 1)) + 1))
    A, B = (np.sort(rng.choice(N, size, replace=False)) for size in (a, b))
    return spec, A, B


@given(kernel_cases(), st.booleans())
def test_both_sumset_kernels_match_pair_reference(case, swap):
    spec, A, B = case
    if swap:
        A, B = B, A
    ref = np.unique(spec.add_indices(A[:, None], B[None, :])).tolist()
    for kernel in (bohr._pair_sumset, bohr._conv_sumset, bohr.sumset):
        got = kernel(spec, A, B)
        assert got.dtype == np.int64 and got.tolist() == ref


@pytest.mark.parametrize("shift, trips", [(0.2, False), (0.3, True)])
def test_conv_sumset_checks_the_integer_margin(shift, trips, monkeypatch):
    # a perturbation of the last transform moves every count by `shift`:
    # within 1/4 of an integer the counts still threshold to A + B, past it
    # the kernel refuses to read them
    spec = GroupSpec((5,) * 4)
    A, B = np.arange(0, 625, 3), np.arange(0, 625, 7)
    ref = np.unique(spec.add_indices(A[:, None], B[None, :])).tolist()
    calls, real = [], fourier.dft_values

    def perturbed(spec, values, work=None):
        calls.append(1)
        out = real(spec, values, work)
        return out + shift if len(calls) == 3 else out  # the last transform gives the counts

    monkeypatch.setattr(fourier, "dft_values", perturbed)
    if trips:
        with pytest.raises(AssertionError, match=r"a count lies 0\.3 from an integer"):
            bohr._conv_sumset(spec, A, B)
    else:
        assert bohr._conv_sumset(spec, A, B).tolist() == ref
    assert len(calls) == 3


@pytest.mark.parametrize("orders, per_point", [((5,) * 6, 48), ((60, 60), 80)])
def test_conv_fold_memory_bound(orders, per_point):
    # the bound of _conv_sumset's docstring: three complex arrays over G
    # (48 |G| bytes) when every transform block is dense, as on F5^6, and
    # up to 32 |G| more for FFT blocks (Z/60 has one), plus a few KB
    spec = GroupSpec(orders)
    N = spec.order
    rng = np.random.default_rng(0)
    A = np.sort(rng.choice(N, N // 3, replace=False))
    K = np.sort(rng.choice(N, 125, replace=False))
    assert len(A) * len(K) > bohr._CONV_COST * N  # sumset convolves
    ref = bohr._pair_sumset(spec, A, K)
    bohr.sumset(spec, A, K)  # character tables are cached before the count
    got, peak = traced_peak(lambda: bohr.sumset(spec, A, K))
    assert got.tolist() == ref.tolist()
    assert peak <= per_point * N + 4096


def test_outer_sum_over_two_runs_peaks_near_its_output():
    # F5^5 is two table runs; the U^3 rows add 128 shifts to all 3125
    # points.  One full 128 x 3125 array per run peaked at 7.08 MB under
    # tracemalloc; later runs added in row blocks keep it near the 3.2 MB output
    spec = GroupSpec((5,) * 5)
    assert len(spec._runs) == 2
    x = np.arange(spec.order, dtype=np.int64)[None, :]
    hs = np.arange(128, dtype=np.int64)[:, None] * 7
    spec.add_indices(x, hs)  # the run tables are cached before the count
    got, peak = traced_peak(lambda: spec.add_indices(x, hs))
    assert np.array_equal(got, spec.encode(spec.decode(x) + spec.decode(hs)))
    assert peak <= 1.25 * got.nbytes


@pytest.mark.parametrize("A, folds", [
    (GroupSpec((5,) * 4).coset_points(0, [1, 5], (5, 5)), 2),  # a subgroup: H + H = H
    (list(range(126)), 5),  # H u {g} for H of index 5: 4A misses 4g + H, 5A = G
])
def test_fixed_point_stops_folding(A, folds, monkeypatch):
    spec = GroupSpec((5,) * 4)
    calls = []
    real = bohr.sumset
    monkeypatch.setattr(bohr, "sumset", lambda *args: calls.append(1) or real(*args))
    got = bohr.iterated_sumset(spec, A, 8, 8)
    assert len(calls) == folds  # neither phase folds again after the fixed point
    assert got.tolist() == reference_iterated_sumset(spec, A, 8, 8).tolist()


def test_fixed_point_is_decided_before_the_budget(monkeypatch):
    # a graph with all 9 shifts of F3^2: its plus folds cost 9, 81, 39 * 9 and
    # 76 * 9 = 684 sums, and 4G is all 81 points of G x dual(G), so no minus
    # fold does work, and none is priced at 81 * 9 = 729 > 728
    spec = GroupSpec((3, 3))
    gamma = PhaseGraph(spec, np.arange(9) * 9 + np.random.default_rng(0).integers(0, 9, 9))
    monkeypatch.setattr(bohr, "SUMSET_BUDGET", 728)
    assert bohr.iterated_sumset(gamma.pair_group, gamma.keys, 4, 4).tolist() == list(range(81))
    monkeypatch.setattr(bohr, "SUMSET_BUDGET", 683)  # a fold that does work is still refused
    with pytest.raises(BudgetExceeded, match=r"at plus fold 4 of 4: min\(\|acc\| \* \|K\|, 16 \* \|G\|\) = "
                                             r"min\(76 \* 9, 16 \* 81\) = 684 > "):
        bohr.iterated_sumset(gamma.pair_group, gamma.keys, 4, 4)


def test_random_slice_budget_matches_reference(monkeypatch):
    # a noisy quadratic phase on F5^2; every budget at and just below a fold's
    # |acc| * |K| must be refused exactly when the reference refuses it
    spec = GroupSpec((5, 5))
    rng = np.random.default_rng(3)
    x = spec.decode(np.arange(spec.order))
    q = (x[:, 0] ** 2 + 2 * x[:, 0] * x[:, 1] + 3 * x[:, 1]) % 5
    f = GroupFunction(spec, np.exp(2j * np.pi * (q / 5 + 0.05 * rng.uniform(size=spec.order))))
    gamma = phase_derivative_graph(f, 0.5)
    products: list[int] = []
    # the reference reads the budget when it is called, as iterated_sumset does
    monkeypatch.setattr(inverse_f5, "iterated_sumset", lambda *args: reference_iterated_sumset(
        *args, budget=bohr.SUMSET_BUDGET, products=products))
    reference = random_slice(gamma, 0).keys.tolist()
    budgets = sorted({b for p in products for b in (p - 1, p)})
    expected = {}
    for b in budgets:
        try:
            with mock.patch.object(bohr, "SUMSET_BUDGET", b):
                expected[b] = random_slice(gamma, 0).keys.tolist()
        except BudgetExceeded:
            expected[b] = "BudgetExceeded"
    monkeypatch.undo()
    assert random_slice(gamma, 0).keys.tolist() == reference
    assert "BudgetExceeded" in expected.values()
    for b in budgets:
        try:
            with mock.patch.object(bohr, "SUMSET_BUDGET", b):
                assert expected[b] == random_slice(gamma, 0).keys.tolist()
        except BudgetExceeded:
            assert expected[b] == "BudgetExceeded"


def reference_random_slice(gamma, seed):
    """random_slice by plain loops, with m the least integer such that
    p^m >= |A|: A from the reference 8-fold sumset, psi the first seeded
    draw that vanishes on no point of A \\ {0}, and the densest fiber, the
    lex-smallest value of psi on ties.  Returns (|A|, m, sliced keys)."""
    spec = gamma.spec
    p, N = spec.orders[0], spec.order
    diff = reference_iterated_sumset(gamma.pair_group, gamma.keys.tolist(), 8, 8)
    A = [k % N for k in diff.tolist() if k // N == 0]
    m = 0
    while p**m < len(A):
        m += 1
    rng = np.random.default_rng(seed)
    for _ in range(100):
        psi = rng.integers(0, p, size=(m, spec.rank))
        if all(np.any(psi @ spec.coords_of(xi) % p) for xi in A if xi):
            break
    fibers = {}
    for k in gamma.keys.tolist():
        fibers.setdefault(tuple((psi @ spec.coords_of(k % N) % p).tolist()), []).append(k)
    return len(A), m, fibers[min(fibers, key=lambda c: (-len(fibers[c]), c))]


@pytest.mark.parametrize("seed", range(4))
def test_random_slice_matches_reference_at_a_power_of_p(seed, monkeypatch):
    # |A| = 125 = 5^3 on F5^3 takes m = 3; ceil(log 125 / log 5) in floats
    # is 4, since the quotient rounds to 3.0000000000000004.  A 4-row psi
    # only refines the fibers of the 3-row one drawn first, so the kept fiber
    # often agrees (at seed 2 it does not); the rows drawn show m itself
    spec = GroupSpec((5,) * 3)
    rng = np.random.default_rng(seed)
    hs = np.sort(rng.choice(spec.order, 12, replace=False))
    gamma = PhaseGraph(spec, hs * spec.order + rng.integers(0, spec.order, 12))
    size, m, keys = reference_random_slice(gamma, seed)
    assert (size, m) == (125, 3)
    rows, default_rng = [], np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def integers(self, low, high, size):
            rows.append(size[0])
            return self.rng.integers(low, high, size=size)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    assert random_slice(gamma, seed).keys.tolist() == keys
    assert rows and set(rows) == {m}


@pytest.mark.parametrize("plus, minus, where", [
    (2, 2, "plus fold 2 of 2"),
    (1, 1, "minus fold 1 of 1"),
    (0, 3, "minus fold 2 of 3"),
])
def test_refusal_names_the_fold_and_the_sizes(plus, minus, where, monkeypatch):
    # |A| = 10 on Z/101: the first fold is 1 * 10 sums, the second 10 * 10
    monkeypatch.setattr(bohr, "SUMSET_BUDGET", 50)
    with pytest.raises(BudgetExceeded) as err:
        bohr.iterated_sumset(GroupSpec((101,)), range(10), plus, minus)
    assert str(err.value) == (f"pair sumset budget exceeded at {where}: min(|acc| * |K|, 16 * |G|) = "
                              "min(10 * 10, 16 * 101) = 100 > SUMSET_BUDGET = 50")


def test_budget_prices_a_fold_by_the_kernel_that_runs(monkeypatch):
    # 200 points of F5^4: the second fold has 200 * 200 = 40000 pair sums,
    # but it convolves at 16 * 625 = 10000, which is its price
    spec = GroupSpec((5,) * 4)
    A = np.random.default_rng(0).choice(spec.order, 200, replace=False)
    monkeypatch.setattr(bohr, "SUMSET_BUDGET", 10_000)
    assert bohr.iterated_sumset(spec, A, 2, 0).tolist() == reference_iterated_sumset(spec, A, 2, 0).tolist()
    monkeypatch.setattr(bohr, "SUMSET_BUDGET", 9_999)
    with pytest.raises(BudgetExceeded) as err:
        bohr.iterated_sumset(spec, A, 2, 0)
    assert str(err.value) == ("pair sumset budget exceeded at plus fold 2 of 2: min(|acc| * |K|, 16 * |G|) = "
                              "min(200 * 200, 16 * 625) = 10000 > SUMSET_BUDGET = 9999")


def test_cli_refusal_names_the_fold(monkeypatch, capsys):
    import json

    from u3kit.cli import main

    monkeypatch.setattr(bohr, "SUMSET_BUDGET", 50)
    assert main(["bogolyubov", "--group", "Z/101", "--set", ",".join(map(str, range(10)))]) == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "BudgetExceeded"
    assert ("plus fold 2 of 2: min(|acc| * |K|, 16 * |G|) = min(10 * 10, 16 * 101) = 100 > SUMSET_BUDGET = 50"
            in error["message"])
