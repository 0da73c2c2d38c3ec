from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_bounded
from u3kit.bohr import (
    BohrSet,
    bogolyubov,
    bohr_norm_exact,
    bohr_set,
    character_kernel,
    coset_progression_in_bohr,
    find_regular_rho,
    is_regular,
    iterated_sumset,
    local_bogolyubov,
    separating_bohr,
)
from u3kit.errors import BudgetExceeded, NoZero, NotFound, NotProper, RhoTooLarge
from u3kit.groups import GroupFunction, GroupSpec, pair, parse_group


def test_bohr_norm_examples(rng):
    Z12 = parse_group("Z/12")
    S = [Z12.dual([1])]
    assert bohr_norm_exact(Z12.zero(), S) == 0
    assert bohr_norm_exact(Z12.element([7]), S) == Fraction(5, 12)
    # subadditivity
    spec = parse_group("Z/4xZ/9")
    S = [spec.dual([1, 2]), spec.dual([3, 1])]
    for _ in range(50):
        x = spec.element_by_index(int(rng.integers(36)))
        y = spec.element_by_index(int(rng.integers(36)))
        assert bohr_norm_exact(x + y, S) <= bohr_norm_exact(x, S) + bohr_norm_exact(y, S)


def test_bohr_set_members():
    Z12 = parse_group("Z/12")
    B = bohr_set(Z12, [Z12.dual([1])], Fraction(1, 5))
    assert B.members.tolist() == [0, 1, 2, 10, 11]
    # empty constraint set gives the whole group
    assert len(bohr_set(Z12, [], Fraction(1, 10))) == 12
    # rho > 1/2 with a full-order character gives the whole group
    Z11 = parse_group("Z/11")
    assert len(bohr_set(Z11, [Z11.dual([1])], Fraction(51, 100))) == 11
    # symmetry and zero membership
    B = bohr_set(Z12, [Z12.dual([5])], Fraction(3, 10))
    mem = set(B.members.tolist())
    assert 0 in mem and all((12 - m) % 12 in mem for m in mem)


def test_regularity_examples():
    Z101 = parse_group("Z/101")
    assert is_regular(bohr_set(Z101, [Z101.dual([1])], Fraction(1, 5)))
    F34 = parse_group("F3^4")
    assert not is_regular(bohr_set(F34, [F34.dual([1, 0, 0, 0])], Fraction(332, 1000)))
    # d = 0 is always regular
    assert is_regular(bohr_set(Z101, [], Fraction(1, 5)))


def test_find_regular(rng):
    Z101 = parse_group("Z/101")
    r = find_regular_rho(Z101, [Z101.dual([1])], Fraction(15, 100))
    assert Fraction(15, 100) <= r <= Fraction(30, 100)
    assert is_regular(bohr_set(Z101, [Z101.dual([1])], r))
    F52 = parse_group("F5^2")
    r = find_regular_rho(F52, [F52.dual([1, 0])], Fraction(1, 10))
    assert is_regular(bohr_set(F52, [F52.dual([1, 0])], r))
    assert r != Fraction(1, 5)  # avoids the discontinuity 1/5


def test_find_regular_randomized(rng):
    for _ in range(25):
        N = int(rng.integers(20, 300))
        spec = parse_group(f"Z/{N}")
        d = int(rng.integers(1, 4))
        S = [spec.dual_by_index(int(rng.integers(1, N))) for _ in range(d)]
        eps = Fraction(int(rng.integers(8, 40)), 200)
        r = find_regular_rho(spec, S, eps)
        assert eps <= r <= 2 * eps
        assert is_regular(bohr_set(spec, S, r))


def test_bohr_size_bounds(rng):
    for _ in range(30):
        N = int(rng.integers(10, 400))
        spec = parse_group(f"Z/{N}")
        d = int(rng.integers(1, 4))
        S = [spec.dual_by_index(int(rng.integers(1, N))) for _ in range(d)]
        rho = Fraction(int(rng.integers(4, 45)), 100)
        B = bohr_set(spec, S, rho)
        assert len(B) >= float(rho) ** d * N  # exact integer comparison wrapper
        assert len(B.with_rho(2 * rho)) <= 5**d * len(B)


def test_separation_examples(rng):
    Z12 = parse_group("Z/12")
    assert separating_bohr(Z12, [0]) == []
    S = separating_bohr(Z12, [0, 6])
    assert len(S) <= 2
    with pytest.raises(NoZero):
        separating_bohr(Z12, [1, 2])
    Z101 = parse_group("Z/101")
    for _ in range(5):
        A = [0] + sorted(int(v) for v in rng.choice(np.arange(1, 101), 7, replace=False))
        S = separating_bohr(Z101, A)
        assert len(S) <= 1 + int(np.ceil(np.log2(len(A))))
        for a in A[1:]:
            assert bohr_norm_exact(Z101.element_by_index(a), S) >= Fraction(1, 4)


def test_bogolyubov_examples():
    Z12 = parse_group("Z/12")
    S = bogolyubov(Z12, [0, 3, 6, 9])
    assert sorted(xi.index for xi in S) == [0, 4, 8]
    B = BohrSet(Z12, tuple(S), Fraction(1, 4))
    two = set(iterated_sumset(Z12, [0, 3, 6, 9], 2, 2).tolist())
    assert set(B.members.tolist()) <= two
    # A = G: S = {0} and B = G
    S = bogolyubov(Z12, range(12))
    assert [xi.index for xi in S] == [0]
    assert len(BohrSet(Z12, tuple(S), Fraction(1, 4))) == 12


def test_bogolyubov_randomized(rng):
    for _ in range(20):
        N = int(rng.integers(20, 100))
        spec = parse_group(f"Z/{N}")
        size = max(1, int(0.3 * N))
        A = sorted(int(v) for v in rng.choice(N, size, replace=False))
        delta = len(A) / N
        S = bogolyubov(spec, A)
        assert len(S) <= 2 * delta**-2
        B = BohrSet(spec, tuple(S), Fraction(1, 4))
        two = set(iterated_sumset(spec, A, 2, 2).tolist())
        assert set(B.members.tolist()) <= two


def test_local_bogolyubov(rng):
    spec = parse_group("Z/101")
    S = [spec.dual([1])]
    rho = find_regular_rho(spec, S, Fraction(1, 5))
    B = bohr_set(spec, S, rho)
    members = B.members.tolist()
    # A = B itself
    rep = local_bogolyubov(spec, members, B)
    assert rep.guaranteed_inclusion_ok
    assert rep.k_bound >= len(rep.S_prime)
    # random dense subset
    keep = [m for m in members if rng.uniform() < 0.6] or members[:3]
    if 0 not in keep:
        keep.append(0)
    rep = local_bogolyubov(spec, keep, B)
    assert rep.guaranteed_inclusion_ok
    assert rep.empirical_radius >= rep.guaranteed_radius - 1e-12


def test_local_bogolyubov_trivial_S(rng):
    spec = parse_group("Z/97")
    B = bohr_set(spec, [], Fraction(1, 4))
    A = sorted(int(v) for v in rng.choice(97, 40, replace=False))
    rep = local_bogolyubov(spec, A, B)
    assert rep.guaranteed_inclusion_ok


def test_character_kernel():
    Z12 = parse_group("Z/12")
    H = character_kernel(Z12, [Z12.dual([4])])
    assert H.element_indices().tolist() == [0, 3, 6, 9]
    F52 = parse_group("F5^2")
    H = character_kernel(F52, [F52.dual([1, 2])])
    assert H.order == 5
    spec = parse_group("Z/4xZ/9")
    H = character_kernel(spec, [spec.dual([2, 3])])
    for i in H.element_indices().tolist():
        x = spec.element_by_index(int(i))
        from u3kit.groups import pair

        assert pair(spec.dual([2, 3]), x) == 0


def test_progression_extraction_examples():
    Z101 = parse_group("Z/101")
    ext = coset_progression_in_bohr(Z101, [Z101.dual([1])], Fraction(1, 5))
    p = ext.progression
    assert ext.rank == 1 and p.half_lengths == (21,)
    B = bohr_set(Z101, [Z101.dual([1])], Fraction(1, 5))
    assert set(p.element_indices().tolist()) == set(B.members.tolist())
    assert ext.left_inclusion_ok and ext.right_inclusion_ok and p.proper

    F52 = parse_group("F5^2")
    ext = coset_progression_in_bohr(F52, [F52.dual([1, 0])], Fraction(1, 5))
    assert ext.progression.subgroup.order == 5
    assert ext.left_inclusion_ok and ext.right_inclusion_ok

    ext = coset_progression_in_bohr(Z101, [], Fraction(1, 5))
    assert ext.progression.subgroup.order == 101  # S empty: H = G

    with pytest.raises(RhoTooLarge):
        coset_progression_in_bohr(Z101, [Z101.dual([1])], Fraction(1, 3))


def test_progression_extraction_randomized(rng):
    for _ in range(12):
        N = int(rng.integers(20, 400))
        spec = parse_group(f"Z/{N}")
        d = int(rng.integers(1, 4))
        S = [spec.dual_by_index(int(rng.integers(1, N))) for _ in range(d)]
        rho = Fraction(int(rng.integers(5, 24)), 100)
        ext = coset_progression_in_bohr(spec, S, rho)
        assert ext.progression.proper
        assert ext.left_inclusion_ok and ext.right_inclusion_ok
        assert ext.independent_images and ext.basis_product_certified


def test_averaging_on_subgroup(rng):
    # E_{x in H} E_{y in x+A} f = E_{y in H} f, exactly in exact arithmetic
    spec = parse_group("Z/12")
    H = [0, 3, 6, 9]
    A = [0, 3]
    f = rng.integers(-5, 5, size=12)
    lhs = sum(sum(f[(x + a) % 12] for a in A) / len(A) for x in H) / len(H)
    rhs = sum(f[y] for y in H) / len(H)
    assert abs(lhs - rhs) < 1e-12


def test_averaging_on_bohr(rng):
    # parts (i)-(iv) with the stated constants on a regular Bohr set
    spec = parse_group("Z/101")
    S = [spec.dual([1])]
    d = 1
    rho = find_regular_rho(spec, S, Fraction(1, 5))
    B = bohr_set(spec, S, rho)
    eps = Fraction(1, 200 * d)
    inner = bohr_set(spec, S, eps * rho)
    A = inner.members.tolist()
    members = B.members.tolist()
    for trial in range(5):
        f = random_bounded(spec, rng)
        EB = np.mean(f.values[members])
        # (i) shifted average
        for y in A:
            shifted = np.mean(f.values[[(m + y) % 101 for m in members]])
            assert abs(shifted - EB) <= 200 * d * float(eps) + 1e-9
        # (ii) smoothed average
        smooth = np.mean(
            [np.mean(f.values[[(m + a) % 101 for a in A]]) for m in members]
        )
        assert abs(smooth - EB) <= 200 * d * float(eps) + 1e-9
        # (iii) pigeonhole point for real parts
        g = np.real(f.values)
        EBg = np.mean(g[members])
        best = max(np.mean([g[(m + a) % 101] for a in A]) for m in members)
        assert best >= EBg - 200 * d * float(eps) - 1e-9
        # (iv) point inside the shrunken set
        shrunk = bohr_set(spec, S, (1 - eps) * rho).members.tolist()
        best4 = max(np.mean([g[(m + a) % 101] for a in A]) for m in shrunk)
        assert best4 >= EBg - 500 * d * float(eps) - 1e-9


def test_generalized_fourier_decay(rng):
    # planted locally linear phase with large mean forces small values near 0
    spec = parse_group("Z/101")
    S = [spec.dual([1])]
    rho = find_regular_rho(spec, S, Fraction(1, 6))
    B = bohr_set(spec, S, rho)
    members = B.members.tolist()
    d = 1
    for xi_val in (1, 3):
        phase = np.array([xi_val * m / 101.0 for m in members]) % 1.0
        eta = abs(np.mean(np.exp(2j * np.pi * phase)))
        if eta < 1e-3:
            continue
        for i, m in enumerate(members):
            y = spec.element_by_index(m)
            lhs = min(phase[i], 1 - phase[i])
            rhs = 2**12 * d * float(bohr_norm_exact(y, S)) / (float(rho) * eta**2)
            assert lhs <= rhs + 1e-9


def test_fourier_decay_and_local_bessel(rng):
    spec = parse_group("Z/101")
    S = [spec.dual([1])]
    d = 1
    rho = find_regular_rho(spec, S, Fraction(1, 5))
    B = bohr_set(spec, S, rho)
    members = np.array(B.members.tolist())
    theta = 0.5

    def dual_norm(xi: int) -> float:
        inner = bohr_set(spec, S, Fraction(theta).limit_denominator(100) * rho)
        return max(
            float(min((xi * y) % 101 / 101, 1 - (xi * y) % 101 / 101))
            for y in inner.members.tolist()
        )

    # Fourier decay with constant 64
    for xi in (3, 10, 40):
        lhs = abs(np.mean(np.exp(2j * np.pi * xi * members / 101)))
        dn = dual_norm(xi)
        if dn > 0:
            assert lhs <= 64 * (theta * d / dn) ** 0.5 + 1e-9

    # local Bessel with constant 2^7 k^2 (theta d / delta)^(1/2)
    freqs = [3, 25, 47]
    k = len(freqs)
    delta = min(
        dual_norm((a - b) % 101) for i, a in enumerate(freqs) for b in freqs[i + 1 :]
    )
    if delta > 0:
        for _ in range(5):
            b = np.exp(2j * np.pi * rng.uniform(size=k))
            vals = np.abs(
                sum(bb * np.exp(2j * np.pi * xi * members / 101) for bb, xi in zip(b, freqs))
            )
            lhs = float(np.mean(vals**2))
            assert lhs <= k + 2**7 * k**2 * (theta * d / delta) ** 0.5 + 1e-9


def test_local_bessel_dual_covering(rng):
    # large spectrum of A <= B at threshold eta E(1_B) is covered by
    # k <= 2/eta^2 balls of radius 2^16 theta d / eta^4 in the dual norm
    spec = parse_group("Z/101")
    S = [spec.dual([1])]
    d = 1
    rho = find_regular_rho(spec, S, Fraction(1, 5))
    B = bohr_set(spec, S, rho)
    members = B.members.tolist()
    theta = Fraction(1, 4)
    inner = bohr_set(spec, S, theta * rho).members.tolist()

    def dual_norm(xi: int) -> float:
        return max(
            float(min((xi * y) % 101 / 101, 1 - (xi * y) % 101 / 101)) for y in inner
        )

    for trial in range(5):
        A = [m for m in members if rng.uniform() < 0.5] or members[:2]
        indA = GroupFunction.indicator(spec, A)
        from u3kit.fourier import dft

        coeffs = np.abs(dft(indA).values)
        eta = 0.3
        gamma = [int(i) for i in np.nonzero(coeffs >= eta * len(members) / 101)[0]]
        radius = 2**16 * float(theta) * d / eta**4
        centers: list[int] = []
        for xi in gamma:
            if all(dual_norm((xi - c) % 101) >= radius for c in centers):
                centers.append(xi)
        assert len(centers) <= 2 / eta**2
        for xi in gamma:  # covering property of the maximal separated set
            assert any(dual_norm((xi - c) % 101) <= radius for c in centers)


def test_trilinear_bound(rng):
    # u2 bias on B' dominates the trilinear form, scaled by E1_B / E1_{B+B'}
    spec = parse_group("Z/101")
    S = [spec.dual([1])]
    B = bohr_set(spec, S, Fraction(1, 6)).members.tolist()
    Bp = bohr_set(spec, S, Fraction(1, 8)).members.tolist()
    BplusBp = sorted({(a + b) % 101 for a in B for b in Bp})
    for _ in range(5):
        f = random_bounded(spec, rng)
        b1 = np.exp(2j * np.pi * rng.uniform(size=101))
        b2 = np.exp(2j * np.pi * rng.uniform(size=101))
        tri = np.mean(
            [f.values[z] * b1[x] * b2[(z + x) % 101] for z in Bp for x in B]
        )
        u2bias = max(
            abs(np.mean([f.values[z] * np.exp(-2j * np.pi * xi * z / 101) for z in Bp]))
            for xi in range(101)
        )
        scale = (len(B) / 101) / (len(BplusBp) / 101)
        assert u2bias >= scale * abs(tri) - 1e-9


def test_is_regular_against_dense_sampling(rng):
    # exact decision vs a fine kappa sweep: True must never be contradicted
    # by sampling; False must expose a witness on the threshold set
    for _ in range(30):
        N = int(rng.integers(12, 200))
        spec = parse_group(f"Z/{N}")
        d = int(rng.integers(1, 4))
        S = [spec.dual_by_index(int(rng.integers(1, N))) for _ in range(d)]
        rho = Fraction(int(rng.integers(5, 45)), 100)
        B = bohr_set(spec, S, rho)
        verdict = is_regular(B)
        T = 1.0 / (100 * d)
        base = len(B)
        kappas = list(np.linspace(-T, T, 401))
        thresholds = [Fraction(n, spec.exponent) for n in sorted(set(B._norms.tolist()))]
        kappas += [float(Fraction(v) / rho - 1) for v in thresholds
                   if abs(float(Fraction(v) / rho - 1)) <= T]
        violated = False
        for k in kappas:
            size = B.size_at(Fraction(float((1 + k) * float(rho))).limit_denominator(10**9))
            lo = (1 - 100 * d * abs(k)) * base
            hi = (1 + 100 * d * abs(k)) * base
            if size < lo - 1e-9 or size > hi + 1e-9:
                violated = True
                break
        if verdict:
            assert not violated


# --- the integer norm kernel against the exact Fraction references --------------
#
# Bohr sets keep D ||x||_S as int64 (D the exponent of G).  The references below
# are the per-element Fraction implementations that kernel replaced, kept here
# to pin its results on random group specs.


def reference_norms(spec: GroupSpec, S) -> list[Fraction]:
    return [bohr_norm_exact(x, S) for x in spec.elements()]


def reference_is_regular(norms: list[Fraction], d: int, rho: Fraction) -> bool:
    if d == 0:
        return True
    T = Fraction(1, 100 * d)
    base = sum(1 for v in norms if v < rho)
    lo, hi = (1 - T) * rho, (1 + T) * rho
    for v in sorted(set(norms)):
        if lo < v <= rho:
            if sum(1 for w in norms if w < v) < (1 - 100 * d * (1 - v / rho)) * base:
                return False
        if rho <= v < hi:
            if sum(1 for w in norms if w <= v) > (1 + 100 * d * (v / rho - 1)) * base:
                return False
    return True


def reference_find_regular_rho(norms: list[Fraction], d: int, eps: Fraction) -> Fraction:
    if d == 0:
        return 2 * eps
    lo, hi = eps, 2 * eps
    vals = sorted(set(v for v in norms if lo <= v <= hi))
    grid = [lo] + vals + [hi]
    candidates = []
    for a, b in zip(grid, grid[1:]):
        candidates.append(a)
        if b > a:
            candidates.append((a + b) / 2)
    candidates.append(hi)
    seen = set()
    for r in candidates:
        if r in seen or not lo <= r <= hi:
            continue
        seen.add(r)
        if reference_is_regular(norms, d, r):
            return r
    for k in range(1, 64):
        r = lo + (hi - lo) * Fraction(k, 64)
        if r not in seen and reference_is_regular(norms, d, r):
            return r
    raise NotFound("no regular radius found in [eps, 2eps]")


def reference_radius_scan(norms: list[Fraction], two: set[int]) -> tuple[float, int]:
    """The largest radius whose Bohr set sits inside 2A-2A, and its size."""
    values = sorted(set(norms))
    best_r, best_sz = 0.0, 1
    for i, v in enumerate(values):
        mem = {j for j, w in enumerate(norms) if w <= v}
        if mem <= two:
            upper = values[i + 1] if i + 1 < len(values) else Fraction(1, 2)
            best_r, best_sz = float((v + upper) / 2), len(mem)
        else:
            break
    return best_r, best_sz


def reference_separating_bohr(spec: GroupSpec, A) -> list:
    current = set(A)
    S = []
    while len(current) > 1:
        target = (len(current) - 1) // 2
        for i in range(spec.order):
            xi = spec.dual_by_index(i)
            kept = set()
            for a in current - {0}:
                v = pair(xi, spec.element_by_index(a))
                if min(v, 1 - v) < Fraction(1, 4):
                    kept.add(a)
            if len(kept) <= target:
                break
        S.append(xi)
        current = {0} | kept
    return S


# mixed factor orders 1-12, rank 1-3
kernel_specs = st.lists(st.integers(1, 12), min_size=1, max_size=3).map(lambda o: GroupSpec(tuple(o)))


def character_sets(spec: GroupSpec, min_size: int = 0):
    return st.lists(st.integers(0, spec.order - 1), min_size=min_size, max_size=3).map(
        lambda ix: tuple(spec.dual_by_index(i) for i in ix))


radii = st.builds(Fraction, st.integers(1, 60), st.integers(60, 240))


@given(st.data())
def test_pairings_match_pair(data):
    spec = data.draw(kernel_specs)
    xis = np.array(data.draw(st.lists(st.integers(0, spec.order - 1), min_size=1, max_size=6)))
    idx = np.array(data.draw(st.lists(st.integers(0, spec.order - 1), min_size=1, max_size=6)))
    D = spec.exponent
    table = spec.pairings(xis[:, None], idx[None, :])
    assert table.dtype == np.int64 and table.shape == (len(xis), len(idx))
    for i, xi in enumerate(xis.tolist()):
        for j, x in enumerate(idx.tolist()):
            want = pair(spec.dual_by_index(xi), spec.element_by_index(x)) * D
            assert want.denominator == 1 and table[i, j] == want


def test_pairings_refuse_int64_overflow():
    with pytest.raises(BudgetExceeded):
        GroupSpec((2**31,)).pairings(1, 1)
    with pytest.raises(BudgetExceeded):
        GroupSpec((2, 2**31 - 1, 2**31 - 19)).pairings(1, 1)  # D > 2^62


@given(st.data())
def test_members_and_size_at_match_bohr_norm_exact(data):
    spec = data.draw(kernel_specs)
    S = data.draw(character_sets(spec))
    rho = data.draw(radii)
    norms = reference_norms(spec, S)
    B = BohrSet(spec, S, rho)
    assert B.members.tolist() == [i for i, v in enumerate(norms) if v < rho]
    assert len(B) == sum(1 for v in norms if v < rho)
    # radii a hair (denominator > 2^63) either side of every norm value
    tiny = Fraction(1, 2**64 + 13)
    for v in sorted(set(norms)) + [Fraction(1, 2)]:
        for r in (v - tiny, v, v + tiny):
            if r > 0:
                assert B.size_at(r) == sum(1 for w in norms if w < r)
                assert B.with_rho(r).members.tolist() == [i for i, w in enumerate(norms) if w < r]


@given(st.data())
def test_is_regular_matches_reference(data):
    spec = data.draw(kernel_specs)
    S = data.draw(character_sets(spec))
    rho = data.draw(radii)
    norms = reference_norms(spec, S)
    B = BohrSet(spec, S, rho)
    assert is_regular(B) == reference_is_regular(norms, len(S), rho)
    # right on a threshold, where both inequalities of the scan meet
    for v in sorted(set(norms))[1:4]:
        assert is_regular(B.with_rho(v)) == reference_is_regular(norms, len(S), v)


@given(st.data())
def test_find_regular_rho_matches_reference(data):
    spec = data.draw(kernel_specs)
    S = data.draw(character_sets(spec))
    eps = data.draw(st.builds(Fraction, st.integers(1, 59), st.integers(120, 240)))
    norms = reference_norms(spec, S)
    try:
        want = reference_find_regular_rho(norms, len(S), eps)
    except NotFound:
        with pytest.raises(NotFound):
            find_regular_rho(spec, S, eps)
        return
    assert find_regular_rho(spec, S, eps) == want


@given(st.data())
def test_local_bogolyubov_radius_scan_matches_reference(data):
    spec = data.draw(kernel_specs)
    S = data.draw(character_sets(spec, min_size=1))
    eps = data.draw(st.builds(Fraction, st.integers(10, 40), st.just(200)))
    try:
        rho = find_regular_rho(spec, S, eps)
    except NotFound:
        return
    B = bohr_set(spec, S, rho)
    members = B.members.tolist()
    A = sorted(set(data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=8))))
    rep = local_bogolyubov(spec, A, B)
    union = tuple(S) + tuple(rep.S_prime)
    norms = reference_norms(spec, union)
    two = set(iterated_sumset(spec, A, 2, 2).tolist())
    assert (rep.empirical_radius, rep.empirical_bohr_size) == reference_radius_scan(norms, two)
    delta = Fraction(len(A) / len(B)).limit_denominator(10**6)
    theta_rho = Fraction(2) ** -33 * delta**6 / len(S) * rho
    inside = {i for i, v in enumerate(norms) if v < max(theta_rho, Fraction(1, 10**9))}
    assert rep.guaranteed_bohr_size == len(inside)
    assert rep.guaranteed_inclusion_ok == (inside <= two)


@given(st.data())
def test_separating_bohr_matches_reference(data):
    spec = data.draw(kernel_specs)
    A = {0} | set(data.draw(st.lists(st.integers(0, spec.order - 1), max_size=10)))
    assert separating_bohr(spec, A) == reference_separating_bohr(spec, A)


@given(st.data())
def test_character_kernel_and_progression_match_pair(data):
    spec = data.draw(kernel_specs)
    S = data.draw(character_sets(spec, min_size=1))
    H = character_kernel(spec, S)
    want = [x.index for x in spec.elements() if all(pair(xi, x) == 0 for xi in S)]
    assert sorted(H.element_indices().tolist()) == want
    rho = data.draw(st.builds(Fraction, st.integers(1, 59), st.just(240)))
    try:
        ext = coset_progression_in_bohr(spec, S, rho)
    except NotProper:
        return
    norms = reference_norms(spec, S)
    ph = set(ext.progression.element_indices().tolist())
    left = Fraction(len(S)) ** (-2 * len(S)) * rho
    assert ext.left_inclusion_ok == ({i for i, v in enumerate(norms) if v < left} <= ph)
    assert ext.right_inclusion_ok == (ph <= {i for i, v in enumerate(norms) if v < rho})
