import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import constant, random_bounded, random_unimodular
from u3kit import forms
from u3kit.errors import BadGroupOrder, HasProperAp, TooSmallN
from u3kit.forms import ApCount, count_aps, gvn_slack, lambda_k, prog_unif_slack
from u3kit.groups import GroupFunction, parse_group
from u3kit.norms import gowers_norm


def test_lambda_constant_ones():
    spec = parse_group("Z/7")
    ones = [constant(spec, 1.0)] * 4
    assert abs(lambda_k(ones) - 1.0) < 1e-12


def test_lambda_derived_values():
    Z5 = parse_group("Z/5")
    f = GroupFunction.indicator(Z5, [0])
    assert abs(lambda_k([f] * 4) - 1 / 25) < 1e-12  # only (x, r) = (0, 0)
    A = GroupFunction.indicator(Z5, [0, 1])
    assert abs(lambda_k([A] * 4) - 2 / 25) < 1e-12  # r = 0 only


def test_lambda_brute_force_oracle(rng):
    # independent oracle: direct double loop over (x, r) in python
    spec = parse_group("Z/11")
    fs = [random_bounded(spec, rng) for _ in range(3)]
    total = 0j
    for x in range(11):
        for r in range(11):
            total += (
                fs[0].values[x] * fs[1].values[(x + r) % 11] * fs[2].values[(x + 2 * r) % 11]
            )
    assert abs(lambda_k(fs) - total / 121) < 1e-12


def test_count_aps_examples():
    Z7 = parse_group("Z/7")
    assert count_aps(Z7, [0, 1, 2, 3], 4).proper >= 2
    Z13 = parse_group("Z/13")
    assert count_aps(Z13, [0, 1, 2, 4], 4).proper == 0
    assert count_aps(Z7, range(7), 4).proper == 7 * 6


def reference_count_aps(spec, A, k):
    """The loop over r that count_aps replaced: one (x, r) row per step r."""
    A_idx = sorted(set(int(a) for a in A))
    ind = np.zeros(spec.order, dtype=np.int64)
    ind[A_idx] = 1
    N = spec.order
    xs = np.arange(N, dtype=np.int64)
    total = 0
    proper = 0
    for r in range(N):
        prod = ind.copy()
        steps = [0]
        for j in range(1, k):
            idx = spec.add_indices(xs, spec.scale_indices(j, np.int64(r)))
            prod = prod * ind[idx]
            steps.append(int(spec.scale_indices(j, np.int64(r))))
        c = int(np.sum(prod))
        total += c
        if r != 0 and len(set(steps)) == k:
            proper += c
    return total, proper


def reference_lambda_k(fs):
    """The loop over r that lambda_k replaced."""
    k = len(fs)
    spec = fs[0].owner
    N = spec.order
    xs = np.arange(N, dtype=np.int64)
    total = 0j
    for r in range(N):
        prod = fs[0].values.copy()
        for j in range(1, k):
            idx = spec.add_indices(xs, spec.scale_indices(j, np.int64(r)))
            prod = prod * fs[j].values[idx]
        total += np.sum(prod)
    return complex(total) / (N * N)


# Z/12, Z/4 x Z/6 and Z/2 x Z/2 x Z/3 have steps r whose order is below k, so
# some of their progressions repeat a point and are not proper.
_AP_GROUPS = ["Z/13", "Z/12", "Z/4xZ/6", "F5^3", "Z/2xZ/2xZ/3"]


@pytest.mark.parametrize("group", _AP_GROUPS)
@pytest.mark.parametrize("block_elems", [1, 1 << 20])
@given(data=st.data())
def test_count_aps_matches_loop(group, block_elems, data):
    spec = parse_group(group)
    k = data.draw(st.sampled_from([1, 2, 3, 4, 5]))
    A = data.draw(st.sets(st.integers(0, spec.order - 1)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms, "_BLOCK_ELEMS", block_elems)  # 1: one step r per block
        counts = count_aps(spec, A, k)
    assert (counts.total, counts.proper) == reference_count_aps(spec, A, k)


@pytest.mark.parametrize("group", _AP_GROUPS)
@pytest.mark.parametrize("block_elems", [1, 1 << 20])
def test_lambda_k_matches_loop(group, block_elems, rng, monkeypatch):
    monkeypatch.setattr(forms, "_BLOCK_ELEMS", block_elems)
    spec = parse_group(group)
    for k in (3, 4, 5):
        fs = [random_bounded(spec, rng) for _ in range(k)]
        # the same products, summed in another order: float64 rounding only
        assert abs(lambda_k(fs) - reference_lambda_k(fs)) < 1e-12


def test_count_aps_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        count_aps(parse_group("Z/5"), [0, 1], 0)


def test_count_consistency_with_lambda(rng):
    spec = parse_group("Z/13")
    A = sorted(rng.choice(13, size=6, replace=False).tolist())
    counts = count_aps(spec, A, 4)
    ind = GroupFunction.indicator(spec, A)
    assert counts.total == round(169 * lambda_k([ind] * 4).real)


def test_gvn_slack(rng):
    spec = parse_group("Z/31")
    for k in (3, 4):
        for _ in range(25):
            fs = [random_bounded(spec, rng) for _ in range(k)]
            assert gvn_slack(fs) >= -1e-9
    zero = constant(spec, 0.0)
    fs = [random_bounded(spec, rng), zero, random_bounded(spec, rng)]
    assert abs(gvn_slack(fs)) < 1e-12
    ones = [constant(spec, 1.0)] * 4
    assert abs(gvn_slack(ones)) < 1e-12


def test_gvn_gcd_guard():
    spec = parse_group("Z/12")
    fs = [constant(spec, 1.0)] * 4
    with pytest.raises(BadGroupOrder):
        gvn_slack(fs)


def test_prog_unif_slack_examples():
    Z13 = parse_group("Z/13")
    rep = prog_unif_slack(Z13, [0, 1, 2, 4], 4)
    assert rep.slack >= 0
    assert not rep.n_hypothesis_ok  # surfaced, not enforced by default
    with pytest.raises(TooSmallN):
        prog_unif_slack(Z13, [0, 1, 2, 4], 4, enforce_n_bound=True)
    Z31 = parse_group("Z/31")
    rep = prog_unif_slack(Z31, [0], 4)
    assert rep.slack >= 0
    Z7 = parse_group("Z/7")
    with pytest.raises(HasProperAp):
        prog_unif_slack(Z7, range(7), 4)


def test_van_der_corput(rng):
    # |E_{x,y} f(x,y) b(x)| <= |E_{x,y,h} f(x,y+h) conj(f(x,y))|^(1/2)
    for _ in range(10):
        nx, N = int(rng.integers(3, 12)), int(rng.integers(5, 31))
        f = rng.uniform(-1, 1, (nx, N)) + 1j * rng.uniform(-1, 1, (nx, N))
        f /= np.max(np.abs(f))
        b = np.exp(2j * np.pi * rng.uniform(size=nx))
        lhs = abs(np.mean(f * b[:, None]))
        inner = 0j
        for h in range(N):
            inner += np.mean(np.roll(f, -h, axis=1) * np.conj(f))
        rhs = abs(inner / N) ** 0.5
        assert lhs <= rhs + 1e-9


def test_prog_unif_randomized(rng):
    # maximal greedy AP-free sets across small primes
    from u3kit.experiments import ap_free_search

    for N in (11, 13, 17):
        spec = parse_group(f"Z/{N}")
        A = ap_free_search(spec, 4, "greedy", seed=int(rng.integers(1000)))
        rep = prog_unif_slack(spec, A, 4)
        assert rep.slack >= -1e-9


def test_lambda_and_gvn_k5(rng):
    spec = parse_group("Z/11")
    ones = [constant(spec, 1.0)] * 5
    assert abs(lambda_k(ones) - 1.0) < 1e-12
    fs = [random_bounded(spec, rng) for _ in range(5)]
    assert gvn_slack(fs) >= -1e-9
