from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import constant, random_bounded
from u3kit.fourier import convolve, dft, dft_values
from u3kit.groups import GroupFunction, GroupSpec, parse_group


def test_dft_constant():
    spec = parse_group("Z/4xZ/9")
    F = dft(constant(spec, 1.0))
    assert abs(F.values[0] - 1.0) < 1e-12
    assert np.max(np.abs(F.values[1:])) < 1e-12


def test_dft_point_mass():
    Z5 = parse_group("Z/5")
    F = dft(GroupFunction.indicator(Z5, [0]))
    assert np.max(np.abs(F.values - 0.2)) < 1e-14


def test_dft_character():
    Z7 = parse_group("Z/7")
    f = GroupFunction(Z7, np.exp(2j * np.pi * 3 * np.arange(7) / 7))
    F = dft(f)
    assert abs(F.values[3] - 1.0) < 1e-12
    mask = np.ones(7, bool)
    mask[3] = False
    assert np.max(np.abs(F.values[mask])) < 1e-12


def test_plancherel(rng):
    for gs in ("Z/60", "Z/101", "Z/4xZ/9", "F5^3"):
        spec = parse_group(gs)
        f = random_bounded(spec, rng)
        F = dft(f)
        assert abs(np.mean(np.abs(f.values) ** 2) - np.sum(np.abs(F.values) ** 2)) < 1e-10


def test_convolution_theorem(rng):
    for gs in ("Z/56", "Z/4xZ/9", "F5^2"):
        spec = parse_group(gs)
        f, g = random_bounded(spec, rng), random_bounded(spec, rng)
        lhs = dft(convolve(f, g)).values
        rhs = dft(f).values * dft(g).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_convolution_identity_element(rng):
    spec = parse_group("Z/12")
    f = random_bounded(spec, rng)
    delta = GroupFunction(spec, np.zeros(12, complex))
    delta.values[0] = 12.0  # N * point mass = identity for normalized convolution
    g = convolve(f, delta)
    assert np.max(np.abs(g.values - f.values)) < 1e-10


def test_convolution_direct_value():
    # E_y 1_A(y) 1_{-A}(x - y) at x = 0 equals |A|/N for A = {0,1} in Z/5
    Z5 = parse_group("Z/5")
    A = GroupFunction.indicator(Z5, [0, 1])
    negA = GroupFunction.indicator(Z5, [0, 4])
    conv = convolve(A, negA)
    assert abs(conv.values[0] - 2 / 5) < 1e-12


def test_convolution_support(rng):
    Z17 = parse_group("Z/17")
    A = sorted(rng.choice(17, size=3, replace=False).tolist())
    B = sorted(rng.choice(17, size=3, replace=False).tolist())
    conv = convolve(GroupFunction.indicator(Z17, A), GroupFunction.indicator(Z17, B))
    support = {i for i, v in enumerate(conv.values) if abs(v) > 1e-12}
    sums = {(a + b) % 17 for a in A for b in B}
    assert support <= sums


@st.composite
def mixed_specs(draw) -> GroupSpec:
    """Ranks 1-4, short factor orders 1-13 and at most one long one (131 or
    211), so that dense blocks of one or several axes, FFT axes and groups
    mixing both occur; the order stays small enough for the N x N table of
    the direct sum."""
    rank = draw(st.integers(1, 4))
    long_order = draw(st.sampled_from([None, 131, 211]))
    at = draw(st.integers(0, rank - 1))
    orders, room = [], 2000 // (long_order or 1)
    for i in range(rank):
        if i == at and long_order:
            orders.append(long_order)
        else:
            orders.append(draw(st.integers(1, min(13, room))))
            room //= orders[-1]
    return GroupSpec(tuple(orders))


@given(spec=mixed_specs(), batch=st.sampled_from([(), (1,), (4,), (2, 3)]), seed=st.integers(0, 2**32 - 1))
def test_dft_values_matches_character_sum(spec, batch, seed):
    # the blocked transform against E_x f(x) e(-xi.x) built from exact
    # pairings, and against numpy's multidimensional FFT
    rng = np.random.default_rng(seed)
    shape = batch + (spec.order,)
    values = np.exp(2j * np.pi * rng.uniform(0, 1, shape)) * rng.uniform(0, 1, shape)
    before = values.copy()
    out = dft_values(spec, values)
    assert out.shape == shape
    assert np.array_equal(values, before)  # the input is not overwritten
    # through the caller's buffers (values spent, work at least as large): the same floats
    assert np.array_equal(dft_values(spec, values.copy(), np.empty(values.size + 3, dtype=complex)), out)

    idx = np.arange(spec.order)
    table = np.exp(-2j * np.pi / spec.exponent * spec.pairings(idx[:, None], idx[None, :]))
    direct = values @ table / spec.order  # the pairing is symmetric in xi and x
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(out - direct)) <= 1e-12 * scale

    grids = values.reshape((prod(batch),) + spec.orders)
    via_fftn = np.fft.fftn(grids, axes=range(1, spec.rank + 1)).reshape(shape) / spec.order
    assert np.max(np.abs(out - via_fftn)) <= 1e-12 * scale


@pytest.mark.parametrize("orders", [(5,), (5, 5), (5, 5, 5)])
def test_batched_rows_match_single_rows_to_rounding(orders, rng):
    # a dense block is one BLAS product, whose edge tiles round differently
    # from its full ones, so a row's last bits depend on its place in the
    # batch: compared within 1e-14 of the row's maximum, never bit for bit
    spec = GroupSpec(orders)
    rows = np.exp(2j * np.pi * rng.uniform(0, 1, (25, spec.order))) * rng.uniform(0, 1, (25, spec.order))
    batch = dft_values(spec, rows)
    for r in range(25):
        single = dft_values(spec, rows[r])
        assert np.max(np.abs(batch[r] - single)) <= 1e-14 * np.max(np.abs(single))
