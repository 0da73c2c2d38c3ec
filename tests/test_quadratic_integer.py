"""The quadratic layer on exact integers against the Fraction loops it
replaced: the generator third-difference test of ``is_locally_quadratic``,
``BracketQuadratic.eval`` on integer numerators and the float branch of
``round_half_up``.  Each reference below is the replaced code, kept here."""

from fractions import Fraction
from math import floor, gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import frac_part
from u3kit import quadratic
from u3kit.errors import BudgetExceeded
from u3kit.groups import GroupSpec, mod1, parse_group
from u3kit.quadratic import (
    BracketQuadratic,
    QuadraticPhase,
    _numerators,
    classify_global_quadratic,
    is_locally_quadratic,
    round_half_up,
)

# --- third differences ------------------------------------------------------------


def reference_full_group_quadratic(phi, spec: GroupSpec) -> bool:
    """The N^3 loop: for every h1, the second differences of phi along
    (h1, h2) must not depend on x."""
    N = spec.order
    vals = {i: Fraction(phi[i]) for i in range(N)}
    D = lcm(1, *(v.denominator for v in vals.values()))
    num = np.zeros(N, dtype=np.int64)
    for i in range(N):
        f = vals[i]
        num[i] = (f.numerator * (D // f.denominator)) % D
    rows = spec.add_indices(np.arange(N)[None, :], np.arange(N)[:, None])  # rows[h, x] = x + h
    for h1 in range(N):
        base = (num[rows[h1]] - num) % D  # (h1.grad) phi
        d2 = (base[rows] - base) % D
        if np.any(d2 != d2[:, :1]):
            return False
    return True


ODD_ORDERS = st.sampled_from([1, 3, 5, 7, 9, 11, 15])


@st.composite
def _phase_tables(draw):
    """(spec, phi, Q) on an odd spec of rank 1-3 and order <= 135: the
    table phi of a random quadratic Q, the same with one point moved, or
    with a cubic term added; the constant term's denominator is small, past
    2^31 or in [2^62, 2^63)."""
    orders = tuple(draw(st.lists(ODD_ORDERS, min_size=1, max_size=3).filter(lambda o: prod(o) <= 135)))
    spec = GroupSpec(orders)
    k, N = spec.rank, spec.order
    B = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g = gcd(orders[i], orders[j])
            B[i][j] = B[j][i] = Fraction(draw(st.integers(0, g - 1)), g)
    xi = tuple(draw(st.integers(0, n - 1)) for n in orders)
    big = draw(st.sampled_from(["small", "2^31", "2^62"]))
    E = spec.exponent
    q = {"small": 3 * E, "2^31": E * (2**31 // E + 1), "2^62": E * (2**62 // E + 1)}[big]
    c = draw(st.integers(1, q - 1))
    Q = QuadraticPhase(spec, tuple(map(tuple, B)), xi, Fraction(c if gcd(c, q) == 1 else 1, q))
    num, D = Q.numerators()
    phi = [Fraction(int(v), D) for v in num]
    kind = draw(st.sampled_from(["quadratic", "perturbed", "cubic"]))
    if kind == "perturbed":
        x = draw(st.integers(0, N - 1))
        phi[x] = mod1(phi[x] + Fraction(draw(st.integers(1, q - 1)), q))
    elif kind == "cubic":
        a, b, c = (draw(st.integers(0, k - 1)) for _ in range(3))
        g = gcd(orders[a], orders[b], orders[c])
        t = draw(st.integers(1, max(1, g - 1)))
        coords = spec.decode(np.arange(N))
        phi = [mod1(v + Fraction(t * int(x[a]) * int(x[b]) * int(x[c]), g)) for v, x in zip(phi, coords)]
    return spec, phi, Q


@given(_phase_tables())
def test_generator_third_differences_match_the_full_scan(case):
    spec, phi, _ = case
    num, D = _numerators(phi)
    assert (num.dtype == object) == (D >= 2**62)
    assert is_locally_quadratic(num, D, spec) == reference_full_group_quadratic(phi, spec)


@given(_phase_tables())
def test_quadratic_numerators_match_exact_values(case):
    # the tables above start from `numerators`: check it against the
    # Fraction evaluation point by point, denominators past 2^62 included
    spec, _, Q = case
    num, D = Q.numerators()
    assert [Fraction(int(v), D) for v in num] == Q.values()


def test_classify_with_a_constant_past_2_45():
    # D·N^2 past 2^63: the numerators are Python integers and do not wrap, so
    # the reconstruction check accepts the phase it came from
    spec = parse_group("Z/1009")
    Q = QuadraticPhase.cyclic(spec, 517, 5, Fraction(1, 2**45 + 1))
    assert classify_global_quadratic(Q.values(), spec) == Q


def test_object_fallback_past_2_62():
    # a quadratic plus a constant of denominator q in [2^62, 2^63): the table
    # holds Python integers, and one point moved by 1/q breaks the test
    spec = parse_group("Z/9xZ/5")
    q = 45 * (2**62 // 45 + 1)
    Q = QuadraticPhase(spec, ((Fraction(2, 9), Fraction(0)), (Fraction(0), Fraction(3, 5))), (4, 1), Fraction(1, q))
    phi = Q.values()
    assert _numerators(phi)[0].dtype == object
    assert is_locally_quadratic(*_numerators(phi), spec)
    assert reference_full_group_quadratic(phi, spec)
    phi[7] = mod1(phi[7] + Fraction(1, q))
    assert not is_locally_quadratic(*_numerators(phi), spec)
    assert not reference_full_group_quadratic(phi, spec)


def test_full_group_budget_is_on_rank_cubed_times_order(monkeypatch):
    spec = parse_group("Z/3xZ/5xZ/7")
    num, D = QuadraticPhase(spec, ((Fraction(0),) * 3,) * 3, (1, 2, 3), Fraction(0)).numerators()
    monkeypatch.setattr(quadratic, "DEFAULT_CUBE_BUDGET", 27 * 105)
    assert is_locally_quadratic(num, D, spec)
    monkeypatch.setattr(quadratic, "DEFAULT_CUBE_BUDGET", 27 * 105 - 1)
    with pytest.raises(BudgetExceeded, match=r"rank\^3\*N = 3\^3\*105 generator third-difference scan"):
        is_locally_quadratic(num, D, spec)


def test_large_cyclic_group_is_checked_not_refused():
    # Z/1009 was refused by the N^3 budget; the generator test is N steps
    spec = parse_group("Z/1009")
    phi = QuadraticPhase.cyclic(spec, 17, 5, Fraction(3, 1009)).values()
    assert is_locally_quadratic(*_numerators(phi), spec)
    phi[500] = mod1(phi[500] + Fraction(1, 1009))
    assert not is_locally_quadratic(*_numerators(phi), spec)


# --- bracket evaluation ------------------------------------------------------------


def reference_bracket_eval(bq: BracketQuadratic, n: int):
    """The Fraction loop of ``BracketQuadratic.eval``."""
    brk = [frac_part(Fraction(xi * n, bq.N)) for xi in bq.freqs]
    total = bq.const
    for i in range(len(bq.freqs)):
        total = total + bq.lin[i] * brk[i]
        for j in range(len(bq.freqs)):
            total = total + bq.quad[i][j] * brk[i] * brk[j]
    return mod1(total)


_COEF = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=10**12),
    st.integers(-8, 8),
    st.floats(-8, 8, allow_nan=False),
    st.sampled_from([0, 0.0, Fraction(0), Fraction(1, 2), -0.5]),
)


@st.composite
def _brackets(draw):
    N = draw(st.integers(1, 2000))
    s = draw(st.integers(0, 3))
    freqs = tuple(draw(st.integers(-N, 2 * N)) for _ in range(s))
    quad = [[0] * s for _ in range(s)]
    for i in range(s):
        for j in range(i, s):
            quad[i][j] = quad[j][i] = draw(_COEF)
    lin = tuple(draw(_COEF) for _ in range(s))
    const = draw(st.one_of(_COEF, st.just(0.0)))
    return BracketQuadratic(N, freqs, tuple(map(tuple, quad)), lin, const)


@given(_brackets(), st.data())
def test_bracket_eval_matches_fraction_loop(bq, data):
    for n in data.draw(st.lists(st.integers(-bq.N + 1, bq.N - 1), min_size=1, max_size=8)):
        got, want = bq.eval(n), reference_bracket_eval(bq, n)
        assert type(got) is type(want)
        assert got == want


def test_bracket_eval_witness_json_with_float_const():
    # the oracle's witness JSON carries const 0.0: a float total from the start
    bq = BracketQuadratic.from_json(
        {"N": 1009, "S": [17, 400], "quad": [["-5/2", "1/2"], ["1/2", "3/4"]], "lin": ["7/4", "-1/2"], "const": 0.0}
    )
    for n in range(-504, 505):
        got, want = bq.eval(n), reference_bracket_eval(bq, n)
        assert type(got) is type(want) is np.float64 and got == want


@pytest.mark.parametrize("bq", [
    BracketQuadratic(7, (), (), (), -3.1e-100),
    BracketQuadratic(7, (1,), ((0,),), (-1e-200,), 0.0),
    BracketQuadratic(7, (1,), ((Fraction(0),),), (Fraction(0),), -3.1e-100),
])
def test_bracket_values_stay_below_one(bq):
    # a tiny negative float total rounds up to 1.0 under t - floor(t) and % 1.0
    for n in (0, 1):
        assert bq.eval(n) == 0.0
    assert np.all(bq.eval_terms_float(np.array([0, 1])) == 0.0)


def test_bracket_quadratic_is_frozen():
    # `eval` reads a per-instance integer plan, so the coefficients cannot change
    bq = BracketQuadratic(7, (1,), ((Fraction(1, 2),),), (Fraction(0),), Fraction(0))
    bq.eval(3)
    with pytest.raises(AttributeError):
        bq.const = Fraction(1, 3)


# --- round_half_up -----------------------------------------------------------------


def reference_round_half_up(t):
    if isinstance(t, Fraction):
        return (2 * t.numerator + t.denominator) // (2 * t.denominator)
    return floor(float(t) + 0.5)


@given(st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-(10**6), 10**6).map(lambda k: k + 0.5),
    st.integers(-(10**6), 10**6).map(lambda k: k - 0.5),
    st.floats(-1e6, 1e6, allow_nan=False).map(np.float64),
    st.fractions(max_denominator=10**9),
    st.integers(-(10**12), 10**12),
))
def test_round_half_up_matches_reference(t):
    got, want = round_half_up(t), reference_round_half_up(t)
    assert got == want and type(got) is type(want)
