import cmath
from fractions import Fraction
from math import floor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_orbit, frac_part, lipschitz_slack, per_term_blocks, round_half_up
from u3kit import nil
from u3kit.errors import BadArity, EvenN, NotInSigma, TooManyFrequencies
from u3kit.nil import (
    CUTOFF_SLOPE,
    BlockFunction,
    FundamentalFactor,
    NilFunction,
    NilSystem,
    _active_terms,
    _split_half,
    _tri,
    bracket_to_nilsystem,
    bracket_weight,
    cutoff,
    e,
    hall_petresco_next,
    heis_project,
    nil_frac,
    nilsequence,
    orbit_point,
    point_distance,
)
from u3kit.norms import gowers_norm
from u3kit.quadratic import BracketQuadratic


def normalize(f: FundamentalFactor, c: tuple) -> tuple:
    """c in the fundamental domain of its factor: the orbit at n = 0."""
    if f.kind == "heis":
        return heis_project(c)
    return tuple(nil_frac(v) for v in c)


def delta_atom(sys: NilSystem, p: tuple, m: int) -> tuple[int, ...]:
    """Atom index: floor((coord + 1/2) m) per coordinate, after applying the
    factor identifications (canonical fundamental-domain form)."""
    out = []
    for f, blk in zip(sys.factors, p):
        for v in normalize(f, blk):
            idx = int(np.floor((float(v) + 0.5) * m))
            out.append(min(max(idx, 0), m - 1))
    return tuple(out)


def lipschitz(F: NilFunction) -> float:
    """Lipschitz constant of a tensor-product nilfunction: the sum over its
    blocks."""
    return sum((b.lipschitz for b in F.blocks), 0.0)


def nilsequence_obstruction_check(f, F: NilFunction, sys: NilSystem, x0: tuple) -> tuple[float, float]:
    """(|E f(n) conj(F(T^n x0))|, U^3(f)); no inequality enforced -- the
    obstruction constant is non-explicit, so stability is asserted separately."""
    N = f.owner.order
    if N % 2 == 0:
        raise EvenN("odd N required")
    seq = nilsequence(F, sys, x0, N)
    corr = abs(complex(np.mean(f.values * np.conj(seq.values))))
    u3 = gowers_norm(f, 3, unchecked=True).value
    return corr, u3


def reference_step(sysm: NilSystem, p: tuple) -> tuple:
    """One application of the shift, factor by factor, with the new x in the
    middle coordinate: (x, y) -> (x + a, y + b + m (x + a)).  The closed-form
    orbit is its n-th iterate."""
    out = []
    for f, c in zip(sysm.factors, p):
        if f.kind == "circle":
            out.append((nil_frac(c[0] + f.alpha),))
        elif f.kind == "skew":
            x, y = c
            out.append((nil_frac(x + f.alpha), nil_frac(y + f.beta + f.m * (x + f.alpha))))
        else:
            x, y, z = c  # canonical lift: [x] = 0 on the fundamental domain
            X2 = x + f.alpha
            Y2 = y + f.beta + f.gamma * (x + f.alpha)
            Z2 = z + f.gamma
            out.append((nil_frac(X2), nil_frac(Y2 - floor(X2 + 0.5) * Z2), nil_frac(Z2)))
    return tuple(out)


def test_orbit_examples():
    sk = FundamentalFactor("skew", alpha=0.3, beta=0.0, m=1)
    x, y = sk.orbit((0, 0), 2)
    assert abs(nil_frac(x - 0.6)) < 1e-12 and abs(nil_frac(y - 0.9)) < 1e-12
    sysm = NilSystem((sk,))
    assert orbit_point(sysm, sysm.zero_point(), 0) == sysm.zero_point()
    circ = FundamentalFactor("circle", alpha=3 / 101)
    seq = [circ.orbit((0,), n)[0] for n in range(5)]
    assert all(abs(nil_frac(v - 3 * n / 101)) < 1e-12 for n, v in enumerate(seq))


def test_heis_closed_form_vs_iterate(rng):
    # 1000 steps of the one-step map against the closed form: a wrong
    # n(n+1)/2 term drifts here, where the homomorphism test cannot see it
    for _ in range(5):
        h = FundamentalFactor(
            "heis", alpha=rng.uniform(), beta=rng.uniform(), gamma=rng.uniform()
        )
        sk = FundamentalFactor("skew", alpha=rng.uniform(), beta=rng.uniform(), m=int(rng.integers(-3, 4)))
        circ = FundamentalFactor("circle", alpha=rng.uniform())
        sysm = NilSystem((h, sk, circ))
        x0 = (tuple(rng.uniform(-0.5, 0.5, 3)), tuple(rng.uniform(-0.5, 0.5, 2)), (rng.uniform(-0.5, 0.5),))
        cur = x0
        for n in range(1, 1001):
            cur = reference_step(sysm, cur)
            if n % 97 == 0:
                assert point_distance(sysm, cur, orbit_point(sysm, x0, n)) < 1e-9
        assert point_distance(sysm, cur, orbit_point(sysm, x0, 1000)) < 1e-9


def test_orbit_homomorphism(rng):
    h = FundamentalFactor("heis", alpha=0.31, beta=0.05, gamma=0.73)
    sk = FundamentalFactor("skew", alpha=0.41, beta=0.13, m=2)
    sysm = NilSystem((h, sk))
    x0 = (tuple(rng.uniform(-0.5, 0.5, 3)), tuple(rng.uniform(-0.5, 0.5, 2)))
    for _ in range(20):
        n, m = int(rng.integers(-1000, 1000)), int(rng.integers(-1000, 1000))
        a = orbit_point(sysm, orbit_point(sysm, x0, n), m)
        b = orbit_point(sysm, x0, n + m)
        assert point_distance(sysm, a, b) < 1e-9


def test_nilsequence_basics():
    circ = FundamentalFactor("circle", alpha=3 / 101)
    sysm = NilSystem((circ,))
    F = NilFunction(sysm, [BlockFunction(0, 1, lambda x: e(x), 2 * np.pi)])
    seq = nilsequence(F, sysm, sysm.zero_point(), 101)
    expect = np.exp(2j * np.pi * 3 * np.arange(101) / 101)
    assert np.max(np.abs(seq.values - expect)) < 1e-9
    ones = NilFunction(sysm, [])
    seq1 = nilsequence(ones, sysm, sysm.zero_point(), 7)
    assert np.allclose(seq1.values, 1.0)
    with pytest.raises(EvenN):
        nilsequence(F, sysm, sysm.zero_point(), 100)


def test_skew_generates_pure_square_phase():
    # the block used for e(q a g n^2): skew with parameters (1, -qag; 2qag)
    q, a, g = 3, 17 / 101, 23 / 101
    sk = FundamentalFactor("skew", alpha=2 * q * a * g, beta=-q * a * g, m=1)
    for n in range(-50, 51):
        _, y = sk.orbit((0.0, 0.0), n)
        expect = q * a * g * n * n
        assert abs(nil_frac(y - expect)) < 1e-9


def test_bracket_factorization_identity_exact():
    # q {an}{gn} = q a g n^2 - q a n [gn] - q g n [an] mod 1, exactly
    N = 101
    for q in (1, 2, 5):
        for xi, xj in ((1, 2), (17, 23)):
            a, g = Fraction(xi, N), Fraction(xj, N)
            for n in range(-50, 51):
                lhs = (q * (a * n - round(a * n)) * 0 + q * frac_part(a * n) * frac_part(g * n)) % 1
                rhs = (q * a * g * n * n - q * a * n * round_half_up(g * n) - q * g * n * round_half_up(a * n)) % 1
                assert lhs == rhs


def test_bracket_to_nilsystem_pointwise(rng):
    N = 101
    for trial in range(6):
        s = int(rng.integers(1, 3))
        freqs = tuple(sorted(rng.choice(np.arange(1, N), size=s, replace=False).tolist()))
        quad = np.zeros((s, s))
        for i in range(s):
            for j in range(i, s):
                quad[i, j] = quad[j, i] = rng.uniform(-3, 3)
        lin = rng.uniform(-3, 3, size=s)
        bq = BracketQuadratic(N, freqs, tuple(map(tuple, quad)), tuple(lin))
        sysm, F, x0 = bracket_to_nilsystem(bq)
        w = bracket_weight(bq)
        for n in range(-(N // 2), N // 2 + 1):
            gen = F(orbit_point(sysm, x0, n))
            tgt = w(n) * np.exp(-2j * np.pi * float(bq.eval(n)))
            assert abs(gen - tgt) < 1e-9
        for dim, K in per_term_blocks(bq):
            assert dim <= 9 and K <= 50


def test_bracket_single_linear_term():
    N = 101
    bq = BracketQuadratic(N, (7,), ((0.0,),), (1.75,))
    sysm, F, x0 = bracket_to_nilsystem(bq)
    assert sysm.dimension == 2
    for n in range(-50, 51):
        gen = F(orbit_point(sysm, x0, n))
        tgt = cutoff(7 * n / N) * np.exp(-2j * np.pi * float(bq.eval(n)))
        assert abs(gen - tgt) < 1e-9


def test_bracket_zero_and_frequency_cap():
    bq0 = BracketQuadratic(101, (1,), ((0.0,),), (0.0,))
    sysm, F, x0 = bracket_to_nilsystem(bq0)
    assert sysm.dimension == 0  # no active terms: trivial system
    assert abs(F(x0) - 1.0) < 1e-12
    too_many = BracketQuadratic(
        101, (1, 2, 3, 4, 5), tuple(tuple(0.0 for _ in range(5)) for _ in range(5)),
        tuple(0.0 for _ in range(5)),
    )
    with pytest.raises(TooManyFrequencies):
        bracket_to_nilsystem(too_many)


def test_hall_petresco_k3():
    assert abs(nil_frac(hall_petresco_next([0.1, 0.4], 3) - 0.7)) < 1e-12
    with pytest.raises(BadArity):
        hall_petresco_next([0.1], 3)


def test_hall_petresco_k4(rng):
    worst = 0.0
    for _ in range(1000):
        g = FundamentalFactor(
            "heis", alpha=rng.uniform(), beta=rng.uniform(), gamma=rng.uniform()
        )
        x = tuple(rng.uniform(-0.5, 0.5, 3))
        res = hall_petresco_next([x, g.orbit(x, 1), g.orbit(x, 2)], 4)
        sysm = NilSystem((g,))
        worst = max(worst, point_distance(sysm, (tuple(res),), (g.orbit(x, 3),)))
    assert worst < 1e-9


def test_hall_petresco_membership_violation(rng):
    g = FundamentalFactor("heis", alpha=0.31, beta=0.21, gamma=0.47)
    x = (0.1, 0.0, 0.2)
    pts = [x, g.orbit(x, 1), list(g.orbit(x, 2))]
    pts[2][0] = nil_frac(pts[2][0] + 0.1)  # perturb a constrained coordinate
    with pytest.raises(NotInSigma):
        hall_petresco_next(pts, 4)


def test_delta_atoms():
    h = FundamentalFactor("heis", alpha=0.1, beta=0.1, gamma=0.1)
    sysm = NilSystem((h,))
    zero = sysm.zero_point()
    assert delta_atom(sysm, zero, 10) == (5, 5, 5)
    p1 = ((0.101, 0.202, -0.303),)
    p2 = ((0.109, 0.209, -0.301),)
    assert delta_atom(sysm, p1, 10) == delta_atom(sysm, p2, 10)
    # boundary identification: x = -1/2 matches its image at x = +1/2
    pa = ((-0.5, 0.2, 0.3),)
    pb = ((0.5, 0.2 + 0.3, 0.3),)
    assert delta_atom(sysm, pa, 10) == delta_atom(sysm, pb, 10)


def test_lipschitz_slack(rng):
    circ = FundamentalFactor("circle", alpha=0.3)
    sysm = NilSystem((circ,))
    const = NilFunction(sysm, [BlockFunction(0, 1, lambda x: 1.0, 0.0)])
    assert abs(lipschitz_slack(const, 5.0, 10) - 0.5) < 1e-12
    Fe = NilFunction(sysm, [BlockFunction(0, 1, lambda x: e(x), 2 * np.pi)])
    assert lipschitz_slack(Fe, 2 * np.pi, 16, samples=2000, seed=1) >= -1e-9
    # tensor of two factors, whose constant is the sum over its blocks
    sys2 = NilSystem((circ, FundamentalFactor("circle", alpha=0.7)))
    F2 = NilFunction(
        sys2,
        [BlockFunction(0, 1, lambda x: e(x), 2 * np.pi), BlockFunction(1, 1, lambda x: e(x), 2 * np.pi)],
    )
    assert lipschitz(F2) == 4 * np.pi
    assert lipschitz_slack(F2, lipschitz(F2), 16, samples=2000, seed=2) >= -1e-9


def test_nil_function_lipschitz_is_derived():
    sysm = NilSystem((FundamentalFactor("circle", alpha=0.3),))
    assert lipschitz(NilFunction(sysm, [])) == 0.0
    F = NilFunction(sysm, [BlockFunction(0, 1, lambda x: 1.0, 0.5), BlockFunction(0, 1, lambda x: 1.0, 2.0)])
    assert lipschitz(F) == 2.5
    # the global phase is keyword-only: a positional third argument (the old
    # declared Lipschitz constant) is refused
    with pytest.raises(TypeError):
        NilFunction(sysm, [], 2.5)
    assert NilFunction(sysm, [], global_phase=1j)(sysm.zero_point()) == 1j


def test_obstruction_check_self_correlation():
    N = 101
    bq = BracketQuadratic(N, (17,), ((1.3,),), (0.4,))
    sysm, F, x0 = bracket_to_nilsystem(bq)
    seq = nilsequence(F, sysm, x0, N)
    corr, u3 = nilsequence_obstruction_check(seq, F, sysm, x0)
    mass = float(np.mean(np.abs(seq.values) ** 2))
    assert abs(corr - mass) < 1e-9  # f = the sequence itself
    assert u3 > 0.1


def test_tgnx_stability(rng):
    # fixed system and function; U3 of the truncation stays >= 0.1 and moves
    # by < 20% relative across N
    bqparams = (0.41421356, 0.2, 0.61803399)
    h = FundamentalFactor("heis", alpha=bqparams[0], beta=bqparams[1], gamma=bqparams[2])
    sysm = NilSystem((h,))
    F = NilFunction(sysm, [BlockFunction(0, 1, lambda x, y, z: cutoff(x) * e(y), CUTOFF_SLOPE + 2 * np.pi)])
    vals = []
    for N in (101, 211, 401, 809):
        f = nilsequence(F, sysm, sysm.zero_point(), N)
        vals.append(gowers_norm(f, 3, unchecked=True).value)
    assert min(vals) >= 0.1
    assert (max(vals) - min(vals)) / max(vals) < 0.2


@given(kind=st.sampled_from(["circle", "skew", "heis"]), m=st.integers(-3, 3), data=st.data())
def test_orbit_at_zero_is_normalize(kind, m, data):
    # each parameter and coordinate a float or an int
    num = st.one_of(st.floats(-2, 2), st.integers(-2, 2))
    alpha, beta, gamma = (data.draw(num) for _ in range(3))
    f = FundamentalFactor(kind, alpha=alpha, beta=beta, gamma=gamma, m=m)
    c = tuple(data.draw(num) for _ in range(f.dim))
    assert f.orbit(c, 0) == normalize(f, c)


_coefficients = st.one_of(
    st.just(0), st.just(0.0), st.fractions(-3, 3, max_denominator=12), st.floats(-3, 3)
)


@st.composite
def _bracket_quadratics(draw):
    """0-4 frequencies on Z/101 with rational, float and zero coefficients."""
    N = 101
    s = draw(st.integers(0, 4))
    freqs = tuple(draw(st.lists(st.integers(1, N - 1), min_size=s, max_size=s)))
    quad = [[0] * s for _ in range(s)]
    for i in range(s):
        for j in range(i, s):
            quad[i][j] = quad[j][i] = draw(_coefficients)
    lin = tuple(draw(_coefficients) for _ in range(s))
    return BracketQuadratic(N, freqs, tuple(map(tuple, quad)), lin, draw(_coefficients))


@given(bq=_bracket_quadratics())
def test_per_term_blocks_match_the_factorization(bq):
    sysm, F, _ = bracket_to_nilsystem(bq)
    blocks = per_term_blocks(bq)
    s = len(bq.freqs)
    n_quad = sum(bq.quad[i][j] != 0 for i in range(s) for j in range(i, s))
    n_lin = sum(v != 0 for v in bq.lin)
    # one entry per active term, quadratic ones first
    assert [d for d, _ in blocks] == [9] * n_quad + [2] * n_lin
    assert sum(d for d, _ in blocks) == sysm.dimension
    assert sum(K for _, K in blocks) == pytest.approx(lipschitz(F), rel=1e-12, abs=0.0)
    assert all(K <= 50 for _, K in blocks)


# --- the float path against the formulas it inlines --------------------------------
#
# Reference copies of the scalar nil layer as separate steps, [t] taken as
# floor(float(t) + 1/2): nil_frac, heis_project, cutoff, FundamentalFactor.orbit,
# NilFunction.__call__, e, the bracket block functions and bracket_weight.  On
# float and int inputs the layer must agree with them bit for bit, with the
# same result types.


def ref_nil_frac(t):
    return t - floor(float(t) + 0.5)


def ref_heis_project(a: tuple) -> tuple:
    X, Y, Z = a
    return (ref_nil_frac(X), ref_nil_frac(Y - floor(float(X) + 0.5) * Z), ref_nil_frac(Z))


def ref_cutoff(t) -> float:
    a = abs(float(ref_nil_frac(float(t))))
    lo, hi = nil._PLATEAU, nil._SUPPORT
    if a <= lo:
        return 1.0
    if a >= hi:
        return 0.0
    u = (a - lo) / (hi - lo)
    return 1.0 - (3 * u * u - 2 * u * u * u)


def ref_orbit(f: FundamentalFactor, c: tuple, n: int) -> tuple:
    if f.kind == "circle":
        return (ref_nil_frac(c[0] + n * f.alpha),)
    if f.kind == "skew":
        x, y = c
        y2 = y + n * f.beta + n * f.m * x + _tri(n) * f.m * f.alpha
        return (ref_nil_frac(x + n * f.alpha), ref_nil_frac(y2))
    x, y, z = c
    return ref_heis_project((
        x + n * f.alpha,
        y + n * f.beta + n * f.gamma * x + _tri(n) * f.gamma * f.alpha,
        z + n * f.gamma,
    ))


def ref_orbit_point(sysm: NilSystem, x0: tuple, n: int) -> tuple:
    return tuple(ref_orbit(f, c, n) for f, c in zip(sysm.factors, x0))


def ref_call(F: NilFunction, p: tuple) -> complex:
    out = F.global_phase
    for b in F.blocks:
        coords = tuple(v for blk in p[b.start : b.start + b.count] for v in blk)
        out *= b.fn(*coords)
    return out


def ref_e(t) -> complex:
    return cmath.exp(2j * np.pi * float(t))


def ref_bracket_function(bq: BracketQuadratic) -> NilFunction:
    """bracket_to_nilsystem's function with the reference block functions:
    per active term, the same blocks on the same factors."""
    sysm, F, _ = bracket_to_nilsystem(bq)
    fns = []
    for _, j, c in _active_terms(bq):
        _, s = _split_half(-c)
        if j is None:
            fns.append(lambda x, y, s=s: ref_cutoff(x) * ref_e(s * x) * ref_e(y))
        else:
            fns += [lambda x, y, s=s: ref_cutoff(x) * ref_cutoff(y) * ref_e(s * x * y),
                    lambda x, y, z: ref_cutoff(x) * ref_e(y),
                    lambda x, y, z: ref_cutoff(x) * ref_e(y),
                    lambda x: ref_e(x)]
    blocks = [BlockFunction(b.start, b.count, fn, b.lipschitz) for b, fn in zip(F.blocks, fns, strict=True)]
    return NilFunction(sysm, blocks, global_phase=ref_e(-float(bq.const)))


def ref_bracket_weight(bq: BracketQuadratic):
    N = bq.N
    terms = _active_terms(bq)
    quad = [(bq.freqs[i], bq.freqs[j]) for i, j, _ in terms if j is not None]
    lin = [bq.freqs[i] for i, j, _ in terms if j is None]

    def weight(n: int) -> float:
        w = 1.0
        for a, b in quad:
            w *= ref_cutoff(a * n / N) ** 2 * ref_cutoff(b * n / N) ** 2
        for a in lin:
            w *= ref_cutoff(a * n / N)
        return w

    return weight


def same(a, b) -> bool:
    """Equal, of the same type, and with the same sign on zeros: bit identity
    for floats and complexes, equality for ints."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(u, v) for u, v in zip(a, b))
    if isinstance(a, complex):
        return same(a.real, b.real) and same(a.imag, b.imag)
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


_halves = st.integers(-5, 5).map(lambda k: k + 0.5)
_values = st.one_of(
    st.floats(-4, 4),
    st.integers(-4 * 10**6, 4 * 10**6).map(lambda k: k / 999_983),  # floats with a full mantissa
    _halves,
    st.just(-0.0),
    st.integers(-4, 4),
)
_steps = st.one_of(st.integers(-10**6, 10**6), st.sampled_from([0, 1, -1, 10**6, -10**6]))


@given(t=st.one_of(_values, st.floats(-1e6, 1e6)))
def test_nil_frac_and_cutoff_match_exact_formulas(t):
    assert same(nil_frac(t), ref_nil_frac(t))
    assert same(cutoff(t), ref_cutoff(t))


@settings(max_examples=300)
@given(kind=st.sampled_from(["circle", "skew", "heis"]), m=st.integers(-10**4, 10**4), n=_steps, data=st.data())
def test_orbit_fast_paths_match_exact_formulas(kind, m, n, data):
    # each parameter and coordinate is a float or an int of its own
    alpha, beta, gamma = (data.draw(_values) for _ in range(3))
    f = FundamentalFactor(kind, alpha=alpha, beta=beta, gamma=gamma, m=m)
    c = tuple(data.draw(_values) for _ in range(f.dim))
    want = ref_orbit(f, c, n)
    assert same(f.orbit(c, n), want)
    sysm = NilSystem((f, f))
    assert same(orbit_point(sysm, (c, c), n), (want, want))


def test_orbit_fast_paths_match_on_full_mantissa_floats(rng):
    # random floats and steps, where a reassociated product shows in the last bit
    for kind in ("circle", "skew", "heis"):
        for _ in range(2000):
            alpha, beta, gamma = rng.uniform(-4, 4, 3).tolist()
            f = FundamentalFactor(kind, alpha, beta, gamma, m=int(rng.integers(-10**4, 10**4)))
            c = tuple(rng.uniform(-4, 4, f.dim).tolist())
            n = int(rng.integers(-10**6, 10**6 + 1))
            assert same(f.orbit(c, n), ref_orbit(f, c, n))


@given(data=st.data())
def test_nil_function_call_matches_reference(data):
    # blocks of 0-3 factors, so the 1- and 2-factor calls and the general one
    # all run, on float and int coordinates
    kinds = data.draw(st.lists(st.sampled_from(["circle", "skew", "heis"]), min_size=1, max_size=5))
    sysm = NilSystem(tuple(FundamentalFactor(k, alpha=0.1, beta=0.2, gamma=0.3) for k in kinds))
    p = tuple(tuple(data.draw(_values) for _ in range(f.dim)) for f in sysm.factors)
    blocks = []
    for w in range(data.draw(st.integers(0, 4))):
        start = data.draw(st.integers(0, len(kinds)))
        count = data.draw(st.integers(0, min(3, len(kinds) - start)))
        blocks.append(BlockFunction(start, count, lambda *c, w=w: e((w + 1) * sum(map(float, c)) / 7) * 1.25, 1.0))
    F = NilFunction(sysm, blocks, global_phase=data.draw(st.sampled_from([1.0, 1j, 0.5 - 0.25j])))
    assert same(F(p), ref_call(F, p))
    t = data.draw(_values)
    assert same(e(t), ref_e(t))


def _random_bracket(rng, N: int) -> BracketQuadratic:
    s = int(rng.integers(1, 3))
    freqs = tuple(sorted(rng.choice(np.arange(1, N), size=s, replace=False).tolist()))
    grid = [Fraction(k, 4) for k in range(-12, 13)]

    def coeff():
        if rng.uniform() < 0.5:
            return grid[int(rng.integers(len(grid)))]
        return float(rng.uniform(-3, 3))

    quad = [[0] * s for _ in range(s)]
    for i in range(s):
        for j in range(i, s):
            quad[i][j] = quad[j][i] = coeff()
    return BracketQuadratic(N, freqs, tuple(map(tuple, quad)), tuple(coeff() for _ in range(s)), coeff())


def test_bracket_factorization_matches_reference_composition(rng):
    N = 401
    for _ in range(6):
        bq = _random_bracket(rng, N)
        sysm, F, x0 = bracket_to_nilsystem(bq)
        F_ref, w, w_ref = ref_bracket_function(bq), bracket_weight(bq), ref_bracket_weight(bq)
        worst = worst_ref = 0.0
        for n in range(-(N // 2), N // 2 + 1):
            got, want = F(orbit_point(sysm, x0, n)), ref_call(F_ref, ref_orbit_point(sysm, x0, n))
            assert same(got, want)
            assert same(w(n), w_ref(n))
            phase = np.exp(-2j * np.pi * float(bq.eval(n)))
            worst = max(worst, abs(got - w(n) * phase))
            worst_ref = max(worst_ref, abs(want - w_ref(n) * phase))
        assert same(worst, worst_ref)


# --- rational inputs, read as floats, against exact arithmetic ---------------------
#
# The layer computes in floats only.  On rational parameters and coordinates
# its orbit stays within 1e-9 mod 1 of the exact one for |n| <= 10^4 while the
# lifted coordinates stay near 10^6 or below, where their rounding error is
# about 1e-10: so the quadratic coefficient (m alpha of a skew shift, gamma alpha
# of a Heisenberg flow) is drawn with |.| <= 1/100.  At O(1) coefficients the
# t m alpha term reaches 10^8 and float64 keeps only about 1e-8 of it.

_HALF = st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=30)


def _small(bound: Fraction):
    return st.fractions(-bound, bound, max_denominator=3000)


def _gap(u: float, v: Fraction) -> Fraction:
    """|u - v| mod 1, exactly."""
    d = Fraction(u) - v
    return abs(d - round_half_up(d))


@settings(max_examples=300)
@given(kind=st.sampled_from(["circle", "skew", "heis"]), m=st.integers(-3, 3),
       n=st.one_of(st.integers(-10**4, 10**4), st.sampled_from([10**4, -10**4])), data=st.data())
def test_orbit_on_rationals_is_within_1e9_of_exact(kind, m, n, data):
    alpha = data.draw(_small(Fraction(1, 300)) if kind == "skew" else _HALF)
    beta, gamma = data.draw(_HALF), data.draw(_small(Fraction(1, 100)))
    exact = FundamentalFactor(kind, alpha, beta, gamma, m)
    c = tuple(data.draw(_HALF) for _ in range(exact.dim))
    want = exact_orbit(exact, c, n)
    got = FundamentalFactor(kind, float(alpha), float(beta), float(gamma), m).orbit(tuple(map(float, c)), n)
    assert all(type(v) is float for v in got)
    if kind == "heis":
        # X near a half-integer may lift to the other side of the cylinder,
        # (-1/2, y, z) ~ (1/2, y + z, z)
        d = round(Fraction(got[0]) - want[0])
        assert abs(Fraction(got[0]) - want[0] - d) <= 1e-9
        want = (want[0] + d, want[1] + d * want[2], want[2])
    assert max(_gap(u, v) for u, v in zip(got, want)) <= 1e-9
