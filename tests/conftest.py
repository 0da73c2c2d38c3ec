import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from u3kit.groups import GroupFunction, GroupSpec, mod1
from u3kit.modlinalg import rref_mod_p
from u3kit.nil import NilFunction, _factor_terms

# One setting for every property test: derandomized, with no example database.
settings.register_profile("u3kit", max_examples=60, deadline=None, derandomize=True, database=None)
settings.load_profile("u3kit")


def random_bounded(spec: GroupSpec, rng) -> GroupFunction:
    mags = rng.uniform(0, 1, spec.order)
    args = rng.uniform(0, 1, spec.order)
    return GroupFunction(spec, mags * np.exp(2j * np.pi * args))


def random_unimodular(spec: GroupSpec, rng) -> GroupFunction:
    args = rng.uniform(0, 1, spec.order)
    return GroupFunction(spec, np.exp(2j * np.pi * args))


def random_pm1(spec: GroupSpec, rng) -> GroupFunction:
    return GroupFunction(spec, rng.choice([-1.0, 1.0], spec.order) + 0j)


def constant(spec: GroupSpec, c: complex) -> GroupFunction:
    return GroupFunction(spec, np.full(spec.order, c, dtype=np.complex128))


def pair(spec: GroupSpec, xi: int, x: int) -> Fraction:
    """The character pairing xi.x = sum_i xi_i x_i / n_i mod 1 of a dual
    index and an element index, as an exact Fraction in [0, 1): the
    reference for `GroupSpec.pairings`."""
    total = Fraction(0)
    for a, b, n in zip(spec.coords_of(xi), spec.coords_of(x), spec.orders):
        total += Fraction(a * b, n)
    return mod1(total)


def coord_add(spec: GroupSpec, x: int, y: int) -> int:
    """x + y for element (or dual) indices by coordinates: coords_of both,
    add, and index_of reduces mod each factor order."""
    return spec.index_of([a + b for a, b in zip(spec.coords_of(x), spec.coords_of(y))])


def coord_scale(spec: GroupSpec, k: int, x: int) -> int:
    """k * x by coordinates, on Python integers."""
    return spec.index_of([k * a for a in spec.coords_of(x)])


def embed_coords(H, t) -> tuple[int, ...]:
    """The point t @ basis_matrix() of a subgroup H, for local coordinates t,
    as ambient coordinates."""
    v = (np.array(t, dtype=np.int64) @ H.basis_matrix()) % np.array(H.spec.orders)
    return tuple(int(c) for c in v)


def frac_part(t) -> Fraction:
    """The fractional part of t in (-1/2, 1/2], the bracket {t} of a
    bracket quadratic: a Fraction for a Fraction, a float for a float."""
    t = mod1(t)
    if isinstance(t, Fraction):
        return t if 2 * t <= 1 else t - 1
    return t if t <= 0.5 else t - 1.0


def round_half_up(t: Fraction) -> int:
    """[t], the nearest integer to t with halves rounded up, exactly: the
    reference for the nil layer's floor(t + 1/2)."""
    return (2 * t.numerator + t.denominator) // (2 * t.denominator)


def exact_orbit(f, c: tuple, n: int) -> tuple:
    """T^n c for a `nil.FundamentalFactor` f with Fraction parameters and
    Fraction coordinates c, in exact arithmetic: the closed forms of the
    `nil` module docstring, with [t] = round_half_up(t) and {t} = t - [t]."""
    t = n * (n + 1) // 2
    if f.kind == "circle":
        X = c[0] + n * f.alpha
        return (X - round_half_up(X),)
    if f.kind == "skew":
        x, y = c
        X = x + n * f.alpha
        Y = y + n * f.beta + n * f.m * x + t * f.m * f.alpha
        return (X - round_half_up(X), Y - round_half_up(Y))
    x, y, z = c
    X = x + n * f.alpha
    Y = y + n * f.beta + n * f.gamma * x + t * f.gamma * f.alpha
    Z = z + n * f.gamma
    k = round_half_up(X)
    W = Y - k * Z
    return (X - k, W - round_half_up(W), Z - round_half_up(Z))


def bohr_norm_exact(spec: GroupSpec, x: int, S) -> Fraction:
    """||x||_S = sup_{xi in S} distance of xi.x to the nearest integer, one
    exact pairing at a time: the reference for the integer norms of a
    `bohr.BohrSet`."""
    best = Fraction(0)
    for xi in S:
        v = pair(spec, xi, x)
        best = max(best, min(v, 1 - v))
    return best


def bilinear_value(Q, x: int, y: int) -> Fraction:
    """Mx.y mod 1 for a `quadratic.QuadraticPhase` Q and element indices x
    and y, summed in Fractions."""
    total = Fraction(0)
    for i, a in enumerate(Q.spec.coords_of(x)):
        for j, b in enumerate(Q.spec.coords_of(y)):
            total += Q.bilinear[i][j] * a * b
    return mod1(total)


def evaluate(Q, x: int) -> Fraction:
    """Q at the element index x, Mx.x + xi.x + c mod 1 in Fractions: the
    per-point reference for `QuadraticPhase.numerators` and `values`."""
    total = bilinear_value(Q, x, x)
    for j, v in enumerate(Q.spec.coords_of(x)):
        total += Fraction(Q.xi[j] * v, Q.spec.orders[j])
    return mod1(total + Q.c)


def solve_mod_p(mat: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of mat @ x = b mod p, or None: the reference elimination
    of [mat | b], the free variables set to 0."""
    mat = np.atleast_2d(np.array(mat, dtype=np.int64) % p)
    b = np.array(b, dtype=np.int64) % p
    cols = mat.shape[1]
    r, pivots = rref_mod_p(np.hstack([mat, b.reshape(-1, 1)]), p)
    if pivots and pivots[-1] == cols:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = r[:, cols]
    return x


def traced_peak(call):
    """(call(), the tracemalloc peak in bytes while it ran).  tracemalloc
    counts the allocations of every thread."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def reference_cyclic_scan(fvals: np.ndarray, h: int):
    """The per-a loop that the cyclic coset oracle and the exhaustive scan
    both ran before `norms.quadratic_scan` replaced them: one chirp and one
    FFT over b per a, keeping the first (a, b) that beats the best so far by
    more than 1e-15.  Returns (value, (a, b), table) with table[a, b] =
    |sum_t g(t) e(-(a t^2 + b t)/h)| / h."""
    ts = np.arange(h, dtype=np.int64)
    omega = np.exp(-2j * np.pi * np.arange(h) / h)
    best_val, best, rows = -1.0, (0, 0), []
    for a in range(h):
        g = fvals * omega[(a * ts * ts) % h]
        mags = np.abs(np.fft.fft(g)) / h
        b = int(np.argmax(mags))
        if float(mags[b]) > best_val + 1e-15:
            best_val, best = float(mags[b]), (a, b)
        rows.append(mags)
    return best_val, best, np.array(rows)


def reference_sampled_scan(fvals: np.ndarray, N: int, seed: int, samples: int):
    """The gather loop that `quadratic_correlation_scan(mode="sampled")` ran
    before it went through the cyclic scan of `norms`: the candidates a = 0,
    all b (one FFT), then the seeded pairs in blocks of 4,000,000 // N, one
    gathered exponential per pair and point, keeping the first pair that
    beats the best so far by more than 1e-15.  Returns (value, (a, b),
    pairs, values) with every candidate pair examined (the a = 0 row first)
    and its |E f(x) e(-(a x^2 + b x)/N)|."""
    xs = np.arange(N, dtype=np.int64)
    omega = np.exp(-2j * np.pi * np.arange(N) / N)
    corr0 = np.abs(np.fft.fft(fvals)) / N
    b0 = int(np.argmax(corr0))
    best = (float(corr0[b0]), 0, b0)
    pairs = np.random.default_rng(seed).integers(0, N, size=(samples, 2))
    chunk = max(1, 4_000_000 // N)
    x2 = (xs * xs) % N
    found = [corr0]
    for start in range(0, samples, chunk):
        blk = pairs[start : start + chunk]
        expo = (blk[:, 0][:, None] * x2[None, :] + blk[:, 1][:, None] * xs[None, :]) % N
        vals = np.abs(omega[expo] @ fvals) / N
        found.append(vals)
        i = int(np.argmax(vals))
        if float(vals[i]) > best[0] + 1e-15:
            best = (float(vals[i]), int(blk[i, 0]), int(blk[i, 1]))
    row0 = np.stack([np.zeros(N, dtype=np.int64), xs], axis=1)
    return best[0], best[1:], np.concatenate([row0, pairs]), np.concatenate(found)


def bias_against(witness, f: GroupFunction) -> float:
    """|E_{x in y+H} f(x) e(-phi(x))| for a `norms.CosetQuadraticWitness`,
    one point at a time with the phase summed exactly in Fractions: the
    direct-evaluation reference for the value the coset oracle reports."""
    H = witness.subgroup
    loc = H.local_orders
    pts = H.coset(witness.y)
    total = 0j
    for x, t in zip(pts.tolist(), itertools.product(*[range(o) for o in loc]), strict=True):
        phase = Fraction(0)
        for i, oi in enumerate(loc):
            phase += Fraction(witness.b[i] * t[i], oi)
            for j, oj in enumerate(loc):
                phase += Fraction(witness.A[i][j] * t[i] * t[j], oj)
        total += f.values[x] * np.exp(-2j * np.pi * float(phase % 1))
    return abs(total) / len(pts)


def per_term_blocks(bq) -> list[tuple[int, float]]:
    """(dimension, Lipschitz bound) of each active monomial's block of the
    bracket factorization, summed over the factors and block functions
    `nil.bracket_to_nilsystem` builds for it, for the <= 9 / <= 50 checks."""
    return [
        (sum(f.dim for f in factors), sum(b.lipschitz for b in blocks))
        for factors, blocks in _factor_terms(bq)
    ]


def lipschitz_slack(F: NilFunction, K: float, m: int, samples: int = 500, seed: int = 0) -> float:
    """min over sampled same-atom pairs of K/m - |F(x) - F(x')|; nonnegative
    (within 1e-9) when K is a correct Lipschitz constant for F."""
    rng = np.random.default_rng(seed)
    sys = F.system
    delta = 1.0 / m
    worst = K * delta
    for _ in range(samples):
        cells = rng.integers(0, m, size=sys.dimension)
        u1 = (cells + rng.uniform(0, 1, size=sys.dimension)) / m - 0.5
        u2 = (cells + rng.uniform(0, 1, size=sys.dimension)) / m - 0.5
        p1, p2, pos = [], [], 0
        for f in sys.factors:
            p1.append(tuple(u1[pos : pos + f.dim]))
            p2.append(tuple(u2[pos : pos + f.dim]))
            pos += f.dim
        v = K * delta - abs(F(tuple(p1)) - F(tuple(p2)))
        worst = min(worst, v)
    return worst
