import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from u3kit.groups import GroupFunction, GroupSpec
from u3kit.modlinalg import rref_mod_p
from u3kit.nil import NilFunction, NilPoint, _factor_terms

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


def elements(spec: GroupSpec):
    """Every element of the group, in index order."""
    return [spec.element_by_index(i) for i in range(spec.order)]


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
    pts = H.coset(witness.y.index)
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
        v = K * delta - abs(F(NilPoint(tuple(p1))) - F(NilPoint(tuple(p2))))
        worst = min(worst, v)
    return worst
