"""Elementary 2-step nilflows and nilsequences.

Three fundamental factors: the circle rotation, the skew shift on the
2-torus, and the Heisenberg flow on the cylinder [-1/2,1/2) x (R/Z)^2 with
the identification (-1/2, y, z) ~ (1/2, y+z, z).  All coordinates are kept
in the fundamental domain [-1/2, 1/2), with [t] the nearest integer (halves
rounded up) and {t} = t - [t].

Closed-form orbits:

  circle(alpha):        x -> x + n alpha
  skew(m, alpha, beta): (x,y) -> (x + n a, y + n b + n m x + n(n+1)/2 m a)
  heis(a, b, g), lift:  (X,Y,Z) -> (X + n a, Y + n b + n g X + n(n+1)/2 g a,
                         Z + n g), projected by (X,Y,Z) |-> ({X}, Y - [X] Z,
                         {Z}).

These are the n-th iterates of the one-step maps that use the new x in the
middle coordinate, (x, y) -> (x + a, y + b + m (x + a)); the n(n+1)/2 terms
come from that choice.

A bracket quadratic on Z/N factors into these flows: each quadratic
monomial costs two circles, two Heisenberg blocks and one linear-correction
circle (dimension 9); each linear term costs two circles (dimension 2).

There is one float path: every [t] is floor(t + 1/2), taken on the floats
and ints the layer is given, with no exact Fraction arithmetic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from math import floor
from typing import Callable, Sequence

import numpy as np

from .errors import BadArity, EvenN, NotInSigma, TooManyFrequencies
from .groups import GroupFunction, GroupSpec
from .quadratic import BracketQuadratic


def nil_frac(t):
    """{t} in [-1/2, 1/2) with halves of t rounding up (nil convention)."""
    return t - floor(t + 0.5)


def heis_project(a: tuple) -> tuple:
    """Cylinder coordinates ({X}, Y - [X] Z, {Z}) of a lifted Heisenberg
    element: X goes into the fundamental domain and the identification
    shifts Y by [X] Z."""
    X, Y, Z = a
    k = floor(X + 0.5)
    return (X - k, nil_frac(Y - k * Z), nil_frac(Z))


# --- cutoff ------------------------------------------------------------------


_RHO, _EPS = 0.25, 0.5  # cutoff radius and relative margin
_PLATEAU = _RHO * (1 - _EPS)
_SUPPORT = _RHO * (1 + _EPS)
_RAMP = _SUPPORT - _PLATEAU
CUTOFF_SLOPE = 1.5 / _RAMP  # the cutoff's largest slope: the smoothstep's 3/2 over the ramp


def cutoff(t) -> float:
    """The canonical cutoff at t mod 1: 1 on |{t}| <= rho(1-eps), 0 on
    |{t}| >= rho(1+eps), Hermite smoothstep between, with rho = 1/4 and
    eps = 1/2.  t is read as a float."""
    t = float(t)
    a = abs(t - floor(t + 0.5))
    if a <= _PLATEAU:
        return 1.0
    if a >= _SUPPORT:
        return 0.0
    u = (a - _PLATEAU) / _RAMP
    return 1.0 - (3 * u * u - 2 * u * u * u)


# --- systems and points --------------------------------------------------------


@dataclass(frozen=True)
class FundamentalFactor:
    kind: str  # "circle" | "skew" | "heis"
    alpha: float = 0.0  # each parameter is kept as given: a float or an int
    beta: float = 0.0
    gamma: float = 0.0
    m: int = 0  # skew integer entry

    def __post_init__(self):
        if self.kind not in ("circle", "skew", "heis"):
            raise ValueError(f"unknown factor kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return {"circle": 1, "skew": 2, "heis": 3}[self.kind]

    def orbit(self, c: tuple, n: int) -> tuple:
        """Closed-form n-th point of the orbit through c."""
        return _ORBIT[self.kind](self, c, n, _tri(n))


def _tri(n: int) -> int:
    return n * (n + 1) // 2


# The closed forms, given t = n(n+1)/2, with {.} and [.] taken inline as in
# nil_frac and heis_project.


def _circle_orbit(f: FundamentalFactor, c: tuple, n, t) -> tuple:
    X = c[0] + n * f.alpha
    return (X - floor(X + 0.5),)


def _skew_orbit(f: FundamentalFactor, c: tuple, n, t) -> tuple:
    x, y = c
    a, m = f.alpha, f.m
    X = x + n * a
    Y = y + n * f.beta + n * m * x + t * m * a
    return (X - floor(X + 0.5), Y - floor(Y + 0.5))


def _heis_orbit(f: FundamentalFactor, c: tuple, n, t) -> tuple:
    x, y, z = c
    a, g = f.alpha, f.gamma
    X = x + n * a
    Y = y + n * f.beta + n * g * x + t * g * a
    Z = z + n * g
    k = floor(X + 0.5)
    W = Y - k * Z
    return (X - k, W - floor(W + 0.5), Z - floor(Z + 0.5))


_ORBIT = {"circle": _circle_orbit, "skew": _skew_orbit, "heis": _heis_orbit}


@dataclass(frozen=True)
class NilSystem:
    factors: tuple[FundamentalFactor, ...]

    @property
    def dimension(self) -> int:
        return sum(f.dim for f in self.factors)

    def zero_point(self) -> tuple:
        """The origin, as a point is held: the tuple of its factor blocks."""
        return tuple((0,) * f.dim for f in self.factors)

    @staticmethod
    def from_json(obj: dict) -> "NilSystem":
        fs = []
        for d in obj["factors"]:
            fs.append(
                FundamentalFactor(
                    d["kind"],
                    alpha=d.get("alpha", 0.0),
                    beta=d.get("beta", 0.0),
                    gamma=d.get("gamma", 0.0),
                    m=_skew_entry(d.get("m", 0)),
                )
            )
        return NilSystem(tuple(fs))


def _skew_entry(m) -> int:
    """The skew shift's integer entry as read from JSON: an integer, not a
    float or a bool (int(0.5) would silently give a different flow)."""
    if isinstance(m, bool) or not isinstance(m, int):
        raise TypeError(f"skew entry m must be an integer, not {m!r}")
    return m


def orbit_point(sys: NilSystem, x0: tuple, n: int) -> tuple:
    """T^n x0, block by block."""
    t = _tri(n)
    return tuple([_ORBIT[f.kind](f, c, n, t) for f, c in zip(sys.factors, x0)])


def _block_distance(f: FundamentalFactor, a: tuple, b: tuple) -> float:
    def torus_dev(u, v):
        return abs(nil_frac(float(u) - float(v)))

    if f.kind != "heis":
        return max(torus_dev(u, v) for u, v in zip(a, b))
    # account for the cylinder identification (-1/2,y,z) ~ (1/2,y+z,z)
    x2, y2, z2 = (float(v) for v in b)
    best = float("inf")
    for cand in ((x2, y2, z2), (x2 - 1.0, y2 - z2, z2), (x2 + 1.0, y2 + z2, z2)):
        d = max(abs(float(a[0]) - cand[0]), torus_dev(a[1], cand[1]), torus_dev(a[2], cand[2]))
        best = min(best, d)
    return best


def point_distance(sys: NilSystem, p: tuple, q: tuple) -> float:
    """Sup-distance on the nilmanifold, respecting edge identifications."""
    return max(_block_distance(f, a, b) for f, a, b in zip(sys.factors, p, q))


# --- functions on nilmanifolds --------------------------------------------------


@dataclass
class BlockFunction:
    """A factor-block component of a tensor-product nilfunction."""

    start: int  # first factor index
    count: int  # number of consecutive factors consumed
    fn: Callable[..., complex]  # applied to the concatenated block coords
    lipschitz: float


@dataclass
class NilFunction:
    system: NilSystem
    blocks: list[BlockFunction]
    global_phase: complex = field(default=1.0, kw_only=True)

    def __call__(self, pb: tuple) -> complex:
        out = self.global_phase
        for b in self.blocks:
            s = b.start
            if b.count == 1:
                out *= b.fn(*pb[s])
            elif b.count == 2:
                out *= b.fn(*pb[s], *pb[s + 1])
            else:
                out *= b.fn(*(v for blk in pb[s : s + b.count] for v in blk))
        return out


_TWO_PI_J = 2j * np.pi


def e(t) -> complex:
    return cmath.exp(_TWO_PI_J * float(t))


def nilsequence(F: NilFunction, sys: NilSystem, x0: tuple, N: int) -> GroupFunction:
    """values[n mod N] = F(T^n x0) for -N/2 < n < N/2 (N odd)."""
    if N % 2 == 0:
        raise EvenN("truncation requires odd N")
    spec = GroupSpec((N,))
    vals = np.zeros(N, dtype=np.complex128)
    for n in range(-(N // 2), N // 2 + 1):
        vals[n % N] = F(orbit_point(sys, x0, n))
    return GroupFunction(spec, vals)


# --- bracket quadratics as nilsequences -----------------------------------------


def _split_half(a: float) -> tuple[int, float]:
    """a = q + s with q integer and s in [-1/2, 1/2)."""
    q = floor(a + 0.5)
    return q, a - q


def _active_terms(bq: BracketQuadratic) -> list[tuple[int, int | None, float]]:
    """(i, j, c) for each monomial the factorization realizes, in its order:
    the quadratic ones c {xi_i n/N}{xi_j n/N} for i <= j (c = quad[i][j],
    doubled off the diagonal) first, then the linear ones c {xi_i n/N}
    (j None, c = lin[i]); a term is active when c != 0.0."""
    s = len(bq.freqs)
    quad = [(i, j, float(bq.quad[i][j]) * (1 if i == j else 2)) for i in range(s) for j in range(i, s)]
    lin = [(i, None, float(bq.lin[i])) for i in range(s)]
    return [t for t in quad + lin if t[2] != 0.0]


def _quadratic_term(alpha: float, gamma: float, coeff: float, start: int):
    q, s = _split_half(-coeff)
    slope = CUTOFF_SLOPE
    factors = [
        FundamentalFactor("circle", alpha=alpha),
        FundamentalFactor("circle", alpha=gamma),
        FundamentalFactor("heis", alpha=gamma, beta=0.0, gamma=q * alpha),
        FundamentalFactor("heis", alpha=alpha, beta=0.0, gamma=q * gamma),
        FundamentalFactor("circle", alpha=nil_frac(-q * alpha * gamma)),
    ]
    blocks = [
        BlockFunction(start, 2, lambda x, y: cutoff(x) * cutoff(y) * e(s * x * y), 2 * (slope + np.pi / 2)),
        BlockFunction(start + 2, 1, lambda x, y, z: cutoff(x) * e(y), slope + 2 * np.pi),
        BlockFunction(start + 3, 1, lambda x, y, z: cutoff(x) * e(y), slope + 2 * np.pi),
        BlockFunction(start + 4, 1, lambda x: e(x), 2 * np.pi),
    ]
    return factors, blocks


def _linear_term(alpha: float, coeff: float, start: int):
    q, s = _split_half(-coeff)
    factors = [
        FundamentalFactor("circle", alpha=alpha),
        FundamentalFactor("circle", alpha=nil_frac(q * alpha)),
    ]
    blocks = [BlockFunction(start, 2, lambda x, y: cutoff(x) * e(s * x) * e(y), CUTOFF_SLOPE + 3 * np.pi)]
    return factors, blocks


def _factor_terms(bq: BracketQuadratic) -> list[tuple[list, list]]:
    """(factors, block functions) of each active term, in `_active_terms`
    order; a block's start counts the factors of every earlier term."""
    if len(bq.freqs) > 4:
        raise TooManyFrequencies("at most 4 frequencies supported")
    N = bq.N
    out = []
    start = 0
    for i, j, c in _active_terms(bq):
        if j is None:
            term = _linear_term(bq.freqs[i] / N, c, start)
        else:
            term = _quadratic_term(bq.freqs[i] / N, bq.freqs[j] / N, c, start)
        out.append(term)
        start += len(term[0])
    return out


def bracket_to_nilsystem(bq: BracketQuadratic) -> tuple[NilSystem, NilFunction, tuple]:
    """Realize n -> (prod of cutoff factors) * e(-bq(n)) as F(T^n 0), with
    chi = cutoff.

    Each quadratic monomial c {a n}{g n} contributes the block

      circle(a) x circle(g)      F = chi(x) chi(y) e(s x y)
      heis(g, 0, q a)            F = chi(x) e(y)
      heis(a, 0, q g)            F = chi(x) e(y)
      circle(-q a g)             F = e(x)

    with -c = q + s; the Heisenberg pair produces the n^2 part together with
    the bracket corrections, and the last circle removes the leftover linear
    phase.  Linear terms c {a n} contribute circle(a) x circle(q a) with
    F = chi(x) e(s x) e(y).  Dimension is 9 per quadratic and 2 per linear
    term; every block function is below the declared Lipschitz constant 50.
    """
    terms = _factor_terms(bq)
    system = NilSystem(tuple(f for factors, _ in terms for f in factors))
    F = NilFunction(system, [b for _, blocks in terms for b in blocks], global_phase=e(-float(bq.const)))
    return system, F, system.zero_point()


def bracket_weight(bq: BracketQuadratic):
    """The cutoff weight carried by the bracket factorization: chi^2 at each
    frequency of every active quadratic monomial, chi at each active linear
    frequency, with chi = cutoff.  Returns a callable on residues n."""
    N = bq.N
    terms = _active_terms(bq)
    quad = [(bq.freqs[i], bq.freqs[j]) for i, j, _ in terms if j is not None]
    lin = [bq.freqs[i] for i, j, _ in terms if j is None]

    def weight(n: int) -> float:
        w = 1.0
        for a, b in quad:
            w *= cutoff(a * n / N) ** 2 * cutoff(b * n / N) ** 2
        for a in lin:
            w *= cutoff(a * n / N)
        return w

    return weight


# --- Hall-Petresco constraints ---------------------------------------------------

_HP_TOL = 1e-9  # largest abelianized-constraint deviation of a k = 4 input


def _heis_mul(a: tuple, b: tuple) -> tuple:
    """(x,y,z) as the matrix [[1,z,y],[0,1,x],[0,0,1]]: group law."""
    x1, y1, z1 = a
    x2, y2, z2 = b
    return (x1 + x2, y1 + y2 + z1 * x2, z1 + z2)


def _heis_inv(a: tuple) -> tuple:
    x, y, z = a
    return (-x, -y + z * x, -z)


def hall_petresco_next(points: Sequence, k: int):
    """The forced k-th point of a nilflow progression from the previous k-1.

    k = 3: two torus points a, b -> 2b - a.
    k = 4: three Heisenberg cylinder points satisfying the abelianized
    constraint; the result is a (a^-1 b)^3 ((a^-1 b)^-2 a^-1 c)^3 computed in
    lifted matrices and projected back.  Points off the abelianized
    constraint by more than _HP_TOL raise NotInSigma.
    """
    if k == 3:
        if len(points) != 2:
            raise BadArity("k = 3 needs two points")
        a, b = float(points[0]), float(points[1])
        return nil_frac(2 * b - a)
    if k != 4:
        raise BadArity("only k = 3 and k = 4 are implemented")
    if len(points) != 3:
        raise BadArity("k = 4 needs three points")
    a, b, c = (tuple(float(v) for v in p) for p in points)
    # abelianized membership: (x2, z2) = 2(x1, z1) - (x0, z0) mod Z^2
    for t in (0, 2):
        dev = abs(nil_frac(c[t] - 2 * b[t] + a[t]))
        if dev > _HP_TOL:
            raise NotInSigma(f"abelianized constraint violated by {dev}")
    ab = _heis_mul(_heis_inv(a), b)  # a^-1 b
    ab3 = _heis_mul(_heis_mul(ab, ab), ab)
    inner = _heis_mul(_heis_inv(_heis_mul(ab, ab)), _heis_mul(_heis_inv(a), c))
    inner3 = _heis_mul(_heis_mul(inner, inner), inner)
    res = _heis_mul(a, _heis_mul(ab3, inner3))
    return heis_project(res)


def parallelepiped_deviation(rng) -> float:
    """One random trial of the k = 4 constraint: the distance from the point
    that hall_petresco_next forces after x, Tx, T^2x of a random Heisenberg
    flow to the true T^3x (0 up to rounding)."""
    g = FundamentalFactor("heis", alpha=rng.uniform(), beta=rng.uniform(), gamma=rng.uniform())
    x = tuple(rng.uniform(-0.5, 0.5, size=3))
    res = hall_petresco_next([x, g.orbit(x, 1), g.orbit(x, 2)], 4)
    return point_distance(NilSystem((g,)), (tuple(res),), (g.orbit(x, 3),))

