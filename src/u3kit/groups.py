"""Exact arithmetic for finite abelian groups, their duals and dense functions.

A group is a product of cyclic factors Z/n1 x ... x Z/nk.  Elements and
characters are int64 row-major indices of their coordinate vectors, reduced
mod the factor orders; ``GroupSpec.index_of`` / ``coords_of`` convert one
index at the JSON and command-line boundary.  The pairing of a character with
an element lands in the torus R/Z and is computed exactly, in bulk, by
``GroupSpec.pairings`` as integers over the exponent D = lcm of the factor
orders.  Dense complex-valued functions on a group are stored as numpy
vectors in row-major element order, which fixes the serialized layout
bit-for-bit.

This module is the only one that knows the row-major layout
(index = sum_i coord_i * prod_{j>i} n_j, the first factor varying slowest).
The numeric code elsewhere works on index arrays through two entry points:

* index arithmetic -- ``GroupSpec.add_indices`` / ``neg_indices`` work on
  broadcasting int64 arrays one run of factors at a time: consecutive factors
  whose orders multiply to at most _TABLE_RUN form a run, and the run's digit
  a // place % m indexes its m x m Cayley table (and negation table), cached
  and already multiplied by the run's place value, so a + b is the sum over
  runs of T[a_run, b_run] (one gather on F5^3); a longer factor adds its
  digits by compare-and-subtract.  ``scale_indices`` scales each factor's
  digit mod n_i, and ``decode`` / ``encode`` convert to and from coordinates;
* coset points -- ``GroupSpec.coset_points(y, gens, orders)`` lists
  y + t_1 g_1 + ... + t_k g_k for t in lexicographic order (t_1 slowest),
  for boxes and progressions: a ``modlinalg.BoxSubgroup`` lists its span
  through it, and ``bohr`` a coset progression.  The points of an
  F_p-subspace are listed one way, as the encoded coordinates
  ``modlinalg.span_points(rows, p)``, in the same order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import BudgetExceeded, ParseError

# Values on the torus R/Z: exact Fraction whenever the input data is exact,
# float otherwise.  All helpers below accept either.
TorusValue = Union[Fraction, float]

BOUNDED_SLACK = 1e-12


# Largest order of a run of factors that index arithmetic adds with one cached
# Cayley table (m x m int64, 128 KB at 128).  Replay of every add_indices and
# neg_indices call of one seed-1 bench pass, ms, median of 9 alternating
# rounds, one thread, 2-core Xeon:
#   _TABLE_RUN   gowers  f5_planted  f5_driver
#   digit loop     80.1       108.1      132.7
#   16             48.9        70.4       95.6
#   32             38.5        38.9       56.7
#   64             37.5        43.2       55.8
#   128            39.0        30.0       35.7
#   256            43.1        31.1       32.7
# From 125 on, F5^3 is one run and F5^6 two.  At 256 the Z/211 of the U^4
# rows becomes a 211 x 211 table, slower than its compare-and-subtract.
_TABLE_RUN = 128
_ADD_BLOCK = 1 << 14  # outputs per row block of a multi-run outer sum


def factor_runs(orders: tuple[int, ...], limit: int) -> list[tuple[int, ...]]:
    """Runs of consecutive factor orders, last run first: factors share a run
    while their orders multiply to at most limit, and a longer factor is a
    run of its own."""
    out: list[tuple[int, ...]] = []
    for n in reversed(orders):
        if out and prod(out[-1]) * n <= limit:
            out[-1] = (n,) + out[-1]
        else:
            out.append((n,))
    return out


def _outer_shape(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...] | None:
    """The broadcast shape of x and y when every axis of x longer than 1
    precedes every such axis of y (right-aligned), so that x + y is the outer
    sum of the flattened operands; None otherwise."""
    ndim = max(len(x), len(y))
    shape = []
    in_y = False
    for nx, ny in zip((1,) * (ndim - len(x)) + x, (1,) * (ndim - len(y)) + y):
        in_y = in_y or ny != 1
        if nx != 1 and in_y:
            return None
        shape.append(nx if nx != 1 else ny)
    return tuple(shape)


def mod1(t: TorusValue) -> TorusValue:
    """Reduce into [0, 1)."""
    if isinstance(t, Fraction):
        return t - (t.numerator // t.denominator)
    r = t - np.floor(t)
    # a tiny negative float leaves t - floor(t) rounded up to 1.0
    return r - 1 if r == 1 else r


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group presented as a product of cyclic factors."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders or any(n < 1 for n in self.orders):
            raise ValueError("factor orders must be positive")
        if self.order >= 2**63:
            raise ValueError("group order must fit in 64 bits")

    @cached_property
    def order(self) -> int:
        return prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def exponent(self) -> int:
        """D = lcm of the factor orders: every pairing xi.x lies in (1/D)Z/Z."""
        return lcm(*self.orders)

    # Row-major place values: index = sum_i coord_i * prod_{j>i} n_j.
    @cached_property
    def _weights(self) -> tuple[int, ...]:
        w = []
        acc = 1
        for n in reversed(self.orders):
            w.append(acc)
            acc *= n
        return tuple(reversed(w))

    def index_of(self, coords: Sequence[int]) -> int:
        return sum((c % n) * w for c, n, w in zip(coords, self.orders, self._weights, strict=True))

    def coords_of(self, index: int) -> tuple[int, ...]:
        out = []
        for n, w in zip(self.orders, self._weights):
            out.append((index // w) % n)
        return tuple(out)

    # Vectorized index arithmetic (used by the heavy numeric paths).
    def decode(self, idx: np.ndarray) -> np.ndarray:
        """Index array -> coordinate array with one trailing axis per factor."""
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty(idx.shape + (self.rank,), dtype=np.int64)
        for a, (n, w) in enumerate(zip(self.orders, self._weights)):
            out[..., a] = (idx // w) % n
        return out

    def encode(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64)
        acc = np.zeros(coords.shape[:-1], dtype=np.int64)
        for a, (n, w) in enumerate(zip(self.orders, self._weights)):
            acc = acc + (coords[..., a] % n) * w
        return acc

    # Index arithmetic on broadcasting int64 arrays, one run of factors at a
    # time (see _runs); digit r of an index a is a // place_r % m_r.
    @cached_property
    def _runs(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(orders, place value) of each `factor_runs` run of at most
        _TABLE_RUN, last run first."""
        runs, place = [], 1
        for orders in factor_runs(self.orders, _TABLE_RUN):
            runs.append((orders, place))
            place *= prod(orders)
        return tuple(runs)

    def _digits(self, a: np.ndarray, m: int, place: int) -> np.ndarray:
        """The run digits a // place % m of reduced indices a."""
        d = a // place if place > 1 else a
        return d % m if place * m < self.order else d

    def add_indices(self, a, b) -> np.ndarray:
        """a + b on broadcasting index arrays: the sum over runs of each run's
        Cayley table at the two digits (a long factor adds its digits by
        compare-and-subtract, exact up to orders near 2^63).  When the
        operands form an outer sum, such as (K, 1) with (1, M), the tables
        are indexed row by one operand and column by the other, so no K x M
        index array is built, and every run after the first adds its share
        into the output in row blocks of about _ADD_BLOCK entries: the peak
        is the output and one block, not one K x M array per run."""
        a = np.asarray(a, dtype=np.int64) % self.order
        b = np.asarray(b, dtype=np.int64) % self.order
        shape = _outer_shape(a.shape, b.shape)
        if shape is None and (shape := _outer_shape(b.shape, a.shape)) is not None:
            a, b = b, a  # a + b = b + a: b leads
        outer = shape is not None
        if outer:
            a, b = a.reshape(-1, 1), b.reshape(1, -1)
        else:
            shape = np.broadcast_shapes(a.shape, b.shape)
        out = None
        for orders, place in self._runs:
            m = prod(orders)
            share = _run_share(orders, place, self._digits(a, m, place), self._digits(b, m, place), outer)
            if out is None:
                out = share(...)
            elif not outer or out.size <= _ADD_BLOCK:
                out += share(...)
            else:
                step = max(1, _ADD_BLOCK // out.shape[1])
                for r0 in range(0, len(out), step):
                    out[r0 : r0 + step] += share(slice(r0, r0 + step))
        return out.reshape(shape)

    def neg_indices(self, a) -> np.ndarray:
        """-a: the sum over runs of each run's negation table at its digit."""
        a = np.asarray(a, dtype=np.int64) % self.order
        out = np.zeros(a.shape, dtype=np.int64)
        for orders, place in self._runs:
            m = prod(orders)
            d = self._digits(a, m, place)
            out += (-d % m) * place if m > _TABLE_RUN else _run_tables(orders, place)[1][d]
        return out

    def scale_indices(self, c, a) -> np.ndarray:
        """c * a for an integer (or integer array) c, broadcasting.  Each
        factor scales its digit by c mod n_i, on Python integers where the
        product of two residues could pass 2^63."""
        a = np.asarray(a, dtype=np.int64)
        out = 0
        for n, w in zip(self.orders, self._weights):
            c_n, d = np.asarray(c) % n, a // w % n
            if n >= 2**31:  # c_n * d may pass 2^63
                c_n, d = c_n.astype(object), d.astype(object)
            out = out + np.asarray(c_n * d % n, dtype=np.int64) * w
        return np.asarray(out, dtype=np.int64)

    def pairings(self, xis, idx) -> np.ndarray:
        """D * (xi.x mod 1) in 0..D-1 for dual indices ``xis`` and element
        indices ``idx``, broadcasting: axis i adds xi_i x_i mod n_i times
        D / n_i, reduced mod D, so every step stays exact in int64."""
        D = self.exponent
        if max(self.orders) >= 2**31 or D >= 2**62:
            raise BudgetExceeded(f"int64 pairings need factor orders below 2^31 and D below 2^62, not {self}")
        xis = np.asarray(xis, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        out = np.zeros(np.broadcast_shapes(xis.shape, idx.shape), dtype=np.int64)
        for n, w in zip(self.orders, self._weights):
            out = (out + (xis // w % n) * (idx // w % n) % n * (D // n)) % D
        return out

    def coset_points(self, y: int, gens, orders: Sequence[int]) -> np.ndarray:
        """Indices of y + t_1 g_1 + ... + t_k g_k over t in prod range(orders),
        lexicographic with t_1 slowest; ``gens`` are element indices."""
        pts = np.asarray(y, dtype=np.int64).reshape(1)
        for g, o in zip(gens, orders, strict=True):
            steps = self.scale_indices(np.arange(o, dtype=np.int64), g)
            pts = self.add_indices(pts[:, None], steps[None, :]).reshape(-1)
        return pts

    def __str__(self) -> str:
        return "x".join(f"Z/{n}" for n in self.orders)


def _run_share(orders: tuple[int, ...], place: int, da: np.ndarray, db: np.ndarray, outer: bool):
    """One run's share of a + b from the run digits da and db of the
    operands, as a function of a row slice r: with outer, rows r of the
    outer sum of da (K, 1) and db (1, M); without it, r is Ellipsis and da
    and db broadcast."""
    m = prod(orders)
    if m > _TABLE_RUN:
        def share(r):
            part = da[r] - (m - db)  # in [-m, m): no overflow
            np.add(part, m, out=part, where=part < 0)
            if place > 1:
                part *= place
            return part
        return share
    T = _run_tables(orders, place)[0]
    if not outer:
        return lambda r: T[da, db]
    if da.size > 2 * m:  # columns of T by b once, then whole rows by a
        cols = np.take(T, db[0], axis=1)
        return lambda r: np.take(cols, da[r, 0], axis=0)
    return lambda r: np.take(T[da[r, 0]], db[0], axis=1)


@lru_cache(maxsize=64)
def _run_tables(orders: tuple[int, ...], place: int) -> tuple[np.ndarray, np.ndarray]:
    """The Cayley table place * (i + j) and the negation table place * (-i)
    of Z/n1 x ... x Z/nk, for row-major indices i, j of that run (read-only:
    the arrays are shared by every call)."""
    run = GroupSpec(orders)
    c = run.decode(np.arange(run.order))
    add = run.encode(c[:, None, :] + c[None, :, :]) * place
    neg = run.encode(-c) * place
    add.flags.writeable = neg.flags.writeable = False
    return add, neg


@dataclass
class GroupFunction:
    """Dense complex function on a group, row-major over element indices."""

    owner: GroupSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.owner.order,):
            raise ValueError(f"expected {self.owner.order} values, got {self.values.shape}")

    def is_bounded(self) -> bool:
        return bool(np.max(np.abs(self.values)) <= 1.0 + BOUNDED_SLACK)

    @staticmethod
    def indicator(spec: GroupSpec, subset: Iterable[int]) -> "GroupFunction":
        idx = subset if isinstance(subset, np.ndarray) else list(subset)
        vals = np.zeros(spec.order, dtype=np.complex128)
        vals[np.asarray(idx, dtype=np.int64) % spec.order] = 1.0
        return GroupFunction(spec, vals)


# --- group spec string grammar -------------------------------------------

_FACTOR_RE = re.compile(r"^(?:Z/(\d+)|F(\d+)\^(\d+))$")


def parse_group(s: str) -> GroupSpec:
    """Parse "Z/101", "F5^3" (sugar for Z/5xZ/5xZ/5) or products "Z/4xZ/9"."""
    orders: list[int] = []
    for part in s.replace(" ", "").split("x"):
        m = _FACTOR_RE.match(part)
        if not m:
            raise ParseError(f"bad group factor {part!r}")
        if m.group(1):
            orders.append(int(m.group(1)))
        else:
            p, k = int(m.group(2)), int(m.group(3))
            orders.extend([p] * k)
    try:
        return GroupSpec(tuple(orders))
    except ValueError as exc:  # a zero factor, or an order beyond int64
        raise ParseError(f"bad group {s!r}: {exc}") from exc


# --- JSON function format --------------------------------------------------


def function_to_json(f: GroupFunction) -> dict:
    return {
        "group": str(f.owner),
        "values": [[float(v.real), float(v.imag)] for v in f.values],
    }


def function_from_json(obj: dict) -> GroupFunction:
    """Read the JSON function format; a malformed object raises ParseError."""
    if not (isinstance(obj, dict) and isinstance(obj.get("group"), str)
            and isinstance(obj.get("values"), list)):
        raise ParseError('a function needs a "group" string and a "values" list')
    spec = parse_group(obj["group"])
    try:
        vals = np.array([complex(re_, im) for re_, im in obj["values"]], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"function values must be [re, im] pairs of numbers: {exc}") from exc
    if len(vals) != spec.order:
        raise ParseError(f"expected {spec.order} values for {spec}, got {len(vals)}")
    if not np.all(np.isfinite(vals)):
        raise ParseError("function values must be finite (no NaN or infinity)")
    return GroupFunction(spec, vals)
