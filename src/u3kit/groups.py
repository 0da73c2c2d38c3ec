"""Exact arithmetic for finite abelian groups, their duals and dense functions.

A group is a product of cyclic factors Z/n1 x ... x Z/nk.  Elements and
characters are coordinate vectors reduced mod the factor orders; the pairing
of a character with an element lands in the torus R/Z and is kept as an exact
Fraction.  Dense complex-valued functions on a group are stored as numpy
vectors in row-major element order, which fixes the serialized layout
bit-for-bit.

This module is the only one that knows the row-major layout
(index = sum_i coord_i * prod_{j>i} n_j, the first factor varying slowest).
The numeric code elsewhere works on index arrays through three entry points:

* index arithmetic -- ``GroupSpec.add_indices`` / ``neg_indices`` /
  ``scale_indices`` work digit by digit on broadcasting int64 arrays, from
  place values computed once per spec (``decode`` / ``encode`` convert to
  and from coordinates);
* coset points -- ``GroupSpec.coset_points(y, gens, orders)`` lists
  y + t_1 g_1 + ... + t_k g_k for t in lexicographic order (t_1 slowest), the
  points of a coset of a subgroup in its local coordinates;
* batched shift -- ``GroupSpec.translates(hs)`` gives one row x -> x + h per
  shift h, from which ``shift``, ``derivative_rows`` and the derivatives
  elsewhere are read.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import BudgetExceeded, NotBounded, ParseError, SpecMismatch

# Values on the torus R/Z: exact Fraction whenever the input data is exact,
# float otherwise.  All helpers below accept either.
TorusValue = Union[Fraction, float]

BOUNDED_SLACK = 1e-12

DEFAULT_ENUMERATION_BUDGET = 50_000_000


def mod1(t: TorusValue) -> TorusValue:
    """Reduce into [0, 1)."""
    if isinstance(t, Fraction):
        return t - (t.numerator // t.denominator)
    return t - np.floor(t)


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

    # Row-major place values: index = sum_i coord_i * prod_{j>i} n_j.
    @cached_property
    def _weights(self) -> tuple[int, ...]:
        w = []
        acc = 1
        for n in reversed(self.orders):
            w.append(acc)
            acc *= n
        return tuple(reversed(w))

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(c % n for c, n in zip(coords, self.orders, strict=True)))

    def dual(self, coords: Sequence[int]) -> "DualElement":
        return DualElement(self, tuple(c % n for c, n in zip(coords, self.orders, strict=True)))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def dual_zero(self) -> "DualElement":
        return DualElement(self, (0,) * self.rank)

    def index_of(self, coords: Sequence[int]) -> int:
        return sum((c % n) * w for c, n, w in zip(coords, self.orders, self._weights, strict=True))

    def coords_of(self, index: int) -> tuple[int, ...]:
        out = []
        for n, w in zip(self.orders, self._weights):
            out.append((index // w) % n)
        return tuple(out)

    def element_by_index(self, index: int) -> "GroupElement":
        return GroupElement(self, self.coords_of(index))

    def dual_by_index(self, index: int) -> "DualElement":
        return DualElement(self, self.coords_of(index))

    def elements(self) -> Iterator["GroupElement"]:
        for i in range(self.order):
            yield self.element_by_index(i)

    def duals(self) -> Iterator["DualElement"]:
        for i in range(self.order):
            yield self.dual_by_index(i)

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

    # Digit-wise index arithmetic on broadcasting int64 arrays; digit i of an
    # index a is a // w_i % n_i.
    def add_indices(self, a, b) -> np.ndarray:
        """a + b: the sum of the indices, less n_i w_i at every digit i whose
        digit sum reaches n_i (the carry the factor Z/n_i drops)."""
        a = np.asarray(a, dtype=np.int64) % self.order
        b = np.asarray(b, dtype=np.int64) % self.order
        out = np.asarray(a + b)
        for n, w in zip(self.orders, self._weights):
            np.subtract(out, n * w, out=out, where=a // w % n >= n - b // w % n)
        return out

    def neg_indices(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        return sum(-(a // w) % n * w for n, w in zip(self.orders, self._weights))

    def scale_indices(self, c, a) -> np.ndarray:
        """c * a for an integer (or integer array) c, broadcasting."""
        a = np.asarray(a, dtype=np.int64)
        return sum(c * (a // w % n) % n * w for n, w in zip(self.orders, self._weights))

    def coset_points(self, y: int, gens, orders: Sequence[int]) -> np.ndarray:
        """Indices of y + t_1 g_1 + ... + t_k g_k over t in prod range(orders),
        lexicographic with t_1 slowest; ``gens`` are element indices."""
        pts = np.asarray(y, dtype=np.int64).reshape(1)
        for g, o in zip(gens, orders, strict=True):
            steps = self.scale_indices(np.arange(o, dtype=np.int64), g)
            pts = self.add_indices(pts[:, None], steps[None, :]).reshape(-1)
        return pts

    def translates(self, hs) -> np.ndarray:
        """The batched shift: row r lists x + hs[r] for x in index order."""
        hs = np.asarray(hs, dtype=np.int64)
        return self.add_indices(np.arange(self.order, dtype=np.int64)[None, :], hs[:, None])

    def __str__(self) -> str:
        return "x".join(f"Z/{n}" for n in self.orders)


def _check_owner(a, b) -> None:
    if a.owner.orders != b.owner.orders:
        raise SpecMismatch(f"group mismatch: {a.owner} vs {b.owner}")


@dataclass(frozen=True)
class _CoordVector:
    owner: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.owner.rank:
            raise ValueError("coordinate arity mismatch")

    @property
    def index(self) -> int:
        return self.owner.index_of(self.coords)

    def _make(self, coords: Iterable[int]):
        return type(self)(self.owner, tuple(c % n for c, n in zip(coords, self.owner.orders)))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_owner(self, other)
        return self._make(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_owner(self, other)
        return self._make(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return self._make(-c for c in self.coords)

    def __rmul__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return self._make(k * c for c in self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


class GroupElement(_CoordVector):
    """x in G, coordinates reduced mod the factor orders."""


class DualElement(_CoordVector):
    """xi in the Pontryagin dual, same coordinate shape as GroupElement."""


def pair(xi: DualElement, x: GroupElement) -> Fraction:
    """Character pairing xi . x = sum_i xi_i x_i / n_i, exact in [0,1)."""
    if not isinstance(xi, DualElement) or not isinstance(x, GroupElement):
        raise SpecMismatch("pair() wants (DualElement, GroupElement)")
    _check_owner(xi, x)
    total = Fraction(0)
    for a, b, n in zip(xi.coords, x.coords, xi.owner.orders):
        total += Fraction(a * b, n)
    return mod1(total)


@dataclass
class GroupFunction:
    """Dense complex function on a group, row-major over element indices."""

    owner: GroupSpec
    values: np.ndarray
    bounded: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.owner.order,):
            raise ValueError(f"expected {self.owner.order} values, got {self.values.shape}")
        if self.bounded:
            self.check_bounded()

    def check_bounded(self) -> None:
        m = float(np.max(np.abs(self.values))) if self.values.size else 0.0
        if m > 1.0 + BOUNDED_SLACK:
            raise NotBounded(f"max modulus {m} exceeds 1")

    def is_bounded(self) -> bool:
        return bool(np.max(np.abs(self.values)) <= 1.0 + BOUNDED_SLACK)

    def __call__(self, x: GroupElement) -> complex:
        _check_owner(self, x)  # type: ignore[arg-type]
        return complex(self.values[x.index])

    def copy(self) -> "GroupFunction":
        return GroupFunction(self.owner, self.values.copy())

    def conj(self) -> "GroupFunction":
        return GroupFunction(self.owner, np.conj(self.values))

    def __mul__(self, other: "GroupFunction") -> "GroupFunction":
        _check_owner(self, other)  # type: ignore[arg-type]
        return GroupFunction(self.owner, self.values * other.values)

    def mean(self) -> complex:
        return complex(np.mean(self.values))

    @staticmethod
    def from_callable(spec: GroupSpec, fn: Callable[[GroupElement], complex]) -> "GroupFunction":
        vals = np.array([fn(x) for x in spec.elements()], dtype=np.complex128)
        return GroupFunction(spec, vals)

    @staticmethod
    def indicator(spec: GroupSpec, subset: Iterable[int]) -> "GroupFunction":
        vals = np.zeros(spec.order, dtype=np.complex128)
        for i in subset:
            vals[int(i) % spec.order] = 1.0
        return GroupFunction(spec, vals)

    @staticmethod
    def constant(spec: GroupSpec, c: complex) -> "GroupFunction":
        return GroupFunction(spec, np.full(spec.order, c, dtype=np.complex128))


# GroupFunction "owner" attribute lets _check_owner treat it like a vector.


def shift(f: GroupFunction, h: GroupElement) -> GroupFunction:
    """T^h f with T^h f(x) = f(x+h)."""
    _check_owner(f, h)  # type: ignore[arg-type]
    return GroupFunction(f.owner, shift_index(f, h.index))


def shift_index(f: GroupFunction, h_index: int) -> np.ndarray:
    return f.values[f.owner.translates([h_index])[0]]


def derivative_rows(f: GroupFunction, hs) -> np.ndarray:
    """Row r is x -> f(x + hs[r]) * conj(f(x)), one multiplicative derivative
    per shift index."""
    return f.values[f.owner.translates(hs)] * np.conj(f.values)[None, :]


def mult_derivative(f: GroupFunction, h: GroupElement) -> GroupFunction:
    """x -> f(x+h) * conj(f(x)), the multiplicative derivative in direction h."""
    _check_owner(f, h)  # type: ignore[arg-type]
    return GroupFunction(f.owner, derivative_rows(f, [h.index])[0])


def phase_difference(phi: Sequence[TorusValue], h: GroupElement) -> list[TorusValue]:
    """(h.grad) phi with values phi(x+h) - phi(x) mod 1, row-major layout."""
    spec = h.owner
    if len(phi) != spec.order:
        raise SpecMismatch("phase table must cover the whole group")
    idx = spec.translates([h.index])[0]
    return [mod1(phi[int(j)] - phi[i]) for i, j in enumerate(idx)]


def cubes(spec: GroupSpec, d: int, budget: int = DEFAULT_ENUMERATION_BUDGET):
    """All N^(d+1) tuples (x, h1..hd) in deterministic row-major order."""
    if d not in (1, 2, 3, 4):
        raise ValueError("cube dimension must be 1..4")
    total = spec.order ** (d + 1)
    if total > budget:
        raise BudgetExceeded(f"{total} cube tuples exceed budget {budget}")

    def gen():
        import itertools

        rng = range(spec.order)
        for tup in itertools.product(rng, repeat=d + 1):
            yield tuple(spec.element_by_index(i) for i in tup)

    return gen()


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
    spec = parse_group(obj["group"])
    vals = np.array([complex(re_, im) for re_, im in obj["values"]], dtype=np.complex128)
    return GroupFunction(spec, vals)


def load_function(path: str) -> GroupFunction:
    with open(path) as fh:
        return function_from_json(json.load(fh))
