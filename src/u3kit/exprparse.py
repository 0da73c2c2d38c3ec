"""Tiny expression grammar for constructing functions on Z/N from the CLI.

  expr   := term (('+'|'-') term)*
  term   := factor ('*' factor)*
  factor := number | 'e' '(' poly '/' int ')' | 'ind' '{' ints '}' | '(' expr ')'
  poly   := polynomial in x with integer coefficients (sums of c*x^k terms)

e(P/Q) evaluates the polynomial exactly mod Q per residue; ind{...} is an
indicator of row-major element indices (the only form valid on product
groups).  Coefficients, exponents, indices and Q are unsigned integers that
the grammar does not bound, except that Q must be at least 1 and that a
number past Python's limit on the digits of an integer conversion (4300 by
default) is a ParseError: a term c*x^k is held as k -> c whatever k, and
x^k mod Q is taken by repeated squaring, in int64 while Q < 2^31 and in
Python integers from there on, where a product of two residues could pass
2^63.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ParseError
from .groups import GroupFunction, GroupSpec

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<name>e|ind|x)|(?P<op>[-+*/^(){},]))"
)


class _Tokens:
    def __init__(self, s: str):
        self.s = s
        self.pos = 0
        self.toks: list[tuple[str, str, int]] = []
        while self.pos < len(s):
            m = _TOKEN.match(s, self.pos)
            if not m or m.end() == self.pos:
                raise ParseError("unexpected character", self.pos)
            kind = next(k for k in ("num", "name", "op") if m.group(k) is not None)
            self.toks.append((kind, m.group(kind), m.start(kind)))
            self.pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("end", "", len(self.s))

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, value: str):
        kind, v, pos = self.next()
        if v != value:
            raise ParseError(f"expected {value!r}, found {v!r}", pos)


def _integer(v: str, pos: int, what: str) -> int:
    """The integer that a number token spells; a token past Python's limit
    on the digits of an integer string conversion (4300 by default) is a
    ParseError, not a ValueError."""
    try:
        return int(v)
    except ValueError:
        raise ParseError(f"{what} has {len(v)} digits, more than Python converts to an integer", pos) from None


def _parse_poly(tk: _Tokens) -> dict[int, int]:
    """Integer-coefficient polynomial in x as its terms {exponent: coefficient}."""
    terms: dict[int, int] = {}
    sign = 1
    kind, v, pos = tk.peek()
    if v in ("+", "-"):
        sign = -1 if v == "-" else 1
        tk.next()
    while True:
        c, k = 1, 0
        kind, v, pos = tk.peek()
        if kind == "num":
            if "." in v:
                raise ParseError("polynomial coefficients must be integers", pos)
            c = _integer(v, pos, "coefficient")
            tk.next()
            if tk.peek()[1] == "*":
                tk.next()
                kind, v, pos = tk.peek()
                if v != "x":
                    raise ParseError("expected x after coefficient", pos)
        kind, v, pos = tk.peek()
        if v == "x":
            tk.next()
            k = 1
            if tk.peek()[1] == "^":
                tk.next()
                kind, v, pos = tk.next()
                if kind != "num" or "." in v:
                    raise ParseError("integer exponent expected", pos)
                k = _integer(v, pos, "exponent")
        terms[k] = terms.get(k, 0) + sign * c
        kind, v, pos = tk.peek()
        if v == "+":
            sign = 1
            tk.next()
        elif v == "-":
            sign = -1
            tk.next()
        else:
            return terms


def _eval_poly_mod(terms: dict[int, int], N: int, Q: int) -> np.ndarray:
    """sum_k c_k x^k mod Q for x = 0..N-1, each x^k by repeated squaring;
    on Python integers once Q >= 2^31, where a product of two residues could
    pass 2^63."""
    dtype = object if Q >= 2**31 else np.int64
    xs = np.arange(N, dtype=np.int64).astype(dtype) % Q
    acc = np.zeros(N, dtype=dtype)
    for k, c in terms.items():
        power, base = np.ones(N, dtype=dtype), xs
        while k:
            if k & 1:
                power = power * base % Q
            base = base * base % Q
            k >>= 1
        acc = (acc + c % Q * power) % Q
    return acc


def _parse_factor(tk: _Tokens, spec: GroupSpec) -> np.ndarray:
    kind, v, pos = tk.next()
    if kind == "num":
        return np.full(spec.order, float(v), dtype=np.complex128)
    if v == "(":
        out = _parse_expr(tk, spec)
        tk.expect(")")
        return out
    if v == "e":
        if spec.rank != 1:
            raise ParseError("polynomial phases require a cyclic group", pos)
        tk.expect("(")
        wrapped = tk.peek()[1] == "("
        if wrapped:
            tk.next()
        terms = _parse_poly(tk)
        if wrapped:
            tk.expect(")")
        tk.expect("/")
        kind, q, qpos = tk.next()
        if kind != "num" or "." in q:
            raise ParseError("integer denominator expected", qpos)
        Q = _integer(q, qpos, "denominator")
        if Q < 1:
            raise ParseError("denominator must be at least 1", qpos)
        tk.expect(")")
        r = _eval_poly_mod(terms, spec.order, Q)
        if r.dtype == object:  # Python integers: r / Q rounds once, for Q of any size
            return np.exp(2j * np.pi * (r / Q).astype(np.float64))
        return np.exp(2j * np.pi * r / Q)
    if v == "ind":
        tk.expect("{")
        idx = []
        while True:
            kind, t, tpos = tk.next()
            if kind != "num" or "." in t:
                raise ParseError("integer index expected", tpos)
            idx.append(_integer(t, tpos, "index"))
            kind, t, tpos = tk.next()
            if t == "}":
                break
            if t != ",":
                raise ParseError("expected ',' or '}'", tpos)
        vals = np.zeros(spec.order, dtype=np.complex128)
        for i in idx:
            vals[i % spec.order] = 1.0
        return vals
    raise ParseError(f"unexpected token {v!r}", pos)


def _parse_term(tk: _Tokens, spec: GroupSpec) -> np.ndarray:
    out = _parse_factor(tk, spec)
    while tk.peek()[1] == "*":
        tk.next()
        out = out * _parse_factor(tk, spec)
    return out


def _parse_expr(tk: _Tokens, spec: GroupSpec) -> np.ndarray:
    out = _parse_term(tk, spec)
    while tk.peek()[1] in ("+", "-"):
        op = tk.next()[1]
        rhs = _parse_term(tk, spec)
        out = out + rhs if op == "+" else out - rhs
    return out


def parse_expr(s: str, spec: GroupSpec) -> GroupFunction:
    tk = _Tokens(s)
    vals = _parse_expr(tk, spec)
    if tk.peek()[0] != "end":
        raise ParseError("trailing input", tk.peek()[2])
    return GroupFunction(spec, vals)
