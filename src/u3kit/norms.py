"""Gowers uniformity norms U^d and local quadratic-bias oracles u^d.

The direct method averages the conjugation-twisted product of f over all
combinatorial cubes; the recursive method peels one derivative at a time,
with U^2 evaluated through the fourth-moment identity on the Fourier side,
U^2(f)^4 = sum_xi |fhat(xi)|^4.  Both agree to high precision and the direct
method serves as the oracle at small N.

The recursive U^2, U^3 and U^4 kernels send every row through one
fourth-moment kernel, `_weighted_u2_pow4` (U^2 is the single row f), and
transform only the derivative rows whose U^2 value is not already known, by
three exact identities:

* U^3(f)^8 = E_h U^2(Delta_h f)^4 and U^4(f)^16 = E_{h,k} U^2(Delta_k
  Delta_h f)^4, with Delta_h f(x) = f(x+h) conj f(x).
* Pair h with -h.  Delta_{-h} f(x) = conj Delta_h f(x-h), and U^2 is
  invariant under shifts and conjugation, so one row per class {h, -h}
  counts with weight 2 (weight 1 when h = -h).  Applied to each of h and k,
  and to the swap (Delta_k Delta_h = Delta_h Delta_k), U^4 takes one row per
  pair of classes i <= j, with weight |class i| |class j| (times 2 when
  i != j): about N^2/8 rows instead of N^2.
* Skip identically zero rows.  Delta_h f vanishes unless h is in
  supp f - supp f (Delta_k Delta_h f likewise needs all four corners in
  supp f), and a zero row has U^2 exactly 0, so dropping it changes no term
  of the sum.  Rows are computed on supp f only (both derivatives vanish
  wherever f does) and tested for zero before the transform; no threshold
  is involved.

Every row vanishes off supp f, so it is transformed on a support window
W instead of on G.  On each axis of order n, take the shortest arc
[s, s + L) holding the coordinates of supp f, and let P be the least
2^a 3^b 5^c >= 2L - 1; when P < n the axis becomes Z/P, with coordinate c
at c - s mod n, and otherwise it stays Z/n.  This is exact up to rounding:
with r_g(a) = sum_x g(x + a) conj g(x) the autocorrelation of a row g,

  sum_xi |ghat(xi)|^4 = |G|^-3 sum_a |r_g(a)|^2,

and on an axis where 2L - 1 <= P < n the differences of the arc, in
(-L, L), are distinct both mod n and mod P, so r_g takes the same values on
G and on W.  Hence U^2(g)^4 on G is (|W|/|G|)^3 times U^2 of the windowed
row on W.  fw(4001) lies in an arc of 769 points, so its rows have length
1600 instead of 4001; a function on F5^3 supported on a coset of
{0} x F5^2 is transformed on Z/1 x F5^2; a full axis, or an arc longer than
about n/2, keeps its length.

Rows go through the transform in batches of ``_H_CHUNK`` or more, built
block by block, so memory stays O(_H_CHUNK |W|).  The transform is the
blocked `fourier.dft_values`: runs of short axes (order product at most
`fourier._DENSE_BLOCK`) are one matrix product each with a dense character
table, each longer axis is an FFT, and each product leaves its block
rotated to the front, so no block is copied; F5^5 takes three dense
products and fw(4001) one FFT of length 1600 per row.  Only rounding
changes: the row of h stands in for that of -h, the window's transform
replaces G's, and the sum runs in another order, which moves a result by a
few ulps.

The direct method sums over blocks of x, so it holds O(N^d) cubes at a time.

The u^3 oracles search explicit families of quadratic phases: an exact scan
over M x.x + xi.x on cosets of odd subgroups (the complete family there),
and a grid scan over bracket quadratics on regions of Z/N (a certified lower
bound; bracket quadratics on Bohr sets admit no complete parametrization).

One separable kernel, `quadratic_scan`, is the only exact scan: the coset
oracle and the exhaustive `experiments.quadratic_correlation_scan` both
call it.  On a coset of an F_p-subspace of dimension k, in local
coordinates t, and with w = e(-1/p) and C symmetric,

  sum_t g(t) w^(t.Ct + xi.t)
    = sum_t [g(t) w^(sum_{i<j} 2 c_ij t_i t_j)] prod_i w^(c_ii t_i^2 + xi_i t_i),

and the product factors over the axes, so for each off-diagonal vector
(c_ij)_{i<j} the sums for all p^(2k) values of (c_ii, xi_i)_i are k
applications of one p^2 x p map D[(c, xi), s] = w^(c s^2 + xi s), one
along each axis.  This is the same finite sum regrouped, so it is exact up
to rounding (about 1e-16 against the direct scan); only the p^(k(k-1)/2)
off-diagonal vectors are enumerated, in chunks of _ORACLE_CHUNK outputs.
A chunk is sized for the cache, not for the memory budget: each chunk
passes through several complex temporaries of its own size, and 2^17
outputs (2 MiB of complex128, the per-core L2 of the Xeon below) keep
them there.  A whole-group scan that evaluates every state (before the
cut below), median of 15 to 61 calls on a 2-core Xeon, every value and
witness identical (chunk: F5^3, F3^4):
2,000,000: 37-43 ms, 101-109 ms; 400,000: 18-30 ms, 68-76 ms;
131,072: 16-21 ms, 54-58 ms; 65,536: 21 ms, 51 ms.  On F5^3 the 2M chunk
is one block of 1.95M outputs (tracemalloc peak 62.5 MB) and 2^17 is 25
blocks of 78,125 (3.1 MB).
A cyclic group Z/h is the case k = 1 with p = h, for any modulus h: one
state, so nothing to cut, and `_cyclic_scan` makes the rows a without D,
which would cost more than the one transform it serves (whole scan at
h = 49, median of 9 on a 2-core Xeon: 8.0 ms with D, 0.13 ms without).

The last axis is cut by the triangle inequality.  A state is one
off-diagonal vector with (c_ii, xi_i) for every axis i >= 1; with h(s), s
in Z/p, its partial sums after axes k-1, ..., 1, each of its p^2 outputs
|sum_s h(s) w^(c s^2 + xi s)|^2 is at most B = (sum_s |h(s)|)^2.
A first pass computes every B chunk by chunk and keeps each chunk's
largest and smallest; the top states of the _SEEDS chunks with the largest
B are evaluated in full, and their maximum seeds `best`.  The second pass
visits the chunks in decreasing order of their largest B, redoes their
partial transforms, evaluates the last axis only on the states with
B >= best (1 - _TIE_RTOL)(1 - _BOUND_SLACK) (the whole chunk when its
smallest B passes), raises best as it goes, and stops at the first chunk
whose largest B is below that cut.  Skipped entries read -1, below any
threshold.  Why the result cannot change: an entry within the final tie
band is at least best (1 - _TIE_RTOL) for every best seen on the way, and
its B is at least the entry, up to the rounding of two sums over the same
h (about 1e-15 relative), so its state passes the cut; the maximum and the
lex-first witness are therefore those of the full scan, and only rounding
can move.  _BOUND_SLACK = 1e-9 is a fixed margin far above that rounding.
At worst every B reaches the maximum and nothing is skipped: the zero
function and a point mass (every entry ties) pay the partial transforms
twice.  A constant f is not a worst case: its partial sums are Gauss
sums, every state but that of C = 0, xi = 0 has B <= m^2 / p, and the cut
keeps that one.  A planted F5^3 phase evaluates the last axis on 5 of its
78,125 states (the 4 seeds and 1 in the second pass).

D is stored as a dense matrix only when p^3 <= _ORACLE_CHUNK, where one
matrix is reused across the k axes and all the chunks; otherwise an axis
goes through the chirp w^(c s^2) and a length-p FFT in s.

The bracket oracle regroups the same way.  With brackets b_i(x) = {xi_i x/N}
on the region, a coefficient tuple splits into its quadratic part q (the
coefficients of b_i b_j, i <= j) and its linear part l (those of b_i):

  sum_x f(x) e(-Q_q(x) - L_l(x)) = sum_x [f(x) e(-Q_q(x))] e(-L_l(x))
                                 = (EQ @ EL^T)[q, l],

so nq + nl rows of exponentials (nq = nv^#pairs, nl = nv^|S|, nv grid
values per coefficient) and one matrix product replace one exponential per
tuple and point, and the flat index q nl + l is the lex rank of the tuple.
EQ is built in blocks of q rows (EL too, when it does not fit one block),
so no table or product block holds more than _BRACKET_BLOCK entries (or one
row of the region); the nq x nl matrix is never held.

Every oracle breaks ties by one rule: the witness is the lexicographically
smallest parameter vector whose |correlation|^2 is within a relative
_TIE_RTOL = 1e-12 of the maximum, so exact ties (zero, constant, one point)
do not depend on rounding.  Each block is reduced to its maximum, and to
its lex-first candidate when that maximum is within the tie band of the
running maximum; only blocks near the overall maximum are looked at again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DegreeUnsupported,
    EvenOrder,
    NotBounded,
    NotPrime,
    SpecMismatch,
    TooSmall,
)
from .fourier import dft, dft_values
from .groups import DualElement, GroupElement, GroupFunction, GroupSpec
from .modlinalg import BoxSubgroup, PrimeSubspace, Subgroup, is_prime
from .quadratic import BracketQuadratic, bracket_table

DIRECT_BUDGET = 30_000_000
ORACLE_BUDGET = 2_000_000_000
_H_CHUNK = 128
_DIRECT_BLOCK = 1 << 18  # cubes per block of the direct method
# |correlation|^2 values per chunk of the exact scan: 2^17 complex128 values
# are 2 MiB, so a chunk's temporaries stay in a core's L2 (module docstring)
_ORACLE_CHUNK = 1 << 17
_TIE_RTOL = 1e-12  # oracle entries this close to the maximum tie
# relative margin of the exact scan's bound against its entries: far above
# their rounding (about 1e-15), far below any gap the cut exploits
_BOUND_SLACK = 1e-9
_SEEDS = 4  # states of the exact scan evaluated first, to set its cut
_BRACKET_BLOCK = 1 << 20  # entries per table and per product block of the bracket oracle


def _first_in_band(sq: np.ndarray, thr=None) -> np.ndarray:
    """The tie rule of every float witness pick: per row of sq (squared
    magnitudes along the last axis), the first index whose entry is at least
    (1 - _TIE_RTOL) thr, thr defaulting to the row maximum.  Exact ties, such
    as |F(xi)| = |F(-xi)| on a real row, then go to the lex-first entry
    however the transform rounds them."""
    if thr is None:
        thr = sq.max(axis=-1, keepdims=True)
    return np.argmax(sq >= thr * (1 - _TIE_RTOL), axis=-1)


@dataclass
class NormReport:
    value: float
    d: int
    method: str
    witness: object | None = None

    def to_json(self) -> dict:
        out = {"value": self.value, "d": self.d, "method": self.method}
        if self.witness is not None:
            w = self.witness
            out["witness"] = w.to_json() if hasattr(w, "to_json") else str(w)
        return out


def _check_bounded(f: GroupFunction, unchecked: bool) -> None:
    if not unchecked and not f.is_bounded():
        raise NotBounded("function exceeds the unit disk; pass unchecked=True to override")


def _u2_pow4_batch(spec: GroupSpec, rows: np.ndarray) -> np.ndarray:
    """U^2(g)^4 = sum_xi |ghat(xi)|^4 for a batch of value rows."""
    F = dft_values(spec, rows)
    mag2 = F.real**2 + F.imag**2
    return np.sum(mag2 * mag2, axis=-1)


def _fast_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, for n >= 1."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of 2 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _support_window(spec: GroupSpec, supp: np.ndarray) -> tuple[GroupSpec, np.ndarray]:
    """The group on which the fourth moments of rows that vanish off supp are
    computed, and the indices of supp in it (module docstring).  On each axis
    of order n, the shortest arc [s, s + L) holding supp's coordinates becomes
    Z/P with P = _fast_length(2L - 1), coordinate c going to c - s mod n, when
    P < n; otherwise the axis stays as it is."""
    if len(supp) in (0, spec.order):  # nothing to transform, or every arc is a whole axis
        return spec, supp
    coords = spec.decode(supp)
    orders, starts = [], []
    for a, n in enumerate(spec.orders):
        c = np.unique(coords[:, a])
        gaps = np.diff(c, append=c[0] + n)  # from each coordinate to the next, cyclically
        i = int(np.argmax(gaps))
        P = _fast_length(2 * (n - int(gaps[i])) + 1)  # 2L - 1 with L = n - gap + 1
        orders.append(min(P, n))
        starts.append(int(c[(i + 1) % len(c)]) if P < n else 0)
    if tuple(orders) == spec.orders:
        return spec, supp
    window = GroupSpec(tuple(orders))
    return window, window.encode((coords - starts) % spec.orders)


def _neg_classes(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """The least element h <= -h of each class {h, -h}, ascending, and the
    class size: 1 when h = -h, else 2."""
    h = np.arange(spec.order, dtype=np.int64)
    neg = spec.neg_indices(h)
    reps = h[h <= neg]
    return reps, np.where(neg[reps] == reps, 1.0, 2.0)


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _nonzero_batches(blocks):
    """Regroup (values, weights) blocks into batches of at least _H_CHUNK rows
    (the last may be smaller), dropping the rows that are identically zero."""
    vals, ws, n = [], [], 0
    for v, w in blocks:
        keep = np.any(v, axis=1)
        if not keep.all():
            v, w = v[keep], w[keep]
        vals.append(v)
        ws.append(w)
        n += len(v)
        if n >= _H_CHUNK:
            yield _joined(vals), _joined(ws)
            vals, ws, n = [], [], 0
    if n:
        yield _joined(vals), _joined(ws)


def _weighted_u2_pow4(spec: GroupSpec, supp: np.ndarray, blocks) -> float:
    """sum w * U^2(g)^4 over rows g that vanish off supp, given as blocks of
    (values on supp, weights), each row transformed on the support window."""
    window, at = _support_window(spec, supp)
    total = 0.0
    for rows, w in _nonzero_batches(blocks):
        if len(at) < window.order:  # a window that supp fills is G, or G with 1-point axes
            rows, on_supp = np.zeros((len(rows), window.order), dtype=np.complex128), rows
            rows[:, at] = on_supp
        total += float(w @ _u2_pow4_batch(window, rows))
    return (window.order / spec.order) ** 3 * total


def _u3_pow8(f: GroupFunction) -> float:
    """U^3(f)^8 = N^-1 sum_h U^2(Delta_h f)^4, one row per class {h, -h}."""
    spec, vals = f.owner, f.values
    supp = np.flatnonzero(vals)
    conj_supp = np.conj(vals[supp])
    reps, weights = _neg_classes(spec)

    def blocks():
        for start in range(0, len(reps), _H_CHUNK):
            hs = reps[start : start + _H_CHUNK, None]
            yield (vals[spec.add_indices(supp[None, :], hs)] * conj_supp,
                   weights[start : start + _H_CHUNK])

    return _weighted_u2_pow4(spec, supp, blocks()) / spec.order


def _u4_pow16(f: GroupFunction) -> float:
    """U^4(f)^16 = N^-2 sum_{h,k} U^2(Delta_k Delta_h f)^4, one row per pair
    of classes i <= j of {h, -h} and {k, -k}."""
    spec, vals = f.owner, f.values
    supp = np.flatnonzero(vals)
    conj_supp = np.conj(vals[supp])
    reps, weights = _neg_classes(spec)
    # pairs (i, j), i <= j, in row-major order; row i starts at pair first[i]
    first = np.concatenate(([0], np.cumsum(np.arange(len(reps), 0, -1))))

    def blocks():
        for t0 in range(0, int(first[-1]), _H_CHUNK):
            t = np.arange(t0, min(t0 + _H_CHUNK, int(first[-1])))
            i = np.searchsorted(first, t, side="right") - 1
            j = i + t - first[i]
            xh = spec.add_indices(supp[None, :], reps[i, None])
            xk = spec.add_indices(supp[None, :], reps[j, None])
            dh = vals[xh] * conj_supp  # Delta_h f(x)
            dh_k = vals[spec.add_indices(xh, reps[j, None])] * np.conj(vals[xk])  # Delta_h f(x+k)
            yield dh_k * np.conj(dh), weights[i] * weights[j] * np.where(i == j, 1.0, 2.0)

    return _weighted_u2_pow4(spec, supp, blocks()) / spec.order**2


def _gowers_recursive(f: GroupFunction, d: int) -> float:
    spec = f.owner
    if d == 1:
        return abs(complex(np.mean(f.values)))
    if d == 2:
        supp = np.flatnonzero(f.values)
        p4 = _weighted_u2_pow4(spec, supp, [(f.values[None, supp], np.ones(1))])
        return max(p4, 0.0) ** 0.25
    if d == 3:
        return max(_u3_pow8(f), 0.0) ** 0.125
    return max(_u4_pow16(f), 0.0) ** 0.0625


def _gowers_direct(f: GroupFunction, d: int) -> float:
    spec = f.owner
    N = spec.order
    if N ** (d + 1) > DIRECT_BUDGET:
        raise BudgetExceeded(
            f"direct method needs N^{d + 1} = {N ** (d + 1)} > budget {DIRECT_BUDGET}"
        )
    vals = f.values
    # h_t varies along axis t + 1; x along axis 0, a block of x at a time
    hs = [np.arange(N).reshape((1,) * (t + 1) + (N,) + (1,) * (d - 1 - t)) for t in range(d)]
    block = max(1, _DIRECT_BLOCK // N**d)
    total = 0j
    for x0 in range(0, N, block):
        x = np.arange(x0, min(N, x0 + block)).reshape((-1,) + (1,) * d)
        acc = np.ones((len(x),) + (N,) * d, dtype=np.complex128)
        for omega in itertools.product((0, 1), repeat=d):
            idx = x
            for t, w in enumerate(omega):
                if w:
                    idx = spec.add_indices(idx, hs[t])
            v = vals[idx]
            acc *= np.conj(v, out=v) if sum(omega) % 2 else v
        total += complex(acc.sum())
    mean = total / N ** (d + 1)
    return max(mean.real, 0.0) ** (1.0 / 2**d)


def gowers_norm(
    f: GroupFunction,
    d: int,
    method: str = "recursive",
    unchecked: bool = False,
) -> NormReport:
    """The U^d norm of f for d = 1..4.

    method "direct" enumerates all cubes (N^(d+1) work, at most
    DIRECT_BUDGET);
    "recursive", the default, averages lower-degree norms of multiplicative
    derivatives with the Fourier identity at degree 2.
    """
    if d not in (1, 2, 3, 4):
        raise DegreeUnsupported(f"U^{d} not supported (d must be 1..4)")
    _check_bounded(f, unchecked)
    if method == "direct":
        return NormReport(_gowers_direct(f, d), d, "direct")
    if method == "recursive":
        return NormReport(_gowers_recursive(f, d), d, "recursive")
    raise ValueError(f"unknown method {method!r}")


def u2_bias(f: GroupFunction) -> NormReport:
    """u^2 bias = max_xi |fhat(xi)|, witness the linear phase of the smallest
    dual index whose |fhat|^2 is within a relative _TIE_RTOL of the maximum."""
    mags = np.abs(dft(f).values)
    k = int(_first_in_band(mags * mags))
    return NormReport(float(mags[k]), 2, "fourier", witness=f.owner.dual_by_index(k))


# --- exact u^3 oracle on cosets ----------------------------------------------


@dataclass
class CosetQuadraticWitness:
    """A quadratic phase on a coset y+H in local coordinates: for x = y +
    embed(t), phi(x) = (t.A t)/o + (b.t)/o with o the (common) local order.

    Only the modulus of the correlation is reported, so the constant term is
    dropped.
    """

    y: GroupElement
    subgroup: Subgroup
    A: tuple[tuple[int, ...], ...]  # symmetric, local coords
    b: tuple[int, ...]

    def to_json(self) -> dict:
        return {"y": list(self.y.coords), "A": [list(r) for r in self.A], "b": list(self.b)}


def _base_p_digits(n: np.ndarray, p: int, width: int) -> np.ndarray:
    """Base-p digits of each n, most significant first: shape n.shape + (width,)."""
    return (n[..., None] // p ** np.arange(width - 1, -1, -1, dtype=np.int64)) % p


def _along_axis(g: np.ndarray, D: np.ndarray | None, omega: np.ndarray) -> np.ndarray:
    """(B, p, r) -> (B, p^2, r): the middle axis s becomes rows (c, xi) of
    sum_s g[s] w^(c s^2 + xi s), w = omega[1], by the dense map D or, when D
    is None, by the chirp w^(c s^2) and a length-p FFT in s."""
    if D is not None:
        # one column (the first axis): one 2-D product in place of B
        # matrix-vector products, 2-3x faster at B = 125 and 243 (one BLAS thread)
        return (g[:, :, 0] @ D.T)[:, :, None] if g.shape[2] == 1 else np.matmul(D, g)
    s = np.arange(len(omega), dtype=np.int64)
    h = omega[(s[:, None] * s * s) % len(omega)][:, :, None] * g[:, None]
    return np.fft.fft(h, axis=2).reshape(len(g), -1, g.shape[-1])


def _last_axis(h: np.ndarray, D: np.ndarray | None, omega: np.ndarray) -> np.ndarray:
    """|.|^2 of the last axis for the B r states h[b, :, r]: (B, p, r) ->
    (B, p^2, r).  Every state the scan evaluates passes through here."""
    out = _along_axis(h, D, omega)
    sq = np.square(out.real)
    sq += np.square(out.imag)
    return sq


def quadratic_scan(fvals: np.ndarray, p: int, k: int) -> tuple[float, tuple[int, ...]]:
    """max over symmetric C and xi of |sum_t g(t) w^(t.Ct + xi.t)|^2, w =
    e(-1/p), for g = fvals on (Z/p)^k in lex order, and the argmax as
    (c_00, c_01, ..., c_kk, xi_0, ..., xi_{k-1}): the lex-smallest key whose
    entry is within a relative _TIE_RTOL of the maximum, so exact ties do
    not depend on rounding.

    p is prime for k > 1; with k = 1 it may be any modulus h, even or
    composite, and the key is (a, b) for the phase a t^2 + b t (see the
    module docstring for the separable identity).

    The last axis (t_0) runs only on states whose triangle-inequality bound
    reaches the tie band of the best entry found so far, which keeps the
    value and the witness those of the full scan (module docstring)."""
    if k == 1:  # one state: nothing to cut
        return _cyclic_scan(fvals)
    m = p**k
    s = np.arange(p, dtype=np.int64)
    omega = np.exp(-2j * np.pi * s / p)
    # D[(c, xi), s] = w^(c s^2 + xi s), rows in lex order.  One product with D
    # takes half the time of p chirps and length-p FFTs on F5^3, but D has p^3
    # entries and pays off only when reused across axes and chunks
    dense = p**3 <= _ORACLE_CHUNK
    D = omega[(s[:, None, None] * s * s + s[:, None] * s) % p].reshape(-1, p) if dense else None

    off = [(i, j) for i in range(k) for j in range(i + 1, k)]
    t = _base_p_digits(np.arange(m), p, k)
    P = np.array([2 * t[:, i] * t[:, j] % p for i, j in off], dtype=np.int64).reshape(-1, m)
    # A chunk is a box of p^jv off-diagonal vectors (the trailing jv digits
    # vary), with p^(2k) outputs each: at most _ORACLE_CHUNK outputs, or one
    # vector's when that is more (never within ORACLE_BUDGET).
    jv = 0
    while jv < len(off) and p ** (jv + 1 + 2 * k) <= _ORACLE_CHUNK:
        jv += 1
    nb = p**jv

    # Axes of a chunk: trailing off-diagonal digits, then (c_ii, xi_i) for each
    # i; lex order of the key names them ("o", n), ("c", i), ("x", i).
    names = [("o", n) for n in range(len(off) - jv, len(off))]
    names += [(kind, i) for i in range(k) for kind in ("c", "x")]
    lex = [("c", i) if i == j else ("o", off.index((i, j))) for i in range(k) for j in range(i, k)]
    lex += [("x", i) for i in range(k)]
    varying = [a for a in lex if a in names]
    perm = [names.index(a) for a in varying]

    def partial(v0: int) -> np.ndarray:
        """The states of the off-diagonal vectors v0, ..., v0 + nb - 1 after
        axes k-1, ..., 1: (nb, p, r), t_0 in the middle."""
        odig = _base_p_digits(v0 + np.arange(nb), p, len(off))
        g = fvals * omega[(odig @ P) % p]  # (nb, m): off-diagonal phase applied
        done = 1  # size of the transformed trailing block
        for _ in range(k - 1):
            g = _along_axis(g.reshape(-1, p, done), D, omega)
            done *= p * p
        return g.reshape(nb, p, done)

    def bounds(h: np.ndarray) -> np.ndarray:
        return np.square(np.abs(h).sum(axis=1))

    # first pass: (largest bound, smallest bound, v0, top state) per chunk
    chunks = []
    for v0 in range(0, p ** len(off), nb):
        h = partial(v0)
        b = bounds(h)
        i, j = np.unravel_index(int(np.argmax(b)), b.shape)
        chunks.append((float(b[i, j]), float(b.min()), v0, h[i, :, j].copy()))
    chunks.sort(key=lambda c: -c[0])
    # the largest entry so far, seeded by the top states of the first chunks
    best = float(_last_axis(np.stack([c[3] for c in chunks[:_SEEDS]], axis=1)[None], D, omega).max())

    def cut() -> float:
        return best * (1 - _TIE_RTOL) * (1 - _BOUND_SLACK)

    def chunk_sq(c: tuple) -> np.ndarray:
        """|.|^2 for chunk c, axes in lex order of the key; entries of states
        below the cut are -1."""
        nonlocal best
        h = partial(c[2])
        if c[1] >= cut():  # every state reaches the cut
            sq = _last_axis(h, D, omega)
        else:
            sq = np.full((nb, p * p, h.shape[2]), -1.0)
            i, j = np.nonzero(bounds(h) >= cut())
            sq[i, :, j] = _last_axis(h[i, :, j].T[None], D, omega)[0].T
        best = max(best, float(sq.max()))
        return sq.reshape((p,) * (jv + 2 * k)).transpose(perm)

    def key_of(c: tuple, at: int) -> tuple[int, ...]:
        digit = {("o", n): dn for n, dn in enumerate(_base_p_digits(np.asarray(c[2]), p, len(off)))}
        digit.update(zip(varying, np.unravel_index(at, (p,) * len(varying))))
        return tuple(int(digit[a]) for a in lex)

    def visits():
        """The chunks in decreasing order of their largest bound, up to the
        first one below the cut."""
        for c in chunks:
            if c[0] < cut():
                return
            yield c

    return _lex_first_max(visits(), chunk_sq, key_of)


def _cyclic_scan(fvals: np.ndarray, pairs: np.ndarray | None = None):
    """`quadratic_scan` at k = 1, h = len(fvals), over all h^2 pairs (a, b),
    or over the (n, 2) array `pairs` and the row a = 0 (a sampled scan).  A
    row is the chirp w^(a t^2) times g and one length-h FFT, in blocks of at
    most _ORACLE_CHUNK entries or one row (Z/4001 peaks at 5 MB), entries not
    asked for reading -1; a row with at most log2(h) / 2 distinct pairs asked
    for is summed pair by pair (an FFT row costs 4 pairs at h = 4096, 23 at
    h = 100003)."""
    h = len(fvals)
    t = np.arange(h, dtype=np.int64)
    omega, t2 = np.exp(-2j * np.pi * t / h), t * t % h
    rows, keys, single = t, None, np.empty((0, 2), dtype=np.int64)
    if pairs is not None:  # keys a h + b, ascending
        keys = np.union1d(pairs[:, 0] * h + pairs[:, 1], t)
        by_fft = 2 * np.bincount(keys // h, minlength=h) > np.log2(h)
        rows, by_row = np.flatnonzero(by_fft), by_fft[keys // h]
        keys, single = keys[by_row], np.stack(np.divmod(keys[~by_row], h), axis=1)
    na = max(1, _ORACLE_CHUNK // h)

    def block_sq(blk: tuple[int, bool]) -> np.ndarray:
        r0, by_pair = blk
        if by_pair:  # in place: fresh temporaries cost 3x at h = 100003
            e = single[r0 : r0 + na, :1] * t2
            e += single[r0 : r0 + na, 1:] * t
            e %= h
            out = omega[e] @ fvals
        else:
            a = rows[r0 : r0 + na]
            out = np.fft.fft(omega[a[:, None] * t2 % h] * fvals, axis=1)
        sq = np.square(out.real)
        sq += np.square(out.imag)
        if keys is not None and not by_pair:
            lo, hi = np.searchsorted(keys, [a[0] * h, (a[-1] + 1) * h])
            off = np.ones(sq.shape, dtype=bool)
            off[np.searchsorted(a, keys[lo:hi] // h), keys[lo:hi] % h] = False
            sq[off] = -1.0
        return sq

    def key_of(blk: tuple[int, bool], at: int) -> tuple[int, int]:
        r0, by_pair = blk
        a, b = single[r0 + at] if by_pair else (rows[r0 + at // h], at % h)
        return int(a), int(b)

    blocks = [(r0, False) for r0 in range(0, len(rows), na)]
    return _lex_first_max(blocks + [(r0, True) for r0 in range(0, len(single), na)], block_sq, key_of)


def _lex_first_max(blocks, block_sq, key_of):
    """The largest |correlation|^2 over all blocks, and the lex-smallest key
    whose entry is within a relative _TIE_RTOL of it.  block_sq(b) gives the
    entries of block b with its row-major order the lex order of their keys;
    key_of(b, i) is the key of the i-th of them."""

    def first(b, sq: np.ndarray, top: float):
        # under wide ties (zero f, a point mass) the block's first entry is in
        # the band, and the comparison over the whole block is skipped
        at = 0 if sq.flat[0] >= top * (1 - _TIE_RTOL) else int(_first_in_band(sq.reshape(-1), top))
        return key_of(b, at), float(sq.flat[at])

    records, best = [], 0.0
    for b in blocks:
        sq = block_sq(b)
        top = float(sq.max())
        best = max(best, top)
        # a block below the running maximum's tie band is below the final
        # threshold too, so its candidate is never needed
        if top >= best * (1 - _TIE_RTOL):
            records.append((top, b) + first(b, sq, top))
    thr = best * (1 - _TIE_RTOL)
    # a block's candidate was chosen against its own maximum; when the global
    # threshold excludes it, look again in that block (rare near-ties only)
    key = min(
        cand if val >= thr else first(b, block_sq(b), best)[0]
        for top, b, cand, val in records
        if top >= thr
    )
    return best, key


def u3_oracle_coset(
    f: GroupFunction,
    coset: tuple[GroupElement, Subgroup],
) -> NormReport:
    """Exact u^3 bias on a coset y+H of odd order: the maximum over all
    quadratic phases M t.t + xi.t (constant dropped) of |E_{x in y+H} f(x)
    e(-phi(x))|, with the witness phase.

    Supported families: F_p-subspaces (dimension-limited by ORACLE_BUDGET) and
    cyclic subgroups of order h (k = 1, p = h), both scanned by
    `quadratic_scan`, whose tie rule gives A = 0, b = 0 on exact ties.
    """
    y, H = coset
    if H.order % 2 == 0:
        raise EvenOrder("coset oracle requires odd |H|")
    fvals = f.values[H.coset(y.index)]  # local lex order
    m = len(fvals)
    if m == 1:
        return NormReport(abs(complex(fvals[0])), 3, "coset-exact",
                          CosetQuadraticWitness(y, H, (), ()))

    if isinstance(H, PrimeSubspace):
        p, k, message = H.p, H.dim, "symmetric-matrix scan exceeds budget"
    elif isinstance(H, BoxSubgroup) and f.owner.rank == 1:
        p, k, message = H.local_orders[0], 1, "cyclic quadratic scan exceeds budget"
    else:
        raise SpecMismatch("coset oracle supports F_p subspaces and cyclic subgroups")
    if p ** (k * (k + 1) // 2) * m * p**k > ORACLE_BUDGET:
        raise BudgetExceeded(message)
    best_sq, key = quadratic_scan(fvals, p, k)
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    A = [[0] * k for _ in range(k)]
    for (i, j), cval in zip(pairs, key):
        A[i][j] = A[j][i] = cval
    witness = CosetQuadraticWitness(y, H, tuple(tuple(r) for r in A), key[len(pairs):])
    return NormReport(float(np.sqrt(best_sq)) / m, 3, "coset-exact", witness)


# --- grid bracket-quadratic oracle on regions of Z/N -------------------------


def _region_indices(region) -> np.ndarray:
    """The element indices of a region: an index array, or a set that lists
    them by element_indices(), such as a BohrSet."""
    if isinstance(region, np.ndarray):
        return region.astype(np.int64)
    return np.asarray(region.element_indices(), dtype=np.int64)


def u3_oracle_bracket(
    f: GroupFunction,
    region,
    S: Sequence[DualElement] | Sequence[int],
    grid: int,
) -> NormReport:
    """Grid search over bracket quadratics with frequencies in S.

    Coefficients range over {k + j/grid : -grid <= k <= grid, 0 <= j < grid}.
    The result is a certified lower bound for the quadratic bias u^3 on the
    region (the family is a grid, not the full supremum); the witness bracket
    quadratic has exact rational coefficients.

    Every tuple's correlation is an entry of EQ @ EL^T (see the module
    docstring), computed in blocks of q rows and l rows.  The witness is the
    lexicographically smallest tuple (quadratic coefficients in pair order,
    then linear ones) whose |correlation|^2 is within a relative 1e-12 of the
    maximum.
    """
    spec = f.owner
    if spec.rank != 1 or not is_prime(spec.order):
        raise NotPrime("bracket oracle requires prime N")
    if grid < 1:
        raise TooSmall("grid must be at least 1")
    if grid > 64:
        raise BudgetExceeded("grid must be between 1 and 64")
    freqs = tuple(int(x.coords[0]) if isinstance(x, DualElement) else int(x) for x in S)
    s = len(freqs)
    if s > 4:
        raise BudgetExceeded("at most 4 frequencies supported")
    N = spec.order
    idx = _region_indices(region)
    m = len(idx)
    if m == 0:
        raise TooSmall("bracket oracle needs a nonempty region")

    pairs = [(i, j) for i in range(s) for j in range(i, s)]
    coef_values = [Fraction(k) + Fraction(j, grid) for k in range(-grid, grid + 1) for j in range(grid)]
    coef_values.sort()
    nv = len(coef_values)
    combos = nv ** (len(pairs) + s)
    if combos * m > ORACLE_BUDGET:
        raise BudgetExceeded(f"{combos} coefficient tuples x {m} points exceed budget")

    brk = bracket_table(N, freqs, idx)
    qmono = np.array([brk[i] * brk[j] * (1 if i == j else 2) for i, j in pairs]).reshape(-1, m)
    cv = np.array([float(v) for v in coef_values])
    fvals = f.values[idx]

    def phases(first: int, count: int, monos: np.ndarray) -> np.ndarray:
        """e(-sum_t c_t monos[t]) on the region for the coefficient tuples
        first, ..., first + count - 1 (base-nv digits, lex order)."""
        dig = _base_p_digits(first + np.arange(count), nv, len(monos))
        return np.exp(-2j * np.pi * (cv[dig] @ monos))

    nq, nl = nv ** len(pairs), nv**s
    bl = min(nl, max(1, _BRACKET_BLOCK // m))
    bq = min(nq, max(1, _BRACKET_BLOCK // max(m, bl)))
    EL = phases(0, nl, brk) if bl == nl else None  # the common case: one table

    def block_sq(b: tuple[int, int]) -> np.ndarray:
        q0, l0 = b
        EQ = fvals * phases(q0, min(bq, nq - q0), qmono)
        corr = EQ @ (phases(l0, min(bl, nl - l0), brk) if EL is None else EL).T
        sq = np.square(corr.real)
        sq += np.square(corr.imag)
        return sq

    def key_of(b: tuple[int, int], at: int) -> int:
        q0, l0 = b
        r, c = divmod(at, min(bl, nl - l0))
        return (q0 + r) * nl + l0 + c  # the tuple's lex rank

    blocks = [(q0, l0) for q0 in range(0, nq, bq) for l0 in range(0, nl, bl)]
    best_sq, rank = _lex_first_max(blocks, block_sq, key_of)
    digits = _base_p_digits(np.asarray(rank), nv, len(pairs) + s).tolist()
    quad = [[Fraction(0)] * s for _ in range(s)]
    for (i, j), d in zip(pairs, digits):
        quad[i][j] = quad[j][i] = coef_values[d]
    lin = tuple(coef_values[d] for d in digits[len(pairs):])
    witness = BracketQuadratic(N, freqs, tuple(tuple(r) for r in quad), lin)
    return NormReport(float(np.sqrt(best_sq)) / m, 3, "bracket-grid", witness)
