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
  is involved.  When supp f = G no row is tested: a zero row can then only
  come from underflow, and it adds exactly 0 either way.

Rows are read from the periodic extension of f, the array ext of f on the
box prod [0, 2 n_i - 1) (f wrapped along each axis), in which f(x + h) is
ext[off(x) + off(h)] for x and h in prod [0, n_i), off being the row-major
offset in the box.  A batch of rows is one integer outer sum of offsets and
one gather; U^4 reduces h + k once per pair with `add_indices`, and reads
its conjugated factors from a second extension, of conj f, so that its
pair rows keep one gathered factor beside them instead of three.  On a full
cyclic group Z/N a row is the window ext[h : h + N], copied out of a
sliding-window view (measured on U^4 over Z/211 to be cheaper than the
gather; on F5^5, with windows of length 5 along the last axis, it is not).
The extension holds prod (2 n_i - 1) < 2^rank |G| entries; when that is more
than _EXTENSION_PER_ELEMENT |G| (F2^12 and beyond), the rows are gathered
through `add_indices` instead, so memory stays that of the batches.

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

Rows go through the transform in batches sized by entries, not rows: a
kernel whose row function keeps `live` arrays of shape (rows, |W|) at once
(1 for U^2 and U^3, the rows; 2 for U^4, the rows and one gathered factor)
takes _BATCH_ENTRIES // (live |W|) rows per batch, and at least one; batch
b holds rows b size ... (b + 1) size - 1.  The budget comes from a sweep
on one thread: in-process U^3 on a unimodular F5^5 function, median of 9
alternating rounds on a 2-core Xeon (2 MiB of L2 per core), one BLAS
thread, at _BATCH_ENTRIES = 2^14 ... 2^18: 147, 140, 139, 146 and 151 ms,
and 165 ms at 4e5 entries (128 rows); U^4 on Z/211, with its pair rows
built as above, at 103, 155 and 310 rows (live = 3, 2 and 1 at 2^16): 67,
66 and 81 ms.

One runner, `_run_row_batches`, sizes and runs the batches, for its two
callers: `_weighted_u2_pow4`, and `inverse_f5.phase_derivative_graph`,
which takes the U^3 rows (one per class {h, -h}, live = 2: the rows and
their transform) and keeps, beside each batch's part of U^3(f)^8, the
frequency of each row's largest coefficient.  The batches run on
W = min(number of CPUs the process may run on, number of batches)
threads; the CPUs are its affinity mask, so `taskset -c 0` gives W = 1.
Batch b goes to worker b mod W, which runs the caller's task on it and
puts the result in slot b; the caller reads the slots in batch order.  For
`_weighted_u2_pow4` the task builds the batch's rows through the row
function, drops its identically zero rows (unless supp f = G) and returns
the weighted fourth moment of the rest, and the slots are added in batch
order.  A batch's rows, and so every float of its result, depend on b
alone, so the value, and the graph, are the same for every W, bit for bit.
The dense products and the elementwise steps release the interpreter
lock, so those run at once; `np.fft.fft` holds it (numpy 2.4.6), so the
FFT axes of a batch, as on fw(4001) and Z/211, still run one at a time.  A
BLAS left multi-threaded would put its own threads on the cores the
workers use and oversubscribe them.  Each worker owns one work array of a
batch's size, into which, with the batch's own rows, the dense blocks of
its transforms write, so no batch allocates them: a fresh array per block
was freed and page-faulted in again by every batch.  The kernel therefore
holds W batches, W work arrays and W sets of gather temporaries at once
(about 3.4 MiB a worker for U^3 on F5^5).  Worker 0 is the caller's
thread, so W = 1 starts no thread and imports no thread pool; otherwise a
pool of W - 1 threads is made per call, so no thread outlives it.  The
pool's futures carry an exception of any worker back to the caller, which
plain threads would need code of their own for.  Keeping the caller busy
rather than waiting on W pool threads was faster in the median on each
`gowers` bench input (3 alternating in-process runs of 21 calls, 2-core
Xeon, one BLAS thread; U^3 on fw(2003) 3.2-3.5 -> 2.4-3.0 ms, on fw(4001)
8.6-9.7 -> 6.8-8.0 ms, on F5^5 66-67 -> 57-66 ms; U^4 on Z/211 29-33 ->
24-31 ms).

The transform is the blocked `fourier.dft_values`: runs of short axes
(order product at most `fourier._DENSE_BLOCK`) are one matrix product each
with a dense character table, each longer axis is an FFT, and each product
leaves its block rotated to the front, so no block is copied; F5^5 takes
three dense products and fw(4001) one FFT of length 1600 per row.  The
transform of a batch is C-contiguous as (rows, |W|) or as its transpose,
and nothing reads it afterwards, so its fourth powers are taken in place:
|F|^4 = |F^2|^2 is the sum of squares of the two floats of F^2, one
`einsum` over the float view, then one product with the weights.  Only
rounding changes: the row of h stands in for that of -h, the window's
transform replaces G's, and the sum runs in another order, which moves a
result by a few ulps.

`gowers_norm` takes every norm of f scaled by a power of two to a largest
|f(x)| in [1/2, 1] and scales the result back, exactly, since U^d(c f) =
|c| U^d(f): otherwise the 2^d-fold products underflow for |f| near 1e-20
(subnormal 16th powers) and vanish for |f| near 1e-45.

The direct method holds at most _DIRECT_BLOCK = 2^16 cubes at a time, for
every N and d.  Of the cube coordinates (x, h_1, ..., h_d), it takes the
fewest leading ones that leave at most 2^16 cubes to the others; a block
fixes all of those but the last and takes a run of the last, and the other
coordinates stay broadcast axes.  Each corner index x + sum_{t in S} h_t is
built from the corner without its last shift, 2^d - 1 `add_indices` calls
a block with at most d + 1 corners alive, and the corners are multiplied
along that tree, smallest first, so that most products are of arrays
smaller than a block (U^3 on Z/74 makes 3 products of a full block, not
8).  At the DIRECT_BUDGET edges (README) the peak is under 4 MiB; with a
block of whole rows of x, U^4 on Z/31 held 49.3 MiB.

The u^3 oracles search explicit families of quadratic phases: an exact scan
over M x.x + xi.x on cosets of odd subgroups (the complete family there),
and a grid scan over bracket quadratics on regions of Z/N (a certified lower
bound; bracket quadratics on Bohr sets admit no complete parametrization).

One separable kernel, `quadratic_scan`, is the only exact scan: the coset
oracle and the exhaustive `experiments.quadratic_correlation_scan` both
call it.  It takes a batch of rows, one per coset of the same subspace:
`u3_oracle_cosets` gathers every coset asked for with one `add_indices`,
so the cross-check of `inverse_f5.quadratic_obstruction` makes one scan
per W, not one per coset (a plane of F5^3 has 5 cosets of 25 points, and a
scan of one is mostly fixed numpy overhead).  What the rows share is
elementwise or a stacked `np.matmul`, which computes each matrix of the
stack as a call of its own, so a row gets the bits of a batch of its own;
one taller 2-D product would not give them, since BLAS rounds a row by its
place in a product (see `fourier`).  On a coset of an F_p-subspace of
dimension k, in local coordinates t, and with w = e(-1/p) and C symmetric,

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
them there.  A whole-group scan of the zero function, where no state is
cut, median [quartiles] of 15 calls on a 2-core Xeon with one BLAS
thread, and its tracemalloc peak, every value and witness identical:

  chunk       F5^3                             F3^4
  2,000,000   45.5 [45.0-46.1] ms, 65.7 MiB    102.9 [100.6-106.4] ms, 69.1 MiB
  400,000     26.6 [26.1-27.4] ms, 16.1 MiB    58.9 [57.6-61.8] ms, 7.7 MiB
  131,072     19.5 [17.0-20.1] ms, 3.3 MiB     56.3 [55.6-56.9] ms, 2.6 MiB
  65,536      22.6 [22.3-23.2] ms, 0.7 MiB     54.9 [51.7-56.6] ms, 2.6 MiB

On F5^3 the 2M chunk is one block of 1.95M outputs and 2^17 is 25 blocks
of 78,125; on F3^4, 2^17 and 2^16 give the same 81 blocks of 59,049.
The tables that depend only on p, k and the chunk are built once and
cached: D, the phase exponents of the off-diagonal vectors and the index
maps below, in the least integer type that holds them.  D has p^3
entries, at most 31^3 = 29,791.

A scan is priced by the axis products it runs with nothing cut, its worst
case (`_scan_price`): the first axis, a (p^(k-1), p) x (p, p^2) product,
costs p^(k+2) multiply-adds, and the axis after `level` others costs
p^(k+level+2) for each of the p^(k(k-1)/2) off-diagonal vectors, so the
price is about p^(k(k-1)/2 + 2k + 1), most of it the last axis.
ORACLE_BUDGET = 2e9 then admits p <= 31 for k = 2, p <= 7 for k = 3 and
p = 3 for k = 4, and refuses F5^4 (3.8e10).  A line or a cyclic subgroup
(k = 1) is priced at the work of `_cyclic_scan`, h chirp rows of h entries
and h FFTs of length h at h ceil(log2 h) each, h^2 (1 + ceil(log2 h)), so
Z/11547 is the largest cyclic group admitted (6.9-7.2 s, median of 5 on a
2-core Xeon with one BLAS thread, 5.6 MiB tracemalloc peak).  The scan
checks the price itself, for every k, before it builds anything, and so
does the bracket oracle, so no caller prices a scan.  From F23^2 on one
vector's p^(2k) outputs exceed a chunk, so a chunk is one vector.  A
whole-group scan of the zero function, where no state is cut, on a 2-core
Xeon with one BLAS thread, and its tracemalloc peak: F7^3 0.25-0.32 s,
4.9 MiB; F23^2 0.05 s, 11.2 MiB; F29^2 0.16 s, 27.9 MiB; F31^2 0.22 s,
36.4 MiB.
A cyclic group Z/h is the case k = 1 with p = h, for any modulus h: one
state, so nothing to cut, and `_cyclic_scan` makes the rows a without D,
which would cost more than the one transform it serves (whole scan at
h = 49, median of 9 on a 2-core Xeon: 8.0 ms with D, 0.13 ms without).

Every axis is cut by the triangle inequality.  After the axes k-1, ...,
j, a state is one off-diagonal vector with (c_ii, xi_i) for each i >= j,
and its partial sums h are a function of t_0, ..., t_{j-1}; every entry
it leads to, |sum_t h(t) w^(...)|^2, is at most B = (sum_t |h(t)|)^2.
The next axis turns h into p^2 children, with partial sums
sum_s h(.., s) w^(c s^2 + xi s), and each child's absolute sum is at most
that of h: B only falls from a state to its children, down to the
entries.  So a state whose B is below the tie band of an entry already
found leads to no entry in the final band, and no later axis runs on it.

The first axis runs once, on f itself, for all the rows of a batch at
once.  With t' = (t_0, ..., t_{k-2}) and s = t_{k-1}, the terms 2 c_ij
t_i t_j with j < k-1 do not depend on s, and those with j = k-1 add 2
(u.t') s, u = u(v) = (c_{i,k-1})_{i<k-1}; so with H(t', c, xi) the partial
sums of f after axis k-1, the state (v, c, xi) has h(t') = w^(phi_v(t'))
H(t', c, xi + 2 u.t'), phi_v(t') the terms with j < k-1: a phase times a
shear of H, one gather.  Its B depends on v through u alone, so the
bounds after the first axis are p^(k-1) p^2 sums of |H| (625 for the 3,125
states of F5^3), one stacked pass for the batch.  Each chunk is ranked by
its largest B.  The top state of each of the _SEEDS chunks ranked first,
followed down the child with the largest B at each axis, gives an entry,
and the largest seeds `best`; the seeds of all rows run as stacked
products.  From here on each row is scanned on its own, with its own
best, cut and `_lex_first_max` tie band: stacking the rows' descents too,
grouped by how many states each keeps, halved the 5 plane scans of a W of
F5^3 but made a one-row whole-F5^3 scan 1.3x slower (2-core Xeon, one
BLAS thread).  The chunks are visited in decreasing order of their largest
B, up to the first whose largest B is below the cut best
(1 - _TIE_RTOL)(1 - _BOUND_SLACK).  A chunk's states after the first
axis are read from H only where their B reaches the cut, and at each level
the next axis runs only on the states whose B reaches the cut, or on the
whole block, without a gather, when every state does.
A chunk none of whose entries reaches the cut gives no block.  Otherwise
best rises to its largest entry, and its entries, with -1 for the states
cut on the way, go to `_lex_first_max` in lex order of the key, the
entries of gathered states written straight to their lex places.  Why the
result cannot change: an entry within the final tie band is at least best
(1 - _TIE_RTOL) for every best seen on the way, and the B of each state it
descends from is at least the entry, up to rounding, so no cut drops it;
the maximum and the lex-first witness are therefore those of the full
scan, and only rounding can move.  That rounding is about 1e-15 S^2 with
S = sum |f|, and the maximum is at least S^2 / m (for any C the entries
over all xi sum to m sum |f|^2 >= S^2), so against the final band it is
about 1e-15 m, below 1e-12 for every k >= 2 within ORACLE_BUDGET (m <=
961; k = 1 cuts nothing); _BOUND_SLACK = 1e-9 is a fixed margin far above
that.

At worst every B reaches the maximum and nothing is cut: on the zero
function and a point mass (every entry ties) every axis runs on whole
blocks, with one bound per state and level beside them.  A constant f is
not a worst case: its partial sums are Gauss sums, every state but those
with u(v) = 0 and c = xi = 0 on the first axis has B <= m^2 / p, and the
cut keeps those alone.  A planted F5^3 phase runs the middle axis on 9 of
its 3,125 states and the last axis on 5 or 6 of its 78,125, 4 of each
for the seeds.  Whole-group scans, median of 15 interleaved in-process
calls on a 2-core Xeon with one BLAS thread, with a cut at the last axis
only and with a cut at every axis, in ms, and the tracemalloc peak of
the latter in MiB:

             F5^3                F3^4                F7^2                F13^2
  zero       18.8 -> 16.9 (3.3)  56.2 -> 48.0 (2.6)  0.24 -> 0.21 (0.6)  3.1 -> 2.8 (1.2)
  point      18.3 -> 17.2 (3.3)  74.1 -> 62.3 (2.6)  0.24 -> 0.21 (0.6)  3.2 -> 2.8 (1.2)
  constant    4.2 -> 0.8 (0.8)   24.1 -> 2.6 (0.6)   0.22 -> 0.18 (0.2)  0.7 -> 0.3 (0.3)
  noise       6.1 -> 5.4 (1.2)   20.2 -> 13.7 (0.9)  0.24 -> 0.19 (0.2)  4.0 -> 2.1 (0.5)

(noise: a random modulus in [0, 1) and phase at each point).

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
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import frexp, ldexp, prod
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DegreeUnsupported,
    EvenOrder,
    NotBounded,
    NotPrime,
    SpecMismatch,
    TooManyFrequencies,
    TooSmall,
)
from .fourier import dft_values
from .groups import GroupFunction, GroupSpec
from .modlinalg import BoxSubgroup, PrimeSubspace, Subgroup, is_prime
from .quadratic import BracketQuadratic, bracket_table

DIRECT_BUDGET = 30_000_000
_DIRECT_BLOCK = 1 << 16  # cubes per block of the direct method (module docstring)
ORACLE_BUDGET = 2_000_000_000
# complex entries per batch of Gowers rows: 2^16 complex128 values are 1 MiB,
# the middle of a flat stretch of the budget sweep in the module docstring
# (2^14 to 2^18); with its work array a U^3 batch then takes 2 MiB
_BATCH_ENTRIES = 1 << 16
# rows come from the periodic extension of f while it holds at most this many
# entries per element of G: every Z/N (under 2), F2^8 (25.6), F5^5 (18.9) and
# F3^7 (35.7); F2^12 (129.7) and beyond gather through add_indices instead,
# whose memory is the batch alone
_EXTENSION_PER_ELEMENT = 128
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
            out["witness"] = w if isinstance(w, int) else w.to_json()  # u2_bias's is a dual index
        return out


def _check_bounded(f: GroupFunction, unchecked: bool) -> None:
    if not unchecked and not f.is_bounded():
        raise NotBounded("function exceeds the unit disk; pass unchecked=True to override")


def _u2_pow4_sum(spec: GroupSpec, rows: np.ndarray, w: np.ndarray, work: np.ndarray) -> float:
    """sum_r w_r U^2(g_r)^4 = sum_r w_r sum_xi |ghat_r(xi)|^4 over a batch of
    value rows, which the transform overwrites, with work as its second
    buffer.  The transform is C-contiguous as (rows, N) or as its transpose
    (N, rows), and is not needed afterwards, so it is squared in place:
    |F|^4 = |F^2|^2 is the sum of squares of the two floats of F^2."""
    F = dft_values(spec, rows, work)
    by_row = F.flags.c_contiguous
    G = F if by_row else F.T
    np.square(G, out=G)
    v = G.view(np.float64)  # re and im of row r at columns 2r, 2r + 1 when not by_row
    if by_row:
        return float(w @ np.einsum("ij,ij->i", v, v))
    s = np.einsum("ij,ij->j", v, v)
    return float(w @ (s[0::2] + s[1::2]))


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


def _neg_classes(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The least element h <= -h of each class {h, -h}, ascending, the class
    size (1 when h = -h, else 2), and the table h -> -h they are read from."""
    h = np.arange(spec.order, dtype=np.int64)
    neg = spec.neg_indices(h)
    reps = h[h <= neg]
    return reps, np.where(neg[reps] == reps, 1.0, 2.0), neg


def _translator(spec: GroupSpec, vals: np.ndarray, supp: np.ndarray):
    """A function taking element indices hs to the (len(hs), len(supp)) array
    of f(x + h), x in supp, read from the periodic extension of f (module
    docstring); through `add_indices` when the extension would hold more
    than _EXTENSION_PER_ELEMENT |G| entries."""
    orders = spec.orders
    shape = tuple(2 * n - 1 for n in orders)
    if prod(shape) > _EXTENSION_PER_ELEMENT * spec.order:
        return lambda hs: vals[spec.add_indices(supp[None, :], hs[:, None])]
    # filled in place: wrapping one axis at a time by concatenation, one new
    # array per axis, left the peak RSS of repeated U^3 calls on F5^5 about
    # 1 MB higher
    ext = np.empty(shape, dtype=vals.dtype)
    ext[tuple(slice(n) for n in orders)] = vals.reshape(orders)
    for a, n in enumerate(orders):  # entries n.. of axis a repeat entries 0..n-2
        wrapped, rest = (slice(None),) * a, tuple(slice(m) for m in orders[a + 1 :])
        ext[wrapped + (slice(n, None),) + rest] = ext[wrapped + (slice(n - 1),) + rest]
    if spec.rank == 1 and len(supp) == spec.order:
        windows = np.lib.stride_tricks.sliding_window_view(ext, spec.order)
        return lambda hs: windows[hs]
    off = np.zeros(1, dtype=np.int64)  # off[x]: the offset of x in ext, x in index order
    for n, stride in zip(orders, ext.strides):
        off = (off[:, None] + np.arange(n) * (stride // ext.itemsize)).reshape(-1)
    at_supp, ext = off[supp], ext.reshape(-1)
    return lambda hs: ext[off[hs][:, None] + at_supp]


def _batch_rows(width: int, live: int) -> int:
    """Rows per batch when a batch keeps `live` arrays of shape (rows, width)
    at once: _BATCH_ENTRIES entries among them, and at least one row."""
    return max(1, _BATCH_ENTRIES // (live * width))


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (so `taskset` limits it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_row_batches(n: int, width: int, live: int, task) -> list:
    """[task(r0, r1, work) for each batch of rows r0..r1-1 of n], in batch
    order.  A batch holds _batch_rows(width, live) rows, and work is its
    worker's own complex array of a full batch's rows x width entries.
    Batch b runs on worker b mod W, W = min(_cpus(), batches), worker 0 being
    the caller's thread, so task is called from several threads at once
    (module docstring); an exception of any worker reaches the caller."""
    size = _batch_rows(width, live)
    batches = -(-n // size)
    out = [None] * batches

    def worker(first: int, step: int) -> None:  # batches first, first + step, ...
        work = np.empty(min(size, n) * width, dtype=np.complex128)
        for b in range(first, batches, step):
            out[b] = task(b * size, min((b + 1) * size, n), work)

    workers = min(_cpus(), batches)
    if workers <= 1:
        worker(0, 1)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1) as pool:  # the caller's thread is worker 0
            others = [pool.submit(worker, i, workers) for i in range(1, workers)]
            worker(0, workers)
            for done in others:
                done.result()
    return out


def _weighted_u2_pow4(spec: GroupSpec, supp: np.ndarray, n: int, rows, live: int) -> float:
    """sum_r w_r U^2(g_r)^4 over rows g_r, r < n, that vanish off supp, each
    transformed on the support window W.  rows(r0, r1) returns rows r0..r1-1
    (clipped to n) as values on supp, with their weights, keeping `live`
    arrays of that shape at once, so a batch gets _batch_rows(|W|, live)
    rows.  The values must be a fresh array: the transform overwrites it, and
    rows is called from several threads at once (module docstring)."""
    window, at = _support_window(spec, supp)

    def batch(r0: int, r1: int, work: np.ndarray) -> float:
        g, w = rows(r0, r1)
        # with supp f = G a zero row can only come from underflow, and it adds exactly 0
        if len(supp) < spec.order:
            keep = np.any(g, axis=1)
            if not keep.any():
                return 0.0
            if not keep.all():
                g, w = g[keep], w[keep]
        if len(at) < window.order:  # a window that supp fills is G, or G with 1-point axes
            g, on_supp = np.zeros((len(g), window.order), dtype=np.complex128), g
            g[:, at] = on_supp
        return _u2_pow4_sum(window, g, w, work)

    total = 0.0
    for s in _run_row_batches(n, window.order, live, batch):  # in batch order, whatever the workers
        total += s
    return (window.order / spec.order) ** 3 * total


def _u3_pow8(f: GroupFunction) -> float:
    """U^3(f)^8 = N^-1 sum_h U^2(Delta_h f)^4, one row per class {h, -h}."""
    spec, vals = f.owner, f.values
    supp = np.flatnonzero(vals)
    conj_supp = np.conj(vals[supp])
    shifted = _translator(spec, vals, supp)
    reps, weights, _ = _neg_classes(spec)

    def rows(r0, r1):  # live: the rows alone
        g = shifted(reps[r0:r1])
        g *= conj_supp  # Delta_h f(x)
        return g, weights[r0:r1]

    return _weighted_u2_pow4(spec, supp, len(reps), rows, live=1) / spec.order


def _u4_pow16(f: GroupFunction) -> float:
    """U^4(f)^16 = N^-2 sum_{h,k} U^2(Delta_k Delta_h f)^4, one row per pair
    of classes i <= j of {h, -h} and {k, -k}."""
    spec, vals = f.owner, f.values
    supp = np.flatnonzero(vals)
    on_supp = vals[supp]
    shifted = _translator(spec, vals, supp)
    conj_shifted = _translator(spec, np.conj(vals), supp)
    reps, weights, _ = _neg_classes(spec)
    # pairs (i, j), i <= j, in row-major order; row i starts at pair first[i]
    first = np.concatenate(([0], np.cumsum(np.arange(len(reps), 0, -1))))

    def rows(t0, t1):  # live: the rows and one gathered factor
        t = np.arange(t0, t1)
        i = np.searchsorted(first, t, side="right") - 1
        j = i + t - first[i]
        h, k = reps[i], reps[j]
        g = shifted(spec.add_indices(h, k))  # f(x + h + k)
        g *= conj_shifted(k)
        dh = conj_shifted(h)
        dh *= on_supp  # conj Delta_h f(x)
        g *= dh
        return g, weights[i] * weights[j] * np.where(i == j, 1.0, 2.0)

    return _weighted_u2_pow4(spec, supp, int(first[-1]), rows, live=2) / spec.order**2


def _gowers_recursive(f: GroupFunction, d: int) -> float:
    spec = f.owner
    if d == 1:
        return abs(complex(np.mean(f.values)))
    if d == 2:
        supp = np.flatnonzero(f.values)
        p4 = _weighted_u2_pow4(spec, supp, 1, lambda r0, r1: (f.values[None, supp], np.ones(1)), live=1)
        return max(p4, 0.0) ** 0.25
    if d == 3:
        return max(_u3_pow8(f), 0.0) ** 0.125
    return max(_u4_pow16(f), 0.0) ** 0.0625


def _gowers_direct(f: GroupFunction, d: int) -> float:
    spec = f.owner
    N = spec.order
    if N ** (d + 1) > DIRECT_BUDGET:
        raise BudgetExceeded(
            f"direct method needs N^{d + 1} = {N ** (d + 1)} > budget {DIRECT_BUDGET} (DIRECT_BUDGET)"
        )
    vals, conj = f.values, f.values.conj()
    # a block fixes the `lead` leading cube coordinates but the last, whose
    # run is axis 0; each later coordinate is an axis of its own
    lead = next(j for j in range(1, d + 2) if N ** (d + 1 - j) <= _DIRECT_BLOCK)
    rest = d + 1 - lead
    tail = [np.arange(N).reshape((1,) * (i + 1) + (N,) + (1,) * (rest - 1 - i)) for i in range(rest)]
    run = min(N, _DIRECT_BLOCK // N**rest)

    def cube_product(idx, hs, odd):
        # the product over the subsets S of hs of f(idx + sum S), conjugated
        # when |S| + odd is odd: f(idx) times the product over t of the
        # corners that have h_t as their last shift, each built from idx +
        # h_t.  The axes of the t-th part hold those of every later one, so
        # a product taken from the last t back lands in place in each part
        acc = (conj if odd else vals)[idx]
        for t in reversed(range(len(hs))):
            part = cube_product(spec.add_indices(idx, hs[t]), hs[t + 1 :], not odd)
            part *= acc
            acc = part
        return acc

    total = 0j
    for fixed in itertools.product(range(N), repeat=lead - 1):
        for r0 in range(0, N, run):
            runs = np.arange(r0, min(N, r0 + run)).reshape((-1,) + (1,) * rest)
            x, *hs = [*fixed, runs, *tail]
            total += complex(cube_product(x, hs, False).sum())
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
    if method not in ("direct", "recursive"):
        raise ValueError(f"unknown method {method!r}")
    # U^d(c f) = |c| U^d(f), with c a power of two that brings max |f| into
    # [1/2, 1], so that no 2^d-fold product underflows (module docstring)
    top = float(np.max(np.abs(f.values)))
    shift = 0 if top == 0 or 0.5 <= top <= 1 else -frexp(top)[1]
    if shift:
        parts = np.ascontiguousarray(f.values).view(np.float64)
        f = GroupFunction(f.owner, np.ldexp(parts, shift).view(np.complex128))
    value = _gowers_direct(f, d) if method == "direct" else _gowers_recursive(f, d)
    return NormReport(ldexp(value, -shift), d, method)


def u2_bias(f: GroupFunction) -> NormReport:
    """u^2 bias = max_xi |fhat(xi)|, witness the smallest dual index whose
    |fhat|^2 is within a relative _TIE_RTOL of the maximum."""
    mags = np.abs(dft_values(f.owner, f.values))
    k = int(_first_in_band(mags * mags))
    return NormReport(float(mags[k]), 2, "fourier", witness=k)


# --- exact u^3 oracle on cosets ----------------------------------------------


@dataclass
class CosetQuadraticWitness:
    """A quadratic phase on a coset y+H in local coordinates: for x = y +
    embed(t), phi(x) = (t.A t)/o + (b.t)/o with o the (common) local order.

    Only the modulus of the correlation is reported, so the constant term is
    dropped.
    """

    y: int  # element index
    subgroup: Subgroup
    A: tuple[tuple[int, ...], ...]  # symmetric, local coords
    b: tuple[int, ...]

    def to_json(self) -> dict:
        return {"y": list(self.subgroup.spec.coords_of(self.y)), "A": [list(r) for r in self.A], "b": list(self.b)}


def _base_p_digits(n: np.ndarray, p: int, width: int) -> np.ndarray:
    """Base-p digits of each n, most significant first: shape n.shape + (width,)."""
    return (n[..., None] // p ** np.arange(width - 1, -1, -1, dtype=np.int64)) % p


def _along_axis(h: np.ndarray, D: np.ndarray) -> np.ndarray:
    """(..., R, n, r) -> (..., R, n / p, p^2 r) for the states h[.., b, :, c],
    each a function of (t_0, ..., t_j) in lex order (n = p^(j+1)): the last
    coordinate t_j = s becomes the rows (c, xi), ahead of the r columns, of
    sum_s h[.., s] w^(c s^2 + xi s), by the dense map D.  Each leading index
    is a product of its own (numpy's stacked matmul), so it rounds as it
    would alone; one taller 2-D product would not (module docstring)."""
    *lead, R, n, r = h.shape
    p = D.shape[1]
    # one column: one 2-D product in place of R n / p matrix-vector products,
    # 2-3x faster at R = 125 and 243 (one BLAS thread)
    out = h.reshape(*lead, R * n // p, p) @ D.T if r == 1 else np.matmul(D, h.reshape(-1, p, r))
    return out.reshape(*lead, R, n // p, p * p * r)


def _last_axis(h: np.ndarray, D: np.ndarray) -> np.ndarray:
    """|.|^2 of the last axis for the R r states h[.., b, :, c]: (..., R, p, r)
    -> (..., R, 1, p^2 r).  Every state the scan evaluates passes through here."""
    out = _along_axis(h, D)
    sq = np.square(out.real)
    sq += np.square(out.imag)
    return sq


class _ScanPlan(NamedTuple):
    """What `quadratic_scan` on (Z/p)^k needs besides f; shared by every scan
    with the same p, k and chunk size, so its arrays are read-only.  v runs
    over the off-diagonal vectors (c_ij)_{i<j}, t over (Z/p)^k and t' over
    (Z/p)^(k-1), all in lex order, and u(v) = (c_{i,k-1})_{i<k-1}."""

    omega: np.ndarray  # w^s for s in Z/p, w = e(-1/p)
    D: np.ndarray  # D[(c, xi), s] = w^(c s^2 + xi s), rows in lex order
    E: np.ndarray  # E[v, t'] = sum_{i<j<k-1} 2 c_ij t_i t_j mod p, v's phase at (t', 0)
    u_of: np.ndarray  # the lex index of u(v), for each v
    shear: np.ndarray  # shear[u, t', c, xi] = (t', c, xi + 2 u.t' mod p) as a flat index
    nb: int  # vectors per chunk
    lex: tuple  # the axes of the key in lex order
    varying: tuple  # those that vary within a chunk
    perm: tuple  # the chunk axis of each varying one
    place: np.ndarray  # the place in lex order of each chunk digit


@lru_cache(maxsize=16)
def _scan_plan(p: int, k: int, chunk: int) -> _ScanPlan:
    """The `_ScanPlan` of the scans on (Z/p)^k in chunks of `chunk` outputs."""
    s = np.arange(p, dtype=np.int64)
    omega = np.exp(-2j * np.pi * s / p)
    D = omega[(s[:, None, None] * s * s + s[:, None] * s) % p].reshape(-1, p)
    off = [(i, j) for i in range(k) for j in range(i + 1, k)]
    t = _base_p_digits(np.arange(p**k), p, k)
    P = np.array([2 * t[:, i] * t[:, j] % p for i, j in off], dtype=np.int64).reshape(-1, p**k)
    odig = _base_p_digits(np.arange(p ** len(off)), p, len(off))
    # exponents in the least integer type, not phases: a complex table of
    # every (v, t) held 250 KB on F5^3 and raised the peak RSS of a run of
    # f5_planted by about 0.5 MB
    E = ((odig @ P[:, ::p]) % p).astype(np.min_scalar_type(p - 1))
    u_of = odig[:, [n for n, (i, j) in enumerate(off) if j == k - 1]] @ p ** np.arange(k - 2, -1, -1)
    u = _base_p_digits(np.arange(p ** (k - 1)), p, k - 1)
    tp = t[::p, : k - 1]  # t' = the first k-1 coordinates, s = 0
    shift = 2 * (u @ tp.T)[:, :, None, None]
    shear = np.arange(len(tp))[:, None, None] * p * p + s[:, None] * p + (s + shift) % p
    shear = shear.astype(np.min_scalar_type(p ** (k + 1)))
    # A chunk is a box of p^jv off-diagonal vectors (the trailing jv digits
    # vary), with p^(2k) outputs each: at most `chunk` outputs, or one
    # vector's when that is more (from F23^2 on).
    jv = 0
    while jv < len(off) and p ** (jv + 1 + 2 * k) <= chunk:
        jv += 1
    # Axes of a chunk: trailing off-diagonal digits, then (c_ii, xi_i) for
    # each i; lex order of the key names them ("o", n), ("c", i), ("x", i).
    names = [("o", n) for n in range(len(off) - jv, len(off))]
    names += [(kind, i) for i in range(k) for kind in ("c", "x")]
    lex = [("c", i) if i == j else ("o", off.index((i, j))) for i in range(k) for j in range(i, k)]
    lex += [("x", i) for i in range(k)]
    varying = tuple(a for a in lex if a in names)
    perm = tuple(names.index(a) for a in varying)
    place = p ** (len(perm) - 1 - np.argsort(perm))
    for a in (omega, D, E, u_of, shear, place):
        a.flags.writeable = False
    return _ScanPlan(omega, D, E, u_of, shear, p**jv, tuple(lex), varying, perm, place)


def quadratic_scan(fvals: np.ndarray, p: int, k: int) -> list[tuple[float, tuple[int, ...]]]:
    """For each row g of fvals, a (B, p^k) array of functions on (Z/p)^k in
    lex order (one per coset of a subspace), the max over symmetric C and xi
    of |sum_t g(t) w^(t.Ct + xi.t)|^2, w = e(-1/p), and the argmax as (c_00,
    c_01, ..., c_kk, xi_0, ..., xi_{k-1}): the lex-smallest key whose entry
    is within a relative _TIE_RTOL of the maximum, so exact ties do not
    depend on rounding.

    p is prime for k > 1; with k = 1 it may be any modulus h, even or
    composite, and the key is (a, b) for the phase a t^2 + b t (see the
    module docstring for the separable identity).

    After every axis, a state goes on only when its triangle-inequality
    bound reaches the tie band of the best entry found so far in its row,
    which keeps the value and the witness those of the full scan (module
    docstring).  The rows share the plan, the first axis, the bounds after
    it and the seeds; each keeps its own best, cut and tie band, and each
    gets the value and witness, bit for bit, of a batch of its own.

    A row is priced by `_scan_price(p, k)` before anything is built; over
    ORACLE_BUDGET the call raises BudgetExceeded."""
    price = _scan_price(p, k)
    if price > ORACLE_BUDGET:
        raise BudgetExceeded(f"symmetric-matrix scan exceeds budget: {price} multiply-adds a row "
                             f"in the scan of (Z/{p})^{k} > ORACLE_BUDGET = {ORACLE_BUDGET}")
    if k == 1:  # one state: nothing to cut
        return [_cyclic_scan(g) for g in fvals]
    # the bound pass gathers p^(2k) bounds a row: rows go together while
    # that holds at most _ORACLE_CHUNK of them
    group = max(1, _ORACLE_CHUNK // p ** (2 * k))
    if len(fvals) > group:
        return [res for r0 in range(0, len(fvals), group) for res in quadratic_scan(fvals[r0 : r0 + group], p, k)]
    omega, D, E, u_of, shear, nb, lex, varying, perm, place = _scan_plan(p, k, _ORACLE_CHUNK)
    n_off = k * (k - 1) // 2
    B = len(fvals)
    # The first axis runs once, on f: after it the state (v, c, xi) is
    # w^(phi_v(t')) H(t', c, xi + 2 u(v).t') at t', a phase times a shear of
    # the partial sums H of f, so its bound depends on v through u(v) alone
    # (module docstring).
    H = _along_axis(fvals[:, None, :, None], D).reshape(B, -1)  # (t', c, xi), flat, per row
    U, n = shear.shape[:2]

    def bounds(h: np.ndarray) -> np.ndarray:
        """(sum_s |h(s)|)^2 for the states h[.., b, :, c]: (..., R, n, r) ->
        (..., R, r).  The sum is a product with ones: summing the short
        middle axis of many rows took twice as long."""
        return np.square(np.ones(h.shape[-2]) @ np.abs(h))

    by_u = np.square(np.ones(n) @ np.abs(H)[:, shear].reshape(B, U, n, -1))  # (row, u, (c, xi))
    per = by_u.max(axis=2)[:, u_of].reshape(B, -1, nb)  # the largest bound of each vector, by chunk
    order = [sorted(zip(top.tolist(), range(0, len(E), nb)), key=lambda c: -c[0]) for top in per.max(axis=2)]
    # the largest entry so far in each row, seeded by the top state of each
    # of its first chunks, followed down the child with the largest bound
    rows = np.arange(B)[:, None]
    vs = np.array([[v0 for _, v0 in chunks[:_SEEDS]] for chunks in order])
    vs += np.argmax(per, axis=2)[rows, vs // nb]
    top = np.argmax(by_u[rows, u_of[vs]], axis=2)  # (c, xi) of each seed
    h = (omega[E[vs]] * H[rows[:, :, None], shear[u_of[vs], :, top // p, top % p]])[..., None]
    for _ in range(k - 2):
        h = _along_axis(h, D)
        h = h[rows, np.arange(h.shape[1]), :, np.argmax(bounds(h), axis=2)][..., None]
    seeded = _last_axis(h, D).reshape(B, -1).max(axis=1).tolist()

    def key_of(c: tuple, at: int) -> tuple[int, ...]:
        digit = {("o", j): c[1] // p ** (n_off - 1 - j) % p for j in range(n_off)}
        digit.update(zip(varying, np.unravel_index(at, (p,) * len(varying))))
        return tuple(int(digit[a]) for a in lex)

    def scan_row(H: np.ndarray, by_u: np.ndarray, chunks: list, best: float):
        """One row's maximum and witness: H and by_u its rows of the arrays
        above, chunks its visiting order and best its seeded value."""

        def cut() -> float:
            return best * (1 - _TIE_RTOL) * (1 - _BOUND_SLACK)

        def descend(c: tuple) -> np.ndarray | None:
            """|.|^2 for chunk c, axes in lex order of the key, entries of
            states cut on the way reading -1; None when no entry reaches the
            cut."""
            nonlocal best
            vs = slice(c[1], c[1] + nb)
            # the output offset of each row of states, and the stride of its
            # columns: 1 until a cut gathers states, p^(2 level) after
            at, stride = np.arange(nb) * p ** (2 * k), 1
            # the states after the first axis, (nb, p^(k-1), p^2), read from H
            # only where their bounds reach the cut
            keep = by_u[u_of[vs]] >= cut()
            if keep.all():
                h = omega[E[vs]][:, :, None] * H[shear[u_of[vs]]].reshape(nb, n, p * p)
            else:  # the states that reach the cut go on, one per row
                i, col = np.nonzero(keep)
                if not len(i):
                    return None
                v = c[1] + i
                h = (omega[E[v]] * H[shear[u_of[v], :, col // p, col % p]])[:, :, None]
                at, stride = at[i] + col, p * p
            for level in range(1, k):  # h holds the states after `level` axes
                if level > 1 and not (keep := bounds(h) >= cut()).all():
                    i, col = np.nonzero(keep)
                    if not len(i):
                        return None
                    h, at, stride = h[i, :, col][:, :, None], at[i] + col * stride, p ** (2 * level)
                h = _last_axis(h, D) if level == k - 1 else _along_axis(h, D)
            sq = h[:, 0]  # (rows, columns): after the last axis each state is one entry
            top = float(sq.max())
            if top < cut():  # no entry reaches the tie band
                return None
            best = max(best, top)
            if stride == 1:  # nothing was cut: the whole chunk in its own order
                return sq.reshape((p,) * len(perm)).transpose(perm)
            # entry at + c stride goes to its place in lex order; the digits
            # of at and of c stride are disjoint, so their places add
            out = np.full(nb * p ** (2 * k), -1.0)
            out[(_base_p_digits(at, p, len(perm)) @ place)[:, None]
                + _base_p_digits(np.arange(sq.shape[1]) * stride, p, len(perm)) @ place] = sq
            return out

        ready = (None, None)  # the chunk `visits` last yielded, and its entries

        def visits():
            """The chunks in decreasing order of their largest bound, up to
            the first one below the cut, without those that have no entry
            above it."""
            nonlocal ready
            for c in chunks:
                if c[0] < cut():
                    return
                ready = (c, descend(c))
                if ready[1] is not None:
                    yield c

        def chunk_sq(c: tuple) -> np.ndarray:
            # _lex_first_max asks for each chunk as soon as visits yields it,
            # and again only for a chunk whose entries reach the final tie band
            return ready[1] if ready[0] is c else descend(c)

        return _lex_first_max(visits(), chunk_sq, key_of)

    return [scan_row(*row) for row in zip(H, by_u, order, seeded)]


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


def _scan_price(p: int, k: int) -> int:
    """Multiply-adds of `quadratic_scan` on (Z/p)^k for one row, with
    nothing cut, its worst case (zero f, a point mass).  The first axis is
    one (p^(k-1), p) x (p, p^2) product.  The axis after `level` others runs
    on the p^(k-level) x p^(2 level) states of each of the p^(k(k-1)/2)
    off-diagonal vectors and costs p^(k+level+2) for each; the last axis
    dominates.  At k = 1, h = p, `_cyclic_scan` makes h chirp rows of h
    entries and h FFTs of length h, each counted h ceil(log2 h): h^2 (1 +
    ceil(log2 h)) in all."""
    if k == 1:
        return p * p * (1 + (p - 1).bit_length())
    return p ** (k + 2) + p ** (k * (k - 1) // 2) * sum(p ** (k + level + 2) for level in range(1, k))


def u3_oracle_cosets(f: GroupFunction, ys: Sequence[int], H: Subgroup) -> list[NormReport]:
    """Exact u^3 bias on each coset y+H, y in the element indices ys, of a
    subgroup H of odd order: the maximum over all quadratic phases M t.t +
    xi.t (constant dropped) of |E_{x in y+H} f(x) e(-phi(x))|, with the
    witness phase.

    Supported families: F_p-subspaces and cyclic subgroups of order h (k =
    1, p = h), both scanned by `quadratic_scan` in one batch of a row per
    coset, whose tie rule gives A = 0, b = 0 on exact ties.  The scan prices
    itself, per coset, against ORACLE_BUDGET and raises BudgetExceeded
    before it runs; a subgroup of one point is read off f, with no scan, as
    the root of re^2 + im^2 that the k = 1 scan takes (not hypot), with the
    zero phase A = 0, b = 0 on its k = len(H.local_orders) local coordinates
    as its witness, the one a cyclic scan gives on ties.
    """
    if H.order % 2 == 0:
        raise EvenOrder("coset oracle requires odd |H|")
    ys = list(ys)
    fvals = f.values[H.coset(np.array(ys, dtype=np.int64)[:, None])]  # a row per coset
    m = H.order
    if m == 1:
        k = len(H.local_orders)
        A, b = ((0,) * k,) * k, (0,) * k
        sq = np.square(fvals.real[:, 0]) + np.square(fvals.imag[:, 0])
        return [NormReport(float(np.sqrt(v)), 3, "coset-exact", CosetQuadraticWitness(y, H, A, b))
                for y, v in zip(ys, sq)]

    if isinstance(H, PrimeSubspace):
        p, k = H.p, H.dim
    elif isinstance(H, BoxSubgroup) and f.owner.rank == 1:
        p, k = H.local_orders[0], 1
    else:
        raise SpecMismatch("coset oracle supports F_p subspaces and cyclic subgroups")
    if not ys:
        return []
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    reports = []
    for y, (best_sq, key) in zip(ys, quadratic_scan(fvals, p, k)):
        A = [[0] * k for _ in range(k)]
        for (i, j), cval in zip(pairs, key):
            A[i][j] = A[j][i] = cval
        witness = CosetQuadraticWitness(y, H, tuple(tuple(r) for r in A), key[len(pairs):])
        reports.append(NormReport(float(np.sqrt(best_sq)) / m, 3, "coset-exact", witness))
    return reports


def u3_oracle_coset(f: GroupFunction, coset: tuple[int, Subgroup]) -> NormReport:
    """`u3_oracle_cosets` on the one coset y+H given as coset = (y, H)."""
    y, H = coset
    return u3_oracle_cosets(f, [y], H)[0]


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
    S: Sequence[int],
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
    maximum.  The grid is priced at its coefficient tuples times the region's
    points against ORACLE_BUDGET before any table is built; over it the call
    raises BudgetExceeded.
    """
    spec = f.owner
    if spec.rank != 1 or not is_prime(spec.order):
        raise NotPrime("bracket oracle requires prime N")
    if grid < 1:
        raise TooSmall("grid must be at least 1")
    freqs = tuple(int(x) for x in S)
    s = len(freqs)
    if s > 4:
        raise TooManyFrequencies("at most 4 frequencies supported")
    N = spec.order
    idx = _region_indices(region)
    m = len(idx)
    if m == 0:
        raise TooSmall("bracket oracle needs a nonempty region")

    pairs = [(i, j) for i in range(s) for j in range(i, s)]
    # the grid values k + j/grid, ascending, are (d - grid^2)/grid for the
    # digits d = 0 .. nv - 1
    nv = (2 * grid + 1) * grid
    combos = nv ** (len(pairs) + s)
    if combos * m > ORACLE_BUDGET:
        raise BudgetExceeded(f"bracket grid exceeds budget: {combos} coefficient tuples x {m} points "
                             f"> ORACLE_BUDGET = {ORACLE_BUDGET}")

    brk = bracket_table(N, freqs, idx)
    qmono = np.array([brk[i] * brk[j] * (1 if i == j else 2) for i, j in pairs]).reshape(-1, m)
    fvals = f.values[idx]

    def phases(first: int, count: int, monos: np.ndarray) -> np.ndarray:
        """e(-sum_t c_t monos[t]) on the region for the coefficient tuples
        first, ..., first + count - 1 (base-nv digits, lex order)."""
        dig = _base_p_digits(first + np.arange(count), nv, len(monos))
        return np.exp(-2j * np.pi * (((dig - grid * grid) / grid) @ monos))

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
    coef = [Fraction(d - grid * grid, grid) for d in digits]
    quad = [[Fraction(0)] * s for _ in range(s)]
    for (i, j), c in zip(pairs, coef):
        quad[i][j] = quad[j][i] = c
    lin = tuple(coef[len(pairs):])
    witness = BracketQuadratic(N, freqs, tuple(tuple(r) for r in quad), lin)
    return NormReport(float(np.sqrt(best_sq)) / m, 3, "bracket-grid", witness)
