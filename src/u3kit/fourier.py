"""Discrete Fourier transform over finite abelian groups.

Characters of Z/n1 x ... x Z/nk factor through the per-axis roots of unity,
so the transform is a multidimensional DFT over the reshaped value array.
The transform carries the expectation normalization

    fhat(xi) = (1/N) sum_x f(x) e(-xi.x),

applied inside the blocks below: a block of order m carries its own 1/m (a
dense table holds e(-xi.x)/m, an FFT runs with norm="forward"), and the
orders of the blocks multiply to N, so no pass over the result divides.

`dft_values`, the batched transform under the Gowers kernels, splits the
axes into blocks by `groups.factor_runs`, walking from the last axis:
consecutive axes share a block while the product of their orders is at most
_DENSE_BLOCK, and a longer axis is a block of its own.  A short block of
order m is one matrix product with its m x m character table e(-xi.x)
(built from exact integer pairings and cached per tuple of orders); a long
axis goes through a length-n FFT.  The blocks rotate the axes as they go:
with the untransformed block last, the values are a C-contiguous (rest, m)
matrix g, and the product W^T g^T is a C-contiguous (m, rest) matrix, the
transformed block in front of the axes still to do.  Once the first axis
is done, the transformed axes are in front in row-major order and the batch
axis is last, so the result is that (N, batch) array read through a
transposed view, and no block is copied between products.  An FFT block
returns its axis last and is transposed as a view; when another block
follows, that block's reshape makes the one copy.  On F5^5 `np.fft.fftn`
makes five strided passes over length-5 axes; the blocks (5,), (5,5) and
(5,5) make three dense products instead.  The dense products write
alternately into two buffers: two arrays allocated per call, or a work
array and the input of a batched caller that gives its input up, so that
a batch allocates none of them (the Gowers kernels do, since a fresh 1 MB
product per block was handed back to the system and page-faulted in again
by every batch).  An FFT block still returns a fresh array: `np.fft.fft`
takes an output array only from numpy 2.0.

A row's last bits depend on its place in the batch.  A dense block is one
BLAS product, and its edge tiles round differently from its full ones: with
OpenBLAS, on (5,), (5,5) and (5,5,5), the first n < 25 rows of a 25-row
batch equal an n-row batch bit for bit only when n is a multiple of 4.  A
batched row agrees with its single-row transform to within 5e-16 of the
row's maximum, so a reference made one row at a time is compared within a
tolerance, never bit for bit, and a change of batching moves last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .errors import SpecMismatch
from .groups import GroupFunction, GroupSpec, factor_runs


@dataclass
class DualFunction:
    """Dense complex function on the dual group, row-major over dual indices."""

    owner: GroupSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.owner.order,):
            raise ValueError("dual value vector has wrong length")


def dft(f: GroupFunction) -> DualFunction:
    """Fourier coefficients fhat(xi) = E_x f(x) e(-xi.x)."""
    return DualFunction(f.owner, dft_values(f.owner, f.values))


# Largest order of a block transformed by one dense character table: a block
# of order m costs m multiply-adds per entry.  Sweep of the fourth moments
# (`norms._u2_pow4_sum`: this transform, then sum |F|^4 in place) of the rows
# the U^d kernels transform, in the batches their entry budget gives and
# with one work array (U^3: 1563 x F5^5 in 20s, 1094 x F3^7 in 29s, 4096 x
# F2^12 in 16s; U^4: 5671 x Z/211 in 155s), ms, median [quartiles] of 9
# alternating rounds, one thread, 2-core Xeon (np.fft.fftn: its transform,
# /N, then the sum of |F|^4):
#   _DENSE_BLOCK  F5^5          F3^7           F2^12             Z/211
#   16             90 [90-95]    43 [42-53]     320 [313-332]    45 [28-47]
#   32             91 [90-100]   52 [44-61]     324 [323-331]    38 [27-48]
#   64             95 [91-100]   56 [45-63]     416 [415-422]    34 [27-38]
#   128           140 [138-162]  67 [55-74]     485 [481-507]    31 [28-37]
#   256           145 [139-145] 109 [100-134]   773 [761-874]    43 [42-59]
#   np.fft.fftn   335 [329-356] 304 [299-352]  5392 [5189-5447]  39 [39-54]
# Z/211 is one FFT axis below 256, so that column is noise there.  16 is
# ahead of 32 on all three F_p^n by less than the spread of their rounds,
# so 32 stays.  At 32, F5^5 has the blocks (5,), (5, 5), (5, 5), and Z/5 x Z/6
# or F2^5 is one block.
_DENSE_BLOCK = 32


@lru_cache(maxsize=64)
def _character_table(orders: tuple[int, ...]) -> np.ndarray:
    """W[x, xi] = e(-xi.x) / m on Z/n1 x ... x Z/nk of order m, both indices
    row-major (read-only: one array is shared by every call)."""
    block = GroupSpec(orders)
    idx = np.arange(block.order, dtype=np.int64)
    W = np.exp(-2j * np.pi / block.exponent * block.pairings(idx[None, :], idx[:, None])) / block.order
    W.flags.writeable = False
    return W


def dft_values(spec: GroupSpec, values: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Transform a raw value vector (or a batch with trailing group axis),
    one block of axes at a time (see the module docstring).  The result is
    a transposed view: its group axis varies slowest in memory.

    The dense blocks write alternately into two buffers of values.size
    entries.  Without work they are two arrays allocated per call, and
    values is not written.  With work, a flat complex128 array of at least
    values.size entries, they are work and values itself, a C-contiguous
    complex128 array whose entries the caller gives up, so that a batched
    caller allocates nothing per batch for them; the result may then be a
    view of either."""
    values = np.asarray(values, dtype=np.complex128)
    batch = values.shape[:-1]
    g = values
    if work is None:
        bufs = (np.empty(values.size, dtype=np.complex128), np.empty(values.size, dtype=np.complex128))
    else:
        bufs = (values.reshape(-1), work)  # g is in bufs[0] whenever it is in either
    for block in factor_runs(spec.orders, _DENSE_BLOCK):
        m = prod(block)
        x = g.reshape(-1, m)
        if m > _DENSE_BLOCK:  # a fresh array, so both buffers are free
            g = np.fft.fft(x, norm="forward").T
        else:
            g = np.matmul(_character_table(block).T, x.T, out=bufs[1][: x.size].reshape(m, -1))
            bufs = bufs[::-1]
    return g.reshape(spec.order, -1).T.reshape(batch + (spec.order,))


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """Normalized convolution f*g(x) = E_y f(y) g(x-y).

    Computed through the transform, using that the transform of f*g is the
    pointwise product of the transforms; the inverse is the same transform
    by conjugation, f*g(x) = sum_xi H(xi) e(xi.x) = N conj(dft(conj H))(x)
    with H = fhat ghat.
    """
    if f.owner.orders != g.owner.orders:
        raise SpecMismatch("convolve: group mismatch")
    spec = f.owner
    H = dft_values(spec, f.values) * dft_values(spec, g.values)
    return GroupFunction(spec, spec.order * np.conj(dft_values(spec, np.conj(H))))
