"""Discrete Fourier transform over finite abelian groups.

Characters of Z/n1 x ... x Z/nk factor through the per-axis roots of unity,
so the transform is a multidimensional DFT over the reshaped value array.
The transform carries the expectation normalization

    fhat(xi) = (1/N) sum_x f(x) e(-xi.x).

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
(5,5) make three dense products instead.
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
# (`norms._u2_pow4_batch`: this transform, then sum |F|^4) of the rows the
# U^d kernels transform, in batches of 128 (U^3: 1563 x F5^5, 1094 x F3^7,
# 4096 x F2^12; U^4: 5671 x Z/211), ms, median of 9 alternating rounds, one
# thread, 2-core Xeon:
#   _DENSE_BLOCK   F5^5  F3^7  F2^12  Z/211
#   16              205    90    861     54
#   32              202    94    882     57
#   64              202    93    960     57
#   128             255   105    996     51
#   256             252   166   1382     72
#   np.fft.fftn     547   554   8809     57
# Z/211 is one FFT axis below 256, so that column is noise there.  No block
# size wins on all three F_p^n at once, and 16 to 64 are within noise on
# F5^5 and F3^7.  At 32, F5^5 has the blocks (5,), (5, 5), (5, 5), and
# Z/5 x Z/6 or F2^5 is one block.
_DENSE_BLOCK = 32


@lru_cache(maxsize=64)
def _character_table(orders: tuple[int, ...]) -> np.ndarray:
    """W[x, xi] = e(-xi.x) on Z/n1 x ... x Z/nk, both indices row-major
    (read-only: one array is shared by every call)."""
    block = GroupSpec(orders)
    idx = np.arange(block.order, dtype=np.int64)
    W = np.exp(-2j * np.pi / block.exponent * block.pairings(idx[None, :], idx[:, None]))
    W.flags.writeable = False
    return W


def dft_values(spec: GroupSpec, values: np.ndarray) -> np.ndarray:
    """Transform a raw value vector (or a batch with trailing group axis),
    one block of axes at a time (see the module docstring).  The result is
    a transposed view: its group axis varies slowest in memory."""
    values = np.asarray(values, dtype=np.complex128)
    batch = values.shape[:-1]
    g = values
    for block in factor_runs(spec.orders, _DENSE_BLOCK):
        m = prod(block)
        x = g.reshape(-1, m)
        g = _character_table(block).T @ x.T if m <= _DENSE_BLOCK else np.fft.fft(x).T
    out = g.reshape(spec.order, -1).T.reshape(batch + (spec.order,))
    out /= spec.order
    return out


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
