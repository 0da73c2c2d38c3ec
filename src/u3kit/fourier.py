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
axis goes through a length-n FFT.  After each block one transpose moves the
transformed block in front of those done before it, so when every block is
done the output is row-major again.  On
F5^5 `np.fft.fftn` makes five strided passes over length-5 axes; the blocks
(5,), (5,5) and (5,5) make three dense products instead.  `dft` and
`convolve` use the multidimensional FFT directly.
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


def _as_grid(spec: GroupSpec, flat: np.ndarray) -> np.ndarray:
    return flat.reshape(spec.orders)


def dft(f: GroupFunction) -> DualFunction:
    """Fourier coefficients fhat(xi) = E_x f(x) e(-xi.x)."""
    spec = f.owner
    grid = _as_grid(spec, f.values)
    out = np.fft.fftn(grid) / spec.order
    return DualFunction(spec, out.reshape(-1))


# Largest order of a block transformed by one dense character table: a block
# of order m costs m multiply-adds per entry, and each block one transposing
# copy.  Sweep over the rows the U^d kernels transform, in batches of 128
# (U^3: 1563 x F5^5, 1094 x F3^7, 4096 x F2^12; U^4: 5671 x Z/211), ms,
# median of 9 alternating rounds, one thread, 2-core Xeon:
#   _DENSE_BLOCK   F5^5  F3^7  F2^12  Z/211
#   16              165    68    604     37
#   32              137    72    639     46
#   64              139    74    738     44
#   128             194    73    831     43
#   256             199   135   1118     51
#   np.fft.fftn     383   363   7644     31   (5 rounds)
# Z/211 is one FFT axis below 256, so that column is noise there; a repeat
# without 256 read 146/72/585 at 32 and 143/78/773 at 64.  At 32, F5^5 has the
# blocks (5,), (5, 5), (5, 5), and Z/5 x Z/6 or F2^5 is one block.
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
    one block of axes at a time (see the module docstring)."""
    values = np.asarray(values, dtype=np.complex128)
    batch = values.shape[:-1]
    rows = prod(batch)
    g = values
    done, rest = 1, spec.order  # orders of the transformed and the untouched axes
    for block in factor_runs(spec.orders, _DENSE_BLOCK):
        m = prod(block)
        rest //= m
        g = g.reshape(rows * done * rest, m)
        g = g @ _character_table(block) if m <= _DENSE_BLOCK else np.fft.fft(g)
        g = g.reshape(rows, done, rest, m).transpose(0, 3, 1, 2)
        done *= m
    out = g.reshape(batch + (spec.order,))
    out /= spec.order
    return out


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """Normalized convolution f*g(x) = E_y f(y) g(x-y).

    Computed through the transform, using that the transform of f*g is the
    pointwise product of the transforms.
    """
    if f.owner.orders != g.owner.orders:
        raise SpecMismatch("convolve: group mismatch")
    spec = f.owner
    fh = np.fft.fftn(_as_grid(spec, f.values))
    gh = np.fft.fftn(_as_grid(spec, g.values))
    out = np.fft.ifftn(fh * gh) / spec.order
    return GroupFunction(spec, out.reshape(-1))
