"""The k-linear progression-counting form, AP detection, and the
generalized von Neumann inequality as an executable check.

Lambda_k(f_0,...,f_{k-1}) = E_{x,r} f_0(x) f_1(x+r) ... f_{k-1}(x+(k-1)r)
is evaluated directly over all O(N^2) pairs (x, r), in blocks of steps r,
rather than through convolutions: at desk scale this is fast and avoids
transform error in a quantity that other tests use as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd

import numpy as np

from .errors import BadGroupOrder
from .groups import GroupFunction, GroupSpec
from .norms import gowers_norm


@dataclass
class ApCount:
    total: int  # (x, r) pairs including r = 0
    proper: int  # r != 0 and k distinct values
    k: int
    gcd_warning: bool = False

    def to_json(self) -> dict:
        return {"total": self.total, "proper": self.proper, "k": self.k,
                "gcd_warning": self.gcd_warning}


def _gcd_condition(spec: GroupSpec, k: int) -> bool:
    return gcd(spec.order, factorial(k - 1)) == 1


# index elements per block of steps r in _progression_blocks
_BLOCK_ELEMS = 1 << 20


def _progression_blocks(spec: GroupSpec, k: int):
    """All progressions x, x+r, ..., x+(k-1)r, in blocks of consecutive steps r:
    yields (rs, steps, idx) with steps[b, j] = j*rs[b] and idx[b, j, x] =
    x + j*rs[b], one scale_indices and one add_indices call per block."""
    N = spec.order
    js = np.arange(k, dtype=np.int64)
    xs = np.arange(N, dtype=np.int64)
    block = max(1, _BLOCK_ELEMS // (k * N))
    for r0 in range(0, N, block):
        rs = np.arange(r0, min(r0 + block, N), dtype=np.int64)
        steps = spec.scale_indices(js[None, :], rs[:, None])
        yield rs, steps, spec.add_indices(xs[None, None, :], steps[:, :, None])


def lambda_k(fs: list[GroupFunction]) -> complex:
    """E_{x,r} prod_j T^{jr} f_j(x) for k = len(fs) in {3,4,5}."""
    k = len(fs)
    if k not in (3, 4, 5):
        raise ValueError("k must be 3, 4 or 5")
    spec = fs[0].owner
    for f in fs:
        if f.owner.orders != spec.orders:
            from .errors import SpecMismatch

            raise SpecMismatch("lambda_k operands on different groups")
    N = spec.order
    total = 0j
    for _, _, idx in _progression_blocks(spec, k):
        prod = fs[0].values[idx[:, 0]]
        for j in range(1, k):
            prod = prod * fs[j].values[idx[:, j]]
        total += complex(np.sum(prod))
    return total / (N * N)


def count_aps(spec: GroupSpec, A, k: int) -> ApCount:
    """Progression counts in A: total includes r = 0; proper requires r != 0
    and, when gcd(N,(k-1)!) > 1, additionally k distinct values."""
    if k < 1:
        raise ValueError("k must be positive")
    ind = np.zeros(spec.order, dtype=bool)
    ind[[int(a) for a in A]] = True
    total = 0
    proper = 0
    for rs, steps, idx in _progression_blocks(spec, k):
        counts = np.count_nonzero(np.all(ind[idx], axis=1), axis=1)
        srt = np.sort(steps, axis=1)
        distinct = np.all(srt[:, 1:] != srt[:, :-1], axis=1) & (rs != 0)
        total += int(counts.sum())
        proper += int(counts[distinct].sum())
    return ApCount(total=total, proper=proper, k=k, gcd_warning=not _gcd_condition(spec, k))


def gvn_slack(fs: list[GroupFunction], unchecked: bool = False) -> float:
    """min_j ||f_j||_{U^{k-1}} - |Lambda_k(fs)|; nonnegative (within 1e-9)
    whenever gcd(N, (k-1)!) = 1 and all functions are bounded."""
    k = len(fs)
    spec = fs[0].owner
    if not _gcd_condition(spec, k):
        raise BadGroupOrder(f"need gcd(N, {k - 1}!) = 1")
    norms = [gowers_norm(f, k - 1, unchecked=unchecked).value for f in fs]
    return min(norms) - abs(lambda_k(fs))
