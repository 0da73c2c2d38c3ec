"""Quick in-process invariant suites behind `u3kit selftest`.

A curated, fast subset of the property checks: exact pairing bilinearity
(on indices, through ``GroupSpec.pairings`` and ``add_indices``),
Plancherel and the convolution identity, norm monotonicity and the degree-2
Fourier identity, direct against recursive U^3 and U^4 on a group with
2-torsion, the exact quadratic scan against brute force, the U^3 value and
the -h witnesses of the phase-derivative graph, the von Neumann slack, Bohr
size bounds, and the parallelepiped constraint.  The pytest suite is the
full surface; this is a smoke check for installations.
"""

from __future__ import annotations

import numpy as np

from .fourier import convolve, dft_values
from .forms import gvn_slack
from .groups import GroupFunction, GroupSpec, parse_group
from .inverse_f5 import phase_derivative_graph
from .norms import _TIE_RTOL, _translator, gowers_norm, quadratic_scan, u2_bias


def _random_bounded(spec: GroupSpec, rng) -> GroupFunction:
    mags = rng.uniform(0, 1, spec.order)
    args = rng.uniform(0, 1, spec.order)
    return GroupFunction(spec, mags * np.exp(2j * np.pi * args))


def run_selftest() -> list[tuple[str, bool]]:
    rng = np.random.default_rng(0)
    out: list[tuple[str, bool]] = []

    spec = parse_group("Z/4xZ/9")
    xi, xj, x, y = rng.integers(spec.order, size=(50, 4)).T
    pr, D = spec.pairings, spec.exponent
    ok = np.all((pr(spec.add_indices(xi, xj), x) - pr(xi, x) - pr(xj, x)) % D == 0)
    ok &= np.all((pr(xi, spec.add_indices(x, y)) - pr(xi, x) - pr(xi, y)) % D == 0)
    out.append(("pairing bilinearity (exact)", bool(ok)))

    spec = parse_group("Z/60")
    f = _random_bounded(spec, rng)
    F = dft_values(spec, f.values)
    ok = abs(np.mean(np.abs(f.values) ** 2) - np.sum(np.abs(F) ** 2)) < 1e-10
    out.append(("Plancherel identity", bool(ok)))

    g = _random_bounded(spec, rng)
    lhs = dft_values(spec, convolve(f, g).values)
    rhs = dft_values(spec, f.values) * dft_values(spec, g.values)
    out.append(("convolution identity", bool(np.max(np.abs(lhs - rhs)) < 1e-10)))

    spec = parse_group("Z/31")
    f = _random_bounded(spec, rng)
    u1 = gowers_norm(f, 1).value
    u2 = gowers_norm(f, 2).value
    u3 = gowers_norm(f, 3).value
    out.append(("norm monotonicity U1<=U2<=U3", u1 <= u2 + 1e-9 and u2 <= u3 + 1e-9))
    d2 = gowers_norm(f, 2, method="direct").value
    out.append(("U2 direct vs Fourier", abs(d2 - u2) < 1e-9))
    # Z/6 has h = -h at h = 0, 3: a wrong class weight in the recursive
    # kernels shows here (N^5 = 7776 cubes for the direct U^4)
    z6 = _random_bounded(parse_group("Z/6"), np.random.default_rng(6))
    for d in (3, 4):
        direct = gowers_norm(z6, d, method="direct").value
        recursive = gowers_norm(z6, d, method="recursive").value
        out.append((f"U{d} direct vs recursive on Z/6", abs(direct - recursive) < 1e-9))
    out.append(("u2 <= U2 <= sqrt(u2)",
                u2_bias(f).value <= u2 + 1e-9 and u2 <= u2_bias(f).value ** 0.5 + 1e-9))

    # the exact scan, with its cut after every axis, against the brute-force
    # maximum over all 3^6 symmetric C and 3^3 xi, keys in lex order
    # (c_00, c_01, c_02, c_11, c_12, c_22, xi_0, xi_1, xi_2)
    f3 = parse_group("F3^3")
    t = f3.decode(np.arange(f3.order))
    mono = np.array([t[:, i] * t[:, j] * (1 if i == j else 2) for i in range(3) for j in range(i, 3)]
                    + [t[:, i] for i in range(3)])
    keys = np.indices((3,) * 9).reshape(9, -1).T
    noise = _random_bounded(f3, np.random.default_rng(3)).values
    q = t[:, 0] * t[:, 2] + t[:, 1] * t[:, 2] + t[:, 1] ** 2 + t[:, 0]
    g = 0.7 * np.exp(2j * np.pi * q / 3) + 0.3 * noise
    sq = np.abs(np.exp(-2j * np.pi * (keys @ mono % 3) / 3) @ g) ** 2
    [(value, key)] = quadratic_scan(g[None], 3, 3)
    first = keys[int(np.argmax(sq >= sq.max() * (1 - _TIE_RTOL)))]
    out.append(("quadratic scan against brute force on F3^3",
                abs(value - sq.max()) <= 1e-12 * sq.max() and key == tuple(first.tolist())))

    # the -h witnesses read off row h against row -h transformed, on real f (ties |F(xi)| = |F(-xi)|)
    real = GroupFunction(f3, np.random.default_rng(4).uniform(-1, 1, f3.order))
    gamma, every = phase_derivative_graph(real, 0.1), np.arange(f3.order)
    hs = every[f3.neg_indices(every) < every]  # the -h of each class {h, -h}
    sq = np.abs(dft_values(f3, _translator(f3, real.values, every)(hs) * np.conj(real.values))) ** 2
    first = np.argmax(sq >= sq.max(axis=1, keepdims=True) * (1 - _TIE_RTOL), axis=1)
    out.append(("phase-derivative graph: U3 and -h witnesses on F3^3",
                len(gamma) == f3.order and abs(gamma.u3 - gowers_norm(real, 3).value) <= 1e-12
                and (gamma.keys[hs] % f3.order).tolist() == first.tolist()))

    fs = [_random_bounded(spec, rng) for _ in range(4)]
    out.append(("von Neumann slack >= 0", gvn_slack(fs) >= -1e-9))

    from fractions import Fraction

    from .bohr import bohr_set

    spec = parse_group("Z/97")
    ok = True
    for _ in range(10):
        d = int(rng.integers(1, 4))
        S = [int(rng.integers(1, spec.order)) for _ in range(d)]
        rho = Fraction(int(rng.integers(5, 40)), 100)
        B = bohr_set(spec, S, rho)
        ok &= len(B) >= float(rho) ** d * spec.order
        ok &= len(B.with_rho(2 * rho)) <= 5**d * len(B)
    out.append(("Bohr size bounds", ok))

    from .nil import parallelepiped_deviation

    ok = True
    for _ in range(50):
        ok &= parallelepiped_deviation(rng) < 1e-9
    out.append(("parallelepiped constraint k=4", ok))
    return out
