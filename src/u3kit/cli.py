"""Command-line surface: every driver behind one binary with deterministic
JSON output.

Exit codes: 0 success, 2 usage error, 3 domain error (error name + message
as JSON on stderr).  Running out of memory is a domain error too: a
MemoryError, such as numpy's for `fw --N 1000000000039`, exits 3 as
BudgetExceeded with the message "out of memory: " and the allocator's own.
Every output embeds a run manifest (command line, seed, version, group,
input digests, wall time); outputs are byte-identical across runs up to the
wall-time field.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import BudgetExceeded, ParseError, U3KitError
from .groups import (
    GroupFunction,
    GroupSpec,
    function_from_json,
    function_to_json,
    parse_group,
)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _read_json(path: str):
    """The JSON value in a file; a file that is missing, unreadable or not
    JSON, or that holds the literal NaN or +-Infinity, raises ParseError.
    A float literal that overflows (1e999) still reads as inf; the decoders
    reject it (function_from_json, _require_finite, integer-only sets)."""

    def nonfinite(name: str):
        raise ParseError(f"cannot read JSON from {path}: {name} is not a finite number")

    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=nonfinite)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written raises ParseError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _write_function(args, out: dict, f: GroupFunction) -> None:
    """--out of a command that makes a function: the file gets the function
    JSON instead of the run's output, and the output names the file."""
    _write(args.out, json.dumps(function_to_json(f)))
    out["written"] = args.out
    args.out = None


def _decoded(decode, raw, what: str):
    """decode(raw) for the contents of an input file: contents of the wrong
    shape (missing keys, wrong types or lengths, bad numbers) raise
    ParseError."""
    try:
        return decode(raw)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError, OverflowError,
            AttributeError) as exc:
        raise ParseError(f"bad {what}: {type(exc).__name__}: {exc}") from exc


def _require_finite(values, what: str) -> None:
    """Each value must be a finite real number (Fraction, int or float, not bool)."""
    for v in values:
        real = isinstance(v, (int, float, Fraction)) and not isinstance(v, bool)
        if not real or (isinstance(v, float) and not np.isfinite(v)):
            raise ParseError(f"bad {what}: {v!r} is not a finite number")


def _load_function(args) -> GroupFunction:
    if getattr(args, "input", None):
        return function_from_json(_read_json(args.input))
    if getattr(args, "expr", None):
        from .exprparse import parse_expr

        if not getattr(args, "group", None):
            raise ParseError("--expr requires --group")
        return parse_expr(args.expr, parse_group(args.group))
    raise ParseError("provide --input FILE or --expr STRING")


def _set_members(spec: GroupSpec, values) -> list[int]:
    """Set members are element indices: integers in 0..|G|-1."""
    if not isinstance(values, list):
        raise ParseError("a set must be a list of element indices")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < spec.order:
            raise ParseError(f"set member {v!r} is not an element index 0..{spec.order - 1}")
    return values


def _int_list(s: str, what: str) -> list[int]:
    """Comma-separated integers, spaces and empty entries ignored; any other
    entry raises ParseError."""
    try:
        return [int(v) for v in s.replace(" ", "").split(",") if v != ""]
    except ValueError as exc:
        raise ParseError(f"bad {what} {s!r}: {exc}") from exc


def _int_vectors(spec: GroupSpec, s: str, what: str) -> list[list[int]]:
    """Semicolon-separated vectors of spec.rank integers each, at least one."""
    vectors = [_int_list(v, what) for v in s.split(";")]
    if any(len(v) != spec.rank for v in vectors):
        raise ParseError(f"bad {what} {s!r}: expected vectors of {spec.rank} integers, ';'-separated")
    return vectors


def _parse_set(spec: GroupSpec, s: str) -> list[int]:
    return _set_members(spec, _int_list(s, "set"))


def _load_set(spec: GroupSpec, path: str) -> list[int]:
    return _set_members(spec, _read_json(path))


def _dual_list(spec: GroupSpec, s: str) -> list[int]:
    """Dual indices from "1,17" on cyclic groups or "1,0;0,1"
    (semicolon-separated vectors) on products.  At least one frequency."""
    if ";" in s or spec.rank > 1:
        return [spec.index_of(v) for v in _int_vectors(spec, s, "frequency list")]
    values = _int_list(s, "frequency list")
    if not values:
        raise ParseError(f"bad frequency list {s!r}: no frequency given")
    return [spec.index_of([v]) for v in values]


def _coset_subgroup(spec: GroupSpec, H: str):
    """--H: "whole", "div:d" (d Z/n in every factor, d dividing each n) or
    "span:v;w;..." (the F_p-span of the vectors, for G = F_p^k with p prime)."""
    from .modlinalg import BoxSubgroup, PrimeSubspace, is_prime

    if H == "whole":
        if spec.rank > 1 and len(set(spec.orders)) == 1:
            return PrimeSubspace.whole(spec)
        return BoxSubgroup.whole(spec)
    if H.startswith("div:"):
        d = _int_list(H[4:], "--H div")
        if len(d) != 1 or d[0] < 1 or any(n % d[0] for n in spec.orders):
            raise ParseError(f"bad --H {H!r}: d must be one positive integer dividing every factor order")
        return BoxSubgroup(spec, (d[0],) * spec.rank)
    if H.startswith("span:"):
        if len(set(spec.orders)) != 1 or not is_prime(spec.orders[0]):
            raise ParseError(f"bad --H {H!r}: span needs a group F_p^k with p prime, not {spec}")
        return PrimeSubspace.from_generators(spec, _int_vectors(spec, H[5:], "--H span"))
    raise ParseError("--H must be whole, div:d or span:...")


def _positive_int(s: str) -> int:
    n = int(s)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {s}")
    return n


def _seed(s: str) -> int:
    """argparse type for --seed: a non-negative integer, as numpy's
    generators take."""
    n = int(s)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {s}")
    return n


def _eta(s: str) -> float:
    """argparse type for eta: a finite number in (0, 1]."""
    try:
        eta = float(s)
    except ValueError:
        eta = float("nan")
    if not 0 < eta <= 1:  # also false for nan
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1], got {s}")
    return eta


def _radius(upper: Fraction, closed: bool):
    """argparse type for a radius: the fraction with denominator at most 10^6
    nearest to a number, which must lie in (0, upper], or (0, upper) when
    not closed."""
    interval = f"(0, {upper}{']' if closed else ')'}"

    def parse(s: str) -> Fraction:
        try:
            r = Fraction(float(s)).limit_denominator(10**6)
        except (ValueError, OverflowError):  # not a number, nan, inf
            r = None
        if r is None or not (0 < r < upper or closed and r == upper):
            raise argparse.ArgumentTypeError(f"expected a number in {interval} at 1e-6 resolution, got {s}")
        return r

    return parse


# --- subcommand handlers -------------------------------------------------------


def _cmd_norm(args) -> dict:
    from .norms import gowers_norm

    f = _load_function(args)
    rep = gowers_norm(f, args.d, method=args.method, unchecked=args.unchecked)
    return {"value": rep.value, "d": rep.d, "method": rep.method}


def _cmd_u3_oracle(args) -> dict:
    from .norms import u3_oracle_bracket, u3_oracle_coset

    f = _load_function(args)
    spec = f.owner
    if args.kind == "coset":
        H = _coset_subgroup(spec, args.H)
        if not 0 <= args.y < spec.order:
            raise ParseError(f"--y {args.y} is not an element index 0..{spec.order - 1}")
        rep = u3_oracle_coset(f, (args.y, H))
        return rep.to_json()
    S = _dual_list(spec, args.S)
    if args.rho is not None:
        from .bohr import bohr_set

        region = bohr_set(spec, S, args.rho)
    else:
        region = np.arange(spec.order)
    rep = u3_oracle_bracket(f, region, S, args.grid)
    return rep.to_json()


def _cmd_aps(args) -> dict:
    from .forms import count_aps

    spec = parse_group(args.group)
    return count_aps(spec, _parse_set(spec, args.set), args.k).to_json()


def _cmd_gvn(args) -> dict:
    from .forms import gvn_slack

    fs = [function_from_json(_read_json(path)) for path in args.inputs]
    if len(fs) == 1:
        fs = fs * (args.k or 4)
    elif not 3 <= len(fs) <= 5:
        raise ParseError(f"gvn takes one input (used --k times) or 3 to 5 inputs, not {len(fs)}")
    elif args.k is not None and args.k != len(fs):
        raise ParseError(f"gvn got {len(fs)} inputs but --k {args.k}")
    return {"slack": gvn_slack(fs, unchecked=args.unchecked), "k": len(fs)}


def _cmd_bohr(args) -> dict:
    from .bohr import bohr_set, coset_progression_in_bohr, find_regular_rho, is_regular

    spec = parse_group(args.group)
    S = _dual_list(spec, args.S)
    out: dict = {"group": args.group, "d": len(S)}
    rho = args.rho  # a Fraction, see _radius
    B = bohr_set(spec, S, rho)
    out["rho"] = f"{rho.numerator}/{rho.denominator}"
    out["size"] = len(B)
    out["regular"] = is_regular(B)
    if args.find_regular is not None:
        r = find_regular_rho(spec, S, args.find_regular)
        out["regular_rho"] = f"{r.numerator}/{r.denominator}"
        out["regular_rho_size"] = len(B.with_rho(r))
    if args.progression:
        ext = coset_progression_in_bohr(spec, S, rho)
        out["progression"] = ext.progression.to_json()
        out["progression"]["left_inclusion_ok"] = ext.left_inclusion_ok
        out["progression"]["right_inclusion_ok"] = ext.right_inclusion_ok
    return out


def _cmd_bogolyubov(args) -> dict:
    from .bohr import BohrSet, bogolyubov, iterated_sumset

    spec = parse_group(args.group)
    A = _parse_set(spec, args.set)
    S = bogolyubov(spec, A)
    quarter = BohrSet(spec, tuple(S), Fraction(1, 4))
    two = set(iterated_sumset(spec, A, 2, 2).tolist())
    included = set(quarter.members.tolist()) <= two
    return {
        "S": [list(spec.coords_of(xi)) for xi in S],
        "size_bound": 2.0 * (len(A) / spec.order) ** -2,
        "bohr_size": len(quarter),
        "included_in_2A_minus_2A": included,
    }


def _cmd_progression(args) -> dict:
    from .bohr import coset_progression_in_bohr

    spec = parse_group(args.group)
    S = _dual_list(spec, args.S)
    ext = coset_progression_in_bohr(spec, S, args.rho)
    out = ext.progression.to_json()
    out.update(
        {
            "rank": ext.rank,
            "left_radius": ext.left_radius,
            "left_inclusion_ok": ext.left_inclusion_ok,
            "right_inclusion_ok": ext.right_inclusion_ok,
            "independent_images": ext.independent_images,
            "basis_product_certified": ext.basis_product_certified,
        }
    )
    return out


def _cmd_quad_classify(args) -> dict:
    from .quadratic import classify_global_quadratic

    spec = parse_group(args.group)

    def dec(v):
        if isinstance(v, str):
            n, d = v.split("/")
            return Fraction(int(n), int(d))
        _require_finite([v], "phase value")
        return Fraction(v).limit_denominator(10**9)

    def table(raw):
        if not isinstance(raw, list) or len(raw) != spec.order:
            raise ParseError(f"a phase table must be a JSON list of {spec.order} values")
        return [dec(v) for v in raw]

    phi = _decoded(table, _read_json(args.input), "phase table")
    Q = classify_global_quadratic(phi, spec)
    return Q.to_json()


def _cmd_bracket(args) -> dict:
    from .quadratic import BracketQuadratic

    bq = _decoded(BracketQuadratic.from_json, _read_json(args.bq), "bracket quadratic")
    if bq.N < 1:
        raise ParseError(f"bad bracket quadratic: N = {bq.N} is not positive")
    _require_finite([*(v for row in bq.quad for v in row), *bq.lin, bq.const], "bracket quadratic")
    out: dict = {"N": bq.N, "S": list(bq.freqs)}
    if args.n is not None:
        out["n"] = args.n
        out["value"] = float(bq.eval(args.n))
    if args.out:
        _write_function(args, out, GroupFunction(parse_group(f"Z/{bq.N}"), bq.exp_values()))
    return out


def _cmd_inverse_f5(args) -> dict:
    from .inverse_f5 import quadratic_obstruction

    return quadratic_obstruction(_load_function(args), args.eta, seed=args.seed).to_json()


def _cmd_nilseq(args) -> dict:
    from .nil import CANONICAL_CUTOFF, BlockFunction, NilFunction, NilSystem, e, nilsequence

    sysm = _decoded(NilSystem.from_json, _read_json(args.system), "nil system")
    _require_finite([v for f0 in sysm.factors for v in (f0.alpha, f0.beta, f0.gamma)], "nil system")
    name = args.F
    if not name.startswith("builtin:"):
        raise ParseError("only builtin:one / builtin:chi_e functions are supported")
    kind = name[8:]
    chi = CANONICAL_CUTOFF
    blocks = []
    pos = 0
    for f0 in sysm.factors:
        if kind == "one":
            blocks.append(BlockFunction(pos, 1, (lambda *c: 1.0), 0.0))
        elif kind == "chi_e":
            if f0.kind == "circle":
                blocks.append(BlockFunction(pos, 1, (lambda x: e(x)), 2 * np.pi))
            elif f0.kind == "skew":
                blocks.append(BlockFunction(pos, 1, (lambda x, y: e(y)), 2 * np.pi))
            else:
                blocks.append(
                    BlockFunction(pos, 1, (lambda x, y, z: chi(x) * e(y)), chi.max_slope + 2 * np.pi)
                )
        else:
            raise ParseError(f"unknown builtin {kind!r}")
        pos += 1
    F = NilFunction(sysm, blocks)
    parse_group(f"Z/{args.N}")  # a ParseError past the 64-bit bound on the group order
    try:
        seq = nilsequence(F, sysm, sysm.zero_point(), args.N)
    except (ValueError, OverflowError) as exc:  # inf or nan reached an integer lift
        raise ParseError(f"bad nil system: its orbit is not finite in floats ({exc})") from exc
    out = {"N": args.N, "dimension": sysm.dimension}
    if args.out:
        _write_function(args, out, seq)
    return out


def _cmd_hp_check(args) -> dict:
    from .nil import hall_petresco_next, nil_frac, parallelepiped_deviation

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    if args.k == 3:
        for _ in range(args.trials):
            a, b, r = rng.uniform(-0.5, 0.5, size=3)
            res = hall_petresco_next([a, a + r], 3)
            worst = max(worst, abs(nil_frac(res - (a + 2 * r))))
    else:
        for _ in range(args.trials):
            worst = max(worst, parallelepiped_deviation(rng))
    return {"k": args.k, "trials": args.trials, "max_deviation": worst, "pass": worst < 1e-9}


def _cmd_fw(args) -> dict:
    from .experiments import fw_counterexample

    f = fw_counterexample(args.N)
    out = {"N": args.N, "support": int(np.sum(np.abs(f.values) > 0))}
    if args.out:
        _write_function(args, out, f)
    if args.norm:
        from .norms import gowers_norm

        out["u3"] = gowers_norm(f, 3).value
    return out


def _cmd_scan(args) -> dict:
    from .experiments import quadratic_correlation_scan

    f = _load_function(args)
    res = quadratic_correlation_scan(f, mode=args.mode, seed=args.seed)
    out = res.to_json()
    if args.csv:
        _write(args.csv, f"a,b,correlation\n{res.a},{res.b},{res.value!r}\n")
        out["csv"] = args.csv
    return out


def _cmd_increment(args) -> dict:
    from .experiments import IncrementThresholds, density_increment_f5

    spec = parse_group(f"F5^{args.n}")
    A = _load_set(spec, args.set)
    th = IncrementThresholds(eta=args.eta, seed=args.seed, force=args.force)
    return density_increment_f5(spec, A, th).to_json()


def _cmd_driver(args) -> dict:
    from .experiments import IncrementThresholds, szemeredi_driver

    spec = parse_group(f"F5^{args.n}")
    A = _load_set(spec, args.set)
    trace = szemeredi_driver(spec, A, IncrementThresholds(seed=args.seed))
    return {
        "trace": [
            {
                "depth": s.depth,
                "dimension": s.dimension,
                "density": s.density,
                "outcome": s.outcome,
                "increment": s.increment,
            }
            for s in trace
        ]
    }


def _cmd_selftest(args) -> dict:
    from .selftest import run_selftest

    results = run_selftest()
    for name, ok in results:
        print(("PASS " if ok else "FAIL ") + name, file=sys.stderr)
    return {"passed": sum(1 for _, ok in results if ok), "total": len(results),
            "ok": all(ok for _, ok in results)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    ap = argparse.ArgumentParser(prog="u3kit", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, group=True, func=False, seed=False):
        """group: True for an optional --group, "required", or False for none."""
        p.add_argument("--out", help="write the result JSON here as well")
        if group:
            p.add_argument("--group", required=group == "required",
                           help='group spec, e.g. "Z/101", "F5^3", "Z/4xZ/9"')
        if func:
            p.add_argument("--input", help="GroupFunction JSON file")
            p.add_argument("--expr", help="expression, e.g. \"e((3*x^2+x)/101)\"")
        if seed:
            p.add_argument("--seed", type=_seed, default=None,
                           help="default: $U3KIT_SEED, else 0")

    p = sub.add_parser("norm", help="Gowers uniformity norm")
    common(p, func=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", default="recursive", choices=["direct", "recursive"])
    p.add_argument("--unchecked", action="store_true")
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("u3-oracle", help="quadratic bias oracles")
    common(p, func=True)
    p.add_argument("--kind", choices=["coset", "bracket"], default="coset")
    p.add_argument("--y", type=int, default=0)
    p.add_argument("--H", default="whole")
    p.add_argument("--S", default="")
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--rho", type=_radius(Fraction(1), closed=True), default=None)
    p.set_defaults(handler=_cmd_u3_oracle)

    p = sub.add_parser("aps", help="arithmetic progression counts")
    common(p, group="required")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=_positive_int, default=4)
    p.set_defaults(handler=_cmd_aps)

    p = sub.add_parser("gvn", help="generalized von Neumann slack")
    common(p)
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--k", type=int, default=None, choices=[3, 4, 5],
                   help="forms of one input (default 4); with several inputs, their count")
    p.add_argument("--unchecked", action="store_true")
    p.set_defaults(handler=_cmd_gvn)

    p = sub.add_parser("bohr", help="Bohr set report")
    common(p, group="required")
    p.add_argument("--S", required=True)
    p.add_argument("--rho", type=_radius(Fraction(1), closed=True), required=True)
    p.add_argument("--find-regular", dest="find_regular", type=_radius(Fraction(1, 2), closed=False),
                   default=None)
    p.add_argument("--progression", action="store_true")
    p.set_defaults(handler=_cmd_bohr)

    p = sub.add_parser("bogolyubov", help="large spectrum and sumset inclusion")
    common(p, group="required")
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_bogolyubov)

    p = sub.add_parser("progression", help="coset progression inside a Bohr set")
    common(p, group="required")
    p.add_argument("--S", required=True)
    p.add_argument("--rho", type=_radius(Fraction(1), closed=True), required=True)
    p.set_defaults(handler=_cmd_progression)

    p = sub.add_parser("quad-classify", help="classify a global quadratic phase")
    common(p, group="required")
    p.add_argument("--input", required=True, help="JSON list of exact 'p/q' values")
    p.set_defaults(handler=_cmd_quad_classify)

    p = sub.add_parser("bracket", help="bracket quadratic evaluation/generation")
    common(p, group=False)
    p.add_argument("--bq", required=True, help="BracketQuadratic JSON file")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("inverse-f5", help="quadratic obstruction pipeline")
    common(p, func=True, seed=True)
    p.add_argument("--eta", type=_eta, required=True)
    p.set_defaults(handler=_cmd_inverse_f5)

    p = sub.add_parser("nilseq", help="generate a truncated nilsequence")
    common(p, group=False)
    p.add_argument("--system", required=True)
    p.add_argument("--F", default="builtin:chi_e")
    p.add_argument("--N", type=_positive_int, required=True)
    p.set_defaults(handler=_cmd_nilseq)

    p = sub.add_parser("hp-check", help="parallelepiped-constraint check")
    common(p, group=False, seed=True)
    p.add_argument("--k", type=int, default=4, choices=[3, 4])
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.set_defaults(handler=_cmd_hp_check)

    p = sub.add_parser("fw", help="two-scale U^3 counterexample")
    common(p, group=False)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--norm", action="store_true", help="also compute U^3")
    p.set_defaults(handler=_cmd_fw)

    p = sub.add_parser("scan", help="quadratic phase correlation scan")
    common(p, func=True, seed=True)
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("increment", help="one density-increment step on F5^n")
    common(p, group=False, seed=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, help="JSON file with element indices")
    p.add_argument("--eta", type=_eta, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_increment)

    p = sub.add_parser("driver", help="iterated density increment")
    common(p, group=False, seed=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_driver)

    p = sub.add_parser("selftest", help="run the quick invariant suites")
    common(p, group=False)
    p.set_defaults(handler=_cmd_selftest)
    return ap


def _run(args, argv: list[str], t0: float) -> str:
    """The handler's output JSON, also written to --out before anything is
    printed, so a failed write leaves stdout empty."""
    result = args.handler(args)
    digests = {}
    for k, v in vars(args).items():
        if k in ("input", "set", "system", "bq") and isinstance(v, str) and os.path.exists(v):
            digests[k] = _digest(v)
        if k == "inputs" and isinstance(v, list):
            for i, path in enumerate(v):
                if os.path.exists(path):
                    digests[f"inputs[{i}]"] = _digest(path)
    manifest = {
        "command": ["u3kit"] + list(argv),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "group": getattr(args, "group", None),
        "input_digests": digests,
        "wall_time_ms": round((time.time() - t0) * 1000, 3),
    }
    payload = {"manifest": _jsonable(manifest), "result": _jsonable(result)}
    text = json.dumps(payload, indent=None, separators=(",", ":"), sort_keys=True)
    if getattr(args, "out", None):
        _write(args.out, text)
    return text


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """`--S -1,0` as `--S=-1,0`: argparse takes a value that starts with "-"
    and is not one plain number for an option."""
    out: list[str] = []
    for a in argv:
        if out and out[-1] == "--S" and a[:1] == "-" and a[1:2].isdigit():
            out[-1] = "--S=" + a
        else:
            out.append(a)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser()
    args = ap.parse_args(_attach_negative_lists(argv))
    if getattr(args, "seed", 0) is None:  # read per call, so a changed U3KIT_SEED applies
        raw = os.environ.get("U3KIT_SEED", "0")
        try:
            args.seed = _seed(raw)
        except (ValueError, argparse.ArgumentTypeError):
            ap.error(f"U3KIT_SEED must be a non-negative integer, got {raw!r}")
    t0 = time.time()
    try:
        text = _run(args, argv, t0)
    except (U3KitError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # an allocation the host cannot make
            exc = BudgetExceeded(f"out of memory: {exc}")
        json.dump({"error": exc.name, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
