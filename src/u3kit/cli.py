"""Command-line surface: every driver behind one binary with deterministic
JSON output.

Exit codes: 0 success, 2 usage error, 3 domain error (error name + message
as JSON on stderr).  Every output embeds a run manifest (command line, seed,
version, group, input digests, wall time); outputs are byte-identical across
runs up to the wall-time field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import ParseError, U3KitError
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


def _load_function(args) -> GroupFunction:
    if getattr(args, "input", None):
        with open(args.input) as fh:
            return function_from_json(json.load(fh))
    if getattr(args, "expr", None):
        from .exprparse import parse_expr

        if not getattr(args, "group", None):
            raise ParseError("--expr requires --group")
        return parse_expr(args.expr, parse_group(args.group))
    raise ParseError("provide --input FILE or --expr STRING")


def _parse_set(s: str) -> list[int]:
    return [int(v) for v in s.replace(" ", "").split(",") if v != ""]


def _dual_list(spec: GroupSpec, s: str):
    """"1,17" on cyclic groups; "1,0;0,1" (semicolon-separated vectors) on
    products."""
    s = s.replace(" ", "")
    if ";" in s or spec.rank > 1:
        parts = s.split(";")
        return [spec.dual([int(v) for v in p.split(",")]) for p in parts]
    return [spec.dual([int(v)]) for v in s.split(",")]


def _positive_int(s: str) -> int:
    n = int(s)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {s}")
    return n


# --- subcommand handlers -------------------------------------------------------


def _cmd_norm(args) -> dict:
    from .norms import gowers_norm

    f = _load_function(args)
    rep = gowers_norm(f, args.d, method=args.method, unchecked=args.unchecked)
    return {"value": rep.value, "d": rep.d, "method": rep.method}


def _cmd_u3_oracle(args) -> dict:
    from .modlinalg import BoxSubgroup, PrimeSubspace
    from .norms import u3_oracle_bracket, u3_oracle_coset

    f = _load_function(args)
    spec = f.owner
    if args.kind == "coset":
        if args.H == "whole":
            H = (
                PrimeSubspace.whole(spec)
                if spec.rank > 1 and len(set(spec.orders)) == 1
                else BoxSubgroup.whole(spec)
            )
        elif args.H.startswith("div:"):
            H = BoxSubgroup(spec, (int(args.H[4:]),) * spec.rank)
        elif args.H.startswith("span:"):
            rows = [[int(v) for v in r.split(",")] for r in args.H[5:].split(";")]
            H = PrimeSubspace.from_generators(spec, rows)
        else:
            raise ParseError("--H must be whole, div:d or span:...")
        y = spec.element_by_index(args.y)
        rep = u3_oracle_coset(f, (y, H))
        return rep.to_json()
    S = _dual_list(spec, args.S)
    if args.rho is not None:
        from .bohr import bohr_set

        region = bohr_set(spec, S, Fraction(args.rho).limit_denominator(10**6))
    else:
        region = np.arange(spec.order)
    rep = u3_oracle_bracket(f, region, S, args.grid)
    return rep.to_json()


def _cmd_aps(args) -> dict:
    from .forms import count_aps

    spec = parse_group(args.group)
    return count_aps(spec, _parse_set(args.set), args.k).to_json()


def _cmd_gvn(args) -> dict:
    from .forms import gvn_slack

    fs = []
    for path in args.inputs:
        with open(path) as fh:
            fs.append(function_from_json(json.load(fh)))
    if len(fs) == 1:
        fs = fs * args.k
    return {"slack": gvn_slack(fs, unchecked=args.unchecked), "k": len(fs)}


def _cmd_bohr(args) -> dict:
    from .bohr import bohr_set, coset_progression_in_bohr, find_regular_rho, is_regular

    spec = parse_group(args.group)
    S = _dual_list(spec, args.S)
    out: dict = {"group": args.group, "d": len(S)}
    rho = Fraction(args.rho).limit_denominator(10**6)
    B = bohr_set(spec, S, rho)
    out["rho"] = f"{rho.numerator}/{rho.denominator}"
    out["size"] = len(B)
    out["regular"] = is_regular(B)
    if args.find_regular is not None:
        r = find_regular_rho(spec, S, Fraction(args.find_regular).limit_denominator(10**6))
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
    A = _parse_set(args.set)
    S = bogolyubov(spec, A)
    quarter = BohrSet(spec, tuple(S), Fraction(1, 4))
    two = set(iterated_sumset(spec, A, 2, 2).tolist())
    included = set(quarter.members.tolist()) <= two
    return {
        "S": [list(xi.coords) for xi in S],
        "size_bound": 2.0 * (len(A) / spec.order) ** -2,
        "bohr_size": len(quarter),
        "included_in_2A_minus_2A": included,
    }


def _cmd_progression(args) -> dict:
    from .bohr import coset_progression_in_bohr

    spec = parse_group(args.group)
    S = _dual_list(spec, args.S)
    ext = coset_progression_in_bohr(spec, S, Fraction(args.rho).limit_denominator(10**6))
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
    with open(args.input) as fh:
        raw = json.load(fh)

    def dec(v):
        if isinstance(v, str):
            n, d = v.split("/")
            return Fraction(int(n), int(d))
        return Fraction(v).limit_denominator(10**9)

    phi = [dec(v) for v in raw]
    Q = classify_global_quadratic(phi, spec)
    return Q.to_json()


def _cmd_bracket(args) -> dict:
    from .quadratic import BracketQuadratic

    with open(args.bq) as fh:
        bq = BracketQuadratic.from_json(json.load(fh))
    out: dict = {"N": bq.N, "S": list(bq.freqs)}
    if args.n is not None:
        out["n"] = args.n
        out["value"] = float(bq.eval(args.n))
    if args.out:
        f = GroupFunction(GroupSpec((bq.N,)), bq.exp_values())
        with open(args.out, "w") as fh:
            json.dump(function_to_json(f), fh)
        out["written"] = args.out
        args.out = None
    return out


def _cmd_inverse_f5(args) -> dict:
    from .inverse_f5 import quadratic_obstruction
    from .norms import gowers_norm

    f = _load_function(args)
    u3 = gowers_norm(f, 3, unchecked=True).value
    rep = quadratic_obstruction(f, args.eta, seed=args.seed, u3_value=u3)
    return rep.to_json()


def _cmd_nilseq(args) -> dict:
    from .nil import CANONICAL_CUTOFF, BlockFunction, NilFunction, NilSystem, e, nilsequence

    with open(args.system) as fh:
        sysm = NilSystem.from_json(json.load(fh))
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
    F = NilFunction(sysm, blocks, sum(b.lipschitz for b in blocks))
    seq = nilsequence(F, sysm, sysm.zero_point(), args.N)
    out = {"N": args.N, "dimension": sysm.dimension}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(function_to_json(seq), fh)
        out["written"] = args.out
        args.out = None
    return out


def _cmd_hp_check(args) -> dict:
    from .nil import FundamentalFactor, hall_petresco_next, nil_frac

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    if args.k == 3:
        for _ in range(args.trials):
            a, b, r = rng.uniform(-0.5, 0.5, size=3)
            res = hall_petresco_next([a, a + r], 3)
            worst = max(worst, abs(nil_frac(res - (a + 2 * r))))
    else:
        for _ in range(args.trials):
            g = FundamentalFactor(
                "heis", alpha=rng.uniform(), beta=rng.uniform(), gamma=rng.uniform()
            )
            x = tuple(rng.uniform(-0.5, 0.5, size=3))
            res = hall_petresco_next([x, g.orbit(x, 1), g.orbit(x, 2)], 4)
            tgt = g.orbit(x, 3)
            from .nil import NilPoint, NilSystem, point_distance

            worst = max(
                worst,
                point_distance(NilSystem((g,)), NilPoint((tuple(res),)), NilPoint((tgt,))),
            )
    return {"k": args.k, "trials": args.trials, "max_deviation": worst, "pass": worst < 1e-9}


def _cmd_fw(args) -> dict:
    from .experiments import fw_counterexample

    f = fw_counterexample(args.N)
    out = {"N": args.N, "support": int(np.sum(np.abs(f.values) > 0))}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(function_to_json(f), fh)
        out["written"] = args.out
        args.out = None
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
        with open(args.csv, "w") as fh:
            fh.write("a,b,correlation\n")
            fh.write(f"{res.a},{res.b},{res.value!r}\n")
        out["csv"] = args.csv
    return out


def _cmd_increment(args) -> dict:
    from .experiments import IncrementThresholds, density_increment_f5

    spec = parse_group(f"F5^{args.n}")
    with open(args.set) as fh:
        A = json.load(fh)
    th = IncrementThresholds(eta=args.eta, seed=args.seed, force=args.force)
    return density_increment_f5(spec, A, th).to_json()


def _cmd_driver(args) -> dict:
    from .experiments import IncrementThresholds, szemeredi_driver

    spec = parse_group(f"F5^{args.n}")
    with open(args.set) as fh:
        A = json.load(fh)
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="u3kit", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, group=True, func=False, seed=False):
        p.add_argument("--out", help="write the result JSON here as well")
        if group:
            p.add_argument("--group", help='group spec, e.g. "Z/101", "F5^3", "Z/4xZ/9"')
        if func:
            p.add_argument("--input", help="GroupFunction JSON file")
            p.add_argument("--expr", help="expression, e.g. \"e((3*x^2+x)/101)\"")
        if seed:
            p.add_argument("--seed", type=int,
                           default=int(os.environ.get("U3KIT_SEED", "0")))

    p = sub.add_parser("norm", help="Gowers uniformity norm")
    common(p, func=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", default="auto", choices=["auto", "direct", "recursive"])
    p.add_argument("--unchecked", action="store_true")
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("u3-oracle", help="quadratic bias oracles")
    common(p, func=True)
    p.add_argument("--kind", choices=["coset", "bracket"], default="coset")
    p.add_argument("--y", type=int, default=0)
    p.add_argument("--H", default="whole")
    p.add_argument("--S", default="")
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--rho", type=float, default=None)
    p.set_defaults(handler=_cmd_u3_oracle)

    p = sub.add_parser("aps", help="arithmetic progression counts")
    common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(handler=_cmd_aps)

    p = sub.add_parser("gvn", help="generalized von Neumann slack")
    common(p)
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--unchecked", action="store_true")
    p.set_defaults(handler=_cmd_gvn)

    p = sub.add_parser("bohr", help="Bohr set report")
    common(p)
    p.add_argument("--S", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--find-regular", dest="find_regular", type=float, default=None)
    p.add_argument("--progression", action="store_true")
    p.set_defaults(handler=_cmd_bohr)

    p = sub.add_parser("bogolyubov", help="large spectrum and sumset inclusion")
    common(p)
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_bogolyubov)

    p = sub.add_parser("progression", help="coset progression inside a Bohr set")
    common(p)
    p.add_argument("--S", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.set_defaults(handler=_cmd_progression)

    p = sub.add_parser("quad-classify", help="classify a global quadratic phase")
    common(p)
    p.add_argument("--input", required=True, help="JSON list of exact 'p/q' values")
    p.set_defaults(handler=_cmd_quad_classify)

    p = sub.add_parser("bracket", help="bracket quadratic evaluation/generation")
    common(p, group=False)
    p.add_argument("--bq", required=True, help="BracketQuadratic JSON file")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("inverse-f5", help="quadratic obstruction pipeline")
    common(p, func=True, seed=True)
    p.add_argument("--n", type=int, default=None, help="informational dimension")
    p.add_argument("--eta", type=float, required=True)
    p.set_defaults(handler=_cmd_inverse_f5)

    p = sub.add_parser("nilseq", help="generate a truncated nilsequence")
    common(p, group=False)
    p.add_argument("--system", required=True)
    p.add_argument("--F", default="builtin:chi_e")
    p.add_argument("--N", type=int, required=True)
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
    p.add_argument("--eta", type=float, default=None)
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


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        result = args.handler(args)
    except U3KitError as exc:
        json.dump({"error": exc.name, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
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
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
