"""The benchmark's four seeded workloads: inputs, task lists and output checks.

Every input is generated from the workload seed.  The library sees only the
generated input files and a `--seed` drawn from the workload seed.  A task
runs a `u3kit` subcommand in-process through `u3kit.cli.main(argv)` with
stdout captured, or, where no subcommand covers it, calls the library
function.  Functions are looked up on their module at call time, so the
tracer's runtime wrappers see every call.

Each task's output is checked by invariants that hold on any seed; most are
recomputed here independently of the library.  On the default seed the
results are also compared with the ones recorded in `expected.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from u3kit import cli, experiments, groups, nil, norms, quadratic

FLOAT_REL_TOL = 1e-9  # recorded floats must match within this relative tolerance
FLOAT_ABS_TOL = 1e-12  # floor for values near zero
SLACK = 1e-12  # rounding slack in inequality checks between computed norms
BIAS_TOL = 1e-9  # reported bias against the bias recomputed here


def canon(obj) -> str:
    """The byte form the CLI prints a result in."""
    return json.dumps(obj, indent=None, separators=(",", ":"), sort_keys=True)


@dataclass
class Outcome:
    status: str  # "ok", "miss" (an expected domain exit) or "fail"
    result: object  # the CLI "result", a library task's result, or the exit-3 error
    text: str  # canonical bytes of `result`
    error: str = ""
    seconds: float = 0.0  # wall time of the task, set by the pass runner
    ref_seconds: float = 0.0  # wall time at reference machine speed (see speed.py), timed passes only


@dataclass
class Task:
    name: str
    run: Callable[[dict], Outcome]  # takes the outcomes of the pass so far
    check: Callable[[Outcome, dict], list[str]]  # problems found; empty when correct
    cli: bool


def run_cli(argv: list[str], misses: tuple[str, ...] = ()) -> Outcome:
    """`u3kit <argv>` in-process; exit 3 with an error named in `misses` is a
    miss, any other nonzero exit a failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    if code == 0:
        result = json.loads(out.getvalue())["result"]
        return Outcome("ok", result, canon(result))
    if code == 3:
        info = json.loads(err.getvalue())
        status = "miss" if info.get("error") in misses else "fail"
        return Outcome(status, info, canon(info), "" if status == "miss" else f"exit 3: {info}")
    return Outcome("fail", None, "", f"exit {code}: {err.getvalue()[-400:]}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lib_outcome(result) -> Outcome:
    return Outcome("ok", result, canon(result))


def compare(expected, actual, path: str = "result") -> list[str]:
    """Exact comparison of JSON values, floats within FLOAT_REL_TOL."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, bool) or isinstance(actual, bool):
            return [] if expected is actual else [f"{path}: {actual!r} != {expected!r}"]
        if not isinstance(expected, (int, float)) or not isinstance(actual, (int, float)):
            return [f"{path}: {actual!r} != {expected!r}"]
        if abs(actual - expected) <= max(FLOAT_REL_TOL * abs(expected), FLOAT_ABS_TOL):
            return []
        return [f"{path}: {actual!r} != {expected!r} (rel tol {FLOAT_REL_TOL})"]
    if type(expected) is not type(actual):
        return [f"{path}: type {type(actual).__name__} != {type(expected).__name__}"]
    if isinstance(expected, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in sorted(expected) for p in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual)) for p in compare(e, a, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _unimodular(spec: groups.GroupSpec, rng) -> groups.GroupFunction:
    return groups.GroupFunction(spec, np.exp(2j * np.pi * rng.uniform(size=spec.order)))


def _lib_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _frac(v):
    if isinstance(v, str):
        num, den = v.split("/")
        return Fraction(int(num), int(den))
    return v


def _require_ok(outcome: Outcome) -> list[str]:
    if outcome.status == "fail":
        return [outcome.error or "failed"]
    return []


class Workload:
    """Inputs and tasks of one workload; `smoke` selects toy sizes."""

    name = ""

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.workdir = Path(workdir)
        self.tasks: list[Task] = []

    def generate(self) -> None:
        raise NotImplementedError

    def extra_checks(self, outcomes: dict) -> list[tuple[str, Callable[[], list[str]]]]:
        """Invariant checks that need computation of their own; they run
        outside the timed region, once per run."""
        return []

    def summary(self, outcomes: dict) -> dict:
        return {}

    def _cli(self, name, argv, check, misses=()):
        self.tasks.append(Task(name, lambda ctx: run_cli(argv, misses), check, True))

    def _lib(self, name, fn, check):
        self.tasks.append(Task(name, fn, check, False))


# --- gowers ------------------------------------------------------------------------


class Gowers(Workload):
    """U^2 and U^3 of the two-scale function fw(N) on Z/N, U^3 of a unimodular
    function on F5^5, U^4 of one on Z/211."""

    name = "gowers"

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        fw_sizes = (401,) if self.smoke else (2003, 4001)
        f5 = groups.parse_group("F5^2" if self.smoke else "F5^5")
        cyc = groups.parse_group("Z/31" if self.smoke else "Z/211")
        self.functions = {f"fw{N}": experiments.fw_counterexample(N) for N in fw_sizes}
        self.functions["f5"] = _unimodular(f5, rng)
        self.functions["cyc"] = _unimodular(cyc, rng)
        vals = rng.uniform(size=31) * np.exp(2j * np.pi * rng.uniform(size=31))
        self.small = groups.GroupFunction(groups.parse_group("Z/31"), vals)
        paths = {k: _write_json(self.workdir / f"{k}.json", groups.function_to_json(f))
                 for k, f in self.functions.items()}
        for N in fw_sizes:
            self._cli(f"norm:fw{N}:d2", ["norm", "--input", paths[f"fw{N}"], "--d", "2"],
                      self._check_norm(2))
            self._cli(f"norm:fw{N}:d3", ["norm", "--input", paths[f"fw{N}"], "--d", "3"],
                      self._check_norm(3, below=f"norm:fw{N}:d2"))
        self._cli("norm:f5:d3", ["norm", "--input", paths["f5"], "--d", "3"], self._check_norm(3))
        self._cli("norm:cyc:d4", ["norm", "--input", paths["cyc"], "--d", "4"], self._check_norm(4))

    @staticmethod
    def _check_norm(d: int, below: str | None = None):
        def check(o: Outcome, ctx: dict) -> list[str]:
            if o.status != "ok":
                return _require_ok(o) or [f"unexpected status {o.status}"]
            r = o.result
            probs = []
            if r.get("d") != d or r.get("method") != "recursive":
                probs.append(f"unexpected d/method {r.get('d')}/{r.get('method')}")
            v = r.get("value")
            if not isinstance(v, float) or not 0.0 <= v <= 1.0 + SLACK:
                probs.append(f"U^{d} = {v!r} outside [0, 1] on a bounded input")
            if below and ctx[below].status == "ok" and v < ctx[below].result["value"] - SLACK:
                probs.append(f"U^{d} = {v} below U^{d - 1} = {ctx[below].result['value']}")
            return probs

        return check

    def extra_checks(self, outcomes: dict):
        def chain(key: str, top: str, top_d: int):
            def run() -> list[str]:
                if outcomes[top].status != "ok":
                    return ["no norm to compare"]
                f = self.functions[key]
                vals = [norms.gowers_norm(f, d).value for d in range(2, top_d)]
                vals.append(outcomes[top].result["value"])
                ok = all(a <= b + SLACK for a, b in zip(vals, vals[1:])) and vals[-1] <= 1 + SLACK
                return [] if ok else [f"U^2..U^{top_d} of {key} not increasing to <= 1: {vals}"]

            return run

        def direct_vs_recursive() -> list[str]:
            a = norms.gowers_norm(self.small, 3, method="direct").value
            b = norms.gowers_norm(self.small, 3, method="recursive").value
            return [] if abs(a - b) <= 1e-9 else [f"direct {a} != recursive {b} on Z/31"]

        return [
            ("chain:f5", chain("f5", "norm:f5:d3", 3)),
            ("chain:cyc", chain("cyc", "norm:cyc:d4", 4)),
            ("direct-vs-recursive:Z/31", direct_vs_recursive),
        ]


# --- f5_planted ----------------------------------------------------------------------


def _coords(n: int) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(5)] * n, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)  # row-major index order


def _coset_bias(values: np.ndarray, n: int, y: int, WB, A, b) -> float:
    """|E_t f(y + t.W) e(-(t.A.t + b.t)/5)|, recomputed from the input values."""
    k = len(WB)
    if k == 0:
        return float(abs(values[y]))
    t = _coords(k)
    WB, A, b = (np.array(x, dtype=np.int64) for x in (WB, A, b))
    y_c = np.array(np.unravel_index(y, (5,) * n))
    pts = np.ravel_multi_index(((y_c + t @ WB) % 5).T, (5,) * n)
    phase = (np.einsum("ni,ij,nj->n", t, A, t) + t @ b) % 5
    return float(abs(np.mean(values[pts] * np.exp(-2j * np.pi * phase / 5))))


class F5Planted(Workload):
    """inverse-f5 on planted quadratic phases on F5^3 plus noise, half of
    them cut to a codimension-1 coset (the planted-recovery recipe of the
    acceptance suite)."""

    name = "f5_planted"
    MISSES = ("EmptyGraph", "EmptyV")

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        n, count = (2, 2) if self.smoke else (3, 24)
        spec = groups.parse_group(f"F5^{n}")
        coords = _coords(n)
        self.n = n
        self.plants = []
        for trial in range(count):
            A = rng.integers(0, 5, size=(n, n))
            A = (A + A.T) % 5
            b = rng.integers(0, 5, size=n)
            q = (np.einsum("ni,ij,nj->n", coords, A, coords) + coords @ b) % 5
            vals = np.exp(2j * np.pi * q / 5)
            if trial % 2:
                cut = int(rng.integers(5))
                vals = np.where(coords[:, 0] == cut, vals, 0)
                cosets = [coords[:, 0] == c for c in range(5)]
            else:
                cosets = [np.ones(spec.order, dtype=bool)]
            eps = float(rng.uniform(0.02, 0.1))
            values = vals + eps * np.exp(2j * np.pi * rng.uniform(size=spec.order))
            # planted bias: average over the cosets of the planted configuration
            planted = float(np.mean([
                abs(np.mean(values[m] * np.exp(-2j * np.pi * q[m] / 5))) for m in cosets
            ]))
            lib_seed = _lib_seed(rng)
            path = _write_json(self.workdir / f"plant{trial:02d}.json",
                               groups.function_to_json(groups.GroupFunction(spec, values)))
            name = f"inverse-f5:plant{trial:02d}"
            self.plants.append((name, planted, eps))
            self._cli(name, ["inverse-f5", "--input", path, "--eta", "0.5", "--seed", str(lib_seed)],
                      self._check(values, lib_seed), self.MISSES)

    def _check(self, values: np.ndarray, lib_seed: int):
        def check(o: Outcome, ctx: dict) -> list[str]:
            if o.status != "ok":
                return _require_ok(o)
            r = o.result
            probs = []
            if r["eta"] != 0.5 or r["seed"] != lib_seed:
                probs.append("eta or seed not echoed")
            biases = []
            for y, w in r["witnesses"].items():
                mine = _coset_bias(values, self.n, int(y), r["W_basis"], w["A"], w["b"])
                if abs(mine - w["bias"]) > BIAS_TOL:
                    probs.append(f"witness bias at {y}: reported {w['bias']}, recomputed {mine}")
                oracle = r["oracle_check"].get(y)
                if oracle is not None and oracle < w["bias"] - BIAS_TOL:
                    probs.append(f"oracle value {oracle} below witness bias {w['bias']} at {y}")
                biases.append(w["bias"])
            if not biases:
                probs.append("no witnesses")
            elif abs(np.mean(biases) - r["average_bias"]) > BIAS_TOL or max(biases) != r["best_bias"]:
                probs.append("average/best bias disagree with the witnesses")
            return probs

        return check

    def summary(self, outcomes: dict) -> dict:
        recovered = sum(
            1 for name, planted, eps in self.plants
            if outcomes[name].status == "ok"
            and outcomes[name].result["average_bias"] >= planted - 3 * eps
        )
        return {"recovered": recovered, "plants": len(self.plants),
                "recovery_rate": recovered / len(self.plants)}


# --- f5_driver -----------------------------------------------------------------------


def _four_aps(n: int, members: np.ndarray):
    """For every (x, r != 0) the four AP points x + j r in F5^n, as indices,
    and how many of them lie in `members` (a boolean array)."""
    c = _coords(n)
    x = c[:, None, None, :]
    r = c[None, 1:, None, :]
    j = np.arange(4)[None, None, :, None]
    pts = np.ravel_multi_index(np.moveaxis((x + j * r) % 5, -1, 0), (5,) * n).reshape(-1, 4)
    return pts, members[pts].sum(axis=1)


class F5Driver(Workload):
    """Greedy 4-AP-free sets on F5^3 from `ap_free_search`, then the iterated
    density increment `driver --n 3` on each."""

    name = "f5_driver"
    OUTCOMES = {"increment", "has-4ap", "full-density", "dimension-floor", "pipeline-empty", "empty"}
    MAX_DEPTH = 8  # the depth limit of `szemeredi_driver`

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.n, sets = (2, 1) if self.smoke else (3, 3)
        for i in range(sets):
            search_seed, driver_seed = _lib_seed(rng), _lib_seed(rng)
            path = self.workdir / f"set{i}.json"
            self._lib(f"ap_free:set{i}", self._search(search_seed, path), self._check_set)
            self._cli(f"driver:set{i}",
                      ["driver", "--n", str(self.n), "--set", str(path), "--seed", str(driver_seed)],
                      self._check_driver(f"ap_free:set{i}"))

    def _search(self, search_seed: int, path: Path):
        def run(ctx: dict) -> Outcome:
            spec = groups.parse_group(f"F5^{self.n}")
            A = experiments.ap_free_search(spec, 4, "greedy", seed=search_seed)
            _write_json(path, A)
            return lib_outcome(A)

        return run

    def _check_set(self, o: Outcome, ctx: dict) -> list[str]:
        if o.status != "ok":
            return _require_ok(o)
        N = 5**self.n
        A = np.array(o.result, dtype=np.int64)
        member = np.zeros(N, dtype=bool)
        member[A] = True
        pts, inside = _four_aps(self.n, member)
        probs = []
        if np.any(inside == 4):
            probs.append("the set contains a proper 4-AP")
        # greedy insertion makes the set inclusion-maximal
        blocked = np.zeros(N, dtype=bool)
        three = pts[inside == 3]
        blocked[three[~member[three]]] = True
        if np.any(~member & ~blocked):
            probs.append("the set is not inclusion-maximal")
        return probs

    def _check_driver(self, set_task: str):
        def check(o: Outcome, ctx: dict) -> list[str]:
            if o.status != "ok":
                return _require_ok(o) or [f"unexpected status {o.status}"]
            steps = o.result["trace"]
            A = ctx[set_task].result
            probs = []
            if not steps or steps[0]["dimension"] != self.n:
                probs.append("trace must start at the full dimension")
            elif abs(steps[0]["density"] - len(A) / 5**self.n) > 1e-12:
                probs.append("first density is not |A|/|G|")
            for i, s in enumerate(steps):
                if s["depth"] != i or s["outcome"] not in self.OUTCOMES:
                    probs.append(f"step {i}: bad depth or outcome {s['outcome']!r}")
                if s["outcome"] == "increment" and i + 1 < len(steps):
                    nxt = steps[i + 1]
                    if abs(s["density"] + s["increment"] - nxt["density"]) > 1e-9:
                        probs.append(f"step {i}: density + increment != next density")
                    if nxt["dimension"] > s["dimension"]:
                        probs.append(f"step {i}: dimension grew")
            if steps and steps[-1]["outcome"] == "increment" and len(steps) < self.MAX_DEPTH:
                probs.append("trace stops on an increment before the depth limit")
            return probs

        return check


# --- bohr_quadratic -------------------------------------------------------------------


def _bohr_members(N: int, S, rho: Fraction) -> np.ndarray:
    """x with ||xi x / N|| < rho for every xi in S, in exact integer arithmetic."""
    xs = np.arange(N, dtype=np.int64)
    keep = np.ones(N, dtype=bool)
    for xi in S:
        r = (xi * xs) % N
        keep &= np.minimum(r, N - r) * rho.denominator < rho.numerator * N
    return xs[keep]


def _bracket_phase(bq: dict, xs: np.ndarray) -> np.ndarray:
    """sum_ij quad_ij {xi_i x/N}{xi_j x/N} + sum_i lin_i {xi_i x/N} + const,
    fractional parts in (-1/2, 1/2]."""
    N = bq["N"]
    brk = []
    for xi in bq["S"]:
        t = (xi * xs % N) / N
        brk.append(np.where(t <= 0.5, t, t - 1.0))
    total = np.full(len(xs), float(_frac(bq["const"])))
    for i, row in enumerate(bq["quad"]):
        total += float(_frac(bq["lin"][i])) * brk[i]
        for j, v in enumerate(row):
            total += float(_frac(v)) * brk[i] * brk[j]
    return total


RHO, EPS = "0.15", "0.075"  # Bohr radius and regular-radius search start


def orbit_tolerance(N: int) -> float:
    """Allowed |F(T^n x0) - w(n) e(-bq(n))| over |n| < N/2.  The closed-form
    orbit carries n^2-sized coordinates, so float error grows like N^2; the
    acceptance suite's 1e-9 holds at N = 101 and is scaled from there."""
    return 1e-9 * max(1.0, (N / 101) ** 2)


class BohrQuadratic(Workload):
    """Per instance on Z/401 and Z/1009 with |S| = 1 or 2: a regular Bohr set
    and its coset progression (Hermite + LLL), the bracket-grid oracle on the
    Bohr region for a planted on-grid bracket quadratic, and the witness
    factored into a nilsystem with its orbit checked at every n.  Each pass
    also classifies a cyclic quadratic on Z/211 with its exact check."""

    name = "bohr_quadratic"
    # The radius is fixed: the oracle's cost grows with the Bohr region, and a
    # seeded radius made pass times differ by seed more than S and the plant do.

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        shapes = [(101, 1), (101, 2)] if self.smoke else [(401, 1), (401, 2), (1009, 1), (1009, 2)]
        self.max_deviation = {}
        for i, (N, s) in enumerate(shapes):
            S = sorted(rng.choice(np.arange(1, N), size=s, replace=False).tolist())
            grid = 4 if s == 1 else 2
            coef = [Fraction(k) + Fraction(j, grid) for k in range(-grid, grid + 1) for j in range(grid)]
            quad = [[Fraction(0)] * s for _ in range(s)]
            lin = [Fraction(0)] * s
            for a in range(s):
                for b in range(a, s):
                    quad[a][b] = quad[b][a] = coef[int(rng.integers(len(coef)))]
                lin[a] = coef[int(rng.integers(len(coef)))]
            bq = quadratic.BracketQuadratic(N, tuple(S), tuple(map(tuple, quad)), tuple(lin))
            values = bq.exp_values(sign=1.0)
            path = _write_json(self.workdir / f"bracket{i}.json",
                               groups.function_to_json(groups.GroupFunction(groups.GroupSpec((N,)), values)))
            s_arg = ",".join(map(str, S))
            self._cli(f"bohr:{i}", ["bohr", "--group", f"Z/{N}", "--S", s_arg, "--rho", RHO,
                                    "--find-regular", EPS, "--progression"],
                      self._check_bohr(N, S, Fraction(RHO), Fraction(EPS)))
            self._cli(f"oracle:{i}", ["u3-oracle", "--input", path, "--kind", "bracket", "--S", s_arg,
                                      "--rho", RHO, "--grid", str(grid)],
                      self._check_oracle(N, S, Fraction(RHO), values))
            self._lib(f"nil:{i}", self._factor(f"oracle:{i}"), self._check_nil(N))
        N = 31 if self.smoke else 211
        spec = groups.GroupSpec((N,))
        m, xi, c = int(rng.integers(1, N)), int(rng.integers(N)), int(rng.integers(N))
        self.phi = quadratic.QuadraticPhase.cyclic(spec, m, xi, Fraction(c, N)).values()
        path = _write_json(self.workdir / "phi.json", [f"{v.numerator}/{v.denominator}" for v in self.phi])
        self._cli("classify", ["quad-classify", "--group", f"Z/{N}", "--input", path], self._check_classify)

    @staticmethod
    def _check_bohr(N, S, rho, eps):
        def check(o: Outcome, ctx: dict) -> list[str]:
            if o.status != "ok":
                return _require_ok(o) or [f"unexpected status {o.status}"]
            r = o.result
            probs = []
            members = _bohr_members(N, S, rho)
            if r["rho"] != f"{rho.numerator}/{rho.denominator}" or r["size"] != len(members):
                probs.append(f"Bohr set size {r['size']} at {r['rho']}, expected {len(members)}")
            reg = _frac(r["regular_rho"])
            if not eps <= reg <= 2 * eps or r["regular_rho_size"] != len(_bohr_members(N, S, reg)):
                probs.append(f"regular radius {reg} or its size is wrong")
            p = r["progression"]
            if not (p["proper"] and p["left_inclusion_ok"] and p["right_inclusion_ok"]):
                probs.append("progression flags not all true")
            pts = np.array([p["base"][0] % N])
            for g, L in zip(p["generators"], p["half_lengths"]):
                pts = ((pts[:, None] + np.arange(-(L - 1), L)[None, :] * g[0]) % N).reshape(-1)
            d = len(S)
            inner = _bohr_members(N, S, Fraction(d) ** (-2 * d) * rho)
            if len(np.unique(pts)) != len(pts):
                probs.append("progression is not proper")
            if not set(pts.tolist()) <= set(members.tolist()):
                probs.append("progression leaves B(S, rho)")
            if not set(inner.tolist()) <= set(pts.tolist()):
                probs.append("B(S, d^-2d rho) is not inside the progression")
            return probs

        return check

    @staticmethod
    def _check_oracle(N, S, rho, values):
        def check(o: Outcome, ctx: dict) -> list[str]:
            if o.status != "ok":
                return _require_ok(o) or [f"unexpected status {o.status}"]
            r = o.result
            w = r["witness"]
            probs = []
            if r["method"] != "bracket-grid" or w["N"] != N or w["S"] != S:
                probs.append("unexpected method or witness frequencies")
            if not r["value"] > 1 - 1e-9:
                probs.append(f"oracle value {r['value']} on an on-grid plant is not 1")
            region = _bohr_members(N, S, rho)
            mine = abs(np.mean(values[region] * np.exp(-2j * np.pi * _bracket_phase(w, region))))
            if abs(mine - r["value"]) > BIAS_TOL:
                probs.append(f"witness correlation recomputed as {mine}, reported {r['value']}")
            return probs

        return check

    @staticmethod
    def _factor(oracle_task: str):
        def run(ctx: dict) -> Outcome:
            oracle = ctx[oracle_task]
            if oracle.status != "ok":
                return Outcome("fail", None, "", "no witness to factor")
            bq = quadratic.BracketQuadratic.from_json(oracle.result["witness"])
            system, F, x0 = nil.bracket_to_nilsystem(bq)
            weight = nil.bracket_weight(bq)
            N = bq.N
            worst = 0.0
            for n in range(-(N // 2), N // 2 + 1):
                want = weight(n) * np.exp(-2j * np.pi * float(bq.eval(n)))
                worst = max(worst, abs(F(nil.orbit_point(system, x0, n)) - want))
            return lib_outcome({"dimension": system.dimension, "max_deviation": float(worst)})

        return run

    def _check_nil(self, N):
        def check(o: Outcome, ctx: dict) -> list[str]:
            if o.status != "ok":
                return _require_ok(o)
            dev = o.result["max_deviation"]
            return [] if dev <= orbit_tolerance(N) else [
                f"nil orbit deviates by {dev} > {orbit_tolerance(N)} from the bracket value"]

        return check

    def _check_classify(self, o: Outcome, ctx: dict) -> list[str]:
        if o.status != "ok":
            return _require_ok(o) or [f"unexpected status {o.status}"]
        r = o.result
        N = len(self.phi)
        B, xi, c = _frac(r["bilinear"][0][0]), r["xi"][0], _frac(r["c"])
        bad = [x for x in range(N) if (B * x * x + Fraction(xi * x, N) + c) % 1 != self.phi[x]]
        return [f"classified phase differs from the input at {len(bad)} points"] if bad else []

    def summary(self, outcomes: dict) -> dict:
        devs = [o.result["max_deviation"] for k, o in outcomes.items()
                if k.startswith("nil:") and o.status == "ok"]
        return {"max_orbit_deviation": max(devs) if devs else None}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Gowers, F5Planted, F5Driver, BohrQuadratic)
}
