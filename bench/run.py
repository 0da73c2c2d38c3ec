"""u3kit benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload gowers --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each
    python3 bench/run.py --workload all --smoke  # toy sizes, one pass, checks only
    python3 bench/run.py --record                # rewrite expected.json (default seed)

Load: a closed loop in one process, one task at a time; the benchmark starts
no threads and runs OpenBLAS on one thread.  Untraced runs (`--trace 0`) time
passes over the workload's fixed task list for `--seconds` and report
`wall_s`, `setup_s` and `peak_rss_mb`; the times are wall times scaled to a
reference machine speed by the probe of speed.py, run between tasks.  Traced
runs (`--trace 1`) time untraced passes for half the time, then wrap u3kit's
public functions (see tracer.py) for traced passes and report the per-layer
metrics.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
Inputs and result files go under `.bench_work/` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: a second one only spins against the other work on a small host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"
WORKLOAD_NAMES = ("gowers", "f5_planted", "f5_driver", "bohr_quadratic")
DEFAULT_SEED = 1
MIN_PASSES = 2  # the median of an untraced run is taken over at least this many passes
SETUP_REPEATS = 7  # imports, and input generation + warm-up, are each timed this often; medians reported
CHILD_TIMEOUT_S = 900
COVERAGE_SLACK = 0.03  # traced self times must sum to within 3% of the traced wall time


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes, one pass, no timing claims")
    ap.add_argument("--record", action="store_true",
                    help="run each workload once at the default seed and rewrite expected.json")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


# --- environment -------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(seed: int) -> dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


# --- one workload in this process ---------------------------------------------------------


MODULES = ("groups", "fourier", "norms", "forms", "bohr", "lattice", "modlinalg", "quadratic",
           "inverse_f5", "nil", "experiments", "exprparse", "errors", "cli", "selftest")
IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy\n"
    "for m in sys.argv[2:]:\n"
    "    importlib.import_module('u3kit.' + m)\n"
    "print(time.perf_counter() - t0)\n"
)


def import_library() -> float:
    """Import numpy and every u3kit module from this checkout; returns seconds."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401

    import u3kit

    for mod in MODULES:
        importlib.import_module(f"u3kit.{mod}")
    elapsed = time.perf_counter() - t0
    if Path(u3kit.__file__).resolve().parent != ROOT / "src" / "u3kit":
        raise ImportError(f"u3kit imported from {u3kit.__file__}, not from this checkout")
    return elapsed


def import_seconds(repeats: int, probe) -> tuple[list[float], list[float]]:
    """The imports timed in `repeats` fresh interpreters: wall seconds, and
    seconds at reference speed."""
    from speed import reference_seconds

    times, ref = [], []
    for _ in range(repeats):
        before = probe.factor()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), *MODULES],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
        ref.append(reference_seconds(times[-1], [before, probe.factor()]))
    return times, ref


def run_pass(tasks, tracer=None, probe=None):
    """One pass over the task list; returns (seconds, {task name: Outcome}).
    With a speed probe, it runs before the first task and after each one,
    its time is left out of the pass, and each outcome gets `ref_seconds`:
    its wall time over the mean speed factor of the pass's probes."""
    from speed import reference_seconds
    from workloads import Outcome

    outcomes = {}
    probing = 0.0
    factors = [probe.factor()] if probe is not None else []
    t0 = time.perf_counter()
    for task in tasks:
        if tracer is not None:
            tracer.begin("bench.task")
        start = time.perf_counter()
        try:
            outcome = task.run(outcomes)
        except Exception:  # a library fault is counted as a failed operation, not fatal
            outcome = Outcome("fail", None, "", traceback.format_exc(limit=6))
        finally:
            if tracer is not None:
                tracer.end()
        outcome.seconds = time.perf_counter() - start
        if probe is not None:
            factors.append(probe.factor())
            probing += time.perf_counter() - start - outcome.seconds
        outcomes[task.name] = outcome
    elapsed = time.perf_counter() - t0 - probing
    if factors:
        for outcome in outcomes.values():
            outcome.ref_seconds = reference_seconds(outcome.seconds, factors)
    return elapsed, outcomes


def load_expected(name: str, seed: int):
    if seed != DEFAULT_SEED or not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text())["workloads"].get(name)


def verify(wl, passes, expected):
    """Check every pass's outputs.  Returns (attempted, failed, problems,
    identity) where identity maps each CLI task to whether its result bytes
    equal the recorded ones (None when nothing is recorded)."""
    from workloads import compare, digest

    first = passes[0]
    verdict, identity = {}, {}
    for task in wl.tasks:
        o = first[task.name]
        probs = list(task.check(o, first))
        if o.status == "fail" and not probs:
            probs.append(o.error or "failed")
        rec = expected.get(task.name) if expected else None
        if rec is not None:
            probs += compare(rec["result"], o.result)
            if task.cli:
                identity[task.name] = digest(o.text) == rec["sha256"]
        elif task.cli:
            identity[task.name] = None
        verdict[task.name] = probs
    problems = {k: v for k, v in verdict.items() if v}
    attempted = failed = 0
    for i, outcomes in enumerate(passes):
        for task in wl.tasks:
            attempted += 1
            o, ref = outcomes[task.name], first[task.name]
            if (o.status, o.text) != (ref.status, ref.text):
                failed += 1
                problems.setdefault(task.name, []).append(f"pass {i}: output differs from pass 0")
            elif verdict[task.name]:
                failed += 1
    for name, check in wl.extra_checks(first):
        attempted += 1
        try:
            probs = check()
        except Exception:  # counted, reported, and the run goes on
            probs = [traceback.format_exc(limit=6)]
        if probs:
            failed += 1
            problems[name] = probs
    return attempted, failed, problems, identity


def timed_passes(tasks, seconds: float, min_passes: int, tracer=None, probe=None):
    passes, times = [], []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        dt, outcomes = run_pass(tasks, tracer, probe)
        times.append(dt)
        passes.append(outcomes)
    return times, passes


def run_workload(args) -> int:
    first_import_s = import_library()
    from speed import Probe, reference_seconds
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    probe = Probe()
    try:
        (workdir / "warm").mkdir(parents=True)
        setups, setups_ref = [], []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            before = probe.factor()
            t0 = time.perf_counter()
            wl = cls(args.seed, workdir, smoke=args.smoke)
            wl.generate()
            if not args.smoke:
                warm = cls(args.seed, workdir / "warm", smoke=True)
                warm.generate()
                run_pass(warm.tasks)
            setups.append(time.perf_counter() - t0)
            setups_ref.append(reference_seconds(setups[-1], [before, probe.factor()]))
        imports, imports_ref = import_seconds(1 if args.smoke else SETUP_REPEATS, probe)
        setup_s = statistics.median(imports_ref) + statistics.median(setups_ref)
        raw_setup_s = statistics.median(imports) + statistics.median(setups)

        tracer, restored = None, None
        if args.smoke:
            times, passes = timed_passes(wl.tasks, 0.0, 1)
        elif args.trace:
            from tracer import Tracer

            times, passes = timed_passes(wl.tasks, args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced_times, traced = timed_passes(wl.tasks, args.seconds / 2, 1, tracer)
            finally:
                restored = tracer.restore()
            passes += traced
        else:
            times, passes = timed_passes(wl.tasks, args.seconds, MIN_PASSES, probe=probe)
        expected = None if args.smoke else load_expected(args.workload, args.seed)
        attempted, failed, problems, identity = verify(wl, passes, expected)
        summary = wl.summary(passes[0])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw_wall_s = statistics.median(times)
    if args.trace and not args.smoke:
        metrics, absent = tracer.layer_metrics(len(traced_times))
        coverage = tracer.total_self() / sum(traced_times)
        metrics["trace.overhead"] = (statistics.median(traced_times) / raw_wall_s, "ratio")
        metrics["trace.coverage"] = (coverage, "ratio")
        hygiene = {"trace.restore": restored, "trace.coverage": abs(coverage - 1) <= COVERAGE_SLACK}
        for name, ok in hygiene.items():
            attempted += 1
            if not ok:
                failed += 1
                problems[name] = [f"trace hygiene: restored {restored}, coverage {coverage:.4f}"]
    else:
        absent = []
        if args.smoke:
            wall_s = raw_wall_s
        else:  # per task, the median over passes of its time at reference speed
            wall_s = sum(statistics.median(p[t.name].ref_seconds for p in passes) for t in wl.tasks)
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    report = {
        "workload": args.workload,
        "mode": "smoke" if args.smoke else ("trace" if args.trace else "timed"),
        "environment": environment(args.seed),
        "passes": len(times),
        "pass_seconds": times,
        "task_seconds": {t.name: [p[t.name].seconds for p in passes] for t in wl.tasks},
        "task_ref_seconds": {t.name: [p[t.name].ref_seconds for p in passes] for t in wl.tasks},
        "raw_wall_s": raw_wall_s,
        "raw_setup_s": raw_setup_s,
        "setup_seconds": {"first_import": first_import_s, "import": imports, "import_ref": imports_ref,
                          "generate_and_warm_up": setups, "generate_and_warm_up_ref": setups_ref},
        "probe_seconds": probe.seconds,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems,
        "byte_identity": identity,
        "summary": summary,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "absent_metrics": absent,
    }
    if tracer is not None:
        report["trace"] = {
            "restored": restored,
            "absent_functions": tracer.absent,
            "traced_pass_seconds": traced_times,
            "spans": {k: vars(v) for k, v in sorted(tracer.stats.items())},
            "raw_spans": tracer.raw,
            "raw_spans_dropped": tracer.dropped,
        }
    out_file = results_dir / f"{args.workload}-seed{args.seed}-{report['mode']}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str))

    print_report(report, out_file)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


def print_report(report: dict, out_file: Path) -> None:
    print(f"workload {report['workload']} ({report['mode']}), seed {report['environment']['seed']}, "
          f"{report['passes']} untraced passes")
    for name, m in report["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if report["mode"] == "timed":
        print(f"  {'wall_s, raw':32s} {report['raw_wall_s']:.6g} s (median pass wall time, not scaled)")
        print(f"  {'setup_s, raw':32s} {report['raw_setup_s']:.6g} s (not scaled)")
    print(f"  {'fail_frac':32s} {report['fail_frac']:.6g} "
          f"({report['failed']}/{report['attempted']} operations)")
    if "recovery_rate" in report["summary"]:
        s = report["summary"]
        print(f"  {'recovery_rate':32s} {s['recovery_rate']:.6g} ({s['recovered']}/{s['plants']} plants)")
    ident = report["byte_identity"]
    known = [v for v in ident.values() if v is not None]
    if known:
        print(f"  byte-identical CLI results: {sum(known)}/{len(known)} (recorded at seed {DEFAULT_SEED})")
    else:
        print("  byte-identical CLI results: nothing recorded for this seed")
    for name, probs in report["problems"].items():
        print(f"  FAIL {name}: {probs[0].strip()}")
    if report["absent_metrics"]:
        print("  absent (function not found): " + ", ".join(report["absent_metrics"]))
    print(f"  result file: {out_file.relative_to(ROOT)}")


# --- every workload, one process each ------------------------------------------------


def run_all(args) -> int:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def record() -> int:
    """Run one pass of each workload at the default seed and store every
    task's result and result digest in expected.json."""
    import_library()
    from workloads import FLOAT_REL_TOL, WORKLOADS, digest

    workdir = ROOT / ".bench_work" / f"record-{os.getpid()}"
    out = {"seed": DEFAULT_SEED, "git_commit": git_commit(), "float_rel_tol": FLOAT_REL_TOL, "workloads": {}}
    try:
        for name in WORKLOAD_NAMES:
            (workdir / name).mkdir(parents=True)
            wl = WORKLOADS[name](DEFAULT_SEED, workdir / name)
            wl.generate()
            _, outcomes = run_pass(wl.tasks)
            _, failed, problems, _ = verify(wl, [outcomes], None)
            if failed:
                print(f"{name}: checks failed, nothing recorded: {problems}", file=sys.stderr)
                return 1
            out["workloads"][name] = {
                t.name: {"cli": t.cli, "sha256": digest(o.text), "result": o.result}
                for t in wl.tasks
                for o in [outcomes[t.name]]
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    count = sum(len(v) for v in out["workloads"].values())
    print(f"recorded {count} task results in {EXPECTED.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "u3kit" / "__init__.py").is_file():
        print(f"u3kit sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
