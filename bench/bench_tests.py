"""Tests of the benchmark's own checks, trace wrapper and smoke mode.

    python3 -m pytest -q bench/bench_tests.py

The file name keeps these out of the library's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wls  # noqa: E402
from u3kit import fourier, groups, norms  # noqa: E402


# --- recorded-result comparison ------------------------------------------------------


def test_compare_exact_and_float_tolerance():
    rec = {"value": 0.5, "d": 3, "ok": True, "w": ["1/2", [1, 2]]}
    assert wls.compare(rec, {"value": 0.5 * (1 + 1e-12), "d": 3, "ok": True, "w": ["1/2", [1, 2]]}) == []
    assert wls.compare(rec, {"value": 0.5 * (1 + 1e-6), "d": 3, "ok": True, "w": ["1/2", [1, 2]]})
    assert wls.compare(rec, {"value": 0.5, "d": 4, "ok": True, "w": ["1/2", [1, 2]]})
    assert wls.compare(rec, {"value": 0.5, "d": 3, "ok": 1, "w": ["1/2", [1, 2]]})
    assert wls.compare(rec, {"value": 0.5, "d": 3, "ok": True, "w": ["1/3", [1, 2]]})
    assert wls.compare(rec, {"value": 0.5, "d": 3, "ok": True, "w": ["1/2", [1, 2, 3]]})
    assert wls.compare(rec, {"value": 0.5, "d": 3, "ok": True})


# --- trace wrapper ---------------------------------------------------------------------


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children_and_sums_to_wall():
    tr = tracing.Tracer(clock=_Clock([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]))
    tr.begin("a")
    tr.begin("b")
    tr.end()
    tr.begin("b")
    tr.end()
    tr.end()
    assert tr.stats["a"].self_s == pytest.approx(6.0)
    assert tr.stats["b"].self_s == pytest.approx(4.0)
    assert tr.stats["b"].calls == 2
    assert tr.total_self() == pytest.approx(10.0)  # top-level self times cover the wall time
    assert [s[4] for s in tr.raw] == [1, 1, 0]  # both b spans name a as parent


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    original = fourier.dft_values
    add = vars(groups.GroupSpec)["add_indices"]
    assert norms.dft_values is original  # bound by name at import time
    tr = tracing.Tracer()
    tr.install()
    try:
        assert fourier.dft_values is not original and norms.dft_values is fourier.dft_values
        f = groups.GroupFunction(groups.parse_group("Z/31"), np.exp(2j * np.pi * np.arange(31) ** 2 / 31))
        norms.gowers_norm(f, 3)
    finally:
        assert tr.restore()
    assert fourier.dft_values is original and norms.dft_values is original
    assert vars(groups.GroupSpec)["add_indices"] is add
    metrics, absent = tr.layer_metrics(1)
    assert absent == []
    assert metrics["fourier.dft.calls"][0] == 1  # 31 rows in one batch
    assert metrics["fourier.dft.rows"][0] == 31
    assert metrics["fourier.dft.elems"][0] == 31 * 31
    assert metrics["groups.index.calls"][0] > 0
    assert metrics["norms.gowers.self_s"][0] > 0
    assert set(metrics) | set(tracing.DERIVED_METRICS) == set(tracing.all_metric_names())


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.all_metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_renamed_function_is_reported_absent():
    layers = (tracing.Layer("x.gone", "u3kit.norms", ("no_such_function",), {"x.gone.self_s": "self_s"}),)
    tr = tracing.Tracer()
    tr.install(layers)
    assert tr.restore()
    metrics, absent = tr.layer_metrics(1, layers)
    assert absent == ["x.gone.self_s"] and metrics == {}


# --- output checks catch wrong outputs --------------------------------------------------


def _smoke(name, tmp_path):
    wl = wls.WORKLOADS[name](7, tmp_path, smoke=True)
    wl.generate()
    _, outcomes = run.run_pass(wl.tasks)
    return wl, outcomes


def _tampered(wl, outcomes, task, edit):
    o = outcomes[task]
    result = json.loads(o.text)
    edit(result)
    bad = wls.Outcome(o.status, result, wls.canon(result))
    check = next(t.check for t in wl.tasks if t.name == task)
    return check(bad, outcomes)


def test_probe_scales_wall_times_to_reference_speed(tmp_path):
    assert speed.reference_seconds(3.0, [1.5]) == pytest.approx(2.0)
    assert speed.reference_seconds(3.0, [1.0, 2.0]) == pytest.approx(2.0)
    probe = speed.Probe()
    assert all(t == [] for t in probe.seconds.values())  # warm-up probes are not kept
    wl = wls.WORKLOADS["gowers"](7, tmp_path, smoke=True)
    wl.generate()
    seconds, outcomes = run.run_pass(wl.tasks, probe=probe)
    # one probe before the pass and one after each task
    assert all(len(t) == len(wl.tasks) + 1 for t in probe.seconds.values())
    assert all(o.ref_seconds > 0 for o in outcomes.values())
    assert seconds == pytest.approx(sum(o.seconds for o in outcomes.values()), rel=0.05, abs=1e-3)


@pytest.mark.parametrize("name", list(wls.WORKLOADS))
def test_smoke_pass_is_correct_and_deterministic(name, tmp_path):
    wl, first = _smoke(name, tmp_path)
    _, second = run.run_pass(wl.tasks)
    attempted, failed, problems, _ = run.verify(wl, [first, second], None)
    assert failed == 0, problems
    assert attempted == 2 * len(wl.tasks) + len(wl.extra_checks(first))


def test_gowers_checks(tmp_path):
    wl, out = _smoke("gowers", tmp_path)
    assert _tampered(wl, out, "norm:f5:d3", lambda r: r.update(value=1.5))
    assert _tampered(wl, out, "norm:fw401:d3", lambda r: r.update(value=0.0))  # below U^2


def test_f5_planted_checks(tmp_path):
    wl, out = _smoke("f5_planted", tmp_path)
    name = "inverse-f5:plant00"

    def bump_bias(r):
        w = next(iter(r["witnesses"].values()))
        w["bias"] += 1e-3

    def sink_oracle(r):
        for y in r["oracle_check"]:
            r["oracle_check"][y] = 0.0

    assert _tampered(wl, out, name, bump_bias)
    assert _tampered(wl, out, name, sink_oracle)


def test_f5_driver_checks(tmp_path):
    wl, out = _smoke("f5_driver", tmp_path)
    A = out["ap_free:set0"].result
    # a line x, x+r, x+2r, x+3r in F5^2 makes a 4-AP
    assert _tampered(wl, out, "ap_free:set0", lambda r: r.extend(x for x in (0, 1, 2, 3) if x not in A))
    assert _tampered(wl, out, "ap_free:set0", lambda r: r.pop())  # no longer maximal
    assert _tampered(wl, out, "driver:set0", lambda r: r["trace"][0].update(density=0.5))


def test_bohr_quadratic_checks(tmp_path):
    wl, out = _smoke("bohr_quadratic", tmp_path)
    assert _tampered(wl, out, "bohr:0", lambda r: r.update(size=r["size"] + 1))
    assert _tampered(wl, out, "bohr:0", lambda r: r["progression"]["half_lengths"].__setitem__(0, 40))
    assert _tampered(wl, out, "oracle:1", lambda r: r.update(value=0.9))
    assert _tampered(wl, out, "nil:0", lambda r: r.update(max_deviation=1e-3))
    assert _tampered(wl, out, "classify", lambda r: r.update(c="0/1" if r["c"] != "0/1" else "1/31"))


def test_recorded_mismatch_counts_as_failure(tmp_path):
    wl, out = _smoke("gowers", tmp_path)
    recorded = {t.name: {"sha256": "0", "result": out[t.name].result} for t in wl.tasks}
    recorded["norm:f5:d3"] = {"sha256": "0", "result": dict(out["norm:f5:d3"].result, value=0.123)}
    attempted, failed, problems, identity = run.verify(wl, [out], recorded)
    assert failed == 1 and "norm:f5:d3" in problems
    assert set(identity.values()) == {False}


# --- command line -----------------------------------------------------------------------


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gowers", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
