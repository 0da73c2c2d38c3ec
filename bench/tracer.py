"""Runtime span tracing of u3kit's public functions, for the per-layer metrics.

A `Tracer` wraps each function named in `LAYERS` at runtime: in the module
that defines it and again in every loaded `u3kit` module that bound it by
name at import time (for example `norms` binds `fourier.dft_values`).
Methods are wrapped on their class.  `restore()` puts every original back.
No library file is changed.

Each call of a wrapped function is one span with a name, start, end and
parent.  Self time is the span's duration minus the time covered by its
child spans.  Spans are aggregated per name as they close, so a run with
millions of index calls keeps constant memory; the first `RAW_SPAN_CAP`
spans are also kept verbatim for the result file.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

RAW_SPAN_CAP = 20_000


def _size(obj) -> int:
    return int(getattr(obj, "size", 1))


def _index_counts(args, kwargs, result) -> dict:
    return {"elems": _size(result)}


def _dft_counts(args, kwargs, result) -> dict:
    spec, values = args[0], args[1]
    elems = _size(values)
    n = spec.order
    return {
        "rows": elems // n,
        "elems": elems,
        "flops_computed": 5.0 * elems * math.log2(n) if n > 1 else 0.0,
    }


def _obstruction_counts(args, kwargs, result) -> dict:
    return {
        "graph_size": result.graph_size,
        "sliced_size": result.sliced_size,
        "quadruples": result.quadruples,
    }


def _driver_counts(args, kwargs, result) -> dict:
    return {"steps": len(result)}


@dataclass(frozen=True)
class Layer:
    """One span name and the public functions it covers.

    `metrics` maps each per-layer metric name to the statistic it reports:
    "self_s", "calls", or a counter returned by `counts` from the call's
    arguments and result.
    """

    span: str
    module: str
    attrs: tuple[str, ...]
    metrics: dict
    counts: Callable | None = None


_MODLINALG = (
    "rref_mod_p", "kernel_basis_mod_p", "solve_mod_p", "rank_mod_p", "solve_congruence",
    "subgroup_coset_indices", "enumerate_subspaces", "largest_subspace_inside",
    "isotropic_vector_in",
)

LAYERS: tuple[Layer, ...] = (
    Layer("cli", "u3kit.cli", ("main",), {"cli.self_s": "self_s"}),
    Layer(
        "groups.index", "u3kit.groups",
        ("GroupSpec.add_indices", "GroupSpec.neg_indices", "GroupSpec.scale_indices",
         "GroupSpec.encode", "GroupSpec.decode"),
        {"groups.index.calls": "calls", "groups.index.elems": "elems",
         "groups.index.self_s": "self_s"},
        _index_counts,
    ),
    Layer(
        "fourier.dft", "u3kit.fourier", ("dft_values",),
        {"fourier.dft.calls": "calls", "fourier.dft.rows": "rows",
         "fourier.dft.elems": "elems", "fourier.dft.self_s": "self_s",
         "fourier.dft.flops_computed": "flops_computed"},
        _dft_counts,
    ),
    Layer("norms.gowers", "u3kit.norms", ("gowers_norm",), {"norms.gowers.self_s": "self_s"}),
    Layer("norms.coset_oracle", "u3kit.norms", ("u3_oracle_coset",),
          {"norms.coset_oracle.calls": "calls", "norms.coset_oracle.self_s": "self_s"}),
    Layer("norms.bracket_oracle", "u3kit.norms", ("u3_oracle_bracket",),
          {"norms.bracket_oracle.calls": "calls", "norms.bracket_oracle.self_s": "self_s"}),
    Layer("inverse_f5.graph", "u3kit.inverse_f5", ("phase_derivative_graph",),
          {"inverse_f5.graph.self_s": "self_s"}),
    Layer("inverse_f5.quadruples", "u3kit.inverse_f5", ("additive_quadruples",),
          {"inverse_f5.quadruples.self_s": "self_s"}),
    Layer("inverse_f5.slice", "u3kit.inverse_f5", ("random_slice",),
          {"inverse_f5.slice.self_s": "self_s"}),
    Layer("inverse_f5.fit", "u3kit.inverse_f5", ("linear_component_fit",),
          {"inverse_f5.fit.self_s": "self_s"}),
    Layer("inverse_f5.symmetry", "u3kit.inverse_f5", ("symmetry_subspace",),
          {"inverse_f5.symmetry.self_s": "self_s"}),
    Layer(
        "inverse_f5.obstruction", "u3kit.inverse_f5", ("quadratic_obstruction",),
        {"inverse_f5.obstruction.self_s": "self_s", "inverse_f5.graph_size": "graph_size",
         "inverse_f5.sliced_size": "sliced_size", "inverse_f5.quadruples": "quadruples"},
        _obstruction_counts,
    ),
    Layer("forms.count_aps", "u3kit.forms", ("count_aps",),
          {"forms.count_aps.calls": "calls", "forms.count_aps.self_s": "self_s"}),
    Layer("experiments.ap_free", "u3kit.experiments", ("ap_free_search",),
          {"experiments.ap_free.self_s": "self_s"}),
    Layer("experiments.increment", "u3kit.experiments", ("density_increment_f5",),
          {"experiments.increment.self_s": "self_s"}),
    Layer("experiments.driver", "u3kit.experiments", ("szemeredi_driver",),
          {"experiments.driver.self_s": "self_s", "experiments.driver.steps": "steps"},
          _driver_counts),
    Layer("bohr.bohr_set", "u3kit.bohr", ("bohr_set",), {"bohr.bohr_set.self_s": "self_s"}),
    Layer("bohr.regular", "u3kit.bohr", ("find_regular_rho",), {"bohr.regular.self_s": "self_s"}),
    Layer("bohr.is_regular", "u3kit.bohr", ("is_regular",),
          {"bohr.is_regular.calls": "calls", "bohr.is_regular.self_s": "self_s"}),
    Layer("bohr.progression", "u3kit.bohr", ("coset_progression_in_bohr",),
          {"bohr.progression.self_s": "self_s"}),
    Layer("bohr.bogolyubov", "u3kit.bohr", ("bogolyubov",), {"bohr.bogolyubov.self_s": "self_s"}),
    Layer("lattice.reduce", "u3kit.lattice", ("hermite_reduce", "lll_reduce"),
          {"lattice.reduce.self_s": "self_s"}),
    Layer("modlinalg", "u3kit.modlinalg", _MODLINALG,
          {"modlinalg.self_s": "self_s", "modlinalg.calls": "calls"}),
    Layer("quadratic.classify", "u3kit.quadratic", ("classify_global_quadratic",),
          {"quadratic.classify.self_s": "self_s"}),
    Layer("quadratic.locality", "u3kit.quadratic", ("is_locally_quadratic",),
          {"quadratic.locality.self_s": "self_s"}),
    Layer("quadratic.degenerate", "u3kit.quadratic", ("degenerate_subspace",),
          {"quadratic.degenerate.self_s": "self_s"}),
    Layer("nil.factor", "u3kit.nil", ("bracket_to_nilsystem",), {"nil.factor.self_s": "self_s"}),
    Layer("nil.orbit", "u3kit.nil", ("orbit_point",),
          {"nil.orbit.calls": "calls", "nil.orbit.self_s": "self_s"}),
)

# Metrics the benchmark computes from whole passes rather than reads from one span.
DERIVED_METRICS = ("trace.overhead", "trace.coverage")


def metric_unit(stat: str) -> str:
    if stat == "self_s":
        return "s"
    if stat == "flops_computed":
        return "flop"
    return "count"


def all_metric_names() -> list[str]:
    names = [m for layer in LAYERS for m in layer.metrics]
    return names + list(DERIVED_METRICS)


@dataclass
class SpanStat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Aggregates spans per name; `install()` wraps, `restore()` unwraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStat] = {}
        self.raw: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent id
        self.dropped = 0
        self.absent: list[str] = []  # "module.attr" of functions not found
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])

    def end(self, counts: dict | None = None) -> None:
        span_id, name, start, child = self._stack.pop()
        stop = self.clock()
        dur = stop - start
        st = self.stats.setdefault(name, SpanStat())
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child
        if counts:
            for k, v in counts.items():
                st.counts[k] = st.counts.get(k, 0) + v
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.raw) < RAW_SPAN_CAP:
            self.raw.append((span_id, name, start, stop, parent[0] if parent else 0))
        else:
            self.dropped += 1

    def wrap(self, fn, name: str, counts: Callable | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = None
                if counts is not None and result is not None:
                    try:
                        extra = counts(args, kwargs, result)
                    except (AttributeError, TypeError, IndexError):
                        extra = None
                tracer.end(extra)

        return wrapper

    # --- patching ------------------------------------------------------------

    def _set(self, owner, key: str, original, replacement) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, replacement)

    def install(self, layers=LAYERS) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "u3kit" or name.startswith("u3kit."))]
        for layer in layers:
            try:
                module = importlib.import_module(layer.module)
            except ImportError:
                self.absent.extend(f"{layer.module}.{a}" for a in layer.attrs)
                continue
            for attr in layer.attrs:
                *path, leaf = attr.split(".")
                owner = module
                for part in path:
                    owner = getattr(owner, part, None)
                if owner is None or leaf not in vars(owner):
                    self.absent.append(f"{layer.module}.{attr}")
                    continue
                original = vars(owner)[leaf]
                wrapper = self.wrap(original, layer.span, layer.counts)
                self._set(owner, leaf, original, wrapper)
                if path:
                    continue  # a method: patching the class covers every caller
                for other in loaded:
                    if other is module:
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, key, original, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when each patched name is verified."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        ok = all(vars(owner)[key] is original for owner, key, original in self._patches)
        self._patches.clear()
        return ok

    # --- metrics -------------------------------------------------------------

    def layer_metrics(self, passes: int, layers=LAYERS) -> tuple[dict, list[str]]:
        """Per-pass values of every layer metric, and the names of the metrics
        reported absent because none of their functions exists any more."""
        absent_fns = set(self.absent)
        out: dict = {}
        missing: list[str] = []
        for layer in layers:
            if all(f"{layer.module}.{a}" in absent_fns for a in layer.attrs):
                missing.extend(layer.metrics)
                continue
            st = self.stats.get(layer.span, SpanStat())
            for metric, stat in layer.metrics.items():
                if stat == "calls":
                    value = st.calls
                elif stat == "self_s":
                    value = st.self_s
                else:
                    value = st.counts.get(stat, 0)
                value = value / passes
                if stat != "self_s" and value.is_integer():
                    value = int(value)
                out[metric] = (value, metric_unit(stat))
        return out, missing

    def total_self(self) -> float:
        return sum(st.self_s for st in self.stats.values())
