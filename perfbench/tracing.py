"""Spans and counts at the library's public entry points, for traced runs.

``Tracer.install`` replaces each entry point by a recording wrapper in
every switchlayer module that holds it, so calls from the benchmark,
from other library functions and from the CLI are all seen;
``uninstall`` puts the originals back.  ``instrument`` returns a copy of
a built system (``dataclasses.replace``) whose field callables count
their calls; the CLI's scenario factories are wrapped to do the same to
the systems the CLI builds.  A span records its name, its parent span,
its start and end, and the field-call counter at both ends.  Spans stay
in memory until ``write``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time

import switchlayer
from switchlayer import cli, core, integrate, layer, scenarios, series, sigmoids

# entry points by defining module
ENTRY_POINTS = {
    integrate: ("integrate_regularized", "advance_to_surface"),
    layer: ("integrate_layer_only", "integrate_hybrid", "classify_surface_point",
            "find_sliding_modes", "find_layer_equilibria"),
    cli: ("run_simulation", "trajectory_table", "write_table"),
}
HOLDERS = (switchlayer, integrate, layer, cli)
CLI_FACTORIES = ("make_example1", "make_example2", "make_circuit", "make_duffing")
FIELD_MEMBERS = ("fused", "f_plus", "f_minus", "hidden_g")

INTEGRATORS = {"integrate_layer_only", "integrate_regularized", "integrate_hybrid",
               "advance_to_surface"}
ROOT_SEARCH = {"classify_surface_point", "find_sliding_modes", "find_layer_equilibria"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "calls0", "calls1", "steps",
                 "sliding_steps", "bytes", "children")

    def __init__(self, name, parent, start, calls0):
        self.name, self.parent, self.start, self.calls0 = name, parent, start, calls0
        self.end = self.calls1 = None
        self.steps = self.sliding_steps = self.bytes = 0
        self.children = []

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def calls(self):
        return self.calls1 - self.calls0


def _steps(result):
    """(accepted steps, sliding steps) held by an integrator's result."""
    if isinstance(result, tuple):  # advance_to_surface: (segment, hit)
        result = result[0]
    segments = getattr(result, "segments", [result])
    steps = sum(seg.t.size - 1 for seg in segments)
    sliding = sum(seg.t.size - 1 for seg in segments if seg.regime == "sliding")
    return steps, sliding


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- counting systems ---------------------------------------------

    def _counted(self, fn):
        def counted(*args):
            self.calls += 1
            return fn(*args)
        return counted

    def instrument(self, system):
        members = {m: self._counted(getattr(system, m)) for m in FIELD_MEMBERS
                   if getattr(system, m) is not None}
        return dataclasses.replace(system, **members)

    # -- entry-point wrappers -----------------------------------------

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, time.perf_counter(), self.calls)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.calls1 = self.calls
                self._stack.pop()
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)
            if name in INTEGRATORS:
                span.steps, span.sliding_steps = _steps(out)
            elif name == "write_table":
                span.bytes = os.path.getsize(args[0])
            return out
        return traced

    def install(self):
        for module, names in ENTRY_POINTS.items():
            for name in names:
                original = getattr(module, name)
                traced = self._wrap(name, original)
                for holder in HOLDERS:
                    if getattr(holder, name, None) is original:
                        self._patches.append((holder, name, original))
                        setattr(holder, name, traced)
        for name in CLI_FACTORIES:
            original = getattr(cli, name)
            self._patches.append((cli, name, original))
            setattr(cli, name, lambda *a, _f=original, **k: self.instrument(_f(*a, **k)))

    def uninstall(self):
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def write(self, path, groups):
        """Write span groups ({label: spans}) as JSON, parents by index."""
        doc = {}
        for label, spans in groups.items():
            index = {id(s): k for k, s in enumerate(spans)}
            doc[label] = [
                {"name": s.name,
                 "parent": index.get(id(s.parent)) if s.parent is not None else None,
                 "start": s.start, "end": s.end, "field_calls": s.calls,
                 "steps": s.steps, "sliding_steps": s.sliding_steps, "bytes": s.bytes}
                for s in spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- per-layer metrics ----------------------------------------------------


def _nearest(span, names):
    """Descendants in ``names`` that have no ancestor in ``names`` below span."""
    out = []
    for child in span.children:
        if child.name in names:
            out.append(child)
        else:
            out += _nearest(child, names)
    return out


def _mean(values):
    return sum(values) / len(values)


def span_metrics(spans, passes, probe):
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Counts and bytes are per pass and come from the workload alone.
    Per-call and per-step costs come from the workload's own calls, or
    from the fixed probe's calls where the workload makes none, so that
    every workload reports every cost.
    """

    def named(name, source):
        return [s for s in source if s.name == name]

    def mean_seconds(name):
        return _mean([s.seconds for s in named(name, spans) or named(name, probe)])

    # integration: outermost integrator spans less their root searches
    top = [s for s in spans if s.name in INTEGRATORS and not _has_ancestor(s, INTEGRATORS)]
    steps = sum(s.steps for s in top)
    secs = sum(s.seconds - sum(c.seconds for c in _nearest(s, ROOT_SEARCH)) for s in top)
    calls = sum(s.calls - sum(c.calls for c in _nearest(s, ROOT_SEARCH)) for s in top)

    # hybrid self: the span less its free-flight and classification children
    hybrid = named("integrate_hybrid", spans)
    if not any(s.sliding_steps for s in hybrid):
        hybrid = named("integrate_hybrid", probe)
    self_secs, self_calls = [], []
    for s in hybrid:
        children = [c for c in s.children
                    if c.name in ("advance_to_surface", "classify_surface_point")]
        self_secs.append(s.seconds - sum(c.seconds for c in children))
        self_calls.append(s.calls - sum(c.calls for c in children))
    sliding_steps = sum(s.sliding_steps for s in hybrid)

    return {
        "integrate.steps": (steps / passes, "count"),
        "integrate.field_evals": (calls / passes, "count"),
        "integrate.evals_per_step": (calls / steps, "evals/step"),
        "integrate.us_per_step": (1e6 * secs / steps, "us"),
        "integrate.advance_to_surface_ms": (1e3 * mean_seconds("advance_to_surface"), "ms"),
        "layer.classify_surface_point_ms": (1e3 * mean_seconds("classify_surface_point"), "ms"),
        "layer.integrate_hybrid_self_s": (_mean(self_secs), "s"),
        "layer.sliding_us_per_step": (1e6 * sum(self_secs) / sliding_steps, "us"),
        "layer.sliding_evals_per_step": (sum(self_calls) / sliding_steps, "evals/step"),
        "layer.find_sliding_modes_ms": (1e3 * mean_seconds("find_sliding_modes"), "ms"),
        "layer.find_sliding_modes_calls": (
            len(named("find_sliding_modes", spans)) / passes, "count"),
        "layer.find_layer_equilibria_ms": (1e3 * mean_seconds("find_layer_equilibria"), "ms"),
        "cli.trajectory_table_s": (mean_seconds("trajectory_table"), "s"),
        "cli.write_table_s": (mean_seconds("write_table"), "s"),
        "cli.bytes_written": (sum(s.bytes for s in named("write_table", spans)) / passes, "B"),
    }


def _has_ancestor(span, names):
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


# -- fixed probe ----------------------------------------------------------


def run_probe(tracer, outdir):
    """One call through every traced entry point, on fixed inputs.

    A hybrid run of the circuit at sigma = 1/2 (surface hits, a slide and
    its exit), its layer saddle, and a CLI ``simulate`` writing a CSV.
    """
    p = scenarios.CircuitParams(sigma=0.5)
    circuit = tracer.instrument(scenarios.make_circuit(p))
    layer.integrate_hybrid(circuit, scenarios.circuit_iv_to_state(0.0, 0.0, p), (0.0, 20.0),
                           integrate.IntegratorConfig(max_step=0.05))
    layer.find_layer_equilibria(circuit, [(-1, 1), (0, 30)])
    config = os.path.join(outdir, "probe.json")
    with open(config, "w") as fh:
        json.dump({"scenario": "example2", "t_span": [0.0, 2.0],
                   "initial_state": [-0.3, 0.0],
                   "output": {"path": os.path.join(outdir, "probe.csv")}}, fh)
    if cli.main(["simulate", "--config", config]) != 0:
        raise RuntimeError("probe: switchlayer simulate failed")


# -- isolated per-call timings ------------------------------------------


def _per_call(fn, args, number, repeat=5):
    """Median over ``repeat`` loops of the seconds per call of fn(*args)."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn(*args)
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


def micro_metrics(rng):
    """Per-call cost of the field evaluators and the sigmoid, isolated."""
    duffing = scenarios.make_duffing()
    circuit = scenarios.make_circuit(scenarios.CircuitParams(sigma=0.5))
    poly = series.to_hidden_form(series.SeriesExpansion(tuple(
        (lambda c: (lambda x: c))(rng.normal(size=2)) for _ in range(5))), dim=2)
    x2 = rng.normal(size=2)
    t, lam = float(rng.uniform(0, 10)), float(rng.uniform(-0.9, 0.9))
    phi = sigmoids.SigmoidSpec("piecewise_linear", eps=1e-2).scalar_fn()
    fast = core.fast_field_eval(duffing)
    return {
        "scenarios.duffing_fused_us": (1e6 * _per_call(duffing.fused, (x2, t, lam), 20000), "us"),
        "scenarios.circuit_fused_us": (1e6 * _per_call(circuit.fused, (x2, t, lam), 20000), "us"),
        "core.fast_field_eval_us": (1e6 * _per_call(fast, (x2, t, lam), 20000), "us"),
        "sigmoids.scalar_fn_ns": (1e9 * _per_call(phi, (float(rng.normal()) * 1e-2,), 200000),
                                  "ns"),
        "core.eval_field_us": (1e6 * _per_call(core.eval_field, (circuit, x2, lam, t), 5000),
                               "us"),
        "series.eval_field_us": (1e6 * _per_call(core.eval_field, (poly, x2, lam, t), 2000),
                                 "us"),
    }
