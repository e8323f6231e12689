"""The three benchmark workloads: inputs from a seed, operations, checks.

A workload object builds its systems and inputs once.  ``operations``
lists the calls one pass makes, each a (name, callable) pair; every pass
makes the same calls on the same inputs.  ``check`` judges one pass's
results against the references in ``checks`` and returns the problems
found and the names of the operations counted as failed.  Library calls
go through module attributes (``layer.integrate_hybrid``), so the tracer
in ``tracing`` sees them when it is installed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from types import SimpleNamespace

import numpy as np

from switchlayer import cli, integrate, layer, scenarios, series, sigmoids

import checks


def _identity(system):
    return system


class Workload:
    name = ""

    def __init__(self, seed: int, outdir: str, instrument=_identity):
        self.rng = np.random.default_rng(seed)
        self.outdir = outdir
        self.instrument = instrument

    def operations(self):
        raise NotImplementedError

    def check(self, results):
        raise NotImplementedError

    def self_test(self, results):
        raise NotImplementedError


def _raised(results):
    return {name for name, value in results.items() if isinstance(value, BaseException)}


# -- hidden_oscillator --------------------------------------------------


class HiddenOscillator(Workload):
    """Criterion 4's runs of the forced relay, on shorter spans.

    The seed sets the start time t0, that is the forcing phase.  Each run
    starts on its slow orbit (the cube root of the forcing for the cubic,
    the closed-form forced response for the linear variant), so the
    windows, the second half of each span, hold no start-up transient.
    The eps = 1e-2 pair gets the longer span because its matched-eps gap
    settles more slowly (4.0% at most over t0 with 60 time units, 3.5%
    over 24 seeds with 80, 2.5% with criterion 4's 500).
    """

    name = "hidden_oscillator"
    LAYER_SPAN = 40.0
    REG_SPAN = 80.0
    EPS_LAYER = 1e-5
    EPS_REG = 1e-2

    def __init__(self, seed, outdir, instrument=_identity):
        super().__init__(seed, outdir, instrument)
        self.t0 = float(self.rng.uniform(0.0, 2.0 * math.pi))
        self.cfg = integrate.IntegratorConfig(rel_tol=1e-5, abs_tol=1e-8, max_step=0.05)
        self.sig = sigmoids.SigmoidSpec("piecewise_linear", eps=self.EPS_REG)
        self.sys = {v: instrument(scenarios.make_duffing(scenarios.DuffingParams(variant=v)))
                    for v in ("nonlinear_cubic", "linear")}
        cube = float(np.cbrt(checks.DUFFING_A * math.cos(self.t0)))
        self.start = {
            ("nonlinear_cubic", "layer"): (cube, 0.0),
            ("nonlinear_cubic", "ref"): (cube, 0.0),
            ("nonlinear_cubic", "reg"): (cube, 0.0),
            ("linear", "layer"): checks.linear_steady_state(self.EPS_LAYER, self.t0, False),
            ("linear", "ref"): checks.linear_steady_state(self.EPS_REG, self.t0, False),
            ("linear", "reg"): checks.linear_steady_state(self.EPS_REG, self.t0, True),
        }

    def _layer(self, variant, kind, eps, span):
        lam0, x2 = self.start[(variant, kind)]
        return lambda: layer.integrate_layer_only(
            self.sys[variant], lam0, np.array([x2]), (self.t0, self.t0 + span),
            self.cfg, eps_layer=eps)

    def _reg(self, variant):
        lam0, x2 = self.start[(variant, "reg")]
        # x1 = eps lam inside the piecewise-linear band
        x0 = np.array([self.EPS_REG * lam0, x2])
        return lambda: integrate.integrate_regularized(
            self.sys[variant], self.sig, x0, (self.t0, self.t0 + self.REG_SPAN), self.cfg)

    def operations(self):
        ops = []
        for v in ("nonlinear_cubic", "linear"):
            ops.append((f"layer/{v}", self._layer(v, "layer", self.EPS_LAYER, self.LAYER_SPAN)))
        for v in ("nonlinear_cubic", "linear"):
            ops.append((f"regularized/{v}", self._reg(v)))
            ops.append((f"reference/{v}", self._layer(v, "ref", self.EPS_REG, self.REG_SPAN)))
        return ops

    def _amplitudes(self, results):
        t0 = self.t0
        lw = (t0 + 0.5 * self.LAYER_SPAN, t0 + self.LAYER_SPAN)
        rw = (t0 + 0.5 * self.REG_SPAN, t0 + self.REG_SPAN)
        amp = {}
        for v in ("nonlinear_cubic", "linear"):
            seg = results[f"layer/{v}"]
            amp["layer", v] = checks.ripple_average_amplitude(seg.t, seg.lam, lw)
            amp["layer_raw", v] = checks.raw_amplitude(seg.t, seg.lam, lw)
            for kind in ("regularized", "reference"):
                seg = results[f"{kind}/{v}"]
                amp[kind, v] = checks.raw_amplitude(seg.t, seg.lam, rw)
        return amp

    def check(self, results):
        failed = _raised(results)
        if failed:
            return [], failed
        problems = []
        for name, seg in results.items():
            span = self.LAYER_SPAN if name.startswith("layer/") else self.REG_SPAN
            if abs(seg.t[-1] - (self.t0 + span)) > 1e-9:
                problems.append(f"{name} ended at t={seg.t[-1]:.6g} before its span")
        if problems:
            return problems, failed
        amp = self._amplitudes(results)
        cubic, lin = "nonlinear_cubic", "linear"
        problems += checks.check_layer_amplitudes(amp["layer", cubic], amp["layer", lin])
        for v in (cubic, lin):
            problems += checks.check_matched(v, amp["regularized", v], amp["reference", v])
        problems += checks.check_matched(
            "amplitude ratio", amp["regularized", cubic] / amp["regularized", lin],
            amp["reference", cubic] / amp["reference", lin])
        # the linear variant started on its forced orbit stays on it
        problems += checks.check_near(
            "linear layer amplitude", amp["layer_raw", lin],
            abs(checks.linear_response(self.EPS_LAYER, False)), 0.01)
        problems += checks.check_near(
            "linear reference amplitude", amp["reference", lin],
            abs(checks.linear_response(self.EPS_REG, False)), 0.01)
        problems += checks.check_near(
            "linear regularized amplitude", amp["regularized", lin],
            abs(checks.linear_response(self.EPS_REG, True)), 0.01)
        return problems, failed

    def self_test(self, results):
        amp = self._amplitudes(results)
        cubic, lin = "nonlinear_cubic", "linear"
        return {
            "layer bands, swapped variants": checks.check_layer_amplitudes(
                amp["layer", lin], amp["layer", cubic]),
            "matched eps, swapped variants": checks.check_matched(
                "swapped", amp["regularized", cubic], amp["reference", lin]),
        }


# -- relay_portrait -----------------------------------------------------


class RelayPortrait(Workload):
    """Hybrid runs of the relay circuit and the planar examples.

    Per sigma in {0, 1/2} the seed draws five starts where the circuit
    sticks and slides to the end of the span, two above Vb that cross
    once and one near the closed circuit's focus that never meets the
    surface, so every seed gives the same mix of work.  Criterion 3's
    sigma = 1/2 run from (I, V) = (0, 0), the two layer saddles and the
    planar examples are added on fixed or seeded starts.
    """

    name = "relay_portrait"
    SIGMAS = (0.0, 0.5)
    SPAN = 20.0
    N_SLIDE = 5
    N_CROSS = 2
    N_FREE = 1

    def __init__(self, seed, outdir, instrument=_identity):
        super().__init__(seed, outdir, instrument)
        rng = self.rng
        self.cfg = integrate.IntegratorConfig(max_step=0.05)
        self.params = {s: scenarios.CircuitParams(sigma=s) for s in self.SIGMAS}
        self.circuit = {s: instrument(scenarios.make_circuit(p)) for s, p in self.params.items()}
        self.starts = {}
        for s in self.SIGMAS:
            iv = [(rng.uniform(2.6, 4.0), 0.5 + 7.0 * (k + rng.uniform()) / self.N_SLIDE)
                  for k in range(self.N_SLIDE)]
            iv += [(rng.uniform(0.1, 0.9), rng.uniform(6.3, 7.8)) for _ in range(self.N_CROSS)]
            iv += [(rng.uniform(0.6, 1.4), rng.uniform(4.5, 5.5)) for _ in range(self.N_FREE)]
            self.starts[s] = [scenarios.circuit_iv_to_state(i, v, self.params[s]) for i, v in iv]
        self.example2 = instrument(scenarios.make_example2("nonlinear"))
        self.x0_example2 = np.array([rng.uniform(-1.0, -0.1), rng.uniform(-1.0, 1.0)])
        self.example1 = {v: instrument(scenarios.make_example1(v))
                         for v in ("nonlinear", "filippov")}
        self.x0_example1 = np.array([0.0, rng.uniform(-1.0, 1.0)])

    def operations(self):
        ops = []
        for s in self.SIGMAS:
            for k, x0 in enumerate(self.starts[s]):
                ops.append((f"portrait/{s}/{k}", self._hybrid(self.circuit[s], x0, self.SPAN)))
        ops.append(("escape/0.5", self._hybrid(
            self.circuit[0.5], scenarios.circuit_iv_to_state(0.0, 0.0, self.params[0.5]),
            200.0)))
        ops.append(("example2", self._hybrid(self.example2, self.x0_example2, 5.0)))
        for v, system in self.example1.items():
            ops.append((f"example1/{v}", self._hybrid(system, self.x0_example1, 5.0)))
        for s in self.SIGMAS:
            ops.append((f"saddle/{s}", self._saddle(s)))
        return ops

    def _hybrid(self, system, x0, t_end):
        return lambda: layer.integrate_hybrid(system, x0, (0.0, t_end), self.cfg)

    def _saddle(self, s):
        return lambda: layer.find_layer_equilibria(self.circuit[s], [(-1, 1), (0, 30)])

    def check(self, results):
        failed = _raised(results)
        problems = []
        for name, out in results.items():
            if name in failed:
                continue
            kind = name.split("/")[0]
            if kind == "saddle":
                s = float(name.split("/")[1])
                problems += checks.check_saddle(out, s)
                continue
            problems += checks.check_continuity(out.segments)
            if kind in ("portrait", "escape"):
                s = float(name.split("/")[1])
                problems += checks.check_circuit_slides(out.segments, s)
                problems += checks.check_slide_exits(out)
            if kind == "portrait" and abs(out.t_final - self.SPAN) > 1e-9:
                problems.append(f"{name} ended at t={out.t_final}")
            if kind == "escape":
                if "exit_slide" not in [k for _, k in out.transitions]:
                    problems.append("sigma=1/2 run from (0, 0) never leaves the slide")
                i_fin, v_fin = out.x_final[1], checks.VB - out.x_final[0]
                if abs(i_fin - checks.V0 / checks.R) > 1e-3 or abs(v_fin - checks.V0) > 1e-3:
                    problems.append(f"sigma=1/2 run ends at (I, V) = ({i_fin:.6f}, {v_fin:.6f}),"
                                    " expected the focus (4/3, 5)")
            if kind == "example2":
                problems += checks.check_constant_slide(out, -1.0 / math.sqrt(2.0), 1.0)
            if kind == "example1":
                rate = 1.0 if name.endswith("nonlinear") else -1.0
                problems += checks.check_constant_slide(out, 0.0, rate)
        return problems, failed

    def self_test(self, results):
        slides = [seg for k in range(self.N_SLIDE)
                  for seg in results[f"portrait/0.5/{k}"].segments]
        return {
            "sliding lambda, swapped sigma": checks.check_circuit_slides(slides, 0.0),
            "layer saddle, swapped sigma": checks.check_saddle(results["saddle/0.5"], 0.0),
        }


# -- switch_atlas -------------------------------------------------------


def _poly_field(coeffs, tangential):
    """Series field whose f1 is the polynomial sum c_n lam^n.

    The tangential component is (1 + x2) sum d_n lam^n with d_n =
    tangential, so the sliding speed at a root r is known in closed form.
    """
    alphas = tuple((lambda c, d: (lambda x: np.array([c, d * (1.0 + x[1])])))(c, d)
                   for c, d in zip(coeffs, tangential))
    return series.to_hidden_form(series.SeriesExpansion(alphas), dim=2)


class SwitchAtlas(Workload):
    """The analyst's CLI session on the circuit plus lambda-root queries.

    CLI ``sliding`` grids and ``equilibria`` boxes at sigma = 0 and 1/2,
    ``sweep --parameter sigmoid.eps`` for four sigmoid kinds, and
    ``find_sliding_modes`` on polynomial fields built from seeded roots.
    The three TANGENTIAL fields have a double root between grid points;
    the sign-change search misses it, so those queries count as failed.
    """

    name = "switch_atlas"
    SIGMAS = (0.0, 0.5)
    GRID_POINTS = 60
    KINDS = ("piecewise_linear", "tanh", "erf", "arctan_unit")
    EPS_VALUES = (0.1, 0.01, 0.001)
    DEGREES = (1, 2, 3, 4, 5, 2, 3, 4)
    # (double roots, simple roots): none of them on the 513-point grid
    TANGENTIAL = (((0.3,), ()), ((-0.55,), (0.8,)), ((0.1, -0.7), ()))

    def __init__(self, seed, outdir, instrument=_identity):
        super().__init__(seed, outdir, instrument)
        rng = self.rng
        self.grids = {}
        self.configs = {}
        for k, s in enumerate(self.SIGMAS):
            circuit = {"name": "circuit", "params": {"sigma": s}}
            lo, hi = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(4.0, 6.0))
            self.grids[s] = np.linspace(lo, hi, self.GRID_POINTS)
            self._config(f"sliding_{k}", {
                "scenario": circuit,
                "grid": {"x_rest": [[lo, hi, self.GRID_POINTS]]},
                "output": {"path": self._path(f"sliding_{k}.csv")}})
            self._config(f"equilibria_{k}", {
                "scenario": circuit,
                "search_box": [[-1, 1], [0, float(rng.uniform(10.0, 30.0))]],
                "output": {"path": self._path(f"equilibria_{k}.json"), "format": "json"}})
        self.sweep_sigma = float(rng.uniform(0.1, 0.6))
        self.sweep_i0 = float(rng.uniform(2.5, 3.5))
        for kind in self.KINDS:
            self._config(f"sweep_{kind}", {
                "scenario": {"name": "circuit", "params": {"sigma": self.sweep_sigma}},
                "mode": "regularized",
                "sigmoid": {"kind": kind, "eps": self.EPS_VALUES[0]},
                "t_span": [0.0, 1.0],
                "initial_state": [0.0, self.sweep_i0],
                "output": {"path": self._path(f"sweep_{kind}.csv")}})
        self.fields = []
        for deg in self.DEGREES:
            roots = self._draw_roots(deg, outside=deg >= 3)
            self.fields.append(self._field(roots, float(rng.uniform(-2.0, 2.0))))
        self.tangential = []
        for double, simple in self.TANGENTIAL:
            roots = [r for r in double for _ in range(2)] + list(simple)
            self.tangential.append(self._field(roots, 1.0, expected=double + simple))
        self._reference_hashes = None
        self._sweep_reference = None

    def _path(self, name):
        return os.path.join(self.outdir, name)

    def _config(self, name, doc):
        path = self._path(f"config_{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        self.configs[name] = path

    def _draw_roots(self, deg, outside):
        """deg real roots, one of them outside [-1, 1] when asked.

        Roots inside stay 0.05 apart and within 0.95 of the origin, so
        each sits alone in its grid cell and away from the ends.
        """
        rng = self.rng
        inside = []
        while len(inside) < deg - outside:
            r = float(rng.uniform(-0.95, 0.95))
            if all(abs(r - q) >= 0.05 for q in inside):
                inside.append(r)
        extra = [float(rng.choice([-1.0, 1.0]) * rng.uniform(1.1, 2.0))] if outside else []
        return inside + extra

    def _field(self, roots, scale, expected=None):
        coeffs = scale * np.poly(roots)[::-1]  # ascending powers
        tangential = self.rng.normal(size=coeffs.size)
        x2 = float(self.rng.uniform(-1.0, 1.0))
        if expected is None:
            expected = [r for r in roots if abs(r) <= 1.0]
        return {"system": self.instrument(_poly_field(coeffs, tangential)),
                "coeffs": coeffs, "tangential": tangential, "x2": x2,
                "expected": sorted(expected)}

    # -- operations -----------------------------------------------------

    def _cli(self, *argv):
        return lambda: cli.main(list(argv))

    def _roots(self, field):
        return lambda: layer.find_sliding_modes(field["system"], np.array([field["x2"]]))

    def operations(self):
        ops = []
        for k in range(len(self.SIGMAS)):
            ops.append((f"cli/sliding/{k}",
                        self._cli("sliding", "--config", self.configs[f"sliding_{k}"])))
            ops.append((f"cli/equilibria/{k}",
                        self._cli("equilibria", "--config", self.configs[f"equilibria_{k}"])))
        values = json.dumps(list(self.EPS_VALUES))
        for kind in self.KINDS:
            ops.append((f"cli/sweep/{kind}", self._cli(
                "sweep", "--config", self.configs[f"sweep_{kind}"],
                "--parameter", "sigmoid.eps", "--values", values)))
        ops += [(f"roots/{k}", self._roots(f)) for k, f in enumerate(self.fields)]
        ops += [(f"tangential/{k}", self._roots(f)) for k, f in enumerate(self.tangential)]
        return ops

    # -- checks ---------------------------------------------------------

    def _outputs(self):
        names = [f"sliding_{k}.csv" for k in range(len(self.SIGMAS))]
        names += [f"equilibria_{k}.json" for k in range(len(self.SIGMAS))]
        for kind in self.KINDS:
            names += [f"sweep_{kind}_{j}.csv" for j in range(len(self.EPS_VALUES))]
            names.append(f"sweep_{kind}_summary.json")
        return [self._path(n) for n in names]

    def _read_csv(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def _check_root_query(self, field, found):
        problems = checks.check_roots([r.lam_s for r in found], field["expected"], 1e-9)
        if problems:
            return problems
        c = np.polynomial.Polynomial(field["coeffs"])
        d = np.polynomial.Polynomial(field["tangential"])
        for r in found:
            want = float(d(r.lam_s)) * (1.0 + field["x2"])
            if abs(r.sliding_field[0] - want) > 1e-9 * max(1.0, abs(want)):
                problems.append(f"sliding speed {r.sliding_field[0]} at root "
                                f"{r.lam_s}, expected {want}")
            slope = float(c.deriv()(r.lam_s))
            stab = "attracting" if slope < 0 else "repelling"
            if r.stability != stab:
                problems.append(f"root {r.lam_s} classified {r.stability}, slope {slope}")
        return problems

    def check(self, results):
        failed = _raised(results)
        problems = []
        for name, out in results.items():
            if name.startswith("cli/") and name not in failed and out != 0:
                failed.add(name)
        for k, s in enumerate(self.SIGMAS):
            if f"cli/sliding/{k}" not in failed:
                rows = [(float(r[0]), float(r[1]), r[2], float(r[3]))
                        for r in self._read_csv(self._path(f"sliding_{k}.csv"))[1:]]
                problems += checks.check_sliding_rows(rows, s, self.grids[s])
            if f"cli/equilibria/{k}" not in failed:
                with open(self._path(f"equilibria_{k}.json")) as fh:
                    doc = json.load(fh)
                eqs = [SimpleNamespace(lam_e=r[0], x_rest=[r[1]], classification=r[2])
                       for r in doc["rows"]]
                problems += checks.check_saddle(eqs, s)
        problems += self._check_sweeps(failed)
        for k, f in enumerate(self.fields):
            if f"roots/{k}" not in failed:
                problems += self._check_root_query(f, results[f"roots/{k}"])
        for k, f in enumerate(self.tangential):
            name = f"tangential/{k}"
            if name not in failed and checks.check_roots(
                    [r.lam_s for r in results[name]], f["expected"], 1e-6):
                failed.add(name)  # the known fault: a double root off the grid
        if not any(n.startswith("cli/") for n in failed):
            problems += self._check_rerun()
        return problems, failed

    def _check_sweeps(self, failed):
        if self._sweep_reference is None:
            self._sweep_reference = checks.circuit_slide_current(
                self.sweep_i0, 1.0, self.sweep_sigma)
        problems = []
        for kind in self.KINDS:
            if f"cli/sweep/{kind}" in failed:
                continue
            with open(self._path(f"sweep_{kind}_summary.json")) as fh:
                summary = json.load(fh)
            errors = []
            for j, member in enumerate(summary):
                last = self._read_csv(self._path(f"sweep_{kind}_{j}.csv"))[-1]
                final = [float(v) for v in last[2:4]]
                if final != member["final_state"] or float(last[0]) != member["final_t"]:
                    problems.append(f"{kind}: summary and trajectory file {j} disagree")
                errors.append(abs(member["final_state"][1] - self._sweep_reference))
            problems += [f"{kind}: {p}" for p in checks.check_eps_convergence(errors)]
        return problems

    def _check_rerun(self):
        hashes = {}
        for path in self._outputs():
            with open(path, "rb") as fh:
                hashes[path] = hashlib.sha256(fh.read()).hexdigest()
        if self._reference_hashes is None:
            self._reference_hashes = hashes
            return []
        return [f"rerun changed {os.path.basename(p)}"
                for p, h in hashes.items() if self._reference_hashes[p] != h]

    def self_test(self, results):
        half = self.SIGMAS.index(0.5)
        rows = [(float(r[0]), float(r[1]), r[2], float(r[3]))
                for r in self._read_csv(self._path(f"sliding_{half}.csv"))[1:]]
        f = self.fields[-1]
        return {
            "sliding rows, swapped sigma": checks.check_sliding_rows(rows, 0.0, self.grids[0.5]),
            "built-from roots, shifted root": checks.check_roots(
                [r.lam_s for r in results[f"roots/{len(self.fields) - 1}"]],
                [r + 1e-3 for r in f["expected"]], 1e-9),
        }


WORKLOADS = {w.name: w for w in (HiddenOscillator, RelayPortrait, SwitchAtlas)}
