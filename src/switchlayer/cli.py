"""Command-line front end: run scenarios, sweep parameters, dump analyses.

Subcommands: simulate, sweep, amplitude, sliding, equilibria.  All take a
JSON config document; outputs are deterministic CSV or JSON (no
timestamps), with numbers printed to 17 significant digits.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import SwitchedField
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    TrajectorySegment,
    integrate_regularized,
)
from .layer import (
    DegenerateInclusionError,
    HybridTrajectory,
    SlidingSolution,
    find_layer_equilibria,
    find_sliding_modes,
    integrate_hybrid,
    integrate_layer_only,
    layer_amplitude,
)
from .scenarios import (
    CircuitParams,
    DuffingParams,
    circuit_iv_to_state,
    make_circuit,
    make_duffing,
    make_example1,
    make_example2,
)
from .sigmoids import SigmoidSpec


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


MODES = ("hybrid", "regularized", "layer_only")


@dataclass
class RunConfig:
    scenario: str
    scenario_params: dict = field(default_factory=dict)
    mode: str = "hybrid"
    sigmoid: dict | None = None
    t_span: tuple[float, float] = (0.0, 1.0)
    initial_state: list[float] | None = None
    initial_iv: list[float] | None = None  # circuit convenience: (I, V)
    eps_layer: float = 1e-5
    integrator: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {"scenario", "mode", "sigmoid", "t_span", "initial_state",
                 "initial_iv", "eps_layer", "integrator", "output",
                 "grid", "search_box", "t"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        scen = doc.get("scenario")
        if isinstance(scen, str):
            name, params = scen, {}
        elif isinstance(scen, dict) and "name" in scen:
            name, params = scen["name"], dict(scen.get("params", {}))
        else:
            raise ConfigError("config needs scenario: name or {name, params}")
        mode = doc.get("mode", "hybrid")
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        if mode == "regularized" and not doc.get("sigmoid"):
            raise ConfigError("regularized mode requires a sigmoid entry")
        t_span = doc.get("t_span", [0.0, 1.0])
        if (not isinstance(t_span, (list, tuple)) or len(t_span) != 2
                or not t_span[1] > t_span[0]):
            raise ConfigError("t_span must be [t0, t1] with t1 > t0")
        cfg = cls(
            scenario=name, scenario_params=params, mode=mode,
            sigmoid=doc.get("sigmoid"),
            t_span=(float(t_span[0]), float(t_span[1])),
            initial_state=doc.get("initial_state"),
            initial_iv=doc.get("initial_iv"),
            eps_layer=float(doc.get("eps_layer", 1e-5)),
            integrator=dict(doc.get("integrator", {})),
            output=dict(doc.get("output", {})),
        )
        if not cfg.eps_layer > 0:
            raise ConfigError("eps_layer must be positive")
        cfg.build_integrator()  # validate eagerly
        if cfg.sigmoid is not None:
            cfg.build_sigmoid()
        return cfg

    def to_dict(self) -> dict:
        out = {
            "scenario": {"name": self.scenario, "params": dict(self.scenario_params)},
            "mode": self.mode,
            "t_span": list(self.t_span),
            "eps_layer": self.eps_layer,
            "integrator": dict(self.integrator),
            "output": dict(self.output),
        }
        if self.sigmoid is not None:
            out["sigmoid"] = dict(self.sigmoid)
        if self.initial_state is not None:
            out["initial_state"] = list(self.initial_state)
        if self.initial_iv is not None:
            out["initial_iv"] = list(self.initial_iv)
        return out

    def build_system(self) -> SwitchedField:
        name = self.scenario
        params = dict(self.scenario_params)
        try:
            if name == "example1":
                return make_example1(params.pop("variant", "nonlinear"), **params)
            if name == "example2":
                return make_example2(params.pop("variant", "nonlinear"), **params)
            if name == "circuit":
                return make_circuit(CircuitParams(**params))
            if name == "duffing":
                tracker = params.pop("with_tracker", False)
                return make_duffing(DuffingParams(**params), with_tracker=tracker)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad parameters for scenario {name!r}: {exc}") from exc
        raise ConfigError(f"unknown scenario {name!r}")

    def build_sigmoid(self) -> SigmoidSpec:
        if not self.sigmoid:
            raise ConfigError("no sigmoid configured")
        try:
            return SigmoidSpec(**self.sigmoid)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad sigmoid spec: {exc}") from exc

    def build_integrator(self) -> IntegratorConfig:
        try:
            return IntegratorConfig(**self.integrator)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad integrator settings: {exc}") from exc

    def build_initial_state(self) -> np.ndarray:
        if self.initial_iv is not None:
            if self.scenario != "circuit":
                raise ConfigError("initial_iv only applies to the circuit scenario")
            I, V = self.initial_iv
            return circuit_iv_to_state(I, V, CircuitParams(**self.scenario_params))
        if self.initial_state is None:
            raise ConfigError("config needs initial_state (or initial_iv)")
        return np.asarray(self.initial_state, dtype=float)


# -- trajectory table ---------------------------------------------------


def _segments_of(result) -> list[TrajectorySegment]:
    if isinstance(result, HybridTrajectory):
        return result.segments
    return [result]


def trajectory_table(result) -> tuple[list[str], list[list]]:
    """Flatten segments to rows [t, regime, x1..xn, lambda]."""
    segs = _segments_of(result)
    n = segs[0].x.shape[1]
    header = ["t", "regime"] + [f"x{i+1}" for i in range(n)] + ["lambda"]
    rows = []
    for seg in segs:
        lam = seg.lam
        for k in range(seg.t.size):
            lam_k = float(lam[k]) if lam is not None else math.nan
            rows.append([float(seg.t[k]), seg.regime,
                         *(float(v) for v in seg.x[k]), lam_k])
    return header, rows


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return format(value, ".17g")


def write_table(path: str, header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps({"columns": header, "rows": rows}, indent=1,
                          sort_keys=True, allow_nan=True) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)


def run_simulation(cfg: RunConfig):
    sys_ = cfg.build_system()
    icfg = cfg.build_integrator()
    x0 = cfg.build_initial_state()
    if x0.shape != (sys_.dim,):
        what = "(lam0, x2..xn)" if cfg.mode == "layer_only" else "(x1..xn)"
        raise ConfigError(f"{cfg.mode} initial_state must be {what}, {sys_.dim} "
                          f"values for this scenario, got shape {x0.shape}")
    if cfg.mode == "hybrid":
        return integrate_hybrid(sys_, x0, cfg.t_span, icfg, eps_layer=cfg.eps_layer)
    if cfg.mode == "regularized":
        return integrate_regularized(sys_, cfg.build_sigmoid(), x0, cfg.t_span, icfg)
    return integrate_layer_only(sys_, x0[0], x0[1:], cfg.t_span, icfg,
                                eps_layer=cfg.eps_layer)


def amplitude_of(result, window: tuple[float, float], average: float = 0.0) -> dict:
    """``layer.layer_amplitude`` of the run's multiplier over a time window.

    Raw (in-layer ripple included), or ripple-averaged with ``average`` >
    0; n_samples, lambda_min and lambda_max are of the raw samples.
    """
    segs = [seg for seg in _segments_of(result) if seg.lam is not None]
    if not segs:
        raise ConfigError("no multiplier samples in the trajectory")
    t = np.concatenate([seg.t for seg in segs])
    lam = np.concatenate([seg.lam for seg in segs])
    lo, hi = window
    if lo < t[0] - 1e-9 or hi > t[-1] + 1e-9 or hi <= lo:
        raise ConfigError(f"window {window} outside the simulated span")
    try:
        amp = layer_amplitude(t, lam, window, average)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sel = lam[(t >= lo) & (t <= hi)]
    report = {"window": [lo, hi], "n_samples": int(sel.size), "amplitude": amp,
              "lambda_min": float(sel.min()), "lambda_max": float(sel.max())}
    return {**report, "average": average} if average > 0 else report


# -- subcommands --------------------------------------------------------


def cmd_simulate(cfg: RunConfig, out: str | None, fmt: str | None) -> int:
    result = run_simulation(cfg)
    path = out or cfg.output.get("path")
    if path is None:
        raise ConfigError("no output path (config output.path or --out)")
    fmt = fmt or cfg.output.get("format", "csv")
    header, rows = trajectory_table(result)
    write_table(path, header, rows, fmt)
    return 0


def _set_by_path(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for key in parts[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"swept parameter path {dotted!r} not in config")
        node = node[key]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"swept parameter path {dotted!r} not in config")
    node[parts[-1]] = value


def cmd_sweep(doc: dict, parameter: str, values: list, out: str | None,
              fmt: str | None) -> int:
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    base = out or doc.get("output", {}).get("path")
    if base is None:
        raise ConfigError("no output path (config output.path or --out)")
    fmt = fmt or doc.get("output", {}).get("format", "csv")
    stem, dot, ext = base.rpartition(".")
    if not dot:
        stem, ext = base, fmt
    summary = []
    for k, value in enumerate(values):
        member = copy.deepcopy(doc)
        _set_by_path(member, parameter, value)
        cfg = RunConfig.parse(member)
        result = run_simulation(cfg)
        path = f"{stem}_{k}.{ext}"
        header, rows = trajectory_table(result)
        write_table(path, header, rows, fmt)
        t0, t1 = cfg.t_span
        window = (0.5 * (t0 + t1), t1)
        try:
            amp = amplitude_of(result, window)["amplitude"]
        except ConfigError:
            amp = None
        stick = cross = 0
        if isinstance(result, HybridTrajectory):
            stick = sum(1 for _, kind in result.transitions if kind == "stick")
            cross = sum(1 for _, kind in result.transitions
                        if kind.startswith("cross"))
        segs = _segments_of(result)
        summary.append({
            "parameter": parameter,
            "value": value,
            "file": path,
            "final_t": segs[-1].t_final,
            "final_state": [float(v) for v in segs[-1].x_final],
            "post_transient_amplitude": amp,
            "stick_count": stick,
            "cross_count": cross,
        })
    with open(f"{stem}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_amplitude(cfg: RunConfig, window: tuple[float, float],
                  out: str | None, average: float | None = None) -> int:
    if average is not None and not average > 0:
        raise ConfigError("--average must be a positive span")
    report = amplitude_of(run_simulation(cfg), window, average or 0.0)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def cmd_sliding(cfg: RunConfig, doc: dict, out: str | None, fmt: str | None) -> int:
    sys_ = cfg.build_system()
    grid_spec = doc.get("grid")
    if not grid_spec or "x_rest" not in grid_spec:
        raise ConfigError('sliding needs config grid: {"x_rest": [[lo, hi, n], ...]}')
    axes = [np.linspace(float(lo), float(hi), int(n))
            for lo, hi, n in grid_spec["x_rest"]]
    if len(axes) != sys_.dim - 1:
        raise ConfigError(f"grid must span {sys_.dim - 1} tangential coordinates")
    t = float(grid_spec.get("t", 0.0))
    header = ([f"x{i+2}" for i in range(len(axes))]
              + ["lambda_s", "stability"]
              + [f"slide_dx{i+2}" for i in range(len(axes))])
    rows = []
    mesh = np.meshgrid(*axes, indexing="ij")
    for point in np.stack([m.ravel() for m in mesh], axis=1):
        try:
            roots = find_sliding_modes(sys_, point, t)
        except DegenerateInclusionError:  # f1 = 0 for every lam: one row of nan
            roots = [SlidingSolution(math.nan, "set_valued", [math.nan] * len(axes))]
        for root in roots:
            rows.append([*(float(v) for v in point), root.lam_s, root.stability,
                         *(float(v) for v in root.sliding_field)])
    path = out or cfg.output.get("path")
    if path is None:
        raise ConfigError("no output path (config output.path or --out)")
    write_table(path, header, rows, fmt or cfg.output.get("format", "csv"))
    return 0


def cmd_equilibria(cfg: RunConfig, doc: dict, out: str | None, fmt: str | None) -> int:
    sys_ = cfg.build_system()
    box = doc.get("search_box")
    if not box:
        raise ConfigError('equilibria needs config search_box: [[lo, hi], ...]')
    if len(box) != sys_.dim:
        raise ConfigError(f"search_box must give {sys_.dim} (lam, x_rest) intervals")
    t = float(doc.get("t", 0.0))
    eqs = find_layer_equilibria(sys_, box, t)
    header = (["lambda_e"] + [f"x{i+2}" for i in range(sys_.dim - 1)]
              + ["classification"]
              + [f"eig{i+1}_re" for i in range(sys_.dim)]
              + [f"eig{i+1}_im" for i in range(sys_.dim)])
    rows = []
    for eq in eqs:
        rows.append([eq.lam_e, *(float(v) for v in eq.x_rest), eq.classification,
                     *(float(e.real) for e in eq.eigenvalues),
                     *(float(e.imag) for e in eq.eigenvalues)])
    path = out or cfg.output.get("path")
    if path is None:
        raise ConfigError("no output path (config output.path or --out)")
    write_table(path, header, rows, fmt or cfg.output.get("format", "csv"))
    return 0


# -- entry point --------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchlayer",
        description="Simulate piecewise-smooth systems with hidden switching terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", default=None, choices=("csv", "json"))

    common(sub.add_parser("simulate", help="run one trajectory and write it out"))

    p_sweep = sub.add_parser("sweep", help="re-run over a list of parameter values")
    common(p_sweep)
    p_sweep.add_argument("--parameter", required=True,
                         help="dotted config path, e.g. sigmoid.eps")
    p_sweep.add_argument("--values", required=True,
                         help="JSON list of values, e.g. '[0.1, 0.01]'")

    amp_help = ("half peak-to-peak of the multiplier over a window: raw (in-layer "
                "ripple included), or with --average SPAN of its running mean")
    p_amp = sub.add_parser("amplitude", help=amp_help, description=amp_help)
    common(p_amp)
    p_amp.add_argument("--window", required=True, nargs=2, type=float,
                       metavar=("T_LO", "T_HI"))
    p_amp.add_argument("--average", type=float, metavar="SPAN", help="averaging span")

    common(sub.add_parser("sliding", help="dump sliding modes over a state grid (a point "
                          "where f1 = 0 for every lam: one row, set_valued, nan)"))
    common(sub.add_parser("equilibria", help="dump layer equilibria in a box"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load_config(args.config)
        if args.command == "sweep":
            try:
                values = json.loads(args.values)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--values must be a JSON list: {exc}") from exc
            if not isinstance(values, list):
                raise ConfigError("--values must be a JSON list")
            return cmd_sweep(doc, args.parameter, values, args.out, args.format)
        cfg = RunConfig.parse(doc)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, args.format)
        if args.command == "amplitude":
            return cmd_amplitude(cfg, tuple(args.window), args.out, args.average)
        if args.command == "sliding":
            return cmd_sliding(cfg, doc, args.out, args.format)
        return cmd_equilibria(cfg, doc, args.out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
