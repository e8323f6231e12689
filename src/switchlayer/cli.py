"""Command-line front end: run scenarios, sweep parameters, dump analyses.

Subcommands: simulate, sweep, amplitude, sliding, equilibria.  All take a
JSON config document; outputs are deterministic CSV or JSON (no
timestamps), with numbers printed to 17 significant digits.  Sweep member
k goes to the output path with ``_k`` before the file name's extension (the
format's when it has none).  A missing output directory, an empty output
path and an output path that is a directory (except a sweep's base) are
ConfigErrors.

``RunConfig.parse`` is the one reader of the document: it converts and
checks every entry present, used by the subcommand or not, before any
computation starts.  Every number it reads must be finite, a grid count
an integer of at least 1 and a layer_only lam0 in [-1, 1].  A scenario's
``params`` are its constructor's parameters.  ``sliding`` reads ``grid``
(``x_rest`` axes and its ``t``); ``equilibria`` reads ``search_box`` and
takes no time (autonomous only).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import SwitchedField
from .integrate import IntegrationError, IntegratorConfig, integrate_regularized
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
FORMATS = ("csv", "json")
KEYS = {"scenario", "mode", "sigmoid", "t_span", "initial_state", "initial_iv",
        "eps_layer", "integrator", "output", "grid", "search_box"}


def _entry(doc: dict, key: str, convert, default=None):
    """``convert(doc[key])``, or ``default`` when the entry is absent or null.

    A TypeError, ValueError or KeyError from convert becomes a ConfigError
    naming the entry.
    """
    value = doc.get(key)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad {key} entry: {type(exc).__name__}: {exc}") from exc


def _finite(value) -> float:
    """float(value), or a ValueError if that is NaN or infinite."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{value!r} is not a finite number")
    return v


def _count(n) -> int:
    """n itself if an integer of at least 1 (not a bool), else a ValueError."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"a grid count must be an integer of at least 1, got {n!r}")
    return n


def _only(entry: dict, keys: tuple[str, ...]) -> dict:
    """The entry itself, or a ValueError naming its keys outside ``keys``."""
    unknown = set(entry) - set(keys)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}, expected some of {list(keys)}")
    return entry


def _scenario(scen) -> tuple[str, dict, SwitchedField]:
    """(name, params, system) of a scenario entry: a name or {name, params}."""
    if isinstance(scen, str):
        name, params = scen, {}
    elif isinstance(scen, dict) and "name" in scen:
        name, params = scen["name"], dict(scen.get("params") or {})
    else:
        raise ValueError("needs a name or {name, params}")
    kw = dict(params)
    if name in ("example1", "example2"):
        make = make_example1 if name == "example1" else make_example2
        return name, params, make(kw.pop("variant", "nonlinear"), **kw)
    if name == "circuit":
        return name, params, make_circuit(CircuitParams(**kw))
    if name == "duffing":
        return name, params, make_duffing(DuffingParams(**kw))
    raise ValueError(f"unknown scenario {name!r}")


@dataclass
class RunConfig:
    """A run configuration, each entry converted to what the run needs."""

    scenario: str
    system: SwitchedField
    mode: str
    t_span: tuple[float, float]
    eps_layer: float
    integrator: IntegratorConfig
    sigmoid: SigmoidSpec | None
    x0: np.ndarray | None
    grid: list[np.ndarray] | None  # sliding: axes over x2..xn, at the grid's t
    grid_t: float
    search_box: list[tuple[float, float]] | None  # equilibria: over lam, x2..xn
    path: str | None
    format: str

    @classmethod
    def parse(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if doc.get("scenario") is None:
            raise ConfigError("config needs scenario: name or {name, params}")
        name, params, system = _entry(doc, "scenario", _scenario)
        dim = system.dim
        mode = _entry(doc, "mode", str, "hybrid")
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        sigmoid = _entry(doc, "sigmoid", lambda spec: SigmoidSpec(**spec))
        if mode == "regularized" and sigmoid is None:
            raise ConfigError("regularized mode requires a sigmoid entry")
        t_span = _entry(doc, "t_span", lambda ts: tuple(map(_finite, ts)), (0.0, 1.0))
        if len(t_span) != 2 or not t_span[1] > t_span[0]:
            raise ConfigError("t_span must be [t0, t1] with t1 > t0")
        eps_layer = _entry(doc, "eps_layer", float, 1e-5)
        if not 0.0 < eps_layer < math.inf:  # False for NaN
            raise ConfigError("eps_layer must be finite and positive")
        x0 = _entry(doc, "initial_state", lambda x: np.array([_finite(v) for v in x]))
        if x0 is not None and x0.shape != (dim,):
            what = "(lam0, x2..xn)" if mode == "layer_only" else "(x1..xn)"
            raise ConfigError(f"{mode} initial_state must be {what}, {dim} "
                              f"values for this scenario, got shape {x0.shape}")
        if doc.get("initial_iv") is not None and name != "circuit":
            raise ConfigError("initial_iv only applies to the circuit scenario")
        x0 = _entry(doc, "initial_iv", lambda iv: circuit_iv_to_state(
            *map(_finite, iv), p=CircuitParams(**params)), x0)
        if mode == "layer_only" and x0 is not None and not -1.0 <= x0[0] <= 1.0:
            raise ConfigError(f"layer_only lam0 must lie in [-1, 1], got {x0[0]}")
        grid, grid_t = _entry(doc, "grid", lambda g: (
            [np.linspace(_finite(lo), _finite(hi), _count(n))
             for lo, hi, n in _only(g, ("x_rest", "t"))["x_rest"]],
            _finite(g.get("t", 0.0))), (None, 0.0))
        if grid is not None and len(grid) != dim - 1:
            raise ConfigError(f"grid must span {dim - 1} tangential coordinates")
        box = _entry(doc, "search_box", lambda b: [(_finite(lo), _finite(hi)) for lo, hi in b])
        if box is not None and len(box) != dim:
            raise ConfigError(f"search_box must give {dim} (lam, x_rest) intervals")
        path, fmt = _entry(doc, "output", lambda o: (
            _only(o, ("path", "format")).get("path"), o.get("format", "csv")), (None, "csv"))
        if not isinstance(path, (str, type(None))) or fmt not in FORMATS:
            raise ConfigError(f"output needs a path string and a format in {FORMATS}, "
                              f"got {path!r} and {fmt!r}")
        return cls(
            scenario=name, system=system, mode=mode, t_span=t_span, eps_layer=eps_layer,
            integrator=_entry(doc, "integrator", lambda kw: IntegratorConfig(**kw),
                              IntegratorConfig()),
            sigmoid=sigmoid, x0=x0, grid=grid, grid_t=grid_t, search_box=box,
            path=path, format=fmt,
        )

    def target(self, out: str | None, fmt: str | None,
               base: bool = False) -> tuple[str, str]:
        """The output path and format: --out / --format over the config's.

        The path names a file to write, so it may not be an existing
        directory, unless it is a sweep's base (``base``): the members
        are written beside it.
        """
        path = out or self.path
        if not path:
            raise ConfigError("no output path (config output.path or --out)")
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise ConfigError(f"output directory {folder!r} does not exist")
        if not base and os.path.isdir(path):
            raise ConfigError(f"output path {path!r} is a directory")
        return path, fmt or self.format


# -- trajectory table ---------------------------------------------------


def trajectory_table(result: HybridTrajectory) -> tuple[list[str], list[tuple]]:
    """Flatten segments to rows (t, regime, x1..xn, lambda), lambda nan if untracked."""
    segs = result.segments
    n = segs[0].x.shape[1]
    header = ["t", "regime"] + [f"x{i+1}" for i in range(n)] + ["lambda"]
    rows = []
    for seg in segs:
        lam = seg.lam.tolist() if seg.lam is not None else repeat(math.nan)
        rows += zip(seg.t.tolist(), repeat(seg.regime), *seg.x.T.tolist(), lam)
    return header, rows


def write_table(path: str, header: list[str], rows: list, fmt: str) -> None:
    """Write rows as CSV or JSON.

    A CSV row is formatted by one ``%`` template per sequence of value
    types: ``%s`` for a str (or a subclass), ``%.17g`` for anything else.
    """
    if fmt == "csv":
        templates = {}
        lines = [",".join(header)]
        for row in rows:
            kinds = tuple(map(type, row))
            template = templates.get(kinds)
            if template is None:
                template = templates[kinds] = ",".join(
                    "%s" if issubclass(kind, str) else "%.17g" for kind in kinds)
            lines.append(template % tuple(row))
        text = "\n".join(lines) + "\n"
    else:  # json; RunConfig.parse and --format admit only FORMATS
        text = json.dumps({"columns": header, "rows": rows}, indent=1,
                          sort_keys=True, allow_nan=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def run_simulation(cfg: RunConfig) -> HybridTrajectory:
    """The configured run as a HybridTrajectory: a regularized or
    layer_only run is one segment with no transitions."""
    sys_, x0, icfg = cfg.system, cfg.x0, cfg.integrator
    if x0 is None:
        raise ConfigError("config needs initial_state (or initial_iv)")
    if cfg.mode == "hybrid":
        return integrate_hybrid(sys_, x0, cfg.t_span, icfg, eps_layer=cfg.eps_layer)
    if cfg.mode == "regularized":
        seg = integrate_regularized(sys_, cfg.sigmoid, x0, cfg.t_span, icfg)
    else:
        seg = integrate_layer_only(sys_, x0[0], x0[1:], cfg.t_span, icfg,
                                   eps_layer=cfg.eps_layer)
    return HybridTrajectory([seg])


def amplitude_of(result, window: tuple[float, float], average: float = 0.0) -> dict:
    """``layer.layer_amplitude`` of the run's multiplier over a time window.

    Raw (in-layer ripple included), or ripple-averaged with ``average`` >
    0; n_samples, lambda_min and lambda_max are of the raw samples.
    """
    segs = [seg for seg in result.segments if seg.lam is not None]
    if not segs:
        raise ConfigError("no multiplier samples in the trajectory")
    t = np.concatenate([seg.t for seg in segs])
    lam = np.concatenate([seg.lam for seg in segs])
    lo, hi = window
    if lo < t[0] - 1e-9 or hi > t[-1] + 1e-9:
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
    path, fmt = cfg.target(out, fmt)
    header, rows = trajectory_table(run_simulation(cfg))
    write_table(path, header, rows, fmt)
    return 0


def _set_by_path(doc: dict, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    node = doc
    for key in parents:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict) or last not in node:
        raise ConfigError(f"swept parameter path {dotted!r} not in config")
    node[last] = value


def cmd_sweep(doc: dict, parameter: str, values: list, out: str | None,
              fmt: str | None) -> int:
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    base, fmt = RunConfig.parse(doc).target(out, fmt, base=True)
    stem, ext = os.path.splitext(base)  # the file name's extension only
    ext = ext or "." + fmt
    members = []
    for value in values:
        member = copy.deepcopy(doc)
        _set_by_path(member, parameter, value)
        members.append(RunConfig.parse(member))
    summary = []
    for k, (value, cfg) in enumerate(zip(values, members)):
        result = run_simulation(cfg)
        path = f"{stem}_{k}{ext}"
        header, rows = trajectory_table(result)
        write_table(path, header, rows, fmt)
        t0, t1 = cfg.t_span
        window = (0.5 * (t0 + t1), t1)
        try:
            amp = amplitude_of(result, window)["amplitude"]
        except ConfigError:
            amp = None
        kinds = [kind for _, kind in result.transitions]
        summary.append({
            "parameter": parameter,
            "value": value,
            "file": path,
            "final_t": result.t_final,
            "final_state": [float(v) for v in result.x_final],
            "post_transient_amplitude": amp,
            "stick_count": kinds.count("stick"),
            "cross_count": sum(kind.startswith("cross") for kind in kinds),
        })
    with open(f"{stem}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_amplitude(cfg: RunConfig, window: tuple[float, float],
                  out: str | None, average: float | None = None) -> int:
    lo, hi = window
    if not -math.inf < lo < hi < math.inf:  # False for NaN
        raise ConfigError(f"--window must be finite times T_LO < T_HI, got {lo} {hi}")
    if average is not None and not 0.0 < average < hi - lo:  # False for NaN
        raise ConfigError(f"--average must be positive and shorter than the window, got {average}")
    if out:
        cfg.target(out, None)  # its directory exists
    report = amplitude_of(run_simulation(cfg), window, average or 0.0)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def cmd_sliding(cfg: RunConfig, out: str | None, fmt: str | None) -> int:
    sys_, axes, t = cfg.system, cfg.grid, cfg.grid_t
    if axes is None:
        raise ConfigError('sliding needs config grid: {"x_rest": [[lo, hi, n], ...]}')
    path, fmt = cfg.target(out, fmt)
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
    write_table(path, header, rows, fmt)
    return 0


def cmd_equilibria(cfg: RunConfig, out: str | None, fmt: str | None) -> int:
    sys_ = cfg.system
    if cfg.search_box is None:
        raise ConfigError('equilibria needs config search_box: [[lo, hi], ...]')
    if sys_.time_dependent:
        raise ConfigError(f"equilibria needs an autonomous layer; scenario "
                          f"{cfg.scenario!r} is time-dependent")
    path, fmt = cfg.target(out, fmt)
    eqs = find_layer_equilibria(sys_, cfg.search_box)
    header = (["lambda_e"] + [f"x{i+2}" for i in range(sys_.dim - 1)]
              + ["classification"]
              + [f"eig{i+1}_re" for i in range(sys_.dim)]
              + [f"eig{i+1}_im" for i in range(sys_.dim)])
    rows = []
    for eq in eqs:
        rows.append([eq.lam_e, *(float(v) for v in eq.x_rest), eq.classification,
                     *(float(e.real) for e in eq.eigenvalues),
                     *(float(e.imag) for e in eq.eigenvalues)])
    write_table(path, header, rows, fmt)
    return 0


# -- entry point --------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchlayer",
        description="Simulate piecewise-smooth systems with hidden switching terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", default=None, choices=FORMATS)

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
            return cmd_sliding(cfg, args.out, args.format)
        return cmd_equilibria(cfg, args.out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
