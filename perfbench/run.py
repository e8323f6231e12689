"""Benchmark of switchlayer: one workload in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and from nowhere else.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics
(setup_s, wall_s, peak_rss_mib); with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Pass times are in reference
seconds, corrected for the host's drifting speed (see hostspeed.py).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MIN_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hidden_oscillator", "relay_portrait", "switch_atlas"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload, seed):
    """Median seconds, over fresh interpreters, to import and build.

    Unlike the passes, these are not corrected for the host's speed: an
    import's time, reading and mapping files in a child process, does
    not follow the reference kernel's (see hostspeed.py).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed), tmp],
                capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, workload, results):
        problems, failed = workload.check(results)
        self.attempted += len(results)
        self.failed += len(failed)
        self.problems += problems
        for name in sorted(failed):
            if isinstance(results[name], BaseException):
                print(f"{name}: {type(results[name]).__name__}: {results[name]}",
                      file=sys.stderr)


def attempt(op):
    try:
        return op()
    except Exception as exc:  # counted as a failed operation
        return exc


def run_pass(workload, clock):
    """Reference seconds each operation of one pass took, the pass's wall
    seconds, and the operations' results."""
    results, times, wall = {}, {}, 0.0
    for name, op in workload.operations():
        times[name], seconds, results[name] = clock.time(lambda: attempt(op))
        wall += seconds
    return times, wall, results


def typical_pass(passes):
    """Reference seconds of one pass: each operation's median, summed."""
    return sum(statistics.median(p[name] for p in passes) for name in passes[0])


def timed_passes(workload, seconds, tally, clock):
    """Per-operation times of each pass, and the peak RSS once MIN_PASSES
    passes are done.

    The peak is read at that fixed point so that it measures a fixed
    amount of work: a faster program makes more passes in the same time.
    """
    passes = []
    rss = None
    end = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < end:
        times, wall, results = run_pass(workload, clock)
        tally.record(workload, results)
        passes.append(times)
        print(f"pass {len(passes)}: {wall:.3f} s wall, "
              f"{sum(times.values()):.3f} reference s", file=sys.stderr)
        if len(passes) == MIN_PASSES:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, rss


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "switchlayer" / "__init__.py").is_file():
        sys.exit(f"no switchlayer package under {SRC}: run from a source checkout")
    OUT.mkdir(exist_ok=True)
    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None

    sys.path.insert(0, str(SRC))
    import switchlayer
    if Path(switchlayer.__file__).resolve().parent != SRC / "switchlayer":
        sys.exit(f"switchlayer imported from {switchlayer.__file__}, not {SRC}")
    import numpy as np
    import checks
    import hostspeed
    import tracing
    from workloads import WORKLOADS

    tally = Tally()
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, outdir)
        clock = hostspeed.Clock()
        # warm-up pass: checked and counted, not timed
        _, _, results = run_pass(workload, clock)
        tally.record(workload, results)
        if any(isinstance(v, BaseException) for v in results.values()):
            print("self-test skipped: an operation raised", file=sys.stderr)
        else:
            for name in checks.self_test(workload.self_test(results)):
                tally.problems.append(f"self-test: '{name}' accepted a wrong answer")

        if args.trace == 0:
            passes, rss = timed_passes(workload, args.seconds, tally, clock)
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (typical_pass(passes), "s"),
                "peak_rss_mib": (rss, "MiB"),
            }
        else:
            untraced, _ = timed_passes(workload, args.seconds / 2, tally, clock)
            tracer = tracing.Tracer()
            traced_workload = WORKLOADS[args.workload](args.seed, outdir, tracer.instrument)
            tracer.install()
            try:
                traced, _ = timed_passes(traced_workload, args.seconds / 2, tally, clock)
                spans = tracer.take()
                tracing.run_probe(tracer, outdir)
                probe = tracer.take()
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                         {"passes": spans, "probe": probe})
            metrics = tracing.span_metrics(spans, len(traced), probe)
            metrics.update(tracing.micro_metrics(np.random.default_rng(args.seed)))
            metrics["trace.overhead_s"] = (typical_pass(traced) - typical_pass(untraced), "s")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
