"""Benchmark of the tilt phase control loop: one workload per invocation.

    python3 perfbench/run.py --workload walk_push --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Workloads (see `workloads.py`): `walk_push`, `replay_fitted` and
`push_battery`. All are closed loops driven by this one process: each call
into the package starts when the previous one has returned, with no
real-time pacing and no extra threads or processes, apart from the short
child interpreters that time set-up.

`--trace 0` measures the end-to-end metrics. `--trace 1` is a separate run
that wraps the package's public functions at run time, records spans, and
reports the per-layer metrics and the tracing overhead. Both check every
output, and both divide every timing by the host's slowness, measured
around each timed unit (see `calibration.py`). Human-readable lines, a reproducibility stamp and a report file
under `.perfbench_out/` come first; the last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

# One thread per process, as the load model states: numpy's BLAS pool is
# idle in this benchmark, but starting it makes every import depend on
# whether the other core is free. Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibration  # noqa: E402
from tracer import patching  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("walk_push", "replay_fitted", "push_battery")
SETUP_RUNS = 7
TRACE_MAX_UNITS = 6
# Steps per latency block: 2000 leaves 20 samples beyond each block's p99
STEP_BLOCK = 2000

# Set-up as a user pays it: a fresh interpreter imports the CLI, parses a
# command line, parses a full config file and builds the controller and
# plant, up to the point where the first cycle can run. It prints its CPU
# time and wall time for that span, and the host slowness it measured just
# before, in CPU time.
SETUP_CODE = """
import time
from calibration import kernel_times, slowness
slow = slowness(kernel_times(3, time.process_time))
c0, t0 = time.process_time(), time.perf_counter()
import tiltphase.cli as cli
from tiltphase.config import ControllerConfig, PlantConfig, dump_config, parse_config_lines
from tiltphase.controller import TiltPhaseController
from tiltphase.plant import SurrogatePlant
cli.build_parser().parse_args(["simulate", "--duration", "60", "--seed", "1"])
ctrl, plant = parse_config_lines(list(dump_config(ControllerConfig(), PlantConfig())))
TiltPhaseController(ctrl)
SurrogatePlant(plant, seed=1)
print(repr(time.process_time() - c0), repr(time.perf_counter() - t0), repr(slow))
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                   help="one workload, or `all` to run each in its own process in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import `tiltphase` from this checkout's `src/`, and nowhere else."""
    if not (SRC / "tiltphase" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'tiltphase'}")
    sys.path.insert(0, str(SRC))
    import tiltphase

    if Path(tiltphase.__file__).resolve().parent != (SRC / "tiltphase").resolve():
        raise SystemExit(f"perfbench: imported tiltphase from {tiltphase.__file__}")


# -- measurements ----------------------------------------------------------------

def measure_setup():
    """Set-up time over fresh interpreters, after one warm-up run.

    Returns the medians of the normalised CPU time (the metric), the raw CPU
    time and the wall time, and the number of timed runs. CPU time, because
    the child is single-threaded, so on an idle host it is the wall time,
    while wall time doubled on the shared host it was tuned on whenever the
    host gave the other core to another tenant.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    norm, cpu, wall = [], [], []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if k:
            c, w, slow = (float(v) for v in done.stdout.split())
            norm.append(c / slow)
            cpu.append(c)
            wall.append(w)
    return statistics.median(norm), statistics.median(cpu), statistics.median(wall), len(cpu)


def step_timer(samples):
    """Time every `TiltPhaseController.step` call into `samples` [ns]."""
    from tiltphase.controller import TiltPhaseController

    clock = time.perf_counter_ns
    keep = samples.append

    def factory(orig):
        def step(self, imu, cmd, dt):
            t0 = clock()
            out = orig(self, imu, cmd, dt)
            keep(clock() - t0)
            return out
        return step

    return patching([(TiltPhaseController, "step", factory)])


class UnitRun(NamedTuple):
    unit: int
    seconds: float  # host seconds of the timed call
    outcome: object  # workloads.Outcome
    traced: bool
    slowness: float  # host slowness around the call; 1 on the nominal host

    @property
    def norm_seconds(self):
        return self.seconds / self.slowness


class Runner:
    """Times units of one workload and keeps their checked outcomes."""

    def __init__(self, workload):
        self.w = workload
        self.log = []
        self.step_ns = []  # normalised controller step latencies
        self._reported = False

    def run_unit(self, u, traced_by=None):
        from workloads import Outcome

        ctx = traced_by if traced_by is not None else step_timer(self.step_ns)
        first_step = len(self.step_ns)
        kernel = calibration.kernel_times()
        t0 = time.perf_counter()
        try:
            with ctx:
                result = self.w.run(u)
            elapsed = time.perf_counter() - t0
            out = self.w.inspect(u, result)
        except Exception:  # a failing program is a result, not a crash
            elapsed = time.perf_counter() - t0
            if not self._reported:
                traceback.print_exc()
                self._reported = True
            self.w.errors.append(f"unit {u}: exception")
            out = Outcome(trials=self.w.trials_per_unit, failed=self.w.trials_per_unit)
        slow = calibration.slowness(kernel + calibration.kernel_times())
        for i in range(first_step, len(self.step_ns)):
            self.step_ns[i] /= slow
        self.log.append(UnitRun(u, elapsed, out, traced_by is not None, slow))
        return out

    def entries(self, traced):
        return [e for e in self.log if e.traced == traced]


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(round(q * len(sorted_values))) - 1))
    return sorted_values[k]


def block_percentile(samples, q, block=STEP_BLOCK):
    """Median over consecutive blocks of `block` samples of each block's
    percentile q, so a burst of host noise moves only the blocks it hits."""
    blocks = [sorted(samples[i:i + block]) for i in range(0, len(samples) - block + 1, block)]
    return statistics.median(percentile(b, q) for b in blocks), len(blocks)


def first_pass_outcome(runner):
    from workloads import Outcome

    total = Outcome()
    seen = set()
    for e in runner.log:
        if e.unit not in seen:
            seen.add(e.unit)
            total.add(e.outcome)
    return total


def end_to_end(runner, seconds, setup):
    """Untraced loop over all units for `seconds`, at least one full pass
    and one unit run twice."""
    n = runner.w.n_units
    t_start = time.perf_counter()
    i = 0
    while i < n + 1 or time.perf_counter() - t_start < seconds:
        runner.run_unit(i % n)
        i += 1
    runs = runner.entries(False)
    norm_seconds = sum(e.norm_seconds for e in runs)
    raw_cycles = sum(e.outcome.cycles for e in runs) / sum(e.seconds for e in runs)
    slow = statistics.median(e.slowness for e in runs)
    p50, blocks = block_percentile(runner.step_ns, 0.50)
    p99, _ = block_percentile(runner.step_ns, 0.99)
    quality = first_pass_outcome(runner)
    metrics = {
        "cycles_per_s": (sum(e.outcome.cycles for e in runs) / norm_seconds, "1/s"),
        "trials_per_s": (sum(e.outcome.trials for e in runs) / norm_seconds, "1/s"),
        "step_p50_us": (p50 / 1e3, "us"),
        "dev_rms_rad": (statistics.median(quality.dev_rms), "rad"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup[0], "s"),
    }
    steps = f"median of {blocks} blocks of {STEP_BLOCK} controller steps"
    counts = {
        "cycles_per_s": f"total over {len(runs)} units; raw {raw_cycles:.6g} 1/s, "
                        f"median host slowness {slow:.3f}",
        "trials_per_s": f"total over {len(runs)} units",
        "step_p50_us": steps,
        "step_p99_us": steps,
        "dev_rms_rad": f"median over {len(quality.dev_rms)} controller-on runs of the first pass",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
        "setup_s": f"CPU time, median of {setup[3]} fresh interpreters; "
                   f"raw CPU {setup[1]:.4g} s, wall {setup[2]:.4g} s",
    }
    # Printed and reported, but not in BENCHMARK.json: see README.md
    ungated = {"step_p99_us": (p99 / 1e3, "us")}
    if quality.off_trials:
        ungated["push_withstood_frac"] = (quality.on_withstood / quality.on_trials, "ratio")
        ungated["push_withstood_frac_off"] = (quality.off_withstood / quality.off_trials, "ratio")
        counts["push_withstood_frac"] = f"first pass, {quality.on_trials} pushes per side"
        counts["push_withstood_frac_off"] = counts["push_withstood_frac"]
    return metrics, counts, ungated


def traced_run(runner, seconds):
    """Alternate untraced and traced runs of the first units.

    Returns the tracer, the summed outcome of the traced units, their median
    host slowness, and the normalised cycle rates of the untraced and traced
    runs.
    """
    import layers
    from tracer import Tracer
    from workloads import Outcome

    tracer = Tracer()
    trace_units = list(range(min(2, runner.w.n_units)))
    t_start = time.perf_counter()
    traced = 0
    while traced == 0 or (time.perf_counter() - t_start < seconds and traced < TRACE_MAX_UNITS):
        for u in trace_units:
            runner.run_unit(u)
            runner.run_unit(u, traced_by=tracer.patched(layers.targets()))
            traced += 1

    def rate(entries):
        return sum(e.outcome.cycles for e in entries) / sum(e.norm_seconds for e in entries)

    outcome = Outcome()
    for e in runner.entries(True):
        outcome.add(e.outcome)
    slow = statistics.median(e.slowness for e in runner.entries(True))
    return tracer, outcome, slow, rate(runner.entries(False)), rate(runner.entries(True))


# -- reproducibility stamp -----------------------------------------------------------


def git_commit():
    """Commit of the checkout, read from `.git` without running git."""
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


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "tiltphase").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(workload, args):
    import numpy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "trace_sha256": workload.digest(),
    }


def run_all(args):
    """Run every workload in a fresh process; exit 1 unless all are correct."""
    ok = True
    for name in WORKLOAD_NAMES:
        print(f"## {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        print(done.stdout, end="", flush=True)
        lines = done.stdout.strip().splitlines()
        ok = ok and done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_package()
    import layers
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    setup = measure_setup() if args.trace == 0 else None
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    runner = Runner(workload)
    patches = workload.capture_targets() if hasattr(workload, "capture_targets") else []
    ungated = {}
    try:
        with patching(patches):
            if args.trace == 0:
                metrics, counts, ungated = end_to_end(runner, args.seconds, setup)
            else:
                tracer, outcome, slow, cps_off, cps_on = traced_run(runner, args.seconds)
                values = layers.per_layer_metrics(tracer, outcome, workload.ctrl, workload.plant)
                for k in values:
                    if layers.unit_of(k) == "us":
                        values[k] /= slow
                values["tracing.overhead_frac"] = 1.0 - cps_on / cps_off
                values["tracing.cycles_per_s_delta"] = cps_off - cps_on
                metrics = {k: (v, layers.unit_of(k)) for k, v in values.items()}
                counts = {
                    "spans": f"{len(tracer)} spans over {outcome.cycles} cycles of "
                             f"{len(runner.entries(True))} traced units",
                    "tracing": f"untraced {cps_off:.1f} cycles/s, traced {cps_on:.1f} cycles/s; "
                               f"times divided by host slowness {slow:.3f}",
                }
                tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
    finally:
        for path in OUT_DIR.glob(f"{workload.name}-{args.seed}.*"):
            path.unlink()

    attempted = sum(e.outcome.trials for e in runner.log)
    failed = sum(e.outcome.failed for e in runner.log)
    repeated = len(runner.log) > len({e.unit for e in runner.log})
    correct = failed == 0 and not workload.errors and repeated
    st = stamp(workload, args)
    report = {
        "stamp": st,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": counts,
        "error_rate": failed / attempted if attempted else 1.0,
        "units": [
            {"unit": e.unit, "seconds": e.seconds, "slowness": e.slowness,
             "cycles": e.outcome.cycles, "trials": e.outcome.trials, "traced": e.traced}
            for e in runner.log
        ],
        "ungated": {k: {"value": v, "unit": u} for k, (v, u) in ungated.items()},
        "errors": workload.errors[:20],
    }
    name = f"report-{workload.name}-{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2) + "\n")

    for k, (v, u) in {**metrics, **ungated}.items():
        print(f"{k} = {v:.6g} {u}" + (f"  ({counts[k]})" if k in counts else ""))
    for k in ("spans", "tracing"):
        if k in counts:
            print(f"{k}: {counts[k]}")
    print(f"error_rate = {report['error_rate']:.6g}  ({failed} failed of {attempted} attempted)")
    for e in workload.errors[:5]:
        print(f"error: {e}", file=sys.stderr)
    print("stamp " + json.dumps(st, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
