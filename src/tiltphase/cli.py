"""Command line harness: simulate, replay, push batteries, fitting, trace diff, selftest."""

from __future__ import annotations

import argparse
import math
import sys

from tiltphase.config import (
    ConfigError,
    ControllerConfig,
    PlantConfig,
    coerce,
    dump_config,
    load_config,
    replace,
)
from tiltphase.harness import (
    Scenario,
    benchmark_controller_step,
    fit_waveform,
    load_imu_log,
    push_battery,
    push_threshold,
    run_closed_loop,
    run_replay,
)
from tiltphase.plant import disturbance_error
from tiltphase.trace import FIELDS, read_trace, write_trace

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FALLEN = 2
# `diff` of two traces that differ, as diff(1) does
EXIT_DIFFERENT = 1

# Largest impulse `pushtest --threshold` tries
THRESHOLD_HI = 4.0

# Numeric flags are read as text and converted by the config coercion, so
# `--seed 1_0` is refused as `1_0` is in a config file: (flag, type, least value)
_NUMERIC_FLAGS = (
    ("duration", float, None), ("seed", int, None), ("pushes", int, 1), ("cycles", int, 1)
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's exit 2 is EXIT_FALLEN; main exits EXIT_INPUT
        raise ValueError(message)


def _coerce_flags(args) -> None:
    for name, kind, least in _NUMERIC_FLAGS:
        if getattr(args, name, None) is not None:
            value = coerce(kind, getattr(args, name), f"--{name}")
            if least is not None and value < least:
                raise ValueError(f"--{name} must be at least {least}, got {value}")
            setattr(args, name, value)


def _load_configs(args):
    if getattr(args, "config", None):
        return load_config(args.config)
    return ControllerConfig(), PlantConfig()


def _load_scenario(args) -> Scenario:
    if getattr(args, "scenario", None):
        with open(args.scenario, "r", encoding="utf-8") as fh:
            scenario = Scenario.from_json(fh.read())
    else:
        scenario = Scenario()
    if getattr(args, "duration", None) is not None:
        # replace() re-runs Scenario's checks on the overridden duration
        scenario = replace(scenario, duration=args.duration)
    if getattr(args, "seed", None) is not None:
        scenario.seed = args.seed
    return scenario


def cmd_simulate(args) -> int:
    ctrl, plant = _load_configs(args)
    scenario = _load_scenario(args)
    result = run_closed_loop(ctrl, plant, scenario)
    if args.out:
        write_trace(args.out, result.records, csv=args.csv)
    n = len(result.records)
    status = "fallen" if result.fallen else "upright"
    print(f"simulate: {n} cycles, {status}")
    return EXIT_FALLEN if result.fallen else EXIT_OK


def cmd_replay(args) -> int:
    ctrl, _ = _load_configs(args)
    samples = load_imu_log(args.imu_log)
    if not samples:
        raise ValueError(f"{args.imu_log}: no IMU samples")
    records = run_replay(ctrl, samples)
    if args.out:
        write_trace(args.out, records, csv=args.csv)
    print(f"replay: {len(records)} cycles")
    return EXIT_OK


def cmd_pushtest(args) -> int:
    ctrl, plant = _load_configs(args)
    impulses = [coerce(float, s, "--impulses") for s in args.impulses.split(",")]
    for level in impulses:  # checked as its pushes will be, before the first trial
        if error := disturbance_error("impulse", 0.0, level, 0.0, 0.0):
            raise ValueError("--impulses: {} {}".format(*error))
    for enabled, label in ((True, "on"), (False, "off")):
        if args.controller != "both" and args.controller != label:
            continue
        rows = push_battery(
            ctrl, plant, impulses, args.pushes, args.seed, controller_enabled=enabled
        )
        for impulse, withstood in rows:
            print(f"controller={label} impulse={impulse:g} withstood={withstood}/{args.pushes}")
    if args.threshold:
        shown = []
        for enabled, label in ((True, "on"), (False, "off")):
            th = push_threshold(ctrl, plant, enabled, hi=THRESHOLD_HI, seed=args.seed)
            # push_threshold returns hi itself when the push at hi is withstood
            shown.append(f"{label}{'>=' if th == THRESHOLD_HI else '='}{th:.4f}")
        print("threshold: " + " ".join(shown))
    return EXIT_OK


def cmd_fit_waveform(args) -> int:
    records = read_trace(args.trace)
    if len(records) < 10:
        raise ValueError(f"{args.trace}: need at least 10 records to fit")
    mu = [r["mu"] for r in records]
    px = [r["pxB"] for r in records]
    py = [r["pyB"] for r in records]
    wave, rms = fit_waveform(mu, px, py)
    # Named as the ControllerConfig keys they feed
    out = {f"wave_{k}": v for k, v in wave._asdict().items()}
    out["residual_rms_x"], out["residual_rms_y"] = rms
    import json  # about 3 ms of a cold start, which only this command needs

    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _read_trace_of(path):
    try:
        return read_trace(path)
    except ValueError as exc:  # read_trace names the line; add the file
        raise ValueError(f"{path}: {exc}") from None


def _differ(x: float, y: float) -> bool:
    # == alone takes -0.0 for 0.0, which the trace writes differently
    return x != y or math.copysign(1.0, x) != math.copysign(1.0, y)


def cmd_diff(args) -> int:
    a = _read_trace_of(args.a)
    b = _read_trace_of(args.b)
    numeric = FIELDS[:-1]
    worst = dict.fromkeys(numeric, 0.0)
    flag_diffs = 0
    first = None
    for i, (ra, rb) in enumerate(zip(a, b), start=1):
        cols = [n for n in numeric if _differ(ra[n], rb[n])]
        for n in cols:
            worst[n] = max(worst[n], abs(ra[n] - rb[n]))
        if ra["flags"] != rb["flags"]:
            flag_diffs += 1
            cols.append("flags")
        if cols and first is None:
            shown = ", ".join(f"{n} {ra[n]!r} vs {rb[n]!r}" for n in cols)
            first = f"record {i} (t={ra['t']!r}): {shown}"
    if first is None and len(a) != len(b):
        first = f"record {min(len(a), len(b)) + 1}: only in {args.a if len(a) > len(b) else args.b}"
    print("column max_abs_diff")
    for n in numeric:
        print(f"{n} {worst[n]!r}")
    print(f"flags {flag_diffs} records differ")
    print(f"records {len(a)} {len(b)}")
    if first is None:
        print("identical")
        return EXIT_OK
    print(f"first diverging {first}")
    return EXIT_DIFFERENT


def cmd_selftest(args) -> int:
    ctrl, plant = _load_configs(args)
    mean_us, p99_us = benchmark_controller_step(ctrl, n=args.cycles)
    print(f"controller step latency: mean={mean_us:.1f}us p99={p99_us:.1f}us")
    result = run_closed_loop(ctrl, plant, Scenario(duration=5.0, seed=args.seed or 0))
    status = "fallen" if result.fallen else "upright"
    print(f"nominal 5s closed loop: {status}")
    return EXIT_FALLEN if result.fallen else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tiltphase",
        description="Tilt-phase gait stabilization controller harness",
    )
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument(
        "--dump-config", action="store_true", help="print the effective config and exit"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="closed-loop run against the surrogate plant")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--duration", help="override scenario duration [s]")
    p.add_argument("--seed", help="override scenario seed")
    p.add_argument("--out", help="trace output path")
    p.add_argument("--csv", action="store_true", help="write the trace as plain CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="run the controller over a recorded IMU log")
    p.add_argument("imu_log", help="CSV log with rows t,gx,gy,gz,ax,ay,az")
    p.add_argument("--out", help="trace output path")
    p.add_argument("--csv", action="store_true", help="write the trace as plain CSV")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("pushtest", help="paired push batteries, controller on vs off")
    p.add_argument("--impulses", default="0.5,1.0,1.5,2.0", help="comma separated levels")
    p.add_argument("--pushes", default=20, help="pushes per level")
    p.add_argument("--seed", default=0)
    p.add_argument("--controller", choices=("on", "off", "both"), default="both")
    p.add_argument("--threshold", action="store_true", help="also binary-search thresholds")
    p.set_defaults(func=cmd_pushtest)

    p = sub.add_parser("fit-waveform", help="fit the expected tilt waveform from a trace")
    p.add_argument("trace", help="trace file from simulate")
    p.add_argument("--out", help="write fitted parameters as JSON")
    p.set_defaults(func=cmd_fit_waveform)

    p = sub.add_parser("diff", help="largest difference per column of two traces")
    p.add_argument("a", help="trace file")
    p.add_argument("b", help="trace file")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("selftest", help="latency benchmark plus a nominal run")
    p.add_argument("--cycles", default=20000)
    p.add_argument("--seed")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _coerce_flags(args)
        if args.dump_config:
            ctrl, plant = _load_configs(args)
            for line in dump_config(ctrl, plant):
                print(line)
            return EXIT_OK
        if args.command is None:
            parser.print_help()
            return EXIT_INPUT
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
