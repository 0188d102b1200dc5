"""Tiny-length self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload at a few seconds of simulated time, twice per unit,
and checks that the outputs pass, that the digests repeat for a seed and
differ between seeds, that the output checks catch bad records, that span
self times add up, and that `run.py` prints the JSON result the contract
asks for (and refuses to run without the package source). Exits 1 on the
first failed check. Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tiltphase.controller as C  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer, patching  # noqa: E402

OUT = ROOT / ".perfbench_out" / "selfcheck"


class CheckFailed(Exception):
    pass


def check(cond, what):
    if not cond:
        raise CheckFailed(what)
    print(f"ok  {what}")


def tiny(name, seed):
    if name == "walk_push":
        return W.WalkPush(seed, OUT, scenarios=2, duration=6.0)
    if name == "replay_fitted":
        return W.ReplayFitted(seed, OUT, duration=3.0)
    return W.PushBattery(seed, OUT, units=2, ladder=(1.0, 9.0))


def run_twice(w):
    with patching(w.capture_targets() if hasattr(w, "capture_targets") else []):
        return [w.inspect(u, w.run(u)) for _ in range(2) for u in range(w.n_units)]


def check_workloads():
    for name in W.WORKLOADS:
        a = tiny(name, 1)
        outcomes = run_twice(a)
        check(not a.errors and all(o.failed == 0 for o in outcomes),
              f"{name}: outputs pass their checks, repeated units give the same digest")
        b = tiny(name, 1)
        run_twice(b)
        check(a.digest() == b.digest(), f"{name}: same seed gives the same digest")
        c = tiny(name, 2)
        run_twice(c)
        check(a.digest() != c.digest(), f"{name}: another seed gives another digest")


def check_output_checks():
    w = tiny("replay_fitted", 1)
    records = w.run(0)
    check(not W.check_records(records, w.ctrl), "unchanged records pass")
    col = {n: i for i, n in enumerate(W.T.FIELDS)}
    for field, value in (("pxa", w.ctrl.arm_limit_x * 1.01), ("pyS", math.nan),
                         ("fg", w.ctrl.f_max + 1.0), ("pxl", 0.01)):
        bad = list(records)
        rec = list(bad[5])
        rec[col[field]] = value
        bad[5] = tuple(rec)
        check(W.check_records(bad, w.ctrl), f"a record with {field} = {value:.4g} fails")


def check_tracer():
    t = Tracer()
    a, b, c = t._nid("a"), t._nid("b"), t._nid("c")
    # a [0, 100] holds b [10, 40] and c [50, 60]; b holds c [20, 30]
    for nid, parent, start, end in ((a, -1, 0, 100), (b, 0, 10, 40), (c, 1, 20, 30), (c, 0, 50, 60)):
        t.name_id.append(nid)
        t.parent.append(parent)
        t.cycle.append(0)
        t.start.append(start)
        t.end.append(end)
    s = t.summary()
    check(s["a"] == (1, 100.0, 60.0) and s["b"] == (1, 30.0, 20.0) and s["c"] == (2, 20.0, 20.0),
          "self time is span time minus direct children")

    w = tiny("walk_push", 3)
    tracer = Tracer()
    orig = C.TiltPhaseController.step
    with tracer.patched(layers.targets()):
        result = w.run(0)
    check(C.TiltPhaseController.step is orig, "wrappers are removed after the traced block")
    out = w.inspect(0, result)
    m = layers.per_layer_metrics(tracer, out, w.ctrl, w.plant)
    spans = tracer.summary()
    check(spans["trace.record"][0] == len(result.records) == tracer.cycle_id,
          "one cycle per trace record")
    check(spans["controller.step"][0] == len(result.records), "one controller span per cycle")
    check(all(v >= 0.0 for k, v in m.items() if k.endswith("_us")), "per-layer times are not negative")
    check(m["rotation.calls_per_cycle"] > 0 and m["plant.substeps_per_cycle"] == 10,
          "plant and rotation spans are recorded")
    w.inspect(0, w.run(0))
    check(not w.errors, "tracing leaves the outputs byte-identical")


def check_cli():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "replay_fitted",
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        check(done.returncode == 0, f"run.py --trace {trace} exits 0")
        last = json.loads(done.stdout.strip().splitlines()[-1])
        check(sorted(last) == ["attempted", "correct", "failed", "metrics"]
              and last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
              f"run.py --trace {trace} prints a correct result as its last line")
        names = [m["name"] for m in spec[key]]
        check(sorted(last["metrics"]) == sorted(names)
              and all(last["metrics"][n]["unit"] == m["unit"] for n, m in zip(names, spec[key])),
              f"--trace {trace} reports exactly the {key} metrics of BENCHMARK.json, with their units")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "walk_push", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(done.returncode != 0 and "{" not in done.stdout,
          "without the package source run.py fails and prints no result")
    shutil.rmtree(bare)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        check_tracer()
        check_output_checks()
        check_workloads()
        check_cli()
    except CheckFailed as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
