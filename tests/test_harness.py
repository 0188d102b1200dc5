import gc
import json
import math
import random
import re
from collections import deque

import numpy as np
import pytest

import tiltphase.harness as harness
import tiltphase.plant
from tiltphase.cli import main
from tiltphase.config import ControllerConfig, PlantConfig, replace
from tiltphase.controller import GaitCommand, TiltPhaseController
from tiltphase.deviation import ExpectedWaveform
from tiltphase.estimator import ImuSample
from tiltphase.harness import (
    Scenario,
    _next_command,
    _schedule_times,
    benchmark_controller_step,
    fit_waveform,
    load_imu_log,
    push_battery,
    run_closed_loop,
    run_push_trial,
    run_replay,
)
from tiltphase.plant import Disturbance, SurrogatePlant


class TestScenario:
    def test_from_json(self):
        text = json.dumps(
            {
                "duration": 4.0,
                "seed": 3,
                "controller_enabled": False,
                "commands": [{"t": 1.0, "vx": 0.5}],
                "disturbances": [
                    {"kind": "impulse", "direction": 0.1, "magnitude": 0.8, "start_time": 2.0}
                ],
                "config": {"controller.i_gain": 0.0},
            }
        )
        sc = Scenario.from_json(text)
        assert sc.duration == 4.0
        assert sc.seed == 3
        assert not sc.controller_enabled
        assert sc.commands[0][1].vx == 0.5
        assert sc.disturbances[0].kind == "impulse"
        assert sc.overrides == {"controller.i_gain": 0.0}

    @pytest.mark.parametrize("bad", ["false", "true", 0, 1, None])
    def test_controller_enabled_must_be_boolean(self, bad):
        # bool("false") is True
        with pytest.raises(ValueError, match="controller_enabled: expected a boolean"):
            Scenario.from_json(json.dumps({"controller_enabled": bad}))

    @pytest.mark.parametrize("bad", [2.7, 3.0, "3", True, None])
    def test_seed_must_be_integer(self, bad):
        # int(2.7) is 2
        with pytest.raises(ValueError, match="seed: expected an integer"):
            Scenario.from_json(json.dumps({"seed": bad}))

    @pytest.mark.parametrize("field, data", [
        ("duration", {"duration": True}),
        ("duration", {"duration": "4.0"}),
        ("commands[0].t", {"commands": [{"t": "0.5"}]}),
        ("commands[0].vx", {"commands": [{"vx": True}]}),
        ("commands[0].vy", {"commands": [{"vy": "0.1"}]}),
        ("commands[1].wz", {"commands": [{"t": 0.0}, {"t": 1.0, "wz": None}]}),
        ("disturbances[0].direction", {"disturbances": [{"kind": "impulse", "direction": False}]}),
        ("disturbances[0].magnitude", {"disturbances": [{"kind": "force", "magnitude": "9.5"}]}),
        ("disturbances[0].start_time", {"disturbances": [{"kind": "bias", "start_time": [1]}]}),
        ("disturbances[0].duration", {"disturbances": [{"kind": "force", "duration": True}]}),
    ])
    def test_number_fields_must_be_json_numbers(self, field, data):
        # float(True) is 1.0 and float("9.5") is 9.5
        with pytest.raises(ValueError, match=re.escape(f"scenario {field}: expected a number")):
            Scenario.from_json(json.dumps(data))

    @pytest.mark.parametrize("text, field", [
        ('{"duration": 1.0, "duration": 2.0}', "duration"),
        ('{"commands": [], "seed": 1, "commands": []}', "commands"),
        ('{"config": {"controller.f_nom": 6.0, "controller.f_nom": 6.5}}',
         "config.controller.f_nom"),
        ('{"commands": [{"t": 0.5, "vx": 0.1, "vx": 0.3}]}', "commands[0].vx"),
        ('{"commands": [{"t": 0}, {"t": 1, "vx": 1, "vx": 2}]}', "commands[1].vx"),
        ('{"disturbances": [{"kind": "impulse", "magnitude": 1.0, "magnitude": 2.0}]}',
         "disturbances[0].magnitude"),
        ('{"disturbances": [{"kind": "force"}, {"kind": "bias", "kind": "force"}]}',
         "disturbances[1].kind"),
    ], ids=["top-level", "top-level-list", "config", "command", "second-command",
            "disturbance", "second-disturbance"])
    def test_key_given_twice_rejected(self, text, field, tmp_path, capsys):
        # json.loads keeps the last value of a repeated key, and says nothing;
        # the message places the key as every other scenario error does
        with pytest.raises(ValueError, match=re.escape(f"scenario {field}: key given twice")):
            Scenario.from_json(text)
        sc = tmp_path / "twice.json"
        sc.write_text(text)
        assert main(["simulate", "--scenario", str(sc)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {sc}: scenario {field}: key given twice\n"
        assert captured.out == ""

    @pytest.mark.parametrize("config, message", [
        ({"controller.bogus": 1}, "unknown key 'controller.bogus'"),
        ({"plant": 1}, "key 'plant' must be 'controller.x' or 'plant.x'"),
        ({"controller.i_gain": "fast"}, "controller.i_gain: expected a number, got 'fast'"),
        ({"controller.pd_mean_order": 2.5},
         "controller.pd_mean_order: expected an integer, got '2.5'"),
        ({"controller.hh_sagittal_only": "maybe"},
         "controller.hh_sagittal_only: expected a boolean, got 'maybe'"),
    ])
    def test_config_checked_when_read(self, config, message):
        # Each key and value is checked as a config file line would be, not
        # first when a run applies the overrides
        with pytest.raises(ValueError, match=f"^{re.escape(f'scenario config: {message}')}$"):
            Scenario.from_json(json.dumps({"config": config}))

    def test_whole_config_checks_wait_for_the_run(self):
        # f_min above f_nom is a check of the whole config, which the run makes
        sc = Scenario.from_json(json.dumps({"duration": 0.1, "config": {"controller.f_min": 50}}))
        assert sc.overrides == {"controller.f_min": 50}
        with pytest.raises(ValueError, match="f_nom must lie in"):
            run_closed_loop(ControllerConfig(), PlantConfig(), sc)

    def test_integer_numbers_accepted(self):
        text = json.dumps({
            "duration": 3,
            "commands": [{"t": 0, "vx": 1}],
            "disturbances": [{"kind": "force", "magnitude": 2, "start_time": 1, "duration": 1}],
        })
        sc = Scenario.from_json(text)
        assert sc.duration == 3.0 and type(sc.duration) is float
        assert sc.commands == [(0.0, GaitCommand(1.0, 0.0, 0.0))]
        d = sc.disturbances[0]
        assert (d.direction, d.magnitude, d.start_time, d.duration) == (0.0, 2.0, 1.0, 1.0)

    def test_negative_disturbance_duration_rejected(self):
        # A force with duration -1 never acted, so a 3 s run read as upright
        text = json.dumps({"disturbances": [
            {"kind": "force", "magnitude": 9.5, "start_time": 0.0, "duration": -1.0}
        ]})
        with pytest.raises(ValueError, match="disturbance duration must be >= 0"):
            Scenario.from_json(text)

    @pytest.mark.parametrize("kind", ["impulse", "force", "bias"])
    def test_huge_disturbance_magnitude_rejected(self, kind, tmp_path, capsys):
        """A magnitude of 1e300 overflowed the plant's tilt and the closed
        loop raised a math domain error; it is refused where it enters, by
        name, and the CLI exits 1."""
        with pytest.raises(ValueError, match=r"disturbance magnitude must lie in \[0, 1000\]"):
            Disturbance(kind, 0.3, 1e300, 0.2, 0.5)
        text = json.dumps({"disturbances": [
            {"kind": "impulse", "magnitude": 1.0, "start_time": 0.1},
            {"kind": kind, "direction": 0.3, "magnitude": 1e300, "start_time": 0.2,
             "duration": 0.5},
        ]})
        with pytest.raises(ValueError, match=re.escape("scenario disturbances[1].magnitude: ")):
            Scenario.from_json(text)
        sc = tmp_path / "huge.json"
        sc.write_text(text)
        assert main(["simulate", "--scenario", str(sc), "--duration", "1.0"]) == 1
        assert "disturbances[1].magnitude" in capsys.readouterr().err
        # The limit itself is accepted
        assert Disturbance(kind, 0.3, 1e3, 0.2, 0.5).magnitude == 1e3

    def test_non_finite_disturbance_rejected(self):
        text = json.dumps({"disturbances": [{"kind": "force", "magnitude": math.nan}]})
        with pytest.raises(ValueError, match="magnitude must be finite"):
            Scenario.from_json(text)

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(duration=0.0)
        from tiltphase.controller import GaitCommand, TiltPhaseController

        with pytest.raises(ValueError, match="sorted"):
            Scenario(commands=[(2.0, GaitCommand()), (1.0, GaitCommand())])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_command_time_rejected(self, bad):
        # NaN compares false both ways, so [0.5, nan, 0.2] used to pass the sort check
        with pytest.raises(ValueError, match="finite"):
            Scenario(
                commands=[(0.5, GaitCommand()), (bad, GaitCommand()), (0.2, GaitCommand())]
            )


def _scan_command_at(commands, t):
    """The linear schedule scan that the command cursor replaced, as its reference."""
    cmd = GaitCommand()
    for tc, c in commands:
        if tc <= t:
            cmd = c
        else:
            break
    return cmd


def test_command_lookup_matches_linear_scan():
    """The cursor, advanced as the runners advance it (only once t reaches
    the next command time), over non-decreasing probe times."""
    rng = random.Random(5)
    for _ in range(300):
        # Few distinct times, so schedules have ties and repeated entries
        n = rng.randrange(12)
        times = sorted(rng.choice((0.0, 0.5, 1.0, rng.uniform(0.0, 3.0))) for _ in range(n))
        commands = [(tc, GaitCommand(rng.random(), float(k))) for k, tc in enumerate(times)]
        probes = [-1.0, -0.0, 0.0, 0.5, 1.0, 3.5] + times
        probes += [rng.uniform(-0.5, 3.5) for _ in range(10)]
        probes.sort()
        checked = _schedule_times(commands)
        i, cmd, t_next = _next_command(checked, commands, 0, -math.inf)
        for t in probes:
            if t >= t_next:
                i, cmd, t_next = _next_command(checked, commands, i, t)
            assert cmd == _scan_command_at(commands, t)
            assert t_next == min((tc for tc in times if tc > t), default=math.inf)


@pytest.mark.parametrize("field", GaitCommand._fields)
def test_non_finite_command_field_rejected(field):
    """A nan command field would reach controller state and leave most
    records after it non-finite; every runner refuses the schedule."""
    commands = [(0.0, GaitCommand(0.2)), (0.2, GaitCommand(**{field: math.nan}))]
    message = rf"command at t=0\.2: {field} nan is not finite"
    with pytest.raises(ValueError, match=message):
        Scenario(commands=commands)
    scenario = Scenario(duration=1.0)
    scenario.commands = commands
    with pytest.raises(ValueError, match=message):
        run_closed_loop(ControllerConfig(), PlantConfig(), scenario)
    samples = [ImuSample(0.01 * k, (0.0, 0.0, 0.0), (0.0, 0.0, 9.81)) for k in range(1, 50)]
    with pytest.raises(ValueError, match=message):
        run_replay(ControllerConfig(), samples, commands)


class TestClosedLoop:
    def test_nominal_run_stays_upright(self):
        res = run_closed_loop(ControllerConfig(), PlantConfig(), Scenario(duration=3.0))
        assert not res.fallen
        assert len(res.records) == 300

    def test_run_stops_at_fall(self):
        sc = Scenario(
            duration=5.0,
            controller_enabled=False,
            disturbances=[Disturbance("impulse", 0.0, 4.0, start_time=1.0)],
        )
        res = run_closed_loop(ControllerConfig(), PlantConfig(), sc)
        assert res.fallen
        assert len(res.records) < 500

    @pytest.mark.parametrize("enabled, per_step", [(True, 1), (False, 0)])
    def test_imu_is_synthesised_only_for_the_controller(self, monkeypatch, enabled, per_step):
        """The controller-off loop reads no IMU sample, so its plant builds
        none; with the controller on, every plant step builds one."""
        calls = [0]
        imu_of_motion = tiltphase.plant.imu_of_motion

        def counting(*args):
            calls[0] += 1
            return imu_of_motion(*args)

        monkeypatch.setattr(tiltphase.plant, "imu_of_motion", counting)
        sc = Scenario(duration=1.0, controller_enabled=enabled,
                      disturbances=[Disturbance("impulse", 0.4, 0.5, 0.5)])
        res = run_closed_loop(ControllerConfig(), PlantConfig(), sc)
        assert not res.fallen
        # One plant step before the first record and one after each
        assert calls[0] == per_step * (len(res.records) + 1)

    def test_cold_run_takes_no_config_repr(self, monkeypatch):
        """A run that neither forks a walk nor takes one builds no walk key,
        so it takes neither config's repr."""
        def refused(cfg):
            raise AssertionError(f"repr of a {type(cfg).__name__}")

        monkeypatch.setattr(ControllerConfig, "__repr__", refused)
        monkeypatch.setattr(PlantConfig, "__repr__", refused)
        for enabled in (True, False):
            sc = Scenario(duration=0.5, controller_enabled=enabled,
                          commands=[(0.2, GaitCommand(0.1))],
                          disturbances=[Disturbance("impulse", 0.4, 0.5, 0.3)])
            assert len(run_closed_loop(ControllerConfig(), PlantConfig(), sc).records) == 50

    def test_overrides_do_not_mutate_caller_config(self):
        ctrl = ControllerConfig()
        sc = Scenario(duration=0.5, overrides={"controller.i_gain": 0.0})
        run_closed_loop(ctrl, PlantConfig(), sc)
        assert ctrl.i_gain == ControllerConfig().i_gain

    def test_module_holds_no_mutable_container(self):
        """No run leaves state in the module for a later run to read: a run
        that should go on from another's walk is given it (`Scenario.start`)."""
        mutable = (dict, list, set, deque, bytearray)
        held = {name: type(value).__name__ for name, value in vars(harness).items()
                if not name.startswith("__") and isinstance(value, mutable)}
        assert held == {}


@pytest.mark.parametrize("collecting", [False, True])
def test_benchmark_leaves_the_collector_as_it_found_it(monkeypatch, collecting):
    """After a run and after a step that raises, gc is on exactly when the caller had it on."""
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        benchmark_controller_step(ControllerConfig(), 10)
        assert gc.isenabled() is collecting
        monkeypatch.setattr(TiltPhaseController, "step", _no_step)
        with pytest.raises(_Stepped):
            benchmark_controller_step(ControllerConfig(), 10)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_benchmark_controller_step_rejects_no_cycles():
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        benchmark_controller_step(ControllerConfig(), n=0)


class _Stepped(Exception):
    """Raised by a patched step: the run got past its size check."""


def _no_step(*args):
    raise _Stepped


def test_run_above_max_cycles_refused_before_a_plant_step(monkeypatch):
    monkeypatch.setattr(SurrogatePlant, "step", _no_step)
    # 1e308 s is inf cycles; 10000.01 s is 1000001 cycles of 0.01 s
    for duration in (1e300, 1e308, 10000.01):
        with pytest.raises(ValueError, match=r"above MAX_CYCLES = 1000000$"):
            run_closed_loop(ControllerConfig(), PlantConfig(), Scenario(duration))
    # A cold run counts out no quiet prefix before its first step
    with pytest.raises(_Stepped):
        run_closed_loop(ControllerConfig(), PlantConfig(), Scenario(10000.0))


def test_benchmark_above_max_cycles_refused_before_a_step(monkeypatch):
    monkeypatch.setattr(TiltPhaseController, "step", _no_step)
    with pytest.raises(ValueError, match=r"^n = 1000001 cycles is above MAX_CYCLES = 1000000$"):
        benchmark_controller_step(ControllerConfig(), n=10**6 + 1)
    with pytest.raises(_Stepped):
        benchmark_controller_step(ControllerConfig(), n=10**6)


class TestReplay:
    def test_replay_runs_and_is_monotone_checked(self):
        samples = [ImuSample(0.01 * k, (0.0, 0.0, 0.0), (0.0, 0.0, 9.81)) for k in range(1, 50)]
        records = run_replay(ControllerConfig(), samples)
        assert len(records) == len(samples)
        bad = samples + [ImuSample(samples[-1].t, (0, 0, 0), (0, 0, 9.81))]
        with pytest.raises(ValueError, match="non-monotone"):
            run_replay(ControllerConfig(), bad)

    def test_replay_rejects_unsorted_schedule(self):
        samples = [ImuSample(0.01 * k, (0.0, 0.0, 0.0), (0.0, 0.0, 9.81)) for k in range(1, 5)]
        with pytest.raises(ValueError, match="sorted"):
            run_replay(ControllerConfig(), samples,
                       [(0.02, GaitCommand(0.3)), (0.01, GaitCommand())])

    def test_replay_gap_is_flagged(self):
        # 100 s between two samples: the step takes the gap as its dt, with
        # no clamp, so 0.01 rad/s turns the estimate by 1 rad, and says so
        samples = [ImuSample(0.01, (0.0, 0.0, 0.0), (0.0, 0.0, 9.81)),
                   ImuSample(100.01, (0.01, 0.0, 0.0), (0.0, 0.0, 0.0))]
        records = run_replay(ControllerConfig(), samples)
        assert [r[-1] for r in records] == ["", "replay_gap"]
        assert records[1][2] == pytest.approx(1.0, abs=1e-12)  # pxB

    @pytest.mark.parametrize("t0", [0.0, 1.7e9])
    def test_replay_dt_rule(self, monkeypatch, t0):
        # Gaps within GRID_TOL * cycle_dt step with cycle_dt itself, also
        # where Unix-epoch seconds round every stamp to 2.4e-7 s; a 13 ms
        # gap steps with its own length and is flagged
        from tiltphase.controller import TiltPhaseController

        dts = []
        step = TiltPhaseController.step
        monkeypatch.setattr(TiltPhaseController, "step",
                            lambda self, imu, cmd, dt: dts.append(dt) or step(self, imu, cmd, dt))
        times = [t0 + 0.01 * k + (-4e-7 if k % 2 else 4e-7) for k in range(1, 30)]
        times.append(times[-1] + 0.013)
        records = run_replay(ControllerConfig(), [
            ImuSample(t, (0.1, 0.0, 0.0), (0.0, 0.0, 9.81)) for t in times])
        assert dts[:29] == [0.01] * 29
        assert dts[29] == times[29] - times[28]
        assert [r[-1] for r in records] == [""] * 29 + ["replay_gap"]

    def test_replaying_a_closed_loop_reproduces_it(self, monkeypatch):
        """The IMU stream of a closed loop, replayed: every column but t bit
        for bit, as both loops step with cycle_dt. The loop's t is k * dt and
        an IMU stamp (k - 1) * dt + dt, which differ by ulps."""
        from reference import bits
        from test_golden_traces import default_loop_with_impulse

        from tiltphase.controller import TiltPhaseController

        imus = []
        step = TiltPhaseController.step

        def recording_step(self, imu, cmd, dt):
            imus.append(imu)
            return step(self, imu, cmd, dt)

        cfg, scenario = default_loop_with_impulse()
        monkeypatch.setattr(TiltPhaseController, "step", recording_step)
        loop = run_closed_loop(cfg, PlantConfig(), scenario).records
        monkeypatch.undo()
        replay = run_replay(cfg, imus, scenario.commands)
        assert len(replay) == len(loop) == 1000
        for a, b in zip(loop, replay):
            assert bits(a[1:-1]) == bits(b[1:-1]) and a[-1] == b[-1]

    def test_replay_rejects_non_finite_timestamp(self):
        samples = [ImuSample(t, (0.0, 0.0, 0.0), (0.0, 0.0, 9.81)) for t in (0.01, math.nan, 0.03)]
        with pytest.raises(ValueError, match="non-finite"):
            run_replay(ControllerConfig(), samples)

    def test_load_imu_log(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "t,gx,gy,gz,ax,ay,az\n# comment\n0.01,0,0,0,0,0,9.81\n0.02,0.1,0,0,0,0,9.81\n"
        )
        samples = load_imu_log(path)
        assert len(samples) == 2
        assert samples[1].gyro[0] == 0.1

    def test_load_imu_log_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0.01,0,0,0,0,0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_imu_log(path)
        path.write_text("0.01,0,0,0,0,0,abc\n")
        with pytest.raises(ValueError, match="line 1"):
            load_imu_log(path)
        path.write_text("0.02,0,0,0,0,0,9.81\n0.01,0,0,0,0,0,9.81\n")
        with pytest.raises(ValueError, match="line 2: non-monotone"):
            load_imu_log(path)
        path.write_text("-1.7e308,0,0,0,0,0,9.81\n1.7e308,0,0,0,0,0,9.81\n")
        with pytest.raises(ValueError, match="line 2: timestamp step overflows"):
            load_imu_log(path)

    @pytest.mark.parametrize("row, message", [
        ("0.0_1,0,0,0,0,0,9.81", "line 2: non-numeric t '0.0_1'"),
        ("0.01,0,0,0,0,0,9_8.1", "line 2: non-numeric az '9_8.1'"),
    ])
    def test_load_imu_log_rejects_digit_group_underscores(self, tmp_path, row, message):
        # float() would read "0.0_1" as 0.01
        path = tmp_path / "log.csv"
        path.write_text("t,gx,gy,gz,ax,ay,az\n" + row + "\n")
        with pytest.raises(ValueError, match=message):
            load_imu_log(path)

    @pytest.mark.parametrize("column, name", [(0, "t"), (2, "gy"), (6, "az")])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_load_imu_log_rejects_non_finite(self, tmp_path, column, name, bad):
        row = ["0.02", "0", "0", "0", "0", "0", "9.81"]
        row[column] = bad
        path = tmp_path / "log.csv"
        path.write_text("t,gx,gy,gz,ax,ay,az\n0.01,0,0,0,0,0,9.81\n" + ",".join(row) + "\n")
        with pytest.raises(ValueError, match=f"line 3: non-finite {name}"):
            load_imu_log(path)


class TestPushes:
    def test_trivial_push_is_withstood(self):
        assert run_push_trial(
            ControllerConfig(), PlantConfig(), 0.0, 0.05, seed=0, controller_enabled=True
        )

    def test_huge_push_fells_controller_off(self):
        assert not run_push_trial(
            ControllerConfig(), PlantConfig(), 0.0, 5.0, seed=0, controller_enabled=False
        )

    def test_battery_is_paired_and_deterministic(self):
        args = (ControllerConfig(), PlantConfig(), [0.5], 5, 3)
        a = push_battery(*args, controller_enabled=True)
        b = push_battery(*args, controller_enabled=True)
        assert a == b

    @pytest.mark.parametrize("enabled", [True, False])
    def test_each_trial_is_one_call_of_each_wrapped_name(self, monkeypatch, enabled):
        """perfbench wraps `harness.run_push_trial` and `harness.run_closed_loop`
        by name: a battery or a threshold search calls each once per trial,
        and each run returns the trial's full records (those of its cold run);
        the walk goes through neither name."""
        trials, runs = [], []
        trial, run = harness.run_push_trial, harness.run_closed_loop

        def trial_logged(*args):
            trials.append(args)
            return trial(*args)

        def run_logged(ctrl_cfg, plant_cfg, scenario):
            runs.append((scenario, run(ctrl_cfg, plant_cfg, scenario)))
            return runs[-1][1]

        monkeypatch.setattr(harness, "run_push_trial", trial_logged)
        monkeypatch.setattr(harness, "run_closed_loop", run_logged)
        ctrl, plant = ControllerConfig(), PlantConfig()
        counts = push_battery(ctrl, plant, (1.0, 1.5, 8.0), 2, seed=4, controller_enabled=enabled)
        assert len(trials) == len(runs) == 6
        assert sum(w for _, w in counts) == sum(not got.fallen for _, got in runs)
        assert harness.push_threshold(ctrl, plant, enabled, hi=30.0) < 30.0
        assert len(trials) == len(runs) == 6 + 1 + harness.THRESHOLD_ITERS
        for args, (scenario, got) in zip(trials, runs):
            assert scenario.start is not None and scenario.seed == args[4]
            want = run(ctrl, plant, replace(scenario, start=None))
            assert (got.records, got.fallen) == (want.records, want.fallen)
            assert got.records[0][0] == ctrl.cycle_dt


class TestFitWaveform:
    def test_recovers_known_waveform(self):
        wave = ExpectedWaveform(0.05, 0.02, 0.3, -1.1, 0.01, -0.02)
        mu = [k * 0.05 - math.pi for k in range(250)]
        px = [wave.amp_x * math.sin(m + wave.phase_x) + wave.offset_x for m in mu]
        py = [wave.amp_y * math.sin(m + wave.phase_y) + wave.offset_y for m in mu]
        fit, rms = fit_waveform(mu, px, py)
        assert fit.amp_x == pytest.approx(wave.amp_x, rel=0.05)
        assert fit.amp_y == pytest.approx(wave.amp_y, rel=0.05)
        assert fit.phase_x == pytest.approx(wave.phase_x, abs=0.05)
        assert fit.phase_y == pytest.approx(wave.phase_y, abs=0.05)
        assert fit.offset_x == pytest.approx(wave.offset_x, abs=1e-6)
        assert max(rms) < 1e-12

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            fit_waveform([0.0] * 5, [0.0] * 5, [0.0] * 5)

    def test_matches_lstsq(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.choice((10, 11, 37, 300, rng.randrange(10, 2001), 2000))
            start = rng.uniform(-math.pi, math.pi)
            span = rng.uniform(1.0, 12.0)
            # Both ends of the span are sampled, so mu spans at least 1 rad
            offsets = [0.0, span] + [span * rng.random() for _ in range(n - 2)]
            mu = [math.remainder(start + d, 2.0 * math.pi) for d in offsets]
            cols = []
            for _axis in range(2):
                a, phi = rng.uniform(0.005, 0.1), rng.uniform(-math.pi, math.pi)
                c, noise = rng.uniform(-0.05, 0.05), rng.uniform(0.0, 0.01)
                cols.append([a * math.sin(m + phi) + c + rng.gauss(0.0, noise) for m in mu])
            wave, rms = fit_waveform(mu, *cols)
            got = (*wave, *rms)
            want = lstsq_fit(mu, *cols)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12, (n, span)

    @pytest.mark.parametrize("mu", [[0.3] * 20, [0.3, 1.2] * 10, [-2.0] * 9 + [1.0] * 11],
                             ids=["constant", "two-valued", "two-valued-unbalanced"])
    def test_too_few_distinct_phases(self, mu):
        with pytest.raises(ValueError, match="mu covers too little of the cycle"):
            fit_waveform(mu, [0.1] * len(mu), [0.0] * len(mu))

    def test_column_lengths_must_match(self):
        mu = [0.5 * k for k in range(12)]
        with pytest.raises(ValueError, match="differ in length: 12, 11, 12"):
            fit_waveform(mu, [0.0] * 11, [0.0] * 12)


def lstsq_fit(mu, px, py):
    """numpy's least squares on columns (sin mu, cos mu, 1): the fit
    `fit_waveform` replaced, as its reference; the same 8 values."""
    mu = np.asarray(mu, dtype=float)
    A = np.stack([np.sin(mu), np.cos(mu), np.ones_like(mu)], axis=1)
    params, rms = [], []
    for data in (np.asarray(px, dtype=float), np.asarray(py, dtype=float)):
        beta, *_ = np.linalg.lstsq(A, data, rcond=None)
        params.append(
            (float(np.hypot(beta[0], beta[1])), math.atan2(beta[1], beta[0]), float(beta[2]))
        )
        rms.append(float(np.sqrt(np.mean((data - A @ beta) ** 2))))
    (ax, phx, cx), (ay, phy, cy) = params
    return ax, ay, phx, phy, cx, cy, *rms
