import json
import math
import random

import pytest

from tiltphase.config import ControllerConfig, PlantConfig
from tiltphase.controller import GaitCommand
from tiltphase.deviation import ExpectedWaveform
from tiltphase.estimator import ImuSample
from tiltphase.harness import (
    Scenario,
    _command_at,
    _schedule_times,
    fit_waveform,
    load_imu_log,
    push_battery,
    run_closed_loop,
    run_push_trial,
    run_replay,
)
from tiltphase.plant import Disturbance


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

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(duration=0.0)
        from tiltphase.controller import GaitCommand

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
    """The linear schedule scan that `_command_at` replaced, as its reference."""
    cmd = GaitCommand()
    for tc, c in commands:
        if tc <= t:
            cmd = c
        else:
            break
    return cmd


def test_command_lookup_matches_linear_scan():
    rng = random.Random(5)
    for _ in range(300):
        # Few distinct times, so schedules have ties and repeated entries
        n = rng.randrange(12)
        times = sorted(rng.choice((0.0, 0.5, 1.0, rng.uniform(0.0, 3.0))) for _ in range(n))
        commands = [(tc, GaitCommand(rng.random(), float(k))) for k, tc in enumerate(times)]
        probes = [-1.0, -0.0, 0.0, 0.5, 1.0, 3.5] + times
        probes += [rng.uniform(-0.5, 3.5) for _ in range(10)]
        checked = _schedule_times(commands)
        for t in probes:
            assert _command_at(checked, commands, t) == _scan_command_at(commands, t)


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

    def test_overrides_do_not_mutate_caller_config(self):
        ctrl = ControllerConfig()
        sc = Scenario(duration=0.5, overrides={"controller.i_gain": 0.0})
        run_closed_loop(ctrl, PlantConfig(), sc)
        assert ctrl.i_gain == ControllerConfig().i_gain


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
        assert run_push_trial(ControllerConfig(), PlantConfig(), 0.0, 0.05, seed=0)

    def test_huge_push_fells_controller_off(self):
        assert not run_push_trial(
            ControllerConfig(), PlantConfig(), 0.0, 5.0, seed=0, controller_enabled=False
        )

    def test_battery_is_paired_and_deterministic(self):
        args = (ControllerConfig(), PlantConfig(), [0.5], 5, 3)
        a = push_battery(*args, controller_enabled=True)
        b = push_battery(*args, controller_enabled=True)
        assert a == b


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
