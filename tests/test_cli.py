import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tiltphase.cli import EXIT_FALLEN, EXIT_INPUT, EXIT_OK, THRESHOLD_HI, main
from tiltphase.config import ControllerConfig


class TestSimulate:
    def test_nominal_exit_ok(self, tmp_path, capsys):
        out = tmp_path / "run.trace"
        rc = main(["simulate", "--duration", "2.0", "--out", str(out)])
        assert rc == EXIT_OK
        assert "upright" in capsys.readouterr().out
        assert out.exists()

    def test_fallen_exit_code(self, tmp_path, capsys):
        sc = tmp_path / "fall.json"
        sc.write_text(
            json.dumps(
                {
                    "duration": 5.0,
                    "controller_enabled": False,
                    "disturbances": [
                        {"kind": "impulse", "magnitude": 4.0, "start_time": 1.0}
                    ],
                }
            )
        )
        rc = main(["simulate", "--scenario", str(sc)])
        assert rc == EXIT_FALLEN
        assert "fallen" in capsys.readouterr().out

    def test_bad_scenario_exit_input(self, tmp_path, capsys):
        sc = tmp_path / "bad.json"
        sc.write_text("{not json")
        rc = main(["simulate", "--scenario", str(sc)])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ('{"disturbances": [{"kind": "force", "magnitude": NaN, "duration": 1.0}]}', "magnitude"),
        ('{"disturbances": [{"kind": "impulse", "start_time": Infinity}]}', "start_time"),
        ('{"controller_enabled": "false"}', "controller_enabled"),
        ('{"seed": 2.7}', "seed"),
        ('{"duration": true}', "duration"),
        ('{"commands": [{"t": "0.5", "vx": 0.3}]}', "commands[0].t"),
        ('{"disturbances": [{"kind": "force", "magnitude": "9.5"}]}', "magnitude"),
        ('{"disturbances": [{"kind": "force", "magnitude": 9.5, "duration": -1.0}]}', "duration"),
        ('{"commands": [{"t": 0.0, "vx": NaN}]}', "commands[0].vx"),
        pytest.param("[1, 2]", "scenario:", id="top-level-list"),
        pytest.param('{"commands": [5]}', "commands[0]", id="command-not-object"),
        pytest.param('{"commands": {"t": 0.0}}', "commands", id="commands-not-list"),
        pytest.param('{"disturbances": ["impulse"]}', "disturbances[0]",
                     id="disturbance-not-object"),
        pytest.param('{"disturbances": [{"magnitude": 1.0}]}', "disturbances[0].kind",
                     id="kind-missing"),
        pytest.param('{"disturbances": [{"kind": 3}]}', "disturbances[0].kind",
                     id="kind-not-string"),
        pytest.param('{"duration": 1' + "0" * 400 + "}", "duration", id="duration-beyond-float"),
        pytest.param('{"commands": [{"t": 0.0, "vx": -1' + "0" * 400 + "}]}", "commands[0].vx",
                     id="command-beyond-float"),
        pytest.param('{"config": 5}', "config", id="config-not-object"),
    ])
    def test_invalid_scenario_field_rejected(self, tmp_path, capsys, text, field):
        sc = tmp_path / "bad.json"
        sc.write_text(text)
        assert main(["simulate", "--scenario", str(sc), "--duration", "0.5"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert field in captured.err
        assert "cycles" not in captured.out

    @pytest.mark.parametrize("text, key", [
        ('{"disturbance": [{"kind": "impulse", "magnitude": 9.0, "start_time": 0.2}]}',
         "disturbance"),
        ('{"disturbances": [{"kind": "impulse", "magnitude": 9.0, "start": 0.2}]}',
         "disturbances[0].start"),
        ('{"commands": [{"t": 0, "vz": 0.3}]}', "commands[0].vz"),
    ])
    def test_unknown_scenario_key_rejected(self, tmp_path, capsys, text, key):
        sc = tmp_path / "typo.json"
        sc.write_text(text)
        assert main(["simulate", "--scenario", str(sc), "--duration", "0.5"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: scenario {key}: unknown key")
        assert "cycles" not in captured.out

    def test_nonpositive_duration_rejected(self, capsys):
        for bad in ("-1", "0", "nan"):
            rc = main(["simulate", "--duration", bad])
            assert rc == EXIT_INPUT
            captured = capsys.readouterr()
            assert "duration" in captured.err
            assert "cycles" not in captured.out

    def test_missing_config_file(self, capsys):
        rc = main(["--config", "/no/such/file", "simulate"])
        assert rc == EXIT_INPUT

    def test_config_file_underscore_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("controller.f_nom = 6.0\ncontroller.i_gain = 1_0\n")
        assert main(["--config", str(cfg), "--dump-config"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "error: line 2: controller.i_gain: expected a number, got '1_0'" in captured.err
        assert captured.out == ""

    def test_scenario_override_underscore_rejected(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"duration": 0.1, "config": {"controller.i_gain": "2_5"}}))
        assert main(["simulate", "--scenario", str(scenario)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "error: controller.i_gain: expected a number, got '2_5'" in captured.err
        assert "cycles" not in captured.out

    def test_deterministic_trace_output(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        assert main(["simulate", "--duration", "1.0", "--seed", "4", "--out", str(a)]) == EXIT_OK
        assert main(["simulate", "--duration", "1.0", "--seed", "4", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestReplay:
    def test_replay_ok(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        rows = ["t,gx,gy,gz,ax,ay,az"]
        rows += [f"{0.01 * k},0,0,0,0,0,9.81" for k in range(1, 40)]
        log.write_text("\n".join(rows) + "\n")
        rc = main(["replay", str(log), "--out", str(tmp_path / "r.trace")])
        assert rc == EXIT_OK
        assert "39 cycles" in capsys.readouterr().out

    def test_empty_log_rejected(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("t,gx,gy,gz,ax,ay,az\n")
        assert main(["replay", str(log)]) == EXIT_INPUT

    @pytest.mark.parametrize("row", ["nan,0,0,0,0,0,9.81", "0.02,0,nan,0,0,0,9.81"])
    def test_non_finite_log_rejected(self, tmp_path, capsys, row):
        log = tmp_path / "log.csv"
        log.write_text("t,gx,gy,gz,ax,ay,az\n0.01,0,0,0,0,0,9.81\n" + row + "\n")
        assert main(["replay", str(log)]) == EXIT_INPUT
        assert "line 3: non-finite" in capsys.readouterr().err

    def test_digit_group_underscore_rejected(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("t,gx,gy,gz,ax,ay,az\n0.0_1,0,0,0,0,0,9.81\n0.02,0,0,0,0,0,9.81\n")
        assert main(["replay", str(log)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "line 2: non-numeric t '0.0_1'" in captured.err
        assert "cycles" not in captured.out


class TestPushtest:
    def test_small_battery(self, capsys):
        rc = main(["pushtest", "--impulses", "0.2", "--pushes", "2", "--controller", "on"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "controller=on impulse=0.2 withstood=2/2" in out

    def test_threshold_capped_at_hi_is_shown_as_bound(self, capsys):
        rc = main(["pushtest", "--impulses", "0.2", "--pushes", "1", "--controller", "on",
                   "--threshold"])
        assert rc == EXIT_OK
        line = capsys.readouterr().out.splitlines()[-1]
        # The controller withstands the largest push tried; the open loop does not
        assert line.startswith(f"threshold: on>={THRESHOLD_HI:.4f} off=")
        assert float(line.rsplit("=", 1)[1]) < THRESHOLD_HI

    def test_no_levels_rejected(self, capsys):
        assert main(["pushtest", "--impulses", " "]) == EXIT_INPUT

    def test_digit_group_underscore_level_rejected(self, capsys):
        # float("1_0") is 10.0
        assert main(["pushtest", "--impulses", "0.2,1_0", "--pushes", "1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "error: --impulses: expected a number, got '1_0'" in captured.err
        assert "controller=" not in captured.out


class TestFitWaveform:
    def test_fit_from_simulated_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        assert main(["simulate", "--duration", "3.0", "--out", str(trace)]) == EXIT_OK
        out = tmp_path / "wave.json"
        rc = main(["fit-waveform", str(trace), "--out", str(out)])
        assert rc == EXIT_OK
        data = json.loads(out.read_text())
        assert set(data) >= {"wave_amp_x", "wave_phase_x", "residual_rms_x"}
        wave = {k: v for k, v in data.items() if k.startswith("wave_")}
        assert len(wave) == 6
        ControllerConfig(**wave)  # the fitted keys are controller config keys

    def test_missing_trace(self):
        assert main(["fit-waveform", "/no/such/trace"]) == EXIT_INPUT

    @pytest.mark.parametrize("column, bad, message", [
        (None, None, "line 5: malformed"),
        (2, "x", "line 5: non-numeric pxB"),
        (27, "nan", "line 5: non-finite sd"),
    ])
    def test_bad_trace_names_the_line(self, tmp_path, capsys, column, bad, message):
        trace = tmp_path / "run.trace"
        assert main(["simulate", "--duration", "0.5", "--out", str(trace)]) == EXIT_OK
        lines = trace.read_text().splitlines()
        row = lines[4].split(",")
        if column is None:
            row.pop()
        else:
            row[column] = bad
        lines[4] = ",".join(row)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fit-waveform", str(trace)]) == EXIT_INPUT
        assert message in capsys.readouterr().err


class TestTopLevel:
    def test_dump_config(self, capsys):
        rc = main(["--dump-config"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "controller.i_gain = " in out
        assert "plant.pendulum_c = " in out

    def test_dump_config_reflects_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("controller.i_gain = 0.625\n")
        rc = main(["--config", str(cfg), "--dump-config"])
        assert rc == EXIT_OK
        assert "controller.i_gain = 0.625" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_INPUT
        assert "usage:" in capsys.readouterr().out


COLD_START = """
import contextlib, io, sys
import tiltphase, tiltphase.cli, tiltphase.harness
from tiltphase.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["--dump-config"]) == 0
    assert main(["simulate", "--duration", "0.1"]) == 0
print("numpy" in sys.modules)
tiltphase.harness.fit_waveform([0.5 * k for k in range(12)], [0.0] * 12, [0.0] * 12)
print("numpy" in sys.modules)
"""


def test_numpy_loaded_only_by_fit_waveform():
    """In a fresh interpreter the CLI, config and closed loop load no numpy;
    fit_waveform, its only user, imports it when called."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[0] == "False", "numpy imported before fit_waveform"
    assert out[1] == "True"
