import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tiltphase.harness as harness
from tiltphase.cli import EXIT_DIFFERENT, EXIT_FALLEN, EXIT_INPUT, EXIT_OK, THRESHOLD_HI, main
from tiltphase.config import ControllerConfig
from tiltphase.trace import read_trace

SRC = Path(__file__).resolve().parents[1] / "src"


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
        message = f"error: {cfg}: line 2: controller.i_gain: expected a number, got '1_0'"
        assert message in captured.err
        assert captured.out == ""

    def test_config_key_given_twice_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("controller.f_nom = 6.0\ncontroller.i_gain = 1.0\ncontroller.f_nom = 6.0\n")
        assert main(["--config", str(cfg), "--dump-config"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "line 3: key 'controller.f_nom' already given on line 1" in captured.err
        assert captured.out == ""

    def test_config_wlbf_size_bounded(self, tmp_path, capsys):
        # Rejected before any WLBF of that size is built
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("controller.pd_wlbf_size = 100000000\n")
        assert main(["--config", str(cfg), "simulate", "--duration", "0.1"]) == EXIT_INPUT
        assert "controller.pd_wlbf_size must lie in [1, 4096]" in capsys.readouterr().err

    def test_config_ripple_steps_bounded(self, tmp_path, capsys):
        # Rejected before the controller computes the ripple window's length
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("controller.i_ripple_steps = 1" + "0" * 400 + "\n")
        assert main(["--config", str(cfg), "simulate", "--duration", "0.1"]) == EXIT_INPUT
        assert "controller.i_ripple_steps must lie in [1, 4096]" in capsys.readouterr().err

    def test_scenario_override_underscore_rejected(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"duration": 0.1, "config": {"controller.i_gain": "2_5"}}))
        assert main(["simulate", "--scenario", str(scenario)]) == EXIT_INPUT
        captured = capsys.readouterr()
        message = "error: scenario config: controller.i_gain: expected a number, got '2_5'"
        assert message in captured.err
        assert "cycles" not in captured.out

    def test_scenario_config_breaking_a_relation_names_the_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"duration": 0.1, "config": {"controller.f_min": 50}}))
        assert main(["simulate", "--scenario", str(scenario)]) == EXIT_INPUT
        captured = capsys.readouterr()
        message = "error: scenario config: controller.f_nom must lie in [f_min, f_max]\n"
        assert captured.err == message
        assert captured.out == ""

    def test_config_file_breaking_a_relation_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("controller.f_min = 50\n")
        assert main(["--config", str(cfg), "simulate", "--duration", "0.1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: {cfg}: controller.f_nom must lie in [f_min, f_max]\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize("t0, step", [(1.7e18, 1e7), (1e300, 1e300), (1e300, 3e284)])
    def test_huge_timestamps(self, tmp_path, capsys, t0, step):
        # Unix-epoch nanoseconds, and timestamps where t - hold_time == t
        log = tmp_path / "log.csv"
        rows = ["t,gx,gy,gz,ax,ay,az"]
        rows += [f"{t0 + step * k!r},{0.1 * (k % 5 - 2)},0.05,0,0.1,-0.2,9.81" for k in range(60)]
        log.write_text("\n".join(rows) + "\n")
        trace = tmp_path / "r.trace"
        rc = main(["replay", str(log), "--out", str(trace)])
        captured = capsys.readouterr()
        if rc == EXIT_OK:
            assert "60 cycles" in captured.out
            assert len(read_trace(trace)) == 60  # refuses non-finite values
        else:
            assert rc == EXIT_INPUT and "error: line " in captured.err

    def test_huge_gyro_is_held(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        rows = ["t,gx,gy,gz,ax,ay,az"]
        rows += [f"{0.01 * k},{1e200 if k == 20 else 0.1},0,0,0,0,9.81" for k in range(1, 40)]
        log.write_text("\n".join(rows) + "\n")
        trace = tmp_path / "r.trace"
        assert main(["replay", str(log), "--out", str(trace)]) == EXIT_OK
        assert "39 cycles" in capsys.readouterr().out
        assert [r["flags"] for r in read_trace(trace)][18:21] == ["", "imu_nonfinite", ""]

    @pytest.mark.parametrize("rows, flags", [
        (["1e300,1e10,0,0,0,0,9.81", "2e300,1e10,0,0,0,0,9.81", "3e300,1e10,0,0,0,0,9.81"],
         ["", "imu_nonfinite|replay_gap", "imu_nonfinite|replay_gap"]),
        # No gyro at all: the accelerometer correction alone overflows over dt
        (["0,0,0,0,0,0,9.81", "1e308,0,0,0,9.81,0,0"], ["", "imu_nonfinite|replay_gap"]),
        # The gyro's squares overflow, so the zero gyro before it is held
        (["0.01,0,0,0,0,0,9.81", "1e300,0,1e200,0,0,0,9.81"], ["", "imu_nonfinite|replay_gap"]),
    ])
    def test_rotation_overflow_is_held(self, tmp_path, capsys, rows, flags):
        # The estimator rotates by |rate| * dt; with dt an off-grid timestamp
        # gap (flagged replay_gap) that product can overflow although each
        # value is finite
        log = tmp_path / "log.csv"
        log.write_text("\n".join(["t,gx,gy,gz,ax,ay,az", *rows]) + "\n")
        trace = tmp_path / "r.trace"
        assert main(["replay", str(log), "--out", str(trace)]) == EXIT_OK
        assert f"{len(rows)} cycles" in capsys.readouterr().out
        records = read_trace(trace)
        assert [r["flags"] for r in records] == flags
        assert all(r["pxB"] == records[0]["pxB"] and r["pyB"] == records[0]["pyB"]
                   for r, f in zip(records, flags) if f)

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

    @pytest.mark.parametrize("levels, reason", [
        ("0.5,nan", "magnitude must be finite, got nan"),
        ("0.5,-inf", "magnitude must be finite, got -inf"),
        ("0.5,-0.25", "magnitude must lie in [0, 1000], got -0.25"),
        ("1001,0.5", "magnitude must lie in [0, 1000], got 1001.0"),
        # An empty item is a level that is not a number, not one to skip
        ("0.5,,1.0", "expected a number, got ''"),
        ("0.5,", "expected a number, got ''"),
        (" ", "expected a number, got ''"),
    ])
    def test_bad_level_rejected_before_any_trial(self, levels, reason, monkeypatch, capsys):
        # A bad level used to surface only after the good levels' trials ran,
        # and its message did not name the flag
        def no_trial(*args):
            raise AssertionError("a push trial ran")

        monkeypatch.setattr(harness, "run_closed_loop", no_trial)
        assert main(["pushtest", "--impulses", levels, "--pushes", "1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: --impulses: {reason}\n"
        assert captured.out == ""


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

    def test_constant_phase_trace_exits_input(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        assert main(["simulate", "--duration", "0.5", "--out", str(trace)]) == EXIT_OK
        lines = trace.read_text().splitlines()
        for i in range(2, len(lines)):
            row = lines[i].split(",")
            row[1] = "0.3"  # mu
            lines[i] = ",".join(row)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fit-waveform", str(trace)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "error: gait phase mu covers too little of the cycle" in captured.err
        assert captured.out == ""

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


class TestDiff:
    @pytest.fixture
    def traces(self, tmp_path):
        """Two 1.5 s runs that differ from the push at 1.0 s on."""
        paths = []
        for magnitude in (0.8, 0.9):
            sc = tmp_path / f"push{magnitude}.json"
            sc.write_text(json.dumps({"duration": 1.5, "disturbances": [
                {"kind": "impulse", "magnitude": magnitude, "start_time": 1.0}]}))
            out = tmp_path / f"push{magnitude}.trace"
            assert main(["simulate", "--scenario", str(sc), "--out", str(out)]) == EXIT_OK
            paths.append(out)
        return paths

    def test_identical_traces_exit_ok(self, traces, capsys):
        a, _ = traces
        copy = a.with_name("copy.trace")
        copy.write_bytes(a.read_bytes())
        assert main(["diff", str(a), str(copy)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "identical"
        assert "pxB 0.0" in out and "flags 0 records differ" in out

    def test_different_traces_name_the_first_record(self, traces, capsys):
        a, b = traces
        assert main(["diff", str(a), str(b)]) == EXIT_DIFFERENT
        out = capsys.readouterr().out.splitlines()
        assert "records 150 150" in out
        # The push lands in cycle 100's plant step; record 101 is the first to see it
        assert out[-1].startswith("first diverging record 101 (t=1.01): ")
        worst = dict(line.split(" ", 1) for line in out[1:35])
        assert float(worst["t"]) == 0.0 and float(worst["pxB"]) > 0.0

    def test_one_ulp_and_signed_zero_differ(self, traces, capsys):
        a, _ = traces
        lines = a.read_text().splitlines()
        fields = lines[40].split(",")
        fields[1] = repr(math.nextafter(float(fields[1]), math.inf))
        edited = a.with_name("ulp.trace")
        edited.write_text("\n".join(lines[:40] + [",".join(fields)] + lines[41:]) + "\n")
        assert main(["diff", str(a), str(edited)]) == EXIT_DIFFERENT
        assert capsys.readouterr().out.splitlines()[-1].startswith("first diverging record 39 ")
        # -0.0 reads as a number equal to 0.0, but the trace bytes differ
        zero = lines[2].split(",")
        col = zero.index("0.0")
        zero[col] = "-0.0"
        edited.write_text("\n".join(lines[:2] + [",".join(zero)] + lines[3:]) + "\n")
        assert main(["diff", str(a), str(edited)]) == EXIT_DIFFERENT
        assert capsys.readouterr().out.splitlines()[-1].startswith("first diverging record 1 ")

    def test_length_mismatch_differs(self, traces, capsys):
        a, _ = traces
        lines = a.read_text().splitlines()
        short = a.with_name("short.trace")
        short.write_text("\n".join(lines[:-10]) + "\n")
        assert main(["diff", str(a), str(short)]) == EXIT_DIFFERENT
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"first diverging record 141: only in {a}"
        )

    def test_malformed_trace_names_file_and_line(self, traces, capsys):
        a, _ = traces
        lines = a.read_text().splitlines()
        bad = a.with_name("bad.trace")
        bad.write_text("\n".join(lines[:5] + ["1.0,2.0"] + lines[5:]) + "\n")
        assert main(["diff", str(a), str(bad)]) == EXIT_INPUT
        assert f"{bad}: line 6: malformed row" in capsys.readouterr().err


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


class TestFlags:
    """Numeric flags go through the config coercion and their bounds; a bad
    flag is one `error:` line and exit 1, never argparse's exit 2 (EXIT_FALLEN)."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--seed", "1_0"], "--seed: expected an integer, got '1_0'"),
        (["simulate", "--duration", "1_0"], "--duration: expected a number, got '1_0'"),
        (["simulate", "--duration", "abc"], "--duration: expected a number, got 'abc'"),
        (["pushtest", "--pushes", "-1"], "--pushes must be at least 1, got -1"),
        (["pushtest", "--pushes", "0"], "--pushes must be at least 1, got 0"),
        (["pushtest", "--pushes", "2.5"], "--pushes: expected an integer, got '2.5'"),
        (["pushtest", "--seed", "1_0"], "--seed: expected an integer, got '1_0'"),
        (["selftest", "--cycles", "0"], "--cycles must be at least 1, got 0"),
        (["selftest", "--cycles", "2_0"], "--cycles: expected an integer, got '2_0'"),
    ], ids=["seed-underscore", "duration-underscore", "duration-text", "pushes-negative",
            "pushes-zero", "pushes-fraction", "pushtest-seed", "cycles-zero", "cycles-underscore"])
    def test_bad_numeric_flag_rejected(self, capsys, argv, message):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--bogus"], "unrecognized arguments: --bogus"),
        (["pushtest", "--controller", "maybe"], "argument --controller: invalid choice"),
        (["replay"], "the following arguments are required: imu_log"),
        (["simulate", "--seed"], "argument --seed: expected one argument"),
    ], ids=["unknown-flag", "bad-choice", "missing-positional", "missing-value"])
    def test_usage_error_exits_input(self, capsys, argv, message):
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, patched, message", [
        (["simulate", "--duration", "1e300"], "tiltphase.plant.SurrogatePlant.step",
         "error: scenario duration 1e+300 s is 1e+302 cycles of 0.01 s, above MAX_CYCLES = 1000000"),
        (["selftest", "--cycles", "1000000000"], "tiltphase.controller.TiltPhaseController.step",
         "error: n = 1000000000 cycles is above MAX_CYCLES = 1000000"),
    ], ids=["simulate-duration", "selftest-cycles"])
    def test_run_above_max_cycles_exits_input(self, tmp_path, capsys, monkeypatch, argv, patched,
                                              message):
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(patched, no_step)
        # A command at 0 leaves no quiet prefix to count out before the first step
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"commands": [{"t": 0.0}]}')
        if argv[0] == "simulate":
            argv = argv + ["--scenario", str(scenario)]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == message + "\n"

    def test_help_still_exits_ok(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == EXIT_OK
        assert "--duration" in capsys.readouterr().out


COLD_START = """
import contextlib, io, sys
from tiltphase.cli import main
trace = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["--dump-config"]) == 0
    assert main(["simulate", "--duration", "1.0", "--out", trace]) == 0
print("json" in sys.modules)
print("dataclasses" in sys.modules, "inspect" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["fit-waveform", trace]) == 0
print("numpy" in sys.modules)
"""


def test_cli_never_loads_numpy(tmp_path):
    """In a fresh interpreter the CLI, the closed loop and the waveform fit
    run on the standard library alone, `simulate` without a scenario file
    loads no json, and neither `--dump-config` nor `simulate` loads
    dataclasses or inspect."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path / "run.trace")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[0] == "False", "json imported by simulate"
    assert out[1:3] == ["False", "False"], "dataclasses or inspect imported"
    assert out[3:] == ["False"], "numpy imported"


def test_package_imports_only_the_standard_library():
    for path in sorted((SRC / "tiltphase").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "tiltphase", (
                    f"{path.name}:{node.lineno} imports {name}"
                )


def test_python_m_tiltphase_runs_the_cli(tmp_path):
    """`python -m tiltphase` from a source checkout: the CLI, with its exit
    codes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "tiltphase", "--dump-config"],
        env=env, capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert "controller.cycle_dt" in done.stdout
    done = subprocess.run(
        [sys.executable, "-m", "tiltphase", "simulate", "--duration", "-1"],
        env=env, capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode == EXIT_INPUT
    assert done.stderr.startswith("error: ")
