import json

import pytest

from tiltphase.cli import EXIT_FALLEN, EXIT_INPUT, EXIT_OK, main


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


class TestPushtest:
    def test_small_battery(self, capsys):
        rc = main(["pushtest", "--impulses", "0.2", "--pushes", "2", "--controller", "on"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "controller=on impulse=0.2 withstood=2/2" in out

    def test_no_levels_rejected(self, capsys):
        assert main(["pushtest", "--impulses", " "]) == EXIT_INPUT


class TestFitWaveform:
    def test_fit_from_simulated_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        assert main(["simulate", "--duration", "3.0", "--out", str(trace)]) == EXIT_OK
        out = tmp_path / "wave.json"
        rc = main(["fit-waveform", str(trace), "--out", str(out)])
        assert rc == EXIT_OK
        data = json.loads(out.read_text())
        assert set(data) >= {"wave_amp_x", "wave_phase_x", "residual_rms_x"}

    def test_missing_trace(self):
        assert main(["fit-waveform", "/no/such/trace"]) == EXIT_INPUT


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
