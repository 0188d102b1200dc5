import math

import pytest

from tiltphase.config import (
    ConfigError,
    ControllerConfig,
    PlantConfig,
    apply_overrides,
    dump_config,
    load_config,
    parse_config_lines,
)


class TestDefaults:
    def test_defaults_validate(self):
        ControllerConfig().validate()
        PlantConfig().validate()

    def test_invalid_controller_fields(self):
        with pytest.raises(ConfigError, match="cycle_dt"):
            ControllerConfig(cycle_dt=0.0).validate()
        with pytest.raises(ConfigError, match="f_nom"):
            ControllerConfig(f_nom=100.0).validate()
        with pytest.raises(ConfigError, match="i_ripple_steps"):
            ControllerConfig(i_ripple_steps=3).validate()
        with pytest.raises(ConfigError, match="arm_buffer"):
            ControllerConfig(arm_buffer=0.5, arm_limit_x=0.5, arm_limit_y=0.5).validate()
        with pytest.raises(ConfigError, match="so_crossing"):
            ControllerConfig(so_crossing_px_l=0.1).validate()
        with pytest.raises(ConfigError, match="instability_lo"):
            ControllerConfig(hh_instability_lo=0.5, hh_instability_hi=0.5).validate()
        with pytest.raises(ConfigError, match="double_support_width"):
            ControllerConfig(double_support_width=math.pi).validate()

    def test_invalid_plant_fields(self):
        with pytest.raises(ConfigError, match="strike_restitution"):
            PlantConfig(strike_restitution=1.5).validate()
        with pytest.raises(ConfigError, match="strike_reset"):
            PlantConfig(strike_reset=-0.1).validate()
        with pytest.raises(ConfigError, match="noise"):
            PlantConfig(noise_gyro=-1.0).validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, bad):
        with pytest.raises(ConfigError, match="plant.substep_dt must be finite"):
            PlantConfig(substep_dt=bad).validate()
        with pytest.raises(ConfigError, match="controller.arm_p_gain_lat must be finite"):
            ControllerConfig(arm_p_gain_lat=bad).validate()
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config_lines([f"plant.couple_arm = {bad}"])


class TestParsing:
    def test_parse_basic(self):
        ctrl, plant = parse_config_lines(
            [
                "# a comment",
                "",
                "controller.i_gain = 0.7  # inline comment",
                "plant.gravity = 9.80665",
                "controller.pd_mean_order = 7",
                "controller.hh_sagittal_only = true",
            ]
        )
        assert ctrl.i_gain == pytest.approx(0.7)
        assert plant.gravity == pytest.approx(9.80665)
        assert ctrl.pd_mean_order == 7
        assert ctrl.hh_sagittal_only is True

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_lines(["controller.i_gain = 0.1", "not a key value"])
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_lines(["bare_key = 1"])
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_lines(["robot.i_gain = 1"])
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_lines(["controller.no_such_field = 1"])
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config_lines(["controller.i_gain = fast"])
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config_lines(["controller.pd_mean_order = 2.5"])
        with pytest.raises(ConfigError, match="expected a boolean"):
            parse_config_lines(["controller.hh_sagittal_only = maybe"])

    @pytest.mark.parametrize("line, message", [
        ("controller.i_gain = 1_0", "line 1: controller.i_gain: expected a number, got '1_0'"),
        ("plant.gravity = 9_81.0", "line 1: plant.gravity: expected a number, got '9_81.0'"),
        ("controller.pd_mean_order = 1_0",
         "line 1: controller.pd_mean_order: expected an integer, got '1_0'"),
    ])
    def test_digit_group_underscores_rejected(self, line, message):
        # int() and float() would read "1_0" as 10
        with pytest.raises(ConfigError) as err:
            parse_config_lines([line])
        assert str(err.value) == message

    def test_parsed_configs_are_validated(self):
        with pytest.raises(ConfigError, match="cycle_dt"):
            parse_config_lines(["controller.cycle_dt = -0.01"])

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("controller.f_nom = 6.0\nplant.pendulum_c = 1.5\n")
        ctrl, plant = load_config(path)
        assert ctrl.f_nom == pytest.approx(6.0)
        assert plant.pendulum_c == pytest.approx(1.5)


class TestOverrides:
    def test_apply(self):
        ctrl, plant = ControllerConfig(), PlantConfig()
        apply_overrides(ctrl, plant, {"controller.i_gain": 0.0, "plant.noise_gyro": 0.01})
        assert ctrl.i_gain == 0.0
        assert plant.noise_gyro == pytest.approx(0.01)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown override"):
            apply_overrides(ControllerConfig(), PlantConfig(), {"controller.bogus": 1})
        with pytest.raises(ConfigError, match="must be"):
            apply_overrides(ControllerConfig(), PlantConfig(), {"i_gain": 1})

    def test_override_bool_parsed_like_config_file(self):
        ctrl, _ = apply_overrides(
            ControllerConfig(hh_sagittal_only=True), PlantConfig(),
            {"controller.hh_sagittal_only": "false"},
        )
        assert ctrl.hh_sagittal_only is False
        ctrl, _ = apply_overrides(
            ControllerConfig(), PlantConfig(), {"controller.hh_sagittal_only": True}
        )
        assert ctrl.hh_sagittal_only is True
        with pytest.raises(ConfigError, match="expected a boolean"):
            apply_overrides(
                ControllerConfig(), PlantConfig(), {"controller.hh_sagittal_only": "maybe"}
            )

    def test_override_int_not_truncated(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            apply_overrides(ControllerConfig(), PlantConfig(), {"controller.pd_mean_order": 2.7})
        ctrl, _ = apply_overrides(
            ControllerConfig(), PlantConfig(), {"controller.pd_mean_order": 7}
        )
        assert ctrl.pd_mean_order == 7

    def test_override_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="expected a number"):
            apply_overrides(ControllerConfig(), PlantConfig(), {"controller.i_gain": "fast"})
        with pytest.raises(ConfigError, match="must be finite"):
            apply_overrides(ControllerConfig(), PlantConfig(), {"plant.substep_dt": "inf"})

    @pytest.mark.parametrize("key, value, kind", [
        ("controller.i_gain", "2_5", "a number"),
        ("controller.pd_mean_order", "1_0", "an integer"),
    ])
    def test_override_digit_group_underscores_rejected(self, key, value, kind):
        with pytest.raises(ConfigError) as err:
            apply_overrides(ControllerConfig(), PlantConfig(), {key: value})
        assert str(err.value) == f"{key}: expected {kind}, got {value!r}"

    def test_override_result_is_validated(self):
        with pytest.raises(ConfigError):
            apply_overrides(ControllerConfig(), PlantConfig(), {"controller.f_min": 50.0})


class TestDump:
    def test_dump_round_trip(self):
        ctrl = ControllerConfig(i_gain=0.123, pd_mean_order=9)
        plant = PlantConfig(gravity=9.8, noise_accel=0.05)
        lines = list(dump_config(ctrl, plant))
        ctrl2, plant2 = parse_config_lines(lines)
        assert ctrl2 == ctrl
        assert plant2 == plant

    def test_dump_covers_every_field(self):
        lines = list(dump_config(ControllerConfig(), PlantConfig()))
        keys = {line.split("=", 1)[0].strip() for line in lines}
        from dataclasses import fields

        expected = {f"controller.{f.name}" for f in fields(ControllerConfig)}
        expected |= {f"plant.{f.name}" for f in fields(PlantConfig)}
        assert keys == expected
