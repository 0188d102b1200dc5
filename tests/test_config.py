import hashlib
import math
import pickle

import pytest

from tiltphase.config import (
    _FIELD_TYPES,
    ConfigError,
    ControllerConfig,
    PlantConfig,
    apply_overrides,
    coerce,
    dump_config,
    field_values,
    fields,
    load_config,
    parse_config_lines,
    parse_number,
    replace,
)
from tiltphase.filters import MAX_WLBF_SIZE
from tiltphase.harness import RunResult, Scenario
from tiltphase.plant import Disturbance, PlantState
from tiltphase.trace import finite_float


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

    @pytest.mark.parametrize("name", [
        f"{part}_{term}_gain_{axis}"
        for part in ("arm", "foot") for term in ("p", "d") for axis in ("lat", "sag")
    ])
    def test_negative_pd_gain_rejected(self, name):
        with pytest.raises(ConfigError, match=f"^controller.{name} must be >= 0$"):
            ControllerConfig(**{name: -0.1}).validate()
        ControllerConfig(**{name: 0.0}).validate()

    @pytest.mark.parametrize("name", [
        "i_gain", "i_cft_gain", "i_hip_gain", "so_gain", "sp_gain", "tim_gain",
    ])
    def test_negative_feedback_gain_rejected(self, name):
        # A negative gain reverses its correction, as for the eight PD gains
        with pytest.raises(ConfigError, match=f"^controller.{name} must be >= 0$"):
            ControllerConfig(**{name: -1.0}).validate()
        ControllerConfig(**{name: 0.0}).validate()

    @pytest.mark.parametrize("name", ["est_kp", "est_ki", "est_bias_limit"])
    def test_negative_estimator_field_rejected(self, name):
        # Negative gains pull the estimate away from gravity; a negative
        # bias limit inverts the bias clamp
        with pytest.raises(ConfigError, match=f"^controller.{name} must be >= 0$"):
            ControllerConfig(**{name: -0.1}).validate()
        ControllerConfig(**{name: 0.0}).validate()

    @pytest.mark.parametrize("lo, hi", [(1.5, 1.5), (2.0, 1.5), (0.5, 0.4)])
    def test_empty_accelerometer_gate_rejected(self, lo, hi):
        # The gate accepts no sample, and the estimator runs on the gyro alone
        with pytest.raises(ConfigError,
                           match="^controller.est_acc_min_g must be below est_acc_max_g$"):
            ControllerConfig(est_acc_min_g=lo, est_acc_max_g=hi).validate()
        ControllerConfig(est_acc_min_g=lo, est_acc_max_g=math.nextafter(lo, math.inf)).validate()

    def test_gait_phase_step_below_half_a_cycle(self):
        # At f_max * cycle_dt >= pi the gait phase may step half a cycle or
        # more per cycle, and the plant's foot strikes need a step below pi
        message = r"^controller.f_max \* cycle_dt must be below pi$"
        with pytest.raises(ConfigError, match=message):
            ControllerConfig(f_nom=400.0, f_max=400.0, f_min=300.0).validate()
        edge = math.pi / 0.01
        with pytest.raises(ConfigError, match=message):
            ControllerConfig(f_max=edge).validate()
        with pytest.raises(ConfigError, match=message):
            ControllerConfig(f_max=40.0, cycle_dt=0.1).validate()
        ControllerConfig(f_max=math.nextafter(edge, 0.0)).validate()

    @pytest.mark.parametrize("name", ["lean_gain_vx", "lean_gain_wz", "lean_gain_ax"])
    def test_feedforward_lean_gain_may_be_negative(self, name):
        ControllerConfig(**{name: -1.0}).validate()

    @pytest.mark.parametrize("name, bad, good, message", [
        ("cycle_dt", 1e-12, 1e-3, r"must lie in \[0.001, 0.1\]"),
        ("cycle_dt", 1e300, 0.1, r"must lie in \[0.001, 0.1\]"),
        ("so_pendulum_c", 1e-300, 1e-3, "must be at least 0.001"),
        ("f_min", 5e-324, 0.1, "must be at least 0.1"),
        ("hh_height_hi", 1e300, 1.0, r"must lie in \[0, 1\]"),
        ("hh_height_lo", -0.1, 0.0, r"must lie in \[0, 1\]"),
        ("wave_amp_x", 1e300, math.pi, r"must lie in \[0, pi\]"),
        ("wave_amp_y", -0.1, 0.0, r"must lie in \[0, pi\]"),
        ("wave_offset_x", 1e300, -math.pi, r"must lie in \[-pi, pi\]"),
        ("wave_offset_y", -3.2, math.pi, r"must lie in \[-pi, pi\]"),
        ("pd_wlbf_size", 0, 1, r"must lie in \[1, 4096\]"),
        ("lean_wlbf_size", MAX_WLBF_SIZE + 1, MAX_WLBF_SIZE, r"must lie in \[1, 4096\]"),
        ("so_wlbf_size", 10 ** 8, MAX_WLBF_SIZE, r"must lie in \[1, 4096\]"),
    ])
    def test_field_limits_named(self, name, bad, good, message):
        # Past these limits step divides by zero or overflows tilt_quat, a
        # plant's pendulum overflows, a run asks for trillions of cycles
        # or plant substeps, or a WLBF takes seconds to build its window
        with pytest.raises(ConfigError, match=f"^controller.{name} {message}$"):
            ControllerConfig(**{name: bad}).validate()
        ControllerConfig(**{name: good}).validate()

    @pytest.mark.parametrize("bad", [0.0, 5e-324, 1e-300, 9.9e-6])
    def test_substep_dt_limit_named(self, bad):
        # Below it a 0.1 s cycle asks for over 1e4 substeps; at 5e-324,
        # ceil(dt / substep_dt) overflows
        with pytest.raises(ConfigError, match=r"^plant.substep_dt must be at least 1e-05$"):
            PlantConfig(substep_dt=bad).validate()
        PlantConfig(substep_dt=1e-5).validate()

    @pytest.mark.parametrize("name, bad, good, message", [
        ("pendulum_c", 1e300, 1e3, "plant.pendulum_c must be at most 1000"),
        ("impulse_scale", 5e-324, 1e-6, "plant.impulse_scale must be at least 1e-06"),
        ("couple_arm", 1e300, 1e3, r"plant.couple_arm must lie in \[-1000, 1000\]"),
        ("couple_plane", -1e300, -1e3, r"plant.couple_plane must lie in \[-1000, 1000\]"),
        ("couple_lean", 1000.5, -1e3, r"plant.couple_lean must lie in \[-1000, 1000\]"),
        ("strike_capture", -1e300, 0.0, "plant.strike_capture must be >= 0"),
        ("pivot_y", 1e300, math.pi, r"plant.pivot_y must lie in \[-pi, pi\]"),
        ("pivot_x_left", -3.2, -math.pi, r"plant.pivot_x_left must lie in \[-pi, pi\]"),
        ("substep_dt", 0.10000000000000002, 0.1, "plant.substep_dt must be at most 0.1"),
    ])
    def test_plant_overflow_limits_named(self, name, bad, good, message):
        # Past these limits one cycle's tilt, or a foot strike's, overflows
        # the IMU emission, or the substeps take sin(inf); a substep longer
        # than the 0.1 s cycle limit changes nothing, and a huge one makes
        # h^2 overflow
        with pytest.raises(ConfigError, match=f"^{message}$"):
            PlantConfig(**{name: bad}).validate()
        PlantConfig(**{name: good}).validate()

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

    def test_key_given_twice_names_both_lines(self):
        lines = ["controller.f_nom = 6.0", "plant.gravity = 9.8", "# again",
                 "controller.f_nom = 6.5"]
        message = "^line 4: key 'controller.f_nom' already given on line 1$"
        with pytest.raises(ConfigError, match=message):
            parse_config_lines(lines)
        # The same name in the other section is another key
        ctrl, plant = parse_config_lines(["controller.cycle_dt = 0.02", "plant.substep_dt = 0.02"])
        assert ctrl.cycle_dt == plant.substep_dt == 0.02

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

    @pytest.mark.parametrize("raw", ["1_0", "2_5.0", "1e1_0", "_1"])
    def test_one_number_gate_refuses_digit_groups(self, raw):
        # Config values, CLI flags and trace/IMU fields share parse_number
        with pytest.raises(ValueError, match="digit-group underscore"):
            parse_number(raw)
        with pytest.raises(ConfigError, match=f"x: expected an integer, got '{raw}'"):
            coerce(int, raw, "x")
        with pytest.raises(ValueError, match=f"line 3: non-numeric t '{raw}'"):
            finite_float(raw, "t", 3)

    def test_one_number_gate_reads_numbers(self):
        assert parse_number("2.5e-3") == 0.0025
        assert parse_number("-7", int) == -7
        assert type(parse_number("7")) is float
        assert finite_float(" 1e3 ", "t", 1) == 1000.0

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
        with pytest.raises(ConfigError, match="^override: unknown key 'controller.bogus'$"):
            apply_overrides(ControllerConfig(), PlantConfig(), {"controller.bogus": 1})
        with pytest.raises(ConfigError, match="^override: unknown section 'robot'$"):
            apply_overrides(ControllerConfig(), PlantConfig(), {"robot.i_gain": 1})
        with pytest.raises(ConfigError, match="^override: key 'i_gain' must be"):
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
        assert str(err.value) == f"override: {key}: expected {kind}, got {value!r}"

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
        expected = {f"controller.{name}" for name in fields(ControllerConfig)}
        expected |= {f"plant.{name}" for name in fields(PlantConfig)}
        assert keys == expected


# Each record class, arguments it takes and a field without a check
RECORDS = [
    (ControllerConfig, {}, "py_nominal"),
    (PlantConfig, {}, "pivot_y"),
    (PlantState, {}, "px"),
    (Disturbance, {"kind": "impulse"}, "direction"),
    (Scenario, {}, "seed"),
    (RunResult, {"records": [], "fallen": False}, "fallen"),
]
RECORD_IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, required, name", RECORDS, ids=RECORD_IDS)
class TestRecordContract:
    """What the package reads of its record classes: the repr the quiet
    prefix memo keys on, ==, keyword checks and pickling through slots."""

    def test_repr_tells_signed_zeros_and_ints_apart(self, cls, required, name):
        shown = [repr(cls(**{**required, name: v})) for v in (0.0, -0.0, 1, 1.0)]
        assert len(set(shown)) == 4
        assert shown[1].startswith(f"{cls.__name__}(")
        assert f"{name}=-0.0" in shown[1]

    def test_eq_compares_fields(self, cls, required, name):
        a = cls(**required)
        assert a == cls(**required)
        assert a != replace(a, **{name: 0.5})
        assert a != field_values(a)

    def test_unknown_keyword_is_named(self, cls, required, name):
        with pytest.raises(TypeError, match="no_such_field"):
            cls(**required, no_such_field=1)

    def test_pickles_without_a_dict(self, cls, required, name):
        a = cls(**{**required, name: 0.5})
        b = pickle.loads(pickle.dumps(a, pickle.HIGHEST_PROTOCOL))
        assert type(b) is cls and b == a and repr(b) == repr(a)
        assert not hasattr(a, "__dict__") and not hasattr(b, "__dict__")


class TestRecords:
    def test_positional_and_keyword_construction(self):
        d = Disturbance("force", 0.4, 1.0, start_time=0.5)
        assert field_values(d) == ("force", 0.4, 1.0, 0.5, 0.0)
        with pytest.raises(TypeError, match="kind"):
            Disturbance()
        with pytest.raises(TypeError, match="direction"):
            Disturbance("force", 0.4, direction=0.5)
        with pytest.raises(TypeError, match="positional"):
            Disturbance(*range(6))

    def test_list_and_dict_defaults_are_fresh(self):
        a, b = Scenario(), Scenario()
        a.commands.append((0.0, None))
        a.overrides["plant.gravity"] = 9.8
        assert b.commands == [] and b.overrides == {}

    def test_replace_reruns_the_checks(self):
        s = Scenario(seed=3)
        assert replace(s, duration=2.0) == Scenario(duration=2.0, seed=3)
        with pytest.raises(ValueError, match="duration"):
            replace(s, duration=-1.0)
        with pytest.raises(ValueError, match="disturbance"):
            replace(Disturbance("impulse", 0.4, 1.0), kind="no_such_kind")

    def test_field_types_of_the_configs(self):
        # Names, order and types of all 103 config fields, pinned by the
        # digest of their "section.name:type" lines
        lines = [f"{p}.{n}:{t.__name__}" for p, d in _FIELD_TYPES.items() for n, t in d.items()]
        assert len(lines) == 103
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "b8d6fd197950640abfe9da40518b63157c5f850be21dd393af9473207c0b23e1"
        )
        assert [line for line in lines if not line.endswith(":float")] == [
            "controller.pd_mean_order:int", "controller.pd_wlbf_size:int",
            "controller.i_ripple_steps:int", "controller.lean_wlbf_size:int",
            "controller.so_wlbf_size:int", "controller.sp_mean_order:int",
            "controller.hh_sagittal_only:bool",
        ]
        assert list(fields(PlantConfig())) == list(_FIELD_TYPES["plant"])
