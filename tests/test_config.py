import hashlib
import math
import pickle

import pytest

from tiltphase.config import (
    _FIELD_TYPES,
    _LIMITS,
    _RELATIONS,
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


CONFIGS = {"controller": ControllerConfig, "plant": PlantConfig}
# What a value outside each interval of the limits tables must do, as its
# error says: a new interval, or a changed error, fails a test here
RENDERED = {
    "(0, inf)": "be positive",
    "(-inf, 0)": "be negative",
    "[0, inf)": "be >= 0",
    "[0.1, inf)": "be >= 0.1",
    "[0.001, inf)": "be >= 0.001",
    "[1e-06, inf)": "be >= 1e-06",
    "[0.001, 0.1]": "lie in [0.001, 0.1]",
    "[1e-05, 0.1]": "lie in [1e-05, 0.1]",
    "[0, 1]": "lie in [0, 1]",
    "[0, pi]": "lie in [0, pi]",
    "[-pi, pi]": "lie in [-pi, pi]",
    "(-pi/2, pi/2)": "lie in (-pi/2, pi/2)",
    "(0, pi)": "lie in (0, pi)",
    "(0, 1000]": "lie in (0, 1000]",
    "[-1000, 1000]": "lie in [-1000, 1000]",
    f"[1, {MAX_WLBF_SIZE}]": f"lie in [1, {MAX_WLBF_SIZE}]",
}
_NAMED = {"pi": math.pi, "pi/2": math.pi / 2}


def ends(interval):
    """The two ends of an interval row as numbers, read here apart from the
    config module."""
    values = []
    for text in interval[1:-1].split(", "):
        magnitude = _NAMED.get(text.lstrip("-")) or float(text.lstrip("-"))
        values.append(-magnitude if text.startswith("-") else magnitude)
    return values


def expected_error(section, name, row, value):
    """The error validate() raises for one field at value as the row reads,
    or None; a relation may still reject a value within the limits."""
    interval = row.removesuffix(" even")
    lo, hi = ends(interval)
    if not ((lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if interval[-1] == "]" else value < hi)):
        return f"{section}.{name} must {RENDERED[interval]}"
    if row != interval and value % 2:
        return f"{section}.{name} must be even"
    return None


# One config per relation of the controller that breaks it, and its message
RELATION_CASES = [
    ({"est_acc_min_g": 1.5}, "est_acc_min_g must be below est_acc_max_g"),
    ({"f_min": 7.0}, "f_nom must lie in [f_min, f_max]"),
    ({"cycle_dt": 0.1, "f_max": 40.0}, "f_max * cycle_dt must be below pi"),
    ({"arm_limit_y": 0.1}, "arm_buffer must be below the smallest semi-axis"),
    ({"foot_limit_x": 0.05}, "foot_buffer must be below the smallest semi-axis"),
    ({"i_bound_y": 0.05}, "i_buffer must be below the smallest semi-axis"),
    ({"so_buffer": 0.4}, "so_buffer must be below the smallest semi-axis"),
    ({"sp_buffer": 0.3}, "sp_buffer must be below the smallest semi-axis"),
    ({"lean_buffer": 0.3}, "lean_buffer must be below lean_limit"),
    ({"hh_height_lo": 1.0, "hh_height_hi": 0.95}, "hh_height_lo must not exceed hh_height_hi"),
    ({"hh_instability_lo": 0.5}, "hh_instability_lo must be below hh_instability_hi"),
]


LIMITED = [(section, name, row) for section in CONFIGS
           for name, row in _LIMITS[section].items() if row]


class TestLimitsTable:
    """The per-field limits and the relations of both configs, from their tables."""

    def test_every_field_has_one_row_in_order(self):
        # A field added without a row, or a row without a field, fails here
        for section, cls in CONFIGS.items():
            assert list(_LIMITS[section]) == list(fields(cls))
        assert [len(_LIMITS[section]) for section in CONFIGS] == [83, 20]
        unbounded = [name for section in CONFIGS for name, row in _LIMITS[section].items()
                     if not row]
        assert unbounded == [
            "wave_phase_x", "wave_phase_y", "est_acc_min_g", "est_acc_max_g",
            "lean_gain_vx", "lean_gain_wz", "lean_gain_ax", "so_max_rotation",
            "so_sagittal_max", "hh_instability_lo", "hh_instability_hi", "hh_sagittal_only",
        ]

    def test_limits_pinned(self):
        # A limit that moves changes which configs are accepted: pinned by
        # the digest of the "section.name: row" lines
        lines = [f"{s}.{n}: {row}" for s, rows in _LIMITS.items() for n, row in rows.items()]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "728a256a1611e81b44ac953cff92cbff78e7ab9f426a9fc3bc7316a583fb15a2"
        )

    def test_every_interval_has_its_error_pinned(self):
        assert {row for _, _, row in LIMITED} == set(RENDERED) | {f"[1, {MAX_WLBF_SIZE}] even"}

    @pytest.mark.parametrize("name", ["pd_mean_order", "i_ripple_steps", "sp_mean_order"])
    def test_filter_windows_bounded(self, name):
        # Unbounded, a 401-digit i_ripple_steps passed and then overflowed
        # the ripple window's float length in the controller's constructor
        with pytest.raises(ConfigError) as err:
            ControllerConfig(**{name: 10 ** 400}).validate()
        assert str(err.value) == f"controller.{name} must lie in [1, {MAX_WLBF_SIZE}]"
        ControllerConfig(**{name: MAX_WLBF_SIZE}).validate()

    @pytest.mark.parametrize("section, name, row", LIMITED, ids=[n for _, n, _ in LIMITED])
    def test_bounds_and_their_outward_neighbours(self, section, name, row):
        """Each finite end and the next value outward, plus far and unit
        values, are accepted or rejected as the row reads, with its error."""
        cls = CONFIGS[section]
        integer = fields(cls)[name] == "int"
        values = [-1, 0, 1, 2, 3, 10 ** 8] if integer else [
            -1e300, -1.0, -5e-324, 0.0, 5e-324, 1.0, 1e300]
        for end, outward in zip(ends(row.removesuffix(" even")), (-math.inf, math.inf)):
            if math.isfinite(end):
                values += [int(end), int(end) + int(math.copysign(1, outward))] if integer else [
                    end, math.nextafter(end, outward)]
        relations = {f"{section}.{message}" for _, message in _RELATIONS[section]}
        for value in values:
            expected = expected_error(section, name, row, value)
            try:
                cls(**{name: value}).validate()
                error = None
            except ConfigError as err:
                error = str(err)
            if expected is None and error is not None:
                assert error in relations, (value, error)
            else:
                assert error == expected, value

    @pytest.mark.parametrize("changes, message", RELATION_CASES)
    def test_each_relation_named(self, changes, message):
        with pytest.raises(ConfigError) as err:
            ControllerConfig(**changes).validate()
        assert str(err.value) == f"controller.{message}"

    def test_every_relation_has_a_case(self):
        relations = [message for _, message in _RELATIONS["controller"]]
        assert [message for _, message in RELATION_CASES] == relations
        assert _RELATIONS["plant"] == ()

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


def override(settings, ctrl=None):
    """apply_overrides on fresh configs, or on ctrl and a fresh plant config."""
    return apply_overrides(ctrl or ControllerConfig(), PlantConfig(), settings, "override: ")


class TestOverrides:
    def test_apply(self):
        ctrl, plant = ControllerConfig(), PlantConfig()
        apply_overrides(ctrl, plant, {"controller.i_gain": 0.0, "plant.noise_gyro": 0.01}, "")
        assert ctrl.i_gain == 0.0
        assert plant.noise_gyro == pytest.approx(0.01)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="^override: unknown key 'controller.bogus'$"):
            override({"controller.bogus": 1})
        with pytest.raises(ConfigError, match="^override: unknown section 'robot'$"):
            override({"robot.i_gain": 1})
        with pytest.raises(ConfigError, match="^override: key 'i_gain' must be"):
            override({"i_gain": 1})

    def test_override_bool_parsed_like_config_file(self):
        ctrl, _ = override({"controller.hh_sagittal_only": "false"},
                           ControllerConfig(hh_sagittal_only=True))
        assert ctrl.hh_sagittal_only is False
        ctrl, _ = override({"controller.hh_sagittal_only": True})
        assert ctrl.hh_sagittal_only is True
        with pytest.raises(ConfigError, match="expected a boolean"):
            override({"controller.hh_sagittal_only": "maybe"})

    def test_override_int_not_truncated(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            override({"controller.pd_mean_order": 2.7})
        ctrl, _ = override({"controller.pd_mean_order": 7})
        assert ctrl.pd_mean_order == 7

    def test_override_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="expected a number"):
            override({"controller.i_gain": "fast"})
        with pytest.raises(ConfigError, match="must be finite"):
            override({"plant.substep_dt": "inf"})

    @pytest.mark.parametrize("key, value, kind", [
        ("controller.i_gain", "2_5", "a number"),
        ("controller.pd_mean_order", "1_0", "an integer"),
    ])
    def test_override_digit_group_underscores_rejected(self, key, value, kind):
        with pytest.raises(ConfigError) as err:
            override({key: value})
        assert str(err.value) == f"override: {key}: expected {kind}, got {value!r}"

    def test_override_result_is_validated(self):
        # The error of a check of the whole config starts with `where` too
        with pytest.raises(ConfigError) as err:
            override({"controller.f_min": 50.0})
        assert str(err.value) == "override: controller.f_nom must lie in [f_min, f_max]"


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
    """What the package reads of its record classes: the repr a walk's key
    holds, ==, keyword checks and pickling through slots."""

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
