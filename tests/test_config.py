"""Config files: schema enforcement, unit conversion, digests, round trips."""

import math
from dataclasses import replace
from pathlib import Path

import pytest

from ccpj.config import (
    SCHEMA_VERSION,
    build_height_map,
    build_robot,
    build_scenario,
    build_signal,
    build_table,
    build_terrain,
    default_config_path,
    load_config,
    write_config,
)
from ccpj.errors import ConfigError
from ccpj.gait import ActuatorModel, SlipModel
from ccpj.params import BeamParams, GaitSignal, RobotParams


def write(tmp_path: Path, text: str, name: str = "test.config") -> Path:
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadConfig:
    def test_flat_scenario_over_defaults(self, scenario_path):
        cfg = load_config(scenario_path("flat_ratchet_T4"))
        assert cfg.name == "flat_ratchet_T4"
        assert cfg.get("signal", "period_s") == 4.0
        assert cfg.get("beam", "leg_length_mm") == pytest.approx(65e-3)
        assert len(cfg.digest) == 64

    def test_digest_stable_and_distinct(self, scenario_path):
        a1 = load_config(scenario_path("flat_ratchet_T4"))
        a2 = load_config(scenario_path("flat_ratchet_T4"))
        b = load_config(scenario_path("slope_15"))
        assert a1.digest == a2.digest
        assert a1.digest != b.digest

    def test_unknown_section(self, tmp_path):
        p = write(tmp_path, "[motor]\nvolts = 3\n")
        with pytest.raises(ConfigError, match=r"unknown section \[motor\]"):
            load_config(p)

    def test_unknown_key_lists_known(self, tmp_path):
        p = write(tmp_path, "[signal]\nperiod = 4\n")
        with pytest.raises(ConfigError, match="period_s"):
            load_config(p)

    def test_bad_value(self, tmp_path):
        p = write(tmp_path, "[beam]\nleg_length_mm = sixty-five\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(p)

    def test_bad_box(self, tmp_path):
        p = write(tmp_path, "[robot]\ncompact_box_mm = 15:17\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_schema_version_checked(self, tmp_path):
        p = write(tmp_path, "[meta]\nschema_version = 99\n")
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(p)
        assert SCHEMA_VERSION == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.config")

    def test_name_falls_back_to_stem(self, tmp_path):
        p = write(tmp_path, "[signal]\nperiod_s = 4\n", name="mything.config")
        assert load_config(p).name == "mything"

    def test_require_names_missing_key(self, tmp_path):
        p = write(tmp_path, "[meta]\nname = bare\n")
        cfg = load_config(p)  # defaults provide everything except period_s
        with pytest.raises(ConfigError, match=r"period_s.*\[signal\]"):
            build_signal(cfg)


class TestUnitConversion:
    def test_lengths_masses_angles(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CCPJ_DATA_DIR", raising=False)
        p = write(tmp_path, """
[signal]
period_s = 4.0
phase = 0.25:0

[terrain]
slope_deg = 15.0
ceiling_region_mm = 10:110:40
tunnel_width_mm = 42.0

[run]
payload_g = 5.0
""")
        cfg = load_config(p)
        sc = build_scenario(cfg)
        assert sc.terrain.slope == pytest.approx(math.radians(15.0))
        assert sc.terrain.ceiling == ((10e-3, 110e-3, 40e-3),)
        assert sc.terrain.tunnel_width == pytest.approx(42e-3)
        assert sc.payload_mass == pytest.approx(5e-3)
        assert sc.signal.phase == (0.25, 0.0)

    def test_constant_ceiling_gap(self, tmp_path):
        p = write(tmp_path, "[signal]\nperiod_s = 4\n"
                            "[terrain]\nceiling_gap_mm = 30\n")
        ter = build_terrain(load_config(p))
        assert (-math.inf, math.inf, 30e-3) in ter.ceiling

    def test_mask_parse(self, tmp_path):
        for raw, mask in [("all", (True, True)), ("front_only", (True, False)),
                          ("rear_only", (False, True))]:
            p = write(tmp_path, f"[signal]\nperiod_s = 4\nmask = {raw}\n",
                      name=f"m_{raw}.config")
            assert build_signal(load_config(p)).mask == mask

    def test_bad_mask(self, tmp_path):
        p = write(tmp_path, "[signal]\nperiod_s = 4\nmask = left_only\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_height_map_degrees(self, tmp_path):
        p = write(tmp_path, "[signal]\nperiod_s = 4\n"
                            "[height_map]\nanchors_a_deg = 0.28:20 0.4:60\n")
        hmap = build_height_map(load_config(p))
        assert hmap.beta_cap(0.4) == pytest.approx(math.radians(60.0))


class TestBuilders:
    def test_default_build_matches_library_defaults(self, scenario_path):
        cfg = load_config(scenario_path("flat_ratchet_T4"))
        sc = build_scenario(cfg)
        assert sc.robot.leg == BeamParams()
        # total_mass_g = 2.1 converts with one ulp of slack vs the 2.1e-3
        # literal; everything else must match exactly
        assert sc.robot.total_mass == pytest.approx(RobotParams().total_mass,
                                                    rel=1e-14)
        assert replace(sc.robot, total_mass=RobotParams().total_mass) \
            == RobotParams()
        assert sc.actuator == ActuatorModel()
        assert sc.slip == SlipModel()
        assert sc.signal == GaitSignal(period=4.0)
        assert sc.duration == 24.6 and sc.dt == 0.04 and sc.seed == 0
        assert sc.table is not None
        assert sc.table.currents == (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)

    def test_height_offset_derived_from_tilt(self, tmp_path):
        p = write(tmp_path, "[signal]\nperiod_s = 4\n"
                            "[robot]\nleg_tilt_deploy_deg = 45\n")
        robot = build_robot(load_config(p))
        want = 63.5e-3 - 65e-3 * math.sin(math.radians(45.0))
        assert robot.height_offset == pytest.approx(want)

    def test_table_absent_without_defaults(self, tmp_path, monkeypatch):
        # a data directory with no tripodbot.default: nothing to merge over
        monkeypatch.setenv("CCPJ_DATA_DIR", str(tmp_path))
        p = write(tmp_path, "[signal]\nperiod_s = 4\n")
        cfg = load_config(p)
        assert build_table(cfg) is None


class TestWriteConfig:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CCPJ_DATA_DIR", str(tmp_path))  # no defaults file
        p = tmp_path / "written.config"
        write_config(p, {
            "meta": {"schema_version": "1", "name": "written"},
            "signal": {"period_s": "4.0", "mask": "front_only"},
            "actuator": {"tau_heat_s": "1.3"},
        })
        cfg = load_config(p)
        assert cfg.name == "written"
        assert cfg.get("signal", "period_s") == 4.0
        assert cfg.get("signal", "mask") == (True, False)
        assert cfg.get("actuator", "tau_heat_s") == 1.3
        assert cfg.raw[("signal", "period_s")] == "4.0"

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_config(tmp_path / "x.config", {"signal": {"period": "4"}})
        with pytest.raises(ConfigError):
            write_config(tmp_path / "x.config", {"engine": {"v": "1"}})


def test_default_config_path_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("CCPJ_DATA_DIR", str(tmp_path))
    assert default_config_path() == tmp_path / "tripodbot.default"
    monkeypatch.delenv("CCPJ_DATA_DIR")
    assert default_config_path().name == "tripodbot.default"


def test_all_shipped_scenarios_build(scenario_path):
    for name in ("flat_ratchet_T4", "slope_15", "payload_5g",
                 "gate_40mm", "gate_20mm", "tunnel_40x20"):
        sc = build_scenario(load_config(scenario_path(name)))
        assert sc.signal.period == 4.0
        assert sc.duration > sc.signal.period
