"""Config files: schema enforcement, unit conversion, digests, round trips."""

import configparser
import hashlib
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_config
from config_text import SHAPED_TEXT
from ccpj import config
from ccpj.config import (
    SCHEMA,
    SCHEMA_VERSION,
    build_scenario,
    default_config_path,
    load_config,
    write_config,
)
from ccpj.errors import CcpjError, ConfigError
from ccpj.gait import ActuatorModel, SlipModel
from ccpj.params import BeamParams, GaitSignal, RobotParams


SHIPPED = ("flat_ratchet_T4", "slope_15", "payload_5g",
           "gate_40mm", "gate_20mm", "tunnel_40x20")


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

    def test_not_utf8(self, tmp_path):
        # once a UnicodeDecodeError traceback out of the CLI
        p = tmp_path / "latin1.config"
        p.write_bytes(b"[signal]\nperiod_s = 4\n# caf\xe9\n")
        with pytest.raises(ConfigError, match="cannot read config .*utf-8"):
            load_config(p)

    def test_name_falls_back_to_stem(self, tmp_path):
        p = write(tmp_path, "[signal]\nperiod_s = 4\n", name="mything.config")
        assert load_config(p).name == "mything"

    def test_require_names_missing_key(self, tmp_path):
        p = write(tmp_path, "[meta]\nname = bare\n")
        cfg = load_config(p)  # defaults provide everything except period_s
        with pytest.raises(ConfigError, match=r"period_s.*\[signal\]"):
            build_scenario(cfg)


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
        ter = build_scenario(load_config(p)).terrain
        assert (-math.inf, math.inf, 30e-3) in ter.ceiling

    def test_mask_parse(self, tmp_path):
        for raw, mask in [("all", (True, True)), ("front_only", (True, False)),
                          ("rear_only", (False, True))]:
            p = write(tmp_path, f"[signal]\nperiod_s = 4\nmask = {raw}\n",
                      name=f"m_{raw}.config")
            assert build_scenario(load_config(p)).signal.mask == mask

    def test_bad_mask(self, tmp_path):
        p = write(tmp_path, "[signal]\nperiod_s = 4\nmask = left_only\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_height_map_degrees(self, tmp_path):
        p = write(tmp_path, "[signal]\nperiod_s = 4\n"
                            "[height_map]\nanchors_a_deg = 0.28:20 0.4:60\n")
        hmap = build_scenario(load_config(p)).height_map
        assert hmap.beta_cap(0.4) == pytest.approx(math.radians(60.0))


# A valid value for every key with a field, none of them the shipped default.
EVERY_KEY = {
    "beam": {"n_beads": "21", "bead_thickness_mm": "2.9", "slack_mm": "1.5",
             "leg_length_mm": "62.0", "beam_mass_g": "0.45", "span_3pb_mm": "39.0"},
    "robot": {"leg_tilt_deploy_deg": "55.0", "total_mass_g": "2.2",
              "freestanding_height_mm": "63.0", "height_offset_mm": "10.0",
              "deployed_width_mm": "65.0", "compact_box_mm": "14:16:72",
              "deployed_box_mm": "104:119:63"},
    "stiffness_table": {"points_a_n_m": "0:1.0 0.4:60"},
    "actuator": {"tau_heat_s": "1.2", "tau_cool_s": "0.6", "i_threshold_a": "0.27",
                 "a_on": "0.3", "a_sat": "0.7"},
    "slip": {"eta0": "0.7", "c_slope": "1.9", "c_load": "0.3"},
    "height_map": {"anchors_a_deg": "0.28:20 0.4:55"},
    "signal": {"period_s": "5.0", "duty": "0.4", "i_high_a": "0.35",
               "i_low_a": "0.05", "mask": "front_only", "phase": "0.25:0.5"},
    "terrain": {"slope_deg": "10.0", "surface": "smooth", "pitch_mm": "2.5",
                "ceiling_gap_mm": "50", "ceiling_region_mm": "10:110:40",
                "tunnel_width_mm": "60", "mu_forward": "0.1", "mu_backward": "0.9"},
    "run": {"duration_s": "12.0", "dt_s": "0.02", "payload_g": "1.0", "seed": "3",
            "slip_noise": "0.1"},
}


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
        # RobotParams derives the offset for a config and a caller alike:
        # 13.707 mm at 50 degrees, not the 7.208 mm of the 60 degree default
        p = write(tmp_path, "[signal]\nperiod_s = 4\n"
                            "[robot]\nleg_tilt_deploy_deg = 50\n")
        robot = build_scenario(load_config(p)).robot
        want = 63.5e-3 - 65e-3 * math.sin(math.radians(50.0))
        assert robot.height_offset == pytest.approx(want)
        assert robot.height_offset == RobotParams(leg_tilt_deploy=50.0).height_offset

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, keys in SCHEMA.items() if section != "meta"
        for key in keys])
    def test_every_key_sets_its_field(self, tmp_path, section, key):
        """Each key, alone over the defaults, moves the Scenario exactly as
        the per-section builders did: a key that sets no field, or the
        wrong one, fails here."""
        base, one = tmp_path / "base.config", tmp_path / "one.config"
        write_config(base, {"signal": {"period_s": "4.5"}})
        sections = {"signal": {"period_s": "4.5"}}
        sections.setdefault(section, {})[key] = EVERY_KEY[section][key]
        write_config(one, sections)
        cfg = load_config(one)
        sc, want = build_scenario(cfg), reference_config.build_scenario(cfg)
        assert sc == want and repr(sc) == repr(want)
        assert sc != build_scenario(load_config(base))

    def test_table_absent_without_defaults(self, tmp_path, monkeypatch):
        # a data directory with no tripodbot.default: nothing to merge over
        monkeypatch.setenv("CCPJ_DATA_DIR", str(tmp_path))
        p = write(tmp_path, "[signal]\nperiod_s = 4\n")
        cfg = load_config(p)
        assert build_scenario(cfg).table is None


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
    for name in SHIPPED:
        sc = build_scenario(load_config(scenario_path(name)))
        assert sc.signal.period == 4.0
        assert sc.duration > sc.signal.period


def oracle_load(path: Path) -> tuple:
    """(values, raw, digest, name) as load_config computed them before the
    defaults layer was cached: both files parsed by fresh ConfigParsers and
    converted key by key on every call. Errors name the file at fault."""
    dpath = default_config_path()
    files = [dpath] if dpath != path and dpath.exists() else []
    values, raw = {}, {}
    parsers = []
    for file in [*files, path]:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(file, encoding="utf-8") as fh:
                parser.read_file(fh, source=str(file))
        except configparser.Error as err:
            raise ConfigError(f"bad config syntax: {err}") from err
        parsers.append((file, parser))
    for file, parser in parsers:
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(
                    f"{file}: unknown section [{section}] "
                    f"(known: {', '.join(sorted(SCHEMA))})")
            for key, val in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(
                        f"{file}: unknown key {key!r} in [{section}] "
                        f"(known: {', '.join(sorted(SCHEMA[section]))})")
                try:
                    values[(section, key)] = config._convert(SCHEMA[section][key][0], val)
                except ValueError as err:
                    raise ConfigError(
                        f"{file} [{section}] {key}: cannot parse {val!r}: {err}"
                    ) from err
                raw[(section, key)] = " ".join(val.split())
    version = values.get(("meta", "schema_version"), SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version {version} unsupported (expected "
            f"{SCHEMA_VERSION})")
    name = values.get(("meta", "name")) or path.stem
    if not name.isprintable() or any(c in name for c in "/\\"):
        raise ConfigError(f"{path}: name {name!r} must be a plain file name")
    lines = sorted(f"{sect}.{key}={val}" for (sect, key), val in raw.items())
    return values, raw, hashlib.sha256("\n".join(lines).encode()).hexdigest(), name


def loaded(path: Path) -> tuple:
    cfg = load_config(path)
    return cfg.values, cfg.raw, cfg.digest, cfg.name


def outcome(load, path: Path):
    """What a loader returns, or the message of the ConfigError it raises."""
    try:
        return load(path)
    except ConfigError as err:
        return f"ConfigError: {err}"


def built(build, cfg):
    """The Scenario a builder returns and its repr, or the type and message
    of the error it raises."""
    try:
        scenario = build(cfg)
    except CcpjError as err:
        return f"{type(err).__name__}: {err}"
    return scenario, repr(scenario)


def defaults_copy(directory: Path, line: str = "n_beads = 20") -> Path:
    """A data directory whose tripodbot.default is the shipped one with its
    `n_beads = 20` line replaced by `line`."""
    text = (config._packaged_data_dir() / "tripodbot.default").read_text()
    directory.mkdir(parents=True, exist_ok=True)
    dpath = directory / "tripodbot.default"
    dpath.write_text(text.replace("n_beads = 20\n", f"{line}\n", 1))
    return dpath


class TestDefaultsLayer:
    """load_config converts the defaults once per file text and overlays
    each scenario on a copy; every result equals a from-scratch parse."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_scenarios_match_oracle(self, scenario_path, name):
        path = scenario_path(name)
        want = oracle_load(path)
        assert loaded(path) == want
        assert loaded(path) == want  # warm

    def test_defaults_edit_between_loads_is_seen(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CCPJ_DATA_DIR", str(tmp_path))
        defaults_copy(tmp_path)
        p = write(tmp_path, "[signal]\nperiod_s = 4\n")
        first = load_config(p)
        assert first.get("beam", "n_beads") == 20
        defaults_copy(tmp_path, "n_beads = 21")
        second = load_config(p)
        assert second.get("beam", "n_beads") == 21
        assert second.digest != first.digest
        assert loaded(p) == oracle_load(p)

    def test_mutated_values_do_not_leak(self, scenario_path):
        path = scenario_path("flat_ratchet_T4")
        want = oracle_load(path)
        cfg = load_config(path)
        cfg.values[("beam", "n_beads")] = 99
        cfg.values[("signal", "extra")] = 1
        cfg.raw.clear()
        assert loaded(path) == want

    @pytest.mark.parametrize("line, fault", [
        ("n_beads = 20\nbogus = 1", "unknown key 'bogus' in [beam]"),
        ("n_beads = abc", "[beam] n_beads: cannot parse 'abc'"),
    ])
    def test_broken_defaults_raise_every_call(self, tmp_path, monkeypatch,
                                              scenario_path, line, fault):
        path = scenario_path("slope_15")
        load_config(path)  # a good layer is cached first
        monkeypatch.setenv("CCPJ_DATA_DIR", str(tmp_path))
        dpath = defaults_copy(tmp_path, line)
        for _ in range(3):
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert str(err.value).startswith(f"{dpath}") and fault in str(err.value)
        defaults_copy(tmp_path)  # mended, it loads again
        assert loaded(path) == oracle_load(path)


# Scenario overlays for the property below: keys from SCHEMA, values shaped
# for each key's converter or not, and now and then an unknown name.
JUNK = st.sampled_from(["abc", "nan", "inf", "-inf", "1:2", "1:2:3", "", "0"])
ENTRY = st.sampled_from(
    [(section, key) for section, keys in SCHEMA.items() for key in keys]
    + [("beam", "bogus"), ("motor", "volts")]
).flatmap(lambda e: st.tuples(st.just(e), st.one_of(
    SHAPED_TEXT[SCHEMA[e[0]][e[1]][0]] if e[1] in SCHEMA.get(e[0], {}) else JUNK,
    JUNK)))


@pytest.mark.fresh_seed
@settings(deadline=None, max_examples=200)
@given(entries=st.lists(ENTRY, max_size=8),
       line=st.sampled_from([None, None, None, "n_beads = 20", "n_beads = 21",
                             "n_beads = 20\nbogus = 1"]),
       period=st.sampled_from([None, "4.0"]))
def test_overlay_matches_oracle_property(entries, line, period):
    """Any overlay, over the shipped defaults or an edited copy: the same
    values, raw strings, digest and name as a from-scratch parse, or the
    same error; and from a loaded config the same Scenario as the
    per-section builders, or the same first error."""
    # the defaults set no period: half the overlays start with one, so that
    # more of them get past build_scenario's first check
    sections = {} if period is None else {"signal": {"period_s": period}}
    for (section, key), value in entries:
        sections.setdefault(section, {})[key] = value
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                   for name, body in sections.items())
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if line is not None:
            mp.setenv("CCPJ_DATA_DIR", str(defaults_copy(Path(tmp) / "data", line).parent))
        else:
            mp.delenv("CCPJ_DATA_DIR", raising=False)
        path = Path(tmp) / "drawn.scenario"
        path.write_text(text, encoding="utf-8")
        want = outcome(oracle_load, path)
        assert outcome(loaded, path) == want
        assert outcome(loaded, path) == want  # warm
        if not isinstance(want, str):
            cfg = load_config(path)
            assert built(build_scenario, cfg) == built(reference_config.build_scenario, cfg)
