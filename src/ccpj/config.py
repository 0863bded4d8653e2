"""Scenario configuration files.

INI-style configs with units spelled in the key names (period_s,
gap_mm, payload_g) so a reader can never mistake a millimeter for a
meter. A scenario file overlays the shipped defaults; the merged result
builds the simulator objects and hashes to a reproducible digest.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .gait import MASKS, ActuatorModel, CurrentHeightMap, Scenario, SlipModel, Terrain
from .params import BeamParams, CalibrationTable, GaitSignal, RobotParams

SCHEMA_VERSION = 1

# section -> key -> converter tag. Anything not listed here is rejected.
# Numbers must be finite, except under "float_inf" and in the x-bounds of
# "regions", where an infinite value means "no limit".
SCHEMA: dict[str, dict[str, str]] = {
    "meta": {"schema_version": "int", "name": "str"},
    "beam": {
        "n_beads": "int",
        "bead_thickness_mm": "len",
        "slack_mm": "len",
        "leg_length_mm": "len",
        "beam_mass_g": "mass",
        "span_3pb_mm": "len",
    },
    "robot": {
        "leg_tilt_deploy_deg": "float",
        "total_mass_g": "mass",
        "freestanding_height_mm": "len",
        "height_offset_mm": "len",
        "deployed_width_mm": "len",
        "compact_box_mm": "box",
        "deployed_box_mm": "box",
    },
    "stiffness_table": {"points_a_n_m": "pairs"},
    "actuator": {
        "tau_heat_s": "float",
        "tau_cool_s": "float",
        "i_threshold_a": "float",
        "a_on": "float",
        "a_sat": "float",
    },
    "slip": {"eta0": "float", "c_slope": "float", "c_load": "float"},
    "height_map": {"anchors_a_deg": "pairs"},
    "signal": {
        "period_s": "float",
        "duty": "float",
        "i_high_a": "float",
        "i_low_a": "float",
        "mask": "mask",
        "phase": "pair",
    },
    "terrain": {
        "slope_deg": "float",
        "surface": "str",
        "pitch_mm": "len",
        "ceiling_gap_mm": "len",
        "ceiling_region_mm": "regions",
        "tunnel_width_mm": "len",
        "mu_forward": "float",
        "mu_backward": "float_inf",
    },
    "run": {
        "duration_s": "float",
        "dt_s": "float",
        "payload_g": "mass",
        "seed": "int",
        "slip_noise": "float",
    },
}


def _number(raw: str, allow_inf: bool = False) -> float:
    value = float(raw)
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        raise ValueError(f"{value} is not allowed here")
    return value


def _convert(tag: str, raw: str, where: str):
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return _number(raw)
        if tag == "float_inf":
            return _number(raw, allow_inf=True)
        if tag == "str":
            return raw.strip()
        if tag == "len":
            return _number(raw) * 1e-3
        if tag == "mass":
            return _number(raw) * 1e-3
        if tag == "box":
            parts = [_number(p) * 1e-3 for p in raw.split(":")]
            if len(parts) != 3:
                raise ValueError("need exactly three ':'-separated sizes")
            return tuple(parts)
        if tag == "pair":
            a, b = raw.split(":")
            return (_number(a), _number(b))
        if tag == "pairs":
            out = []
            for item in raw.split():
                a, b = item.split(":")
                out.append((_number(a), _number(b)))
            if not out:
                raise ValueError("empty list")
            return tuple(out)
        if tag == "regions":
            out = []
            for item in raw.split():
                x0, x1, gap = item.split(":")
                out.append((_number(x0, allow_inf=True) * 1e-3,
                            _number(x1, allow_inf=True) * 1e-3,
                            _number(gap) * 1e-3))
            return tuple(out)
        if tag == "mask":
            key = raw.strip()
            if key not in MASKS:
                raise ValueError(f"must be one of {sorted(MASKS)}")
            return MASKS[key]
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{where}: cannot parse {raw!r}: {err}") from err
    raise ConfigError(f"{where}: unhandled converter {tag!r}")


def data_dir() -> Path:
    """Directory holding datasets, scenario files, and the default config.

    CCPJ_DATA_DIR overrides the packaged data directory wholesale.
    """
    env = os.environ.get("CCPJ_DATA_DIR")
    if env:
        return Path(env)
    return Path(str(resources.files("ccpj").joinpath("data")))


def default_config_path() -> Path:
    """Shipped defaults, unless CCPJ_DATA_DIR points somewhere else."""
    return data_dir() / "tripodbot.default"


@dataclass(frozen=True)
class EffectiveConfig:
    """Merged, parsed configuration plus its provenance digest."""

    name: str
    path: str
    values: dict  # (section, key) -> parsed value
    raw: dict  # (section, key) -> raw string, canonicalized
    digest: str

    def get(self, section: str, key: str, default=None):
        return self.values.get((section, key), default)

    def require(self, section: str, key: str):
        if (section, key) not in self.values:
            raise ConfigError(
                f"{self.path}: missing required key {key!r} in [{section}]")
        return self.values[(section, key)]


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"bad config syntax: {err}") from err
    return parser


def load_config(path: str | Path, *, include_defaults: bool = True
                ) -> EffectiveConfig:
    """Parse a scenario file over the shipped defaults.

    Every section and key is checked against the schema; unknown names
    are errors, not silently ignored, because a typoed key would
    otherwise fall back to a default and simulate the wrong robot.
    """
    path = Path(path)
    parsers = []
    if include_defaults:
        dpath = default_config_path()
        if dpath != path and dpath.exists():
            parsers.append(_read_ini(dpath))
    parsers.append(_read_ini(path))

    raw: dict = {}
    values: dict = {}
    for parser in parsers:
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(
                    f"{path}: unknown section [{section}] "
                    f"(known: {', '.join(sorted(SCHEMA))})")
            for key, val in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(
                        f"{path}: unknown key {key!r} in [{section}] "
                        f"(known: {', '.join(sorted(SCHEMA[section]))})")
                where = f"{path} [{section}] {key}"
                values[(section, key)] = _convert(SCHEMA[section][key], val, where)
                raw[(section, key)] = " ".join(val.split())

    version = values.get(("meta", "schema_version"), SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version {version} unsupported (expected "
            f"{SCHEMA_VERSION})")

    name = values.get(("meta", "name")) or path.stem
    if any(c in name for c in "/\\\0"):
        # artifacts are named after the scenario: keep them inside --out
        raise ConfigError(f"{path}: name {name!r} must be a plain file name")
    lines = sorted(f"{sect}.{key}={val}" for (sect, key), val in raw.items())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return EffectiveConfig(name=name, path=str(path), values=values,
                           raw=raw, digest=digest)


def build_beam(cfg: EffectiveConfig) -> BeamParams:
    d = BeamParams()
    return BeamParams(
        n_beads=cfg.get("beam", "n_beads", d.n_beads),
        bead_thickness=cfg.get("beam", "bead_thickness_mm", d.bead_thickness),
        slack=cfg.get("beam", "slack_mm", d.slack),
        leg_length=cfg.get("beam", "leg_length_mm", d.leg_length),
        beam_mass=cfg.get("beam", "beam_mass_g", d.beam_mass),
        span_3pb=cfg.get("beam", "span_3pb_mm", d.span_3pb),
    )


def build_robot(cfg: EffectiveConfig) -> RobotParams:
    leg = build_beam(cfg)
    d = RobotParams()
    tilt = cfg.get("robot", "leg_tilt_deploy_deg", d.leg_tilt_deploy)
    free = cfg.get("robot", "freestanding_height_mm", d.freestanding_height)
    offset = cfg.get("robot", "height_offset_mm")
    if offset is None:
        # body height above the leg tips when fully stood
        offset = free - leg.leg_length * math.sin(math.radians(tilt))
    return RobotParams(
        leg=leg,
        leg_tilt_deploy=tilt,
        total_mass=cfg.get("robot", "total_mass_g", d.total_mass),
        height_offset=offset,
        freestanding_height=free,
        deployed_width=cfg.get("robot", "deployed_width_mm", d.deployed_width),
        compact_box=cfg.get("robot", "compact_box_mm", d.compact_box),
        deployed_box=cfg.get("robot", "deployed_box_mm", d.deployed_box),
    )


def build_table(cfg: EffectiveConfig) -> CalibrationTable | None:
    points = cfg.get("stiffness_table", "points_a_n_m")
    if points is None:
        return None
    return CalibrationTable.from_points(points)


def build_actuator(cfg: EffectiveConfig) -> ActuatorModel:
    d = ActuatorModel()
    return ActuatorModel(
        tau_heat=cfg.get("actuator", "tau_heat_s", d.tau_heat),
        tau_cool=cfg.get("actuator", "tau_cool_s", d.tau_cool),
        i_threshold=cfg.get("actuator", "i_threshold_a", d.i_threshold),
        a_on=cfg.get("actuator", "a_on", d.a_on),
        a_sat=cfg.get("actuator", "a_sat", d.a_sat),
    )


def build_slip(cfg: EffectiveConfig) -> SlipModel:
    d = SlipModel()
    return SlipModel(
        eta0=cfg.get("slip", "eta0", d.eta0),
        c_slope=cfg.get("slip", "c_slope", d.c_slope),
        c_load=cfg.get("slip", "c_load", d.c_load),
    )


def build_height_map(cfg: EffectiveConfig) -> CurrentHeightMap | None:
    anchors = cfg.get("height_map", "anchors_a_deg")
    if anchors is None:
        return None
    return CurrentHeightMap(anchors=tuple(
        (cur, math.radians(deg)) for cur, deg in anchors))


def build_signal(cfg: EffectiveConfig) -> GaitSignal:
    d = GaitSignal(period=1.0)
    return GaitSignal(
        period=cfg.require("signal", "period_s"),
        duty=cfg.get("signal", "duty", d.duty),
        i_high=cfg.get("signal", "i_high_a", d.i_high),
        i_low=cfg.get("signal", "i_low_a", d.i_low),
        mask=cfg.get("signal", "mask", d.mask),
        phase=cfg.get("signal", "phase", d.phase),
    )


def build_terrain(cfg: EffectiveConfig) -> Terrain:
    d = Terrain()
    ceiling = list(cfg.get("terrain", "ceiling_region_mm", ()))
    gap = cfg.get("terrain", "ceiling_gap_mm")
    if gap is not None:
        ceiling.append((-math.inf, math.inf, gap))
    return Terrain(
        slope=math.radians(cfg.get("terrain", "slope_deg", 0.0)),
        surface=cfg.get("terrain", "surface", d.surface),
        pitch=cfg.get("terrain", "pitch_mm", d.pitch),
        ceiling=tuple(ceiling),
        tunnel_width=cfg.get("terrain", "tunnel_width_mm", d.tunnel_width),
        mu_forward=cfg.get("terrain", "mu_forward", d.mu_forward),
        mu_backward=cfg.get("terrain", "mu_backward", d.mu_backward),
    )


def build_scenario(cfg: EffectiveConfig) -> Scenario:
    """Assemble the full simulation scenario the config describes."""
    return Scenario(
        signal=build_signal(cfg),
        robot=build_robot(cfg),
        terrain=build_terrain(cfg),
        actuator=build_actuator(cfg),
        slip=build_slip(cfg),
        height_map=build_height_map(cfg),
        table=build_table(cfg),
        payload_mass=cfg.get("run", "payload_g", 0.0),
        duration=cfg.get("run", "duration_s", 24.6),
        dt=cfg.get("run", "dt_s", 0.04),
        seed=cfg.get("run", "seed", 0),
        slip_noise=cfg.get("run", "slip_noise", 0.0),
    )


def write_config(path: str | Path, sections: dict[str, dict[str, str]]):
    """Write an INI file with a fixed section/key order.

    Values must already be strings; callers format numbers themselves so
    the file round-trips bit-exactly.
    """
    path = Path(path)
    lines = []
    for section in SCHEMA:
        if section not in sections or not sections[section]:
            continue
        for key in sections[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
        lines.append(f"[{section}]")
        for key in SCHEMA[section]:
            if key in sections[section]:
                lines.append(f"{key} = {sections[section][key]}")
        lines.append("")
    unknown = set(sections) - set(SCHEMA)
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    try:
        path.write_text("\n".join(lines), encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from err
