"""Scenario configuration files.

INI-style configs with units spelled in the key names (period_s,
gap_mm, payload_g) so a reader can never mistake a millimeter for a
meter. A scenario file overlays the shipped defaults; the merged result
builds the simulator objects and hashes to a reproducible digest. One
table, SCHEMA, names each key's converter and the dataclass field its
value sets, so a key absent from both files takes that dataclass's own
default. The defaults file is read on every load but parsed and
converted once per process for each distinct text, so a process that
loads many scenarios pays for the defaults once.
"""

from __future__ import annotations

import configparser
import functools
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

# section -> key -> (converter tag, the field its value sets). Anything not
# listed here is rejected. Each section's fields build one parameter object
# in build_scenario, [run]'s the Scenario's own; None sets no field. Lengths
# and masses convert to meters and kilograms, and angles ("angle", and the
# second of each "angle_pairs" pair) from degrees to radians. Numbers must be
# finite, except under "float_inf" and in the x-bounds of "regions", where an
# infinite value means "no limit".
SCHEMA: dict[str, dict[str, tuple[str, str | None]]] = {
    "meta": {"schema_version": ("int", None), "name": ("str", None)},
    "beam": {
        "n_beads": ("int", "n_beads"),
        "bead_thickness_mm": ("len", "bead_thickness"),
        "slack_mm": ("len", "slack"),
        "leg_length_mm": ("len", "leg_length"),
        "beam_mass_g": ("mass", "beam_mass"),
        "span_3pb_mm": ("len", "span_3pb"),
    },
    "robot": {
        "leg_tilt_deploy_deg": ("float", "leg_tilt_deploy"),
        "total_mass_g": ("mass", "total_mass"),
        "freestanding_height_mm": ("len", "freestanding_height"),
        "height_offset_mm": ("len", "height_offset"),
        "deployed_width_mm": ("len", "deployed_width"),
        "compact_box_mm": ("box", "compact_box"),
        "deployed_box_mm": ("box", "deployed_box"),
    },
    "stiffness_table": {"points_a_n_m": ("pairs", "points")},
    "actuator": {
        "tau_heat_s": ("float", "tau_heat"),
        "tau_cool_s": ("float", "tau_cool"),
        "i_threshold_a": ("float", "i_threshold"),
        "a_on": ("float", "a_on"),
        "a_sat": ("float", "a_sat"),
    },
    "slip": {"eta0": ("float", "eta0"), "c_slope": ("float", "c_slope"),
             "c_load": ("float", "c_load")},
    "height_map": {"anchors_a_deg": ("angle_pairs", "anchors")},
    "signal": {
        "period_s": ("float", "period"),
        "duty": ("float", "duty"),
        "i_high_a": ("float", "i_high"),
        "i_low_a": ("float", "i_low"),
        "mask": ("mask", "mask"),
        "phase": ("pair", "phase"),
    },
    "terrain": {
        "slope_deg": ("angle", "slope"),
        "surface": ("str", "surface"),
        "pitch_mm": ("len", "pitch"),
        "ceiling_gap_mm": ("len", None),
        "ceiling_region_mm": ("regions", "ceiling"),
        "tunnel_width_mm": ("len", "tunnel_width"),
        "mu_forward": ("float", "mu_forward"),
        "mu_backward": ("float_inf", "mu_backward"),
    },
    "run": {
        "duration_s": ("float", "duration"),
        "dt_s": ("float", "dt"),
        "payload_g": ("mass", "payload_mass"),
        "seed": ("int", "seed"),
        "slip_noise": ("float", "slip_noise"),
    },
}


def _number(raw: str, allow_inf: bool = False) -> float:
    value = float(raw)
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        raise ValueError(f"{value} is not allowed here")
    return value


def _convert(tag: str, raw: str):
    """Value of one raw string under its schema tag; ValueError if it is bad."""
    if tag == "int":
        return int(raw)
    if tag == "float":
        return _number(raw)
    if tag == "float_inf":
        return _number(raw, allow_inf=True)
    if tag == "angle":
        return math.radians(_number(raw))
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
    if tag in ("pairs", "angle_pairs"):
        out = []
        for item in raw.split():
            a, b = item.split(":")
            a, b = _number(a), _number(b)
            out.append((a, math.radians(b) if tag == "angle_pairs" else b))
        if len(out) < 2:  # a piecewise-linear table needs two knots
            raise ValueError(f"needs at least two a:b pairs, has {len(out)}")
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
    raise ValueError(f"unhandled converter {tag!r}")


@functools.cache
def _packaged_data_dir() -> Path:
    return Path(str(resources.files("ccpj").joinpath("data")))


def data_dir() -> Path:
    """Directory holding datasets, scenario files, and the default config.

    CCPJ_DATA_DIR overrides the packaged data directory wholesale.
    """
    env = os.environ.get("CCPJ_DATA_DIR")
    if env:
        return Path(env)
    return _packaged_data_dir()


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


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err


def _parse_ini(path: Path, text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as err:
        raise ConfigError(f"bad config syntax: {err}") from err
    return parser


def _overlay(parser: configparser.ConfigParser, path: Path,
             values: dict, raw: dict):
    """Check and convert every key of one parsed file into values and raw.

    Errors name `path`, the file that holds the fault.
    """
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(
                f"{path}: unknown section [{section}] "
                f"(known: {', '.join(sorted(SCHEMA))})")
        keys = SCHEMA[section]
        for key, val in parser.items(section):
            if key not in keys:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}] "
                    f"(known: {', '.join(sorted(keys))})")
            try:
                values[(section, key)] = _convert(keys[key][0], val)
            except ValueError as err:
                raise ConfigError(
                    f"{path} [{section}] {key}: cannot parse {val!r}: {err}"
                ) from err
            raw[(section, key)] = " ".join(val.split())


# The last defaults layer converted: (file text, values, raw). The layer
# holds no path, so the text alone is the key: two paths with the same
# text give the same layer. A failed conversion is never stored, callers
# get copies, and the slot is replaced whole, so another thread reads one
# consistent entry.
_defaults_layer: tuple | None = None


def load_config(path: str | Path) -> EffectiveConfig:
    """Parse a scenario file over the defaults, when default_config_path exists.

    Every section and key is checked against the schema; unknown names
    are errors, not silently ignored, because a typoed key would
    otherwise fall back to a default and simulate the wrong robot. The
    defaults file is read on every call, but parsed and converted once
    per process for each distinct text: the converted layer of the last
    one is kept, and each call overlays its scenario on a copy of it.
    """
    global _defaults_layer
    path = Path(path)
    dpath = default_config_path()
    base = dparser = None
    if dpath != path and dpath.exists():
        dtext = _read_text(dpath)
        if _defaults_layer is not None and _defaults_layer[0] == dtext:
            base = _defaults_layer[1:]
        else:
            dparser = _parse_ini(dpath, dtext)
    parser = _parse_ini(path, _read_text(path))
    # converted only once both files have parsed, so that a read or syntax
    # error in either file is reported ahead of a bad key or value
    if dparser is not None:
        base = ({}, {})
        _overlay(dparser, dpath, *base)
        _defaults_layer = (dtext, *base)
    values, raw = ({}, {}) if base is None else (dict(base[0]), dict(base[1]))
    _overlay(parser, path, values, raw)

    version = values.get(("meta", "schema_version"), SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version {version} unsupported (expected "
            f"{SCHEMA_VERSION})")

    name = values.get(("meta", "name")) or path.stem
    if not name.isprintable() or any(c in name for c in "/\\"):
        # artifacts are named after the scenario: keep them inside --out,
        # and keep the report's name on one line (no NUL or form feed)
        raise ConfigError(f"{path}: name {name!r} must be a plain file name")
    lines = sorted(f"{sect}.{key}={val}" for (sect, key), val in raw.items())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return EffectiveConfig(name=name, path=str(path), values=values,
                           raw=raw, digest=digest)


def _fields(cfg: EffectiveConfig, section: str) -> dict:
    """Field -> value of each key of section that the config sets."""
    return {field: cfg.values[(section, key)]
            for key, (_, field) in SCHEMA[section].items()
            if field is not None and (section, key) in cfg.values}


def build_scenario(cfg: EffectiveConfig) -> Scenario:
    """Assemble the full simulation scenario the config describes.

    Each section's values set the fields SCHEMA names, and an absent key
    keeps its dataclass's default. The objects are built in a fixed order
    (signal, beam, robot, terrain, actuator, slip, height map, table), so
    a config with several faults always raises the same first error.
    """
    cfg.require("signal", "period_s")
    signal = GaitSignal(**_fields(cfg, "signal"))
    leg = BeamParams(**_fields(cfg, "beam"))
    robot = RobotParams(leg=leg, **_fields(cfg, "robot"))
    terrain = _fields(cfg, "terrain")
    gap = cfg.get("terrain", "ceiling_gap_mm")
    if gap is not None:
        terrain["ceiling"] = (*terrain.get("ceiling", ()), (-math.inf, math.inf, gap))
    terrain = Terrain(**terrain)
    actuator = ActuatorModel(**_fields(cfg, "actuator"))
    slip = SlipModel(**_fields(cfg, "slip"))
    height_map = _fields(cfg, "height_map")
    table = _fields(cfg, "stiffness_table")
    return Scenario(signal=signal, robot=robot, terrain=terrain, actuator=actuator,
                    slip=slip,
                    height_map=CurrentHeightMap(**height_map) if height_map else None,
                    table=CalibrationTable(**table) if table else None,
                    **_fields(cfg, "run"))


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
