"""The per-section scenario builders `build_scenario` was first written as.

Each builder below repeats its section's keys and its dataclass's defaults.
`ccpj.config.build_scenario`, which reads both from `SCHEMA` instead, must
give an `==` Scenario for every config, or raise the same first error (see
`test_config.py`). Nothing in the package imports this module.

`load_config` gives the two angle keys in radians, so these builders read
those keys' degrees from the raw text, through the converters the keys had
when the builders were written (`_degrees`).
"""

from __future__ import annotations

import math

from ccpj.config import EffectiveConfig, _convert
from ccpj.gait import ActuatorModel, CurrentHeightMap, Scenario, SlipModel, Terrain
from ccpj.params import BeamParams, CalibrationTable, GaitSignal, RobotParams


def _degrees(cfg: EffectiveConfig, section: str, key: str, tag: str, default=None):
    """An angle key's value in degrees, as the `tag` converter reads its text."""
    raw = cfg.raw.get((section, key))
    return default if raw is None else _convert(tag, raw)


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
    anchors = _degrees(cfg, "height_map", "anchors_a_deg", "pairs")
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
        slope=math.radians(_degrees(cfg, "terrain", "slope_deg", "float", 0.0)),
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
