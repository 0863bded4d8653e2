"""Core value types: units, validation, and default parameter sets.

Everything is SI internally (meters, kilograms, seconds, amperes, radians).
Millimeters/grams/degrees only appear at the CLI and config boundary.
All types are frozen dataclasses, safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonMonotoneCurrentError,
    NonMonotoneStiffnessError,
    OutOfRangeError,
    TooFewPointsError,
    ValidationError,
    ZeroDimensionError,
)

# Hard cap on commanded current. The cord actuator gets unstable above this,
# so a violation is a user error we reject rather than clamp.
MAX_CURRENT_A = 0.5

# The TripodBot: one front leg and a rear pair.
N_LEGS = 3


@dataclass(frozen=True)
class CalibrationTable:
    """Monotone current -> apparent bending stiffness sample points.

    currents strictly increasing (A), stiffnesses non-negative and
    non-decreasing (N/m), at least two rows. Queries interpolate linearly
    between knots and never extrapolate. A table is valid by construction.

    Raises
    ------
    TooFewPointsError, NonMonotoneCurrentError, NonMonotoneStiffnessError
        Each carries the offending row index.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = self.points
        if len(pts) < 2:
            raise TooFewPointsError(len(pts), 2, what="calibration table")
        for idx, (cur, stiff) in enumerate(pts):
            if not (math.isfinite(cur) and math.isfinite(stiff)):
                raise ValidationError(f"non-finite entry at row {idx}")
            if stiff < 0.0:
                raise NonMonotoneStiffnessError(idx, stiff)
            if idx > 0:
                if cur <= pts[idx - 1][0]:
                    raise NonMonotoneCurrentError(idx, cur)
                if stiff < pts[idx - 1][1]:
                    raise NonMonotoneStiffnessError(idx, stiff)

    @classmethod
    def from_points(cls, points) -> "CalibrationTable":
        return cls(tuple((float(i), float(k)) for i, k in points))

    @property
    def currents(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.points)

    @property
    def stiffnesses(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.points)


@dataclass(frozen=True)
class BeamParams:
    """Bead-chain beam geometry and mass.

    Defaults are the hardware build: 20 beads of 3 mm plywood, 1.6 mm of
    cord slack, 0.46 g per assembled leg, 65 mm leg length, 40 mm test span.
    """

    n_beads: int = 20
    bead_thickness: float = 3e-3  # m
    slack: float = 1.6e-3  # m
    leg_length: float = 65e-3  # m
    beam_mass: float = 0.46e-3  # kg
    span_3pb: float = 40e-3  # m, support spacing of the bend test

    def __post_init__(self):
        if self.n_beads < 2:
            raise OutOfRangeError("n_beads", self.n_beads, 2, math.inf)
        for name in ("bead_thickness", "leg_length", "beam_mass", "span_3pb"):
            v = getattr(self, name)
            if v <= 0.0:
                raise ZeroDimensionError(name, v)
        if self.slack < 0.0:
            raise OutOfRangeError("slack", self.slack, 0.0, math.inf)
        # leg length must be consistent with the chain it is built from
        nominal = self.n_beads * self.bead_thickness + self.slack
        if abs(self.leg_length - nominal) > 0.10 * nominal:
            raise ValidationError(
                f"leg_length={self.leg_length!r} deviates more than 10% from "
                f"n_beads*bead_thickness+slack={nominal!r}"
            )


@dataclass(frozen=True)
class RobotParams:
    """Tripod robot geometry and masses.

    body_mass is derived (total minus the N_LEGS legs) unless total_mass
    is overridden; the build gives only total and per-beam masses.
    height_offset, the fully-stood body height above the leg tips, is
    derived unless given: freestanding_height less the leg's rise at
    leg_tilt_deploy. `dataclasses.replace` keeps a derived offset: pass
    `height_offset=None` to derive it again. Every size must be positive.
    """

    leg: BeamParams = field(default_factory=BeamParams)
    leg_tilt_deploy: float = 60.0  # degrees, fully-stood contact angle
    total_mass: float = 2.1e-3  # kg
    height_offset: float | None = None  # m
    freestanding_height: float = 63.5e-3  # m
    deployed_width: float = 66e-3  # m
    compact_box: tuple[float, float, float] = (15e-3, 17e-3, 73e-3)
    deployed_box: tuple[float, float, float] = (105e-3, 120e-3, 64e-3)

    def __post_init__(self):
        if not (0.0 < self.leg_tilt_deploy <= 60.0):
            raise OutOfRangeError("leg_tilt_deploy", self.leg_tilt_deploy, 0.0, 60.0)
        if self.height_offset is None:
            object.__setattr__(self, "height_offset", self.freestanding_height
                               - self.leg.leg_length * math.sin(math.radians(self.leg_tilt_deploy)))
        for name in ("freestanding_height", "deployed_width", "height_offset",
                     "compact_box", "deployed_box"):
            size = getattr(self, name)
            for dim in size if isinstance(size, tuple) else (size,):
                if not dim > 0.0:  # NaN fails too
                    raise ZeroDimensionError(name, dim)
        if self.total_mass <= N_LEGS * self.leg.beam_mass:
            raise ValidationError(
                f"total_mass={self.total_mass!r} kg does not cover "
                f"{N_LEGS} legs at {self.leg.beam_mass!r} kg each"
            )

    @property
    def body_mass(self) -> float:
        """Mass of everything that is not a leg (kg)."""
        return self.total_mass - N_LEGS * self.leg.beam_mass


@dataclass(frozen=True)
class GaitSignal:
    """Square-wave current control, one wave per leg group.

    Group 0 is the front leg, group 1 the rear pair. mask enables/disables
    each group; phase shifts each group's wave by a fraction of the
    period. High current is applied during the first `duty` fraction of
    each (shifted) period. Both currents lie in [0, MAX_CURRENT_A].
    """

    period: float  # s
    duty: float = 0.5
    i_high: float = 0.4  # A
    i_low: float = 0.0  # A
    mask: tuple[bool, ...] = (True, True)
    phase: tuple[float, ...] = (0.0, 0.0)

    def __post_init__(self):
        if not (self.period > 0.0):  # NaN fails too
            raise ZeroDimensionError("period", self.period)
        if not (0.0 < self.duty < 1.0):
            raise OutOfRangeError("duty", self.duty, 0.0, 1.0)
        for current in (self.i_high, self.i_low):
            if not (0.0 <= current <= MAX_CURRENT_A):  # NaN fails too
                raise OutOfRangeError("current_a", float(current), 0.0, MAX_CURRENT_A)
        if self.i_low >= self.i_high:
            raise ValidationError(
                f"i_low={self.i_low!r} must be below i_high={self.i_high!r}"
            )
        if len(self.mask) != 2 or len(self.phase) != 2:
            raise ValidationError("mask and phase must have one entry per group")
        for ph in self.phase:
            if not (0.0 <= ph < 1.0):
                raise OutOfRangeError("phase", ph, 0.0, 1.0)

    def current_at(self, t, group: int):
        """Commanded current (A) for a group at times t >= 0.

        Elementwise when t is an array; a float for a scalar t.
        """
        if self.mask[group]:
            u = np.asarray(t) / self.period - self.phase[group]
            u = u - np.floor(u)  # np.remainder(u, 1.0) for u > -1, bit for bit
            current = np.where(u < self.duty, self.i_high, self.i_low)
        else:
            current = np.full(np.shape(t), self.i_low)
        return float(current) if current.ndim == 0 else current


def compaction_ratio(params: RobotParams) -> float:
    """Deployed bounding-box volume over compacted volume (dimensionless)."""
    vol_c = math.prod(params.compact_box)
    vol_d = math.prod(params.deployed_box)
    return vol_d / vol_c


def weight_bearing_ratio(load_mass: float, params: RobotParams) -> float:
    """How many robot weights a given load is (dimensionless)."""
    if load_mass <= 0.0:
        raise OutOfRangeError("load_mass", load_mass, 0.0, math.inf)
    return load_mass / params.total_mass
