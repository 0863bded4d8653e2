"""Quasi-static slip-stick gait simulator.

Two-stroke crawl driven by a square-wave current: heating stiffens the legs
and the robot stands up (front claw anchored, body pulled forward by the
stand-advance increment); cooling softens them and the robot sits down
(rear claws anchored, body advances by the sit increment). Leg angle
follows a first-order thermal lag through an activation window, and every
increment is scaled by a slip efficiency degraded by slope and payload.

`run` integrates in a fixed number of array passes, whatever the stroke
count: the sub-step grid, split at every driven group's square-wave edge,
is built at once, the activation over each constant-current run is its
exact exponential, and the increments telescope on cos(beta), so results
do not depend on dt beyond trace resolution. x never decreases and moves
the caps only through the ceiling gap ahead, so each segment of constant
caps is one pass (see `run`). Where the caps are fixed, `stroke_arcs` is
its closed form, and `_net_advance` nets its strokes, the one closed-form
stroke rule behind `steady_cycle_displacement`, `average_speeds`,
`sweep_period` and the thermal fit.

Ratchet re-seating: the ratchet enters the motion only through the
half-pitch loss a claw pays when it re-seats mid-tooth, eaten from the
start of the next stroke. In the alternating all-leg gait every hand-off
fully unloads one claw and flips the load onto the other, so every
engaging claw re-seats. In single-group drag gaits the working claw stays
loaded; it only pays the half pitch when its foot slid a full tooth or
more since last engaging. These rules produce the short-period dead zone,
the confined-space dead zone for the all-leg gait, and leave the
smooth-surface ideal limit exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .beam import FlexuralModel, LoadCase, equilibrium_shape, node_positions
from .errors import (
    InfeasibleConfinementError,
    OutOfRangeError,
    ValidationError,
)
from .fixedfmt import format_columns
from .kinematics import BETA_MAX, beta_for_height, standing_height
from .params import (
    MAX_CURRENT_A,
    N_LEGS,
    CalibrationTable,
    GaitSignal,
    RobotParams,
)

# Rear-pair azimuthal splay of the tripod: the two rear legs fan out
# symmetrically at this angle from the body axis.
REAR_SPLAY = math.radians(60.0)

_EPS_T = 1e-12


@dataclass(frozen=True)
class ActuatorModel:
    """First-order thermal lag with an engagement window.

    The lag state a in [0,1] relaxes toward 1 while the commanded current
    is at or above i_threshold (time constant tau_heat) and toward 0
    otherwise (tau_cool); i_threshold lies in (0, MAX_CURRENT_A]. The
    contact angle follows the windowed fraction window(a): dead below
    a_on, saturated above a_sat. The window models the cord having to
    take up slack before the legs move, and the legs reaching their
    geometric stop before the cord is fully contracted.

    Defaults are the values calibrated against the shipped speed-vs-period
    dataset (see calibrate.thermal_fit_report).
    """

    tau_heat: float = 1.25  # s
    tau_cool: float = 0.5  # s
    i_threshold: float = 0.28  # A, the stiffness-knee onset
    a_on: float = 0.35
    a_sat: float = 0.80

    def __post_init__(self):
        if not (self.tau_heat > 0.0 and self.tau_cool > 0.0):
            raise OutOfRangeError("tau", min(self.tau_heat, self.tau_cool), 0.0, math.inf)
        if not (0.0 < self.i_threshold <= MAX_CURRENT_A):  # NaN fails too
            raise OutOfRangeError("i_threshold", self.i_threshold, 0.0, MAX_CURRENT_A)
        if not (0.0 <= self.a_on < self.a_sat <= 1.0):
            raise ValidationError(
                f"window bounds a_on={self.a_on!r}, a_sat={self.a_sat!r} invalid"
            )

    def window(self, a):
        """Stroke fraction in [0,1] for a lag state (elementwise on arrays)."""
        return np.minimum(1.0, np.maximum(0.0, (a - self.a_on) / (self.a_sat - self.a_on)))


@dataclass(frozen=True)
class SlipModel:
    """Slip efficiency: fraction of the ideal stroke realized as displacement.

    Affine in sin(slope) and in payload-to-robot mass ratio, clamped to
    [0,1]. Defaults are the exact three-point solve through the shipped
    operating points (see calibrate.slip_fit_report); the fractions are
    kept symbolic so the round trip is bit-exact.
    """

    eta0: float = 37.0 / 48.75
    c_slope: float = (37.0 / 48.75 - 12.6 / 48.75) / math.sin(math.radians(15.0))
    c_load: float = (37.0 / 48.75 - 2.86 / 32.5) * 2.1 / 5.0

    def efficiency(self, slope: float, payload_mass: float, total_mass: float) -> float:
        eta = (self.eta0 - self.c_slope * math.sin(slope)
               - self.c_load * payload_mass / total_mass)
        return min(1.0, max(0.0, eta))


@dataclass(frozen=True)
class CurrentHeightMap:
    """Steady standing angle as a function of the applied high current.

    The beam does not fully deploy into the tripod at reduced current, so
    the standing angle (and with it the height) shrinks with current. The
    map is piecewise linear through measured anchor points: onset at the
    activation threshold, the reduced-height operating point at 0.38 A,
    and full deployment at 0.4 A. Below the threshold the legs never
    engage at all.
    """

    anchors: tuple[tuple[float, float], ...]  # (current A, beta rad), increasing

    @classmethod
    def default(cls, robot: RobotParams, i_threshold: float) -> "CurrentHeightMap":
        beta_40mm = beta_for_height(40e-3, robot.leg.leg_length, robot.height_offset)
        return cls(anchors=(
            (i_threshold, math.radians(20.0)),
            (0.38, beta_40mm),
            (0.40, math.radians(robot.leg_tilt_deploy)),
        ))

    def __post_init__(self):
        cur = [a[0] for a in self.anchors]
        if len(cur) < 2 or any(b <= a for a, b in zip(cur, cur[1:])):
            raise ValidationError("height map anchors must have increasing currents")
        for _, beta in self.anchors:
            if not (0.0 <= beta <= BETA_MAX):  # NaN fails too
                raise OutOfRangeError("height map angle", beta, 0.0, BETA_MAX)

    def beta_cap(self, i_high: float) -> float:
        """Standing-angle ceiling (rad) for a square wave peaking at i_high.

        Never above the highest anchor angle: np.interp can round an ulp
        past its anchors just below an anchor current.
        """
        cur = [a[0] for a in self.anchors]
        if i_high < cur[0] - 1e-12:
            return 0.0
        beta = [a[1] for a in self.anchors]
        return min(float(np.interp(i_high, cur, beta)), max(beta))


# Finest ratchet pitch accepted (m), 1/3000 of the shipped teeth: a
# sub-micrometre tooth is below the model's resolution, not a ratchet.
MIN_PITCH = 1e-6


@dataclass(frozen=True)
class Terrain:
    """Ground and confinement description.

    ceiling is a tuple of (x_start, x_end, gap) regions in meters;
    +-inf bounds give a constant ceiling. tunnel_width limits the robot's
    lateral extent inside the same regions. mu_forward/mu_backward model
    the claw: negligible friction sliding forward, near-infinite backward.
    """

    slope: float = 0.0  # rad
    surface: str = "ratchet"
    pitch: float = 3e-3  # m, ratchet tooth spacing
    ceiling: tuple[tuple[float, float, float], ...] = ()
    tunnel_width: float | None = None
    mu_forward: float = 0.0
    mu_backward: float = math.inf

    def __post_init__(self):
        if self.surface not in ("smooth", "ratchet"):
            raise ValidationError(f"unknown surface {self.surface!r}")
        if self.surface == "ratchet" and not (self.pitch >= MIN_PITCH):
            raise OutOfRangeError("pitch", self.pitch, MIN_PITCH, math.inf)
        for x0, x1, gap in self.ceiling:
            if gap <= 0.0:
                raise OutOfRangeError("ceiling gap", gap, 0.0, math.inf)
            if x1 <= x0:
                raise ValidationError(f"ceiling region [{x0}, {x1}] is empty")
        if self.tunnel_width is not None and self.tunnel_width <= 0.0:
            raise OutOfRangeError("tunnel_width", self.tunnel_width, 0.0, math.inf)
        if not (0.0 <= self.mu_forward <= self.mu_backward):
            raise ValidationError(
                f"need 0 <= mu_forward <= mu_backward, got "
                f"{self.mu_forward!r}, {self.mu_backward!r}"
            )

    @property
    def confined(self) -> bool:
        return bool(self.ceiling) or self.tunnel_width is not None

    @property
    def anchor_efficiency(self) -> float:
        """Share of each stroke the anchored claw keeps against the other's drag."""
        if math.isfinite(self.mu_backward) and self.mu_backward > 0.0:
            return 1.0 - self.mu_forward / self.mu_backward
        return 1.0

    @property
    def reseat_loss(self) -> float:
        """Advance (m) a claw gives back when it re-seats mid-tooth."""
        return self.pitch / 2.0 if self.surface == "ratchet" else 0.0

    def gap_over(self, x_lo, x_hi):
        """Smallest ceiling gap (m) over any region overlapping [x_lo, x_hi].

        Elementwise when the bounds are arrays; a float for scalar bounds.
        """
        gap = np.full(np.shape(x_lo), math.inf)
        for x0, x1, g in self.ceiling:
            gap = np.where((x1 >= x_lo) & (x0 <= x_hi), np.minimum(gap, g), gap)
        return float(gap) if gap.ndim == 0 else gap


def gait_width(robot: RobotParams, beta: float) -> float:
    """Lateral extent (m) of the splayed rear pair at elevation angle beta.

    Softening the legs lowers the robot but fans the rear pair out wider:
    width shrinks as the robot stands.
    """
    deploy = math.radians(robot.leg_tilt_deploy)
    arm = 2.0 * robot.leg.leg_length * math.sin(REAR_SPLAY)
    body = robot.deployed_width - arm * math.cos(deploy)
    return body + arm * math.cos(beta)


def drag_width(robot: RobotParams) -> float:
    """Lateral extent (m) in front-leg-only mode, rear legs trailing folded."""
    return robot.compact_box[1]


# Leg masks by name: which of the (front, rear-pair) groups is driven.
MASKS = {"all": (True, True), "front_only": (True, False),
         "rear_only": (False, True)}


# Most dt steps one run may take, 666x the longest shipped run, checked before
# any array is allocated: one front_only run at the cap peaks at ~300 MiB RSS.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class Scenario:
    """Everything one simulation run needs.

    `height_map=None` builds `CurrentHeightMap.default` for the robot and
    the actuator's threshold, so every scenario holds the map it runs with.
    `dataclasses.replace` keeps that map: pass `height_map=None` with a
    new `robot` or `i_threshold` to rebuild it.
    """

    signal: GaitSignal
    robot: RobotParams = field(default_factory=RobotParams)
    terrain: Terrain = field(default_factory=Terrain)
    actuator: ActuatorModel = field(default_factory=ActuatorModel)
    slip: SlipModel = field(default_factory=SlipModel)
    height_map: CurrentHeightMap | None = None
    table: CalibrationTable | None = None
    payload_mass: float = 0.0  # kg
    duration: float = 24.6  # s
    dt: float = 0.04  # s
    seed: int = 0
    slip_noise: float = 0.0  # std of per-engagement efficiency noise, <= 1

    def __post_init__(self):
        # written as not (ok) so that NaN fails every check; a step at or
        # below the 1e-12 s sub-step floor would be dropped whole
        if not (_EPS_T < self.dt <= self.signal.period / 100.0 + _EPS_T):
            raise ValidationError(
                f"dt={self.dt!r} must be > {_EPS_T!r} s and <= period/100 = "
                f"{self.signal.period / 100.0!r}"
            )
        if not (self.duration > self.signal.period):
            raise ValidationError(
                f"duration={self.duration!r} must exceed one period {self.signal.period!r}"
            )
        # at least one whole step, which is above the sub-step floor, so the
        # sub-step grid is never empty; only a sub-picosecond period can fail
        if not (self.duration >= self.dt):
            raise ValidationError(
                f"duration={self.duration!r} must be at least one step dt={self.dt!r}"
            )
        if self.duration / self.dt - 1e-9 > MAX_STEPS:
            raise ValidationError(
                f"duration/dt = {self.duration / self.dt:.6g} steps exceeds "
                f"the cap of {MAX_STEPS}"
            )
        if not (self.payload_mass >= 0.0):
            raise OutOfRangeError("payload_mass", self.payload_mass, 0.0, math.inf)
        # a spread beyond the whole nominal efficiency is no longer noise,
        # and a large one overflows the run to inf
        if not (0.0 <= self.slip_noise <= 1.0):
            raise OutOfRangeError("slip_noise", self.slip_noise, 0.0, 1.0)
        if self.seed < 0:
            raise OutOfRangeError("seed", self.seed, 0, math.inf)
        # legs whose low current heats stand once and never cool again
        if not (self.signal.i_low < self.actuator.i_threshold - 1e-12):
            raise ValidationError(
                f"i_low_a={self.signal.i_low!r} must be below i_threshold_a="
                f"{self.actuator.i_threshold!r}: the legs would never cool"
            )
        if self.height_map is None:
            object.__setattr__(self, "height_map", CurrentHeightMap.default(
                self.robot, self.actuator.i_threshold))

    def mask_name(self) -> str:
        mask = tuple(self.signal.mask)
        return next((name for name, m in MASKS.items() if m == mask), "none")

    @property
    def all_legs(self) -> bool:
        """Both groups driven: the alternating gait."""
        return all(self.signal.mask)

    @property
    def stroke_efficiency(self) -> float:
        """Share of each ideal stroke realized: the slip efficiency at the
        scenario's slope and payload times the claw's anchor efficiency."""
        return self.slip.efficiency(self.terrain.slope, self.payload_mass,
                                    self.robot.total_mass) * self.terrain.anchor_efficiency


FRONT, REAR = 0, 1  # group indices: the front leg, the rear pair

LOOKAHEAD = 50e-3  # m, how far ahead of its reach the robot starts ducking


def _gap_at(scenario: Scenario, x):
    """Ceiling gap (m) over the envelope ahead of a body at x (elementwise)."""
    leg = scenario.robot.leg.leg_length
    return scenario.terrain.gap_over(x - leg / 2.0, x + leg + LOOKAHEAD)


def _flat_error(scenario: Scenario, gap: float) -> InfeasibleConfinementError | None:
    """The fault of a ceiling gap (m) below the fully-flat body height, or None."""
    offset = scenario.robot.height_offset
    if gap < offset:
        return InfeasibleConfinementError(
            "gap below the fully-flat body height",
            required_mm=offset * 1e3, available_mm=gap * 1e3)
    return None


def _beta_caps(scenario: Scenario, gap: float,
               drive: tuple[float, float]) -> tuple[float, float]:
    """Standing-angle ceiling per group under a ceiling gap (m).

    Clips the current->angle map's caps, `drive` (`_drive_caps`, taken
    once by the caller), to the highest angle that fits under the gap; an
    infinite gap leaves them as they are. `_gap_at` takes the gap over a
    conservative envelope ahead of the body, so the robot ducks before
    its reach enters the region.
    """
    err = _flat_error(scenario, gap)
    if err is not None:
        raise err
    if not math.isfinite(gap):
        return drive
    leg, offset = scenario.robot.leg.leg_length, scenario.robot.height_offset
    beta_gap = beta_for_height(min(gap, standing_height(leg, BETA_MAX, offset)), leg, offset)
    return min(drive[0], beta_gap), min(drive[1], beta_gap)


def _drive_caps(scenario: Scenario) -> tuple[float, float]:
    """Standing-angle ceiling per group from the current->angle map alone.

    A group whose wave never heats, masked off or peaking below the
    threshold, stays flat whatever the map says: its cap is 0.
    """
    sig = scenario.signal
    if not sig.i_high >= scenario.actuator.i_threshold - 1e-12:
        return 0.0, 0.0
    cap = scenario.height_map.beta_cap(sig.i_high)
    return (cap if sig.mask[FRONT] else 0.0), (cap if sig.mask[REAR] else 0.0)


def _switch_after(signal: GaitSignal, t: np.ndarray, phase: float) -> np.ndarray:
    """First edge of a square wave shifted by `phase` periods, strictly after
    each time in t.

    An edge less than 1e-9 periods ahead counts as passed, so a sub-step
    that ends on an edge does not split there again.
    """
    u = t / signal.period - phase
    u -= np.floor(u)  # the bits of np.remainder(u, 1.0) for u > -1, faster
    ahead = [np.where(d <= 1e-9, d + 1.0, d) for d in (signal.duty - u, 1.0 - u)]
    return t + np.minimum(*ahead) * signal.period


def _substep_grid(scenario: Scenario):
    """Trace times and the sub-step grid between them.

    Row k >= 1 of the trace closes the dt step ending at
    min(duration, k*dt). Each step is split at every driven group's
    square-wave edges inside it, and a remainder shorter than 1e-12 s is
    dropped. Each pass finds the edges once per distinct driven phase:
    the first over all steps, any further one only over the steps a split
    left open. Returns (t, s0, s1, row_at): the row times, the start
    and end of every sub-step in time order, and for each row the number
    of sub-steps before it.
    """
    sig = scenario.signal
    n = int(math.ceil(scenario.duration / scenario.dt - 1e-9))
    t = np.minimum(scenario.duration, np.arange(1, n + 1) * scenario.dt)
    phases = {sig.phase[g] for g in (FRONT, REAR) if sig.mask[g]}
    step, s0, t_end = np.arange(n), np.concatenate(([0.0], t[:-1])), t
    live = s0 < t_end - _EPS_T
    if not live.all():
        step, s0, t_end = step[live], s0[live], t_end[live]
    pieces = []  # (step, s0, s1) of each step's m-th sub-step, in pass m
    while step.size:
        s1 = t_end
        for phase in phases:
            s1 = np.minimum(s1, _switch_after(sig, s0, phase))
        pieces.append((step, s0, s1))
        live = s1 < t_end - _EPS_T
        step, s0, t_end = step[live], s1[live], t_end[live]
    if len(pieces) == 1 and len(pieces[0][0]) == n:  # nothing split or dropped
        return np.concatenate(([0.0], t)), pieces[0][1], pieces[0][2], np.arange(n + 1)
    row_at = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(np.concatenate([p[0] for p in pieces]),
                          minlength=n), out=row_at[1:])
    # pass m holds a subset of pass m-1's steps, so a step's m-th sub-step
    # sits m places after its first
    s0, s1 = np.empty(row_at[-1]), np.empty(row_at[-1])
    for m, (step, lo, hi) in enumerate(pieces):
        at = row_at[step] + m
        s0[at], s1[at] = lo, hi
    return np.concatenate(([0.0], t)), s0, s1, row_at


def _activation(scenario: Scenario, s0: np.ndarray, s1: np.ndarray,
                group: int) -> np.ndarray:
    """Lag state of a group at every sub-step boundary, from a cold start.

    Over a constant-current run entered at t_start in state a_start the
    state is exact in closed form, target + (a_start - target) *
    exp(-(s1 - t_start)/tau). A scalar loop over the runs carries a_start
    from each run's end to the next; the grid is then filled in one pass.
    """
    act = scenario.actuator
    heat = scenario.signal.current_at(0.5 * (s0 + s1), group) >= act.i_threshold - 1e-12
    starts = np.flatnonzero(np.concatenate(([True], heat[1:] != heat[:-1])))
    ends = np.append(starts[1:], len(s0))
    a_start, a = [], 0.0
    for hot, t0, t1 in zip(heat[starts].tolist(), s0[starts].tolist(),
                           s1[ends - 1].tolist()):
        a_start.append(a)
        target, tau = (1.0, act.tau_heat) if hot else (0.0, act.tau_cool)
        a = target + (a - target) * math.exp(-(t1 - t0) / tau)
    runs = ends - starts
    target = heat.astype(float)
    # a tau near the smallest float overflows the ratio to inf: exp gives 0
    with np.errstate(over="ignore"):
        elapsed = (s1 - np.repeat(s0[starts], runs)) / np.where(
            heat, act.tau_heat, act.tau_cool)
    a = target + (np.repeat(a_start, runs) - target) * np.exp(-elapsed)
    return np.concatenate(([0.0], a))


@dataclass(frozen=True)
class SimTrace:
    """Time series of the run, one row per step boundary."""

    t: np.ndarray
    x: np.ndarray
    beta_front: np.ndarray
    beta_rear: np.ndarray
    activation_front: np.ndarray
    activation_rear: np.ndarray
    anchored_front: np.ndarray
    anchored_rear: np.ndarray
    height: np.ndarray

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])

    @property
    def displacement(self) -> float:
        return float(self.x[-1] - self.x[0])

    @property
    def average_speed(self) -> float:
        return self.displacement / self.duration

    def to_csv(self) -> str:
        """The trace as CSV: a header, then one row per step boundary.

        `fixedfmt.format_columns` writes the columns by table gathers, to
        the bytes of a row-by-row `f"{v:.6f}"` rendering (`int(flag)` for
        the two anchored columns). `np.degrees` multiplies by `180 / pi`
        as `math.degrees` does.
        """
        rows = format_columns(
            (self.t, self.x * 1e3, np.degrees(self.beta_front),
             np.degrees(self.beta_rear), self.height * 1e3,
             self.anchored_front, self.anchored_rear),
            (6, 6, 6, 6, 6, 0, 0), ",,,,,,\n")
        return ("t_s,x_mm,beta_front_deg,beta_rear_deg,height_mm,"
                "anchored_front,anchored_rear\n" + rows)


def run(scenario: Scenario) -> SimTrace:
    """Simulate the full scenario. Deterministic for a given (scenario, seed).

    Activation and band angles are evaluated over the whole sub-step grid
    at once. Each constant-caps segment is then integrated in one array
    pass whatever its stroke count; only a drag gait's re-seat choice is a
    scalar loop, one iteration per stroke. Under a ceiling the gap is
    checked once per segment: the caps hold until the first row whose
    position changes the gap, and integration re-enters from that row.
    """
    sig, ter, act = scenario.signal, scenario.terrain, scenario.actuator
    leg = scenario.robot.leg.leg_length
    t, s0, s1, row_at = _substep_grid(scenario)
    a_f = _activation(scenario, s0, s1, FRONT)
    a_r = (a_f if (sig.mask[FRONT], sig.phase[FRONT]) == (sig.mask[REAR], sig.phase[REAR])
           else _activation(scenario, s0, s1, REAR))
    w_f, w_r = act.window(a_f), act.window(a_r)
    scale = scenario.stroke_efficiency
    rng = (np.random.default_rng(scenario.seed)
           if scenario.slip_noise > 0.0 else None)

    drive = _drive_caps(scenario)
    x = np.zeros(len(s0) + 1)  # body position at every sub-step boundary
    stand = np.zeros(len(s0), dtype=bool)  # stroke phase of every sub-step
    caps = []  # (first row, cap_f, cap_r) of each constant-caps segment
    # carried across a segment cut: the stroke phase, the re-seat loss not
    # yet eaten, the slip-noise factor, and each foot's travel since its
    # claw last engaged, indexed by the phase it slides in (sit: front)
    phase, pending, noise, slide = False, 0.0, 1.0, [0.0, 0.0]
    row = 0
    while True:
        b = row_at[row]
        gap = _gap_at(scenario, x[b])
        try:
            cap_f, cap_r = _beta_caps(scenario, gap, drive)
        except InfeasibleConfinementError as err:
            if row == 0:  # the starting posture: no time stamp
                raise
            raise InfeasibleConfinementError(
                f"t={t[row]:.3f} s: {err.reason}", err.required_mm, err.available_mm
            ) from err
        caps.append((row, cap_f, cap_r))
        if b == len(s0):
            break
        bf, br = w_f[b:] * cap_f, w_r[b:] * cap_r
        cos_f, cos_r = np.cos(bf), np.cos(br)
        dbf, dbr = np.diff(bf), np.diff(br)
        # the stroke follows the front band, or the rear one where the
        # front holds still; a sub-step where neither moves keeps the phase
        direction = np.where(np.abs(dbf) > 1e-15, dbf, dbr)
        sets = np.abs(direction) > 1e-15
        last = np.maximum.accumulate(np.where(sets, np.arange(len(sets)), -1))
        seg_stand = np.where(last >= 0, direction[last] > 0.0, phase)
        # stroke k of every sub-step: stroke 0 goes on in the phase held on
        # entry, stroke j >= 1 starts at the j-th anchor hand-off
        handoff = seg_stand != np.concatenate(([phase], seg_stand[:-1]))
        k = np.cumsum(handoff)
        first = np.concatenate(([0], np.flatnonzero(handoff)))
        n_h = len(first) - 1
        stroke = np.where(seg_stand,
                          np.maximum(0.0, leg * (cos_f[:-1] - cos_f[1:])),
                          np.maximum(0.0, (leg / 2.0) * (cos_r[1:] - cos_r[:-1])))
        noises = [noise] * (n_h + 1)  # slip-noise factor of each stroke
        if rng is not None and n_h:
            saved = rng.bit_generator.state if ter.ceiling else None
            noises[1:] = np.maximum(0.0, 1.0 + scenario.slip_noise
                                    * rng.standard_normal(n_h)).tolist()
            stroke *= (scale * np.array(noises))[k]
        else:
            stroke *= scale * noise
        # stroke travel before each sub-step, counted from its stroke's start
        csum = np.concatenate(([0.0], np.cumsum(stroke)))
        before = csum[:-1] - csum[first][k]

        def net(loss):
            """Advance per sub-step when stroke j starts owing loss[j]."""
            return np.maximum(0.0, stroke - np.maximum(0.0, np.asarray(loss)[k] - before))

        if scenario.all_legs:
            # every hand-off re-seats a fully unloaded claw mid-tooth
            loss = [pending] + [ter.reseat_loss] * n_h
        else:
            # a drag gait's claw stays loaded: it re-seats only after its
            # foot slid a tooth since last engaging, which depends on the
            # earlier strokes' advance. Each stroke's foot travel is taken
            # with and without the loss, and the rule picks one per stroke.
            lever = np.where(seg_stand, (leg / 2.0) * (cos_r[:-1] - cos_r[1:]),
                             leg * (cos_f[1:] - cos_f[:-1]))
            # travel[True][j]: stroke j's foot travel if it pays the loss
            travel = [np.bincount(k, np.abs(net(owed) + lever), n_h + 1).tolist()
                      for owed in ([pending] + [0.0] * n_h,
                                   [pending] + [ter.reseat_loss] * n_h)]
            loss, slid = [pending], []  # slid[j]: foot travel as stroke j starts
            for j, p in enumerate([phase] + seg_stand[first[1:]].tolist()):
                if j:
                    reseats = slide[not p] >= ter.pitch - 1e-12
                    slide[not p] = 0.0
                    loss.append(ter.reseat_loss if reseats else 0.0)
                slid.append(list(slide))
                slide[p] += travel[loss[j] > 0.0][j]
        inc = net(loss)
        x[b:] = np.add.accumulate(np.concatenate(([x[b]], inc)))
        stand[b:] = seg_stand
        if not ter.ceiling:
            break
        r0 = np.searchsorted(row_at, b, side="right")
        moved = np.flatnonzero(_gap_at(scenario, x[row_at[r0:]]) != gap)
        if not moved.size:
            break
        # cut after the first `cut` sub-steps, inside stroke j: the first
        # row that sees a new gap
        row = r0 + int(moved[0])
        cut = row_at[row] - b
        j = int(k[cut - 1])
        phase = bool(seg_stand[cut - 1])
        pending = max(0.0, loss[j] - float(csum[cut] - csum[first[j]]))
        noise = noises[j]
        if rng is not None and j < n_h:
            # hand back the draws of the strokes past the cut
            rng.bit_generator.state = saved
            rng.standard_normal(j)
        if not scenario.all_legs:
            slide = slid[j]
            slide[phase] += float(np.sum(np.abs(inc[first[j]:cut] + lever[first[j]:cut])))

    xr = x[row_at]
    seg = np.searchsorted([c[0] for c in caps], np.arange(len(t)), side="right") - 1
    beta_f = w_f[row_at] * np.array([c[1] for c in caps])[seg]
    beta_r = w_r[row_at] * np.array([c[2] for c in caps])[seg]
    stand_row = np.concatenate(([False], stand))[row_at]
    moving = np.concatenate(([False], xr[1:] > xr[:-1] + 1e-15))
    return SimTrace(
        t=t, x=xr, beta_front=beta_f, beta_rear=beta_r,
        activation_front=a_f[row_at], activation_rear=a_r[row_at],
        anchored_front=np.where(~stand_row & moving, 0, 1),
        anchored_rear=np.where(stand_row & moving, 0, 1),
        height=leg * np.sin(np.maximum(beta_f, beta_r)) + scenario.robot.height_offset,
    )


def stroke_arcs(scenario: Scenario, periods, cycles: int = 0, taus=None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form stroke advances at unit slip, vectorized over periods.

    Returns (stand, sit, beta_top, beta_bot): the ideal stand and sit
    advances (m) and the front group's band (rad). With cycles=0 these
    are the periodic steady state, shape (n_periods,). With cycles=k they
    are each of the first k cycles from a cold start (a=0), shape
    (n_periods, k): the activation tops approach the steady cycle
    geometrically, and the first stand starts from the flat posture. The
    standing-angle caps are taken once, at x=0. Slip, anchor friction and
    re-seat losses are the caller's; the simulator is the reference this
    transcription is tested against. taus = (tau_heat, tau_cool) replaces
    the actuator's lag constants; arrays of shape (n, 1) give every output
    a leading candidate axis, each candidate's the bits it gives alone.
    """
    act = scenario.actuator
    tau_heat, tau_cool = taus or (act.tau_heat, act.tau_cool)
    caps = _beta_caps(scenario, _gap_at(scenario, 0.0), _drive_caps(scenario))
    return _arcs(scenario, _lag_band(scenario, tau_heat, tau_cool, periods, cycles),
                 caps, cycles)


def _lag_band(scenario: Scenario, tau_heat, tau_cool, periods, cycles: int,
              t_end=None):
    """Windowed activation [top, bottom] of each stroke, stacked on axis 0.

    t_end, shaped like periods, cuts each cold start u into cycle k + 1
    (cycles is then the largest k + 1): the cut and every later turning
    point are the exact lag state there, heating from the cycle's bottom a0
    as 1 - (1 - a0)*exp(-u/tau_heat), or cooling from its top."""
    act = scenario.actuator
    duty = scenario.signal.duty
    periods = np.asarray(periods, dtype=float)
    if t_end is not None:
        k, u = (v[..., None] for v in np.divmod(t_end, periods))
        cycles = int(k.max(initial=0.0)) + 1
    e_h = np.exp(-duty * periods / tau_heat)
    e_c = np.exp(-(1.0 - duty) * periods / tau_cool)
    top = (1.0 - e_h) / (1.0 - e_h * e_c)
    if cycles:
        steps = np.arange(1, cycles + 1)
        ss, q, e_c = top[..., None], (e_h * e_c)[..., None], e_c[..., None]
        top = ss * (1.0 - q ** steps)
    bot = top * e_c
    if t_end is not None:  # cycle k + 1 heats for h, then cools for u - h
        h = np.minimum(u, duty * periods[..., None])
        a = 1.0 - (1.0 - ss * (1.0 - q ** k) * e_c) * np.exp(-h / tau_heat)
        end, whole = a * np.exp((h - u) / tau_cool), steps <= k
        top = np.where(whole, top, np.where(steps == k + 1.0, a, end))
        bot = np.where(whole, bot, end)
    return act.window(np.array([top, bot]))


def _arcs(scenario: Scenario, band: np.ndarray, caps: tuple[float, float],
          cycles: int):
    """Unit-slip stand and sit advances and the front band, under caps."""
    leg = scenario.robot.leg.leg_length
    beta_f = band * caps[0]
    cos_f = np.cos(beta_f)
    cos_r = np.cos(band * caps[1])
    # each stand rises from the previous cycle's bottom, the first from flat
    cos_start = cos_f[1]
    if cycles:
        cos_start = np.concatenate([np.ones_like(cos_start[..., :1]),
                                    cos_start[..., :-1]], axis=-1)
    stand = leg * (cos_start - cos_f[0])
    sit = (leg / 2.0) * (cos_r[1] - cos_r[0])
    return stand, sit, beta_f[0], beta_f[1]


def steady_cycle_displacement(scenario: Scenario) -> tuple[float, float, float]:
    """Closed-form per-cycle displacement of the periodic steady state.

    Returns (displacement_m, beta_top, beta_bot) for the front group.
    Mirrors the simulator's steady cycle exactly, including the re-grip
    rule, through `_net_advance`'s self-consistent re-seat losses. Kept
    as the public closed form that the acceptance tests and the
    benchmark's steady-cycle counter read; `_advance_at` at the gap over
    x = 0 gives the same displacement bits.
    """
    s_stand, s_sit, b_top, b_bot = (
        float(v[0]) for v in stroke_arcs(scenario, (scenario.signal.period,)))
    return float(_net_advance(scenario.terrain, scenario.stroke_efficiency, s_stand,
                              s_sit, scenario.all_legs)), b_top, b_bot


def _net_advance(terrain: Terrain, e, stand, sit, alternating: bool):
    """Net advance (m) of each cycle from its unit-slip stroke arcs,
    elementwise over the stroke efficiency e and the arcs.

    Each stroke nets max(0, e * arc - loss). The alternating gait pays the
    re-seat loss at every hand-off. A drag gait's claw re-seats only after
    sliding a full tooth, which depends on the other stroke's net advance:
    its losses are that rule's fixed point, at most 8 rounds."""
    half = terrain.reseat_loss

    def net(arc, loss):
        return np.maximum(0.0, e * arc - loss)

    loss_stand = loss_sit = half
    for _ in range(0 if alternating else 8):
        # each foot's slide: the front's during sit, the rear's during stand
        new = (np.where(net(sit, loss_sit) + stand >= terrain.pitch - 1e-12, half, 0.0),
               np.where(net(stand, loss_stand) + sit >= terrain.pitch - 1e-12, half, 0.0))
        if (new[0] == loss_stand).all() and (new[1] == loss_sit).all():
            break
        loss_stand, loss_sit = new
    return net(stand, loss_stand) + net(sit, loss_sit)


SWEEP_CYCLES = 6  # cycles sweep_period runs at each period
SWEEP_PERIODS = (0.5, 20.0)  # s, the periods sweep_period and the thermal fit take


def _closed_sweep(scenario: Scenario) -> bool:
    """Whether average_speeds takes the scenario's run in closed form: the
    all-leg gait at phase 0, so every hand-off re-seats and the cold start
    begins at a rising edge; no ceiling to move the caps, no slip noise,
    and each group heating exactly in its duty window (Scenario keeps i_low
    below the threshold, so i_high must reach it)."""
    sig = scenario.signal
    return (scenario.all_legs and tuple(sig.phase) == (0.0, 0.0)
            and not scenario.terrain.ceiling and scenario.slip_noise == 0.0
            and sig.i_high >= scenario.actuator.i_threshold - 1e-12)


def _closed_speeds(sc: Scenario, periods, durations, dts, etas, i_highs
                   ) -> list[float]:
    """Average speeds of closed-form runs that share sc's actuator, duty,
    robot, claw and height map; run j takes periods[j], durations[j],
    dts[j], stroke efficiency etas[j] (`Scenario.stroke_efficiency`, so
    anchor friction included) and high current i_highs[j] (arrays).

    Each run is a cold start to its last row at min(duration, n*dt),
    n = ceil(duration/dt - 1e-9), every stroke netted by `_net_advance`
    as `run` nets it, in passes of at most 2**17 (run, cycle) pairs. The
    height map's cap is taken once per distinct high current.
    """
    act = sc.actuator
    cap_of = {i: sc.height_map.beta_cap(i) for i in set(i_highs.tolist())}
    caps = np.array([cap_of[i] for i in i_highs.tolist()])[:, None]
    t_end = np.minimum(durations, np.ceil(durations / dts - 1e-9) * dts)
    # a pass holds ~100 bytes per (run, cycle): split long runs to bound it
    size = max(1, 2**17 // int(np.max(t_end // periods, initial=0.0) + 1))
    speeds = []
    for cut in (slice(at, at + size) for at in range(0, len(periods), size)):
        with np.errstate(over="ignore"):  # a tau near the smallest float: exp gives 0
            band = _lag_band(sc, act.tau_heat, act.tau_cool, periods[cut], 0,
                             t_end[cut])
        stand, sit, _, _ = _arcs(sc, band, (caps[cut],) * 2, True)
        d = _net_advance(sc.terrain, etas[cut, None], stand, sit, True)
        speeds += (d.sum(axis=-1) / t_end[cut]).tolist()
    return speeds


def average_speeds(variants) -> list[float]:
    """Average speed of each scenario's run, in order.

    The variants share the actuator, duty, robot, claw and height map; each
    may set its own period, duration, dt, slope, payload and high current.
    Runs that _closed_sweep admits come from _closed_speeds: the tests hold
    them within 1e-12 m/s of `run` but not to its bits. Every other variant
    is run once.
    """
    admitted = [(v, _closed_sweep(v)) for v in variants]
    closed = [v for v, ok in admitted if ok]
    speeds = iter(_closed_speeds(closed[0], *np.array(
        [(v.signal.period, v.duration, v.dt, v.stroke_efficiency, v.signal.i_high)
         for v in closed]).T) if closed else ())
    return [next(speeds) if ok else run(v).average_speed for v, ok in admitted]


def sweep_period(scenario: Scenario, periods) -> list[tuple[float, float]]:
    """Average speed at each actuation period.

    Each point is the scenario run with period T, duration SWEEP_CYCLES*T
    and dt T/200. Where _closed_sweep holds, the whole sweep is one
    _closed_speeds call on the period array and builds no Scenario: a
    period in SWEEP_PERIODS passes every check such a variant would run.
    Otherwise each period is run by `run`, one after another.
    """
    periods = list(periods)
    for period in periods:
        if not (SWEEP_PERIODS[0] <= period <= SWEEP_PERIODS[1]):
            raise OutOfRangeError("period", period, *SWEEP_PERIODS)
    if not _closed_sweep(scenario):
        return [(period, run(replace(
            scenario, signal=replace(scenario.signal, period=period),
            duration=SWEEP_CYCLES * period, dt=period / 200.0)).average_speed)
            for period in periods]
    t = np.array(periods, dtype=float)
    return list(zip(periods, _closed_speeds(
        scenario, t, SWEEP_CYCLES * t, t / 200.0,
        np.full(len(t), scenario.stroke_efficiency),
        np.full(len(t), scenario.signal.i_high))))


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a confined navigation that fits; one that does not raises."""

    mask_used: str
    all_legs_feasible: bool
    min_gap_m: float  # the smallest gap the path meets


def _met_gap(scenario: Scenario) -> float:
    """Smallest ceiling gap (m) of the regions the path meets (`_path`)."""
    return scenario.terrain.gap_over(-scenario.robot.leg.leg_length / 2.0, math.inf)


def _fit_error(scenario: Scenario) -> InfeasibleConfinementError | None:
    """The flat-height or tunnel-width fault of the scenario's gait, or None.

    Only the ceiling the path meets counts: a region behind the envelope
    at x = 0 never blocks the run.
    """
    ter = scenario.terrain
    err = _flat_error(scenario, _met_gap(scenario))
    if err is not None:
        return err
    # the all-leg gait sits flat every cycle, its widest posture
    width_need = (gait_width(scenario.robot, 0.0) if scenario.all_legs
                  else drag_width(scenario.robot))
    width_have = ter.tunnel_width if ter.tunnel_width is not None else math.inf
    if width_need > width_have:
        return InfeasibleConfinementError(
            f"leg mask {scenario.mask_name()!r} too wide for the tunnel",
            required_mm=width_need * 1e3, available_mm=width_have * 1e3)
    return None


def _advance_at(scenario: Scenario):
    """The steady-cycle advance (m) as a function of a constant ceiling gap.

    The lag band and the drive caps are taken once; each call clips the
    caps to the gap, redoes the arcs and nets them: the arithmetic of
    `steady_cycle_displacement`, so at the gap over x = 0 the same bits.
    """
    act = scenario.actuator
    band = _lag_band(scenario, act.tau_heat, act.tau_cool, (scenario.signal.period,), 0)
    drive = _drive_caps(scenario)
    e, all_legs = scenario.stroke_efficiency, scenario.all_legs

    def advance(gap: float) -> float:
        stand, sit, _, _ = _arcs(scenario, band, _beta_caps(scenario, gap, drive), 0)
        return float(_net_advance(scenario.terrain, e, float(stand[0]), float(sit[0]),
                                  all_legs))

    return advance


def _path(scenario: Scenario) -> list[tuple[float, float]]:
    """(length m, gap m) of each piece of the path that carries the
    footprint past every ceiling region it meets.

    The envelope at body position x is [x - leg/2, x + leg + LOOKAHEAD]
    (`_gap_at`), so region [x0, x1] is under it for x in
    [x0 - leg - LOOKAHEAD, x1 + leg/2]. The path runs from min(0, the first
    such start) to the last such end, cut at every start and end; a piece
    takes the smallest gap of the regions over it, inf between regions. A
    region behind the envelope at x = 0 is never met. Infinite bounds are
    cut to the range of the finite ones and 0, so a ceiling with no finite
    bound, or none, counts as a gate of no length at x = 0.
    """
    leg = scenario.robot.leg.leg_length
    met = [r for r in scenario.terrain.ceiling if r[1] >= -leg / 2.0] or [(0.0, 0.0, math.inf)]
    finite = [0.0, *(b for x0, x1, _ in met for b in (x0, x1) if math.isfinite(b))]
    spans = [(max(x0, min(finite)) - leg - LOOKAHEAD, min(x1, max(finite)) + leg / 2.0, g)
             for x0, x1, g in met]
    cuts = sorted({c for s, e, _ in spans for c in (s, e)})
    if cuts[0] > 0.0:  # the approach from x = 0
        cuts.insert(0, 0.0)
    return [(b - a, min((g for s, e, g in spans if s <= 0.5 * (a + b) <= e), default=math.inf))
            for a, b in zip(cuts, cuts[1:])]


def predicted_transit_time(scenario: Scenario) -> float:
    """Time (s) to carry the whole footprint past the confinement.

    The sum over `_path`'s pieces of each length at its own gap's
    steady-cycle advance per period (a cold-start run can end a few mm
    short of it); inf when the gait does not fit or a piece does not advance.
    """
    if _fit_error(scenario) is not None:
        return math.inf
    advance, period, time = _advance_at(scenario), scenario.signal.period, 0.0
    for length, gap in _path(scenario):
        d = advance(gap)
        if d <= 1e-12:
            return math.inf
        time += length / (d / period)
    return time


def _progress_gap_requirement(scenario: Scenario) -> float:
    """Smallest constant ceiling gap at which the scenario's gait still
    advances, by bisection on `_advance_at`."""
    robot = scenario.robot
    lo = robot.height_offset + 1e-9
    hi = standing_height(robot.leg.leg_length, BETA_MAX, robot.height_offset)
    advance = _advance_at(scenario)
    if advance(hi) <= 1e-12:
        return math.inf
    if advance(lo) > 1e-12:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if advance(mid) > 1e-12:
            hi = mid
        else:
            lo = mid
    return hi


def _confinement_error(scenario: Scenario) -> InfeasibleConfinementError | None:
    """Why the scenario's own leg mask cannot pass its confinement, or None:
    it does not fit (height or width) or does not advance at the smallest
    gap its path meets (`_path`). Whether a gait advances is monotone in
    the gap, so that one gap answers for every piece of the path."""
    err, has = _fit_error(scenario), _met_gap(scenario)
    if err is None and _advance_at(scenario)(has) <= 1e-12:
        err = InfeasibleConfinementError(
            f"{scenario.mask_name()} gait makes no progress under this ceiling",
            required_mm=_progress_gap_requirement(scenario) * 1e3,
            available_mm=has * 1e3)
    return err


def navigate_confined(scenario: Scenario) -> tuple[SimTrace, FeasibilityReport]:
    """Run a scenario with ceiling/tunnel limits and report feasibility.

    Raises the `_confinement_error` of the scenario's own leg mask.
    """
    if not scenario.terrain.confined:
        raise ValidationError("navigate_confined needs a ceiling or tunnel")
    err = _confinement_error(scenario)
    if err is not None:
        raise err
    has = _met_gap(scenario)
    trace = run(scenario)
    all_sc = replace(scenario, signal=replace(scenario.signal, mask=MASKS["all"]))
    return trace, FeasibilityReport(
        mask_used=scenario.mask_name(),
        # _confinement_error's verdict, without the gap bisection of its message
        all_legs_feasible=_fit_error(all_sc) is None and _advance_at(all_sc)(has) > 1e-12,
        min_gap_m=has,
    )


# Share of a lone leg's sink felt by the braced stance: the splayed rear
# pair mutually braces into an A-frame and sinks about a quarter as much
# as an isolated leg, so the body tracks roughly half the lone-leg sink.
BRACE_SHARE = 2.0

# A stance "stands" if the body drops by less than this fraction of the
# nominal height under load.
STANCE_DROP_FRAC = 0.10


@dataclass(frozen=True)
class StaticLoadResult:
    stands: bool
    height_drop: float  # m
    front_leg_sink: float  # m
    drop_limit: float  # m


def static_load_check(current: float, load_mass: float, robot: RobotParams,
                      table: CalibrationTable) -> StaticLoadResult:
    """Can the stiffened stance statically hold the body plus a payload?

    Each leg is a clamped bead-chain cantilever at the deploy tilt; body
    weight plus payload splits across the three legs and loads each tip
    transverse to its axis. A lone leg's tip deflection maps to a vertical
    sink; the braced stance drops by that sink over BRACE_SHARE, and it
    stands while the drop stays within 10% of the nominal height. The drop
    is absolute (not payload-relative): a stance too soft to carry its own
    body already counts as collapsed.
    """
    if not 0.0 <= load_mass < math.inf:
        raise OutOfRangeError("load_mass", load_mass, 0.0, math.inf)
    flex = FlexuralModel.from_current(current, table, robot.leg)
    tilt = math.radians(robot.leg_tilt_deploy)

    force = (robot.body_mass + load_mass) * 9.81 / N_LEGS
    transverse = force * math.cos(tilt)
    res = equilibrium_shape(
        robot.leg, flex,
        LoadCase(gravity=0.0,
                 point_loads=((robot.leg.n_beads, 0.0, -transverse),)),
        boundary="clamped",
    )
    nodes = node_positions(res.shape, robot.leg.bead_thickness)
    sink = -float(nodes[-1, 1]) * math.cos(tilt)

    drop = sink / BRACE_SHARE
    limit = STANCE_DROP_FRAC * robot.freestanding_height
    return StaticLoadResult(stands=drop <= limit, height_drop=drop,
                            front_leg_sink=sink, drop_limit=limit)
