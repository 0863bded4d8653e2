"""Search routines on top of the gait simulator.

Best actuation period, largest confinement-safe current, and leg-mask
selection. The simulator is treated as a black box; the only structure
assumed of the period objective is a single interior peak, and that is
checked by a coarse pre-flight sweep rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .errors import (
    AllMasksInfeasibleError,
    InfeasibleConfinementError,
    NotUnimodalError,
    OutOfRangeError,
    ValidationError,
)
from .gait import (
    LOOKAHEAD,
    MASKS,
    CurrentHeightMap,
    FeasibilityReport,
    Scenario,
    navigate_confined,
    sweep_period,
)
from .kinematics import standing_height
from .params import CalibrationTable, RobotParams

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchSpec:
    """Period bracket [lo, hi] (s) and resolution of the speed search."""

    lo: float = 2.0
    hi: float = 10.0
    tolerance: float = 0.05

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValidationError(
                f"degenerate bounds [{self.lo!r}, {self.hi!r}]")
        if self.tolerance <= 0.0:
            raise OutOfRangeError("tolerance", self.tolerance, 0.0, math.inf)


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float) -> tuple[float, float]:
    """Maximum of a unimodal f on [lo, hi] to abscissa resolution tol.

    Returns the best (x, f(x)) actually evaluated, so the reported value
    is always a true sample of the objective.
    """
    if not hi > lo:
        raise ValidationError(f"degenerate bracket [{lo!r}, {hi!r}]")
    if tol <= 0.0:
        raise OutOfRangeError("tol", tol, 0.0, math.inf)
    best_x, best_y = lo, -math.inf

    def eval_at(x: float) -> float:
        nonlocal best_x, best_y
        y = f(x)
        if y > best_y:
            best_x, best_y = x, y
        return y

    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = eval_at(c), eval_at(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = eval_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = eval_at(d)
    eval_at(0.5 * (a + b))
    return best_x, best_y


def _check_unimodal(xs, ys, tol_y: float):
    """Raise NotUnimodal when a descent is followed by an ascent."""
    signs = []
    for y0, y1 in zip(ys, ys[1:]):
        d = y1 - y0
        if d > tol_y:
            signs.append(1)
        elif d < -tol_y:
            signs.append(-1)
    for s0, s1 in zip(signs, signs[1:]):
        if s0 == -1 and s1 == 1:
            raise NotUnimodalError(xs, ys)


def optimize_period(spec: SearchSpec, scenario: Scenario,
                    objective: Callable[[float], float] | None = None,
                    ) -> tuple[float, float]:
    """Actuation period with the highest average speed on [lo, hi].

    A 5-point coarse sweep guards the unimodality assumption before the
    golden-section search runs; a valley between two coarse peaks raises
    NotUnimodal. `objective` overrides the simulated speed, for search
    verification against closed forms.
    """
    if objective is None:
        def objective(period: float) -> float:
            return sweep_period(scenario, [period])[0][1]

    n = 5
    xs = [spec.lo + k * (spec.hi - spec.lo) / (n - 1) for k in range(n)]
    ys = [objective(x) for x in xs]
    tol_y = 1e-9 + 1e-6 * max(abs(y) for y in ys)
    _check_unimodal(xs, ys, tol_y)
    return golden_section_max(objective, spec.lo, spec.hi, spec.tolerance)


@dataclass(frozen=True)
class CurrentSearchResult:
    """Outcome of the confinement current search."""

    current: float | None  # A; None when no engaged current fits
    recommendation: str | None  # "front_only" when current is None
    gap_m: float
    height_m: float | None  # standing height at the returned current

    def summary(self) -> str:
        if self.current is None:
            return (f"max_feasible_current: none; gap_mm={self.gap_m * 1e3:.6g}; "
                    f"recommend mask={self.recommendation}")
        return (f"max_feasible_current: current_a={self.current:.6g}, "
                f"height_mm={self.height_m * 1e3:.6g}; "
                f"gap_mm={self.gap_m * 1e3:.6g}")


def max_feasible_current(gap: float, robot: RobotParams,
                         table: CalibrationTable, *,
                         height_map: CurrentHeightMap | None = None,
                         i_threshold: float = 0.28,
                         resolution: float = 0.005) -> CurrentSearchResult:
    """Largest drive current whose standing height stays under `gap`.

    Bisection over the calibration table's current range at the given
    resolution, returning the feasible (low) end of the final bracket.
    Currents below the engagement threshold never stand up at all, so
    when even the threshold current is too tall the search returns None
    and recommends the front-leg-only crawl instead.
    """
    if gap <= 0.0:
        raise OutOfRangeError("gap", gap, 0.0, math.inf)
    if resolution <= 0.0:
        raise OutOfRangeError("resolution", resolution, 0.0, math.inf)
    hmap = height_map if height_map is not None else CurrentHeightMap.default(
        robot, i_threshold)
    leg = robot.leg.leg_length

    def height(i_high: float) -> float:
        return standing_height(leg, hmap.beta_cap(i_high), robot.height_offset)

    i_max = table.currents[-1]
    if height(i_max) <= gap:
        return CurrentSearchResult(current=i_max, recommendation=None,
                                   gap_m=gap, height_m=height(i_max))
    lo = max(i_threshold, table.currents[0])
    if height(lo) > gap:
        return CurrentSearchResult(current=None, recommendation="front_only",
                                   gap_m=gap, height_m=None)
    hi = i_max
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if height(mid) <= gap:
            lo = mid
        else:
            hi = mid
    return CurrentSearchResult(current=lo, recommendation=None,
                               gap_m=gap, height_m=height(lo))


@dataclass(frozen=True)
class MaskChoice:
    """Feasible leg mask picked for a confined scenario."""

    name: str
    mask: tuple[bool, bool]
    transit_time_s: float
    average_speed: float  # m/s over the evaluation run
    report: FeasibilityReport

    def summary(self) -> str:
        return (f"select_mask: mask={self.name}, "
                f"transit_s={self.transit_time_s:.6g}, "
                f"speed_mm_s={self.average_speed * 1e3:.6g}")


def _confined_span(scenario: Scenario) -> float | None:
    """Length (m) of the bounded confined region, None if unbounded."""
    finite = [(x0, x1) for (x0, x1, _) in scenario.terrain.ceiling
              if math.isfinite(x0) and math.isfinite(x1)]
    if not finite:
        return None
    return max(x1 for _, x1 in finite) - min(x0 for x0, _ in finite)


def predicted_transit_time(scenario: Scenario,
                           report: FeasibilityReport) -> float:
    """Time to carry the whole footprint past the confined region.

    The robot starts ducking LOOKAHEAD ahead of its front foot and is
    clear once the rear foot passes the region, so the travel distance is
    the region span plus 1.5 leg lengths plus the lookahead.
    """
    speed = report.predicted_cycle_advance_m / scenario.signal.period
    if speed <= 0.0:
        return math.inf
    span = _confined_span(scenario)
    leg = scenario.robot.leg.leg_length
    distance = 1.5 * leg + LOOKAHEAD + (span if span is not None else 0.0)
    return distance / speed


def select_mask(scenario: Scenario) -> MaskChoice:
    """Fastest leg mask that passes the scenario's confinement.

    Tries the all-legs gait and the front-leg-only crawl through
    navigate_confined and returns the feasible one with the lowest
    predicted transit time. Raises AllMasksInfeasible with the per-mask
    failures when neither passes.
    """
    if not scenario.terrain.confined:
        raise ValidationError("select_mask needs a ceiling or tunnel")
    failures: dict[str, InfeasibleConfinementError] = {}
    best: MaskChoice | None = None
    for name in ("all", "front_only"):
        mask = MASKS[name]
        sc = replace(scenario, signal=replace(scenario.signal, mask=mask))
        try:
            trace, report = navigate_confined(sc)
        except InfeasibleConfinementError as err:
            failures[name] = err
            continue
        choice = MaskChoice(
            name=name, mask=mask,
            transit_time_s=predicted_transit_time(sc, report),
            average_speed=trace.average_speed, report=report,
        )
        if best is None or choice.transit_time_s < best.transit_time_s:
            best = choice
    if best is None:
        raise AllMasksInfeasibleError(failures)
    return best
