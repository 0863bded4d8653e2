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
    NotUnimodalError,
    OutOfRangeError,
    ValidationError,
)
from .gait import (
    MASKS,
    Scenario,
    _closed_sweep,
    _confinement_error,
    _met_gap,
    navigate_confined,
    predicted_transit_time,
    sweep_period,
)
from .kinematics import standing_height

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchSpec:
    """Period bracket [lo, hi] (s) and resolution of the speed search,
    checked before any sweep: the tolerance must exceed finest_tolerance."""

    lo: float = 2.0
    hi: float = 10.0
    tolerance: float = 0.05

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValidationError(
                f"degenerate bounds [{self.lo!r}, {self.hi!r}]")
        finest = finest_tolerance(self.lo, self.hi)
        if not self.tolerance > finest:  # NaN fails too
            raise OutOfRangeError("tolerance", self.tolerance, finest, math.inf)


def finest_tolerance(lo: float, hi: float) -> float:
    """Largest tolerance golden_section_max rejects on [lo, hi].

    Rounding keeps a bracket about 2.6 float spacings wide at best, so a
    tolerance of 4 spacings or less might never be met: the search would
    not end.
    """
    return 4.0 * math.ulp(max(abs(lo), abs(hi)))


# Comparisons golden_section_max looks past the point it needs: a batch
# holds that point and the 2 + 4 + 8 + 16 points the next four could need,
# whichever way they go, so 3 batches replace the shipped search's 14
# one-point calls. A closed-form sweep costs ~80 us a call plus ~0.7 us a
# period, and depths 3 to 6 timed within 10% of each other on
# flat_ratchet_T4; 4 was the fastest.
STEPS_AHEAD = 4


def _ahead(a: float, b: float, c: float, d: float, tol: float,
           steps: int) -> list[float]:
    """Every point the next `steps` comparisons of golden_section_max could
    need from bracket [a, b] with inner points c < d, by its arithmetic."""
    if steps == 0:
        return []
    if not (b - a) > tol:
        return [0.5 * (a + b)]
    c_left = d - GOLDEN * (d - a)  # fc >= fd: [a, d] with inner (c_left, c)
    d_right = c + GOLDEN * (b - c)  # else: [c, b] with inner (d, d_right)
    return [c_left, d_right, *_ahead(a, d, c_left, c, tol, steps - 1),
            *_ahead(c, b, d, d_right, tol, steps - 1)]


def golden_section_max(f: Callable[[list[float]], list[float]], lo: float,
                       hi: float, tol: float) -> tuple[float, float]:
    """Maximum of a unimodal objective on [lo, hi] to abscissa resolution tol.

    f is a batch objective: it maps a list of abscissae to their values, or
    to the values of a leading part of the list, at least the first. Each
    call asks for the point the search needs next, then, until f leaves
    part of a batch unanswered, for every point the next STEPS_AHEAD
    comparisons could need. f must give the same value for the same
    abscissa, which is evaluated once. The search is the sequential golden
    section: the same points in the same order, the same comparisons.
    Returns the best (x, f(x)) it needed, so the reported value is always
    a true sample of the objective. tol must exceed finest_tolerance(lo, hi).
    """
    if not hi > lo:
        raise ValidationError(f"degenerate bracket [{lo!r}, {hi!r}]")
    if not tol > finest_tolerance(lo, hi):
        raise OutOfRangeError("tol", tol, finest_tolerance(lo, hi), math.inf)
    best_x, best_y = lo, -math.inf
    known: dict[float, float] = {}
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    ahead = True

    def eval_at(x: float, *also: float) -> float:
        nonlocal best_x, best_y, ahead
        if x not in known:
            xs = (list(dict.fromkeys([x, *also, *_ahead(a, b, c, d, tol, STEPS_AHEAD)]))
                  if ahead else [x])
            ys = f(xs)
            ahead = ahead and len(ys) == len(xs)
            known.update(zip(xs, ys))
        y = known[x]
        if y > best_y:
            best_x, best_y = x, y
        return y

    fc, fd = eval_at(c, d), eval_at(d)
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


def optimize_period(spec: SearchSpec, scenario: Scenario) -> tuple[float, float]:
    """Actuation period with the highest average speed on [lo, hi].

    A 5-point coarse sweep guards the unimodality assumption before the
    golden-section search runs; a valley between two coarse peaks raises
    NotUnimodal. Each batch of periods is one sweep_period call. Off the
    closed form every period is a run, so the search asks for the one
    period it needs and runs nothing ahead.
    """
    def speeds(periods: list[float]) -> list[float]:
        return [v for _, v in sweep_period(scenario, periods)]

    n = 5
    xs = [spec.lo + k * (spec.hi - spec.lo) / (n - 1) for k in range(n)]
    ys = speeds(xs)
    tol_y = 1e-9 + 1e-6 * max(abs(y) for y in ys)
    _check_unimodal(xs, ys, tol_y)
    objective = speeds if _closed_sweep(scenario) else lambda ps: speeds(ps[:1])
    return golden_section_max(objective, spec.lo, spec.hi, spec.tolerance)


# Resolution (A) of the current search's bisection.
CURRENT_RESOLUTION = 0.005


@dataclass(frozen=True)
class CurrentSearchResult:
    """Outcome of the confinement current search."""

    current: float | None  # A; None when no engaged current fits: crawl front_only
    gap_m: float
    height_m: float | None  # standing height at the returned current

    def summary(self) -> str:
        if self.current is None:
            return (f"max_feasible_current: none; gap_mm={self.gap_m * 1e3:.6g}; "
                    "recommend mask=front_only")
        return (f"max_feasible_current: current_a={self.current:.6g}, "
                f"height_mm={self.height_m * 1e3:.6g}; "
                f"gap_mm={self.gap_m * 1e3:.6g}")


def max_feasible_current(scenario: Scenario) -> CurrentSearchResult:
    """Largest drive current whose standing height stays under the smallest
    ceiling gap the scenario's path meets, the gap navigate_confined judges.

    Bisection over the scenario's calibration table's current range to
    CURRENT_RESOLUTION, returning the feasible (low) end of the final
    bracket. Heights come from the scenario's robot and current-to-angle
    map. Currents below the actuator's engagement threshold never stand up
    at all, so when even the threshold current is too tall the search
    returns None: the front-leg-only crawl is the way through.
    """
    gap = _met_gap(scenario)
    if math.isinf(gap):
        raise ValidationError(
            "current optimization needs a ceiling gap that the path meets in [terrain]")
    table, robot = scenario.table, scenario.robot
    if table is None:
        raise ValidationError("current optimization needs a [stiffness_table]")
    leg = robot.leg.leg_length

    def height(i_high: float) -> float:
        return standing_height(leg, scenario.height_map.beta_cap(i_high),
                               robot.height_offset)

    i_max = table.currents[-1]
    if height(i_max) <= gap:
        return CurrentSearchResult(current=i_max, gap_m=gap, height_m=height(i_max))
    lo = max(scenario.actuator.i_threshold, table.currents[0])
    if height(lo) > gap:
        return CurrentSearchResult(current=None, gap_m=gap, height_m=None)
    hi = i_max
    while hi - lo > CURRENT_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if height(mid) <= gap:
            lo = mid
        else:
            hi = mid
    return CurrentSearchResult(current=lo, gap_m=gap, height_m=height(lo))


@dataclass(frozen=True)
class MaskChoice:
    """Feasible leg mask picked for a confined scenario."""

    name: str
    transit_time_s: float
    average_speed: float  # m/s over the evaluation run

    def summary(self) -> str:
        return (f"select_mask: mask={self.name}, "
                f"transit_s={self.transit_time_s:.6g}, "
                f"speed_mm_s={self.average_speed * 1e3:.6g}")


def select_mask(scenario: Scenario) -> MaskChoice:
    """Fastest leg mask that passes the scenario's confinement.

    Ranks the all-legs gait and the front-leg-only crawl by
    predicted_transit_time (inf for a mask that does not fit or advance),
    the first on a tie, and runs only the winner through
    navigate_confined. When neither passes, raises AllMasksInfeasible
    with each mask's `_confinement_error`.
    """
    if not scenario.terrain.confined:
        raise ValidationError("select_mask needs a ceiling or tunnel")
    masked = {name: replace(scenario, signal=replace(scenario.signal, mask=MASKS[name]))
              for name in ("all", "front_only")}
    times = {name: predicted_transit_time(sc) for name, sc in masked.items()}
    best = min(times, key=times.get)
    if math.isinf(times[best]):
        raise AllMasksInfeasibleError(
            {name: err for name, sc in masked.items()
             if (err := _confinement_error(sc)) is not None})
    trace, _ = navigate_confined(masked[best])
    return MaskChoice(name=best, transit_time_s=times[best],
                      average_speed=trace.average_speed)
