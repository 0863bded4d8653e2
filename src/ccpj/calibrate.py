"""Fitting model constants to the shipped measurement datasets.

Three fits, in dependency order: the stiffness table (isotonic regression
on the digitized stiffness curve), the actuator lag constants (grid search
plus refinement against the speed-vs-period curve, with the overall slip
scale profiled out), and the slip coefficients (exact three-point solve
through the flat / slope / payload operating points).

Datasets are small CSV files with `# key: value` provenance headers. Every
file states where its numbers came from and a digitization uncertainty;
fits must not pretend to more accuracy than those headers admit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDatasetError,
    NoFeasibleFitError,
    SingularSystemError,
    TooFewPointsError,
    ValidationError,
)
from .config import data_dir
from .gait import (
    SWEEP_CYCLES,
    SWEEP_PERIODS,
    ActuatorModel,
    Scenario,
    SlipModel,
    _closed_sweep,
    _drive_caps,
    _net_advance,
    stroke_arcs,
)
from .params import CalibrationTable, GaitSignal


@dataclass(frozen=True)
class Dataset:
    """A measurement series with provenance.

    source must start with "digitized" or "synthetic" so nobody mistakes a
    model-generated curve for a measurement. uncertainty is the relative
    digitization error the numbers are good to.
    """

    name: str
    columns: tuple[str, ...]
    rows: np.ndarray  # shape (n, len(columns))
    source: str
    uncertainty: float

    def __post_init__(self):
        if self.rows.size == 0:
            raise EmptyDatasetError(f"dataset {self.name!r} has no rows")
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ValidationError(
                f"dataset {self.name!r}: rows shape {self.rows.shape} does not "
                f"match {len(self.columns)} columns")
        if not np.all(np.isfinite(self.rows)):
            raise ValidationError(f"dataset {self.name!r} has non-finite values")
        head = self.source.split(":", 1)[0].split(" ", 1)[0].lower()
        if head not in ("digitized", "synthetic"):
            raise ValidationError(
                f"dataset {self.name!r}: source must start with 'digitized' "
                f"or 'synthetic', got {self.source!r}")
        if not (0.0 < self.uncertainty < 1.0):
            raise ValidationError(
                f"dataset {self.name!r}: uncertainty {self.uncertainty!r} "
                f"must be a fraction in (0, 1)")

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ValidationError(
                f"dataset {self.name!r} has no column {name!r} "
                f"(has {', '.join(self.columns)})") from None
        return self.rows[:, idx].copy()

    @classmethod
    def from_csv(cls, text: str, fallback_name: str = "dataset") -> "Dataset":
        meta = {"name": fallback_name, "source": "", "uncertainty": None}
        columns: tuple[str, ...] | None = None
        rows: list[list[float]] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    meta[key.strip().lower()] = value.strip()
                continue
            if columns is None:
                columns = tuple(c.strip() for c in line.split(","))
                continue
            values = line.split(",")
            if len(values) != len(columns):
                raise ValidationError(
                    f"bad dataset row {line!r}: {len(values)} values for "
                    f"{len(columns)} columns")
            try:
                rows.append([float(v) for v in values])
            except ValueError as err:
                raise ValidationError(f"bad dataset row {line!r}: {err}") from None
        if columns is None or not rows:
            raise EmptyDatasetError(f"dataset {meta['name']!r} has no rows")
        try:
            unc = float(meta["uncertainty"])
        except (TypeError, ValueError):
            raise ValidationError(
                f"dataset {meta['name']!r}: missing or bad '# uncertainty:' header"
            ) from None
        return cls(name=str(meta["name"]), columns=columns,
                   rows=np.array(rows, dtype=float),
                   source=str(meta["source"]), uncertainty=unc)


def load_dataset(name: str, directory: Path | None = None) -> Dataset:
    path = (directory or data_dir()) / f"{name}.csv"
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:  # missing, a directory, not UTF-8
        raise EmptyDatasetError(f"cannot read dataset {path}: {err}") from err
    return Dataset.from_csv(text, fallback_name=name)


@dataclass(frozen=True)
class CalibrationResult:
    """One fit's outcome: the fitted model, its constants, how well it fits."""

    name: str
    method: str
    model: object  # the fitted CalibrationTable, ActuatorModel or SlipModel
    parameters: dict
    residual: float
    bounds: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.residual < 0.0 or not math.isfinite(self.residual):
            raise ValidationError(f"residual {self.residual!r} must be finite, >= 0")
        for key, (lo, hi) in self.bounds.items():
            v = self.parameters[key]
            if not (lo - 1e-12 <= v <= hi + 1e-12):
                raise ValidationError(
                    f"fitted {key}={v!r} outside declared bounds [{lo}, {hi}]")

    def summary(self) -> str:
        pairs = ", ".join(f"{k}={v:.6g}" for k, v in self.parameters.items())
        line = f"{self.name}: {pairs}; rmse={self.residual:.6g} ({self.method})"
        for w in self.warnings:
            line += f"\n  warning: {w}"
        return line


def isotonic_nondecreasing(y) -> np.ndarray:
    """Pool-adjacent-violators: least-squares non-decreasing fit to y."""
    y = np.asarray(y, dtype=float)
    # blocks of (mean, count), merged while out of order
    vals: list[float] = []
    cnt: list[int] = []
    for yi in y:
        vals.append(float(yi))
        cnt.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v = (vals[-2] * cnt[-2] + vals[-1] * cnt[-1]) / (cnt[-2] + cnt[-1])
            cnt[-2] += cnt[-1]
            vals[-2] = v
            vals.pop()
            cnt.pop()
    out = np.empty_like(y)
    pos = 0
    for v, c in zip(vals, cnt):
        out[pos:pos + c] = v
        pos += c
    return out


def _check_power(dataset: Dataset, column: str, values: np.ndarray):
    """Reject values whose sum of squares nears the float limit (within 4x):
    a least-squares fit is no farther from them than all zeros."""
    with np.errstate(over="ignore"):
        power = 4.0 * np.sum(values * values)
    if not np.isfinite(power):
        raise ValidationError(
            f"dataset {dataset.name!r}: {column} values too large to fit "
            f"(their sum of squares nears the float limit)")


def fit_stiffness_table(dataset: Dataset) -> CalibrationTable:
    """Monotone stiffness table from the digitized stiffness curve.

    Digitization noise can break monotonicity; isotonic regression repairs
    it with the least-squares monotone fit. stiffness_fit_report reports
    the adjustments.
    """
    current = dataset.column("current_a")
    stiff = dataset.column("stiffness_n_m")
    _check_power(dataset, "stiffness_n_m", stiff)
    order = np.argsort(current)
    current, stiff = current[order], stiff[order]
    fitted = isotonic_nondecreasing(stiff)
    return CalibrationTable.from_points(zip(current, fitted))


def stiffness_fit_report(dataset: Dataset) -> CalibrationResult:
    """The stiffness table fit, warning at each isotonic adjustment larger
    than the dataset's stated uncertainty."""
    table = fit_stiffness_table(dataset)
    raw = dataset.column("stiffness_n_m")[np.argsort(dataset.column("current_a"))]
    fitted = np.array(table.stiffnesses)
    adj = fitted - raw
    warnings = []
    for i, (a, r) in enumerate(zip(adj, raw)):
        if abs(a) > dataset.uncertainty * abs(r) + 1e-12:
            warnings.append(
                f"isotonic adjustment at row {i} ({a:+.3g} N/m) exceeds the "
                f"stated {dataset.uncertainty:.0%} digitization uncertainty")
    return CalibrationResult(
        name="stiffness_table", method="isotonic regression (PAV)", model=table,
        parameters={"max_adjustment_n_m": float(np.max(np.abs(adj))),
                    "k_min_n_m": fitted[0], "k_max_n_m": fitted[-1]},
        residual=float(np.sqrt(np.mean(adj ** 2))),
        warnings=tuple(warnings),
    )


ETA0_GRID = np.linspace(0.0, 1.0, 2001)  # slip scales the profile chooses from


def _profile_eta0(template: Scenario, tau_heat, tau_cool, periods: np.ndarray,
                  speeds: np.ndarray, cutoff=math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Best slip scale for each candidate actuator; returns (eta0, sse).

    The candidates are the template's actuator with the lag constants
    tau_heat and tau_cool, broadcast to one axis of length n; both results
    have shape (n,). Each answer is the argmin of that candidate's sweep
    SSE over ETA0_GRID, ties going to the smallest eta, found without
    evaluating the whole grid. A stroke with slope r = e*s > 0 in eta (e
    the anchor efficiency, s its unit-slip arc) nets max(0, r*eta - half),
    which is linear past its knot half/r, so each period's speed v_p(eta)
    is nondecreasing and the SSE is a convex quadratic A*eta^2 + 2*B*eta
    + C between consecutive knots. Over one interval the grid minimum lies
    on one of the two grid points that bracket the interval's vertex
    clipped into it. Exact values net each stroke with gait._net_advance,
    the closed forms' one stroke rule, so they and the tie-break are the
    full grid's bit for bit.

    Past K, the largest knot at or below eta = 1 (0 if there is none),
    every stroke that goes live in [0, 1] is live, so the SSE on [K, 1] is
    one quadratic built from per-period sums. Every grid point below K has
    v_p(eta) in [0, v_p(K)], so its SSE is at least the sum over periods
    of dist(speed, [0, v_p(K)])^2 (+inf if K = 0). So the minimum lies
    between LB, the least of that bound and the quadratic at its clipped
    vertex, and UB, the quadratic at its upper grid point or the SSE at
    eta = 0. A candidate with LB > min(cutoff, any UB + its margin) + its
    own margin gets sse = +inf, eta0 = nan. Pass 0 evaluates eta = 0 and
    the vertex's bracket for the others; their best value U bounds the
    minimum, and closes a candidate whose bound below K exceeds U + margin
    strictly, or with K = 0. The others go through the knot-sorted passes
    (_knot_intervals), where the quadratic's value at the clipped vertex
    is a lower bound lb for every grid point in its interval. Pass 1
    evaluates the bracket of the interval with the least lb, lowering U;
    pass 2 the bracket of every other interval with lb <= U + margin.

    The margin is 1e-12*W, W = sum over periods of (a + |speed|)^2 with a
    the period's speed at eta = 1 before re-seat losses. At or below eta
    = 1, W bounds the summed magnitudes of the terms of each per-period or
    prefix sum, of the bound below K, of each quadratic and of the exact
    SSE, so their rounding, with the vertex's, stays below about 600 *
    2^-53 * W (7e-14 * W): the margin has more than a factor of ten to
    spare, also where a comparison across candidates adds both margins.
    The closest rounding tie the tests hold needs 1e-16 * W. Otherwise the
    vertex only chooses which grid points get evaluated. A stroke that
    stalls at every eta gets knot +inf and is never live.
    """
    ter = template.terrain
    half = ter.reseat_loss
    stand, sit, _, _ = stroke_arcs(template, periods, SWEEP_CYCLES,
                                   (np.reshape(tau_heat, (-1, 1)),
                                    np.reshape(tau_cool, (-1, 1))))
    n = len(stand)
    rate = ter.anchor_efficiency * np.concatenate([stand, sit], axis=2)
    advances = rate > 0.0  # the other strokes stall at every eta
    knot = np.divide(half, rate, out=np.full_like(rate, np.inf), where=advances)
    # a live stroke adds r to its period's residual slope and -half/scale
    # to its offset
    scale = SWEEP_CYCLES * periods
    r = np.where(advances, rate, 0.0) / scale[:, None]
    margin = 1e-12 * np.sum((np.sum(r, axis=2) + np.abs(speeds)) ** 2, axis=1)

    def sse_at(cand, idx):
        e = (ETA0_GRID[idx] * ter.anchor_efficiency)[:, None, None]
        d = _net_advance(ter, e, stand[cand], sit[cand], True).sum(axis=2)
        return np.sum((d / scale - speeds) ** 2, axis=1)

    # each period's residual on [k, 1] is alpha*eta + beta
    live = knot <= 1.0
    k = np.max(knot, axis=(1, 2), where=live, initial=0.0)
    alpha = np.sum(r, axis=2, where=live)
    beta = -(half / scale) * np.count_nonzero(live, axis=2) - speeds
    quad_a, quad_b = np.sum(alpha * alpha, axis=1), np.sum(alpha * beta, axis=1)
    vertex = np.divide(-quad_b, quad_a, out=k.copy(), where=quad_a > 0.0)
    at = np.clip(vertex, k, 1.0) * (len(ETA0_GRID) - 1)
    gap = np.maximum(np.maximum(-(alpha * k[:, None] + beta), -speeds), 0.0)
    bound = np.where(k > 0.0, np.sum(gap * gap, axis=1), np.inf)
    eta = np.stack([at, np.ceil(at)]) / (len(ETA0_GRID) - 1)
    lb, ub = np.sum((alpha * eta[..., None] + beta) ** 2, axis=2)
    lb, ub = np.minimum(lb, bound), np.minimum(ub, np.sum(speeds * speeds))
    alive = np.flatnonzero(~(lb > min(cutoff, np.min(ub + margin)) + margin))
    cand = np.repeat(alive, 3)
    idx = np.column_stack([np.zeros(len(alive)), np.floor(at[alive]),
                           np.ceil(at[alive])]).astype(int).ravel()
    sse = sse_at(cand, idx)
    best = np.min(sse.reshape(-1, 3), axis=1)
    rest_at = np.flatnonzero(~(bound[alive] > best + margin[alive]))
    rest = alive[rest_at]
    if len(rest):
        lb, at = _knot_intervals(knot[rest], advances[rest], r[rest],
                                 half / scale, speeds)
        sub = np.arange(len(rest))
        first = np.argmin(lb, axis=1)
        idx1 = np.column_stack([np.floor(at[sub, first]),
                                np.ceil(at[sub, first])]).astype(int).ravel()
        sse1 = sse_at(np.repeat(rest, 2), idx1)
        bound = np.minimum(best[rest_at], np.min(sse1.reshape(-1, 2), axis=1))
        keep = lb <= (bound + margin[rest])[:, None]
        keep[sub, first] = False
        more, j = np.nonzero(keep)
        idx2 = np.concatenate([np.floor(at[more, j]), np.ceil(at[more, j])]).astype(int)
        more = np.tile(rest[more], 2)
        cand = np.concatenate([cand, np.repeat(rest, 2), more])
        idx = np.concatenate([idx, idx1, idx2])
        sse = np.concatenate([sse, sse1, sse_at(more, idx2)])
    # by candidate, then sse, then eta: each block opens with the first minimum
    pick = np.lexsort((idx, sse, cand))
    pick = pick[np.searchsorted(cand[pick], alive)]
    eta0, least = np.full(n, np.nan), np.full(n, np.inf)
    eta0[alive], least[alive] = ETA0_GRID[idx[pick]], sse[pick]
    return eta0, least


def _knot_intervals(knot: np.ndarray, advances: np.ndarray, r: np.ndarray,
                    lost: np.ndarray, speeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower bound and clipped vertex of every knot interval, for _profile_eta0.

    knot, advances and r are per candidate, period and stroke, shape (m,
    n_periods, n_strokes); lost is each period's re-seat loss per stroke
    as speed. An interval opens at each stroke's knot in the candidates'
    stable knot order; both results have shape (m, n_periods *
    n_strokes), the clipped vertex in grid steps. The SSE's coefficients
    on an interval are prefix sums over the knot-sorted strokes, since a
    stroke going live changes one period's residual alpha*eta + beta. An
    interval that starts past eta = 1 gets lb = +inf: it holds no grid
    point that eta = 0 or another interval does not cover.
    """
    m, n_strokes = len(knot), knot.shape[2]
    rows = np.arange(m)[:, None]
    h = np.where(advances, lost[:, None], 0.0)
    # each period's alpha and beta before the stroke, in knot order within
    # the period: the advancing strokes lead, so beta counts their position
    within = np.argsort(knot, axis=2, kind="stable")
    r, h = np.take_along_axis(r, within, 2), np.take_along_axis(h, within, 2)
    a = np.zeros_like(r)
    np.cumsum(r[..., :-1], axis=2, out=a[..., 1:])
    b = -lost[:, None] * np.arange(n_strokes) - speeds[:, None]
    delta = np.stack([r * (2.0 * a + r), r * (b - h) - h * a, h * (h - 2.0 * b)])
    # the same strokes in the global stable knot order
    knot = knot.reshape(m, -1)
    order = np.argsort(knot, axis=1, kind="stable")
    place = np.empty_like(within)
    np.put_along_axis(place, within, np.arange(n_strokes), axis=2)
    into = order - order % n_strokes + place.reshape(m, -1)[rows, order]
    knot, advances = knot[rows, order], advances.reshape(m, -1)[rows, order]
    quad_a, quad_b, quad_c = np.cumsum(delta.reshape(3, m, -1)[:, rows, into], axis=2)
    quad_c += np.sum(speeds * speeds)
    vertex = np.divide(-quad_b, quad_a, out=np.zeros_like(knot),
                       where=advances)  # stalled: 0/0
    upper = np.concatenate([knot[:, 1:], np.full((m, 1), np.inf)], axis=1)
    at = np.where(advances, np.clip(np.clip(vertex, knot, upper), 0.0, 1.0), 0.0)
    lb = np.where(advances & (knot <= 1.0),
                  (quad_a * at + 2.0 * quad_b) * at + quad_c, np.inf)
    return lb, at * (len(ETA0_GRID) - 1)


THERMAL_BOUNDS = {"tau_heat_s": (0.2, 3.0), "tau_cool_s": (0.1, 2.0)}
SPEED_PEAK_WINDOW = (3.5, 4.5)  # s
# candidates per _profile_eta0 call in the grid search: one 9 x 9 level.
# One call raises peak RSS by ~1 MiB at 81 candidates, ~4 MiB at 225.
PROFILE_BATCH = 81


def _thermal_grid_search(template: Scenario, periods: np.ndarray,
                         speeds: np.ndarray) -> tuple[float, float, float, float]:
    """Best (sse, tau_heat, tau_cool, eta0) over the grid and its refinements.

    A 15 x 15 grid over THERMAL_BOUNDS, then six levels of 9 x 9 shrinking
    around the best so far (711 candidates). The profiled objective is the
    closed-form transcription of sweep_period's averages, so the surface
    being minimized is exactly the one the simulator would report. Whole
    tau_heat rows are profiled together, at most PROFILE_BATCH candidates
    per _profile_eta0 call: each 9 x 9 level in one call, the 15 x 15 grid
    in three blocks of five rows. A block's first minimum in (tau_heat
    outer, tau_cool inner) order must beat the best so far strictly, which
    keeps the first strict minimum in that order over the whole search.
    Each call's cutoff is the best SSE so far, which a block cut whole cannot beat.
    """
    (th_lo, th_hi) = THERMAL_BOUNDS["tau_heat_s"]
    (tc_lo, tc_hi) = THERMAL_BOUNDS["tau_cool_s"]
    best = (math.inf,)
    th_grid = np.linspace(th_lo, th_hi, 15)
    tc_grid = np.linspace(tc_lo, tc_hi, 15)
    for _ in range(7):
        n_cool = len(tc_grid)
        per_call = PROFILE_BATCH // n_cool  # whole rows: 5 of 15 or 9 of 9
        for start in range(0, len(th_grid), per_call):
            th = th_grid[start:start + per_call]
            eta0, sse = _profile_eta0(template, np.repeat(th, n_cool),
                                      np.tile(tc_grid, len(th)), periods, speeds, best[0])
            k = int(np.argmin(sse))
            if sse[k] < best[0]:
                best = (float(sse[k]), float(th[k // n_cool]),
                        float(tc_grid[k % n_cool]), float(eta0[k]))
        step_h = (th_grid[-1] - th_grid[0]) / (len(th_grid) - 1)
        step_c = (tc_grid[-1] - tc_grid[0]) / (len(tc_grid) - 1)
        th_grid = np.linspace(max(th_lo, best[1] - 1.5 * step_h),
                              min(th_hi, best[1] + 1.5 * step_h), 9)
        tc_grid = np.linspace(max(tc_lo, best[2] - 1.5 * step_c),
                              min(tc_hi, best[2] + 1.5 * step_c), 9)
    return best


def _speed_peak(fitted: Scenario, eta0: float, split_at: float) -> float:
    """First argmax of the fit's speed curve (slip scale eta0) on
    SWEEP_PERIODS by 0.01 s, evaluated up to split_at, then only where
    most/T beats the best: no stroke spans more than its cap (_arcs), so
    no cycle more than `most` (1e-14 covers cos's rounding near the cap,
    1e-12 the rest)."""
    ter, e = fitted.terrain, eta0 * fitted.terrain.anchor_efficiency

    def speed(periods):
        stand, sit, _, _ = stroke_arcs(fitted, periods, SWEEP_CYCLES)
        return (_net_advance(ter, e, stand, sit, True).sum(axis=-1)
                / (SWEEP_CYCLES * periods))

    fine = np.arange(SWEEP_PERIODS[0], SWEEP_PERIODS[1] + 1e-9, 0.01)
    split = int(np.searchsorted(fine, split_at, side="right"))
    v = speed(fine[:split])
    (cap_f, cap_r), leg = _drive_caps(fitted), fitted.robot.leg.leg_length
    most = _net_advance(ter, e, leg * (1.0 - math.cos(cap_f) + 1e-14),
                        leg / 2.0 * (1.0 - math.cos(cap_r) + 1e-14), True)
    later = fine[split:][most * (1.0 + 1e-12) / fine[split:] > np.max(v, initial=-np.inf)]
    v = np.concatenate([v, speed(later)]) if len(later) else v
    return float(fine[int(np.argmax(v))])


def thermal_fit_report(dataset: Dataset, template: Scenario,
                       peak_window: tuple[float, float] = SPEED_PEAK_WINDOW) -> CalibrationResult:
    """Actuator lag constants from the speed-vs-period curve.

    Grid search over (tau_heat, tau_cool), refined by grid shrinking (711
    candidates, profiled in blocks of whole tau_heat rows, at most one
    9 x 9 level per block; see _thermal_grid_search). Each candidate's
    overall slip scale is profiled out: the best of ETA0_GRID's 2001
    points, found exactly from a few grid points of the piecewise-quadratic
    SSE (see _profile_eta0). Bounds cut most candidates before any: they
    can beat neither their block nor the best so far. The rest need three,
    eta = 0 and the vertex bracket past the last knot; only a few have
    their knots sorted. The objective is an exact closed-form
    transcription of the simulator's period sweep, so data the simulator
    generated is recovered without bias.

    The template must be flat, unloaded and admitted by _closed_sweep. The
    residual is the RMS of the search's best SSE: the error at the fit of
    SWEEP_CYCLES whole cold-start cycles (stroke_arcs netted by
    gait._net_advance), which the peak check uses too and sweep_period's
    points match within rounding. Raises NoFeasibleFit when the fitted
    curve peaks outside peak_window (see _speed_peak).
    """
    periods = dataset.column("period_s")
    speeds = dataset.column("speed_mm_s") * 1e-3
    if len(periods) < 4:
        raise NoFeasibleFitError(
            f"thermal fit needs >= 4 (period, speed) points, got {len(periods)}")
    lo, hi = SWEEP_PERIODS  # sweep_period's range, checked before the search
    outside = periods[(periods < lo) | (periods > hi)]
    if len(outside):
        raise ValidationError(
            f"dataset {dataset.name!r}: period_s {outside[0].item()!r} "
            f"outside [{lo}, {hi}]")
    _check_power(dataset, "speed_mm_s", speeds)
    if (template.terrain.slope != 0.0 or template.payload_mass != 0.0
            or not _closed_sweep(template)):
        raise ValidationError(
            "the thermal fit expects a flat, unloaded template whose period "
            "sweep has a closed form: all legs at phase (0, 0), no ceiling, no "
            "slip noise, and i_high at or above i_threshold")
    order = np.argsort(periods)
    periods, speeds = periods[order], speeds[order]

    sse, tau_h, tau_c, eta0 = _thermal_grid_search(template, periods, speeds)
    fitted = replace(template.actuator, tau_heat=tau_h, tau_cool=tau_c)
    rmse = math.sqrt(sse / len(periods))

    peak = _speed_peak(replace(template, actuator=fitted), eta0, peak_window[1])
    if not (peak_window[0] <= peak <= peak_window[1]):
        raise NoFeasibleFitError(
            f"fitted speed curve peaks at {peak:.2f} s, outside "
            f"[{peak_window[0]}, {peak_window[1]}] s",
            best_loss=rmse)

    return CalibrationResult(
        name="thermal", method="grid + refinement, slip scale profiled",
        model=fitted,
        parameters={"tau_heat_s": tau_h, "tau_cool_s": tau_c,
                    "eta0_profile": eta0, "peak_s": peak},
        residual=rmse,
        bounds=dict(THERMAL_BOUNDS),
    )


def _invert_cycle_efficiency(speed: float, period: float, s_stand: float,
                             s_sit: float, half: float) -> float:
    """Efficiency that makes the steady cycle travel speed*period.

    The cycle displacement is piecewise linear in efficiency because each
    stroke independently stalls below the re-seat loss; invert the active
    branch.
    """
    d = speed * period
    if d <= 0.0:
        raise ValidationError(f"operating point speed {speed * 1e3:g} mm/s is not "
                              "positive: a cycle that does not advance is uninformative")
    eta_both = (d + 2.0 * half) / (s_stand + s_sit)
    if eta_both * s_sit >= half - 1e-15:
        return eta_both
    # otherwise the sit stroke stalls under the re-seat loss and only the
    # stand advances; that branch holds exactly when the one above fails
    return (d + half) / s_stand


def slip_fit_report(dataset: Dataset, template: Scenario) -> CalibrationResult:
    """Slip coefficients through the flat / slope / payload operating points.

    Exact three-point solve of the affine efficiency model (least squares
    when more points are given). The simulator's efficiency clamps to
    [0,1]; the fit warns when the envelope reaches a clamp.
    """
    slope_deg = dataset.column("slope_deg")
    payload = dataset.column("payload_g") * 1e-3
    speeds = dataset.column("speed_mm_s") * 1e-3
    n = len(speeds)
    if n < 3:
        raise TooFewPointsError(n, 3, what="operating points")
    if not template.all_legs:
        raise ValidationError("the slip fit expects an all-legs scenario template")

    stand, sit, _, _ = stroke_arcs(template, (template.signal.period,))
    if not stand[0] > 0.0:  # no efficiency moves a cycle without strokes
        raise ValidationError("the slip fit expects a template whose legs stand up: "
                              "its steady cycle has no stand stroke")
    anchor = template.terrain.anchor_efficiency
    if not anchor > 0.0:  # the claws keep nothing of any stroke
        raise ValidationError("the slip fit expects a template whose claws anchor: "
                              "its anchor efficiency is 0")
    # each inversion gives the whole stroke efficiency, slip times anchor
    etas = np.array([
        _invert_cycle_efficiency(float(v), template.signal.period,
                                 float(stand[0]), float(sit[0]),
                                 template.terrain.reseat_loss)
        for v in speeds
    ]) / anchor
    _check_power(dataset, "speed_mm_s", etas)

    total = template.robot.total_mass
    design = np.column_stack([
        np.ones(n), -np.sin(np.radians(slope_deg)), -payload / total,
    ])
    if n == 3:
        det = float(np.linalg.det(design))
        with np.errstate(over="ignore"):  # past the float limit: singular
            scale = np.abs(design).max() ** 3
        if abs(det) < 1e-12 * max(scale, 1.0):
            raise SingularSystemError(
                "operating points do not separate slope and load effects "
                f"(det={det:.3e})")
        coeff = np.linalg.solve(design, etas)
    else:
        coeff, _, rank, _ = np.linalg.lstsq(design, etas, rcond=None)
        if rank < 3:
            raise SingularSystemError("operating points are rank deficient")
    model = SlipModel(eta0=float(coeff[0]), c_slope=float(coeff[1]),
                      c_load=float(coeff[2]))

    warnings = []
    for s in (0.0, float(np.max(slope_deg))):
        for m in (0.0, float(np.max(payload))):
            eta = (model.eta0 - model.c_slope * math.sin(math.radians(s))
                   - model.c_load * m / total)
            if eta < 0.0 or eta > 1.0:
                warnings.append(
                    f"efficiency clamps to [0,1] at slope={s:g} deg, "
                    f"payload={m * 1e3:g} g (raw {eta:.3f})")

    fit_eta = design @ coeff
    residual = float(np.sqrt(np.mean((fit_eta - etas) ** 2)))
    return CalibrationResult(
        name="slip", method="exact affine solve through operating points",
        model=model,
        parameters={"eta0": model.eta0, "c_slope": model.c_slope,
                    "c_load": model.c_load},
        residual=residual,
        warnings=tuple(warnings),
    )


REQUIRED_DATASETS = ("stiffness_vs_current", "speed_vs_period", "operating_points")


def run_calibration(directory: Path | None = None) -> list[CalibrationResult]:
    """All three fits against a dataset directory.

    Returns the stiffness, thermal and slip results, in that order; each
    holds its fitted model. Raises EmptyDatasetError naming any missing
    dataset file.
    """
    directory = directory or data_dir()
    missing = [n for n in REQUIRED_DATASETS
               if not (directory / f"{n}.csv").exists()]
    if missing:
        raise EmptyDatasetError(
            "missing dataset files: "
            + ", ".join(f"{directory / (n + '.csv')}" for n in missing))
    template = Scenario(signal=GaitSignal(period=4.0))

    ds_stiff = load_dataset("stiffness_vs_current", directory)
    ds_speed = load_dataset("speed_vs_period", directory)
    ds_ops = load_dataset("operating_points", directory)

    stiffness = stiffness_fit_report(ds_stiff)
    thermal = thermal_fit_report(ds_speed, template)
    slip = slip_fit_report(ds_ops, replace(template, actuator=thermal.model,
                                           table=stiffness.model))
    return [stiffness, thermal, slip]
