"""Search routines: golden section, current bisection, mask selection."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from ccpj import optimize
from ccpj.errors import (
    AllMasksInfeasibleError,
    InfeasibleConfinementError,
    NotUnimodalError,
    OutOfRangeError,
    ValidationError,
)
from ccpj.gait import CurrentHeightMap, Scenario, Terrain, navigate_confined
from ccpj.kinematics import standing_height
from ccpj.optimize import (
    FeasibilityReport,
    SearchSpec,
    finest_tolerance,
    golden_section_max,
    max_feasible_current,
    optimize_period,
    predicted_transit_time,
    select_mask,
)
from ccpj.params import GaitSignal


class TestSearchSpec:
    def test_defaults(self):
        spec = SearchSpec()
        assert (spec.lo, spec.hi, spec.tolerance) == (2.0, 10.0, 0.05)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SearchSpec(lo=5.0, hi=5.0)
        with pytest.raises(OutOfRangeError):
            SearchSpec(tolerance=0.0)


class TestGoldenSection:
    @pytest.mark.parametrize("peak", [3.3, 2.05, 9.9])
    def test_finds_quadratic_peak(self, peak):
        x, y = golden_section_max(lambda t: -(t - peak) ** 2, 2.0, 10.0, 1e-4)
        assert x == pytest.approx(peak, abs=2e-4)
        assert y == -(x - peak) ** 2  # reported value is a true sample

    def test_kinked_objective(self):
        x, _ = golden_section_max(lambda t: 10.0 - abs(t - 5.1), 2.0, 10.0, 1e-4)
        assert x == pytest.approx(5.1, abs=2e-4)

    def test_matches_brute_force_grid(self):
        def f(t):
            return math.sin(t) / (1.0 + 0.1 * (t - 4.0) ** 2)

        lo, hi = 0.5, 3.0
        grid = np.linspace(lo, hi, 20001)
        brute = max(f(g) for g in grid)
        x, y = golden_section_max(f, lo, hi, 1e-5)
        assert y >= brute - 1e-8

    def test_degenerate_bracket_rejected(self):
        with pytest.raises(ValidationError):
            golden_section_max(lambda t: t, 2.0, 2.0, 0.1)
        with pytest.raises(OutOfRangeError):
            golden_section_max(lambda t: t, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("lo, hi", [(2.0, 10.0), (-1e6, 3.0), (0.5, 0.5 + 1e-12),
                                        (1e300, 1.5e300)])
    def test_tolerance_at_float_spacing_rejected(self, lo, hi):
        # the bracket cannot shrink below a few spacings: such a search
        # once never ended
        finest = finest_tolerance(lo, hi)
        for tol in (1e-300, finest):
            with pytest.raises(OutOfRangeError):
                golden_section_max(lambda t: -t * t, lo, hi, tol)
        calls = []
        golden_section_max(lambda t: calls.append(t) or -abs(t - 0.3 * (lo + hi)),
                           lo, hi, math.nextafter(finest, math.inf))
        assert len(calls) < 2000


def planted_sweep(speed):
    """A stand-in for sweep_period whose speed at each period is speed(T)."""
    return mock.patch.object(optimize, "sweep_period",
                             lambda sc, periods: [(t, speed(t)) for t in periods])


class TestOptimizePeriod:
    def test_planted_peak(self, flat_scenario):
        spec = SearchSpec(lo=2.0, hi=10.0, tolerance=0.01)
        with planted_sweep(lambda t: -(t - 5.0) ** 2):
            x, y = optimize_period(spec, flat_scenario)
        assert x == pytest.approx(5.0, abs=0.02)

    def test_bimodal_objective_rejected(self, flat_scenario):
        def two_bumps(t):
            return (math.exp(-((t - 3.5) ** 2) / 2.0)
                    + math.exp(-((t - 8.5) ** 2) / 2.0))

        spec = SearchSpec(lo=2.0, hi=10.0, tolerance=0.05)
        with planted_sweep(two_bumps), pytest.raises(NotUnimodalError) as exc:
            optimize_period(spec, flat_scenario)
        assert len(exc.value.xs) == 5 and len(exc.value.ys) == 5

    def test_simulated_peak_near_four_seconds(self, flat_scenario):
        spec = SearchSpec(lo=3.0, hi=5.0, tolerance=0.25)
        period, speed = optimize_period(spec, flat_scenario)
        assert 3.5 <= period <= 4.5
        assert speed == pytest.approx(8.50e-3, abs=0.05e-3)

    def test_flat_zero_objective(self, flat_scenario):
        # sub-threshold drive never moves: constant zero is (weakly) unimodal
        quiet = replace(flat_scenario,
                        signal=replace(flat_scenario.signal, i_high=0.2))
        spec = SearchSpec(lo=2.0, hi=10.0, tolerance=0.5)
        _, speed = optimize_period(spec, quiet)
        assert speed == 0.0


class TestMaxFeasibleCurrent:
    def test_40mm_gap(self, robot, table):
        res = max_feasible_current(40e-3, robot, table)
        assert res.current == pytest.approx(0.3775, abs=1e-6)
        assert res.recommendation is None
        assert res.height_m <= 40e-3
        assert res.height_m == pytest.approx(39.7475e-3, abs=1e-6)
        assert "current_a=" in res.summary()

    def test_20mm_gap_needs_front_only(self, robot, table):
        res = max_feasible_current(20e-3, robot, table)
        assert res.current is None
        assert res.recommendation == "front_only"
        assert res.height_m is None
        assert "front_only" in res.summary()

    def test_tall_gap_allows_full_current(self, robot, table):
        res = max_feasible_current(63.5e-3, robot, table)
        assert res.current == table.currents[-1] == 0.40
        res2 = max_feasible_current(0.1, robot, table)
        assert res2.current == 0.40

    def test_monotone_in_gap(self, robot, table):
        # start above the threshold-current standing height (about 29.4 mm),
        # below which no feasible current exists at all
        gaps = np.linspace(30e-3, 63e-3, 34)
        currents = [max_feasible_current(g, robot, table).current for g in gaps]
        assert all(c is not None for c in currents)
        assert all(b >= a - 1e-12 for a, b in zip(currents, currents[1:]))

    def test_height_at_result_fits(self, robot, table):
        hmap = CurrentHeightMap.default(robot)
        for gap in (30e-3, 45e-3, 55e-3):
            res = max_feasible_current(gap, robot, table)
            h = standing_height(robot.leg.leg_length, hmap.beta_cap(res.current),
                                robot.height_offset)
            assert h <= gap + 1e-12

    def test_validation(self, robot, table):
        with pytest.raises(OutOfRangeError):
            max_feasible_current(0.0, robot, table)
        with pytest.raises(OutOfRangeError):
            max_feasible_current(40e-3, robot, table, resolution=0.0)


class TestPredictedTransit:
    def _report(self, advance):
        return FeasibilityReport(
            mask_used="all", all_legs_feasible=True,
            min_gap_m=40e-3, max_height_m=40e-3,
            predicted_cycle_advance_m=advance,
            width_required_m=0.1, width_available_m=math.inf)

    def test_no_progress_is_infinite(self, flat_scenario):
        sc = replace(flat_scenario,
                     terrain=Terrain(ceiling=((10e-3, 110e-3, 40e-3),)))
        assert predicted_transit_time(sc, self._report(0.0)) == math.inf

    def test_distance_accounting(self, flat_scenario):
        sc = replace(flat_scenario,
                     terrain=Terrain(ceiling=((10e-3, 110e-3, 40e-3),)))
        t = predicted_transit_time(sc, self._report(8e-3))
        leg = sc.robot.leg.leg_length
        expected = (1.5 * leg + 50e-3 + 100e-3) / (8e-3 / 4.0)
        assert t == pytest.approx(expected, rel=1e-12)


class TestSelectMask:
    def test_needs_confinement(self, flat_scenario):
        with pytest.raises(ValidationError):
            select_mask(flat_scenario)

    def test_40mm_gate_prefers_all_legs(self):
        sc = Scenario(signal=GaitSignal(period=4.0, i_high=0.38),
                      terrain=Terrain(ceiling=((10e-3, 110e-3, 40e-3),)),
                      duration=60.0)
        choice = select_mask(sc)
        assert choice.name == "all" and choice.mask == (True, True)
        assert choice.transit_time_s == pytest.approx(139.3, abs=0.5)
        assert choice.report.mask_used == "all"
        assert "mask=all" in choice.summary()

    def test_20mm_gate_falls_back_to_front_only(self):
        sc = Scenario(signal=GaitSignal(period=4.0),
                      terrain=Terrain(ceiling=((10e-3, 110e-3, 20e-3),)),
                      duration=60.0)
        choice = select_mask(sc)
        assert choice.name == "front_only" and choice.mask == (True, False)
        assert choice.average_speed == pytest.approx(0.241047e-3, abs=1e-8)
        # the choice it made really is feasible when re-run: no raise
        verify = replace(sc, signal=replace(sc.signal, mask=choice.mask))
        _, report = navigate_confined(verify)
        assert report.mask_used == "front_only"

    def test_impossible_gap_reports_all_failures(self):
        sc = Scenario(signal=GaitSignal(period=4.0),
                      terrain=Terrain(ceiling=((10e-3, 110e-3, 5e-3),)),
                      duration=60.0)
        with pytest.raises(AllMasksInfeasibleError) as exc:
            select_mask(sc)
        err = exc.value
        assert isinstance(err, InfeasibleConfinementError)
        assert set(err.failures) == {"all", "front_only"}
        assert "no leg mask fits" in str(err)
