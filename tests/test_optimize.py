"""Search routines: golden section, current bisection, mask selection."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_optimize
from ccpj import gait, optimize
from ccpj.errors import (
    AllMasksInfeasibleError,
    InfeasibleConfinementError,
    NotUnimodalError,
    OutOfRangeError,
    ValidationError,
)
from ccpj.gait import (
    MASKS,
    ActuatorModel,
    CurrentHeightMap,
    Scenario,
    Terrain,
    navigate_confined,
    predicted_transit_time,
    steady_cycle_displacement,
)
from ccpj.kinematics import standing_height
from ccpj.optimize import (
    SearchSpec,
    finest_tolerance,
    golden_section_max,
    max_feasible_current,
    optimize_period,
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


def each(f):
    """A batch objective that evaluates f at every abscissa it is given."""
    return lambda xs: [f(x) for x in xs]


class TestGoldenSection:
    @pytest.mark.parametrize("peak", [3.3, 2.05, 9.9])
    def test_finds_quadratic_peak(self, peak):
        x, y = golden_section_max(each(lambda t: -(t - peak) ** 2), 2.0, 10.0, 1e-4)
        assert x == pytest.approx(peak, abs=2e-4)
        assert y == -(x - peak) ** 2  # reported value is a true sample

    def test_kinked_objective(self):
        x, _ = golden_section_max(each(lambda t: 10.0 - abs(t - 5.1)), 2.0, 10.0, 1e-4)
        assert x == pytest.approx(5.1, abs=2e-4)

    def test_matches_brute_force_grid(self):
        def f(t):
            return math.sin(t) / (1.0 + 0.1 * (t - 4.0) ** 2)

        lo, hi = 0.5, 3.0
        grid = np.linspace(lo, hi, 20001)
        brute = max(f(g) for g in grid)
        x, y = golden_section_max(each(f), lo, hi, 1e-5)
        assert y >= brute - 1e-8

    def test_degenerate_bracket_rejected(self):
        with pytest.raises(ValidationError):
            golden_section_max(each(lambda t: t), 2.0, 2.0, 0.1)
        with pytest.raises(OutOfRangeError):
            golden_section_max(each(lambda t: t), 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("lo, hi", [(2.0, 10.0), (-1e6, 3.0), (0.5, 0.5 + 1e-12),
                                        (1e300, 1.5e300)])
    def test_tolerance_at_float_spacing_rejected(self, lo, hi):
        # the bracket cannot shrink below a few spacings: such a search
        # once never ended
        finest = finest_tolerance(lo, hi)
        for tol in (1e-300, finest):
            with pytest.raises(OutOfRangeError):
                golden_section_max(each(lambda t: -t * t), lo, hi, tol)
        calls = []
        golden_section_max(each(lambda t: calls.append(t) or -abs(t - 0.3 * (lo + hi))),
                           lo, hi, math.nextafter(finest, math.inf))
        assert len(calls) < 2000

    def test_batches_look_ahead(self):
        # the first batch holds c, d and the 2 + 4 + 8 + 16 points the next
        # four comparisons could need, the second the needed point and its
        # 30. Golden-section paths meet, so 4 and 4 of those are repeats,
        # asked once. The last holds the points to the end of the search.
        batches = []

        def f(xs):
            batches.append(len(xs))
            return [-(x - 3.3) ** 2 for x in xs]

        golden_section_max(f, 2.0, 10.0, 0.05)
        assert batches == [28, 27, 5]


# Objectives of s = (t - lo)/(hi - lo) in [0, 1], so that one drawn shape
# fits any bracket: a smooth peak, plateaus and steps whose comparisons tie
# (fc == fd), a constant, and two peaks, which the search need not resolve.
SHAPES = {
    "peak": lambda p, q, k: lambda s: -(s - p) ** 2,
    "plateaus": lambda p, q, k: lambda s: -float(math.floor(abs(s - p) * k)),
    "rounded": lambda p, q, k: lambda s: round((1.0 - abs(s - p)) * k) / k,
    "step": lambda p, q, k: lambda s: 1.0 if s >= p else 0.0,
    "constant": lambda p, q, k: lambda s: 0.0,
    "two_peaks": lambda p, q, k: lambda s: max(1.0 - 8.0 * abs(s - p),
                                               0.9 - 8.0 * abs(s - q)),
}


@st.composite
def searches(draw):
    """(lo, hi, tol, objective): brackets from a few float spacings to wide,
    at small and huge magnitudes, and tolerances from below the finest
    accepted to wider than the bracket."""
    lo = draw(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.5, 2.0, 1e300, -1e-300])))
    width = draw(st.one_of(st.floats(0.0, 10.0), st.sampled_from([1e-12, 1e-15, 5e-16])))
    hi = lo + width * max(1.0, abs(lo))
    finest = finest_tolerance(lo, hi)
    tol = draw(st.one_of(
        st.floats(-12.0, 0.5).map(lambda e: (hi - lo) * 10.0 ** e),
        st.floats(0.25, 1e3).map(lambda k: finest * k),
        st.just(math.nextafter(finest, math.inf))))
    shape = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    g = shape(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)),
              draw(st.sampled_from([1, 3, 10, 1000])))
    return lo, hi, tol, lambda t: g((t - lo) / (hi - lo))


@settings(max_examples=300, deadline=None)
@given(search=searches(), first_only=st.booleans())
def test_batched_search_property(search, first_only):
    """golden_section_max against the sequential search it replaced: the
    same (x, y) bit for bit, and each batch asked for exactly when the
    sequential path reaches a point no earlier batch answered, led by that
    point. first_only answers only the first point of each batch, as
    optimize_period does off the closed form: after the first such
    batch, the search asks for that point alone."""
    lo, hi, tol, f = search
    path, batches = [], []

    def one(t):
        path.append(t)
        return f(t)

    def batch(xs):
        batches.append(list(xs))
        return [f(x) for x in (xs[:1] if first_only else xs)]

    try:
        want = reference_optimize.golden_section_max(one, lo, hi, tol)
    except (ValidationError, OutOfRangeError) as err:
        with pytest.raises(type(err)):
            golden_section_max(batch, lo, hi, tol)
        assert batches == []
        return
    got = golden_section_max(batch, lo, hi, tol)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    known, calls = set(), iter(batches)
    for x in path:
        if x not in known:
            xs = next(calls)
            assert xs[0] == x
            known.update(xs[:1] if first_only else xs)
    assert next(calls, None) is None
    if first_only:
        assert all(len(xs) == 1 for xs in batches[1:])


def planted_sweep(speed):
    """A stand-in for sweep_period whose speed at each period is speed(T)."""
    return mock.patch.object(optimize, "sweep_period",
                             lambda sc, periods: [(t, speed(t)) for t in periods])


# optimize_period on the flat T = 4 s scenario as the sequential search,
# one sweep_period call per period, found it: lo, hi, tolerance -> (s, m/s)
SEQUENTIAL_OPTIMA = {
    (2.0, 10.0, 0.05): (3.978433730165718, 0.00850457810477184),
    (1.5, 9.5, 0.05): (3.984558435060147, 0.008509380187710058),
    (3.0, 5.0, 0.25): (3.9868443825035755, 0.008509619960585272),
    (0.5, 20.0, 0.01): (3.984660575932667, 0.008509459906782105),
    (2.5, 6.5, 1e-6): (3.9861750117406274, 0.008510640331084366),
    (0.5, 2.0, 0.05): (1.987804071866325, 0.0036339354676980635),
    (9.0, 19.0, 0.3): (9.081306187557834, 0.0037439548119832028),
}


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

    @pytest.mark.parametrize("bracket, optimum", list(SEQUENTIAL_OPTIMA.items()))
    def test_optimum_pinned(self, flat_scenario, bracket, optimum):
        assert optimize_period(SearchSpec(*bracket), flat_scenario) == optimum

    def test_shipped_search_batched(self, flat_scenario):
        # the coarse sweep and three batches, where one period a call took 19
        with mock.patch.object(optimize, "sweep_period",
                               wraps=optimize.sweep_period) as sweeps, \
                mock.patch.object(gait, "run") as engine:
            optimize_period(SearchSpec(2.0, 10.0, 0.05), flat_scenario)
        assert sweeps.call_count == 4
        assert engine.call_count == 0

    def test_engine_search_point_by_point(self, flat_scenario, dispatch_level):
        # front_only is off the closed form: every period needed is one run,
        # and none is run ahead of the search
        front = replace(flat_scenario,
                        signal=replace(flat_scenario.signal, mask=MASKS["front_only"]))
        with mock.patch.object(optimize, "sweep_period",
                               wraps=optimize.sweep_period) as sweeps, \
                mock.patch.object(gait, "run", wraps=gait.run) as engine:
            optimum = optimize_period(SearchSpec(2.0, 10.0, 0.05), front)
        # the speed's last place follows numpy's dispatch level
        speed = {"X86_V4": 0.005858235135396176, "below_X86_V4": 0.005858235135396177}
        assert optimum == (3.978433730165718, speed[dispatch_level])
        assert engine.call_count == 19
        assert [len(c.args[1]) for c in sweeps.call_args_list] == [5] + [1] * 14

    def test_flat_zero_objective(self, flat_scenario):
        # sub-threshold drive never moves: constant zero is (weakly) unimodal
        quiet = replace(flat_scenario,
                        signal=replace(flat_scenario.signal, i_high=0.2))
        spec = SearchSpec(lo=2.0, hi=10.0, tolerance=0.5)
        _, speed = optimize_period(spec, quiet)
        assert speed == 0.0


@pytest.fixture
def gated(robot, table):
    """The default build with its stiffness table: what the current search reads."""
    return Scenario(signal=GaitSignal(period=4.0), robot=robot, table=table)


def under(scenario, gap, region=(-math.inf, math.inf)):
    """The scenario under one ceiling region (m) of the given gap (m)."""
    return replace(scenario, terrain=Terrain(ceiling=((*region, gap),)))


class TestMaxFeasibleCurrent:
    def test_40mm_gap(self, gated):
        res = max_feasible_current(under(gated, 40e-3))
        assert res.current == pytest.approx(0.3775, abs=1e-6)
        assert res.height_m <= 40e-3
        assert res.height_m == pytest.approx(39.7475e-3, abs=1e-6)
        assert res.gap_m == 40e-3
        assert "current_a=" in res.summary()

    def test_20mm_gap_needs_front_only(self, gated):
        res = max_feasible_current(under(gated, 20e-3))
        assert res.current is None
        assert res.height_m is None
        assert res.summary() == ("max_feasible_current: none; gap_mm=20; "
                                 "recommend mask=front_only")

    def test_tall_gap_allows_full_current(self, gated):
        res = max_feasible_current(under(gated, 63.5e-3))
        assert res.current == gated.table.currents[-1] == 0.40
        res2 = max_feasible_current(under(gated, 0.1))
        assert res2.current == 0.40

    def test_monotone_in_gap(self, gated):
        # start above the threshold-current standing height (about 29.4 mm),
        # below which no feasible current exists at all
        gaps = np.linspace(30e-3, 63e-3, 34)
        currents = [max_feasible_current(under(gated, g)).current for g in gaps]
        assert all(c is not None for c in currents)
        assert all(b >= a - 1e-12 for a, b in zip(currents, currents[1:]))

    def test_height_at_result_fits(self, robot, gated):
        hmap = CurrentHeightMap.default(robot, ActuatorModel().i_threshold)
        for gap in (30e-3, 45e-3, 55e-3):
            res = max_feasible_current(under(gated, gap))
            h = standing_height(robot.leg.leg_length, hmap.beta_cap(res.current),
                                robot.height_offset)
            assert h <= gap + 1e-12

    def test_validation(self, gated):
        # no ceiling, or only one behind the envelope at x = 0: no gap is met
        for sc in (gated, under(gated, 40e-3, (-0.2, -0.1))):
            with pytest.raises(ValidationError, match="ceiling gap"):
                max_feasible_current(sc)
        with pytest.raises(ValidationError, match="stiffness_table"):
            max_feasible_current(replace(under(gated, 40e-3), table=None))

    def test_reads_the_gap_the_path_meets(self, gated):
        # a 5 mm region behind the start is never met: the 40 mm gate
        # ahead decides, as it does for navigate_confined
        sc = replace(gated, terrain=Terrain(
            ceiling=((-0.2, -0.1, 5e-3), (10e-3, 110e-3, 40e-3))))
        assert gait._met_gap(sc) == 40e-3
        assert max_feasible_current(sc) == max_feasible_current(under(gated, 40e-3))

    def test_map_and_threshold_from_scenario(self, gated):
        # a map that stands only 10 deg at a 0.33 A threshold fits under a
        # 25 mm gap, where the default map at 0.28 A does not; the search's
        # low end is the scenario's threshold
        robot = gated.robot
        gated = under(gated, 25e-3)
        hmap = CurrentHeightMap(anchors=((0.33, math.radians(10.0)),
                                         (0.40, math.radians(60.0))))
        sc = replace(gated, height_map=hmap,
                     actuator=replace(gated.actuator, i_threshold=0.33))
        assert max_feasible_current(gated).current is None
        res = max_feasible_current(sc)
        assert res.current == 0.334375
        assert res.height_m == standing_height(
            robot.leg.leg_length, hmap.beta_cap(res.current), robot.height_offset)
        assert res.height_m <= 25e-3
        assert max_feasible_current(replace(sc, actuator=gated.actuator)
                                    ).current == 0.33625000000000005


class TestPredictedTransit:
    def test_no_progress_is_infinite(self, flat_scenario):
        sc = replace(flat_scenario,
                     terrain=Terrain(ceiling=((10e-3, 110e-3, 20e-3),)))
        assert predicted_transit_time(sc) == math.inf

    def test_distance_accounting(self, flat_scenario):
        sc = replace(flat_scenario,
                     terrain=Terrain(ceiling=((10e-3, 110e-3, 40e-3),)))
        leg = sc.robot.leg.leg_length
        advance, _, _ = steady_cycle_displacement(sc)
        expected = (1.5 * leg + 50e-3 + 100e-3) / (advance / 4.0)
        assert predicted_transit_time(sc) == pytest.approx(expected, rel=1e-12)


class TestSelectMask:
    def test_needs_confinement(self, flat_scenario):
        with pytest.raises(ValidationError):
            select_mask(flat_scenario)

    def test_40mm_gate_prefers_all_legs(self):
        sc = Scenario(signal=GaitSignal(period=4.0, i_high=0.38),
                      terrain=Terrain(ceiling=((10e-3, 110e-3, 40e-3),)),
                      duration=60.0)
        choice = select_mask(sc)
        assert choice.name == "all" and MASKS[choice.name] == (True, True)
        assert choice.transit_time_s == pytest.approx(139.3, abs=0.5)
        assert "mask=all" in choice.summary()

    def test_20mm_gate_falls_back_to_front_only(self):
        sc = Scenario(signal=GaitSignal(period=4.0),
                      terrain=Terrain(ceiling=((10e-3, 110e-3, 20e-3),)),
                      duration=60.0)
        choice = select_mask(sc)
        assert choice.name == "front_only" and MASKS[choice.name] == (True, False)
        assert choice.average_speed == pytest.approx(0.241047e-3, abs=1e-8)
        # the choice it made really is feasible when re-run: no raise
        verify = replace(sc, signal=replace(sc.signal, mask=MASKS[choice.name]))
        _, report = navigate_confined(verify)
        assert report.mask_used == "front_only"

    @pytest.mark.parametrize("gap", [20e-3, 40e-3])
    def test_runs_the_winner_only(self, gap):
        # the masks are ranked in closed form: one simulator run, and no
        # gap bisection for the mask that loses
        sc = Scenario(signal=GaitSignal(period=4.0, i_high=0.38 if gap > 30e-3 else 0.4),
                      terrain=Terrain(ceiling=((10e-3, 110e-3, gap),)), duration=60.0)
        with mock.patch.object(gait, "run", wraps=gait.run) as engine, \
                mock.patch.object(gait, "_progress_gap_requirement",
                                  wraps=gait._progress_gap_requirement) as bisect:
            select_mask(sc)
        assert (engine.call_count, bisect.call_count) == (1, 0)

    def test_far_gate_picks_front_only(self):
        sc = Scenario(signal=GaitSignal(period=4.0),
                      terrain=Terrain(ceiling=((200e-3, 300e-3, 20e-3),)),
                      duration=200.0)
        choice = select_mask(sc)
        assert choice.name == "front_only"
        assert f"{choice.transit_time_s:.6g}" == "1040.87"

    def test_gate_40mm_front_only_transit(self):
        sc = Scenario(signal=GaitSignal(period=4.0, i_high=0.38, mask=MASKS["front_only"]),
                      terrain=Terrain(ceiling=((10e-3, 110e-3, 40e-3),)))
        assert f"{predicted_transit_time(sc):.6g}" == "189.004"

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
