"""Slip-stick gait simulator: actuator lag, terrain, runs, confinement, statics.

Frozen numbers below come from runs of this code pinned when the module was
written; they guard against behavioral drift. Structural properties (lattice
anchoring, monotonicity, the analytic speed ceiling) are checked alongside.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccpj.errors import (
    InfeasibleConfinementError,
    OutOfRangeError,
    ValidationError,
)
from ccpj.gait import (
    BRACE_SHARE,
    MASKS,
    MAX_STEPS,
    ActuatorModel,
    CurrentHeightMap,
    Scenario,
    SlipModel,
    Terrain,
    drag_width,
    gait_width,
    navigate_confined,
    run,
    static_load_check,
    steady_cycle_displacement,
    stroke_arcs,
    sweep_period,
)
from ccpj.kinematics import StrokeGeometry, cycle_speed, standing_height
from ccpj.params import GaitSignal, RobotParams


class TestActuatorModel:
    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            ActuatorModel(tau_heat=0.0)
        with pytest.raises(OutOfRangeError):
            ActuatorModel(tau_cool=-1.0)
        with pytest.raises(ValidationError):
            ActuatorModel(a_on=0.9, a_sat=0.8)

    def test_advance_exact_exponential(self):
        act = ActuatorModel()
        a = act.advance(0.0, 0.4, 1.0)
        assert a == pytest.approx(1.0 - math.exp(-1.0 / act.tau_heat), rel=1e-12)
        b = act.advance(1.0, 0.0, 0.7)
        assert b == pytest.approx(math.exp(-0.7 / act.tau_cool), rel=1e-12)

    def test_advance_threshold(self):
        act = ActuatorModel()
        # at-threshold current heats, just below cools
        assert act.advance(0.0, act.i_threshold, 1.0) > 0.0
        assert act.advance(0.5, act.i_threshold - 1e-3, 1.0) < 0.5

    def test_activation_stays_bounded(self):
        act = ActuatorModel()
        a = 0.0
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = act.advance(a, rng.choice([0.0, 0.4]), rng.uniform(0.0, 3.0))
            assert 0.0 <= a <= 1.0

    def test_saturation_after_long_heat(self):
        # a first-order lag closes to within e^-10 of target after 10 tau,
        # and within 1e-6 only after ~14 tau
        act = ActuatorModel()
        assert 1.0 - act.advance(0.0, 0.4, 10.0 * act.tau_heat) <= 5e-5
        assert 1.0 - act.advance(0.0, 0.4, 14.0 * act.tau_heat) <= 1e-6

    def test_window_clamps(self):
        act = ActuatorModel()
        assert act.window(0.0) == 0.0
        assert act.window(act.a_on) == 0.0
        assert act.window(act.a_sat) == 1.0
        assert act.window(1.0) == 1.0
        mid = 0.5 * (act.a_on + act.a_sat)
        assert act.window(mid) == pytest.approx(0.5, rel=1e-12)

    def test_steady_cycle_is_fixed_point(self, make_scenario):
        # stroke_arcs' steady band is where repeated heat/cool cycles settle
        cap = math.radians(60.0)  # full deployment at 0.4 A, no ceiling
        for period, duty in [(2.0, 0.5), (4.0, 0.5), (7.0, 0.3), (1.0, 0.8)]:
            sc = make_scenario(period=period, signal_kwargs={"duty": duty},
                               dt=period / 200.0)
            act = sc.actuator
            a_bot = 0.0
            for _ in range(200):
                a_top = act.advance(a_bot, 0.4, duty * period)
                a_bot = act.advance(a_top, 0.0, (1.0 - duty) * period)
            _, _, b_top, b_bot = stroke_arcs(sc, [period])
            assert b_top[0] == pytest.approx(act.window(a_top) * cap, rel=1e-12)
            assert b_bot[0] == pytest.approx(act.window(a_bot) * cap, rel=1e-12,
                                             abs=1e-15)
            assert 0.0 < a_bot < a_top < 1.0


class TestSlipModel:
    def test_flat_unloaded_is_eta0(self, robot):
        m = SlipModel()
        assert m.efficiency(0.0, 0.0, robot.total_mass) == m.eta0
        assert m.eta0 == pytest.approx(37.0 / 48.75, rel=1e-15)

    def test_slope_operating_point(self, robot):
        m = SlipModel()
        eta = m.efficiency(math.radians(15.0), 0.0, robot.total_mass)
        assert eta == pytest.approx(12.6 / 48.75, rel=1e-9)

    def test_payload_operating_point(self, robot):
        m = SlipModel()
        eta = m.efficiency(0.0, 5e-3, robot.total_mass)
        assert eta == pytest.approx(2.86 / 32.5, rel=1e-9)

    def test_clamps(self, robot):
        m = SlipModel()
        assert m.efficiency(math.radians(60.0), 0.0, robot.total_mass) == 0.0
        assert m.efficiency(math.radians(-20.0), 0.0, robot.total_mass) == 1.0


class TestCurrentHeightMap:
    def test_below_threshold_never_stands(self, robot):
        hmap = CurrentHeightMap.default(robot)
        assert hmap.beta_cap(0.1) == 0.0
        assert hmap.beta_cap(0.27) == 0.0

    def test_anchor_points(self, robot):
        hmap = CurrentHeightMap.default(robot)
        assert hmap.beta_cap(0.28) == pytest.approx(math.radians(20.0))
        assert hmap.beta_cap(0.40) == pytest.approx(math.radians(60.0))
        h038 = standing_height(robot.leg.leg_length, hmap.beta_cap(0.38),
                               robot.height_offset)
        assert h038 == pytest.approx(40e-3, abs=1e-12)

    def test_interpolates_between_anchors(self, robot):
        hmap = CurrentHeightMap.default(robot)
        b = hmap.beta_cap(0.39)
        assert hmap.beta_cap(0.38) < b < hmap.beta_cap(0.40)

    def test_anchor_currents_must_increase(self):
        with pytest.raises(ValidationError):
            CurrentHeightMap(anchors=((0.3, 0.2), (0.3, 0.5)))


class TestTerrain:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Terrain(surface="ice")
        with pytest.raises(OutOfRangeError):
            Terrain(pitch=0.0)
        with pytest.raises(OutOfRangeError):
            Terrain(pitch=1e-7)
        with pytest.raises(ValidationError):
            Terrain(ceiling=((0.2, 0.1, 0.04),))
        with pytest.raises(OutOfRangeError):
            Terrain(ceiling=((0.0, 0.1, 0.0),))
        with pytest.raises(OutOfRangeError):
            Terrain(tunnel_width=0.0)
        with pytest.raises(ValidationError):
            Terrain(mu_forward=0.5, mu_backward=0.2)

    def test_gap_queries(self):
        ter = Terrain(ceiling=((0.10, 0.20, 0.05), (0.30, 0.40, 0.03)))
        assert ter.confined
        assert ter.min_gap() == 0.03
        assert ter.gap_over(0.0, 0.05) == math.inf
        assert ter.gap_over(0.15, 0.16) == 0.05
        assert ter.gap_over(0.25, 0.35) == 0.03
        assert ter.gap_over(0.05, 0.45) == 0.03
        assert not Terrain().confined

    def test_widths(self, robot):
        deploy = math.radians(robot.leg_tilt_deploy)
        assert gait_width(robot, deploy) == pytest.approx(robot.deployed_width,
                                                          rel=1e-12)
        assert gait_width(robot, 0.0) > gait_width(robot, deploy)
        assert drag_width(robot) == robot.compact_box[1]


class TestScenarioValidation:
    def test_dt_cap(self):
        with pytest.raises(ValidationError):
            Scenario(signal=GaitSignal(period=4.0), dt=0.05)

    def test_duration_exceeds_period(self):
        with pytest.raises(ValidationError):
            Scenario(signal=GaitSignal(period=10.0), duration=10.0, dt=0.1)

    def test_payload_non_negative(self):
        with pytest.raises(OutOfRangeError):
            Scenario(signal=GaitSignal(period=4.0), payload_mass=-1e-3)

    def test_step_cap(self):
        # checked on construction: nothing is allocated or run
        Scenario(signal=GaitSignal(period=4.0), duration=MAX_STEPS * 0.04)
        with pytest.raises(ValidationError, match="cap"):
            Scenario(signal=GaitSignal(period=4.0), duration=(MAX_STEPS + 1) * 0.04)
        with pytest.raises(ValidationError, match="cap"):
            Scenario(signal=GaitSignal(period=4.0), duration=1e12)

    @pytest.mark.parametrize("field", ["dt", "duration", "payload_mass", "slip_noise"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValidationError):
            Scenario(signal=GaitSignal(period=4.0), **{field: math.nan})

    def test_slip_noise_at_most_one(self):
        Scenario(signal=GaitSignal(period=4.0), slip_noise=1.0)
        with pytest.raises(OutOfRangeError, match="slip_noise"):
            Scenario(signal=GaitSignal(period=4.0), slip_noise=1.5)

    def test_negative_seed_rejected(self):
        for noise in (0.0, 0.1):
            with pytest.raises(OutOfRangeError, match="seed"):
                Scenario(signal=GaitSignal(period=4.0), seed=-1, slip_noise=noise)
        Scenario(signal=GaitSignal(period=4.0), seed=0, slip_noise=0.1)

    def test_non_positive_dt_rejected(self):
        with pytest.raises(ValidationError):
            Scenario(signal=GaitSignal(period=4.0), dt=0.0)

    def test_nan_time_constants_and_period_rejected(self):
        with pytest.raises(OutOfRangeError):
            ActuatorModel(tau_heat=math.nan)
        with pytest.raises(OutOfRangeError):
            ActuatorModel(tau_cool=math.nan)
        with pytest.raises(ValidationError):
            GaitSignal(period=math.nan)

    def test_mask_names(self):
        for mask, name in [((True, True), "all"), ((True, False), "front_only"),
                           ((False, True), "rear_only"), ((False, False), "none")]:
            sc = Scenario(signal=GaitSignal(period=4.0, mask=mask))
            assert sc.mask_name() == name


class TestFlatRun:
    def test_frozen_speed_and_distance(self, flat_scenario):
        trace = run(flat_scenario)
        assert trace.average_speed == pytest.approx(8.2812e-3, abs=1e-7)
        assert trace.x[-1] == pytest.approx(203.71752478e-3, abs=1e-9)
        assert trace.t[0] == 0.0
        assert trace.duration == pytest.approx(24.6, abs=1e-12)

    def test_timestamps_strictly_increase(self, flat_scenario):
        trace = run(flat_scenario)
        assert np.all(np.diff(trace.t) > 0.0)

    def test_body_never_moves_backward(self, flat_scenario):
        trace = run(flat_scenario)
        assert np.all(np.diff(trace.x) >= -1e-15)

    def test_anchors_on_ratchet_lattice(self, flat_scenario):
        trace = run(flat_scenario)
        pitch = flat_scenario.terrain.pitch
        for xs, x0 in [(trace.anchor_front_x, trace.anchor_front_0),
                       (trace.anchor_rear_x, trace.anchor_rear_0)]:
            steps = (xs - x0) / pitch
            assert np.max(np.abs(steps - np.round(steps))) < 1e-6

    def test_zero_actuation_never_moves(self):
        # a wave that never clears the engagement threshold is a zero signal
        sc = Scenario(signal=GaitSignal(period=4.0, i_high=0.2))
        trace = run(sc)
        assert np.all(trace.x == trace.x[0])
        masked = Scenario(signal=GaitSignal(period=4.0, mask=(False, False)))
        assert run(masked).displacement == 0.0

    def test_dt_refinement_does_not_change_displacement(self, flat_scenario):
        coarse = run(flat_scenario)
        fine = run(replace(flat_scenario, dt=0.02))
        assert abs(fine.x[-1] - coarse.x[-1]) < 1e-9

    def test_deterministic_with_noise(self, flat_scenario):
        noisy = replace(flat_scenario, slip_noise=0.05, seed=3)
        a, b = run(noisy), run(noisy)
        assert a.to_csv() == b.to_csv()
        other = run(replace(noisy, seed=4))
        assert other.x[-1] != a.x[-1]

    def test_csv_header(self, flat_scenario):
        text = run(flat_scenario).to_csv()
        assert text.startswith(
            "t_s,x_mm,beta_front_deg,beta_rear_deg,height_mm,"
            "anchored_front,anchored_rear\n")
        assert len(text.strip().split("\n")) == 1 + 616  # header + snapshots


STEADY_TERRAINS = {
    "ratchet": Terrain(),
    "smooth": Terrain(surface="smooth"),
    "anchor_friction": Terrain(mu_forward=0.1, mu_backward=1.0),
    # short drag strokes: a claw can slide less than a tooth per cycle
    "ceiling_20mm": Terrain(ceiling=((-math.inf, math.inf, 20e-3),)),
}
STEADY_CASES = (
    [(mask, surface) for mask in ("all", "front_only", "rear_only")
     for surface in ("ratchet", "smooth")]
    + [("all", "anchor_friction"), ("front_only", "ceiling_20mm"),
       ("rear_only", "ceiling_20mm")]
)


def _steady_case(period, mask, terrain):
    # the all-leg ratchet cases keep their original period-only ids
    case_id = (str(period) if (mask, terrain) == ("all", "ratchet")
               else f"{mask}-{terrain}-{period}")
    return pytest.param(period, mask, terrain, id=case_id)


class TestSteadyCycle:
    @pytest.mark.parametrize("period, mask, terrain", [
        _steady_case(period, mask, terrain)
        for mask, terrain in STEADY_CASES for period in (2.0, 4.0, 7.0)
    ])
    def test_closed_form_matches_simulator(self, period, mask, terrain):
        # 12 cycles: the activation settles geometrically, and the fastest
        # cycle here still leaves a q^11 ~ 5e-13 residual
        sc = Scenario(signal=GaitSignal(period=period, mask=MASKS[mask]),
                      terrain=STEADY_TERRAINS[terrain],
                      duration=12.0 * period, dt=period / 200.0)
        trace = run(sc)
        n = 200  # steps per cycle at this dt
        d_sim = trace.x[12 * n] - trace.x[11 * n]
        d_closed, _, _ = steady_cycle_displacement(sc)
        assert d_sim == pytest.approx(d_closed, rel=1e-10, abs=1e-15)

    def test_smooth_surface_ideal_limit(self):
        # eta = 1, no ratchet: the cycle advance is the pure two-stroke form
        sc = Scenario(signal=GaitSignal(period=4.0),
                      terrain=Terrain(surface="smooth"),
                      slip=SlipModel(eta0=1.0, c_slope=0.0, c_load=0.0))
        d, b_top, b_bot = steady_cycle_displacement(sc)
        leg = sc.robot.leg.leg_length
        ideal = 1.5 * leg * (math.cos(b_bot) - math.cos(b_top))
        assert d == pytest.approx(ideal, rel=1e-12)
        trace = run(replace(sc, duration=24.0, dt=0.02))
        d_sim = trace.x[6 * 200] - trace.x[5 * 200]
        assert d_sim == pytest.approx(ideal, rel=1e-10)

    def test_speed_bounded_by_ideal_cycle(self):
        # the analytic two-stroke speed at the reached angles is an upper bound
        leg = RobotParams().leg.leg_length
        for period in (2.0, 4.0, 8.0):
            for slope_deg, payload in [(0, 0.0), (15, 0.0), (0, 5e-3)]:
                sc = Scenario(signal=GaitSignal(period=period),
                              terrain=Terrain(slope=math.radians(slope_deg)),
                              payload_mass=payload,
                              duration=6.0 * period, dt=period / 200.0)
                _, b_top, b_bot = steady_cycle_displacement(sc)
                ideal = cycle_speed(StrokeGeometry(leg, b_bot, b_top, period))
                assert run(sc).average_speed <= ideal + 1e-12


class TestSweepPeriod:
    def test_frozen_speed_curve(self, flat_scenario):
        frozen_mm_s = {
            1.0: 0.0, 2.0: 3.689440, 3.0: 7.061908, 4.0: 8.488230,
            5.0: 6.800000, 6.0: 5.666667, 8.0: 4.250000, 10.0: 3.400000,
        }
        curve = dict(sweep_period(flat_scenario, sorted(frozen_mm_s)))
        for period, want in frozen_mm_s.items():
            assert curve[period] * 1e3 == pytest.approx(want, abs=2e-6)

    def test_saturated_tail_exact(self, flat_scenario):
        # long periods saturate both strokes: distance per cycle is constant,
        # eta * 3L/2 * (1 - cos 60) minus two half-pitch re-seats = 34 mm
        for period, speed in sweep_period(flat_scenario, [5.0, 7.0, 12.0]):
            assert speed == pytest.approx(34e-3 / period, rel=1e-9)

    def test_period_range_validated(self, flat_scenario):
        with pytest.raises(OutOfRangeError):
            sweep_period(flat_scenario, [0.4])
        with pytest.raises(OutOfRangeError):
            sweep_period(flat_scenario, [21.0])


class TestSlopeAndPayload:
    def test_frozen_slope_speed(self):
        sc = Scenario(signal=GaitSignal(period=4.0),
                      terrain=Terrain(slope=math.radians(15.0)), duration=60.0)
        assert run(sc).average_speed == pytest.approx(2.398397e-3, abs=1e-8)

    def test_frozen_payload_speed(self):
        sc = Scenario(signal=GaitSignal(period=4.0), payload_mass=5e-3,
                      duration=40.0)
        assert run(sc).average_speed == pytest.approx(0.339454e-3, abs=1e-8)

    def test_speed_monotone_in_slope(self):
        speeds = []
        for deg in (0.0, 7.5, 15.0):
            sc = Scenario(signal=GaitSignal(period=4.0),
                          terrain=Terrain(slope=math.radians(deg)))
            speeds.append(run(sc).average_speed)
        assert speeds == sorted(speeds, reverse=True)

    def test_speed_monotone_in_payload(self):
        speeds = []
        for grams in (0.0, 2.5, 5.0):
            sc = Scenario(signal=GaitSignal(period=4.0), payload_mass=grams * 1e-3)
            speeds.append(run(sc).average_speed)
        assert speeds == sorted(speeds, reverse=True)


class TestNavigateConfined:
    def test_needs_confinement(self, flat_scenario):
        with pytest.raises(ValidationError):
            navigate_confined(flat_scenario)

    def test_gate_40mm_all_legs(self):
        sc = Scenario(signal=GaitSignal(period=4.0, i_high=0.38),
                      terrain=Terrain(ceiling=((10e-3, 110e-3, 40e-3),)),
                      duration=60.0)
        trace, report = navigate_confined(sc)
        assert report.mask_used == "all"
        assert report.feasible and report.all_legs_feasible
        assert report.min_gap_m == pytest.approx(40e-3)
        assert report.max_height_m <= 40e-3 + 1e-9
        assert trace.average_speed == pytest.approx(1.775359e-3, abs=1e-8)
        assert trace.x[-1] == pytest.approx(106.5215e-3, abs=1e-6)

    def test_gate_20mm_front_only(self):
        sc = Scenario(signal=GaitSignal(period=4.0, mask=(True, False)),
                      terrain=Terrain(ceiling=((10e-3, 110e-3, 20e-3),)),
                      duration=60.0)
        trace, report = navigate_confined(sc)
        assert report.mask_used == "front_only"
        assert report.feasible
        assert not report.all_legs_feasible
        assert report.max_height_m <= 20e-3 + 1e-9
        assert trace.average_speed == pytest.approx(0.241047e-3, abs=1e-8)

    def test_gate_20mm_all_legs_infeasible(self):
        sc = Scenario(signal=GaitSignal(period=4.0),
                      terrain=Terrain(ceiling=((10e-3, 110e-3, 20e-3),)),
                      duration=60.0)
        with pytest.raises(InfeasibleConfinementError) as exc:
            navigate_confined(sc)
        assert exc.value.available_mm == pytest.approx(20.0)
        assert exc.value.required_mm > 20.0

    def test_gap_below_body_height(self):
        sc = Scenario(signal=GaitSignal(period=4.0),
                      terrain=Terrain(ceiling=((10e-3, 110e-3, 5e-3),)),
                      duration=60.0)
        with pytest.raises(InfeasibleConfinementError) as exc:
            navigate_confined(sc)
        assert exc.value.required_mm == pytest.approx(
            RobotParams().height_offset * 1e3, abs=1e-6)

    def test_tunnel_too_narrow_for_tripod(self, robot):
        sc = Scenario(signal=GaitSignal(period=4.0),
                      terrain=Terrain(tunnel_width=40e-3))
        with pytest.raises(InfeasibleConfinementError) as exc:
            navigate_confined(sc)
        assert exc.value.required_mm == pytest.approx(
            gait_width(robot, 0.0) * 1e3, abs=1e-6)

    def test_narrow_tunnel_fits_drag_gait(self, robot):
        sc = Scenario(signal=GaitSignal(period=4.0, mask=(True, False)),
                      terrain=Terrain(tunnel_width=40e-3), duration=60.0)
        trace, report = navigate_confined(sc)
        assert report.mask_used == "front_only"
        assert report.width_required_m == drag_width(robot)
        assert not report.all_legs_feasible  # tripod too wide for 40 mm

    def test_tall_gap_is_inactive(self, flat_scenario):
        confined = replace(
            flat_scenario,
            terrain=replace(flat_scenario.terrain,
                            ceiling=((-math.inf, math.inf, 63.5e-3),)))
        trace, report = navigate_confined(confined)
        assert trace.to_csv() == run(flat_scenario).to_csv()
        assert report.all_legs_feasible


class TestStaticLoadCheck:
    @pytest.mark.parametrize("current,load_g,stands,drop_mm", [
        (0.4, 0.0, True, 0.2490),
        (0.4, 10.0, True, 3.4891),
        (0.4, 50.0, False, 9.4524),
        (0.0, 0.0, False, 8.4851),
        (0.0, 10.0, False, 13.2547),
    ])
    def test_frozen_verdicts(self, table, robot, current, load_g, stands, drop_mm):
        res = static_load_check(current, load_g * 1e-3, robot, table)
        assert res.stands is stands
        assert res.height_drop * 1e3 == pytest.approx(drop_mm, abs=1e-3)
        assert res.drop_limit == pytest.approx(6.35e-3, rel=1e-12)
        assert res.front_leg_sink == pytest.approx(res.height_drop * BRACE_SHARE)

    def test_negative_load_rejected(self, table, robot):
        with pytest.raises(OutOfRangeError):
            static_load_check(0.4, -1e-3, robot, table)


@settings(max_examples=8, deadline=None)
@given(period=st.floats(2.0, 6.0), duty=st.floats(0.35, 0.65))
def test_short_runs_stay_on_lattice_and_below_ideal(period, duty):
    sc = Scenario(signal=GaitSignal(period=period, duty=duty),
                  duration=3.0 * period + 0.01, dt=period / 120.0)
    trace = run(sc)
    pitch = sc.terrain.pitch
    for xs, x0 in [(trace.anchor_front_x, trace.anchor_front_0),
                   (trace.anchor_rear_x, trace.anchor_rear_0)]:
        steps = (xs - x0) / pitch
        assert np.max(np.abs(steps - np.round(steps))) < 1e-6
    assert np.all(np.diff(trace.x) >= -1e-15)
    _, b_top, b_bot = steady_cycle_displacement(sc)
    ideal = cycle_speed(StrokeGeometry(sc.robot.leg.leg_length,
                                       b_bot, b_top, period))
    assert trace.average_speed <= ideal + 1e-12
