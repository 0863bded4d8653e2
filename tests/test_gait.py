"""Slip-stick gait simulator: actuator lag, terrain, runs, confinement, statics.

Frozen numbers below come from runs of this code pinned when the module was
written; they guard against behavioral drift. Structural properties
(monotonicity, the analytic speed ceiling) are checked alongside. The lag
update `advance` is the reference stepper's, the rule `gait._activation`
evaluates in closed form.
"""

import hashlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reference_gait import advance, simulated_sweep
from ccpj import cli, gait
from ccpj.calibrate import load_dataset
from ccpj.config import build_scenario, load_config
from ccpj.errors import (
    InfeasibleConfinementError,
    OutOfRangeError,
    ValidationError,
)
from ccpj.gait import (
    BRACE_SHARE,
    MASKS,
    MAX_STEPS,
    SWEEP_CYCLES,
    ActuatorModel,
    CurrentHeightMap,
    Scenario,
    SlipModel,
    Terrain,
    average_speeds,
    drag_width,
    gait_width,
    navigate_confined,
    predicted_transit_time,
    run,
    static_load_check,
    steady_cycle_displacement,
    stroke_arcs,
    sweep_period,
)
from ccpj.kinematics import BETA_MAX, StrokeGeometry, cycle_speed, standing_height
from ccpj.params import MAX_CURRENT_A, GaitSignal, RobotParams


class TestActuatorModel:
    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            ActuatorModel(tau_heat=0.0)
        with pytest.raises(OutOfRangeError):
            ActuatorModel(tau_cool=-1.0)
        with pytest.raises(ValidationError):
            ActuatorModel(a_on=0.9, a_sat=0.8)

    @pytest.mark.parametrize("i_threshold", [-1e308, -0.0, 0.0, 0.5000001, 1e308,
                                             math.inf, math.nan])
    def test_threshold_outside_drive_range_rejected(self, i_threshold):
        with pytest.raises(OutOfRangeError):
            ActuatorModel(i_threshold=i_threshold)

    @pytest.mark.parametrize("i_threshold", [5e-324, 0.28, MAX_CURRENT_A])
    def test_threshold_inside_drive_range_accepted(self, i_threshold):
        assert ActuatorModel(i_threshold=i_threshold).i_threshold == i_threshold

    def test_advance_exact_exponential(self):
        act = ActuatorModel()
        a = advance(act, 0.0, 0.4, 1.0)
        assert a == pytest.approx(1.0 - math.exp(-1.0 / act.tau_heat), rel=1e-12)
        b = advance(act, 1.0, 0.0, 0.7)
        assert b == pytest.approx(math.exp(-0.7 / act.tau_cool), rel=1e-12)

    def test_advance_threshold(self):
        act = ActuatorModel()
        # at-threshold current heats, just below cools
        assert advance(act, 0.0, act.i_threshold, 1.0) > 0.0
        assert advance(act, 0.5, act.i_threshold - 1e-3, 1.0) < 0.5

    def test_activation_stays_bounded(self):
        # the extreme lag constants overflow elapsed/tau to inf, or
        # underflow it to 0, in the reference update and in gait.run
        for tau in (5e-324, 1.25, 0.5, 1e300):
            act = ActuatorModel(tau_heat=tau, tau_cool=min(tau, 0.5))
            a = 0.0
            rng = np.random.default_rng(0)
            for _ in range(200):
                a = advance(act, a, rng.choice([0.0, 0.4]), rng.uniform(0.0, 3.0))
                assert 0.0 <= a <= 1.0
            trace = run(Scenario(signal=GaitSignal(period=2.0, phase=(0.0, 0.3)),
                                 actuator=act, duration=5.0, dt=0.02))
            for lag in (trace.activation_front, trace.activation_rear):
                assert np.all((lag >= 0.0) & (lag <= 1.0)), tau
            assert np.all(np.isfinite(trace.x)), tau

    def test_saturation_after_long_heat(self):
        # a first-order lag closes to within e^-10 of target after 10 tau,
        # and within 1e-6 only after ~14 tau
        act = ActuatorModel()
        assert 1.0 - advance(act, 0.0, 0.4, 10.0 * act.tau_heat) <= 5e-5
        assert 1.0 - advance(act, 0.0, 0.4, 14.0 * act.tau_heat) <= 1e-6

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
                a_top = advance(act, a_bot, 0.4, duty * period)
                a_bot = advance(act, a_top, 0.0, (1.0 - duty) * period)
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
        hmap = CurrentHeightMap.default(robot, ActuatorModel().i_threshold)
        assert hmap.beta_cap(0.1) == 0.0
        assert hmap.beta_cap(0.27) == 0.0

    def test_anchor_points(self, robot):
        hmap = CurrentHeightMap.default(robot, ActuatorModel().i_threshold)
        assert hmap.beta_cap(0.28) == pytest.approx(math.radians(20.0))
        assert hmap.beta_cap(0.40) == pytest.approx(math.radians(60.0))
        h038 = standing_height(robot.leg.leg_length, hmap.beta_cap(0.38),
                               robot.height_offset)
        assert h038 == pytest.approx(40e-3, abs=1e-12)

    def test_interpolates_between_anchors(self, robot):
        hmap = CurrentHeightMap.default(robot, ActuatorModel().i_threshold)
        b = hmap.beta_cap(0.39)
        assert hmap.beta_cap(0.38) < b < hmap.beta_cap(0.40)

    def test_subthreshold_peak_never_stands(self):
        # a map anchored below the threshold gives a peak current the legs
        # never heat at a positive cap: the closed forms must still see a
        # flat gait, as the simulator does
        hmap = CurrentHeightMap(anchors=((0.2, math.radians(20.0)),
                                         (0.4, math.radians(60.0))))
        sc = Scenario(signal=GaitSignal(period=4.0, i_high=0.25), height_map=hmap)
        assert hmap.beta_cap(0.25) > 0.0
        assert run(sc).displacement == 0.0
        assert steady_cycle_displacement(sc)[0] == 0.0
        gate = replace(sc, terrain=Terrain(ceiling=((0.05, 0.1, 40e-3),)))
        with pytest.raises(InfeasibleConfinementError, match="no progress"):
            navigate_confined(gate)

    def test_anchor_currents_must_increase(self):
        with pytest.raises(ValidationError):
            CurrentHeightMap(anchors=((0.3, 0.2), (0.3, 0.5)))

    @pytest.mark.parametrize("beta", [-1e-300, -math.radians(10.0), math.nan,
                                      math.nextafter(BETA_MAX, math.inf),
                                      math.radians(80.0)])
    def test_anchor_angle_outside_zero_to_beta_max_rejected(self, beta):
        with pytest.raises(OutOfRangeError, match="height map angle"):
            CurrentHeightMap(anchors=((0.28, math.radians(20.0)), (0.4, beta)))
        CurrentHeightMap(anchors=((0.28, -0.0), (0.4, BETA_MAX)))

    def test_cap_never_above_the_anchors(self):
        # np.interp rounds this current, one ulp below the upper anchor's,
        # to one ulp above the upper anchor's angle
        i_top = 0.058501775339803365
        hmap = CurrentHeightMap(anchors=((0.01146691517706755, 0.03184170929887864),
                                         (i_top, BETA_MAX)))
        i = math.nextafter(i_top, 0.0)
        assert float(np.interp(i, *zip(*hmap.anchors))) > BETA_MAX
        assert hmap.beta_cap(i) == BETA_MAX


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
        assert ter.gap_over(-math.inf, math.inf) == 0.03
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

    @pytest.mark.parametrize("i_low", [0.28 - 1e-12, 0.28, 0.3])
    def test_low_current_that_heats_rejected(self, i_low):
        # legs that never cool stand once and stop, while the closed forms
        # would count a full stroke every cycle
        with pytest.raises(ValidationError, match=r"i_low_a=.* i_threshold_a=0\.28"):
            Scenario(signal=GaitSignal(period=4.0, i_low=i_low))
        Scenario(signal=GaitSignal(period=4.0, i_low=0.28 - 2e-12))

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

    def test_default_height_map_built_with_the_scenario(self, robot):
        sc = Scenario(signal=GaitSignal(period=4.0))
        assert sc.height_map == CurrentHeightMap.default(robot, 0.28)
        # a threshold at or above the 0.38 A anchor puts the default
        # anchors out of order: the scenario itself is rejected
        with pytest.raises(ValidationError, match="increasing currents"):
            Scenario(signal=GaitSignal(period=4.0),
                     actuator=ActuatorModel(i_threshold=0.38))

    def test_replace_keeps_the_map_unless_told_to_rebuild(self):
        sc = Scenario(signal=GaitSignal(period=4.0))
        tilted = RobotParams(leg_tilt_deploy=50.0)
        kept = replace(sc, robot=tilted)
        assert kept.height_map is sc.height_map
        rebuilt = replace(sc, robot=tilted, height_map=None)
        assert rebuilt.height_map == CurrentHeightMap.default(tilted, 0.28)
        assert rebuilt.height_map != sc.height_map
        hot = ActuatorModel(i_threshold=0.3)
        assert replace(sc, actuator=hot).height_map is sc.height_map
        assert (replace(sc, actuator=hot, height_map=None).height_map
                == CurrentHeightMap.default(sc.robot, 0.3))

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

    def test_shipped_displacement_dataset(self, shipped_data_dir, scenario_path):
        # displacement_vs_time_flat.csv is this run's trace resampled every
        # 2 s: each row lies within half a unit of its last printed digit
        trace = run(build_scenario(load_config(scenario_path("flat_ratchet_T4"))))
        data = load_dataset("displacement_vs_time_flat", shipped_data_dir)
        text = (shipped_data_dir / "displacement_vs_time_flat.csv").read_text()
        printed = [line.split(",")[1] for line in text.splitlines()
                   if line[:1].isdigit()]
        assert data.columns == ("t_s", "x_mm") and len(printed) == 13
        for (t, x_mm), digits in zip(data.rows, printed):
            row = int(np.argmin(np.abs(trace.t - t)))
            assert abs(trace.t[row] - t) < 1e-9
            half_unit = 0.5 * 10.0 ** -len(digits.partition(".")[2])
            assert abs(trace.x[row] * 1e3 - x_mm) <= half_unit, (t, digits)

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


@settings(max_examples=150, deadline=None)
@given(mask=st.sampled_from(sorted(MASKS)), surface=st.sampled_from(["ratchet", "smooth"]),
       pitch_mm=st.floats(0.5, 8.0),
       mu=st.one_of(st.just((0.0, math.inf)),
                    st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 2.0))),
       slope_deg=st.floats(-5.0, 20.0), payload_g=st.floats(0.0, 5.0),
       period=st.floats(0.5, 8.0), duty=st.floats(0.3, 0.7),
       tau_heat=st.floats(0.3, 2.5), tau_cool=st.floats(0.1, 1.5))
def test_steady_cycle_property(mask, surface, pitch_mm, mu, slope_deg, payload_g,
                               period, duty, tau_heat, tau_cool):
    """steady_cycle_displacement, whose drag-gait re-seat losses are a fixed
    point, against run's last cycle once the lag has settled: the cycle
    starts after n cycles with (e_h*e_c)**n <= 1e-14."""
    q = math.exp(-duty * period / tau_heat - (1.0 - duty) * period / tau_cool)
    n = next((k for k in range(1, 401) if q ** k <= 1e-14), None)
    assume(n is not None)
    sc = Scenario(signal=GaitSignal(period=period, duty=duty, mask=MASKS[mask]),
                  terrain=Terrain(slope=math.radians(slope_deg), surface=surface,
                                  pitch=pitch_mm * 1e-3, mu_forward=mu[0],
                                  mu_backward=mu[1]),
                  actuator=ActuatorModel(tau_heat=tau_heat, tau_cool=tau_cool),
                  payload_mass=payload_g * 1e-3,
                  duration=(n + 1) * period, dt=period / 200.0)
    x = run(sc).x
    d_closed, _, _ = steady_cycle_displacement(sc)
    assert x[200 * (n + 1)] - x[200 * n] == pytest.approx(d_closed, rel=1e-10, abs=1e-15)


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

    @pytest.mark.parametrize("scenario, digest", [
        (Scenario(signal=GaitSignal(period=4.0)),
         "6ae579e0ee15f7ea905f29f749c2661027404888ad0a2c600bdcec321f261ec6"),
        (Scenario(signal=GaitSignal(period=4.0, i_high=0.38, duty=0.4),
                  terrain=Terrain(slope=0.1, surface="smooth"), payload_mass=1e-3,
                  actuator=ActuatorModel(tau_heat=0.9)),
         "8a1232e1354603a656d38c8b368ddb62cdf7be6ed2fc972545a240aa0d54e534"),
    ])
    def test_thousand_periods_pinned(self, scenario, digest, dispatch_level):
        # sha256 of the speeds' bytes as one Scenario per period gave them,
        # at X86_V4; below it, the digest it maps to
        below_v4 = {
            "6ae579e0ee15f7ea905f29f749c2661027404888ad0a2c600bdcec321f261ec6":
                "fb260a4075c68e95a0635b6a2314b75346d5ab00be1cc442b25d5a71411a8a5a",
            "8a1232e1354603a656d38c8b368ddb62cdf7be6ed2fc972545a240aa0d54e534":
                "17d729ce6d0ff041efc07942c9c28da9935cee77fa14206abc6190bbe12b5d59",
        }
        want = digest if dispatch_level == "X86_V4" else below_v4[digest]
        speeds = [v for _, v in sweep_period(scenario, np.linspace(0.5, 20.0, 1001))]
        assert hashlib.sha256(np.array(speeds).tobytes()).hexdigest() == want


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
        assert report.all_legs_feasible
        assert report.min_gap_m == pytest.approx(40e-3)
        assert trace.height.max() <= 40e-3 + 1e-9
        assert trace.average_speed == pytest.approx(1.775359e-3, abs=1e-8)
        assert trace.x[-1] == pytest.approx(106.5215e-3, abs=1e-6)

    def test_region_behind_the_start_is_not_met(self):
        # a 5 mm region ending behind the envelope at x = 0 once failed the
        # flat-height check and set the reported gap, though the run never
        # meets it
        gate = Scenario(signal=GaitSignal(period=4.0, i_high=0.38),
                        terrain=Terrain(ceiling=((10e-3, 110e-3, 40e-3),)),
                        duration=60.0)
        sc = replace(gate, terrain=Terrain(
            ceiling=((-200e-3, -100e-3, 5e-3), (10e-3, 110e-3, 40e-3))))
        trace, report = navigate_confined(sc)
        assert trace.average_speed == run(gate).average_speed
        assert f"{trace.average_speed * 1e3:.6f}" == "1.775359"
        assert report.min_gap_m == 40e-3
        assert report.all_legs_feasible
        assert predicted_transit_time(sc) == predicted_transit_time(gate) < math.inf

    def test_gate_20mm_front_only(self):
        sc = Scenario(signal=GaitSignal(period=4.0, mask=(True, False)),
                      terrain=Terrain(ceiling=((10e-3, 110e-3, 20e-3),)),
                      duration=60.0)
        trace, report = navigate_confined(sc)
        assert report.mask_used == "front_only"
        assert not report.all_legs_feasible
        assert trace.height.max() <= 20e-3 + 1e-9
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

    @pytest.mark.parametrize("below", [5e-13, 2e-12, 0.0])
    def test_run_and_navigate_share_the_flat_height_rule(self, below):
        # a constant ceiling within 1e-12 m under the fully-flat height
        # once failed run's kinematics (UnreachableError) while
        # navigate_confined reported the flat-height fault
        offset = RobotParams().height_offset
        sc = Scenario(signal=GaitSignal(period=4.0), duration=8.0,
                      terrain=Terrain(ceiling=((-math.inf, math.inf, offset - below),)))

        def flat_fault(f):
            try:
                f(sc)
            except InfeasibleConfinementError as err:
                return err.reason == "gap below the fully-flat body height"
            return False

        assert flat_fault(run) == flat_fault(navigate_confined) == (below > 0.0)

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
        assert not report.all_legs_feasible  # tripod too wide for 40 mm
        # the drag gait needs its folded width: just below it, it fails
        narrow = replace(sc, terrain=Terrain(tunnel_width=0.99 * drag_width(robot)))
        with pytest.raises(InfeasibleConfinementError) as exc:
            navigate_confined(narrow)
        assert exc.value.required_mm == drag_width(robot) * 1e3

    def test_tall_gap_is_inactive(self, flat_scenario):
        confined = replace(
            flat_scenario,
            terrain=replace(flat_scenario.terrain,
                            ceiling=((-math.inf, math.inf, 63.5e-3),)))
        trace, report = navigate_confined(confined)
        assert trace.to_csv() == run(flat_scenario).to_csv()
        assert report.all_legs_feasible


    def test_far_gate_blocks_all_legs(self):
        # a gate beyond the look-ahead envelope at x = 0 is judged too:
        # the all-leg gait once stood in front of it with "status = ok"
        far = Terrain(ceiling=((200e-3, 300e-3, 20e-3),))
        sc = Scenario(signal=GaitSignal(period=4.0), terrain=far, duration=200.0)
        with pytest.raises(InfeasibleConfinementError) as exc:
            navigate_confined(sc)
        assert "all gait makes no progress" in str(exc.value)
        assert (round(exc.value.required_mm, 2), exc.value.available_mm) == (23.11, 20.0)
        front = replace(sc, signal=GaitSignal(period=4.0, mask=MASKS["front_only"]))
        _, report = navigate_confined(front)
        assert not report.all_legs_feasible

    def test_far_gate_transit_region_by_region(self):
        # 85 mm of approach at the unconfined advance, then 247.5 mm at the
        # gate's own; the all-leg gait never gets through
        sc = Scenario(signal=GaitSignal(period=4.0, mask=MASKS["front_only"]),
                      terrain=Terrain(ceiling=((200e-3, 300e-3, 20e-3),)))
        free, _, _ = steady_cycle_displacement(replace(sc, terrain=Terrain()))
        gated, _, _ = steady_cycle_displacement(
            replace(sc, terrain=Terrain(ceiling=((10e-3, 110e-3, 20e-3),))))
        assert predicted_transit_time(sc) == pytest.approx(
            85e-3 / (free / 4.0) + 247.5e-3 / (gated / 4.0), rel=1e-12)
        assert f"{predicted_transit_time(sc):.6g}" == "1040.87"
        assert predicted_transit_time(replace(sc, signal=GaitSignal(period=4.0))) == math.inf


def _confined_outcome(scenario):
    """The trace navigate_confined returns, or the (reason, needs, has) of
    the InfeasibleConfinementError it raises."""
    try:
        return navigate_confined(scenario)[0]
    except InfeasibleConfinementError as err:
        return err.reason, err.required_mm, err.available_mm


@settings(max_examples=60, deadline=None)
@given(x0=st.floats(0.0, 300.0), length=st.floats(1.0, 100.0),
       gap=st.floats(7.3, 70.0), mask=st.sampled_from(sorted(MASKS)))
def test_confinement_translation_property(x0, length, gap, mask):
    """A gate's verdict does not depend on where it stands: moved to any
    x0 in [0, 300] mm, navigate_confined passes or fails as it does with
    the gate at 10 mm, with the same needs and has; and a run given the
    predicted transit time, plus two periods for the cold start, carries
    the footprint past the gate's end."""
    def gated(start, duration=8.0):
        return Scenario(signal=GaitSignal(period=4.0, mask=MASKS[mask]),
                        terrain=Terrain(ceiling=((start * 1e-3, (start + length) * 1e-3,
                                                  gap * 1e-3),)),
                        duration=duration)

    far = gated(x0)
    transit = predicted_transit_time(far)
    if math.isfinite(transit):
        # a tenth of MAX_STEPS: a run that long takes ~30 MiB and ~0.07 s
        assume((transit + 2 * 4.0) / far.dt <= MAX_STEPS // 10)
        far = gated(x0, transit + 2 * 4.0)
    near, got = _confined_outcome(gated(10.0)), _confined_outcome(far)
    if isinstance(near, tuple):
        assert got == near
        return
    assert not isinstance(got, tuple) and math.isfinite(transit)
    assert got.x[-1] > (x0 + length) * 1e-3 + far.robot.leg.leg_length / 2.0


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


# Anchor angles at and just past the ends of [0, BETA_MAX], and far out
ANCHOR_ANGLES = st.one_of(
    st.floats(-0.2, BETA_MAX + 0.2),
    st.sampled_from([0.0, -0.0, BETA_MAX, math.nextafter(BETA_MAX, math.inf),
                     math.nextafter(0.0, -1.0), math.radians(80.0), math.nan]))


@settings(max_examples=200, deadline=None)
@example(anchors=[(0.01146691517706755, 0.03184170929887864),
                  (0.058501775339803365, BETA_MAX)],
         probes=[0.05850177533980336])
@given(anchors=st.lists(st.tuples(st.floats(0.0, MAX_CURRENT_A), ANCHOR_ANGLES),
                        max_size=4),
       probes=st.lists(st.floats(1e-9, MAX_CURRENT_A), max_size=3))
def test_height_map_property(anchors, probes):
    """A map is accepted iff it has two or more anchors, its currents
    increase and every angle is in [0, BETA_MAX]; an accepted map's drive
    caps, at the anchor currents, their neighbouring floats and drawn
    currents, lie in [0, BETA_MAX]."""
    cur = [c for c, _ in anchors]
    valid = (len(anchors) >= 2 and all(b > a for a, b in zip(cur, cur[1:]))
             and all(0.0 <= beta <= BETA_MAX for _, beta in anchors))
    try:
        hmap = CurrentHeightMap(anchors=tuple(anchors))
    except ValidationError:
        assert not valid
        return
    assert valid
    near = {math.nextafter(c, d) for c in cur for d in (0.0, 1.0)}
    for i in sorted({*probes, *cur, *near}):
        if not 1e-9 <= i <= MAX_CURRENT_A:  # a threshold the low current is below
            continue
        # the threshold at the peak current: the legs heat, the map decides
        sc = Scenario(signal=GaitSignal(period=4.0, i_high=i),
                      actuator=ActuatorModel(i_threshold=i), height_map=hmap)
        for cap in gait._drive_caps(sc):
            assert 0.0 <= cap <= BETA_MAX


@settings(max_examples=8, deadline=None)
@given(period=st.floats(2.0, 6.0), duty=st.floats(0.35, 0.65))
def test_short_runs_never_reverse_and_stay_below_ideal(period, duty):
    sc = Scenario(signal=GaitSignal(period=period, duty=duty),
                  duration=3.0 * period + 0.01, dt=period / 120.0)
    trace = run(sc)
    assert np.all(np.diff(trace.x) >= -1e-15)
    _, b_top, b_bot = steady_cycle_displacement(sc)
    ideal = cycle_speed(StrokeGeometry(sc.robot.leg.leg_length,
                                       b_bot, b_top, period))
    assert trace.average_speed <= ideal + 1e-12


# one change each that takes a scenario off sweep_period's closed form
OFF_CLOSED_FORM = {
    "phase": lambda sc, u: replace(sc, signal=replace(sc.signal, phase=(u, u))),
    "offset": lambda sc, u: replace(sc, signal=replace(sc.signal, phase=(0.0, u))),
    "noise": lambda sc, u: replace(sc, slip_noise=0.2 * u, seed=3),
    "ceiling": lambda sc, u: replace(sc, terrain=replace(
        sc.terrain, ceiling=((-math.inf, math.inf, (10.0 + 70.0 * u) * 1e-3),))),
    "mask": lambda sc, u: replace(sc, signal=replace(
        sc.signal, mask=MASKS["front_only" if u < 0.5 else "rear_only"])),
    "subthreshold": lambda sc, u: replace(sc, signal=replace(sc.signal, i_high=0.279 * u)),
}


@settings(max_examples=40, deadline=None)
@given(periods=st.lists(st.floats(0.5, 20.0), min_size=1, max_size=3),
       duty=st.floats(0.2, 0.8), tau_heat=st.floats(0.1, 3.0),
       tau_cool=st.floats(0.1, 3.0), slope_deg=st.floats(0.0, 20.0),
       payload_g=st.floats(0.0, 5.0), surface=st.sampled_from(["ratchet", "smooth"]),
       pitch_mm=st.floats(1.0, 30.0),
       mu=st.one_of(st.just((0.0, math.inf)),
                    st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 2.0))),
       i_high=st.floats(0.28, 0.5),
       off=st.sampled_from([None, *OFF_CLOSED_FORM]), u=st.floats(0.01, 0.99))
def test_closed_sweep_property(periods, duty, tau_heat, tau_cool, slope_deg,
                               payload_g, surface, pitch_mm, mu, i_high, off, u):
    """sweep_period against gait.run on its sweep scenario: within 1e-12 m/s
    on the closed form, which runs nothing; off it, one run per period and
    the same bits."""
    sc = Scenario(signal=GaitSignal(period=4.0, duty=duty, i_high=i_high),
                  terrain=Terrain(slope=math.radians(slope_deg), surface=surface,
                                  pitch=pitch_mm * 1e-3, mu_forward=mu[0],
                                  mu_backward=mu[1]),
                  actuator=ActuatorModel(tau_heat=tau_heat, tau_cool=tau_cool),
                  payload_mass=payload_g * 1e-3)
    if off is not None:
        sc = OFF_CLOSED_FORM[off](sc, u)
    with mock.patch.object(gait, "run", wraps=gait.run) as engine:
        points = sweep_period(sc, periods)
    assert engine.call_count == (0 if off is None else len(periods))
    assert [p for p, _ in points] == periods
    got, want = np.array([v for _, v in points]), simulated_sweep(sc, periods)
    if off is None:
        assert np.max(np.abs(got - want)) <= 1e-12
    else:
        assert got.tolist() == want.tolist()


def _period_edges(test):
    """The sweep's shortest and longest periods, from the default build and
    from a scenario at the drawn ranges' far ends."""
    for period in (0.5, 20.0):
        test = example(period=period, base=4.0, cycles=6.15, k=100.0, duty=0.5,
                       i_high=0.4, i_low=0.0, tau_heat=1.25, tau_cool=0.5,
                       slope_deg=0.0, payload_g=0.0)(test)
        test = example(period=period, base=20.0, cycles=1.01, k=1e4, duty=0.99,
                       i_high=MAX_CURRENT_A, i_low=0.27, tau_heat=1e-3,
                       tau_cool=10.0, slope_deg=-30.0, payload_g=50.0)(test)
    return test


@settings(max_examples=100, deadline=None)
@_period_edges
@given(period=st.one_of(st.sampled_from([0.5, 20.0, math.nextafter(0.5, 1.0),
                                         math.nextafter(20.0, 0.0)]),
                        st.floats(0.5, 20.0)),
       base=st.floats(0.5, 20.0), cycles=st.floats(1.01, 50.0), k=st.floats(100.0, 1e4),
       duty=st.floats(0.01, 0.99), i_high=st.floats(0.28, MAX_CURRENT_A),
       i_low=st.floats(0.0, 0.27), tau_heat=st.floats(1e-3, 10.0),
       tau_cool=st.floats(1e-3, 10.0), slope_deg=st.floats(-30.0, 30.0),
       payload_g=st.floats(0.0, 50.0))
def test_closed_sweep_period_variant_property(period, base, cycles, k, duty, i_high,
                                              i_low, tau_heat, tau_cool, slope_deg,
                                              payload_g):
    """On the closed form sweep_period builds no Scenario per period. The
    one it stands for, at any period in [0.5, 20] s from any scenario,
    passes every check its construction runs, and average_speeds on it
    gives the sweep's bits."""
    sc = Scenario(signal=GaitSignal(period=base, duty=duty, i_high=i_high, i_low=i_low),
                  terrain=Terrain(slope=math.radians(slope_deg)),
                  actuator=ActuatorModel(tau_heat=tau_heat, tau_cool=tau_cool),
                  payload_mass=payload_g * 1e-3, duration=cycles * base, dt=base / k)
    variant = replace(sc, signal=replace(sc.signal, period=period),
                      duration=SWEEP_CYCLES * period, dt=period / 200.0)
    with mock.patch.object(gait, "run") as engine:
        assert sweep_period(sc, [period]) == [(period, average_speeds([variant])[0])]
    assert engine.call_count == 0


def _sweep_variant(sc, param, value):
    """The variant `sweep --param` builds for one value."""
    if param == "slope":
        return replace(sc, terrain=replace(sc.terrain, slope=math.radians(value)))
    if param == "payload":
        return replace(sc, payload_mass=value * 1e-3)
    return replace(sc, signal=replace(sc.signal, i_high=value))


# a drawn run length in periods: anywhere in [1.01, 15], or within 1e-12 to
# 1e-6 periods of a heat or cool edge
RUN_CYCLES = st.one_of(
    st.floats(1.01, 15.0).map(lambda c: (c, None)),
    st.tuples(st.integers(1, 14), st.sampled_from(["cool", "heat"]),
              st.floats(-12.0, -6.0), st.sampled_from([-1.0, 1.0])),
)


@settings(max_examples=60, deadline=None)
@given(param=st.sampled_from(["slope", "payload", "current"]),
       us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       period=st.floats(0.5, 20.0), duty=st.floats(0.2, 0.8),
       tau_heat=st.floats(0.1, 3.0), tau_cool=st.floats(0.1, 3.0),
       surface=st.sampled_from(["ratchet", "smooth"]), pitch_mm=st.floats(1.0, 30.0),
       mu=st.one_of(st.just((0.0, math.inf)),
                    st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 2.0))),
       cycles=RUN_CYCLES, k=st.sampled_from([100, 120, 200]),
       off=st.sampled_from([None, *OFF_CLOSED_FORM]), u=st.floats(0.01, 0.99))
def test_closed_sweep_values_property(param, us, period, duty, tau_heat, tau_cool,
                                      surface, pitch_mm, mu, cycles, k, off, u):
    """Slope, payload and current sweeps against gait.run at the scenario's
    own duration: within 1e-12 m/s where the closed form admits the value,
    which runs nothing; off it, one run per value and the same bits."""
    if cycles[1] is None:
        n_cycles = cycles[0]
    else:  # just before or after the edge where heating (whole) or cooling starts
        whole, edge, exponent, sign = cycles
        n_cycles = whole + (duty if edge == "cool" else 0.0) + sign * 10.0 ** exponent
        n_cycles = n_cycles if n_cycles > 1.0 else n_cycles + duty
    sc = Scenario(signal=GaitSignal(period=period, duty=duty),
                  terrain=Terrain(surface=surface, pitch=pitch_mm * 1e-3,
                                  mu_forward=mu[0], mu_backward=mu[1]),
                  actuator=ActuatorModel(tau_heat=tau_heat, tau_cool=tau_cool),
                  duration=n_cycles * period, dt=period / k)
    if off is not None:
        sc = OFF_CLOSED_FORM[off](sc, u)
    # slope 0-20 deg, payload 0-5 g, current from the threshold to 0.5 A, or
    # below the threshold when that is what takes the sweep off the form
    scale = {"slope": (0.0, 20.0), "payload": (0.0, 5.0),
             "current": (0.001, 0.279) if off == "subthreshold" else (0.28, 0.5)}
    lo, hi = scale[param]
    values = [lo + (hi - lo) * v for v in us]
    with mock.patch.object(gait, "run", wraps=gait.run) as engine:
        got = cli._swept_speeds(param, values, sc)
    assert engine.call_count == (0 if off is None else len(values))
    want = [run(_sweep_variant(sc, param, v)).average_speed for v in values]
    if off is None:
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12
    else:
        assert got == want


def test_closed_sweep_current_straddles_threshold(flat_scenario):
    # 0.20 to 0.26 A never heat: the engine runs them and they stand still;
    # the rest come from the closed form
    values = cli._range_values("0.20:0.40:0.02", "")
    below = [v for v in values if v < flat_scenario.actuator.i_threshold - 1e-12]
    assert len(below) == 4
    with mock.patch.object(gait, "run", wraps=gait.run) as engine:
        got = cli._swept_speeds("current", values, flat_scenario)
    assert [c.args[0].signal.i_high for c in engine.call_args_list] == below
    assert got[:4] == [0.0] * 4
    want = [run(_sweep_variant(flat_scenario, "current", v)).average_speed
            for v in values[4:]]
    assert np.max(np.abs(np.array(got[4:]) - want)) <= 1e-12


def test_closed_sweep_of_long_runs_split_into_passes(flat_scenario):
    # runs of 5000.2 cycles: 26 runs fit in one pass's 2**17 (run, cycle)
    # pairs, so 30 runs take two, whose ends still match the engine
    sc = replace(flat_scenario, duration=5000.2 * 4.0)
    variants = [_sweep_variant(sc, "slope", 0.5 * j) for j in range(30)]
    with mock.patch.object(gait, "_net_advance", wraps=gait._net_advance) as passes:
        got = average_speeds(variants)
    assert [len(c.args[1]) for c in passes.call_args_list] == [26, 4]
    for j in (0, 25, 26, 29):
        assert abs(got[j] - run(variants[j]).average_speed) <= 1e-12
