"""Value types: range checks, table monotonicity, signal windows, ratios."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ccpj.errors import (
    NonMonotoneCurrentError,
    NonMonotoneStiffnessError,
    OutOfRangeError,
    TooFewPointsError,
    ValidationError,
    ZeroDimensionError,
)
from ccpj.params import (
    BeamParams,
    CalibrationTable,
    GaitSignal,
    RobotParams,
    compaction_ratio,
    weight_bearing_ratio,
)


class TestCurrent:
    """GaitSignal holds both drive currents to [0, MAX_CURRENT_A]."""

    def test_bounds_inclusive(self):
        sig = GaitSignal(period=4.0, i_high=0.5, i_low=0.0)
        assert (sig.i_high, sig.i_low) == (0.5, 0.0)

    @pytest.mark.parametrize("bad", [-0.01, 0.51, math.nan, math.inf, -math.inf])
    def test_out_of_range(self, bad):
        for field in ("i_high", "i_low"):
            with pytest.raises(OutOfRangeError) as exc:
                GaitSignal(period=4.0, **{field: bad})
            assert str(exc.value) == f"current_a={bad!r} outside [0.0, 0.5]"


def test_out_of_range_prints_numpy_scalars_as_numbers():
    # sweep_period hands on the elements of a numpy array of periods,
    # whose repr once read "period=np.float64(0.1)"
    from ccpj.gait import Scenario, sweep_period

    with pytest.raises(OutOfRangeError) as exc:
        sweep_period(Scenario(signal=GaitSignal(period=4.0)), np.array([0.1]))
    assert str(exc.value) == "period=0.1 outside [0.5, 20.0]"
    assert isinstance(exc.value.value, np.float64)
    err = OutOfRangeError("n_beads", np.int64(1), np.int64(2), math.inf)
    assert str(err) == "n_beads=1 outside [2, inf]"


class TestCalibrationTable:
    def test_from_points(self, table):
        assert table.currents[0] == 0.0
        assert table.currents[-1] == 0.40
        assert table.stiffnesses == (1.1, 1.5, 2.4, 4.2, 7.9, 14.6, 26.0, 42.0, 59.1)

    def test_duplicate_current_rejected(self):
        with pytest.raises(NonMonotoneCurrentError) as exc:
            CalibrationTable.from_points([(0.0, 1.1), (0.0, 2.0), (0.1, 3.0)])
        assert exc.value.index == 1

    def test_decreasing_current_rejected(self):
        with pytest.raises(NonMonotoneCurrentError):
            CalibrationTable.from_points([(0.1, 1.1), (0.0, 2.0)])

    def test_stiffness_tie_allowed(self):
        t = CalibrationTable.from_points([(0.0, 1.1), (0.1, 1.1), (0.2, 2.0)])
        assert t.stiffnesses == (1.1, 1.1, 2.0)

    @pytest.mark.parametrize("pts, error", [
        (((0.0, 1.1),), TooFewPointsError),
        (((0.0, 1.1), (0.0, 2.0)), NonMonotoneCurrentError),
        (((0.0, 2.0), (0.1, 1.9)), NonMonotoneStiffnessError),
        (((0.0, -0.5), (0.1, 1.0)), NonMonotoneStiffnessError),
        (((0.0, 1.1), (0.1, math.inf)), ValidationError),
    ])
    def test_direct_construction_validates(self, pts, error):
        # valid by construction: no path builds a table that skips the checks
        with pytest.raises(error):
            CalibrationTable(pts)
        with pytest.raises(error):
            replace(CalibrationTable(((0.0, 1.0), (0.1, 2.0))), points=pts)

    def test_stiffness_decrease_rejected(self):
        with pytest.raises(NonMonotoneStiffnessError) as exc:
            CalibrationTable.from_points([(0.0, 2.0), (0.1, 1.9)])
        assert exc.value.index == 1

    def test_negative_stiffness_rejected(self):
        with pytest.raises(NonMonotoneStiffnessError):
            CalibrationTable.from_points([(0.0, -0.5), (0.1, 1.0)])

    @pytest.mark.parametrize("pts", [[], [(0.0, 1.1)]])
    def test_too_few_points(self, pts):
        with pytest.raises(TooFewPointsError):
            CalibrationTable.from_points(pts)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            CalibrationTable.from_points([(0.0, 1.1), (0.1, math.nan)])


class TestBeamParams:
    def test_defaults(self):
        b = BeamParams()
        assert b.leg_length == pytest.approx(65e-3)

    def test_leg_length_consistency(self):
        # 20 beads of 3 mm cannot make a 40 mm leg
        with pytest.raises(ValidationError):
            BeamParams(leg_length=40e-3)

    @pytest.mark.parametrize("field,value", [
        ("bead_thickness", 0.0), ("leg_length", -1e-3), ("beam_mass", 0.0),
    ])
    def test_zero_dimensions(self, field, value):
        with pytest.raises((ZeroDimensionError, ValidationError)):
            BeamParams(**{field: value})

    def test_too_few_beads(self):
        with pytest.raises(OutOfRangeError):
            BeamParams(n_beads=1, leg_length=3e-3, slack=0.0)


class TestRobotParams:
    def test_body_mass_derived(self, robot):
        assert robot.body_mass == pytest.approx(2.1e-3 - 3 * 0.46e-3)

    def test_height_offset_default(self, robot):
        # stands 63.5 mm tall at the 60 degree deploy tilt, to the bit
        assert robot.height_offset == 63.5e-3 - 65e-3 * math.sin(math.radians(60.0))
        assert robot.height_offset == 0.0072083487540114885

    def test_height_offset_derived_from_the_tilt(self):
        # 63.5 mm less the 65 mm leg's rise at 50 degrees
        tilted = RobotParams(leg_tilt_deploy=50.0)
        assert tilted.height_offset == 63.5e-3 - 65e-3 * math.sin(math.radians(50.0))
        assert f"{tilted.height_offset * 1e3:.6g}" == "13.7071"
        # replace keeps a derived offset; None derives it again
        assert replace(tilted, leg_tilt_deploy=60.0).height_offset == tilted.height_offset
        assert replace(tilted, leg_tilt_deploy=60.0,
                       height_offset=None) == RobotParams()

    def test_total_mass_must_cover_legs(self):
        with pytest.raises(ValidationError):
            RobotParams(total_mass=1.0e-3)  # 3 legs alone weigh 1.38 g

    @pytest.mark.parametrize("field, value", [
        ("freestanding_height", -0.5), ("freestanding_height", math.nan),
        ("deployed_width", -0.5), ("deployed_width", 0.0), ("deployed_width", math.nan),
        ("height_offset", 0.0), ("height_offset", -1e-3), ("height_offset", math.nan),
        ("compact_box", (15e-3, -17e-3, 73e-3)), ("compact_box", (15e-3, math.nan, 73e-3)),
        ("deployed_box", (0.0, 120e-3, 64e-3)),
    ])
    def test_non_positive_sizes(self, field, value):
        with pytest.raises(ZeroDimensionError, match=f"^{field}="):
            RobotParams(**{field: value})

    def test_derived_height_offset_must_be_positive(self):
        # a body lower than the leg's rise would stand below its own feet
        with pytest.raises(ZeroDimensionError, match="^height_offset="):
            RobotParams(freestanding_height=50e-3)


class TestGaitSignal:
    @pytest.mark.parametrize("duty", [0.0, 1.0, -0.1, 1.5])
    def test_duty_open_interval(self, duty):
        with pytest.raises(OutOfRangeError):
            GaitSignal(period=4.0, duty=duty)

    def test_low_must_be_below_high(self):
        with pytest.raises(ValidationError):
            GaitSignal(period=4.0, i_high=0.3, i_low=0.3)
        with pytest.raises(ValidationError):
            GaitSignal(period=4.0, i_high=0.2, i_low=0.3)

    def test_currents_capped(self):
        with pytest.raises(OutOfRangeError):
            GaitSignal(period=4.0, i_high=0.6)

    def test_mask_phase_lengths(self):
        with pytest.raises(ValidationError):
            GaitSignal(period=4.0, mask=(True,))
        with pytest.raises(ValidationError):
            GaitSignal(period=4.0, phase=(0.0, 0.0, 0.0))

    def test_phase_range(self):
        with pytest.raises(OutOfRangeError):
            GaitSignal(period=4.0, phase=(0.0, 1.0))

    def test_square_wave(self):
        sig = GaitSignal(period=4.0)
        assert sig.current_at(0.0, 0) == 0.4
        assert sig.current_at(1.99, 0) == 0.4
        assert sig.current_at(2.0, 0) == 0.0
        assert sig.current_at(3.99, 0) == 0.0
        assert sig.current_at(4.0, 0) == 0.4

    def test_phase_shifts_wave(self):
        sig = GaitSignal(period=4.0, phase=(0.25, 0.0))
        assert sig.current_at(0.0, 0) == 0.0  # shifted group still low
        assert sig.current_at(1.0, 0) == 0.4
        assert sig.current_at(0.0, 1) == 0.4

    def test_masked_group_stays_low(self):
        sig = GaitSignal(period=4.0, mask=(True, False))
        assert all(sig.current_at(t, 1) == 0.0 for t in (0.0, 1.0, 3.0))
        assert sig.current_at(np.array([0.0, 1.0, 3.0]), 1).tolist() == [0.0] * 3

    def test_elementwise_matches_scalar(self):
        sig = GaitSignal(period=3.3, duty=0.37, i_low=0.1, phase=(0.3, 0.0))
        t = np.linspace(0.0, 20.0, 2001)
        for group in (0, 1):
            want = [sig.i_high if (v / sig.period - sig.phase[group]) % 1.0 < sig.duty
                    else sig.i_low for v in t.tolist()]
            assert sig.current_at(t, group).tolist() == want
            assert [sig.current_at(v, group) for v in t.tolist()] == want
        assert type(sig.current_at(1.0, 0)) is float


class TestRatios:
    def test_compaction_ratio(self, robot):
        assert compaction_ratio(robot) == pytest.approx(43.31990330378726, abs=1e-9)

    def test_compaction_zero_dimension(self, robot):
        # a box with a zero side is refused where it is built
        with pytest.raises(ZeroDimensionError, match="compact_box=0.0"):
            replace(robot, compact_box=(0.0, 17e-3, 73e-3))

    def test_weight_bearing_ratio(self, robot):
        assert weight_bearing_ratio(19.8, robot) == pytest.approx(
            9428.57142857143, abs=1e-6)

    def test_weight_bearing_needs_positive_load(self, robot):
        with pytest.raises(OutOfRangeError):
            weight_bearing_ratio(0.0, robot)
