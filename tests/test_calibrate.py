"""Calibration fits: datasets, isotonic repair, thermal and slip recovery.

The thermal fit objective is asserted against the simulator itself
(transcription test), then validated end to end by recovering known
constants from simulator-generated data.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ccpj import gait
from ccpj.calibrate import (
    REQUIRED_DATASETS,
    CalibrationResult,
    Dataset,
    _invert_cycle_efficiency,
    data_dir,
    fit_stiffness_table,
    isotonic_nondecreasing,
    load_dataset,
    run_calibration,
    slip_fit_report,
    stiffness_fit_report,
    thermal_fit_report,
)
from ccpj.errors import (
    EmptyDatasetError,
    NoFeasibleFitError,
    SingularSystemError,
    TooFewPointsError,
    ValidationError,
)
from ccpj.gait import ActuatorModel, Scenario, SlipModel, Terrain
from ccpj.params import GaitSignal
from reference_gait import simulated_sweep, sweep_speeds

# shipped stiffness knots, for comparing against the fitted table
TABLE_POINTS = (
    (0.00, 1.1), (0.05, 1.5), (0.10, 2.4), (0.15, 4.2), (0.20, 7.9),
    (0.25, 14.6), (0.30, 26.0), (0.35, 42.0), (0.40, 59.1),
)


def make_ds(name, columns, rows, source="synthetic: generated for this test",
            uncertainty=0.05):
    return Dataset(name=name, columns=tuple(columns),
                   rows=np.asarray(rows, dtype=float),
                   source=source, uncertainty=uncertainty)


@pytest.fixture
def template():
    return Scenario(signal=GaitSignal(period=4.0))


class TestDataset:
    def test_provenance_required(self):
        with pytest.raises(ValidationError):
            make_ds("x", ("a",), [[1.0]], source="measured on hardware")

    def test_uncertainty_must_be_fraction(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValidationError):
                make_ds("x", ("a",), [[1.0]], uncertainty=bad)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            make_ds("x", ("a",), np.empty((0, 1)))
        with pytest.raises(EmptyDatasetError):
            Dataset.from_csv("# name: x\n# uncertainty: 0.05\na,b\n")

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            make_ds("x", ("a",), [[math.nan]])

    def test_shape_must_match_columns(self):
        with pytest.raises(ValidationError):
            make_ds("x", ("a", "b"), [[1.0]])

    def test_missing_column_named(self):
        ds = make_ds("x", ("a",), [[1.0]])
        with pytest.raises(ValidationError, match="no column"):
            ds.column("z")

    @pytest.mark.parametrize("row", ["2,3,4", "2", "2,3,"])
    def test_ragged_row_rejected_like_a_non_numeric_one(self, row):
        head = "# name: x\n# source: synthetic: t\n# uncertainty: 0.05\na,b\n1,2\n"
        with pytest.raises(ValidationError, match=f"bad dataset row '{row}'"):
            Dataset.from_csv(head + row + "\n")
        with pytest.raises(ValidationError, match="bad dataset row '2,x'"):
            Dataset.from_csv(head + "2,x\n")

    def test_missing_uncertainty_header(self):
        with pytest.raises(ValidationError, match="uncertainty"):
            Dataset.from_csv("# name: x\n# source: synthetic: t\na\n1.0\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(EmptyDatasetError, match="cannot read dataset"):
            load_dataset("nope", tmp_path)

    def test_shipped_datasets_load(self, shipped_data_dir):
        for name in REQUIRED_DATASETS:
            ds = load_dataset(name, shipped_data_dir)
            head = ds.source.split(":")[0].split(" ")[0]
            assert head in ("digitized", "synthetic")


class TestIsotonic:
    def test_pool_adjacent_violators(self):
        out = isotonic_nondecreasing([1.0, 3.0, 2.0, 5.0])
        assert np.allclose(out, [1.0, 2.5, 2.5, 5.0])

    def test_monotone_input_unchanged(self):
        y = [1.0, 2.0, 2.0, 7.5]
        assert np.array_equal(isotonic_nondecreasing(y), y)

    def test_output_is_nondecreasing(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=50)
        out = isotonic_nondecreasing(y)
        assert np.all(np.diff(out) >= -1e-12)


class TestStiffnessFit:
    def test_shipped_curve_is_already_monotone(self, shipped_data_dir):
        ds = load_dataset("stiffness_vs_current", shipped_data_dir)
        table = fit_stiffness_table(ds)
        assert table.points == TABLE_POINTS
        report = stiffness_fit_report(ds)
        assert report.residual == 0.0
        assert report.warnings == ()

    def test_noisy_curve_repaired(self):
        ds = make_ds("noisy", ("current_a", "stiffness_n_m"),
                     [[0.0, 1.0], [0.1, 3.0], [0.2, 2.0], [0.3, 5.0]],
                     uncertainty=0.01)
        table = fit_stiffness_table(ds)
        assert table.stiffnesses == (1.0, 2.5, 2.5, 5.0)
        report = stiffness_fit_report(ds)
        # 0.5 N/m of repair on a 1% dataset deserves a warning
        assert any("uncertainty" in w for w in report.warnings)

    def test_rows_sorted_by_current(self):
        ds = make_ds("shuffled", ("current_a", "stiffness_n_m"),
                     [[0.2, 3.0], [0.0, 1.0], [0.1, 2.0]])
        assert fit_stiffness_table(ds).currents == (0.0, 0.1, 0.2)


class TestThermalFit:
    def test_objective_transcribes_simulator(self, template):
        # the closed-form sweep must equal the simulator's runs, cold start,
        # re-seat losses and all; this is what makes the fit unbiased
        act = ActuatorModel(tau_heat=1.0, tau_cool=0.45)
        periods = np.array([2.0, 3.0, 4.0, 6.0, 9.0])
        smooth_friction = replace(template, terrain=Terrain(
            surface="smooth", mu_forward=0.1, mu_backward=1.0))
        for tmpl in (template, smooth_friction):
            sc = replace(tmpl, actuator=act,
                         slip=SlipModel(eta0=0.66, c_slope=0.0, c_load=0.0))
            closed = sweep_speeds(sc, np.array([0.66]), periods)[0]
            assert np.max(np.abs(closed - simulated_sweep(sc, periods))) < 1e-12

    def test_recovers_known_constants(self, template):
        true = ActuatorModel(tau_heat=1.4, tau_cool=0.6)
        periods = [2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]
        sc = replace(template, actuator=true,
                     slip=SlipModel(eta0=0.7, c_slope=0.0, c_load=0.0))
        speeds = simulated_sweep(sc, periods) * 1e3
        ds = make_ds("synthetic_sweep", ("period_s", "speed_mm_s"),
                     list(zip(periods, speeds)))
        report = thermal_fit_report(ds, template, peak_window=(3.0, 5.0))
        assert report.parameters["tau_heat_s"] == pytest.approx(1.4, rel=0.05)
        assert report.parameters["tau_cool_s"] == pytest.approx(0.6, rel=0.05)
        assert report.parameters["eta0_profile"] == pytest.approx(0.7, abs=5e-4)
        assert report.residual < 1e-6  # m/s, data came from this simulator

    def test_shipped_dataset_fit(self, shipped_data_dir, template):
        ds = load_dataset("speed_vs_period", shipped_data_dir)
        report = thermal_fit_report(ds, template)
        assert 3.5 <= report.parameters["peak_s"] <= 4.5
        assert report.residual < 1e-4  # m/s rms against the 8.5 mm/s scale
        lo, hi = report.bounds["tau_heat_s"]
        assert lo <= report.parameters["tau_heat_s"] <= hi

    def test_needs_four_points(self, template):
        ds = make_ds("short", ("period_s", "speed_mm_s"),
                     [[2.0, 3.0], [4.0, 8.0], [8.0, 4.0]])
        with pytest.raises(NoFeasibleFitError):
            thermal_fit_report(ds, template)

    def test_peak_window_enforced(self, shipped_data_dir, template):
        ds = load_dataset("speed_vs_period", shipped_data_dir)
        with pytest.raises(NoFeasibleFitError) as exc:
            thermal_fit_report(ds, template, peak_window=(10.0, 12.0))
        assert exc.value.best_loss is not None and exc.value.best_loss >= 0.0

    def test_template_must_be_flat_alternating(self, shipped_data_dir, template):
        ds = load_dataset("speed_vs_period", shipped_data_dir)
        slope = replace(template,
                        terrain=replace(template.terrain, slope=0.1))
        with pytest.raises(ValidationError):
            thermal_fit_report(ds, slope)
        masked = replace(template,
                         signal=replace(template.signal, mask=(True, False)))
        with pytest.raises(ValidationError):
            thermal_fit_report(ds, masked)
        phased = replace(template,
                         signal=replace(template.signal, phase=(0.3, 0.0)))
        with pytest.raises(ValidationError):
            thermal_fit_report(ds, phased)

    def test_template_needs_a_closed_form_sweep(self, shipped_data_dir, template):
        # at equal phases other than 0 the cold start begins mid-cycle, and
        # the closed form misses the simulator's sweep by about 1 mm/s: the
        # fit would match a curve the simulator never gives
        ds = load_dataset("speed_vs_period", shipped_data_dir)
        phased = replace(template, signal=replace(template.signal, phase=(0.7, 0.7)))
        periods = np.arange(2.0, 10.0)
        closed = sweep_speeds(phased, np.array([phased.slip.eta0]), periods)[0]
        assert np.max(np.abs(closed - simulated_sweep(phased, periods))) > 1e-3
        ceiling = Terrain(ceiling=((-math.inf, math.inf, 50e-3),))
        for tmpl in (phased, replace(template, slip_noise=0.05),
                     replace(template, terrain=ceiling),
                     replace(template, signal=replace(template.signal, i_high=0.25))):
            with pytest.raises(ValidationError, match="closed form"):
                thermal_fit_report(ds, tmpl)


def _op_speeds_mm_s(template, slip):
    """Steady-cycle speeds (mm/s) at the three calibration operating points."""
    from ccpj.gait import steady_cycle_displacement

    ops = [(0.0, 0.0), (15.0, 0.0), (0.0, 5.0)]
    rows = []
    for slope_deg, payload_g in ops:
        sc = replace(
            template, slip=slip, payload_mass=payload_g * 1e-3,
            terrain=replace(template.terrain, slope=math.radians(slope_deg)))
        d, _, _ = steady_cycle_displacement(sc)
        rows.append([slope_deg, payload_g, d / template.signal.period * 1e3])
    return rows


class TestSlipFit:
    def test_exact_three_point_recovery(self, template):
        design = SlipModel(eta0=0.72, c_slope=1.2, c_load=0.25)
        rows = _op_speeds_mm_s(template, design)
        ds = make_ds("ops", ("slope_deg", "payload_g", "speed_mm_s"), rows)
        fitted = slip_fit_report(ds, template).model
        assert fitted.eta0 == pytest.approx(design.eta0, rel=1e-9)
        assert fitted.c_slope == pytest.approx(design.c_slope, rel=1e-9)
        assert fitted.c_load == pytest.approx(design.c_load, rel=1e-9)

    def test_recovery_on_a_claw_with_friction(self, template):
        # the inversion gives slip times anchor efficiency (0.8 here): the
        # fit must divide the anchor share out, not read it as slip
        claw = replace(template, terrain=Terrain(mu_forward=0.2, mu_backward=1.0))
        design = SlipModel(eta0=0.72, c_slope=1.2, c_load=0.25)
        ds = make_ds("ops", ("slope_deg", "payload_g", "speed_mm_s"),
                     _op_speeds_mm_s(claw, design))
        fitted = slip_fit_report(ds, claw).model
        assert fitted.eta0 == pytest.approx(design.eta0, rel=1e-9)
        assert fitted.c_slope == pytest.approx(design.c_slope, rel=1e-9)
        assert fitted.c_load == pytest.approx(design.c_load, rel=1e-9)

    def test_claw_that_never_anchors_rejected(self, template):
        rows = _op_speeds_mm_s(template, SlipModel())
        ds = make_ds("ops", ("slope_deg", "payload_g", "speed_mm_s"), rows)
        slick = replace(template, terrain=Terrain(mu_forward=0.5, mu_backward=0.5))
        with pytest.raises(ValidationError, match="anchor"):
            slip_fit_report(ds, slick)

    def test_recovery_through_stalled_sit_stroke(self, template):
        # a heavy payload stalls the sit stroke entirely; the piecewise
        # inversion must still pick the right branch
        design = SlipModel(eta0=0.72, c_slope=1.2, c_load=0.2688)
        rows = _op_speeds_mm_s(template, design)
        eta_loaded = design.efficiency(0.0, 5e-3, template.robot.total_mass)
        assert eta_loaded * 16.25e-3 < 1.5e-3  # sit stroke below the re-seat loss
        ds = make_ds("ops", ("slope_deg", "payload_g", "speed_mm_s"), rows)
        fitted = slip_fit_report(ds, template).model
        assert fitted.c_load == pytest.approx(design.c_load, rel=1e-9)

    def test_overdetermined_least_squares(self, template):
        design = SlipModel(eta0=0.72, c_slope=1.2, c_load=0.25)
        rows = _op_speeds_mm_s(template, design)
        extra = _op_speeds_mm_s(template, design)[1]
        extra[0] = 7.5
        sc = replace(template, slip=design,
                     terrain=replace(template.terrain, slope=math.radians(7.5)))
        from ccpj.gait import steady_cycle_displacement
        extra[2] = steady_cycle_displacement(sc)[0] / template.signal.period * 1e3
        ds = make_ds("ops4", ("slope_deg", "payload_g", "speed_mm_s"),
                     rows + [extra])
        fitted = slip_fit_report(ds, template).model
        assert fitted.c_slope == pytest.approx(design.c_slope, rel=1e-8)

    def test_singular_design_rejected(self, template):
        rows = [[0.0, 0.0, 8.0], [15.0, 0.0, 3.0], [15.0, 0.0, 2.9]]
        ds = make_ds("dup", ("slope_deg", "payload_g", "speed_mm_s"), rows)
        with pytest.raises(SingularSystemError):
            slip_fit_report(ds, template)

    def test_too_few_points(self, template):
        ds = make_ds("two", ("slope_deg", "payload_g", "speed_mm_s"),
                     [[0.0, 0.0, 8.0], [15.0, 0.0, 3.0]])
        with pytest.raises(TooFewPointsError):
            slip_fit_report(ds, template)

    def test_template_whose_legs_never_heat_rejected(self, template):
        # 0.25 A peaks below the 0.28 A threshold: both stroke arcs are 0,
        # and no efficiency moves the steady cycle
        rows = _op_speeds_mm_s(template, SlipModel())
        ds = make_ds("ops", ("slope_deg", "payload_g", "speed_mm_s"), rows)
        cold = replace(template, signal=replace(template.signal, i_high=0.25))
        with pytest.raises(ValidationError, match="stand"):
            slip_fit_report(ds, cold)

    def test_zero_speed_point_rejected(self, template):
        ds = make_ds("zero", ("slope_deg", "payload_g", "speed_mm_s"),
                     [[0.0, 0.0, 8.0], [15.0, 0.0, 0.0], [0.0, 5.0, 0.3]])
        with pytest.raises(ValidationError):
            slip_fit_report(ds, template)

    def test_shipped_points_warn_about_clamp(self, shipped_data_dir, template):
        ds = load_dataset("operating_points", shipped_data_dir)
        report = slip_fit_report(ds, template)
        assert any("clamps" in w for w in report.warnings)
        assert report.residual < 1e-9  # exact solve through three points


@settings(max_examples=200, deadline=None)
@given(stalled=st.booleans(), stand_mm=st.floats(1.0, 60.0),
       sit_ratio=st.floats(0.05, 2.0), pitch_mm=st.floats(0.5, 8.0),
       u=st.floats(0.01, 0.99), period=st.floats(0.5, 20.0))
# e * s_sit rounds onto the far side of the sit stroke's stall kink
@pytest.mark.fresh_seed
@example(stalled=False, stand_mm=1.0, sit_ratio=0.5000000000000001, pitch_mm=1.0,
         u=0.5, period=1.0)
def test_invert_cycle_efficiency_round_trip_property(stalled, stand_mm, sit_ratio,
                                                     pitch_mm, u, period):
    """_invert_cycle_efficiency undoes gait._net_advance on the all-legs
    gait, on the branch where both strokes advance and on the one where the
    sit stroke stalls under the re-seat loss. A draw near the kink may
    round onto the other branch; the advance is continuous there, so it
    must round-trip all the same."""
    ter = Terrain(pitch=pitch_mm * 1e-3)
    half = ter.reseat_loss
    s_stand, s_sit = stand_mm * 1e-3, sit_ratio * stand_mm * 1e-3
    if stalled:  # e * s_sit < half < e * s_stand
        lo, hi = half / s_stand, min(1.0, half / s_sit)
        assume(sit_ratio <= 0.9)
    else:  # both strokes net more than the loss
        lo, hi = half / min(s_stand, s_sit), 1.0
    assume(lo < hi)
    e = lo + u * (hi - lo)
    assume(e * s_stand > half)  # the cycle advances
    d = gait._net_advance(ter, e, np.array([s_stand]), np.array([s_sit]), True)[0]
    got = _invert_cycle_efficiency(d / period, period, s_stand, s_sit, half)
    assert got == pytest.approx(e, rel=1e-12)


class TestRunCalibration:
    def test_missing_files_are_listed(self, tmp_path):
        (tmp_path / "stiffness_vs_current.csv").write_text(
            "# name: stiffness_vs_current\n# source: synthetic: t\n"
            "# uncertainty: 0.05\ncurrent_a,stiffness_n_m\n0,1.1\n0.4,59.1\n")
        with pytest.raises(EmptyDatasetError) as exc:
            run_calibration(tmp_path)
        msg = str(exc.value)
        assert "speed_vs_period" in msg and "operating_points" in msg
        assert "stiffness_vs_current" not in msg

    def test_full_shipped_calibration(self, shipped_data_dir):
        results = run_calibration(shipped_data_dir)
        names = [r.name for r in results]
        assert names == ["stiffness_table", "thermal", "slip"]
        table, act, slip = (r.model for r in results)
        assert table.points == TABLE_POINTS
        assert 0.2 <= act.tau_heat <= 3.0 and 0.1 <= act.tau_cool <= 2.0
        assert (act.tau_heat, act.tau_cool) == (results[1].parameters["tau_heat_s"],
                                                results[1].parameters["tau_cool_s"])
        assert slip == SlipModel(**results[2].parameters)
        assert 0.0 < slip.eta0 < 1.0
        for r in results:
            assert isinstance(r, CalibrationResult)
            assert "rmse=" in r.summary()

    def test_calibration_is_reproducible(self, shipped_data_dir, template):
        ds = load_dataset("speed_vs_period", shipped_data_dir)
        r1 = thermal_fit_report(ds, template)
        r2 = thermal_fit_report(ds, template)
        assert r1.parameters == r2.parameters
        assert r1.residual == r2.residual


def test_data_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("CCPJ_DATA_DIR", str(tmp_path))
    assert data_dir() == tmp_path
