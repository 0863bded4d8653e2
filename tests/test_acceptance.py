"""Release gate: one test per shipped acceptance criterion.

Run with `pytest -v tests/test_acceptance.py` to get a PASS/FAIL line per
criterion. Each test prints its headline numbers, so failures carry the
measured values alongside the tolerance that tripped.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ccpj.beam import (
    GRAVITY,
    BeamShape,
    FlexuralModel,
    LoadCase,
    _EnergyModel,
    ei_from_apparent,
    equilibrium_shape,
    is_deployed,
    max_chord_deviation,
    node_positions,
    stiffness_at,
    three_point_bend,
)
from ccpj.config import build_scenario, load_config
from ccpj.errors import InfeasibleConfinementError
from ccpj.gait import (
    Scenario,
    Terrain,
    navigate_confined,
    run,
    static_load_check,
    steady_cycle_displacement,
    sweep_period,
)
from ccpj.kinematics import (
    BETA_MAX,
    StrokeGeometry,
    cycle_speed,
    invert_beta,
    sit_advance,
    stand_advance,
)
from ccpj.optimize import golden_section_max, max_feasible_current
from ccpj.params import (
    BeamParams,
    CalibrationTable,
    GaitSignal,
    RobotParams,
    compaction_ratio,
    weight_bearing_ratio,
)

# Digitized stiffness-vs-current knots (A, N/m), as shipped.
TABLE_POINTS = (
    (0.00, 1.1), (0.05, 1.5), (0.10, 2.4), (0.15, 4.2), (0.20, 7.9),
    (0.25, 14.6), (0.30, 26.0), (0.35, 42.0), (0.40, 59.1),
)

SCENARIO_NAMES = ("flat_ratchet_T4", "slope_15", "payload_5g",
                  "gate_40mm", "gate_20mm", "tunnel_40x20")


def test_criterion_01_stroke_identities():
    """stand = 2 sit and v T = d_sit + d_stand, 1e4 random strokes, < 1 s."""
    rng = np.random.default_rng(20260817)
    n = 10_000
    legs = rng.uniform(1e-3, 0.5, n)
    alphas = rng.uniform(0.0, BETA_MAX, n)
    betas = alphas + rng.uniform(0.0, 1.0, n) * (BETA_MAX - alphas)
    periods = rng.uniform(0.1, 60.0, n)
    t0 = time.perf_counter()
    for leg, alpha, beta, period in zip(legs, alphas, betas, periods):
        g = StrokeGeometry(leg, alpha, beta, period)
        sit, stand = sit_advance(g), stand_advance(g)
        cycle = cycle_speed(g) * period
        assert abs(stand - 2.0 * sit) <= 1e-12 * max(abs(stand), 1e-300)
        assert abs(cycle - (sit + stand)) <= 1e-12 * max(abs(cycle), 1e-300)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: {n} strokes checked in {elapsed:.3f} s")
    assert elapsed < 1.0


def test_criterion_02_measured_stroke_point_and_inverse():
    """v(65 mm, 49.35 deg, 4 s) = 8.5 mm/s +- 0.05; invert_beta to 1e-9 rad."""
    v = cycle_speed(StrokeGeometry(65e-3, 0.0, math.radians(49.35), 4.0))
    print(f"criterion 2: v = {v * 1e3:.4f} mm/s (want 8.5 +- 0.05)")
    assert abs(v - 8.5e-3) <= 0.05e-3
    for alpha in (0.0, 0.2):
        for beta in (max(alpha, 0.05), 0.3, math.radians(49.35), 0.7, BETA_MAX):
            speed = cycle_speed(StrokeGeometry(65e-3, alpha, beta, 4.0))
            back = invert_beta(speed, 65e-3, 4.0, alpha)
            assert abs(back - beta) <= 1e-9


def test_criterion_03_stiffness_table_and_bend_test():
    """Table endpoints 1.1 / 59.1, ratio 53.7 +- 0.5%; 3PB slope within 5%."""
    t0 = time.perf_counter()
    table = CalibrationTable.from_points(TABLE_POINTS)
    params = BeamParams()
    k_lo, k_hi = stiffness_at(0.0, table), stiffness_at(0.40, table)
    assert k_lo == pytest.approx(1.1, rel=1e-12)
    assert k_hi == pytest.approx(59.1, rel=1e-12)
    assert k_hi / k_lo == pytest.approx(53.7, rel=0.005)
    worst = 0.0
    for current, k_app in TABLE_POINTS:
        flex = FlexuralModel.from_current(current, table, params)
        delta = 2e-3
        slope = three_point_bend(params, flex, delta) / delta
        worst = max(worst, abs(slope - k_app) / k_app)
        assert abs(slope - k_app) <= 0.05 * k_app
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: ratio = {k_hi / k_lo:.3f}, worst 3PB slope error "
          f"= {worst * 100:.2f}%, {elapsed:.1f} s")
    assert elapsed < 30.0


def test_criterion_04_cantilever_deployment():
    """Sagging at 0 A, deployed at 0.32 A, sag non-increasing in current."""
    table = CalibrationTable.from_points(TABLE_POINTS)
    params = BeamParams()
    currents = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.32, 0.35, 0.40]
    deviations = {}
    prev = None
    for current in currents:
        flex = FlexuralModel.from_current(current, table, params)
        res = equilibrium_shape(params, flex, initial=prev)
        prev = res.shape
        deviations[current] = max_chord_deviation(res.shape,
                                                  params.bead_thickness)
        if current == 0.0:
            assert not is_deployed(res.shape, params)
        if current in (0.32, 0.40):
            assert is_deployed(res.shape, params)
    devs = [deviations[c] for c in currents]
    assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    print(f"criterion 4: sag {devs[0] * 1e3:.3f} mm at 0 A -> "
          f"{deviations[0.32] * 1e3:.3f} mm at 0.32 A, monotone")


def test_criterion_05_solver_against_oracles():
    """Energy descent; FD gradient at 100 states; 5-joint brute force."""
    t0 = time.perf_counter()
    table = CalibrationTable.from_points(TABLE_POINTS)
    params = BeamParams()

    # (a) every accepted step lowers the energy
    for current, load in [
        (0.0, LoadCase()),
        (0.4, LoadCase(point_loads=((params.n_beads, 0.0, -0.05),))),
    ]:
        flex = FlexuralModel.from_current(current, table, params)
        res = equilibrium_shape(params, flex, load)
        hist = np.array(res.energy_history)
        assert np.all(np.diff(hist) <= 1e-12)
        assert res.grad_norm < 1e-9

    # (b) analytic gradient vs central differences at 100 random states
    flex = FlexuralModel.from_current(0.2, table, params)
    model = _EnergyModel(
        n_seg=params.n_beads, seg_len=params.bead_thickness,
        kappa=flex.ei / params.bead_thickness,
        masses=np.full(params.n_beads, params.beam_mass / params.n_beads),
        gravity=GRAVITY,
        point_loads=((params.n_beads, 2e-3, -4e-3), (10, -1e-3, 1e-3)),
        springs=[(params.n_beads, 1e5, -2e-3)],
        pinned=True,
    )
    rng = np.random.default_rng(11)
    eps = 1e-7
    worst_rel = 0.0
    for _ in range(100):
        x = rng.uniform(-0.3, 0.3, model.n_dof)
        grad, _ = model.gradient(*model.geometry(x))
        fd = np.empty_like(grad)
        for i in range(model.n_dof):
            dx = np.zeros(model.n_dof)
            dx[i] = eps
            fd[i] = (model.energy(x + dx) - model.energy(x - dx)) / (2 * eps)
        scale = max(1.0, float(np.max(np.abs(grad))))
        worst_rel = max(worst_rel, float(np.max(np.abs(grad - fd))) / scale)
        assert float(np.max(np.abs(grad - fd))) / scale < 1e-6

    # (c) brute-force coordinate search on a 5-joint chain finds the same tip
    small = BeamParams(n_beads=6, bead_thickness=3e-3, slack=0.0,
                       leg_length=18e-3)
    flex5 = FlexuralModel.from_current(0.1, table, small)
    load5 = LoadCase(point_loads=((small.n_beads, 0.0, -0.02),))
    res5 = equilibrium_shape(small, flex5, load5)
    tip_solver = node_positions(res5.shape, small.bead_thickness)[-1]

    brute = _EnergyModel(
        n_seg=small.n_beads, seg_len=small.bead_thickness,
        kappa=flex5.ei / small.bead_thickness,
        masses=np.full(small.n_beads, small.beam_mass / small.n_beads),
        gravity=GRAVITY, point_loads=load5.point_loads, springs=[],
        pinned=False,
    )
    x = np.zeros(brute.n_dof)
    for _ in range(400):
        moved = 0.0
        for j in range(brute.n_dof):
            def along(t, j=j):
                xt = x.copy()
                xt[j] = t
                return -brute.energy(xt)
            # one energy a call: the point the search needs, none ahead
            best_t, _ = golden_section_max(lambda ts: [along(ts[0])],
                                           x[j] - 0.6, x[j] + 0.6, tol=1e-11)
            moved = max(moved, abs(best_t - x[j]))
            x[j] = best_t
        if moved < 1e-11:
            break
    tip_brute = node_positions(BeamShape(tuple(x)), small.bead_thickness)[-1]
    gap = float(np.hypot(*(tip_brute - tip_solver)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: worst FD mismatch {worst_rel:.2e}, brute-force tip "
          f"gap {gap:.2e} m, {elapsed:.1f} s")
    assert gap < 1e-6
    assert elapsed < 60.0


def test_criterion_06_flat_gait_and_period_sweep():
    """Flat T=4: 8.5 mm/s and 209 mm, +-15%; sweep peaks in [3.5, 4.5] s."""
    sc = Scenario(signal=GaitSignal(period=4.0))
    trace = run(sc)
    v, d = trace.average_speed, trace.displacement
    assert abs(v - 8.5e-3) <= 0.15 * 8.5e-3
    assert abs(d - 209e-3) <= 0.15 * 209e-3

    periods = [1.0, 2.0, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 8.0, 10.0]
    points = sweep_period(sc, periods)
    speeds = dict(points)
    best_period = max(points, key=lambda pv: pv[1])[0]
    print(f"criterion 6: v = {v * 1e3:.3f} mm/s, d = {d * 1e3:.1f} mm, "
          f"sweep peak at {best_period} s")
    assert 3.5 <= best_period <= 4.5
    assert speeds[1.0] < 0.2 * speeds[4.0]
    assert speeds[10.0] < speeds[4.0]

    # no simulated run may beat the loss-free stroke at its own angles
    leg = sc.robot.leg.leg_length
    for period, speed in points:
        swept = replace(sc, signal=replace(sc.signal, period=period),
                        duration=6.0 * period, dt=period / 200.0)
        _, beta_top, beta_bot = steady_cycle_displacement(swept)
        ideal = cycle_speed(StrokeGeometry(leg, beta_bot, beta_top, period))
        assert speed <= ideal + 1e-12


def test_criterion_07_slope_and_payload():
    """15 deg -> 2.4 mm/s +-20%; 5 g -> 0.34 mm/s +-20%; both monotone."""
    v_slope = run(Scenario(signal=GaitSignal(period=4.0),
                           terrain=Terrain(slope=math.radians(15.0)),
                           duration=60.0)).average_speed
    v_load = run(Scenario(signal=GaitSignal(period=4.0), payload_mass=5e-3,
                          duration=40.0)).average_speed
    print(f"criterion 7: slope 15 deg -> {v_slope * 1e3:.3f} mm/s, "
          f"payload 5 g -> {v_load * 1e3:.3f} mm/s")
    assert abs(v_slope - 2.4e-3) <= 0.20 * 2.4e-3
    assert abs(v_load - 0.34e-3) <= 0.20 * 0.34e-3

    slope_speeds = [
        run(Scenario(signal=GaitSignal(period=4.0),
                     terrain=Terrain(slope=math.radians(s)))).average_speed
        for s in (0.0, 5.0, 10.0, 15.0)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(slope_speeds, slope_speeds[1:]))
    load_speeds = [
        run(Scenario(signal=GaitSignal(period=4.0),
                     payload_mass=m * 1e-3)).average_speed
        for m in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(load_speeds, load_speeds[1:]))


def test_criterion_08_confined_navigation():
    """40 mm gap: all legs fit, current cap near 0.38 A; 20 mm: front only."""
    region = ((10e-3, 110e-3, 40e-3),)
    gate40 = Scenario(signal=GaitSignal(period=4.0, i_high=0.38),
                      terrain=Terrain(ceiling=region), duration=60.0)
    trace40, report40 = navigate_confined(gate40)
    assert report40.all_legs_feasible
    assert report40.mask_used == "all"

    table = CalibrationTable.from_points(TABLE_POINTS)
    res = max_feasible_current(40e-3, replace(gate40, table=table))
    print(f"criterion 8: gap 40 mm -> max current {res.current:.4f} A, "
          f"gap 20 mm -> front-only")
    assert res.current <= 0.38 + 1e-9
    assert abs(res.current - 0.38) <= 0.03

    tight = ((10e-3, 110e-3, 20e-3),)
    gate20_all = Scenario(signal=GaitSignal(period=4.0),
                          terrain=Terrain(ceiling=tight), duration=60.0)
    with pytest.raises(InfeasibleConfinementError):
        navigate_confined(gate20_all)
    gate20_front = Scenario(signal=GaitSignal(period=4.0, mask=(True, False)),
                            terrain=Terrain(ceiling=tight), duration=60.0)
    trace20, report20 = navigate_confined(gate20_front)
    assert not report20.all_legs_feasible

    for trace, scenario in ((trace40, gate40), (trace20, gate20_front)):
        for xi, hi in zip(trace.x, trace.height):
            gap = scenario.terrain.gap_over(float(xi), float(xi))
            if math.isfinite(gap):
                assert hi <= gap + 1e-9


def test_criterion_09_statics_and_ratios():
    """Stands 10 g at 0.4 A; compaction 43.3 +- 0.1; load ratio 9429 +- 1."""
    robot = RobotParams()
    table = CalibrationTable.from_points(TABLE_POINTS)
    res = static_load_check(0.4, 10e-3, robot, table)
    comp = compaction_ratio(robot)
    wbr = weight_bearing_ratio(19.8, robot)
    print(f"criterion 9: drop {res.height_drop * 1e3:.3f} mm "
          f"(limit {res.drop_limit * 1e3:.2f}), compaction {comp:.4f}, "
          f"bearing ratio {wbr:.2f}")
    assert res.stands
    assert abs(comp - 43.3) <= 0.1
    assert abs(wbr - 9429.0) <= 1.0


def test_criterion_10_determinism(scenario_path):
    """Every shipped scenario reruns to a byte-identical trace CSV."""
    for name in SCENARIO_NAMES:
        sc = build_scenario(load_config(scenario_path(name)))
        csvs = []
        for _ in range(2):
            if sc.terrain.confined:
                trace, _ = navigate_confined(sc)
            else:
                trace = run(sc)
            csvs.append(trace.to_csv())
        assert csvs[0] == csvs[1], name
    print(f"criterion 10: {len(SCENARIO_NAMES)} scenarios byte-stable")
