"""The thermal fit's slip-scale profile against the brute-force grid.

`calibrate._profile_eta0` evaluates only the grid points that can hold the
minimum. `grid_profile` below is the brute force it replaced: the sweep SSE
at every one of the 2001 slip scales in linspace(0, 1, 2001), then argmin,
so ties go to the smallest eta. The arithmetic is unchanged, so the two
must agree with `==` on both floats, not within a tolerance.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccpj import calibrate as cal
from ccpj.gait import (
    SWEEP_CYCLES,
    ActuatorModel,
    Scenario,
    SlipModel,
    Terrain,
    stroke_arcs,
    sweep_period,
)
from ccpj.params import GaitSignal


def grid_profile(template, actuator, periods, speeds):
    """Best slip scale on the full 2001-point grid; returns (eta0, sse)."""
    etas = np.linspace(0.0, 1.0, 2001)
    stand, sit, _, _ = stroke_arcs(replace(template, actuator=actuator),
                                   periods, SWEEP_CYCLES)
    ter = template.terrain
    half = ter.reseat_loss
    e = (etas * ter.anchor_efficiency)[:, None, None]
    d = (np.maximum(0.0, e * stand[None] - half)
         + np.maximum(0.0, e * sit[None] - half)).sum(axis=2)
    v = d / (SWEEP_CYCLES * periods[None, :])
    sse = np.sum((v - speeds[None, :]) ** 2, axis=1)
    k = int(np.argmin(sse))
    return float(etas[k]), float(sse[k])


def _stalling_terrain():
    # Terrain rejects mu_forward > mu_backward on input; forced past that
    # check, the anchor efficiency turns negative and every stroke stalls
    ter = Terrain(mu_forward=0.5, mu_backward=1.0)
    object.__setattr__(ter, "mu_forward", 2.0)
    return ter


TEMPLATE = Scenario(signal=GaitSignal(period=4.0))
TERRAINS = {
    "ratchet": Terrain(),
    "smooth": Terrain(surface="smooth"),
    "smooth_anchor_friction": Terrain(surface="smooth", mu_forward=0.1,
                                      mu_backward=1.0),
    "ratchet_anchor_friction": Terrain(mu_forward=0.1, mu_backward=1.0),
    "equal_friction": Terrain(mu_forward=0.4, mu_backward=0.4),
    "forward_above_backward": _stalling_terrain(),
}
PERIODS = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
SHIPPED_MM_S = np.array([3.9, 7.0, 8.5, 6.9, 5.7, 4.2, 3.4])


def assert_profile_exact(template, actuator, periods, speeds):
    got = cal._profile_eta0(template, actuator, periods, speeds)
    want = grid_profile(template, actuator, periods, speeds)
    assert got == want
    return got


def test_every_candidate_of_the_shipped_fit(monkeypatch, shipped_data_dir):
    calls = []
    profile = cal._profile_eta0

    def record(*args):
        calls.append(args)
        return profile(*args)

    monkeypatch.setattr(cal, "_profile_eta0", record)
    ds = cal.load_dataset("speed_vs_period", shipped_data_dir)
    cal.thermal_fit_report(ds, TEMPLATE)
    assert len(calls) == 15 * 15 + 6 * 9 * 9
    for args in calls:
        assert profile(*args) == grid_profile(*args)


@pytest.mark.parametrize("terrain", sorted(TERRAINS))
@pytest.mark.parametrize("taus", [(1.2693351745605468, 0.5710022517613002),
                                  (0.2, 2.0), (3.0, 0.1)])
def test_shipped_speeds_on_each_terrain(terrain, taus):
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    act = ActuatorModel(tau_heat=taus[0], tau_cool=taus[1])
    assert_profile_exact(tmpl, act, PERIODS, SHIPPED_MM_S * 1e-3)


@pytest.mark.parametrize("terrain", ["equal_friction", "forward_above_backward"])
def test_stalled_strokes_give_index_zero(terrain):
    # no stroke ever advances, so every grid point ties and the first wins
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    act = ActuatorModel(tau_heat=1.0, tau_cool=0.45)
    eta0, _ = assert_profile_exact(tmpl, act, PERIODS, SHIPPED_MM_S * 1e-3)
    assert eta0 == 0.0


@pytest.mark.parametrize("terrain", ["ratchet", "smooth"])
def test_speeds_beyond_reach_give_the_last_point(terrain):
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    act = ActuatorModel(tau_heat=1.0, tau_cool=0.45)
    eta0, _ = assert_profile_exact(tmpl, act, PERIODS, np.full(7, 1.0))
    assert eta0 == 1.0


@pytest.mark.parametrize("terrain", ["ratchet", "smooth",
                                     "ratchet_anchor_friction"])
def test_simulated_and_jittered_speeds(terrain):
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    true = ActuatorModel(tau_heat=1.4, tau_cool=0.6)
    sc = replace(tmpl, actuator=true,
                 slip=SlipModel(eta0=0.7, c_slope=0.0, c_load=0.0))
    periods = np.array([2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    sim = np.array([v for _, v in sweep_period(sc, periods)])
    eta0, _ = assert_profile_exact(tmpl, true, periods, sim)
    assert eta0 == pytest.approx(0.7, abs=1e-12)  # grid point 1400
    rng = np.random.default_rng(7)
    for _ in range(5):
        jittered = sim * (1.0 + 0.08 * rng.standard_normal(len(sim)))
        for act in (true, ActuatorModel(tau_heat=0.9, tau_cool=1.1)):
            assert_profile_exact(tmpl, act, periods, jittered)


@pytest.mark.parametrize("lean", [0.1, 0.5, 0.9])
def test_minimum_at_a_kink(lean):
    # Data whose SSE bottoms out at a knot k, where its slope jumps from
    # -lean*jump to +(1-lean)*jump: the period q whose strokes start there
    # overshoots the data by eps, the other undershoots it just enough.
    # Only the grid points bracketing k hold the minimum, not the vertex
    # of either neighbouring quadratic. A 30 mm pitch spreads the knots
    # over (0, 1).
    tmpl = replace(TEMPLATE, terrain=Terrain(pitch=30e-3))
    act = ActuatorModel(tau_heat=1.0, tau_cool=0.45)
    periods = np.array([3.0, 8.0])
    stand, sit, _, _ = stroke_arcs(replace(tmpl, actuator=act),
                                   periods, SWEEP_CYCLES)
    arcs = np.concatenate([stand, sit], axis=1)
    knots = tmpl.terrain.reseat_loss / arcs
    scale = SWEEP_CYCLES * periods
    eps = 2e-4  # m/s
    kinks = 0
    for k in np.unique(knots[knots < 1.0]):
        starts = np.sum(np.where(knots == k, arcs, 0.0), axis=1) / scale
        left = np.sum(np.where(knots < k, arcs, 0.0), axis=1) / scale
        if np.count_nonzero(starts) != 1 or np.any(left == 0.0):
            continue
        q = int(np.argmax(starts))
        r = np.empty(2)
        r[q] = eps
        r[1 - q] = -(left[q] + lean * starts[q]) * eps / left[1 - q]
        speeds = cal._sweep_speeds(tmpl, act, np.array([k]), periods)[0] - r
        eta0, _ = assert_profile_exact(tmpl, act, periods, speeds)
        assert abs(eta0 - k) <= 5e-4
        kinks += 1
    assert kinks >= 8


@settings(max_examples=60, deadline=None)
@given(tau_heat=st.floats(0.2, 3.0), tau_cool=st.floats(0.1, 2.0),
       terrain=st.sampled_from(sorted(TERRAINS)),
       data=st.lists(st.tuples(st.floats(0.5, 20.0), st.floats(0.0, 0.02)),
                     min_size=4, max_size=12,
                     unique_by=lambda p: p[0]))
def test_profile_matches_grid(tau_heat, tau_cool, terrain, data):
    data.sort()
    periods = np.array([p for p, _ in data])
    speeds = np.array([v for _, v in data])
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    act = ActuatorModel(tau_heat=tau_heat, tau_cool=tau_cool)
    eta0, sse = assert_profile_exact(tmpl, act, periods, speeds)
    assert 0.0 <= eta0 <= 1.0 and math.isfinite(sse)
