"""The stroke engine in `gait.run` against the per-`dt` reference stepper.

`reference_gait.run` is the original sequential integrator, one `step()`
per `dt`. The stroke engine must give the same trace: identical times and
anchored flags, and positions, band angles, activations and heights within
1e-12. Anchor columns must be equal, with one allowed exception: exactly
one pitch apart where the reference foot lay within 1e-12 of a tooth edge,
because the engine's closed-form heating rounds differently from the
sequential recurrence and the floor-snap of a foot sitting on an edge is
decided by that last bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_gait
from ccpj.errors import InfeasibleConfinementError
from ccpj.gait import LOOKAHEAD, MASKS, Scenario, SlipModel, Terrain, _gap_at, run
from ccpj.params import GaitSignal

TERRAINS = {
    "ratchet": Terrain(),
    "smooth": Terrain(surface="smooth"),
    "anchor_friction": Terrain(mu_forward=0.1, mu_backward=1.0),
    "ceiling_20mm": Terrain(ceiling=((-math.inf, math.inf, 20e-3),)),
    "gate_30mm": Terrain(ceiling=((10e-3, 110e-3, 30e-3),)),
    # as shipped in tunnel_40x20.scenario
    "tunnel": Terrain(ceiling=((10e-3, 110e-3, 20e-3),), tunnel_width=40e-3),
}
PERIODS = (1.0, 2.0, 3.3, 4.0, 7.0)
DUTIES = (0.5, 0.37)
PHASES = ((0.0, 0.0), (0.0, 0.3))

FIELDS = ("x", "beta_front", "beta_rear", "activation_front",
          "activation_rear", "height")


class _FloorLog:
    """Stands in for `math` inside the reference and logs each floor-snap."""

    def __init__(self):
        self.args = []

    def __getattr__(self, name):
        return getattr(math, name)

    def floor(self, v):
        self.args.append(v)
        return math.floor(v)


def _reference(scenario, monkeypatch):
    log = _FloorLog()
    monkeypatch.setattr(reference_gait, "math", log)
    return reference_gait.run(scenario), log.args


def assert_same_trace(new, ref, floor_args, pitch):
    assert np.array_equal(new.t, ref.t)
    assert np.array_equal(new.anchored_front, ref.anchored_front)
    assert np.array_equal(new.anchored_rear, ref.anchored_rear)
    for name in FIELDS:
        assert np.max(np.abs(getattr(new, name) - getattr(ref, name))) <= 1e-12, name
    for name, origin in (("anchor_front_x", ref.anchor_front_0),
                         ("anchor_rear_x", ref.anchor_rear_0)):
        got, want = getattr(new, name), getattr(ref, name)
        off = np.abs(got - want) > 1e-12
        if not off.any():
            continue
        # only a one-pitch split of a foot standing on a tooth edge
        assert np.all(np.abs(np.abs(got - want)[off] - pitch) <= 1e-12), name
        for edge in np.maximum(got, want)[off]:
            tooth = round((edge - origin) / pitch)
            assert any(abs(v - tooth) * pitch <= 1e-12 for v in floor_args), name


def _scenario(period, duty=0.5, mask="all", phase=(0.0, 0.0),
              terrain=Terrain(), cycles=4.5, **kwargs):
    # dt = period/100 and a last step 0.3 dt long
    return Scenario(signal=GaitSignal(period=period, duty=duty, mask=MASKS[mask],
                                      phase=phase),
                    terrain=terrain, duration=(cycles + 0.003) * period,
                    dt=period / 100.0, **kwargs)


@pytest.mark.parametrize("terrain", sorted(TERRAINS))
@pytest.mark.parametrize("phase", PHASES, ids=("in_phase", "offset_0.3"))
@pytest.mark.parametrize("mask", sorted(MASKS))
@pytest.mark.parametrize("duty", DUTIES)
@pytest.mark.parametrize("period", PERIODS)
def test_engine_matches_reference(monkeypatch, period, duty, mask, phase, terrain):
    sc = _scenario(period, duty, mask, phase, TERRAINS[terrain])
    ref, floor_args = _reference(sc, monkeypatch)
    assert_same_trace(run(sc), ref, floor_args, sc.terrain.pitch)


@pytest.mark.parametrize("seed", (3, 4))
@pytest.mark.parametrize("mask", sorted(MASKS))
@pytest.mark.parametrize("phase", PHASES, ids=("in_phase", "offset_0.3"))
@pytest.mark.parametrize("period", (2.0, 4.0))
def test_engine_matches_reference_with_slip_noise(monkeypatch, period, phase,
                                                  mask, seed):
    sc = _scenario(period, mask=mask, phase=phase, slip_noise=0.05, seed=seed)
    ref, floor_args = _reference(sc, monkeypatch)
    assert_same_trace(run(sc), ref, floor_args, sc.terrain.pitch)


@pytest.mark.parametrize("mask", ("all", "front_only"))
def test_gate_entered_and_left_mid_run(monkeypatch, mask):
    # the gap envelope reaches the gate at x = 2 mm and clears it past
    # x = 150.5 mm, so the caps change twice inside the run
    gate = Terrain(ceiling=((117e-3, 118e-3, 45e-3),))
    sc = _scenario(4.0, mask=mask, terrain=gate, cycles=24.0)
    ref, floor_args = _reference(sc, monkeypatch)
    new = run(sc)
    assert_same_trace(new, ref, floor_args, sc.terrain.pitch)
    under = (new.x >= 2e-3) & (new.x <= 150.5e-3)
    assert under.any() and (new.x > 150.5e-3).any()
    assert new.height[under].max() <= 45e-3 + 1e-12
    assert new.height.max() > 45e-3


def test_ceiling_reached_on_a_held_stand(monkeypatch):
    # the gap changes at the row where the first stand saturates, so the
    # engine re-enters where no band moves and must carry the stand phase
    base = _scenario(7.0, terrain=Terrain(surface="smooth"), cycles=2.0)
    free = run(base)
    moving = np.flatnonzero(free.anchored_rear == 0)
    held = moving[np.flatnonzero(np.diff(moving) > 1)[0]]
    assert free.beta_front[held] == free.beta_front[held + 1]
    x0 = (free.x[held] + base.robot.leg.leg_length) + LOOKAHEAD
    sc = replace(base, terrain=replace(base.terrain, ceiling=((x0, x0 + 0.1, 0.07),)))
    assert _gap_at(sc, free.x[held]) == 0.07
    assert _gap_at(sc, free.x[held - 1]) == math.inf
    ref, floor_args = _reference(sc, monkeypatch)
    assert_same_trace(run(sc), ref, floor_args, sc.terrain.pitch)


def test_creep_below_the_moving_threshold(monkeypatch):
    # increments under 1e-15 m per step leave both claws counted anchored
    sc = _scenario(4.0, terrain=Terrain(surface="smooth"),
                   slip=SlipModel(eta0=1e-13, c_slope=0.0, c_load=0.0))
    ref, floor_args = _reference(sc, monkeypatch)
    new = run(sc)
    assert_same_trace(new, ref, floor_args, sc.terrain.pitch)
    assert new.x[-1] > 0.0 and np.all(new.anchored_rear == 1)


@pytest.mark.parametrize("x0", (0.0, 117e-3))
def test_infeasible_gap_raises_at_same_time(monkeypatch, x0):
    # from the first row, or at the row whose position first sees the gap
    sc = _scenario(4.0, terrain=Terrain(ceiling=((x0, 0.2, 5e-3),)))
    with pytest.raises(InfeasibleConfinementError) as want:
        _reference(sc, monkeypatch)
    with pytest.raises(InfeasibleConfinementError) as got:
        run(sc)
    assert str(got.value) == str(want.value)
    assert got.value.required_mm == want.value.required_mm
    assert got.value.available_mm == want.value.available_mm


@settings(max_examples=12, deadline=None)
@given(period=st.floats(1.0, 7.0), duty=st.floats(0.3, 0.7),
       phase=st.floats(0.0, 0.95), gap=st.floats(5e-3, 70e-3))
def test_engine_matches_reference_property(period, duty, phase, gap):
    # a ceiling the body reaches within the first cycles; gaps under the
    # flat body height must raise at the same row in both
    sc = _scenario(period, duty, phase=(0.0, phase),
                   terrain=Terrain(ceiling=((117e-3, 0.2, gap),)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        try:
            ref, floor_args = _reference(sc, monkeypatch)
        except InfeasibleConfinementError as err:
            with pytest.raises(InfeasibleConfinementError) as got:
                run(sc)
            assert str(got.value) == str(err)
            return
    assert_same_trace(run(sc), ref, floor_args, sc.terrain.pitch)
