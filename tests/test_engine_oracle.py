"""The stroke engine in `gait.run` against the per-`dt` reference stepper.

`reference_gait.run` is the original sequential integrator, one `step()`
per `dt`. The stroke engine must give the same trace: identical times and
anchored flags, and positions, band angles, activations and heights within
1e-12.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import reference_gait
from ccpj.errors import InfeasibleConfinementError, ValidationError
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


def assert_same_trace(new, ref):
    assert np.array_equal(new.t, ref.t)
    assert np.array_equal(new.anchored_front, ref.anchored_front)
    assert np.array_equal(new.anchored_rear, ref.anchored_rear)
    for name in FIELDS:
        assert np.max(np.abs(getattr(new, name) - getattr(ref, name))) <= 1e-12, name


def _scenario(period, duty=0.5, mask="all", phase=(0.0, 0.0),
              terrain=Terrain(), cycles=4.5, steps=100.0, **kwargs):
    # dt = period/steps; at 100 steps per period the last step is 0.3 dt long
    return Scenario(signal=GaitSignal(period=period, duty=duty, mask=MASKS[mask],
                                      phase=phase),
                    terrain=terrain, duration=(cycles + 0.003) * period,
                    dt=period / steps, **kwargs)


@pytest.mark.parametrize("terrain", sorted(TERRAINS))
@pytest.mark.parametrize("phase", PHASES, ids=("in_phase", "offset_0.3"))
@pytest.mark.parametrize("mask", sorted(MASKS))
@pytest.mark.parametrize("duty", DUTIES)
@pytest.mark.parametrize("period", PERIODS)
def test_engine_matches_reference(period, duty, mask, phase, terrain):
    sc = _scenario(period, duty, mask, phase, TERRAINS[terrain])
    assert_same_trace(run(sc), reference_gait.run(sc))


@pytest.mark.parametrize("seed", (3, 4))
@pytest.mark.parametrize("mask", sorted(MASKS))
@pytest.mark.parametrize("phase", PHASES, ids=("in_phase", "offset_0.3"))
@pytest.mark.parametrize("period", (2.0, 4.0))
def test_engine_matches_reference_with_slip_noise(period, phase, mask, seed):
    sc = _scenario(period, mask=mask, phase=phase, slip_noise=0.05, seed=seed)
    assert_same_trace(run(sc), reference_gait.run(sc))


@pytest.mark.parametrize("mask", ("all", "front_only"))
def test_gate_entered_and_left_mid_run(mask):
    # the gap envelope reaches the gate at x = 2 mm and clears it past
    # x = 150.5 mm, so the caps change twice inside the run
    gate = Terrain(ceiling=((117e-3, 118e-3, 45e-3),))
    sc = _scenario(4.0, mask=mask, terrain=gate, cycles=24.0)
    new = run(sc)
    assert_same_trace(new, reference_gait.run(sc))
    under = (new.x >= 2e-3) & (new.x <= 150.5e-3)
    assert under.any() and (new.x > 150.5e-3).any()
    assert new.height[under].max() <= 45e-3 + 1e-12
    assert new.height.max() > 45e-3


@pytest.mark.parametrize("mask", sorted(MASKS))
def test_slip_noise_across_gate_cuts(mask):
    # the caps change twice inside the run, each time mid-stroke: the
    # engine draws a segment's noise at once and must hand back the draws
    # of the strokes past each cut
    gate = Terrain(ceiling=((117e-3, 118e-3, 45e-3),))
    sc = _scenario(4.0, mask=mask, terrain=gate, cycles=24.0, slip_noise=0.2, seed=11)
    assert_same_trace(run(sc), reference_gait.run(sc))


def test_ceiling_reached_on_a_held_stand():
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
    assert_same_trace(run(sc), reference_gait.run(sc))


def test_creep_below_the_moving_threshold():
    # increments under 1e-15 m per step leave both claws counted anchored
    sc = _scenario(4.0, terrain=Terrain(surface="smooth"),
                   slip=SlipModel(eta0=1e-13, c_slope=0.0, c_load=0.0))
    new = run(sc)
    assert_same_trace(new, reference_gait.run(sc))
    assert new.x[-1] > 0.0 and np.all(new.anchored_rear == 1)


def test_steps_below_the_time_resolution():
    # a dt at or below the 1e-12 s sub-step floor is refused outright
    for dt in (1e-13, 1e-12):
        with pytest.raises(ValidationError, match="must be > 1e-12 s"):
            Scenario(signal=GaitSignal(period=1e-11), duration=2.5e-11, dt=dt)
    # a run shorter than one step would drop its only step, below the
    # floor, and return a motionless trace: it is refused too
    with pytest.raises(ValidationError, match="must be at least one step"):
        Scenario(signal=GaitSignal(period=1e-13), duration=1.5e-13, dt=1.0005e-12)
    # the shortest run allowed is one step just above the floor
    sc = Scenario(signal=GaitSignal(period=1e-13), duration=1.0005e-12, dt=1.0005e-12)
    new = run(sc)
    assert_same_trace(new, reference_gait.run(sc))
    assert len(new.t) == 2


@pytest.mark.parametrize("x0", (0.0, 117e-3))
def test_infeasible_gap_raises_at_same_time(x0):
    # from the first row, or at the row whose position first sees the gap
    sc = _scenario(4.0, terrain=Terrain(ceiling=((x0, 0.2, 5e-3),)))
    with pytest.raises(InfeasibleConfinementError) as want:
        reference_gait.run(sc)
    with pytest.raises(InfeasibleConfinementError) as got:
        run(sc)
    assert str(got.value) == str(want.value)
    assert str(got.value).count("(needs ") == 1
    assert got.value.required_mm == want.value.required_mm
    assert got.value.available_mm == want.value.available_mm


# No shrinking: each shrink step reruns the per-dt reference stepper, so a
# failure took ~5 minutes to report; the first failing example is kept.
@pytest.mark.fresh_seed
@settings(max_examples=40, deadline=None,
          phases=tuple(p for p in Phase if p is not Phase.shrink))
@given(period=st.floats(1.0, 7.0), duty=st.floats(0.3, 0.7),
       phase=st.floats(0.0, 0.95), mask=st.sampled_from(sorted(MASKS)),
       steps=st.sampled_from((100.0, 137.3, 200.0)),
       slip_noise=st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
       seed=st.integers(0, 2**32 - 1),
       behind=st.floats(-32e-3, -20e-3), ahead=st.floats(117e-3, 130e-3),
       gaps=st.tuples(st.floats(5e-3, 70e-3), st.floats(5e-3, 70e-3)))
def test_engine_matches_reference_property(period, duty, phase, mask, steps,
                                           slip_noise, seed, behind, ahead, gaps):
    # The envelope starts inside a region behind the body and leaves it
    # within the first 12.5 mm; it reaches a region ahead within the first
    # 15 mm. Each changes the caps mid-stroke, so segments are cut, drawn
    # slip noise is handed back, and a drag gait's re-seat choices carry
    # across the cut. Gaps under the flat body height must raise at the
    # same row in both.
    ceiling = ((behind - 20e-3, behind, gaps[0]), (ahead, 0.2, gaps[1]))
    sc = _scenario(period, duty, mask, phase=(0.0, phase), steps=steps,
                   terrain=Terrain(ceiling=ceiling), slip_noise=slip_noise, seed=seed)
    try:
        ref = reference_gait.run(sc)
    except InfeasibleConfinementError as err:
        with pytest.raises(InfeasibleConfinementError) as got:
            run(sc)
        assert str(got.value) == str(err)
        return
    assert_same_trace(run(sc), ref)
