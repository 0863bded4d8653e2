"""The per-`dt` reference stepper the simulator was first written as.

`advance`, `step`, `GaitState`, `_next_switch` and `run` below are the
original sequential integrator, kept as an oracle: one `step()` per `dt`,
split at each driven group's square-wave edges, with the lag state
updated by `advance`. The stroke engine in `ccpj.gait.run` must reproduce
its traces (see `test_engine_oracle.py`). Only the anchor-position
bookkeeping, which never fed the body position, has been dropped.
`simulated_sweep` is `sweep_period` by `ccpj.gait.run` alone, one run per
period: the reference its closed-form path is held to. `sweep_speeds` is
the thermal fit's objective, the SWEEP_CYCLES-cycle closed form that the
fit's residual is checked against bit for bit. Nothing in the package
imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ccpj.errors import InfeasibleConfinementError
from ccpj import gait
from ccpj.gait import (FRONT, REAR, SWEEP_CYCLES, ActuatorModel, Scenario, SimTrace,
                       _beta_caps, _drive_caps)
from ccpj.kinematics import standing_height
from ccpj.params import GaitSignal

_EPS_T = 1e-12


@dataclass
class GaitState:
    """Mutable integrator state between steps."""

    t: float = 0.0
    x: float = 0.0  # body position, m
    a: tuple[float, float] = (0.0, 0.0)  # lag state per group
    phase: str = "sit"
    pending_loss: float = 0.0  # re-grip loss not yet eaten, m
    slide_front: float = 0.0  # front foot travel since last engagement, m
    slide_rear: float = 0.0
    noise_factor: float = 1.0


def advance(act: ActuatorModel, a: float, current: float, dt: float) -> float:
    """Exact exponential update of the lag state over dt at a held current."""
    target = 1.0 if current >= act.i_threshold - 1e-12 else 0.0
    tau = act.tau_heat if target == 1.0 else act.tau_cool
    return target + (a - target) * math.exp(-dt / tau)


def _next_switch(signal: GaitSignal, t: float, group: int) -> float:
    """First square-wave edge of a group strictly after time t."""
    u = (t / signal.period - signal.phase[group]) % 1.0
    best = math.inf
    for b in (signal.duty, 1.0):
        d = b - u
        if d <= 1e-9:
            d += 1.0
        best = min(best, d)
    return t + best * signal.period


def step(state: GaitState, scenario: Scenario, dt: float | None = None,
         rng: np.random.Generator | None = None) -> GaitState:
    """Advance the gait by one time step, splitting at signal edges inside.

    Returns the same (mutated) state object for chaining.
    """
    if dt is None:
        dt = scenario.dt
    sig = scenario.signal
    act = scenario.actuator
    ter = scenario.terrain
    leg = scenario.robot.leg.leg_length
    eta = scenario.slip.efficiency(ter.slope, scenario.payload_mass,
                                   scenario.robot.total_mass)
    anchor_eff = ter.anchor_efficiency
    cap_f, cap_r = _beta_caps(scenario, gait._gap_at(scenario, state.x), _drive_caps(scenario))
    pitch = ter.pitch

    t_end = state.t + dt
    s0 = state.t
    a = list(state.a)
    while s0 < t_end - _EPS_T:
        s1 = t_end
        for g in (FRONT, REAR):
            if sig.mask[g]:
                s1 = min(s1, _next_switch(sig, s0, g))
        s1 = min(s1, t_end)
        mid = 0.5 * (s0 + s1)
        b_old = [0.0, 0.0]
        b_new = [0.0, 0.0]
        for g, cap in ((FRONT, cap_f), (REAR, cap_r)):
            cur = sig.current_at(mid, g)
            a_new = advance(act, a[g], cur, s1 - s0)
            b_old[g] = act.window(a[g]) * cap
            b_new[g] = act.window(a_new) * cap
            a[g] = a_new

        dbf = b_new[FRONT] - b_old[FRONT]
        dbr = b_new[REAR] - b_old[REAR]
        direction = dbf if abs(dbf) > 1e-15 else dbr
        if direction > 1e-15:
            new_phase = "stand"
        elif direction < -1e-15:
            new_phase = "sit"
        else:
            new_phase = state.phase

        if new_phase != state.phase:
            # anchor hand-off: in the alternating gait every hand-off
            # re-seats a fully unloaded claw mid-tooth (half-pitch loss); a
            # drag gait's claw stays loaded and only re-seats after sliding
            # a full tooth.
            alternating = sig.mask[FRONT] and sig.mask[REAR]
            if new_phase == "stand":
                reseats = alternating or state.slide_front >= pitch - 1e-12
                state.pending_loss = ter.reseat_loss if reseats else 0.0
                state.slide_front = 0.0
            else:
                reseats = alternating or state.slide_rear >= pitch - 1e-12
                state.pending_loss = ter.reseat_loss if reseats else 0.0
                state.slide_rear = 0.0
            if scenario.slip_noise > 0.0 and rng is not None:
                state.noise_factor = max(0.0, 1.0 + scenario.slip_noise
                                         * float(rng.standard_normal()))
            state.phase = new_phase

        if state.phase == "stand":
            raw = max(0.0, leg * (math.cos(b_old[FRONT]) - math.cos(b_new[FRONT])))
        else:
            raw = max(0.0, (leg / 2.0) * (math.cos(b_new[REAR]) - math.cos(b_old[REAR])))
        raw *= eta * anchor_eff * state.noise_factor
        net = max(0.0, raw - state.pending_loss)
        state.pending_loss = max(0.0, state.pending_loss - raw)
        x_new = state.x + net

        # kinematic foot travel, for the re-grip rule at the next hand-off
        if state.phase == "stand":
            state.slide_rear += abs(
                (x_new - (leg / 2.0) * math.cos(b_new[REAR]))
                - (state.x - (leg / 2.0) * math.cos(b_old[REAR]))
            )
        else:
            state.slide_front += abs(
                (x_new + leg * math.cos(b_new[FRONT]))
                - (state.x + leg * math.cos(b_old[FRONT]))
            )
        state.x = x_new
        s0 = s1

    state.t = t_end
    state.a = (a[FRONT], a[REAR])
    return state


def run(scenario: Scenario) -> SimTrace:
    """Simulate the full scenario. Deterministic for a given (scenario, seed)."""
    st = GaitState()
    rng = (np.random.default_rng(scenario.seed)
           if scenario.slip_noise > 0.0 else None)
    n_steps = int(math.ceil(scenario.duration / scenario.dt - 1e-9))
    rows = []
    act = scenario.actuator

    def snapshot(prev_x: float):
        cap_f, cap_r = _beta_caps(scenario, gait._gap_at(scenario, st.x), _drive_caps(scenario))
        bf = act.window(st.a[FRONT]) * cap_f
        br = act.window(st.a[REAR]) * cap_r
        h = standing_height(scenario.robot.leg.leg_length, max(bf, br),
                            scenario.robot.height_offset)
        moving = st.x > prev_x + 1e-15
        anch_f = 0 if (st.phase == "sit" and moving) else 1
        anch_r = 0 if (st.phase == "stand" and moving) else 1
        rows.append((st.t, st.x, bf, br, st.a[FRONT], st.a[REAR],
                     anch_f, anch_r, h))

    snapshot(prev_x=st.x)
    try:
        for k in range(n_steps):
            t_target = min(scenario.duration, (k + 1) * scenario.dt)
            prev_x = st.x
            step(st, scenario, dt=t_target - st.t, rng=rng)
            snapshot(prev_x)
    except InfeasibleConfinementError as err:
        raise InfeasibleConfinementError(
            f"t={st.t:.3f} s: {err.reason}", err.required_mm, err.available_mm
        ) from err
    cols = list(zip(*rows))
    return SimTrace(
        t=np.array(cols[0]), x=np.array(cols[1]),
        beta_front=np.array(cols[2]), beta_rear=np.array(cols[3]),
        activation_front=np.array(cols[4]), activation_rear=np.array(cols[5]),
        anchored_front=np.array(cols[6]), anchored_rear=np.array(cols[7]),
        height=np.array(cols[8]),
    )


def simulated_sweep(scenario: Scenario, periods) -> np.ndarray:
    """Average speed of `gait.run` at each period T, on sweep_period's
    scenario: duration SWEEP_CYCLES*T and dt T/200."""
    return np.array([
        gait.run(replace(scenario, signal=replace(scenario.signal, period=period),
                         duration=SWEEP_CYCLES * period,
                         dt=period / 200.0)).average_speed
        for period in periods])


def sweep_speeds(scenario: Scenario, etas, periods) -> np.ndarray:
    """The thermal fit's objective: averages over SWEEP_CYCLES whole
    cold-start cycles at each slip efficiency in etas, shape (n_eta,
    n_periods), each stroke netted by `gait._net_advance` and so with the
    thermal fit's bits. `sweep_period` matches it within rounding where
    `_closed_sweep` holds."""
    periods = np.asarray(periods, dtype=float)
    stand, sit, _, _ = gait.stroke_arcs(scenario, periods, SWEEP_CYCLES)
    ter = scenario.terrain
    e = (np.asarray(etas) * ter.anchor_efficiency)[:, None, None]
    d = gait._net_advance(ter, e, stand, sit, True).sum(axis=-1)
    return d / (SWEEP_CYCLES * periods)
