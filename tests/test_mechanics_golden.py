"""Bit-identity of the mechanics half against committed sha256 digests.

Each case runs elastica solves and hashes the `float.hex` of every output:
joint angles, base orientation, energy, energy history, gradient norm,
iteration count, bend force and static-load fields, and for a solve that
fails, the error's last iterate, gradient norm and iteration count. A
change to `ccpj.beam` either reproduces every bit or has to regenerate
`tests/golden/mechanics.json` and say which case moved and why.

The cases cover the solver's branches:
- `jobs.seed0`: the benchmark's seed-0 `mechanics` job list, with the
  deployment sweep warm-started from the previous shape;
- `clamped.0A.gravity`: a soft leg under its own weight, which the
  direct solve takes in 4 Newton steps;
- `pinned.0A.point_load`: a simply-supported soft leg under a point load,
  which damps an indefinite Hessian before it factorizes;
- `pinned.0.2A.ramp`: a simply-supported leg under a heavy point load,
  which fails the direct solve and converges through the load-ramp
  restart (`test_ramp_case_fails_the_direct_solve`);
- `bend.2.106mm.0A`: a bend test that raises NoConvergenceError.

Regenerate with `PYTHONPATH=src python tests/test_mechanics_golden.py`.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from ccpj import beam, gait
from ccpj.errors import NoConvergenceError
from ccpj.params import BeamParams, CalibrationTable, RobotParams

GOLDEN = Path(__file__).parent / "golden" / "mechanics.json"

TABLE_POINTS = ((0.00, 1.1), (0.05, 1.5), (0.10, 2.4), (0.15, 4.2),
                (0.20, 7.9), (0.25, 14.6), (0.30, 26.0), (0.35, 42.0),
                (0.40, 59.1))
# The seed-0 job list of the benchmark's `mechanics` workload.
DEPLOY_CURRENTS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.32, 0.35, 0.40)
BEND_INDENTATION = 2e-3
STATIC_CURRENTS = (0.1, 0.2, 0.3, 0.4)
STATIC_PAYLOADS_G = (0.0, 5.0, 20.0)


def _text(value) -> str:
    """Exact, canonical text of a (nested) result."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):  # also bool
        return repr(value)
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    return "(" + ",".join(_text(v) for v in value) + ")"


def _equilibrium(res: beam.EquilibriumResult):
    return ("eq", res.shape.joint_angles, res.shape.base_orientation,
            res.energy, res.energy_history, res.grad_norm, res.iterations)


def _jobs_seed0(table, leg, robot):
    records, prev = [], None
    for k, current in enumerate(DEPLOY_CURRENTS):
        flex = beam.FlexuralModel.from_current(current, table, leg)
        prev = beam.equilibrium_shape(leg, flex, initial=prev.shape if k else None)
        records.append(_equilibrium(prev))
    for current, _ in TABLE_POINTS:
        flex = beam.FlexuralModel.from_current(current, table, leg)
        records.append(("bend", beam.three_point_bend(leg, flex, BEND_INDENTATION)))
    for current in STATIC_CURRENTS:
        for payload in STATIC_PAYLOADS_G:
            r = gait.static_load_check(current, payload * 1e-3, robot, table)
            records.append(("static", r.stands, r.height_drop, r.front_leg_sink,
                            r.drop_limit))
    return records


def _clamped_gravity(table, leg, robot):
    flex = beam.FlexuralModel.from_current(0.0, table, leg)
    return [_equilibrium(beam.equilibrium_shape(leg, flex))]


def _pinned_point_load(table, leg, robot):
    flex = beam.FlexuralModel.from_current(0.0, table, leg)
    load = beam.LoadCase(gravity=0.0, point_loads=((5, 0.0, -0.02),))
    return [_equilibrium(beam.equilibrium_shape(leg, flex, load,
                                                boundary="simply-supported"))]


def _ramped_point_load(table, leg, robot):
    flex = beam.FlexuralModel.from_current(0.2, table, leg)
    load = beam.LoadCase(gravity=0.0, point_loads=((5, 0.0, -0.5),))
    return [_equilibrium(beam.equilibrium_shape(leg, flex, load,
                                                boundary="simply-supported"))]


def _failing_bend(table, leg, robot):
    flex = beam.FlexuralModel.from_current(0.0, table, leg)
    try:
        beam.three_point_bend(leg, flex, 2.106e-3)
    except NoConvergenceError as err:
        return [("error", str(err), err.last_iterate, err.grad_norm, err.iterations)]
    raise AssertionError("the bend test at 2.106 mm and 0 A converged")


CASES = {
    "jobs.seed0": _jobs_seed0,
    "clamped.0A.gravity": _clamped_gravity,
    "pinned.0A.point_load": _pinned_point_load,
    "pinned.0.2A.ramp": _ramped_point_load,
    "bend.2.106mm.0A": _failing_bend,
}


def case_digest(case: str) -> str:
    table = CalibrationTable.from_points(TABLE_POINTS)
    records = CASES[case](table, BeamParams(), RobotParams())
    return hashlib.sha256(_text(records).encode()).hexdigest()


def test_mechanics_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = {case: case_digest(case) for case in CASES}
    assert got == want


def test_ramp_case_fails_the_direct_solve(monkeypatch):
    # `pinned.0.2A.ramp` reaches the restart: the direct solve spends its
    # budget, then the four stages converge, and the result counts their
    # Newton steps
    outcomes = []
    minimize = beam._minimize

    def recording(*args):
        try:
            x, history, gnorm, steps = minimize(*args)
        except NoConvergenceError as err:
            outcomes.append(("failed", err.iterations))
            raise
        outcomes.append(("converged", steps))
        return x, history, gnorm, steps

    monkeypatch.setattr(beam, "_minimize", recording)
    table = CalibrationTable.from_points(TABLE_POINTS)
    [record] = _ramped_point_load(table, BeamParams(), RobotParams())
    assert outcomes == [("failed", 400), ("converged", 139), ("converged", 52),
                        ("converged", 30), ("converged", 19)]
    assert record[-1] == 240
    assert len(record[4]) == 240 + 4  # each stage's history opens with its start


if __name__ == "__main__":
    record = {case: case_digest(case) for case in CASES}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
