"""Discrete elastica: stiffness mapping, equilibrium solver, bend test.

The solver oracles here are independent closed forms: the linear-theory
discrete cantilever sum for small tip loads, and central finite differences
for the analytic gradient.
"""

import math

import numpy as np
import pytest

from ccpj import beam
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
from ccpj.errors import (
    NoConvergenceError,
    OutOfRangeError,
    UnreachableError,
    ValidationError,
)
from ccpj.gait import static_load_check
from ccpj.params import BeamParams, RobotParams


class TestStiffnessMap:
    def test_endpoints(self, table):
        assert stiffness_at(0.0, table) == pytest.approx(1.1)
        assert stiffness_at(0.40, table) == pytest.approx(59.1)

    def test_interpolates(self, table):
        assert stiffness_at(0.025, table) == pytest.approx(1.3)
        assert stiffness_at(0.375, table) == pytest.approx((42.0 + 59.1) / 2)

    @pytest.mark.parametrize("current", [-0.01, 0.41])
    def test_no_extrapolation(self, table, current):
        with pytest.raises(OutOfRangeError):
            stiffness_at(current, table)

    def test_ei_from_apparent(self):
        # k = 48 EI / S^3 for a centrally loaded simply supported span
        assert ei_from_apparent(59.1, 40e-3) == pytest.approx(
            59.1 * 40e-3 ** 3 / 48.0, rel=1e-12)
        with pytest.raises((OutOfRangeError, ValidationError)):
            ei_from_apparent(-1.0, 40e-3)


class TestShapes:
    def test_straight_nodes_on_axis(self):
        shape = BeamShape(joint_angles=(0.0,) * 19)
        nodes = node_positions(shape, 3e-3)
        assert nodes.shape == (21, 2)
        assert np.allclose(nodes[:, 1], 0.0)
        assert nodes[-1, 0] == pytest.approx(60e-3)

    def test_joint_angle_range(self):
        with pytest.raises(OutOfRangeError):
            BeamShape(joint_angles=(0.0, math.pi))

    def test_chord_deviation_of_arc(self):
        # uniform curvature: sagitta of the node polygon, invariant to rotation
        n, h, theta = 10, 3e-3, 0.05
        shape = BeamShape(joint_angles=(theta,) * (n - 1))
        tilted = BeamShape(joint_angles=(theta,) * (n - 1), base_orientation=0.7)
        d0 = max_chord_deviation(shape, h)
        d1 = max_chord_deviation(tilted, h)
        assert d0 == pytest.approx(d1, rel=1e-9)
        assert d0 > 0.0

    def test_chord_deviation_straight_is_zero(self):
        shape = BeamShape(joint_angles=(0.0,) * 19)
        assert max_chord_deviation(shape, 3e-3) == 0.0


class TestEquilibrium:
    def test_linear_tip_load_matches_discrete_sum(self, table):
        # small-load limit: joint rotations M/kappa, deflection by superposition
        params = BeamParams()
        flex = FlexuralModel.from_current(0.4, table, params)
        p = 1e-4  # N, keeps deflection ~0.1% of length
        res = equilibrium_shape(
            params, flex,
            LoadCase(gravity=0.0, point_loads=((params.n_beads, 0.0, -p),)))
        nodes = node_positions(res.shape, params.bead_thickness)
        h = params.bead_thickness
        n = params.n_beads
        kappa = flex.ei / h  # each joint's torsional stiffness
        expected = -(p / kappa) * h * h * sum(
            (n - k) ** 2 for k in range(1, n))
        assert nodes[-1, 1] == pytest.approx(expected, rel=1e-3)

    def test_fold_past_pi_is_a_simulation_error(self, table):
        # the solve converges, but its shape folds joint 1 to about -5.548
        # rad, which no bead chain takes: exit class 3, not a bad input
        params = BeamParams()
        flex = FlexuralModel.from_current(0.0, table, params)
        with pytest.raises(UnreachableError, match=r"joint_angle\[1\] past pi") as exc:
            equilibrium_shape(params, flex, LoadCase(point_loads=((5, 0.0, -2.0),)))
        assert exc.value.exit_code == 3
        assert exc.value.requested == pytest.approx(-5.548, abs=1e-3)

    def test_gradient_matches_finite_differences(self, table):
        params = BeamParams()
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
        rng = np.random.default_rng(7)
        eps = 1e-7
        for _ in range(10):
            x = rng.uniform(-0.3, 0.3, model.n_dof)
            geo = model.geometry(x)
            grad, _ = model.gradient(*geo)
            fd = np.empty_like(grad)
            for i in range(model.n_dof):
                dx = np.zeros(model.n_dof)
                dx[i] = eps
                fd[i] = (model.energy(x + dx) - model.energy(x - dx)) / (2 * eps)
            scale = max(1.0, float(np.max(np.abs(grad))))
            assert float(np.max(np.abs(grad - fd))) / scale < 1e-6
            # one energy sum: the Newton step and the line search agree bitwise
            assert model._energy(*geo) == model.energy(x)

    def test_energy_history_non_increasing(self, table):
        params = BeamParams()
        for current, load in [
            (0.0, LoadCase()),  # soft, gravity only: 4 direct Newton steps
            (0.4, LoadCase(point_loads=((20, 0.0, -0.05),))),
        ]:
            flex = FlexuralModel.from_current(current, table, params)
            res = equilibrium_shape(params, flex, load)
            hist = np.array(res.energy_history)
            assert len(hist) >= 2
            assert np.all(np.diff(hist) <= 1e-12)
            assert res.grad_norm < 1e-9

    def test_clamped_base_stays_clamped(self, table):
        params = BeamParams()
        flex = FlexuralModel.from_current(0.3, table, params)
        res = equilibrium_shape(params, flex)
        assert res.shape.base_orientation == 0.0

    def test_pinned_base_rotates_under_asymmetric_load(self, table):
        params = BeamParams()
        flex = FlexuralModel.from_current(0.4, table, params)
        res = equilibrium_shape(
            params, flex,
            LoadCase(gravity=0.0, point_loads=((5, 0.0, -0.02),)),
            boundary="simply-supported")
        assert abs(res.shape.base_orientation) > 1e-4
        nodes = node_positions(res.shape, params.bead_thickness)
        # pin holds the base, the stiff support holds the far end
        assert abs(nodes[0, 1]) == 0.0
        assert abs(nodes[-1, 1]) < 1e-6

    def test_unknown_boundary_rejected(self, table):
        params = BeamParams()
        flex = FlexuralModel.from_current(0.4, table, params)
        with pytest.raises(ValidationError):
            equilibrium_shape(params, flex, boundary="free")

    def test_point_load_node_range(self, table):
        params = BeamParams()
        flex = FlexuralModel.from_current(0.4, table, params)
        with pytest.raises(ValidationError):
            equilibrium_shape(
                params, flex, LoadCase(point_loads=((21, 0.0, -1.0),)))

    def test_no_convergence_carries_state(self, table):
        params = BeamParams()
        flex = FlexuralModel.from_current(0.0, table, params)
        with pytest.raises(NoConvergenceError) as exc:
            equilibrium_shape(params, flex, max_iters=1)
        assert exc.value.grad_norm > 0.0

    def test_unloaded_failed_solve_is_not_ramped(self, table, monkeypatch):
        # gravity off and no point load: every ramp stage would be the
        # failed solve again, so the first attempt's error is raised as it was
        calls = []
        minimize = beam._minimize

        def counting(*args):
            calls.append(args)
            return minimize(*args)

        monkeypatch.setattr(beam, "_minimize", counting)
        params = BeamParams()
        flex = FlexuralModel.from_current(0.4, table, params)
        bent = BeamShape(joint_angles=(0.1,) * 19, base_orientation=0.2)
        with pytest.raises(NoConvergenceError) as exc:
            equilibrium_shape(params, flex, LoadCase(gravity=0.0),
                              boundary="simply-supported", initial=bent, max_iters=3)
        assert len(calls) == 1
        assert exc.value.iterations == 3

    @pytest.mark.parametrize("budget", [0, -5, math.nan])
    def test_budget_below_one_rejected(self, table, budget):
        # rejected before any solve, not reported as a failed one
        params = BeamParams()
        flex = FlexuralModel.from_current(0.2, table, params)
        with pytest.raises(OutOfRangeError, match="max_iters"):
            equilibrium_shape(params, flex, max_iters=budget)


class TestNonFiniteInputs:
    """NaN and inf are rejected before they reach any arithmetic."""

    def test_current(self, table):
        with pytest.raises(OutOfRangeError):
            stiffness_at(math.nan, table)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_flexural_rigidity(self, bad):
        with pytest.raises(OutOfRangeError):
            ei_from_apparent(bad, 40e-3)
        with pytest.raises(OutOfRangeError):
            ei_from_apparent(1.1, bad)
        with pytest.raises(OutOfRangeError):
            FlexuralModel(ei=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_deployment_tolerance(self, bad):
        with pytest.raises(OutOfRangeError):
            is_deployed(BeamShape(joint_angles=(0.0,)), BeamParams(), tol_frac=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_load_case(self, table, bad):
        params = BeamParams()
        flex = FlexuralModel.from_current(0.4, table, params)
        for load in (dict(gravity=bad), dict(point_loads=((20, 0.0, bad),)),
                     dict(point_loads=((20, bad, 0.0),))):
            with pytest.raises(ValidationError):
                equilibrium_shape(params, flex, LoadCase(**load))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_base_pose(self, bad):
        # a pinned solve starts from the initial shape's base orientation
        with pytest.raises(ValidationError):
            BeamShape(joint_angles=(0.0,) * 19, base_orientation=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_static_load_mass(self, table, bad):
        with pytest.raises(OutOfRangeError):
            static_load_check(0.4, bad, RobotParams(), table)


class TestDeployment:
    def test_chord_deviation_frozen_values(self, table):
        params = BeamParams()
        devs = {}
        for current in (0.0, 0.32, 0.40):
            flex = FlexuralModel.from_current(current, table, params)
            res = equilibrium_shape(params, flex)
            devs[current] = max_chord_deviation(res.shape, params.bead_thickness)
        assert devs[0.0] == pytest.approx(7.439883e-3, abs=2e-8)
        assert devs[0.32] == pytest.approx(0.442126e-3, abs=2e-8)
        assert devs[0.40] == pytest.approx(0.242615e-3, abs=2e-8)

    def test_is_deployed_thresholds(self, table):
        params = BeamParams()
        for current, expected in [(0.0, False), (0.32, True), (0.40, True)]:
            flex = FlexuralModel.from_current(current, table, params)
            res = equilibrium_shape(params, flex)
            assert is_deployed(res.shape, params) is expected

    def test_is_deployed_tol_validation(self):
        with pytest.raises(OutOfRangeError):
            is_deployed(BeamShape(joint_angles=(0.0,)), BeamParams(), tol_frac=0.0)


class TestThreePointBend:
    def test_zero_indentation_zero_force(self, table):
        params = BeamParams()
        flex = FlexuralModel.from_current(0.4, table, params)
        assert three_point_bend(params, flex, 0.0) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("k_app,frozen_mn", [
        (1.1, 2.20015), (7.9, 15.8011), (59.1, 118.207),
    ])
    def test_force_frozen_values(self, k_app, frozen_mn):
        params = BeamParams()
        flex = FlexuralModel(ei=ei_from_apparent(k_app, params.span_3pb))
        force = three_point_bend(params, flex, 2e-3)
        assert force * 1e3 == pytest.approx(frozen_mn, rel=1e-4)
        # secant slope recovers the apparent stiffness the test was set to
        assert force / 2e-3 == pytest.approx(k_app, rel=0.05)

    def test_failed_solve_is_not_replayed(self, table, monkeypatch):
        # the bend test has no load to ramp: it solves once and raises
        # that solve's error as it was
        calls = []
        minimize = beam._minimize

        def counting(*args):
            calls.append(args)
            return minimize(*args)

        monkeypatch.setattr(beam, "_minimize", counting)
        flex = FlexuralModel.from_current(0.0, table, BeamParams())
        with pytest.raises(NoConvergenceError) as exc:
            three_point_bend(BeamParams(), flex, 2.106e-3)
        assert len(calls) == 1
        assert exc.value.grad_norm == float.fromhex("0x1.7cc5b63e40000p-33")
        assert exc.value.iterations == 400

    def test_indentation_range(self, table):
        params = BeamParams()
        flex = FlexuralModel.from_current(0.4, table, params)
        with pytest.raises(OutOfRangeError):
            three_point_bend(params, flex, 5e-3)
        with pytest.raises(OutOfRangeError):
            three_point_bend(params, flex, -1e-3)
