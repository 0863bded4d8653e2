"""Variable-stiffness beam mechanics.

The bead chain is a discrete elastica: rigid segments (one per bead) joined
by torsional springs. Equilibrium is the minimum of

    E(theta) = 1/2 k sum(theta_j^2) + sum_i m_i g y(center_i)
               - sum_k F_k . p(node_k) + 1/2 sum_s K_s (y_s - rest_s)^2

over the joint angles (plus the base rotation when the base is pinned
instead of clamped). The solver is damped Newton with an analytic gradient
and Hessian, Armijo backtracking, and a load-ramp restart for the heavy
load regime where the straight initial guess is far from equilibrium.

The bridge from the bend-test apparent stiffness k_app (N/m) to the
elastica is the simply-supported center-load relation EI = k_app S^3 / 48;
each joint of a chain then gets torsional stiffness EI over that chain's
segment length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergenceError, OutOfRangeError, UnreachableError, ValidationError
from .params import BeamParams, CalibrationTable

GRAVITY = 9.81  # m/s^2

# Penalty stiffness standing in for rigid supports (roller, indentor).
# ~1e5 times the stiffest beam; series-compliance error ~1e-5.
SUPPORT_SPRING = 1e7  # N/m


def stiffness_at(current: float, table: CalibrationTable) -> float:
    """Apparent bending stiffness (N/m) at a current, by linear interpolation.

    Exact at table knots. No extrapolation: currents outside the table
    range, and NaN, raise OutOfRangeError.
    """
    cur = np.asarray(table.currents)
    if not cur[0] - 1e-12 <= current <= cur[-1] + 1e-12:
        raise OutOfRangeError("current_a", current, cur[0], cur[-1])
    return float(np.interp(current, cur, np.asarray(table.stiffnesses)))


def ei_from_apparent(k_app: float, span: float) -> float:
    """Flexural rigidity EI (N m^2) from bend-test stiffness over a span.

    Simply-supported center load: deflection = F S^3 / (48 EI), so
    EI = k_app S^3 / 48.
    """
    if not 0.0 < k_app < math.inf:
        raise OutOfRangeError("k_app", k_app, 0.0, math.inf)
    if not 0.0 < span < math.inf:
        raise OutOfRangeError("span", span, 0.0, math.inf)
    return k_app * span**3 / 48.0


@dataclass(frozen=True)
class FlexuralModel:
    """Effective flexural rigidity of the leg.

    Each solve divides EI by its own chain's segment length to get the
    per-joint torsional stiffness, which keeps the discrete chain's bending
    response consistent with the continuum EI.
    """

    ei: float  # N m^2

    def __post_init__(self):
        if not 0.0 < self.ei < math.inf:
            raise OutOfRangeError("ei", self.ei, 0.0, math.inf)

    @classmethod
    def from_current(
        cls, current: float, table: CalibrationTable, params: BeamParams
    ) -> "FlexuralModel":
        return cls(ei=ei_from_apparent(stiffness_at(current, table), params.span_3pb))


@dataclass(frozen=True)
class BeamShape:
    """Discrete beam configuration: relative joint angles plus the first
    segment's orientation. The base node is at the origin."""

    joint_angles: tuple[float, ...]
    base_orientation: float = 0.0  # rad

    def __post_init__(self):
        for i, th in enumerate(self.joint_angles):
            if not (abs(th) < math.pi):
                raise OutOfRangeError(f"joint_angle[{i}]", th, -math.pi, math.pi)
        if not math.isfinite(self.base_orientation):
            raise ValidationError(f"base orientation {self.base_orientation!r} is not finite")


def _chain_nodes(phi0, theta, segment_length: float) -> np.ndarray:
    """(len(theta) + 2, 2) node coordinates of a chain based at the origin,
    its first segment at angle phi0 and joint angles theta."""
    phi = phi0 + np.concatenate(([0.0], np.cumsum(theta)))
    steps = segment_length * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    nodes = np.zeros((len(phi) + 1, 2))
    nodes[1:] = np.cumsum(steps, axis=0)
    return nodes


def node_positions(shape: BeamShape, segment_length: float) -> np.ndarray:
    """(len(joint_angles) + 2, 2) array of node coordinates, base node first."""
    return _chain_nodes(shape.base_orientation,
                        np.asarray(shape.joint_angles, dtype=float), segment_length)


def max_chord_deviation(shape: BeamShape, segment_length: float) -> float:
    """Max perpendicular node distance (m) from the base-to-tip chord.

    Measures how bent the beam is, independent of any rigid rotation of the
    whole chain. Degenerate chords (tip on top of base, a fully curled
    chain) fall back to the max distance from the base point.
    """
    nodes = node_positions(shape, segment_length)
    chord = nodes[-1] - nodes[0]
    norm = float(np.hypot(*chord))
    rel = nodes - nodes[0]
    if norm < 1e-9:
        return float(np.max(np.hypot(rel[:, 0], rel[:, 1])))
    cross = rel[:, 0] * chord[1] - rel[:, 1] * chord[0]
    return float(np.max(np.abs(cross)) / norm)


def is_deployed(shape: BeamShape, params: BeamParams) -> bool:
    """True iff the shape deviates from straight by < 2% of the leg length."""
    return max_chord_deviation(shape, params.bead_thickness) < 0.02 * params.leg_length


@dataclass(frozen=True)
class LoadCase:
    """Loads on the chain: gravity plus constant point forces at nodes."""

    gravity: float = GRAVITY  # m/s^2, 0 disables self-weight
    point_loads: tuple[tuple[int, float, float], ...] = ()  # (node, fx, fy) N

    def __post_init__(self):
        forces = (f for _, fx, fy in self.point_loads for f in (fx, fy))
        if not all(math.isfinite(v) for v in (self.gravity, *forces)):
            raise ValidationError(f"load case is not finite: {self!r}")


@dataclass(frozen=True)
class EquilibriumResult:
    shape: BeamShape
    energy: float
    grad_norm: float
    iterations: int  # Newton steps, summed over a load ramp's stages
    energy_history: tuple[float, ...] = field(repr=False, default=())


class _EnergyModel:
    """Energy, gradient, and Hessian of the discrete elastica.

    DOF layout: [base rotation (pinned only)] + joint angles. Every DOF d
    is a rotation about a pivot node; it moves all material downstream of
    that pivot. For a constant world force F at point r the contributions
    are grad_d = -(r - q_d) x F and hess_dl = F . (r - q_m) with q_m the
    downstream-most of the two pivots. Support springs add a rank-1 term
    on top of the same geometric curvature. Energy, gradient and Hessian
    are separate steps over one geometry, so a solver builds each at most
    once per iterate. The loads are fixed at construction: a load ramp
    builds one model per stage.
    """

    def __init__(self, n_seg, seg_len, kappa, masses, gravity,
                 point_loads, springs, pinned):
        self.n_seg = n_seg
        self.seg_len = seg_len
        self.kappa = kappa
        self.masses = np.asarray(masses, dtype=float)  # one per segment
        self.gravity = gravity
        self.point_loads = tuple(point_loads)
        self.springs = tuple(springs)  # (node, k, rest_y)
        self.pinned = pinned
        self.n_joint = n_seg - 1
        self.n_dof = self.n_joint + (1 if pinned else 0)
        # pivot node of each DOF: base rotation pivots at node 0,
        # joint j at node j+1
        if pinned:
            self.pivot = np.concatenate(([0], np.arange(1, n_seg)))
        else:
            self.pivot = np.arange(1, n_seg)
        self._joint_slice = slice(1, None) if pinned else slice(0, None)
        self.eye = np.eye(self.n_dof)
        # pivots are arc-ordered, so a Hessian entry (d, l) depends only on
        # the downstream-most pivot: per-pivot sums are gathered by max(d, l)
        self._order = np.maximum.outer(np.arange(self.n_dof), np.arange(self.n_dof))
        self._hess0 = np.zeros((self.n_dof, self.n_dof))
        self._hess0[self._joint_slice, self._joint_slice] += kappa * np.eye(self.n_joint)
        # moved[d]: DOF d moves the spring's node (a prefix of the pivots)
        self._moved = tuple(self.pivot <= node - 1 for node, _, _ in self.springs)
        # load points are the segment centers, then the point-load nodes;
        # a point with cutoff c is moved by DOF d iff pivot[d] <= c
        self._load_nodes = np.array([p[0] for p in self.point_loads], dtype=int)
        self._forces = np.concatenate((
            np.stack([np.zeros(n_seg), -self.masses * gravity], axis=1),
            np.array([[p[1], p[2]] for p in self.point_loads]).reshape(-1, 2)))
        cuts = np.concatenate((np.arange(n_seg), self._load_nodes - 1))
        self._affected = self.pivot[:, None] <= cuts[None, :]

    def geometry(self, x):
        phi0, theta = (x[0], x[1:]) if self.pinned else (0.0, x)
        nodes = _chain_nodes(phi0, theta, self.seg_len)
        centers = 0.5 * (nodes[:-1] + nodes[1:])
        return theta, nodes, centers

    def energy(self, x):
        return self._energy(*self.geometry(x))

    def _energy(self, theta, nodes, centers):
        e = 0.5 * self.kappa * float(np.dot(theta, theta))
        e += self.gravity * float(np.dot(self.masses, centers[:, 1]))
        for node, fx, fy in self.point_loads:
            e -= fx * nodes[node, 0] + fy * nodes[node, 1]
        for node, ks, rest in self.springs:
            e += 0.5 * ks * (nodes[node, 1] - rest) ** 2
        return e

    def gradient(self, theta, nodes, centers):
        """Gradient at a geometry, and the terms `hessian` takes from it."""
        idx, forces, affected = self._load_nodes, self._forces, self._affected
        grad = np.zeros(self.n_dof)
        grad[self._joint_slice] += self.kappa * theta
        pts = np.concatenate((centers, nodes[idx])) if idx.size else centers
        q = nodes[self.pivot]  # (n_dof, 2) pivot positions
        rx = pts[None, :, 0] - q[:, None, 0]
        ry = pts[None, :, 1] - q[:, None, 1]
        torque = rx * forces[None, :, 1] - ry * forces[None, :, 0]
        grad -= np.where(affected, torque, 0.0).sum(axis=1)
        # springs enter the gradient as state-dependent vertical forces
        spring_jac = []
        for (node, ks, rest), moved in zip(self.springs, self._moved):
            dy = nodes[node, 1] - rest
            jac = np.where(moved, nodes[node, 0] - q[:, 0], 0.0)
            grad += ks * dy * jac
            spring_jac.append((dy, jac))
        return grad, (nodes, q, rx, ry, spring_jac)

    def hessian(self, terms):
        nodes, q, rx, ry, spring_jac = terms
        forces, affected = self._forces, self._affected
        # geometric curvature of constant forces: H_dl = F . (r - q_max(d,l))
        fdotr = np.where(affected, rx * forces[None, :, 0] + ry * forces[None, :, 1],
                         0.0).sum(axis=1)
        hess = self._hess0 + fdotr[self._order]
        for (node, ks, _), moved, (dy, jac) in zip(self.springs, self._moved, spring_jac):
            hess += ks * np.outer(jac, jac)
            # indexing the zeroed curvature by max(d,l) masks both-moved for free
            curv = np.where(moved, -(nodes[node, 1] - q[:, 1]), 0.0) * (ks * dy)
            hess += curv[self._order]
        return hess


def _minimize(model: _EnergyModel, x0: np.ndarray, tol_grad: float,
              max_iters: int) -> tuple[np.ndarray, list[float], float, int]:
    """Damped Newton with Armijo backtracking. Returns (x, history, |g|, it).

    An accepted step keeps the line search's geometry and energy.
    """
    x = x0.copy()
    geo = model.geometry(x)
    e = model._energy(*geo)
    grad, terms = model.gradient(*geo)
    history = [e]
    gnorm = float(np.abs(grad).max()) if grad.size else 0.0
    for it in range(1, max_iters + 1):
        if gnorm < tol_grad:
            return x, history, gnorm, it - 1
        hess = model.hessian(terms)
        # damp until the (possibly indefinite) Hessian factorizes
        mu = 0.0
        for _ in range(60):
            damped = hess + mu * model.eye
            try:
                np.linalg.cholesky(damped)
                break
            except np.linalg.LinAlgError:
                if mu == 0.0:
                    scale = max(1e-12, float(np.max(np.abs(np.diag(hess)))))
                mu = max(2.0 * mu, 1e-10 * scale)
                mu *= 8.0
        else:
            damped = None
        p = -grad if damped is None else -np.linalg.solve(damped, grad)
        slope = float(np.dot(grad, p))
        if slope >= 0.0:  # not a descent direction, fall back
            p = -grad
            slope = -float(np.dot(grad, grad))
        t = 1.0
        for _ in range(50):
            x_new = x + t * p
            geo = model.geometry(x_new)
            e_new = model._energy(*geo)
            if e_new <= e + 1e-4 * t * slope:
                break
            t *= 0.5
        else:  # no decrease along p
            break
        x, e = x_new, e_new
        grad, terms = model.gradient(*geo)
        history.append(e)
        gnorm = float(np.abs(grad).max()) if grad.size else 0.0
    if gnorm < tol_grad:
        return x, history, gnorm, max_iters
    raise NoConvergenceError("elastica solve", x, gnorm, len(history) - 1)


def _solve(model_at, x0: np.ndarray, tol_grad: float, max_iters: int):
    """Solve model_at(1.0), restarting with a gravity/load ramp if the direct
    attempt fails; model_at(frac) is the model with its gravity and point
    loads scaled by frac. Returns `_minimize`'s tuple, with a ramp's
    histories joined and its stages' steps summed.

    With no gravity and no point force there is nothing to ramp: every
    stage would be the failed solve again, so its error is raised as is.
    """
    model = model_at(1.0)
    try:
        return _minimize(model, x0, tol_grad, max_iters)
    except NoConvergenceError:
        if model.gravity == 0.0 and not any(fx or fy for _, fx, fy in model.point_loads):
            raise
    x, history, steps = x0, [], 0
    for frac in (0.25, 0.5, 0.75, 1.0):
        x, hist, gnorm, its = _minimize(model_at(frac), x, tol_grad, max_iters)
        history.extend(hist)
        steps += its
    return x, history, gnorm, steps


def equilibrium_shape(
    params: BeamParams,
    flex: FlexuralModel,
    load: LoadCase | None = None,
    boundary: str = "clamped",
    initial: BeamShape | None = None,
    max_iters: int = 400,
) -> EquilibriumResult:
    """Minimum-energy configuration of the bead chain under load.

    boundary "clamped" fixes the first bead's orientation at the base pose;
    "simply-supported" pins the base node but leaves its rotation free and
    rests the far end on a stiff vertical support. The returned shape is a
    local energy minimum with max |dE/dtheta| < 1e-9, and its energy
    never exceeds the initial guess's. max_iters, at least 1, is the
    Newton step budget of each solve.

    Pass the previous solution as `initial` when sweeping current: warm
    starts keep the solver on one deterministic branch.

    Raises
    ------
    NoConvergenceError
        Budget exhausted; carries the last iterate and gradient norm.
    UnreachableError
        The solve converged with a joint folded past pi, which no chain
        of beads can take; names the first such joint.
    """
    if not max_iters >= 1:
        raise OutOfRangeError("max_iters", max_iters, 1, math.inf)
    if load is None:
        load = LoadCase()
    for node, _, _ in load.point_loads:
        if not (0 <= node <= params.n_beads):
            raise ValidationError(f"point load node {node} outside 0..{params.n_beads}")
    n_seg = params.n_beads
    masses = np.full(n_seg, params.beam_mass / n_seg)
    pinned = boundary == "simply-supported"
    if boundary not in ("clamped", "simply-supported"):
        raise ValidationError(f"unknown boundary {boundary!r}")
    springs = [(n_seg, SUPPORT_SPRING, 0.0)] if pinned else []
    kappa = flex.ei / params.bead_thickness

    def model_at(frac):
        return _EnergyModel(
            n_seg=n_seg,
            seg_len=params.bead_thickness,
            kappa=kappa,
            masses=masses,
            gravity=load.gravity * frac,
            point_loads=tuple((n, fx * frac, fy * frac) for n, fx, fy in load.point_loads),
            springs=springs,
            pinned=pinned,
        )

    if initial is not None:
        x0 = np.asarray(initial.joint_angles, dtype=float)
        if pinned:
            x0 = np.concatenate(([initial.base_orientation], x0))
    else:
        x0 = np.zeros(n_seg - 1 + pinned)
    x, history, gnorm, its = _solve(model_at, x0, 1e-9, max_iters)
    theta = x[1:] if pinned else x
    folded = np.flatnonzero(~(np.abs(theta) < math.pi))
    if folded.size:  # an equilibrium of the energy that no bead chain can take
        i = int(folded[0])
        raise UnreachableError(f"elastica solve folds joint_angle[{i}] past pi",
                               float(theta[i]), math.pi)
    shape = BeamShape(
        joint_angles=tuple(float(t) for t in theta),
        base_orientation=float(x[0]) if pinned else 0.0,
    )
    return EquilibriumResult(
        shape=shape,
        energy=float(history[-1]),
        grad_norm=gnorm,
        iterations=its,
        energy_history=tuple(history),
    )


# Bend-test discretization: segments close to the physical bead pitch
# across the 40 mm span, even so a center node exists.
N_SEG_3PB = 14


def three_point_bend(
    params: BeamParams,
    flex: FlexuralModel,
    indentation: float,
) -> float:
    """Center reaction force (N) at a prescribed indentation of the bend test.

    Simply supported at the test span: pinned at one support, stiff
    vertical spring at the other (a roller that lets the chord shorten).
    The indentor is a third stiff spring driven to the target depth; its
    force is the readout. Gravity is off, matching a force reading zeroed
    at contact: the slope, not the offset, is the measurement.
    """
    if not (0.0 <= indentation <= 4e-3 + 1e-12):
        raise OutOfRangeError("indentation", indentation, 0.0, 4e-3)
    n_seg = N_SEG_3PB
    seg_len = params.span_3pb / n_seg
    center = n_seg // 2
    model = _EnergyModel(
        n_seg=n_seg,
        seg_len=seg_len,
        kappa=flex.ei / seg_len,
        masses=np.zeros(n_seg),
        gravity=0.0,
        point_loads=(),
        springs=[
            (n_seg, SUPPORT_SPRING, 0.0),
            (center, SUPPORT_SPRING, -indentation),
        ],
        pinned=True,
    )
    x, _, _, _ = _minimize(model, np.zeros(model.n_dof), 1e-10, 400)
    _, nodes, _ = model.geometry(x)
    force = SUPPORT_SPRING * (nodes[center, 1] + indentation)
    return max(0.0, float(force))
