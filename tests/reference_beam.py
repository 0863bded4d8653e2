"""The elastica kernel the Newton loop was first written around.

`_EnergyModel` below is `ccpj.beam._EnergyModel` as it stood before the
loop was restructured to compute each quantity once per step: one
`energy_grad_hess(x)` call builds the geometry, the energy, the gradient
and (by default) the Hessian from scratch. It is kept as an oracle: the
energy, gradient and Hessian that `ccpj.beam._minimize` consumes must
equal its output bit for bit (see `test_beam_oracle.py`). Nothing in the
package imports this module.
"""

from __future__ import annotations

import numpy as np


class _EnergyModel:
    """Energy, gradient, and Hessian of the discrete elastica.

    DOF layout: [base rotation (pinned only)] + joint angles. Every DOF d
    is a rotation about a pivot node; it moves all material downstream of
    that pivot. For a constant world force F at point r the contributions
    are grad_d = -(r - q_d) x F and hess_dl = F . (r - q_m) with q_m the
    downstream-most of the two pivots. Support springs add a rank-1 term
    on top of the same geometric curvature.
    """

    def __init__(self, n_seg, seg_len, kappa, masses, gravity,
                 point_loads, springs, pinned, base_orientation=0.0):
        self.n_seg = n_seg
        self.seg_len = seg_len
        self.kappa = kappa
        self.masses = np.asarray(masses, dtype=float)  # one per segment
        self.gravity = gravity
        self.point_loads = tuple(point_loads)
        self.springs = tuple(springs)  # (node, k, rest_y)
        self.pinned = pinned
        self.base_orientation = base_orientation
        self.n_joint = n_seg - 1
        self.n_dof = self.n_joint + (1 if pinned else 0)
        # pivot node of each DOF: base rotation pivots at node 0,
        # joint j at node j+1
        if pinned:
            self.pivot = np.concatenate(([0], np.arange(1, n_seg)))
        else:
            self.pivot = np.arange(1, n_seg)
        self._joint_slice = slice(1, None) if pinned else slice(0, None)

    def unpack(self, x):
        if self.pinned:
            return x[0] + self.base_orientation, x[1:]
        return self.base_orientation, x

    def geometry(self, x):
        phi0, theta = self.unpack(x)
        phi = phi0 + np.concatenate(([0.0], np.cumsum(theta)))
        steps = self.seg_len * np.stack([np.cos(phi), np.sin(phi)], axis=1)
        nodes = np.zeros((self.n_seg + 1, 2))
        nodes[1:] = np.cumsum(steps, axis=0)
        centers = 0.5 * (nodes[:-1] + nodes[1:])
        return theta, nodes, centers

    def _material_points(self, nodes, centers):
        """Positions, forces, and pivot-cutoff arc index of every load point.

        A point with cutoff c is moved by DOF d iff pivot[d] <= c.
        """
        pts = [centers]
        forces = [np.stack([np.zeros(self.n_seg),
                            -self.masses * self.gravity], axis=1)]
        cuts = [np.arange(self.n_seg)]
        if self.point_loads:
            idx = np.array([p[0] for p in self.point_loads])
            pts.append(nodes[idx])
            forces.append(np.array([[p[1], p[2]] for p in self.point_loads]))
            cuts.append(idx - 1)
        return np.concatenate(pts), np.concatenate(forces), np.concatenate(cuts)

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

    def energy_grad_hess(self, x, want_hess=True):
        theta, nodes, centers = self.geometry(x)
        e = self._energy(theta, nodes, centers)
        grad = np.zeros(self.n_dof)
        grad[self._joint_slice] += self.kappa * theta

        pts, forces, cuts = self._material_points(nodes, centers)
        q = nodes[self.pivot]  # (n_dof, 2) pivot positions
        # affected[d, k]: DOF d moves point k
        affected = self.pivot[:, None] <= cuts[None, :]
        rx = pts[None, :, 0] - q[:, None, 0]
        ry = pts[None, :, 1] - q[:, None, 1]
        torque = rx * forces[None, :, 1] - ry * forces[None, :, 0]
        grad -= np.sum(np.where(affected, torque, 0.0), axis=1)

        # springs enter the gradient as state-dependent vertical forces
        spring_jac = []
        for node, ks, rest in self.springs:
            dy = nodes[node, 1] - rest
            cut = node - 1
            moved = self.pivot <= cut
            jac = np.where(moved, nodes[node, 0] - q[:, 0], 0.0)
            grad += ks * dy * jac
            spring_jac.append((node, ks, dy, cut, moved, jac))

        if not want_hess:
            return e, grad, None

        hess = np.zeros((self.n_dof, self.n_dof))
        hess[self._joint_slice, self._joint_slice] += self.kappa * np.eye(self.n_joint)
        # geometric curvature of constant forces: H_dl = F . (r - q_max(d,l));
        # pivots are arc-ordered, so only the downstream-most pivot matters
        # and the whole block collapses to a per-pivot sum.
        fdotr = np.where(affected,
                         (pts[None, :, 0] - q[:, None, 0]) * forces[None, :, 0]
                         + (pts[None, :, 1] - q[:, None, 1]) * forces[None, :, 1],
                         0.0).sum(axis=1)
        order = np.maximum.outer(np.arange(self.n_dof), np.arange(self.n_dof))
        hess += fdotr[order]
        for node, ks, dy, cut, moved, jac in spring_jac:
            hess += ks * np.outer(jac, jac)
            # moved[] is a prefix along the arc-ordered pivots, so indexing
            # the zeroed curvature by max(d,l) masks both-moved for free
            curv = np.where(moved, -(nodes[node, 1] - q[:, 1]), 0.0) * (ks * dy)
            hess += curv[order]
        return e, grad, hess
