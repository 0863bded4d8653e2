"""The Newton loop's kernel against the elastica kernel it replaced.

`ccpj.beam._minimize` builds each iterate's geometry and energy in the line
search, then its gradient from that geometry, and its Hessian from the
gradient's terms only where it takes a step. `reference_beam._EnergyModel`
builds all of them from scratch in one `energy_grad_hess(x)` call. The
energy, gradient and Hessian must be the same bits, at every state, on
each model shape the package solves, and on the model of each load-ramp
stage.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_beam
from ccpj.beam import GRAVITY, N_SEG_3PB, SUPPORT_SPRING, _EnergyModel, ei_from_apparent
from ccpj.params import BeamParams

PARAMS = BeamParams()


def _models(shape, k_app, load, frac=1.0):
    """(new, reference) models of one shape, built from the same arguments.

    `load` in [0, 1] scales gravity, a tip load of up to 50 mN, or the
    indentation up to 4 mm. `frac` then scales gravity and the point loads
    as `equilibrium_shape` builds a load-ramp stage's model.
    """
    n_seg, seg_len = PARAMS.n_beads, PARAMS.bead_thickness
    kwargs = dict(masses=np.full(n_seg, PARAMS.beam_mass / n_seg), gravity=0.0,
                  point_loads=(), springs=[], pinned=False)
    if shape == "clamped_gravity":
        kwargs["gravity"] = GRAVITY * load
    elif shape == "clamped_tip_load":
        kwargs["point_loads"] = ((n_seg, 5e-3 * load, -0.05 * load),)
    else:  # "pinned_springs": the bend test's roller and indentor
        n_seg = N_SEG_3PB
        seg_len = PARAMS.span_3pb / n_seg
        kwargs.update(masses=np.zeros(n_seg), pinned=True, springs=[
            (n_seg, SUPPORT_SPRING, 0.0), (n_seg // 2, SUPPORT_SPRING, -4e-3 * load)])
    kappa = ei_from_apparent(k_app, PARAMS.span_3pb) / seg_len
    kwargs["gravity"] = kwargs["gravity"] * frac
    kwargs["point_loads"] = tuple((n, fx * frac, fy * frac)
                                  for n, fx, fy in kwargs["point_loads"])
    return tuple(cls(n_seg=n_seg, seg_len=seg_len, kappa=kappa, **kwargs)
                 for cls in (_EnergyModel, reference_beam._EnergyModel))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def assert_kernel_exact(model, ref, x):
    # the loop's order: line-search geometry and energy, then the gradient,
    # then the Hessian from the gradient's terms
    geo = model.geometry(x)
    e = model._energy(*geo)
    grad, terms = model.gradient(*geo)
    hess = model.hessian(terms)
    e_ref, grad_ref, hess_ref = ref.energy_grad_hess(x)
    assert _bits(e) == _bits(e_ref)
    assert _bits(grad) == _bits(grad_ref)
    assert _bits(hess) == _bits(hess_ref)
    assert model.energy(x) == e_ref
    # a second evaluation from a fresh geometry: nothing the model keeps
    # between calls (its load arrays) moves a bit
    geo = model.geometry(x)
    grad, terms = model.gradient(*geo)
    assert [_bits(v) for v in (model._energy(*geo), grad, model.hessian(terms))] == \
        [_bits(v) for v in (e_ref, grad_ref, hess_ref)]


@pytest.mark.parametrize("shape", ["clamped_gravity", "clamped_tip_load", "pinned_springs"])
def test_kernel_matches_reference_at_rest_and_bent(shape):
    model, ref = _models(shape, 1.1, 1.0)
    for x in (np.zeros(model.n_dof), np.full(model.n_dof, -0.2), -np.zeros(model.n_dof)):
        assert_kernel_exact(model, ref, x)


# Inherits the active profile: derandomized under CI's "ci" profile, and
# drawn afresh by the fresh-seed step, which names the default profile.
@pytest.mark.fresh_seed
@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(["clamped_gravity", "clamped_tip_load", "pinned_springs"]),
       k_app=st.floats(0.5, 80.0), load=st.floats(0.0, 1.0),
       state=st.lists(st.floats(-1.0, 1.0), min_size=20, max_size=20),
       frac=st.sampled_from((0.25, 0.5, 0.75, 1.0)))
def test_kernel_matches_reference_property(shape, k_app, load, state, frac):
    # the direct solve's model, then a load-ramp stage's, built at its fraction
    for f in (1.0, frac):
        model, ref = _models(shape, k_app, load, f)
        assert_kernel_exact(model, ref, np.array(state[:model.n_dof]))
