"""Metamorphic relations of the gait physics: how an answer must move when
one input moves, checked without knowing the answer itself.

Each relation is one hypothesis property. The properties inherit the active
profile: derandomized under CI's "ci" profile, and drawn afresh by the
fresh-seed step, which names the default profile.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ccpj import gait
from ccpj.gait import MASKS, Scenario, average_speeds
from ccpj.params import GaitSignal


def _scenario(period, i_high, mask="all"):
    return Scenario(signal=GaitSignal(period=period, i_high=i_high, mask=MASKS[mask]),
                    dt=period / 100.0)


@pytest.mark.fresh_seed
@settings(max_examples=60, deadline=None)
@given(mask=st.sampled_from(sorted(MASKS)), period=st.floats(2.0, 10.0),
       i_high=st.floats(0.28, 0.5),
       gaps=st.lists(st.floats(7.3, 70.0), min_size=2, max_size=40))
def test_progress_flag_nondecreasing_in_gap_property(mask, period, i_high, gaps):
    """Per mask, a gait that advances under a ceiling gap (mm) advances
    under every wider one. navigate_confined judges a whole path by its
    smallest gap on the strength of this."""
    advance = gait._advance_at(_scenario(period, i_high, mask))
    flags = [advance(gap * 1e-3) > 1e-12 for gap in sorted(gaps)]
    assert flags == sorted(flags)


@pytest.mark.fresh_seed
@settings(max_examples=60, deadline=None)
@given(period=st.floats(2.0, 10.0),
       currents=st.lists(st.floats(0.28, 0.5), min_size=2, max_size=20))
def test_speed_nondecreasing_in_high_current_property(period, currents):
    """Above the stiffness-knee threshold, a higher current stands the legs
    no lower, so the all-legs speed does not fall."""
    sc = _scenario(period, 0.4)
    speeds = average_speeds([replace(sc, signal=replace(sc.signal, i_high=i))
                             for i in sorted(currents)])
    assert speeds == sorted(speeds)
