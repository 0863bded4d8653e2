"""SVG plotting helpers."""

import math
from xml.dom import minidom
from xml.sax import saxutils

import numpy as np
import pytest

from ccpj.errors import ValidationError
from ccpj.plotsvg import escape, line_plot, nice_ticks


class TestNiceTicks:
    @pytest.mark.parametrize("lo,hi,step", [
        (0.0, 10.0, 2.0),
        (0.0, 1.0, 0.2),
        (0.0, 0.47, 0.1),
        (2.0, 9.0, 2.0),
        (0.0, 100.0, 20.0),
        (-3.0, 3.0, 2.0),
    ])
    def test_step_on_1_2_5_ladder(self, lo, hi, step):
        ticks = nice_ticks(lo, hi)
        assert len(ticks) >= 2
        got = ticks[1] - ticks[0]
        assert got == pytest.approx(step)
        # ticks sit inside [lo, hi] on multiples of the step, reaching within
        # one step of each end
        assert ticks[0] >= lo - 1e-9 and ticks[-1] <= hi + 1e-9
        assert ticks[0] - lo < step and hi - ticks[-1] < step
        for t in ticks:
            assert abs(t / got - round(t / got)) < 1e-9

    def test_degenerate_range(self):
        ticks = nice_ticks(3.0, 3.0)
        assert len(ticks) >= 2 and ticks[0] <= 3.0 + 1e-12

    @pytest.mark.parametrize("lo,hi", [
        (0.3, 0.30000000000000004),  # one float spacing apart
        (-0.3, -0.29999999999999993),
        (0.0, 5e-324),
        (1e6, 1e6 + 4 * math.ulp(1e6)),
    ])
    def test_range_within_float_spacing_ticks_like_an_empty_one(self, lo, hi):
        # its ladder step would not move a tick; it once looped forever
        assert nice_ticks(lo, hi) == nice_ticks(lo, lo)

    def test_range_a_few_spacings_wide_still_ticked_as_given(self):
        lo = 0.3
        hi = lo + 64 * math.ulp(lo)
        ticks = nice_ticks(lo, hi)
        assert 2 <= len(ticks) <= 12
        assert ticks[0] >= lo and ticks[-1] <= hi

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            nice_ticks(0.0, float("nan"))

    def test_range_wider_than_the_largest_float_rejected(self):
        with pytest.raises(ValidationError):
            nice_ticks(-1.7e308, 1.7e308)

    @pytest.mark.parametrize("lo", [1e308, 1.7976931348623157e308])
    def test_empty_range_near_the_largest_float_widened_down(self, lo):
        # widening up to lo + |lo| would overflow; a sweep at one such
        # value once raised OverflowError here
        ticks = nice_ticks(lo, lo)
        assert 2 <= len(ticks) <= 12 and all(map(math.isfinite, ticks))
        assert ticks[0] == 0.0 and ticks[-1] <= lo

    @pytest.mark.parametrize("lo,hi", [(5e-324, 5e-324), (5e-324, 1e-323),
                                       (-1e-310, -1e-310)])
    def test_subnormal_empty_range_widened_by_one(self, lo, hi):
        # [lo, 2 lo] has no normal fifth to step by; it once raised
        # ValueError from log10(0)
        assert nice_ticks(lo, hi) == nice_ticks(lo, lo + 1.0)


class TestLinePlot:
    def test_basic_document(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        ys = [0.0, 1.0, 0.5, 2.0]
        svg = line_plot(xs, ys, "t / s", "v / mm/s", "demo")
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>\n")
        assert "t / s" in svg and "v / mm/s" in svg and "demo" in svg
        assert "polyline" in svg
        assert "nan" not in svg.lower()

    @pytest.mark.parametrize("text", ["", "plain", "a&b<c", "&amp;", "x > 0 & y",
                                      "<<&&>>"])
    def test_escape_matches_saxutils(self, text):
        assert escape(text) == saxutils.escape(text)

    def test_text_is_xml_escaped(self):
        svg = line_plot([0.0, 1.0], [0.0, 1.0], "x > 0", "y & z", "a&b<c: demo",
                        marker=(0.5, 0.5, "max <here>"))
        texts = [t.firstChild.data for t in
                 minidom.parseString(svg).getElementsByTagName("text")]
        for text in ("x > 0", "y & z", "a&b<c: demo", "max <here>"):
            assert text in texts

    def test_deterministic(self):
        xs, ys = [0.0, 1.0, 2.0], [0.3, 0.1, 0.7]
        assert line_plot(xs, ys, "x", "y", "t") == line_plot(xs, ys, "x", "y", "t")

    def test_marker_text(self):
        xs = [1.0, 2.0, 3.0]
        ys = [1.0, 4.0, 2.0]
        svg = line_plot(xs, ys, "x", "y", "t",
                        marker=(2.0, 4.0, "max at 2 s"))
        assert "max at 2 s" in svg
        assert "circle" in svg

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError, match="empty curve"):
            line_plot([], [], "x", "y", "t")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_point_rejected(self, bad, where, axis):
        xs, ys = [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]
        (xs if axis == "x" else ys)[where] = bad
        with pytest.raises(ValidationError):
            line_plot(xs, ys, "x", "y", "t")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_marker_rejected(self, bad):
        xs, ys = [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]
        for marker in ((bad, 1.0, "m"), (1.0, bad, "m")):
            with pytest.raises(ValidationError):
                line_plot(xs, ys, "x", "y", "t", marker=marker)

    @pytest.mark.parametrize("xs,ys", [
        ([0.0, 1.0, 2.0, 100.0], [0.0, 1.0, 2.0]),
        ([0.0, 1.0], [0.0, 1.0, 2.0]),
        ([], [1.0]),
    ])
    def test_length_mismatch_rejected(self, xs, ys):
        with pytest.raises(ValidationError, match="xs but"):
            line_plot(xs, ys, "x", "y", "t")

    def test_accepts_arrays(self):
        xs, ys = [0.0, 0.5, 1.0], [2.0, -1.0, 0.25]
        assert (line_plot(np.array(xs), np.array(ys), "x", "y", "t")
                == line_plot(xs, ys, "x", "y", "t"))
