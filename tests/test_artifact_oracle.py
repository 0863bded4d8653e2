"""Byte-identity oracles for the two artifact formatters.

`SimTrace.to_csv` and `plotsvg.line_plot` build their number text with
`fixedfmt.format_columns`, by table gathers over whole columns. The
references below are the earlier row-by-row CSV writer and per-point SVG
writer, kept verbatim but for the SVG writer's multi-series legend, which
no caller drew; every case compares the two outputs with `==`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccpj.config import build_scenario, data_dir, load_config
from ccpj.gait import SimTrace, navigate_confined, run
from ccpj.plotsvg import (
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    WIDTH,
    _fmt,
    line_plot,
    nice_ticks,
)

SCENARIOS = ("flat_ratchet_T4", "gate_20mm", "gate_40mm", "payload_5g",
             "slope_15", "tunnel_40x20")

HEADER = ("t_s,x_mm,beta_front_deg,beta_rear_deg,height_mm,"
          "anchored_front,anchored_rear\n")


def reference_to_csv(self) -> str:
    lines = ["t_s,x_mm,beta_front_deg,beta_rear_deg,height_mm,anchored_front,anchored_rear"]
    for i in range(len(self.t)):
        lines.append(
            f"{self.t[i]:.6f},{self.x[i] * 1e3:.6f},"
            f"{math.degrees(self.beta_front[i]):.6f},"
            f"{math.degrees(self.beta_rear[i]):.6f},"
            f"{self.height[i] * 1e3:.6f},"
            f"{int(self.anchored_front[i])},{int(self.anchored_rear[i])}"
        )
    return "\n".join(lines) + "\n"


def reference_line_plot(xs, ys, xlabel: str, ylabel: str, title: str,
                        marker: tuple[float, float, str] | None = None) -> str:
    xs_all, ys_all = list(xs), list(ys)
    if marker is not None:
        xs_all.append(marker[0])
        ys_all.append(marker[1])
    xt = nice_ticks(min(xs_all), max(xs_all))
    yt = nice_ticks(min(ys_all), max(ys_all))
    x0, x1 = min(xt[0], min(xs_all)), max(xt[-1], max(xs_all))
    y0, y1 = min(yt[0], min(ys_all)), max(yt[-1], max(ys_all))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x: float) -> float:
        return MARGIN_L + (x - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(y: float) -> float:
        return HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * (
            HEIGHT - MARGIN_T - MARGIN_B)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for t in xt:
        x = px(t)
        out.append(f'<line x1="{x:.2f}" y1="{py(y0):.2f}" x2="{x:.2f}" '
                   f'y2="{py(y1):.2f}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_B + 16:.2f}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt(t)}</text>')
    for t in yt:
        y = py(t)
        out.append(f'<line x1="{px(x0):.2f}" y1="{y:.2f}" x2="{px(x1):.2f}" '
                   f'y2="{y:.2f}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 6:.2f}" y="{y + 4:.2f}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{_fmt(t)}</text>')
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
               f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
               f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" '
               f'stroke="#333" stroke-width="1"/>')
    out.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" '
               f'y="{HEIGHT - 8}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    out.append(f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 '
               f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f})">{ylabel}</text>')

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    out.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
               f'stroke-width="1.5"/>')

    if marker is not None:
        mx, my, text = marker
        out.append(f'<circle cx="{px(mx):.2f}" cy="{py(my):.2f}" r="4" '
                   f'fill="none" stroke="#d62728" stroke-width="1.5"/>')
        out.append(f'<text x="{px(mx) + 8:.2f}" y="{py(my) - 8:.2f}" '
                   f'font-family="sans-serif" font-size="11" '
                   f'fill="#d62728">{text}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def make_trace(t, x, beta_front, beta_rear, height, anchored_front,
               anchored_rear) -> SimTrace:
    zeros = np.zeros(len(t))
    return SimTrace(
        t=np.asarray(t, dtype=float), x=np.asarray(x, dtype=float),
        beta_front=np.asarray(beta_front, dtype=float),
        beta_rear=np.asarray(beta_rear, dtype=float),
        activation_front=zeros, activation_rear=zeros,
        anchored_front=np.asarray(anchored_front, dtype=bool),
        anchored_rear=np.asarray(anchored_rear, dtype=bool),
        height=np.asarray(height, dtype=float))


@pytest.fixture(scope="module")
def shipped_traces():
    traces = {}
    for name in SCENARIOS:
        sc = build_scenario(load_config(
            data_dir() / "scenarios" / f"{name}.scenario"))
        traces[name] = (navigate_confined(sc)[0] if sc.terrain.confined
                        else run(sc))
    return traces


@pytest.mark.parametrize("name", SCENARIOS)
def test_shipped_trace_csv(shipped_traces, name):
    trace = shipped_traces[name]
    assert len(trace.t) > 600
    assert trace.to_csv() == reference_to_csv(trace)


@pytest.mark.parametrize("name", SCENARIOS)
def test_shipped_displacement_svg(shipped_traces, name):
    """The simulate figure: arrays in, the old list-built bytes out."""
    trace = shipped_traces[name]
    got = line_plot(trace.t, trace.x * 1e3, "time (s)",
                    "displacement (mm)", f"{name}: displacement vs time")
    want = reference_line_plot(
        list(trace.t), [x * 1e3 for x in trace.x], "time (s)",
        "displacement (mm)", f"{name}: displacement vs time")
    assert got == want


class TestCsvEdges:
    def test_header_only(self):
        trace = make_trace([], [], [], [], [], [], [])
        assert trace.to_csv() == reference_to_csv(trace) == HEADER

    def test_one_row(self):
        trace = make_trace([0.0], [-0.0], [1e-9], [-1e-9], [0.0315], [True],
                           [False])
        assert trace.to_csv() == reference_to_csv(trace)
        assert trace.to_csv() == (
            HEADER + "0.000000,-0.000000,0.000000,-0.000000,31.500000,1,0\n")


# Values whose 6-decimal rendering is delicate: signed zeros, values that
# round to -0.000000, and decimal half-way cases at the 6th and the 2nd
# place. Each comes raw, per-mille (the x and height columns are scaled by
# 1e3) and in radians (the angle columns are converted to degrees).
EDGES = (0.0, -0.0, 1e-7, -1e-7, -4e-7, -4.9999999e-7, 5e-7, -5e-7,
         0.0000005, 0.0000015, 0.0000025, 1.0000005, -1.0000005, 1.005,
         -1.005, 2.675, 0.125, 1e12, -1e12, 999999.9999995)
EDGE_VALUES = st.sampled_from(
    [*EDGES, *(v / 1e3 for v in EDGES), *(math.radians(v) for v in EDGES)])
CSV_VALUES = st.one_of(EDGE_VALUES, st.floats(-1e12, 1e12))


@st.composite
def traces(draw):
    n = draw(st.integers(0, 24))
    cols = [draw(st.lists(CSV_VALUES, min_size=n, max_size=n))
            for _ in range(5)]
    flags = [draw(st.lists(st.booleans(), min_size=n, max_size=n))
             for _ in range(2)]
    return make_trace(*cols, *flags)


@pytest.mark.fresh_seed
@settings(max_examples=300, deadline=None)
@given(trace=traces())
def test_csv_matches_row_formatter(trace):
    assert trace.to_csv() == reference_to_csv(trace)


class TestSvgCases:
    def test_marker(self):
        values = [2.0, 2.5, 3.0, 3.5, 4.0]
        speeds = [0.9, 1.4, 1.6, 1.2, 0.8]
        marker = (3.0, 1.6, "max at 3 s")
        got = line_plot(values, speeds, "period_s", "speed (mm/s)", "sweep",
                        marker=marker)
        assert got == reference_line_plot(values, speeds, "period_s",
                                          "speed (mm/s)", "sweep", marker=marker)

    def test_marker_outside_data(self):
        xs, ys = [1.0, 2.0], [1.0, 2.0]
        marker = (-3.0, 7.5, "far")
        assert (line_plot(xs, ys, "x", "y", "t", marker=marker)
                == reference_line_plot(xs, ys, "x", "y", "t", marker=marker))

    def test_single_point(self):
        assert (line_plot([1.0], [-0.0], "x", "y", "t")
                == reference_line_plot([1.0], [-0.0], "x", "y", "t"))


# Plot values on a 1e-3 grid (plus signed zero and half-way cases at the
# 2nd decimal): any two distinct values are far above float resolution,
# so every drawn range can be ticked.
SVG_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(lambda k: k / 1000),
    st.sampled_from([-0.0, 1.005, -1.005, 2.675, 0.125, 0.005]))


@st.composite
def plots(draw):
    n = draw(st.integers(1, 12))
    xs = draw(st.lists(SVG_VALUES, min_size=n, max_size=n))
    ys = draw(st.lists(SVG_VALUES, min_size=n, max_size=n))
    marker = draw(st.none() | st.tuples(SVG_VALUES, SVG_VALUES,
                                        st.just("mark")))
    return xs, ys, marker


@pytest.mark.fresh_seed
@settings(max_examples=200, deadline=None)
@given(plot=plots())
def test_svg_matches_point_formatter(plot):
    xs, ys, marker = plot
    assert (line_plot(xs, ys, "x", "y", "t", marker=marker)
            == reference_line_plot(xs, ys, "x", "y", "t", marker=marker))
