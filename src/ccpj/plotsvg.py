"""Minimal deterministic SVG line plots.

The CLI's figures are simple curves; hand-rolled SVG keeps them free of
plotting dependencies and byte-stable across environments. Everything is
formatted with fixed precision and no timestamps, so rerunning a command
reproduces the file exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .fixedfmt import format_columns

STROKE = "#1f77b4"  # the curve's colour

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 46


def nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] on the 1/2/5 ladder.

    An empty range, or one at most 8 float spacings wide at its larger
    end, is widened to [lo, lo + |lo|], or to [0, lo] where that
    overflows: a step on its ladder could not move a tick. Below 1e-300,
    whose fifth may not be a normal float, |lo| is taken as 1. A range
    wider than the largest float is rejected, and no tick is infinite.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise ValidationError(f"cannot tick non-finite range [{lo}, {hi}]")
    if hi - lo <= 8.0 * math.ulp(max(abs(lo), abs(hi))):
        hi = lo + (abs(lo) if abs(lo) >= 1e-300 else 1.0)
        lo, hi = (lo, hi) if math.isfinite(hi) else (0.0, lo)
    raw = (hi - lo) / 5  # the step: the first rung at or above a fifth of the range
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    # at most 7 ticks fit; the cap bounds a step that cannot move t
    for _ in range(20):
        if t > hi + step * 1e-9 or not math.isfinite(t):
            break
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def escape(text: str) -> str:
    """Text as XML character data: what xml.sax.saxutils.escape gives,
    without that module's import of urllib (~35 ms and 2 MiB a process)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot(xs, ys, xlabel: str, ylabel: str, title: str,
              marker: tuple[float, float, str] | None = None) -> str:
    """SVG of one curve through the points (xs, ys).

    `xs` and `ys` are equal-length, non-empty sequences or arrays of
    finite numbers; an empty curve, a length mismatch, or a NaN or
    infinite value anywhere (the marker included), raises
    `ValidationError`. `marker` drops an annotated point, e.g. the argmax
    of a sweep. The polyline is mapped to pixels as one array expression
    and written by `fixedfmt.format_columns`'s table gathers, to the same
    bytes as formatting each point with `f"{v:.2f}"`. The title, axis
    labels and the marker text are XML-escaped.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValidationError(f"line_plot has {len(xs)} xs but {len(ys)} ys")
    if not xs.size:
        raise ValidationError("line_plot got an empty curve")
    mx, my = ([], []) if marker is None else ([marker[0]], [marker[1]])
    xs_all = np.concatenate([xs, mx])
    ys_all = np.concatenate([ys, my])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    # min and max propagate NaN, so all four are finite iff every point is.
    if not all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi))):
        raise ValidationError("line_plot got a NaN or infinite point")
    xt = nice_ticks(x_lo, x_hi)
    yt = nice_ticks(y_lo, y_hi)
    x0, x1 = min(xt[0], x_lo), max(xt[-1], x_hi)
    y0, y1 = min(yt[0], y_lo), max(yt[-1], y_hi)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    # Pixel maps; elementwise on arrays, so a polyline maps in one call.
    def px(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(y):
        return HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * (
            HEIGHT - MARGIN_T - MARGIN_B)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
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
               f'font-family="sans-serif" font-size="12">{escape(xlabel)}</text>')
    out.append(f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 '
               f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f})">{escape(ylabel)}</text>')

    pts = format_columns((px(xs), py(ys)), (2, 2), ", ")[:-1]
    out.append(f'<polyline points="{pts}" fill="none" stroke="{STROKE}" '
               f'stroke-width="1.5"/>')

    if marker is not None:
        mx, my, text = marker
        out.append(f'<circle cx="{px(mx):.2f}" cy="{py(my):.2f}" r="4" '
                   f'fill="none" stroke="#d62728" stroke-width="1.5"/>')
        out.append(f'<text x="{px(mx) + 8:.2f}" y="{py(my) - 8:.2f}" '
                   f'font-family="sans-serif" font-size="11" '
                   f'fill="#d62728">{escape(text)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
