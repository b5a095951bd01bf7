"""Inline-SVG chart kit for the HTML report generator.

Dependency-free and **byte-deterministic**: every primitive is a pure
function of its inputs — no timestamps, no random ids, coordinates rounded
through one formatter — so golden tests can pin whole pages. The plotting
entry point takes named series of ``(x, y)`` arrays on a shared axis
frame; ``svg_heatmap`` is the SVG twin of
:func:`repro.viz.ascii.ascii_sweep_grid`.

Colors are CSS custom properties (``var(--c0)`` …) defined by the page
stylesheet (:data:`repro.report.page.PAGE_CSS`), which supplies light and
dark values — marks reference roles, not hex, so one stylesheet swap
re-themes every chart. The heatmap is the exception: its sequential ramp
is value-mapped to fixed hex tiles that carry their own background in
either mode.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "esc",
    "fmt_num",
    "nice_ticks",
    "Frame",
    "svg_plot",
    "svg_bars",
    "svg_heatmap",
    "svg_timeline",
    "sparkline",
    "series_color",
    "SEQUENTIAL_RAMP",
]

#: Categorical slots (light mode); the page CSS maps --c0..--c7 to these
#: and swaps dark-stepped values in under ``prefers-color-scheme: dark``.
PALETTE_LIGHT = (
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
)
PALETTE_DARK = (
    "#3987e5", "#d95926", "#199e70", "#c98500",
    "#d55181", "#008300", "#9085e9", "#e66767",
)

#: One-hue sequential ramp (blue 100→700) for magnitude encodings.
SEQUENTIAL_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)
#: Ramp index at which tile labels flip from ink to white.
_RAMP_INK_FLIP = 6


def series_color(i: int) -> str:
    """CSS color for categorical series slot ``i`` (fixed order, wraps)."""
    return f"var(--c{i % len(PALETTE_LIGHT)})"


def esc(text: object) -> str:
    """Escape text for XML/HTML content and attribute values."""
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def fmt_num(x: float) -> str:
    """Compact deterministic number label: ints stay ints, floats get 4 sig figs."""
    x = float(x)
    if x == 0:
        return "0"
    if abs(x) < 1e15 and x == int(x):
        return str(int(x))
    return f"{x:.4g}"


def _c(v: float) -> str:
    """One coordinate, rounded to a stable 2-decimal string."""
    return f"{v:.2f}"


def nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """At most ~``n`` round tick values covering ``[lo, hi]``."""
    if hi < lo:
        lo, hi = hi, lo
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(1, n)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (mult * mag) <= n:
            step = mult * mag
            break
    first = math.ceil(lo / step)
    last = math.floor(hi / step + 1e-9)
    return [first * step + k * step for k in range(int(last - first) + 1)]


class Frame:
    """Shared axis/scale layer: margins, linear scales, gridlines, labels.

    Every chart primitive draws inside one Frame so axes, tick styling, and
    coordinate rounding are identical across chart kinds.
    """

    def __init__(
        self,
        *,
        width: int = 600,
        height: int = 280,
        x_lo: float,
        x_hi: float,
        y_lo: float,
        y_hi: float,
        x_label: str = "x",
        y_label: str = "y",
        x_fmt=fmt_num,
        y_fmt=fmt_num,
    ):
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        self.width, self.height = int(width), int(height)
        self.x_lo, self.x_hi = float(x_lo), float(x_hi)
        self.y_lo, self.y_hi = float(y_lo), float(y_hi)
        self.x_label, self.y_label = x_label, y_label
        self.l, self.r, self.t, self.b = 58, 16, 14, 44  # margins
        self.x_fmt, self.y_fmt = x_fmt, y_fmt

    @property
    def plot_w(self) -> float:
        return self.width - self.l - self.r

    @property
    def plot_h(self) -> float:
        return self.height - self.t - self.b

    def sx(self, x: float) -> float:
        return self.l + (float(x) - self.x_lo) / (self.x_hi - self.x_lo) * self.plot_w

    def sy(self, y: float) -> float:
        return self.t + (1.0 - (float(y) - self.y_lo) / (self.y_hi - self.y_lo)) * self.plot_h

    def open(self) -> str:
        return (
            f'<svg viewBox="0 0 {self.width} {self.height}" width="{self.width}" '
            f'height="{self.height}" xmlns="http://www.w3.org/2000/svg" '
            f'role="img" aria-label="{esc(self.y_label)} vs {esc(self.x_label)}">'
        )

    def axes(self) -> str:
        """Hairline y-gridlines + tick labels + axis labels + baseline."""
        parts = []
        y0 = self.t + self.plot_h
        for ty in nice_ticks(self.y_lo, self.y_hi):
            py = self.sy(ty)
            parts.append(
                f'<line class="grid" x1="{_c(self.l)}" y1="{_c(py)}" '
                f'x2="{_c(self.l + self.plot_w)}" y2="{_c(py)}"/>'
            )
            parts.append(
                f'<text class="tick" x="{_c(self.l - 6)}" y="{_c(py + 3)}" '
                f'text-anchor="end">{esc(self.y_fmt(ty))}</text>'
            )
        for tx in nice_ticks(self.x_lo, self.x_hi):
            px = self.sx(tx)
            parts.append(
                f'<text class="tick" x="{_c(px)}" y="{_c(y0 + 14)}" '
                f'text-anchor="middle">{esc(self.x_fmt(tx))}</text>'
            )
        parts.append(
            f'<line class="axis" x1="{_c(self.l)}" y1="{_c(y0)}" '
            f'x2="{_c(self.l + self.plot_w)}" y2="{_c(y0)}"/>'
        )
        parts.append(
            f'<text class="axis-label" x="{_c(self.l + self.plot_w / 2)}" '
            f'y="{_c(self.height - 6)}" text-anchor="middle">{esc(self.x_label)}</text>'
        )
        parts.append(
            f'<text class="axis-label" transform="rotate(-90 12 {_c(self.t + self.plot_h / 2)})" '
            f'x="12" y="{_c(self.t + self.plot_h / 2)}" text-anchor="middle">'
            f"{esc(self.y_label)}</text>"
        )
        return "".join(parts)


def _extent(series: dict) -> tuple[float, float, float, float]:
    xs = np.concatenate([np.asarray(x, dtype=np.float64) for x, _ in series.values()])
    ys = np.concatenate([np.asarray(y, dtype=np.float64) for _, y in series.values()])
    if xs.size == 0:
        raise ValueError("series are empty")
    return float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())


def svg_plot(
    series: dict[str, tuple],
    *,
    width: int = 600,
    height: int = 280,
    x_label: str = "x",
    y_label: str = "y",
    kinds: dict[str, str] | None = None,
    x_fmt=fmt_num,
    y_fmt=fmt_num,
) -> str:
    """Named (x, y) series on one axis frame.

    ``kinds`` maps a series name to ``"line"`` (default), ``"step"``
    (post-step), or ``"scatter"``; unlisted series draw as lines. Series
    take categorical color slots in dict order (fixed, never cycled).
    Every point carries a native ``<title>`` tooltip.
    """
    if not series:
        raise ValueError("need at least one series")
    kinds = kinds or {}
    x_lo, x_hi, y_lo, y_hi = _extent(series)
    fr = Frame(
        width=width, height=height, x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi,
        x_label=x_label, y_label=y_label, x_fmt=x_fmt, y_fmt=y_fmt,
    )
    parts = [fr.open(), fr.axes()]
    for slot, (name, (x, y)) in enumerate(series.items()):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError(f"series {name!r}: x/y length mismatch")
        kind = kinds.get(name, "line")
        color = series_color(slot)
        pts = [(fr.sx(xi), fr.sy(yi)) for xi, yi in zip(x, y)]
        if kind == "scatter":
            for (px, py), xi, yi in zip(pts, x, y):
                parts.append(
                    f'<circle class="dot" cx="{_c(px)}" cy="{_c(py)}" r="4" '
                    f'style="fill:{color}">'
                    f"<title>{esc(name)}: ({esc(x_fmt(xi))}, {esc(y_fmt(yi))})</title>"
                    "</circle>"
                )
            continue
        if kind == "step" and len(pts) > 1:
            d = [f"M{_c(pts[0][0])},{_c(pts[0][1])}"]
            for (px0, _), (px1, py1) in zip(pts, pts[1:]):
                d.append(f"H{_c(px1)}V{_c(py1)}")
            path = "".join(d)
        else:
            path = "M" + "L".join(f"{_c(px)},{_c(py)}" for px, py in pts)
        parts.append(f'<path class="line" d="{path}" style="stroke:{color}"/>')
        # End marker (≥8px with a surface ring) + point tooltips.
        px, py = pts[-1]
        parts.append(
            f'<circle class="dot" cx="{_c(px)}" cy="{_c(py)}" r="4" '
            f'style="fill:{color}"/>'
        )
        for (px, py), xi, yi in zip(pts, x, y):
            parts.append(
                f'<circle class="hit" cx="{_c(px)}" cy="{_c(py)}" r="7">'
                f"<title>{esc(name)}: ({esc(x_fmt(xi))}, {esc(y_fmt(yi))})</title>"
                "</circle>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _bar_path(x: float, y: float, w: float, h: float, r: float = 4.0) -> str:
    """Horizontal bar path: square at the baseline, rounded data-end."""
    if w <= r:
        return (
            f"M{_c(x)},{_c(y)}H{_c(x + w)}V{_c(y + h)}H{_c(x)}Z"
        )
    return (
        f"M{_c(x)},{_c(y)}H{_c(x + w - r)}"
        f"Q{_c(x + w)},{_c(y)} {_c(x + w)},{_c(y + r)}"
        f"V{_c(y + h - r)}"
        f"Q{_c(x + w)},{_c(y + h)} {_c(x + w - r)},{_c(y + h)}"
        f"H{_c(x)}Z"
    )


def svg_bars(
    values: dict[str, float],
    *,
    width: int = 600,
    unit: str = "",
    fmt=fmt_num,
    slot: int = 0,
) -> str:
    """Horizontal labelled bars.

    One hue for the whole set (the bars are one series); value at the tip;
    4px rounded data-end, square baseline; 18px bars with air between.
    """
    if not values:
        raise ValueError("need at least one value")
    if any(v < 0 for v in values.values()):
        raise ValueError("bar values must be >= 0")
    bar_h, gap, label_w, value_w = 18, 10, 170, 88
    height = len(values) * (bar_h + gap) + gap
    peak = max(values.values()) or 1.0
    plot_w = width - label_w - value_w
    color = series_color(slot)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img" aria-label="bar chart">'
    ]
    y = gap
    for name, v in values.items():
        w = v / peak * plot_w
        parts.append(
            f'<text class="tick" x="{_c(label_w - 8)}" y="{_c(y + bar_h - 5)}" '
            f'text-anchor="end">{esc(name)}</text>'
        )
        parts.append(
            f'<path class="bar" d="{_bar_path(label_w, y, w, bar_h)}" '
            f'style="fill:{color}"><title>{esc(name)}: {esc(fmt(v))}{esc(unit)}</title></path>'
        )
        parts.append(
            f'<text class="tick" x="{_c(label_w + w + 6)}" y="{_c(y + bar_h - 5)}">'
            f"{esc(fmt(v))}{esc(unit)}</text>"
        )
        y += bar_h + gap
    parts.append("</svg>")
    return "".join(parts)


def _ramp_color(frac: float) -> tuple[str, bool]:
    """(sequential hex, needs-white-label) for a value at ``frac`` ∈ [0, 1]."""
    idx = int(round(frac * (len(SEQUENTIAL_RAMP) - 1)))
    idx = max(0, min(len(SEQUENTIAL_RAMP) - 1, idx))
    return SEQUENTIAL_RAMP[idx], idx >= _RAMP_INK_FLIP


def svg_heatmap(
    x_values: list,
    y_values: list,
    cells: dict[tuple, float],
    *,
    x_label: str = "x",
    y_label: str = "y",
    fmt=fmt_num,
) -> str:
    """Value grid as sequential-ramp tiles — the `ascii_sweep_grid` of SVG.

    ``cells`` maps ``(x, y)`` to a value; missing cells render as muted
    dashes. Each tile is labelled (white or ink by the tile's luminance)
    and carries a ``<title>`` tooltip. 2px surface gaps separate tiles.
    """
    if not cells:
        raise ValueError("need at least one cell")
    label_w, top_h, cell_w, cell_h = 120, 26, 84, 34
    width = label_w + len(x_values) * cell_w + 10
    height = top_h + len(y_values) * cell_h + 30
    vals = list(cells.values())
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or 1.0
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img" '
        f'aria-label="{esc(y_label)} by {esc(x_label)} heatmap">'
    ]
    for j, x in enumerate(x_values):
        parts.append(
            f'<text class="tick" x="{_c(label_w + j * cell_w + cell_w / 2)}" '
            f'y="{_c(top_h - 8)}" text-anchor="middle">{esc(x)}</text>'
        )
    for i, yv in enumerate(y_values):
        cy = top_h + i * cell_h
        parts.append(
            f'<text class="tick" x="{_c(label_w - 8)}" y="{_c(cy + cell_h / 2 + 3)}" '
            f'text-anchor="end">{esc(yv)}</text>'
        )
        for j, xv in enumerate(x_values):
            cx = label_w + j * cell_w
            v = cells.get((xv, yv))
            if v is None:
                parts.append(
                    f'<text class="muted" x="{_c(cx + cell_w / 2)}" '
                    f'y="{_c(cy + cell_h / 2 + 3)}" text-anchor="middle">--</text>'
                )
                continue
            hexcol, white = _ramp_color((v - lo) / span)
            ink = "#ffffff" if white else "#0b0b0b"
            parts.append(
                f'<rect x="{_c(cx + 1)}" y="{_c(cy + 1)}" width="{cell_w - 2}" '
                f'height="{cell_h - 2}" rx="3" fill="{hexcol}">'
                f"<title>{esc(x_label)}={esc(xv)}, {esc(y_label)}={esc(yv)}: "
                f"{esc(fmt(v))}</title></rect>"
            )
            parts.append(
                f'<text x="{_c(cx + cell_w / 2)}" y="{_c(cy + cell_h / 2 + 4)}" '
                f'text-anchor="middle" fill="{ink}" font-size="11">{esc(fmt(v))}</text>'
            )
    parts.append(
        f'<text class="axis-label" x="{_c(label_w + len(x_values) * cell_w / 2)}" '
        f'y="{_c(height - 8)}" text-anchor="middle">{esc(x_label)} '
        f"(shade spans [{esc(fmt(lo))}, {esc(fmt(hi))}])</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


#: Fixed span-category → categorical slot (identity follows the category).
_CAT_SLOTS = {"sim": 0, "exec": 1, "net": 2, "hier": 3, "pop": 4, "sweep": 5, "virtual": 6}


def svg_timeline(
    lanes: list[tuple[str, list[tuple[float, float, str, str]]]],
    *,
    t0: float,
    t1: float,
    width: int = 760,
    t_fmt=fmt_num,
) -> str:
    """Per-lane span timeline.

    ``lanes`` is ``[(label, [(start, end, name, cat), ...]), ...]``; spans
    are colored by category (fixed mapping) and tooltipped with name and
    duration. ``[t0, t1]`` is the rendered window.
    """
    if not lanes:
        raise ValueError("need at least one lane")
    if t1 <= t0:
        t1 = t0 + 1.0
    label_w, gap, lane_h = 110, 6, 20
    height = len(lanes) * (lane_h + gap) + gap + 26
    plot_w = width - label_w - 14
    scale = plot_w / (t1 - t0)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img" aria-label="span timeline">'
    ]
    y = gap
    for label, spans in lanes:
        parts.append(
            f'<rect class="lane" x="{label_w}" y="{_c(y)}" width="{_c(plot_w)}" '
            f'height="{lane_h}"/>'
        )
        parts.append(
            f'<text class="tick" x="{_c(label_w - 8)}" y="{_c(y + lane_h - 6)}" '
            f'text-anchor="end">{esc(label)}</text>'
        )
        for start, end, name, cat in spans:
            if end < t0 or start > t1:
                continue
            a = label_w + (max(start, t0) - t0) * scale
            w = max((min(end, t1) - max(start, t0)) * scale, 1.0)
            color = series_color(_CAT_SLOTS.get(cat, 7))
            parts.append(
                f'<rect x="{_c(a)}" y="{_c(y + 2)}" width="{_c(w)}" '
                f'height="{lane_h - 4}" rx="2" style="fill:{color}">'
                f"<title>{esc(name)} [{esc(cat)}]: {esc(t_fmt(start))} – "
                f"{esc(t_fmt(end))} ({esc(fmt_num(end - start))}s)</title></rect>"
            )
        y += lane_h + gap
    parts.append(
        f'<text class="tick" x="{label_w}" y="{_c(y + 12)}">{esc(t_fmt(t0))}s</text>'
    )
    parts.append(
        f'<text class="tick" x="{_c(label_w + plot_w)}" y="{_c(y + 12)}" '
        f'text-anchor="end">{esc(t_fmt(t1))}s</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def sparkline(ys, *, width: int = 150, height: int = 30) -> str:
    """Tiny inline trend line: de-emphasis stroke, accent end-dot."""
    ys = np.asarray(list(ys), dtype=np.float64)
    if ys.size == 0:
        return '<span class="muted">--</span>'
    lo, hi = float(ys.min()), float(ys.max())
    if hi == lo:
        hi = lo + 1.0
    pad = 4.0
    n = max(ys.size - 1, 1)
    pts = [
        (
            pad + i / n * (width - 2 * pad),
            pad + (1.0 - (v - lo) / (hi - lo)) * (height - 2 * pad),
        )
        for i, v in enumerate(ys)
    ]
    path = "M" + "L".join(f"{_c(px)},{_c(py)}" for px, py in pts)
    px, py = pts[-1]
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        f'xmlns="http://www.w3.org/2000/svg" class="spark" role="img" '
        f'aria-label="sparkline">'
        f'<path class="spark-line" d="{path}"/>'
        f'<circle class="dot" cx="{_c(px)}" cy="{_c(py)}" r="3" style="fill:var(--c0)"/>'
        "</svg>"
    )
