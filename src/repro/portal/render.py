"""Flot-like chart specifications.

The real portal plots with the Flot Javascript library; the reproduction
produces the *specification* a Flot call would consume — series of
(x, y) points, axis labels, threshold annotations — and can render it to
JSON (for a hypothetical browser) or ASCII (for the runnable examples).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hydrology.timeseries import TimeSeries

#: pixels of axis space around an SVG plot
SVG_MARGIN = 40


def _escape(text: str) -> str:
    """Minimal XML escaping for SVG text nodes."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


@dataclass
class Series:
    """One plotted line/bar series."""

    label: str
    points: List[Tuple[float, float]]
    kind: str = "line"          # "line" | "bars" | "band"
    units: str = ""

    @staticmethod
    def from_timeseries(ts: TimeSeries, label: str = "",
                        kind: str = "line") -> "Series":
        """Build a series from a :class:`TimeSeries` (x in hours)."""
        points = [(t / 3600.0, v) for t, v in zip(ts.times(), ts.values)
                  if not math.isnan(v)]
        return Series(label=label or ts.name, points=points, kind=kind,
                      units=ts.units)

    def y_max(self) -> float:
        """Largest y value (0 when empty)."""
        return max((y for _x, y in self.points), default=0.0)


@dataclass
class ChartSpec:
    """A complete chart: series, axes, annotations."""

    title: str
    series: List[Series] = field(default_factory=list)
    x_label: str = "time (h)"
    y_label: str = ""
    annotations: Dict[str, float] = field(default_factory=dict)  # label -> y

    def add(self, series: Series) -> "ChartSpec":
        """Append a series; returns self for chaining."""
        self.series.append(series)
        return self

    def add_threshold(self, label: str, value: float) -> "ChartSpec":
        """Add a horizontal threshold annotation (flood warning line)."""
        self.annotations[label] = value
        return self

    def add_band(self, lower: TimeSeries, upper: TimeSeries,
                 label: str = "uncertainty") -> "ChartSpec":
        """Add an uncertainty band (two 'band' series a renderer fills).

        The presentation stakeholders asked for: model output shown with
        its bounds, not as a single overconfident line.
        """
        self.series.append(Series.from_timeseries(
            lower, label=f"{label}:lower", kind="band"))
        self.series.append(Series.from_timeseries(
            upper, label=f"{label}:upper", kind="band"))
        return self

    def bands(self) -> List[Tuple[Series, Series]]:
        """The (lower, upper) band pairs in this spec."""
        band_series = [s for s in self.series if s.kind == "band"]
        return [(band_series[i], band_series[i + 1])
                for i in range(0, len(band_series) - 1, 2)]

    def to_json(self) -> str:
        """The spec as JSON (what the browser-side Flot call would take)."""
        return json.dumps({
            "title": self.title,
            "xLabel": self.x_label,
            "yLabel": self.y_label,
            "annotations": self.annotations,
            "series": [
                {"label": s.label, "kind": s.kind, "units": s.units,
                 "points": s.points}
                for s in self.series
            ],
        })

    def to_svg(self, width: int = 640, height: int = 320) -> str:
        """A standalone SVG rendering any browser can display.

        Bands are filled polygons behind the lines; thresholds are
        dashed horizontal rules; axes carry min/max labels.  This is the
        server-side fallback renderer — the live portal draws with Flot
        from :meth:`to_json`.
        """
        margin = SVG_MARGIN
        lines = [s for s in self.series if s.kind == "line" and s.points]
        bands = self.bands()
        all_points = [p for s in self.series for p in s.points]
        if not all_points:
            return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                    f'width="{width}" height="{height}"><text x="10" '
                    f'y="20">{_escape(self.title)} (no data)</text></svg>')
        xs = [x for x, _y in all_points]
        ys = [y for _x, y in all_points] + list(self.annotations.values())
        x_min, x_max = min(xs), max(xs)
        y_min, y_max = min(0.0, min(ys)), max(ys) or 1.0
        span_x = (x_max - x_min) or 1.0
        span_y = (y_max - y_min) or 1.0

        def sx(x):
            return margin + (x - x_min) / span_x * (width - 2 * margin)

        def sy(y):
            return height - margin - (y - y_min) / span_y \
                * (height - 2 * margin)

        palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<text x="{margin}" y="20" font-size="14" '
            f'font-weight="bold">{_escape(self.title)}</text>',
            f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
            f'y2="{height - margin}" stroke="#333"/>',
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
            f'y2="{height - margin}" stroke="#333"/>',
            f'<text x="{margin}" y="{height - margin + 16}" '
            f'font-size="10">{x_min:g}</text>',
            f'<text x="{width - margin - 20}" y="{height - margin + 16}" '
            f'font-size="10">{x_max:g} {_escape(self.x_label)}</text>',
            f'<text x="4" y="{margin}" font-size="10">{y_max:.3g}</text>',
            f'<text x="4" y="{height - margin}" font-size="10">'
            f'{y_min:g}</text>',
        ]
        for lower, upper in bands:
            ring = ([(sx(x), sy(y)) for x, y in lower.points]
                    + [(sx(x), sy(y)) for x, y in reversed(upper.points)])
            points_attr = " ".join(f"{x:.1f},{y:.1f}" for x, y in ring)
            parts.append(f'<polygon points="{points_attr}" '
                         f'fill="#1f77b4" fill-opacity="0.15" stroke="none"/>')
        for i, series in enumerate(lines):
            colour = palette[i % len(palette)]
            points_attr = " ".join(f"{sx(x):.1f},{sy(y):.1f}"
                                   for x, y in series.points)
            parts.append(f'<polyline points="{points_attr}" fill="none" '
                         f'stroke="{colour}" stroke-width="1.5"/>')
            parts.append(f'<text x="{width - margin - 130}" '
                         f'y="{margin + 14 * i}" font-size="11" '
                         f'fill="{colour}">{_escape(series.label)}</text>')
        for label, value in self.annotations.items():
            y = sy(value)
            parts.append(f'<line x1="{margin}" y1="{y:.1f}" '
                         f'x2="{width - margin}" y2="{y:.1f}" '
                         f'stroke="#d62728" stroke-dasharray="6,4"/>')
            parts.append(f'<text x="{margin + 4}" y="{y - 4:.1f}" '
                         f'font-size="10" fill="#d62728">'
                         f'{_escape(label)}</text>')
        parts.append("</svg>")
        return "".join(parts)

    def to_ascii(self, width: int = 72, height: int = 14) -> str:
        """A terminal rendering of the first line series (plus thresholds)."""
        lines = [self.title, "=" * min(len(self.title), width)]
        line_series = [s for s in self.series if s.kind == "line" and s.points]
        if not line_series:
            lines.append("(no data)")
            return "\n".join(lines)
        main = line_series[0]
        ys = [y for _x, y in main.points]
        y_max = max(max(ys), max(self.annotations.values(), default=0.0))
        y_max = y_max or 1.0
        columns = min(width, len(ys))
        bucket = max(1, math.ceil(len(ys) / columns))
        sampled = [max(ys[i:i + bucket]) for i in range(0, len(ys), bucket)]
        grid = [[" "] * len(sampled) for _ in range(height)]
        for x, y in enumerate(sampled):
            bar = int(round((y / y_max) * (height - 1)))
            for row in range(bar + 1):
                grid[height - 1 - row][x] = "█" if row == bar else "│"
        for label, value in self.annotations.items():
            row = height - 1 - int(round((value / y_max) * (height - 1)))
            if 0 <= row < height:
                for x in range(len(sampled)):
                    if grid[row][x] == " ":
                        grid[row][x] = "-"
        lines.extend("".join(row) for row in grid)
        lines.append(f"0h{' ' * (len(sampled) - 6)}{main.points[-1][0]:.0f}h")
        lines.append(f"peak {max(ys):.2f} {main.units}  "
                     + "  ".join(f"{k}={v:g}" for k, v in
                                 self.annotations.items()))
        return "\n".join(lines)
