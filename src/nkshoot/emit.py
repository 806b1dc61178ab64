"""Deterministic file emission: CSV (comma-separated, header row, LF), JSON,
and static SVG plots. Floats are written in their shortest round-trip form
(at most 17 significant digits); files are written atomically.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .geometry import MaxOrbitRecord, volume_and_mean_curvature
from .integrate import Trajectory
from .series import SeriesSolution, _COMPONENTS
from .shoot import Curve
from .state import State, constraints


def fmt_float(x) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(x))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-emit-")
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else fmt_float(cell)
            for cell in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# row builders

TRAJECTORY_HEADER = ["t", "lambda", "u0", "u1", "u2", "v0", "v1", "v2",
                     "I1", "I2", "I3", "I4", "V", "l"]


def trajectory_rows(traj: Trajectory):
    for t, y in zip(traj.times, traj.states):
        st = State.from_vec(t, y)
        c = constraints(st)
        V, l = volume_and_mean_curvature(st)
        yield [t, *y, c.I1, c.I2, c.I3, c.I4, V, l]


CURVE_HEADER = ["param", "T", "lambda", "mu", "w0", "w1", "w2", "Vmax", "B"]


def record_row(rec: MaxOrbitRecord):
    return [rec.param, rec.T, rec.lam, rec.mu, *rec.w, rec.Vmax, rec.B]


def curve_rows(curve: Curve):
    for rec in curve.records:
        yield record_row(rec)


SERIES_HEADER = ["component", "order", "coefficient"]


def series_rows(sol: SeriesSolution):
    for name in _COMPONENTS:
        for k, c in enumerate(sol.coeffs[name]):
            yield [name, str(k), c]


# ---------------------------------------------------------------------------
# static SVG

SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 800, 640, 60


@dataclass
class SvgFigure:
    """Minimal line-plot description: polylines and markers in data space."""

    title: str = ""
    polylines: list = field(default_factory=list)   # (label, color, dash, pts)
    markers: list = field(default_factory=list)     # (label, color, x, y)

    def add_polyline(self, label, color, pts, dash=""):
        self.polylines.append((label, color, dash, np.asarray(pts, float)))

    def add_marker(self, label, color, x, y):
        self.markers.append((label, color, float(x), float(y)))

    def _bounds(self):
        xs, ys = [], []
        for _, _, _, pts in self.polylines:
            xs.extend(pts[:, 0])
            ys.extend(pts[:, 1])
        for _, _, x, y in self.markers:
            xs.append(x)
            ys.append(y)
        if not xs:
            return -1.0, 1.0, -1.0, 1.0
        x_lo, x_hi = min(xs + [0.0]), max(xs + [0.0])
        y_lo, y_hi = min(ys + [0.0]), max(ys + [0.0])
        pad_x = 0.05 * (x_hi - x_lo or 1.0)
        pad_y = 0.05 * (y_hi - y_lo or 1.0)
        return x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y

    def render(self) -> str:
        x_lo, x_hi, y_lo, y_hi = self._bounds()
        w, h, m = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN

        def sx(x):
            return m + (x - x_lo) / (x_hi - x_lo) * (w - 2 * m)

        def sy(y):
            return h - m - (y - y_lo) / (y_hi - y_lo) * (h - 2 * m)

        out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
               f'height="{h}" viewBox="0 0 {w} {h}">',
               f'<rect width="{w}" height="{h}" fill="white"/>']
        if self.title:
            out.append(f'<text x="{w // 2}" y="24" text-anchor="middle" '
                       f'font-family="sans-serif" font-size="16">'
                       f'{self.title}</text>')
        # axes through the origin
        out.append(f'<line x1="{sx(x_lo):.2f}" y1="{sy(0):.2f}" '
                   f'x2="{sx(x_hi):.2f}" y2="{sy(0):.2f}" '
                   f'stroke="#999" stroke-width="1"/>')
        out.append(f'<line x1="{sx(0):.2f}" y1="{sy(y_lo):.2f}" '
                   f'x2="{sx(0):.2f}" y2="{sy(y_hi):.2f}" '
                   f'stroke="#999" stroke-width="1"/>')
        legend_y = 44
        for label, color, dash, pts in self.polylines:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            out.append(f'<polyline fill="none" stroke="{color}" '
                       f'stroke-width="1.5"{dash_attr} points="{coords}"/>')
            if label:
                out.append(f'<text x="{w - m - 150}" y="{legend_y}" '
                           f'font-family="sans-serif" font-size="12" '
                           f'fill="{color}">{label}</text>')
                legend_y += 16
        for label, color, x, y in self.markers:
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" '
                       f'fill="{color}" stroke="black" stroke-width="0.5"/>')
            if label:
                out.append(f'<text x="{sx(x) + 6:.2f}" y="{sy(y) - 6:.2f}" '
                           f'font-family="sans-serif" font-size="11">'
                           f'{label}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"


def write_svg(path: str, fig: SvgFigure) -> None:
    _atomic_write(path, fig.render())
