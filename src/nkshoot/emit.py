"""Deterministic file emission: CSV (comma-separated, header row, LF), JSON,
and fig2's static SVG, which write_svg renders from the polylines and
markers cli.run_fig2 picks. The row builders read a trajectory, a
max-orbit record (a curve's CSV is record_row over its records) or a
series table. Floats are written in their shortest round-trip form (at
most 17 significant digits); files are written atomically.
"""
from __future__ import annotations

import json
import os
import tempfile

from .geometry import MaxOrbitRecord, volume_and_mean_curvature
from .integrate import Trajectory
from .series import SeriesSolution, _COMPONENTS
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


SERIES_HEADER = ["component", "order", "coefficient"]


def series_rows(sol: SeriesSolution):
    for name in _COMPONENTS:
        for k, c in enumerate(sol.coeffs[name]):
            yield [name, str(k), c]


# ---------------------------------------------------------------------------
# static SVG

SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 800, 640, 60


def write_svg(path: str, title: str, polylines, markers) -> None:
    """A titled line plot in data space: polylines (label, color, dash,
    points), each with a legend entry, and labelled markers (label, color,
    x, y), on axes through the origin, with a 5 % pad around the data."""
    pts = [p for *_, line in polylines for p in line]
    xs, ys = zip(*pts, *((x, y) for *_, x, y in markers), (0.0, 0.0))
    pad_x = 0.05 * (max(xs) - min(xs) or 1.0)
    pad_y = 0.05 * (max(ys) - min(ys) or 1.0)
    x_lo, x_hi = min(xs) - pad_x, max(xs) + pad_x
    y_lo, y_hi = min(ys) - pad_y, max(ys) + pad_y
    w, h, m = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN

    def sx(x):
        return m + (x - x_lo) / (x_hi - x_lo) * (w - 2 * m)

    def sy(y):
        return h - m - (y - y_lo) / (y_hi - y_lo) * (h - 2 * m)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
           f'height="{h}" viewBox="0 0 {w} {h}">',
           f'<rect width="{w}" height="{h}" fill="white"/>',
           f'<text x="{w // 2}" y="24" text-anchor="middle" '
           f'font-family="sans-serif" font-size="16">{title}</text>',
           # axes through the origin
           f'<line x1="{sx(x_lo):.2f}" y1="{sy(0):.2f}" '
           f'x2="{sx(x_hi):.2f}" y2="{sy(0):.2f}" '
           f'stroke="#999" stroke-width="1"/>',
           f'<line x1="{sx(0):.2f}" y1="{sy(y_lo):.2f}" '
           f'x2="{sx(0):.2f}" y2="{sy(y_hi):.2f}" '
           f'stroke="#999" stroke-width="1"/>']
    for k, (label, color, dash, line) in enumerate(polylines):
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in line)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(f'<polyline fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash_attr} points="{coords}"/>')
        out.append(f'<text x="{w - m - 150}" y="{44 + 16 * k}" '
                   f'font-family="sans-serif" font-size="12" '
                   f'fill="{color}">{label}</text>')
    for label, color, x, y in markers:
        out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" '
                   f'fill="{color}" stroke="black" stroke-width="0.5"/>')
        out.append(f'<text x="{sx(x) + 6:.2f}" y="{sy(y) - 6:.2f}" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
    out.append("</svg>")
    _atomic_write(path, "\n".join(out) + "\n")
