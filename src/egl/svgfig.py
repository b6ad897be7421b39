"""Hand-emitted SVG charts for the two diagnostic figures.

No plotting stack: polylines, axes and text only, with fixed coordinate
formatting so identical inputs give byte-identical files.  Output is
self-contained SVG 1.1 with no external references.
"""

from __future__ import annotations

import math
from html import escape
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .growth import Trajectory
    from .surplus import Figure1Data

_W, _H = 840, 520
_ML, _MR, _MT, _MB = 70, 30, 40, 50


def _f(x: float) -> str:
    return format(x, ".3f")


class _Canvas:
    def __init__(self, title: str):
        self.parts: list[str] = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
            f'height="{_H}" viewBox="0 0 {_W} {_H}">\n'
            f'<title>{escape(title, quote=False)}</title>\n'
            f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>\n']

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}"'
            f' stroke="{stroke}" stroke-width="{_f(width)}"{d}/>\n')

    def polyline(self, pts, stroke="black", width=1.5):
        coords = " ".join([f"{x:.3f},{y:.3f}" for x, y in pts])
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}"'
            f' stroke-width="{_f(width)}"/>\n')

    def polygon(self, pts, fill, opacity=0.25):
        coords = " ".join([f"{_f(x)},{_f(y)}" for x, y in pts])
        self.parts.append(
            f'<polygon points="{coords}" fill="{fill}"'
            f' fill-opacity="{_f(opacity)}" stroke="none"/>\n')

    def circle(self, x, y, r=4.0, fill="black"):
        self.parts.append(
            f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{_f(r)}"'
            f' fill="{fill}"/>\n')

    def text(self, x, y, s, size=12, anchor="start", fill="black"):
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif"'
            f' font-size="{size}" text-anchor="{anchor}" fill="{fill}">'
            f'{escape(s, quote=False)}</text>\n')

    def render(self) -> str:
        return "".join(self.parts) + "</svg>\n"


class _Scale:
    """Affine data-to-pixel mapping for one panel."""

    def __init__(self, x_range, y_range, box):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.px, self.py, self.pw, self.ph = box
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0

    def x(self, v):
        return self.px + (v - self.x0) / (self.x1 - self.x0) * self.pw

    def y(self, v):
        return self.py + self.ph - (v - self.y0) / (self.y1 - self.y0) \
            * self.ph


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * step:
        out.append(0.0 if abs(v) < 1e-15 else v)
        v += step
    return out


def _axes(canvas: _Canvas, scale: _Scale, xlabel: str, ylabel: str):
    canvas.line(scale.px, scale.py + scale.ph, scale.px + scale.pw,
                scale.py + scale.ph)
    canvas.line(scale.px, scale.py, scale.px, scale.py + scale.ph)
    for t in _ticks(scale.x0, scale.x1):
        x = scale.x(t)
        canvas.line(x, scale.py + scale.ph, x, scale.py + scale.ph + 4)
        canvas.text(x, scale.py + scale.ph + 16, format(t, ".6g"),
                    size=10, anchor="middle")
    for t in _ticks(scale.y0, scale.y1):
        y = scale.y(t)
        canvas.line(scale.px - 4, y, scale.px, y)
        canvas.text(scale.px - 6, y + 3, format(t, ".6g"), size=10,
                    anchor="end")
    canvas.text(scale.px + scale.pw / 2, scale.py + scale.ph + 34, xlabel,
                size=12, anchor="middle")
    canvas.text(16, scale.py + 12, ylabel, size=12)


def figure1_svg(data: Figure1Data) -> str:
    """Equilibrium chart: demand ceiling, marginal curve, optimum markers."""
    canvas = _Canvas(f"energy good {data.good}: equilibrium")
    q_max = data.quantities[-1] if data.quantities else 1.0
    y_max = max([data.energy_content * 1.3]
                + [v for v in data.meec if math.isfinite(v)])
    scale = _Scale((0.0, q_max), (0.0, y_max),
                   (_ML, _MT, _W - _ML - _MR, _H - _MT - _MB))
    _axes(canvas, scale, "quantity", "J/unit")

    # willingness ceiling: horizontal at the energy content, vertical drop
    # where the fleet's direct energy is exhausted
    drop = data.saturation_quantity
    ceiling_end = q_max if drop is None or drop > q_max else drop
    canvas.polyline([(scale.x(0.0), scale.y(data.energy_content)),
                     (scale.x(ceiling_end), scale.y(data.energy_content))],
                    stroke="#222222", width=2.0)
    if drop is not None and drop <= q_max:
        canvas.line(scale.x(drop), scale.y(data.energy_content),
                    scale.x(drop), scale.y(0.0), stroke="#222222",
                    width=2.0)

    if data.markers:
        q_star = data.markers["Q_star"]
        # shaded surplus: area between the ceiling and the marginal curve
        shade = [(scale.x(0.0), scale.y(data.energy_content)),
                 (scale.x(q_star), scale.y(data.energy_content))]
        for q, g in zip(reversed(data.quantities), reversed(data.meec)):
            if q <= q_star and math.isfinite(g):
                shade.append((scale.x(q), scale.y(min(g, y_max))))
        canvas.polygon(shade, fill="#7fbf7f")

    pts = [(scale.x(q), scale.y(min(g, y_max)))
           for q, g in zip(data.quantities, data.meec)
           if math.isfinite(g) and g <= y_max * 1.05]
    canvas.polyline(pts, stroke="#c03030", width=2.0)

    if data.markers:
        mk = data.markers
        canvas.line(scale.x(mk["Q_star"]), scale.y(0.0),
                    scale.x(mk["Q_star"]), scale.y(mk["gamma"]),
                    stroke="#3050c0", dash="4,3")
        canvas.circle(scale.x(mk["Q_star"]), scale.y(mk["gamma"]),
                      fill="#3050c0")
        canvas.line(scale.x(mk["Q_star"]), scale.y(mk["gamma"]),
                    scale.x(mk["Q_star"]), scale.y(data.energy_content),
                    stroke="#3050c0", width=1.5)
        labels = [f"Q* = {format(mk['Q_star'], '.6g')}",
                  f"gamma = {format(mk['gamma'], '.6g')}",
                  f"alpha = {format(mk['alpha'], '.6g')}",
                  f"G = {format(mk['G'], '.6g')}",
                  f"E = {format(mk['E_good'], '.6g')}"]
        for i, s in enumerate(labels):
            canvas.text(_W - _MR - 8, _MT + 16 + 14 * i, s, size=11,
                        anchor="end")
    canvas.text(_ML + 6, _MT - 8,
                f"good {data.good}: ceiling (black), marginal embodied "
                f"energy (red)", size=12)
    return canvas.render()


def figure2_svg(trajectory: Trajectory) -> str:
    """Growth chart: output, marginal surplus, and stocks over time."""
    canvas = _Canvas("growth dynamics")
    records = trajectory.records
    if not records:
        return canvas.render()
    ts = [r.state.period for r in records]
    t_max = max(ts[-1], 1)
    energy = [r.energy for r in records]
    stocks = [r.state.stocks for r in records]

    panels = [
        ("outputs Q*", [(gid, [e.outputs.get(gid, 0.0) for e in energy])
                        for gid in sorted(energy[-1].outputs)]),
        ("marginal surplus alpha",
         [(gid, [e.marginal_surplus.get(gid, 0.0) for e in energy])
          for gid in sorted(energy[-1].marginal_surplus)]),
        ("stocks x", [(mid, [x.get(mid, 0.0) for x in stocks])
                      for mid in sorted(stocks[-1])]),
    ]
    colors = ["#c03030", "#3050c0", "#208050", "#a06010", "#703090"]
    panel_h = (_H - _MT - _MB - 2 * 24) / 3

    for idx, (label, series) in enumerate(panels):
        top = _MT + idx * (panel_h + 24)
        values = [v for _, vs in series for v in vs if math.isfinite(v)]
        lo = min(values + [0.0])
        hi = max(values + [1e-12])
        scale = _Scale((0.0, float(t_max)), (lo, hi),
                       (_ML, top, _W - _ML - _MR, panel_h))
        _axes(canvas, scale, "period" if idx == 2 else "", label)
        for k, (name, vs) in enumerate(series):
            color = colors[k % len(colors)]
            canvas.polyline([(scale.x(t), scale.y(v))
                             for t, v in zip(ts, vs)], stroke=color)
            canvas.text(_W - _MR - 8, top + 12 + 12 * k,
                        f"{name} = {format(vs[-1], '.6g')}", size=10,
                        anchor="end", fill=color)
        if trajectory.steady:
            zp = ts[-1]
            canvas.line(scale.x(zp), top, scale.x(zp), top + panel_h,
                        stroke="#888888", dash="5,4")
            if idx == 0:
                canvas.text(scale.x(zp) + 4, top + 12,
                            f"steady state t = {zp}", size=10,
                            fill="#555555")
    return canvas.render()
