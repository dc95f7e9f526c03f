"""Deterministic SVG and CSV emission for the region geometry.

The SVG is bare geometry — one filled ``<path>`` per region over a
light domain outline, plus a ``<metadata>`` element carrying the region
areas as JSON — so outputs are byte-stable and diffable.  No plotting
framework is involved.
"""

from __future__ import annotations

import json
import math

from .feasibility import _as_bloch, _select_spectrum
from .monotones import (_FULL_DISC, Arc, RegionGeometry, Segment,
                        _planar_polygon, region_geometry)
from .serialize import round_floats

__all__ = ["svg_figure", "boundary_csv", "figure_regions"]

_FILL = {"accessible": "#2f6fb4", "source": "#c35039"}

#: Fixed world window, domain outline and whether it closes, per measure
#: tag, so the projection (and thus the bytes) do not depend on the state.
_WINDOWS = {
    # the unit disc as its two half-arcs, from the top
    "bloch-halfplane": ((-1.05, 1.05, -1.05, 1.05), _FULL_DISC[0][::-1], True),
    "coordinate-plane": ((-0.05, 1.05, -0.05, 1.05), _planar_polygon(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])[0], True),
    # the admissible half of the line x + y = 1
    "sorted-representative": ((-0.05, 1.05, -0.05, 1.05),
                              (Segment((0.5, 0.5), (1.0, 0.0)),), False),
}

_CONTINUITY_TOL = 1e-9

#: Operation class of each figure.
_FIGURE_CLASSES = {"qubit-sio": "SIO", "qubit-pio": "PIO",
                   "qutrit": "IC", "two-level": "IC"}


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"  # -0.0 + 0.0 is +0.0


class _Projection:
    """Affine world-to-screen map (y axis flipped)."""

    def __init__(self, window, size):
        x0, x1, y0, y1 = window
        self.scale = size / max(x1 - x0, y1 - y0)
        self.x0, self.y1 = x0, y1
        self.width = math.ceil(self.scale * (x1 - x0))
        self.height = math.ceil(self.scale * (y1 - y0))

    def point(self, xy):
        return (self.scale * (xy[0] - self.x0),
                self.scale * (self.y1 - xy[1]))


def _path_data(loop, proj: _Projection, closed: bool) -> str:
    parts = []
    previous_end = None
    first_start = None
    for piece in loop:
        start, end = piece.start, piece.end
        if previous_end is None:
            first_start = start
            sx, sy = proj.point(start)
            parts.append(f"M {_fmt(sx)} {_fmt(sy)}")
        elif math.hypot(start[0] - previous_end[0],
                        start[1] - previous_end[1]) > _CONTINUITY_TOL:
            raise ValueError("boundary pieces are not connected")
        ex, ey = proj.point(end)
        if isinstance(piece, Segment):
            parts.append(f"L {_fmt(ex)} {_fmt(ey)}")
        elif isinstance(piece, Arc):
            sweep_world = piece.theta1 - piece.theta0
            large = 1 if abs(sweep_world) > math.pi + 1e-12 else 0
            # screen y is flipped, so world-counterclockwise is sweep 0
            sweep = 0 if sweep_world > 0 else 1
            rx = piece.rx * proj.scale
            ry = piece.ry * proj.scale
            parts.append(f"A {_fmt(rx)} {_fmt(ry)} 0 {large} {sweep} "
                         f"{_fmt(ex)} {_fmt(ey)}")
        else:
            raise TypeError(f"unknown boundary piece {type(piece).__name__}")
        previous_end = end
    if closed:
        if math.hypot(first_start[0] - previous_end[0],
                      first_start[1] - previous_end[1]) > _CONTINUITY_TOL:
            raise ValueError("boundary loop does not close")
        parts.append("Z")
    return " ".join(parts)


def svg_figure(figure: str, regions: dict, metadata: dict,
               size: int = 480) -> str:
    """Render named regions to an SVG document string.

    ``regions`` maps kind ("accessible"/"source") to
    :class:`~cohertk.monotones.RegionGeometry`.  ``metadata`` is
    embedded as JSON in a ``<metadata>`` element (floats at 12
    significant digits), alongside the measured areas.
    """
    measures = {geo.measure for geo in regions.values()}
    if len(measures) != 1:
        raise ValueError("regions in one figure must share a measure tag")
    measure = measures.pop()
    if measure not in _WINDOWS:
        raise ValueError(f"no drawing window for measure {measure!r}")
    window, domain, domain_closed = _WINDOWS[measure]
    proj = _Projection(window, size)

    payload = dict(metadata)
    payload["figure"] = figure
    payload["measure"] = measure
    for kind, geo in regions.items():
        payload[f"{kind}_area"] = geo.area()
    meta_json = json.dumps(round_floats(payload), allow_nan=False)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{proj.width}" '
        f'height="{proj.height}" '
        f'viewBox="0 0 {proj.width} {proj.height}">',
        f'  <metadata id="region-data">{meta_json}</metadata>',
        f'  <path id="domain" d="{_path_data(domain, proj, domain_closed)}" '
        f'fill="none" stroke="#9a9a9a" stroke-width="1"/>',
    ]
    for kind in sorted(regions):
        geo = regions[kind]
        color = _FILL.get(kind, "#555555")
        closed = geo.dimension == 2
        data = " ".join(_path_data(loop, proj, closed)
                        for loop in geo.components)
        if closed:
            style = (f'fill="{color}" fill-opacity="0.45" '
                     f'stroke="{color}" stroke-width="1.5"')
        else:
            style = f'fill="none" stroke="{color}" stroke-width="3"'
        lines.append(f'  <path id="{kind}" d="{data}" {style}/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def boundary_csv(regions: dict, per_piece: int = 64) -> str:
    """Boundary samples of the given regions as CSV text with columns
    region, component, x, y."""
    rows = ["region,component,x,y"]
    for kind in sorted(regions):
        geo = regions[kind]
        for index, points in enumerate(geo.boundary_points(per_piece)):
            for x, y in points:
                rows.append(f"{kind},{index},{_fmt(x)},{_fmt(y)}")
    return "\n".join(rows) + "\n"


def _figure_subject(figure: str, subject):
    """The subject a named figure draws: a Bloch vector for the qubit
    figures, the planar family's spectrum for the others."""
    if figure not in _FIGURE_CLASSES:
        raise ValueError(f"unknown figure {figure!r}")
    if figure.startswith("qubit-"):
        return _as_bloch(subject)
    lam = _select_spectrum(subject, _FIGURE_CLASSES[figure])
    if len(lam) != {"qutrit": 3, "two-level": 2}[figure]:
        raise ValueError(f"figure {figure!r} takes no length-{len(lam)} spectrum")
    return lam


def figure_regions(figure: str, subject) -> dict:
    """Accessible and source regions for a named figure.

    Figures: ``qubit-sio`` / ``qubit-pio`` (subject: Bloch vector or
    single-qubit state), ``qutrit`` (subject: pure state or length-3
    spectrum), ``two-level`` (subject: state or length-2 spectrum).
    """
    subject = _figure_subject(figure, subject)
    return {kind: region_geometry(subject, _FIGURE_CLASSES[figure], kind)
            for kind in ("accessible", "source")}
