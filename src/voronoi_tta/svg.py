"""SVG rendering of 2-D diagrams: exact cell polygons and sampled rasters.

Polygonal cells come from half-plane clipping and are drawn exactly; the
cluster-influence diagrams have curved boundaries, so those are rendered by
sampling assignments on a pixel grid (run-length merged per row to keep the
files small). An optional scatter overlay marks labeled points.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#edc948",
    "#76b7b2",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)


def cell_color(k: int) -> str:
    return PALETTE[k % len(PALETTE)]


class _Frame:
    """Maps world coordinates in bbox to SVG pixels (y axis flipped)."""

    def __init__(self, bbox):
        self.xmin, self.xmax, self.ymin, self.ymax = (float(v) for v in bbox)
        self.width = 640  # every document; the height follows the bbox's aspect
        self.scale = self.width / (self.xmax - self.xmin)
        self.height = int(round((self.ymax - self.ymin) * self.scale))

    def x(self, wx) -> float:
        return (wx - self.xmin) * self.scale

    def y(self, wy) -> float:
        return (self.ymax - wy) * self.scale


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _scatter(frame: _Frame, points: Array, classes, radius: float) -> list[str]:
    out = []
    classes = np.asarray(classes, dtype=int)
    for (px, py), k in zip(np.asarray(points, dtype=float), classes):
        out.append(
            f'<circle cx="{_fmt(frame.x(px))}" cy="{_fmt(frame.y(py))}" r="{_fmt(radius)}" '
            f'fill="{cell_color(int(k))}" stroke="#222222" stroke-width="0.6"/>'
        )
    return out


def _document(frame: _Frame, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{frame.width}" '
        f'height="{frame.height}" viewBox="0 0 {frame.width} {frame.height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def polygons_svg(
    cells: list[Array],
    bbox,
    points: Array | None = None,
    point_classes=None,
) -> str:
    """One filled polygon per non-empty cell, colored by its index in ``cells``
    (the (V, 2) vertex arrays of ``compute_cells_2d``)."""
    frame = _Frame(bbox)
    body = []
    for k, vertices in enumerate(cells):
        if len(vertices) < 3:
            continue
        coords = " ".join(f"{_fmt(frame.x(vx))},{_fmt(frame.y(vy))}" for vx, vy in vertices)
        body.append(
            f'<polygon points="{coords}" fill="{cell_color(k)}" '
            f'fill-opacity="0.55" stroke="#333333" stroke-width="1.2"/>'
        )
    if points is not None:
        body.extend(_scatter(frame, points, point_classes, radius=3.0))
    return _document(frame, body)


def assignment_grid(assign, bbox, n: int):
    """Evaluate an assignment function at the centers of an n x n pixel grid.

    ``assign`` maps an (n, 2) point array to (n,) integer labels. Returns the
    (n, n) label grid plus the x and y center coordinates; row 0 is the
    bottom of the box.
    """
    xmin, xmax, ymin, ymax = (float(v) for v in bbox)
    xs = xmin + (np.arange(n) + 0.5) * (xmax - xmin) / n
    ys = ymin + (np.arange(n) + 0.5) * (ymax - ymin) / n
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    labels = np.asarray(assign(pts)).reshape(n, n)
    return labels, xs, ys


def _runs(row: Array):
    """(start, stop, value) of each maximal run of equal values in a 1-D row."""
    start = 0
    for j in range(1, len(row) + 1):
        if j == len(row) or row[j] != row[start]:
            yield start, j, row[start]
            start = j


def raster_svg(
    grid: Array,
    bbox,
    highlight: Array | None = None,
    points: Array | None = None,
    point_classes=None,
) -> str:
    """Row-RLE rectangles colored by grid label.

    ``highlight`` is an optional boolean mask of the same shape drawn as a
    dark overlay (used for diagram-subtraction regions).
    """
    grid = np.asarray(grid)
    ny, nx = grid.shape
    frame = _Frame(bbox)
    cw = frame.width / nx
    ch = frame.height / ny
    body = []

    def rect(row, col0, col1, fill, opacity):
        # grid row 0 is the bottom of the bbox; SVG y runs downward.
        x = col0 * cw
        y = frame.height - (row + 1) * ch
        w = (col1 - col0) * cw
        body.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(ch + 0.5)}" '
            f'fill="{fill}" fill-opacity="{opacity}"/>'
        )

    for i in range(ny):
        for start, stop, label in _runs(grid[i]):
            rect(i, start, stop, cell_color(int(label)), "0.55")
    if highlight is not None:
        mask = np.asarray(highlight, dtype=bool)
        for i in range(ny):
            for start, stop, on in _runs(mask[i]):
                if on:
                    rect(i, start, stop, "#1a1a1a", "0.45")
    if points is not None:
        body.extend(_scatter(frame, points, point_classes, radius=3.0))
    return _document(frame, body)
