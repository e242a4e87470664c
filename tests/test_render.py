"""SVG rendering: structure of the documents and grid/polygon fidelity."""

import re

import numpy as np
import pytest

from voronoi_tta.adaptation import AdaptConfig
from voronoi_tta.experiments import ExperimentSpec, render_diagram
from voronoi_tta.geometry import (
    ClusterSiteSet,
    InfluenceConfig,
    assign,
    cipd_influences,
    pd_power,
)
from voronoi_tta.streams import StreamConfig
from voronoi_tta.svg import assignment_grid, polygons_svg, raster_svg


def small_spec(**stream_overrides):
    fields = dict(
        n_classes=4,
        raw_dim=4,
        feature_dim=2,
        n_train_per_class=200,
        batch_size=16,
        n_batches=1,
        seed=0,
    )
    fields.update(stream_overrides)
    return ExperimentSpec(
        stream=StreamConfig(**fields), adapt=AdaptConfig(), seeds=(0,), render_grid=48
    )


def test_polygon_svg_contains_cells_and_scatter():
    p = ClusterSiteSet(np.array([[0.0, 0.0], [2.0, 0.0]])[:, None], np.zeros(2))
    from voronoi_tta.geometry import compute_cells_2d

    cells = compute_cells_2d(p, (-1, 3, -1, 1))
    svg = polygons_svg(cells, (-1, 3, -1, 1), points=np.array([[0.5, 0.2]]), point_classes=[1])
    assert svg.startswith("<svg")
    assert svg.count("<polygon") == 2
    assert svg.count("<circle") == 1


def test_raster_svg_rle_merges_rows():
    grid = np.zeros((4, 8), dtype=int)
    grid[:, 4:] = 1
    svg = raster_svg(grid, (0, 8, 0, 4))
    assert svg.count("<rect") == 8  # two runs per row
    mask = np.zeros_like(grid, dtype=bool)
    mask[1, 2:5] = True
    svg2 = raster_svg(grid, (0, 8, 0, 4), highlight=mask)
    assert svg2.count("<rect") == 8 + 1  # one overlay run for the mask
    # runs that touch the row ends: on at both edges, and on everywhere
    mask[2, [0, 7]] = True
    mask[3, :] = True
    svg3 = raster_svg(grid, (0, 8, 0, 4), highlight=mask)
    overlays = re.findall(r'<rect x="([\d.]+)" y="([\d.]+)" width="([\d.]+)"[^>]*#1a1a1a', svg3)
    # 80 px per column; grid row 0 is the bottom, so row 2 sits at y 80 and row 3 at y 0
    assert overlays == [
        ("160.00", "160.00", "240.00"),
        ("0.00", "80.00", "80.00"),
        ("560.00", "80.00", "80.00"),
        ("0.00", "0.00", "640.00"),
    ]


def test_assignment_grid_pixel_centers():
    sites = ClusterSiteSet(np.array([[0.0, 0.0], [2.0, 0.0]])[:, None], np.zeros(2))
    grid, xs, ys = assignment_grid(lambda pts: assign(-pd_power(pts, sites)), (-1, 3, -1, 1), 8)
    assert grid.shape == (8, 8)
    # everything left of x = 1 belongs to cell 0
    for j, x in enumerate(xs):
        want = 0 if x < 1 else 1
        assert np.all(grid[:, j] == want)


@pytest.mark.parametrize("which", ["vd", "pd", "civd", "cipd", "subtraction"])
def test_render_diagram_kinds(which):
    svg, extras = render_diagram(small_spec(), which)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    if which in ("vd", "pd"):
        assert "cells" in extras
    else:
        assert extras["grid"].shape == (48, 48)


def test_render_requires_two_dimensional_features():
    with pytest.raises(ValueError):
        render_diagram(small_spec(feature_dim=32), "vd")


def test_subtraction_with_zero_weights_has_no_highlight():
    from voronoi_tta.filtering import filter_batch
    from voronoi_tta.geometry import ClusterSiteSet

    rng = np.random.default_rng(5)
    clusters = ClusterSiteSet(rng.normal(size=(4, 3, 2)), np.zeros(4))
    grid, xs, ys = assignment_grid(
        lambda pts: assign(cipd_influences(pts, clusters, InfluenceConfig())),
        (-3, 3, -3, 3),
        32,
    )
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    keep = filter_batch(pts, clusters, InfluenceConfig()).keep_mask
    highlight = ~keep.reshape(grid.shape)
    assert not highlight.any()
    svg = raster_svg(grid, (-3, 3, -3, 3), highlight=highlight)
    assert "#1a1a1a" not in svg  # no subtraction overlay drawn
