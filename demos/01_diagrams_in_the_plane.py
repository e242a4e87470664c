"""Tour of the four space partitions on a small 2-D instance.

Builds a handful of sites in the plane, queries each diagram's assignment
rule, and writes one SVG per partition so the boundary differences are
visible: straight Voronoi walls, weight-shifted power walls, and the curved
cluster-influence boundaries.

Run from the repository root:  python demos/01_diagrams_in_the_plane.py
"""

from pathlib import Path

import numpy as np

from voronoi_tta import (
    ClusterSiteSet,
    InfluenceConfig,
    assign,
    cipd_influences,
    civd_influences,
    compute_cells_2d,
    pd_power,
    vd_distances,
)
from voronoi_tta.svg import assignment_grid, polygons_svg, raster_svg

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

rng = np.random.default_rng(7)

# Five sites in the plane, one per cell; power weights grow with the site
# index so the later cells visibly swallow territory from the earlier ones.
sites = rng.normal(0.0, 1.2, size=(5, 2))
weights = np.linspace(-0.4, 0.8, 5)
psites = ClusterSiteSet(sites[:, None], weights)
bbox = (-3.5, 3.5, -3.5, 3.5)

probe = np.array([0.3, -0.2])
print("probe point:", probe)
print("  vd cell:", assign(-vd_distances(probe, psites)))
print("  pd cell:", assign(-pd_power(probe, psites)))

# Exact polygonal cells for the point diagrams.
for name, w in (("vd", np.zeros(5)), ("pd", weights)):
    cells = compute_cells_2d(ClusterSiteSet(sites[:, None], w), bbox)
    (OUT / f"{name}_cells.svg").write_text(
        polygons_svg(cells, bbox, points=sites, point_classes=range(5))
    )
    areas = ["empty" if len(c) < 3 else f"{len(c)} verts" for c in cells]
    print(f"{name} cells:", ", ".join(areas))

# Cluster-induced versions: three sites per cell, gamma = -0.8 damps the
# influence of far sites. Boundaries are curved, so sample them on a grid.
cfg = InfluenceConfig(gamma=-0.8)
clusters = ClusterSiteSet(
    sites[:, None, :] + rng.normal(0.0, 0.7, size=(5, 3, 2)), weights
)
print("  civd cell:", assign(civd_influences(probe, clusters, cfg)))
print("  cipd cell:", assign(cipd_influences(probe, clusters, cfg)))

for name, scores in (("civd", civd_influences), ("cipd", cipd_influences)):
    grid, _, _ = assignment_grid(lambda p: assign(scores(p, clusters, cfg)), bbox, 220)
    (OUT / f"{name}_raster.svg").write_text(
        raster_svg(grid, bbox, points=clusters.clusters.reshape(-1, 2),
                   point_classes=np.repeat(range(5), 3))
    )
print(f"wrote 4 SVGs to {OUT}/")
