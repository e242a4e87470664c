"""Diagram subtraction: which samples get excluded from adaptation.

A sample is noisy when the unweighted and weighted cluster diagrams place
it in different cells; those samples sit in the band swept by the weighted
boundaries. This script reports the filter decisions on one corrupted batch
and renders the subtraction region in a 2-D feature space.

Run from the repository root:  python demos/03_sample_filtering.py
"""

from pathlib import Path

import numpy as np

from voronoi_tta import AdaptConfig, ExperimentSpec, StreamConfig, prepare_run
from voronoi_tta.adaptation import forward
from voronoi_tta.experiments import render_diagram
from voronoi_tta.filtering import filter_batch
from voronoi_tta.geometry import assign, cipd_influences

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

cfg = StreamConfig(seed=3)
prepared = prepare_run(cfg, seed=3)
batch = prepared.stream[0]
features = forward(prepared.extractor, batch.inputs)

clusters = prepared.clusters
influence = AdaptConfig().influence
report = filter_batch(features, clusters, influence)
print(f"batch of {len(batch.inputs)}: kept {report.keep_mask.sum()} "
      f"({100 * report.keep_mask.mean():.0f}%)")
# The two cells of each excluded sample: zero weights vs the fitted weights.
zero_weighted = clusters.with_weights(np.zeros(clusters.n_cells))
unweighted = assign(cipd_influences(features, zero_weighted, influence))
weighted = assign(cipd_influences(features, clusters, influence))
for i in np.flatnonzero(~report.keep_mask):
    print(f"  sample {i:2d}: unweighted cell {unweighted[i]} vs weighted cell {weighted[i]}"
          f"  (true class {batch.hidden_labels[i]})")

# Render the subtraction band for a 2-D variant of the same setup.
spec = ExperimentSpec(
    stream=StreamConfig(feature_dim=2, n_classes=6, n_batches=1, seed=3),
    seeds=(3,),
    render_grid=220,
)
svg, extras = render_diagram(spec, "subtraction")
(OUT / "subtraction.svg").write_text(svg)
excluded = extras["highlight"].mean()
print(f"2-D render: {100 * excluded:.1f}% of the frame lies in the subtraction band")
print(f"wrote {OUT / 'subtraction.svg'}")
