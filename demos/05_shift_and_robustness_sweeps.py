"""Stress sweeps: label shift and site-estimation precision.

Two of the failure modes an online adapter meets in practice: batches whose
class mix is skewed (Dirichlet label shift with small alpha) and prototypes
estimated from a sliver of the training data. Across enough seeds, error
degrades as alpha shrinks and barely moves with the site fraction; the three
seeds here keep the demo quick, so expect some noise in the middle column.

Run from the repository root:  python demos/05_shift_and_robustness_sweeps.py
(18 runs; takes a few seconds)
"""

from voronoi_tta import ExperimentSpec, StreamConfig
from voronoi_tta.experiments import sweep_rows

spec = ExperimentSpec(stream=StreamConfig(), modes=("cipd",), seeds=(0, 1, 2))

print("label shift (smaller alpha = more skewed batches):")
for row in sweep_rows(spec, "alpha"):
    print(f"  alpha={row['value']:<6} {row['mode']}: "
          f"{100 * row['mean_error']:5.1f}% ± {100 * row['std_error']:.1f}")

print("site estimation fraction (share of source data used):")
for row in sweep_rows(spec, "site_fraction"):
    print(f"  fraction={row['value']:<5} {row['mode']}: "
          f"{100 * row['mean_error']:5.1f}% ± {100 * row['std_error']:.1f}")
