"""Per-view distance anatomy of single samples.

For one raw input, the report tabulates the distance from each augmented
view's features to the matching per-view site of every class, plus the
influence aggregate over all views. Searching a corrupted stream turns up
samples where the identity view votes for the wrong class but the aggregate
recovers the truth; that is the rescue pattern the cluster diagrams rely on.

Run from the repository root:  python demos/04_distance_report.py
"""

from voronoi_tta import FeatureExtractor, StreamConfig
from voronoi_tta.metrics import distance_report_csv_lines, sample_distance_report
from voronoi_tta.streams import (
    VIEW_ANGLES, expand_cluster_sites, gen_source, gen_stream,
)

cfg = StreamConfig(
    n_classes=5, raw_dim=6, feature_dim=8, n_train_per_class=500,
    class_mean_scale=1.0, class_cov_scale=0.35, corruption="gaussian_noise",
    severity=3, seed=6,
)
x, y = gen_source(cfg)
fe = FeatureExtractor.seeded(cfg.raw_dim, cfg.feature_dim, 6)
clusters = expand_cluster_sites(fe, x, y, cfg.n_classes)

rescued = None
for batch in gen_stream(cfg):
    for sample, label in zip(batch.inputs, batch.hidden_labels):
        report = sample_distance_report(sample, fe, clusters)
        if report.aggregate_pred == label and report.per_rotation_pred[0] != label:
            rescued = (report, label)
            break
    if rescued:
        break

report, label = rescued
print(f"true class {label}; per-view votes {report.per_rotation_pred.tolist()}; "
      f"aggregate {report.aggregate_pred}")
print(f"views disagree: {report.rotations_disagree}; "
      f"aggregation overrides the identity view: {report.aggregation_overrides}")
print()
print("view \\ class " + "".join(f"  d(k={k})" for k in range(cfg.n_classes)))
for angle, dists in zip(VIEW_ANGLES, report.distances):
    row = "".join(f"  {d:6.2f}" for d in dists)
    print(f"  {int(angle):3d} deg  {row}")
print("influence " + "".join(f"  {f:6.2f}" for f in report.influences))
print()
print("CSV form, first rows:")
for line in distance_report_csv_lines(report)[:4]:
    print(" ", line)
