"""The package's public surface, pinned: adding or removing a name is an
edit to this list."""

import voronoi_tta

PUBLIC = [
    "AdaptConfig",
    "Batch",
    "BatchRecord",
    "CellPolygon2D",
    "ClusterSiteSet",
    "DistanceReport",
    "DivergenceError",
    "ExperimentSpec",
    "FeatureExtractor",
    "FilterReport",
    "InfluenceConfig",
    "LogisticHead",
    "PreparedRun",
    "RunTrace",
    "StreamConfig",
    "VIEW_ANGLES",
    "adapt_step",
    "adaptation_curve",
    "aggregate_influence",
    "assign",
    "batch_loss_and_grad",
    "cipd_influences",
    "civd_influences",
    "compute_cells_2d",
    "ece",
    "error_rate",
    "expand_cluster_sites",
    "feature_views",
    "filter_batch",
    "fit_logistic_head",
    "fit_power_weights",
    "forward",
    "gen_source",
    "gen_stream",
    "logistic_to_power",
    "mode_scores",
    "pd_power",
    "prepare_run",
    "render_diagram",
    "run_grid",
    "run_single",
    "run_stream",
    "sample_distance_report",
    "score_trace",
    "site_terms",
    "soft_label_from_scores",
    "squared_distances",
    "subsample_per_class",
    "sweep_rows",
    "vd_distances",
    "vd_loss",
]


def test_public_names_are_pinned():
    assert sorted(voronoi_tta.__all__) == PUBLIC
    assert all(hasattr(voronoi_tta, name) for name in PUBLIC)
