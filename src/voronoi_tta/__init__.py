"""Voronoi-diagram guided test-time adaptation at desk scale."""

from .adaptation import (
    AdaptConfig,
    BatchRecord,
    DivergenceError,
    FeatureExtractor,
    RunTrace,
    adapt_step,
    batch_loss_and_grad,
    forward,
    mode_scores,
    run_stream,
    soft_label_from_scores,
    vd_loss,
)
from .filtering import FilterReport, filter_batch
from .geometry import (
    CellPolygon2D,
    ClusterSiteSet,
    InfluenceConfig,
    LogisticHead,
    aggregate_influence,
    cipd_assign,
    cipd_influences,
    civd_assign,
    civd_influences,
    compute_cells_2d,
    logistic_to_power,
    pd_assign,
    pd_power,
    site_terms,
    squared_distances,
    vd_assign,
    vd_distances,
)
from .experiments import (
    ExperimentSpec,
    PreparedRun,
    prepare_run,
    render_diagram,
    run_grid,
    run_single,
    sweep_rows,
)
from .metrics import (
    DistanceReport,
    adaptation_curve,
    ece,
    error_rate,
    sample_distance_report,
    score_trace,
)
from .streams import (
    VIEW_ANGLES,
    Batch,
    StreamConfig,
    expand_cluster_sites,
    feature_views,
    fit_logistic_head,
    fit_power_weights,
    gen_source,
    gen_stream,
    subsample_per_class,
)

__all__ = [name for name in dir() if not name.startswith("_")]
