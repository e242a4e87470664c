"""End-to-end experiment pipeline: source fit, streaming runs, sweeps, renders.

Every run is fully determined by (stream config, adapt config, seed): the
source set, extractor, sites, power weights, and stream all derive from the
seed, and modes are compared on identical streams.

The source side of a run (extractor and weighted cluster sites) does not
depend on the stream-only config fields, so ``prepare_run`` computes it once
per process for each distinct source and regenerates only the stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .adaptation import MODES, AdaptConfig, FeatureExtractor, RunTrace, forward, run_stream
from .filtering import filter_batch
from .geometry import (
    ClusterSiteSet,
    _check_real,
    _is_integer,
    assign,
    cipd_influences,
    civd_influences,
    compute_cells_2d,
)
from .metrics import score_trace
from .streams import (
    StreamConfig,
    expand_cluster_sites,
    fit_power_weights,
    gen_source,
    gen_stream,
    subsample_per_class,
)
from .svg import assignment_grid, polygons_svg, raster_svg

RENDER_KINDS = ("vd", "pd", "civd", "cipd", "subtraction")

SWEEP_AXES = {
    "batch_size": (64, 32, 16, 8),
    "alpha": (1.0, 0.1, 0.01),
    "site_fraction": (1.0, 0.1, 0.01),
}


# The config fields each run sets for itself -> the spec field that sets them.
PER_RUN_FIELDS = {"adapt.mode": "modes", "adapt.filtering": "filtering", "stream.seed": "seeds"}


def _check_distinct(name: str, values):
    if not values or len(set(values)) != len(values):
        raise ValueError(f"{name} must be nonempty and distinct, got {list(values)}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One CLI-level experiment: stream and adaptation settings plus the
    (mode, seed) grid to run."""

    stream: StreamConfig = field(default_factory=StreamConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    modes: tuple = MODES
    seeds: tuple = (0,)
    out_dir: str = "out"
    filtering: bool | None = None  # None: filter in cipd mode only
    site_fraction: float = 1.0
    render_grid: int = 200

    def __post_init__(self):
        for name in ("seeds", "modes"):
            _check_distinct(name, getattr(self, name))
        for path, instead in PER_RUN_FIELDS.items():
            section, name = path.split(".")
            config = getattr(self, section)
            value = getattr(config, name)
            if value != getattr(type(config), name):
                raise ValueError(f"{path} is set per run, got {value!r}; set the spec's {instead}")
        for seed in self.seeds:
            if not (_is_integer(seed) and seed >= 0):
                raise ValueError(f"seeds must be non-negative integers, got {seed!r}")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
        if not (self.filtering is None or isinstance(self.filtering, bool)):
            raise ValueError(f"filtering must be None, True or False, got {self.filtering!r}")
        _check_real("site_fraction", self.site_fraction)
        if not 0 < self.site_fraction <= 1:
            raise ValueError(f"site_fraction must be in (0, 1], got {self.site_fraction!r}")
        if not (_is_integer(self.render_grid) and self.render_grid >= 8):
            raise ValueError(f"render_grid must be an integer >= 8, got {self.render_grid!r}")


@dataclass(frozen=True)
class PreparedRun:
    """Source-side artifacts shared by every mode on one seed."""

    extractor: FeatureExtractor
    clusters: ClusterSiteSet  # rotation-expanded, power weights attached
    stream: list


# StreamConfig fields that shape only the test stream, set to fixed values
# in the source cache key. Every other field, including any added later,
# stays in the key.
_STREAM_ONLY = {
    "corruption": "none",
    "severity": 1,
    "batch_size": 1,
    "n_batches": 1,
    "label_shift_alpha": None,
}

# Distinct sources kept per process: enough for the acceptance suite's 30
# (10 seeds x 3 site fractions). Each entry holds only the extractor and the
# cluster sites, a few kB at the default config.
_SOURCE_CACHE_SIZE = 32


@lru_cache(maxsize=_SOURCE_CACHE_SIZE)
def _prepare_source(
    source_cfg: StreamConfig, site_fraction: float
) -> tuple[FeatureExtractor, ClusterSiteSet]:
    """Extractor and weighted cluster sites of one source; both immutable,
    so every caller may share them. The raw source is dropped before the
    head fit, so that the fit's temporaries do not stack on top of it."""
    x, y = subsample_per_class(*gen_source(source_cfg), site_fraction, source_cfg.seed)
    fe = FeatureExtractor.seeded(source_cfg.raw_dim, source_cfg.feature_dim, source_cfg.seed)
    k = source_cfg.n_classes
    sites = expand_cluster_sites(fe, x, y, k)  # checks every class is present
    features = forward(fe, x)
    del x
    return fe, sites.with_weights(fit_power_weights(features, y, k))


def prepare_run(stream_cfg: StreamConfig, seed: int, site_fraction: float = 1.0) -> PreparedRun:
    """Source artifacts and a freshly generated stream for one seed.

    The source side comes from a bounded process-local cache keyed by the
    config without its stream-only fields, the seed and the site fraction.
    """
    cfg = replace(stream_cfg, seed=int(seed))
    fe, clusters = _prepare_source(replace(cfg, **_STREAM_ONLY), float(site_fraction))
    return PreparedRun(extractor=fe, clusters=clusters, stream=gen_stream(cfg))


def run_single(
    prepared: PreparedRun, adapt_cfg: AdaptConfig, mode: str, filtering: bool | None = None
) -> RunTrace:
    """One scored online run of a prepared seed under the given mode; the
    filter option None filters in cipd mode only."""
    filtering = mode == "cipd" if filtering is None else filtering
    cfg = replace(adapt_cfg, mode=mode, filtering=filtering)
    trace = run_stream(prepared.extractor, prepared.stream, prepared.clusters, cfg)
    return score_trace(trace, prepared.stream)


def run_grid(spec: ExperimentSpec) -> dict:
    """All (mode, seed) runs of the spec; streams are shared per seed."""
    traces = {}
    for seed in spec.seeds:
        prepared = prepare_run(spec.stream, seed, spec.site_fraction)
        for mode in spec.modes:
            traces[(mode, seed)] = run_single(prepared, spec.adapt, mode, spec.filtering)
    return traces


def mode_statistics(traces: dict, modes, seeds) -> list[dict]:
    """Per-mode mean and std of final cumulative error over seeds."""
    rows = []
    for mode in modes:
        errs = [traces[(mode, seed)].final_cum_error() for seed in seeds]
        rows.append(
            {
                "mode": mode,
                "mean_error": float(np.mean(errs)),
                "std_error": float(np.std(errs)),
                "n_seeds": len(errs),
            }
        )
    return rows


def sweep_rows(spec: ExperimentSpec, axis: str, values=None) -> list[dict]:
    """Vary one axis (batch_size, alpha, or site_fraction) over the spec's modes."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {sorted(SWEEP_AXES)}")
    values = SWEEP_AXES[axis] if values is None else tuple(values)
    _check_distinct("values", values)
    # Every point is built, and so checked, before the first one runs.
    try:
        if axis == "batch_size":
            if not all(float(v).is_integer() for v in values):
                raise ValueError(f"batch sizes must be integers, got {list(values)}")
            values = tuple(int(v) for v in values)
            points = [replace(spec, stream=replace(spec.stream, batch_size=v)) for v in values]
        elif axis == "alpha":
            streams = [replace(spec.stream, label_shift_alpha=float(v)) for v in values]
            points = [replace(spec, stream=s) for s in streams]
        else:
            points = [replace(spec, site_fraction=float(v)) for v in values]
    except ValueError as exc:
        raise ValueError(f"values: {exc}") from None
    rows = []
    for value, point in zip(values, points):
        traces = run_grid(point)
        for stat in mode_statistics(traces, point.modes, point.seeds):
            rows.append({"axis": axis, "value": value, **stat})
    return rows


# ---------------------------------------------------------------------------
# 2-D rendering. Exact polygons for vd/pd; sampled rasters for the
# cluster-influence diagrams, whose boundaries are curved.
# ---------------------------------------------------------------------------


def _render_bbox(clusters: ClusterSiteSet, scatter: np.ndarray) -> tuple:
    pts = np.concatenate([clusters.clusters.reshape(-1, 2), scatter], axis=0)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = (hi - lo) * 0.15 + 1e-6
    return (lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1])


def render_diagram(spec: ExperimentSpec, which: str) -> tuple[str, dict]:
    """SVG text for one diagram kind plus the data used to draw it.

    Requires a 2-D feature space and exactly one seed. Reads no adaptation
    setting but the influence config. The returned extras hold the bbox and
    either the cell polygons or the sampled assignment grid so callers can
    cross-check the drawing against the assignment operations.
    """
    if which not in RENDER_KINDS:
        raise ValueError(f"which must be one of {RENDER_KINDS}")
    if spec.stream.feature_dim != 2:
        raise ValueError("rendering requires feature_dim = 2")
    if len(spec.seeds) != 1:
        raise ValueError(f"seeds must be a single seed to render, got {list(spec.seeds)}")
    prepared = prepare_run(spec.stream, spec.seeds[0], spec.site_fraction)
    clusters = prepared.clusters
    influence = spec.adapt.influence
    scatter = forward(prepared.extractor, prepared.stream[0].inputs)
    scatter_classes = prepared.stream[0].hidden_labels
    bbox = _render_bbox(clusters, scatter)

    extras: dict = {"bbox": bbox, "clusters": clusters}
    if which in ("vd", "pd"):
        psites = clusters if which == "pd" else clusters.with_weights(np.zeros(clusters.n_cells))
        cells = compute_cells_2d(psites, bbox)
        extras["cells"] = cells
        extras["psites"] = psites
        svg = polygons_svg(cells, bbox, points=scatter, point_classes=scatter_classes)
        return svg, extras

    n = spec.render_grid
    scores = civd_influences if which == "civd" else cipd_influences  # subtraction: cipd's
    grid, xs, ys = assignment_grid(lambda p: assign(scores(p, clusters, influence)), bbox, n, n)
    extras["grid"] = grid
    extras["grid_xy"] = (xs, ys)
    highlight = None
    if which == "subtraction":
        excluded = lambda pts: ~filter_batch(pts, clusters, influence).keep_mask
        highlight, _, _ = assignment_grid(excluded, bbox, n, n)
        extras["highlight"] = highlight
    svg = raster_svg(
        grid, bbox, highlight=highlight, points=scatter, point_classes=scatter_classes
    )
    return svg, extras
