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
    PowerSiteSet,
    cipd_assign,
    civd_assign,
    compute_cells_2d,
)
from .metrics import score_trace
from .streams import (
    StreamConfig,
    expand_cluster_sites,
    fit_power_weights,
    gen_source,
    gen_stream,
    quarter_rotations,
    subsample_per_class,
)
from .svg import assignment_grid, polygons_svg, raster_svg

RENDER_KINDS = ("vd", "pd", "civd", "cipd", "subtraction")

SWEEP_AXES = {
    "batch_size": (64, 32, 16, 8),
    "alpha": (1.0, 0.1, 0.01),
    "site_fraction": (1.0, 0.1, 0.01),
}


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
        if not self.seeds:
            raise ValueError("need at least one seed")
        for seed in self.seeds:
            if not (isinstance(seed, (int, np.integer)) and seed >= 0):
                raise ValueError(f"seeds must be non-negative integers, got {seed!r}")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
        if not 0 < self.site_fraction <= 1:
            raise ValueError("site_fraction must be in (0, 1]")
        if self.render_grid < 8:
            raise ValueError("render_grid too small")


def resolve_filtering(mode: str, option: bool | None) -> bool:
    """Tri-state filter option: None enables the filter for cipd only."""
    if option is None:
        return mode == "cipd"
    return bool(option)


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
    "n_batches": 0,
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
    so every caller may share them."""
    x, y = gen_source(source_cfg)
    xs, ys = subsample_per_class(x, y, site_fraction, source_cfg.seed)
    fe = FeatureExtractor.seeded(source_cfg.raw_dim, source_cfg.feature_dim, source_cfg.seed)
    clusters = expand_cluster_sites(xs, ys, fe, quarter_rotations(), source_cfg.n_classes)
    weight_sq = fit_power_weights(xs, ys, fe, clusters.base_sites())
    return fe, clusters.with_weights(weight_sq)


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
    """One scored online run of a prepared seed under the given mode."""
    cfg = replace(adapt_cfg, mode=mode, filtering=resolve_filtering(mode, filtering))
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


def ablation_rows(spec: ExperimentSpec) -> list[dict]:
    """VD / CIVD / CIPD on identical streams (same seeds)."""
    spec = replace(spec, modes=MODES)
    traces = run_grid(spec)
    return mode_statistics(traces, MODES, spec.seeds)


def sweep_rows(spec: ExperimentSpec, axis: str, values=None) -> list[dict]:
    """Vary one axis (batch_size, alpha, or site_fraction), all modes."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {sorted(SWEEP_AXES)}")
    values = SWEEP_AXES[axis] if values is None else tuple(values)
    rows = []
    for value in values:
        if axis == "batch_size":
            point = replace(spec, stream=replace(spec.stream, batch_size=int(value)))
        elif axis == "alpha":
            point = replace(spec, stream=replace(spec.stream, label_shift_alpha=float(value)))
        else:
            point = replace(spec, site_fraction=float(value))
        traces = run_grid(point)
        for stat in mode_statistics(traces, point.modes, point.seeds):
            rows.append({"axis": axis, "value": value, **stat})
    return rows


# ---------------------------------------------------------------------------
# 2-D rendering. Exact polygons for vd/pd; sampled rasters for the
# cluster-influence diagrams, whose boundaries are curved.
# ---------------------------------------------------------------------------


def _render_bbox(prepared: PreparedRun, margin: float = 0.15) -> tuple:
    pts = [prepared.clusters.clusters.reshape(-1, 2)]
    if prepared.stream:
        pts.append(forward(prepared.extractor, prepared.stream[0].inputs))
    pts = np.concatenate(pts, axis=0)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = (hi - lo) * margin + 1e-6
    return (lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1])


def render_diagram(spec: ExperimentSpec, which: str) -> tuple[str, dict]:
    """SVG text for one diagram kind plus the data used to draw it.

    Requires a 2-D feature space. The returned extras hold the bbox and
    either the cell polygons or the sampled assignment grid so callers can
    cross-check the drawing against the assignment operations.
    """
    if which not in RENDER_KINDS:
        raise ValueError(f"which must be one of {RENDER_KINDS}")
    if spec.stream.feature_dim != 2:
        raise ValueError("rendering requires feature_dim = 2")
    prepared = prepare_run(spec.stream, spec.seeds[0], spec.site_fraction)
    clusters = prepared.clusters
    bbox = _render_bbox(prepared)
    influence = spec.adapt.influence
    scatter = None
    scatter_classes = None
    if prepared.stream:
        scatter = forward(prepared.extractor, prepared.stream[0].inputs)
        scatter_classes = prepared.stream[0].hidden_labels

    extras: dict = {"bbox": bbox, "clusters": clusters}
    if which in ("vd", "pd"):
        weights = (
            np.zeros(clusters.n_cells) if which == "vd" else clusters.weight_sq
        )
        psites = PowerSiteSet(clusters.base_sites(), weights)
        cells = compute_cells_2d(psites, bbox)
        extras["cells"] = cells
        extras["psites"] = psites
        svg = polygons_svg(cells, bbox, points=scatter, point_classes=scatter_classes)
        return svg, extras

    n = spec.render_grid
    if which == "civd":
        assign = lambda pts: civd_assign(pts, clusters, influence)
    else:  # cipd and subtraction share the weighted assignment raster
        assign = lambda pts: cipd_assign(pts, clusters, influence)
    grid, xs, ys = assignment_grid(assign, bbox, n, n)
    extras["grid"] = grid
    extras["grid_xy"] = (xs, ys)
    highlight = None
    if which == "subtraction":
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        highlight = ~filter_batch(pts, clusters, influence).keep_mask.reshape(grid.shape)
        extras["highlight"] = highlight
    svg = raster_svg(
        grid, bbox, highlight=highlight, points=scatter, point_classes=scatter_classes
    )
    return svg, extras
