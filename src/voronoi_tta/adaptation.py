"""Entropy-guided test-time adaptation of affine feature parameters.

The model is a frozen linear map followed by a trainable per-dimension
affine: ``z = scale * (frozen_map @ x) + shift``. At each online batch the
stream loop scores samples against the diagram in use (VD, CIVD, or CIPD),
turns the scores into temperature-softmax soft labels, records predictions,
and then takes plain gradient-descent steps on the mean soft-label entropy
with respect to ``scale`` and ``shift`` only. Predictions are always recorded
before the batch is adapted on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .filtering import filter_batch
from .geometry import ClusterSiteSet, InfluenceConfig, SiteSet

Array = np.ndarray

MODES = ("vd", "civd", "cipd")


class DivergenceError(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


@dataclass(frozen=True)
class FeatureExtractor:
    """Frozen linear map plus trainable per-dimension scale and shift."""

    frozen_map: Array  # (feature_dim, raw_dim), never mutated
    scale: Array  # (feature_dim,)
    shift: Array  # (feature_dim,)

    def __post_init__(self):
        m = np.array(self.frozen_map, dtype=float)
        s = np.array(self.scale, dtype=float)
        b = np.array(self.shift, dtype=float)
        if m.ndim != 2:
            raise ValueError("frozen_map must be 2-D")
        if s.shape != (m.shape[0],) or b.shape != (m.shape[0],):
            raise ValueError("scale and shift must match the feature dimension")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(s)) and np.all(np.isfinite(b))):
            raise ValueError("extractor parameters must be finite")
        for arr in (m, s, b):
            arr.setflags(write=False)
        object.__setattr__(self, "frozen_map", m)
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "shift", b)

    @property
    def raw_dim(self) -> int:
        return self.frozen_map.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.frozen_map.shape[0]

    @staticmethod
    def seeded(raw_dim: int, feature_dim: int, seed: int) -> "FeatureExtractor":
        """Random frozen map (entries ~ N(0, 1/raw_dim)), identity affine."""
        rng = np.random.default_rng([int(seed), 11])
        m = rng.normal(0.0, 1.0 / np.sqrt(raw_dim), size=(feature_dim, raw_dim))
        return FeatureExtractor(m, np.ones(feature_dim), np.zeros(feature_dim))


@dataclass(frozen=True)
class AdaptConfig:
    """Hyperparameters of the infer/adapt loop.

    ``learning_rate`` 0 runs the loop frozen (no parameter updates), which is
    the baseline used by the adaptation-benefit checks.
    """

    mode: str = "vd"
    tau: float = 1.0
    learning_rate: float = 0.1
    steps_per_batch: int = 1
    influence: InfluenceConfig = field(default_factory=InfluenceConfig)
    filtering: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(
                f"learning_rate must be finite and nonnegative, got {self.learning_rate!r}"
            )
        if self.steps_per_batch < 1:
            raise ValueError("steps_per_batch must be at least 1")


@dataclass
class BatchRecord:
    """What the loop saw for one batch, before adapting on it."""

    batch_index: int
    predictions: Array  # (n,) int
    confidences: Array  # (n,) max soft-label probability
    keep_mask: Array  # (n,) bool
    mean_loss: float
    batch_error: float | None = None  # filled by metrics.score_trace
    cum_error: float | None = None

    @property
    def kept_fraction(self) -> float:
        return float(np.mean(self.keep_mask)) if len(self.keep_mask) else 1.0


@dataclass
class RunTrace:
    mode: str
    records: list[BatchRecord] = field(default_factory=list)

    @property
    def scored(self) -> bool:
        return all(r.batch_error is not None for r in self.records)

    def final_cum_error(self) -> float:
        if not self.records:
            raise ValueError("empty trace")
        if not self.scored:
            raise ValueError("trace has not been scored against labels")
        return self.records[-1].cum_error


def forward(fe: FeatureExtractor, x) -> Array:
    """Feature map z = scale * (frozen_map @ x) + shift; accepts (m,) or (n, m)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != fe.raw_dim:
        raise ValueError(f"expected raw dimension {fe.raw_dim}, got {x.shape[-1]}")
    return x @ fe.frozen_map.T * fe.scale + fe.shift


def soft_label_from_scores(scores, tau: float, epsilon: float = 0.0) -> Array:
    """Temperature softmax of per-class scores, max-subtracted for stability.

    The uniform offset ``epsilon`` cancels exactly under softmax, so it never
    enters the arithmetic; the argument is kept for interface fidelity and the
    output is bitwise independent of it.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    q = scores / tau
    q = q - np.max(q, axis=-1, keepdims=True)
    e = np.exp(q)
    return e / np.sum(e, axis=-1, keepdims=True)


def vd_loss(probs) -> float | Array:
    """Shannon entropy of soft labels in nats; zero probabilities contribute 0."""
    p = np.asarray(probs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    h = -np.sum(terms, axis=-1)
    return float(h) if p.ndim == 1 else h


def _as_cluster_set(sites) -> ClusterSiteSet:
    if isinstance(sites, ClusterSiteSet):
        return sites
    if isinstance(sites, SiteSet):
        return ClusterSiteSet.from_sites(sites)
    raise TypeError("sites must be a SiteSet or ClusterSiteSet")


def mode_scores(features, sites, cfg: AdaptConfig) -> Array:
    """(n, K) per-class scores for the configured diagram.

    VD scores are negated distances to the identity-augmentation sites;
    CIVD/CIPD scores are the cluster influences. Argmax of each row equals
    the corresponding diagram assignment.
    """
    c = _as_cluster_set(sites)
    z = np.atleast_2d(np.asarray(features, dtype=float))
    if cfg.mode == "vd":
        return -geometry.vd_distances(z, c.base_sites())
    if cfg.mode == "civd":
        return geometry.civd_influences(z, c, cfg.influence)
    return geometry.cipd_influences(z, c, cfg.influence)


def _entropy_and_score_grad(scores: Array, tau: float) -> tuple[Array, Array]:
    """Per-sample entropy H and dH/dscores for rows of scores."""
    q = scores / tau
    q = q - np.max(q, axis=-1, keepdims=True)
    logp = q - np.log(np.sum(np.exp(q), axis=-1, keepdims=True))
    p = np.exp(logp)
    with np.errstate(invalid="ignore"):
        plogp = np.where(p > 0, p * logp, 0.0)
    h = -np.sum(plogp, axis=-1)
    g = np.where(p > 0, -p * (logp + h[:, None]) / tau, 0.0)
    return h, g


def batch_loss_and_grad(
    fe: FeatureExtractor, inputs, sites, cfg: AdaptConfig, keep_mask
) -> tuple[float, Array, Array]:
    """Mean entropy over kept samples and its exact gradient w.r.t. the
    affine parameters.

    Clamped distance/power terms are treated as constants (zero sub-gradient
    where the floor is active). With every sample filtered out the loss and
    both gradients are zero.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    keep = np.asarray(keep_mask, dtype=bool)
    if keep.shape != (inputs.shape[0],):
        raise ValueError("keep_mask length must match the batch size")
    ell = fe.feature_dim
    if not np.any(keep):
        return 0.0, np.zeros(ell), np.zeros(ell)

    c = _as_cluster_set(sites)
    x = inputs[keep]
    u = x @ fe.frozen_map.T
    z = u * fe.scale + fe.shift
    floor = cfg.influence.distance_floor
    gamma = cfg.influence.gamma

    if cfg.mode == "vd":
        mu = c.base_sites().sites  # (K, ell)
        d = geometry.site_terms(geometry.squared_distances(z, mu[:, None, :]))[..., 0]
        h, g = _entropy_and_score_grad(-d, cfg.tau)
        # dscore/dz = -(z - mu_k)/d_k where the floor is not active.
        w = np.where(d > floor, -g / np.maximum(d, floor), 0.0)
        grad_z = z * np.sum(w, axis=1)[:, None] - w @ mu
    else:
        mu = c.clusters  # (K, A, ell)
        if cfg.mode == "cipd" and c.weight_sq is None:
            raise ValueError("cipd mode requires cluster weights")
        weight_sq = c.weight_sq if cfg.mode == "cipd" else None
        terms = geometry.site_terms(geometry.squared_distances(z, mu), weight_sq)
        scores = geometry.aggregate_influence(terms, cfg.influence)
        h, g = _entropy_and_score_grad(scores, cfg.tau)
        active = terms > floor
        clamped = np.maximum(terms, floor)
        # dterm/dz = (z - mu) * inner: 1/d for distances, 2 for power terms.
        inner = 2.0 if weight_sq is not None else np.where(active, 1.0 / clamped, 0.0)
        # dF/dterm_a = -sign(gamma) * gamma * clamped^(gamma-1) on active terms
        w = np.where(
            active, -np.sign(gamma) * gamma * clamped ** (gamma - 1.0) * inner, 0.0
        ) * g[:, :, None]
        grad_z = z * np.sum(w, axis=(1, 2))[:, None] - np.einsum("nka,kad->nd", w, mu)

    n_kept = x.shape[0]
    loss = float(np.mean(h))
    grad_shift = np.sum(grad_z, axis=0) / n_kept
    grad_scale = np.sum(grad_z * u, axis=0) / n_kept
    return loss, grad_scale, grad_shift


def adapt_step(fe: FeatureExtractor, grad_scale, grad_shift, learning_rate: float) -> FeatureExtractor:
    """One plain gradient-descent step on scale and shift."""
    if not learning_rate > 0:
        raise ValueError("learning_rate must be positive")
    gs = np.asarray(grad_scale, dtype=float)
    gb = np.asarray(grad_shift, dtype=float)
    if not (np.all(np.isfinite(gs)) and np.all(np.isfinite(gb))):
        raise DivergenceError("non-finite gradient")
    return replace(fe, scale=fe.scale - learning_rate * gs, shift=fe.shift - learning_rate * gb)


def run_stream(fe: FeatureExtractor, stream, sites: ClusterSiteSet, cfg: AdaptConfig) -> RunTrace:
    """Online infer/filter/adapt loop over a sequence of batches.

    For each batch in order: features, per-class scores for the configured
    mode, soft labels and hard predictions (recorded before any update),
    the keep mask (diagram-subtraction filter when ``cfg.filtering``), then
    ``steps_per_batch`` gradient steps on the kept samples' mean entropy.
    Hidden labels on the batches are never read here; error columns are
    attached afterwards by the metrics module.
    """
    c = _as_cluster_set(sites)
    trace = RunTrace(mode=cfg.mode)
    adapting = cfg.learning_rate > 0
    for t, batch in enumerate(stream):
        inputs = np.atleast_2d(np.asarray(batch.inputs, dtype=float))
        z = forward(fe, inputs)
        scores = mode_scores(z, c, cfg)
        probs = soft_label_from_scores(scores, cfg.tau)
        preds = np.argmax(scores, axis=-1)
        conf = np.max(probs, axis=-1)

        if cfg.filtering:
            filter_clusters = c if cfg.mode != "vd" else ClusterSiteSet.from_sites(
                c.base_sites(), c.weight_sq
            )
            keep = filter_batch(z, filter_clusters, cfg.influence).keep_mask
        else:
            keep = np.ones(inputs.shape[0], dtype=bool)

        loss, grad_scale, grad_shift = batch_loss_and_grad(fe, inputs, c, cfg, keep)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at batch {t}")
        if adapting:
            fe = adapt_step(fe, grad_scale, grad_shift, cfg.learning_rate)
            for _ in range(cfg.steps_per_batch - 1):
                step_loss, grad_scale, grad_shift = batch_loss_and_grad(
                    fe, inputs, c, cfg, keep
                )
                if not np.isfinite(step_loss):
                    raise DivergenceError(f"non-finite loss at batch {t}")
                fe = adapt_step(fe, grad_scale, grad_shift, cfg.learning_rate)

        trace.records.append(
            BatchRecord(
                batch_index=t,
                predictions=preds,
                confidences=conf,
                keep_mask=keep,
                mean_loss=loss,
            )
        )
    return trace


# ---------------------------------------------------------------------------
# Trace serialization (CSV + JSON summary). Error columns require the trace
# to have been scored by metrics.score_trace first.
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("batch_index", "mode", "batch_error", "cum_error", "mean_loss", "kept_fraction")


def trace_csv_lines(trace: RunTrace, per_sample_kept: bool = False) -> list[str]:
    """Render a scored trace as CSV lines.

    With ``per_sample_kept`` a trailing column carries the keep mask of each
    batch as a 0/1 string.
    """
    if not trace.scored:
        raise ValueError("score the trace against labels before serializing")
    cols = TRACE_COLUMNS + (("kept_flags",) if per_sample_kept else ())
    lines = [",".join(cols)]
    for r in trace.records:
        row = [
            str(r.batch_index),
            trace.mode,
            repr(float(r.batch_error)),
            repr(float(r.cum_error)),
            repr(float(r.mean_loss)),
            repr(float(r.kept_fraction)),
        ]
        if per_sample_kept:
            row.append("".join("1" if k else "0" for k in r.keep_mask))
        lines.append(",".join(row))
    return lines


def trace_summary(trace: RunTrace) -> dict:
    """JSON-ready summary of a scored trace."""
    if not trace.scored:
        raise ValueError("score the trace against labels before summarizing")
    n = sum(len(r.predictions) for r in trace.records)
    return {
        "mode": trace.mode,
        "n_batches": len(trace.records),
        "n_samples": n,
        "final_cum_error": trace.final_cum_error() if trace.records else None,
        "mean_batch_loss": float(np.mean([r.mean_loss for r in trace.records]))
        if trace.records
        else None,
        "mean_kept_fraction": float(np.mean([r.kept_fraction for r in trace.records]))
        if trace.records
        else None,
    }
