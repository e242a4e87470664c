"""Entropy-guided test-time adaptation of affine feature parameters.

The model is a frozen linear map followed by a trainable per-dimension
affine: ``z = scale * (frozen_map @ x) + shift``. At each online batch the
stream loop scores samples against the diagram in use (VD, CIVD, or CIPD),
turns the scores into temperature-softmax soft labels, records predictions,
and then takes one plain gradient-descent step on the mean soft-label entropy
with respect to ``scale`` and ``shift`` only. Predictions are always recorded
before the batch is adapted on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .filtering import filter_batch
from .geometry import ClusterSiteSet, InfluenceConfig

Array = np.ndarray

MODES = ("vd", "civd", "cipd")

# Seed-sequence tag of the extractor's frozen map; streams lists every tag.
_TAG_EXTRACTOR = 11


class DivergenceError(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


@dataclass(frozen=True)
class FeatureExtractor:
    """Frozen linear map plus trainable per-dimension scale and shift.

    The constructor keeps private, checked, read-only copies of all three.
    ``adapt_step`` builds the next extractor around the same frozen map."""

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
        if not (np.isfinite(m).all() and np.isfinite(s).all() and np.isfinite(b).all()):
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
        rng = np.random.default_rng([int(seed), _TAG_EXTRACTOR])
        m = rng.normal(0.0, 1.0 / np.sqrt(raw_dim), size=(feature_dim, raw_dim))
        return FeatureExtractor(m, np.ones(feature_dim), np.zeros(feature_dim))


@dataclass(frozen=True)
class AdaptConfig:
    """Hyperparameters of the infer/adapt loop.

    Each batch gets one gradient step of size ``learning_rate``; 0 runs the
    loop frozen (no parameter updates), which is the baseline used by the
    adaptation-benefit checks.
    """

    mode: str = "vd"
    tau: float = 1.0
    learning_rate: float = 0.1
    influence: InfluenceConfig = field(default_factory=InfluenceConfig)
    filtering: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.filtering, bool):
            raise ValueError(f"filtering must be True or False, got {self.filtering!r}")
        geometry._check_real("tau", self.tau, "positive")
        geometry._check_real("learning_rate", self.learning_rate, "nonnegative")


@dataclass
class BatchRecord:
    """What the loop saw for one batch, before adapting on it; its batch index
    is its position in ``RunTrace.records``."""

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

    def scored_records(self) -> list[BatchRecord]:
        """The records, once ``metrics.score_trace`` has filled their errors;
        every reader of the error columns goes through this check."""
        if not self.records:
            raise ValueError("empty trace")
        if any(r.batch_error is None for r in self.records):
            raise ValueError("trace has not been scored against labels")
        return self.records

    def final_cum_error(self) -> float:
        return self.scored_records()[-1].cum_error


def forward(fe: FeatureExtractor, x) -> Array:
    """Feature map z = scale * (frozen_map @ x) + shift; accepts (m,) or (n, m)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != fe.raw_dim:
        raise ValueError(f"expected raw dimension {fe.raw_dim}, got {x.shape[-1]}")
    z = x @ fe.frozen_map.T
    z *= fe.scale
    z += fe.shift
    return z


def soft_label_from_scores(scores, tau: float, epsilon: float = 0.0) -> Array:
    """Temperature softmax of per-class scores, max-subtracted for stability.

    The uniform offset ``epsilon`` cancels exactly under softmax, so it never
    enters the arithmetic; the argument is kept for interface fidelity and the
    output is bitwise independent of it.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    scores = np.asarray(scores, dtype=float)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    q = scores / tau
    q -= q.max(axis=-1, keepdims=True)
    np.exp(q, out=q)
    q /= q.sum(axis=-1, keepdims=True)
    return q


def vd_loss(probs) -> float | Array:
    """Shannon entropy of soft labels in nats; zero probabilities contribute 0.
    The online loss takes its entropy from scores; this one reads probabilities."""
    p = np.asarray(probs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    h = -np.sum(terms, axis=-1)
    return float(h) if p.ndim == 1 else h


def mode_scores(features, c: ClusterSiteSet, cfg: AdaptConfig) -> Array:
    """(n, K) per-class scores for the configured diagram; ``geometry.assign``
    of them is the diagram's assignment. VD scores are negated distances to
    the identity-augmentation sites, CIVD/CIPD scores the cluster influences.
    ``perfbench/tracing.py`` times this function by name.
    """
    z = np.atleast_2d(np.asarray(features, dtype=float))
    if cfg.mode == "vd":
        return -geometry.vd_distances(z, c)
    if cfg.mode == "civd":
        return geometry.civd_influences(z, c, cfg.influence)
    return geometry.cipd_influences(z, c, cfg.influence)


def _entropy_and_score_grad(scores: Array, tau: float) -> tuple[Array, Array]:
    """Per-sample entropy H and dH/dscores for rows of scores."""
    logp = scores / tau
    logp -= logp.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    p = np.exp(logp)
    # logp is finite wherever the scores are, so p = 0 terms are exact zeros
    # and non-finite scores stay visible in h.
    h = -(p * logp).sum(axis=-1)
    # -p * (logp + h) / tau, bit for bit: negation commutes with rounding.
    g = logp + h[:, None]
    g *= p
    g /= -tau
    return h, g


def batch_loss_and_grad(
    fe: FeatureExtractor, inputs, c: ClusterSiteSet, cfg: AdaptConfig, keep_mask
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
    if not keep.any():
        return 0.0, np.zeros(ell), np.zeros(ell)

    # VD is the identity slice at gamma = 1; cipd alone reads the weights.
    mu = c.clusters[:, :1] if cfg.mode == "vd" else c.clusters  # (K, A, ell)
    weight_sq = geometry._weights(c) if cfg.mode == "cipd" else None
    floor = cfg.influence.distance_floor
    gamma = 1.0 if cfg.mode == "vd" else cfg.influence.gamma

    x = inputs[keep]
    u = x @ fe.frozen_map.T
    z = u * fe.scale
    z += fe.shift
    terms = geometry.site_terms(geometry.squared_distances(z, mu), weight_sq)
    h, g = _entropy_and_score_grad(geometry._aggregate(terms, gamma, floor), cfg.tau)
    active = terms > floor
    clamped = np.maximum(terms, floor)
    # dterm/dz = (z - mu) * inner: 1/d for distances, 2 for power terms.
    inner = 2.0 if weight_sq is not None else 1.0 / clamped
    # dF/dterm_a = -sign(gamma) * gamma * clamped^(gamma-1), that is
    # -|gamma| * clamped^(gamma-1), on active terms
    w = clamped ** (gamma - 1.0)
    w *= -abs(gamma)
    w *= inner
    np.copyto(w, 0.0, where=~active)
    w *= g[:, :, None]
    w = w.reshape(len(z), -1)  # (n, K * A)
    grad_z = z * w.sum(axis=1)[:, None] - w @ mu.reshape(-1, ell)

    n_kept = x.shape[0]
    loss = float(h.sum() / n_kept)
    grad_shift = grad_z.sum(axis=0) / n_kept
    grad_scale = (grad_z * u).sum(axis=0) / n_kept
    return loss, grad_scale, grad_shift


def adapt_step(fe: FeatureExtractor, grad_scale, grad_shift, learning_rate: float) -> FeatureExtractor:
    """One plain gradient-descent step on scale and shift."""
    if not learning_rate > 0:
        raise ValueError("learning_rate must be positive")
    scale = fe.scale - learning_rate * np.asarray(grad_scale, dtype=float)
    shift = fe.shift - learning_rate * np.asarray(grad_shift, dtype=float)
    if not (np.isfinite(scale).all() and np.isfinite(shift).all()):
        raise DivergenceError("non-finite gradient step")
    if scale.shape != fe.scale.shape or shift.shape != fe.shift.shape:
        raise ValueError("scale and shift must match the feature dimension")
    # fe.frozen_map is already a private, checked, read-only copy, so the next
    # extractor shares it; the public constructor copies and checks again.
    scale.setflags(write=False)
    shift.setflags(write=False)
    stepped = object.__new__(FeatureExtractor)
    object.__setattr__(stepped, "frozen_map", fe.frozen_map)
    object.__setattr__(stepped, "scale", scale)
    object.__setattr__(stepped, "shift", shift)
    return stepped


def run_stream(fe: FeatureExtractor, stream, c: ClusterSiteSet, cfg: AdaptConfig) -> RunTrace:
    """Online infer/filter/adapt loop over a sequence of batches.

    For each batch in order: features, per-class scores for the configured
    mode, soft labels and hard predictions (recorded before any update),
    the keep mask (diagram-subtraction filter when ``cfg.filtering``), the
    kept samples' mean entropy and its gradient, then one gradient step
    unless the run is frozen (``learning_rate`` 0). Hidden labels on the
    batches are never read here; error columns are attached afterwards by
    the metrics module.
    """
    trace = RunTrace(mode=cfg.mode)
    # The VD filter compares the VD and PD cells of the identity sites.
    filter_clusters = ClusterSiteSet(c.clusters[:, :1], c.weight_sq) if cfg.mode == "vd" else c
    # Overflow is not warned about: every non-finite value is reported below
    # as a DivergenceError that names the mode and batch.
    with np.errstate(all="ignore"):
        for t, batch in enumerate(stream):
            where = f"{cfg.mode} mode, batch {t}"
            inputs = np.atleast_2d(np.asarray(batch.inputs, dtype=float))
            z = forward(fe, inputs)
            if not np.isfinite(z).all():
                raise DivergenceError(f"non-finite features in {where}")
            scores = mode_scores(z, c, cfg)
            if not np.isfinite(scores).all():
                raise DivergenceError(f"non-finite scores in {where}")
            probs = soft_label_from_scores(scores, cfg.tau)
            preds = geometry.assign(scores)
            conf = probs.max(axis=-1)

            if cfg.filtering:
                keep = filter_batch(z, filter_clusters, cfg.influence).keep_mask
            else:
                keep = np.ones(inputs.shape[0], dtype=bool)

            loss, grad_scale, grad_shift = batch_loss_and_grad(fe, inputs, c, cfg, keep)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss in {where}")
            if cfg.learning_rate > 0:
                try:
                    fe = adapt_step(fe, grad_scale, grad_shift, cfg.learning_rate)
                except DivergenceError as exc:
                    raise DivergenceError(f"{exc} in {where}") from None

            trace.records.append(
                BatchRecord(predictions=preds, confidences=conf, keep_mask=keep, mean_loss=loss)
            )
    return trace


# ---------------------------------------------------------------------------
# Trace serialization (CSV + JSON summary). Error columns require the trace
# to have been scored by metrics.score_trace first.
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("batch_index", "mode", "batch_error", "cum_error", "mean_loss", "kept_fraction")


def csv_lines(columns, rows) -> list[str]:
    """The header, then each row's cells; ``str`` of a float is its ``repr``."""
    return [",".join(columns)] + [",".join(map(str, row)) for row in rows]


def trace_csv_lines(trace: RunTrace) -> list[str]:
    """Render a scored trace as CSV lines."""
    rows = [
        (t, trace.mode, float(r.batch_error), float(r.cum_error),
         float(r.mean_loss), r.kept_fraction)
        for t, r in enumerate(trace.scored_records())
    ]
    return csv_lines(TRACE_COLUMNS, rows)


def trace_summary(trace: RunTrace) -> dict:
    """JSON-ready summary of a scored trace."""
    records = trace.scored_records()
    return {
        "mode": trace.mode,
        "n_batches": len(records),
        "n_samples": sum(len(r.predictions) for r in records),
        "final_cum_error": records[-1].cum_error,
        "mean_batch_loss": float(np.mean([r.mean_loss for r in records])),
        "mean_kept_fraction": float(np.mean([r.kept_fraction for r in records])),
    }
