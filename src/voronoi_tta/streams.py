"""Synthetic source data, corrupted online streams, and site estimation.

Raw inputs are Gaussian class clusters in an even dimension m, viewed as m/2
coordinate pairs so that the rotation augmentations are exact planar
rotations applied pairwise. Test streams draw per-batch class proportions
from a Dirichlet distribution when label shift is requested, corrupt the
inputs (never the training data used for site estimation), and expose the
ground-truth labels only for scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptation import DivergenceError, FeatureExtractor, forward
from .geometry import ClusterSiteSet, LogisticHead, SiteSet, logistic_to_power

Array = np.ndarray

CORRUPTIONS = ("none", "gaussian_noise", "scale_drift", "rotation_drift", "shift_drift")

# Seed-sequence tags keeping the independent generators decoupled.
_TAG_MEANS = 10
_TAG_SOURCE = 12
_TAG_STREAM = 13
_TAG_CORRUPTION = 14
_TAG_SUBSAMPLE = 16

# Class centers share a common offset of this many class_mean_scale * sqrt(m)
# units from the origin. Drift corruptions then displace all classes by a
# common component that the trainable shift can absorb, while the per-class
# geometry stays uncorrectable; both regimes matter at test time.
_CENTROID_NORM_FACTOR = 1.8


@dataclass(frozen=True)
class StreamConfig:
    """Generator parameters for one synthetic source/stream pair."""

    n_classes: int = 10
    raw_dim: int = 16
    feature_dim: int = 32
    n_train_per_class: int = 2000
    class_mean_scale: float = 0.15
    class_cov_scale: float = 0.06
    corruption: str = "rotation_drift"
    severity: int = 3
    batch_size: int = 64
    n_batches: int = 50
    label_shift_alpha: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.raw_dim < 2 or self.raw_dim % 2 != 0:
            raise ValueError("raw_dim must be even (inputs are coordinate pairs)")
        if self.batch_size < 1 or self.n_batches < 0:
            raise ValueError("batch_size must be >= 1 and n_batches >= 0")
        if self.n_train_per_class < 1:
            raise ValueError("need at least one training sample per class")
        if self.corruption not in CORRUPTIONS:
            raise ValueError(f"corruption must be one of {CORRUPTIONS}")
        if not 1 <= self.severity <= 5:
            raise ValueError("severity is an integer in 1..5")
        alpha = self.label_shift_alpha
        if alpha is not None and not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"label_shift_alpha must be finite and positive, got {alpha!r}")
        for name in ("class_mean_scale", "class_cov_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class Batch:
    """One online batch: raw inputs plus labels reserved for metrics."""

    inputs: Array  # (n, raw_dim)
    hidden_labels: Array  # (n,) int

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.hidden_labels, dtype=int)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("inputs and hidden_labels lengths must match")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "hidden_labels", y)


@dataclass(frozen=True)
class AugmentationFamily:
    """Deterministic invertible input transforms; the first is the identity.

    Each angle rotates every (x, y) coordinate pair of the input by that many
    degrees. Quarter turns are computed exactly.
    """

    angles_deg: tuple = (0.0, 90.0, 180.0, 270.0)

    def __post_init__(self):
        if len(self.angles_deg) < 1 or self.angles_deg[0] != 0.0:
            raise ValueError("first transform must be the identity (0 degrees)")

    @property
    def size(self) -> int:
        return len(self.angles_deg)

    def apply(self, alpha: int, x) -> Array:
        x = np.asarray(x, dtype=float)
        return _rotate_pairs(x, self.angles_deg[alpha])


def quarter_rotations() -> AugmentationFamily:
    return AugmentationFamily((0.0, 90.0, 180.0, 270.0))


def _rotate_pairs(x: Array, angle_deg: float) -> Array:
    if x.shape[-1] % 2 != 0:
        raise ValueError("inputs must have an even number of coordinates")
    quarter = {0.0: 0, 90.0: 1, 180.0: 2, 270.0: 3}.get(angle_deg % 360.0)
    pairs = x.reshape(x.shape[:-1] + (-1, 2))
    a = pairs[..., 0]
    b = pairs[..., 1]
    if quarter == 0:
        return x.copy()
    if quarter == 1:
        out = np.stack([-b, a], axis=-1)
    elif quarter == 2:
        out = np.stack([-a, -b], axis=-1)
    elif quarter == 3:
        out = np.stack([b, -a], axis=-1)
    else:
        t = np.deg2rad(angle_deg)
        ct, st = np.cos(t), np.sin(t)
        out = np.stack([ct * a - st * b, st * a + ct * b], axis=-1)
    return out.reshape(x.shape)


def class_means(cfg: StreamConfig) -> Array:
    """(K, m) class centers around a shared centroid, drawn once per seed."""
    rng = np.random.default_rng([cfg.seed, _TAG_MEANS])
    centroid = rng.normal(size=cfg.raw_dim)
    centroid *= (
        _CENTROID_NORM_FACTOR
        * cfg.class_mean_scale
        * np.sqrt(cfg.raw_dim)
        / np.linalg.norm(centroid)
    )
    return centroid + rng.normal(0.0, cfg.class_mean_scale, size=(cfg.n_classes, cfg.raw_dim))


def gen_source(cfg: StreamConfig) -> tuple[Array, Array]:
    """Labeled clean training set: per class, isotropic Gaussian samples."""
    means = class_means(cfg)
    rng = np.random.default_rng([cfg.seed, _TAG_SOURCE])
    n = cfg.n_train_per_class
    xs = []
    for k in range(cfg.n_classes):
        xs.append(means[k] + rng.normal(0.0, cfg.class_cov_scale, size=(n, cfg.raw_dim)))
    x = np.concatenate(xs, axis=0)
    y = np.repeat(np.arange(cfg.n_classes), n)
    return x, y


def _corruption_params(cfg: StreamConfig) -> dict:
    """Severity-scaled transform parameters, fixed for the whole stream."""
    rng = np.random.default_rng([cfg.seed, _TAG_CORRUPTION])
    s = cfg.severity
    direction = rng.normal(size=cfg.raw_dim)
    direction /= np.linalg.norm(direction)
    return {
        "noise_std": 0.5 * s * cfg.class_cov_scale,
        "scale_factor": 1.0 + 0.15 * s,
        "rotation_deg": 20.0 * s,
        "shift_offset": direction * (0.5 * s * cfg.class_mean_scale * np.sqrt(cfg.raw_dim)),
    }


def corrupt(x: Array, cfg: StreamConfig, params: dict, rng: np.random.Generator) -> Array:
    if cfg.corruption == "none":
        return x
    if cfg.corruption == "gaussian_noise":
        return x + rng.normal(0.0, params["noise_std"], size=x.shape)
    if cfg.corruption == "scale_drift":
        return x * params["scale_factor"]
    if cfg.corruption == "rotation_drift":
        return _rotate_pairs(x, params["rotation_deg"])
    return x + params["shift_offset"]


def gen_stream(cfg: StreamConfig) -> list[Batch]:
    """Corrupted online batches; deterministic given the config seed.

    With ``label_shift_alpha`` set, every batch draws fresh class proportions
    from Dirichlet(alpha * 1_K); otherwise proportions are uniform.
    """
    means = class_means(cfg)
    params = _corruption_params(cfg)
    rng = np.random.default_rng([cfg.seed, _TAG_STREAM])
    batches = []
    for _ in range(cfg.n_batches):
        if cfg.label_shift_alpha is not None:
            p = rng.dirichlet(np.full(cfg.n_classes, cfg.label_shift_alpha))
        else:
            p = np.full(cfg.n_classes, 1.0 / cfg.n_classes)
        counts = rng.multinomial(cfg.batch_size, p)
        labels = np.repeat(np.arange(cfg.n_classes), counts)
        clean = means[labels] + rng.normal(
            0.0, cfg.class_cov_scale, size=(cfg.batch_size, cfg.raw_dim)
        )
        order = rng.permutation(cfg.batch_size)
        labels = labels[order]
        clean = clean[order]
        batches.append(Batch(inputs=corrupt(clean, cfg, params, rng), hidden_labels=labels))
    return batches


# ---------------------------------------------------------------------------
# Source-side estimation: sites, rotation-expanded clusters, power weights.
# ---------------------------------------------------------------------------


def _check_classes(y: Array, n_classes: int):
    present = np.unique(y)
    missing = sorted(set(range(n_classes)) - set(present.tolist()))
    if missing:
        raise ValueError(f"training set is missing classes {missing}")


def expand_cluster_sites(
    x, y, fe: FeatureExtractor, fam: AugmentationFamily, n_classes: int
) -> ClusterSiteSet:
    """Cluster k holds one site per augmentation: the per-class mean feature
    of the transformed training inputs, in family order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    _check_classes(y, n_classes)
    per_alpha = []
    for alpha in range(fam.size):
        feats = forward(fe, fam.apply(alpha, x))
        per_alpha.append(
            np.stack([feats[y == k].mean(axis=0) for k in range(n_classes)])
        )
    clusters = np.stack(per_alpha, axis=1)  # (K, A, feature_dim)
    return ClusterSiteSet(clusters)


def fit_logistic_head(
    features,
    labels,
    n_classes: int,
    learning_rate: float = 0.5,
    n_iterations: int = 300,
    l2: float = 0.3,
) -> LogisticHead:
    """Full-batch gradient descent on softmax cross-entropy from zero init.

    Zero initialization keeps symmetric sources symmetric. The L2 term keeps
    weights bounded on separable data; the fairly strong default holds the
    derived power weights near the scale of the prototype geometry.
    """
    f = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    _check_classes(y, n_classes)
    n, dim = f.shape
    w = np.zeros((n_classes, dim))
    b = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(n_iterations):
        logits = f @ w.T + b
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        p = e / e.sum(axis=1, keepdims=True)
        if not np.all(np.isfinite(p)):
            raise DivergenceError("logistic head fitting diverged")
        resid = (p - onehot) / n
        w -= learning_rate * (resid.T @ f + l2 * w)
        b -= learning_rate * resid.sum(axis=0)
    return LogisticHead(w, b)


def fit_power_weights(x, y, fe: FeatureExtractor, sites: SiteSet) -> Array:
    """Per-class squared power weights from a source-fit logistic head.

    The head is fit on the clean training features and converted to its power
    diagram; the squared weights are returned mean-centered and aligned to
    class order. Centering leaves every power-distance argmin unchanged while
    keeping the power terms d^2 - v^2 away from the clamp floor.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if sites.dim != fe.feature_dim:
        raise ValueError("sites do not match the extractor's feature dimension")
    feats = forward(fe, x)
    head = fit_logistic_head(feats, y, sites.n_cells)
    weight_sq = logistic_to_power(head).weight_sq
    if not np.all(np.isfinite(weight_sq)):
        raise DivergenceError("power weights are not finite")
    return weight_sq - weight_sq.mean()


def subsample_per_class(x, y, fraction: float, seed: int) -> tuple[Array, Array]:
    """Keep a deterministic per-class fraction of the training set (>= 1 each)."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if fraction == 1.0:
        return x, y
    rng = np.random.default_rng([seed, _TAG_SUBSAMPLE])
    keep_idx = []
    for k in np.unique(y):
        idx = np.flatnonzero(y == k)
        n_keep = max(1, int(round(fraction * len(idx))))
        keep_idx.append(rng.choice(idx, size=n_keep, replace=False))
    keep_idx = np.concatenate(keep_idx)
    keep_idx.sort()
    return x[keep_idx], y[keep_idx]
