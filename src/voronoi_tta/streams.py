"""Synthetic source data, corrupted online streams, and site estimation.

Raw inputs are Gaussian class clusters in an even dimension m, viewed as m/2
coordinate pairs so that the views in ``VIEW_ANGLES`` are exact planar
rotations applied pairwise; view 0 is the identity. Test streams draw
per-batch class proportions from a Dirichlet distribution when label shift is
requested, corrupt the inputs (never the training data used for site
estimation), and expose the ground-truth labels only for scoring. The views
and the logistic fit that defines the power weights are module constants, not
options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptation import DivergenceError, FeatureExtractor, forward
from .geometry import ClusterSiteSet, LogisticHead, logistic_to_power

Array = np.ndarray

CORRUPTIONS = ("none", "gaussian_noise", "scale_drift", "rotation_drift", "shift_drift")

# Each view rotates every (x, y) coordinate pair of an input by this many
# degrees; quarter turns are exact. Cluster k holds one site per view.
VIEW_ANGLES = (0.0, 90.0, 180.0, 270.0)

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
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.raw_dim < 2 or self.raw_dim % 2 != 0:
            raise ValueError(f"raw_dim must be even and >= 2, got {self.raw_dim}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_batches < 1:
            raise ValueError(f"n_batches must be >= 1, got {self.n_batches}")
        if self.n_train_per_class < 1:
            raise ValueError(f"n_train_per_class must be >= 1, got {self.n_train_per_class}")
        if self.corruption not in CORRUPTIONS:
            raise ValueError(f"corruption must be one of {CORRUPTIONS}, got {self.corruption!r}")
        if not 1 <= self.severity <= 5:
            raise ValueError(f"severity must be an integer in 1..5, got {self.severity}")
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


def feature_views(fe: FeatureExtractor, x):
    """Features of each view of x, in VIEW_ANGLES order, one view at a time."""
    x = np.asarray(x, dtype=float)
    for angle in VIEW_ANGLES:
        yield forward(fe, _rotate_pairs(x, angle))


def expand_cluster_sites(fe: FeatureExtractor, x, y, n_classes: int) -> ClusterSiteSet:
    """Cluster k holds one site per view, in VIEW_ANGLES order: that view's features
    averaged over the inputs x of class k. Computed as the view features of the K
    class-mean inputs, exact up to rounding: the extractor is affine, the views linear."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    _check_classes(y, n_classes)
    means = np.stack([x[y == k].mean(axis=0) for k in range(n_classes)])
    return ClusterSiteSet(np.stack(list(feature_views(fe, means)), axis=1))  # (K, A, feature_dim)


# The power weights are defined as the minimiser of mean softmax cross-entropy
# plus HEAD_L2 * |W|^2 / 2 (bias unpenalised): strongly convex in W, but equal
# when every bias moves by the same amount, so unique up to the bias sum. From
# zero, the class sums of b and of the W rows stay zero, as do those of their
# gradients, so the fit keeps sum(b) = 0 (and fit_power_weights mean-centres
# the squared weights). The fit stops at max |grad| < HEAD_GTOL.
HEAD_L2 = 0.3
HEAD_GTOL = 1e-8
HEAD_MAX_STEPS = 2000
_HEAD_MEMORY = 10


def _head_objective(theta, f, onehot, mu):
    """Objective, gradient and max |gradient| in (W, b) at theta = [W | c]; the
    logits W (f - mu) + c = W f + b are (K, n) so the softmax runs in place."""
    w = theta[:, :-1]
    p = w @ f.T
    p += theta[:, -1:] - w @ mu[:, None]
    p -= p.max(axis=0)
    picked = np.vdot(onehot, p)
    np.exp(p, out=p)
    total = p.sum(axis=0)
    loss = (np.log(total).sum() - picked) / len(f) + 0.5 * HEAD_L2 * np.vdot(w, w)
    p /= total
    p -= onehot
    p /= len(f)
    gw, gc = p @ f + HEAD_L2 * w, p.sum(axis=1, keepdims=True)  # the (W, b) gradient
    return loss, np.concatenate([gw - gc * mu, gc], axis=1), max(abs(gw).max(), abs(gc).max())


def _lbfgs_direction(grad, pairs):
    """Two-loop recursion: minus the inverse-Hessian estimate times grad."""
    q, alphas = grad.copy(), []
    for s, d, rho in reversed(pairs):
        alphas.append(rho * np.vdot(s, q))
        q -= alphas[-1] * d
    if pairs:  # scale by s.d / d.d of the newest pair
        q /= pairs[-1][2] * np.vdot(pairs[-1][1], pairs[-1][1])
    for (s, d, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * np.vdot(d, q)) * s
    return -q


def fit_logistic_head(features, labels, n_classes: int) -> LogisticHead:
    """The minimiser defined above, by L-BFGS from zero with backtracking
    (one step per objective evaluation, at most HEAD_MAX_STEPS), in c = b + W mu:
    the same minimiser, far better conditioned when the features share a large
    mean. A zero start keeps symmetric sources symmetric; inputs are not written.
    A trial passes Armijo (c1 = 1e-4) or, where Armijo's decrease is below the loss's
    rounding, the approximate Wolfe test of Hager & Zhang (SIAM J. Optim., 2005):
    loss <= loss_0 + 1e-12 |loss_0| and grad.d <= -0.8 grad_0.d; else t halves."""
    f = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    _check_classes(y, n_classes)
    onehot = (np.arange(n_classes)[:, None] == y).astype(float)  # (K, n)
    theta = np.zeros((n_classes, f.shape[1] + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        mu = f.mean(axis=0)
        loss, grad, gmax = _head_objective(theta, f, onehot, mu)
        direction, t, pairs = -grad, 1.0, []
        for step in range(HEAD_MAX_STEPS):
            if gmax < HEAD_GTOL:
                return LogisticHead(theta[:, :-1].copy(), theta[:, -1] - theta[:, :-1] @ mu)
            trial = theta + t * direction
            trial_loss, trial_grad, trial_gmax = _head_objective(trial, f, onehot, mu)
            if not np.isfinite(trial_loss):
                raise DivergenceError(f"logistic head fitting diverged at step {step}")
            slope, trial_slope = np.vdot(grad, direction), np.vdot(trial_grad, direction)
            approx_wolfe = trial_loss <= loss + 1e-12 * abs(loss) and trial_slope <= -0.8 * slope
            if trial_loss > loss + 1e-4 * t * slope and not approx_wolfe:
                t /= 2
                continue
            s, d = trial - theta, trial_grad - grad
            if np.vdot(s, d) > 0:
                pairs = pairs[1 - _HEAD_MEMORY:] + [(s, d, 1.0 / np.vdot(s, d))]
            theta, loss, grad, gmax = trial, trial_loss, trial_grad, trial_gmax
            direction, t = _lbfgs_direction(grad, pairs), 1.0
    raise DivergenceError(f"logistic head fitting did not converge by step {HEAD_MAX_STEPS}")


def fit_power_weights(features, y, n_classes: int) -> Array:
    """Squared power weights, in class order, of the logistic head fit on the
    clean source features, mean-centered: centering leaves every power-distance
    argmin unchanged while keeping the power terms d^2 - v^2 off the clamp floor."""
    weight_sq = logistic_to_power(fit_logistic_head(features, y, n_classes)).weight_sq
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
