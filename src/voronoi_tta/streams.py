"""Synthetic source data, corrupted online streams, and site estimation.

Raw inputs are Gaussian class clusters in an even dimension m, viewed as m/2
coordinate pairs so that the views in ``VIEW_ANGLES`` are exact planar
rotations applied pairwise; view 0 is the identity. Test streams draw
per-batch class proportions from a Dirichlet distribution when label shift is
requested, corrupt the inputs (never the training data used for site
estimation), and expose the ground-truth labels only for scoring. A stream is
one (n_batches, batch_size, raw_dim) block, of which every batch is a view:
its random draws run batch by batch in a fixed order, and its arithmetic runs
in passes over chunks of whole batches. A seed's class means and shift
direction are drawn once per process and shared read-only. The source set is
drawn class by class into one array. The views and the logistic fit that
defines the power weights are module constants, not options.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .adaptation import DivergenceError, FeatureExtractor, forward
from .geometry import ClusterSiteSet, LogisticHead, _check_real, _is_integer, logistic_to_power

Array = np.ndarray

CORRUPTIONS = ("none", "gaussian_noise", "scale_drift", "rotation_drift", "shift_drift")

# Each view rotates every (x, y) coordinate pair of an input by this many
# degrees; quarter turns are exact. Cluster k holds one site per view.
VIEW_ANGLES = (0.0, 90.0, 180.0, 270.0)

# Seed-sequence tags keeping the independent generators decoupled; 11 is
# adaptation._TAG_EXTRACTOR, the extractor's frozen map.
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

# Lower bound of each integer StreamConfig field that has no other rule.
_INTEGER_FLOORS = {"n_classes": 2, "feature_dim": 1, "batch_size": 1, "n_batches": 1,
                   "n_train_per_class": 1, "seed": 0}


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
        for name in ("n_classes", "raw_dim", "feature_dim", "n_train_per_class",
                     "batch_size", "n_batches", "severity", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, low in _INTEGER_FLOORS.items():
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.raw_dim < 2 or self.raw_dim % 2 != 0:
            raise ValueError(f"raw_dim must be even and >= 2, got {self.raw_dim}")
        if self.corruption not in CORRUPTIONS:
            raise ValueError(f"corruption must be one of {CORRUPTIONS}, got {self.corruption!r}")
        if not 1 <= self.severity <= 5:
            raise ValueError(f"severity must be an integer in 1..5, got {self.severity}")
        if self.label_shift_alpha is not None:
            _check_real("label_shift_alpha", self.label_shift_alpha, "positive")
        _check_real("class_mean_scale", self.class_mean_scale, "nonnegative")
        _check_real("class_cov_scale", self.class_cov_scale, "nonnegative")


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


# Exact (cos, sin) of the quarter turns, so that those views are exact.
_QUARTER_TURNS = {0.0: (1.0, 0.0), 90.0: (0.0, 1.0), 180.0: (-1.0, 0.0), 270.0: (0.0, -1.0)}


def _rotate_pairs(x: Array, angle_deg: float, out: Array | None = None) -> Array:
    """x with each (x, y) coordinate pair rotated by angle_deg, written into
    out when given; out must be C-contiguous and may be x itself."""
    if x.shape[-1] % 2 != 0:
        raise ValueError("inputs must have an even number of coordinates")
    t = np.deg2rad(angle_deg)
    ct, st = _QUARTER_TURNS.get(angle_deg % 360.0, (np.cos(t), np.sin(t)))
    pairs = x.reshape(x.shape[:-1] + (-1, 2))
    a, b = pairs[..., 0], pairs[..., 1]
    rotated = None if out is None else out.reshape(pairs.shape)
    return np.stack([ct * a - st * b, st * a + ct * b], axis=-1, out=rotated).reshape(x.shape)


# Each seed's class means and shift direction are drawn once per process and
# shared read-only, keyed on the config fields they read.
_CONSTANTS_CACHE_SIZE = 32


def class_means(cfg: StreamConfig) -> Array:
    """(K, m) class centers around a shared centroid, drawn once per seed and
    process; the array is shared, so it is read-only."""
    return _class_means(cfg.seed, cfg.n_classes, cfg.raw_dim, cfg.class_mean_scale)


@lru_cache(maxsize=_CONSTANTS_CACHE_SIZE)
def _class_means(seed: int, n_classes: int, raw_dim: int, scale: float) -> Array:
    rng = np.random.default_rng([seed, _TAG_MEANS])
    centroid = rng.normal(size=raw_dim)
    centroid *= _CENTROID_NORM_FACTOR * scale * np.sqrt(raw_dim) / np.linalg.norm(centroid)
    means = centroid + rng.normal(0.0, scale, size=(n_classes, raw_dim))
    means.flags.writeable = False
    return means


def gen_source(cfg: StreamConfig) -> tuple[Array, Array]:
    """Labeled clean training set: per class, isotropic Gaussian samples.

    Each class's standard normal draws z go straight into its rows, which are
    then scaled and shifted in place: mean + s * z is bit for bit
    mean + rng.normal(0, s), which draws 0 + s * z, since no class mean is -0.0."""
    means = class_means(cfg)
    rng = np.random.default_rng([cfg.seed, _TAG_SOURCE])
    x = np.empty((cfg.n_classes, cfg.n_train_per_class, cfg.raw_dim))
    for k in range(cfg.n_classes):
        rng.standard_normal(out=x[k])
        x[k] *= cfg.class_cov_scale
        x[k] += means[k]
    y = np.repeat(np.arange(cfg.n_classes), cfg.n_train_per_class)
    return x.reshape(-1, cfg.raw_dim), y


def _corruption_params(cfg: StreamConfig) -> dict:
    """Severity-scaled transform parameters, fixed for the whole stream."""
    s = cfg.severity
    return {
        "noise_std": 0.5 * s * cfg.class_cov_scale,
        "scale_factor": 1.0 + 0.15 * s,
        "rotation_deg": 20.0 * s,
        "shift_offset": _shift_direction(cfg.seed, cfg.raw_dim)
        * (0.5 * s * cfg.class_mean_scale * np.sqrt(cfg.raw_dim)),
    }


@lru_cache(maxsize=_CONSTANTS_CACHE_SIZE)
def _shift_direction(seed: int, raw_dim: int) -> Array:
    """Unit direction of shift_drift's offset, drawn once per seed and process."""
    rng = np.random.default_rng([seed, _TAG_CORRUPTION])
    direction = rng.normal(size=raw_dim)
    direction /= np.linalg.norm(direction)
    direction.flags.writeable = False
    return direction


# Rows built per arithmetic pass of gen_stream, rounded down to whole batches
# (at least one): the pass's temporaries stay a few percent of a 400 x 64 stream.
_STREAM_CHUNK_ROWS = 512


def gen_stream(cfg: StreamConfig) -> list[Batch]:
    """Corrupted online batches; deterministic given the config seed.

    With ``label_shift_alpha`` set, every batch draws fresh class proportions
    from Dirichlet(alpha * 1_K); otherwise proportions are uniform. The stream
    is one (n_batches, batch_size, raw_dim) block, built in chunks of whole
    batches (at most ``_STREAM_CHUNK_ROWS`` rows unless one batch is longer).
    Per chunk, a loop makes only the random draws, batch by batch in a fixed
    order: proportions, class counts, the standard normal noise (into the
    batch's rows of the block), the shuffle, then gaussian_noise's noise. One
    pass per chunk then builds the labels from the counts, gathers labels and
    noise by the shuffle, scales the noise, adds the class means and applies
    the corruption. Each batch is a view of its rows of the block.
    """
    means = class_means(cfg)
    params = _corruption_params(cfg)
    rng = np.random.default_rng([cfg.seed, _TAG_STREAM])
    x = np.empty((cfg.n_batches, cfg.batch_size, cfg.raw_dim))
    y = np.empty((cfg.n_batches, cfg.batch_size), dtype=int)
    step = max(1, _STREAM_CHUNK_ROWS // cfg.batch_size)
    for start in range(0, cfg.n_batches, step):
        _fill_batches(cfg, rng, means, params, x[start:start + step], y[start:start + step])
    return [Batch(inputs=xt, hidden_labels=yt) for xt, yt in zip(x, y)]


def _fill_batches(
    cfg: StreamConfig, rng: np.random.Generator, means: Array, params: dict, x: Array, y: Array
):
    """Fill the consecutive batches x (b, n, m) and y (b, n) of a stream:
    their draws in stream order, then their arithmetic over the whole block."""
    b, n, m = x.shape
    k = cfg.n_classes
    p = np.full(k, 1.0 / k)
    alpha = None if cfg.label_shift_alpha is None else np.full(k, cfg.label_shift_alpha)
    counts = np.empty((b, k), dtype=int)
    order = np.empty((b, n), dtype=int)
    order[:] = np.arange(n)
    extra = np.empty_like(x) if cfg.corruption == "gaussian_noise" else None
    for t in range(b):
        if alpha is not None:
            p = rng.dirichlet(alpha)
        counts[t] = rng.multinomial(n, p)
        rng.standard_normal(out=x[t])
        rng.shuffle(order[t])  # rng.permutation(n), in place
        if extra is not None:
            rng.standard_normal(out=extra[t])
    order += np.arange(0, b * n, n)[:, None]  # batch positions -> block rows
    np.take(np.repeat(np.tile(np.arange(k), b), counts.ravel()), order, out=y)
    rows = x.reshape(-1, m)
    noise = np.take(rows, order.ravel(), axis=0)
    noise *= cfg.class_cov_scale
    np.take(means, y.ravel(), axis=0, out=rows)
    # (means[labels] + rng.normal(0, s))[order], bit for bit: normal draws
    # 0 + s * z, and no class mean (hence no clean input) is -0.0.
    rows += noise
    if extra is not None:
        extra *= params["noise_std"]
        x += extra
    elif cfg.corruption == "scale_drift":
        x *= params["scale_factor"]
    elif cfg.corruption == "shift_drift":
        x += params["shift_offset"]
    elif cfg.corruption == "rotation_drift":
        _rotate_pairs(rows, params["rotation_deg"], out=rows)


# ---------------------------------------------------------------------------
# Source-side estimation: sites, rotation-expanded clusters, power weights.
# ---------------------------------------------------------------------------


def _check_classes(y: Array, n_classes: int):
    """Raise unless every class 0..n_classes-1 labels some sample; labels
    outside that range are ignored."""
    seen = np.zeros(n_classes, dtype=bool)
    seen[y[(y >= 0) & (y < n_classes)]] = True
    missing = np.flatnonzero(~seen).tolist()
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
    # The sort must be stable: each class's indices then stay ascending, so
    # every rng.choice draws from the same array as a scan of y == k would.
    order = np.argsort(y, kind="stable")
    keep_idx = []
    for idx in np.split(order, np.flatnonzero(np.diff(y[order])) + 1):
        n_keep = max(1, int(round(fraction * len(idx))))
        keep_idx.append(rng.choice(idx, size=n_keep, replace=False))
    keep_idx = np.concatenate(keep_idx)
    keep_idx.sort()
    return x[keep_idx], y[keep_idx]
