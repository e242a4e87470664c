"""Synthetic source/stream generation and site estimation."""

import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from voronoi_tta import streams
from voronoi_tta.adaptation import DivergenceError, FeatureExtractor, forward
from voronoi_tta.experiments import SWEEP_AXES, _prepare_source, prepare_run
from voronoi_tta.geometry import ClusterSiteSet, assign, logistic_to_power, pd_power, vd_distances
from voronoi_tta.streams import (
    HEAD_GTOL,
    HEAD_L2,
    VIEW_ANGLES,
    StreamConfig,
    class_means,
    expand_cluster_sites,
    feature_views,
    fit_logistic_head,
    fit_power_weights,
    gen_source,
    gen_stream,
    subsample_per_class,
)

SMALL = StreamConfig(
    n_classes=3,
    raw_dim=6,
    feature_dim=8,
    n_train_per_class=200,
    batch_size=16,
    n_batches=5,
    seed=42,
)


# --- source generation ---

def test_source_is_deterministic():
    x1, y1 = gen_source(SMALL)
    x2, y2 = gen_source(SMALL)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_zero_covariance_collapses_to_means():
    cfg = StreamConfig(
        n_classes=2, raw_dim=4, feature_dim=4, n_train_per_class=10,
        class_cov_scale=0.0, seed=1,
    )
    x, y = gen_source(cfg)
    means = class_means(cfg)
    for k in range(2):
        np.testing.assert_allclose(x[y == k], np.tile(means[k], (10, 1)))


def test_empirical_means_near_configured_means():
    cfg = StreamConfig(
        n_classes=3, raw_dim=6, feature_dim=6, n_train_per_class=4000, seed=3,
    )
    x, y = gen_source(cfg)
    means = class_means(cfg)
    bound = 3.0 * cfg.class_cov_scale / np.sqrt(4000)
    for k in range(3):
        emp = x[y == k].mean(axis=0)
        assert np.all(np.abs(emp - means[k]) < 3.5 * bound + 1e-9)


# --- views ---

def raw_views(x):
    """The rotated inputs themselves: views under an identity extractor."""
    m = np.shape(x)[-1]
    return list(feature_views(FeatureExtractor(np.eye(m), np.ones(m), np.zeros(m)), x))


def test_quarter_rotations_are_exact_and_invertible():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 6))
    views = raw_views(x)
    assert len(views) == len(VIEW_ANGLES) == 4
    np.testing.assert_array_equal(views[0], x)
    # 90 applied four times is the identity, exactly
    out = x
    for _ in range(4):
        out = raw_views(out)[1]
    np.testing.assert_array_equal(out, x)
    # 180 is its own inverse; 90 then 270 is the identity
    np.testing.assert_array_equal(raw_views(views[2])[2], x)
    np.testing.assert_array_equal(raw_views(views[1])[3], x)
    # hand value: pair (1, 0) rotated 90 degrees becomes (0, 1)
    np.testing.assert_array_equal(raw_views(np.array([1.0, 0.0]))[1], [0.0, 1.0])


def test_view_zero_is_the_identity():
    assert VIEW_ANGLES[0] == 0.0
    x, _ = gen_source(SMALL)
    fe = make_extractor(SMALL)
    assert np.array_equal(next(feature_views(fe, x)), forward(fe, x))


# --- site estimation ---

def make_extractor(cfg, seed=0):
    return FeatureExtractor.seeded(cfg.raw_dim, cfg.feature_dim, seed)


def identity_sites(x, y, fe, n_classes):
    """Per-class mean features: the identity-view sites, one per cell."""
    clusters = expand_cluster_sites(fe, x, y, n_classes)
    return ClusterSiteSet(clusters.clusters[:, :1])


def test_one_sample_per_class_sites_equal_features():
    cfg = StreamConfig(
        n_classes=3, raw_dim=4, feature_dim=5, n_train_per_class=1, seed=5,
    )
    x, y = gen_source(cfg)
    fe = make_extractor(cfg)
    sites = identity_sites(x, y, fe, cfg.n_classes)
    np.testing.assert_allclose(sites.clusters[:, 0], forward(fe, x))


def test_duplicated_dataset_gives_identical_sites():
    x, y = gen_source(SMALL)
    fe = make_extractor(SMALL)
    a = identity_sites(x, y, fe, SMALL.n_classes)
    b = identity_sites(np.vstack([x, x]), np.concatenate([y, y]), fe, SMALL.n_classes)
    np.testing.assert_allclose(a.clusters, b.clusters)


def test_missing_class_rejected():
    x, y = gen_source(SMALL)
    fe = make_extractor(SMALL)
    with pytest.raises(ValueError):
        identity_sites(x[y != 1], y[y != 1], fe, SMALL.n_classes)


@settings(max_examples=100, deadline=None)
@example(labels=[0, 2, -1, 4, 7, 2], n_classes=4)
@given(labels=st.lists(st.integers(-3, 8), max_size=30), n_classes=st.integers(2, 6))
def test_class_check_names_missing_classes_and_ignores_out_of_range_labels(labels, n_classes):
    y = np.array(labels, dtype=int)
    missing = sorted(set(range(n_classes)) - set(labels))
    if missing:
        message = re.escape(f"training set is missing classes {missing}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            streams._check_classes(y, n_classes)
    else:
        streams._check_classes(y, n_classes)


def test_rotation_invariant_inputs_collapse_clusters():
    fe = FeatureExtractor(np.eye(4), np.ones(4), np.zeros(4))
    x = np.zeros((6, 4))
    y = np.array([0, 0, 0, 1, 1, 1])
    clusters = expand_cluster_sites(fe, x, y, 2)
    for k in range(2):
        for alpha in range(4):
            np.testing.assert_allclose(clusters.clusters[k, alpha], clusters.clusters[k, 0])


AFFINE = hnp.arrays(float, SMALL.feature_dim, elements=st.floats(-50, 50))


@settings(max_examples=20, deadline=None)
@example(
    scale=np.linspace(-3.0, 4.0, SMALL.feature_dim),
    shift=np.linspace(40.0, -25.0, SMALL.feature_dim),
)
@given(scale=AFFINE, shift=AFFINE)
def test_cluster_sites_match_groupby_oracle(scale, shift):
    # a non-identity affine part: the sites are built from class-mean inputs,
    # which is exact only if scale and shift are applied to them as well
    assume(np.any(scale != 1) and np.any(shift != 0))
    x, y = gen_source(SMALL)
    fe = FeatureExtractor(make_extractor(SMALL).frozen_map, scale, shift)
    clusters = expand_cluster_sites(fe, x, y, SMALL.n_classes)
    for alpha, rotated in enumerate(raw_views(x)):
        feats = forward(fe, rotated)
        for k in range(SMALL.n_classes):
            rows = [f for f, label in zip(feats, y) if label == k]
            want = np.mean(rows, axis=0)
            got = clusters.clusters[k, alpha]
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# --- power weights ---

def test_symmetric_source_gives_equal_weights():
    # perfectly mirror-symmetric two-class source
    x0 = np.array([[1.0, 0.5], [2.0, -0.5], [1.5, 1.0]])
    x = np.vstack([x0, -x0])
    y = np.array([0, 0, 0, 1, 1, 1])
    fe = FeatureExtractor(np.eye(2), np.ones(2), np.zeros(2))
    w = fit_power_weights(forward(fe, x), y, 2)
    assert abs(w[0] - w[1]) < 1e-12
    assert np.all(np.isfinite(w))


def test_converted_head_reproduces_logit_argmax():
    x, y = gen_source(SMALL)
    fe = make_extractor(SMALL)
    feats = forward(fe, x)
    head = fit_logistic_head(feats, y, SMALL.n_classes)
    converted = logistic_to_power(head)
    rng = np.random.default_rng(7)
    probes = rng.normal(size=(5000, SMALL.feature_dim))
    logits = probes @ head.weights.T + head.bias
    assert np.array_equal(assign(-pd_power(probes, converted)), np.argmax(logits, axis=1))


def test_power_weights_are_centered():
    x, y = gen_source(SMALL)
    fe = make_extractor(SMALL)
    w = fit_power_weights(forward(fe, x), y, SMALL.n_classes)
    assert abs(w.mean()) < 1e-12


# A 10-class source on which 300 steps of gradient descent from zero, the
# fit that defined the weights before, were still moving by ~7e-7 per step.
UNCONVERGED = StreamConfig(
    n_classes=10, raw_dim=16, feature_dim=32, n_train_per_class=50, seed=42,
)
# Features with a large common mean (up to 11 per coordinate): the fit solves
# for the centred bias, but must meet HEAD_GTOL in (W, b).
SHIFTED = StreamConfig(
    n_classes=3, raw_dim=6, feature_dim=8, n_train_per_class=200, class_mean_scale=3.0, seed=41,
)


def head_objective(theta, f, y, k):
    """Mean softmax cross-entropy plus HEAD_L2 * |W|^2 / 2 at theta = [W | b],
    and its gradient, with (n, K) logits and residuals."""
    n = len(y)
    params = theta.reshape(k, -1)
    w, b = params[:, :-1], params[:, -1]
    logits = f @ w.T + b
    logits -= logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits).sum(axis=1))
    loss = np.mean(lse - logits[np.arange(n), y]) + HEAD_L2 * np.sum(w * w) / 2
    resid = (np.exp(logits - lse[:, None]) - np.eye(k)[y]) / n
    grad = np.column_stack([resid.T @ f + HEAD_L2 * w, resid.sum(axis=0)])
    return loss, grad.ravel()


def head_source(cfg):
    x, y = gen_source(cfg)
    return forward(make_extractor(cfg), x), y


@pytest.mark.parametrize(
    "cfg", [SMALL, UNCONVERGED, SHIFTED], ids=["small", "unconverged", "shifted"]
)
def test_logistic_head_is_the_minimiser(cfg):
    from scipy.optimize import minimize

    f, y = head_source(cfg)
    k = cfg.n_classes
    head = fit_logistic_head(f, y, k)
    theta = np.column_stack([head.weights, head.bias]).ravel()
    assert np.abs(head_objective(theta, f, y, k)[1]).max() <= HEAD_GTOL
    oracle = minimize(
        head_objective, np.zeros_like(theta), args=(f, y, k), jac=True, method="L-BFGS-B",
        options={"ftol": 0.0, "gtol": 1e-11, "maxiter": 10_000, "maxfun": 20_000},
    )
    np.testing.assert_allclose(theta, oracle.x, rtol=0, atol=1e-6)


@pytest.mark.parametrize(
    "cfg", [SMALL, UNCONVERGED, SHIFTED], ids=["small", "unconverged", "shifted"]
)
def test_logistic_head_bias_sums_to_zero(cfg):
    # the objective is invariant to a common bias shift; from zero the fit
    # picks the representative with sum(b) = 0
    f, y = head_source(cfg)
    assert abs(fit_logistic_head(f, y, cfg.n_classes).bias.sum()) < 1e-12


# Sources with large class means (class_mean_scale 10) on which Armijo
# backtracking alone stalled: near the minimiser its required decrease is below
# the rounding of the loss, so every trial failed until HEAD_MAX_STEPS.
# (n_classes, feature_dim, n_train_per_class, class_cov_scale, seed)
ROUNDING_FLOOR_SOURCES = [
    (40, 1, 1, 0.06, 2),
    (40, 4, 1, 1.0, 1),
    (40, 4, 50, 0.06, 2),
    (40, 32, 50, 0.0, 0),
    (10, 1, 1, 0.0, 2),
    (10, 1, 1, 0.06, 2),
    (10, 1, 1, 1.0, 0),
    (10, 1, 1, 1.0, 2),
    (10, 4, 50, 0.06, 2),  # `run --seeds 2 --class-mean-scale 10 --classes 10 --feature-dim 4 ...`
    (10, 4, 500, 0.06, 1),
]


@pytest.mark.parametrize("k, dim, n, cov, seed", ROUNDING_FLOOR_SOURCES)
def test_logistic_head_converges_at_the_rounding_floor(k, dim, n, cov, seed):
    cfg = StreamConfig(
        n_classes=k, feature_dim=dim, n_train_per_class=n, class_mean_scale=10.0,
        class_cov_scale=cov, seed=seed,
    )
    x, y = gen_source(cfg)
    f = forward(make_extractor(cfg, seed), x)
    head = fit_logistic_head(f, y, k)
    theta = np.column_stack([head.weights, head.bias]).ravel()
    assert np.abs(head_objective(theta, f, y, k)[1]).max() <= HEAD_GTOL


def test_logistic_head_iteration_cap_names_the_step(monkeypatch):
    monkeypatch.setattr(streams, "HEAD_MAX_STEPS", 3)
    f, y = head_source(SMALL)
    with pytest.raises(DivergenceError, match="logistic head fitting did not converge by step 3"):
        fit_logistic_head(f, y, SMALL.n_classes)


def test_logistic_head_leaves_its_inputs_untouched():
    x, y = gen_source(SMALL)
    f = forward(make_extractor(SMALL), x)
    f_bytes, y_bytes = f.tobytes(), y.tobytes()
    want = fit_logistic_head(f.copy(), y.copy(), SMALL.n_classes)
    f.setflags(write=False)
    y.setflags(write=False)
    head = fit_logistic_head(f, y, SMALL.n_classes)
    assert f.tobytes() == f_bytes and y.tobytes() == y_bytes
    assert np.array_equal(head.weights, want.weights)
    assert np.array_equal(head.bias, want.bias)


def test_logistic_head_divergence_names_the_step():
    # the first trial step moves w to ~1e200, so its logits overflow; the fit
    # must raise, not warn (warnings are errors in this suite)
    f = np.full((4, 2), 1e200)
    f[2:] *= -1.0
    y = np.array([0, 0, 1, 1])
    with pytest.raises(DivergenceError, match="logistic head fitting diverged at step 0"):
        fit_logistic_head(f, y, 2)


# --- streams ---

def test_stream_determinism_and_shapes():
    a = gen_stream(SMALL)
    b = gen_stream(SMALL)
    assert len(a) == SMALL.n_batches
    for ba, bb in zip(a, b):
        assert np.array_equal(ba.inputs, bb.inputs)
        assert np.array_equal(ba.hidden_labels, bb.hidden_labels)
        assert ba.inputs.shape == (SMALL.batch_size, SMALL.raw_dim)


def test_huge_alpha_approaches_uniform_proportions():
    cfg = StreamConfig(
        n_classes=5, raw_dim=4, feature_dim=4, n_train_per_class=10,
        batch_size=200, n_batches=100, label_shift_alpha=1e6, seed=8,
    )
    shares = []
    for batch in gen_stream(cfg):
        counts = np.bincount(batch.hidden_labels, minlength=5)
        shares.append(counts / cfg.batch_size)
    mean_share = np.mean(shares, axis=0)
    assert np.all(np.abs(mean_share - 0.2) < 0.05 * 0.2 + 0.02)


def test_tiny_alpha_concentrates_batches():
    cfg = StreamConfig(
        n_classes=5, raw_dim=4, feature_dim=4, n_train_per_class=10,
        batch_size=100, n_batches=100, label_shift_alpha=0.01, seed=9,
    )
    top_shares = []
    for batch in gen_stream(cfg):
        counts = np.bincount(batch.hidden_labels, minlength=5)
        top_shares.append(counts.max() / cfg.batch_size)
    assert np.mean(top_shares) > 0.8


def test_no_corruption_stream_matches_source_distribution():
    cfg = StreamConfig(
        n_classes=3, raw_dim=6, feature_dim=6, n_train_per_class=2000,
        corruption="none", batch_size=64, n_batches=30, seed=10,
    )
    x, y = gen_source(cfg)
    fe = make_extractor(cfg)
    sites = identity_sites(x, y, fe, cfg.n_classes)
    train_err = np.mean(assign(-vd_distances(forward(fe, x), sites)) != y)
    errs = []
    for batch in gen_stream(cfg):
        preds = assign(-vd_distances(forward(fe, batch.inputs), sites))
        errs.append(np.mean(preds != batch.hidden_labels))
    assert abs(np.mean(errs) - train_err) < 0.05


def test_corruption_applies_to_stream_only():
    cfg = StreamConfig(
        n_classes=2, raw_dim=4, feature_dim=4, n_train_per_class=50,
        corruption="shift_drift", severity=5, seed=11, class_cov_scale=0.0,
        batch_size=8, n_batches=1,
    )
    x, _ = gen_source(cfg)
    means = class_means(cfg)
    # training samples are exactly the class means (cov 0), uncorrupted
    assert np.allclose(np.unique(np.round(x, 9), axis=0).shape[0], 2)
    batch = gen_stream(cfg)[0]
    displaced = [
        np.min(np.linalg.norm(means - row, axis=1)) for row in batch.inputs
    ]
    assert np.min(displaced) > 0.1  # every stream sample carries the offset


def test_scale_drift_scales_the_clean_stream():
    fields = dict(n_classes=3, raw_dim=4, feature_dim=4, n_train_per_class=10,
                  severity=2, batch_size=8, n_batches=3, seed=5)
    clean = gen_stream(StreamConfig(corruption="none", **fields))
    scaled = gen_stream(StreamConfig(corruption="scale_drift", **fields))
    for c, s in zip(clean, scaled):
        assert np.array_equal(s.hidden_labels, c.hidden_labels)
        assert np.array_equal(s.inputs, c.inputs * (1.0 + 0.15 * 2))


def test_class_means_and_shift_direction_are_drawn_once_read_only():
    cfg = replace(SMALL, corruption="shift_drift", seed=123)
    # reference: the same draws, uncached
    rng = np.random.default_rng([cfg.seed, streams._TAG_MEANS])
    centroid = rng.normal(size=cfg.raw_dim)
    centroid *= (
        streams._CENTROID_NORM_FACTOR * cfg.class_mean_scale * np.sqrt(cfg.raw_dim)
        / np.linalg.norm(centroid)
    )
    want_means = centroid + rng.normal(0.0, cfg.class_mean_scale, size=(cfg.n_classes, cfg.raw_dim))
    rng = np.random.default_rng([cfg.seed, streams._TAG_CORRUPTION])
    direction = rng.normal(size=cfg.raw_dim)
    direction /= np.linalg.norm(direction)
    want_offset = direction * (0.5 * cfg.severity * cfg.class_mean_scale * np.sqrt(cfg.raw_dim))

    means = class_means(cfg)
    assert means.tobytes() == want_means.tobytes()
    offset = streams._corruption_params(cfg)["shift_offset"]
    assert offset.tobytes() == want_offset.tobytes()
    # stream-only fields are not part of the key
    assert class_means(replace(cfg, batch_size=3, severity=5, corruption="none")) is means
    shared = streams._shift_direction(cfg.seed, cfg.raw_dim)
    assert streams._shift_direction(cfg.seed, cfg.raw_dim) is shared
    for cached in (means, shared):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 1.0
    assert class_means(cfg).tobytes() == want_means.tobytes()


def test_a_batch_size_sweep_builds_one_generator_per_stream(monkeypatch):
    streams._class_means.cache_clear()
    streams._shift_direction.cache_clear()
    built = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        built.append(tuple(seed))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    for batch_size in SWEEP_AXES["batch_size"]:
        gen_stream(replace(SMALL, seed=7, batch_size=batch_size))
    stream = (7, streams._TAG_STREAM)
    assert built == [(7, streams._TAG_MEANS), (7, streams._TAG_CORRUPTION)] + [stream] * 4


def subsample_reference(x, y, fraction, seed):
    """subsample_per_class's former loop: np.unique, then one scan per class."""
    if fraction == 1.0:
        return x, y
    rng = np.random.default_rng([seed, streams._TAG_SUBSAMPLE])
    keep_idx = []
    for k in np.unique(y):
        idx = np.flatnonzero(y == k)
        n_keep = max(1, int(round(fraction * len(idx))))
        keep_idx.append(rng.choice(idx, size=n_keep, replace=False))
    keep_idx = np.concatenate(keep_idx)
    keep_idx.sort()
    return x[keep_idx], y[keep_idx]


@given(
    y=hnp.arrays(int, st.integers(1, 80), elements=st.integers(-2, 6)),
    sort=st.booleans(),
    fraction=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
@example(y=np.repeat(np.arange(4), 5), sort=False, fraction=0.5, seed=0)
def test_subsample_keeps_the_rows_of_the_per_class_loop(y, sort, fraction, seed):
    # labels sorted or shuffled, negative or past any class count
    if sort:
        y = np.sort(y)
    x = np.arange(2.0 * len(y)).reshape(-1, 2)
    got = subsample_per_class(x, y, fraction, seed)
    want = subsample_reference(x, y, fraction, seed)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_every_generator_of_a_seed_has_its_own_tag(monkeypatch):
    # A generator that reused another's tag would repeat that one's draws.
    streams._class_means.cache_clear()
    streams._shift_direction.cache_clear()
    _prepare_source.cache_clear()
    built = set()
    default_rng = np.random.default_rng

    def recording_rng(seed):
        built.add((sys._getframe(1).f_code.co_name, tuple(seed)))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    cfg = replace(SMALL, seed=31)
    prepare_run(cfg, cfg.seed, site_fraction=0.1)
    for corruption in streams.CORRUPTIONS:
        gen_stream(replace(cfg, corruption=corruption))
    gen_stream(replace(cfg, label_shift_alpha=0.5))
    assert {seed for _, (seed, _) in built} == {31}
    callers = {caller for caller, _ in built}
    assert callers == {"_class_means", "seeded", "gen_source", "subsample_per_class",
                       "gen_stream", "_shift_direction"}
    assert len({tag for _, (_, tag) in built}) == len(callers) == len(built)


def test_subsample_keeps_every_class():
    x, y = gen_source(SMALL)
    xs, ys = subsample_per_class(x, y, 0.01, seed=12)
    assert set(ys.tolist()) == {0, 1, 2}
    assert len(ys) == 3 * max(1, round(0.01 * SMALL.n_train_per_class))
    # deterministic
    xs2, ys2 = subsample_per_class(x, y, 0.01, seed=12)
    assert np.array_equal(xs, xs2)


def test_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(raw_dim=5)  # odd
    with pytest.raises(ValueError):
        StreamConfig(n_classes=1)
    with pytest.raises(ValueError):
        StreamConfig(corruption="fog")
    with pytest.raises(ValueError):
        StreamConfig(severity=6)
    with pytest.raises(ValueError):
        StreamConfig(label_shift_alpha=0.0)


INTEGER_FIELDS = ("n_classes", "raw_dim", "feature_dim", "n_train_per_class",
                  "batch_size", "n_batches", "severity", "seed")


@pytest.mark.parametrize(
    "name, value, message",
    [(name, 2.5, f"{name} must be an integer, got 2.5") for name in INTEGER_FIELDS]
    + [
        ("n_classes", 3.0, "n_classes must be an integer, got 3.0"),
        ("batch_size", True, "batch_size must be an integer, got True"),
        ("severity", "3", "severity must be an integer, got '3'"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ],
)
def test_integer_fields_are_checked_where_the_config_is_built(name, value, message):
    with pytest.raises(ValueError) as info:
        StreamConfig(**{name: value})
    assert str(info.value) == message
    StreamConfig(**{name: np.int64(getattr(StreamConfig(), name))})  # numpy integers pass


# The lower bound of each integer field whose only rule is a floor.
INTEGER_FLOORS = {"n_classes": 2, "feature_dim": 1, "batch_size": 1, "n_batches": 1,
                  "n_train_per_class": 1, "seed": 0}


@pytest.mark.parametrize("integer", [int, np.int64, np.int32, np.int8])
@pytest.mark.parametrize("name, low", INTEGER_FLOORS.items())
def test_integer_floors_name_the_field_and_its_bound(name, low, integer):
    with pytest.raises(ValueError) as info:
        StreamConfig(**{name: integer(low - 1)})
    assert str(info.value) == f"{name} must be >= {low}, got {low - 1}"
    assert getattr(StreamConfig(**{name: integer(low)}), name) == low
