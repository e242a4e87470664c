"""Synthetic source/stream generation and site estimation."""

import numpy as np
import pytest

from voronoi_tta.adaptation import FeatureExtractor, forward
from voronoi_tta.geometry import logistic_to_power, pd_assign
from voronoi_tta.streams import (
    AugmentationFamily,
    StreamConfig,
    class_means,
    expand_cluster_sites,
    fit_logistic_head,
    fit_power_weights,
    gen_source,
    gen_stream,
    quarter_rotations,
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


# --- augmentations ---

def test_quarter_rotations_are_exact_and_invertible():
    fam = quarter_rotations()
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 6))
    assert np.array_equal(fam.apply(0, x), x)
    # 90 applied four times is the identity, exactly
    out = x
    for _ in range(4):
        out = fam.apply(1, out)
    np.testing.assert_array_equal(out, x)
    # 180 is its own inverse
    np.testing.assert_array_equal(fam.apply(2, fam.apply(2, x)), x)
    # hand value: pair (1, 0) rotated 90 degrees becomes (0, 1)
    v = fam.apply(1, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(v, [0.0, 1.0])


def test_family_requires_identity_first():
    with pytest.raises(ValueError):
        AugmentationFamily((90.0, 0.0))


# --- site estimation ---

def make_extractor(cfg, seed=0):
    return FeatureExtractor.seeded(cfg.raw_dim, cfg.feature_dim, seed)


def identity_sites(x, y, fe, n_classes):
    """Per-class mean features: the identity-view sites."""
    return expand_cluster_sites(x, y, fe, AugmentationFamily((0.0,)), n_classes).base_sites()


def test_one_sample_per_class_sites_equal_features():
    cfg = StreamConfig(
        n_classes=3, raw_dim=4, feature_dim=5, n_train_per_class=1, seed=5,
    )
    x, y = gen_source(cfg)
    fe = make_extractor(cfg)
    sites = identity_sites(x, y, fe, cfg.n_classes)
    np.testing.assert_allclose(sites.sites, forward(fe, x))


def test_duplicated_dataset_gives_identical_sites():
    x, y = gen_source(SMALL)
    fe = make_extractor(SMALL)
    a = identity_sites(x, y, fe, SMALL.n_classes)
    b = identity_sites(np.vstack([x, x]), np.concatenate([y, y]), fe, SMALL.n_classes)
    np.testing.assert_allclose(a.sites, b.sites)


def test_missing_class_rejected():
    x, y = gen_source(SMALL)
    fe = make_extractor(SMALL)
    with pytest.raises(ValueError):
        identity_sites(x[y != 1], y[y != 1], fe, SMALL.n_classes)


def test_rotation_invariant_inputs_collapse_clusters():
    fe = FeatureExtractor(np.eye(4), np.ones(4), np.zeros(4))
    x = np.zeros((6, 4))
    y = np.array([0, 0, 0, 1, 1, 1])
    clusters = expand_cluster_sites(x, y, fe, quarter_rotations(), 2)
    for k in range(2):
        for alpha in range(4):
            np.testing.assert_allclose(clusters.clusters[k, alpha], clusters.clusters[k, 0])


def test_cluster_sites_match_groupby_oracle():
    x, y = gen_source(SMALL)
    fe = make_extractor(SMALL)
    fam = quarter_rotations()
    clusters = expand_cluster_sites(x, y, fe, fam, SMALL.n_classes)
    for alpha in range(fam.size):
        feats = forward(fe, fam.apply(alpha, x))
        for k in range(SMALL.n_classes):
            rows = [f for f, label in zip(feats, y) if label == k]
            np.testing.assert_allclose(
                clusters.clusters[k, alpha], np.mean(rows, axis=0), rtol=1e-10
            )


# --- power weights ---

def test_symmetric_source_gives_equal_weights():
    # perfectly mirror-symmetric two-class source
    x0 = np.array([[1.0, 0.5], [2.0, -0.5], [1.5, 1.0]])
    x = np.vstack([x0, -x0])
    y = np.array([0, 0, 0, 1, 1, 1])
    fe = FeatureExtractor(np.eye(2), np.ones(2), np.zeros(2))
    w = fit_power_weights(x, y, fe, identity_sites(x, y, fe, 2))
    assert abs(w[0] - w[1]) < 1e-2
    assert np.all(np.isfinite(w))


def test_converted_head_reproduces_logit_argmax():
    x, y = gen_source(SMALL)
    fe = make_extractor(SMALL)
    feats = forward(fe, x)
    head = fit_logistic_head(feats, y, SMALL.n_classes)
    converted = logistic_to_power(head)
    rng = np.random.default_rng(7)
    probes = rng.normal(size=(5000, SMALL.feature_dim))
    assert np.array_equal(
        pd_assign(probes, converted), np.argmax(head.logits(probes), axis=1)
    )


def test_power_weights_are_centered():
    x, y = gen_source(SMALL)
    fe = make_extractor(SMALL)
    w = fit_power_weights(x, y, fe, identity_sites(x, y, fe, SMALL.n_classes))
    assert abs(w.mean()) < 1e-12


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
    from voronoi_tta.geometry import vd_assign

    train_err = np.mean(vd_assign(forward(fe, x), sites) != y)
    errs = []
    for batch in gen_stream(cfg):
        preds = vd_assign(forward(fe, batch.inputs), sites)
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
