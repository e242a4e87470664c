"""Diagram-subtraction filter semantics."""

import numpy as np
import pytest

from voronoi_tta.adaptation import AdaptConfig, batch_loss_and_grad, FeatureExtractor
from voronoi_tta.filtering import filter_batch
from voronoi_tta.geometry import ClusterSiteSet, InfluenceConfig, cipd_influences

CFG = InfluenceConfig(gamma=-0.8)


def test_zero_weights_keep_everything():
    rng = np.random.default_rng(0)
    c = ClusterSiteSet(rng.normal(size=(4, 4, 3)), np.zeros(4))
    z = rng.normal(size=(200, 3))
    report = filter_batch(z, c, CFG)
    assert report.keep_mask.all()


def test_hand_example_excludes_boundary_sample():
    c = ClusterSiteSet(np.array([[0.0, 0.0], [2.0, 0.0]])[:, None], np.array([0.0, 0.5]))
    report = filter_batch(np.array([[0.95, 0.0], [0.2, 0.0]]), c, CFG)
    assert list(report.keep_mask) == [False, True]


def test_kept_fraction_matches_brute_force():
    rng = np.random.default_rng(1)
    c = ClusterSiteSet(rng.normal(size=(5, 3, 2)) * 2.0, rng.normal(size=5) * 0.5)
    z = rng.normal(size=(1000, 2)) * 2.0
    report = filter_batch(z, c, CFG)
    unweighted = np.argmax(cipd_influences(z, c.with_weights(np.zeros(5)), CFG), axis=1)
    weighted = np.argmax(cipd_influences(z, c, CFG), axis=1)
    want = unweighted == weighted
    assert np.array_equal(report.keep_mask, want)


def test_filter_is_idempotent():
    rng = np.random.default_rng(2)
    c = ClusterSiteSet(rng.normal(size=(3, 4, 3)), rng.normal(size=3) * 0.3)
    z = rng.normal(size=(100, 3))
    first = filter_batch(z, c, CFG)
    second = filter_batch(z[first.keep_mask], c, CFG)
    assert second.keep_mask.all()


def test_requires_weights():
    c = ClusterSiteSet(np.zeros((2, 1, 2)))
    with pytest.raises(ValueError):
        filter_batch(np.zeros((1, 2)), c, CFG)


def test_excluded_samples_contribute_nothing_to_loss_and_grad():
    rng = np.random.default_rng(4)
    fe = FeatureExtractor(rng.normal(size=(3, 4)), np.ones(3), np.zeros(3))
    c = ClusterSiteSet(rng.normal(size=(3, 2, 3)), rng.normal(size=3) * 0.3)
    x = rng.normal(size=(10, 4))
    keep = rng.random(10) > 0.4
    cfg = AdaptConfig(mode="cipd")
    masked = batch_loss_and_grad(fe, x, c, cfg, keep)
    kept_only = batch_loss_and_grad(fe, x[keep], c, cfg, np.ones(keep.sum(), bool))
    assert masked[0] == pytest.approx(kept_only[0], rel=1e-12)
    np.testing.assert_allclose(masked[1], kept_only[1], rtol=1e-12)
    np.testing.assert_allclose(masked[2], kept_only[2], rtol=1e-12)
