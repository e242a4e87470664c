"""Diagram-subtraction filter semantics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from voronoi_tta.adaptation import AdaptConfig, batch_loss_and_grad, FeatureExtractor
from voronoi_tta.filtering import filter_batch
from voronoi_tta.geometry import ClusterSiteSet, InfluenceConfig, assign, cipd_influences

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


def test_deep_inside_a_cell_is_kept():
    c = ClusterSiteSet(np.array([[0.0, 0.0], [10.0, 0.0]])[:, None], np.array([0.0, 0.5]))
    assert filter_batch(np.array([-3.0, 0.0]), c, CFG).keep_mask.tolist() == [True]


# Multiples of 1/2 on a short range: equal distances, hence exact ties
# between clusters, are common.
GRID = st.integers(-4, 4).map(lambda v: v / 2.0)


@st.composite
def filter_problems(draw):
    """(clusters (K, A, dim), points (n, dim) or one (dim,) point, weights (K,),
    config). Weights are tenths, so ``dsq - v^2`` is often inexact. The first
    point sits on a site, so that site's power term is exactly minus its
    cluster's weight; that weight puts the term at the floor, one ulp above
    or below it, or below zero."""
    k, a, dim = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    clusters = draw(hnp.arrays(float, (k, a, dim), elements=GRID))
    if draw(st.booleans()):  # a repeated cluster ties with its copy on the unweighted side
        clusters[-1] = clusters[0]
    n = draw(st.integers(0, 8))  # 0: a single (dim,) point
    z = draw(hnp.arrays(float, (max(n, 1), dim), elements=GRID))
    tenths = st.integers(-40, 40).map(lambda v: v / 10.0)
    weights = draw(hnp.arrays(float, (k,), elements=tenths))
    cfg = InfluenceConfig(
        gamma=draw(st.sampled_from([-2.0, -0.8, 0.5, 1.0])),
        distance_floor=draw(st.sampled_from([1e-8, 0.25])),
    )
    j, s = draw(st.integers(0, k - 1)), draw(st.integers(0, a - 1))
    z[0] = clusters[j, s]
    floor = cfg.distance_floor
    term = draw(st.sampled_from(
        [floor, np.nextafter(floor, np.inf), np.nextafter(floor, 0.0), -1.0]
    ))
    weights[j] = -term
    return clusters, z[0] if n == 0 else z, weights, cfg


def fixed_seed_problem():
    rng = np.random.default_rng(1)
    clusters = rng.normal(size=(5, 3, 2)) * 2.0
    weights = rng.normal(size=5) * 0.5
    return clusters, rng.normal(size=(1000, 2)) * 2.0, weights, CFG


@settings(max_examples=150, deadline=None)
@given(filter_problems())
@example(fixed_seed_problem())
# Two copies of one cluster tie on the unweighted side. (2 + 0.3) - 0.3 rounds
# below 2, so an unweighted side rebuilt from the weighted terms would hand
# the tie to the copy.
@example((np.zeros((2, 1, 2)), np.array([[1.0, 1.0]]), np.array([0.0, -0.3]), CFG))
def test_kept_fraction_matches_brute_force(problem):
    # the oracle scores each side with its own cipd_influences call
    clusters, z, w, cfg = problem
    c = ClusterSiteSet(clusters, w)
    report = filter_batch(z, c, cfg)
    unweighted = assign(cipd_influences(z, c.with_weights(np.zeros(c.n_cells)), cfg))
    weighted = assign(cipd_influences(z, c, cfg))
    assert report.keep_mask.dtype == bool
    assert np.array_equal(report.keep_mask, np.atleast_1d(unweighted == weighted))


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
