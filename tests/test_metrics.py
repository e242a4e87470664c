"""Error, calibration, adaptation curves, and the distance report."""

import numpy as np
import pytest

from voronoi_tta.adaptation import AdaptConfig, FeatureExtractor, run_stream
from voronoi_tta.geometry import ClusterSiteSet, InfluenceConfig, civd_influences
from voronoi_tta.metrics import (
    adaptation_curve,
    distance_report_csv_lines,
    ece,
    error_rate,
    sample_distance_report,
    score_trace,
)
from voronoi_tta.streams import (
    VIEW_ANGLES,
    Batch,
    StreamConfig,
    class_means,
    expand_cluster_sites,
    feature_views,
    gen_source,
)


# --- error rate ---

def test_error_rate_hand_values():
    assert error_rate([1, 2, 3], [1, 2, 3]) == 0.0
    assert error_rate([1, 2, 3, 4], [1, 2, 0, 0]) == 0.5


def test_error_rate_matches_brute_count():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 5, size=500)
    labels = rng.integers(0, 5, size=500)
    want = sum(int(p != l) for p, l in zip(preds, labels)) / 500
    assert error_rate(preds, labels) == pytest.approx(want)


def test_error_rate_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        error_rate([], [])
    with pytest.raises(ValueError):
        error_rate([1], [1, 2])


def test_error_rate_permutation_invariant():
    rng = np.random.default_rng(1)
    preds = rng.integers(0, 3, size=100)
    labels = rng.integers(0, 3, size=100)
    perm = rng.permutation(100)
    assert error_rate(preds, labels) == error_rate(preds[perm], labels[perm])


# --- ece ---

def test_ece_perfectly_confident_and_correct():
    assert ece(np.ones(10), np.ones(10)) == 0.0


def test_ece_single_bin_hand_value():
    conf = np.full(10, 0.75)
    correct = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    assert ece(conf, correct) == pytest.approx(0.25)


def test_ece_matches_brute_force_binning():
    rng = np.random.default_rng(2)
    conf = rng.uniform(0, 1, 400)
    correct = rng.integers(0, 2, 400)
    got = ece(conf, correct)
    # independent accounting with (lo, hi] bins, 1.0 in the top bin
    total = 0.0
    for b in range(10):
        lo, hi = b / 10, (b + 1) / 10
        if b == 0:
            mask = conf <= hi
        else:
            mask = (conf > lo) & (conf <= hi)
        if mask.sum() == 0:
            continue
        total += (mask.sum() / 400) * abs(correct[mask].mean() - conf[mask].mean())
    assert got == pytest.approx(total, rel=1e-12)


def test_ece_boundary_goes_to_lower_bin():
    # 0.7 sits in the (0.6, 0.7] bin; pair it with accuracy 0.7 there
    conf = np.array([0.7] * 10)
    correct = np.array([1, 1, 1, 1, 1, 1, 1, 0, 0, 0])
    assert ece(conf, correct) == pytest.approx(0.0)


def test_ece_perfectly_calibrated_by_construction():
    # in each bin, accuracy equals the bin's mean confidence exactly
    conf, correct = [], []
    for b in range(10):
        c = b / 10 + 0.05
        conf.extend([c] * 20)
        n_correct = int(round(c * 20))
        correct.extend([1] * n_correct + [0] * (20 - n_correct))
    got = ece(np.array(conf), np.array(correct))
    assert got <= 1e-12


def test_ece_rejects_out_of_range():
    with pytest.raises(ValueError):
        ece(np.array([1.2]), np.array([1]))


# --- trace scoring and curves ---

def make_traced_run(seed=0, n_batches=4):
    rng = np.random.default_rng(seed)
    cfg = StreamConfig(
        n_classes=3, raw_dim=4, feature_dim=4, n_train_per_class=50,
        batch_size=10, n_batches=n_batches, seed=seed,
    )
    x, y = gen_source(cfg)
    fe = FeatureExtractor.seeded(cfg.raw_dim, cfg.feature_dim, seed)
    clusters = expand_cluster_sites(fe, x, y, cfg.n_classes)
    clusters = clusters.with_weights(np.zeros(cfg.n_classes))
    stream = [
        Batch(inputs=rng.normal(size=(10, 4)), hidden_labels=rng.integers(0, 3, 10))
        for _ in range(n_batches)
    ]
    trace = run_stream(fe, stream, clusters, AdaptConfig(mode="vd"))
    return trace, stream


def test_score_trace_and_curve_recomputation():
    trace, stream = make_traced_run()
    score_trace(trace, stream)
    curve = adaptation_curve(trace)
    # recompute cumulative errors from raw records
    wrong = 0
    seen = 0
    for (idx, cum), record, batch in zip(curve, trace.records, stream):
        wrong += int(np.sum(record.predictions != batch.hidden_labels))
        seen += len(batch.hidden_labels)
        assert cum == pytest.approx(wrong / seen)
        assert record.batch_error == pytest.approx(
            np.mean(record.predictions != batch.hidden_labels)
        )
    assert curve[-1][1] == pytest.approx(trace.final_cum_error())


def test_curve_constant_error_is_flat():
    trace, stream = make_traced_run(seed=3)
    # overwrite labels so every batch has the same error pattern
    for record, batch in zip(trace.records, stream):
        batch.hidden_labels[:] = record.predictions
        batch.hidden_labels[0] = (record.predictions[0] + 1) % 3
    score_trace(trace, stream)
    curve = adaptation_curve(trace)
    for _, cum in curve:
        assert cum == pytest.approx(0.1)


def test_two_batch_curve_hand_value():
    trace, stream = make_traced_run(seed=4, n_batches=2)
    stream[0].hidden_labels[:] = trace.records[0].predictions
    stream[1].hidden_labels[:] = (trace.records[1].predictions + 1) % 3
    score_trace(trace, stream)
    curve = adaptation_curve(trace)
    assert curve[0][1] == pytest.approx(0.0)
    assert curve[1][1] == pytest.approx(0.5)


def test_curve_requires_scored_nonempty_trace():
    trace, stream = make_traced_run(seed=5)
    with pytest.raises(ValueError):
        adaptation_curve(trace)


# --- distance report ---

def report_setup(seed=0):
    cfg = StreamConfig(
        n_classes=3, raw_dim=6, feature_dim=6, n_train_per_class=500,
        class_mean_scale=1.0, class_cov_scale=0.1, seed=seed,
    )
    x, y = gen_source(cfg)
    fe = FeatureExtractor.seeded(cfg.raw_dim, cfg.feature_dim, seed)
    clusters = expand_cluster_sites(fe, x, y, cfg.n_classes)
    return cfg, fe, clusters


def test_clean_class_mean_minimizes_identity_distance():
    cfg, fe, clusters = report_setup()
    means = class_means(cfg)
    report = sample_distance_report(means[1], fe, clusters)
    assert int(np.argmin(report.distances[0])) == 1
    assert report.per_rotation_pred[0] == 1
    assert report.aggregate_pred == 1


def test_report_influence_matches_singleton_recomputation():
    cfg, fe, clusters = report_setup(seed=1)
    x = np.random.default_rng(2).normal(size=cfg.raw_dim) * 0.5
    icfg = InfluenceConfig(gamma=-0.8)
    report = sample_distance_report(x, fe, clusters, icfg)
    for k in range(cfg.n_classes):
        # sum of singleton influences over matched (view, site) pairs
        total = 0.0
        for alpha, z in enumerate(feature_views(fe, x)):
            site = ClusterSiteSet(clusters.clusters[k : k + 1, alpha : alpha + 1])
            total += civd_influences(z, site, icfg)[0]
        assert report.influences[k] == pytest.approx(total, rel=1e-12)


def test_report_flags_aggregation_rescue():
    # find a shifted-stream sample whose identity view votes wrong while a
    # rotated view and the aggregate recover the true class
    from voronoi_tta.streams import gen_stream

    cfg = StreamConfig(
        n_classes=5, raw_dim=6, feature_dim=8, n_train_per_class=500,
        class_mean_scale=1.0, class_cov_scale=0.35, corruption="gaussian_noise",
        severity=3, batch_size=64, n_batches=6, seed=6,
    )
    x, y = gen_source(cfg)
    fe = FeatureExtractor.seeded(cfg.raw_dim, cfg.feature_dim, 6)
    clusters = expand_cluster_sites(fe, x, y, cfg.n_classes)
    found = None
    for batch in gen_stream(cfg):
        for sample, label in zip(batch.inputs, batch.hidden_labels):
            report = sample_distance_report(sample, fe, clusters)
            if (
                report.aggregate_pred == label
                and report.per_rotation_pred[0] != label
                and label in report.per_rotation_pred[1:]
            ):
                found = report
                break
        if found:
            break
    assert found is not None, "no rescue sample in the search budget"
    assert found.rotations_disagree
    assert found.aggregation_overrides


def test_report_csv_shape():
    cfg, fe, clusters = report_setup(seed=7)
    x = np.zeros(cfg.raw_dim)
    report = sample_distance_report(x, fe, clusters)
    lines = distance_report_csv_lines(report)
    assert lines[0] == "alpha,class,distance,influence"
    assert len(lines) == 1 + len(VIEW_ANGLES) * cfg.n_classes
    alpha, klass, dist, infl = lines[1].split(",")
    assert alpha == "0" and klass == "0"
    float(dist), float(infl)


def test_report_requires_one_site_per_view():
    cfg, fe, clusters = report_setup()
    identity_only = ClusterSiteSet(clusters.clusters[:, :1])
    with pytest.raises(ValueError, match="one site per view"):
        sample_distance_report(np.zeros(cfg.raw_dim), fe, identity_only)
