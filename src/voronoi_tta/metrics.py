"""Classification error, calibration, adaptation curves, distance reports.

This is the only module that reads the hidden labels carried by stream
batches; the adaptation loop itself stays label-free and its traces are
scored here after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adaptation import FeatureExtractor, RunTrace, csv_lines
from .geometry import (
    ClusterSiteSet,
    InfluenceConfig,
    aggregate_influence,
    assign,
    site_terms,
    squared_distances,
)
from .streams import VIEW_ANGLES, feature_views

Array = np.ndarray

# ece bins confidences into this many equal-width bins on [0, 1].
ECE_BINS = 10


def error_rate(predictions, labels) -> float:
    """Fraction of mismatched predictions."""
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if p.shape != y.shape or p.size == 0:
        raise ValueError("predictions and labels must be equal-length and nonempty")
    return float(np.mean(p != y))


def ece(confidences, correctness) -> float:
    """Expected calibration error with equal-width bins over max-probability
    confidence.

    Boundary confidences go to the lower bin (1.0 stays in the top bin);
    empty bins contribute nothing.
    """
    conf = np.asarray(confidences, dtype=float)
    correct = np.asarray(correctness, dtype=float)
    if conf.shape != correct.shape or conf.size == 0:
        raise ValueError("confidences and correctness must be equal-length and nonempty")
    if np.any(conf < 0) or np.any(conf > 1):
        raise ValueError("confidences must lie in [0, 1]")
    inner_edges = np.linspace(0.0, 1.0, ECE_BINS + 1)[1:-1]
    bins = np.digitize(conf, inner_edges, right=True)
    total = 0.0
    n = conf.size
    for b in range(ECE_BINS):
        mask = bins == b
        n_b = int(np.sum(mask))
        if n_b == 0:
            continue
        gap = abs(float(np.mean(correct[mask])) - float(np.mean(conf[mask])))
        total += (n_b / n) * gap
    return total


def score_trace(trace: RunTrace, stream) -> RunTrace:
    """Fill per-batch and cumulative retrospective error from hidden labels."""
    batches = list(stream)
    if len(batches) != len(trace.records):
        raise ValueError("stream length does not match the trace")
    wrong = 0
    seen = 0
    for record, batch in zip(trace.records, batches):
        labels = np.asarray(batch.hidden_labels)
        if labels.shape != record.predictions.shape:
            raise ValueError("label/prediction length mismatch")
        if labels.size == 0:
            raise ValueError("predictions and labels must be equal-length and nonempty")
        n_wrong = int(np.count_nonzero(record.predictions != labels))
        record.batch_error = n_wrong / labels.size  # error_rate's value, bit for bit
        wrong += n_wrong
        seen += labels.size
        record.cum_error = wrong / seen
    return trace


def adaptation_curve(trace: RunTrace) -> list[tuple[int, float]]:
    """(batch index, error over all samples in batches up to and including it)."""
    return [(t, float(r.cum_error)) for t, r in enumerate(trace.scored_records())]


# ---------------------------------------------------------------------------
# Per-sample distance analysis across views.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistanceReport:
    """Distances d(sigma(T_a x), mu_k^(a)) plus the aggregated influences.

    ``per_rotation_pred[a]`` is the nearest-site class under view a alone;
    ``aggregate_pred`` maximizes the influence summed over matched
    (view, site) pairs. ``rotations_disagree`` marks samples whose individual
    views vote for different classes, and ``aggregation_overrides`` marks
    samples where the aggregate differs from the identity view's vote, i.e.
    aggregation changed the outcome.
    """

    distances: Array  # (A, K)
    influences: Array  # (K,)
    per_rotation_pred: Array  # (A,) int
    aggregate_pred: int
    rotations_disagree: bool
    aggregation_overrides: bool


def sample_distance_report(
    x,
    fe: FeatureExtractor,
    c: ClusterSiteSet,
    cfg: InfluenceConfig = InfluenceConfig(),
) -> DistanceReport:
    """Distance table of one raw input across all views in VIEW_ANGLES."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a single raw input vector")
    if c.n_sites_per_cluster != len(VIEW_ANGLES):
        raise ValueError("clusters need one site per view in VIEW_ANGLES")
    views = np.stack(list(feature_views(fe, x)))
    # View a is matched with site a of every cluster: the (a, k, a) entries.
    matched = np.arange(len(VIEW_ANGLES))
    distances = site_terms(squared_distances(views, c.clusters)[matched, :, matched])  # (A, K)
    influences = aggregate_influence(distances.T, cfg)
    per_rotation_pred = assign(-distances)
    aggregate_pred = assign(influences)
    return DistanceReport(
        distances=distances,
        influences=influences,
        per_rotation_pred=per_rotation_pred,
        aggregate_pred=aggregate_pred,
        rotations_disagree=bool(len(set(per_rotation_pred.tolist())) > 1),
        aggregation_overrides=bool(aggregate_pred != int(per_rotation_pred[0])),
    )


def distance_report_csv_lines(report: DistanceReport) -> list[str]:
    """CSV rows (alpha, class, distance, influence); the influence column is
    the per-class aggregate repeated on each view row."""
    n_alpha, n_classes = report.distances.shape
    rows = (
        (alpha, k, float(report.distances[alpha, k]), float(report.influences[k]))
        for alpha in range(n_alpha)
        for k in range(n_classes)
    )
    return csv_lines(("alpha", "class", "distance", "influence"), rows)
