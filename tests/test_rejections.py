"""Each input check of the package that no other test reaches, with its exact
message: bad input fails where it enters, and says what is wrong."""

from pathlib import Path

import numpy as np
import pytest

from voronoi_tta.adaptation import BatchRecord, FeatureExtractor, RunTrace
from voronoi_tta.cli import read_config_file
from voronoi_tta.experiments import ExperimentSpec, render_diagram, sweep_rows
from voronoi_tta.geometry import ClusterSiteSet, LogisticHead, compute_cells_2d, vd_distances
from voronoi_tta.metrics import ece, sample_distance_report, score_trace
from voronoi_tta.streams import Batch, feature_views, subsample_per_class

FE = FeatureExtractor(np.eye(2), np.ones(2), np.zeros(2))
SITES = ClusterSiteSet(np.zeros((2, 1, 2)), np.zeros(2))
TWO_PREDICTIONS = BatchRecord(np.zeros(2, int), np.ones(2), np.ones(2, bool), 0.0)


def _write(name: str, text: str) -> str:
    Path(name).write_text(text)
    return name


# id -> (call, the ValueError's message)
REJECTIONS = {
    "extractor-map-1d": (
        lambda: FeatureExtractor(np.zeros(2), np.ones(2), np.zeros(2)),
        "frozen_map must be 2-D",
    ),
    "extractor-scale-shape": (
        lambda: FeatureExtractor(np.eye(2), np.ones(3), np.zeros(2)),
        "scale and shift must match the feature dimension",
    ),
    "extractor-non-finite": (
        lambda: FeatureExtractor(np.eye(2), np.array([np.nan, 1.0]), np.zeros(2)),
        "extractor parameters must be finite",
    ),
    "points-non-finite": (
        lambda: vd_distances(np.array([np.nan, 0.0]), SITES),
        "points must be finite",
    ),
    "site-weights-count": (
        lambda: ClusterSiteSet(np.zeros((2, 1, 2)), np.zeros(3)),
        "need one squared weight per cluster",
    ),
    "site-weights-non-finite": (
        lambda: ClusterSiteSet(np.zeros((2, 1, 2)), np.array([0.0, np.inf])),
        "weights must be finite",
    ),
    "head-shape": (
        lambda: LogisticHead(np.zeros((2, 3)), np.zeros(3)),
        "weights must be (K, dim) with one bias per row",
    ),
    "head-weights-non-finite": (
        lambda: LogisticHead(np.array([[np.nan, 1.0]]), np.zeros(1)),
        "logistic head weights and bias must be finite",
    ),
    "head-bias-non-finite": (
        lambda: LogisticHead(np.zeros((1, 2)), np.array([np.inf])),
        "logistic head weights and bias must be finite",
    ),
    "cells-empty-box": (
        lambda: compute_cells_2d(SITES, (1.0, -1.0, -1.0, 1.0)),
        "bounding box must have positive extent",
    ),
    "batch-lengths": (
        lambda: Batch(np.zeros((2, 3)), np.zeros(3, int)),
        "inputs and hidden_labels lengths must match",
    ),
    "views-odd-coordinates": (
        lambda: list(feature_views(FeatureExtractor(np.eye(3), np.ones(3), np.zeros(3)),
                                   np.zeros(3))),
        "inputs must have an even number of coordinates",
    ),
    "subsample-fraction": (
        lambda: subsample_per_class(np.zeros((2, 2)), np.zeros(2, int), 0.0, 0),
        "fraction must be in (0, 1]",
    ),
    "sweep-axis": (
        lambda: sweep_rows(ExperimentSpec(), "severity"),
        "axis must be one of ['alpha', 'batch_size', 'site_fraction']",
    ),
    "render-kind": (
        lambda: render_diagram(ExperimentSpec(), "power"),
        "which must be one of ('vd', 'pd', 'civd', 'cipd', 'subtraction')",
    ),
    "ece-empty": (
        lambda: ece([], []),
        "confidences and correctness must be equal-length and nonempty",
    ),
    "score-trace-length": (
        lambda: score_trace(RunTrace(mode="vd"), [Batch(np.zeros((2, 2)), np.zeros(2, int))]),
        "stream length does not match the trace",
    ),
    "score-trace-labels": (
        lambda: score_trace(RunTrace("vd", [TWO_PREDICTIONS]),
                            [Batch(np.zeros((3, 2)), np.zeros(3, int))]),
        "label/prediction length mismatch",
    ),
    "distance-report-batch": (
        lambda: sample_distance_report(np.zeros((2, 2)), FE, SITES),
        "expected a single raw input vector",
    ),
    "config-line": (
        lambda: read_config_file(_write("bad.cfg", "classes = 4\nseeds 0\n")),
        "bad.cfg:2: expected 'key = value'",
    ),
}


@pytest.mark.parametrize("call, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_bad_input_is_rejected_with_its_message(call, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the config case writes its file here
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
