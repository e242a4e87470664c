"""Tests of the benchmark's own logic.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import json
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import stats  # noqa: E402
from tracing import Span, Tracer, layer_table, self_times  # noqa: E402
from voronoi_tta import adaptation, experiments  # noqa: E402
from voronoi_tta.streams import StreamConfig  # noqa: E402


# --- percentile helper -----------------------------------------------------


def test_percentile_refuses_short_tail():
    values = list(range(99))
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(values, 90)
    assert stats.percentile(list(range(1, 101)), 90) == 90  # exactly 10 beyond
    with pytest.raises(ValueError):
        stats.percentile(range(15), 50)


def test_percentile_is_nearest_rank():
    assert stats.percentile(list(range(1, 41)), 50) == 20


# --- spans -----------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0, "t"),
        Span("a", 1.0, 4.0, 0, 0, "t"),
        Span("a.inner", 2.0, 3.0, 1, 0, "t"),
        Span("b", 3.5, 6.0, 0, 0, "t"),  # overlaps a: covered once
        Span("c", 9.0, 12.0, 0, 0, "t"),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_nests_wrapped_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", "m.inner", lambda x: x + 1)
    outer = tracer.wrap("outer", "m.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    table = layer_table(tracer.spans)
    assert table["inner"]["calls"] == 2
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    # outer spans ticks 0..5, each inner call one tick.
    assert table["outer"]["s"] == 5.0 and table["outer"]["self_s"] == 3.0


# --- repeat_frac key -------------------------------------------------------


def test_source_key_ignores_stream_fields_and_separates_source_fields():
    base = StreamConfig()
    key = harness.source_key(base, 0, 1.0)
    stream_only = replace(base, corruption="gaussian_noise", severity=5, batch_size=8,
                          n_batches=3, label_shift_alpha=0.1, seed=7)
    assert harness.source_key(stream_only, 0, 1.0) == key
    assert harness.source_key(replace(base, n_train_per_class=10), 0, 1.0) != key
    assert harness.source_key(replace(base, feature_dim=8), 0, 1.0) != key
    assert harness.source_key(base, 1, 1.0) != key
    assert harness.source_key(base, 0, 0.1) != key
    assert harness.repeat_fraction([key, key, harness.source_key(base, 1, 1.0), key]) == 0.5


def test_panel_and_rep_seeds_are_distinct():
    w = harness.WORKLOADS["sweep_batch_size"]
    seeds = [s for rep in range(50) for s in harness.rep_seeds(w, 3, rep)]
    assert seeds[:2] == list(w.panel)
    assert len(set(seeds)) == len(seeds)
    assert harness.rep_seeds(w, 3, 5) == harness.rep_seeds(w, 3, 5)
    assert harness.rep_seeds(w, 3, 5) != harness.rep_seeds(w, 4, 5)


# --- output check ----------------------------------------------------------


def _probed_runs(run_stream):
    """Runs of every mode on a tiny stream through the probes."""
    cfg = StreamConfig(n_train_per_class=40, n_batches=20, batch_size=16)
    prepared = experiments.prepare_run(cfg, 0)
    probes = harness.Probes()
    namespace = types.SimpleNamespace(prepare_run=experiments.prepare_run, run_stream=run_stream)
    probe_stream = dict((attr, fn) for _, attr, fn in probes.bindings(namespace))["run_stream"]
    for mode in harness.MODES:
        probe_stream(prepared.extractor, prepared.stream, prepared.clusters,
                     adaptation.AdaptConfig(mode=mode, filtering=mode == "cipd"))
    return probes.runs


def test_output_check_passes_the_package():
    for run in _probed_runs(adaptation.run_stream):
        assert harness.check_run(run, adaptation.forward) == []


def test_output_check_flags_a_wrong_prediction():
    run = _probed_runs(adaptation.run_stream)[2]
    z = adaptation.forward(run.extractor, run.batches[0].inputs)
    scores = harness.brute_force_scores(z, run.sites, "cipd", run.cfg.influence)
    preds = run.trace.records[0].predictions
    preds[0] = np.argsort(scores[0])[-2]  # the runner-up class
    assert any("brute force" in p for p in harness.check_run(run, adaptation.forward))


def test_output_check_flags_a_pre_read_stream():
    def pre_reading(fe, stream, sites, cfg):
        batches = list(stream)
        time.sleep(0.02)
        return adaptation.run_stream(fe, batches, sites, cfg)

    assert "stamps cover" in harness.coverage_problem(_probed_runs(pre_reading))
    assert harness.coverage_problem(_probed_runs(adaptation.run_stream)) is None


def test_ties_are_not_mismatches():
    scores = np.array([[1.0, 1.0 + 1e-12, 0.0], [0.0, 2.0, 1.0]])
    assert harness.prediction_mismatches([0, 1], scores) == 0
    assert harness.prediction_mismatches([0, 2], scores) == 1


# --- compare verdicts ------------------------------------------------------


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "better"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [10.3, 10.2, 10.4, 10.3], "lower", "within bound"),
        ([100.0, 101.0, 99.0], [120.0, 121.0, 119.0], "higher", "better"),
        ([10.0, 14.0, 6.0, 10.0], [10.5, 14.5, 6.5, 10.5], "lower", "unresolved"),
        ([10.0, 14.0, 6.0, 10.0], [2.0, 3.0, 3.0, 2.0], "lower", "better"),
        ([5.0, 5.0, 5.0], [5.0, 5.0, 5.0], "lower", "within bound"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert stats.verdict(parent, change, better, 0.1)[2] == expected


def test_summary_matches_statistics_quantiles():
    s = stats.summarize([3.0, 1.0, 2.0, 5.0, 4.0])
    assert (s.q1, s.median, s.q3) == (1.5, 3.0, 4.5)
    assert s.spread == pytest.approx(1.0)


# --- BENCHMARK.json agrees with the harness --------------------------------


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS


def test_every_rep_gives_100_cipd_batches():
    for w in harness.WORKLOADS.values():
        cfg = StreamConfig(**w.stream)
        points = len(experiments.SWEEP_AXES["batch_size"]) if w.sweep else 1
        assert w.seeds_per_rep * points * cfg.n_batches >= 100, w.name
