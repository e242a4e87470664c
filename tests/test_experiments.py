"""Source preparation: sites and weights against their definition, peak
memory, and reuse in prepare_run (one cached source per distinct source
config)."""

import dataclasses
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voronoi_tta.adaptation import FeatureExtractor, forward
from voronoi_tta.experiments import (
    _SOURCE_CACHE_SIZE,
    _STREAM_ONLY,
    _prepare_source,
    prepare_run,
)
from voronoi_tta.geometry import ClusterSiteSet
from voronoi_tta.streams import (
    StreamConfig,
    feature_views,
    fit_power_weights,
    gen_source,
    subsample_per_class,
)

SMALL = StreamConfig(n_train_per_class=50, n_batches=2)

# A valid non-default value for each stream-only field.
STREAM_ONLY_VALUES = {
    "corruption": "gaussian_noise",
    "severity": 5,
    "batch_size": 7,
    "n_batches": 3,
    "label_shift_alpha": 0.5,
}


@pytest.fixture(autouse=True)
def empty_cache():
    _prepare_source.cache_clear()


def bitwise_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def changed(value):
    """A different valid value of a numeric StreamConfig field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AssertionError(f"no changed value defined for {value!r}; extend changed()")
    return value + 2 if isinstance(value, int) else value * 2


def assert_source_matches_definition(cfg: StreamConfig, site_fraction: float):
    """_prepare_source builds its sites from class-mean inputs; they must equal
    the definition, computed here as the per-class means of each view's
    features over the source, to 1e-12 of the largest site, and the weights
    must be bitwise equal to the fit on the source features."""
    x, y = gen_source(cfg)
    xs, ys = subsample_per_class(x, y, site_fraction, cfg.seed)
    fe = FeatureExtractor.seeded(cfg.raw_dim, cfg.feature_dim, cfg.seed)
    classes = range(cfg.n_classes)
    views = [np.stack([v[ys == k].mean(axis=0) for k in classes]) for v in feature_views(fe, xs)]
    sites = np.stack(views, axis=1)  # (K, A, feature_dim)
    got_fe, got = _prepare_source.__wrapped__(cfg, site_fraction)
    assert bitwise_equal(got_fe.frozen_map, fe.frozen_map)
    assert got.clusters.shape == sites.shape
    assert abs(got.clusters - sites).max() <= 1e-12 * max(1.0, abs(sites).max())
    assert bitwise_equal(got.weight_sq, fit_power_weights(forward(fe, xs), ys, cfg.n_classes))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_source_matches_the_site_definition(seed):
    assert_source_matches_definition(replace(StreamConfig(seed=seed), **_STREAM_ONLY), 1.0)


@settings(max_examples=40, deadline=None)
@given(
    n_classes=st.integers(2, 12),
    feature_dim=st.integers(1, 8),
    n_train_per_class=st.integers(1, 50),
    class_mean_scale=st.floats(0, 10),
    site_fraction=st.sampled_from([1.0, 0.1, 0.01]),
    seed=st.integers(0, 2**16),
)
def test_source_matches_the_site_definition(
    n_classes, feature_dim, n_train_per_class, class_mean_scale, site_fraction, seed
):
    cfg = StreamConfig(
        n_classes=n_classes,
        feature_dim=feature_dim,
        n_train_per_class=n_train_per_class,
        class_mean_scale=class_mean_scale,
        seed=seed,
    )
    assert_source_matches_definition(replace(cfg, **_STREAM_ONLY), site_fraction)


def test_source_preparation_peak_memory():
    # Only the head fit sees the whole source's features; the views see K rows.
    cfg = replace(StreamConfig(seed=0), **_STREAM_ONLY)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _prepare_source(cfg, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 16e6, f"peak {peak / 1e6:.2f} MB"


def test_hit_is_bitwise_equal_to_an_uncached_preparation():
    first = prepare_run(SMALL, 3, 0.5)
    again = prepare_run(SMALL, 3, 0.5)
    assert _prepare_source.cache_info().hits == 1
    assert again.extractor is first.extractor and again.clusters is first.clusters
    # the uncached helper on the full config: stream-only fields play no part
    fe, clusters = _prepare_source.__wrapped__(replace(SMALL, seed=3), 0.5)
    for name in ("frozen_map", "scale", "shift"):
        assert bitwise_equal(getattr(again.extractor, name), getattr(fe, name))
    assert bitwise_equal(again.clusters.clusters, clusters.clusters)
    assert bitwise_equal(again.clusters.weight_sq, clusters.weight_sq)
    # the stream is regenerated on every call
    assert again.stream is not first.stream
    for a, b in zip(again.stream, first.stream, strict=True):
        assert bitwise_equal(a.inputs, b.inputs)
        assert bitwise_equal(a.hidden_labels, b.hidden_labels)


def test_stream_only_fields_share_one_entry():
    assert set(STREAM_ONLY_VALUES) == set(_STREAM_ONLY)
    base = prepare_run(SMALL, 0)
    for name, value in STREAM_ONLY_VALUES.items():
        prepared = prepare_run(replace(SMALL, **{name: value}), 0)
        assert prepared.clusters is base.clusters
    # the seed argument replaces the config's own seed
    assert prepare_run(replace(SMALL, seed=9), 0).clusters is base.clusters
    assert prepare_run(SMALL, 0, 1).clusters is base.clusters
    info = _prepare_source.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert len(prepare_run(replace(SMALL, batch_size=7), 0).stream[0].hidden_labels) == 7


def test_every_other_field_gets_its_own_entry():
    prepare_run(SMALL, 0)
    expected = 1
    for f in dataclasses.fields(StreamConfig):
        if f.name in _STREAM_ONLY or f.name == "seed":
            continue
        prepare_run(replace(SMALL, **{f.name: changed(getattr(SMALL, f.name))}), 0)
        expected += 1
        assert _prepare_source.cache_info().currsize == expected, f.name
    prepare_run(SMALL, 1)
    prepare_run(SMALL, 0, 0.5)
    info = _prepare_source.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, expected + 2, expected + 2)


def test_cached_sites_are_read_only():
    prepared = prepare_run(SMALL, 0)
    with pytest.raises(ValueError):
        prepared.clusters.clusters[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        prepared.clusters.weight_sq[0] = 1.0
    with pytest.raises(ValueError):
        prepared.extractor.scale[0] = 2.0


def test_cluster_site_set_copies_its_inputs():
    c = np.zeros((2, 1, 3))
    w = np.zeros(2)
    sites = ClusterSiteSet(c, w)
    c[:] = 1.0
    w[:] = 1.0
    assert not sites.clusters.any() and not sites.weight_sq.any()


def test_cache_size_is_bounded():
    tiny = replace(SMALL, n_classes=2, raw_dim=2, feature_dim=2, n_train_per_class=5)
    for seed in range(_SOURCE_CACHE_SIZE + 3):
        prepare_run(tiny, seed)
        assert _prepare_source.cache_info().currsize <= _SOURCE_CACHE_SIZE
    info = _prepare_source.cache_info()
    assert (info.maxsize, info.currsize) == (_SOURCE_CACHE_SIZE, _SOURCE_CACHE_SIZE)
    prepare_run(tiny, 0)  # the oldest entry was evicted
    assert _prepare_source.cache_info().misses == _SOURCE_CACHE_SIZE + 4
