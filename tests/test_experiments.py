"""Source reuse in prepare_run: one cached source per distinct source config."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from voronoi_tta.experiments import (
    _SOURCE_CACHE_SIZE,
    _STREAM_ONLY,
    _prepare_source,
    prepare_run,
)
from voronoi_tta.geometry import ClusterSiteSet
from voronoi_tta.streams import StreamConfig

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
