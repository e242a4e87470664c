"""Source preparation: sites and weights against their definition, peak
memory, and reuse in prepare_run (one cached source per distinct source
config)."""

import dataclasses
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voronoi_tta.adaptation import AdaptConfig, FeatureExtractor, forward
from voronoi_tta.experiments import (
    _SOURCE_CACHE_SIZE,
    _STREAM_ONLY,
    ExperimentSpec,
    _prepare_source,
    prepare_run,
    run_grid,
    run_single,
    sweep_rows,
)
from voronoi_tta.geometry import ClusterSiteSet, InfluenceConfig
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


def test_source_preparation_drops_the_raw_source_before_the_fit():
    # The head fit's features and its (K, n) temporaries make the peak; the raw
    # source, half the features' bytes at the default config, is gone by then.
    cfg = replace(StreamConfig(seed=0), **_STREAM_ONLY)
    _prepare_source.__wrapped__(cfg, 1.0)  # keeps first-call allocations out of the peak
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _prepare_source.__wrapped__(cfg, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    features = cfg.n_classes * cfg.n_train_per_class * cfg.feature_dim * 8
    assert peak <= 2.0 * features, f"peak {peak / features:.2f} x the features' bytes"


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


def test_alpha_sweep_runs_each_label_shift():
    tiny = StreamConfig(n_classes=3, raw_dim=4, feature_dim=4, n_train_per_class=20,
                        batch_size=8, n_batches=2)
    spec = ExperimentSpec(stream=tiny, modes=("vd", "cipd"), seeds=(0,))
    rows = sweep_rows(spec, "alpha", (1.0, 0.1))
    assert [(r["axis"], r["value"], r["mode"]) for r in rows] == [
        ("alpha", v, m) for v in (1.0, 0.1) for m in ("vd", "cipd")
    ]
    for row in rows:
        point = replace(spec, stream=replace(tiny, label_shift_alpha=row["value"]))
        assert row["mean_error"] == run_grid(point)[(row["mode"], 0)].final_cum_error()


@pytest.mark.parametrize(
    "adapt, message",
    [
        (AdaptConfig(mode="cipd"), "adapt.mode is set per run, got 'cipd'; set the spec's modes"),
        (AdaptConfig(filtering=True),
         "adapt.filtering is set per run, got True; set the spec's filtering"),
    ],
    ids=["mode", "filtering"],
)
def test_spec_rejects_adapt_fields_that_each_run_sets(adapt, message):
    with pytest.raises(ValueError) as info:
        ExperimentSpec(adapt=adapt, modes=("vd",))
    assert str(info.value) == message


def test_spec_rejects_a_stream_seed():
    # run_grid replaces the stream's seed with each of the spec's seeds
    with pytest.raises(ValueError) as info:
        ExperimentSpec(stream=StreamConfig(seed=7))
    assert str(info.value) == "stream.seed is set per run, got 7; set the spec's seeds"


# Every float config field, with the config that holds it.
REAL_FIELDS = {
    "site_fraction": ExperimentSpec,
    "tau": AdaptConfig,
    "learning_rate": AdaptConfig,
    "gamma": InfluenceConfig,
    "distance_floor": InfluenceConfig,
    "class_mean_scale": StreamConfig,
    "class_cov_scale": StreamConfig,
    "label_shift_alpha": StreamConfig,
}


@pytest.mark.parametrize("name, config", REAL_FIELDS.items(), ids=REAL_FIELDS.keys())
def test_float_fields_reject_bools(name, config):
    # bool is an int subclass, so True would otherwise run as 1
    with pytest.raises(ValueError) as info:
        config(**{name: True})
    assert str(info.value) == f"{name} must be a real number, got True"
    config(**{name: 1})  # integers and numpy floats still pass
    config(**{name: np.float64(0.5)})


# The sign each signed float field takes; any other value, and any non-finite
# one, fails with "<name> must be finite and <sign>, got <value!r>".
SIGNED_FIELDS = {
    "tau": (AdaptConfig, "positive"),
    "learning_rate": (AdaptConfig, "nonnegative"),
    "gamma": (InfluenceConfig, "nonzero"),
    "distance_floor": (InfluenceConfig, "positive"),
    "label_shift_alpha": (StreamConfig, "positive"),
    "class_mean_scale": (StreamConfig, "nonnegative"),
    "class_cov_scale": (StreamConfig, "nonnegative"),
}
TINIEST = np.finfo(float).smallest_subnormal
BIG = 2**40


def reals(floats, ints):
    """Python floats and ints from the two strategies, also as numpy scalars."""
    return floats | ints | floats.map(np.float64) | ints.map(np.int64)


WRONG_SIGN = {
    "positive": reals(st.floats(max_value=0.0, allow_nan=False), st.integers(-BIG, 0)),
    "nonnegative": reals(st.floats(max_value=-TINIEST, allow_nan=False), st.integers(-BIG, -1)),
    "nonzero": reals(st.sampled_from([0.0, -0.0]), st.just(0)),
}
RIGHT_SIGN = {
    "positive": reals(st.floats(min_value=TINIEST, max_value=1e300), st.integers(1, BIG)),
    "nonnegative": reals(st.floats(min_value=0.0, max_value=1e300), st.integers(0, BIG)),
    "nonzero": reals(st.floats(-1e300, 1e300).filter(bool), st.integers(-BIG, BIG).filter(bool)),
}


@pytest.mark.parametrize("name", SIGNED_FIELDS)
@given(data=st.data())
def test_signed_float_fields_reject_bools_non_finite_and_wrong_signs(name, data):
    config, sign = SIGNED_FIELDS[name]
    value = data.draw(st.sampled_from([True, False, math.nan, math.inf, -math.inf,
                                       np.float64(math.nan)]) | WRONG_SIGN[sign])
    if isinstance(value, bool):
        message = f"{name} must be a real number, got {value!r}"
    else:
        message = f"{name} must be finite and {sign}, got {value!r}"
    with pytest.raises(ValueError) as info:
        config(**{name: value})
    assert str(info.value) == message


@pytest.mark.parametrize("name", SIGNED_FIELDS)
@given(data=st.data())
def test_signed_float_fields_take_finite_values_of_their_sign(name, data):
    config, sign = SIGNED_FIELDS[name]
    value = data.draw(RIGHT_SIGN[sign])
    assert getattr(config(**{name: value}), name) is value


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seeds", (True,), "seeds must be non-negative integers, got True"),
        ("render_grid", 9.5, "render_grid must be an integer >= 8, got 9.5"),
        ("render_grid", True, "render_grid must be an integer >= 8, got True"),
        ("render_grid", 7, "render_grid must be an integer >= 8, got 7"),
    ],
)
def test_spec_rejects_non_integer_seeds_and_render_grid(field, value, message):
    with pytest.raises(ValueError) as info:
        ExperimentSpec(**{field: value})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "config, value, message",
    [
        (ExperimentSpec, "false", "filtering must be None, True or False, got 'false'"),
        (ExperimentSpec, 0, "filtering must be None, True or False, got 0"),
        (AdaptConfig, "no", "filtering must be True or False, got 'no'"),
        (AdaptConfig, 1, "filtering must be True or False, got 1"),
        (AdaptConfig, None, "filtering must be True or False, got None"),
    ],
)
def test_filtering_takes_only_a_bool(config, value, message):
    # a truthy string would otherwise run every mode filtered
    with pytest.raises(ValueError) as info:
        config(filtering=value)
    assert str(info.value) == message


def test_run_single_passes_its_filtering_to_the_config_check():
    with pytest.raises(ValueError) as info:
        run_single(prepare_run(SMALL, 0), AdaptConfig(), "vd", "false")
    assert str(info.value) == "filtering must be True or False, got 'false'"
