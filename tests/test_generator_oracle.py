"""The stream and source generators equal their per-batch, per-class forms.

``gen_stream`` draws every batch into one preallocated block and builds and
corrupts it in place, a chunk of whole batches at a time; ``gen_source``
draws each class into one preallocated array. The per-batch and per-class
bodies they had before are kept here as references, and every input and
label is compared byte for byte, also for streams that end on or off a chunk
edge. The memory guards pin what the in-place forms save: neither
generator's tracemalloc peak may exceed its output by more than a tenth.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voronoi_tta import streams
from voronoi_tta.streams import CORRUPTIONS, StreamConfig, class_means, gen_source, gen_stream


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- references: the per-batch and per-class bodies ---

def rotate_pairs_ref(x, angle_deg):
    t = np.deg2rad(angle_deg)
    ct, st_ = streams._QUARTER_TURNS.get(angle_deg % 360.0, (np.cos(t), np.sin(t)))
    pairs = x.reshape(x.shape[:-1] + (-1, 2))
    a, b = pairs[..., 0], pairs[..., 1]
    return np.stack([ct * a - st_ * b, st_ * a + ct * b], axis=-1).reshape(x.shape)


def corruption_params_ref(cfg):
    """Each corruption's severity-scaled parameter, the shift direction uncached."""
    s = cfg.severity
    direction = np.random.default_rng([cfg.seed, streams._TAG_CORRUPTION]).normal(size=cfg.raw_dim)
    direction /= np.linalg.norm(direction)
    return {
        "noise_std": 0.5 * s * cfg.class_cov_scale,
        "scale_factor": 1.0 + 0.15 * s,
        "rotation_deg": 20.0 * s,
        "shift_offset": direction * (0.5 * s * cfg.class_mean_scale * np.sqrt(cfg.raw_dim)),
    }


def corrupt_ref(x, cfg, params, rng):
    if cfg.corruption == "none":
        return x
    if cfg.corruption == "gaussian_noise":
        return x + rng.normal(0.0, params["noise_std"], size=x.shape)
    if cfg.corruption == "scale_drift":
        return x * params["scale_factor"]
    if cfg.corruption == "rotation_drift":
        return rotate_pairs_ref(x, params["rotation_deg"])
    return x + params["shift_offset"]


def gen_stream_ref(cfg):
    means = class_means(cfg)
    params = corruption_params_ref(cfg)
    rng = np.random.default_rng([cfg.seed, streams._TAG_STREAM])
    batches = []
    for _ in range(cfg.n_batches):
        if cfg.label_shift_alpha is not None:
            p = rng.dirichlet(np.full(cfg.n_classes, cfg.label_shift_alpha))
        else:
            p = np.full(cfg.n_classes, 1.0 / cfg.n_classes)
        counts = rng.multinomial(cfg.batch_size, p)
        labels = np.repeat(np.arange(cfg.n_classes), counts)
        clean = means[labels] + rng.normal(
            0.0, cfg.class_cov_scale, size=(cfg.batch_size, cfg.raw_dim)
        )
        order = rng.permutation(cfg.batch_size)
        batches.append((corrupt_ref(clean[order], cfg, params, rng), labels[order]))
    return batches


def gen_source_ref(cfg):
    means = class_means(cfg)
    rng = np.random.default_rng([cfg.seed, streams._TAG_SOURCE])
    n = cfg.n_train_per_class
    xs = [means[k] + rng.normal(0.0, cfg.class_cov_scale, size=(n, cfg.raw_dim))
          for k in range(cfg.n_classes)]
    return np.concatenate(xs, axis=0), np.repeat(np.arange(cfg.n_classes), n)


# --- configs ---

@st.composite
def stream_configs(draw):
    """Every corruption and severity, no / strong / weak label shift, and
    zero spreads, where a signed zero would show a changed order of terms."""
    return StreamConfig(
        n_classes=draw(st.integers(2, 12)),
        raw_dim=2 * draw(st.integers(1, 8)),
        n_train_per_class=draw(st.integers(1, 40)),
        class_mean_scale=draw(st.sampled_from([0.0, 0.15, 1.0])),
        class_cov_scale=draw(st.sampled_from([0.0, 0.06, 0.5])),
        corruption=draw(st.sampled_from(CORRUPTIONS)),
        severity=draw(st.integers(1, 5)),
        batch_size=draw(st.one_of(st.integers(1, 70), st.integers(500, 600))),
        n_batches=draw(st.integers(1, 9)),
        label_shift_alpha=draw(st.sampled_from([None, 1e-3, 1e3])),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=stream_configs())
def test_gen_stream_matches_the_per_batch_reference(cfg):
    got = gen_stream(cfg)
    want = gen_stream_ref(cfg)
    assert len(got) == len(want) == cfg.n_batches
    for batch, (inputs, labels) in zip(got, want):
        assert same_bits(batch.inputs, inputs) and same_bits(batch.hidden_labels, labels)
        assert batch.inputs.dtype == np.float64 and batch.inputs.flags.c_contiguous
        assert batch.inputs.shape == (cfg.batch_size, cfg.raw_dim)


@pytest.mark.parametrize("batch_size", [1, 7, 64, 100, 511, 512, 513, 600])
@settings(max_examples=8, deadline=None)
@given(cfg=stream_configs())
def test_gen_stream_matches_the_reference_across_chunk_edges(batch_size, cfg):
    """Streams that end one batch short of, on, or one batch past a chunk
    edge, with batches that fill a chunk exactly, overhang it, or fill it alone."""
    step = max(1, streams._STREAM_CHUNK_ROWS // batch_size)
    for n_batches in sorted({step - 1, step, step + 1, 2 * step + 1} - {0}):
        edge = replace(cfg, batch_size=batch_size, n_batches=n_batches)
        for batch, (inputs, labels) in zip(gen_stream(edge), gen_stream_ref(edge), strict=True):
            assert same_bits(batch.inputs, inputs) and same_bits(batch.hidden_labels, labels)


@settings(max_examples=50, deadline=None)
@given(cfg=stream_configs(), data=st.data())
def test_batches_do_not_share_rows(cfg, data):
    stream = gen_stream(cfg)
    before = [(b.inputs.copy(), b.hidden_labels.copy()) for b in stream]
    t = data.draw(st.integers(0, cfg.n_batches - 1))
    stream[t].inputs[...] = np.nan
    stream[t].hidden_labels[...] = -1
    for s, (batch, (inputs, labels)) in enumerate(zip(stream, before)):
        if s != t:
            assert same_bits(batch.inputs, inputs) and same_bits(batch.hidden_labels, labels)


@settings(max_examples=100, deadline=None)
@given(cfg=stream_configs())
def test_gen_source_matches_the_per_class_reference(cfg):
    x, y = gen_source(cfg)
    x_ref, y_ref = gen_source_ref(cfg)
    assert same_bits(x, x_ref) and same_bits(y, y_ref)
    assert x.flags.c_contiguous


def test_default_generators_match_their_references():
    cfg = StreamConfig(n_batches=400)
    for batch, (inputs, labels) in zip(gen_stream(cfg), gen_stream_ref(cfg), strict=True):
        assert same_bits(batch.inputs, inputs) and same_bits(batch.hidden_labels, labels)
    for got, want in zip(gen_source(cfg), gen_source_ref(cfg), strict=True):
        assert same_bits(got, want)


# --- memory ---

def traced_peak(fn, cfg):
    """fn(cfg) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn(cfg)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_stream_peak_is_its_output():
    # the 400-batch stream of the online_long benchmark workload
    stream, peak = traced_peak(gen_stream, StreamConfig(n_batches=400))
    out = sum(b.inputs.nbytes + b.hidden_labels.nbytes for b in stream)
    assert peak <= 1.1 * out, (peak, out)


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_gen_stream_peak_is_its_output_under_every_corruption(corruption):
    # gaussian_noise draws a second noise per batch; it too is held one chunk at a time
    stream, peak = traced_peak(gen_stream, StreamConfig(n_batches=400, corruption=corruption))
    out = sum(b.inputs.nbytes + b.hidden_labels.nbytes for b in stream)
    assert peak <= 1.1 * out, (peak, out)


def test_gen_source_peak_is_its_output():
    (x, y), peak = traced_peak(gen_source, StreamConfig())
    assert peak <= 1.1 * (x.nbytes + y.nbytes), (peak, x.nbytes + y.nbytes)
