"""Soft labels, entropy loss, analytic gradients, and the online loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voronoi_tta import StreamConfig, geometry, metrics, prepare_run
from voronoi_tta import filtering as filtering_module
from voronoi_tta.adaptation import (
    MODES,
    AdaptConfig,
    DivergenceError,
    FeatureExtractor,
    RunTrace,
    adapt_step,
    batch_loss_and_grad,
    forward,
    mode_scores,
    run_stream,
    soft_label_from_scores,
    trace_csv_lines,
    trace_summary,
    vd_loss,
)
from voronoi_tta.geometry import (
    ClusterSiteSet,
    InfluenceConfig,
    assign,
    cipd_influences,
    civd_influences,
    vd_distances,
)
from voronoi_tta.metrics import adaptation_curve, score_trace
from voronoi_tta.streams import Batch


def random_setup(seed, n_classes=3, raw_dim=5, feature_dim=4, n_sites=4):
    rng = np.random.default_rng(seed)
    fe = FeatureExtractor(
        rng.normal(size=(feature_dim, raw_dim)),
        rng.normal(1.0, 0.3, feature_dim),
        rng.normal(0.0, 0.3, feature_dim),
    )
    clusters = ClusterSiteSet(
        rng.normal(0, 2.0, size=(n_classes, n_sites, feature_dim)),
        rng.normal(size=n_classes) * 0.4,
    )
    return rng, fe, clusters


# --- forward ---

def test_forward_identity_affine():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 6))
    fe = FeatureExtractor(m, np.ones(4), np.zeros(4))
    x = rng.normal(size=(7, 6))
    np.testing.assert_allclose(forward(fe, x), x @ m.T)


def test_forward_affine_on_zero_input():
    fe = FeatureExtractor(np.eye(3), np.full(3, 2.0), np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(forward(fe, np.zeros(3)), [1.0, 1.0, 1.0])


def test_forward_random_matvec_oracle():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 4))
    scale = rng.normal(size=3)
    shift = rng.normal(size=3)
    fe = FeatureExtractor(m, scale, shift)
    x = rng.normal(size=4)
    want = [scale[i] * sum(m[i, j] * x[j] for j in range(4)) + shift[i] for i in range(3)]
    np.testing.assert_allclose(forward(fe, x), want, rtol=1e-12)


def test_forward_dimension_mismatch():
    fe = FeatureExtractor(np.eye(3), np.ones(3), np.zeros(3))
    with pytest.raises(ValueError):
        forward(fe, np.zeros(5))


def test_frozen_map_is_read_only():
    m = np.eye(2)
    fe = FeatureExtractor(m, np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        fe.frozen_map[0, 0] = 5.0
    m[0, 0] = 3.0  # the caller's array stays writable and is not shared
    assert fe.frozen_map[0, 0] == 1.0


@pytest.mark.parametrize("name, value", [("mode", "bogus")])
def test_adapt_config_errors_name_the_field_and_value(name, value):
    with pytest.raises(ValueError, match=f"^{name} .*, got {value!r}$"):
        AdaptConfig(**{name: value})


# --- soft labels ---

def test_softmax_symmetry_and_closed_form():
    np.testing.assert_allclose(soft_label_from_scores(np.array([-1.0, -1.0]), 1.0), [0.5, 0.5])
    got = soft_label_from_scores(np.array([0.0, -np.log(3.0)]), 1.0)
    np.testing.assert_allclose(got, [0.75, 0.25], rtol=1e-12)


def test_softmax_uniform_offset_invariance():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=8)
    base = soft_label_from_scores(scores, 1.0)
    shifted = soft_label_from_scores(scores + 1e-9, 1.0)
    np.testing.assert_allclose(shifted, base, rtol=1e-9, atol=1e-12)


def test_softmax_rejects_bad_inputs():
    with pytest.raises(ValueError):
        soft_label_from_scores(np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(ValueError):
        soft_label_from_scores(np.array([0.0, 1.0]), 0.0)


def test_softmax_rows_normalize_and_argmax_consistent():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(200, 7)) * 5
    probs = soft_label_from_scores(scores, 0.5)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(np.argmax(probs, axis=1), np.argmax(scores, axis=1))


# --- entropy ---

def test_entropy_hand_values():
    assert vd_loss(np.array([1.0, 0.0, 0.0])) == 0.0
    assert vd_loss(np.full(10, 0.1)) == pytest.approx(np.log(10.0), rel=1e-12)
    assert vd_loss(np.array([0.75, 0.25])) == pytest.approx(0.5623351446, rel=1e-9)


# --- gradients ---

def fd_gradient(fe, x, clusters, cfg, keep, h=1e-5):
    l = fe.feature_dim
    gs, gb = np.zeros(l), np.zeros(l)
    for d in range(l):
        e = np.zeros(l)
        e[d] = h
        up = FeatureExtractor(fe.frozen_map, fe.scale + e, fe.shift)
        dn = FeatureExtractor(fe.frozen_map, fe.scale - e, fe.shift)
        gs[d] = (
            batch_loss_and_grad(up, x, clusters, cfg, keep)[0]
            - batch_loss_and_grad(dn, x, clusters, cfg, keep)[0]
        ) / (2 * h)
        up = FeatureExtractor(fe.frozen_map, fe.scale, fe.shift + e)
        dn = FeatureExtractor(fe.frozen_map, fe.scale, fe.shift - e)
        gb[d] = (
            batch_loss_and_grad(up, x, clusters, cfg, keep)[0]
            - batch_loss_and_grad(dn, x, clusters, cfg, keep)[0]
        ) / (2 * h)
    return gs, gb


# VD scores do not read gamma, so only the cluster modes vary it. Each trial
# sets tau to the spread of its batch's scores, so that the softmax does not
# saturate at any gamma (at tau = 0.8 and gamma = 3 the loss fell to ~1e-16 and
# central differences measured rounding, not the gradient).
GRADIENT_CASES = [("vd", -0.8)] + [
    (mode, gamma) for mode in ("civd", "cipd") for gamma in (-2.5, -0.8, 0.5, 1.5, 3.0)
]


@pytest.mark.parametrize(
    "mode, gamma",
    [
        pytest.param(mode, gamma, id=mode if gamma == -0.8 else f"{mode}-gamma{gamma}")
        for mode, gamma in GRADIENT_CASES
    ],
)
def test_gradients_match_finite_differences(mode, gamma):
    for trial in range(8):
        rng, fe, clusters = random_setup(100 + trial)
        x = rng.normal(0, 1.5, size=(6, 5))
        keep = rng.random(6) > 0.3
        if not keep.any():
            keep[0] = True
        cfg = AdaptConfig(mode=mode, influence=InfluenceConfig(gamma=gamma))
        cfg = replace(cfg, tau=float(np.std(mode_scores(forward(fe, x), clusters, cfg))))
        loss, gs, gb = batch_loss_and_grad(fe, x, clusters, cfg, keep)
        gs_fd, gb_fd = fd_gradient(fe, x, clusters, cfg, keep)
        num = np.linalg.norm(np.concatenate([gs - gs_fd, gb - gb_fd]))
        den = max(np.linalg.norm(np.concatenate([gs, gb])), 1e-12)
        assert num / den < 1e-5


def test_vd_is_the_identity_slice_at_gamma_one():
    # the vd gradient is the civd one on single-site clusters at gamma = 1, bitwise
    cases = []
    for seed in range(200):
        rng, fe, clusters = random_setup(seed)
        x = rng.normal(0, 1.5, size=(6, 5))
        cases.append((fe, x, clusters, rng.random(6) > 0.3))
    prepared = prepare_run(StreamConfig(seed=0), seed=0)
    for batch in prepared.stream[:5]:
        keep = np.ones(len(batch.inputs), bool)
        cases.append((prepared.extractor, batch.inputs, prepared.clusters, keep))
    vd = AdaptConfig(mode="vd")
    civd = AdaptConfig(mode="civd", influence=InfluenceConfig(gamma=1.0))
    for fe, x, clusters, keep in cases:
        identity = ClusterSiteSet(clusters.clusters[:, :1])
        got = batch_loss_and_grad(fe, x, clusters, vd, keep)
        want = batch_loss_and_grad(fe, x, identity, civd, keep)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def test_all_filtered_gives_zero_loss_and_grad():
    rng, fe, clusters = random_setup(6)
    x = rng.normal(size=(4, 5))
    loss, gs, gb = batch_loss_and_grad(fe, x, clusters, AdaptConfig(mode="vd"), np.zeros(4, bool))
    assert loss == 0.0
    assert not gs.any() and not gb.any()


def test_batch_loss_rejects_a_wrong_keep_mask_or_cipd_without_weights():
    rng, fe, clusters = random_setup(7)
    x = rng.normal(size=(4, 5))
    with pytest.raises(ValueError, match="keep_mask length must match the batch size"):
        batch_loss_and_grad(fe, x, clusters, AdaptConfig(mode="vd"), np.ones(3, bool))
    unweighted = ClusterSiteSet(clusters.clusters)
    with pytest.raises(ValueError, match="cluster set has no weights"):
        batch_loss_and_grad(fe, x, unweighted, AdaptConfig(mode="cipd"), np.ones(4, bool))


def test_sample_at_site_contributes_no_vd_gradient_through_clamp():
    # one sample exactly at a site: the clamped distance term is a constant
    fe = FeatureExtractor(np.eye(2), np.ones(2), np.zeros(2))
    sites = ClusterSiteSet(np.array([[1.0, 1.0], [-1.0, -1.0]])[:, None])
    x = np.array([[1.0, 1.0]])
    loss, gs, gb = batch_loss_and_grad(
        fe, x, sites, AdaptConfig(mode="vd"), np.array([True])
    )
    # gradient exists only through the distance to the far site
    assert np.all(np.isfinite(gs)) and np.all(np.isfinite(gb))
    z = forward(fe, x[0])
    far = z - np.array([-1.0, -1.0])
    direction = gb / np.linalg.norm(gb)
    np.testing.assert_allclose(np.abs(direction), np.abs(far / np.linalg.norm(far)), rtol=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gamma=st.sampled_from([-2.5, -0.8, 0.5, 1.5, 3.0]),
    data=st.data(),
)
def test_cipd_gradient_around_the_floor(seed, gamma, data):
    # one sample sits on the single site of cluster k, and v_k^2 = -term makes
    # that site's power term exactly `term`; at or below the floor the clamped
    # term is a constant, so loss and gradients do not depend on it
    _, _, clusters = random_setup(seed, n_sites=1)
    k = data.draw(st.integers(0, clusters.n_cells - 1))
    fe = FeatureExtractor(np.eye(clusters.dim), np.ones(clusters.dim), np.zeros(clusters.dim))
    x = clusters.clusters[k]
    cfg = AdaptConfig(mode="cipd", influence=InfluenceConfig(gamma=gamma))
    floor = cfg.influence.distance_floor

    def loss_and_grad(term):
        weights = clusters.weight_sq.copy()
        weights[k] = -term
        c = clusters.with_weights(weights)
        # tau at the spread of the scores keeps the softmax off saturation
        tau = float(np.std(mode_scores(forward(fe, x), c, cfg)))
        return batch_loss_and_grad(fe, x, c, replace(cfg, tau=tau), np.array([True]))

    at = loss_and_grad(floor)
    assert np.all(np.isfinite(np.concatenate([at[1], at[2]])))
    for term in (np.nextafter(floor, 0.0), 0.5 * floor, 0.0):
        got = loss_and_grad(term)
        assert got[0] == at[0]
        assert np.array_equal(got[1], at[1]) and np.array_equal(got[2], at[2])
    for term in (np.nextafter(floor, np.inf), 2.0 * floor):
        got = loss_and_grad(term)
        assert np.all(np.isfinite(np.concatenate([[got[0]], got[1], got[2]])))


def test_single_step_descent_on_fixed_batch():
    for trial in range(5):
        rng, fe, clusters = random_setup(200 + trial)
        x = rng.normal(size=(8, 5))
        keep = np.ones(8, bool)
        for mode in ("vd", "civd", "cipd"):
            cfg = AdaptConfig(mode=mode, learning_rate=1e-4)
            loss0, gs, gb = batch_loss_and_grad(fe, x, clusters, cfg, keep)
            fe2 = adapt_step(fe, gs, gb, cfg.learning_rate)
            loss1 = batch_loss_and_grad(fe2, x, clusters, cfg, keep)[0]
            assert loss1 <= loss0 + 1e-12
            if np.linalg.norm(np.concatenate([gs, gb])) > 1e-3:
                assert loss1 < loss0  # strict descent for a nonzero gradient


# --- adapt_step ---

def test_adapt_step_moves_parameters():
    fe = FeatureExtractor(np.eye(3), np.ones(3), np.zeros(3))
    fe2 = adapt_step(fe, np.zeros(3), np.ones(3), 0.001)
    np.testing.assert_allclose(fe2.shift, -0.001 * np.ones(3))
    np.testing.assert_allclose(fe2.scale, fe.scale)
    fe3 = adapt_step(fe, np.zeros(3), np.zeros(3), 0.5)
    np.testing.assert_allclose(fe3.scale, fe.scale)
    np.testing.assert_allclose(fe3.shift, fe.shift)


def test_adapt_step_rejects_bad_gradients():
    fe = FeatureExtractor(np.eye(3), np.ones(3), np.zeros(3))
    with pytest.raises(DivergenceError) as info:
        adapt_step(fe, np.array([np.nan, 0.0, 0.0]), np.zeros(3), 0.1)
    assert str(info.value) == "non-finite gradient step"
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
        adapt_step(fe, np.zeros(3), np.full(3, 1e308), 1e300)
    assert str(info.value) == "non-finite gradient step"
    # a (2, 3) gradient broadcasts against the (3,) parameters
    for grads in ((np.zeros((2, 3)), np.zeros(3)), (np.zeros(3), np.zeros((2, 3)))):
        with pytest.raises(ValueError) as info:
            adapt_step(fe, *grads, 0.1)
        assert str(info.value) == "scale and shift must match the feature dimension"
    # the finite check comes before the shape check
    with pytest.raises(DivergenceError):
        adapt_step(fe, np.full((2, 3), np.inf), np.zeros(3), 0.1)
    with pytest.raises(ValueError) as info:
        adapt_step(fe, np.zeros(3), np.zeros(3), 0.0)
    assert str(info.value) == "learning_rate must be positive"


def test_adapt_step_shares_the_checked_map():
    # the map is already a private, checked, read-only copy, so the stepped
    # extractor holds the same array; the public constructor still copies
    rng = np.random.default_rng(3)
    fe = FeatureExtractor(rng.normal(size=(3, 5)), np.ones(3), np.zeros(3))
    stepped = adapt_step(fe, rng.normal(size=3), rng.normal(size=3), 0.1)
    assert type(stepped) is FeatureExtractor
    assert stepped.frozen_map is fe.frozen_map
    for arr in (stepped.scale, stepped.shift):
        assert arr.dtype == np.float64 and arr.shape == (3,)
        with pytest.raises(ValueError):
            arr[0] = 1.0
    rebuilt = FeatureExtractor(stepped.frozen_map, stepped.scale, stepped.shift)
    assert rebuilt.frozen_map is not fe.frozen_map
    assert np.array_equal(rebuilt.scale, stepped.scale)
    assert np.array_equal(rebuilt.shift, stepped.shift)


# --- run_stream ---

def make_stream(rng, clusters, fe, n_batches=4, batch_size=12):
    # inputs whose features land around random cluster sites
    batches = []
    raw_dim = fe.raw_dim
    for _ in range(n_batches):
        x = rng.normal(size=(batch_size, raw_dim))
        y = rng.integers(0, clusters.n_cells, size=batch_size)
        batches.append(Batch(inputs=x, hidden_labels=y))
    return batches


def test_empty_stream_gives_empty_trace():
    _, fe, clusters = random_setup(7)
    trace = run_stream(fe, [], clusters, AdaptConfig(mode="vd"))
    assert trace.records == []


def test_zero_learning_rate_matches_frozen_predictions():
    rng, fe, clusters = random_setup(8)
    stream = make_stream(rng, clusters, fe)
    frozen = run_stream(fe, stream, clusters, AdaptConfig(mode="civd", learning_rate=0.0))
    # manual frozen pass
    cfg = AdaptConfig(mode="civd", learning_rate=0.0)
    for record, batch in zip(frozen.records, stream):
        z = forward(fe, batch.inputs)
        scores = mode_scores(z, clusters, cfg)
        assert np.array_equal(record.predictions, np.argmax(scores, axis=1))


@pytest.mark.parametrize("mode", ["vd", "civd", "cipd"])
def test_predictions_match_diagram_assignments(mode):
    rng, fe, clusters = random_setup(9)
    stream = make_stream(rng, clusters, fe)
    cfg = AdaptConfig(mode=mode, learning_rate=0.05, filtering=(mode == "cipd"))
    trace = run_stream(fe, stream, clusters, cfg)
    fe_t = fe
    for record, batch in zip(trace.records, stream):
        z = forward(fe_t, batch.inputs)
        if mode == "vd":
            want = assign(-vd_distances(z, clusters))
        elif mode == "civd":
            want = assign(civd_influences(z, clusters, cfg.influence))
        else:
            want = assign(cipd_influences(z, clusters, cfg.influence))
        assert np.array_equal(record.predictions, want)
        # replay the update to track parameters
        from voronoi_tta.filtering import filter_batch

        keep = (
            filter_batch(z, clusters, cfg.influence).keep_mask
            if cfg.filtering
            else np.ones(len(batch.inputs), bool)
        )
        loss, gs, gb = batch_loss_and_grad(fe_t, batch.inputs, clusters, cfg, keep)
        fe_t = adapt_step(fe_t, gs, gb, cfg.learning_rate)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("filtering", [False, True])
def test_distance_tables_per_batch(monkeypatch, mode, filtering):
    # one (n, K, A) table for the scores and one for the gradient; the
    # filter's two sides share a third
    builds = []
    real = geometry.squared_distances

    def counted(z, clusters):
        builds.append(z.shape)
        return real(z, clusters)

    for module in (geometry, filtering_module, metrics):  # every binding in the package
        monkeypatch.setattr(module, "squared_distances", counted)
    rng, fe, clusters = random_setup(12)
    marks = []

    def stream():
        for batch in make_stream(rng, clusters, fe, n_batches=5):
            marks.append(len(builds))
            yield batch

    cfg = AdaptConfig(mode=mode, filtering=filtering)
    trace = run_stream(fe, stream(), clusters, cfg)
    marks.append(len(builds))
    # an empty keep mask would skip the gradient's table
    assert all(r.keep_mask.any() for r in trace.records)
    assert np.diff(marks).tolist() == [3 if filtering else 2] * 5


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("filtering", [False, True])
def test_no_extractor_or_influence_config_built_per_batch(monkeypatch, mode, filtering):
    # adapt_step shares the checked frozen map, and vd's gamma = 1 aggregate
    # takes its exponent as a plain float, so no batch reruns either
    # constructor's checks
    rng, fe, clusters = random_setup(12)
    cfg = AdaptConfig(mode=mode, filtering=filtering)
    run_stream(fe, make_stream(rng, clusters, fe, n_batches=1), clusters, cfg)
    builds = []
    for cls in (FeatureExtractor, InfluenceConfig):
        def counted(self, real=cls.__post_init__):
            builds.append(type(self).__name__)
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    marks = []

    def stream():
        for batch in make_stream(rng, clusters, fe, n_batches=5):
            marks.append(len(builds))
            yield batch

    trace = run_stream(fe, stream(), clusters, cfg)
    marks.append(len(builds))
    assert len(trace.records) == 5
    assert np.diff(marks).tolist() == [0] * 5, builds


def test_online_causality():
    rng, fe, clusters = random_setup(10)
    stream = make_stream(rng, clusters, fe, n_batches=6)
    full = run_stream(fe, stream, clusters, AdaptConfig(mode="cipd", learning_rate=0.1, filtering=True))
    # change the tail of the stream; prefix predictions must be identical
    rng2 = np.random.default_rng(999)
    altered = stream[:3] + make_stream(rng2, clusters, fe, n_batches=3)
    part = run_stream(fe, altered, clusters, AdaptConfig(mode="cipd", learning_rate=0.1, filtering=True))
    for t in range(3):
        assert np.array_equal(full.records[t].predictions, part.records[t].predictions)


def test_hidden_labels_do_not_influence_the_run():
    rng, fe, clusters = random_setup(11)
    stream = make_stream(rng, clusters, fe)
    relabeled = [
        Batch(inputs=b.inputs, hidden_labels=np.zeros_like(b.hidden_labels)) for b in stream
    ]
    cfg = AdaptConfig(mode="cipd", learning_rate=0.1, filtering=True)
    a = run_stream(fe, stream, clusters, cfg)
    b = run_stream(fe, relabeled, clusters, cfg)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.predictions, rb.predictions)
        assert np.array_equal(ra.keep_mask, rb.keep_mask)
        assert ra.mean_loss == rb.mean_loss


def test_non_finite_scores_give_a_non_finite_loss():
    rng, fe, clusters = random_setup(13)
    huge = FeatureExtractor(fe.frozen_map, fe.scale * 1e300, fe.shift)
    x = rng.normal(size=(4, 5))
    with np.errstate(all="ignore"):
        loss, _, _ = batch_loss_and_grad(huge, x, clusters, AdaptConfig(mode="vd"), np.ones(4, bool))
    assert np.isnan(loss)


# (frozen map factor, scale factor, learning rate, message). A map 1e10 times
# larger under a scale 1e10 times smaller gives the same features but a scale
# gradient 1e10 times larger, whose step at 1e300 overflows.
DIVERGENCES = {
    "features": (1e10, 1e300, 0.1, "non-finite features in vd mode, batch 0"),
    "step": (1e10, 1e-10, 1e300, "non-finite gradient step in vd mode, batch 0"),
    "one-step": (1.0, 1.0, 1e300, "non-finite scores in vd mode, batch 1"),
}


@pytest.mark.parametrize("map_factor, scale_factor, lr, message", DIVERGENCES.values(),
                         ids=DIVERGENCES.keys())
def test_divergence_names_mode_batch_and_step(map_factor, scale_factor, lr, message):
    rng, fe, clusters = random_setup(13)
    stream = make_stream(rng, clusters, fe)
    fe = FeatureExtractor(fe.frozen_map * map_factor, fe.scale * scale_factor, fe.shift)
    with pytest.raises(DivergenceError, match=f"^{message}$"):
        run_stream(fe, stream, clusters, AdaptConfig(mode="vd", learning_rate=lr))


def test_batch_loss_bounds():
    rng, fe, clusters = random_setup(12)
    stream = make_stream(rng, clusters, fe, n_batches=8)
    trace = run_stream(fe, stream, clusters, AdaptConfig(mode="civd", learning_rate=0.1))
    k = clusters.n_cells
    for record in trace.records:
        assert 0.0 <= record.mean_loss <= np.log(k) + 1e-12


def test_trace_csv_round_trip():
    rng, fe, clusters = random_setup(13)
    stream = make_stream(rng, clusters, fe, n_batches=3)
    trace = run_stream(fe, stream, clusters, AdaptConfig(mode="vd"))
    with pytest.raises(ValueError):
        trace_csv_lines(trace)  # unscored
    score_trace(trace, stream)
    lines = trace_csv_lines(trace)
    assert lines[0] == "batch_index,mode,batch_error,cum_error,mean_loss,kept_fraction"
    assert len(lines) == 4


TRACE_READERS = {
    "final_cum_error": RunTrace.final_cum_error,
    "trace_csv_lines": trace_csv_lines,
    "trace_summary": trace_summary,
    "adaptation_curve": adaptation_curve,
}


@pytest.mark.parametrize("reader", TRACE_READERS.values(), ids=TRACE_READERS.keys())
def test_trace_readers_share_one_scored_check(reader):
    with pytest.raises(ValueError, match="^empty trace$"):
        reader(RunTrace(mode="vd"))
    rng, fe, clusters = random_setup(13)
    stream = make_stream(rng, clusters, fe, n_batches=2)
    trace = run_stream(fe, stream, clusters, AdaptConfig(mode="vd"))
    with pytest.raises(ValueError, match="^trace has not been scored against labels$"):
        reader(trace)
    reader(score_trace(trace, stream))
