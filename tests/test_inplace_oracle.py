"""The per-batch kernels are bitwise equal to their out-of-place forms.

``forward``, ``soft_label_from_scores``, ``_entropy_and_score_grad`` and
``batch_loss_and_grad`` compute in place to save temporaries. The
out-of-place expressions they had before are kept here as references, and
every output is compared byte for byte, signed zeros included. Unlike the
fingerprint in ``tests/test_golden.py``, this needs no particular numpy,
BLAS or CPU: both sides run on the same machine.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from voronoi_tta import geometry
from voronoi_tta.adaptation import (
    MODES,
    AdaptConfig,
    FeatureExtractor,
    _entropy_and_score_grad,
    batch_loss_and_grad,
    forward,
    soft_label_from_scores,
)
from voronoi_tta.geometry import ClusterSiteSet, InfluenceConfig, aggregate_influence

GAMMAS = st.one_of(
    st.sampled_from([-2.5, -1.0, -0.8, 0.5, 1.0, 1.5, 2.0, 3.0]),
    st.floats(-4.0, -0.05),
    st.floats(0.05, 4.0),
)
FLOOR = InfluenceConfig().distance_floor


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- references: the out-of-place expressions ---

def forward_ref(fe, x):
    return np.asarray(x, dtype=float) @ fe.frozen_map.T * fe.scale + fe.shift


def soft_label_ref(scores, tau):
    q = np.asarray(scores, dtype=float) / tau
    q = q - q.max(axis=-1, keepdims=True)
    e = np.exp(q)
    return e / e.sum(axis=-1, keepdims=True)


def entropy_and_score_grad_ref(scores, tau):
    q = scores / tau
    q = q - q.max(axis=-1, keepdims=True)
    logp = q - np.log(np.exp(q).sum(axis=-1, keepdims=True))
    p = np.exp(logp)
    h = -(p * logp).sum(axis=-1)
    g = -p * (logp + h[:, None]) / tau
    return h, g


def aggregate_influence_ref(terms, cfg):
    powered = np.maximum(terms, cfg.distance_floor) ** cfg.gamma
    total = powered[..., 0]
    for a in range(1, powered.shape[-1]):
        total = total + powered[..., a]
    return -math.copysign(1.0, cfg.gamma) * total


def batch_loss_and_grad_ref(fe, inputs, c, cfg, keep):
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    ell = fe.feature_dim
    if not keep.any():
        return 0.0, np.zeros(ell), np.zeros(ell)
    mu = c.clusters[:, :1] if cfg.mode == "vd" else c.clusters
    weight_sq = c.weight_sq if cfg.mode == "cipd" else None
    influence = replace(cfg.influence, gamma=1.0) if cfg.mode == "vd" else cfg.influence
    floor, gamma = influence.distance_floor, influence.gamma
    x = inputs[keep]
    u = x @ fe.frozen_map.T
    z = u * fe.scale + fe.shift
    terms = geometry.site_terms(geometry.squared_distances(z, mu), weight_sq)
    h, g = entropy_and_score_grad_ref(aggregate_influence_ref(terms, influence), cfg.tau)
    active = terms > floor
    clamped = np.maximum(terms, floor)
    inner = 2.0 if weight_sq is not None else 1.0 / clamped
    w = np.where(active, -abs(gamma) * clamped ** (gamma - 1.0) * inner, 0.0)
    w = (w * g[:, :, None]).reshape(len(z), -1)
    grad_z = z * w.sum(axis=1)[:, None] - w @ mu.reshape(-1, ell)
    n_kept = x.shape[0]
    grad_shift = grad_z.sum(axis=0) / n_kept
    grad_scale = (grad_z * u).sum(axis=0) / n_kept
    return float(h.mean()), grad_scale, grad_shift


# --- inputs ---

@st.composite
def problems(draw):
    """A seeded random extractor, batch, keep mask and cluster site set; the
    weights reach past the squared distances, so some power terms are clamped."""
    n = draw(st.integers(1, 64))
    n_cells = draw(st.integers(2, 12))
    n_sites = draw(st.integers(1, 7))
    ell = draw(st.integers(1, 8))
    raw = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fe = FeatureExtractor(
        rng.normal(size=(ell, raw)), rng.normal(1.0, 0.3, ell), rng.normal(0.0, 0.3, ell)
    )
    x = rng.normal(size=(n, raw))
    clusters = ClusterSiteSet(
        rng.normal(0.0, 1.5, size=(n_cells, n_sites, ell)), rng.normal(0.0, 2.0, n_cells) * ell
    )
    keep = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    return fe, x, clusters, keep, rng


@settings(max_examples=150, deadline=None)
@given(problem=problems(), tau=st.floats(0.05, 5.0))
def test_forward_and_soft_labels(problem, tau):
    fe, x, clusters, _, rng = problem
    assert same_bits(forward(fe, x), forward_ref(fe, x))
    assert same_bits(forward(fe, x[0]), forward_ref(fe, x[0]))
    scores = rng.normal(0.0, 3.0, size=(len(x), clusters.n_cells))
    assert same_bits(soft_label_from_scores(scores, tau), soft_label_ref(scores, tau))
    assert same_bits(soft_label_from_scores(scores[0], tau), soft_label_ref(scores[0], tau))
    for got, want in zip(_entropy_and_score_grad(scores, tau),
                         entropy_and_score_grad_ref(scores, tau), strict=True):
        assert same_bits(got, want)


@settings(max_examples=150, deadline=None)
@given(problem=problems(), gamma=GAMMAS)
def test_aggregate_influence(problem, gamma):
    fe, x, clusters, _, rng = problem
    terms = geometry.site_terms(
        geometry.squared_distances(forward(fe, x), clusters.clusters), clusters.weight_sq
    )
    # some terms at, just below and just above the floor
    pick = rng.random(terms.shape) < 0.1
    terms[pick] = rng.choice([0.0, FLOOR, np.nextafter(FLOOR, 0.0), np.nextafter(FLOOR, 1.0)],
                             size=int(pick.sum()))
    cfg = InfluenceConfig(gamma=gamma)
    assert same_bits(aggregate_influence(terms, cfg), aggregate_influence_ref(terms, cfg))
    assert same_bits(aggregate_influence(terms[0], cfg), aggregate_influence_ref(terms[0], cfg))


@settings(max_examples=150, deadline=None)
@given(problem=problems(), mode=st.sampled_from(MODES), gamma=GAMMAS,
       tau=st.floats(0.05, 5.0))
def test_batch_loss_and_grad(problem, mode, gamma, tau):
    fe, x, clusters, keep, _ = problem
    cfg = AdaptConfig(mode=mode, tau=tau, influence=InfluenceConfig(gamma=gamma))
    with np.errstate(all="ignore"):  # as in run_stream
        got = batch_loss_and_grad(fe, x, clusters, cfg, keep)
        want = batch_loss_and_grad_ref(fe, x, clusters, cfg, keep)
    assert same_bits(got[0], want[0])
    assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])
