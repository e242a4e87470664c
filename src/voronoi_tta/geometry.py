"""Voronoi, power, and cluster-induced diagram queries in feature space.

One assignment rule serves all four diagrams, ``assign(scores)``: the cell of
the largest score, ties going to the lowest index. Their (n, K) score tables:

* Voronoi diagram (VD): ``-vd_distances``, minus the Euclidean distance.
* Power diagram (PD): ``-pd_power``, minus ``d(z, mu_k)^2 - v_k^2``.
* Cluster-induced VD (CIVD): ``civd_influences``, the influence
  ``F(z, C_k) = -sign(gamma) * sum_a d(mu_k^(a), z)^gamma``.
* Cluster-induced PD (CIPD): ``cipd_influences``, the same aggregation over
  power terms ``d(mu_k^(a), z)^2 - v_k^2``.

All four read one site type, ``ClusterSiteSet``: VD and PD are its
``A = 1`` identity slice (site 0 of each cell, with the weights for PD).
All four, the adaptation gradient and the distance report are computed from
one squared-distance kernel (``squared_distances``), one term rule
(``site_terms``) and one clamped aggregate (``aggregate_influence``).

All queries accept a single point of shape ``(dim,)`` or a batch of shape
``(n, dim)`` and are pure functions of their inputs. ``perfbench/tracing.py``
times the score kernels by name, so they stay separate functions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# Geometric comparisons in compute_cells_2d use this absolute slack.
_CLIP_EPS = 1e-12


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


_SIGNS = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0, "nonzero": lambda v: v != 0}


def _check_real(name: str, value, sign: str | None = None):
    """A float config field takes any real number but a bool, which would run
    as 0 or 1; given a sign ("positive", "nonnegative" or "nonzero"), only a
    finite value of that sign."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if sign is not None and not (math.isfinite(value) and _SIGNS[sign](value)):
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")


def _check_points(z, dim: int) -> Array:
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("points must be finite")
    return z


@dataclass(frozen=True)
class ClusterSiteSet:
    """K clusters of A sites each, with optional per-cluster squared weights.

    This is the only site type. Cluster k holds the augmentation-expanded
    prototypes mu_k^(a); index a=0 is the identity augmentation, and VD and PD
    read that identity slice ``clusters[:, :1]``, so plain one-site-per-class
    sites are ``ClusterSiteSet(sites[:, None])``. The stored weight is the
    squared value v_k^2: sources such as logistic heads yield negative ones,
    and the power term d^2 - v^2 stays well defined either way.
    """

    clusters: Array  # (K, A, dim)
    weight_sq: Array | None = None  # (K,)

    def __post_init__(self):
        # Private read-only copies: prepared site sets are shared between runs.
        c = np.array(self.clusters, dtype=float)
        if c.ndim != 3 or c.shape[0] < 1 or c.shape[1] < 1:
            raise ValueError("clusters must be a non-empty (K, A, dim) array")
        if not np.all(np.isfinite(c)):
            raise ValueError("cluster sites must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "clusters", c)
        if self.weight_sq is not None:
            w = np.array(self.weight_sq, dtype=float)
            if w.shape != (c.shape[0],):
                raise ValueError("need one squared weight per cluster")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
            w.setflags(write=False)
            object.__setattr__(self, "weight_sq", w)

    @property
    def n_cells(self) -> int:
        return self.clusters.shape[0]

    @property
    def n_sites_per_cluster(self) -> int:
        return self.clusters.shape[1]

    @property
    def dim(self) -> int:
        return self.clusters.shape[2]

    def with_weights(self, weight_sq) -> "ClusterSiteSet":
        return ClusterSiteSet(self.clusters, np.asarray(weight_sq, dtype=float))


@dataclass(frozen=True)
class LogisticHead:
    """Multinomial logistic classifier: logits = weights @ z + bias."""

    weights: Array  # (K, dim)
    bias: Array  # (K,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("weights must be (K, dim) with one bias per row")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class InfluenceConfig:
    """Influence exponent gamma plus the positive floor applied to each
    distance (or power) term before it is raised to gamma.

    The clamp is hard: a term at or below the floor scores as ``floor^gamma``
    whatever its value, and its sub-gradient there is zero."""

    gamma: float = -0.8
    distance_floor: float = 1e-8

    def __post_init__(self):
        _check_real("gamma", self.gamma, "nonzero")
        _check_real("distance_floor", self.distance_floor, "positive")


# ---------------------------------------------------------------------------
# Score kernels: the three helpers below, with VD and PD as the A = 1 slice.
# Each public kernel is one expression over the checked table ``_checked_terms``.
# ---------------------------------------------------------------------------


def squared_distances(z: Array, clusters: Array) -> Array:
    """(n, K, A) squared Euclidean distances from each row of ``z`` (n, dim)
    to every site of ``clusters`` (K, A, dim), both float64.

    Each row is repeated K * A times so that the sites are subtracted in one
    inner loop of K * A * dim per row, where the broadcast subtract
    ``z[:, None, None, :] - clusters`` runs a loop only dim long per site.
    The differences, their layout and the reduction are the broadcast
    form's, so the table is bitwise equal to it."""
    diff = np.repeat(z, clusters.shape[0] * clusters.shape[1], axis=0)
    diff = diff.reshape(len(z), *clusters.shape)
    diff -= clusters
    return np.einsum("nkad,nkad->nka", diff, diff)


def site_terms(dsq: Array, weight_sq=None) -> Array:
    """Per-site term of a squared-distance table: the distance ``sqrt(dsq)``,
    or the power term ``dsq - v_k^2`` when per-cluster squared weights (K,)
    are given."""
    if weight_sq is None:
        return np.sqrt(dsq)
    return dsq - weight_sq[:, None]


def aggregate_influence(terms: Array, cfg: InfluenceConfig) -> Array:
    """Aggregate per-site terms over the last axis:
    ``-sign(gamma) * sum_a max(term, distance_floor)^gamma``.

    The site axis is summed left to right, ``((t_0 + t_1) + t_2) + ...``.
    That is numpy's own order for a last axis shorter than 8, so for A <= 7
    the result equals ``np.sum(..., axis=-1)`` bitwise; for longer axes it
    can differ from numpy's pairwise sum in the last bits. On short axes the
    explicit adds are faster than the reduction."""
    return _aggregate(terms, cfg.gamma, cfg.distance_floor)


def _aggregate(terms: Array, gamma: float, floor: float) -> Array:
    """``aggregate_influence`` at a given gamma and floor, which VD's gradient
    reads as gamma 1 at the run's floor."""
    powered = np.maximum(terms, floor) ** gamma
    total = powered[..., 0]
    for a in range(1, powered.shape[-1]):
        total = total + powered[..., a]
    return -math.copysign(1.0, gamma) * total


def _weights(c: ClusterSiteSet) -> Array:
    if c.weight_sq is None:
        raise ValueError("cluster set has no weights")
    return c.weight_sq


def _checked_terms(z, sites: Array, weight_sq=None) -> Array:
    """``site_terms`` of checked points: (K, A) for one point, (n, K, A) for n."""
    z = _check_points(z, sites.shape[-1])
    terms = site_terms(squared_distances(np.atleast_2d(z), sites), weight_sq)
    return terms[0] if z.ndim == 1 else terms


def vd_distances(z, c: ClusterSiteSet) -> Array:
    """Euclidean distance from z to the identity site of every cell."""
    return _checked_terms(z, c.clusters[:, :1])[..., 0]


def pd_power(z, c: ClusterSiteSet) -> Array:
    """Power distance d(z, mu_k)^2 - v_k^2 to the identity site of every cell."""
    return _checked_terms(z, c.clusters[:, :1], _weights(c))[..., 0]


def civd_influences(z, c: ClusterSiteSet, cfg: InfluenceConfig) -> Array:
    """Distance-based influence of every cluster; (K,) or (n, K)."""
    return aggregate_influence(_checked_terms(z, c.clusters), cfg)


def cipd_influences(z, c: ClusterSiteSet, cfg: InfluenceConfig) -> Array:
    """Power-based influence of every cluster; (K,) or (n, K)."""
    return aggregate_influence(_checked_terms(z, c.clusters, _weights(c)), cfg)


def assign(scores) -> int | Array:
    """The cell of each score row: the lowest index attaining its largest
    score. A single row (K,) gives an ``int``, a batch (n, K) an (n,) array."""
    scores = np.asarray(scores)
    idx = scores.argmax(axis=-1)
    return int(idx) if scores.ndim == 1 else idx


def logistic_to_power(h: LogisticHead) -> ClusterSiteSet:
    """Convert a logistic head to the power diagram it induces.

    Sites (one per cell) are half the weight rows and the squared weights are
    ``bias_k + ||W_k||^2 / 4``; ``assign(-pd_power(z, .))`` then reproduces
    the head's argmax everywhere.
    """
    weight_sq = h.bias + np.sum(h.weights**2, axis=1) / 4.0
    return ClusterSiteSet((h.weights / 2.0)[:, None], weight_sq)


# ---------------------------------------------------------------------------
# Exact 2-D cell polygons by sequential half-plane clipping.
# ---------------------------------------------------------------------------


def _clip_halfplane(poly: Array, a: Array, rhs: float) -> Array:
    """Clip a convex CCW polygon to the half-plane a . p <= rhs."""
    if len(poly) == 0:
        return poly
    vals = poly @ a - rhs
    inside = vals <= _CLIP_EPS
    if np.all(inside):
        return poly
    out = []
    n = len(poly)
    for i in range(n):
        j = (i + 1) % n
        pi, pj = poly[i], poly[j]
        vi, vj = vals[i], vals[j]
        if inside[i]:
            out.append(pi)
        if inside[i] != inside[j]:
            # Edge crosses the boundary; vi != vj because exactly one side
            # is strictly outside the eps band.
            t = vi / (vi - vj)
            out.append(pi + t * (pj - pi))
    if not out:
        return np.empty((0, 2))
    return _dedupe_vertices(np.asarray(out))


def _dedupe_vertices(poly: Array) -> Array:
    if len(poly) < 2:
        return poly
    keep = [0]
    for i in range(1, len(poly)):
        if np.max(np.abs(poly[i] - poly[keep[-1]])) > 1e-9:
            keep.append(i)
    if len(keep) > 1 and np.max(np.abs(poly[keep[-1]] - poly[keep[0]])) <= 1e-9:
        keep.pop()
    return poly[keep]


def compute_cells_2d(c: ClusterSiteSet, bbox) -> list[Array]:
    """Power-diagram cells of the identity sites clipped to an axis-aligned box.

    ``bbox`` is (xmin, xmax, ymin, ymax). Entry k of the list is cell k, the
    half-planes ``2 (mu_j - mu_k) . z <= |mu_j|^2 - v_j^2 - |mu_k|^2 + v_k^2``
    over all j != k clipped to the box, as a convex counterclockwise (V, 2)
    array, (0, 2) when empty; the K polygons tile the box up to shared edges.
    Zero weights give the Voronoi cells. Only weighted dimension-2 site sets
    are supported.
    """
    if c.dim != 2:
        raise ValueError("compute_cells_2d requires 2-D sites")
    w = _weights(c)
    xmin, xmax, ymin, ymax = (float(v) for v in bbox)
    if not (xmin < xmax and ymin < ymax):
        raise ValueError("bounding box must have positive extent")
    box = np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]])
    mu = c.clusters[:, 0]
    norm_less_w = np.einsum("kd,kd->k", mu, mu) - w

    cells = []
    for k in range(c.n_cells):
        poly = box
        for j in range(c.n_cells):
            if j == k or len(poly) == 0:
                continue
            a = 2.0 * (mu[j] - mu[k])
            rhs = norm_less_w[j] - norm_less_w[k]
            if np.max(np.abs(a)) < _CLIP_EPS:
                # Coincident sites: the cell survives only if its power is
                # not strictly larger (lowest-index tie keeps j > k side out).
                if rhs < -_CLIP_EPS or (abs(rhs) <= _CLIP_EPS and j < k):
                    poly = np.empty((0, 2))
                continue
            poly = _clip_halfplane(poly, a, rhs)
        if len(poly) < 3:
            poly = np.empty((0, 2))
        cells.append(poly)
    return cells
