"""Geometry queries against hand values and independent brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from voronoi_tta.geometry import (
    ClusterSiteSet,
    InfluenceConfig,
    LogisticHead,
    aggregate_influence,
    assign,
    cipd_influences,
    civd_influences,
    compute_cells_2d,
    logistic_to_power,
    pd_power,
    squared_distances,
    vd_distances,
)

CFG = InfluenceConfig(gamma=-0.8)


# --- independent oracles: explicit loops, no shared code with the library ---

def sqdist_oracle(z, site):
    acc = 0.0
    for a, b in zip(z, site):
        acc += (a - b) ** 2
    return acc


# math.sqrt is correctly rounded, as np.sqrt is; x ** 0.5 goes through libm pow,
# which can be one ulp off.
def dist_oracle(z, site):
    return math.sqrt(sqdist_oracle(z, site))


def influence_oracle(z, cluster, gamma, floor, weight_sq=None):
    total = 0.0
    for site in cluster:
        dsq = sqdist_oracle(z, site)
        term = math.sqrt(dsq) if weight_sq is None else dsq - weight_sq
        term = max(term, floor)
        total += term ** gamma
    sign = 1.0 if gamma > 0 else -1.0
    return -sign * total


def argmin_first(values):
    best, best_i = None, None
    for i, v in enumerate(values):
        if best is None or v < best:
            best, best_i = v, i
    return best_i


# --- vd ---

def test_vd_distances_hand_values():
    s = ClusterSiteSet(np.array([[0.0, 0.0], [3.0, 4.0]])[:, None])
    np.testing.assert_allclose(vd_distances(np.array([0.0, 0.0]), s), [0.0, 5.0])
    s2 = ClusterSiteSet(np.array([[0.0, 0.0], [2.0, 0.0]])[:, None])
    np.testing.assert_allclose(vd_distances(np.array([1.0, 0.0]), s2), [1.0, 1.0])


def test_assign_is_the_lowest_index_argmax():
    got = assign(np.array([1.0, 3.0, 3.0]))
    assert got == 1 and isinstance(got, int)
    rows = assign(np.array([[0.0, 0.0], [-1.0, 2.0], [-np.inf, -5.0]]))
    assert rows.tolist() == [0, 1, 1]


def test_vd_assign_tie_breaks_low_index():
    s = ClusterSiteSet(np.array([[0.0, 0.0], [2.0, 0.0]])[:, None])
    assert assign(-vd_distances(np.array([0.5, 0.0]), s)) == 0
    assert assign(-vd_distances(np.array([1.0, 0.0]), s)) == 0  # exact tie


def test_vd_dimension_mismatch():
    s = ClusterSiteSet(np.array([[0.0, 0.0]])[:, None])
    with pytest.raises(ValueError):
        vd_distances(np.array([1.0, 2.0, 3.0]), s)


# --- pd ---

def test_pd_reduces_to_vd_with_zero_weights():
    p = ClusterSiteSet(np.array([[0.0, 0.0], [2.0, 0.0]])[:, None], np.zeros(2))
    assert assign(-pd_power(np.array([0.5, 0.0]), p)) == 0


def test_pd_hand_power_values():
    # v = (0, sqrt 2)
    p = ClusterSiteSet(np.array([[0.0, 0.0], [2.0, 0.0]])[:, None], np.array([0.0, 2.0]))
    np.testing.assert_allclose(pd_power(np.array([1.0, 0.0]), p), [1.0, -1.0])
    assert assign(-pd_power(np.array([1.0, 0.0]), p)) == 1


# --- civd ---

def one_cluster(cluster, weight_sq=None):
    """K = 1 cluster set holding the given (A, dim) sites."""
    return ClusterSiteSet(np.asarray(cluster)[None], None if weight_sq is None else [weight_sq])


def test_civd_influence_hand_values():
    pair = one_cluster([[0.0, 0.0], [2.0, 0.0]])
    assert civd_influences(np.array([1.0, 0.0]), pair, CFG)[0] == pytest.approx(2.0)
    single = one_cluster([[0.0, 0.0]])
    gamma_one = InfluenceConfig(gamma=1.0)
    assert civd_influences(np.array([0.0, 1.0]), single, gamma_one)[0] == pytest.approx(-1.0)


def test_civd_singleton_reduces_to_vd():
    c = ClusterSiteSet(np.array([[0.0, 0.0], [2.0, 0.0]])[:, None])
    assert assign(civd_influences(np.array([0.5, 0.0]), c, CFG)) == 0


def test_civd_dense_cluster_pulls_assignment():
    # two coincident near sites vs one far site: influence favors the pair
    dense = np.array([[0.0, 0.0], [0.0, 0.0]])
    sparse = np.array([[3.0, 0.0], [50.0, 0.0]])
    c = ClusterSiteSet(np.stack([dense, sparse]))
    z = np.array([1.6, 0.0])
    f_dense = influence_oracle(z, dense, CFG.gamma, CFG.distance_floor)
    f_sparse = influence_oracle(z, sparse, CFG.gamma, CFG.distance_floor)
    assert f_dense > f_sparse  # oracle agrees the dense pair wins
    assert assign(civd_influences(z, c, CFG)) == 0


def test_civd_empty_cluster_rejected():
    with pytest.raises(ValueError):
        one_cluster(np.empty((0, 2)))


# --- cipd ---

def test_cipd_influence_hand_values():
    single = one_cluster([[0.0, 0.0]], 0.0)
    got = cipd_influences(np.array([0.0, 1.0]), single, InfluenceConfig(gamma=1.0))[0]
    assert got == pytest.approx(-1.0)
    pair = one_cluster([[0.0, 0.0], [2.0, 0.0]], 0.0)
    assert cipd_influences(np.array([1.0, 0.0]), pair, CFG)[0] == pytest.approx(2.0)
    # power term d^2 - v^2 = 4 - 3 = 1 at gamma = 1
    shifted = one_cluster([[2.0, 0.0]], 3.0)
    assert cipd_influences(np.array([0.0, 0.0]), shifted, InfluenceConfig(gamma=1.0))[0] == -1.0


def test_cipd_zero_weights_singleton_matches_vd():
    rng = np.random.default_rng(7)
    sites = rng.normal(size=(5, 3))
    c = ClusterSiteSet(sites[:, None], np.zeros(5))
    z = rng.normal(size=(200, 3))
    want = assign(-vd_distances(z, ClusterSiteSet(sites[:, None])))
    assert np.array_equal(assign(cipd_influences(z, c, CFG)), want)


def test_cipd_dominant_weight_wins_everywhere():
    clusters = np.random.default_rng(8).normal(size=(2, 3, 2))
    c = ClusterSiteSet(clusters, np.array([0.0, 1e6]))
    z = np.random.default_rng(9).normal(size=(100, 2))
    assert np.all(assign(cipd_influences(z, c, CFG)) == 1)


def test_cipd_requires_weights():
    c = ClusterSiteSet(np.zeros((2, 1, 2)))
    with pytest.raises(ValueError):
        cipd_influences(np.array([0.0, 0.0]), c, CFG)
    # so do the power diagram of the identity sites and its 2-D cells
    with pytest.raises(ValueError, match="no weights"):
        pd_power(np.array([0.0, 0.0]), c)
    with pytest.raises(ValueError, match="no weights"):
        compute_cells_2d(c, (-1, 1, -1, 1))


# --- lemma conversion ---

def test_logistic_to_power_hand_values():
    h = LogisticHead(np.array([[2.0, 0.0]]), np.array([0.0]))
    p = logistic_to_power(h)
    np.testing.assert_allclose(p.clusters[:, 0], [[1.0, 0.0]])
    np.testing.assert_allclose(p.weight_sq, [1.0])

    zero = logistic_to_power(LogisticHead(np.zeros((3, 2)), np.zeros(3)))
    np.testing.assert_allclose(zero.clusters[:, 0], np.zeros((3, 2)))
    np.testing.assert_allclose(zero.weight_sq, np.zeros(3))


# --- 2-D cells ---

def point_in_convex(poly, p, tol=1e-9):
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol:
            return False
    return True


def test_cells_two_sites_bisector():
    p = ClusterSiteSet(np.array([[0.0, 0.0], [2.0, 0.0]])[:, None], np.zeros(2))
    cells = compute_cells_2d(p, (-1, 3, -1, 1))
    assert len(cells) == 2
    for vertices in cells:
        assert isinstance(vertices, np.ndarray) and vertices.ndim == 2
        assert vertices.shape[1] == 2 and len(vertices) >= 3
    # cell order is site order: cell 0 lies left of the bisector x = 1
    assert cells[0][:, 0].max() == pytest.approx(1.0)
    assert cells[1][:, 0].min() == pytest.approx(1.0)


def test_cells_weight_shifts_boundary():
    p = ClusterSiteSet(np.array([[0.0, 0.0], [2.0, 0.0]])[:, None], np.array([0.0, 2.0]))
    cells = compute_cells_2d(p, (-1, 3, -1, 1))
    assert cells[0][:, 0].max() == pytest.approx(0.5)
    assert cells[1][:, 0].min() == pytest.approx(0.5)


def test_cells_membership_and_tiling():
    rng = np.random.default_rng(13)
    p = ClusterSiteSet(rng.normal(size=(6, 1, 2)) * 2.0, rng.normal(size=6) * 0.5)
    bbox = (-5.0, 5.0, -5.0, 5.0)
    cells = compute_cells_2d(p, bbox)
    pts = np.column_stack(
        [rng.uniform(bbox[0], bbox[1], 3000), rng.uniform(bbox[2], bbox[3], 3000)]
    )
    assigned = assign(-pd_power(pts, p))
    for pt, k in zip(pts, assigned):
        assert len(cells[k]) >= 3
        assert point_in_convex(cells[k], pt, tol=1e-7)


def test_cells_interior_points_get_their_cell():
    rng = np.random.default_rng(17)
    p = ClusterSiteSet(rng.normal(size=(5, 1, 2)) * 2.0, rng.normal(size=5) * 0.4)
    bbox = (-5.0, 5.0, -5.0, 5.0)
    for k, vertices in enumerate(compute_cells_2d(p, bbox)):
        if len(vertices) < 3:
            continue
        # random convex combinations of the vertices are interior points
        w = rng.dirichlet(np.ones(len(vertices)), size=50)
        pts = w @ vertices
        assert np.all(assign(-pd_power(pts, p)) == k)


@pytest.mark.parametrize(
    "weight_sq, winner", [((0.0, 0.0), 0), ((0.0, 1.0), 1), ((1.0, 0.0), 0)],
    ids=["equal-weights", "heavier-second", "heavier-first"],
)
def test_cells_of_coincident_sites(weight_sq, winner):
    # equal weights: the lower index keeps the cell; else the larger weight wins
    p = ClusterSiteSet(np.array([[0.5, 0.0], [0.5, 0.0]])[:, None], np.array(weight_sq))
    cells = compute_cells_2d(p, (-1, 1, -1, 1))
    assert len(cells[winner]) == 4 and len(cells[1 - winner]) == 0
    corners = cells[winner] * 0.99
    assert np.all(assign(-pd_power(corners, p)) == winner)


def test_cells_require_two_dimensions():
    for n_sites in (1, 4):
        p = ClusterSiteSet(np.zeros((2, n_sites, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="2-D"):
            compute_cells_2d(p, (-1, 1, -1, 1))


# --- shared properties ---

@pytest.mark.parametrize("mode", ["vd", "civd", "cipd"])
def test_single_point_scores_match_the_oracle(mode):
    rng = np.random.default_rng(0)
    for _ in range(50):
        sites = rng.normal(size=(4, 3)) * 2.0
        z = rng.normal(size=3)
        if mode == "vd":  # each site is its own cell
            got = vd_distances(z, ClusterSiteSet(sites[:, None]))
            want = [dist_oracle(z, site) for site in sites]
        else:  # the sites form one cluster
            w = None
            if mode == "cipd":
                dmin = min(dist_oracle(z, site) for site in sites)
                w = rng.uniform(-1.0, 0.5) * dmin**2  # keep v^2 below min d^2
            scores = civd_influences if mode == "civd" else cipd_influences
            got = scores(z, one_cluster(sites, w), CFG)
            want = [influence_oracle(z, sites, CFG.gamma, CFG.distance_floor, weight_sq=w)]
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_assignments_are_deterministic():
    rng = np.random.default_rng(14)
    c = ClusterSiteSet(rng.normal(size=(3, 4, 3)), rng.normal(size=3) * 0.2)
    z = rng.normal(size=(50, 3))
    for fn in (
        lambda q: assign(civd_influences(q, c, CFG)),
        lambda q: assign(cipd_influences(q, c, CFG)),
    ):
        assert np.array_equal(fn(z), fn(z))


def test_vd_assign_scale_covariance():
    rng = np.random.default_rng(15)
    sites = rng.normal(size=(5, 3))
    z = rng.normal(size=(200, 3))
    base = assign(-vd_distances(z, ClusterSiteSet(sites[:, None])))
    for c in (0.1, 7.3):
        scaled = ClusterSiteSet(c * sites[:, None])
        assert np.array_equal(assign(-vd_distances(c * z, scaled)), base)


def test_influences_batch_matches_single():
    rng = np.random.default_rng(16)
    c = ClusterSiteSet(rng.normal(size=(4, 3, 2)), rng.normal(size=4) * 0.1)
    z = rng.normal(size=(20, 2))
    fb = civd_influences(z, c, CFG)
    fw = cipd_influences(z, c, CFG)
    for i, p in enumerate(z):
        for k in range(4):
            single = one_cluster(c.clusters[k], c.weight_sq[k])
            assert fb[i, k] == pytest.approx(civd_influences(p, single, CFG)[0], rel=1e-12)
            assert fw[i, k] == pytest.approx(cipd_influences(p, single, CFG)[0], rel=1e-12)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        InfluenceConfig(gamma=0.0)
    with pytest.raises(ValueError):
        InfluenceConfig(distance_floor=0.0)
    with pytest.raises(ValueError):
        ClusterSiteSet(np.array([[np.inf, 0.0]])[:, None])


# --- properties of the shared kernel, against the per-site loop oracle ---

# Multiples of 1/8 keep every difference, square and sum exact in float64,
# so the kernel and the oracle see bitwise-identical squared distances.
GRID = st.integers(-32, 32).map(lambda v: v / 8.0)
GAMMAS = st.sampled_from([-2.5, -0.8, -0.3, 0.5, 1.0, 2.0])
FLOORS = st.sampled_from([1e-8, 1e-3, 0.25])


@st.composite
def cluster_problems(draw):
    """(clusters (K, A, dim), points (n, dim), weights (K,), config)."""
    k, a, dim = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    clusters = draw(hnp.arrays(float, (k, a, dim), elements=GRID))
    z = draw(hnp.arrays(float, (draw(st.integers(1, 6)), dim), elements=GRID))
    weights = draw(hnp.arrays(float, (k,), elements=GRID.map(lambda v: 2.0 * v)))
    cfg = InfluenceConfig(gamma=draw(GAMMAS), distance_floor=draw(FLOORS))
    return clusters, z, weights, cfg


@settings(max_examples=60, deadline=None)
@given(cluster_problems())
# squared distance 45.640625, where 45.640625 ** 0.5 is one ulp below its sqrt
@example((
    np.array([[[-4.0, 0.75, -2.75, 0.625]]]),
    np.array([[2.25, -1.5, -3.25, -0.5]]),
    np.zeros(1),
    InfluenceConfig(gamma=1.0, distance_floor=1e-8),
))
def test_kernels_match_per_site_loop(problem):
    clusters, z, w, cfg = problem
    c = ClusterSiteSet(clusters, w)
    civd = civd_influences(z, c, cfg)
    cipd = cipd_influences(z, c, cfg)
    # VD and PD read only site 0 of each cluster, whatever A is
    vd = vd_distances(z, c)
    pd = pd_power(z, c)
    floor = cfg.distance_floor
    for i, p in enumerate(z):
        for k, cluster in enumerate(clusters):
            want_v = influence_oracle(p, cluster, cfg.gamma, floor)
            want_p = influence_oracle(p, cluster, cfg.gamma, floor, weight_sq=w[k])
            assert civd[i, k] == pytest.approx(want_v, rel=1e-12)
            assert cipd[i, k] == pytest.approx(want_p, rel=1e-12)
            # exact squared distances make the A = 1 slice exact as well
            assert vd[i, k] == dist_oracle(p, cluster[0])
            assert pd[i, k] == sqdist_oracle(p, cluster[0]) - w[k]


@settings(max_examples=60, deadline=None)
@given(
    cluster_problems(),
    st.sampled_from(["at", "above", "below", "double", "half", "zero"]),
    st.data(),
)
def test_cipd_power_terms_around_the_floor(problem, where, data):
    # z sits on site (k, a), so that site's power term is exactly -v_k^2
    clusters, _, w, cfg = problem
    floor = cfg.distance_floor
    k = data.draw(st.integers(0, clusters.shape[0] - 1))
    a = data.draw(st.integers(0, clusters.shape[1] - 1))
    term = {
        "at": floor,
        "above": np.nextafter(floor, np.inf),
        "below": np.nextafter(floor, 0.0),
        "double": 2.0 * floor,
        "half": 0.5 * floor,
        "zero": 0.0,
    }[where]
    z = clusters[k, a]

    def influences(site_term):
        weights = w.copy()
        weights[k] = -site_term
        return weights, cipd_influences(z, ClusterSiteSet(clusters, weights), cfg)

    weights, got = influences(term)
    want = [
        influence_oracle(z, cluster, cfg.gamma, floor, weight_sq=wj)
        for cluster, wj in zip(clusters, weights)
    ]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    if term <= floor and clusters.shape[1] == 1:
        # a lone site's term at or below the floor counts as the floor itself
        assert np.array_equal(got, influences(floor)[1])


@settings(max_examples=60, deadline=None)
@given(cluster_problems())
def test_ties_go_to_the_lowest_index(problem):
    # every cluster appears twice; the copy at index K + k never wins
    clusters, z, w, cfg = problem
    c = ClusterSiteSet(clusters, w)
    doubled = ClusterSiteSet(np.concatenate([clusters, clusters]), np.concatenate([w, w]))
    for scores in (civd_influences, cipd_influences):
        assert np.array_equal(assign(scores(z, doubled, cfg)), assign(scores(z, c, cfg)))
    assert np.array_equal(assign(-vd_distances(z, doubled)), assign(-vd_distances(z, c)))
    assert np.array_equal(assign(-pd_power(z, doubled)), assign(-pd_power(z, c)))
    # exact squared distances: the VD/PD argmin is the oracle's first minimum
    for p, got in zip(z, assign(-vd_distances(z, c))):
        assert got == argmin_first([sqdist_oracle(p, site) for site in clusters[:, 0]])
    for p, got in zip(z, assign(-pd_power(z, c))):
        assert got == argmin_first([sqdist_oracle(p, s) - wk for s, wk in zip(clusters[:, 0], w)])


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        float,
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 12)),
        elements=st.floats(-1e3, 1e3),
    ),
    GAMMAS,
    FLOORS,
)
def test_aggregate_sums_the_sites_left_to_right(terms, gamma, floor):
    cfg = InfluenceConfig(gamma=gamma, distance_floor=floor)
    powered = np.maximum(terms, floor) ** gamma
    got = aggregate_influence(terms, cfg)
    for idx in np.ndindex(got.shape):
        acc = 0.0
        for v in powered[idx]:
            acc += float(v)
        assert got[idx] == -math.copysign(acc, gamma)
    if terms.shape[-1] <= 7:
        # numpy sums an axis this short in the same order
        want = -np.sign(gamma) * np.sum(powered, axis=-1)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 9), st.integers(1, 5), st.integers(1, 4), st.integers(1, 6))
def test_squared_distances_equal_the_broadcast_form(data, n, k, a, dim):
    finite = st.floats(-1e6, 1e6)
    w = data.draw(hnp.arrays(float, (n, 2 * dim), elements=finite))
    clusters = data.draw(hnp.arrays(float, (k, a, dim), elements=finite))
    points = (w[:, ::2], w[:, ::2].copy())  # a strided z and a contiguous one
    for arr in (*points, clusters):
        arr.setflags(write=False)  # the kernel must not write its inputs
    for z in points:
        for sites in (clusters, clusters[:, :1]):  # VD reads the A = 1 slice
            d = z[:, None, None, :] - sites[None]
            want = np.einsum("nkad,nkad->nka", d, d)
            got = squared_distances(z, sites)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
