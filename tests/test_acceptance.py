"""Acceptance suite: exact oracle checks plus the qualitative stream trends.

Each test prints one PASS line for its criterion on success (pytest -s shows
them); tolerances are fixed here and match the package's public contracts.
The stream-level criteria (6 through 10) run on the default synthetic
shifted stream: 10 classes, 32 feature dimensions, severity-3 corruption,
50 batches of 64, averaged over 10 seeds.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from voronoi_tta.adaptation import (
    AdaptConfig,
    FeatureExtractor,
    batch_loss_and_grad,
    run_stream,
    soft_label_from_scores,
    trace_csv_lines,
    vd_loss,
)
from voronoi_tta.cli import main as cli_main
from voronoi_tta.experiments import (
    ExperimentSpec,
    _prepare_source,
    prepare_run,
    render_diagram,
    run_single,
)
from voronoi_tta.filtering import filter_batch
from voronoi_tta.geometry import (
    ClusterSiteSet,
    InfluenceConfig,
    LogisticHead,
    assign,
    cipd_influences,
    civd_influences,
    logistic_to_power,
    pd_power,
    vd_distances,
)
from voronoi_tta.metrics import adaptation_curve, score_trace
from voronoi_tta.streams import StreamConfig, gen_stream

SEEDS = tuple(range(10))
DEFAULT_STREAM = StreamConfig()
DEFAULT_ADAPT = AdaptConfig()
CFG = InfluenceConfig()


def report(criterion, text):
    print(f"ACCEPTANCE {criterion:>2} PASS: {text}")


def point_in_convex(poly, p, tol=1e-9):
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol:
            return False
    return True


# the defaults the stream criteria are defined against
def test_00_default_configuration_pins():
    assert DEFAULT_STREAM.n_classes == 10
    assert DEFAULT_STREAM.feature_dim == 32
    assert DEFAULT_STREAM.severity == 3
    assert DEFAULT_STREAM.n_batches == 50
    assert DEFAULT_STREAM.batch_size == 64
    assert DEFAULT_ADAPT.tau == 1.0
    assert DEFAULT_ADAPT.influence.gamma == -0.8


# --- criterion 1: geometry assignments vs exhaustive brute force ------------

def brute_distances(points, sites):
    # per-coordinate sum of squares, looped over sites and coordinates
    n = points.shape[0]
    out = np.empty((n, len(sites)))
    for k, site in enumerate(sites):
        acc = np.zeros(n)
        for j in range(points.shape[1]):
            acc += (points[:, j] - site[j]) ** 2
        out[:, k] = np.sqrt(acc)
    return out


def brute_influences(points, clusters, gamma, floor, weights=None, squared=False):
    n = points.shape[0]
    k_cells = clusters.shape[0]
    out = np.zeros((n, k_cells))
    sign = 1.0 if gamma > 0 else -1.0
    for k in range(k_cells):
        total = np.zeros(n)
        for site in clusters[k]:
            acc = np.zeros(n)
            for j in range(points.shape[1]):
                acc += (points[:, j] - site[j]) ** 2
            term = acc if squared else np.sqrt(acc)
            if weights is not None:
                term = acc - weights[k]
            total += np.maximum(term, floor) ** gamma
        out[:, k] = -sign * total
    return out


def test_01_geometry_oracle_suite():
    start = time.time()
    rng = np.random.default_rng(1001)
    per_config = 1200
    total = 0
    for dim in (2, 8, 32):
        for k in (2, 5, 10):
            pts = rng.normal(size=(per_config, dim)) * 2.0
            sites = rng.normal(size=(k, dim)) * 1.5
            w = rng.normal(size=k) * 0.5
            clusters = rng.normal(size=(k, 4, dim)) * 1.5

            d = brute_distances(pts, sites)
            assert np.array_equal(
                assign(-vd_distances(pts, ClusterSiteSet(sites[:, None]))), np.argmin(d, axis=1)
            )

            power = d**2 - w[None, :]
            assert np.array_equal(
                assign(-pd_power(pts, ClusterSiteSet(sites[:, None], w))), np.argmin(power, axis=1)
            )

            fi = brute_influences(pts, clusters, CFG.gamma, CFG.distance_floor)
            assert np.array_equal(
                assign(civd_influences(pts, ClusterSiteSet(clusters), CFG)), np.argmax(fi, axis=1)
            )

            fw = brute_influences(
                pts, clusters, CFG.gamma, CFG.distance_floor, weights=w
            )
            assert np.array_equal(
                assign(cipd_influences(pts, ClusterSiteSet(clusters, w), CFG)),
                np.argmax(fw, axis=1),
            )
            total += per_config
    elapsed = time.time() - start
    assert total * 4 >= 4 * 10_000
    assert elapsed < 10.0
    report(1, f"4 assignment ops vs brute force on {total} instances each, 0 mismatches")
    print(f"brute force in {elapsed:.1f}s")  # wall time depends on load, so not on the PASS line


# --- criterion 2: reduction identities --------------------------------------

def test_02_reduction_identities():
    rng = np.random.default_rng(1002)
    n = 10_000
    sites = rng.normal(size=(6, 5)) * 2.0
    s = ClusterSiteSet(sites[:, None])
    pts = rng.normal(size=(n, 5)) * 2.0
    base = assign(-vd_distances(pts, s))

    for w in (-1.5, 0.0, 2.0):
        p = ClusterSiteSet(sites[:, None], np.full(6, w))
        assert np.array_equal(assign(-pd_power(pts, p)), base)

    singleton = ClusterSiteSet(sites[:, None])
    for gamma in (-0.8, 1.0, 2.0):
        cfg = InfluenceConfig(gamma=gamma)
        assert np.array_equal(assign(civd_influences(pts, singleton, cfg)), base)

    clusters = rng.normal(size=(6, 4, 5)) * 2.0
    zero_weighted = ClusterSiteSet(clusters, np.zeros(6))
    want = np.argmax(
        brute_influences(pts, clusters, CFG.gamma, CFG.distance_floor, squared=True),
        axis=1,
    )
    assert np.array_equal(assign(cipd_influences(pts, zero_weighted, CFG)), want)
    report(2, f"pd/civd/cipd reductions verified on {n} probes each, 0 mismatches")


# --- criterion 3: logistic head equivalence ----------------------------------

def test_03_logistic_head_equivalence():
    rng = np.random.default_rng(1003)
    n_heads, n_probes = 100, 10_000
    for _ in range(n_heads):
        k = int(rng.integers(2, 8))
        dim = int(rng.integers(2, 10))
        head = LogisticHead(rng.normal(size=(k, dim)), rng.normal(size=k))
        probes = rng.normal(size=(n_probes, dim)) * 2.0
        got = assign(-pd_power(probes, logistic_to_power(head)))
        want = np.argmax(probes @ head.weights.T + head.bias, axis=1)
        assert np.array_equal(got, want)
    report(3, f"{n_heads} random heads x {n_probes} probes, 0 mismatches")


# --- criterion 4: gradient checks --------------------------------------------

def fd_loss_gradient(fe, x, clusters, cfg, keep, h=1e-5):
    dims = fe.feature_dim
    gs, gb = np.zeros(dims), np.zeros(dims)
    for d in range(dims):
        e = np.zeros(dims)
        e[d] = h
        for target, grad in (("scale", gs), ("shift", gb)):
            if target == "scale":
                up = FeatureExtractor(fe.frozen_map, fe.scale + e, fe.shift)
                dn = FeatureExtractor(fe.frozen_map, fe.scale - e, fe.shift)
            else:
                up = FeatureExtractor(fe.frozen_map, fe.scale, fe.shift + e)
                dn = FeatureExtractor(fe.frozen_map, fe.scale, fe.shift - e)
            grad[d] = (
                batch_loss_and_grad(up, x, clusters, cfg, keep)[0]
                - batch_loss_and_grad(dn, x, clusters, cfg, keep)[0]
            ) / (2 * h)
    return gs, gb


def test_04_gradient_checks():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for mode in ("vd", "civd", "cipd"):
        for trial in range(100):
            raw_dim, dims, k = 5, 4, 3
            fe = FeatureExtractor(
                rng.normal(size=(dims, raw_dim)),
                rng.normal(1.0, 0.3, dims),
                rng.normal(0.0, 0.3, dims),
            )
            clusters = ClusterSiteSet(
                rng.normal(0, 2.0, size=(k, 4, dims)), rng.normal(size=k) * 0.4
            )
            x = rng.normal(0, 1.5, size=(6, raw_dim))
            cfg = AdaptConfig(mode=mode, tau=0.8)
            if trial % 2 == 0:
                keep = np.ones(6, bool)  # no filtering
            else:
                from voronoi_tta.adaptation import forward

                keep = filter_batch(forward(fe, x), clusters, cfg.influence).keep_mask
                if not keep.any():
                    keep[0] = True
            _, gs, gb = batch_loss_and_grad(fe, x, clusters, cfg, keep)
            gs_fd, gb_fd = fd_loss_gradient(fe, x, clusters, cfg, keep)
            num = np.linalg.norm(np.concatenate([gs - gs_fd, gb - gb_fd]))
            den = max(np.linalg.norm(np.concatenate([gs_fd, gb_fd])), 1e-12)
            rel = num / den
            worst = max(worst, rel)
            assert rel < 1e-5
    report(4, f"analytic vs central differences, 100 configs per mode "
              f"(filtered and unfiltered), worst rel err {worst:.2e}")


# --- criterion 5: softmax and entropy contracts ------------------------------

def test_05_softmax_entropy_contracts():
    rng = np.random.default_rng(1005)
    scores = rng.normal(size=(2000, 10)) * 4.0
    probs = soft_label_from_scores(scores, 1.0)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9

    h = vd_loss(probs)
    assert np.all(h >= 0.0) and np.all(h <= np.log(10) + 1e-12)
    assert vd_loss(np.eye(10)[0]) == 0.0
    assert vd_loss(np.full(10, 0.1)) == pytest.approx(np.log(10), rel=1e-12)

    base = soft_label_from_scores(scores, 1.0, 0.0)
    for eps in (1e-12, 1e-3, 1.0):
        assert np.array_equal(soft_label_from_scores(scores, 1.0, eps), base)
    report(5, "normalization 1e-9, entropy bounds, epsilon bitwise invariance")


# --- criteria 6, 7, 10: the default shifted stream ---------------------------

@pytest.fixture(scope="module")
def default_stream_runs():
    start = time.time()
    runs = {"adapted": {}, "frozen_cipd": [], "unfiltered_cipd": []}
    for seed in SEEDS:
        prepared = prepare_run(DEFAULT_STREAM, seed)
        for mode in ("vd", "civd", "cipd"):
            trace = run_single(prepared, DEFAULT_ADAPT, mode)
            runs["adapted"].setdefault(mode, []).append(trace)
        frozen_cfg = replace(DEFAULT_ADAPT, learning_rate=0.0)
        runs["frozen_cipd"].append(run_single(prepared, frozen_cfg, "cipd"))
        runs["unfiltered_cipd"].append(
            run_single(prepared, DEFAULT_ADAPT, "cipd", filtering=False)
        )
    runs["elapsed"] = time.time() - start
    return runs


def mean_error(traces):
    return float(np.mean([t.final_cum_error() for t in traces]))


def test_06_ablation_ordering(default_stream_runs):
    runs = default_stream_runs["adapted"]
    vd_err = mean_error(runs["vd"])
    civd_err = mean_error(runs["civd"])
    cipd_err = mean_error(runs["cipd"])
    elapsed = default_stream_runs["elapsed"]
    assert cipd_err <= civd_err - 0.005
    assert civd_err <= vd_err - 0.005
    assert elapsed < 120.0
    report(6, f"seed-mean error vd {100 * vd_err:.1f}% > civd {100 * civd_err:.1f}% "
              f"> cipd {100 * cipd_err:.1f}%, gaps >= 0.5pp")
    print(f"grid in {elapsed:.0f}s")  # wall time depends on load, so not on the PASS line


def test_07_adaptation_benefit(default_stream_runs):
    adapted = np.mean(
        [[e for _, e in adaptation_curve(t)] for t in default_stream_runs["adapted"]["cipd"]],
        axis=0,
    )
    frozen = np.mean(
        [[e for _, e in adaptation_curve(t)] for t in default_stream_runs["frozen_cipd"]],
        axis=0,
    )
    assert np.all(adapted[10:] < frozen[10:])
    gap = frozen[-1] - adapted[-1]
    assert gap >= 0.02
    report(7, f"adapted curve below frozen from batch 10 on; final gap {100 * gap:.1f}pp")


def test_10_filter_sanity(default_stream_runs):
    # zero weights: filter keeps everything and the filtered run is bitwise
    # identical to the unfiltered run of the same zero-weight diagram
    prepared = prepare_run(replace(DEFAULT_STREAM, n_batches=10), 0)
    zero_clusters = prepared.clusters.with_weights(np.zeros(DEFAULT_STREAM.n_classes))
    cfg_f = replace(DEFAULT_ADAPT, mode="cipd", filtering=True)
    cfg_n = replace(DEFAULT_ADAPT, mode="cipd", filtering=False)
    tr_f = run_stream(prepared.extractor, prepared.stream, zero_clusters, cfg_f)
    tr_n = run_stream(prepared.extractor, prepared.stream, zero_clusters, cfg_n)
    assert all(r.kept_fraction == 1.0 for r in tr_f.records)
    score_trace(tr_f, prepared.stream)
    score_trace(tr_n, prepared.stream)
    lines_f = trace_csv_lines(tr_f)
    lines_n = trace_csv_lines(tr_n)
    assert lines_f == lines_n

    filtered = mean_error(default_stream_runs["adapted"]["cipd"])
    unfiltered = mean_error(default_stream_runs["unfiltered_cipd"])
    assert filtered <= unfiltered + 0.002
    report(10, f"zero-weight runs bitwise identical; filtered {100 * filtered:.1f}% "
               f"<= unfiltered {100 * unfiltered:.1f}% + 0.2pp")


# --- criterion 8: label-shift degradation ------------------------------------

def test_08_label_shift_degradation():
    alphas = (1.0, 0.1, 0.01)
    errs = {alpha: [] for alpha in alphas}
    for seed in SEEDS:
        prepared = prepare_run(DEFAULT_STREAM, seed)
        for alpha in alphas:
            shifted = replace(DEFAULT_STREAM, seed=seed, label_shift_alpha=alpha)
            point = replace(prepared, stream=gen_stream(shifted))
            errs[alpha].append(run_single(point, DEFAULT_ADAPT, "cipd").final_cum_error())
    means = [float(np.mean(errs[alpha])) for alpha in alphas]
    assert means[0] <= means[1] + 1e-12
    assert means[1] <= means[2] + 1e-12
    report(8, "seed-mean error non-decreasing over alpha 1 / 0.1 / 0.01: "
              + " / ".join(f"{100 * e:.1f}%" for e in means))


# --- criterion 9: site-precision robustness -----------------------------------

def test_09_site_precision_robustness():
    means = {}
    for fraction in (1.0, 0.1, 0.01):
        errs = []
        for seed in SEEDS:
            prepared = prepare_run(DEFAULT_STREAM, seed, site_fraction=fraction)
            errs.append(run_single(prepared, DEFAULT_ADAPT, "cipd").final_cum_error())
        means[fraction] = float(np.mean(errs))
    spread = max(means.values()) - min(means.values())
    assert spread <= 0.01
    # the paired 10%-vs-100% comparison is tighter still
    assert abs(means[1.0] - means[0.1]) <= 0.005
    report(9, "error spread over site fractions 1.0 / 0.1 / 0.01 = "
              f"{100 * spread:.2f}pp <= 1pp")


# --- criterion 11: renderer fidelity ------------------------------------------

def test_11_renderer_oracle():
    spec = ExperimentSpec(
        stream=replace(
            DEFAULT_STREAM, feature_dim=2, n_classes=6, n_batches=1, batch_size=32
        ),
        adapt=DEFAULT_ADAPT,
        seeds=(0,),
        render_grid=110,  # 12100 raster samples per diagram
    )
    checked = 0
    for which in ("civd", "cipd", "subtraction"):
        _, extras = render_diagram(spec, which)
        grid = extras["grid"]
        xs, ys = extras["grid_xy"]
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        scores = civd_influences if which == "civd" else cipd_influences
        want = assign(scores(pts, extras["clusters"], DEFAULT_ADAPT.influence))
        assert np.array_equal(grid.ravel(), want)
        if which == "subtraction":
            keep = filter_batch(pts, extras["clusters"], DEFAULT_ADAPT.influence).keep_mask
            assert np.array_equal(extras["highlight"].ravel(), ~keep)
        checked += pts.shape[0]

    rng = np.random.default_rng(1011)
    for which in ("vd", "pd"):
        _, extras = render_diagram(spec, which)
        cells = extras["cells"]
        xmin, xmax, ymin, ymax = extras["bbox"]
        pts = np.column_stack(
            [rng.uniform(xmin, xmax, 10_000), rng.uniform(ymin, ymax, 10_000)]
        )
        labels = assign(-pd_power(pts, extras["psites"]))
        for pt, k in zip(pts, labels):
            assert point_in_convex(cells[k].vertices, pt, tol=1e-7)
        checked += len(pts)
    report(11, f"{checked} rendered samples agree with assignment ops, 100%")


# --- criterion 12: command determinism -----------------------------------------

def test_12_cli_determinism(tmp_path):
    args = [
        "run", "--mode", "cipd", "--seeds", "0", "--n-batches", "8",
        "--n-train-per-class", "300",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        _prepare_source.cache_clear()  # each run prepares its source afresh
        assert cli_main(args + ["--out", str(out)]) == 0
    fa = (out_a / "trace_cipd_seed0.csv").read_bytes()
    fb = (out_b / "trace_cipd_seed0.csv").read_bytes()
    assert fa == fb and len(fa) > 0
    report(12, "repeated cmd_run produced byte-identical trace CSVs")
