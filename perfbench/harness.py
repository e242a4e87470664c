"""Workloads, outside-in probes, output checks and metrics of the benchmark.

One workload run ("rep") is one call into the package's public API:
``experiments.run_grid`` or ``experiments.sweep_rows``. Reps run back to back
in one process with one caller (a closed loop: batch t+1 needs the
parameters adapted on batch t). Two thin probes, patched into the
``experiments`` namespace for every rep, time ``prepare_run`` and hand
``run_stream`` a stamping stream; the traced run adds spans on top.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from stats import percentile
from tracing import Tracer, instrument, layer_table, patched, per_batch_counts

MODES = ("vd", "civd", "cipd")
MIN_REPS = 3

# StreamConfig fields that only shape the test stream. prepare_run replaces
# the config's own seed with its seed argument, so the argument stands in
# for that field in the source key.
STREAM_ONLY_FIELDS = frozenset(
    ("corruption", "severity", "batch_size", "n_batches", "label_shift_alpha", "seed")
)


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: bool  # sweep_rows over batch_size instead of one run_grid
    seeds_per_rep: int
    panel: tuple  # seeds of rep 0, which also gives the error and ECE metrics
    site_fraction: float
    stream: dict = field(default_factory=dict)  # StreamConfig overrides


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ablate_default",
            sweep=False, seeds_per_rep=2, panel=(0, 1), site_fraction=1.0,
        ),
        Workload(
            "online_long",
            sweep=False, seeds_per_rep=1, panel=(0,), site_fraction=0.01,
            stream={"n_batches": 400},
        ),
        Workload(
            "sweep_batch_size",
            sweep=True, seeds_per_rep=2, panel=(0, 1), site_fraction=0.1,
        ),
    )
}


def rep_seeds(workload: Workload, seed: int, rep: int) -> tuple:
    """Stream seeds of one rep: the fixed panel first, then seeds derived
    from the workload seed, distinct across reps so that no rep can reuse
    another's source preparation."""
    if rep == 0:
        return workload.panel
    base = 1000 + (seed % 10**6) * 10**4 + rep * workload.seeds_per_rep
    return tuple(base + j for j in range(workload.seeds_per_rep))


def source_key(stream_cfg, seed, site_fraction) -> tuple:
    """The inputs that determine prepare_run's result."""
    fields = tuple(
        (f.name, getattr(stream_cfg, f.name))
        for f in dataclasses.fields(stream_cfg)
        if f.name not in STREAM_ONLY_FIELDS
    )
    return fields + (("seed", int(seed)), ("site_fraction", float(site_fraction)))


def repeat_fraction(keys) -> float:
    """Share of keys equal to an earlier key in the sequence."""
    seen = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


# ---------------------------------------------------------------------------
# Probes.
# ---------------------------------------------------------------------------


class StampedStream:
    """Re-iterable view of a batch list. For each batch it stamps the time
    from handing the batch to the loop until the loop asks for the next one,
    so the stamps cover the loop's work only if the loop consumes the stream
    one batch at a time."""

    def __init__(self, batches):
        self.batches = batches
        self.durations: list[float] = []

    def __iter__(self):
        clock, durations = time.perf_counter, self.durations
        for batch in self.batches:
            start = clock()
            yield batch
            durations.append(clock() - start)


@dataclass
class StreamRun:
    """One run_stream call as the probe saw it."""

    cfg: object
    extractor: object  # the extractor before adaptation
    sites: object
    batches: list
    trace: object
    durations: list
    run_s: float


@dataclass
class Probes:
    """Timing of prepare_run and a stamping stream for run_stream."""

    prepare_s: list = field(default_factory=list)
    source_keys: list = field(default_factory=list)
    runs: list = field(default_factory=list)

    def bindings(self, experiments) -> list:
        real_prepare, real_stream = experiments.prepare_run, experiments.run_stream
        clock = time.perf_counter

        def prepare_run(stream_cfg, seed, site_fraction=1.0):
            start = clock()
            prepared = real_prepare(stream_cfg, seed, site_fraction)
            self.prepare_s.append(clock() - start)
            self.source_keys.append(source_key(stream_cfg, seed, site_fraction))
            return prepared

        def run_stream(fe, stream, sites, cfg):
            stamped = StampedStream(stream)
            start = clock()
            trace = real_stream(fe, stamped, sites, cfg)
            run_s = clock() - start
            self.runs.append(StreamRun(cfg, fe, sites, stream, trace, stamped.durations, run_s))
            return trace

        return [(experiments, "prepare_run", prepare_run),
                (experiments, "run_stream", run_stream)]


# ---------------------------------------------------------------------------
# Output check.
# ---------------------------------------------------------------------------

COVERAGE_FLOOR = 0.9
TIE_RTOL = 1e-9


def brute_force_scores(z, sites, mode: str, influence) -> np.ndarray:
    """(n, K) scores from a per-class, per-site loop over the cluster sites."""
    clusters = sites.clusters
    n_classes, n_sites, _ = clusters.shape
    scores = np.empty((z.shape[0], n_classes))
    for k in range(n_classes):
        if mode == "vd":
            diff = z - clusters[k, 0]
            scores[:, k] = -np.sqrt(np.sum(diff * diff, axis=1))
            continue
        total = np.zeros(z.shape[0])
        for a in range(n_sites):
            diff = z - clusters[k, a]
            dsq = np.sum(diff * diff, axis=1)
            term = np.sqrt(dsq) if mode == "civd" else dsq - sites.weight_sq[k]
            total += np.maximum(term, influence.distance_floor) ** influence.gamma
        scores[:, k] = -np.sign(influence.gamma) * total
    return scores


def prediction_mismatches(preds, scores) -> int:
    """Predictions that differ from the score argmax where the top two
    scores differ by more than TIE_RTOL relative."""
    top2 = np.sort(scores, axis=1)[:, -2:]
    decided = (top2[:, 1] - top2[:, 0]) > TIE_RTOL * np.maximum(np.abs(top2).max(axis=1), 1e-300)
    return int(np.count_nonzero((np.asarray(preds) != np.argmax(scores, axis=1)) & decided))


def check_run(run: StreamRun, forward) -> list[str]:
    """Problems with one run_stream call; empty when it passes."""
    problems = []
    records = run.trace.records
    if len(records) != len(run.batches):
        problems.append(f"{len(records)} records for {len(run.batches)} batches")
    losses = [r.mean_loss for r in records]
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss")
    if records and run.batches:
        z = forward(run.extractor, run.batches[0].inputs)
        scores = brute_force_scores(z, run.sites, run.cfg.mode, run.cfg.influence)
        bad = prediction_mismatches(records[0].predictions, scores)
        if bad:
            problems.append(f"{bad} batch-0 predictions differ from brute force")
    if len(run.durations) != len(run.batches):
        problems.append(f"{len(run.durations)} stamps for {len(run.batches)} batches")
    return problems


def coverage_problem(runs) -> str | None:
    """The stamped batch times must cover COVERAGE_FLOOR of the time spent
    in run_stream over a workload run; a loop that pre-reads the stream
    leaves its work unstamped."""
    covered = sum(sum(r.durations) for r in runs)
    total = sum(r.run_s for r in runs)
    if total > 0 and covered / total < COVERAGE_FLOOR:
        return f"stamps cover {covered / total:.1%} of run_stream time"
    return None


# ---------------------------------------------------------------------------
# One rep and its per-rep figures.
# ---------------------------------------------------------------------------


@dataclass
class RepResult:
    rep: int
    seeds: tuple
    wall_s: float
    prepare_s: list
    repeat_frac: float
    batch_ms: dict  # mode -> per-batch milliseconds
    samples_per_s: float
    errors: dict  # mode -> seed-mean final cumulative error
    ece_cipd: float
    preds0: list  # batch-0 predictions of every run_stream call, in order
    problems: list
    spans: list | None = None  # the rep's spans when traced


def run_rep(pkg, workload: Workload, seed: int, rep: int, traced: bool = False) -> RepResult:
    ex = pkg["experiments"]
    seeds = rep_seeds(workload, seed, rep)
    spec = ex.ExperimentSpec(
        stream=pkg["streams"].StreamConfig(**workload.stream),
        seeds=seeds,
        site_fraction=workload.site_fraction,
    )
    probes = Probes()
    tracer = Tracer(run_id=rep) if traced else None
    with patched(probes.bindings(ex)):
        if tracer is None:
            start = time.perf_counter()
            _call(ex, workload, spec)
            wall_s = time.perf_counter() - start
        else:
            with instrument(tracer, pkg), tracer.span(f"bench.{workload.name}") as root:
                _call(ex, workload, spec)
            wall_s = root.end - root.start
    result = _summarize_rep(pkg, rep, seeds, wall_s, probes)
    result.spans = tracer.spans if tracer else None
    return result


def _call(ex, workload: Workload, spec):
    if workload.sweep:
        return ex.sweep_rows(spec, "batch_size")
    return ex.run_grid(spec)


def _summarize_rep(pkg, rep, seeds, wall_s, probes: Probes) -> RepResult:
    forward, ece = pkg["adaptation"].forward, pkg["metrics"].ece
    batch_ms = {m: [] for m in MODES}
    errors = {m: [] for m in MODES}
    eces = []
    samples = 0
    stream_s = 0.0
    coverage = coverage_problem(probes.runs)
    problems = [coverage] if coverage else []
    for run in probes.runs:
        problems += [f"{run.cfg.mode}: {p}" for p in check_run(run, forward)]
        mode = run.cfg.mode
        batch_ms[mode] += [d * 1e3 for d in run.durations]
        errors[mode].append(run.trace.final_cum_error())
        samples += sum(len(b.hidden_labels) for b in run.batches)
        stream_s += run.run_s
        if mode == "cipd":
            conf = np.concatenate([r.confidences for r in run.trace.records])
            correct = np.concatenate(
                [r.predictions == b.hidden_labels for r, b in zip(run.trace.records, run.batches)]
            )
            eces.append(ece(conf, correct))
    return RepResult(
        rep=rep,
        seeds=seeds,
        wall_s=wall_s,
        prepare_s=probes.prepare_s,
        repeat_frac=repeat_fraction(probes.source_keys),
        batch_ms=batch_ms,
        samples_per_s=samples / stream_s,
        errors={m: float(np.mean(v)) for m, v in errors.items()},
        ece_cipd=float(np.mean(eces)),
        preds0=[run.trace.records[0].predictions.copy() for run in probes.runs],
        problems=problems,
    )


def run_reps(pkg, workload, seed, seconds, count=None, traced=False):
    """Exactly ``count`` reps back to back, or else at least ``MIN_REPS``
    and then as many as fit in ``seconds`` at the median rep time so far.
    A rep that raises is kept as a failed rep."""
    reps = []
    took = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        if count is not None:
            if len(reps) == count:
                break
        elif (len(reps) >= MIN_REPS
              and rep_start - start + statistics.median(took) > seconds):
            break
        try:
            reps.append(run_rep(pkg, workload, seed, len(reps), traced))
        except Exception:  # a rep that raises is a failed rep; keep measuring
            traceback.print_exc(file=sys.stderr)
            reps.append(None)
        took.append(time.perf_counter() - rep_start)
    return reps


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cipd_batch_ms_p50": "ms",
    "cipd_batch_ms_p90": "ms",
    "civd_batch_ms_p50": "ms",
    "vd_batch_ms_p50": "ms",
    "stream_samples_per_s": "1/s",
    "error_vd_pct": "%",
    "error_civd_pct": "%",
    "error_cipd_pct": "%",
    "ece_cipd_pct": "%",
    "peak_rss_mb": "MB",
}


def is_good(r) -> bool:
    return r is not None and not r.problems


def end_to_end(reps) -> dict:
    """End-to-end metrics from the passing reps: medians over reps, the
    setup median over every prepare_run call, per-batch percentiles over
    every batch of the run, and the quality metrics of rep 0 (the fixed
    seed panel).

    Per-batch percentiles pool the run's batches, so each rests on every
    batch the run timed rather than on one rep's.
    """
    good = [r for r in reps if is_good(r)]
    if not good:
        return {"peak_rss_mb": peak_rss_mb()}
    batch_ms = {m: [t for r in good for t in r.batch_ms[m]] for m in MODES}
    values = {
        "wall_s": statistics.median(r.wall_s for r in good),
        "setup_s": statistics.median(s for r in good for s in r.prepare_s),
        "cipd_batch_ms_p50": percentile(batch_ms["cipd"], 50),
        "cipd_batch_ms_p90": percentile(batch_ms["cipd"], 90),
        "civd_batch_ms_p50": percentile(batch_ms["civd"], 50),
        "vd_batch_ms_p50": percentile(batch_ms["vd"], 50),
        "stream_samples_per_s": statistics.median(r.samples_per_s for r in good),
    }
    panel = next((r for r in good if r.rep == 0), None)
    if panel is not None:
        for mode in MODES:
            values[f"error_{mode}_pct"] = 100.0 * panel.errors[mode]
        values["ece_cipd_pct"] = 100.0 * panel.ece_cipd
    values["peak_rss_mb"] = peak_rss_mb()
    return {k: values[k] for k in END_TO_END_UNITS if k in values}


def peak_rss_mb() -> float:
    """Peak resident memory of this process (each workload run is its own
    process, so no earlier run's peak is included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


TIMED_LAYERS = {
    "streams.fit_logistic_head": "s",
    "streams.fit_power_weights": "self_s",
    "streams.expand_cluster_sites": "s",
    "streams.gen_source": "s",
    "streams.gen_stream": "s",
    "experiments.prepare_run": "self_s",
    "experiments.run_single": "s",
    "adaptation.forward": "s",
    "adaptation.mode_scores": "s",
    "adaptation.soft_label_from_scores": "s",
    "adaptation.batch_loss_and_grad": "s",
    "adaptation.adapt_step": "s",
    "adaptation.run_stream": "self_s",
    "filtering.filter_batch": "s",
    "metrics.score_trace": "s",
}


def per_layer_units() -> dict:
    units = {}
    for name, kind in TIMED_LAYERS.items():
        units[f"{name}.{kind}"] = "s"
        units[f"{name}.calls"] = "count"
    units["experiments.prepare_run.repeat_frac"] = "ratio"
    for mode in MODES:
        units[f"geometry.score_calls_per_batch.{mode}"] = "count"
        units[f"adaptation.batch_loss_and_grad.calls_per_batch.{mode}"] = "count"
        units[f"geometry.diff_tensor_mb_per_batch.{mode}"] = "MB-computed"
    units["filtering.kept_frac"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER_UNITS = per_layer_units()


def layer_medians(reps) -> dict[str, dict]:
    """Per span name: median calls, busy and self seconds per passing rep."""
    tables = [layer_table(r.spans) for r in reps if is_good(r)]
    names = sorted({name for t in tables for name in t})
    return {
        name: {key: statistics.median(t.get(name, {}).get(key, 0) for t in tables)
               for key in ("calls", "s", "self_s")}
        for name in names
    }


def per_layer(reps, overhead_s: float) -> dict:
    """Per-layer metrics of the passing traced reps: per-rep medians of busy
    or self time and of call counts, plus per-batch counts over all of them."""
    good = [r for r in reps if is_good(r)]
    rows = layer_medians(good)
    values = {}
    for name, kind in TIMED_LAYERS.items():
        values[f"{name}.{kind}"] = rows.get(name, {}).get(kind, 0.0)
        values[f"{name}.calls"] = rows.get(name, {}).get("calls", 0)
    values["experiments.prepare_run.repeat_frac"] = statistics.median(r.repeat_frac for r in good)
    counts: dict[str, dict] = {}
    for r in good:
        for mode, row in per_batch_counts(r.spans).items():
            total = counts.setdefault(mode, dict.fromkeys(row, 0))
            for key, value in row.items():
                total[key] += value
    for mode in MODES:
        row = counts.get(mode, {})
        n = row.get("batches", 0)
        for key, metric, scale in (
            ("score_calls", f"geometry.score_calls_per_batch.{mode}", 1.0),
            ("grad_calls", f"adaptation.batch_loss_and_grad.calls_per_batch.{mode}", 1.0),
            ("diff_bytes", f"geometry.diff_tensor_mb_per_batch.{mode}", 1e-6),
        ):
            values[metric] = row[key] * scale / n if n else math.nan
    filtered = sum(r["filtered"] for r in counts.values())
    kept = sum(r["kept"] for r in counts.values())
    values["filtering.kept_frac"] = kept / filtered if filtered else math.nan
    values["trace.overhead_s"] = overhead_s
    return values
