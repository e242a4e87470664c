"""Spans recorded around the package's public functions, from outside.

Each wrapped function is patched in the module namespace its caller reads
it from, so one function reached through two bindings is patched twice
(``filtering.cipd_influences`` and ``geometry.cipd_influences`` are separate
bindings). A span is named after the function's home module and also
records the binding it was reached through. Nothing inside ``src/`` is
touched: the patches are undone when the traced run ends.
"""

from __future__ import annotations

import csv
import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

FLOAT_BYTES = 8


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 at the root
    run_id: int
    via: str
    attrs: dict | None = None


@dataclass
class Tracer:
    """In-memory span recorder; spans of one workload run share a run id."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    run_id: int = 0
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, via: str, fn, attrs=None):
        """``fn`` wrapped in a span; ``attrs(args, kwargs, result)`` may add
        a dict of counts to the span after the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, via) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str, via: str = "bench"):
        """A span around a block, child of the innermost open span."""
        stack = self._stack
        span = Span(name, self.clock(), 0.0, stack[-1] if stack else -1, self.run_id, via)
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = self.clock()


@contextmanager
def patched(bindings):
    """Temporarily set ``(module, attribute, value)`` bindings."""
    saved = []
    try:
        for module, attr, value in bindings:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def write_spans_csv(path, span_lists) -> None:
    """Spans of several runs to one CSV, span ids numbered across runs."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("run_id", "span", "parent", "name", "via", "start", "end", "attrs"))
        offset = 0
        for spans in span_lists:
            for i, s in enumerate(spans):
                parent = s.parent + offset if s.parent >= 0 else -1
                out.writerow((s.run_id, i + offset, parent, s.name, s.via, repr(s.start),
                              repr(s.end), json.dumps(s.attrs) if s.attrs else ""))
            offset += len(spans)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


# ---------------------------------------------------------------------------
# What is wrapped, where.
# ---------------------------------------------------------------------------


def _rows(z) -> int:
    return np.atleast_2d(np.asarray(z)).shape[0]


def _vd_bytes(args, kwargs, result):
    z, sites = args[0], args[1]
    return {"diff_bytes": _rows(z) * sites.n_cells * sites.dim * FLOAT_BYTES}


def _cluster_bytes(args, kwargs, result):
    z, c = args[0], args[1]
    n = _rows(z)
    return {"diff_bytes": n * c.n_cells * c.n_sites_per_cluster * c.dim * FLOAT_BYTES}


def _grad_bytes(args, kwargs, result):
    sites, cfg, keep = args[2], args[3], args[4]
    n_kept = int(np.count_nonzero(keep))
    n_sites = 1 if cfg.mode == "vd" else sites.n_sites_per_cluster
    return {"diff_bytes": n_kept * sites.n_cells * n_sites * sites.dim * FLOAT_BYTES}


def _filter_counts(args, kwargs, result):
    keep = result.keep_mask
    return {"filtered": int(keep.size), "kept": int(np.count_nonzero(keep))}


def _stream_attrs(args, kwargs, result):
    cfg = args[3]
    return {"mode": cfg.mode, "filtering": bool(cfg.filtering), "batches": len(args[1])}


SCORE_SPANS = ("geometry.vd_distances", "geometry.civd_influences", "geometry.cipd_influences")
GRAD_SPAN = "adaptation.batch_loss_and_grad"
STREAM_SPAN = "adaptation.run_stream"


def layer_bindings(pkg) -> list[tuple]:
    """``(module, attribute, span name, attrs)`` for every wrapped binding.

    ``pkg`` maps short module names to the imported package modules. The
    streams-level forward is left unwrapped on purpose, so that the forward
    pass over the source set stays in ``streams.fit_power_weights`` self time.
    """
    ex, st, ad, fi, ge = (pkg[m] for m in ("experiments", "streams", "adaptation",
                                           "filtering", "geometry"))
    return [
        (ex, "run_grid", "experiments.run_grid", None),
        (ex, "prepare_run", "experiments.prepare_run", None),
        (ex, "run_single", "experiments.run_single", None),
        (ex, "gen_source", "streams.gen_source", None),
        (ex, "subsample_per_class", "streams.subsample_per_class", None),
        (ex, "expand_cluster_sites", "streams.expand_cluster_sites", None),
        (ex, "fit_power_weights", "streams.fit_power_weights", None),
        (ex, "gen_stream", "streams.gen_stream", None),
        (ex, "run_stream", STREAM_SPAN, _stream_attrs),
        (ex, "score_trace", "metrics.score_trace", None),
        (st, "fit_logistic_head", "streams.fit_logistic_head", None),
        (ad, "forward", "adaptation.forward", None),
        (ad, "mode_scores", "adaptation.mode_scores", None),
        (ad, "soft_label_from_scores", "adaptation.soft_label_from_scores", None),
        (ad, "filter_batch", "filtering.filter_batch", _filter_counts),
        (ad, "batch_loss_and_grad", GRAD_SPAN, _grad_bytes),
        (ad, "adapt_step", "adaptation.adapt_step", None),
        # mode_scores imports these from geometry at call time.
        (ge, "vd_distances", "geometry.vd_distances", _vd_bytes),
        (ge, "civd_influences", "geometry.civd_influences", _cluster_bytes),
        (ge, "cipd_influences", "geometry.cipd_influences", _cluster_bytes),
        # filter_batch reads its own binding, bound at import.
        (fi, "cipd_influences", "geometry.cipd_influences", _cluster_bytes),
    ]


def instrument(tracer: Tracer, pkg):
    """Context manager that wraps every layer binding in spans."""
    bindings = []
    for module, attr, name, attrs in layer_bindings(pkg):
        via = f"{module.__name__.rpartition('.')[2]}.{attr}"
        bindings.append((module, attr, tracer.wrap(name, via, getattr(module, attr), attrs)))
    return patched(bindings)


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


def layer_table(spans) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds, summed."""
    table: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += self_s
    return table


def per_batch_counts(spans) -> dict[str, dict]:
    """Per stream mode: batches, score calls, gradient calls and computed
    difference-tensor bytes, from the spans under each run_stream span."""
    stream_of = []
    for i, s in enumerate(spans):
        if s.name == STREAM_SPAN:
            stream_of.append(i)
        else:
            stream_of.append(stream_of[s.parent] if s.parent >= 0 else -1)
    out: dict[str, dict] = {}
    for s, owner in zip(spans, stream_of):
        if owner < 0:
            continue
        mode = spans[owner].attrs["mode"] if spans[owner].attrs else None
        row = out.setdefault(mode, {"batches": 0, "score_calls": 0, "grad_calls": 0,
                                    "diff_bytes": 0, "filtered": 0, "kept": 0})
        if s.name == STREAM_SPAN:
            row["batches"] += s.attrs["batches"]
        elif s.name in SCORE_SPANS:
            row["score_calls"] += 1
        elif s.name == GRAD_SPAN:
            row["grad_calls"] += 1
        if s.attrs:
            row["diff_bytes"] += s.attrs.get("diff_bytes", 0)
            row["filtered"] += s.attrs.get("filtered", 0)
            row["kept"] += s.attrs.get("kept", 0)
    return out
