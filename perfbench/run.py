"""Benchmark of voronoi-tta: source preparation, the online adapt loop and
repeated-source sweeps.

Run from the root of a checkout:

    python3 perfbench/run.py --workload online_long --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

The last line of a workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
provenance included, is appended to ``--out``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import stats  # noqa: E402
from tracing import write_spans_csv  # noqa: E402

PACKAGE_MODULES = ("experiments", "streams", "adaptation", "filtering", "geometry", "metrics")


def load_package() -> dict:
    """The package's modules, imported from this checkout's ``src``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    pkg = {m: importlib.import_module(f"voronoi_tta.{m}") for m in PACKAGE_MODULES}
    origin = Path(pkg["experiments"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"voronoi_tta was imported from {origin}, not from {src}")
    return pkg


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------------


def blas_info() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "blas": blas_info(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# One workload.
# ---------------------------------------------------------------------------


def run_workload(pkg, args) -> dict:
    """Untraced: end-to-end metrics. Traced: per-layer metrics from traced
    reps, then the same reps untraced to check equal outputs and give the
    tracing overhead."""
    workload = harness.WORKLOADS[args.workload]
    if not args.trace:
        reps = harness.run_reps(pkg, workload, args.seed, args.seconds)
        metrics = harness.end_to_end(reps)
        units = harness.END_TO_END_UNITS
        extra = {}
    else:
        reps = harness.run_reps(pkg, workload, args.seed, args.seconds / 2, traced=True)
        plain = harness.run_reps(pkg, workload, args.seed, 0, count=len(reps))
        overhead = median_wall(reps) - median_wall(plain)
        metrics = harness.per_layer(reps, overhead) if math.isfinite(overhead) else {}
        units = harness.PER_LAYER_UNITS
        extra = {"layers": harness.layer_medians(reps), "overhead_s": overhead}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        write_spans_csv(Path(args.out).parent / f"spans_{args.workload}_seed{args.seed}.csv",
                        [r.spans for r in reps if r is not None])
        mismatch = traced_vs_plain(reps, plain)
        for r in reps:
            if r is not None and mismatch:
                r.problems.append(mismatch)
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v)}
    failed = sum(not harness.is_good(r) for r in reps)
    problems = [p for r in reps if r is not None for p in r.problems]
    return {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": problems[:20],
        "reps": [(r.rep, r.seeds, r.wall_s) if r else None for r in reps],
        **extra,
    }


def median_wall(reps) -> float:
    walls = [r.wall_s for r in reps if harness.is_good(r)]
    return statistics.median(walls) if walls else math.nan


def traced_vs_plain(traced, plain) -> str | None:
    """Why the traced reps' outputs differ from the untraced ones, if they do."""
    for t, p in zip(traced, plain):
        if t is None or p is None:
            continue
        if t.errors != p.errors or t.ece_cipd != p.ece_cipd:
            return f"rep {t.rep}: traced error/ECE differ from untraced"
        if len(t.preds0) != len(p.preds0) or not all(
            np.array_equal(a, b) for a, b in zip(t.preds0, p.preds0)
        ):
            return f"rep {t.rep}: traced batch-0 predictions differ from untraced"
    return None


# ---------------------------------------------------------------------------
# Output.
# ---------------------------------------------------------------------------


def print_result(result: dict, prov: dict, spec: dict) -> None:
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# workload {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
          f"seconds {prov['seconds']}")
    print(f"# numpy {prov['numpy']}  blas {prov['blas']}  cpus {prov['cpu_count']}  "
          f"affinity {prov['affinity']}  python {prov['python']}  git {prov['git_rev']}")
    for problem in result["problems"]:
        print(f"# FAILED CHECK: {problem}")
    print(f"{'metric':58s} {'value':>14s}  {'unit':12s} better")
    for name, m in result["metrics"].items():
        print(f"{name:58s} {m['value']:14.6g}  {m['unit']:12s} {directions.get(name, '')}")
    failed_frac = result["failed"] / result["attempted"] if result["attempted"] else math.nan
    print(f"{'failed_frac':58s} {failed_frac:14.6g}  {'ratio':12s} lower")
    if "layers" in result:
        print(f"\n{'span (median per rep)':46s} {'calls':>8s} {'busy s':>10s} {'self s':>10s}")
        for name, row in result["layers"].items():
            print(f"{name:46s} {row['calls']:8g} {row['s']:10.4f} {row['self_s']:10.4f}")


def compare(parent_path: str, change_path: str, spec: dict) -> int:
    """One row per workload and end-to-end metric of two result files."""

    def load(path):
        runs: dict[str, dict[str, list]] = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["provenance"]["trace"] or not rec["result"]["correct"]:
                    continue
                per = runs.setdefault(rec["provenance"]["workload"], {})
                for name, m in rec["result"]["metrics"].items():
                    per.setdefault(name, []).append(m["value"])
        return runs

    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':18s} {'metric':22s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'ratio':>7s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            p, c = parent[workload].get(m["name"]), change[workload].get(m["name"])
            if not p or not c:
                continue
            ps, cs, word = stats.verdict(p, c, m["better"], m["bound"])
            ratio = cs.median / ps.median if ps.median else math.nan
            print(f"{workload:18s} {m['name']:22s} "
                  f"{ps.q1:10.4g}/{ps.median:10.4g}/{ps.q3:10.4g} "
                  f"{cs.q1:10.4g}/{cs.median:10.4g}/{cs.q3:10.4g} {ratio:7.3f}  {word}")
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so that one workload's peak
    memory does not carry into the next."""
    code = 0
    for name in harness.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        code = max(code, subprocess.run(cmd, check=False).returncode)
        print()
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out" / "results.jsonl"))
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)

    try:
        spec = benchmark_spec()
        pkg = None if args.compare else load_package()
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare, spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(harness.WORKLOADS)}")

    prov = provenance(args)
    result = run_workload(pkg, args)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps({"provenance": prov, "result": result}) + "\n")
    print_result(result, prov, spec)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
