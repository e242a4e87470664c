"""Command-line front end: run, ablate, sweep, and render experiments.

Configuration is a flat ``key = value`` text file; every key can also be set
by the same-named command-line flag (dashes for underscores), with flags
taking precedence. All outputs land under the chosen output directory and
are written atomically (temp file, then rename).

Exit codes: 0 success, 1 configuration error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from .adaptation import AdaptConfig, DivergenceError, trace_csv_lines, trace_summary
from .experiments import (
    MODES,
    RENDER_KINDS,
    SWEEP_AXES,
    ExperimentSpec,
    ablation_rows,
    mode_statistics,
    render_diagram,
    run_grid,
    sweep_rows,
)
from .geometry import InfluenceConfig
from .streams import CORRUPTIONS, StreamConfig


def _parse_seeds(text: str) -> tuple:
    return tuple(int(v) for v in text.replace(",", " ").split())


def _parse_modes(text: str) -> tuple:
    modes = tuple(v.strip().lower() for v in text.replace(",", " ").split())
    for m in modes:
        if m not in MODES:
            raise ValueError(f"unknown mode {m!r}")
    return modes


def _parse_alpha(text: str):
    return None if text.strip().lower() in ("none", "") else float(text)


def _parse_filter(text: str):
    v = text.strip().lower()
    if v == "auto":
        return None
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError("filter must be auto, true, or false")


def _parse_values(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


# key -> (parser, help). Keys double as config-file entries and CLI flags.
KEYS = {
    "out": (str, "output directory"),
    "seeds": (_parse_seeds, "comma-separated seed list"),
    "mode": (_parse_modes, "comma-separated mode list (vd, civd, cipd)"),
    "classes": (int, "number of classes K"),
    "raw_dim": (int, "raw input dimension (even)"),
    "feature_dim": (int, "feature dimension"),
    "n_train_per_class": (int, "source samples per class"),
    "class_mean_scale": (float, "class mean dispersion"),
    "class_cov_scale": (float, "within-class standard deviation"),
    "corruption": (str, f"one of {', '.join(CORRUPTIONS)}"),
    "severity": (int, "corruption severity 1..5"),
    "batch_size": (int, "online batch size"),
    "n_batches": (int, "number of online batches"),
    "alpha": (_parse_alpha, "Dirichlet label-shift concentration, or 'none'"),
    "lr": (float, "adaptation learning rate"),
    "gamma": (float, "influence exponent"),
    "tau": (float, "softmax temperature"),
    "distance_floor": (float, "clamp floor for influence terms"),
    "steps_per_batch": (int, "gradient steps per batch"),
    "filter": (_parse_filter, "sample filtering: auto, true, or false"),
    "site_fraction": (float, "fraction of source data used for estimation"),
    "grid": (int, "render raster resolution"),
}


def parse_value(key: str, text: str, parser=None):
    """Parse one key's text with its KEYS parser (or ``parser``); a parse
    error names the key."""
    try:
        return (parser or KEYS[key][0])(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def read_config_file(path: str) -> dict:
    values = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in KEYS:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = parse_value(key, text.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return values


def build_spec(values: dict) -> ExperimentSpec:
    stream = StreamConfig(
        n_classes=values.get("classes", StreamConfig.n_classes),
        raw_dim=values.get("raw_dim", StreamConfig.raw_dim),
        feature_dim=values.get("feature_dim", StreamConfig.feature_dim),
        n_train_per_class=values.get("n_train_per_class", StreamConfig.n_train_per_class),
        class_mean_scale=values.get("class_mean_scale", StreamConfig.class_mean_scale),
        class_cov_scale=values.get("class_cov_scale", StreamConfig.class_cov_scale),
        corruption=values.get("corruption", StreamConfig.corruption),
        severity=values.get("severity", StreamConfig.severity),
        batch_size=values.get("batch_size", StreamConfig.batch_size),
        n_batches=values.get("n_batches", StreamConfig.n_batches),
        label_shift_alpha=values.get("alpha", StreamConfig.label_shift_alpha),
    )
    adapt = AdaptConfig(
        tau=values.get("tau", AdaptConfig.tau),
        learning_rate=values.get("lr", AdaptConfig.learning_rate),
        steps_per_batch=values.get("steps_per_batch", AdaptConfig.steps_per_batch),
        influence=InfluenceConfig(
            gamma=values.get("gamma", InfluenceConfig.gamma),
            distance_floor=values.get("distance_floor", InfluenceConfig.distance_floor),
        ),
    )
    return ExperimentSpec(
        stream=stream,
        adapt=adapt,
        modes=values.get("mode", MODES),
        seeds=values.get("seeds", (0,)),
        out_dir=values.get("out", "out"),
        filtering=values.get("filter", None),
        site_fraction=values.get("site_fraction", 1.0),
        render_grid=values.get("grid", 200),
    )


def collect_values(args: argparse.Namespace) -> dict:
    values = {}
    if args.config:
        values.update(read_config_file(args.config))
    for key in KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return values


def write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _spec_dict(spec: ExperimentSpec) -> dict:
    d = asdict(spec)
    d["modes"] = list(spec.modes)
    d["seeds"] = list(spec.seeds)
    return d


def cmd_run(spec: ExperimentSpec) -> int:
    out = Path(spec.out_dir)
    traces = run_grid(spec)
    summaries = {}
    for (mode, seed), trace in traces.items():
        name = f"trace_{mode}_seed{seed}.csv"
        write_atomic(out / name, "\n".join(trace_csv_lines(trace)) + "\n")
        summaries[f"{mode}/seed{seed}"] = trace_summary(trace)
    stats = mode_statistics(traces, spec.modes, spec.seeds) if spec.stream.n_batches else []
    payload = {
        "config": _spec_dict(spec),
        "per_run": summaries,
        "per_mode": stats,
    }
    write_atomic(out / "summary.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"ran {len(traces)} stream(s); outputs in {out}/")
    for row in stats:
        print(
            f"  {row['mode']:>4s}: error {100 * row['mean_error']:.2f}% "
            f"± {100 * row['std_error']:.2f} over {row['n_seeds']} seed(s)"
        )
    return 0


def cmd_ablate(spec: ExperimentSpec) -> int:
    rows = ablation_rows(spec)
    lines = ["mode,mean_error,std_error,n_seeds"]
    for row in rows:
        lines.append(
            f"{row['mode']},{repr(row['mean_error'])},{repr(row['std_error'])},{row['n_seeds']}"
        )
    out = Path(spec.out_dir)
    write_atomic(out / "ablation.csv", "\n".join(lines) + "\n")
    print(f"ablation over seeds {list(spec.seeds)}; outputs in {out}/")
    for row in rows:
        print(f"  {row['mode']:>4s}: {100 * row['mean_error']:6.2f}% ± {100 * row['std_error']:.2f}")
    return 0


def cmd_sweep(spec: ExperimentSpec, axis: str, values) -> int:
    axis = axis.replace("-", "_")
    rows = sweep_rows(spec, axis, values)
    lines = ["axis,value,mode,mean_error,std_error,n_seeds"]
    for row in rows:
        lines.append(
            f"{row['axis']},{row['value']},{row['mode']},"
            f"{repr(row['mean_error'])},{repr(row['std_error'])},{row['n_seeds']}"
        )
    out = Path(spec.out_dir)
    write_atomic(out / "sweep.csv", "\n".join(lines) + "\n")
    print(f"sweep over {axis}; outputs in {out}/")
    for row in rows:
        print(
            f"  {axis}={row['value']:<8} {row['mode']:>4s}: "
            f"{100 * row['mean_error']:6.2f}% ± {100 * row['std_error']:.2f}"
        )
    return 0


def cmd_render(spec: ExperimentSpec, which: str) -> int:
    svg, _ = render_diagram(spec, which)
    out = Path(spec.out_dir)
    write_atomic(out / f"{which}.svg", svg)
    print(f"wrote {out / (which + '.svg')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voronoi-tta",
        description="Voronoi/power-diagram guided test-time adaptation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "run": "run the (mode, seed) grid and write traces plus a summary",
        "ablate": "compare vd, civd, and cipd on identical streams",
        "sweep": "vary one axis (batch-size, alpha, site-fraction)",
        "render": "render a 2-D diagram to SVG",
    }
    parsers = {}
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value configuration file")
        for key, (_, help_str) in KEYS.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, help=help_str)
        parsers[name] = p
    parsers["sweep"].add_argument(
        "--axis",
        required=True,
        choices=[a.replace("_", "-") for a in SWEEP_AXES],
        help="sweep axis",
    )
    parsers["sweep"].add_argument("--values", help="comma-separated axis values")
    parsers["render"].add_argument(
        "--which", required=True, choices=list(RENDER_KINDS), help="diagram kind"
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; 0 for --help
        return 0 if exc.code in (0, None) else 1
    try:
        raw = collect_values(args)
        values = {}
        for key, value in raw.items():
            values[key] = parse_value(key, value) if isinstance(value, str) else value
        spec = build_spec(values)
        if args.command == "run":
            return cmd_run(spec)
        if args.command == "ablate":
            return cmd_ablate(spec)
        if args.command == "sweep":
            values_arg = (
                parse_value("values", args.values, _parse_values) if args.values else None
            )
            return cmd_sweep(spec, args.axis, values_arg)
        return cmd_render(spec, args.which)
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
