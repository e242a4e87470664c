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

from .adaptation import AdaptConfig, DivergenceError, csv_lines, trace_csv_lines, trace_summary
from .experiments import (
    PER_RUN_FIELDS,
    RENDER_KINDS,
    SWEEP_AXES,
    ExperimentSpec,
    mode_statistics,
    render_diagram,
    run_grid,
    sweep_rows,
)
from .geometry import InfluenceConfig
from .streams import CORRUPTIONS, StreamConfig


def _list_of(convert):
    """Parser of a comma- or space-separated list, converting each item."""
    return lambda text: tuple(convert(v) for v in text.replace(",", " ").split())


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
    raise ValueError(f"must be auto, true, or false, got {text!r}")


# key -> (parser, help, (section, field)). Keys double as config-file entries
# and CLI flags; the target names the config field a key sets, so every value
# not given keeps its dataclass default.
KEYS = {
    "out": (str, "output directory", ("spec", "out_dir")),
    "seeds": (_list_of(int), "comma-separated seed list", ("spec", "seeds")),
    "mode": (_list_of(str.lower), "comma-separated mode list (vd, civd, cipd)", ("spec", "modes")),
    "classes": (int, "number of classes K", ("stream", "n_classes")),
    "raw_dim": (int, "raw input dimension (even)", ("stream", "raw_dim")),
    "feature_dim": (int, "feature dimension", ("stream", "feature_dim")),
    "n_train_per_class": (int, "source samples per class", ("stream", "n_train_per_class")),
    "class_mean_scale": (float, "class mean dispersion", ("stream", "class_mean_scale")),
    "class_cov_scale": (float, "within-class standard deviation", ("stream", "class_cov_scale")),
    "corruption": (str, f"one of {', '.join(CORRUPTIONS)}", ("stream", "corruption")),
    "severity": (int, "corruption severity 1..5", ("stream", "severity")),
    "batch_size": (int, "online batch size", ("stream", "batch_size")),
    "n_batches": (int, "number of online batches", ("stream", "n_batches")),
    "alpha": (
        _parse_alpha,
        "Dirichlet label-shift concentration, or 'none'",
        ("stream", "label_shift_alpha"),
    ),
    "lr": (float, "adaptation learning rate", ("adapt", "learning_rate")),
    "gamma": (float, "influence exponent", ("influence", "gamma")),
    "tau": (float, "softmax temperature", ("adapt", "tau")),
    "distance_floor": (
        float, "clamp floor for influence terms", ("influence", "distance_floor")
    ),
    "filter": (_parse_filter, "sample filtering: auto, true, or false", ("spec", "filtering")),
    "site_fraction": (
        float, "fraction of source data used for estimation", ("spec", "site_fraction")
    ),
    "grid": (int, "render raster resolution", ("spec", "render_grid")),
}


def parse_value(key: str, text: str, parser=None):
    """Parse one key's text with its KEYS parser (or ``parser``); a parse
    error names the key."""
    try:
        return (parser or KEYS[key][0])(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def read_config_file(path: str) -> dict:
    values, first_line = {}, {}
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
        if key in first_line:
            raise ValueError(
                f"{path}:{line_no}: duplicate key {key!r} (first set on line {first_line[key]})"
            )
        first_line[key] = line_no
        try:
            values[key] = parse_value(key, text.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return values


def build_spec(values: dict) -> ExperimentSpec:
    fields = {"stream": {}, "adapt": {}, "influence": {}, "spec": {}}
    for key, value in values.items():
        section, name = KEYS[key][2]
        fields[section][name] = value
    adapt = AdaptConfig(influence=InfluenceConfig(**fields["influence"]), **fields["adapt"])
    return ExperimentSpec(stream=StreamConfig(**fields["stream"]), adapt=adapt, **fields["spec"])


def collect_values(args: argparse.Namespace) -> dict:
    """Parsed values of the config file, overridden by parsed flags."""
    values = read_config_file(args.config) if args.config else {}
    for key in KEYS:
        text = getattr(args, key)
        if text is not None:
            values[key] = parse_value(key, text)
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
    # Set per run; the spec fields of PER_RUN_FIELDS say what ran.
    for path in PER_RUN_FIELDS:
        section, name = path.split(".")
        del d[section][name]
    return d


def cmd_run(spec: ExperimentSpec) -> int:
    out = Path(spec.out_dir)
    traces = run_grid(spec)
    summaries = {}
    for (mode, seed), trace in traces.items():
        name = f"trace_{mode}_seed{seed}.csv"
        write_atomic(out / name, "\n".join(trace_csv_lines(trace)) + "\n")
        summaries[f"{mode}/seed{seed}"] = trace_summary(trace)
    stats = mode_statistics(traces, spec.modes, spec.seeds)
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


def _write_rows(path: Path, columns, rows):
    """CSV of the named columns of each row."""
    lines = csv_lines(columns, ([row[col] for col in columns] for row in rows))
    write_atomic(path, "\n".join(lines) + "\n")


def cmd_ablate(spec: ExperimentSpec) -> int:
    rows = mode_statistics(run_grid(spec), spec.modes, spec.seeds)
    out = Path(spec.out_dir)
    _write_rows(out / "ablation.csv", ("mode", "mean_error", "std_error", "n_seeds"), rows)
    print(f"ablation over seeds {list(spec.seeds)}; outputs in {out}/")
    for row in rows:
        print(f"  {row['mode']:>4s}: {100 * row['mean_error']:6.2f}% ± {100 * row['std_error']:.2f}")
    return 0


def cmd_sweep(spec: ExperimentSpec, axis: str, values) -> int:
    axis = axis.replace("-", "_")
    rows = sweep_rows(spec, axis, values)
    out = Path(spec.out_dir)
    columns = ("axis", "value", "mode", "mean_error", "std_error", "n_seeds")
    _write_rows(out / "sweep.csv", columns, rows)
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
        "ablate": "compare the --mode modes (default all three) on identical streams",
        "sweep": "vary one axis (batch-size, alpha, site-fraction)",
        "render": "render one seed's 2-D diagram to SVG "
        "(reads no --mode, --lr, --tau or --filter)",
    }
    parsers = {}
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value configuration file")
        for key, (_, help_str, _) in KEYS.items():
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
        spec = build_spec(collect_values(args))
        if args.command == "run":
            return cmd_run(spec)
        if args.command == "ablate":
            return cmd_ablate(spec)
        if args.command == "sweep":
            values_arg = (
                parse_value("values", args.values, _list_of(float)) if args.values else None
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
