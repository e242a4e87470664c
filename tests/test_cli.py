"""CLI: config parsing, commands, outputs, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from voronoi_tta.cli import build_spec, main, read_config_file
from voronoi_tta.experiments import _prepare_source

FAST = [
    "--classes", "4", "--raw-dim", "4", "--feature-dim", "6",
    "--n-train-per-class", "100", "--batch-size", "8", "--n-batches", "3",
]


def run_cli(*args):
    return main(list(args))


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
        # comment
        classes = 4
        batch_size = 8     # trailing comment
        alpha = none
        mode = vd, cipd
        seeds = 0, 1
        filter = auto
        """
    )
    values = read_config_file(cfg)
    assert values["classes"] == 4
    assert values["alpha"] is None
    assert values["mode"] == ("vd", "cipd")
    assert values["seeds"] == (0, 1)
    assert values["filter"] is None
    spec = build_spec(values)
    assert spec.stream.n_classes == 4
    assert spec.modes == ("vd", "cipd")


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 3\n")
    with pytest.raises(ValueError):
        read_config_file(cfg)


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("batch_size = 8\nclasses = 4\nraw_dim = 4\nfeature_dim = 6\n"
                   "n_train_per_class = 100\nn_batches = 2\n")
    out = tmp_path / "out"
    code = run_cli(
        "run", "--config", str(cfg), "--batch-size", "4",
        "--mode", "vd", "--seeds", "0", "--out", str(out),
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["stream"]["batch_size"] == 4


def test_run_writes_traces_and_summary(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", *FAST, "--mode", "vd,cipd", "--seeds", "0,1", "--out", str(out))
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert "summary.json" in files
    for mode in ("vd", "cipd"):
        for seed in (0, 1):
            assert f"trace_{mode}_seed{seed}.csv" in files
    summary = json.loads((out / "summary.json").read_text())
    assert {row["mode"] for row in summary["per_mode"]} == {"vd", "cipd"}
    trace = (out / "trace_vd_seed0.csv").read_text().splitlines()
    assert trace[0] == "batch_index,mode,batch_error,cum_error,mean_loss,kept_fraction"
    assert len(trace) == 4


def test_summary_means_match_trace_csvs(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", *FAST, "--mode", "vd,civd", "--seeds", "0,1,2", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    for row in summary["per_mode"]:
        finals = []
        for seed in (0, 1, 2):
            lines = (out / f"trace_{row['mode']}_seed{seed}.csv").read_text().splitlines()
            finals.append(float(lines[-1].split(",")[3]))  # cum_error column
        assert row["mean_error"] == pytest.approx(np.mean(finals), rel=1e-12)


def test_run_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        _prepare_source.cache_clear()  # compare two fresh source preparations
        assert run_cli("run", *FAST, "--mode", "cipd", "--seeds", "0", "--out", str(out)) == 0
    f1 = (out1 / "trace_cipd_seed0.csv").read_bytes()
    f2 = (out2 / "trace_cipd_seed0.csv").read_bytes()
    assert f1 == f2


def test_run_empty_stream(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", *FAST, "--n-batches", "0", "--mode", "vd", "--seeds", "0", "--out", str(out))
    assert code == 0
    trace = (out / "trace_vd_seed0.csv").read_text().splitlines()
    assert len(trace) == 1  # header only


def test_ablate_emits_three_mode_rows(tmp_path):
    out = tmp_path / "out"
    code = run_cli("ablate", *FAST, "--seeds", "0,1", "--out", str(out))
    assert code == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    assert rows[0] == "mode,mean_error,std_error,n_seeds"
    assert [r.split(",")[0] for r in rows[1:]] == ["vd", "civd", "cipd"]
    assert len(rows) == 4


def test_sweep_batch_size_shape(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "sweep", *FAST, "--axis", "batch-size", "--values", "8,4",
        "--mode", "vd,civd,cipd", "--seeds", "0", "--out", str(out),
    )
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "axis,value,mode,mean_error,std_error,n_seeds"
    assert len(rows) == 1 + 2 * 3  # 2 values x 3 modes


def test_render_writes_svg(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "render", "--which", "vd", "--classes", "3", "--raw-dim", "4",
        "--feature-dim", "2", "--n-train-per-class", "50", "--n-batches", "1",
        "--batch-size", "8", "--grid", "16", "--out", str(out),
    )
    assert code == 0
    svg = (out / "vd.svg").read_text()
    assert svg.startswith("<svg") and "<polygon" in svg


def test_exit_codes():
    assert run_cli("run", "--corruption", "fog") == 1  # config error
    assert run_cli("render", "--which", "vd", *FAST) == 1  # feature_dim != 2
    assert run_cli("nonsense") == 1  # usage error
    assert run_cli("--help") == 0


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--lr", "nan", "learning_rate"),
        ("--tau", "inf", "tau"),
        ("--distance-floor", "inf", "distance_floor"),
        ("--gamma", "nan", "gamma"),
        ("--class-mean-scale", "inf", "class_mean_scale"),
        ("--alpha", "inf", "label_shift_alpha"),
        ("--seeds", "-1", "seeds"),
    ],
)
def test_non_finite_hyperparameters_exit_1_naming_the_field(tmp_path, capsys, flag, value, name):
    code = run_cli("run", *FAST, flag, value, "--mode", "vd", "--out", str(tmp_path / "out"))
    assert code == 1
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_errors_name_the_key(tmp_path, capsys):
    assert run_cli("run", *FAST, "--severity", "3.5", "--out", str(tmp_path / "out")) == 1
    assert "severity: invalid literal" in capsys.readouterr().err
    assert run_cli("sweep", *FAST, "--axis", "alpha", "--values", "1,x",
                   "--out", str(tmp_path / "out")) == 1
    assert "values: could not convert" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("classes = 4\nseeds = 0, 1.5\n")
    with pytest.raises(ValueError, match=r"bad.cfg:2: seeds: invalid literal"):
        read_config_file(cfg)
