"""CLI: config parsing, commands, outputs, determinism, exit codes."""

import json
import warnings

import numpy as np
import pytest

from voronoi_tta import experiments
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


@pytest.mark.parametrize("second", ["seeds = 1", "batch-size = 4"], ids=["same", "dashed"])
def test_config_rejects_a_repeated_key(tmp_path, capsys, second):
    cfg = tmp_path / "twice.cfg"
    first = second.split()[0].replace("-", "_")
    cfg.write_text(f"{first} = 0\nclasses = 4\n{second}\n")
    message = f"{cfg}:3: duplicate key '{first}' (first set on line 1)"
    with pytest.raises(ValueError) as info:
        read_config_file(cfg)
    assert str(info.value) == message
    out = tmp_path / "out"
    assert run_cli("run", *FAST, "--config", str(cfg), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 3\n")
    with pytest.raises(ValueError):
        read_config_file(cfg)


def test_removed_steps_per_batch_key_exits_1(tmp_path, capsys):
    # one gradient step per batch is fixed; an old config that set the key fails loudly
    cfg = tmp_path / "old.cfg"
    cfg.write_text("steps_per_batch = 2\n")
    out = tmp_path / "out"
    assert run_cli("run", *FAST, "--config", str(cfg), "--out", str(out)) == 1
    assert "steps_per_batch" in capsys.readouterr().err
    assert run_cli("run", *FAST, "--steps-per-batch", "2", "--out", str(out)) == 1
    assert "--steps-per-batch" in capsys.readouterr().err
    assert not out.exists()


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
    # each run sets its own mode and filter; config.modes and config.filtering say what ran
    assert "mode" not in summary["config"]["adapt"]
    assert "filtering" not in summary["config"]["adapt"]
    # and its own seed; config.seeds says which ran
    assert "seed" not in summary["config"]["stream"]
    assert summary["config"]["seeds"] == [0, 1]
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


@pytest.mark.parametrize(
    "command",
    [["run"], ["ablate"], ["sweep", "--axis", "batch-size"], ["render", "--which", "vd"]],
    ids=["run", "ablate", "sweep", "render"],
)
def test_zero_batches_exit_1_naming_the_field(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = run_cli(*command, *FAST, "--feature-dim", "2", "--n-batches", "0", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == "error: n_batches must be >= 1, got 0\n"
    assert not out.exists()


def test_ablate_emits_three_mode_rows(tmp_path):
    out = tmp_path / "out"
    code = run_cli("ablate", *FAST, "--seeds", "0,1", "--out", str(out))
    assert code == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    assert rows[0] == "mode,mean_error,std_error,n_seeds"
    assert [r.split(",")[0] for r in rows[1:]] == ["vd", "civd", "cipd"]
    assert len(rows) == 4


def test_ablate_honours_mode(tmp_path):
    out = tmp_path / "out"
    assert run_cli("ablate", *FAST, "--mode", "cipd", "--seeds", "0", "--out", str(out)) == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("cipd,")


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
    # the value column reads the batch size applied, as on the default axis
    assert [r.split(",")[1] for r in rows[1:]] == ["8"] * 3 + ["4"] * 3


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


def test_render_with_two_seeds_exits_1_naming_seeds(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("render", "--which", "vd", *FAST, "--feature-dim", "2", "--seeds", "3,4",
                   "--lr", "5", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert "seeds" in err and "[3, 4]" in err
    assert not out.exists()


def test_bad_filter_value_exits_1_naming_key_and_value(tmp_path, capsys):
    assert run_cli("run", *FAST, "--filter", "maybe", "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: filter: must be auto, true, or false, got 'maybe'\n"


def test_filter_true_filters_a_vd_run(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", *FAST, "--mode", "vd", "--filter", "true", "--out", str(out)) == 0
    assert json.loads((out / "summary.json").read_text())["config"]["filtering"] is True
    kept = [float(r.split(",")[5]) for r in (out / "trace_vd_seed0.csv").read_text().split()[1:]]
    assert min(kept) < 1.0  # without the filter a vd run keeps every sample


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
        ("--seeds", "0,0", "seeds"),
        ("--feature-dim", "0", "feature_dim"),
        ("--classes", "1", "n_classes"),
        ("--n-train-per-class", "0", "n_train_per_class"),
        ("--batch-size", "0", "batch_size"),
        ("--n-batches", "-1", "n_batches"),
        ("--n-batches", "0", "n_batches"),
        ("--severity", "7", "severity"),
        ("--raw-dim", "5", "raw_dim"),
        ("--corruption", "fog", "corruption"),
        ("--site-fraction", "1.5", "site_fraction"),
        ("--grid", "4", "render_grid"),
    ],
)
def test_non_finite_hyperparameters_exit_1_naming_the_field(tmp_path, capsys, flag, value, name):
    code = run_cli("run", *FAST, flag, value, "--mode", "vd", "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert name in err
    assert value.replace(",", ", ") in err  # a list prints as [0, 0]
    # batch_size and n_batches are checked apart: each error names only its own field
    other = {"batch_size": "n_batches", "n_batches": "batch_size"}.get(name)
    assert other is None or other not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("modes", [",", "cipd,cipd", "bogus"])
def test_empty_or_repeated_modes_exit_1_naming_the_field(tmp_path, capsys, modes):
    code = run_cli("run", *FAST, "--mode", modes, "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert "mode" in err
    if modes == "bogus":
        assert "'bogus'" in err
    assert not (tmp_path / "out").exists()


def test_diverging_head_fit_exits_2_without_warnings(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("run", *FAST, "--class-mean-scale", "1e200", "--mode", "cipd",
                       "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2
    assert "numeric failure" in err and "logistic head" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_large_class_mean_source_fits_and_exits_0(tmp_path):
    # the head fit's line search used to stall at the loss's rounding floor here
    _prepare_source.cache_clear()
    code = run_cli("run", "--seeds", "2", "--class-mean-scale", "10", "--classes", "10",
                   "--feature-dim", "4", "--n-train-per-class", "50", "--n-batches", "2",
                   "--out", str(tmp_path / "out"))
    assert code == 0
    assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "flag, value, where",
    [("--lr", "1e300", "non-finite scores in vd mode, batch 1"),
     ("--tau", "1e-308", "non-finite loss in vd mode, batch 0")],
    ids=["one-step", "tiny-tau"],
)
def test_diverging_online_loop_exits_2_without_warnings(tmp_path, capsys, flag, value, where):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("run", "--seeds", "0", "--n-batches", "6", "--n-train-per-class", "50",
                       "--mode", "vd", flag, value, "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"numeric failure: {where}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "axis, values",
    [("batch-size", "12.7"), ("alpha", ","), ("batch-size", "16,16"), ("alpha", "1,0"),
     ("site-fraction", "1,2")],
)
def test_bad_sweep_values_exit_1_naming_the_field(tmp_path, capsys, monkeypatch, axis, values):
    def unexpected(*args):
        raise AssertionError("a source was prepared before every value was checked")

    monkeypatch.setattr(experiments, "prepare_run", unexpected)
    code = run_cli("sweep", *FAST, "--axis", axis, "--values", values, "--seeds", "0",
                   "--out", str(tmp_path / "out"))
    assert code == 1
    assert "values" in capsys.readouterr().err
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
