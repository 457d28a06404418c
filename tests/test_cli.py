import csv
import dataclasses
import filecmp
import os
import subprocess
import sys
from datetime import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from co2fuse import cli, fusion
from co2fuse.geo import BoundingBox
from co2fuse.models import load, predict_batch

from oracles import naive_knn


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def workdir(small_campaign_dir, tmp_path_factory):
    """Campaign files plus a built dataset and quick models, shared here."""
    out = tmp_path_factory.mktemp("cli")
    camp = small_campaign_dir
    code = run(
        "build-dataset",
        "--soundings", str(camp / "soundings.csv"),
        "--stations", str(camp / "stations.csv"),
        "--series", str(camp / "station_series.csv"),
        "--weather", str(camp / "weather.csv"),
        "--out", str(out / "dataset.csv"),
    )
    assert code == 0
    for kind, extra in (
        ("baseline", []),
        ("gbt", ["--n-estimators", "5"]),
        ("catboost", ["--iterations", "3"]),
        ("mlp", ["--epochs", "3"]),
    ):
        code = run(
            "train", "--dataset", str(out / "dataset.csv"), "--model", kind,
            "--holdout-stations", "ST01", "--out", str(out / f"{kind}.model"),
            *extra,
        )
        assert code == 0
    return out


def test_build_dataset_reports_match_rate(small_campaign_dir, tmp_path, capsys):
    camp = small_campaign_dir
    code = run(
        "build-dataset",
        "--soundings", str(camp / "soundings.csv"),
        "--stations", str(camp / "stations.csv"),
        "--series", str(camp / "station_series.csv"),
        "--weather", str(camp / "weather.csv"),
        "--out", str(tmp_path / "d.csv"),
    )
    assert code == 0
    assert "match rate" in capsys.readouterr().out
    assert (tmp_path / "d.csv").exists()


def test_build_dataset_rerun_byte_identical(small_campaign_dir, workdir, tmp_path):
    camp = small_campaign_dir
    code = run(
        "build-dataset",
        "--soundings", str(camp / "soundings.csv"),
        "--stations", str(camp / "stations.csv"),
        "--series", str(camp / "station_series.csv"),
        "--weather", str(camp / "weather.csv"),
        "--out", str(tmp_path / "again.csv"),
    )
    assert code == 0
    assert filecmp.cmp(workdir / "dataset.csv", tmp_path / "again.csv", shallow=False)


def test_tiny_radius_gives_empty_data_exit(small_campaign_dir, tmp_path):
    camp = small_campaign_dir
    code = run(
        "build-dataset",
        "--soundings", str(camp / "soundings.csv"),
        "--stations", str(camp / "stations.csv"),
        "--series", str(camp / "station_series.csv"),
        "--weather", str(camp / "weather.csv"),
        "--radius-km", "0.001",
        "--out", str(tmp_path / "d.csv"),
    )
    assert code == 3


def test_missing_input_gives_exit_2(tmp_path):
    code = run(
        "build-dataset",
        "--soundings", str(tmp_path / "absent.csv"),
        "--stations", str(tmp_path / "absent.csv"),
        "--series", str(tmp_path / "absent.csv"),
        "--weather", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "d.csv"),
    )
    assert code == 2


def test_unknown_model_kind_is_usage_error(workdir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("train", "--dataset", str(workdir / "dataset.csv"),
            "--model", "forest", "--out", str(tmp_path / "m"))
    assert exc.value.code == 64


def test_unknown_holdout_station_exit_2(workdir, tmp_path):
    code = run(
        "train", "--dataset", str(workdir / "dataset.csv"), "--model", "baseline",
        "--holdout-stations", "NOPE", "--out", str(tmp_path / "m"),
    )
    assert code == 2


def test_train_on_non_finite_label_exit_2(workdir, tmp_path, capsys):
    lines = (workdir / "dataset.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[len(fusion.FEATURE_NAMES)] = "nan"
    lines[5] = ",".join(fields)
    (tmp_path / "d.csv").write_text("".join(lines), encoding="utf-8")
    code = run("train", "--dataset", str(tmp_path / "d.csv"), "--model", "gbt",
               "--n-estimators", "2", "--out", str(tmp_path / "m"))
    assert code == 2
    assert "d.csv:6: non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_train_on_station_id_over_the_csv_field_limit_exit_2(workdir, tmp_path, capsys):
    lines = (workdir / "dataset.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[len(fusion.FEATURE_NAMES) + 1] = "S" * 140_000
    lines[5] = ",".join(fields)
    (tmp_path / "d.csv").write_text("".join(lines), encoding="utf-8")
    code = run("train", "--dataset", str(tmp_path / "d.csv"), "--model", "baseline",
               "--out", str(tmp_path / "m"))
    assert code == 2
    assert "d.csv: CSV parse failure" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


# each train option that not every model kind reads, with a non-default value
KIND_OPTIONS = {
    "epochs": ("2", ("mlp",)),
    "batch_size": ("16", ("mlp",)),
    "learning_rate": ("0.002", ("gbt", "catboost", "mlp")),
    "l2_lambda": ("0.01", ("mlp",)),
    "n_estimators": ("2", ("gbt",)),
    "max_depth": ("3", ("gbt", "catboost")),
    "iterations": ("2", ("catboost",)),
    "classes": ("10", ("catboost",)),
    "l2_leaf_reg": ("1.5", ("catboost",)),
    "decode": ("expectation", ("catboost",)),
}


def test_train_rejects_flags_of_other_model_kinds(workdir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("train", "--dataset", str(workdir / "dataset.csv"), "--model", "gbt",
            "--n-estimators", "2", "--epochs", "5", "--decode", "expectation",
            "--iterations", "9", "--out", str(tmp_path / "m"))
    assert exc.value.code == 64
    assert "--epochs is not read by --model gbt" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("kind", ["baseline", "gbt", "catboost", "mlp"])
@pytest.mark.parametrize("dest", sorted(KIND_OPTIONS))
def test_train_option_of_another_kind_is_refused(monkeypatch, tmp_path, capsys, kind, dest):
    value, kinds = KIND_OPTIONS[dest]
    argv = ("train", "--model", kind, *_flag_argv(dest, value))
    if kind in kinds:
        assert resolved(monkeypatch, *argv)[dest] != DEFAULTS["train"][dest]
        return
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 64
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = {kind}\n{dest.replace('_', '-')} = {value}\n")
    capsys.readouterr()
    assert run("train", "--config", str(cfg)) == 2
    assert f"{dest!r} is not read by --model {kind}" in capsys.readouterr().err


# each importance option that one --method reads, with a non-default value
METHOD_OPTIONS = {"rows": ("16", "shapley"), "repeats": ("2", "permutation")}


@pytest.mark.parametrize("method", ["shapley", "permutation"])
@pytest.mark.parametrize("dest", sorted(METHOD_OPTIONS))
def test_importance_option_of_another_method_is_refused(
    monkeypatch, tmp_path, capsys, method, dest
):
    value, reader = METHOD_OPTIONS[dest]
    argv = ("importance", "--method", method, *_flag_argv(dest, value))
    if method == reader:
        assert resolved(monkeypatch, *argv)[dest] != DEFAULTS["importance"][dest]
        return
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 64
    assert f"--{dest} is not read by --method {method}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"method = {method}\n{dest} = {value}\n")
    assert run("importance", "--config", str(cfg)) == 2
    assert f"{dest!r} is not read by --method {method}" in capsys.readouterr().err


def test_importance_repeats_under_the_default_method_is_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("importance", "--repeats", "2")
    assert exc.value.code == 64
    assert "--repeats is not read by --method shapley" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("repeats = 2\n")
    assert run("importance", "--config", str(cfg)) == 2
    assert "'repeats' is not read by --method shapley" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["shapley", "permutation"])
def test_importance_seed_is_read_by_both_methods(monkeypatch, tmp_path, method):
    assert resolved(monkeypatch, "importance", "--method", method, "--seed", "4")["seed"] == 4
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"method = {method}\nseed = 4\n")
    assert resolved(monkeypatch, "importance", "--config", str(cfg))["seed"] == 4


def test_permutation_importance_refuses_rows_and_runs_with_repeats(workdir, tmp_path, capsys):
    common = ("importance", "--model-file", str(workdir / "mlp.model"),
              "--dataset", str(workdir / "dataset.csv"), "--method", "permutation",
              "--repeats", "1")
    with pytest.raises(SystemExit) as exc:
        run(*common, "--rows", "5", "--out", str(tmp_path / "refused.csv"))
    assert exc.value.code == 64
    assert not (tmp_path / "refused.csv").exists()
    assert run(*common, "--out", str(tmp_path / "imp.csv")) == 0
    lines = (tmp_path / "imp.csv").read_text().splitlines()
    assert len(lines) == 1 + len(fusion.FEATURE_NAMES)
    assert all(line.endswith(",permutation") for line in lines[1:])


def test_train_config_key_of_another_kind_exit_2(workdir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 5\n")
    code = run("train", "--config", str(cfg), "--dataset", str(workdir / "dataset.csv"),
               "--model", "baseline", "--out", str(tmp_path / "m"))
    assert code == 2
    assert "'epochs' is not read by --model baseline" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("kind", ["gbt", "catboost", "mlp"])
def test_train_accepts_all_options_of_its_kind(workdir, tmp_path, kind):
    own = [arg for dest, (value, kinds) in KIND_OPTIONS.items() if kind in kinds
           for arg in _flag_argv(dest, value)]
    code = run("train", "--dataset", str(workdir / "dataset.csv"), "--model", kind,
               "--holdout-stations", "ST01", *own, "--out", str(tmp_path / "m"))
    assert code == 0


def test_train_deterministic_model_files(workdir, tmp_path):
    for name in ("m1", "m2"):
        code = run(
            "train", "--dataset", str(workdir / "dataset.csv"), "--model", "mlp",
            "--holdout-stations", "ST01", "--epochs", "3", "--seed", "9",
            "--out", str(tmp_path / name),
        )
        assert code == 0
    assert filecmp.cmp(tmp_path / "m1", tmp_path / "m2", shallow=False)


def test_evaluate_emits_one_row_per_model(workdir, capsys):
    models = ",".join(str(workdir / f"{k}.model")
                      for k in ("baseline", "gbt", "catboost", "mlp"))
    code = run(
        "evaluate", "--dataset", str(workdir / "dataset.csv"),
        "--model-file", models, "--holdout-stations", "ST01",
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "model,n,p,mse,rmse,adj_r2"
    assert len(lines) == 5
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["baseline", "gbt", "catboost", "mlp"]
    assert lines[1].split(",")[2] == "1"  # baseline p defaults to 1
    assert lines[2].split(",")[2] == "14"


def test_predict_grid_outputs_and_k1_oracle(small_campaign_dir, workdir, tmp_path, capsys):
    camp = small_campaign_dir
    out = tmp_path / "grid"
    code = run(
        "predict-grid", "--model-file", str(workdir / "baseline.model"),
        "--soundings", str(camp / "soundings.csv"),
        "--weather", str(camp / "weather.csv"),
        "--bbox", "52,8,58,16", "--res", "2.0", "--k", "1", "--p", "0.05",
        "--out", str(out),
    )
    assert code == 0
    for suffix in (".csv", ".asc", ".pgm", ".pgm.txt"):
        assert (tmp_path / ("grid" + suffix)).exists()
    sidecar = (tmp_path / "grid.pgm.txt").read_text()
    assert "k = 1" in sidecar and "p = 0.05" in sidecar

    # nearest-prediction mosaic must match the naive oracle cell for cell
    points = cli._prediction_points(
        str(workdir / "baseline.model"),
        str(camp / "soundings.csv"),
        str(camp / "weather.csv"),
    )
    # the columns in the point set's canonical order
    raw = list(zip(points.lats, points.lons, points.values[points.order]))
    rows = (tmp_path / "grid.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 * 4
    for row in rows:
        lat, lon, got = (float(v) for v in row.split(","))
        assert got == pytest.approx(naive_knn(raw, lat, lon, 1, 0.05), rel=1e-9)


def test_sweep_default_grid_twelve_rows(small_campaign_dir, tmp_path, capsys):
    camp = small_campaign_dir
    code = run(
        "sweep",
        "--soundings", str(camp / "soundings.csv"),
        "--weather", str(camp / "weather.csv"),
        "--bbox", "52,8,58,16", "--res", "2.0",
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,p,mean_ppm,std_ppm"
    assert len(lines) == 13
    last = lines[-1].split(",")
    assert last[0] == "all" and float(last[1]) == 0.0 and float(last[3]) == 0.0


def test_importance_ranks_copied_feature_first(workdir, tmp_path, capsys):
    # dataset whose label is exactly the xco2 feature, baseline regresses on it
    dataset = fusion.read_dataset(workdir / "dataset.csv")
    rigged = dataclasses.replace(dataset, y=dataset.X[:, 0].copy())
    fusion.write_dataset(rigged, tmp_path / "rigged.csv")
    code = run(
        "train", "--dataset", str(tmp_path / "rigged.csv"), "--model", "baseline",
        "--out", str(tmp_path / "rigged.model"),
    )
    assert code == 0
    code = run(
        "importance", "--model-file", str(tmp_path / "rigged.model"),
        "--dataset", str(tmp_path / "rigged.csv"), "--rows", "16",
        "--out", str(tmp_path / "imp.csv"),
    )
    assert code == 0
    lines = (tmp_path / "imp.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "xco2"


def test_importance_report_on_stdout_matches_the_out_file(workdir, tmp_path, capsys):
    common = ("importance", "--model-file", str(workdir / "gbt.model"),
              "--dataset", str(workdir / "dataset.csv"), "--rows", "4")
    assert run(*common) == 0
    stdout = capsys.readouterr().out
    assert run(*common, "--out", str(tmp_path / "imp.csv")) == 0
    assert (tmp_path / "imp.csv").read_bytes() == stdout.encode()
    assert stdout.startswith("feature,mean_abs_attribution_ppm,rank,method\n")


def test_config_file_supplies_and_flags_override(small_campaign_dir, tmp_path):
    camp = small_campaign_dir
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# pipeline settings\n"
        f"soundings = {camp / 'soundings.csv'}\n"
        f"stations = {camp / 'stations.csv'}\n"
        f"series = {camp / 'station_series.csv'}\n"
        f"weather = {camp / 'weather.csv'}\n"
        "radius-km = 0.001\n"
    )
    code = run("build-dataset", "--config", str(cfg), "--out", str(tmp_path / "d.csv"))
    assert code == 3  # config radius applies: nothing matches
    code = run(
        "build-dataset", "--config", str(cfg), "--radius-km", "25",
        "--out", str(tmp_path / "d.csv"),
    )
    assert code == 0  # explicit flag beats the config value


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no-such-option = 1\n")
    code = run("build-dataset", "--config", str(cfg), "--out", str(tmp_path / "d.csv"))
    assert code == 2


def test_synth_command_is_reproducible(tmp_path, capsys):
    for name in ("c1", "c2"):
        code = run(
            "synth", "--out", str(tmp_path / name), "--seed", "3",
            "--n-stations", "4", "--n-transects", "4",
            "--soundings-per-transect", "30", "--days", "40",
        )
        assert code == 0
    for f in ("soundings.csv", "stations.csv", "station_series.csv", "weather.csv"):
        assert filecmp.cmp(tmp_path / "c1" / f, tmp_path / "c2" / f, shallow=False)


def test_loaded_model_predicts_like_library(workdir):
    tm = load(workdir / "gbt.model")
    dataset = fusion.read_dataset(workdir / "dataset.csv")
    X, _ = fusion.design_matrix(dataset)
    preds = predict_batch(tm, X)
    assert np.all(np.isfinite(preds))


@pytest.mark.parametrize(
    "edit, code",
    [
        # one tree nested 3,000 splits deep
        (lambda ls: ls[:-6] + ["n_trees 1",
                               "(split 0 415 " * 3000 + "(leaf 0)" + " (leaf 1))" * 3000], 0),
        (lambda ls: ls + ["garbage"], 2),
        (lambda ls: ls[:-6] + ["n_trees -3"], 2),
        (lambda ls: ls[:-6] + ["n_trees 1", "(split 99 0.5 (leaf 1) (leaf 2))"], 2),
        (lambda ls: ls[:-6] + ["n_trees 1", "(split -1 0.5 (leaf 1) (leaf 2))"], 2),
        (lambda ls: ls[:-6] + ["n_trees 1", "(split 0 415 (leaf nan) (leaf 1))"], 2),
        (lambda ls: ls[:-6] + ["n_trees 1", "(split 0 415 (leaf 0) (leaf -inf))"], 2),
        (lambda ls: ls[:-6] + ["n_trees 1", "(split 0 inf (leaf 0) (leaf 1))"], 2),
        # the canonical feature names in reverse order
        (lambda ls: [ls[0], " ".join(["features", *ls[1].split()[:0:-1]]), *ls[2:]], 2),
    ],
    ids=[
        "deep-tree", "trailing-line", "negative-count", "split-feature-99",
        "split-feature-minus-1", "leaf-nan", "leaf-minus-inf", "threshold-inf",
        "features-reversed",
    ],
)
def test_evaluate_edited_gbt_model_exit_code(workdir, tmp_path, edit, code):
    lines = (workdir / "gbt.model").read_text().splitlines()
    assert lines[-6] == "n_trees 5"
    model = tmp_path / "edited.model"
    model.write_text("\n".join(edit(lines)) + "\n")
    assert run(
        "evaluate", "--dataset", str(workdir / "dataset.csv"),
        "--model-file", str(model), "--holdout-stations", "ST01",
    ) == code


def test_evaluate_names_the_file_and_line_of_a_bad_tree(workdir, tmp_path, capsys):
    lines = (workdir / "gbt.model").read_text().splitlines()
    lines[-2] = lines[-2][:-1]  # the fourth tree one closing parenthesis short
    bad = tmp_path / "bad.model"
    bad.write_text("\n".join(lines) + "\n")
    code = run(
        "evaluate", "--dataset", str(workdir / "dataset.csv"),
        "--model-file", f"{workdir / 'gbt.model'},{bad}", "--holdout-stations", "ST01",
    )
    assert code == 2
    assert f"{bad}:{len(lines) - 1}: bad tree expression" in capsys.readouterr().err


def _run_subprocess(*argv, python_flags=()):
    """`python -m co2fuse.cli argv` in a fresh interpreter, so that the
    logging and warning configuration starts from nothing."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "co2fuse.cli", *argv],
        capture_output=True, env=env, check=False,
    )


def test_verbose_logs_to_stderr_and_keeps_stdout(small_campaign_dir, tmp_path):
    camp = small_campaign_dir
    build = (
        "build-dataset",
        "--soundings", str(camp / "soundings.csv"),
        "--stations", str(camp / "stations.csv"),
        "--series", str(camp / "station_series.csv"),
        "--weather", str(camp / "weather.csv"),
        "--out", str(tmp_path / "dataset.csv"),
    )
    quiet = _run_subprocess(*build)
    loud = _run_subprocess("-v", *build)
    assert quiet.returncode == loud.returncode == 0
    assert loud.stdout == quiet.stdout
    drop_line = b"sounding(s) failing the quality flag"
    assert drop_line in loud.stderr
    assert drop_line not in quiet.stderr


def test_diverging_mlp_fit_exits_2_without_a_traceback(workdir, tmp_path):
    # floating-point warnings escalated to errors must not escape the typed one
    done = _run_subprocess(
        "train", "--dataset", str(workdir / "dataset.csv"), "--model", "mlp",
        "--learning-rate", "0.05", "--epochs", "3", "--out", str(tmp_path / "m"),
        python_flags=("-W", "error::RuntimeWarning"),
    )
    assert done.returncode == 2, done.stderr
    assert b"non-finite at epoch" in done.stderr
    assert b"Traceback" not in done.stderr
    assert not (tmp_path / "m").exists()


def test_mlp_fit_on_a_constant_feature_exits_2_without_a_traceback(workdir, tmp_path):
    # the MLP z-scores its inputs, and a constant column has no std
    lines = (workdir / "dataset.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    u10 = fusion.FEATURE_NAMES.index("u10")
    for i in range(1, len(lines)):
        fields = lines[i].split(",")
        fields[u10] = "3.25"
        lines[i] = ",".join(fields)
    (tmp_path / "d.csv").write_text("".join(lines), encoding="utf-8")
    done = _run_subprocess("train", "--dataset", str(tmp_path / "d.csv"), "--model", "mlp",
                           "--epochs", "1", "--out", str(tmp_path / "m"))
    assert done.returncode == 2, done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith(b"co2fuse: error:")]
    assert len(errors) == 1 and b"'u10'" in errors[0], done.stderr
    assert b"Traceback" not in done.stderr
    assert not (tmp_path / "m").exists()


# byte edits of a file: replace, insert or delete one byte, or cut the file
EDIT = st.tuples(
    st.sampled_from(("replace", "insert", "delete", "truncate")),
    st.integers(0, 2**31),
    st.binary(min_size=1, max_size=1),
)


def _mutate(data: bytes, edits) -> bytes:
    for op, at, byte in edits:
        i = at % (len(data) + 1)
        if op == "replace" and i < len(data):
            data = data[:i] + byte + data[i + 1:]
        elif op == "insert":
            data = data[:i] + byte + data[i:]
        elif op == "delete":
            data = data[:i] + data[i + 1:]
        elif op == "truncate":
            data = data[:i]
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ_CONFIG = b"# quick baseline\nmodel = baseline\nholdout_stations = ST01\nseed = 7\n"


def _fuzz_command(target, workdir, path, out):
    """The command that reads the mutated file at `path`."""
    dataset = str(workdir / "dataset.csv")
    if target == "dataset":
        return ["train", "--dataset", str(path), "--model", "baseline",
                "--holdout-stations", "ST01", "--out", str(out)]
    if target == "config":
        return ["train", "--config", str(path), "--dataset", dataset, "--out", str(out)]
    return ["evaluate", "--dataset", dataset, "--model-file", str(path),
            "--holdout-stations", "ST01", "--out", str(out)]


@pytest.mark.parametrize("target", ["gbt.model", "mlp.model", "catboost.model", "dataset", "config"])
@settings(max_examples=180, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDIT, min_size=1, max_size=6))
def test_mutated_input_bytes_give_an_exit_code(target, workdir, fuzz_dir, edits):
    if target == "config":
        original = FUZZ_CONFIG
    elif target == "dataset":
        original = (workdir / "dataset.csv").read_bytes()
    else:
        original = (workdir / target).read_bytes()
    path = fuzz_dir / f"mutated.{target}"
    path.write_bytes(_mutate(original, edits))
    code = run(*_fuzz_command(target, workdir, path, fuzz_dir / "out"))
    # an edit that keeps the file valid (a changed digit) still succeeds
    assert code in (0, 2, 3)


def _rewrite_weather(src: Path, dst: Path, edit) -> Path:
    """Copy a weather CSV, passing each data row through `edit(row) -> row`."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(rows[0])
        w.writerows(edit(list(r)) for r in rows[1:])
    return dst


def _at_three_am(row):
    row[0] = row[0][:11] + "03:00:00Z"  # outside the default 09:00-15:00 window
    return row


def _north_nodes_moved(row):
    if float(row[1]) >= 56.0:  # nodes from 56 N move 20 degrees north
        row[1] = repr(float(row[1]) + 20.0)
    return row


@pytest.mark.parametrize("command", ["predict-grid", "sweep"])
def test_no_usable_weather_gives_empty_data_exit(
    small_campaign_dir, workdir, tmp_path, capsys, command
):
    camp = small_campaign_dir
    weather = _rewrite_weather(camp / "weather.csv", tmp_path / "w.csv", _at_three_am)
    code = run(
        command, "--model-file", str(workdir / "baseline.model"),
        "--soundings", str(camp / "soundings.csv"), "--weather", str(weather),
        "--bbox", "52,8,58,16", "--res", "2.0", "--out", str(tmp_path / "out"),
    )
    assert code == 3
    assert "no sounding had usable weather context" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict-grid", "sweep"])
def test_far_weather_nodes_skip_soundings(
    small_campaign_dir, workdir, tmp_path, capsys, command
):
    camp = small_campaign_dir
    weather = _rewrite_weather(camp / "weather.csv", tmp_path / "w.csv", _north_nodes_moved)
    code = run(
        command, "--model-file", str(workdir / "baseline.model"),
        "--soundings", str(camp / "soundings.csv"), "--weather", str(weather),
        "--bbox", "52,8,58,16", "--res", "2.0", "--out", str(tmp_path / "out"),
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "note: skipped 162 sounding(s) without nearby weather" in err


def test_build_dataset_empty_weather_window_exit_3(small_campaign_dir, tmp_path, capsys):
    camp = small_campaign_dir
    weather = _rewrite_weather(camp / "weather.csv", tmp_path / "w.csv", _at_three_am)
    code = run(
        "build-dataset",
        "--soundings", str(camp / "soundings.csv"),
        "--stations", str(camp / "stations.csv"),
        "--series", str(camp / "station_series.csv"),
        "--weather", str(weather),
        "--out", str(tmp_path / "d.csv"),
    )
    assert code == 3
    assert "(930 soundings, 785 unmatched, 145 stale-weather)" in capsys.readouterr().err


def test_build_dataset_header_only_stations_exit_3(small_campaign_dir, tmp_path, capsys):
    camp = small_campaign_dir
    stations = tmp_path / "stations.csv"
    stations.write_text((camp / "stations.csv").read_text().splitlines()[0] + "\n")
    code = run(
        "build-dataset",
        "--soundings", str(camp / "soundings.csv"),
        "--stations", str(stations),
        "--series", str(camp / "station_series.csv"),
        "--weather", str(camp / "weather.csv"),
        "--out", str(tmp_path / "d.csv"),
    )
    assert code == 3
    assert "(930 soundings, 930 unmatched, 0 stale-weather)" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


# ------------------------------------------------------------ the CLI surface

class _Resolved(Exception):
    """Carries a command's resolved options out of `cli.main`."""


def resolved(monkeypatch, *argv) -> dict:
    """The options `co2fuse argv` resolves, before the command reads any file."""
    real = cli._resolve

    def stop_after_resolving(*args, **kwargs):
        raise _Resolved(vars(real(*args, **kwargs)))

    with monkeypatch.context() as m:
        m.setattr(cli, "_resolve", stop_after_resolving)
        with pytest.raises(_Resolved) as caught:
            run(*argv)
    return caught.value.args[0]


SEEDED = ("train", "synth", "importance")

DEFAULTS = {
    "build-dataset": dict(
        soundings=None, stations=None, series=None, weather=None, radius_km=25.0,
        time_window_min=60.0, weather_window=(time(9, 0), time(15, 0)),
        no_quality_filter=False, out="dataset.csv",
    ),
    "train": dict(
        dataset=None, model=None, holdout_stations=(), seed=0, out="model.txt", epochs=200,
        batch_size=32, learning_rate=None, l2_lambda=5e-3, n_estimators=100, max_depth=6,
        iterations=100, classes=25, l2_leaf_reg=3.0, decode="argmax",
    ),
    "evaluate": dict(
        dataset=None, model_file=None, holdout_stations=None, p_features=None, out=None,
    ),
    "predict-grid": dict(
        model_file=None, soundings=None, weather=None, bbox=None, res=None, k=200, p=0.05,
        out="grid",
    ),
    "sweep": dict(
        model_file=None, soundings=None, weather=None, bbox=None, res=None,
        k_list=(10, 200, 1000, None), p_list=(1.0, 0.2, 0.0), out=None,
    ),
    "importance": dict(
        model_file=None, dataset=None, method="shapley", rows=256, repeats=5, seed=0, out=None,
    ),
    "synth": dict(
        out=None, bbox=BoundingBox(52.0, 8.0, 58.0, 16.0), n_stations=16, n_transects=160,
        soundings_per_transect=150, days=365, noise_std=1.0, seed=0,
    ),
}

# one non-default value per option, as written after the flag and in a config file
SAMPLES = {
    "build-dataset": dict(
        soundings="s.csv", stations="st.csv", series="se.csv", weather="w.csv",
        radius_km="12.5", time_window_min="30", weather_window="08:00-16:30",
        no_quality_filter="true", out="d.csv",
    ),
    "train": dict(
        dataset="d.csv", model="gbt", holdout_stations="ST01,ST02", seed="9", out="m.txt",
        epochs="7", batch_size="16", learning_rate="0.05", l2_lambda="0.01",
        n_estimators="12", max_depth="3", iterations="8", classes="10", l2_leaf_reg="1.5",
        decode="expectation",
    ),
    "evaluate": dict(
        dataset="d.csv", model_file="a.model,b.model", holdout_stations="ST01",
        p_features="3", out="e.csv",
    ),
    "predict-grid": dict(
        model_file="m.model", soundings="s.csv", weather="w.csv", bbox="50,5,55,10",
        res="0.5", k="7", p="1.5", out="g",
    ),
    "sweep": dict(
        model_file="m.model", soundings="s.csv", weather="w.csv", bbox="50,5,55,10",
        res="0.5", k_list="5,all", p_list="2,0.5", out="t.csv",
    ),
    "importance": dict(
        model_file="m.model", dataset="d.csv", method="permutation", rows="16", repeats="2",
        seed="4", out="i.csv",
    ),
    "synth": dict(
        out="c", bbox="50,5,55,10", n_stations="3", n_transects="4",
        soundings_per_transect="5", days="6", noise_std="0.5", seed="2",
    ),
}

OPTION_CASES = [(c, d, v) for c, opts in SAMPLES.items() for d, v in opts.items()]
OPTION_CASES.append(("predict-grid", "k", "all"))

# options that the default --method does not read, with a method that does
SELECTED_BY = {("importance", "repeats"): ("--method", "permutation")}


def _flag_argv(dest, value):
    flag = "--" + dest.replace("_", "-")
    return [flag] if dest == "no_quality_filter" else [flag, value]


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_resolved_defaults(monkeypatch, command):
    assert resolved(monkeypatch, command) == DEFAULTS[command]


@pytest.mark.parametrize("command, dest, value", OPTION_CASES)
def test_flag_and_config_key_resolve_alike(monkeypatch, tmp_path, command, dest, value):
    selector = SELECTED_BY.get((command, dest), ())
    from_flag = resolved(monkeypatch, command, *selector, *_flag_argv(dest, value))[dest]
    assert from_flag != DEFAULTS[command][dest]
    for key in (dest.replace("_", "-"), dest):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert resolved(monkeypatch, command, *selector, "--config", str(cfg))[dest] == from_flag


def test_k_all_rasterizes_every_point(small_campaign_dir, workdir, tmp_path):
    camp = small_campaign_dir
    cfg = tmp_path / "all.cfg"
    cfg.write_text("k = all\n")
    common = (
        "predict-grid", "--model-file", str(workdir / "baseline.model"),
        "--soundings", str(camp / "soundings.csv"), "--weather", str(camp / "weather.csv"),
        "--bbox", "52,8,58,16", "--res", "2.0",
    )
    assert run(*common, "--k", "all", "--out", str(tmp_path / "flag")) == 0
    assert run(*common, "--config", str(cfg), "--out", str(tmp_path / "config")) == 0
    assert run(*common, "--out", str(tmp_path / "k200")) == 0
    flag = (tmp_path / "flag.csv").read_bytes()
    assert flag == (tmp_path / "config.csv").read_bytes()
    assert flag != (tmp_path / "k200.csv").read_bytes()
    assert "k = all" in (tmp_path / "flag.pgm.txt").read_text()


@pytest.mark.parametrize("command", sorted(set(DEFAULTS) - set(SEEDED)))
def test_seed_only_where_randomness_is_drawn(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run(command, "--seed", "1")
    assert exc.value.code == 64
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 1\n")
    capsys.readouterr()
    assert run(command, "--config", str(cfg)) == 2
    assert "unknown config key" in capsys.readouterr().err


BAD_VALUES = [
    ("build-dataset", "radius_km", "near"),
    ("build-dataset", "weather_window", "16:00-08:00"),
    ("train", "epochs", "1.5"),
    ("train", "holdout_stations", ","),
    ("evaluate", "p_features", "two"),
    ("predict-grid", "bbox", "50,5,55"),
    ("predict-grid", "k", "0"),
    ("sweep", "k_list", "5,-1"),
    ("sweep", "p_list", "1,a"),
    ("importance", "rows", "x"),
    ("synth", "days", "1e3"),
]


@pytest.mark.parametrize("command, dest, value", BAD_VALUES)
def test_bad_flag_value_is_usage_error_and_bad_config_value_exit_2(
    tmp_path, capsys, command, dest, value
):
    with pytest.raises(SystemExit) as exc:
        run(command, *_flag_argv(dest, value))
    assert exc.value.code == 64
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{dest} = {value}\n")
    capsys.readouterr()
    assert run(command, "--config", str(cfg)) == 2
    assert "required" not in capsys.readouterr().err


def test_bad_boolean_config_value_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no-quality-filter = maybe\n")
    assert run("build-dataset", "--config", str(cfg)) == 2


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--model", "forest"),
    ("train", "--decode", "median"),
    ("importance", "--method", "lime"),
])
def test_bad_choice_is_usage_error(command, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(command, flag, value)
    assert exc.value.code == 64


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_unknown_flag_is_usage_error_and_unknown_key_exit_2(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run(command, "--no-such-option", "1")
    assert exc.value.code == 64
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no-such-option = 1\n")
    capsys.readouterr()
    assert run(command, "--config", str(cfg)) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_choice_is_not_checked_by_the_parser(workdir, tmp_path):
    cfg = tmp_path / "forest.cfg"
    cfg.write_text("model = forest\n")
    code = run("train", "--config", str(cfg), "--dataset", str(workdir / "dataset.csv"),
               "--out", str(tmp_path / "m"))
    assert code == 2


@pytest.mark.parametrize("command, config, named", [
    ("train", "model = forest\nepochs = 5\n", "--model: invalid choice 'forest'"),
    ("importance", "method = lime\nrows = 5\n", "--method: invalid choice 'lime'"),
])
def test_unknown_config_selector_is_named_before_its_options(tmp_path, capsys, command,
                                                             config, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert run(command, "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "is not read by" not in err


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_command_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    assert "--out" in capsys.readouterr().out


def _hooked_command(name, workdir, out):
    """A command on the small campaign that calls `cli.<name>`."""
    dataset = str(workdir / "dataset.csv")
    model = str(workdir / "gbt.model")
    train = ["train", "--dataset", dataset, "--holdout-stations", "ST01", "--out", str(out)]
    evaluate = ["evaluate", "--dataset", dataset, "--model-file", model,
                "--holdout-stations", "ST01", "--out", str(out)]
    synth = ["synth", "--out", str(out), "--n-stations", "2", "--n-transects", "2",
             "--soundings-per-transect", "5", "--days", "3"]
    return {
        "train_baseline": [*train, "--model", "baseline"],
        "train_gbt": [*train, "--model", "gbt", "--n-estimators", "2"],
        "train_catboost": [*train, "--model", "catboost", "--iterations", "1"],
        "train_mlp": [*train, "--model", "mlp", "--epochs", "1"],
        "save": [*train, "--model", "baseline"],
        "load": evaluate,
        "predict_batch": evaluate,
        "shapley_attribution": ["importance", "--model-file", model, "--dataset", dataset,
                                "--rows", "2", "--out", str(out)],
        "generate_campaign": synth,
        "write_campaign": synth,
    }[name]


# the benchmark's trace wraps these names on co2fuse.cli
@pytest.mark.parametrize("name", [
    "train_baseline", "train_gbt", "train_catboost", "train_mlp", "save", "load",
    "predict_batch", "shapley_attribution", "generate_campaign", "write_campaign",
])
def test_cli_calls_its_hooked_names_through_the_module(monkeypatch, workdir, tmp_path, name):
    real = getattr(cli, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    assert run(*_hooked_command(name, workdir, tmp_path / "out")) == 0
    assert calls


@pytest.mark.parametrize("rows", ["0", "-1"])
def test_importance_rejects_fewer_than_one_row(workdir, tmp_path, capsys, rows):
    code = run(
        "importance", "--model-file", str(workdir / "gbt.model"),
        "--dataset", str(workdir / "dataset.csv"), "--rows", rows,
        "--out", str(tmp_path / "imp.csv"),
    )
    assert code == 2
    assert "max_rows must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "imp.csv").exists()
