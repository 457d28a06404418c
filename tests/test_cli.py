import csv
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from co2fuse import cli, fusion
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
    raw = [(p.location.latitude, p.location.longitude, p.value) for p in points]
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
    rigged = [
        fusion.LabeledSample(s.features, float(s.features[0]), s.station_id,
                             s.sounding_time, s.station_distance_km)
        for s in dataset
    ]
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
    ],
    ids=[
        "deep-tree", "trailing-line", "negative-count", "split-feature-99",
        "split-feature-minus-1", "leaf-nan", "leaf-minus-inf", "threshold-inf",
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


def _run_subprocess(*argv):
    """`python -m co2fuse.cli argv` in a fresh interpreter, so that the
    logging configuration starts from nothing."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "co2fuse.cli", *argv], capture_output=True, env=env, check=False
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
