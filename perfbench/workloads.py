"""The fit and apply workloads: set-up, timed command sequence and the output
checks run after timing.

fit trains and scores every model; apply uses models trained in its set-up
to rasterize (predict-grid, sweep) and to explain (exact Shapley). So fit
writes trees and apply reads them.

Every command goes through ``co2fuse.cli.main(argv)``, exactly as a user
would type it. Holdout stations are ST05 and ST10 throughout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from co2fuse import fusion, ingest
from co2fuse.errors import Co2FuseError
from co2fuse.importance import shapley_attribution
from co2fuse.models import load, predict_batch, save

HOLDOUT = ("ST05", "ST10")
BBOX = "52,8,58,16"  # south, west, north, east of the rasters
K, P = 200, 0.05  # predict-grid's neighbour count and IDW power
NOISE_STD = 1.0  # the synth command's default noise sigma, in ppm
# the sweep command's default K and p lists, in its k-major row order
SWEEP_K = ("10", "200", "1000", "all")
SWEEP_P = (1.0, 0.2, 0.0)
MODELS = ("baseline", "gbt", "catboost", "mlp")
# catboost and MLP are cut from their defaults (100 iterations, 200 epochs)
# so that each trains in about 4 s, as long as the default gbt does
FIT_TRAIN_ARGS = {
    "baseline": (),
    "gbt": (),
    "catboost": ("--iterations", "10"),
    "mlp": ("--epochs", "50"),
}
# every model trains on this many of the training rows, so that its work does
# not move with the seed's match rate (4,308 to 5,530 training rows over 18
# seeds)
TRAIN_ROWS = 4000
ACCEPTANCE_SEED = "43"  # the campaign of acceptance criterion 08
# attribution cost does not depend on how long the net trained
EXPLAIN_MLP_EPOCHS = "10"


@dataclass(frozen=True)
class Profile:
    """Input sizes. FULL is the benchmark; SMOKE is a tiny campaign."""

    synth: tuple[str, ...]
    grid_res: str
    sweep_res: str
    shapley_rows: str


FULL = Profile((), "0.1", "0.5", "64")
SMOKE = Profile(
    ("--n-transects", "32", "--soundings-per-transect", "40", "--days", "30"),
    "0.5", "1.0", "4",
)


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Layout:
    """Where one run's set-up and timed commands write their files."""

    def __init__(self, root: Path, seed: int, profile: Profile):
        self.root = root
        self.seed = str(seed)
        self.profile = profile
        self.setup = root / "setup"
        self.out = root / "pass"
        self.scratch = root / "check"
        self.campaign = self.setup / "campaign"

    def campaign_csv(self, name: str) -> str:
        return str(self.campaign / f"{name}.csv")

    def synth(self) -> list[str]:
        return ["synth", "--seed", self.seed, "--out", str(self.campaign), *self.profile.synth]

    def build_dataset(self, out: Path) -> list[str]:
        return [
            "build-dataset",
            "--soundings", self.campaign_csv("soundings"),
            "--stations", self.campaign_csv("stations"),
            "--series", self.campaign_csv("station_series"),
            "--weather", self.campaign_csv("weather"),
            "--out", str(out),
        ]

    def train(self, dataset: Path, kind: str, out: Path, *extra: str) -> list[str]:
        return [
            "train", "--dataset", str(dataset), "--model", kind, "--seed", self.seed,
            "--holdout-stations", ",".join(HOLDOUT), *extra, "--out", str(out),
        ]


# a step is a co2fuse command line, or a benchmark action that prepares the
# next command's input and is left out of the timing
Steps = list[tuple[str, list[str] | Callable[[], None]]]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Layout], Steps]
    steps: Callable[[Layout], Steps]
    # (name, check) pairs; a check raises on a wrong output
    checks: Callable[[Layout], list[tuple[str, Callable[[], None]]]]
    # workload-specific results reported next to the metrics
    results: Callable[[Layout], dict]
    # setup_s is the median of this many set-ups; fit's takes about 2.5 s,
    # apply's about 11 s
    setup_repeats: int


# ------------------------------------------------------------------ helpers


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _holdout_matrix(dataset_path: Path) -> tuple[np.ndarray, np.ndarray]:
    _, test = fusion.split_by_station(fusion.read_dataset(dataset_path), set(HOLDOUT))
    return fusion.design_matrix(test)


def _prediction_inputs(layout: Layout):
    """(lats, lons, features) of the points predict-grid and sweep rasterize:
    every kept sounding with usable weather."""
    soundings = ingest.read_soundings(layout.campaign_csv("soundings"), quality_filter=True)
    archive = ingest.read_weather(layout.campaign_csv("weather"))
    lats, lons, rows = [], [], []
    for s in soundings:
        try:
            weather = fusion.nearest_weather(s, archive)
        except Co2FuseError:
            continue
        lats.append(s.location.latitude)
        lons.append(s.location.longitude)
        rows.append(fusion.assemble_features(s, weather))
    return np.array(lats), np.array(lons), np.stack(rows)


def _count_kept_soundings(layout: Layout) -> int:
    rows = _read_csv(Path(layout.campaign_csv("soundings")))
    return sum(1 for r in rows if r["quality_flag"] == "0")


def _dataset_sizes(dataset_path: Path) -> dict:
    ids = [r["station_id"] for r in _read_csv(dataset_path)]
    holdout = sum(1 for i in ids if i in HOLDOUT)
    return {"dataset_rows": len(ids), "train_rows": len(ids) - holdout, "holdout_rows": holdout}


# ---------------------------------------------------------------------- fit


def _fit_setup(layout: Layout) -> Steps:
    return [("synth", layout.synth())]


def _model_path(layout: Layout, kind: str) -> Path:
    return layout.out / f"{kind}.txt"


def _train_set(layout: Layout) -> Path:
    return layout.out / "train_set.csv"


def _fixed_training_rows(src: Path, dst: Path) -> None:
    """Copy a dataset keeping every holdout row and TRAIN_ROWS evenly spaced
    training rows (all of them when there are fewer)."""
    with open(src, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    station = next(csv.reader(lines[:1])).index("station_id")
    rows = list(csv.reader(lines[1:]))
    train = [i for i, r in enumerate(rows) if r[station] not in HOLDOUT]
    if len(train) > TRAIN_ROWS:
        dropped = set(train) - {train[j * len(train) // TRAIN_ROWS] for j in range(TRAIN_ROWS)}
        lines = lines[:1] + [line for i, line in enumerate(lines[1:]) if i not in dropped]
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(lines)


def _fit_steps(layout: Layout) -> Steps:
    built, dataset = layout.out / "dataset.csv", _train_set(layout)
    steps: Steps = [
        ("build_dataset", layout.build_dataset(built)),
        ("fixed_training_rows", lambda: _fixed_training_rows(built, dataset)),
    ]
    for kind in MODELS:
        steps.append(
            (f"train_{kind}",
             layout.train(dataset, kind, _model_path(layout, kind), *FIT_TRAIN_ARGS[kind]))
        )
    models = ",".join(str(_model_path(layout, kind)) for kind in MODELS)
    steps.append((
        "evaluate",
        ["evaluate", "--dataset", str(dataset), "--model-file", models,
         "--holdout-stations", ",".join(HOLDOUT), "--out", str(layout.out / "evaluation.csv")],
    ))
    return steps


def _holdout_rmse(layout: Layout) -> dict[str, float]:
    return {r["model"]: float(r["rmse"]) for r in _read_csv(layout.out / "evaluation.csv")}


def _fit_checks(layout: Layout):
    def beats_baseline(kind):
        def check():
            rmse = _holdout_rmse(layout)
            expect(rmse[kind] < rmse["baseline"],
                   f"{kind} holdout RMSE {rmse[kind]} is not below baseline {rmse['baseline']}")
        return check

    def mlp_within_noise():
        rmse = _holdout_rmse(layout)["mlp"]
        expect(rmse <= 1.5 * NOISE_STD, f"mlp holdout RMSE {rmse} exceeds 1.5 sigma")

    # acceptance 08 sets the 1.5 sigma rule for its own campaign; on other
    # campaigns the holdout stations can sit where even gbt misses it
    sigma_rule = [("mlp RMSE within 1.5 sigma", mlp_within_noise)]
    if layout.seed != ACCEPTANCE_SEED:
        sigma_rule = []

    def reloads_identically(kind):
        def check():
            X, y = _holdout_matrix(_train_set(layout))
            path = _model_path(layout, kind)
            first = load(path)
            pred = predict_batch(first, X)
            layout.scratch.mkdir(parents=True, exist_ok=True)
            copy = layout.scratch / f"{kind}.txt"
            save(first, copy)
            expect(copy.read_bytes() == path.read_bytes(), f"{kind}: re-saved model file differs")
            expect(predict_batch(load(copy), X).tobytes() == pred.tobytes(),
                   f"{kind}: reloaded model predicts different bits")
            rmse = math.sqrt(float(np.mean((pred - y) ** 2)))
            reported = _holdout_rmse(layout)[kind]
            expect(abs(rmse - reported) <= 1e-9 * reported,
                   f"{kind}: evaluate reported RMSE {reported}, recomputed {rmse}")
        return check

    return (
        [(f"{kind} beats baseline", beats_baseline(kind)) for kind in MODELS[1:]]
        + sigma_rule
        + [(f"{kind} reloads bit-identically", reloads_identically(kind)) for kind in MODELS]
    )


def _fit_results(layout: Layout) -> dict:
    rmse = _holdout_rmse(layout)
    out = {f"holdout_rmse_{kind}_ppm": rmse[kind] for kind in MODELS}
    out["sizes"] = {"kept_soundings": _count_kept_soundings(layout),
                    **_dataset_sizes(layout.out / "dataset.csv"),
                    "trained_rows": _dataset_sizes(_train_set(layout))["train_rows"]}
    return out


# ------------------------------------------------------------------- set-up


def _apply_setup(layout: Layout) -> Steps:
    built, dataset = layout.setup / "dataset.csv", layout.setup / "train_set.csv"
    return [
        ("synth", layout.synth()),
        ("build_dataset", layout.build_dataset(built)),
        ("fixed_training_rows", lambda: _fixed_training_rows(built, dataset)),
        ("train_gbt", layout.train(dataset, "gbt", layout.setup / "gbt.txt")),
        ("train_mlp",
         layout.train(dataset, "mlp", layout.setup / "mlp.txt", "--epochs", EXPLAIN_MLP_EPOCHS)),
    ]


# ------------------------------------------------------------------- raster


def _raster_steps(layout: Layout) -> Steps:
    p = layout.profile
    inputs = ["--soundings", layout.campaign_csv("soundings"),
              "--weather", layout.campaign_csv("weather")]
    return [
        ("predict_grid",
         ["predict-grid", "--model-file", str(layout.setup / "gbt.txt"), *inputs,
          "--bbox", BBOX, "--res", p.grid_res, "--k", str(K), "--p", repr(P),
          "--out", str(layout.out / "grid")]),
        ("sweep",
         ["sweep", *inputs, "--bbox", BBOX, "--res", p.sweep_res,
          "--out", str(layout.out / "sweep.csv")]),
    ]


def _grid_cells(layout: Layout):
    rows = _read_csv(layout.out / "grid.csv")
    return tuple(np.array([float(r[c]) for r in rows])
                 for c in ("latitude_deg", "longitude_deg", "co2_ppm"))


def _expected_cells(res: str) -> int:
    s, w, n, e = (float(v) for v in BBOX.split(","))
    r = float(res)
    return int((n - s) / r + 1e-9) * int((e - w) / r + 1e-9)


def _raster_checks(layout: Layout):
    p = layout.profile
    inputs: list = []

    def points(model_file):
        """Point values from the model, or the raw xco2 without one."""
        if not inputs:
            inputs.extend(_prediction_inputs(layout))
        lats, lons, X = inputs
        values = predict_batch(load(model_file), X) if model_file else X[:, 0]
        return lats, lons, np.asarray(values, dtype=np.float64)

    def grid_in_range():
        _, _, values = points(layout.setup / "gbt.txt")
        _, _, cells = _grid_cells(layout)
        expect(cells.size == _expected_cells(p.grid_res), f"grid has {cells.size} cells")
        expect(bool(np.all(np.isfinite(cells))), "grid has non-finite cells")
        expect(bool(np.all((cells >= values.min()) & (cells <= values.max()))),
               "grid cells outside the range of the point values")

    def grid_matches_oracle():
        lats, lons, values = points(layout.setup / "gbt.txt")
        glat, glon, cells = _grid_cells(layout)
        for i in np.linspace(0, cells.size - 1, 24).astype(int):
            want = oracles.knn_value(glat[i], glon[i], lats, lons, values, K, P)
            expect(abs(cells[i] - want) <= 1e-9,
                   f"cell {i}: grid {cells[i]!r}, full-scan oracle {want!r}")

    def sweep_table():
        _, _, values = points(None)
        rows = _read_csv(layout.out / "sweep.csv")
        order = [(r["k"], float(r["p"])) for r in rows]
        expect(order == [(k, q) for k in SWEEP_K for q in SWEEP_P],
               "sweep rows are not the default K x p grid in k-major order")
        means = np.array([float(r["mean_ppm"]) for r in rows])
        expect(bool(np.all((means >= values.min()) & (means <= values.max()))),
               "sweep mean outside the range of the point values")
        expect(float(rows[-1]["std_ppm"]) == 0.0, f"K=all p=0 std is {rows[-1]['std_ppm']}, not 0")
        expect(abs(means[-1] - values.mean()) <= 1e-9, "K=all p=0 mean is not the point mean")

    return [
        ("grid cells finite and in range", grid_in_range),
        ("grid sample matches full-scan KNN", grid_matches_oracle),
        ("sweep table", sweep_table),
    ]


def _raster_sizes(layout: Layout) -> dict:
    with open(layout.out / "grid.pgm.txt", encoding="utf-8") as fh:
        meta = dict(line.strip().split(" = ", 1) for line in fh if " = " in line)
    return {
        "kept_soundings": _count_kept_soundings(layout),
        "prediction_points": int(meta["n_points"]),
        "grid_cells": int(meta["nrows"]) * int(meta["ncols"]),
        "sweep_cells": _expected_cells(layout.profile.sweep_res),
        "sweep_rasters": len(SWEEP_K) * len(SWEEP_P),
    }


# ------------------------------------------------------------------ explain


def _explain_steps(layout: Layout) -> Steps:
    return [
        (f"shapley_{kind}",
         ["importance", "--model-file", str(layout.setup / f"{kind}.txt"),
          "--dataset", str(layout.setup / "dataset.csv"), "--rows", layout.profile.shapley_rows,
          "--seed", layout.seed, "--out", str(layout.out / f"importance_{kind}.csv")])
        for kind in ("gbt", "mlp")
    ]


def _explain_checks(layout: Layout):
    def report_shape(kind):
        def check():
            rows = _read_csv(layout.out / f"importance_{kind}.csv")
            expect(sorted(r["feature"] for r in rows) == sorted(fusion.FEATURE_NAMES),
                   f"{kind}: report does not list each feature once")
            expect(sorted(int(r["rank"]) for r in rows) == list(range(1, len(rows) + 1)),
                   f"{kind}: ranks are not 1..{len(rows)}")
            values = np.array([float(r["mean_abs_attribution_ppm"]) for r in rows])
            expect(bool(np.all(np.isfinite(values) & (values >= 0.0))),
                   f"{kind}: attribution values not finite and non-negative")
        return check

    def matches_enumeration(kind):
        def check():
            X, _ = fusion.design_matrix(fusion.read_dataset(layout.setup / "dataset.csv"))
            mu = X.mean(axis=0)
            tm = load(layout.setup / f"{kind}.txt")
            predict = lambda A: predict_batch(tm, A)  # noqa: E731
            rows = [0, X.shape[0] // 2]
            phis = np.array([oracles.shapley_values(predict, X[r], mu) for r in rows])
            gap = predict(X[rows]) - predict(mu[None, :])[0]
            expect(bool(np.all(np.abs(phis.sum(axis=1) - gap) <= 1e-6)),
                   f"{kind}: sum of phi differs from f(x) - f(mu)")
            report = shapley_attribution(tm, X[rows], X, max_rows=len(rows))
            got = {e.feature: e.value for e in report.entries}
            want = np.abs(phis).mean(axis=0)
            worst = max(abs(got[name] - want[i]) for i, name in enumerate(fusion.FEATURE_NAMES))
            expect(worst <= 1e-9, f"{kind}: attribution differs from enumeration by {worst}")
        return check

    return (
        [(f"{kind} report well formed", report_shape(kind)) for kind in ("gbt", "mlp")]
        + [(f"{kind} matches 2^d enumeration", matches_enumeration(kind))
           for kind in ("gbt", "mlp")]
    )


def _explain_sizes(layout: Layout) -> dict:
    sizes = _dataset_sizes(layout.setup / "dataset.csv")
    return {
        "dataset_rows": sizes["dataset_rows"],
        "explained_rows": min(int(layout.profile.shapley_rows), sizes["dataset_rows"]),
        "coalitions_per_row": 1 << len(fusion.FEATURE_NAMES),
    }


# -------------------------------------------------------------------- apply


def _apply_steps(layout: Layout) -> Steps:
    return _raster_steps(layout) + _explain_steps(layout)


def _apply_checks(layout: Layout):
    return _raster_checks(layout) + _explain_checks(layout)


def _apply_results(layout: Layout) -> dict:
    return {"sizes": {**_raster_sizes(layout), **_explain_sizes(layout)}}


WORKLOADS = {
    "fit": Workload("fit", _fit_setup, _fit_steps, _fit_checks, _fit_results, 3),
    "apply": Workload("apply", _apply_setup, _apply_steps, _apply_checks, _apply_results, 2),
}
