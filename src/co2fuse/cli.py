"""Command-line pipeline driver.

Subcommands: build-dataset, train, evaluate, predict-grid, sweep,
importance, synth. Flags may also be given in a line-oriented config file
(`key = value`, `#` comments, keys spelled like the long flags); explicit
flags win over config values and unknown config keys are errors.

All randomness derives from the single --seed flag plus a fixed per-command
offset (train +1, synth +2, importance +3; the other commands draw nothing).

With -v/--verbose (before the subcommand) the INFO log lines go to stderr:
rows dropped as malformed or by the quality flag or the weather window, and
the match funnel. stdout is the same with or without it.

Exit codes: 0 success, 2 bad input or schema, 3 empty data, 64 usage.
"""

from __future__ import annotations

import argparse
import logging
import sys
from types import SimpleNamespace

import numpy as np

from . import fusion, ingest, interpolate, metrics
from .errors import Co2FuseError, EmptyDatasetError, NoDataError
from .geo import BoundingBox, GridSpec
from .importance import (
    REPORT_CSV_HEADER,
    bar_summary,
    permutation_importance,
    shapley_attribution,
    write_report_csv,
)
from .models import (
    CatBoostConfig,
    GbtConfig,
    MlpConfig,
    MODEL_KINDS,
    TrainedModel,
    load,
    predict_batch,
    save,
    train_baseline,
    train_catboost,
    train_gbt,
    train_mlp,
)
from .synth import SynthConfig, generate_campaign, write_campaign

SEED_OFFSETS = {"train": 1, "synth": 2, "importance": 3}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64, distinct from data problems
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _read_config(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_k(text: str):
    lowered = text.strip().lower()
    if lowered in ("all", "inf", "infinity"):
        return None
    k = int(lowered)
    if k < 1:
        raise ValueError("k must be >= 1 or 'all'")
    return k


def _parse_k_list(text: str):
    return tuple(_parse_k(t) for t in text.split(","))


def _parse_p_list(text: str):
    return tuple(float(t) for t in text.split(","))


def _parse_ids(text: str) -> tuple[str, ...]:
    ids = tuple(t.strip() for t in text.split(",") if t.strip())
    if not ids:
        raise ValueError("expected a comma-separated list of station ids")
    return ids


def _resolve(args, option_spec: dict):
    """Merge CLI values, config-file values and defaults (in that priority)."""
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(option_spec)
    if unknown:
        raise ValueError(f"unknown config key(s): {sorted(unknown)}")
    resolved = {}
    for dest, (default, cast) in option_spec.items():
        value = getattr(args, dest, None)
        if value is None:
            raw = config.get(dest)
            value = cast(raw) if raw is not None else default
        resolved[dest] = value
    return SimpleNamespace(**resolved)


def _require(ns, *names):
    for name in names:
        if getattr(ns, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required (flag or config file)")


def _out_stream(path):
    return open(path, "w", encoding="utf-8") if path else sys.stdout


# ---------------------------------------------------------------- commands

BUILD_OPTIONS = {
    "soundings": (None, str),
    "stations": (None, str),
    "series": (None, str),
    "weather": (None, str),
    "radius_km": (25.0, float),
    "time_window_min": (60.0, float),
    "weather_window": (ingest.DEFAULT_WEATHER_WINDOW, ingest.parse_weather_window),
    "no_quality_filter": (False, _parse_bool),
    "out": ("dataset.csv", str),
    "seed": (0, int),
}


def cmd_build_dataset(args) -> int:
    ns = _resolve(args, BUILD_OPTIONS)
    _require(ns, "soundings", "stations", "series", "weather")
    soundings = ingest.read_soundings(ns.soundings, quality_filter=not ns.no_quality_filter)
    catalog = ingest.read_station_catalog(ns.stations)
    series = ingest.read_station_series(ns.series)
    archive = ingest.read_weather(ns.weather, window=ns.weather_window)
    cfg = fusion.MatchConfig(max_distance_km=ns.radius_km, max_time_minutes=ns.time_window_min)
    samples = fusion.build_dataset(soundings, catalog, series, archive, cfg)
    fusion.write_dataset(samples, ns.out)
    rate = len(samples) / len(soundings) if soundings else 0.0
    print(
        f"matched {len(samples)} of {len(soundings)} soundings "
        f"(match rate {100.0 * rate:.1f}%) -> {ns.out}"
    )
    return 0


TRAIN_OPTIONS = {
    "dataset": (None, str),
    "model": (None, str),
    "holdout_stations": ((), _parse_ids),
    "seed": (0, int),
    "out": ("model.txt", str),
    "epochs": (200, int),
    "batch_size": (32, int),
    "learning_rate": (None, float),  # per-kind default when unset
    "l2_lambda": (5e-3, float),
    "n_estimators": (100, int),
    "max_depth": (6, int),
    "iterations": (100, int),
    "classes": (25, int),
    "l2_leaf_reg": (3.0, float),
    "decode": ("argmax", str),
}


def _train_model(kind, X, y, ns, seed) -> TrainedModel:
    if kind == "baseline":
        return TrainedModel("baseline", train_baseline(X, y))
    if kind == "gbt":
        cfg = GbtConfig(
            max_depth=ns.max_depth,
            learning_rate=ns.learning_rate if ns.learning_rate is not None else 0.1,
            n_estimators=ns.n_estimators,
        )
        return TrainedModel("gbt", train_gbt(X, y, cfg))
    if kind == "catboost":
        cfg = CatBoostConfig(
            nbr_classes=ns.classes,
            max_depth=ns.max_depth,
            learning_rate=ns.learning_rate if ns.learning_rate is not None else 0.1,
            iterations=ns.iterations,
            l2_leaf_reg=ns.l2_leaf_reg,
            decode=ns.decode,
        )
        return TrainedModel("catboost", train_catboost(X, y, cfg))
    if kind == "mlp":
        cfg = MlpConfig(
            learning_rate=ns.learning_rate if ns.learning_rate is not None else 0.001,
            l2_lambda=ns.l2_lambda,
            epochs=ns.epochs,
            batch_size=ns.batch_size,
            seed=seed,
        )
        stats = fusion.fit_norm_stats(X)
        model = train_mlp(fusion.standardize(X, stats), y, cfg, norm=stats)
        return TrainedModel("mlp", model)
    raise ValueError(f"unknown model kind {kind!r}")


def cmd_train(args) -> int:
    ns = _resolve(args, TRAIN_OPTIONS)
    _require(ns, "dataset", "model")
    dataset = fusion.read_dataset(ns.dataset)
    train, _ = fusion.split_by_station(dataset, set(ns.holdout_stations))
    if not train:
        raise EmptyDatasetError("no training samples left after the station holdout")
    X, y = fusion.design_matrix(train)
    tm = _train_model(ns.model, X, y, ns, seed=ns.seed + SEED_OFFSETS["train"])
    save(tm, ns.out)
    print(f"trained {ns.model} on {len(train)} samples -> {ns.out}")
    return 0


EVAL_OPTIONS = {
    "dataset": (None, str),
    "model_file": (None, lambda s: tuple(s.split(","))),
    "holdout_stations": (None, _parse_ids),
    "p_features": (None, int),
    "out": (None, str),
    "seed": (0, int),
}


def cmd_evaluate(args) -> int:
    ns = _resolve(args, EVAL_OPTIONS)
    _require(ns, "dataset", "model_file", "holdout_stations")
    dataset = fusion.read_dataset(ns.dataset)
    _, test = fusion.split_by_station(dataset, set(ns.holdout_stations))
    if not test:
        raise EmptyDatasetError("holdout stations have no samples to evaluate on")
    X, y = fusion.design_matrix(test)
    stream = _out_stream(ns.out)
    try:
        print(metrics.EVAL_CSV_HEADER, file=stream)
        for path in ns.model_file:
            tm = load(path)
            yhat = predict_batch(tm, X)
            p = ns.p_features
            if p is None:
                p = 1 if tm.kind == "baseline" else fusion.N_FEATURES
            report = metrics.evaluate(y, yhat, p_features=p)
            print(report.csv_row(tm.kind), file=stream)
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


def _prediction_points(model_file, soundings_path, weather_path):
    """Model predictions at every sounding location, as valued points."""
    soundings = ingest.read_soundings(soundings_path, quality_filter=True)
    archive = ingest.read_weather(weather_path)
    X, usable = fusion.weather_features(soundings, archive)
    if not len(X):
        raise EmptyDatasetError("no sounding had usable weather context")
    if model_file:
        values = predict_batch(load(model_file), X)
    else:
        values = X[:, 0]  # raw xco2 fallback
    locations = [s.location for s, ok in zip(soundings, usable) if ok]
    points = [
        interpolate.ValuedPoint(loc, float(v)) for loc, v in zip(locations, values)
    ]
    skipped = len(soundings) - len(points)
    if skipped:
        print(f"note: skipped {skipped} sounding(s) without nearby weather", file=sys.stderr)
    return points


GRID_OPTIONS = {
    "model_file": (None, str),
    "soundings": (None, str),
    "weather": (None, str),
    "bbox": (None, BoundingBox.parse),
    "res": (None, float),
    "k": (interpolate.DEFAULT_GRID_K, _parse_k),
    "p": (interpolate.DEFAULT_GRID_P, float),
    "out": ("grid", str),
    "seed": (0, int),
}


def cmd_predict_grid(args) -> int:
    ns = _resolve(args, GRID_OPTIONS)
    _require(ns, "model_file", "soundings", "weather", "bbox", "res")
    points = _prediction_points(ns.model_file, ns.soundings, ns.weather)
    spec = GridSpec(bbox=ns.bbox, resolution=ns.res)
    params = interpolate.KnnParams(k=ns.k, p=ns.p)
    grid = interpolate.rasterize(points, spec, params)
    csv_path = f"{ns.out}.csv"
    asc_path = f"{ns.out}.asc"
    pgm_path = f"{ns.out}.pgm"
    interpolate.write_grid_csv(grid, csv_path)
    interpolate.write_ascii_grid(grid, asc_path)
    interpolate.write_pgm(
        grid,
        pgm_path,
        extra_meta={
            "k": interpolate.format_k(ns.k),
            "p": repr(ns.p),
            "bbox": f"{ns.bbox.south},{ns.bbox.west},{ns.bbox.north},{ns.bbox.east}",
            "resolution_deg": repr(ns.res),
            "n_points": len(points),
        },
    )
    print(
        f"rasterized {len(points)} prediction points to {spec.nrows}x{spec.ncols} cells "
        f"(mean {grid.mean:.2f} ppm, std {grid.std:.2f}) -> {csv_path}, {asc_path}, {pgm_path}"
    )
    return 0


SWEEP_OPTIONS = {
    "model_file": (None, str),
    "soundings": (None, str),
    "weather": (None, str),
    "bbox": (None, BoundingBox.parse),
    "res": (None, float),
    "k_list": (interpolate.DEFAULT_K_LIST, _parse_k_list),
    "p_list": (interpolate.DEFAULT_P_LIST, _parse_p_list),
    "out": (None, str),
    "seed": (0, int),
}


def cmd_sweep(args) -> int:
    ns = _resolve(args, SWEEP_OPTIONS)
    _require(ns, "soundings", "weather", "bbox", "res")
    points = _prediction_points(ns.model_file, ns.soundings, ns.weather)
    spec = GridSpec(bbox=ns.bbox, resolution=ns.res)
    rows = interpolate.sweep(points, spec, ns.k_list, ns.p_list)
    stream = _out_stream(ns.out)
    try:
        print(interpolate.SWEEP_CSV_HEADER, file=stream)
        for row in rows:
            print(
                f"{interpolate.format_k(row.k)},{row.p!r},{row.mean_ppm!r},{row.std_ppm!r}",
                file=stream,
            )
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


IMPORTANCE_OPTIONS = {
    "model_file": (None, str),
    "dataset": (None, str),
    "method": ("shapley", str),
    "rows": (256, int),
    "repeats": (5, int),
    "seed": (0, int),
    "out": (None, str),
}


def cmd_importance(args) -> int:
    ns = _resolve(args, IMPORTANCE_OPTIONS)
    _require(ns, "model_file", "dataset")
    if ns.method not in ("shapley", "permutation"):
        raise ValueError(f"unknown attribution method {ns.method!r}")
    tm = load(ns.model_file)
    dataset = fusion.read_dataset(ns.dataset)
    X, y = fusion.design_matrix(dataset)
    seed = ns.seed + SEED_OFFSETS["importance"]
    if ns.method == "shapley":
        report = shapley_attribution(tm, X, X, seed=seed, max_rows=ns.rows)
    else:
        report = permutation_importance(tm, (X, y), repeats=ns.repeats, seed=seed)
    if ns.out:
        write_report_csv(report, ns.out)
    else:
        print(REPORT_CSV_HEADER)
        for e in report.entries:
            print(f"{e.feature},{e.value!r},{e.rank},{report.method}")
    print(bar_summary(report), file=sys.stderr)
    return 0


SYNTH_OPTIONS = {
    "out": (None, str),
    "bbox": (SynthConfig().bbox, BoundingBox.parse),
    "n_stations": (SynthConfig().n_stations, int),
    "n_transects": (SynthConfig().n_transects, int),
    "soundings_per_transect": (SynthConfig().soundings_per_transect, int),
    "days": (SynthConfig().days, int),
    "noise_std": (SynthConfig().noise_std, float),
    "seed": (0, int),
}


def cmd_synth(args) -> int:
    ns = _resolve(args, SYNTH_OPTIONS)
    _require(ns, "out")
    cfg = SynthConfig(
        seed=ns.seed + SEED_OFFSETS["synth"],
        bbox=ns.bbox,
        n_stations=ns.n_stations,
        n_transects=ns.n_transects,
        soundings_per_transect=ns.soundings_per_transect,
        days=ns.days,
        noise_std=ns.noise_std,
    )
    campaign = generate_campaign(cfg)
    paths = write_campaign(campaign, ns.out)
    print(
        f"wrote campaign to {ns.out}: {len(campaign.soundings)} soundings, "
        f"{len(campaign.catalog)} stations, {len(campaign.series)} observations, "
        f"{len(campaign.archive)} weather samples"
    )
    for p in paths.values():
        print(f"  {p}")
    return 0


# ------------------------------------------------------------------ parser


def _add_common(p):
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--seed", type=int, help="base seed (default 0)")
    p.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="co2fuse", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log input counts and the match funnel to stderr")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("build-dataset", help="match soundings to stations and weather")
    _add_common(p)
    p.add_argument("--soundings")
    p.add_argument("--stations")
    p.add_argument("--series")
    p.add_argument("--weather")
    p.add_argument("--radius-km", type=float, dest="radius_km")
    p.add_argument("--time-window-min", type=float, dest="time_window_min")
    p.add_argument("--weather-window", type=ingest.parse_weather_window, dest="weather_window")
    p.add_argument("--no-quality-filter", action="store_const", const=True,
                   dest="no_quality_filter")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="train one model kind on non-holdout stations")
    _add_common(p)
    p.add_argument("--dataset")
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--holdout-stations", type=_parse_ids, dest="holdout_stations")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--l2-lambda", type=float, dest="l2_lambda")
    p.add_argument("--n-estimators", type=int, dest="n_estimators")
    p.add_argument("--max-depth", type=int, dest="max_depth")
    p.add_argument("--iterations", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--l2-leaf-reg", type=float, dest="l2_leaf_reg")
    p.add_argument("--decode", choices=("argmax", "expectation"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score model files on the holdout stations")
    _add_common(p)
    p.add_argument("--dataset")
    p.add_argument("--model-file", type=lambda s: tuple(s.split(",")), dest="model_file",
                   help="one or more model files, comma separated")
    p.add_argument("--holdout-stations", type=_parse_ids, dest="holdout_stations")
    p.add_argument("--p-features", type=int, dest="p_features")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict-grid", help="interpolate model predictions onto a raster")
    _add_common(p)
    p.add_argument("--model-file", dest="model_file")
    p.add_argument("--soundings")
    p.add_argument("--weather")
    p.add_argument("--bbox", type=BoundingBox.parse)
    p.add_argument("--res", type=float)
    p.add_argument("--k", type=_parse_k)
    p.add_argument("--p", type=float)
    p.set_defaults(func=cmd_predict_grid)

    p = sub.add_parser("sweep", help="(K, p) ablation table over rasterizations")
    _add_common(p)
    p.add_argument("--model-file", dest="model_file",
                   help="optional; raw xco2 values are swept when omitted")
    p.add_argument("--soundings")
    p.add_argument("--weather")
    p.add_argument("--bbox", type=BoundingBox.parse)
    p.add_argument("--res", type=float)
    p.add_argument("--k-list", type=_parse_k_list, dest="k_list")
    p.add_argument("--p-list", type=_parse_p_list, dest="p_list")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("importance", help="feature attribution report")
    _add_common(p)
    p.add_argument("--model-file", dest="model_file")
    p.add_argument("--dataset")
    p.add_argument("--method", choices=("shapley", "permutation"))
    p.add_argument("--rows", type=int)
    p.add_argument("--repeats", type=int)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("synth", help="generate a synthetic campaign directory")
    _add_common(p)
    p.add_argument("--bbox", type=BoundingBox.parse)
    p.add_argument("--n-stations", type=int, dest="n_stations")
    p.add_argument("--n-transects", type=int, dest="n_transects")
    p.add_argument("--soundings-per-transect", type=int, dest="soundings_per_transect")
    p.add_argument("--days", type=int)
    p.add_argument("--noise-std", type=float, dest="noise_std")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    try:
        return args.func(args)
    except (EmptyDatasetError, NoDataError) as exc:
        print(f"co2fuse: empty data: {exc}", file=sys.stderr)
        return 3
    except (Co2FuseError, OSError, ValueError) as exc:
        print(f"co2fuse: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
