"""Command-line pipeline driver.

Subcommands: build-dataset, train, evaluate, predict-grid, sweep,
importance, synth. Each command's options are declared once, in COMMANDS:
flag, cast, default, whether it is required and any argparse extras. Every
flag is also a key of a line-oriented config file (`key = value`, `#`
comments, keys spelled like the long flags, with `-` or `_`); a required
option may come from either. Explicit flags win over config values,
config values over the defaults, and unknown config keys are errors. A bad
flag value is a usage error (64), a bad config value a bad input (2). train
and importance refuse, in the same way, an option that their --model kind
or --method does not read.

Only train, synth and importance draw random numbers. Their --seed plus a
fixed per-command offset (train +1, synth +2, importance +3) seeds them.

With -v/--verbose (before the subcommand) the INFO log lines go to stderr:
rows dropped as malformed or by the quality flag or the weather window, and
the match funnel. stdout is the same with or without it.

Exit codes: 0 success, 2 bad input or schema, 3 empty data, 64 usage.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import nullcontext
from types import SimpleNamespace

from . import fusion, ingest, interpolate, metrics
from .errors import Co2FuseError, EmptyDatasetError, NoDataError
from .geo import BoundingBox, GridSpec
from .importance import (
    DEFAULT_REPEATS,
    DEFAULT_SHAPLEY_ROWS,
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
    load,
    predict_batch,
    save,
    train_baseline,
    train_catboost,
    train_gbt,
    train_mlp,
)
from .models.category import DECODE_MODES
from .synth import SynthConfig, generate_campaign, write_campaign

SEED_OFFSETS = {"train": 1, "synth": 2, "importance": 3}
METHODS = ("shapley", "permutation")
# the options whose value an option's `kinds` name: train's --model and
# importance's --method
_SELECTORS = ("model", "method")


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


def _resolve(args) -> SimpleNamespace:
    """Merge flag values, config-file values and defaults, in that priority.

    Flags are parsed with argparse.SUPPRESS, so a flag not given leaves no
    attribute on `args`, whatever value the option may legitimately take.
    A --model or --method value from the config file outside the option's
    choices is a ValueError, checked first. An option whose `kinds` leave
    out the resolved --model or --method is then refused: as a flag it is a
    usage error, as a config key a ValueError."""
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - {dest for dest, *_ in args.options}
    if unknown:
        raise ValueError(f"unknown config key(s): {sorted(unknown)}")
    resolved = {}
    for dest, _, cast, default, _ in args.options:
        if hasattr(args, dest):
            resolved[dest] = getattr(args, dest)
        else:
            resolved[dest] = cast(config[dest]) if dest in config else default
    selector = next((dest for dest in _SELECTORS if dest in resolved), None)
    kind = resolved.get(selector)
    for dest, flag, _, _, extras in args.options:
        if dest == selector and kind is not None and kind not in extras["choices"]:
            raise ValueError(f"{flag}: invalid choice {kind!r} "
                             f"(choose from {', '.join(extras['choices'])})")
    for dest, flag, _, _, extras in args.options:
        if kind is None or kind in extras.get("kinds", (kind,)):
            continue
        if hasattr(args, dest):
            args.parser.error(f"{flag} is not read by --{selector} {kind}")
        if dest in config:
            raise ValueError(f"config key {dest!r} is not read by --{selector} {kind}")
    return SimpleNamespace(**resolved)


def _require(ns, options):
    """Refuse a resolved namespace that lacks a `required` option."""
    for dest, flag, _, _, extras in options:
        if extras.get("required") and getattr(ns, dest) is None:
            raise ValueError(f"{flag} is required (flag or config file)")


def _output(path):
    """The file at `path` for writing, or stdout when no path is given."""
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


# ---------------------------------------------------------------- commands


def cmd_build_dataset(ns) -> int:
    soundings = ingest.read_soundings(ns.soundings, quality_filter=not ns.no_quality_filter)
    catalog = ingest.read_station_catalog(ns.stations)
    series = ingest.read_station_series(ns.series)
    archive = ingest.read_weather(ns.weather, window=ns.weather_window)
    cfg = fusion.MatchConfig(max_distance_km=ns.radius_km, max_time_minutes=ns.time_window_min)
    dataset = fusion.build_dataset(soundings, catalog, series, archive, cfg)
    fusion.write_dataset(dataset, ns.out)
    rate = len(dataset) / len(soundings) if soundings else 0.0
    print(
        f"matched {len(dataset)} of {len(soundings)} soundings "
        f"(match rate {100.0 * rate:.1f}%) -> {ns.out}"
    )
    return 0


def _train_model(kind, X, y, ns, seed):
    # an unset --learning-rate leaves each model kind its own default
    rate = {} if ns.learning_rate is None else {"learning_rate": ns.learning_rate}
    if kind == "baseline":
        return train_baseline(X, y)
    if kind == "gbt":
        cfg = GbtConfig(max_depth=ns.max_depth, n_estimators=ns.n_estimators, **rate)
        return train_gbt(X, y, cfg)
    if kind == "catboost":
        cfg = CatBoostConfig(
            nbr_classes=ns.classes,
            max_depth=ns.max_depth,
            iterations=ns.iterations,
            l2_leaf_reg=ns.l2_leaf_reg,
            decode=ns.decode,
            **rate,
        )
        return train_catboost(X, y, cfg)
    if kind == "mlp":
        cfg = MlpConfig(
            l2_lambda=ns.l2_lambda, epochs=ns.epochs, batch_size=ns.batch_size, seed=seed, **rate
        )
        return train_mlp(X, y, cfg)
    raise ValueError(f"unknown model kind {kind!r}")


def cmd_train(ns) -> int:
    dataset = fusion.read_dataset(ns.dataset)
    train, _ = fusion.split_by_station(dataset, set(ns.holdout_stations))
    if not train:
        raise EmptyDatasetError("no training samples left after the station holdout")
    model = _train_model(ns.model, train.X, train.y, ns, seed=ns.seed + SEED_OFFSETS["train"])
    save(model, ns.out)
    print(f"trained {ns.model} on {len(train)} samples -> {ns.out}")
    return 0


def cmd_evaluate(ns) -> int:
    dataset = fusion.read_dataset(ns.dataset)
    _, test = fusion.split_by_station(dataset, set(ns.holdout_stations))
    if not test:
        raise EmptyDatasetError("holdout stations have no samples to evaluate on")
    with _output(ns.out) as stream:
        print(metrics.EVAL_CSV_HEADER, file=stream)
        for path in ns.model_file:
            model = load(path)
            yhat = predict_batch(model, test.X)
            p = ns.p_features
            if p is None:
                p = 1 if model.kind == "baseline" else fusion.N_FEATURES
            report = metrics.evaluate(test.y, yhat, p_features=p)
            print(report.csv_row(model.kind), file=stream)
    return 0


def _prediction_points(model_file, soundings_path, weather_path):
    """Model predictions at every sounding location with usable weather."""
    soundings = ingest.read_soundings(soundings_path, quality_filter=True)
    archive = ingest.read_weather(weather_path)
    X, _ = fusion.weather_features(soundings, archive)
    if not len(X):
        raise EmptyDatasetError("no sounding had usable weather context")
    if model_file:
        values = predict_batch(load(model_file), X)
    else:
        values = X[:, 0]  # raw xco2 fallback
    skipped = len(soundings) - len(X)
    if skipped:
        print(f"note: skipped {skipped} sounding(s) without nearby weather", file=sys.stderr)
    # feature columns 2 and 3 are the sounding latitude and longitude
    return interpolate.PointSet(X[:, 2], X[:, 3], values)


def cmd_predict_grid(ns) -> int:
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


def cmd_sweep(ns) -> int:
    points = _prediction_points(ns.model_file, ns.soundings, ns.weather)
    spec = GridSpec(bbox=ns.bbox, resolution=ns.res)
    rows = interpolate.sweep(points, spec, ns.k_list, ns.p_list)
    with _output(ns.out) as stream:
        print(interpolate.SWEEP_CSV_HEADER, file=stream)
        for row in rows:
            print(
                f"{interpolate.format_k(row.k)},{row.p!r},{row.mean_ppm!r},{row.std_ppm!r}",
                file=stream,
            )
    return 0


def cmd_importance(ns) -> int:
    model = load(ns.model_file)
    dataset = fusion.read_dataset(ns.dataset)
    seed = ns.seed + SEED_OFFSETS["importance"]
    if ns.method == "shapley":
        report = shapley_attribution(model, dataset.X, dataset.X, seed=seed, max_rows=ns.rows)
    else:
        report = permutation_importance(model, (dataset.X, dataset.y), repeats=ns.repeats,
                                        seed=seed)
    with _output(ns.out) as stream:
        write_report_csv(report, stream)
    print(bar_summary(report), file=sys.stderr)
    return 0


def cmd_synth(ns) -> int:
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


# ----------------------------------------------------------------- options


def _opt(flag, cast=str, default=None, **extras):
    """One option: (dest, flag, cast, default, extras). The cast reads both
    the flag's text and the config value. The extras go to argparse, except
    `kinds`, the train --model kinds or importance --methods that read the
    option where not all, and `required`, checked on the resolved value so
    that a config key can supply it."""
    return flag[2:].replace("-", "_"), flag, cast, default, extras


def _out(default=None, **extras):
    return _opt("--out", default=default, help="output path", **extras)


_SEED = _opt("--seed", int, 0, help="base seed (default 0)")
_RASTER = (
    _opt("--soundings", required=True),
    _opt("--weather", required=True),
    _opt("--bbox", BoundingBox.parse, required=True),
    _opt("--res", float, required=True),
)

# command: (handler, help line, options)
COMMANDS = {
    "build-dataset": (cmd_build_dataset, "match soundings to stations and weather", (
        _opt("--soundings", required=True),
        _opt("--stations", required=True),
        _opt("--series", required=True),
        _opt("--weather", required=True),
        _opt("--radius-km", float, fusion.MatchConfig.max_distance_km),
        _opt("--time-window-min", float, fusion.MatchConfig.max_time_minutes),
        _opt("--weather-window", ingest.parse_weather_window, ingest.DEFAULT_WEATHER_WINDOW),
        _opt("--no-quality-filter", _parse_bool, False, action="store_const", const=True),
        _out("dataset.csv"),
    )),
    "train": (cmd_train, "train one model kind on non-holdout stations", (
        _opt("--dataset", required=True),
        _opt("--model", choices=MODEL_KINDS, required=True),
        _opt("--holdout-stations", _parse_ids, ()),
        _SEED,
        _out("model.txt"),
        _opt("--epochs", int, MlpConfig.epochs, kinds=("mlp",)),
        _opt("--batch-size", int, MlpConfig.batch_size, kinds=("mlp",)),
        _opt("--learning-rate", float, help="default: the model kind's own",
             kinds=("gbt", "catboost", "mlp")),
        _opt("--l2-lambda", float, MlpConfig.l2_lambda, kinds=("mlp",)),
        _opt("--n-estimators", int, GbtConfig.n_estimators, kinds=("gbt",)),
        # gbt and catboost share this flag and its default depth
        _opt("--max-depth", int, GbtConfig.max_depth, kinds=("gbt", "catboost")),
        _opt("--iterations", int, CatBoostConfig.iterations, kinds=("catboost",)),
        _opt("--classes", int, CatBoostConfig.nbr_classes, kinds=("catboost",)),
        _opt("--l2-leaf-reg", float, CatBoostConfig.l2_leaf_reg, kinds=("catboost",)),
        _opt("--decode", str, CatBoostConfig.decode, choices=DECODE_MODES, kinds=("catboost",)),
    )),
    "evaluate": (cmd_evaluate, "score model files on the holdout stations", (
        _opt("--dataset", required=True),
        _opt("--model-file", lambda s: tuple(s.split(",")), required=True,
             help="one or more model files, comma separated"),
        _opt("--holdout-stations", _parse_ids, required=True),
        _opt("--p-features", int),
        _out(),
    )),
    "predict-grid": (cmd_predict_grid, "interpolate model predictions onto a raster", (
        _opt("--model-file", required=True),
        *_RASTER,
        _opt("--k", _parse_k, interpolate.DEFAULT_GRID_K, help="neighbours, or 'all'"),
        _opt("--p", float, interpolate.DEFAULT_GRID_P),
        _out("grid"),
    )),
    "sweep": (cmd_sweep, "(K, p) ablation table over rasterizations", (
        _opt("--model-file", help="optional; raw xco2 values are swept when omitted"),
        *_RASTER,
        _opt("--k-list", _parse_k_list, interpolate.DEFAULT_K_LIST),
        _opt("--p-list", _parse_p_list, interpolate.DEFAULT_P_LIST),
        _out(),
    )),
    "importance": (cmd_importance, "feature attribution report", (
        _opt("--model-file", required=True),
        _opt("--dataset", required=True),
        _opt("--method", str, METHODS[0], choices=METHODS),
        _opt("--rows", int, DEFAULT_SHAPLEY_ROWS, kinds=("shapley",)),
        _opt("--repeats", int, DEFAULT_REPEATS, kinds=("permutation",)),
        _SEED,
        _out(),
    )),
    "synth": (cmd_synth, "generate a synthetic campaign directory", (
        _out(required=True),
        _opt("--bbox", BoundingBox.parse, SynthConfig.bbox),
        _opt("--n-stations", int, SynthConfig.n_stations),
        _opt("--n-transects", int, SynthConfig.n_transects),
        _opt("--soundings-per-transect", int, SynthConfig.soundings_per_transect),
        _opt("--days", int, SynthConfig.days),
        _opt("--noise-std", float, SynthConfig.noise_std),
        _SEED,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="co2fuse", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log input counts and the match funnel to stderr")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (handler, help_line, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", help="key = value config file; flags override it")
        for dest, flag, cast, _, extras in options:
            extras = {k: v for k, v in extras.items() if k not in ("kinds", "required")}
            typed = extras if "action" in extras else {"type": cast, **extras}
            p.add_argument(flag, dest=dest, default=argparse.SUPPRESS, **typed)
        p.set_defaults(func=handler, options=options, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    try:
        ns = _resolve(args)
        _require(ns, args.options)
        return args.func(ns)
    except (EmptyDatasetError, NoDataError) as exc:
        print(f"co2fuse: empty data: {exc}", file=sys.stderr)
        return 3
    except (Co2FuseError, OSError, ValueError) as exc:
        print(f"co2fuse: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
