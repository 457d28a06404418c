"""Which co2fuse functions the traced run wraps, and the per-layer metrics.

Every hook names the attribute its caller looks up. The CLI binds most model
functions with ``from .models import ...``, so ``train_gbt`` is wrapped as
``co2fuse.cli.train_gbt`` and ``fit_tree`` as ``co2fuse.models.gbt.fit_tree``
and ``co2fuse.models.category.fit_tree``. Functions called through their
module (``ingest.read_soundings``, ``fusion.build_dataset``, ...) are wrapped
on that module.
"""

from __future__ import annotations

import numpy as np

from tracer import Hook, Tracer


def _records(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["ingest.records"] += len(result)
    tracer.read_paths.append(str(args[0]))


def _matched(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["fusion.samples"] += len(result)
    tracer.counts["fusion.soundings"] += len(args[0])


def _node_count(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack += [node.left, node.right]
    return count


def _tree_nodes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["trees.fit_tree.nodes"] += _node_count(result)


def _rows(key: str, position: int):
    def on_return(tracer: Tracer, args, kwargs, result) -> None:
        tracer.counts[key] += np.atleast_2d(args[position]).shape[0]

    return on_return


def _step_flops(tracer: Tracer, args, kwargs, result) -> None:
    """Matmul FLOPs of one mini-batch step: forward, weight grads and the
    back-propagated deltas (which skip the input layer)."""
    model, X = args[0], np.atleast_2d(args[1])
    macs = sum(w.shape[0] * w.shape[1] for w in model.weights)
    first = model.weights[0].shape[0] * model.weights[0].shape[1]
    tracer.counts["mlp.train.flop"] += 2 * X.shape[0] * (3 * macs - first)


def _distances(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["interpolate.distances_computed"] += np.size(args[1])


def _neighbours(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["interpolate.neighbours"] += len(result[0])


def _coalitions(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["importance.coalitions_evaluated"] += 1 << np.shape(args[1])[0]


HOOKS = (
    Hook("synth.generate_campaign", ["co2fuse.cli.generate_campaign"]),
    Hook("synth.write_campaign", ["co2fuse.cli.write_campaign"]),
    Hook("ingest.read_soundings", ["co2fuse.ingest.read_soundings"], _records),
    Hook("ingest.read_weather", ["co2fuse.ingest.read_weather"], _records),
    Hook("ingest.read_station_series", ["co2fuse.ingest.read_station_series"], _records),
    Hook("ingest.read_station_catalog", ["co2fuse.ingest.read_station_catalog"], _records),
    Hook("fusion.build_dataset", ["co2fuse.fusion.build_dataset"], _matched),
    Hook("fusion.write_dataset", ["co2fuse.fusion.write_dataset"]),
    Hook("fusion.read_dataset", ["co2fuse.fusion.read_dataset"]),
    Hook("fusion.nearest_weather", ["co2fuse.fusion.nearest_weather"]),
    Hook("baseline.train_baseline", ["co2fuse.cli.train_baseline"]),
    Hook("gbt.train_gbt", ["co2fuse.cli.train_gbt"]),
    Hook("category.train_catboost", ["co2fuse.cli.train_catboost"]),
    Hook(
        "trees.fit_tree",
        ["co2fuse.models.gbt.fit_tree", "co2fuse.models.category.fit_tree"],
        _tree_nodes,
    ),
    Hook(
        "trees.predict_tree",
        ["co2fuse.models.gbt.predict_tree", "co2fuse.models.category.predict_tree"],
        _rows("trees.predict_tree.rows", 1),
    ),
    Hook("mlp.train_mlp", ["co2fuse.cli.train_mlp"]),
    Hook("mlp.loss_and_gradients", ["co2fuse.models.mlp.loss_and_gradients"], _step_flops),
    Hook("mlp.forward", ["co2fuse.models.mlp.MlpModel.forward"], _rows("mlp.forward.rows", 1)),
    Hook("persist.save", ["co2fuse.cli.save"]),
    Hook("persist.load", ["co2fuse.cli.load"]),
    Hook(
        "persist.predict_batch",
        ["co2fuse.cli.predict_batch", "co2fuse.models.predict_batch"],
        _rows("persist.predict_batch.rows", 1),
    ),
    Hook("metrics.evaluate", ["co2fuse.metrics.evaluate"]),
    Hook("interpolate.PointSet", ["co2fuse.interpolate.PointSet.__init__"]),
    Hook("interpolate.rasterize", ["co2fuse.interpolate.rasterize"]),
    Hook("interpolate.knn_interpolate", ["co2fuse.interpolate.knn_interpolate"]),
    Hook("geo.cell_centers", ["co2fuse.interpolate.cell_centers"]),
    Hook(None, ["co2fuse.interpolate.geodesic_km_many"], _distances),
    Hook(
        None,
        [
            "co2fuse.interpolate.PointSet.k_nearest",
            "co2fuse.interpolate.PointSet.k_nearest_fullscan",
        ],
        _neighbours,
    ),
    Hook(
        "interpolate.write_outputs",
        [
            "co2fuse.interpolate.write_grid_csv",
            "co2fuse.interpolate.write_ascii_grid",
            "co2fuse.interpolate.write_pgm",
        ],
    ),
    Hook("importance.shapley_attribution", ["co2fuse.cli.shapley_attribution"]),
    Hook("importance.exact_shapley_row", ["co2fuse.importance.exact_shapley_row"], _coalitions),
)

CLI_COMMANDS = (
    "synth", "build_dataset", "train", "evaluate", "predict_grid", "sweep", "importance",
)

# layers that only run during set-up; their metrics come from the traced set-up
SETUP_SPANS = ("synth.generate_campaign", "synth.write_campaign", "cli.synth")

# (metric, unit, kind, hook): kind picks the hook's span total, self time or
# call count, or ("count") the tracer count of the metric's name that the
# hook's on_return records
SPAN_METRICS = (
    ("synth.generate_campaign.s", "s", "inclusive", "synth.generate_campaign"),
    ("synth.write_campaign.s", "s", "inclusive", "synth.write_campaign"),
    ("ingest.read_soundings.s", "s", "inclusive", "ingest.read_soundings"),
    ("ingest.read_weather.s", "s", "inclusive", "ingest.read_weather"),
    ("ingest.read_station_series.s", "s", "inclusive", "ingest.read_station_series"),
    ("fusion.build_dataset.s", "s", "inclusive", "fusion.build_dataset"),
    ("fusion.write_dataset.s", "s", "inclusive", "fusion.write_dataset"),
    ("fusion.read_dataset.s", "s", "inclusive", "fusion.read_dataset"),
    ("fusion.nearest_weather.calls", "count", "calls", "fusion.nearest_weather"),
    ("fusion.nearest_weather.s", "s", "inclusive", "fusion.nearest_weather"),
    ("trees.fit_tree.calls", "count", "calls", "trees.fit_tree"),
    ("trees.fit_tree.s", "s", "inclusive", "trees.fit_tree"),
    ("trees.fit_tree.nodes", "count", "count", "trees.fit_tree"),
    ("gbt.train_gbt.self_s", "s", "self", "gbt.train_gbt"),
    ("category.train_catboost.self_s", "s", "self", "category.train_catboost"),
    ("trees.predict_tree.calls", "count", "calls", "trees.predict_tree"),
    ("trees.predict_tree.rows", "count", "count", "trees.predict_tree"),
    ("trees.predict_tree.s", "s", "inclusive", "trees.predict_tree"),
    ("mlp.loss_and_gradients.calls", "count", "calls", "mlp.loss_and_gradients"),
    ("mlp.loss_and_gradients.s", "s", "inclusive", "mlp.loss_and_gradients"),
    ("mlp.train_mlp.self_s", "s", "self", "mlp.train_mlp"),
    ("mlp.forward.rows", "count", "count", "mlp.forward"),
    ("mlp.forward.s", "s", "inclusive", "mlp.forward"),
    ("persist.save.s", "s", "inclusive", "persist.save"),
    ("persist.load.s", "s", "inclusive", "persist.load"),
    ("persist.predict_batch.rows", "count", "count", "persist.predict_batch"),
    ("persist.predict_batch.s", "s", "inclusive", "persist.predict_batch"),
    ("metrics.evaluate.s", "s", "inclusive", "metrics.evaluate"),
    ("interpolate.PointSet.s", "s", "inclusive", "interpolate.PointSet"),
    ("interpolate.rasterize.s", "s", "inclusive", "interpolate.rasterize"),
    ("interpolate.knn_interpolate.calls", "count", "calls", "interpolate.knn_interpolate"),
    ("interpolate.knn_interpolate.s", "s", "inclusive", "interpolate.knn_interpolate"),
    ("geo.cell_centers.s", "s", "inclusive", "geo.cell_centers"),
    ("interpolate.distances_computed", "count", "count", "co2fuse.interpolate.geodesic_km_many"),
    ("interpolate.write_outputs.s", "s", "inclusive", "interpolate.write_outputs"),
    ("importance.exact_shapley_row.calls", "count", "calls", "importance.exact_shapley_row"),
    ("importance.exact_shapley_row.self_s", "s", "self", "importance.exact_shapley_row"),
    ("importance.coalitions_evaluated", "count", "count", "importance.exact_shapley_row"),
) + tuple((f"cli.{c}.self_s", "s", "self", f"cli.{c}") for c in CLI_COMMANDS)

# metrics computed from other values; each lists the hook spans it needs
DERIVED_METRICS = (
    ("ingest.kept_ratio", "ratio", ("ingest.read_soundings",)),
    ("fusion.match_ratio", "ratio", ("fusion.build_dataset",)),
    ("mlp.train.gflop", "GFLOP", ("mlp.loss_and_gradients",)),
    ("mlp.train.gflop_per_s", "GFLOP/s", ("mlp.loss_and_gradients",)),
    (
        "interpolate.knn.useful_ratio",
        "ratio",
        ("co2fuse.interpolate.geodesic_km_many", "co2fuse.interpolate.PointSet.k_nearest"),
    ),
    ("process.cpu_per_wall", "ratio", ()),
    ("trace.overhead_s", "s", ()),
)

UNITS = {name: unit for name, unit, *_ in SPAN_METRICS + DERIVED_METRICS}

def missing_hooks(absent_targets) -> set[str]:
    """Hooks none of whose targets could be found."""
    absent = set(absent_targets)
    return {h.key for h in HOOKS if all(t in absent for t in h.targets)}


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1  # minus the header


def layer_metrics(
    setup: Tracer, passes: list[Tracer], missing: set[str], cpu_per_wall: float, overhead_s: float
) -> dict[str, float]:
    """Per-layer metrics: times are the mean over the traced passes, counts
    come from the first (the caller checks they repeat). Layer metrics of
    hooks whose functions are gone are left out."""
    setup_totals = setup.totals()
    pass_totals = [t.totals() for t in passes]
    kinds = {"inclusive": 0, "self": 1, "calls": 2}
    out: dict[str, float] = {}
    for name, _, kind, source in SPAN_METRICS:
        if source in missing:
            continue
        if kind == "count":
            out[name] = float(passes[0].counts.get(name, 0.0))
        elif source in SETUP_SPANS:
            out[name] = float(setup_totals[kinds[kind]].get(source, 0.0))
        else:
            values = [totals[kinds[kind]].get(source, 0.0) for totals in pass_totals]
            out[name] = float(values[0]) if kind == "calls" else float(np.mean(values))

    first = passes[0]
    lines = sum(_count_lines(p) for p in first.read_paths)
    derived = {
        "ingest.kept_ratio": first.counts["ingest.records"] / lines if lines else 0.0,
        "fusion.match_ratio": _ratio(
            first.counts["fusion.samples"], first.counts["fusion.soundings"]
        ),
        "mlp.train.gflop": first.counts["mlp.train.flop"] / 1e9,
        # the FLOPs counted are those of the gradient steps, so they are
        # divided by the steps' time, not by all of train_mlp's
        "mlp.train.gflop_per_s": _ratio(
            first.counts["mlp.train.flop"] / 1e9,
            float(np.mean([t[0].get("mlp.loss_and_gradients", 0.0) for t in pass_totals])),
        ),
        "interpolate.knn.useful_ratio": _ratio(
            first.counts["interpolate.neighbours"], first.counts["interpolate.distances_computed"]
        ),
        "process.cpu_per_wall": cpu_per_wall,
        "trace.overhead_s": overhead_s,
    }
    for name, _, needs in DERIVED_METRICS:
        if not any(n in missing for n in needs):
            out[name] = float(derived[name])
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work in the pass."""
    return num / den if den else 0.0


def exact_counts(tracer: Tracer) -> dict[str, float]:
    """Every count and call number of a traced pass, for the repeat check."""
    counts = {k: v for k, v in tracer.counts.items()}
    counts.update({f"{k}.calls": v for k, v in tracer.totals()[2].items()})
    return counts
