"""Smoke mode: every workload, untraced and traced, on a tiny campaign.

Fails unless each run is correct, reports exactly the metrics BENCHMARK.json
lists with the units it gives, and reports its workload's named results.
"""

from __future__ import annotations

from pathlib import Path

import harness
from workloads import SMOKE, WORKLOADS

COMMON_RESULTS = ("setup_s", "peak_rss_mb", "error_rate")
WORKLOAD_RESULTS = {
    "fit": (
        "build_dataset_s", "train_gbt_s", "train_catboost_s", "train_mlp_s",
        "holdout_rmse_baseline_ppm", "holdout_rmse_gbt_ppm",
        "holdout_rmse_catboost_ppm", "holdout_rmse_mlp_ppm",
    ),
    "apply": ("predict_grid_s", "sweep_s", "shapley_gbt_s", "shapley_mlp_s"),
}


def _units(result_metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result_metrics.items()}


def run(work: Path, benchmark: dict) -> int:
    declared = {
        False: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        True: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            run_id = f"{name} trace={int(trace)}"
            result, detail = harness.run_workload(
                name, 43, 0.0, trace, work / run_id.replace(" ", "-"), SMOKE
            )
            problems += [f"{run_id}: {f}" for f in detail["failures"]]
            got = _units(result["metrics"])
            if got != declared[trace]:
                wrong = sorted(set(got.items()) ^ set(declared[trace].items()))
                problems.append(f"{run_id}: metrics differ from BENCHMARK.json: {wrong}")
            if not trace:
                missing = [m for m in COMMON_RESULTS + WORKLOAD_RESULTS[name]
                           if m not in detail["workload_metrics"]]
                if missing:
                    problems.append(f"{run_id}: workload results missing: {missing}")
            print(f"{run_id}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed", flush=True)
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 0 if not problems else 1
