"""Runs one workload: set-up, timed passes, output checks and the report.

Load is one client in a closed loop: the benchmark process calls
``co2fuse.cli.main(argv)`` for each command of a pass, one after another,
and starts the next pass when the last one has finished.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import co2fuse
import layers
from co2fuse.cli import main as co2fuse_main
from tracer import Instrumentation, Tracer
from workloads import FULL, WORKLOADS, Layout, Profile, Workload

# the passes of a run must write identical files, so there are always two
MIN_PASSES = 2
TRACED_PASSES = 2  # the exact counts must agree between them
# no pass starts that would end this long after the run began, judged by
# the longest pass so far
RUN_BUDGET_S = 150.0
ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SEED = 43
REFERENCE_DIGESTS = Path(__file__).with_name("reference_digests.json")


class SetupFailed(RuntimeError):
    pass


class Operations:
    """Commands and output checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")


def run_command(label: str, argv: list[str], ops: Operations,
                tracer: Tracer | None = None) -> float:
    """Run one co2fuse command in-process; returns its wall seconds."""
    sink = io.StringIO()
    gc.collect()  # so that no command pays for the garbage of the one before
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            if tracer is None:
                code = co2fuse_main(argv)
            else:
                with tracer.span("cli." + argv[0].replace("-", "_")):
                    code = co2fuse_main(argv)
        error = None if code == 0 else f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    except SystemExit as exc:  # argparse usage errors
        error = f"exit code {exc.code}: {sink.getvalue().strip()[-300:]}"
    except Exception:
        error = traceback.format_exc(limit=-3)
    elapsed = time.perf_counter() - start
    ops.record(label, error)
    return elapsed


def run_step(label: str, step, ops: Operations, tracer: Tracer | None = None) -> float | None:
    """Run a co2fuse command and return its wall seconds, or run a benchmark
    action that prepares the next command's input and return None: actions
    are left out of the timing."""
    if callable(step):
        ops.record(label, _call(step))
        return None
    return run_command(label, step, ops, tracer)


def set_up(workload: Workload, layout: Layout, ops: Operations,
           tracer: Tracer | None = None) -> float:
    """Seconds spent in the set-up's co2fuse commands."""
    shutil.rmtree(layout.setup, ignore_errors=True)
    layout.setup.mkdir(parents=True)
    before = len(ops.failures)
    seconds = 0.0
    for label, step in workload.setup(layout):
        seconds += run_step(f"set-up {label}", step, ops, tracer) or 0.0
        if len(ops.failures) > before:
            raise SetupFailed(ops.failures[-1])
    return seconds


def timed_pass(workload: Workload, layout: Layout, ops: Operations, tracer: Tracer | None = None):
    """(wall seconds, per-command seconds, CPU seconds) of one pass."""
    layout.out.mkdir(parents=True, exist_ok=True)
    cpu = os.times()
    times = {}
    for label, step in workload.steps(layout):
        seconds = run_step(label, step, ops, tracer)
        if seconds is not None:
            times[label] = seconds
    after = os.times()
    return sum(times.values()), times, (after.user - cpu.user) + (after.system - cpu.system)


def _call(fn) -> str | None:
    try:
        fn()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def digests(layout: Layout) -> dict[str, str]:
    """sha256 of every file the set-up and the timed commands wrote."""
    out = {}
    for top in (layout.setup, layout.out):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                out[str(path.relative_to(layout.root))] = digest
    return out


def check_outputs(workload: Workload, layout: Layout, ops: Operations, pass_digests) -> None:
    for name, check in workload.checks(layout):
        ops.record(f"check {name}", _call(check))
    same = all(d == pass_digests[0] for d in pass_digests)
    ops.record("check passes write identical files",
               None if same else "outputs differ between passes")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "co2fuse": str(Path(co2fuse.__file__).resolve().parent.relative_to(ROOT)),
    }


def _reference_comparison(workload: str, seed: int, profile: Profile, found: dict) -> str:
    if seed != REFERENCE_SEED or profile != FULL:
        return "not compared (reference is seed 43, full size)"
    recorded = json.loads(REFERENCE_DIGESTS.read_text())["workloads"].get(workload)
    if recorded is None:
        return "no reference recorded"
    differ = sorted(k for k in set(recorded) | set(found) if recorded.get(k) != found.get(k))
    return "identical" if not differ else "differ: " + ", ".join(differ)


def _unit(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ppm", "ppm"), ("_mb", "MiB")):
        if metric.endswith(suffix):
            return unit
    return "ratio"


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_root: Path,
                 profile: Profile = FULL) -> tuple[dict, dict]:
    """Returns (result, detail): the contract's result object and the
    supporting record printed before it."""
    workload = WORKLOADS[name]
    layout = Layout(work_root, seed, profile)
    ops = Operations()
    detail: dict = {"workload": name, "seed": seed, "trace": int(trace),
                    "profile": "full" if profile == FULL else "smoke", "environment": environment()}
    if trace:
        metrics, pass_digests = _traced_run(workload, layout, ops, detail)
    else:
        metrics, pass_digests = _untraced_run(workload, layout, ops, detail, seconds)
    check_outputs(workload, layout, ops, pass_digests)
    results = workload.results(layout)
    detail["sizes"] = results.pop("sizes")
    if not trace:
        results["error_rate"] = len(ops.failures) / ops.attempted
        detail["workload_metrics"].update(results)
        detail["workload_metrics"] = {k: {"value": v, "unit": _unit(k)}
                                      for k, v in detail["workload_metrics"].items()}
    detail["digests"] = pass_digests[-1]
    detail["reference_digests"] = _reference_comparison(name, seed, profile, pass_digests[-1])
    detail["failures"] = ops.failures
    unit = layers.UNITS.get if trace else _unit
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    return result, detail


def _untraced_run(workload: Workload, layout: Layout, ops: Operations, detail: dict,
                  seconds: float):
    """The workload's set-ups, then at least MIN_PASSES passes, and more
    while another one, as long as the longest so far, would end within
    `seconds` of the first."""
    started = time.perf_counter()
    setup_times = [set_up(workload, layout, ops) for _ in range(workload.setup_repeats)]
    passes, pass_digests = [], []
    measuring = last = time.perf_counter()
    longest = 0.0
    while True:
        passes.append(timed_pass(workload, layout, ops))
        pass_digests.append(digests(layout))
        now = time.perf_counter()
        longest, last = max(longest, now - last), now
        if len(passes) >= MIN_PASSES and now - measuring + longest > seconds:
            break
        if now - started + longest > RUN_BUDGET_S:
            break
    rss = peak_rss_mb()
    walls = [p[0] for p in passes]
    step_medians = {f"{label}_s": statistics.median(p[1][label] for p in passes)
                    for label in passes[0][1]}
    # a pass at each command's median time: a slow spell of the shared host
    # that hits one command of one pass does not move it
    metrics = {"setup_s": statistics.median(setup_times), "pass_s": sum(step_medians.values()),
               "peak_rss_mb": rss}
    detail.update({
        "setup_samples_s": setup_times,
        "pass_samples_s": walls,
        "step_samples_s": [p[1] for p in passes],
        "workload_metrics": {"setup_s": metrics["setup_s"], **step_medians, "peak_rss_mb": rss},
    })
    return metrics, pass_digests


def _traced_run(workload: Workload, layout: Layout, ops: Operations, detail: dict):
    """One traced set-up, one untraced pass, then TRACED_PASSES traced passes."""
    setup_tracer = Tracer()
    with Instrumentation(setup_tracer, layers.HOOKS) as inst:
        set_up(workload, layout, ops, setup_tracer)
    absent = inst.absent
    wall, _, cpu = timed_pass(workload, layout, ops)
    pass_digests = [digests(layout)]
    tracers, traced_walls = [], []
    for _ in range(TRACED_PASSES):
        tracer = Tracer()
        with Instrumentation(tracer, layers.HOOKS):
            traced_walls.append(timed_pass(workload, layout, ops, tracer)[0])
        tracers.append(tracer)
        pass_digests.append(digests(layout))
    counts = [layers.exact_counts(t) for t in tracers]
    differ = sorted(k for k in set(counts[0]) | set(counts[1])
                    if counts[0].get(k) != counts[1].get(k))
    ops.record("check exact counts repeat across traced passes",
               None if not differ else "counts differ: " + ", ".join(differ))
    hook_errors = {}
    for t in [setup_tracer, *tracers]:
        hook_errors.update(t.hook_errors)
    missing = layers.missing_hooks(absent) | set(hook_errors)
    metrics = layers.layer_metrics(setup_tracer, tracers, missing, cpu / wall,
                                   statistics.mean(traced_walls) - wall)
    detail.update({
        "untraced_pass_s": wall,
        "traced_pass_s": traced_walls,
        "absent_targets": absent,
        "absent_metrics": sorted(set(layers.UNITS) - set(metrics)),
        "hook_errors": hook_errors,
        "exact_counts": counts[0],
    })
    return metrics, pass_digests
