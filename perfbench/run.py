"""co2fuse benchmark: the fit and apply workloads.

    python3 perfbench/run.py --workload fit --seed 43 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The package is imported from ``src/`` next to
this directory, never from an installed copy. Each run makes a synthetic
campaign from ``--seed`` (``co2fuse synth --seed N``), sets up several
times (three for fit, twice for apply), then repeats the workload's command
sequence at least twice, and again while one more pass, as long as the
longest so far, would end within ``--seconds``, and checks the outputs.
``setup_s`` is the median set-up; ``pass_s`` is the sum of each command's
median over the passes. The last stdout line is the result object; the line
before it holds the per-command medians, samples, environment, workload
sizes, file digests and any failures.

With ``--trace 1`` the run reports per-layer metrics instead: one traced
set-up, one untraced pass, then two traced passes whose exact counts must
agree. ``--smoke`` runs every workload both ways on a tiny campaign and
checks that each metric in BENCHMARK.json is reported with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            os.environ[var] = str(nproc)


def import_package() -> None:
    if not (SRC / "co2fuse" / "cli.py").is_file():
        sys.exit(f"perfbench: no co2fuse sources at {SRC.relative_to(ROOT)}/co2fuse")
    sys.path.insert(0, str(SRC))
    import co2fuse

    if Path(co2fuse.__file__).resolve().parent != SRC / "co2fuse":
        sys.exit("perfbench: co2fuse was imported from outside src/")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fit", "apply"))
    parser.add_argument("--seed", type=int, default=43)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads on a tiny campaign; checks every metric is reported")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    import_package()
    import harness

    work = WORK / f"{'smoke' if args.smoke else args.workload}-{os.getpid()}"
    try:
        if args.smoke:
            import smoke

            return smoke.run(work, json.loads((ROOT / "BENCHMARK.json").read_text()))
        result, detail = harness.run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace), work)
    except harness.SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for failure in detail["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
