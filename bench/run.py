#!/usr/bin/env python3
"""Benchmark of the morphfit commands.

    python3 bench/run.py --workload {build,dataset,register,evaluate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: morphfit is imported from its ``src``.
The run sets up its inputs from the seed three times (timing each), then
runs whole rounds of the workload's commands through ``morphfit.cli.main``
until S seconds have passed, checks the last round's outputs, and prints
one JSON object as its last line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps the program's layers and reports per-layer
metrics per item instead.  See README.md in this directory.
"""
import os
import time

START = time.perf_counter()
# One BLAS thread, set before numpy loads: the program's output bytes
# depend on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        libraries = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = {}
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                counts[Path(path).name] = getattr(lib, symbol)()
                break
    return counts


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_rounds(workload, ctx, seconds: float):
    """Whole rounds until ``seconds`` pass; returns per-round (ms, items, failed)."""
    from workloads import cli

    rounds = []
    loop_start = time.perf_counter()
    while True:
        elapsed = items = failed = 0
        for argv, count in workload.commands(ctx):
            t0 = time.perf_counter()
            try:
                code = cli(argv)
            except Exception:
                traceback.print_exc()
                code = -1
            elapsed += time.perf_counter() - t0
            items += count
            if code != 0:
                print(f"{argv[0]} exited with {code}", file=sys.stderr)
                failed += count
        rounds.append((elapsed * 1e3, items, failed))
        if time.perf_counter() - loop_start >= seconds:
            return rounds


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "morphfit" / "__init__.py").is_file():
        print(f"error: no morphfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import morphfit.cli  # noqa: F401

    import_s = time.perf_counter() - START
    from spans import Tracer

    workload = WORKLOADS[args.workload]
    (ROOT / ".bench_runs").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_runs"))
    try:
        category = workload.category(args.seed)
        setups = []
        for repeat in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = workload.setup(work / f"setup{repeat}", category)
            setups.append(time.perf_counter() - t0)
        if args.trace:
            with Tracer() as tracer:
                rounds = run_rounds(workload, ctx, args.seconds)
        else:
            rounds = run_rounds(workload, ctx, args.seconds)
        attempted = sum(r[1] for r in rounds)
        failed = sum(r[2] for r in rounds)
        try:
            problems, error, baseline = workload.check(ctx, category)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems, error, baseline = [f"outputs unreadable: {exc!r}"], float("nan"), float("nan")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        values = tracer.metrics(sum(r[0] for r in rounds), attempted)
    else:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "ms_per_item": statistics.median(ms / items for ms, items, _ in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_m2": error,
            "baseline_error_m2": baseline,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "import_s": import_s, "setups_s": setups, "rounds": len(rounds),
        "round_ms": [r[0] for r in rounds], "environment": environment(),
    }))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
