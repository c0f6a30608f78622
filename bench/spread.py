#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric over the runs.

    python3 bench/spread.py --workload evaluate --seeds 1-10 --trace 0

Prints, per metric, the median and the interquartile range over the
median (quartiles from ``statistics.quantiles(n=4)``), and the share of
failed items.  With ``--trace 1`` it also prints each layer's share of
the traced wall time.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        shown = {name: f"{m['value']:.4g}" for name, m in result["metrics"].items()
                 if args.trace == "0" or name in ("trace.wall_ms", "cpd.iterations")}
        print(f"seed {seed}: correct {result['correct']}, {result['attempted']} attempted, "
              f"{result['failed']} failed, {shown}", flush=True)
        failed_shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{args.workload}: failed share {sorted(failed_shares)}")
    for name, runs in values.items():
        median = statistics.median(runs)
        q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        share = ""
        if args.trace == "1" and name != "trace.wall_ms" and name.endswith("_ms"):
            share = f"  {median / statistics.median(values['trace.wall_ms']):6.1%} of traced wall"
        print(f"  {name:28s} median {median:12.6g}  spread {spread:.4f}{share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
