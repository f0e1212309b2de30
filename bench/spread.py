"""Run the benchmark once per seed and summarise each metric across the runs.

    python3 bench/spread.py --seeds 0-9 --out baseline.json
    python3 bench/spread.py --workload fit_wide --seeds 20-24

Each run is a separate process started with the command and run length from
BENCHMARK.json, one after another. For every metric the summary gives the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the interquartile distance as a share of the median. Run it from the
root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from record_goldens import _seed_range

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "n": len(values),
    }


def run_once(bench: dict, workload: str, seed: int, trace: int):
    """(last-line result, environment block) of one benchmark process."""
    cmd = [
        *bench["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}"
        )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {
        "run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}
    }
    for workload in names:
        values: dict[str, list[float]] = {}
        units, failed, env = {}, 0, None
        for seed in args.seeds:
            result, env = run_once(bench, workload, seed, args.trace)
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            values_text = " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            )
            print(
                f"{workload} seed {seed} correct={result['correct']} "
                + values_text,
                flush=True,
            )
        metrics = {
            name: {"unit": units[name], **summarize(vals)}
            for name, vals in values.items()
        }
        for name, m in metrics.items():
            print(
                f"  {workload} {name}: median {m['median']:.6g} {m['unit']},"
                f" spread {m['spread']}"
            )
        summary["workloads"][workload] = {
            "seeds": args.seeds,
            "failed": failed,
            "env": env,
            "metrics": metrics,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
