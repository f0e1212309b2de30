#!/usr/bin/env python3
"""Headline comparison: all suite tasks x all modes x several seeds.

Generates the benchmark suite into a temporary directory that is removed
when the run ends (unless --suite-dir already holds one), optimizes on
each train set in every mode, measures on the paired held-out eval set,
and writes runs.csv + summary.csv. Use DCS_THREADS=<n> to run
grid cells in parallel.

    python3 scripts/run_comparison.py --out results/
    DCS_THREADS=8 python3 scripts/run_comparison.py --out results/ --seeds 0,1,2,3,4
"""
import argparse
import csv
import json
import sys
import tempfile
from pathlib import Path

from dcs.cli import main as cli_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--suite-dir",
        default=None,
        help="directory with a generated suite (default: a fresh temporary "
        "one, removed afterwards)",
    )
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated")
    parser.add_argument("--modes", default="dcs,dnip,furud")
    parser.add_argument("--beta", default="1.0")
    parser.add_argument("--tau", default="1.0")
    args = parser.parse_args(argv)

    if args.suite_dir is None:
        with tempfile.TemporaryDirectory(prefix="suite-") as suite_dir:
            rc = cli_main(["generate", "--out", suite_dir])
            if rc == 0:
                rc = _compare(Path(suite_dir), args)
    else:
        rc = _compare(Path(args.suite_dir), args)
    if rc != 0:
        return rc

    with (Path(args.out) / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    by_mode: dict[str, list[float]] = {}
    for row in rows:
        by_mode.setdefault(row["mode"], []).append(float(row["accuracy_mean"]))
    print("\nmean eval accuracy over the suite:")
    for mode, values in sorted(by_mode.items()):
        print(f"  {mode:>6}: {sum(values) / len(values):.4f}")
    return 0


def _compare(suite_dir: Path, args) -> int:
    """``dcs compare`` over every task of the suite in ``suite_dir``."""
    manifest = json.loads((suite_dir / "suite.json").read_text())
    argv = ["compare"]
    for task in manifest["tasks"]:
        argv += ["--input", str(suite_dir / task["train"])]
        argv += ["--eval-input", str(suite_dir / task["eval"])]
    argv += [
        "--mode", args.modes,
        "--seed", args.seeds,
        "--beta", args.beta,
        "--tau", args.tau,
        "--out", args.out,
    ]
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
