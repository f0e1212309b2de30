"""Record the output digests of every workload op into ``goldens.json``.

    python3 bench/record_goldens.py --seeds 0-15

Run it on the commit whose outputs are the reference. Each seed runs one
untimed pass of each workload and stores every op's digest; existing entries
for other seeds are kept.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 0-15")
    parser.add_argument(
        "--workload", action="append", choices=run.WORKLOAD_NAMES,
        help="repeatable; default every workload",
    )
    args = parser.parse_args(argv)
    if run.import_package() is None:
        print(f"error: no dcs package under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    import gate

    goldens = gate.load_goldens()
    for workload in args.workload or run.WORKLOAD_NAMES:
        for seed in args.seeds:
            # seconds=1 stops after the first pass
            result = run.run_workload(workload, seed, 1, 0, goldens={})
            if not result["correct"]:
                print("\n".join(result["problems"]), file=sys.stderr)
                return 1
            goldens.setdefault(workload, {})[str(seed)] = result["digests"]
            print(f"{workload} seed {seed}: {len(result['digests'])} digests")
    with gate.GOLDENS.open("w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
