"""Record the reference outputs that ``run.py`` checks recorded seeds against.

    python3 perfbench/record.py --seeds 1-10 [--workload NAME ...] > refs.json
    python3 perfbench/record.py --merge refs-a.json refs-b.json

The first form runs the first ``RECORDED_UNITS`` units of each workload
for each seed and prints them as JSON.  ``--merge`` combines such files
into ``perfbench/references.json``.  Record at a commit whose outputs
are known to be right: later commits must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

from spread import parse_seeds
from workloads import REFERENCES, ROOT, WORKLOADS, import_package

# At least the units one run reaches at the default --seconds on a 2-core machine.
RECORDED_UNITS = {
    "pendigits-rpnd-c45": 2,
    "vowel-bagged-logistic": 3,
    "segment-evaluate-jobs2": 1,
}


def record(workload_names, seeds) -> dict:
    pkg = import_package()
    out: dict = {}
    for name in workload_names:
        workload = WORKLOADS[name]
        for seed in seeds:
            state = workload.setup(pkg, seed)
            try:
                units = []
                for u in range(RECORDED_UNITS[name]):
                    result = workload.run_unit(pkg, state, u)
                    if result.failed:
                        raise SystemExit(f"{name} seed {seed}: {result.problems}")
                    units.append(result.outputs)
            finally:
                workload.cleanup(state)
            if "results.csv" in units[0]:
                out.setdefault(name, {})[str(seed)] = units[0]["results.csv"]
            else:
                out.setdefault(name, {})[str(seed)] = {
                    method: [unit[method] for unit in units] for method in units[0]
                }
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record reference outputs")
    parser.add_argument("--seeds", type=parse_seeds)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--merge", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    if args.merge:
        merged: dict = {}
        for path in args.merge:
            with open(path) as fh:
                for name, by_seed in json.load(fh).items():
                    merged.setdefault(name, {}).update(by_seed)
        REFERENCES.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
        return 0
    if not args.seeds:
        parser.error("--seeds or --merge is required")
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(record(args.workload or sorted(WORKLOADS), args.seeds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
