"""Record the per-seed references the output checks compare against: each
workload's test_sqrt_pehe and the digests of its numeric artifacts.

From the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py --seeds 0-19

Rewrites perfbench/reference.json. A seed without a reference is still run
and checked, but test_sqrt_pehe then only has to be finite.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

# how far above its reference test_sqrt_pehe may rise before the check fails;
# training is chaotic, so a change of float summation order alone moves it
TOLERANCE = 0.25


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    root = Path.cwd()
    ref = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {"workloads": {}}
    ref["tolerance"] = TOLERANCE
    ref["environment"] = run.environment(root)
    for name in args.workload or list(WORKLOADS):
        entries = ref["workloads"].setdefault(name, {})
        for seed in range(first, last + 1):
            report = run.run_workload(root, name, seed, seconds=0, trace=False)
            if report["failed"]:
                print(f"{name} seed {seed}: {report['failures']}", file=sys.stderr)
                return 1
            entries[str(seed)] = {"test_sqrt_pehe": report["reported"]["test_sqrt_pehe"],
                                  "digests": report["digests"]}
            print(f"{name} seed {seed}: test_sqrt_pehe {entries[str(seed)]['test_sqrt_pehe']:.6g}",
                  flush=True)
            run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
