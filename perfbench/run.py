"""Benchmark entry point.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; `ybk` is imported from its `src`
directory.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  With `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    # set-up imports `ybk` afresh many times; the bytecode the first import
    # writes lets the others load it as an installed tool does, so `setup_s`
    # does not depend on whether PYTHONDONTWRITEBYTECODE is set
    sys.dont_write_bytecode = False
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ybk" / "__init__.py").is_file():
        print(f"error: no ybk sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    import harness

    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
