"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.
With ``--trace 0`` it times a closed loop over the workload's seeded jobs
and prints the end-to-end metrics; with ``--trace 1`` it runs the job list
once untraced and once traced and prints the per-layer metrics.  The last
line of standard output is the result as one JSON object.  Run records and
spans go to ``perfbench/_runs/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread: the matrices have at most a few hundred rows, and more
# threads on a small machine only add scheduler noise.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="fit, bound or selftest")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up in this process and exit")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return harness.setup_probe(args.workload, args.seed)
        result = harness.run(args.workload, args.seed, args.seconds, args.trace)
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
