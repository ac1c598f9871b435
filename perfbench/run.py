"""Benchmark the sfodlab CLI on one seeded workload.

Run from the repository root:

    python3 perfbench/run.py --workload adapt_sf_ut --seed 0 --seconds 36 --trace 0

Workloads: source_train, adapt_sf_ut, adapt_adabn (see perfbench/README.md).
Progress goes to standard error. Standard output ends with two JSON lines:
the environment record (BLAS threads, nproc, Python, numpy, scipy, OpenBLAS,
seed), then the result object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones from traced runs.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402

harness.pin_environment()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    p.add_argument("--seed", type=int, default=harness.GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sfodlab" / "cli.py").is_file():
        print(f"error: no sfodlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, env = harness.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), ROOT / ".bench_work")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
