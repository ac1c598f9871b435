"""Write perfbench/golden.json: the exact outputs of each workload's command
for the golden seed, with the numeric environment they were produced in.

Run from the repository root after a change that is meant to alter results:

    python3 perfbench/make_golden.py
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402

harness.pin_environment()


def main() -> int:
    env = harness.environment()
    records = {}
    work_root = ROOT / ".bench_work" / "golden"
    for name, workload in harness.WORKLOADS.items():
        work = work_root / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        _, errors = harness.setup(workload, harness.GOLDEN_SEED, work)
        run = harness.run_command(workload, work)
        if errors or not run.ok:
            print(f"{name}: {errors + run.errors}", file=sys.stderr)
            return 1
        records[name] = harness.output_record(workload, work / "out")
    shutil.rmtree(work_root, ignore_errors=True)
    golden = {"seed": harness.GOLDEN_SEED,
              "environment": harness.numeric_environment(env),
              "workloads": records}
    harness.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {harness.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
