"""Record the default-seed outputs of every workload into golden.json.

    python3 bench/record_golden.py

Run once at the commit whose outputs are the reference; every later run
of the default seed compares against these values at rel 1e-9.
"""

import json
import sys

import run
import workloads


def main() -> int:
    golden = {}
    for name in run.WORKLOADS:
        rep = run.run_child(name, workloads.DEFAULT_SEED, 0, False,
                             run.RUN_LIMIT_S)
        bad = [op for op in rep["ops"] if not op["ok"] and op["op"] != "golden"]
        if bad or rep.get("values") is None:
            print(f"{name}: not recorded, failed ops {bad}", file=sys.stderr)
            return 1
        golden[name] = rep["values"]
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
